//! HadoopLab host-time and virtual-time benchmark.
//!
//! ```text
//! hl-perfbench --workload <wordcount-lab|terasort|sched-replay|namenode>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up (three times,
//! keeping the median), runs one warm-up round, then runs rounds back to
//! back for `--seconds` (and at least [`MIN_ROUNDS`]). Every round's
//! output is checked and its virtual-plane numbers are compared with the
//! first round on the same input; a round failing either check counts as
//! failed. A reference pass before every round measures how fast the
//! host is (see [`calibrate`]); the JSON's timing metrics are scaled to
//! reference speed. Metrics print one per line, then the last line is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run
//! alternates traced and untraced rounds and writes its spans to
//! `.bench_out/` when it ends. See `perfbench/README.md`.

mod calibrate;
mod harness;
mod metrics;
mod mr;
mod namenode;
mod sched;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hl_common::prelude::fnv1a;

use harness::{secs, RoundOut, SetupTimes, Stopwatch, Workload};
use metrics::{Metric, END_TO_END};
use trace::{NameStats, Tracer};

const WORKLOADS: [&str; 4] = ["wordcount-lab", "terasort", "sched-replay", "namenode"];
/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// Rounds a run makes however long they take: enough that the untraced
/// half of a traced run still has a `.tail`.
const MIN_ROUNDS: usize = 2 * (stats::TAIL_BEYOND + 1);
/// The DES prices of the hlz codec, printed beside its measured speed.
const DES_COMPRESS_MIB_S: f64 = (hl_codec::COMPRESS_BYTES_PER_SEC / (1024 * 1024)) as f64;
const DES_DECOMPRESS_MIB_S: f64 = (hl_codec::DECOMPRESS_BYTES_PER_SEC / (1024 * 1024)) as f64;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn boxed<W: Workload + 'static>((w, times): (W, SetupTimes)) -> (Box<dyn Workload>, SetupTimes) {
    (Box::new(w), times)
}

fn setup(workload: &str, seed: u64) -> Result<(Box<dyn Workload>, SetupTimes), String> {
    use harness::err;
    Ok(match workload {
        "wordcount-lab" => boxed(mr::WordcountLab::setup(seed).map_err(err)?),
        "terasort" => boxed(mr::Terasort::setup(seed).map_err(err)?),
        "sched-replay" => boxed(sched::SchedReplay::setup(seed)),
        "namenode" => boxed(namenode::NameNodeWl::setup(seed).map_err(err)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// One measured round.
struct Rec {
    round: u32,
    traced: bool,
    host_ns: u64,
    /// Factor from this round's host time to reference-speed time.
    to_ref: f64,
    out: Result<RoundOut, String>,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Run one round (plus, when traced, its layer probes) and hold its
/// virtual-plane numbers against the first round on the same input.
fn run_round(
    wl: &mut dyn Workload,
    tr: &mut Tracer,
    round: u32,
    traced: bool,
    refs: &mut BTreeMap<usize, Vec<(String, u64)>>,
) -> Rec {
    tr.begin_round(round, traced);
    let mut sw = Stopwatch::start();
    let res =
        catch_unwind(AssertUnwindSafe(|| tr.span("round", |tr| wl.round(round, tr, &mut sw))));
    let host_ns = sw.round_ns();
    let mut out = res.unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p))));
    if traced {
        if let Ok(o) = &mut out {
            tr.begin_round(round, true);
            let probed =
                catch_unwind(AssertUnwindSafe(|| tr.span("probe", |tr| wl.probe(round, tr, o))));
            if let Err(e) =
                probed.unwrap_or_else(|p| Err(format!("probe panicked: {}", panic_text(p))))
            {
                out = Err(e);
            }
        }
    }
    tr.begin_round(round, false);
    if let Ok(o) = &out {
        match refs.get(&o.input) {
            None => {
                refs.insert(o.input, o.virt.clone());
            }
            Some(first) if *first != o.virt => {
                let diff = first
                    .iter()
                    .zip(&o.virt)
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("{} {} vs first round's {}", b.0, b.1, a.1))
                    .unwrap_or_else(|| "different virtual-plane metric set".into());
                out = Err(format!("determinism: {diff}"));
            }
            Some(_) => {}
        }
    }
    Rec { round, traced, host_ns, to_ref: 1.0, out }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run measured, for the report.
struct Run {
    args: Args,
    setup_core_s: Vec<f64>,
    setups: Vec<SetupTimes>,
    warmup_s: f64,
    recs: Vec<Rec>,
    /// Duration of the reference pass before each round, then one more
    /// after the last.
    ref_pass_ms: Vec<f64>,
    virtual_digest: u64,
    rss_mib: f64,
}

impl Run {
    fn ok(&self) -> impl Iterator<Item = (&Rec, &RoundOut)> {
        self.recs.iter().filter_map(|r| r.out.as_ref().ok().map(|o| (r, o)))
    }

    fn host_ms(&self, traced: bool) -> Vec<f64> {
        self.ok().filter(|(r, _)| r.traced == traced).map(|(r, _)| r.host_ns as f64 / 1e6).collect()
    }

    fn failed(&self) -> usize {
        self.recs.iter().filter(|r| r.out.is_err()).count()
    }

    fn setup_s(&self) -> f64 {
        stats::median(&self.setup_core_s) + self.warmup_s
    }

    /// Round times scaled to reference speed.
    fn ref_ms(&self, traced: bool) -> Vec<f64> {
        self.ok()
            .filter(|(r, _)| r.traced == traced)
            .map(|(r, _)| r.host_ns as f64 / 1e6 * r.to_ref)
            .collect()
    }

    /// Set-up time scaled by the reference passes nearest to it, the
    /// first few of the run.
    fn setup_ref_s(&self) -> f64 {
        let first = &self.ref_pass_ms[..self.ref_pass_ms.len().min(calibrate::WINDOW)];
        self.setup_s() * calibrate::REF_PASS_MS / stats::median(first)
    }

    /// Values of `name` over the successful rounds (traced ones only, or
    /// untraced ones only).
    fn values(&self, name: &str, traced: bool) -> Vec<f64> {
        self.ok().filter(|(r, _)| r.traced == traced).filter_map(|(_, o)| o.value(name)).collect()
    }

    /// The first successful round on each input: its virtual-plane
    /// numbers are the run's, whatever the round count.
    fn first_per_input(&self) -> impl Iterator<Item = &RoundOut> {
        let mut seen = std::collections::BTreeSet::new();
        self.ok().map(|(_, o)| o).filter(move |o| seen.insert(o.input))
    }

    /// Job waits pooled over the first successful round on each input.
    fn distinct_input_waits(&self) -> Vec<f64> {
        self.first_per_input().flat_map(|o| o.waits.iter().copied()).collect()
    }

    /// Sum of `name` per host second of the untraced rounds that did it.
    fn per_host_s(&self, name: &str) -> Option<f64> {
        let (mut work, mut ns) = (0.0, 0u64);
        for (r, o) in self.ok().filter(|(r, _)| !r.traced) {
            work += o.value(name)?;
            ns += r.host_ns;
        }
        (ns > 0).then(|| work / (ns as f64 / 1e9))
    }
}

fn end_to_end(run: &Run) -> Vec<(Metric, f64)> {
    let scaled = run.ref_ms(false);
    let tail = stats::tail(&scaled).map_or(0.0, |t| t.value);
    let values = [run.setup_ref_s(), stats::median(&scaled), tail, run.rss_mib];
    END_TO_END.iter().copied().zip(values).collect()
}

/// Print `name = value unit`, the unit from the metric tables, and a note.
fn line(name: &str, value: f64, note: &str) {
    println!("{name} = {value} {}{note}", metrics::unit(name));
}

/// The end-to-end lines, with the workload-specific metrics the JSON line
/// leaves out.
fn print_end_to_end(run: &Run) {
    let host = run.host_ms(false);
    let core = stats::median(&run.setup_core_s);
    line(
        "setup_host_s",
        run.setup_s(),
        &format!(" (median of {SETUP_REPS} set-ups {core} s + warm-up round {} s)", run.warmup_s),
    );
    line("round_host_ms.p50", stats::median(&host), &format!(" (n={})", host.len()));
    let tail_note = |t: &stats::Tail| {
        format!(" (p{:.1}, n={}, {} beyond)", t.percentile, t.samples, stats::TAIL_BEYOND)
    };
    match stats::tail(&host) {
        Some(t) => line("round_host_ms.tail", t.value, &tail_note(&t)),
        None => println!("round_host_ms.tail = n/a (n={} is too few)", host.len()),
    }
    let passes = run.ref_pass_ms.len();
    line(
        "calibration.host_ms",
        stats::median(&run.ref_pass_ms),
        &format!(
            " (median of {passes} reference passes; reference speed = {} ms)",
            calibrate::REF_PASS_MS
        ),
    );
    for (m, v) in end_to_end(run).into_iter().filter(|(m, _)| m.name != "peak_rss_mib") {
        line(m.name, v, " (host time scaled to reference speed)");
    }
    let mib = run.per_host_s("input_bytes").map(|b| b / (1024.0 * 1024.0));
    for (name, v) in [
        ("input_mib_per_host_s", mib),
        ("decisions_per_host_s", run.per_host_s("decisions")),
        ("nn_ops_per_host_s", run.per_host_s("nn_ops")),
    ] {
        if let Some(v) = v {
            line(name, v, "");
        }
    }
    let makespan: Vec<f64> =
        run.first_per_input().filter_map(|o| o.value("makespan_virtual_s")).collect();
    if !makespan.is_empty() {
        line(
            "makespan_virtual_s",
            stats::median(&makespan),
            &format!(" (median over {} inputs)", makespan.len()),
        );
    }
    let waits = run.distinct_input_waits();
    if !waits.is_empty() {
        line("job_wait_virtual_s.p50", stats::median(&waits), &format!(" (n={})", waits.len()));
        if let Some(t) = stats::tail(&waits) {
            line("job_wait_virtual_s.tail", t.value, &tail_note(&t));
        }
    }
    let (failed, attempted) = (run.failed(), run.recs.len());
    line(
        "fail_frac",
        failed as f64 / attempted as f64,
        &format!(" ({failed} failed / {attempted} attempted)"),
    );
    line("peak_rss_mib", run.rss_mib, " (VmHWM)");
    println!("virtual_digest = {:016x}", run.virtual_digest);
}

/// Per-layer metrics from the traced rounds' spans and values.
fn per_layer(run: &Run, spans: &BTreeMap<&'static str, NameStats>) -> Vec<(Metric, f64)> {
    let traced: Vec<u32> = run.ok().filter(|(r, _)| r.traced).map(|(r, _)| r.round).collect();
    let round_ns = |names: &[&str]| -> Vec<f64> {
        traced
            .iter()
            .map(|r| {
                names
                    .iter()
                    .filter_map(|n| spans.get(n).and_then(|s| s.per_round_ns.get(r)))
                    .sum::<u64>() as f64
            })
            .collect()
    };
    let per_round_ms = |names: &[&str]| stats::median(&round_ns(names)) / 1e6;
    let mean_us = |name: &str| {
        spans
            .get(name)
            .filter(|s| s.calls > 0)
            .map_or(0.0, |s| s.self_ns as f64 / s.calls as f64 / 1e3)
    };
    let calls_us = |name: &str| -> Vec<f64> {
        spans
            .get(name)
            .map_or_else(Vec::new, |s| s.per_span_ns.iter().map(|&n| n as f64 / 1e3).collect())
    };
    let median_of = |name: &str| stats::median(&run.values(name, true));
    let setup_part =
        |f: fn(&SetupTimes) -> f64| stats::median(&run.setups.iter().map(f).collect::<Vec<_>>());

    metrics::per_layer()
        .into_iter()
        .map(|m| {
            let v = match m.name {
                "dfs.put.host_ms" => per_round_ms(&["dfs.put", "dfs.put_compressed"]),
                "dfs.read.host_ms" => per_round_ms(&["dfs.read", "dfs.read_output"]),
                "dfs.delete.host_ms" => per_round_ms(&["dfs.delete", "dfs.apply_commands"]),
                "mr.run_job.host_ms" => per_round_ms(&["mr.run_job"]),
                "nn.create.host_us" => mean_us("nn.create_file"),
                "nn.add_block.host_us" => mean_us("nn.add_block"),
                "nn.complete.host_us" => mean_us("nn.complete_file"),
                "nn.block_report.host_us.p50" => {
                    stats::median(&calls_us("nn.process_block_report"))
                }
                "nn.block_report.host_us.tail" => {
                    stats::tail(&calls_us("nn.process_block_report")).map_or(0.0, |t| t.value)
                }
                "nn.incremental_report.host_us" => mean_us("nn.process_incremental_report"),
                "nn.checkpoint.host_ms" => per_round_ms(&["nn.checkpoint"]),
                "nn.restart.host_ms" => per_round_ms(&["nn.restart"]),
                "nn.delete.host_ms" => per_round_ms(&["nn.delete"]),
                "des.host_ns_per_event" => {
                    let ns = round_ns(&["des.heartbeat_rounds"]);
                    let events = run.values("des.events", true);
                    let per: Vec<f64> = ns
                        .iter()
                        .zip(&events)
                        .filter(|(_, &e)| e > 0.0)
                        .map(|(n, e)| n / e)
                        .collect();
                    stats::median(&per)
                }
                "metrics.snapshot.host_us" => per_round_ms(&["metrics.snapshot"]) * 1e3,
                "setup.datagen_s" => setup_part(|s| s.datagen_s),
                "setup.cluster_s" => setup_part(|s| s.cluster_s),
                "setup.warmup_s" => run.warmup_s,
                "calibration.host_ms" => stats::median(&run.ref_pass_ms),
                "verify.host_ms" => per_round_ms(&["verify"]),
                "trace.overhead_frac" => {
                    let (on, off) =
                        (stats::median(&run.host_ms(true)), stats::median(&run.host_ms(false)));
                    if off > 0.0 {
                        on / off - 1.0
                    } else {
                        0.0
                    }
                }
                name => median_of(name),
            };
            (m, v)
        })
        .collect()
}

/// Per-layer lines, with the readings the hotspot list asks for.
fn print_per_layer(run: &Run, layer: &[(Metric, f64)]) {
    let get = |name: &str| layer.iter().find(|(m, _)| m.name == name).map_or(0.0, |(_, v)| *v);
    for (m, v) in layer {
        let note = match m.name {
            "codec.compress.host_mib_per_s" => format!(" (DES price {DES_COMPRESS_MIB_S} MiB/s)"),
            "codec.decompress.host_mib_per_s" => {
                format!(" (DES price {DES_DECOMPRESS_MIB_S} MiB/s)")
            }
            "sched.capacity.host_us_per_decision"
                if get("sched.fifo.host_us_per_decision") > 0.0 =>
            {
                format!(" ({:.1}x fifo)", v / get("sched.fifo.host_us_per_decision"))
            }
            "metrics.snapshot.host_us" => {
                let p50_ms = stats::median(&run.host_ms(true));
                if p50_ms > 0.0 {
                    format!(" ({:.2}% of the traced round p50)", v / 1e3 / p50_ms * 100.0)
                } else {
                    String::new()
                }
            }
            _ => String::new(),
        };
        line(m.name, *v, &note);
    }
}

fn json_line(run: &Run, metrics: &[(Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed() == 0,
        run.recs.len(),
        run.failed(),
        body.join(", ")
    )
}

fn run(args: Args) -> Result<(), String> {
    let mut setup_core_s = Vec::new();
    let mut setups = Vec::new();
    let mut wl = None;
    for _ in 0..SETUP_REPS {
        drop(wl.take()); // free the previous set-up's inputs first
        let t = Instant::now();
        let (w, times) = setup(&args.workload, args.seed)?;
        setup_core_s.push(secs(t));
        setups.push(times);
        wl = Some(w);
    }
    let mut wl = wl.expect("at least one set-up");
    let mut tr = Tracer::new();
    let mut refs = BTreeMap::new();

    let t = Instant::now();
    let warm = run_round(wl.as_mut(), &mut tr, 0, false, &mut refs);
    let warmup_s = secs(t);
    if let Err(e) = &warm.out {
        eprintln!("warm-up round failed: {e}");
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut recs = Vec::new();
    let mut cal_ms = Vec::new();
    let mut round = 1u32;
    while Instant::now() < deadline || recs.len() < MIN_ROUNDS {
        let traced = args.trace && round % 2 == 1;
        cal_ms.push(calibrate::pass_ms(round));
        let rec = run_round(wl.as_mut(), &mut tr, round, traced, &mut refs);
        if let Err(e) = &rec.out {
            eprintln!("round {round} failed: {e}");
        }
        recs.push(rec);
        round += 1;
    }
    cal_ms.push(calibrate::pass_ms(round));
    for (i, rec) in recs.iter_mut().enumerate() {
        rec.to_ref = calibrate::to_ref(&cal_ms, i);
    }
    let digest_src: String = refs.iter().map(|(i, v)| format!("{i}:{v:?};")).collect();
    let run = Run {
        virtual_digest: fnv1a(digest_src.as_bytes()),
        rss_mib: peak_rss_mib(),
        ref_pass_ms: cal_ms,
        args,
        setup_core_s,
        setups,
        warmup_s,
        recs,
    };
    println!(
        "# workload={} seed={} seconds={} trace={} rounds={} failed={}",
        run.args.workload,
        run.args.seed,
        run.args.seconds,
        u8::from(run.args.trace),
        run.recs.len(),
        run.failed()
    );
    print_end_to_end(&run);
    let metrics = if run.args.trace {
        let layer = per_layer(&run, &trace::by_name(tr.spans()));
        print_per_layer(&run, &layer);
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-seed{}.tsv", run.args.workload, run.args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| tr.write_tsv(&path)) {
            Ok(()) => println!("# spans: {} written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
        layer
    } else {
        end_to_end(&run)
    };
    println!("{}", json_line(&run, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: hl-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every entry in one of `BENCHMARK.json`'s metric
    /// lists. The file keeps one entry per line, so a line scan suffices.
    fn listed(key: &str) -> Vec<(String, String)> {
        let field = |line: &str, k: &str| -> Option<String> {
            let at = line.find(&format!("\"{k}\": \""))? + k.len() + 5;
            Some(line[at..].split('"').next()?.to_string())
        };
        BENCHMARK_JSON
            .lines()
            .skip_while(|l| !l.contains(&format!("\"{key}\": [")))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(|l| (field(l, "name").expect("name"), field(l, "unit").expect("unit")))
            .collect()
    }

    fn fake_run(trace: bool) -> Run {
        let recs = (0..30u32)
            .map(|round| {
                let mut out = RoundOut::default();
                out.set("input_bytes", 1e6);
                Rec {
                    round,
                    traced: trace && round % 2 == 1,
                    host_ns: 1_000_000 + u64::from(round),
                    to_ref: 2.0,
                    out: Ok(out),
                }
            })
            .collect();
        Run {
            args: Args { workload: "wordcount-lab".into(), seed: 1, seconds: 1, trace },
            setup_core_s: vec![0.5, 0.6, 0.7],
            setups: vec![SetupTimes::default(); 3],
            warmup_s: 0.1,
            recs,
            ref_pass_ms: vec![1.5; 31],
            virtual_digest: 0,
            rss_mib: 10.0,
        }
    }

    /// Metric names in a JSON result line, in order.
    fn keys_of(json: &str) -> Vec<String> {
        let metrics = &json[json.find("\"metrics\": {").expect("metrics object") + 12..];
        let chunks: Vec<&str> = metrics.split("{\"value\"").collect();
        // Each chunk but the last ends with the next metric's `"name": `.
        chunks[..chunks.len() - 1]
            .iter()
            .filter_map(|c| c.rsplit('"').nth(1))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let pairs = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), pairs(END_TO_END));
        assert_eq!(listed("per_layer"), pairs(&metrics::per_layer()));
    }

    #[test]
    fn every_benchmark_json_metric_is_printed() {
        let run = fake_run(false);
        let line = json_line(&run, &end_to_end(&run));
        let want: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(keys_of(&line), want);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 30, \"failed\": 0, "));

        let run = fake_run(true);
        let line = json_line(&run, &per_layer(&run, &BTreeMap::new()));
        let want: Vec<String> = listed("per_layer").into_iter().map(|(n, _)| n).collect();
        assert_eq!(keys_of(&line), want);
    }

    #[test]
    fn end_to_end_values_come_from_untraced_rounds() {
        let run = fake_run(false);
        let e2e = end_to_end(&run);
        let near = |n: &str, want: f64| {
            let got = e2e.iter().find(|(m, _)| m.name == n).map(|(_, v)| *v).expect(n);
            assert!((got - want).abs() < 1e-12, "{n}: {got} vs {want}");
        };
        // The reference passes took 1.5 ms, half the reference 3 ms: the
        // host ran at twice reference speed.
        near("setup_s", (0.6 + 0.1) * 2.0);
        near("round_ref_ms.p50", 1.0000145 * 2.0);
        // 30 rounds: the 11th largest (round 19) is the tail.
        near("round_ref_ms.tail", 1.000019 * 2.0);
    }
}
