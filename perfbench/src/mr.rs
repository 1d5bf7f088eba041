//! The two MapReduce workloads: `wordcount-lab` and `terasort`.
//!
//! Every round formats a fresh cluster, so block placement, the virtual
//! clock and the degrade models start from the same state each time and
//! a round on a reused input must reproduce its virtual-plane numbers
//! exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use hl_cluster::node::{ClusterSpec, DegradeModel, HeterogeneousClusterSpec, PerfProfile};
use hl_codec::CodecId;
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_datagen::CorpusGen;
use hl_mapreduce::report::JobReport;
use hl_mapreduce::MrCluster;
use hl_metrics::MetricsSnapshot;
use hl_workloads::tpcxhs::{expected_digest, hsgen, hssort, hsvalidate, parse_verdict};
use hl_workloads::wordcount::wordcount_combiner;

use crate::harness::{err, secs, Outcome, RoundOut, SetupTimes, Stopwatch, Workload};
use crate::trace::Tracer;

/// `bench-snapshot`'s pinned block size: several map tasks per job.
const BLOCK_SIZE: u64 = 128 * 1024;
/// `bench-snapshot`'s pinned sort buffer: guaranteed spills.
const SORT_BYTES: u64 = 64 * 1024;
/// `io.bytes.per.checksum`, the chunk the DataNodes checksum.
const CRC_CHUNK: usize = 512;

/// Words per wordcount-lab corpus, and how many corpora the rounds cycle
/// through.
const LAB_WORDS: usize = 150_000;
const LAB_CORPORA: usize = 4;
/// Words in the terasort input (about 9 bytes each).
const HS_WORDS: usize = 1_000_000;

fn pinned_config() -> Configuration {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, BLOCK_SIZE);
    config.set(keys::IO_SORT_BYTES, SORT_BYTES);
    config
}

/// `bench-snapshot`'s 8-node course cluster.
fn lab_cluster(config: &Configuration) -> Result<MrCluster> {
    MrCluster::new(ClusterSpec::course_hadoop(8), config.clone())
}

/// `bench-snapshot`'s skewed TPCx-HS cluster: node 1 statically at 25% of
/// nominal CPU and disk, node 2 decaying to 40% over the first two virtual
/// seconds, every block replicated to all eight nodes.
fn skewed_cluster(config: &Configuration) -> Result<MrCluster> {
    let contended =
        |bp: u32| PerfProfile { cpu_mult: bp, disk_mult: bp, nic_mult: PerfProfile::NOMINAL_BP };
    let spec = HeterogeneousClusterSpec::new(ClusterSpec::course_hadoop(8))
        .with_model(NodeId(1), DegradeModel::Static(contended(2_500)))
        .with_model(
            NodeId(2),
            DegradeModel::Decay {
                from: SimTime::ZERO,
                ramp: SimDuration::from_secs(2),
                floor: contended(4_000),
            },
        );
    MrCluster::new_heterogeneous(&spec, config.clone())
}

fn hs_config() -> Configuration {
    let mut config = pinned_config();
    config.set(keys::DFS_REPLICATION, 8u64);
    config
}

/// Delete `paths` the way a client does: the NameNode unlinks, then the
/// DataNodes act on the invalidations it hands back.
fn delete_all(c: &mut MrCluster, tr: &mut Tracer, paths: &[&str]) -> Result<()> {
    for path in paths {
        let cmds = tr.span("dfs.delete", |_| c.dfs.namenode.delete(path, true))?;
        let now = c.now;
        tr.span("dfs.apply_commands", |_| c.dfs.apply_commands(&mut c.net, now, &cmds));
    }
    Ok(())
}

/// The bytes of `path`'s blocks as the DataNodes store them, kept for the
/// CRC probe.
fn stored_blocks(c: &MrCluster, path: &str) -> Outcome<Vec<Vec<u8>>> {
    let blocks = c.dfs.file_blocks(path).map_err(err)?;
    blocks
        .iter()
        .map(|(id, _, _)| {
            c.dfs.peek_block_bytes(*id).map(|b| b.to_vec()).ok_or(format!("{id}: no clean replica"))
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The engine, sort/merge, speculation, DFS and metrics counters of one
/// round, from its job reports and the end-of-round metrics snapshot.
fn record_mr(out: &mut RoundOut, reports: &[&JobReport], snap: &MetricsSnapshot) {
    let jt = |name: &str| snap.counter("jobtracker", name);
    let sum = |f: &dyn Fn(&JobReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let tasks = sum(&|r| r.tasks.len() as u64);
    let maps = sum(&|r| r.num_maps() as u64);
    let attempts = sum(&|r| r.tasks.iter().map(|t| u64::from(t.attempts)).sum());
    let node_local = sum(&|r| r.locality_histogram().0 as u64);
    let map_us = sum(&|r| r.total_map_time().0);
    let reduce_us = sum(&|r| r.total_reduce_time().0);
    let combine_in = sum(&|r| r.counters.task(TaskCounter::CombineInputRecords));
    let combine_out = sum(&|r| r.counters.task(TaskCounter::CombineOutputRecords));
    let codec_in = jt("codec.in_bytes") + snap.counter("dfs.client", "codec.in_bytes");
    let codec_out = jt("codec.out_bytes") + snap.counter("dfs.client", "codec.out_bytes");
    let written = snap.counter_across_daemons("bytes.written");
    let read = snap.counter_across_daemons("bytes.read");
    let series = snap.samples.len() as u64;

    for (name, v) in [
        ("mr.tasks", tasks),
        ("mr.sched.decisions", jt("sched.decisions")),
        ("mr.spill.bytes", jt("spill.bytes")),
        ("mr.spill.count", jt("spill.count")),
        ("mr.merge.bytes", jt("merge.bytes")),
        ("mr.merge.passes", jt("merge.passes")),
        ("mr.shuffle.bytes", jt("shuffle.bytes")),
        ("mr.spec.launched", jt("spec.launched")),
        ("codec.in_bytes", codec_in),
        ("codec.out_bytes", codec_out),
        ("dfs.bytes_written", written),
        ("dfs.bytes_read", read),
        ("dfs.read.failovers", snap.counter("dfs.client", "read.failovers")),
        ("dfs.pipeline.recoveries", snap.counter("dfs.client", "pipeline.recoveries")),
        ("metrics.series", series),
    ] {
        out.pin(name, v);
        out.set(name, v as f64);
    }
    out.pin("mr.map_virtual_us", map_us);
    out.pin("mr.reduce_virtual_us", reduce_us);
    out.pin("mr.spec.won", jt("spec.won"));
    out.pin("mr.spec.wasted_us", jt("spec.wasted_us"));
    out.pin("mr.attempts", attempts);
    out.pin("mr.node_local", node_local);
    out.set("mr.map_virtual_ms", map_us as f64 / 1e3);
    out.set("mr.reduce_virtual_ms", reduce_us as f64 / 1e3);
    out.set("mr.attempts_per_task", ratio(attempts, tasks));
    out.set("mr.data_local_frac", ratio(node_local, maps));
    out.set("mr.combine.out_per_in", ratio(combine_out, combine_in));
    out.set("mr.spec.won_frac", ratio(jt("spec.won"), jt("spec.launched")));
    out.set("mr.spec.wasted_virtual_ms", jt("spec.wasted_us") as f64 / 1e3);
    out.set("codec.ratio", ratio(codec_out, codec_in));
}

/// The round's makespan: the virtual time from a fresh cluster's zero to
/// the end of the round's last step.
fn record_makespan(out: &mut RoundOut, c: &MrCluster) {
    out.pin("makespan_virtual_us", c.now.0);
    out.set("makespan_virtual_s", c.now.0 as f64 / 1e6);
}

/// CRC32 over whole blocks, then chunked checksums computed and verified
/// block by block, as a DataNode stores and serves them.
fn probe_crc(tr: &mut Tracer, blocks: &[Vec<u8>], out: &mut RoundOut) -> Outcome<()> {
    let bytes: usize = blocks.iter().map(|b| b.len()).sum();
    let start = tr.spans().len();
    for block in blocks {
        std::hint::black_box(tr.span("crc.checksum", |_| Crc32::checksum(block)));
        let sums = tr.span("crc.chunked_compute", |_| {
            hl_common::checksum::ChunkedChecksum::compute(block, CRC_CHUNK)
        });
        if let Some(chunk) = tr.span("crc.chunked_verify", |_| sums.verify(block)) {
            return Err(format!("crc probe: chunk {chunk} failed to verify its own checksum"));
        }
    }
    let ns: u64 = tr.spans()[start..].iter().map(|s| s.dur_ns()).sum();
    out.set("crc.bytes", bytes as f64);
    out.set("crc.host_mib_per_s", mib_per_s(3 * bytes, ns));
    Ok(())
}

fn mib_per_s(bytes: usize, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / (1024.0 * 1024.0) / (ns as f64 / 1e9)
    }
}

// ------------------------------------------------------------ wordcount-lab

struct Corpus {
    text: String,
    truth: BTreeMap<String, u64>,
}

/// Many short jobs, like a lab section: stage a corpus compressed, count
/// its words with a combiner and compressed map output, read the counts
/// back, check them, delete everything.
pub struct WordcountLab {
    config: Configuration,
    corpora: Vec<Corpus>,
    /// The last round's stored input blocks.
    blocks: Vec<Vec<u8>>,
}

impl WordcountLab {
    pub fn setup(seed: u64) -> Result<(Self, SetupTimes)> {
        let t = Instant::now();
        let corpora = (0..LAB_CORPORA as u64)
            .map(|i| {
                let (text, truth) =
                    CorpusGen::new(seed.wrapping_mul(31).wrapping_add(i)).generate(LAB_WORDS);
                Corpus { text, truth }
            })
            .collect();
        let datagen_s = secs(t);
        let t = Instant::now();
        let config = pinned_config();
        std::hint::black_box(lab_cluster(&config)?);
        let cluster_s = secs(t);
        let lab = WordcountLab { config, corpora, blocks: Vec::new() };
        Ok((lab, SetupTimes { datagen_s, cluster_s }))
    }
}

/// Check every count in a wordcount output against the generator's truth.
fn check_counts(text: &str, truth: &BTreeMap<String, u64>) -> Outcome<()> {
    let mut seen = 0usize;
    for line in text.lines() {
        let (word, count) =
            line.split_once('\t').ok_or_else(|| format!("malformed output line {line:?}"))?;
        let count: u64 = count.parse().map_err(|_| format!("bad count in {line:?}"))?;
        match truth.get(word) {
            Some(&want) if want == count => seen += 1,
            Some(&want) => return Err(format!("{word}: counted {count}, truth {want}")),
            None => return Err(format!("{word}: not in the corpus")),
        }
    }
    if seen != truth.len() {
        return Err(format!("{} of {} words in the output", seen, truth.len()));
    }
    Ok(())
}

impl Workload for WordcountLab {
    fn round(&mut self, round: u32, tr: &mut Tracer, sw: &mut Stopwatch) -> Outcome<RoundOut> {
        let input = round as usize % self.corpora.len();
        let corpus = &self.corpora[input];
        let mut c = tr.span("mr.cluster_new", |_| lab_cluster(&self.config)).map_err(err)?;
        tr.span("dfs.mkdirs", |_| c.dfs.namenode.mkdirs("/in")).map_err(err)?;
        let start = c.now;
        let put = tr
            .span("dfs.put_compressed", |_| {
                c.dfs.put_compressed(
                    &mut c.net,
                    start,
                    "/in/corpus.txt",
                    corpus.text.as_bytes(),
                    None,
                    CodecId::Hlz,
                )
            })
            .map_err(err)?;
        c.now = put.completed_at;
        let mut job = wordcount_combiner("/in/corpus.txt", "/out/wc", 4);
        job.conf.compress_map_output = true;
        let report = tr.span("mr.run_job", |_| c.run_job(&job)).map_err(err)?;
        let text = tr.span("dfs.read_output", |_| c.read_output("/out/wc")).map_err(err)?;
        let mut out = RoundOut { input, ..RoundOut::default() };
        sw.outside(|| tr.span("verify", |_| check_counts(&text, &corpus.truth)))?;
        self.blocks = sw.outside(|| stored_blocks(&c, "/in/corpus.txt"))?;
        let stored: u64 = self.blocks.iter().map(|b| b.len() as u64).sum();
        record_makespan(&mut out, &c);
        delete_all(&mut c, tr, &["/in/corpus.txt", "/out/wc"]).map_err(err)?;
        let snap = tr.span("metrics.snapshot", |_| c.metrics_snapshot());
        sw.outside(|| {
            let raw = corpus.text.len() as u64;
            out.pin("dfs.put.virtual_us", put.completed_at.since(start).0);
            out.pin("dfs.stored_bytes", stored);
            out.pin("output_fnv", fnv1a(text.as_bytes()));
            out.set("dfs.put.virtual_ms", put.completed_at.since(start).0 as f64 / 1e3);
            out.set("dfs.stored_per_input_byte", ratio(stored, raw));
            out.set("input_bytes", raw as f64);
            record_mr(&mut out, &[&report], &snap);
        });
        Ok(out)
    }

    fn probe(&mut self, round: u32, tr: &mut Tracer, out: &mut RoundOut) -> Outcome<()> {
        let text = self.corpora[round as usize % self.corpora.len()].text.as_bytes();
        let frames = tr
            .span("codec.compress_to_frames", |_| hl_codec::compress_to_frames(CodecId::Hlz, text));
        let container = frames.concat();
        let t0 = tr.spans().len();
        let raw =
            tr.span("codec.decompress_container", |_| hl_codec::decompress_container(&container));
        let raw = raw.map_err(err)?;
        if raw != text {
            return Err("codec probe: decompressed bytes differ from the input".into());
        }
        let spans = tr.spans();
        let (comp, decomp) = (spans[t0 - 1].dur_ns(), spans[t0].dur_ns());
        out.set("codec.compress.host_mib_per_s", mib_per_s(text.len(), comp));
        out.set("codec.decompress.host_mib_per_s", mib_per_s(text.len(), decomp));
        probe_crc(tr, &self.blocks, out)
    }
}

// ------------------------------------------------------------------ terasort

/// TPCx-HS on the skewed cluster with speculation on: stage the input,
/// sort it, validate the sort, check the verdict, delete everything.
pub struct Terasort {
    config: Configuration,
    corpus: String,
    digest: (u64, u64),
    /// The last round's stored input blocks.
    blocks: Vec<Vec<u8>>,
}

impl Terasort {
    pub fn setup(seed: u64) -> Result<(Self, SetupTimes)> {
        let t = Instant::now();
        let (corpus, truth) = hsgen(seed, HS_WORDS);
        let digest = expected_digest(&truth);
        let datagen_s = secs(t);
        let t = Instant::now();
        let config = hs_config();
        std::hint::black_box(skewed_cluster(&config)?);
        let cluster_s = secs(t);
        let hs = Terasort { config, corpus, digest, blocks: Vec::new() };
        Ok((hs, SetupTimes { datagen_s, cluster_s }))
    }
}

/// `bench-snapshot`'s speculation knobs for the skewed TPCx-HS cell.
fn tune(conf: &mut hl_mapreduce::job::JobConf) {
    conf.speculative = true;
    conf.spec_cap_pct = 30;
    conf.spec_heartbeat = SimDuration::from_millis(200);
    conf.compress_map_output = false;
}

impl Workload for Terasort {
    fn round(&mut self, _round: u32, tr: &mut Tracer, sw: &mut Stopwatch) -> Outcome<RoundOut> {
        let mut c = tr.span("mr.cluster_new", |_| skewed_cluster(&self.config)).map_err(err)?;
        tr.span("dfs.mkdirs", |_| c.dfs.namenode.mkdirs("/in")).map_err(err)?;
        let start = c.now;
        let put = tr
            .span("dfs.put", |_| {
                c.dfs.put(&mut c.net, start, "/in/hs.txt", self.corpus.as_bytes(), None)
            })
            .map_err(err)?;
        c.now = put.completed_at;
        self.blocks = sw.outside(|| stored_blocks(&c, "/in/hs.txt"))?;
        let mut sort =
            tr.span("tpcxhs.hssort", |_| hssort("/in/hs.txt", "/out/hssort", &self.corpus, 4));
        tune(&mut sort.conf);
        let sort_report = tr.span("mr.run_job", |_| c.run_job(&sort)).map_err(err)?;
        let mut validate = hsvalidate("/out/hssort", "/out/hsvalidate");
        tune(&mut validate.conf);
        let val_report = tr.span("mr.run_job", |_| c.run_job(&validate)).map_err(err)?;
        let mut lines = Vec::new();
        for path in &val_report.output_files {
            let now = c.now;
            let got =
                tr.span("dfs.read", |_| c.dfs.read(&mut c.net, now, path, None)).map_err(err)?;
            c.now = got.completed_at;
            lines.extend(String::from_utf8_lossy(&got.value).lines().map(str::to_string));
        }
        let mut out = RoundOut::default();
        sw.outside(|| {
            tr.span("verify", |_| {
                let verdict = parse_verdict(&lines).ok_or("validator emitted no verdict")?;
                let (records, crc_sum) = self.digest;
                if verdict.sorted && verdict.records == records && verdict.crc_sum == crc_sum {
                    Ok(())
                } else {
                    Err(format!("verdict {verdict:?}, expected {records} records crc {crc_sum}"))
                }
            })
        })?;
        record_makespan(&mut out, &c);
        delete_all(&mut c, tr, &["/in/hs.txt", "/out/hssort", "/out/hsvalidate"]).map_err(err)?;
        let snap = tr.span("metrics.snapshot", |_| c.metrics_snapshot());
        sw.outside(|| {
            out.pin("dfs.put.virtual_us", put.completed_at.since(start).0);
            out.set("dfs.put.virtual_ms", put.completed_at.since(start).0 as f64 / 1e3);
            out.set("dfs.stored_per_input_byte", 1.0);
            out.set("input_bytes", self.corpus.len() as f64);
            record_mr(&mut out, &[&sort_report, &val_report], &snap);
        });
        Ok(out)
    }

    fn probe(&mut self, _round: u32, tr: &mut Tracer, out: &mut RoundOut) -> Outcome<()> {
        probe_crc(tr, &self.blocks, out)
    }
}
