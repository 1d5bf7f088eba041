//! `sched-replay`: the contended Google-trace replay under FIFO, then
//! Fair, then Capacity.

use std::collections::BTreeMap;
use std::time::Instant;

use hl_datagen::google_trace::GoogleTraceGen;
use hl_workloads::replay::{
    load_trace, replay, ReplayJob, ReplayOutcome, ReplayPolicy, ReplaySetup,
};

use crate::harness::{nanos, secs, Outcome, RoundOut, SetupTimes, Stopwatch, Workload};
use crate::trace::Tracer;

/// Jobs per trace, and the most tasks one job may have.
const JOBS: u64 = 50;
const MAX_TASKS: u32 = 8;
/// Traces the rounds cycle through. The generator's heavy tail (a few
/// crash-looping jobs with dozens of resubmits per task) makes one
/// trace's replay cost differ from the next by about a fifth, so a run
/// spreads its rounds over many traces; a 25-second run replays each
/// about twice.
const TRACES: u64 = 128;

const POLICIES: [(ReplayPolicy, &str); 3] = [
    (ReplayPolicy::Fifo, "sched.fifo"),
    (ReplayPolicy::Fair, "sched.fair"),
    (ReplayPolicy::Capacity, "sched.capacity"),
];

pub struct SchedReplay {
    traces: Vec<Vec<ReplayJob>>,
    setup: ReplaySetup,
}

impl SchedReplay {
    pub fn setup(seed: u64) -> (Self, SetupTimes) {
        let t = Instant::now();
        let traces = (0..TRACES)
            .map(|i| {
                let (log, _) = GoogleTraceGen::new(seed.wrapping_mul(TRACES).wrapping_add(i))
                    .with_jobs(JOBS, MAX_TASKS)
                    .generate();
                load_trace(&log)
            })
            .collect();
        let datagen_s = secs(t);
        let t = Instant::now();
        let setup = std::hint::black_box(ReplaySetup::contended());
        let cluster_s = secs(t);
        (SchedReplay { traces, setup }, SetupTimes { datagen_s, cluster_s })
    }
}

/// Per-job waits (arrival to first assignment, virtual µs) rebuilt from
/// the public assignment log and each job's arrival, in job-id order.
fn waits_from_log(jobs: &[ReplayJob], setup: &ReplaySetup, log: &str) -> Outcome<Vec<u64>> {
    let arrival: BTreeMap<u64, u64> =
        jobs.iter().map(|j| (j.job_id, j.arrival.0 / setup.arrival_div.max(1))).collect();
    let mut waits = BTreeMap::new();
    for line in log.lines() {
        // Assignments read `t=<us> job=<id> task=<n> slot=<s>`; every
        // other line (completions, preemptions) has a different shape.
        let f: Vec<&str> = line.split(' ').collect();
        let [t, job, _task, slot] = f[..] else { continue };
        if !slot.starts_with("slot=") {
            continue;
        }
        let field = |s: &str, key: &str| s.strip_prefix(key).and_then(|v| v.parse::<u64>().ok());
        let (Some(t), Some(job)) = (field(t, "t="), field(job, "job=")) else {
            return Err(format!("malformed assignment line {line:?}"));
        };
        let arrived = arrival.get(&job).ok_or_else(|| format!("log names unknown job {job}"))?;
        waits.entry(job).or_insert(t.saturating_sub(*arrived));
    }
    Ok(waits.into_values().collect())
}

/// The replay's own wait statistics, recomputed from the rebuilt waits:
/// they must match exactly.
fn check_waits(out: &ReplayOutcome, waits: &[u64], jobs: usize) -> Outcome<()> {
    if waits.len() != jobs {
        return Err(format!("{}: {} jobs ever assigned of {jobs}", out.policy, waits.len()));
    }
    let mean = waits.iter().sum::<u64>() / waits.len() as u64;
    let mut sorted = waits.to_vec();
    sorted.sort_unstable();
    let p99 = sorted[(sorted.len() - 1) * 99 / 100];
    if mean != out.mean_wait.0 || p99 != out.p99_wait.0 {
        return Err(format!(
            "{}: waits from the log give mean {mean} p99 {p99}, the replay says {} {}",
            out.policy, out.mean_wait.0, out.p99_wait.0
        ));
    }
    Ok(())
}

impl Workload for SchedReplay {
    fn round(&mut self, round: u32, tr: &mut Tracer, sw: &mut Stopwatch) -> Outcome<RoundOut> {
        let input = round as usize % self.traces.len();
        let jobs = &self.traces[input];
        let mut outcomes = Vec::new();
        for (policy, span) in POLICIES {
            let t = Instant::now();
            let o = tr.span(span, |_| replay(jobs, policy, &self.setup));
            outcomes.push((o, nanos(t)));
        }
        let mut out = RoundOut { input, ..RoundOut::default() };
        let mut makespan_us = 0;
        let mut decisions = 0;
        sw.outside(|| {
            tr.span("verify", |_| {
                for (o, _) in &outcomes {
                    if !o.violations.is_empty() {
                        return Err(format!("{}: {:?}", o.policy, o.violations));
                    }
                    let waits = waits_from_log(jobs, &self.setup, &o.assignment_log)?;
                    check_waits(o, &waits, jobs.len())?;
                    out.waits.extend(waits.iter().map(|&w| w as f64 / 1e6));
                }
                Ok::<(), String>(())
            })
        })?;
        sw.outside(|| {
            for ((o, ns), (_, span)) in outcomes.iter().zip(POLICIES) {
                let key = |field: &str| format!("{span}.{field}");
                out.pin(key("assignment_hash"), o.assignment_hash);
                out.pin(key("makespan_us"), o.makespan.0);
                out.pin(key("mean_wait_us"), o.mean_wait.0);
                out.pin(key("p99_wait_us"), o.p99_wait.0);
                out.pin(key("decisions"), o.decisions);
                out.pin(key("preemptions"), o.policy_preemptions);
                out.set(key("host_ms"), *ns as f64 / 1e6);
                out.set(key("host_us_per_decision"), *ns as f64 / 1e3 / o.decisions.max(1) as f64);
                out.set(key("decisions"), o.decisions as f64);
                out.set(key("preemptions"), o.policy_preemptions as f64);
                out.set(key("wait_virtual_s.mean"), o.mean_wait.0 as f64 / 1e6);
                out.set(key("wait_virtual_s.p99"), o.p99_wait.0 as f64 / 1e6);
                out.set(key("makespan_virtual_s"), o.makespan.0 as f64 / 1e6);
                makespan_us += o.makespan.0;
                decisions += o.decisions;
            }
            out.pin("makespan_virtual_us", makespan_us);
            out.set("makespan_virtual_s", makespan_us as f64 / 1e6);
            out.set("decisions", decisions as f64);
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_rebuilt_from_the_log_match_the_replay_statistics() {
        let (log, _) = GoogleTraceGen::new(5).with_jobs(20, 4).generate();
        let jobs = load_trace(&log);
        let setup = ReplaySetup::contended();
        for (policy, _) in POLICIES {
            let out = replay(&jobs, policy, &setup);
            let waits = waits_from_log(&jobs, &setup, &out.assignment_log).expect("parses");
            check_waits(&out, &waits, jobs.len()).expect("matches the replay");
        }
    }

    #[test]
    fn a_wrong_wait_statistic_is_caught() {
        let (log, _) = GoogleTraceGen::new(5).with_jobs(20, 4).generate();
        let jobs = load_trace(&log);
        let setup = ReplaySetup::contended();
        let mut out = replay(&jobs, ReplayPolicy::Fair, &setup);
        let waits = waits_from_log(&jobs, &setup, &out.assignment_log).expect("parses");
        out.mean_wait.0 += 1;
        assert!(check_waits(&out, &waits, jobs.len()).is_err());
    }
}
