//! The metrics the benchmark reports, by name and unit.
//!
//! [`END_TO_END`] and [`per_layer`] are exactly the `end_to_end` and
//! `per_layer` lists of `BENCHMARK.json`: the final JSON line carries the
//! first set on an untraced run and the second on a traced run. The
//! metrics in [`PRINTED_END_TO_END`] are printed by name and unit on the
//! lines before it: the unscaled host times, which drift with the host's
//! load, and the metrics that do not exist on every workload.

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Host-plane metrics every workload has, with set-up and round times
/// scaled to reference speed (see `calibrate`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("round_ref_ms.p50", "ms"),
    m("round_ref_ms.tail", "ms"),
    m("peak_rss_mib", "MiB"),
];

/// End-to-end metrics printed on the lines before the JSON line: the
/// unscaled host times, and the metrics only some workloads have.
pub const PRINTED_END_TO_END: &[Metric] = &[
    m("setup_host_s", "s"),
    m("round_host_ms.p50", "ms"),
    m("round_host_ms.tail", "ms"),
    m("input_mib_per_host_s", "MiB/s"),
    m("decisions_per_host_s", "1/s"),
    m("nn_ops_per_host_s", "1/s"),
    m("makespan_virtual_s", "s"),
    m("job_wait_virtual_s.p50", "s"),
    m("job_wait_virtual_s.tail", "s"),
    m("fail_frac", "frac"),
];

/// One metric per scheduler policy and field, in policy order.
macro_rules! sched_metrics {
    ($($p:literal),*) => {
        [$(
            m(concat!("sched.", $p, ".host_ms"), "ms"),
            m(concat!("sched.", $p, ".host_us_per_decision"), "us"),
            m(concat!("sched.", $p, ".decisions"), "count"),
            m(concat!("sched.", $p, ".preemptions"), "count"),
            m(concat!("sched.", $p, ".wait_virtual_s.mean"), "s"),
            m(concat!("sched.", $p, ".wait_virtual_s.p99"), "s"),
            m(concat!("sched.", $p, ".makespan_virtual_s"), "s"),
        )*]
    };
}

const SCHED: [Metric; 21] = sched_metrics!("fifo", "fair", "capacity");

const LAYERS_BEFORE_SCHED: [Metric; 32] = [
    // hl-dfs client
    m("dfs.put.host_ms", "ms"),
    m("dfs.put.virtual_ms", "ms"),
    m("dfs.read.host_ms", "ms"),
    m("dfs.delete.host_ms", "ms"),
    m("dfs.bytes_written", "bytes"),
    m("dfs.bytes_read", "bytes"),
    m("dfs.stored_per_input_byte", "ratio"),
    m("dfs.read.failovers", "count"),
    m("dfs.pipeline.recoveries", "count"),
    // hl-common checksum
    m("crc.host_mib_per_s", "MiB/s"),
    m("crc.bytes", "bytes"),
    // hl-codec
    m("codec.compress.host_mib_per_s", "MiB/s"),
    m("codec.decompress.host_mib_per_s", "MiB/s"),
    m("codec.in_bytes", "bytes"),
    m("codec.out_bytes", "bytes"),
    m("codec.ratio", "ratio"),
    // hl-mapreduce engine
    m("mr.run_job.host_ms", "ms"),
    m("mr.map_virtual_ms", "ms"),
    m("mr.reduce_virtual_ms", "ms"),
    m("mr.tasks", "count"),
    m("mr.attempts_per_task", "ratio"),
    m("mr.data_local_frac", "frac"),
    m("mr.sched.decisions", "count"),
    // hl-mapreduce sortbuf / merge
    m("mr.spill.bytes", "bytes"),
    m("mr.spill.count", "count"),
    m("mr.merge.bytes", "bytes"),
    m("mr.merge.passes", "count"),
    m("mr.shuffle.bytes", "bytes"),
    m("mr.combine.out_per_in", "ratio"),
    // hl-mapreduce speculate
    m("mr.spec.launched", "count"),
    m("mr.spec.won_frac", "frac"),
    m("mr.spec.wasted_virtual_ms", "ms"),
];

const LAYERS_AFTER_SCHED: [Metric; 22] = [
    // hl-dfs NameNode, edit log, fsimage
    m("nn.create.host_us", "us"),
    m("nn.add_block.host_us", "us"),
    m("nn.complete.host_us", "us"),
    m("nn.block_report.host_us.p50", "us"),
    m("nn.block_report.host_us.tail", "us"),
    m("nn.incremental_report.host_us", "us"),
    m("nn.checkpoint.host_ms", "ms"),
    m("nn.restart.host_ms", "ms"),
    m("nn.delete.host_ms", "ms"),
    m("nn.fsimage_bytes", "bytes"),
    m("nn.editlog.tail_ops", "count"),
    m("nn.metadata_ram_bytes", "bytes"),
    // hl-cluster DES
    m("des.events", "count"),
    m("des.host_ns_per_event", "ns"),
    // hl-metrics
    m("metrics.snapshot.host_us", "us"),
    m("metrics.series", "count"),
    // set-up and harness
    m("setup.datagen_s", "s"),
    m("setup.cluster_s", "s"),
    m("setup.warmup_s", "s"),
    m("calibration.host_ms", "ms"),
    m("verify.host_ms", "ms"),
    m("trace.overhead_frac", "frac"),
];

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<Metric> {
    LAYERS_BEFORE_SCHED.iter().chain(&SCHED).chain(&LAYERS_AFTER_SCHED).copied().collect()
}

/// The unit of a metric in any of the tables.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PRINTED_END_TO_END)
        .copied()
        .chain(per_layer())
        .find(|m| m.name == name)
        .map_or_else(|| panic!("metric {name} is in no table"), |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The name rule `BENCHMARK.json` imposes: starts with a letter or digit,
    /// at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// The unit rule: at most 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn every_name_and_unit_is_in_the_allowed_character_set() {
        let all: Vec<Metric> =
            END_TO_END.iter().chain(PRINTED_END_TO_END).copied().chain(per_layer()).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad name {:?}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {:?} of {}", metric.unit, metric.name);
        }
        let distinct: BTreeSet<&str> = all.iter().map(|m| m.name).collect();
        assert_eq!(distinct.len(), all.len(), "a metric name is used twice");
    }

    #[test]
    fn name_rule_rejects_what_it_should() {
        for bad in ["", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} should be rejected");
        }
        for good in ["setup_s", "round_host_ms.p50", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good:?} should be accepted");
        }
    }
}
