//! Job and file-system counters.
//!
//! The course's combiner lecture has students read the **final MapReduce job
//! report** to see reduced network traffic, and the JobTracker "web UI" to
//! see increased map time — both of which are rendered from counters. This
//! module reproduces Hadoop's counter model: named counters in named
//! groups, merged upward from task → job.

use std::collections::BTreeMap;
use std::fmt;

/// Well-known task counters (Hadoop's `Task Counters` group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskCounter {
    /// Records read by mappers.
    MapInputRecords,
    /// Records emitted by mappers (pre-combine).
    MapOutputRecords,
    /// Serialized bytes of map output (post-combine).
    MapOutputBytes,
    /// Records fed into combiner invocations.
    CombineInputRecords,
    /// Records the combiner emitted.
    CombineOutputRecords,
    /// Distinct keys seen by reducers.
    ReduceInputGroups,
    /// Values seen by reducers.
    ReduceInputRecords,
    /// Records reducers emitted.
    ReduceOutputRecords,
    /// Bytes fetched by reducers in the shuffle.
    ReduceShuffleBytes,
    /// Records written by spill passes (map side).
    SpilledRecords,
}

impl TaskCounter {
    /// Display name matching the Hadoop job report.
    pub fn name(self) -> &'static str {
        match self {
            TaskCounter::MapInputRecords => "Map input records",
            TaskCounter::MapOutputRecords => "Map output records",
            TaskCounter::MapOutputBytes => "Map output bytes",
            TaskCounter::CombineInputRecords => "Combine input records",
            TaskCounter::CombineOutputRecords => "Combine output records",
            TaskCounter::ReduceInputGroups => "Reduce input groups",
            TaskCounter::ReduceInputRecords => "Reduce input records",
            TaskCounter::ReduceOutputRecords => "Reduce output records",
            TaskCounter::ReduceShuffleBytes => "Reduce shuffle bytes",
            TaskCounter::SpilledRecords => "Spilled Records",
        }
    }
}

/// Well-known file-system counters (Hadoop's `FileSystemCounters` group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FileSystemCounter {
    /// Bytes read from HDFS (map input).
    HdfsBytesRead,
    /// Bytes written to HDFS (reduce output).
    HdfsBytesWritten,
    /// Bytes read from node-local files (spill merges).
    FileBytesRead,
    /// Bytes written to node-local files (spills).
    FileBytesWritten,
    /// Bytes that crossed a rack boundary — the quantity data locality
    /// minimizes (not a stock Hadoop counter; added for the Figure 1/2
    /// experiments).
    RemoteBytesRead,
}

impl FileSystemCounter {
    /// Display name matching the Hadoop job report.
    pub fn name(self) -> &'static str {
        match self {
            FileSystemCounter::HdfsBytesRead => "HDFS_BYTES_READ",
            FileSystemCounter::HdfsBytesWritten => "HDFS_BYTES_WRITTEN",
            FileSystemCounter::FileBytesRead => "FILE_BYTES_READ",
            FileSystemCounter::FileBytesWritten => "FILE_BYTES_WRITTEN",
            FileSystemCounter::RemoteBytesRead => "REMOTE_BYTES_READ",
        }
    }
}

const TASK_GROUP: &str = "Map-Reduce Framework";
const FS_GROUP: &str = "FileSystemCounters";

/// A two-level `group → counter → u64` map with merge semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    groups: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Counters {
    /// Empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a counter in an arbitrary group (user counters, the
    /// Hadoop `Reporter.incrCounter` path). The lookup borrows `&str`, so
    /// incrementing an existing counter allocates nothing; only the first
    /// increment of a new counter copies the names.
    pub fn incr(&mut self, group: &str, counter: &str, delta: u64) {
        if let Some(v) = self.groups.get_mut(group).and_then(|g| g.get_mut(counter)) {
            *v += delta;
            return;
        }
        *self
            .groups
            .entry(group.to_string())
            .or_default()
            .entry(counter.to_string())
            .or_default() += delta;
    }

    /// Add to a well-known task counter.
    pub fn incr_task(&mut self, c: TaskCounter, delta: u64) {
        self.incr(TASK_GROUP, c.name(), delta);
    }

    /// Add to a well-known file-system counter.
    pub fn incr_fs(&mut self, c: FileSystemCounter, delta: u64) {
        self.incr(FS_GROUP, c.name(), delta);
    }

    /// Ensure a counter (and its group) exists at 0 without changing its
    /// value. Hadoop's job report prints every registered counter even
    /// when it never fired; call this at task setup for counters the
    /// report must always show.
    pub fn touch(&mut self, group: &str, counter: &str) {
        self.groups.entry(group.to_string()).or_default().entry(counter.to_string()).or_default();
    }

    /// Register a well-known task counter at 0 (see [`Counters::touch`]).
    pub fn touch_task(&mut self, c: TaskCounter) {
        self.touch(TASK_GROUP, c.name());
    }

    /// Read any counter (0 when never incremented).
    pub fn get(&self, group: &str, counter: &str) -> u64 {
        self.groups.get(group).and_then(|g| g.get(counter)).copied().unwrap_or(0)
    }

    /// Read a well-known task counter.
    pub fn task(&self, c: TaskCounter) -> u64 {
        self.get(TASK_GROUP, c.name())
    }

    /// Read a well-known file-system counter.
    pub fn fs(&self, c: FileSystemCounter) -> u64 {
        self.get(FS_GROUP, c.name())
    }

    /// Merge another counter set into this one (summing), the task→job
    /// aggregation step.
    pub fn merge(&mut self, other: &Counters) {
        for (group, counters) in &other.groups {
            let g = self.groups.entry(group.clone()).or_default();
            for (name, value) in counters {
                *g.entry(name.clone()).or_default() += value;
            }
        }
    }

    /// Iterate `(group, counter, value)` in display order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.groups
            .iter()
            .flat_map(|(g, cs)| cs.iter().map(move |(c, v)| (g.as_str(), c.as_str(), *v)))
    }

    /// True when nothing has been counted.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

impl fmt::Display for Counters {
    /// Renders like the tail of a `hadoop jar` run:
    ///
    /// ```text
    /// Counters: 5
    ///   Map-Reduce Framework
    ///     Map input records=1000
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total: usize = self.groups.values().map(|g| g.len()).sum();
        writeln!(f, "Counters: {total}")?;
        for (group, counters) in &self.groups {
            writeln!(f, "  {group}")?;
            for (name, value) in counters {
                writeln!(f, "    {name}={value}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_and_get() {
        let mut c = Counters::new();
        assert_eq!(c.task(TaskCounter::MapInputRecords), 0);
        c.incr_task(TaskCounter::MapInputRecords, 10);
        c.incr_task(TaskCounter::MapInputRecords, 5);
        assert_eq!(c.task(TaskCounter::MapInputRecords), 15);
        c.incr_fs(FileSystemCounter::HdfsBytesRead, 4096);
        assert_eq!(c.fs(FileSystemCounter::HdfsBytesRead), 4096);
        c.incr("My Group", "widgets", 2);
        assert_eq!(c.get("My Group", "widgets"), 2);
    }

    #[test]
    fn touch_registers_zero_without_incrementing() {
        let mut c = Counters::new();
        assert!(c.is_empty());
        c.touch_task(TaskCounter::MapOutputBytes);
        assert!(!c.is_empty());
        assert_eq!(c.task(TaskCounter::MapOutputBytes), 0);
        assert!(c.to_string().contains("    Map output bytes=0\n"));
        // Touching an existing counter must not disturb its value.
        c.incr_task(TaskCounter::MapOutputBytes, 9);
        c.touch_task(TaskCounter::MapOutputBytes);
        assert_eq!(c.task(TaskCounter::MapOutputBytes), 9);
    }

    #[test]
    fn merge_sums_across_groups() {
        let mut a = Counters::new();
        a.incr_task(TaskCounter::MapOutputBytes, 100);
        a.incr("G", "x", 1);
        let mut b = Counters::new();
        b.incr_task(TaskCounter::MapOutputBytes, 50);
        b.incr("G", "y", 7);
        a.merge(&b);
        assert_eq!(a.task(TaskCounter::MapOutputBytes), 150);
        assert_eq!(a.get("G", "x"), 1);
        assert_eq!(a.get("G", "y"), 7);
    }

    #[test]
    fn display_matches_job_report_shape() {
        let mut c = Counters::new();
        c.incr_task(TaskCounter::MapInputRecords, 1000);
        c.incr_fs(FileSystemCounter::HdfsBytesRead, 64);
        let text = c.to_string();
        assert!(text.starts_with("Counters: 2\n"));
        assert!(text.contains("  Map-Reduce Framework\n"));
        assert!(text.contains("    Map input records=1000\n"));
        assert!(text.contains("    HDFS_BYTES_READ=64\n"));
    }

    #[test]
    fn iter_is_deterministic() {
        let mut c = Counters::new();
        c.incr("B", "b", 2);
        c.incr("A", "a", 1);
        let items: Vec<_> = c.iter().collect();
        assert_eq!(items, vec![("A", "a", 1), ("B", "b", 2)]);
    }
}
