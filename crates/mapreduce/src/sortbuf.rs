//! The map-side collect → sort → spill buffer.
//!
//! Map output pairs are serialized immediately (key via its
//! order-preserving encoding, value via `Writable`), partitioned by key
//! hash, and buffered; when the buffer exceeds `io.sort` capacity the
//! records are sorted **by raw bytes** and spilled, with the combiner
//! folding each equal-key group — exactly Hadoop's spill pipeline, and the
//! mechanism behind the lecture's "combiner trades map time for shuffle
//! bytes" observation.
//!
//! Layout follows Hadoop's `MapOutputBuffer` kvbuffer design: one flat
//! byte arena holds every serialized record back to back, and a compact
//! index array of `(partition, key_off, key_len, val_off, val_len)`
//! entries is what gets sorted — comparisons touch only the raw key
//! slices, and no per-record `Vec` allocations happen on the collect path.

use std::sync::Arc;

use hl_common::counters::{Counters, TaskCounter};
use hl_common::hash::default_partition;
use hl_common::keys::SortableKey;
use hl_common::writable::Writable;

use crate::api::{Combiner, PartitionFn};

/// One record's location inside a run arena. Offsets are `u32` to keep
/// the sorted index at 20 bytes per record; the buffer force-spills
/// before the arena could outgrow them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KvSlot {
    key_off: u32,
    key_len: u32,
    val_off: u32,
    val_len: u32,
}

impl KvSlot {
    fn bytes(&self) -> u64 {
        (self.key_len + self.val_len) as u64
    }
}

/// A sorted run of serialized `(key, value)` records for one partition,
/// backed by a shared byte arena.
///
/// Records are exposed as borrowed slices — merging and shuffling never
/// copy key/value bytes. `Clone` is O(1) (two `Arc` bumps), which is what
/// lets the engine hand a map task's partition to a reduce attempt
/// without duplicating the payload.
#[derive(Debug, Clone, Default)]
pub struct SortedRun {
    arena: Arc<Vec<u8>>,
    slots: Arc<Vec<KvSlot>>,
    /// Cached serialized size (sum of key+value lengths).
    data_bytes: u64,
}

impl SortedRun {
    fn from_parts(arena: Arc<Vec<u8>>, slots: Vec<KvSlot>) -> Self {
        let data_bytes = slots.iter().map(KvSlot::bytes).sum();
        SortedRun { arena, slots: Arc::new(slots), data_bytes }
    }

    /// Build a run from owned pairs of already-serialized bytes, sorting
    /// them by raw key (stable, so equal keys keep insertion order).
    /// Convenience for tests and benchmarks; the hot path builds runs
    /// straight from the spill arena.
    pub fn from_pairs(mut pairs: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut b = RunBuilder::new();
        for (k, v) in &pairs {
            b.push_raw(k, v);
        }
        b.finish()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Serialized size in bytes — the single size-accounting helper every
    /// spill/merge/shuffle charge goes through.
    pub fn bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Borrow record `i` as `(key, value)` slices.
    pub fn get(&self, i: usize) -> (&[u8], &[u8]) {
        let s = &self.slots[i];
        (
            &self.arena[s.key_off as usize..(s.key_off + s.key_len) as usize],
            &self.arena[s.val_off as usize..(s.val_off + s.val_len) as usize],
        )
    }

    /// Borrow just the key of record `i` (merge comparisons).
    pub fn key(&self, i: usize) -> &[u8] {
        let s = &self.slots[i];
        &self.arena[s.key_off as usize..(s.key_off + s.key_len) as usize]
    }

    /// Iterate `(key, value)` slices in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Copy out owned pairs (tests and debugging; the hot path never does
    /// this).
    pub fn to_pairs(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }
}

/// Accumulates serialized records into a fresh arena, in push order.
/// Used for combiner output and merge output, where records are produced
/// already sorted.
#[derive(Debug, Default)]
pub struct RunBuilder {
    arena: Vec<u8>,
    slots: Vec<KvSlot>,
}

impl RunBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record from raw serialized bytes.
    pub fn push_raw(&mut self, key: &[u8], value: &[u8]) {
        let key_off = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        let val_off = self.arena.len() as u32;
        self.arena.extend_from_slice(value);
        self.slots.push(KvSlot {
            key_off,
            key_len: key.len() as u32,
            val_off,
            val_len: value.len() as u32,
        });
    }

    /// Append one record with raw key bytes and a `Writable` value
    /// serialized in place (combiner output path — no temp `Vec`).
    pub fn push_value<V: Writable>(&mut self, key: &[u8], value: &V) {
        let key_off = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        let val_off = self.arena.len() as u32;
        value.write(&mut self.arena);
        self.slots.push(KvSlot {
            key_off,
            key_len: key.len() as u32,
            val_off,
            val_len: (self.arena.len() - val_off as usize) as u32,
        });
    }

    /// Seal into a run. Records must have been pushed in sorted key order.
    pub fn finish(self) -> SortedRun {
        debug_assert!(
            self.slots.windows(2).all(|w| {
                let ka = &self.arena[w[0].key_off as usize..(w[0].key_off + w[0].key_len) as usize];
                let kb = &self.arena[w[1].key_off as usize..(w[1].key_off + w[1].key_len) as usize];
                ka <= kb
            }),
            "RunBuilder records not pushed in sorted order"
        );
        SortedRun::from_parts(Arc::new(self.arena), self.slots)
    }
}

/// Final output of a map task: one sorted run per partition, plus the
/// I/O totals the engine charges to the virtual clock.
#[derive(Debug, Clone, Default)]
pub struct MapOutput {
    /// Sorted, combined output per partition.
    pub partitions: Vec<SortedRun>,
    /// Bytes written to local disk across all spills + the final merge.
    pub spill_bytes_written: u64,
    /// Bytes re-read from local disk by the final merge.
    pub spill_bytes_read: u64,
    /// Number of spill passes.
    pub num_spills: u32,
    /// Per-partition on-disk/on-wire sizes after map-output compression
    /// (`mapred.compress.map.output`): the engine packs each partition's
    /// run into hl-codec frames and records the framed size here. `None`
    /// means the output travels uncompressed.
    pub wire_bytes: Option<Vec<u64>>,
}

impl MapOutput {
    /// Serialized size of one partition's run.
    pub fn partition_bytes(&self, p: usize) -> u64 {
        self.partitions[p].bytes()
    }

    /// Bytes partition `p` actually occupies on the shuffle wire: the
    /// framed size when map output is compressed, the serialized size
    /// otherwise.
    pub fn wire_partition_bytes(&self, p: usize) -> u64 {
        match &self.wire_bytes {
            Some(w) => w[p],
            None => self.partition_bytes(p),
        }
    }

    /// Serialized size across all partitions.
    pub fn total_bytes(&self) -> u64 {
        self.partitions.iter().map(SortedRun::bytes).sum()
    }

    /// Total records across all partitions.
    pub fn total_records(&self) -> u64 {
        self.partitions.iter().map(|p| p.len() as u64).sum()
    }

    /// Move partition `r` out, leaving an empty run (single-consumer
    /// runners that will not retry the reduce).
    pub fn take_partition(&mut self, r: usize) -> SortedRun {
        std::mem::take(&mut self.partitions[r])
    }
}

/// One record in the collect buffer: its partition, its arena slot, and
/// the first 8 key bytes cached inline. The spill sort permutes these
/// compact entries, never the record bytes: it radix-sorts on the
/// `prefix` word and touches the arena only inside runs of tied prefixes.
#[derive(Debug, Clone, Copy)]
struct KvEntry {
    partition: u32,
    /// Big-endian load of the first `min(8, key_len)` key bytes, zero
    /// padded. Zero padding orders a short key before any longer key with
    /// the same leading bytes *unless* the longer key continues with 0x00
    /// bytes — and equal prefixes always fall back to a full key compare,
    /// so the order agrees with `memcmp` either way.
    prefix: u64,
    slot: KvSlot,
}

impl KvEntry {
    #[inline]
    fn partition(&self) -> usize {
        self.partition as usize
    }
}

/// The sortable prefix of a key slice.
#[inline]
fn key_prefix(k: &[u8]) -> u64 {
    let mut p = [0u8; 8];
    let n = k.len().min(8);
    p[..n].copy_from_slice(&k[..n]);
    u64::from_be_bytes(p)
}

/// Cap on the collect arena so `u32` offsets always suffice; a spill is
/// forced at this size even if the configured limit is larger.
const MAX_ARENA: usize = 1 << 31;

/// The in-memory collect/sort/spill buffer for one map task.
pub struct SortBuffer<K: SortableKey, V: Writable> {
    num_partitions: usize,
    buffer_limit: usize,
    /// Flat kvbuffer: every buffered record's key and value bytes, back
    /// to back in collect order.
    arena: Vec<u8>,
    /// One compact entry per buffered record; sorting happens here.
    index: Vec<KvEntry>,
    /// High-water mark of buffered bytes (the in-mapper-combining memory
    /// comparison in experiment N2 reads this).
    pub peak_buffered: usize,
    spills: Vec<Vec<SortedRun>>,
    spill_bytes_written: u64,
    partitioner: Option<PartitionFn<K>>,
    _types: std::marker::PhantomData<fn() -> (K, V)>,
}

impl<K: SortableKey, V: Writable> SortBuffer<K, V> {
    /// Buffer with `num_partitions` outputs and a spill threshold.
    pub fn new(num_partitions: usize, buffer_limit: usize) -> Self {
        assert!(num_partitions > 0);
        SortBuffer {
            num_partitions,
            buffer_limit: buffer_limit.clamp(1, MAX_ARENA),
            arena: Vec::new(),
            index: Vec::new(),
            peak_buffered: 0,
            spills: Vec::new(),
            spill_bytes_written: 0,
            partitioner: None,
            _types: std::marker::PhantomData,
        }
    }

    /// Replace hash partitioning with a custom partitioner.
    pub fn with_partitioner(mut self, f: Option<PartitionFn<K>>) -> Self {
        self.partitioner = f;
        self
    }

    /// Serialize and buffer one pair; spills (sort + combine) when full.
    pub fn collect<C>(
        &mut self,
        key: &K,
        value: &V,
        combiner: Option<&mut C>,
        counters: &mut Counters,
    ) where
        C: Combiner<K = K, V = V>,
    {
        let key_off = self.arena.len() as u32;
        key.encode_ordered(&mut self.arena);
        let val_off = self.arena.len() as u32;
        value.write(&mut self.arena);
        let slot = KvSlot {
            key_off,
            key_len: val_off - key_off,
            val_off,
            val_len: (self.arena.len() - val_off as usize) as u32,
        };
        let kbytes = &self.arena[key_off as usize..val_off as usize];
        let p = match &self.partitioner {
            Some(f) => f(key, kbytes, self.num_partitions).min(self.num_partitions - 1),
            None => default_partition(kbytes, self.num_partitions),
        };
        self.index.push(KvEntry { partition: p as u32, prefix: key_prefix(kbytes), slot });
        self.peak_buffered = self.peak_buffered.max(self.arena.len());
        if self.arena.len() >= self.buffer_limit {
            self.spill(combiner, counters);
        }
    }

    /// Force a spill of the current buffer (sort, combine, "write").
    pub fn spill<C>(&mut self, combiner: Option<&mut C>, counters: &mut Counters)
    where
        C: Combiner<K = K, V = V>,
    {
        if self.index.is_empty() {
            return;
        }
        let arena = std::mem::take(&mut self.arena);
        let index = std::mem::take(&mut self.index);
        counters.incr_task(TaskCounter::SpilledRecords, index.len() as u64);

        let np = self.num_partitions;
        let (ordered, starts) = sort_entries(&arena, index, np);

        let arena = Arc::new(arena);
        let mut combiner = combiner;
        let mut spill: Vec<SortedRun> = Vec::with_capacity(np);
        for p in 0..np {
            let entries = &ordered[starts[p]..starts[p + 1]];
            let run = match combiner.as_deref_mut() {
                // Combined runs reserialize into a fresh arena.
                Some(c) => combine_entries::<K, V, C>(&arena, entries, c, counters),
                // Without a combiner the run just references the shared
                // spill arena — zero copying.
                None => {
                    SortedRun::from_parts(arena.clone(), entries.iter().map(|e| e.slot).collect())
                }
            };
            self.spill_bytes_written += run.bytes();
            spill.push(run);
        }
        self.spills.push(spill);
    }

    /// Final spill + merge of all spills into one sorted run per partition.
    pub fn finish<C>(mut self, combiner: Option<&mut C>, counters: &mut Counters) -> MapOutput
    where
        C: Combiner<K = K, V = V>,
    {
        let mut combiner = combiner;
        self.spill(combiner.as_deref_mut(), counters);
        let num_spills = self.spills.len() as u32;
        let mut merged: Vec<SortedRun> = Vec::with_capacity(self.num_partitions);
        let mut merge_read = 0u64;
        let mut merge_written = 0u64;

        for p in 0..self.num_partitions {
            let runs: Vec<SortedRun> =
                self.spills.iter_mut().map(|s| std::mem::take(&mut s[p])).collect();
            let out = if runs.len() == 1 {
                runs.into_iter().next().unwrap()
            } else if runs.is_empty() {
                SortedRun::default()
            } else {
                // Multi-spill merge re-reads and re-writes everything, and
                // the combiner runs once more over merged groups.
                merge_read += crate::merge::runs_bytes(&runs);
                let out = match combiner.as_deref_mut() {
                    Some(c) => {
                        let mut b = RunBuilder::new();
                        for (kbytes, vlist) in crate::merge::merge_groups(&runs) {
                            combine_group::<K, V, C>(kbytes, &vlist, c, counters, &mut b);
                        }
                        b.finish()
                    }
                    None => {
                        let mut b = RunBuilder::new();
                        for (k, v) in crate::merge::merge_iter(&runs) {
                            b.push_raw(k, v);
                        }
                        b.finish()
                    }
                };
                merge_written += out.bytes();
                out
            };
            merged.push(out);
        }

        MapOutput {
            partitions: merged,
            spill_bytes_written: self.spill_bytes_written + merge_written,
            spill_bytes_read: merge_read,
            num_spills,
            wire_bytes: None,
        }
    }
}

/// Order spill entries by `(partition, key bytes, collect order)` and
/// return them with each partition's start offset (`np + 1` bounds).
///
/// Entries arrive in collect order. A stable LSD radix sort on the 8-byte
/// prefix, then a stable counting pass on the partition, leaves every
/// `(partition, prefix)` run in collect order. Byte passes in which all
/// entries share the byte are skipped, so short or low-entropy keys pay
/// for the bytes that actually vary. Equal prefixes can still hide
/// different keys (keys over 8 bytes, or a short key against one padded
/// with 0x00), so each equal-prefix run whose keys differ gets a stable
/// full-key sort. Stability throughout means equal keys keep collect
/// order, as Hadoop's stable spill sort gives.
fn sort_entries(arena: &[u8], mut entries: Vec<KvEntry>, np: usize) -> (Vec<KvEntry>, Vec<usize>) {
    let n = entries.len();
    // One counting pass fills every histogram: 8 prefix bytes + partition.
    let mut byte_counts = [[0usize; 256]; 8];
    let mut starts = vec![0usize; np + 1];
    for e in &entries {
        for (counts, b) in byte_counts.iter_mut().zip(e.prefix.to_be_bytes()) {
            counts[usize::from(b)] += 1;
        }
        starts[e.partition() + 1] += 1;
    }
    for p in 0..np {
        starts[p + 1] += starts[p];
    }

    // The one scratch buffer the passes ping-pong through.
    let mut scratch = entries.clone();
    for (i, counts) in byte_counts.iter().enumerate().rev() {
        if counts.contains(&n) {
            continue;
        }
        let mut sum = 0;
        let mut cursors = counts.map(|c| {
            sum += c;
            sum - c
        });
        for e in &entries {
            let b = usize::from(e.prefix.to_be_bytes()[i]);
            scratch[cursors[b]] = *e;
            cursors[b] += 1;
        }
        std::mem::swap(&mut entries, &mut scratch);
    }
    if !starts.windows(2).any(|w| w[1] - w[0] == n) {
        let mut cursors = starts.clone();
        for e in &entries {
            scratch[cursors[e.partition()]] = *e;
            cursors[e.partition()] += 1;
        }
        std::mem::swap(&mut entries, &mut scratch);
    }
    drop(scratch);

    for p in 0..np {
        for run in entries[starts[p]..starts[p + 1]].chunk_by_mut(|a, b| a.prefix == b.prefix) {
            let first = key_slice(arena, &run[0].slot);
            if run[1..].iter().any(|e| key_slice(arena, &e.slot) != first) {
                run.sort_by(|a, b| key_slice(arena, &a.slot).cmp(key_slice(arena, &b.slot)));
            }
        }
    }
    (entries, starts)
}

fn key_slice<'a>(arena: &'a [u8], s: &KvSlot) -> &'a [u8] {
    &arena[s.key_off as usize..(s.key_off + s.key_len) as usize]
}

fn val_slice<'a>(arena: &'a [u8], s: &KvSlot) -> &'a [u8] {
    &arena[s.val_off as usize..(s.val_off + s.val_len) as usize]
}

/// Run the combiner over consecutive equal-key spans of sorted index
/// entries, serializing its output into a fresh run.
fn combine_entries<K, V, C>(
    arena: &[u8],
    entries: &[KvEntry],
    combiner: &mut C,
    counters: &mut Counters,
) -> SortedRun
where
    K: SortableKey,
    V: Writable,
    C: Combiner<K = K, V = V>,
{
    let mut out = RunBuilder::new();
    let mut i = 0usize;
    while i < entries.len() {
        let kbytes = key_slice(arena, &entries[i].slot);
        let mut j = i + 1;
        while j < entries.len() && key_slice(arena, &entries[j].slot) == kbytes {
            j += 1;
        }
        let vlist: Vec<&[u8]> = entries[i..j].iter().map(|e| val_slice(arena, &e.slot)).collect();
        combine_group::<K, V, C>(kbytes, &vlist, combiner, counters, &mut out);
        i = j;
    }
    out.finish()
}

/// Decode one `(key, values)` group, fold it through the combiner, and
/// push the folded records (same key bytes, new values) onto `out`.
fn combine_group<K, V, C>(
    kbytes: &[u8],
    vlist: &[&[u8]],
    combiner: &mut C,
    counters: &mut Counters,
    out: &mut RunBuilder,
) where
    K: SortableKey,
    V: Writable,
    C: Combiner<K = K, V = V>,
{
    let mut kslice = kbytes;
    let key = K::decode_ordered(&mut kslice).expect("combiner key round-trip");
    let values: Vec<V> =
        vlist.iter().map(|b| V::from_bytes(b).expect("combiner value round-trip")).collect();
    counters.incr_task(TaskCounter::CombineInputRecords, values.len() as u64);
    let mut folded = Vec::new();
    combiner.combine(&key, values, &mut folded);
    counters.incr_task(TaskCounter::CombineOutputRecords, folded.len() as u64);
    for v in folded {
        out.push_value(kbytes, &v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums counts per word — the WordCount combiner.
    struct SumCombiner;
    impl Combiner for SumCombiner {
        type K = String;
        type V = u64;
        fn combine(&mut self, _k: &String, values: Vec<u64>, out: &mut Vec<u64>) {
            out.push(values.into_iter().sum());
        }
    }

    type NoC = crate::api::NoCombiner<String, u64>;

    fn collect_all(
        buf: &mut SortBuffer<String, u64>,
        pairs: &[(&str, u64)],
        counters: &mut Counters,
    ) {
        for (k, v) in pairs {
            buf.collect::<NoC>(&k.to_string(), v, None, counters);
        }
    }

    #[test]
    fn single_partition_sorts_by_key() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, usize::MAX >> 1);
        collect_all(
            &mut buf,
            &[("pear", 1), ("apple", 2), ("mango", 3), ("apple", 4)],
            &mut counters,
        );
        let out = buf.finish::<NoC>(None, &mut counters);
        let keys: Vec<String> = out.partitions[0]
            .iter()
            .map(|(k, _)| {
                let mut s = k;
                String::decode_ordered(&mut s).unwrap()
            })
            .collect();
        assert_eq!(keys, vec!["apple", "apple", "mango", "pear"]);
        assert_eq!(out.num_spills, 1);
        assert_eq!(out.total_records(), 4);
    }

    #[test]
    fn equal_keys_keep_collect_order() {
        // The spill sort is stable, so equal keys come out in arrival
        // order — the stability Hadoop's stable sort gives.
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, usize::MAX >> 1);
        collect_all(&mut buf, &[("k", 3), ("k", 1), ("k", 2)], &mut counters);
        let out = buf.finish::<NoC>(None, &mut counters);
        let values: Vec<u64> =
            out.partitions[0].iter().map(|(_, v)| u64::from_bytes(v).unwrap()).collect();
        assert_eq!(values, vec![3, 1, 2]);
    }

    #[test]
    fn partitioning_is_stable_and_complete() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(4, usize::MAX >> 1);
        let pairs: Vec<(String, u64)> = (0..100).map(|i| (format!("key{i}"), i as u64)).collect();
        for (k, v) in &pairs {
            buf.collect::<NoC>(k, v, None, &mut counters);
        }
        let out = buf.finish::<NoC>(None, &mut counters);
        assert_eq!(out.partitions.len(), 4);
        assert_eq!(out.total_records(), 100);
        // Each partition's run is sorted by raw key bytes.
        for p in &out.partitions {
            let keys: Vec<&[u8]> = (0..p.len()).map(|i| p.key(i)).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "each partition sorted");
        }
    }

    #[test]
    fn combiner_folds_at_spill_time() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, usize::MAX >> 1);
        for _ in 0..1000 {
            buf.collect(&"the".to_string(), &1, Some(&mut SumCombiner), &mut counters);
        }
        let out = buf.finish(Some(&mut SumCombiner), &mut counters);
        assert_eq!(out.partitions[0].len(), 1, "1000 pairs folded to 1");
        let (_, v) = out.partitions[0].get(0);
        assert_eq!(u64::from_bytes(v).unwrap(), 1000);
        assert_eq!(counters.task(TaskCounter::CombineInputRecords), 1000);
        assert_eq!(counters.task(TaskCounter::CombineOutputRecords), 1);
    }

    #[test]
    fn small_buffer_forces_multiple_spills_and_merge() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(2, 256);
        let words = ["alpha", "beta", "gamma", "delta"];
        for i in 0..200u64 {
            let w = words[(i % 4) as usize].to_string();
            buf.collect(&w, &1, Some(&mut SumCombiner), &mut counters);
        }
        let out = buf.finish(Some(&mut SumCombiner), &mut counters);
        assert!(out.num_spills > 1, "256-byte buffer must spill repeatedly");
        assert!(out.spill_bytes_read > 0, "merge re-reads spills");
        // After the final combine pass each word appears exactly once with
        // its total count.
        let mut totals = std::collections::BTreeMap::new();
        for p in &out.partitions {
            for (k, v) in p.iter() {
                let mut ks = k;
                let key = String::decode_ordered(&mut ks).unwrap();
                *totals.entry(key).or_insert(0u64) += u64::from_bytes(v).unwrap();
            }
        }
        for w in words {
            assert_eq!(totals[w], 50, "{w}");
        }
        // With a working final-merge combine, each word is a single record.
        assert_eq!(out.total_records(), 4);
    }

    #[test]
    fn without_combiner_all_records_survive_spills() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, 128);
        for i in 0..100u64 {
            buf.collect::<NoC>(&"k".to_string(), &i, None, &mut counters);
        }
        let out = buf.finish::<NoC>(None, &mut counters);
        assert_eq!(out.total_records(), 100);
        let values: std::collections::BTreeSet<u64> =
            out.partitions[0].iter().map(|(_, v)| u64::from_bytes(v).unwrap()).collect();
        assert_eq!(values.len(), 100, "no values lost or duplicated");
    }

    #[test]
    fn peak_buffer_tracks_high_water() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, 10_000);
        collect_all(&mut buf, &[("aaaa", 1), ("bbbb", 2)], &mut counters);
        let peak = buf.peak_buffered;
        assert!(peak > 0);
        buf.spill::<NoC>(None, &mut counters);
        collect_all(&mut buf, &[("c", 3)], &mut counters);
        assert_eq!(buf.peak_buffered, peak, "smaller second fill keeps old peak");
    }

    #[test]
    fn spilled_records_counter_counts_every_spill_pass() {
        let mut counters = Counters::new();
        let mut buf: SortBuffer<String, u64> = SortBuffer::new(1, usize::MAX >> 1);
        collect_all(&mut buf, &[("a", 1), ("b", 2)], &mut counters);
        let _ = buf.finish::<NoC>(None, &mut counters);
        assert_eq!(counters.task(TaskCounter::SpilledRecords), 2);
    }

    #[test]
    fn sorted_run_clone_shares_arena() {
        let run = SortedRun::from_pairs(vec![
            (b"b".to_vec(), b"2".to_vec()),
            (b"a".to_vec(), b"1".to_vec()),
        ]);
        let dup = run.clone();
        assert_eq!(run.to_pairs(), dup.to_pairs());
        assert_eq!(run.get(0).0, b"a");
        assert!(Arc::ptr_eq(&run.arena, &dup.arena), "clone must not copy bytes");
        assert_eq!(run.bytes(), 4);
    }

    #[test]
    fn run_builder_roundtrip() {
        let mut b = RunBuilder::new();
        b.push_raw(b"aa", b"xyz");
        b.push_value(b"bb", &7u64);
        let run = b.finish();
        assert_eq!(run.len(), 2);
        assert_eq!(run.get(0), (&b"aa"[..], &b"xyz"[..]));
        let (k, v) = run.get(1);
        assert_eq!(k, b"bb");
        assert_eq!(u64::from_bytes(v).unwrap(), 7);
        assert_eq!(run.bytes(), 5 + 2 + v.len() as u64);
    }
}
