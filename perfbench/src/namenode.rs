//! `namenode`: a standalone NameNode with 200 DataNodes taken through
//! bulk load, block reports, heartbeats, checkpoint, restart and delete.
//!
//! The shape follows `scale-soak`: the load places blocks on a small
//! bootstrap set of DataNodes, and the full reports then spread three
//! replicas of every block over the whole cluster. Every round starts
//! from a freshly formatted NameNode, so block ids, generation stamps and
//! the fsimage repeat exactly from round to round.

use std::time::Instant;

use hl_cluster::event::{EventQueue, TimerWheel};
use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::block::{BlockId, IncrementalBlockReport, ReplicaMeta};
use hl_dfs::namenode::NameNode;

use crate::harness::{err, secs, Outcome, Rng, RoundOut, SetupTimes, Stopwatch, Workload};
use crate::trace::Tracer;

const NODES: u64 = 200;
const RACKS: usize = 20;
/// DataNodes registered during the bulk load (placement is
/// O(candidates) per block, so the load uses a small set).
const BOOTSTRAP: u64 = 10;
const FILES: u64 = 1_000;
const BLOCKS_PER_FILE: u64 = 100;
/// Files of ten blocks written after the checkpoint: the journal tail the
/// restart replays.
const TAIL_FILES: u64 = 200;
const TAIL_BLOCKS: u64 = 10;
const REPLICAS: u64 = 3;
/// Heartbeat intervals driven through the timer wheel.
const DES_INTERVALS: u64 = 50;
/// One replica in this many is re-reported, and one in this many
/// dropped, by each DataNode's incremental report.
const DELTA_EVERY: usize = 64;
const FREE: u64 = u64::MAX / 2;

fn node(i: u64) -> NodeId {
    NodeId(u32::try_from(i).expect("node index fits u32"))
}

/// Directories the files spread over, per top-level directory.
const DIRS: u64 = 32;

/// The round's input, all drawn from the seed.
struct Plan {
    dirs: Vec<String>,
    files: Vec<String>,
    tail: Vec<String>,
    /// Block lengths: `BLOCKS_PER_FILE` per bulk file, then `TAIL_BLOCKS`
    /// per tail file.
    lens: Vec<u64>,
    /// First heartbeat deadline of each DataNode within one interval, in
    /// parts per million of the interval.
    stagger_ppm: Vec<u64>,
}

impl Plan {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let dirs = ["bulk", "tail"]
            .iter()
            .flat_map(|d| (0..DIRS).map(move |i| format!("/{d}/d{i:02}")))
            .collect();
        let mut name = |dir: &str, i: u64| {
            format!("/{dir}/d{:02}/f{i:05}-{:08x}", i % DIRS, rng.next_u64() as u32)
        };
        let files = (0..FILES).map(|i| name("bulk", i)).collect();
        let tail = (0..TAIL_FILES).map(|i| name("tail", i)).collect();
        let total = FILES * BLOCKS_PER_FILE + TAIL_FILES * TAIL_BLOCKS;
        let lens = (0..total).map(|_| 1 + rng.below(2048)).collect();
        let stagger_ppm = (0..NODES).map(|_| rng.below(1_000_000)).collect();
        Plan { dirs, files, tail, lens, stagger_ppm }
    }
}

pub struct NameNodeWl {
    config: Configuration,
    plan: Plan,
    /// Block ids a fresh NameNode hands out for the plan's bulk load.
    ids: Vec<BlockId>,
    reports: Vec<Vec<ReplicaMeta>>,
    deltas: Vec<IncrementalBlockReport>,
}

fn config() -> Configuration {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 2048u64);
    config.set(keys::DFS_SAFEMODE_EXTENSION_SECS, 0u64);
    // No automatic checkpoints: the round checkpoints once, explicitly.
    config.set(keys::DFS_CHECKPOINT_OPS, 0u64);
    config
}

fn format(config: &Configuration) -> Result<NameNode> {
    NameNode::new(config, Topology::striped(NODES as usize, RACKS))
}

impl NameNodeWl {
    pub fn setup(seed: u64) -> Result<(Self, SetupTimes)> {
        let t = Instant::now();
        let plan = Plan::new(seed);
        let datagen_s = secs(t);
        let t = Instant::now();
        let config = config();
        // A dry run of the bulk load learns the ids and stamps a fresh
        // NameNode assigns, from which the DataNodes' reports are built.
        let mut nn = format(&config)?;
        for i in 0..BOOTSTRAP {
            nn.register_datanode(SimTime::ZERO, node(i), FREE);
        }
        nn.safemode.update(SimTime::ZERO, 0, 0);
        for dir in &plan.dirs {
            nn.mkdirs(dir)?;
        }
        let mut ids = Vec::new();
        let mut lens = plan.lens.iter();
        for path in &plan.files {
            nn.create_file(SimTime::ZERO, path, Some(REPLICAS as u32), None, "bench")?;
            for len in lens.by_ref().take(BLOCKS_PER_FILE as usize) {
                ids.push(nn.add_block(SimTime::ZERO, path, *len, None)?.0);
            }
            nn.complete_file(path)?;
        }
        let offset = seed % NODES;
        let mut reports: Vec<Vec<ReplicaMeta>> = vec![Vec::new(); NODES as usize];
        for (&id, len) in ids.iter().zip(&plan.lens) {
            let gen_stamp = nn
                .block(id)
                .map(|b| b.gen_stamp)
                .ok_or_else(|| HlError::Internal(format!("{id} vanished")))?;
            for r in 0..REPLICAS {
                let n = (id.0 + offset + r * (NODES / REPLICAS)) % NODES;
                reports[n as usize].push(ReplicaMeta { id, len: *len, gen_stamp });
            }
        }
        for rep in &mut reports {
            rep.sort_by_key(|m| m.id);
        }
        let deltas = reports
            .iter()
            .enumerate()
            .map(|(i, rep)| IncrementalBlockReport {
                received: rep.iter().skip(i % DELTA_EVERY).step_by(DELTA_EVERY).copied().collect(),
                deleted: rep
                    .iter()
                    .skip((i + 1) % DELTA_EVERY)
                    .step_by(DELTA_EVERY)
                    .map(|m| m.id)
                    .collect(),
            })
            .collect();
        let cluster_s = secs(t);
        Ok((NameNodeWl { config, plan, ids, reports, deltas }, SetupTimes { datagen_s, cluster_s }))
    }
}

impl Workload for NameNodeWl {
    fn round(&mut self, _round: u32, tr: &mut Tracer, sw: &mut Stopwatch) -> Outcome<RoundOut> {
        let plan = &self.plan;
        let mut ops = 0u64;
        let mut nn = tr.span("nn.format", |_| format(&self.config)).map_err(err)?;
        for i in 0..BOOTSTRAP {
            tr.span("nn.register_datanode", |_| nn.register_datanode(SimTime::ZERO, node(i), FREE));
        }
        tr.span("nn.safemode_update", |_| nn.safemode.update(SimTime::ZERO, 0, 0));
        for dir in &plan.dirs {
            tr.span("nn.mkdirs", |_| nn.mkdirs(dir)).map_err(err)?;
        }
        ops += BOOTSTRAP + 1 + plan.dirs.len() as u64;

        // Bulk load through create / add_block / complete.
        let mut ids = Vec::with_capacity(self.ids.len());
        let mut lens = plan.lens.iter();
        for path in &plan.files {
            tr.span("nn.create_file", |_| {
                nn.create_file(SimTime::ZERO, path, Some(REPLICAS as u32), None, "bench")
            })
            .map_err(err)?;
            tr.span_n("nn.add_block", BLOCKS_PER_FILE as u32, |_| {
                for len in lens.by_ref().take(BLOCKS_PER_FILE as usize) {
                    ids.push(nn.add_block(SimTime::ZERO, path, *len, None)?.0);
                }
                Ok::<_, HlError>(())
            })
            .map_err(err)?;
            tr.span("nn.complete_file", |_| nn.complete_file(path)).map_err(err)?;
        }
        ops += FILES * (BLOCKS_PER_FILE + 2);
        for i in BOOTSTRAP..NODES {
            tr.span("nn.register_datanode", |_| nn.register_datanode(SimTime::ZERO, node(i), FREE));
        }
        ops += NODES - BOOTSTRAP;

        // Every DataNode's full report, then its incremental report.
        for (i, rep) in self.reports.iter().enumerate() {
            tr.span("nn.process_block_report", |_| {
                nn.process_block_report(SimTime(1), node(i as u64), rep)
            });
        }
        for (i, delta) in self.deltas.iter().enumerate() {
            tr.span("nn.process_incremental_report", |_| {
                nn.process_incremental_report(SimTime(2), node(i as u64), delta)
            });
        }
        ops += 2 * NODES;

        // Heartbeat rounds on the timer wheel: one queue event per due
        // round, firing that round's DataNodes in key order.
        let interval = nn.heartbeat_interval();
        let t0 = SimTime(3);
        let horizon = t0 + SimDuration::from_micros(interval.as_micros() * DES_INTERVALS);
        let (events, heartbeats) = tr.span("des.heartbeat_rounds", |tr| {
            let mut wheel: TimerWheel<NodeId> =
                TimerWheel::new(SimDuration::from_micros((interval.as_micros() / 10).max(1)));
            for (i, ppm) in plan.stagger_ppm.iter().enumerate() {
                let offset = SimDuration::from_micros(interval.as_micros() * ppm / 1_000_000);
                wheel.schedule(node(i as u64), t0 + offset);
            }
            let mut queue: EventQueue<()> = EventQueue::new();
            if let Some(due) = wheel.next_due() {
                queue.schedule_at(due, ());
            }
            let (mut events, mut beats) = (0u64, 0u64);
            while let Some((t, ())) = queue.pop() {
                if t > horizon {
                    break;
                }
                events += 1;
                let due = wheel.pop_due(t);
                tr.span_n("nn.heartbeat", due.len() as u32, |_| {
                    for &n in &due {
                        nn.heartbeat(t, n, FREE);
                    }
                });
                for n in due {
                    events += 1;
                    beats += 1;
                    wheel.schedule(n, t + interval);
                }
                if let Some(due) = wheel.next_due() {
                    queue.schedule_at(due, ());
                }
            }
            (events, beats)
        });
        ops += heartbeats;

        // Checkpoint, a journal tail, then a crash and restart.
        tr.span("nn.checkpoint", |_| nn.checkpoint());
        let fsimage_bytes = nn.fsimage_bytes().len() as u64;
        let now = horizon;
        for path in &plan.tail {
            tr.span("nn.create_file", |_| {
                nn.create_file(now, path, Some(REPLICAS as u32), None, "bench")
            })
            .map_err(err)?;
            tr.span_n("nn.add_block", TAIL_BLOCKS as u32, |_| {
                for len in lens.by_ref().take(TAIL_BLOCKS as usize) {
                    nn.add_block(now, path, *len, None)?;
                }
                Ok::<_, HlError>(())
            })
            .map_err(err)?;
            tr.span("nn.complete_file", |_| nn.complete_file(path)).map_err(err)?;
        }
        ops += 1 + TAIL_FILES * (TAIL_BLOCKS + 2);
        let tail_ops = nn.editlog.len() as u64;
        let ram = nn.metadata_ram_bytes();
        let before = sw.outside(|| nn.clone());
        tr.span("nn.shutdown", |_| nn.shutdown());
        tr.span("nn.restart", |_| nn.restart(now + SimDuration::from_secs(1))).map_err(err)?;
        ops += 1;

        let mut out = RoundOut::default();
        sw.outside(|| {
            tr.span("verify", |_| check_restart(&ids, &self.ids, before, &mut nn, &mut out))
        })?;

        // Leave safe mode as an operator would, then delete every file.
        tr.span("nn.safemode_leave", |_| nn.safemode.force_leave());
        for path in plan.files.iter().chain(&plan.tail) {
            tr.span("nn.delete", |_| nn.delete(path, false)).map_err(err)?;
        }
        ops += 1 + FILES + TAIL_FILES;
        let snap = tr.span("metrics.snapshot", |_| nn.metrics.snapshot(now));
        sw.outside(|| {
            let (_, blocks_left) = nn.block_census();
            if blocks_left != 0 {
                return Err(format!("{blocks_left} blocks left after deleting every file"));
            }
            for (name, v) in [
                ("nn.fsimage_bytes", fsimage_bytes),
                ("nn.editlog.tail_ops", tail_ops),
                ("nn.metadata_ram_bytes", ram),
                ("des.events", events),
                ("metrics.series", snap.samples.len() as u64),
            ] {
                out.pin(name, v);
                out.set(name, v as f64);
            }
            out.pin("nn_ops", ops);
            out.set("nn_ops", ops as f64);
            Ok(())
        })?;
        Ok(out)
    }
}

/// The recovered NameNode must hold the same files and blocks as before
/// the crash, and checkpoint to the same fsimage bytes.
fn check_restart(
    ids: &[BlockId],
    want_ids: &[BlockId],
    mut before: NameNode,
    after: &mut NameNode,
    out: &mut RoundOut,
) -> Outcome<()> {
    if ids != want_ids {
        return Err("bulk load handed out different block ids than the dry run".into());
    }
    if after.namespace() != before.namespace() {
        return Err("namespace differs after restart".into());
    }
    let (files_before, files_after) = (before.namespace().stats().1, after.namespace().stats().1);
    if files_before != files_after {
        return Err(format!("{files_after} files after restart, {files_before} before"));
    }
    if after.block_manifest() != before.block_manifest() {
        return Err("block map differs after restart".into());
    }
    before.checkpoint();
    after.checkpoint();
    let (want, got) = (before.fsimage_bytes(), after.fsimage_bytes());
    if want != got {
        return Err(format!("fsimage after restart is {} bytes, before {}", got.len(), want.len()));
    }
    out.pin("nn.files", files_after as u64);
    out.pin("nn.blocks", after.block_manifest().len() as u64);
    out.pin("nn.fsimage_fnv", fnv1a(got));
    Ok(())
}
