//! Golden byte-identity test for the NameNode's block map.
//!
//! One fixed run of 20 DataNodes × 5 000 blocks goes through everything
//! that reads or writes the block map: bulk load with pipeline acks, full
//! and incremental reports (with stale generation stamps and unknown
//! ids), a dead DataNode, decommission, several replication-monitor
//! passes, setrep up and down, deletes at the front, middle and back of
//! the id range, lease recovery, checkpoint, restart and the reports that
//! follow it. The run is hashed with FNV-1a over both fsimages, every
//! `DnCommand` the NameNode handed out, and the final metrics snapshot.
//!
//! The pinned value was computed with the `BTreeMap`-backed block map, so
//! any change to the block map's representation must reproduce its
//! behaviour byte for byte.

use std::collections::BTreeMap;

use hl_common::config::keys;
use hl_common::hash::fnv1a;
use hl_common::prelude::*;
use hl_common::writable::Writable;
use hl_dfs::block::{IncrementalBlockReport, ReplicaMeta};
use hl_dfs::namenode::{DnCommand, NameNode};
use hl_dfs::BlockId;

const NODES: u32 = 20;
const FILES: usize = 50;
const BLOCKS_PER_FILE: usize = 100;
const FREE: u64 = u64::MAX / 2;

/// FNV-1a of the fixed run, pinned on the `BTreeMap` block map.
const GOLDEN: u64 = 0x0b64_c572_8828_6091;

/// What each DataNode really holds: block → the replica it would report.
type Held = Vec<BTreeMap<BlockId, ReplicaMeta>>;

fn encode(cmds: &[DnCommand], out: &mut Vec<u8>) {
    for cmd in cmds {
        match *cmd {
            DnCommand::Replicate { block, from, to } => {
                out.push(0);
                out.extend_from_slice(&block.0.to_le_bytes());
                out.extend_from_slice(&from.0.to_le_bytes());
                out.extend_from_slice(&to.0.to_le_bytes());
            }
            DnCommand::Invalidate { block, node } => {
                out.push(1);
                out.extend_from_slice(&block.0.to_le_bytes());
                out.extend_from_slice(&node.0.to_le_bytes());
            }
        }
    }
}

fn replica(nn: &NameNode, id: BlockId) -> ReplicaMeta {
    let b = nn.block(id).expect("block is live");
    ReplicaMeta { id, len: b.len, gen_stamp: b.gen_stamp }
}

fn full_reports(nn: &mut NameNode, t: SimTime, held: &Held, unknown: bool) {
    for (n, blocks) in held.iter().enumerate() {
        let mut report: Vec<ReplicaMeta> = blocks.values().copied().collect();
        if unknown && n % 3 == 0 {
            report.push(ReplicaMeta { id: BlockId(9_000_000 + n as u64), len: 1, gen_stamp: 1 });
        }
        nn.process_block_report(t, NodeId(n as u32), &report);
    }
}

/// Run the monitor and carry out its commands the way a cluster would:
/// copies land (one in nine fails), invalidations drop the replica.
fn monitor_pass(nn: &mut NameNode, t: SimTime, held: &mut Held, cmds: &mut Vec<DnCommand>) {
    let work = nn.replication_work(t, 400);
    cmds.extend(work.iter().cloned());
    for (i, cmd) in work.into_iter().enumerate() {
        match cmd {
            DnCommand::Replicate { block, .. } if i % 9 == 0 => nn.replication_failed(block),
            DnCommand::Replicate { block, to, .. } => {
                if nn.block(block).is_some() {
                    let meta = replica(nn, block);
                    held[to.0 as usize].insert(block, meta);
                }
                let evicted = nn.block_received(t, to, block);
                apply_invalidations(&evicted, held);
                cmds.extend(evicted);
            }
            DnCommand::Invalidate { block, node } => {
                held[node.0 as usize].remove(&block);
            }
        }
    }
}

fn apply_invalidations(cmds: &[DnCommand], held: &mut Held) {
    for cmd in cmds {
        if let DnCommand::Invalidate { block, node } = *cmd {
            held[node.0 as usize].remove(&block);
        }
    }
}

fn golden_run() -> u64 {
    let mut config = Configuration::with_defaults();
    config.set(keys::DFS_BLOCK_SIZE, 1024u64);
    config.set(keys::DFS_SAFEMODE_EXTENSION_SECS, 0u64);
    config.set(keys::DFS_CHECKPOINT_OPS, 1_500u64);
    let mut nn = NameNode::new(&config, Topology::striped(NODES as usize, 4)).unwrap();
    for i in 0..NODES {
        nn.register_datanode(SimTime::ZERO, NodeId(i), FREE - u64::from(i));
    }
    nn.safemode.update(SimTime::ZERO, 0, 0);
    let mut held: Held = vec![BTreeMap::new(); NODES as usize];
    let mut cmds: Vec<DnCommand> = Vec::new();

    // Bulk load. Every fourth file is acked through the write pipeline;
    // the rest become known only through the full reports below.
    let t = SimTime(1);
    nn.mkdirs("/g").unwrap();
    let mut ids = Vec::new();
    for f in 0..FILES {
        let path = format!("/g/f{f:02}");
        let replication = if f % 5 == 0 { 2 } else { 3 };
        nn.create_file(t, &path, Some(replication), None, "loader").unwrap();
        for b in 0..BLOCKS_PER_FILE {
            let len = 1 + ((f * BLOCKS_PER_FILE + b) as u64 * 37) % 1024;
            let (id, targets) = nn.add_block(t, &path, len, None).unwrap();
            let meta = replica(&nn, id);
            for &to in &targets {
                held[to.0 as usize].insert(id, meta);
                if f % 4 == 0 {
                    cmds.extend(nn.block_received(t, to, id));
                }
            }
            ids.push(id);
        }
        nn.complete_file(&path).unwrap();
    }

    // Pipeline recovery on every 97th block: the first holder keeps the
    // old stamp and is invalidated by its next report.
    for (k, &id) in ids.iter().enumerate().step_by(97) {
        let path = format!("/g/f{:02}", k / BLOCKS_PER_FILE);
        let gs = nn.bump_gen_stamp(t, &path, id).unwrap();
        for (h, blocks) in held.iter_mut().filter(|b| b.contains_key(&id)).enumerate() {
            if h > 0 {
                if let Some(m) = blocks.get_mut(&id) {
                    m.gen_stamp = gs;
                }
            }
        }
    }

    full_reports(&mut nn, SimTime(2), &held, true);

    // Incremental reports: each node drops one replica in fifty and
    // re-announces one in thirty-three (every other one with a stale
    // stamp).
    for (n, mine) in held.iter_mut().enumerate() {
        let mut delta = IncrementalBlockReport::default();
        let ids: Vec<BlockId> = mine.keys().copied().collect();
        for (k, &id) in ids.iter().enumerate() {
            if (k + n) % 50 == 0 {
                mine.remove(&id);
                delta.deleted.push(id);
            } else if (k + n) % 33 == 0 {
                let mut meta = mine[&id];
                if k % 2 == 0 {
                    meta.gen_stamp -= 1;
                    mine.remove(&id);
                }
                delta.received.push(meta);
            }
        }
        delta.received.push(ReplicaMeta { id: BlockId(8_000_000), len: 1, gen_stamp: 1 });
        nn.process_incremental_report(SimTime(3), NodeId(n as u32), &delta);
    }

    // Node 19 stops heartbeating and is declared dead.
    let later = SimTime::ZERO + SimDuration::from_mins(20);
    for i in 0..NODES - 1 {
        nn.heartbeat(later, NodeId(i), FREE - u64::from(i));
    }
    assert_eq!(nn.check_heartbeats(later), vec![NodeId(NODES - 1)]);
    held[(NODES - 1) as usize].clear();

    nn.start_decommission(NodeId(3));
    nn.start_decommission(NodeId(11));
    for _ in 0..3 {
        monitor_pass(&mut nn, later, &mut held, &mut cmds);
    }
    nn.cancel_decommission(NodeId(11));
    nn.set_replication("/g/f10", 5).unwrap();
    nn.set_replication("/g/f11", 1).unwrap();
    monitor_pass(&mut nn, later, &mut held, &mut cmds);

    // Deletes at the front, middle and back of the id range.
    for path in ["/g/f00", "/g/f25", "/g/f49"] {
        let freed = nn.delete(path, false).unwrap();
        apply_invalidations(&freed, &mut held);
        cmds.extend(freed);
    }

    // A writer dies with two unconfirmed blocks; lease recovery abandons
    // them.
    nn.create_file(later, "/g/open", Some(3), None, "crashed").unwrap();
    nn.add_block(later, "/g/open", 100, None).unwrap();
    nn.add_block(later, "/g/open", 100, None).unwrap();
    assert!(!nn.recover_lease("/g/open").unwrap());
    assert_eq!(nn.check_leases(later), vec!["/g/open".to_string()]);
    monitor_pass(&mut nn, later, &mut held, &mut cmds);

    nn.checkpoint();
    let mut bytes = nn.fsimage_bytes().to_vec();

    // A journal tail, then a crash and restart; the surviving DataNodes
    // report back in and the monitor catches up.
    nn.create_file(later, "/g/tail", Some(3), None, "loader").unwrap();
    for _ in 0..3 {
        nn.add_block(later, "/g/tail", 512, None).unwrap();
    }
    nn.complete_file("/g/tail").unwrap();
    let again = later + SimDuration::from_secs(5);
    nn.restart(again).unwrap();
    for i in 0..NODES - 1 {
        nn.register_datanode(again, NodeId(i), FREE - u64::from(i));
    }
    full_reports(&mut nn, again, &held, false);
    // Blocks whose every holder dropped or died keep the census below
    // threshold, so the operator leaves safe mode by hand.
    let (reported, total) = nn.block_census();
    assert!(reported < total && nn.safemode.is_on());
    nn.safemode.force_leave();
    for _ in 0..2 {
        monitor_pass(&mut nn, again, &mut held, &mut cmds);
    }

    nn.sample_gauges();
    nn.checkpoint();
    bytes.extend_from_slice(nn.fsimage_bytes());
    encode(&cmds, &mut bytes);
    bytes.extend_from_slice(&nn.metrics.snapshot(again).to_bytes());
    fnv1a(&bytes)
}

#[test]
fn namenode_run_is_byte_identical_to_the_pinned_hash() {
    let got = golden_run();
    assert_eq!(got, GOLDEN, "got {got:#018x}");
}
