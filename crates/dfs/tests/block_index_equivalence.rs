//! Index-equivalence property for the NameNode's block map.
//!
//! The NameNode answers `under_replicated()`, `missing_blocks()` and
//! `block_census()` from indexes it maintains on every location change,
//! and keeps its block map in a representation of its own choosing. This
//! property drives it through random op sequences — namespace writes,
//! full and incremental reports with stale stamps and unknown ids,
//! deletes anywhere in the id range, lease recovery, decommission,
//! setrep, the replication monitor, restarts — and after every op checks
//! each indexed answer (including the per-node index behind
//! `decommission_stuck_blocks`) against a brute-force scan of the public
//! per-block view, and the block manifest against a test-side `BTreeMap`
//! model.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use hl_common::config::keys;
use hl_common::prelude::*;
use hl_dfs::block::{IncrementalBlockReport, ReplicaMeta};
use hl_dfs::namenode::{DnCommand, NameNode};
use hl_dfs::BlockId;

const FREE: u64 = u64::MAX / 2;

/// Ids no NameNode in this test ever hands out.
const UNKNOWN_BASE: u64 = 1 << 40;

struct File {
    path: String,
    replication: u32,
    open: bool,
}

struct Harness {
    nn: NameNode,
    nodes: u32,
    now: SimTime,
    /// Files in creation order (deletes pick the front, middle or back).
    files: Vec<File>,
    /// The block map as the test believes it: id → (len, expected).
    model: BTreeMap<BlockId, (u64, u32)>,
    /// What each DataNode really holds on disk: id → reported stamp.
    held: Vec<BTreeMap<BlockId, u64>>,
    decommissioning: BTreeSet<NodeId>,
    next_file: u64,
}

impl Harness {
    fn new(nodes: u32, checkpoint_ops: u64) -> Self {
        let mut config = Configuration::with_defaults();
        config.set(keys::DFS_BLOCK_SIZE, 1024u64);
        config.set(keys::DFS_SAFEMODE_EXTENSION_SECS, 0u64);
        config.set(keys::DFS_CHECKPOINT_OPS, checkpoint_ops);
        let mut nn = NameNode::new(&config, Topology::striped(nodes as usize, 2)).unwrap();
        for i in 0..nodes {
            nn.register_datanode(SimTime::ZERO, NodeId(i), FREE);
        }
        nn.safemode.update(SimTime::ZERO, 0, 0);
        nn.mkdirs("/p").unwrap();
        Harness {
            nn,
            nodes,
            now: SimTime(1),
            files: Vec::new(),
            model: BTreeMap::new(),
            held: vec![BTreeMap::new(); nodes as usize],
            decommissioning: BTreeSet::new(),
            next_file: 0,
        }
    }

    fn node(&self, x: u64) -> NodeId {
        NodeId(u32::try_from(x % u64::from(self.nodes)).unwrap_or(0))
    }

    fn open_file(&self, x: u64) -> Option<usize> {
        let open: Vec<usize> = (0..self.files.len()).filter(|&i| self.files[i].open).collect();
        (!open.is_empty()).then(|| open[(x as usize) % open.len()])
    }

    fn file_blocks(&self, i: usize) -> Vec<BlockId> {
        self.nn.namespace().file(&self.files[i].path).map(|f| f.blocks.clone()).unwrap_or_default()
    }

    fn gen_stamp(&self, id: BlockId) -> u64 {
        self.nn.block(id).map(|b| b.gen_stamp).unwrap_or(1)
    }

    /// A replica of `x`'s choosing that `node` holds, if any.
    fn pick_held(&self, node: NodeId, x: u64) -> Option<BlockId> {
        let held = &self.held[node.0 as usize];
        held.keys().nth((x as usize) % held.len().max(1)).copied()
    }

    fn forget_invalidated(&mut self, cmds: &[DnCommand]) {
        for cmd in cmds {
            if let DnCommand::Invalidate { block, node } = *cmd {
                self.held[node.0 as usize].remove(&block);
            }
        }
    }

    fn apply(&mut self, op: u8, x: u64) {
        self.now += SimDuration::from_secs(1);
        let now = self.now;
        match op {
            // create
            0 => {
                let path = format!("/p/f{}", self.next_file);
                self.next_file += 1;
                let replication = 1 + (x % 4) as u32;
                self.nn.create_file(now, &path, Some(replication), None, "w").unwrap();
                self.files.push(File { path, replication, open: true });
            }
            // one to four add_blocks, acked through the pipeline when x is
            // odd
            1..=6 => {
                let Some(i) = self.open_file(x) else { return };
                for b in 0..1 + (x >> 30) % 4 {
                    let len = 1 + ((x >> 8) + b) % 1024;
                    let Ok((id, targets)) = self.nn.add_block(now, &self.files[i].path, len, None)
                    else {
                        return;
                    };
                    self.model.insert(id, (len, self.files[i].replication));
                    let gs = self.gen_stamp(id);
                    for to in targets {
                        self.held[to.0 as usize].insert(id, gs);
                        if x & 1 == 1 {
                            let cmds = self.nn.block_received(now, to, id);
                            self.forget_invalidated(&cmds);
                        }
                    }
                }
            }
            // complete
            7 => {
                let Some(i) = self.open_file(x) else { return };
                self.nn.complete_file(&self.files[i].path).unwrap();
                self.files[i].open = false;
            }
            // full block report, sometimes out of order, with a stale
            // stamp, an unknown id and a repeated entry mixed in
            8 | 9 => {
                let node = self.node(x);
                let mut report: Vec<ReplicaMeta> = self.held[node.0 as usize]
                    .iter()
                    .map(|(&id, &gen_stamp)| ReplicaMeta { id, len: 1, gen_stamp })
                    .collect();
                if (x >> 8) & 1 == 1 {
                    report.reverse();
                }
                if (x >> 9) & 1 == 1 {
                    report.push(ReplicaMeta {
                        id: BlockId(UNKNOWN_BASE + x % 7),
                        len: 1,
                        gen_stamp: 1,
                    });
                }
                if let Some(id) = self.pick_held(node, x >> 10).filter(|_| (x >> 20) & 3 == 0) {
                    // The replica missed a pipeline recovery.
                    let stale = self.gen_stamp(id) - 1;
                    self.held[node.0 as usize].insert(id, stale);
                    report.iter_mut().filter(|r| r.id == id).for_each(|r| r.gen_stamp = stale);
                }
                // The same block listed twice: the later entry wins.
                if let Some(id) = self.pick_held(node, x >> 24).filter(|_| (x >> 22) & 3 != 0) {
                    let current = self.gen_stamp(id);
                    let gen_stamp = if (x >> 22) & 3 == 1 { current - 1 } else { current };
                    self.held[node.0 as usize].insert(id, gen_stamp);
                    report.push(ReplicaMeta { id, len: 1, gen_stamp });
                }
                self.nn.process_block_report(now, node, &report);
                self.check_full_report(node);
            }
            // incremental report: one replica dropped, one re-announced
            // (stale when x says so), one unknown
            10 | 11 => {
                let node = self.node(x);
                let mut delta = IncrementalBlockReport::default();
                if let Some(id) = self.pick_held(node, x >> 8) {
                    self.held[node.0 as usize].remove(&id);
                    delta.deleted.push(id);
                }
                if let Some(id) = self.pick_held(node, x >> 16) {
                    let mut gen_stamp = self.held[node.0 as usize][&id];
                    if (x >> 24) & 1 == 1 {
                        gen_stamp = self.gen_stamp(id) - 1;
                        self.held[node.0 as usize].insert(id, gen_stamp);
                    }
                    delta.received.push(ReplicaMeta { id, len: 1, gen_stamp });
                }
                delta.received.push(ReplicaMeta {
                    id: BlockId(UNKNOWN_BASE),
                    len: 1,
                    gen_stamp: 1,
                });
                self.nn.process_incremental_report(now, node, &delta);
            }
            // delete the first, middle or last surviving file
            12 => {
                if self.files.is_empty() {
                    return;
                }
                let i = match x % 3 {
                    0 => 0,
                    1 => self.files.len() / 2,
                    _ => self.files.len() - 1,
                };
                for id in self.file_blocks(i) {
                    self.model.remove(&id);
                }
                let file = self.files.remove(i);
                let cmds = self.nn.delete(&file.path, false).unwrap();
                self.forget_invalidated(&cmds);
            }
            // lease recovery: unconfirmed trailing blocks are abandoned
            13 => {
                let Some(i) = self.open_file(x) else { return };
                let before = self.file_blocks(i);
                self.nn.recover_lease(&self.files[i].path).unwrap();
                self.nn.check_leases(now);
                let after: BTreeSet<BlockId> = self.file_blocks(i).into_iter().collect();
                for id in before.into_iter().filter(|id| !after.contains(id)) {
                    self.model.remove(&id);
                }
                self.files[i].open = false;
            }
            // decommission start / cancel
            14 => {
                let node = self.node(x);
                if (x >> 8) & 1 == 0 {
                    self.nn.start_decommission(node);
                    self.decommissioning.insert(node);
                } else {
                    self.nn.cancel_decommission(node);
                    self.decommissioning.remove(&node);
                }
            }
            // setrep
            15 => {
                if self.files.is_empty() {
                    return;
                }
                let i = (x as usize) % self.files.len();
                let replication = 1 + ((x >> 8) % 4) as u32;
                self.nn.set_replication(&self.files[i].path, replication).unwrap();
                self.files[i].replication = replication;
                for id in self.file_blocks(i) {
                    if let Some(m) = self.model.get_mut(&id) {
                        m.1 = replication;
                    }
                }
            }
            // replication monitor: copies land, fail or stay in flight
            16 | 17 => {
                let work = self.nn.replication_work(now, 1 + (x % 8) as usize);
                self.forget_invalidated(&work);
                for (k, cmd) in work.into_iter().enumerate() {
                    let DnCommand::Replicate { block, to, .. } = cmd else { continue };
                    match (x >> (8 + 2 * k)) & 3 {
                        0 => self.nn.replication_failed(block),
                        1 => {}
                        _ => {
                            let gs = self.gen_stamp(block);
                            self.held[to.0 as usize].insert(block, gs);
                            let cmds = self.nn.block_received(now, to, block);
                            self.forget_invalidated(&cmds);
                        }
                    }
                }
            }
            // shutdown + restart; every DataNode re-registers and reports
            _ => {
                self.nn.shutdown();
                self.nn.restart(now).unwrap();
                for i in 0..self.nodes {
                    let node = NodeId(i);
                    self.nn.register_datanode(now, node, FREE);
                    let report: Vec<ReplicaMeta> = self.held[i as usize]
                        .iter()
                        .map(|(&id, &gen_stamp)| ReplicaMeta { id, len: 1, gen_stamp })
                        .collect();
                    self.nn.process_block_report(now, node, &report);
                }
                // The drain set is operator configuration: it survives.
                self.nn.safemode.force_leave();
            }
        }
    }

    /// Right after `node`'s full report, the NameNode places it at
    /// exactly the known blocks it reported with a current stamp.
    fn check_full_report(&self, node: NodeId) {
        let nn = &self.nn;
        let want: Vec<BlockId> = self.held[node.0 as usize]
            .iter()
            .filter(|&(&id, &gen_stamp)| nn.block(id).is_some_and(|b| gen_stamp >= b.gen_stamp))
            .map(|(&id, _)| id)
            .collect();
        let got: Vec<BlockId> = nn
            .block_manifest()
            .into_iter()
            .map(|(id, _, _)| id)
            .filter(|&id| nn.block_locations(id).contains(&node))
            .collect();
        assert_eq!(got, want, "locations after a full report from {node:?}");
    }

    /// Every indexed answer equals a brute-force scan.
    fn check(&self) {
        let nn = &self.nn;
        let manifest = nn.block_manifest();
        assert!(manifest.windows(2).all(|w| w[0].0 < w[1].0), "manifest ids strictly ascend");
        let modelled: Vec<(BlockId, u64, u32)> =
            self.model.iter().map(|(&id, &(len, want))| (id, len, want)).collect();
        assert_eq!(manifest, modelled, "manifest matches the model");
        let decom: BTreeSet<NodeId> = nn.decommissioning_nodes().into_iter().collect();
        assert_eq!(decom, self.decommissioning);

        let mut under = Vec::new();
        let mut missing = Vec::new();
        for &(id, _, want) in &manifest {
            let locations = nn.block_locations(id);
            let pending = nn.block(id).map(|b| b.pending_replicas).unwrap_or(0);
            let counted = locations.iter().filter(|n| !decom.contains(n)).count() as u32;
            if locations.is_empty() {
                missing.push(id);
            } else if counted + pending < want {
                under.push((id, counted, want));
            }
        }
        assert_eq!(nn.under_replicated(), under, "under-replicated index");
        assert_eq!(nn.missing_blocks(), missing, "missing blocks");
        assert_eq!(nn.block_census(), (manifest.len() - missing.len(), manifest.len()), "census");

        // The per-node index, seen through the one answer it serves.
        let live = nn.live_datanodes();
        for node in (0..self.nodes).map(NodeId) {
            let others = |m: &&NodeId| **m != node && !decom.contains(*m);
            let eligible = live.iter().filter(others).count() as u32;
            let stuck: Vec<BlockId> = manifest
                .iter()
                .filter(|&&(id, _, want)| {
                    let locations = nn.block_locations(id);
                    let elsewhere = locations.iter().filter(others).count() as u32;
                    locations.contains(&node) && elsewhere < want.min(eligible)
                })
                .map(|&(id, _, _)| id)
                .collect();
            assert_eq!(nn.decommission_stuck_blocks(node), stuck, "index of {node:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn indexed_answers_equal_a_scan_after_every_op(
        nodes in 3u32..7,
        checkpoint_every in 0u64..3,
        ops in proptest::collection::vec((0u8..19, any::<u64>()), 1..120),
    ) {
        let mut h = Harness::new(nodes, checkpoint_every * 5);
        h.check();
        for &(op, x) in &ops {
            h.apply(op, x);
            h.check();
        }
    }
}
