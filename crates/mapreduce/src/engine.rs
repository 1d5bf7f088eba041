//! `MrCluster`: the MRv1 execution engine over HDFS.
//!
//! The JobTracker/TaskTracker half of Figure 2. Jobs run with **real user
//! code over real bytes** while every I/O, network, and JVM-startup cost is
//! charged to the cluster's virtual clock:
//!
//! * map tasks are scheduled **locality-first** onto TaskTracker map slots
//!   (node-local > rack-local > off-rack), reading their block through the
//!   DFS client (which picks the closest replica and charges accordingly);
//! * map output flows through the [`crate::sortbuf`] spill pipeline with
//!   the job's combiner;
//! * reduces fetch their partition from every map's node (the shuffle),
//!   k-way merge, reduce, and write `part-r-NNNNN` files back to HDFS;
//! * failed attempts retry up to `max_attempts`; stragglers can be
//!   speculatively re-executed; heap-leaking jobs crash TaskTracker and
//!   DataNode daemons exactly as in the paper's Version-1 meltdown;
//! * submission is refused while the NameNode is in safe mode — the
//!   "corrupted Hadoop cluster that stopped all the new jobs".

use std::collections::{BTreeMap, BTreeSet};

use hl_cluster::failure::{DaemonHealth, DaemonKind};
use hl_cluster::network::ClusterNet;
use hl_cluster::node::{ClusterSpec, DegradeModel, HeterogeneousClusterSpec, PerfProfile};
use hl_cluster::trace::EventLog;
use hl_common::counters::{Counters, FileSystemCounter, TaskCounter};
use hl_common::keys::SortableKey;
use hl_common::prelude::*;
use hl_common::topology::Locality;
use hl_common::writable::Writable;
use hl_dfs::client::Dfs;
use hl_metrics::{MetricsRegistry, MetricsSnapshot};

use crate::api::{
    Combiner, MapContext, MapOutputSink, Mapper, ReduceContext, Reducer, SideFiles, TaskScope,
};
use crate::history::JobHistory;
use crate::job::Job;
use crate::merge::merge_groups;
use crate::report::{JobReport, TaskKind, TaskSummary};
use crate::scheduler::{
    scheduler_from_config, JobView, Scheduler, SchedulerEnv, SlotState, UniformEnv,
};
use crate::sortbuf::{MapOutput, SortBuffer, SortedRun};
use crate::speculate::{RunningTask, SpecAttempt, SpecOutcome, Speculator};
use crate::split::{compute_splits, InputSplit, LineReader};

/// One TaskTracker daemon.
#[derive(Debug, Clone)]
pub struct Tracker {
    /// Daemon health (heap-leak model inside).
    pub health: DaemonHealth,
    /// Concurrent map tasks this node runs.
    pub map_slots: usize,
    /// Concurrent reduce tasks this node runs.
    pub reduce_slots: usize,
}

// Slot bookkeeping is the scheduler's [`SlotState`]: where it is and when
// it frees up. The engine owns the vec; the scheduler only reads it.
type Slot = SlotState;

/// The cluster: DFS + network + MapReduce daemons + virtual clock.
pub struct MrCluster {
    /// The HDFS instance.
    pub dfs: Dfs,
    /// Bandwidth resources.
    pub net: ClusterNet,
    /// Hardware description.
    pub spec: ClusterSpec,
    /// Cluster configuration.
    pub config: Configuration,
    /// Virtual now (advances as jobs run).
    pub now: SimTime,
    /// Event log.
    pub log: EventLog,
    /// Distributed-cache side files (path → bytes), readable from tasks.
    pub side_files: SideFiles,
    trackers: BTreeMap<NodeId, Tracker>,
    /// JobTracker daemon health.
    pub jobtracker: DaemonHealth,
    /// Global blacklist strikes per tracker: how many *successful* jobs
    /// blacklisted it. At `mapred.max.tracker.blacklists` strikes the
    /// tracker stops receiving any tasks until an operator restart pass.
    blacklist_strikes: BTreeMap<NodeId, u32>,
    /// Failed attempts on one tracker before a job blacklists it.
    max_tracker_failures: u32,
    /// Per-job blacklistings before a tracker is blacklisted globally.
    max_tracker_blacklists: u32,
    next_job_id: u32,
    /// When false, the JobTracker assigns splits FIFO, ignoring block
    /// locations — the ablation arm of the Figure 2 locality experiment.
    pub locality_aware: bool,
    /// The JobTracker's history page (completed jobs).
    pub history: JobHistory,
    /// Jobs that failed outright this session.
    pub failed_jobs: u32,
    /// Instruments for the "jobtracker" daemon (job/task lifecycle,
    /// spill/shuffle/merge accounting, blacklist events).
    pub metrics: MetricsRegistry,
    /// The pluggable task-assignment policy (`mapred.jobtracker.scheduler`).
    scheduler: Box<dyn Scheduler>,
}

impl MrCluster {
    /// Stand up DFS + MapReduce daemons on every node of `spec`.
    pub fn new(spec: ClusterSpec, config: Configuration) -> Result<Self> {
        let dfs = Dfs::format(&config, &spec)?;
        let net = ClusterNet::new(&spec);
        let map_slots = config.get_usize(hl_common::config::keys::MAPRED_MAP_SLOTS, 8)?;
        let reduce_slots = config.get_usize(hl_common::config::keys::MAPRED_REDUCE_SLOTS, 4)?;
        let max_tracker_failures =
            config.get_u32(hl_common::config::keys::MAPRED_MAX_TRACKER_FAILURES, 4)?.max(1);
        let max_tracker_blacklists =
            config.get_u32(hl_common::config::keys::MAPRED_MAX_TRACKER_BLACKLISTS, 3)?.max(1);
        let scheduler = scheduler_from_config(&config)?;
        let trackers = spec
            .topology
            .nodes()
            .map(|n| {
                (
                    n,
                    Tracker {
                        health: DaemonHealth::new(DaemonKind::TaskTracker, n, SimTime::ZERO),
                        map_slots,
                        reduce_slots,
                    },
                )
            })
            .collect();
        Ok(MrCluster {
            dfs,
            net,
            jobtracker: DaemonHealth::new(DaemonKind::JobTracker, NodeId(0), SimTime::ZERO),
            spec,
            config,
            now: SimTime::ZERO,
            log: EventLog::new(),
            side_files: SideFiles::new(),
            trackers,
            blacklist_strikes: BTreeMap::new(),
            max_tracker_failures,
            max_tracker_blacklists,
            next_job_id: 1,
            locality_aware: true,
            history: JobHistory::default(),
            failed_jobs: 0,
            metrics: MetricsRegistry::new(),
            scheduler,
        })
    }

    /// Swap the task-assignment policy (tests/experiments; normal callers
    /// set `mapred.jobtracker.scheduler` in the config instead).
    pub fn set_scheduler(&mut self, scheduler: Box<dyn Scheduler>) {
        self.scheduler = scheduler;
    }

    /// Name of the active scheduling policy.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// The course's 8-node dedicated cluster with default config.
    pub fn course_default() -> Result<Self> {
        MrCluster::new(ClusterSpec::course_hadoop(8), Configuration::with_defaults())
    }

    /// Stand up a cluster whose nodes carry the spec's performance
    /// models: throttled-VM tiers, noisy neighbors, progressive
    /// stragglers. The models live in the network layer, so they slow
    /// CPU *and* disk *and* NIC charges — not just task durations.
    pub fn new_heterogeneous(
        spec: &HeterogeneousClusterSpec,
        config: Configuration,
    ) -> Result<Self> {
        let mut cluster = MrCluster::new(spec.base.clone(), config)?;
        for (node, model) in &spec.models {
            cluster.net.set_node_model(*node, model.clone());
        }
        Ok(cluster)
    }

    /// Mark `node` as a straggler: everything it does — CPU, local disk,
    /// NIC — runs `factor`× slower (a uniform static degrade profile).
    pub fn set_slow_node(&mut self, node: NodeId, factor: f64) {
        let bp = (f64::from(PerfProfile::NOMINAL_BP) / factor.max(1.0)).round().max(1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bp = bp as u32;
        self.net.set_node_model(node, DegradeModel::Static(PerfProfile::uniform(bp)));
    }

    /// Tracker state (tests/experiments).
    pub fn tracker(&self, node: NodeId) -> Option<&Tracker> {
        self.trackers.get(&node)
    }

    /// Mutable tracker state (fault injection tunes heap models).
    pub fn tracker_mut(&mut self, node: NodeId) -> Option<&mut Tracker> {
        self.trackers.get_mut(&node)
    }

    /// Kill one TaskTracker daemon outright (`kill -9` on the JVM): its
    /// slots leave the pool until a restart. The colocated DataNode is
    /// untouched — crash that separately via [`Dfs::crash_datanode`].
    /// Returns `false` when the tracker was already dead or unknown.
    ///
    /// [`Dfs::crash_datanode`]: hl_dfs::client::Dfs::crash_datanode
    pub fn crash_tracker(&mut self, node: NodeId) -> bool {
        match self.trackers.get_mut(&node) {
            Some(t) if t.health.alive => {
                t.health.alive = false;
                t.health.crashes += 1;
                self.metrics.incr("jobtracker", "trackers.crashed", 1);
                true
            }
            _ => false,
        }
    }

    /// Kill the JobTracker daemon; every submission fails with
    /// [`HlError::DaemonDown`] until [`MrCluster::restart_jobtracker`].
    pub fn crash_jobtracker(&mut self) {
        if self.jobtracker.alive {
            self.jobtracker.alive = false;
            self.jobtracker.crashes += 1;
            self.metrics.incr("jobtracker", "crashes", 1);
        }
    }

    /// Restart the JobTracker at the cluster's current virtual time.
    pub fn restart_jobtracker(&mut self) {
        let now = self.now;
        self.jobtracker.restart(now);
        // Gauges reset with the process; counters/histograms carry across.
        self.metrics.restart_daemon("jobtracker");
        self.metrics.incr("jobtracker", "restarts", 1);
    }

    /// Restart every dead TaskTracker (and its colocated DataNode daemon).
    /// The operator pass also wipes the global tracker blacklist: a
    /// restarted fleet starts with a clean bill of health, exactly like
    /// re-registering TaskTrackers on a real JobTracker.
    pub fn restart_dead_trackers(&mut self) {
        let now = self.now;
        let mut restarted = 0u64;
        for (node, t) in self.trackers.iter_mut() {
            if !t.health.alive {
                t.health.restart(now);
                restarted += 1;
                if let Some(dn) = self.dfs.datanode_mut(*node) {
                    dn.restart();
                }
            }
        }
        if restarted > 0 {
            self.metrics.incr("jobtracker", "trackers.restarted", restarted);
        }
        self.blacklist_strikes.clear();
    }

    /// Trackers currently blacklisted cluster-wide (enough per-job
    /// blacklistings that the JobTracker stopped scheduling on them).
    pub fn blacklisted_trackers(&self) -> Vec<NodeId> {
        self.blacklist_strikes
            .iter()
            .filter(|(_, &strikes)| strikes >= self.max_tracker_blacklists)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Global blacklist strikes recorded against `node`.
    pub fn tracker_strikes(&self, node: NodeId) -> u32 {
        self.blacklist_strikes.get(&node).copied().unwrap_or(0)
    }

    fn is_globally_blacklisted(&self, node: NodeId) -> bool {
        self.tracker_strikes(node) >= self.max_tracker_blacklists
    }

    /// Nodes with a live TaskTracker.
    pub fn live_tracker_nodes(&self) -> Vec<NodeId> {
        self.trackers.iter().filter(|(_, t)| t.health.alive).map(|(&n, _)| n).collect()
    }

    /// Register a side file for tasks to read (the distributed cache). If
    /// the path exists on DFS its real bytes are pulled; otherwise the
    /// bytes must be provided.
    pub fn register_side_file(&mut self, path: &str, bytes: Vec<u8>) {
        self.side_files.insert(path, bytes);
    }

    /// Pull a DFS file's bytes into the distributed cache (charged as one
    /// read at `now`).
    pub fn cache_from_dfs(&mut self, path: &str) -> Result<()> {
        let t = self.now;
        let data = self.dfs.read(&mut self.net, t, path, None)?;
        self.now = data.completed_at;
        self.side_files.insert(path, data.value);
        Ok(())
    }

    fn map_slots(&self) -> Vec<Slot> {
        let mut slots = Vec::new();
        for (&node, t) in &self.trackers {
            if t.health.alive && !self.is_globally_blacklisted(node) {
                for _ in 0..t.map_slots {
                    slots.push(Slot { node, free_at: self.now });
                }
            }
        }
        slots
    }

    fn reduce_slots(&self, not_before: SimTime) -> Vec<Slot> {
        let mut slots = Vec::new();
        for (&node, t) in &self.trackers {
            if t.health.alive && !self.is_globally_blacklisted(node) {
                for _ in 0..t.reduce_slots {
                    slots.push(Slot { node, free_at: not_before });
                }
            }
        }
        slots
    }

    /// Run a job to completion. Errors when submission is impossible
    /// (safe mode, dead JobTracker, bad conf, output exists) or when a
    /// task exhausts its attempts.
    pub fn run_job<M, R, C>(&mut self, job: &Job<M, R, C>) -> Result<JobReport>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        C: Combiner<K = M::KOut, V = M::VOut>,
    {
        job.conf.validate()?;
        if !self.jobtracker.alive {
            return Err(HlError::DaemonDown("jobtracker".into()));
        }
        if self.dfs.namenode.safemode.is_on() {
            let (r, e) = self.dfs.namenode.block_census();
            return Err(HlError::SafeMode(self.dfs.namenode.safemode.status(r, e)));
        }
        if self.dfs.namenode.namespace().exists(&job.conf.output_path) {
            return Err(HlError::AlreadyExists(job.conf.output_path.clone()));
        }
        let job_id = format!("job_{:04}", self.next_job_id);
        self.next_job_id += 1;
        self.metrics.incr("jobtracker", "jobs.submitted", 1);
        let submitted_at = self.now;
        self.log.log_with(submitted_at, "jobtracker", || {
            format!("{job_id} ({}) submitted", job.conf.name)
        });

        self.dfs.namenode.mkdirs(&job.conf.output_path)?;
        let splits = compute_splits(&self.dfs, &job.conf.input_paths)?;

        let result = self.run_phases(job, &job_id, submitted_at, splits);
        match result {
            Ok(report) => {
                self.now = report.finished_at;
                self.record_job_metrics(&report);
                self.history.record(&report);
                let (now, elapsed) = (self.now, report.elapsed());
                self.log.log_with(now, "jobtracker", || format!("{job_id} completed in {elapsed}"));
                Ok(report)
            }
            Err(e) => {
                // Failed jobs clean their output directory.
                self.failed_jobs += 1;
                self.metrics.incr("jobtracker", "jobs.failed", 1);
                let cmds =
                    self.dfs.namenode.delete(&job.conf.output_path, true).unwrap_or_default();
                let now = self.now;
                self.dfs.apply_commands(&mut self.net, now, &cmds);
                let now = self.now;
                self.log.log_with(now, "jobtracker", || format!("{job_id} FAILED: {e}"));
                Err(e)
            }
        }
    }

    /// Fold one completed job's report into the "jobtracker" instruments:
    /// spill/shuffle/merge byte counters from the job counters, per-kind
    /// task-duration histograms, and blacklist events.
    fn record_job_metrics(&mut self, report: &JobReport) {
        self.metrics.incr("jobtracker", "jobs.completed", 1);
        self.metrics.observe("jobtracker", "job.duration_ms", report.elapsed().as_micros() / 1000);
        self.metrics.incr(
            "jobtracker",
            "shuffle.bytes",
            report.counters.task(TaskCounter::ReduceShuffleBytes),
        );
        self.metrics.incr(
            "jobtracker",
            "spill.records",
            report.counters.task(TaskCounter::SpilledRecords),
        );
        let blacklisted = report.counters.get("Job Counters", "Trackers blacklisted");
        if blacklisted > 0 {
            self.metrics.incr("jobtracker", "blacklist.events", blacklisted);
        }
        for t in &report.tasks {
            let ms = t.duration().as_micros() / 1000;
            match t.kind {
                TaskKind::Map => self.metrics.observe("jobtracker", "map.duration_ms", ms),
                TaskKind::Reduce => self.metrics.observe("jobtracker", "reduce.duration_ms", ms),
            }
        }
    }

    /// One cluster-wide metrics snapshot at the engine's virtual `now`:
    /// DFS (NameNode + client + DataNodes) merged with the JobTracker's
    /// instruments and the network's per-link export.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        let at = self.now;
        self.net.export_metrics(at, &mut self.metrics);
        let live = i64::try_from(self.live_tracker_nodes().len()).unwrap_or(i64::MAX);
        let black = i64::try_from(self.blacklisted_trackers().len()).unwrap_or(i64::MAX);
        self.metrics.set_gauge("jobtracker", "trackers.live", live);
        self.metrics.set_gauge("jobtracker", "trackers.blacklisted", black);
        self.metrics.set_gauge("jobtracker", "up", i64::from(self.jobtracker.alive));
        let mut snap = self.dfs.metrics_snapshot(at);
        snap.merge(&self.metrics.snapshot(at));
        snap
    }

    fn run_phases<M, R, C>(
        &mut self,
        job: &Job<M, R, C>,
        job_id: &str,
        submitted_at: SimTime,
        splits: Vec<InputSplit>,
    ) -> Result<JobReport>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        C: Combiner<K = M::KOut, V = M::VOut>,
    {
        let mut counters = Counters::new();
        let mut tasks: Vec<TaskSummary> = Vec::new();
        let mut peak_buffer = 0usize;
        // Per-job tracker blacklist: a tracker that eats too many failed
        // attempts stops receiving this job's tasks. Each *successful* job
        // that blacklisted a tracker adds a global strike; enough strikes
        // and the JobTracker stops scheduling on it entirely.
        let mut job_failures: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut job_blacklist: Vec<NodeId> = Vec::new();

        // ------------------------------------------------------ map phase
        let mut slots = self.map_slots();
        if slots.is_empty() {
            return Err(HlError::DaemonDown("no live tasktrackers".into()));
        }
        let mut pending: Vec<u32> = (0..splits.len() as u32).collect();
        let mut outputs: Vec<Option<(NodeId, MapOutput, SimTime)>> = vec![None; splits.len()];
        // The policy sees splits only through their locality distance.
        let topo = self.net.topology().clone();
        let env = MapSchedEnv { topo: &topo, splits: &splits, locality_aware: self.locality_aware };

        while !pending.is_empty() {
            if slots.is_empty() {
                return Err(HlError::JobFailed(format!(
                    "{job_id}: every tasktracker died mid-job"
                )));
            }
            // One heartbeat round: the policy matches the earliest-free
            // slot with a task from the runnable job set (here: this job).
            let view = JobView {
                user: &job.conf.user,
                pool: &job.conf.pool,
                priority: job.conf.priority,
                submitted_at,
                pending: &pending,
                running: &[],
            };
            let decision = self.scheduler.next_assignment(submitted_at, &slots, &[view], &env);
            let assignment = match decision {
                Some(a) if a.job == 0 && a.slot < slots.len() && pending.contains(&a.task) => a,
                Some(_) => {
                    self.metrics.incr("jobtracker", "sched.invalid", 1);
                    return Err(HlError::JobFailed(format!(
                        "{job_id}: scheduler {} returned an invalid map assignment",
                        self.scheduler.name()
                    )));
                }
                None => {
                    self.metrics.incr("jobtracker", "sched.invalid", 1);
                    return Err(HlError::JobFailed(format!(
                        "{job_id}: scheduler {} stalled with {} pending map task(s)",
                        self.scheduler.name(),
                        pending.len()
                    )));
                }
            };
            self.metrics.incr("jobtracker", "sched.decisions", 1);
            let si = assignment.slot;
            let split_idx = assignment.task as usize;
            if let Some(pi) = pending.iter().position(|&t| t == assignment.task) {
                pending.swap_remove(pi);
            }
            let split = splits[split_idx].clone();

            let mut attempts = 0u32;
            let mut cur = si;
            loop {
                attempts += 1;
                let node = slots[cur].node;
                let start = slots[cur].free_at;
                match self.exec_map_attempt(job, &split, node, start, attempts) {
                    Ok(MapAttempt { output, end, locality, counters: task_counters, peak }) => {
                        counters.merge(&task_counters);
                        peak_buffer = peak_buffer.max(peak);
                        counters.incr("Job Counters", locality_counter(locality), 1);
                        tasks.push(TaskSummary {
                            id: split_idx as u32,
                            kind: TaskKind::Map,
                            node,
                            start,
                            end,
                            attempts,
                            locality: Some(locality),
                            speculative: false,
                        });
                        slots[cur].free_at = end;
                        outputs[split_idx] = Some((node, output, end));
                        break;
                    }
                    Err(e) => {
                        self.log.log_with(start, "jobtracker", || {
                            format!(
                                "{job_id} m_{split_idx:05} attempt {attempts} failed on {node}: {e}"
                            )
                        });
                        if attempts >= job.conf.max_attempts {
                            return Err(HlError::JobFailed(format!(
                                "{job_id}: task m_{split_idx:05} failed {attempts} attempts: {e}"
                            )));
                        }
                        // The failed attempt still burned startup + a bit.
                        let burn = job.conf.task_startup + SimDuration::from_secs(10);
                        slots[cur].free_at += burn;
                        // A crashed tracker takes its slots out of the pool;
                        // the retry migrates to the earliest remaining slot.
                        if !self.trackers[&node].health.alive {
                            slots.retain(|s| s.node != node);
                        }
                        // Blacklist the tracker for this job once it eats
                        // too many failed attempts (crashed or not).
                        let strikes = job_failures.entry(node).or_insert(0);
                        *strikes += 1;
                        if *strikes >= self.max_tracker_failures && !job_blacklist.contains(&node) {
                            job_blacklist.push(node);
                            counters.incr("Job Counters", "Trackers blacklisted", 1);
                            let n = *strikes;
                            self.log.log_with(start, "jobtracker", || {
                                format!(
                                    "{job_id} blacklisted tracker on {node} after {n} failed attempt(s)"
                                )
                            });
                            slots.retain(|s| s.node != node);
                        }
                        if slots.is_empty() {
                            return Err(HlError::JobFailed(format!(
                                "{job_id}: every tasktracker died mid-job"
                            )));
                        }
                        cur = (0..slots.len())
                            .min_by_key(|&i| (slots[i].free_at, slots[i].node.0))
                            .unwrap_or(0); // non-empty: checked just above
                    }
                }
            }
        }

        // -------------------------------------- speculative execution: maps
        //
        // The Speculator replays the JobTracker's heartbeat view: each time
        // a slot frees up, the tasks whose commits lie beyond that instant
        // are "still running", and their heartbeat-quantized progress rates
        // estimate a finish time. Proposals are validated exactly like
        // scheduler assignments — a bad one increments `spec.invalid` and
        // is refused (it never corrupts the job) — then raced for real,
        // with the loser's burned time charged to `spec.wasted_us`.
        let speculator = Speculator::from_conf(&job.conf);
        let mut spec_attempts: Vec<SpecAttempt> = Vec::new();
        if job.conf.speculative {
            // Primary attempt (node, start, end) per map task.
            let mut primaries: Vec<Option<(NodeId, SimTime, SimTime)>> = vec![None; splits.len()];
            for t in tasks.iter().filter(|t| t.kind == TaskKind::Map) {
                if let Some(p) = primaries.get_mut(t.id as usize) {
                    *p = Some((t.node, t.start, t.end));
                }
            }
            let cap = speculator.cap(splits.len());
            let mut speculated: BTreeSet<u32> = BTreeSet::new();
            // Visit slots in the order they free up (ties by node id) —
            // the late-binding part: the earliest idle slot gets first
            // pick of the stragglers.
            let mut order: Vec<usize> = (0..slots.len()).collect();
            order.sort_by_key(|&i| (slots[i].free_at, slots[i].node.0));
            for si in order {
                if speculated.len() >= cap {
                    break;
                }
                let node = slots[si].node;
                let now = slots[si].free_at;
                if !self.trackers.get(&node).is_some_and(|t| t.health.alive) {
                    continue;
                }
                let mut completed: Vec<u64> = primaries
                    .iter()
                    .flatten()
                    .filter(|(_, _, end)| *end <= now)
                    .map(|(_, start, end)| end.since(*start).0)
                    .collect();
                let running: Vec<RunningTask> = primaries
                    .iter()
                    .enumerate()
                    .filter_map(|(id, p)| p.map(|(n, s, e)| (id, n, s, e)))
                    .filter(|&(_, _, _, end)| end > now)
                    .map(|(id, n, s, e)| RunningTask {
                        task: u32::try_from(id).unwrap_or(u32::MAX),
                        node: n,
                        start: s,
                        progress_bp: speculator.observed_progress(s, e, now).unwrap_or(0),
                    })
                    .collect();
                let Some(task) =
                    speculator.propose(now, node, &mut completed, &running, &speculated)
                else {
                    continue;
                };
                // Validate the proposal like a scheduler decision before
                // acting on it: the task must still be running here and
                // now, on a different node, un-speculated.
                let valid = primaries.get(task as usize).copied().flatten().is_some_and(
                    |(p_node, _, p_end)| {
                        p_end > now && p_node != node && !speculated.contains(&task)
                    },
                );
                if !valid {
                    self.metrics.incr("jobtracker", "spec.invalid", 1);
                    continue;
                }
                // Checked valid just above, so the primary exists.
                let Some((p_node, p_start, p_end)) = primaries[task as usize] else {
                    continue;
                };
                speculated.insert(task);
                self.metrics.incr("jobtracker", "spec.launched", 1);
                match self.exec_map_attempt(job, &splits[task as usize], node, now, 1) {
                    Ok(attempt) if attempt.end < p_end => {
                        // The racer wins: kill the primary at this instant.
                        // Its whole runtime was wasted work, but its slot
                        // frees early — that's the makespan speculation buys.
                        self.metrics.incr("jobtracker", "spec.won", 1);
                        self.metrics.incr(
                            "jobtracker",
                            "spec.wasted_us",
                            attempt.end.since(p_start).0,
                        );
                        counters.incr("Job Counters", "Speculative map attempts won", 1);
                        if let Some(ps) =
                            slots.iter_mut().find(|s| s.node == p_node && s.free_at == p_end)
                        {
                            ps.free_at = attempt.end;
                        }
                        slots[si].free_at = attempt.end;
                        outputs[task as usize] = Some((node, attempt.output, attempt.end));
                        if let Some(summary) =
                            tasks.iter_mut().find(|t| t.kind == TaskKind::Map && t.id == task)
                        {
                            summary.node = node;
                            summary.start = now;
                            summary.end = attempt.end;
                            summary.speculative = true;
                        }
                        primaries[task as usize] = Some((node, now, attempt.end));
                        spec_attempts.push(SpecAttempt {
                            task,
                            reduce: false,
                            node: node.0,
                            start: now,
                            end: attempt.end,
                            outcome: SpecOutcome::Won,
                        });
                    }
                    Ok(_) => {
                        // The primary committed first: the racer is killed
                        // at that commit and everything it ran is waste.
                        self.metrics.incr("jobtracker", "spec.killed", 1);
                        self.metrics.incr("jobtracker", "spec.wasted_us", p_end.since(now).0);
                        slots[si].free_at = p_end;
                        spec_attempts.push(SpecAttempt {
                            task,
                            reduce: false,
                            node: node.0,
                            start: now,
                            end: p_end,
                            outcome: SpecOutcome::Killed,
                        });
                    }
                    Err(_) => {
                        // The racer died on its own (injected failure, OOM):
                        // no race to settle, just the burned startup.
                        let burn = job.conf.task_startup + SimDuration::from_secs(10);
                        self.metrics.incr("jobtracker", "spec.lost", 1);
                        self.metrics.incr("jobtracker", "spec.wasted_us", burn.0);
                        slots[si].free_at = now + burn;
                        spec_attempts.push(SpecAttempt {
                            task,
                            reduce: false,
                            node: node.0,
                            start: now,
                            end: now + burn,
                            outcome: SpecOutcome::Lost,
                        });
                    }
                }
            }
        }

        let maps_done =
            outputs.iter().flatten().map(|(_, _, end)| *end).max().unwrap_or(submitted_at);

        // --------------------------------------------------- reduce phase
        let num_reduces = job.conf.num_reduces;
        let mut reduce_slots = self.reduce_slots(maps_done);
        if reduce_slots.is_empty() {
            return Err(HlError::JobFailed(format!("{job_id}: no live tasktrackers for reduce")));
        }
        let mut output_files = Vec::new();
        let mut finished_at = maps_done;
        // Primary attempt (node, start, commit end, compute end) per reduce.
        let mut reduce_prim: Vec<Option<(NodeId, SimTime, SimTime, SimTime)>> =
            vec![None; num_reduces];

        let mut pending_reduces: Vec<u32> = (0..num_reduces as u32).collect();
        while !pending_reduces.is_empty() {
            // Reduces are locality-blind (their input is everywhere); the
            // policy still picks the slot and the next task.
            let view = JobView {
                user: &job.conf.user,
                pool: &job.conf.pool,
                priority: job.conf.priority,
                submitted_at,
                pending: &pending_reduces,
                running: &[],
            };
            let decision =
                self.scheduler.next_assignment(maps_done, &reduce_slots, &[view], &UniformEnv);
            let assignment = match decision {
                Some(a)
                    if a.job == 0
                        && a.slot < reduce_slots.len()
                        && pending_reduces.contains(&a.task) =>
                {
                    a
                }
                Some(_) => {
                    self.metrics.incr("jobtracker", "sched.invalid", 1);
                    return Err(HlError::JobFailed(format!(
                        "{job_id}: scheduler {} returned an invalid reduce assignment",
                        self.scheduler.name()
                    )));
                }
                None => {
                    self.metrics.incr("jobtracker", "sched.invalid", 1);
                    return Err(HlError::JobFailed(format!(
                        "{job_id}: scheduler {} stalled with {} pending reduce task(s)",
                        self.scheduler.name(),
                        pending_reduces.len()
                    )));
                }
            };
            self.metrics.incr("jobtracker", "sched.decisions", 1);
            let r = assignment.task as usize;
            if let Some(pi) = pending_reduces.iter().position(|&t| t == assignment.task) {
                pending_reduces.swap_remove(pi);
            }
            let mut si = assignment.slot;
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                let node = reduce_slots[si].node;
                let start = reduce_slots[si].free_at;
                match self.exec_reduce_attempt(job, &outputs, r, node, start, true) {
                    Ok(ReduceAttempt { end, compute_end, counters: task_counters, out_path }) => {
                        counters.merge(&task_counters);
                        tasks.push(TaskSummary {
                            id: r as u32,
                            kind: TaskKind::Reduce,
                            node,
                            start,
                            end,
                            attempts,
                            locality: None,
                            speculative: false,
                        });
                        reduce_slots[si].free_at = end;
                        finished_at = finished_at.max(end);
                        reduce_prim[r] = Some((node, start, end, compute_end));
                        if let Some(p) = out_path {
                            output_files.push(p);
                        }
                        break;
                    }
                    Err(e) => {
                        if attempts >= job.conf.max_attempts {
                            return Err(HlError::JobFailed(format!(
                                "{job_id}: task r_{r:05} failed {attempts} attempts: {e}"
                            )));
                        }
                        reduce_slots[si].free_at += job.conf.task_startup;
                        // A crashed tracker takes its slots out of the pool;
                        // the retry migrates to the earliest remaining slot.
                        if !self.trackers[&node].health.alive {
                            reduce_slots.retain(|s| s.node != node);
                        }
                        let strikes = job_failures.entry(node).or_insert(0);
                        *strikes += 1;
                        if *strikes >= self.max_tracker_failures && !job_blacklist.contains(&node) {
                            job_blacklist.push(node);
                            counters.incr("Job Counters", "Trackers blacklisted", 1);
                            let n = *strikes;
                            self.log.log_with(start, "jobtracker", || {
                                format!(
                                    "{job_id} blacklisted tracker on {node} after {n} failed attempt(s)"
                                )
                            });
                            reduce_slots.retain(|s| s.node != node);
                        }
                        if reduce_slots.is_empty() {
                            return Err(HlError::JobFailed(format!(
                                "{job_id}: every tasktracker died mid-job"
                            )));
                        }
                        si = (0..reduce_slots.len())
                            .min_by_key(|&i| (reduce_slots[i].free_at, reduce_slots[i].node.0))
                            .unwrap_or(0); // non-empty: checked just above
                    }
                }
            }
        }

        // ----------------------------------- speculative execution: reduces
        //
        // Same estimator, one twist: the racer never commits (the primary
        // owns `part-r-NNNNN`; the racer's bytes are identical), so its
        // race position is its compute finish plus the primary's observed
        // commit-write cost.
        if job.conf.speculative && job.conf.speculative_reduces {
            let cap = speculator.cap(num_reduces.max(1));
            let mut speculated: BTreeSet<u32> = BTreeSet::new();
            let mut order: Vec<usize> = (0..reduce_slots.len()).collect();
            order.sort_by_key(|&i| (reduce_slots[i].free_at, reduce_slots[i].node.0));
            for si in order {
                if speculated.len() >= cap {
                    break;
                }
                let node = reduce_slots[si].node;
                let now = reduce_slots[si].free_at;
                if !self.trackers.get(&node).is_some_and(|t| t.health.alive) {
                    continue;
                }
                let mut completed: Vec<u64> = reduce_prim
                    .iter()
                    .flatten()
                    .filter(|(_, _, end, _)| *end <= now)
                    .map(|(_, start, end, _)| end.since(*start).0)
                    .collect();
                let running: Vec<RunningTask> = reduce_prim
                    .iter()
                    .enumerate()
                    .filter_map(|(id, p)| p.map(|(n, s, e, _)| (id, n, s, e)))
                    .filter(|&(_, _, _, end)| end > now)
                    .map(|(id, n, s, e)| RunningTask {
                        task: u32::try_from(id).unwrap_or(u32::MAX),
                        node: n,
                        start: s,
                        progress_bp: speculator.observed_progress(s, e, now).unwrap_or(0),
                    })
                    .collect();
                let Some(task) =
                    speculator.propose(now, node, &mut completed, &running, &speculated)
                else {
                    continue;
                };
                let valid = reduce_prim.get(task as usize).copied().flatten().is_some_and(
                    |(p_node, _, p_end, _)| {
                        p_end > now && p_node != node && !speculated.contains(&task)
                    },
                );
                if !valid {
                    self.metrics.incr("jobtracker", "spec.invalid", 1);
                    continue;
                }
                // Checked valid just above, so the primary exists.
                let Some((p_node, p_start, p_end, p_compute)) = reduce_prim[task as usize] else {
                    continue;
                };
                speculated.insert(task);
                self.metrics.incr("jobtracker", "spec.launched", 1);
                match self.exec_reduce_attempt(job, &outputs, task as usize, node, now, false) {
                    Ok(attempt) => {
                        let commit_cost = p_end.since(p_compute);
                        let spec_end = attempt.compute_end + commit_cost;
                        if spec_end < p_end {
                            self.metrics.incr("jobtracker", "spec.won", 1);
                            self.metrics.incr(
                                "jobtracker",
                                "spec.wasted_us",
                                spec_end.since(p_start).0,
                            );
                            counters.incr("Job Counters", "Speculative reduce attempts won", 1);
                            if let Some(ps) = reduce_slots
                                .iter_mut()
                                .find(|s| s.node == p_node && s.free_at == p_end)
                            {
                                ps.free_at = spec_end;
                            }
                            reduce_slots[si].free_at = spec_end;
                            if let Some(summary) = tasks
                                .iter_mut()
                                .find(|t| t.kind == TaskKind::Reduce && t.id == task)
                            {
                                summary.node = node;
                                summary.start = now;
                                summary.end = spec_end;
                                summary.speculative = true;
                            }
                            reduce_prim[task as usize] =
                                Some((node, now, spec_end, attempt.compute_end));
                            spec_attempts.push(SpecAttempt {
                                task,
                                reduce: true,
                                node: node.0,
                                start: now,
                                end: spec_end,
                                outcome: SpecOutcome::Won,
                            });
                        } else {
                            self.metrics.incr("jobtracker", "spec.killed", 1);
                            self.metrics.incr("jobtracker", "spec.wasted_us", p_end.since(now).0);
                            reduce_slots[si].free_at = p_end;
                            spec_attempts.push(SpecAttempt {
                                task,
                                reduce: true,
                                node: node.0,
                                start: now,
                                end: p_end,
                                outcome: SpecOutcome::Killed,
                            });
                        }
                    }
                    Err(_) => {
                        let burn = job.conf.task_startup;
                        self.metrics.incr("jobtracker", "spec.lost", 1);
                        self.metrics.incr("jobtracker", "spec.wasted_us", burn.0);
                        reduce_slots[si].free_at = now + burn;
                        spec_attempts.push(SpecAttempt {
                            task,
                            reduce: true,
                            node: node.0,
                            start: now,
                            end: now + burn,
                            outcome: SpecOutcome::Lost,
                        });
                    }
                }
            }
            // Wins pull reduce commits earlier; re-derive the job's finish.
            finished_at = tasks
                .iter()
                .filter(|t| t.kind == TaskKind::Reduce)
                .map(|t| t.end)
                .max()
                .unwrap_or(maps_done);
        }

        // Only *successful* jobs convert their per-job blacklistings into
        // global strikes (a failing job is as likely the job's fault as
        // the tracker's — Hadoop 1.x drew the same line).
        for &node in &job_blacklist {
            let strikes = self.blacklist_strikes.entry(node).or_insert(0);
            *strikes += 1;
            if *strikes == self.max_tracker_blacklists {
                let (n, at) = (*strikes, finished_at);
                self.log.log_with(at, "jobtracker", || {
                    format!("tracker on {node} blacklisted cluster-wide after {n} strike(s)")
                });
            }
        }

        Ok(JobReport {
            job_id: job_id.to_string(),
            name: job.conf.name.clone(),
            submitted_at,
            finished_at,
            success: true,
            counters,
            tasks,
            output_files,
            blacklisted_trackers: job_blacklist,
            peak_mapper_buffer: peak_buffer,
            spec_attempts,
        })
    }

    fn exec_map_attempt<M, R, C>(
        &mut self,
        job: &Job<M, R, C>,
        split: &InputSplit,
        node: NodeId,
        start: SimTime,
        attempt: u32,
    ) -> Result<MapAttempt>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        C: Combiner<K = M::KOut, V = M::VOut>,
    {
        if job.conf.fail_first_attempts >= attempt {
            return Err(HlError::TaskFailed(format!(
                "injected failure (attempt {attempt} of task on {node})"
            )));
        }
        // The node's degrade profile, sampled when the attempt starts:
        // CPU-bound charges scale here; disk and NIC charges scale inside
        // the network layer at their own charge instants.
        let profile = self.net.node_profile(node, start);
        let mut t = start + PerfProfile::scale_dur(job.conf.task_startup, profile.cpu_mult);

        // Read the split's block through the DFS client (charged, verified,
        // locality-aware).
        let read = self.dfs.read_block(&mut self.net, t, split.block, Some(node), &split.path)?;
        let block_bytes = read.value;
        t = read.completed_at;
        let locality =
            self.net.topology().best_locality(node, &split.holders).unwrap_or(Locality::OffRack);

        // Compressed input: each block holds whole hl-codec frames (the
        // writer cuts blocks on frame boundaries), so this split decodes
        // independently of its neighbors. The disk and NIC moved only the
        // stored bytes; inflating them is a CPU charge on this node.
        let input_codec = self.dfs.file_codec(&split.path)?;
        let mut data = if input_codec == hl_codec::CodecId::Null {
            block_bytes.to_vec()
        } else {
            let raw = hl_codec::decompress_container(&block_bytes)?;
            t += PerfProfile::scale_dur(
                SimDuration::for_transfer(raw.len() as u64, hl_codec::DECOMPRESS_BYTES_PER_SEC),
                profile.cpu_mult,
            );
            raw
        };
        // The split's logical extent: decoded length for compressed input,
        // the stored block length otherwise.
        let logical_len = data.len() as u64;

        // Stitch the boundary line: previous block's last byte decides
        // whether our first partial line is ours; following block(s) finish
        // our last line.
        let file_blocks = self.dfs.file_blocks(&split.path)?;
        let my_pos = file_blocks
            .iter()
            .position(|(b, _, _)| *b == split.block)
            .ok_or_else(|| HlError::Internal("split block vanished".into()))?;
        // Peek is free but refuses checksum-failing replicas; when every
        // clean replica is gone, fall back to the charged, verified read
        // path, which quarantines the rot and errors honestly (a silent
        // break here would truncate the boundary line and corrupt output).
        let prev_byte = if my_pos == 0 {
            None
        } else {
            let prev = file_blocks[my_pos - 1].0;
            let stored = match self.dfs.peek_block_bytes(prev) {
                Some(b) => b,
                None => {
                    let got =
                        self.dfs.read_block(&mut self.net, t, prev, Some(node), &split.path)?;
                    t = got.completed_at;
                    got.value
                }
            };
            if input_codec == hl_codec::CodecId::Null {
                stored.last().copied()
            } else {
                last_decoded_byte(&stored)?
            }
        };
        // Only the bytes through the first newline past the split are
        // read; compressed blocks decode frame by frame up to it. The
        // stitch decode is free, like the peek.
        let mut next = my_pos + 1;
        let mut tail_done = false;
        while !tail_done && next < file_blocks.len() {
            let stored = match self.dfs.peek_block_bytes(file_blocks[next].0) {
                Some(b) => b,
                None => {
                    let got = self.dfs.read_block(
                        &mut self.net,
                        t,
                        file_blocks[next].0,
                        Some(node),
                        &split.path,
                    )?;
                    t = got.completed_at;
                    got.value
                }
            };
            tail_done = if input_codec == hl_codec::CodecId::Null {
                append_through_newline(&mut data, &stored)
            } else {
                append_frames_through_newline(&mut data, &stored)?
            };
            next += 1;
        }

        // Run the mapper for real.
        let mut scope = TaskScope::new(self.side_files.clone(), self.spec.node.disk_bw);
        // Register always-reported counters up front so the job report
        // shows the group even for empty map output.
        let mut sink_counters = Counters::new();
        sink_counters.touch_task(TaskCounter::MapOutputBytes);
        let mut sink: SpillSink<M::KOut, M::VOut, C> = SpillSink {
            buf: SortBuffer::new(job.conf.num_reduces, job.conf.sort_buffer_bytes)
                .with_partitioner(job.partitioner.clone()),
            combiner: job.combiner.as_ref().map(|f| f()),
            counters: sink_counters,
        };
        let mut mapper = (job.mapper)();
        let mut records = 0u64;
        {
            let mut ctx = MapContext::new(&mut scope, &mut sink);
            mapper.setup(&mut ctx);
            for (off, line) in LineReader::new(prev_byte, &data, logical_len as usize, split.offset)
            {
                records += 1;
                mapper.map(off, &line, &mut ctx);
            }
            mapper.cleanup(&mut ctx);
        }
        let peak = sink.buf.peak_buffered;
        let mut task_counters = sink.counters;
        let mut output = {
            let mut combiner = sink.combiner;
            sink.buf.finish(combiner.as_mut(), &mut task_counters)
        };
        task_counters.merge(&scope.counters);
        task_counters.incr_task(TaskCounter::MapInputRecords, records);
        task_counters.incr_task(TaskCounter::MapOutputBytes, output.total_bytes());
        task_counters.incr_fs(FileSystemCounter::HdfsBytesRead, split.len);
        if locality != Locality::NodeLocal {
            task_counters.incr_fs(FileSystemCounter::RemoteBytesRead, split.len);
        }

        // Map-output compression: pack each partition's run into hl-codec
        // frames. The sorted records themselves are untouched — job output
        // stays byte-identical — but the spill-disk and shuffle-wire
        // charges shrink to the framed sizes, paid for with compress CPU
        // here and decompress CPU at each reducer.
        if job.conf.compress_map_output {
            let raw = output.total_bytes();
            let mut wire = Vec::with_capacity(output.partitions.len());
            let mut packed_total = 0u64;
            for run in &output.partitions {
                let packed = framed_len(job.conf.map_output_codec, run);
                packed_total += packed;
                wire.push(packed);
            }
            t += PerfProfile::scale_dur(
                SimDuration::for_transfer(raw, hl_codec::COMPRESS_BYTES_PER_SEC),
                profile.cpu_mult,
            );
            // Spills hit the disk already framed; charge the credit
            // at the whole-output compression ratio (no-op on empty output).
            let scale =
                |bytes: u64| bytes.saturating_mul(packed_total).checked_div(raw).unwrap_or(bytes);
            output.spill_bytes_written = scale(output.spill_bytes_written);
            output.spill_bytes_read = scale(output.spill_bytes_read);
            if let Some(q) = packed_total.saturating_mul(10_000).checked_div(raw) {
                let bp = i64::try_from(q).unwrap_or(i64::MAX);
                self.metrics.set_gauge("jobtracker", "codec.ratio", bp);
            }
            output.wire_bytes = Some(wire);
            self.metrics.incr("jobtracker", "codec.in_bytes", raw);
            self.metrics.incr("jobtracker", "codec.out_bytes", packed_total);
        }

        // CPU + spill I/O charges (combiner invocations cost map-side CPU —
        // the "increased map task run time" students observed).
        let combine_in = task_counters.task(TaskCounter::CombineInputRecords);
        let cpu = PerfProfile::scale_dur(
            job.conf.map_cpu_per_byte * logical_len
                + job.conf.map_cpu_per_record * records
                + job.conf.combine_cpu_per_record * combine_in
                + scope.extra_time,
            profile.cpu_mult,
        );
        t += cpu;
        // Spill I/O adds latency to this task but is deliberately NOT a
        // shared-pipe charge: the engine executes tasks eagerly in
        // assignment order, so a pipe charge here would make *later-
        // executed but concurrently-running* tasks' reads queue behind it
        // (a charge-ordering artifact, not a modeled phenomenon).
        let disk_bw = PerfProfile::scale_bw(self.spec.node.disk_bw, profile.disk_mult).max(1);
        if output.spill_bytes_written > 0 {
            t += SimDuration::for_transfer(output.spill_bytes_written, disk_bw);
            task_counters.incr_fs(FileSystemCounter::FileBytesWritten, output.spill_bytes_written);
        }
        if output.spill_bytes_read > 0 {
            t += SimDuration::for_transfer(output.spill_bytes_read, disk_bw);
            task_counters.incr_fs(FileSystemCounter::FileBytesRead, output.spill_bytes_read);
        }
        if output.num_spills > 0 {
            self.metrics.incr("jobtracker", "spill.count", u64::from(output.num_spills));
            self.metrics.incr("jobtracker", "spill.bytes", output.spill_bytes_written);
        }
        if output.num_spills > 1 {
            // Multiple spill runs force an on-disk merge pass at map end.
            self.metrics.incr("jobtracker", "merge.passes", 1);
            self.metrics.incr("jobtracker", "merge.bytes", output.spill_bytes_read);
        }

        // The paper's heap-leak mechanism: a buggy task can OOM the
        // TaskTracker, which takes the colocated DataNode with it.
        let Some(tracker) = self.trackers.get_mut(&node) else {
            return Err(HlError::DaemonDown(format!("no tasktracker registered on {node}")));
        };
        if tracker.health.host_task(job.conf.leaks_memory) {
            self.dfs.crash_datanode(node);
            self.log.log(
                t,
                &format!("tasktracker/{node}"),
                "java.lang.OutOfMemoryError: Java heap space — daemon exiting",
            );
            return Err(HlError::TaskFailed(format!("tasktracker on {node} crashed (OOM)")));
        }

        if std::env::var("MR_DEBUG_TASKS").is_ok() {
            eprintln!(
                "task on {node}: start={start} read_end={} cpu={cpu} spill_w={} spill_r={} end={t}",
                read.completed_at, output.spill_bytes_written, output.spill_bytes_read
            );
        }
        Ok(MapAttempt { output, end: t, locality, counters: task_counters, peak })
    }

    fn exec_reduce_attempt<M, R, C>(
        &mut self,
        job: &Job<M, R, C>,
        outputs: &[Option<(NodeId, MapOutput, SimTime)>],
        r: usize,
        node: NodeId,
        start: SimTime,
        commit: bool,
    ) -> Result<ReduceAttempt>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        C: Combiner<K = M::KOut, V = M::VOut>,
    {
        let profile = self.net.node_profile(node, start);
        let t0 = start + PerfProfile::scale_dur(job.conf.task_startup, profile.cpu_mult);
        let mut task_counters = Counters::new();

        // Shuffle: fetch this reduce's partition from every map's node.
        // Fetches run concurrently (each charges its own source pipes).
        let mut runs = Vec::new();
        let mut shuffle_done = t0;
        // Decoded at the reducer before the merge when the map side
        // compressed its output (raw bytes, for the decompress charge).
        let mut inflate_bytes = 0u64;
        for (map_node, out, _) in outputs.iter().flatten() {
            // Compressed map output crosses the wire framed; the counter
            // records what actually moved, which is the combiner-style
            // "fewer shuffle bytes" trade students measure.
            let bytes = out.wire_partition_bytes(r);
            // O(1): runs are Arc-backed, so this bumps two refcounts and
            // copies no record bytes. Do NOT mem::take the partition out of
            // the map output — a failed attempt is retried against the same
            // `outputs` slice, which must still hold the data.
            let run = out.partitions[r].clone();
            if bytes > 0 && *map_node != node {
                let c = self.net.transfer(t0, *map_node, node, bytes);
                shuffle_done = shuffle_done.max(c.end);
            }
            if out.wire_bytes.is_some() {
                inflate_bytes += out.partition_bytes(r);
            }
            task_counters.incr_task(TaskCounter::ReduceShuffleBytes, bytes);
            runs.push(run);
        }
        if inflate_bytes > 0 {
            shuffle_done += PerfProfile::scale_dur(
                SimDuration::for_transfer(inflate_bytes, hl_codec::DECOMPRESS_BYTES_PER_SEC),
                profile.cpu_mult,
            );
        }

        // Merge + group (streaming — groups materialize one at a time) and
        // reduce for real.
        let mut scope = TaskScope::new(self.side_files.clone(), self.spec.node.disk_bw);
        let mut lines = Vec::new();
        let mut reducer = (job.reducer)();
        let mut records = 0u64;
        let mut num_groups = 0u64;
        {
            let mut ctx = ReduceContext::new(&mut scope, &mut lines);
            reducer.setup(&mut ctx);
            for (kbytes, vbytes_list) in merge_groups(&runs) {
                num_groups += 1;
                let mut ks = kbytes;
                let key = M::KOut::decode_ordered(&mut ks)
                    .map_err(|e| HlError::Codec(format!("reduce key: {e}")))?;
                let values: Result<Vec<M::VOut>> =
                    vbytes_list.iter().map(|b| M::VOut::from_bytes(b)).collect();
                let values = values?;
                records += values.len() as u64;
                reducer.reduce(key, values, &mut ctx);
            }
            reducer.cleanup(&mut ctx);
        }
        task_counters.incr_task(TaskCounter::ReduceInputGroups, num_groups);
        task_counters.merge(&scope.counters);
        task_counters.incr_task(TaskCounter::ReduceInputRecords, records);

        let cpu = PerfProfile::scale_dur(
            job.conf.reduce_cpu_per_record * records + scope.extra_time,
            profile.cpu_mult,
        );
        let mut t = shuffle_done + cpu;

        // Heap hook for reduces too.
        let Some(tracker) = self.trackers.get_mut(&node) else {
            return Err(HlError::DaemonDown(format!("no tasktracker registered on {node}")));
        };
        if tracker.health.host_task(job.conf.leaks_memory) {
            self.dfs.crash_datanode(node);
            self.log.log(
                t,
                &format!("tasktracker/{node}"),
                "java.lang.OutOfMemoryError: Java heap space — daemon exiting",
            );
            return Err(HlError::TaskFailed(format!("tasktracker on {node} crashed (OOM)")));
        }

        // Write part file to HDFS (real bytes, charged, replicated). A
        // speculative attempt racing a live primary never commits — the
        // primary's file is the one the job owns, and the racer's bytes
        // are identical (same deterministic reducer over the same runs).
        let compute_end = t;
        let out_path = if lines.is_empty() || !commit {
            None
        } else {
            let mut text = lines.join("\n");
            text.push('\n');
            let path = format!("{}/part-r-{:05}", job.conf.output_path, r);
            let put = self.dfs.put(&mut self.net, t, &path, text.as_bytes(), Some(node))?;
            t = put.completed_at;
            task_counters.incr_fs(FileSystemCounter::HdfsBytesWritten, text.len() as u64);
            Some(path)
        };

        Ok(ReduceAttempt { end: t, compute_end, counters: task_counters, out_path })
    }

    /// Read a job's full text output (all part files concatenated, charged).
    pub fn read_output(&mut self, output_path: &str) -> Result<String> {
        let rows = self.dfs.namenode.list(output_path)?;
        let mut text = String::new();
        let mut t = self.now;
        for row in rows.into_iter().filter(|r| !r.is_dir) {
            let got = self.dfs.read(&mut self.net, t, &row.path, None)?;
            text.push_str(&String::from_utf8_lossy(&got.value));
            t = got.completed_at;
        }
        self.now = t;
        Ok(text)
    }
}

/// How the map phase answers the scheduler's placement questions: a map
/// task's distance is its split's best replica locality from the node
/// (node-local 0 < rack-local < off-rack), or 0 everywhere when the
/// locality-ablation arm is on.
struct MapSchedEnv<'a> {
    topo: &'a hl_common::topology::Topology,
    splits: &'a [InputSplit],
    locality_aware: bool,
}

impl SchedulerEnv for MapSchedEnv<'_> {
    fn distance(&self, node: NodeId, _job: usize, task: u32) -> u32 {
        if !self.locality_aware {
            return 0; // FIFO ablation: ignore locations entirely
        }
        let Some(s) = self.splits.get(task as usize) else {
            return u32::MAX;
        };
        self.topo.best_locality(node, &s.holders).map(|l| l.distance()).unwrap_or(u32::MAX)
    }
}

struct MapAttempt {
    output: MapOutput,
    end: SimTime,
    locality: Locality,
    counters: Counters,
    peak: usize,
}

struct ReduceAttempt {
    end: SimTime,
    /// When reduce compute finished, before the HDFS commit write —
    /// what a speculative (non-committing) attempt's race is judged on.
    compute_end: SimTime,
    counters: Counters,
    out_path: Option<String>,
}

struct SpillSink<K: SortableKey, V: Writable, C: Combiner<K = K, V = V>> {
    buf: SortBuffer<K, V>,
    combiner: Option<C>,
    counters: Counters,
}

impl<K: SortableKey, V: Writable, C: Combiner<K = K, V = V>> MapOutputSink<K, V>
    for SpillSink<K, V, C>
{
    fn collect(&mut self, key: K, value: V) {
        self.buf.collect(&key, &value, self.combiner.as_mut(), &mut self.counters);
    }
}

/// The last byte a compressed block decodes to. Frame headers are walked
/// without decoding; only trailing frames are decoded (and CRC-checked),
/// back to the first one that is not empty.
fn last_decoded_byte(stored: &[u8]) -> Result<Option<u8>> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < stored.len() {
        let (header, payload, next) = hl_codec::parse_frame(stored, pos)?;
        frames.push((header, payload));
        pos = next;
    }
    for (header, payload) in frames.iter().rev() {
        if let Some(&b) = hl_codec::decode_frame(header, payload)?.last() {
            return Ok(Some(b));
        }
    }
    Ok(None)
}

/// Append `bytes` to `data` through its first newline. True when a
/// newline was found, which ends the boundary line.
fn append_through_newline(data: &mut Vec<u8>, bytes: &[u8]) -> bool {
    match bytes.iter().position(|&b| b == b'\n') {
        Some(i) => {
            data.extend_from_slice(&bytes[..=i]);
            true
        }
        None => {
            data.extend_from_slice(bytes);
            false
        }
    }
}

/// [`append_through_newline`] over a compressed block: frames decode (and
/// CRC-check) one at a time, and none past the newline is decoded.
fn append_frames_through_newline(data: &mut Vec<u8>, stored: &[u8]) -> Result<bool> {
    let mut pos = 0;
    while pos < stored.len() {
        let (header, payload, next) = hl_codec::parse_frame(stored, pos)?;
        if append_through_newline(data, &hl_codec::decode_frame(&header, payload)?) {
            return Ok(true);
        }
        pos = next;
    }
    Ok(false)
}

/// Framed size of a run's records packed as one hl-codec container. The
/// records stream through one `FRAME_RAW_CHUNK` buffer, so the frames cut
/// exactly where [`hl_codec::compress_container`] would cut the
/// concatenated run, without first copying the whole run.
fn framed_len(codec: hl_codec::CodecId, run: &SortedRun) -> u64 {
    let mut chunk = Vec::with_capacity(hl_codec::FRAME_RAW_CHUNK);
    let mut packed = 0u64;
    for (k, v) in run.iter() {
        for mut bytes in [k, v] {
            while !bytes.is_empty() {
                let take = (hl_codec::FRAME_RAW_CHUNK - chunk.len()).min(bytes.len());
                chunk.extend_from_slice(&bytes[..take]);
                bytes = &bytes[take..];
                if chunk.len() == hl_codec::FRAME_RAW_CHUNK {
                    packed += hl_codec::encode_frame(codec, &chunk).len() as u64;
                    chunk.clear();
                }
            }
        }
    }
    if !chunk.is_empty() {
        packed += hl_codec::encode_frame(codec, &chunk).len() as u64;
    }
    packed
}

fn locality_counter(l: Locality) -> &'static str {
    match l {
        Locality::NodeLocal => "Data-local map tasks",
        Locality::RackLocal => "Rack-local map tasks",
        Locality::OffRack => "Off-rack map tasks",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobConf;

    // -- A tiny WordCount used across engine tests -----------------------

    struct WcMap;
    impl Mapper for WcMap {
        type KOut = String;
        type VOut = u64;
        fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<String, u64>) {
            for w in line.split_whitespace() {
                ctx.emit(w.to_string(), 1);
            }
        }
    }

    struct WcReduce;
    impl Reducer for WcReduce {
        type KIn = String;
        type VIn = u64;
        fn reduce(&mut self, key: String, values: Vec<u64>, ctx: &mut ReduceContext) {
            ctx.emit(key, values.into_iter().sum::<u64>());
        }
    }

    struct WcCombine;
    impl Combiner for WcCombine {
        type K = String;
        type V = u64;
        fn combine(&mut self, _k: &String, values: Vec<u64>, out: &mut Vec<u64>) {
            out.push(values.into_iter().sum());
        }
    }

    fn corpus(words: usize) -> String {
        let vocab = ["the", "quick", "brown", "fox", "lazy", "dog"];
        let mut s = String::new();
        for i in 0..words {
            s.push_str(vocab[i % vocab.len()]);
            s.push(if i % 10 == 9 { '\n' } else { ' ' });
        }
        s.push('\n');
        s
    }

    fn small_cluster() -> MrCluster {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap()
    }

    fn stage(cluster: &mut MrCluster, path: &str, text: &str) {
        cluster.dfs.namenode.mkdirs("/in").unwrap();
        let t = cluster.now;
        let put = cluster.dfs.put(&mut cluster.net, t, path, text.as_bytes(), None).unwrap();
        cluster.now = put.completed_at;
    }

    fn parse_counts(text: &str) -> std::collections::BTreeMap<String, u64> {
        text.lines()
            .map(|l| {
                let (k, v) = l.split_once('\t').unwrap();
                (k.to_string(), v.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn metrics_track_job_lifecycle_and_spills() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(5000));
        let job = Job::new(
            JobConf::new("wc-metrics").input("/in/data.txt").output("/out/wcm").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        let snap = cluster.metrics_snapshot();
        assert_eq!(snap.counter("jobtracker", "jobs.submitted"), 1);
        assert_eq!(snap.counter("jobtracker", "jobs.completed"), 1);
        assert_eq!(snap.counter("jobtracker", "jobs.failed"), 0);
        assert_eq!(
            snap.counter("jobtracker", "shuffle.bytes"),
            report.counters.task(TaskCounter::ReduceShuffleBytes),
        );
        assert_eq!(
            snap.counter("jobtracker", "spill.records"),
            report.counters.task(TaskCounter::SpilledRecords),
        );
        // Task-duration histograms hold one sample per task.
        let maps = report.num_maps() as u64;
        match snap.get("jobtracker", "map.duration_ms") {
            Some(hl_metrics::MetricValue::Histogram(h)) => assert_eq!(h.count(), maps),
            other => panic!("map.duration_ms missing: {other:?}"),
        }
        // The merged snapshot spans every subsystem.
        assert!(snap.counter("namenode", "rpc.add_block") > 0);
        assert!(snap.counter_across_daemons("bytes.read") > 0);
        assert!(snap.gauge("jobtracker", "trackers.live") == 4);
        assert!(snap.gauge("network", "remote.bytes") >= 0);
        // Snapshots are deterministic: rendering twice is byte-identical.
        let again = cluster.metrics_snapshot();
        use hl_common::writable::Writable;
        assert_eq!(snap.to_bytes(), again.to_bytes());
    }

    #[test]
    fn wordcount_end_to_end_is_correct() {
        let mut cluster = small_cluster();
        let text = corpus(5000);
        stage(&mut cluster, "/in/data.txt", &text);
        let job = Job::new(
            JobConf::new("wordcount").input("/in/data.txt").output("/out/wc").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        assert!(report.success);
        assert!(report.num_maps() > 1, "multiple blocks → multiple maps");
        assert_eq!(report.num_reduces(), 2);
        let out = cluster.read_output("/out/wc").unwrap();
        let counts = parse_counts(&out);
        // Ground truth.
        let mut expected = std::collections::BTreeMap::new();
        for w in text.split_whitespace() {
            *expected.entry(w.to_string()).or_insert(0u64) += 1;
        }
        assert_eq!(counts, expected);
        // Counters add up.
        assert_eq!(report.counters.task(TaskCounter::MapInputRecords), text.lines().count() as u64);
        assert_eq!(report.counters.task(TaskCounter::MapOutputRecords), 5000);
        assert_eq!(report.counters.task(TaskCounter::ReduceOutputRecords), 6);
        assert!(report.elapsed() > SimDuration::ZERO);
    }

    #[test]
    fn combiner_reduces_shuffle_but_not_answers() {
        let mut cluster = small_cluster();
        let text = corpus(8000);
        stage(&mut cluster, "/in/data.txt", &text);

        let plain = Job::new(
            JobConf::new("wc").input("/in/data.txt").output("/out/plain").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let plain_report = cluster.run_job(&plain).unwrap();
        let plain_out = parse_counts(&cluster.read_output("/out/plain").unwrap());

        let combined = Job::with_combiner(
            JobConf::new("wc+c").input("/in/data.txt").output("/out/comb").reduces(2),
            || WcMap,
            || WcReduce,
            || WcCombine,
        );
        let comb_report = cluster.run_job(&combined).unwrap();
        let comb_out = parse_counts(&cluster.read_output("/out/comb").unwrap());

        assert_eq!(plain_out, comb_out, "combiner must not change results");
        assert!(
            comb_report.shuffle_bytes() < plain_report.shuffle_bytes() / 4,
            "combiner collapses shuffle: {} vs {}",
            comb_report.shuffle_bytes(),
            plain_report.shuffle_bytes()
        );
        assert!(comb_report.counters.task(TaskCounter::CombineInputRecords) > 0);
    }

    #[test]
    fn compressed_map_output_shrinks_shuffle_but_not_answers() {
        let mut cluster = small_cluster();
        let text = corpus(8000);
        stage(&mut cluster, "/in/data.txt", &text);

        let plain = Job::new(
            JobConf::new("wc").input("/in/data.txt").output("/out/plain").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let plain_report = cluster.run_job(&plain).unwrap();
        let plain_out = cluster.read_output("/out/plain").unwrap();

        let packed = Job::new(
            JobConf::new("wc+z")
                .input("/in/data.txt")
                .output("/out/packed")
                .reduces(2)
                .compress_map_output(true),
            || WcMap,
            || WcReduce,
        );
        let packed_report = cluster.run_job(&packed).unwrap();
        let packed_out = cluster.read_output("/out/packed").unwrap();

        assert_eq!(plain_out, packed_out, "codec must not change job output");
        assert!(
            packed_report.shuffle_bytes() < plain_report.shuffle_bytes() / 2,
            "framed shuffle should at least halve on repetitive text: {} vs {}",
            packed_report.shuffle_bytes(),
            plain_report.shuffle_bytes()
        );
        // The codec counters record both sides of the trade.
        let snap = cluster.metrics_snapshot();
        let raw = snap.counter("jobtracker", "codec.in_bytes");
        let out = snap.counter("jobtracker", "codec.out_bytes");
        assert!(raw > 0 && out > 0 && out < raw, "codec.in/out: {raw}/{out}");
        assert!(snap.gauge("jobtracker", "codec.ratio") < 10_000, "ratio gauge in basis points");

        // LocalJobRunner ground truth: the cluster's compressed run and
        // assignment 1's serial runner agree byte for byte.
        let local = crate::local::LocalRunner::serial()
            .run(&plain, &[("data.txt".to_string(), text.into_bytes())], &SideFiles::default())
            .unwrap();
        let mut local_text = local.output.join("\n");
        local_text.push('\n');
        let local_counts = parse_counts(&local_text);
        assert_eq!(parse_counts(&packed_out), local_counts);
    }

    #[test]
    fn compressed_input_splits_stitch_lines_like_plain_ones() {
        let mut cluster = small_cluster();
        let text = corpus(50_000);
        stage(&mut cluster, "/in/plain.txt", &text);
        // Stage the same corpus compressed: blocks hold whole frames, so
        // each split decodes independently and the newline stitch works on
        // decoded bytes.
        cluster.dfs.namenode.mkdirs("/in").unwrap();
        let t = cluster.now;
        let put = cluster
            .dfs
            .put_compressed(
                &mut cluster.net,
                t,
                "/in/packed.txt",
                text.as_bytes(),
                None,
                hl_codec::CodecId::Hlz,
            )
            .unwrap();
        cluster.now = put.completed_at;

        let plain = Job::new(
            JobConf::new("wc").input("/in/plain.txt").output("/out/plain").reduces(2),
            || WcMap,
            || WcReduce,
        );
        cluster.run_job(&plain).unwrap();
        let plain_out = cluster.read_output("/out/plain").unwrap();

        let packed = Job::new(
            JobConf::new("wc-z-in").input("/in/packed.txt").output("/out/zin").reduces(2),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&packed).unwrap();
        let packed_out = cluster.read_output("/out/zin").unwrap();

        assert_eq!(plain_out, packed_out, "compressed input must decode to the same answers");
        assert!(report.success);
        // The compressed file stores fewer bytes than the logical corpus,
        // and its split count reflects the stored (framed) blocks.
        let stored: u64 =
            cluster.dfs.file_blocks("/in/packed.txt").unwrap().iter().map(|(_, l, _)| l).sum();
        assert!(stored * 2 < text.len() as u64, "stored {stored} vs logical {}", text.len());
    }

    #[test]
    fn compressed_stitch_decodes_frame_by_frame_across_blocks() {
        // Pseudo-random words, so every 64 KiB frame compresses to about
        // the same size; blocks sized at two of the largest frames then
        // hold exactly two frames each (asserted below).
        const F: usize = hl_codec::FRAME_RAW_CHUNK;
        let mut state = 0x5EED_u64;
        let mut text = Vec::with_capacity(12 * F);
        while text.len() < 12 * F {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let word = state >> 33;
            text.extend_from_slice(format!("w{}", word % 400).as_bytes());
            text.push(if word.is_multiple_of(9) { b'\n' } else { b' ' });
        }
        text.truncate(12 * F);
        // Record 1 starts in block 0 and ends in block 1's second frame;
        // block 0's last frame ends mid-record.
        // Record 2 starts in block 2, spans block 3, ends in block 4.
        for r in [2 * F - 100..3 * F + 50, 6 * F - 100..8 * F + 10] {
            text[r.clone()].iter_mut().filter(|b| **b == b'\n').for_each(|b| *b = b' ');
        }
        text[3 * F + 50] = b'\n';
        text[8 * F + 10] = b'\n';
        // Block 4's last frame ends exactly on a newline.
        text[10 * F - 1] = b'\n';
        *text.last_mut().unwrap() = b'\n';

        let frames = hl_codec::compress_to_frames(hl_codec::CodecId::Hlz, &text);
        let block_size = 2 * frames.iter().map(Vec::len).max().unwrap();
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, block_size);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        let text = String::from_utf8(text).unwrap();
        stage(&mut cluster, "/in/plain.txt", &text);
        let t = cluster.now;
        let put = cluster
            .dfs
            .put_compressed(
                &mut cluster.net,
                t,
                "/in/packed.txt",
                text.as_bytes(),
                None,
                hl_codec::CodecId::Hlz,
            )
            .unwrap();
        cluster.now = put.completed_at;
        let blocks = cluster.dfs.file_blocks("/in/packed.txt").unwrap();
        let expect: Vec<u64> =
            frames.chunks(2).map(|pair| pair.iter().map(|f| f.len() as u64).sum()).collect();
        let stored: Vec<u64> = blocks.iter().map(|(_, len, _)| *len).collect();
        assert_eq!(stored, expect, "every block holds exactly two frames");

        let mut outputs = Vec::new();
        for (input, output) in [("/in/plain.txt", "/out/plain"), ("/in/packed.txt", "/out/zin")] {
            let job = Job::new(
                JobConf::new("wc").input(input).output(output).reduces(2),
                || WcMap,
                || WcReduce,
            );
            assert!(cluster.run_job(&job).unwrap().success);
            outputs.push(cluster.read_output(output).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "compressed input must decode to the same answers");
    }

    #[test]
    fn stitch_helpers_decode_no_frame_they_do_not_need() {
        let mut first = hl_codec::encode_frame(hl_codec::CodecId::Hlz, b"tail of a line\nnext");
        let last = hl_codec::encode_frame(hl_codec::CodecId::Hlz, b"more words\nend");
        // Rot the other frame's last payload byte: parsing still succeeds,
        // but decoding it would fail its CRC.
        let mut rotted_last = last.clone();
        *rotted_last.last_mut().unwrap() ^= 0x55;
        let container = [first.clone(), rotted_last].concat();
        let mut data = b"head ".to_vec();
        assert!(append_frames_through_newline(&mut data, &container).unwrap());
        assert_eq!(data, b"head tail of a line\n");

        *first.last_mut().unwrap() ^= 0x55;
        let container = [first, last].concat();
        assert_eq!(last_decoded_byte(&container).unwrap(), Some(b'd'));
        // A frame it must decode is still CRC-checked.
        let mut data = Vec::new();
        assert!(append_frames_through_newline(&mut data, &container).is_err());
    }

    #[test]
    fn framed_len_matches_compressing_the_concatenated_run() {
        // Records straddle the 64 KiB frame cuts, and the last frame is
        // partial.
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..3000u32)
            .map(|i| {
                (format!("key{i:05}").into_bytes(), vec![b'a' + (i % 7) as u8; i as usize % 97])
            })
            .collect();
        let run = SortedRun::from_pairs(pairs);
        let plain: Vec<u8> = run.iter().flat_map(|(k, v)| [k, v].concat()).collect();
        assert!(plain.len() > 2 * hl_codec::FRAME_RAW_CHUNK);
        for codec in [hl_codec::CodecId::Hlz, hl_codec::CodecId::Null] {
            let whole = hl_codec::compress_container(codec, &plain).len() as u64;
            assert_eq!(framed_len(codec, &run), whole, "{codec:?}");
        }
        assert_eq!(framed_len(hl_codec::CodecId::Hlz, &SortedRun::default()), 0);
    }

    #[test]
    fn submission_fails_in_safemode_and_on_existing_output() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", "a b c\n");
        let job = Job::new(
            JobConf::new("j").input("/in/data.txt").output("/out/j"),
            || WcMap,
            || WcReduce,
        );
        cluster.dfs.namenode.safemode.force_enter();
        assert!(matches!(cluster.run_job(&job), Err(HlError::SafeMode(_))));
        cluster.dfs.namenode.safemode.force_leave();
        cluster.run_job(&job).unwrap();
        // Output dir now exists → resubmission refused (classic student trip).
        assert!(matches!(cluster.run_job(&job), Err(HlError::AlreadyExists(_))));
    }

    #[test]
    fn retries_recover_from_transient_task_failures() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(500));
        let job = Job::new(
            JobConf::new("flaky").input("/in/data.txt").output("/out/flaky").fail_first_attempts(2),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        assert!(report.success);
        assert!(report.tasks.iter().any(|t| t.attempts == 3));
    }

    #[test]
    fn too_many_failures_kill_the_job() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", "a\n");
        let job = Job::new(
            JobConf::new("doomed")
                .input("/in/data.txt")
                .output("/out/doomed")
                .fail_first_attempts(10),
            || WcMap,
            || WcReduce,
        );
        assert!(matches!(cluster.run_job(&job), Err(HlError::JobFailed(_))));
        // Failed jobs clean up their output directory.
        assert!(!cluster.dfs.namenode.namespace().exists("/out/doomed"));
    }

    #[test]
    fn leaking_jobs_crash_trackers_and_datanodes() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(4000));
        // Crash threshold is 13 buggy tasks per daemon; run leaking jobs
        // until daemons start dying.
        let mut crashed = false;
        for i in 0..30 {
            let job = Job::new(
                JobConf::new("leaky")
                    .input("/in/data.txt")
                    .output(format!("/out/leak{i}"))
                    .speculative(false)
                    .leaking(true),
                || WcMap,
                || WcReduce,
            );
            // Crash-path runs are allowed to fail; the assertion below is
            // about cluster state, not job success.
            let _ = cluster.run_job(&job);
            if cluster.live_tracker_nodes().len() < 4 {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "heap leaks must eventually kill a tasktracker");
        // The colocated DataNode died too.
        let dead: Vec<NodeId> =
            (0..4u32).map(NodeId).filter(|n| !cluster.live_tracker_nodes().contains(n)).collect();
        for n in &dead {
            assert!(!cluster.dfs.datanode(*n).unwrap().alive);
        }
        // Restart brings them back.
        cluster.restart_dead_trackers();
        assert_eq!(cluster.live_tracker_nodes().len(), 4);
    }

    #[test]
    fn map_tasks_are_mostly_data_local_on_course_cluster() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", &corpus(20_000));
        let job = Job::new(
            JobConf::new("loc").input("/in/data.txt").output("/out/loc"),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        let (dl, rl, or) = report.locality_histogram();
        assert!(dl > 0);
        assert_eq!(dl + rl + or, report.num_maps());
        // With 3× replication on 4 nodes, most maps should be data-local.
        assert!(dl * 2 >= report.num_maps(), "data-local {dl} of {}", report.num_maps());
    }

    #[test]
    fn speculative_execution_rescues_stragglers() {
        // 2 map slots per node so the straggler node is guaranteed work.
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAP_SLOTS, 2);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/data.txt", &corpus(20_000));
        cluster.set_slow_node(NodeId(3), 50.0);

        let slow_job = Job::new(
            JobConf::new("no-spec").input("/in/data.txt").output("/out/nospec").speculative(false),
            || WcMap,
            || WcReduce,
        );
        let no_spec = cluster.run_job(&slow_job).unwrap();

        let spec_job = Job::new(
            JobConf::new("spec").input("/in/data.txt").output("/out/spec").speculative(true),
            || WcMap,
            || WcReduce,
        );
        let with_spec = cluster.run_job(&spec_job).unwrap();

        assert!(
            with_spec.elapsed() < no_spec.elapsed(),
            "speculation must beat the straggler: {} vs {}",
            with_spec.elapsed(),
            no_spec.elapsed()
        );
        assert!(with_spec.tasks.iter().any(|t| t.speculative));
    }

    #[test]
    fn side_files_work_from_dfs_cache() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", "x\ny\n");
        stage(&mut cluster, "/in/lookup.txt", "x=ex\ny=why\n");
        cluster.cache_from_dfs("/in/lookup.txt").unwrap();

        struct LookupMap;
        impl Mapper for LookupMap {
            type KOut = String;
            type VOut = u64;
            fn map(&mut self, _o: u64, line: &str, ctx: &mut MapContext<String, u64>) {
                // The naive pattern: read the side file on every record.
                let bytes = ctx.read_side_file("/in/lookup.txt").unwrap();
                let table = String::from_utf8_lossy(&bytes);
                for entry in table.lines() {
                    if let Some((k, v)) = entry.split_once('=') {
                        if k == line.trim() {
                            ctx.emit(v.to_string(), 1);
                        }
                    }
                }
            }
        }
        let job = Job::new(
            JobConf::new("lookup").input("/in/data.txt").output("/out/lk"),
            || LookupMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        let out = parse_counts(&cluster.read_output("/out/lk").unwrap());
        assert_eq!(out["ex"], 1);
        assert_eq!(out["why"], 1);
        assert_eq!(report.counters.get("Side Files", "reads"), 2);
    }

    #[test]
    fn job_ids_increment() {
        let mut cluster = small_cluster();
        stage(&mut cluster, "/in/data.txt", "a\n");
        for i in 1..=3 {
            let job = Job::new(
                JobConf::new("j").input("/in/data.txt").output(format!("/out/{i}")),
                || WcMap,
                || WcReduce,
            );
            let r = cluster.run_job(&job).unwrap();
            assert_eq!(r.job_id, format!("job_{i:04}"));
        }
    }

    #[test]
    fn flaky_tracker_is_blacklisted_per_job_then_cluster_wide() {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        // One failed attempt blacklists a tracker for the job; one such
        // blacklisting (on a successful job) bans it cluster-wide.
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_FAILURES, 1u32);
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_BLACKLISTS, 1u32);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/data.txt", &corpus(200));
        let job = Job::new(
            JobConf::new("flaky")
                .input("/in/data.txt")
                .output("/out/flaky")
                .fail_first_attempts(1)
                .speculative(false),
            || WcMap,
            || WcReduce,
        );
        let report = cluster.run_job(&job).unwrap();
        assert!(report.success, "retries on other trackers carried the job");
        assert!(!report.blacklisted_trackers.is_empty());
        assert!(
            report.counters.get("Job Counters", "Trackers blacklisted")
                >= report.blacklisted_trackers.len() as u64
        );
        // The successful job converted its blacklistings to global strikes.
        let banned = cluster.blacklisted_trackers();
        for n in &report.blacklisted_trackers {
            assert!(banned.contains(n), "{n} should be banned cluster-wide");
        }
        // A clean follow-up job schedules nothing on the banned trackers.
        let job2 = Job::new(
            JobConf::new("clean").input("/in/data.txt").output("/out/clean").speculative(false),
            || WcMap,
            || WcReduce,
        );
        let r2 = cluster.run_job(&job2).unwrap();
        assert!(r2.success);
        assert!(r2.blacklisted_trackers.is_empty());
        assert!(r2.tasks.iter().all(|t| !banned.contains(&t.node)));
        // The operator restart pass forgives everything.
        cluster.restart_dead_trackers();
        assert!(cluster.blacklisted_trackers().is_empty());
    }

    #[test]
    fn failed_jobs_do_not_add_global_strikes() {
        let mut config = Configuration::with_defaults();
        config.set(hl_common::config::keys::DFS_BLOCK_SIZE, 4096u64);
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_FAILURES, 1u32);
        config.set(hl_common::config::keys::MAPRED_MAX_TRACKER_BLACKLISTS, 1u32);
        let mut cluster = MrCluster::new(ClusterSpec::course_hadoop(4), config).unwrap();
        stage(&mut cluster, "/in/data.txt", &corpus(200));
        // Every attempt fails: the job dies with attempts exhausted, and
        // its per-job blacklistings must NOT stick to the trackers — a
        // failing job is as likely the job's fault as the tracker's.
        let job = Job::new(
            JobConf::new("doomed")
                .input("/in/data.txt")
                .output("/out/doomed")
                .fail_first_attempts(100)
                .speculative(false),
            || WcMap,
            || WcReduce,
        );
        assert!(cluster.run_job(&job).is_err());
        assert!(cluster.blacklisted_trackers().is_empty());
    }
}
