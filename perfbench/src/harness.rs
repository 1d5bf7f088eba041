//! What every workload provides to the run loop.

use std::time::Instant;

use crate::trace::Tracer;

/// A step's result: `Err` carries why a round failed.
pub type Outcome<T> = std::result::Result<T, String>;

/// Host time of one round, less the parts spent outside it (checking the
/// output, bookkeeping), which [`Stopwatch::outside`] sets aside.
pub struct Stopwatch {
    start: Instant,
    outside_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch { start: Instant::now(), outside_ns: 0 }
    }

    /// Run `f` without charging its time to the round.
    pub fn outside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.outside_ns += nanos(t);
        out
    }

    /// Time charged to the round so far.
    pub fn round_ns(&self) -> u64 {
        nanos(self.start).saturating_sub(self.outside_ns)
    }
}

pub fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// What one round reports besides its host time.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Which of the set-up's inputs the round used.
    pub input: usize,
    /// Virtual-plane values and deterministic counters: a later round on
    /// the same input must reproduce them exactly.
    pub virt: Vec<(String, u64)>,
    /// Per-round numbers the report aggregates (work done, counters,
    /// virtual times), keyed by metric name.
    pub values: Vec<(String, f64)>,
    /// Per-job virtual waits in seconds (the scheduler replay only).
    pub waits: Vec<f64>,
}

impl RoundOut {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    pub fn pin(&mut self, name: impl Into<String>, value: u64) {
        self.virt.push((name.into(), value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Wall time of the parts of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub datagen_s: f64,
    pub cluster_s: f64,
}

pub trait Workload {
    /// One round: the workload's unit of work, with its correctness check
    /// run inside [`Stopwatch::outside`]. `Err` marks the round failed.
    fn round(&mut self, round: u32, tr: &mut Tracer, sw: &mut Stopwatch) -> Outcome<RoundOut>;

    /// Direct calls into single layers on the round's data, made after a
    /// traced round and outside its time. Adds what it measures to `out`.
    fn probe(&mut self, _round: u32, _tr: &mut Tracer, _out: &mut RoundOut) -> Outcome<()> {
        Ok(())
    }
}

/// A tiny deterministic generator (SplitMix64) for benchmark inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
