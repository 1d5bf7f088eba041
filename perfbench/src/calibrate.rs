//! The reference pass: a fixed unit of CPU work, timed before every round,
//! that tells the run how fast the host is right now.
//!
//! The machines this benchmark runs on share their cores with other
//! tenants, and their speed drifts by a fifth or more within minutes: a
//! SHA-256 loop on one 2-vCPU host took anywhere from 1.04 s to 1.57 s
//! for the same input. Two runs of the same code minutes apart then
//! differ by as much as a code change would. Each round's host time is
//! scaled by [`REF_PASS_MS`] over the median of the passes around it,
//! which cancels both a slow run and a slow spell inside a run. The pass
//! uses only the standard library, so no change to the repository's
//! crates can move it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::harness::Rng;

/// The reference pass's duration at reference speed. Times scaled to
/// reference speed read as if every pass had taken this long.
pub const REF_PASS_MS: f64 = 3.0;

/// Passes a round's scale factor is read from: the two before it and the
/// two after it. Over six seeds on each workload, four passes gave the
/// steadiest medians and tails; two let one noisy pass through, and six
/// or more smoothed over bursts shorter than the window.
pub const WINDOW: usize = 4;

/// Sort, a tree index, lookups and small-string formatting: the mix of
/// work a round does, in about 3 ms.
fn work(seed: u32) -> u64 {
    let mut rng = Rng::new(u64::from(seed));
    let mut keys: Vec<u64> = (0..50_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let index: BTreeMap<u64, usize> =
        keys.iter().enumerate().step_by(8).map(|(i, k)| (k >> 20, i)).collect();
    let hits: usize = keys
        .iter()
        .step_by(3)
        .filter_map(|k| index.range(..=(k >> 20)).next_back().map(|(_, &i)| i))
        .sum();
    let text: String = (0..4_000).map(|i| format!("w{i:07} ")).collect();
    hits as u64 + text.split_whitespace().map(|w| w.len() as u64).sum::<u64>()
}

/// Run one reference pass and return its wall time in milliseconds.
pub fn pass_ms(seed: u32) -> f64 {
    let t = Instant::now();
    std::hint::black_box(work(std::hint::black_box(seed)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Factor from round `i`'s host time to reference-speed time. Pass `i`
/// ran just before round `i` and pass `i + 1` just after it; the factor
/// uses the median of the [`WINDOW`] passes around the round, shifted
/// inwards at either end of the run.
pub fn to_ref(passes_ms: &[f64], i: usize) -> f64 {
    let lo = (i + 1).saturating_sub(WINDOW / 2).min(passes_ms.len().saturating_sub(WINDOW));
    let hi = (lo + WINDOW).min(passes_ms.len());
    REF_PASS_MS / crate::stats::median(&passes_ms[lo..hi])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_is_scaled_by_the_passes_around_it() {
        // Passes 0..=9 surround rounds 0..=8. Round 4 sits between passes
        // 4 and 5 and reads passes 3..=6: the fast spell (1.5 ms) before it
        // and the slow one (6 ms) after it give a median of (1.5 + 6) / 2.
        let passes = [3.0, 3.0, 1.5, 1.5, 1.5, 6.0, 6.0, 6.0, 3.0, 3.0];
        assert_eq!(to_ref(&passes, 4), REF_PASS_MS / 3.75);
        // At the ends the window shifts inwards: the first round reads
        // passes 0..=3, the last round passes 6..=9.
        assert_eq!(to_ref(&passes, 0), REF_PASS_MS / 2.25);
        assert_eq!(to_ref(&passes, 8), REF_PASS_MS / 4.5);
    }
}
