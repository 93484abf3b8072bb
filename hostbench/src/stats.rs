//! The benchmark's own arithmetic: order statistics, the tail rule, the
//! failure accounting of each workload, the metric-name rule and the FNV
//! digest the fingerprints are made of. Everything here is pure so the
//! unit tests at the bottom can pin it.

/// Percentiles the tail rule may pick, highest first. A fixed ladder keeps
/// the reported percentile steady while the sample count drifts a little
/// from run to run.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank: the smallest rank with at least `p`% of the
/// samples at or below it.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// The tail a run reports: which percentile, its value, and how many
/// samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] samples
/// beyond it. Below 20 samples not even the median has ten beyond it; the
/// rule then reports the median and says how few lie beyond (`beyond <
/// TAIL_BEYOND`), rather than a percentile no sample count supports.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    Tail {
        pct,
        value: percentile(sorted, pct),
        beyond: n - rank(n, pct),
    }
}

/// The run's fastest window: of the windows of `window` consecutive
/// samples (in run order), the one with the lowest median, as an index
/// range, with the number of windows. The shared host runs in slow
/// phases, often under a second long, in which a trial takes up to 1.7x
/// as long, and a run's plain median lands in whichever mode holds half
/// its trials. A window short enough to fall between slow phases measures
/// the code on a quiet host, as `timeit`'s best of repeats does. Samples
/// past the last whole window are left out; a run shorter than one window
/// is one window.
pub fn fastest_window(xs: &[f64], window: usize) -> (std::ops::Range<usize>, usize) {
    let windows = xs.len() / window;
    if windows == 0 {
        return (0..xs.len(), 1);
    }
    let median_of = |w: usize| median(&sorted(xs[w * window..(w + 1) * window].to_vec()));
    let best = (0..windows)
        .min_by(|&a, &b| median_of(a).total_cmp(&median_of(b)))
        .unwrap_or(0);
    (best * window..(best + 1) * window, windows)
}

/// Geometric mean. Per-trial rates of `fuzz_campaign` span nearly two
/// orders of magnitude across its shapes; a median of them jumps between
/// shapes as host noise reorders them, while the geometric mean moves
/// smoothly.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Operations attempted and failed by one trial; `fail_ratio` is their
/// quotient over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    pub fn ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `ckpt_ring26`: every planned checkpoint cycle is an operation. A cycle
/// fails when its outcome is unsuccessful or never arrived; when the ring
/// ends dead or with corrupt data, every cycle of the trial fails.
pub fn cycle_ops(planned: u32, successes: &[bool], ring_ok: bool) -> Ops {
    let planned = planned as u64;
    let failed = if ring_ok {
        let ok = successes.iter().filter(|&&s| s).count() as u64;
        planned - ok.min(planned)
    } else {
        planned
    };
    Ops {
        attempted: planned,
        failed,
    }
}

/// `fuzz_campaign`: a trial is one operation, failed when any oracle
/// objected. Expected detections are not failures.
pub fn fuzz_ops(oracle_failures: usize) -> Ops {
    Ops {
        attempted: 1,
        failed: (oracle_failures > 0) as u64,
    }
}

/// `tcp_bulk`: a transfer is one operation, failed when it came up short
/// or any byte differed from the pattern.
pub fn transfer_ops(expected: usize, received: usize, mismatched: bool) -> Ops {
    Ops {
        attempted: 1,
        failed: (received != expected || mismatched) as u64,
    }
}

/// Metric and workload names: a letter or digit first, then at most 63
/// more letters, digits, `_`, `.` or `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

pub fn fnv_u64(h: u64, x: u64) -> u64 {
    fnv(h, &x.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(attempted: u64, failed: u64) -> Ops {
        Ops { attempted, failed }
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 is rank 90 with 10 beyond; p95 would leave 5.
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 leaves exactly 10.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 40 samples: p75 leaves 10, p90 only 4.
        let t = tail(&ramp(40));
        assert_eq!((t.pct, t.value, t.beyond), (75.0, 30.0, 10));
        // 11000 samples: p99.9 leaves 11.
        assert_eq!(tail(&ramp(11_000)).pct, 99.9);
    }

    #[test]
    fn tail_below_twenty_samples_falls_back_to_the_median() {
        let t = tail(&ramp(20));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
        for n in 1..20 {
            let t = tail(&ramp(n));
            assert_eq!(t.pct, 50.0, "n={n}");
            assert_eq!(t.value, median(&ramp(n)), "n={n}");
            assert!(t.beyond < TAIL_BEYOND, "n={n}: {} beyond", t.beyond);
        }
        assert_eq!(tail(&[7.0]).value, 7.0);
    }

    #[test]
    fn fastest_window_is_the_one_with_the_lowest_median() {
        // Three windows of four: medians 2, 20 and 3 (nearest rank).
        let xs = [1.0, 2.0, 3.0, 4.0, 30.0, 20.0, 10.0, 40.0, 3.0, 3.0, 9.0, 1.0];
        assert_eq!(fastest_window(&xs, 4), (0..4, 3));
        assert_eq!(fastest_window(&xs[4..], 4), (4..8, 2));
        // Samples past the last whole window do not count.
        let mut ys = xs.to_vec();
        ys.extend([0.5, 0.5]);
        assert_eq!(fastest_window(&ys, 4), (0..4, 3));
        // A run shorter than one window is one window: the whole run.
        assert_eq!(fastest_window(&xs[..3], 4), (0..3, 1));
        assert_eq!(fastest_window(&xs, 12), (0..12, 1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = ramp(10);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 51.0), 6.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_forced_failed_cycle_counts_once() {
        assert_eq!(cycle_ops(3, &[true, true, true], true), ops(3, 0));
        assert_eq!(cycle_ops(3, &[true, false, true], true), ops(3, 1));
        // A missing outcome is a failed cycle too.
        assert_eq!(cycle_ops(3, &[true], true), ops(3, 2));
    }

    #[test]
    fn a_dead_or_corrupt_ring_fails_every_cycle() {
        assert_eq!(cycle_ops(3, &[true, true, true], false), ops(3, 3));
    }

    #[test]
    fn fuzz_and_transfer_accounting() {
        assert_eq!(fuzz_ops(0), ops(1, 0));
        assert_eq!(fuzz_ops(2), ops(1, 1));
        assert_eq!(transfer_ops(100, 100, false).failed, 0);
        assert_eq!(transfer_ops(100, 99, false).failed, 1);
        assert_eq!(transfer_ops(100, 100, true).failed, 1);
        let mut run = Ops::default();
        run.add(cycle_ops(4, &[true, false, true, true], true));
        run.add(cycle_ops(4, &[true; 4], true));
        assert_eq!(run, ops(8, 1));
        assert_eq!(run.ratio(), 0.125);
        assert_eq!(Ops::default().ratio(), 0.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "trials_per_s",
            "engine.host_ns_per_pop",
            "ckpt_ring26",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }
}
