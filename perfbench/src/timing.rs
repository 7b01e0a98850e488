//! Timed-pass loops, medians and memory readings.

use std::time::Instant;

/// The timed passes of one measurement: wall seconds per pass and how
/// many of them failed their output check. A failed pass keeps its time
/// and counts against `success_rate`; it is never dropped.
#[derive(Debug, Clone, Default)]
pub struct Passes {
    /// Wall seconds of each pass, in run order.
    pub secs: Vec<f64>,
    /// Passes whose output check failed.
    pub failed: u64,
}

impl Passes {
    /// Passes attempted.
    pub fn attempted(&self) -> u64 {
        self.secs.len() as u64
    }

    /// Records one pass.
    pub fn push(&mut self, secs: f64, ok: bool) {
        self.secs.push(secs);
        self.failed += u64::from(!ok);
    }

    /// Median wall seconds.
    pub fn median(&self) -> f64 {
        median(&self.secs)
    }

    /// Wall seconds of the fastest pass: the statistic behind the timed
    /// end-to-end metrics. Contention on a shared host only ever slows a
    /// pass, and it comes in stretches of seconds to minutes that hold
    /// most of the passes of some runs, so a run's median jumps between
    /// the host's fast and slow levels while its fastest pass does not
    /// (see `README.md`, Noise).
    pub fn fastest(&self) -> f64 {
        self.secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// One line describing the pass-time distribution.
    pub fn describe(&self, what: &str) -> String {
        let mut v = self.secs.clone();
        v.sort_by(f64::total_cmp);
        let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
        format!(
            "{what}: {} passes, min {:.4} s, p25 {:.4} s, median {:.4} s, p90 {:.4} s",
            v.len(),
            q(0.0),
            q(0.25),
            self.median(),
            q(0.9)
        )
    }

    /// Fraction of passes whose output check passed.
    pub fn success_rate(&self) -> f64 {
        let n = self.attempted();
        if n == 0 {
            0.0
        } else {
            (n - self.failed) as f64 / n as f64
        }
    }
}

/// Runs `pass` until `budget_s` seconds have gone by and at least
/// `min_passes` passes ran. `pass` returns its own measured wall seconds
/// (so it can leave untimed preparation out) and whether its output
/// check passed; an `Err` aborts the measurement.
pub fn repeat(
    budget_s: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<(f64, bool), String>,
) -> Result<Passes, String> {
    let start = Instant::now();
    let mut out = Passes::default();
    while out.secs.len() < min_passes || start.elapsed().as_secs_f64() < budget_s {
        let (secs, ok) = pass()?;
        out.push(secs, ok);
    }
    Ok(out)
}

/// Share of a timed window that repeated set-ups may take.
const SETUP_SHARE: f64 = 0.15;
/// Fewest and most set-ups in one timed run.
const SETUP_REPEATS: (usize, usize) = (5, 40);

/// The set-up timings of one run. Set-up runs once before timing, and a
/// timed run repeats it at evenly spaced moments of its window (see
/// [`Setups::poll`]), as many times as fit in [`SETUP_SHARE`] of it.
/// `setup_s` is the fastest of them, for the reason the timed passes
/// report their fastest (see [`Passes::fastest`]): a set-up that meets a
/// slow stretch of the host is only slower, and with many set-ups spread
/// over the window some land in a quiet moment. Work moved into set-up
/// still shows, since every repeat does it.
pub struct Setups<F> {
    setup: F,
    secs: Vec<f64>,
    repeats: usize,
    window_start: Instant,
    window_s: f64,
}

impl<T, F: FnMut() -> Result<T, String>> Setups<F> {
    /// Times the first set-up and returns its result.
    pub fn new(mut setup: F) -> Result<(Self, T), String> {
        let (secs, first) = timed(&mut setup);
        let first = first?;
        let setups = Self {
            setup,
            secs: vec![secs],
            repeats: 1,
            window_start: Instant::now(),
            window_s: 0.0,
        };
        Ok((setups, first))
    }

    /// Starts a timed window of `window_s` seconds and sizes the number
    /// of set-ups from the first one's time.
    pub fn window(&mut self, window_s: f64) {
        let fit = (SETUP_SHARE * window_s / self.secs[0]) as usize;
        self.repeats = fit.clamp(SETUP_REPEATS.0, SETUP_REPEATS.1);
        self.window_start = Instant::now();
        self.window_s = window_s;
    }

    /// Repeats set-up when the next of the evenly spaced moments of the
    /// window has come; called between passes. The repeat's result is
    /// dropped: set-up is deterministic.
    pub fn poll(&mut self) -> Result<(), String> {
        let done = self.secs.len();
        let due = self.window_s * done as f64 / self.repeats as f64;
        if done < self.repeats && self.window_start.elapsed().as_secs_f64() >= due {
            let (secs, r) = timed(&mut self.setup);
            r?;
            self.secs.push(secs);
        }
        Ok(())
    }

    /// Wall seconds of the fastest set-up.
    pub fn fastest(&self) -> f64 {
        self.secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// One line describing the set-up time distribution.
    pub fn describe(&self) -> String {
        Passes {
            secs: self.secs.clone(),
            failed: 0,
        }
        .describe("setup")
    }
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// Median of `xs` (the mean of the two middle values for even lengths);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set size of this process in MB, from `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Splitmix64 step: the benchmark's own input generator, so inputs
/// depend only on `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from [`splitmix64`].
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn repeat_runs_at_least_the_minimum_and_counts_failures() {
        let mut i = 0;
        let p = repeat(0.0, 4, || {
            i += 1;
            Ok((i as f64, i % 2 == 0))
        })
        .unwrap();
        assert_eq!(p.attempted(), 4);
        assert_eq!(p.failed, 2);
        assert_eq!(p.success_rate(), 0.5);
    }
}
