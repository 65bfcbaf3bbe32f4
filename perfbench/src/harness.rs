//! Measurement plumbing shared by the three workloads: the metric table,
//! the per-cell failure tally, the closed-loop pass timer, host probes
//! (peak RSS, calibration loop) and the exact-diff digest.

use std::fmt::Debug;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Named measurements, in insertion order; units live in the metric
/// lists of `main.rs`, which decide what is printed.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Adds `value` to `name` (starting from 0).
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let old = self.get(&name).unwrap_or(0.0);
        self.set(name, old + value);
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Attempted/failed cell counts plus the non-cell output checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells run.
    pub attempted: u64,
    /// Cells that faulted, failed their audit, or panicked.
    pub failed: u64,
    /// One line per failed cell or failed check.
    pub failures: Vec<String>,
    /// Output checks that are not cells (equality and digest checks).
    pub checks_failed: u64,
}

impl Tally {
    /// Runs one campaign cell. A cell fails when it returns `Err` or
    /// panics (the repository's audited drivers assert on faults and
    /// audit failures); either way it is counted and logged, never
    /// dropped.
    pub fn cell<T>(&mut self, name: &str, work: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch(work).and_then(|result| result) {
            Ok(value) => Some(value),
            Err(msg) => {
                self.failed += 1;
                self.failures.push(format!("cell {name}: {msg}"));
                None
            }
        }
    }

    /// Records an output check that is not a cell.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.checks_failed += 1;
            self.failures.push(format!("check {name} failed"));
        }
    }

    /// Whether every cell and every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_failed == 0 && self.attempted > 0
    }
}

/// Runs `work`, turning a panic into `Err` with the panic message.
pub fn catch<T>(work: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(work)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with a non-string payload".to_string()
        }
    })
}

/// Seconds elapsed while running `work`, with its result.
pub fn timed<T>(work: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = work();
    (started.elapsed().as_secs_f64(), out)
}

/// Runs `pass` back to back (closed loop) until the next pass would end
/// past `seconds`, always at least once. Returns each pass's seconds and
/// result.
pub fn closed_loop<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<(f64, T)> {
    let mut out: Vec<(f64, T)> = Vec::new();
    let mut total = 0.0;
    loop {
        let (secs, value) = timed(&mut pass);
        total += secs;
        out.push((secs, value));
        let estimate = median(&out.iter().map(|(s, _)| *s).collect::<Vec<_>>());
        if total + estimate > seconds {
            return out;
        }
    }
}

/// Median of `values` (mean of the middle two for even counts; 0 if empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fixed host-speed probe: median seconds of five runs of a constant
/// integer-mixing loop over a 256 KiB table. The work never changes, so
/// a drift in this number between two run sets is the host, not the code.
#[must_use]
pub fn host_calibration() -> f64 {
    let table: Vec<u64> = (0..32_768u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| {
                let mut x = 0x2545_F491_4F6C_DD1Du64;
                for _ in 0..8_000_000u32 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x = x.wrapping_add(table[(x as usize) & (table.len() - 1)]);
                }
                black_box(x)
            })
            .0
        })
        .collect();
    median(&runs)
}

/// Seconds one cell span costs: the time per empty [`timed`] call,
/// median of five batches.
#[must_use]
pub fn span_cost() -> f64 {
    const CALLS: u32 = 100_000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let (secs, ()) = timed(|| {
                for _ in 0..CALLS {
                    black_box(timed(|| black_box(0u8)));
                }
            });
            secs / f64::from(CALLS)
        })
        .collect();
    median(&batches)
}

/// FNV-1a digest over the `Debug` form of simulated results: every
/// modeled statistic is part of the `Debug` output and no host time is,
/// so two commits that model the same thing print the same digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one result into the digest.
    pub fn fold(&mut self, value: &impl Debug) {
        for byte in format!("{value:?}").bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_cells_are_counted_and_logged() {
        let mut tally = Tally::default();
        assert_eq!(tally.cell("ok", || Ok::<_, String>(1)), Some(1));
        assert_eq!(tally.cell("err", || Err::<u32, _>("audit failed".to_string())), None);
        assert_eq!(tally.cell("panic", || -> Result<u32, String> { panic!("fault") }), None);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(!tally.correct());
        assert!(tally.failures[1].contains("fault"), "{:?}", tally.failures);
    }

    #[test]
    fn closed_loop_runs_at_least_once_and_stops_before_the_budget() {
        assert_eq!(closed_loop(0.0, || 7).len(), 1);
        let passes = closed_loop(0.2, || std::thread::sleep(std::time::Duration::from_millis(1)));
        let total: f64 = passes.iter().map(|p| p.0).sum();
        let last = passes.last().expect("at least one pass").0;
        assert!(passes.len() > 1, "{} passes", passes.len());
        assert!(total <= 0.2 + last, "{total} s over a 0.2 s budget");
    }

    #[test]
    fn a_span_costs_more_than_nothing_and_less_than_a_millisecond() {
        let cost = span_cost();
        assert!(cost > 0.0 && cost < 1e-3, "{cost} s per span");
    }

    #[test]
    fn median_and_digest_are_exact() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.fold(&(1u64, "x"));
        b.fold(&(1u64, "x"));
        assert_eq!(a, b);
        b.fold(&2u8);
        assert_ne!(a, b);
    }
}
