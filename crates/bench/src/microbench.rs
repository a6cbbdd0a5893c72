//! A tiny self-contained benchmark harness.
//!
//! The build environment for this workspace has no access to a crates
//! registry, so the `benches/` targets cannot use criterion. This module
//! provides the small subset we need: warmup, automatic iteration-count
//! calibration, median-of-samples timing, paired timing of two engines in
//! alternating batches ([`Runner::bench_pair`]), and machine-readable
//! output.
//!
//! Every [`Runner`] prints one `ns/iter` line per benchmark to stdout and, on
//! [`Runner::finish`], writes `results/bench_<name>.json` (honoring
//! `VENICE_RESULTS_DIR`) so successive runs leave a comparable perf
//! trajectory on disk.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use venice_ssd::report::Json;

/// One measured benchmark result.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Median wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// What [`Runner::bench_pair`] measured of engines A and B.
#[derive(Clone, Copy, Debug)]
pub struct Paired {
    /// Median wall-clock nanoseconds per iteration of A and of B.
    pub ns_per_iter: [f64; 2],
    /// Median over rounds of B's time per iteration over A's in the same
    /// round: how many times faster A ran.
    pub speedup: f64,
}

/// The median of `values` (the upper one of an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// Collects measurements for one bench target and writes them out as JSON.
pub struct Runner {
    target: String,
    measurements: Vec<Measurement>,
    /// Target wall-clock budget for one sample.
    sample_budget: Duration,
    /// Timed samples per benchmark (the median is reported).
    samples: usize,
}

impl Runner {
    /// Creates a runner for the bench target `target` (used in the output
    /// file name `bench_<target>.json`).
    pub fn new(target: &str) -> Self {
        Runner {
            target: target.to_string(),
            measurements: Vec::new(),
            sample_budget: Duration::from_millis(50),
            samples: 7,
        }
    }

    /// Overrides the per-sample time budget (larger = steadier numbers).
    pub fn sample_budget(mut self, budget: Duration) -> Self {
        self.sample_budget = budget;
        self
    }

    /// Times `f`, printing a `ns/iter` line and recording the measurement.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) {
        self.measure(name, |iters| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed()
        });
    }

    /// Times engine A against engine B on one scenario, each iteration on
    /// a fresh input from `setup(side)` (0 for A, 1 for B) with only
    /// `routine` inside the timer, so it suits routines that run for
    /// milliseconds, such as a whole simulation built by `setup`. Both
    /// sides are calibrated first; then each of `self.samples` rounds times
    /// one batch of each, alternating which goes first (A B, B A, ...), so
    /// a swing in machine speed lands on both sides of a round instead of
    /// between two blocks of samples. Records one measurement per side,
    /// named `<scenario>_<tag>`.
    pub fn bench_pair<S, R>(
        &mut self,
        scenario: &str,
        tags: [&str; 2],
        mut setup: impl FnMut(usize) -> S,
        mut routine: impl FnMut(S) -> R,
    ) -> Paired {
        let mut timed = |side: usize, iters: u64| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let input = setup(side);
                let t = Instant::now();
                black_box(routine(black_box(input)));
                total += t.elapsed();
            }
            total
        };
        let iters = [0, 1].map(|side| self.calibrate(|n| timed(side, n)));
        let mut per_iter: [Vec<f64>; 2] = Default::default();
        let mut ratios = Vec::new();
        for round in 0..self.samples {
            let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let ns = timed(side, iters[side]).as_nanos() as f64 / iters[side] as f64;
                per_iter[side].push(ns);
            }
            ratios.push(per_iter[1][round] / per_iter[0][round]);
        }
        let [a, b] = per_iter;
        let ns_per_iter = [
            self.record(&format!("{scenario}_{}", tags[0]), a, iters[0]),
            self.record(&format!("{scenario}_{}", tags[1]), b, iters[1]),
        ];
        Paired {
            ns_per_iter,
            speedup: median(ratios),
        }
    }

    /// Calibrates and samples `timed`, which runs the given number of
    /// iterations and returns the time they took, then records the median
    /// of `self.samples` timed batches per iteration.
    fn measure(&mut self, name: &str, mut timed: impl FnMut(u64) -> Duration) {
        let iters = self.calibrate(&mut timed);
        let per_iter = (0..self.samples)
            .map(|_| timed(iters).as_nanos() as f64 / iters as f64)
            .collect();
        self.record(name, per_iter, iters);
    }

    /// Warmup and calibration: the iteration count of `timed` grows until
    /// one batch exceeds ~1/5 of the sample budget.
    fn calibrate(&self, mut timed: impl FnMut(u64) -> Duration) -> u64 {
        let mut iters: u64 = 1;
        let calib_floor = self.sample_budget / 5;
        loop {
            let elapsed = timed(iters);
            if elapsed >= calib_floor || iters >= 1 << 30 {
                return iters;
            }
            // Aim straight for the budget once we have a usable estimate.
            iters = if elapsed.is_zero() {
                iters * 2
            } else {
                let scale = self.sample_budget.as_secs_f64() / elapsed.as_secs_f64();
                (iters as f64 * scale.clamp(1.5, 16.0)) as u64
            }
            .max(iters + 1);
        }
    }

    /// Prints a `ns/iter` line for the median of `per_iter` (batches of
    /// `iters` iterations), records it as a measurement and returns it.
    fn record(&mut self, name: &str, per_iter: Vec<f64>, iters: u64) -> f64 {
        let samples = per_iter.len();
        let median = median(per_iter);
        println!(
            "bench {:<44} {:>14.1} ns/iter  ({} iters x {} samples)",
            format!("{}::{}", self.target, name),
            median,
            iters,
            samples
        );
        self.measurements.push(Measurement {
            name: name.to_string(),
            ns_per_iter: median,
            iters_per_sample: iters,
            samples,
        });
        median
    }

    /// Writes `results/bench_<target>.json` and returns the measurements:
    /// `[{"name": ..., "ns_per_iter": ..., "iters": ..., "samples": ...}]`,
    /// one measurement per line.
    pub fn finish(self) -> Vec<Measurement> {
        let measurement = |m: &Measurement| {
            Json::object()
                .with("name", m.name.as_str())
                .with("ns_per_iter", Json::fixed(m.ns_per_iter, 1))
                .with("iters", m.iters_per_sample)
                .with("samples", m.samples as u64)
        };
        let json = Json::Array(self.measurements.iter().map(measurement).collect());
        crate::write_result(&format!("bench_{}", self.target), &json);
        self.measurements
    }
}

/// The array at `key` of a JSON document: the `scenarios` of a ratio-bench
/// artifact or baseline (`{"bench": .., "scenarios": [{"name": ..,
/// "speedup": ..}]}`), the `entries` of a `BENCH_*.json` ledger.
///
/// # Errors
///
/// Says why when the document does not parse or has no such array.
pub fn read_array(json: &str, key: &str) -> Result<Vec<Json>, String> {
    match Json::parse(json)?.get(key) {
        Some(Json::Array(items)) => Ok(items.clone()),
        _ => Err(format!("no {key} array")),
    }
}

/// The `(name, speedup)` pairs of a ratio-bench artifact or baseline.
///
/// # Errors
///
/// Says why when the document does not parse, or a scenario lacks its name
/// or speedup.
fn read_speedups(json: &str) -> Result<Vec<(String, f64)>, String> {
    let pair = |s: &Json| {
        let name = s.get("name").and_then(Json::as_str).map(str::to_string);
        let speedup = s.get("speedup").and_then(Json::as_f64);
        name.zip(speedup)
            .ok_or_else(|| format!("scenario without name and speedup: {s}"))
    };
    read_array(json, "scenarios")?.iter().map(pair).collect()
}

/// Compares measured `(scenario name, speedup)` ratios with the pairs of a
/// ratio-bench baseline document, one verdict per scenario: `Ok` with a
/// report line when it held, `Err` with the reason when it failed. A
/// scenario fails when its speedup fell below `floor_fraction` of the
/// baseline's, and also when only one side names it: a renamed, added or
/// dropped scenario needs a new baseline entry, or the gate would stop
/// checking it. A missing (`None`: absent or unreadable) or malformed
/// baseline fails as a whole.
fn speedup_verdicts(
    baseline: Option<&str>,
    speedups: &[(String, f64)],
    floor_fraction: f64,
) -> Vec<Result<String, String>> {
    let Some(baseline) = baseline else {
        return vec![Err("no readable baseline".into())];
    };
    let baseline = match read_speedups(baseline) {
        Ok(pairs) => pairs,
        Err(e) => return vec![Err(format!("malformed baseline: {e}"))],
    };
    let mut verdicts = Vec::new();
    for (name, base) in &baseline {
        let floor = base * floor_fraction;
        verdicts.push(match speedups.iter().find(|(n, _)| n == name) {
            None => Err(format!("{name}: in the baseline but not measured")),
            Some((_, now)) if *now < floor => Err(format!(
                "PERF REGRESSION {name}: speedup {now:.2}x < {floor:.2}x \
                 (baseline {base:.2}x - {:.0}%)",
                (1.0 - floor_fraction) * 100.0
            )),
            Some((_, now)) => Ok(format!(
                "perf-smoke {name}: {now:.2}x vs baseline {base:.2}x ok"
            )),
        });
    }
    for (name, _) in speedups {
        if !baseline.iter().any(|(n, _)| n == name) {
            verdicts.push(Err(format!("{name}: measured but not in the baseline")));
        }
    }
    verdicts
}

/// The perf-smoke gate shared by the ratio benches (`dispatch_scan`,
/// `scout_walk`): prints a verdict per scenario of `speedups` against the
/// checked-in baseline file and **exits the process with status 1** when
/// any scenario fell below `floor_fraction` of its baseline speedup, is
/// named by only one side, or the baseline is missing, unreadable or
/// malformed. Speedups are wall-clock ratios on the same machine and
/// binary, so the gate is robust to absolute machine speed.
pub fn enforce_speedup_baseline(
    bench: &str,
    baseline_path: &Path,
    speedups: &[(String, f64)],
    floor_fraction: f64,
) {
    let baseline = std::fs::read_to_string(baseline_path).ok();
    let mut failed = false;
    for verdict in speedup_verdicts(baseline.as_deref(), speedups, floor_fraction) {
        match verdict {
            Ok(line) => println!("{line}"),
            Err(why) => {
                failed = true;
                eprintln!("{why}");
            }
        }
    }
    if failed {
        eprintln!(
            "{bench} perf-smoke failed against {}",
            baseline_path.display()
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"bench": "b", "scenarios": [
        {"name": "alpha", "speedup": 2.0},
        {"name": "beta", "speedup": 1.0}
    ]}"#;

    /// A paired run records both sides as `<scenario>_<tag>` and reports how
    /// many times faster A ran than B, which does 20× the work.
    #[test]
    fn bench_pair_reports_how_many_times_faster_a_ran() {
        let mut r = Runner::new("t").sample_budget(Duration::from_millis(2));
        let spin = |n: u64| (0..n).fold(0u64, |acc, i| black_box(acc ^ i));
        let work = |side: usize| 1_000 * (1 + 19 * side as u64);
        let paired = r.bench_pair("s", ["fast", "slow"], work, spin);
        let names: Vec<&str> = r.measurements.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["s_fast", "s_slow"]);
        assert!(paired.speedup > 2.0, "{paired:?}");
        let [a, b] = paired.ns_per_iter;
        assert!(b > 2.0 * a, "{paired:?}");
    }

    /// The verdicts of `measured` against [`BASELINE`] at a 0.7 floor.
    fn verdicts(measured: &[(&str, f64)]) -> Vec<Result<String, String>> {
        let speedups: Vec<(String, f64)> = measured.iter().map(|&(n, s)| (n.into(), s)).collect();
        speedup_verdicts(Some(BASELINE), &speedups, 0.7)
    }

    #[test]
    fn speedup_gate_passes_scenarios_above_the_floor() {
        let v = verdicts(&[("beta", 0.75), ("alpha", 5.0)]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(Result::is_ok), "{v:?}");
    }

    #[test]
    fn speedup_gate_fails_a_regression() {
        let v = verdicts(&[("alpha", 1.3), ("beta", 1.0)]);
        assert!(
            v[0].as_ref()
                .is_err_and(|e| e.starts_with("PERF REGRESSION alpha")),
            "{v:?}"
        );
        assert!(v[1].is_ok());
    }

    /// A renamed scenario leaves the old name unmeasured and the new one
    /// unbaselined: both fail, so a rename cannot drop out of the gate.
    #[test]
    fn speedup_gate_fails_a_renamed_scenario() {
        let v = verdicts(&[("alpha", 2.0), ("beta_v2", 1.0)]);
        let failed: Vec<String> = v.into_iter().filter_map(Result::err).collect();
        assert_eq!(
            failed,
            [
                "beta: in the baseline but not measured",
                "beta_v2: measured but not in the baseline"
            ]
        );
    }

    /// A scenario the baseline lacks, an entry without a speedup and a torn
    /// baseline all fail.
    #[test]
    fn speedup_gate_fails_missing_entries() {
        let v = verdicts(&[("alpha", 2.0), ("beta", 1.0), ("gamma", 9.0)]);
        assert_eq!(v[2], Err("gamma: measured but not in the baseline".into()));
        assert_eq!(v.iter().filter(|v| v.is_err()).count(), 1);
        let no_speedup = r#"{"scenarios": [{"name": "alpha"}]}"#;
        let v = speedup_verdicts(Some(no_speedup), &[("alpha".into(), 2.0)], 0.7);
        assert!(v.len() == 1 && v[0].as_ref().is_err_and(|e| e.contains("without name")));
        let v = speedup_verdicts(Some(&BASELINE[..20]), &[("alpha".into(), 2.0)], 0.7);
        assert!(v.len() == 1 && v[0].as_ref().is_err_and(|e| e.starts_with("malformed")));
    }

    /// A missing or unreadable baseline fails the gate; it used to skip it.
    #[test]
    fn speedup_gate_fails_without_a_baseline() {
        let v = speedup_verdicts(None, &[("alpha".into(), 2.0)], 0.7);
        assert_eq!(v, [Err("no readable baseline".to_string())]);
    }

    /// The checked-in perf baselines read back the exact `(name, speedup)`
    /// pairs the gates compare, and a torn baseline is an error.
    #[test]
    fn checked_in_baselines_read_back_exactly() {
        let dispatch = include_str!("../../../results/bench_dispatch_baseline.json");
        let scout = include_str!("../../../results/bench_scout_baseline.json");
        let pairs = |json| read_speedups(json).expect("baseline reads");
        let expected = |names: [&str; 5], speedups: [f64; 5]| -> Vec<(String, f64)> {
            let pairs = names.iter().zip(speedups);
            pairs.map(|(n, s)| (format!("congested_{n}"), s)).collect()
        };
        let names = [
            "8x8_venice",
            "16x16_nossd",
            "16x16_venice_auto",
            "32x32_nossd",
            "8x8_baseline",
        ];
        let speedups = [1.308, 3.912, 1.479, 8.504, 4.241];
        assert_eq!(pairs(dispatch), expected(names, speedups));
        let names = [
            "16x16_venice",
            "16x16_venice_qd32",
            "32x32_venice",
            "32x32_venice_qd64",
            "32x32_venice_auto",
        ];
        let speedups = [1.366, 1.567, 1.354, 1.57, 1.012];
        assert_eq!(pairs(scout), expected(names, speedups));
        assert!(read_speedups(&scout[..scout.len() / 2]).is_err());
    }
}
