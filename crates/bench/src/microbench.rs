//! A tiny self-contained benchmark harness.
//!
//! The build environment for this workspace has no access to a crates
//! registry, so the `benches/` targets cannot use criterion. This module
//! provides the small subset we need: warmup, automatic iteration-count
//! calibration, median-of-samples timing, and machine-readable output.
//!
//! Every [`Runner`] prints one `ns/iter` line per benchmark to stdout and, on
//! [`Runner::finish`], writes `results/bench_<name>.json` (honoring
//! `VENICE_RESULTS_DIR`) so successive runs leave a comparable perf
//! trajectory on disk.

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
    ///
    /// Calibration: `f` is run repeatedly, doubling the iteration count until
    /// one batch exceeds ~1/5 of the sample budget; that count is then used
    /// for `self.samples` timed samples and the median is reported.
    pub fn bench<F: FnMut()>(&mut self, name: &str, mut f: F) {
        // Warmup + calibration.
        let mut iters: u64 = 1;
        let calib_floor = self.sample_budget / 5;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = t.elapsed();
            if elapsed >= calib_floor || iters >= 1 << 30 {
                break;
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
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        println!(
            "bench {:<44} {:>14.1} ns/iter  ({} iters x {} samples)",
            format!("{}::{}", self.target, name),
            median,
            iters,
            self.samples
        );
        self.measurements.push(Measurement {
            name: name.to_string(),
            ns_per_iter: median,
            iters_per_sample: iters,
            samples: self.samples,
        });
    }

    /// The ns/iter of the most recent [`Runner::bench`] call, if any —
    /// for benches that post-process their own timings (e.g. into
    /// events/sec) on top of the recorded trajectory.
    pub fn last_ns_per_iter(&self) -> Option<f64> {
        self.measurements.last().map(|m| m.ns_per_iter)
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

/// The perf-smoke gate shared by the ratio benches (`dispatch_scan`,
/// `scout_walk`): compares each measured `(scenario name, speedup)` ratio
/// against the matching `"name"`/`"speedup"` pair in the checked-in
/// baseline file and **exits the process with status 1** when any scenario
/// fell below `floor_fraction` of its baseline ratio, or the baseline is
/// malformed. Speedups are wall-clock ratios on the same machine and
/// binary, so the gate is robust to absolute machine speed. A missing
/// baseline skips the gate (first run on a fresh machine);
/// `VENICE_PERF_WARN_ONLY=1` downgrades failures to warnings on noisy
/// runners.
pub fn enforce_speedup_baseline(
    bench: &str,
    baseline_path: &Path,
    speedups: &[(String, f64)],
    floor_fraction: f64,
) {
    let Ok(baseline) = std::fs::read_to_string(baseline_path) else {
        println!(
            "no baseline at {}; skipping regression gate",
            baseline_path.display()
        );
        return;
    };
    let warn_only = std::env::var("VENICE_PERF_WARN_ONLY").is_ok();
    let scenarios = read_array(&baseline, "scenarios");
    if let Err(e) = &scenarios {
        eprintln!("malformed baseline {}: {e}", baseline_path.display());
    }
    let mut regressed = scenarios.is_err();
    for scenario in scenarios.iter().flatten() {
        let (Some(name), Some(base)) = (
            scenario.get("name").and_then(Json::as_str),
            scenario.get("speedup").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let Some((_, now)) = speedups.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let floor = base * floor_fraction;
        if *now < floor {
            regressed = true;
            eprintln!(
                "PERF REGRESSION {name}: speedup {now:.2}x < {floor:.2}x \
                 (baseline {base:.2}x - {:.0}%)",
                (1.0 - floor_fraction) * 100.0
            );
        } else {
            println!("perf-smoke {name}: {now:.2}x vs baseline {base:.2}x ok");
        }
    }
    if regressed {
        if warn_only {
            eprintln!("VENICE_PERF_WARN_ONLY set: reporting only");
        } else {
            eprintln!(
                "{bench} perf-smoke failed (set VENICE_PERF_WARN_ONLY=1 on noisy runners)"
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in perf baselines read back the exact `(name, speedup)`
    /// pairs the gates compare, and a torn baseline is an error.
    #[test]
    fn checked_in_baselines_read_back_exactly() {
        let dispatch = include_str!("../../../results/bench_dispatch_baseline.json");
        let scout = include_str!("../../../results/bench_scout_baseline.json");
        let pairs = |json| -> Vec<(String, f64)> {
            let scenarios = read_array(json, "scenarios").expect("baseline parses");
            let name = |s: &Json| s.get("name").and_then(Json::as_str).map(str::to_string);
            let speedup = |s: &Json| s.get("speedup").and_then(Json::as_f64);
            scenarios.iter().map(|s| name(s).zip(speedup(s)).expect("name and speedup")).collect()
        };
        let names = ["8x8_venice", "16x16_nossd", "16x16_venice_auto", "32x32_nossd", "8x8_baseline"];
        let expected = names.iter().zip([1.05, 2.3, 1.1, 5.5, 2.78]);
        let expected: Vec<_> = expected.map(|(n, s)| (format!("congested_{n}"), s)).collect();
        assert_eq!(pairs(dispatch), expected);
        let scout_pairs = pairs(scout);
        assert_eq!(scout_pairs.len(), 5);
        assert_eq!(scout_pairs[4], ("congested_32x32_venice_auto".into(), 1.008));
        assert!(read_array(&scout[..scout.len() / 2], "scenarios").is_err());
    }
}
