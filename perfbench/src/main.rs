//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --fingerprints <first>..<last> [--workload <name>]
//! ```
//!
//! `--trace 0` runs the workload's points in passes for `--seconds` host
//! seconds and prints the end-to-end metrics (host-time medians over runs
//! and passes, and the deterministic simulated metrics). Pass `k` runs sub-seed
//! `k mod SUBSEEDS` of the seed, so one run covers several traces per
//! workload. `--trace 1` alternates an untraced pass with a traced pass plus
//! the layer replays, all on sub-seed 0, and prints the per-layer metrics.
//! Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--fingerprints` prints
//! the gate's pinned-fingerprint lines for a seed range. See `README.md` for
//! the workloads and what each metric predicts.

mod gate;
mod heap;
mod replay;
mod spans;
mod workloads;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use venice_interconnect::{FabricKind, ScoutCacheKind};
use venice_sim::stats::geometric_mean;
use venice_ssd::{RunMetrics, SsdConfig, SsdSim};
use venice_workloads::Trace;

use replay::{PointReplay, TraceReplay};
use spans::Recorder;
use workloads::{Point, Workload, DEFAULT_SEED, SUBSEEDS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Metric keys of the fabrics, for `core.run_s.<key>` and
/// `core.ns_per_event.<key>` (zero where a workload has no such point).
const FABRIC_KEYS: [&str; 7] = [
    "baseline",
    "pssd",
    "pnssd",
    "nossd",
    "venice",
    "venice_cache",
    "ideal",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    fingerprints: Option<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        fingerprints: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--fingerprints" => {
                let v = value()?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or("--fingerprints takes <first>..<last>")?;
                let parse = |s: &str| s.parse::<u64>().map_err(|e| format!("--fingerprints: {e}"));
                args.fingerprints = Some((parse(a)?, parse(b)?));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((first, last)) = args.fingerprints {
        return print_fingerprints(args.workload.as_deref(), first, last);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!(
            "perfbench: --workload is required ({}); default seed {DEFAULT_SEED}, held-out seed {}",
            workloads::NAMES.join(", "),
            workloads::HELD_OUT_SEED
        );
        return ExitCode::from(2);
    };
    let Some(workload) = Workload::by_name(name) else {
        eprintln!(
            "perfbench: unknown workload {name} ({})",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut bench = Bench::new(workload, args.seed);
    let metrics = if args.trace {
        bench.traced(args.seconds)
    } else {
        bench.end_to_end(args.seconds)
    };
    bench.report(&metrics);
    ExitCode::SUCCESS
}

/// Host seconds an untraced pass spends on each point's runs, at least:
/// this share of `PASS_TARGET_S`. A point that finishes sooner is built and
/// run again on the same trace, so a cheap point's time is a median over
/// several runs rather than one window of a few milliseconds.
const PASS_TARGET_S: f64 = 4.0;
/// The most runs of one point in one pass.
const MAX_REPS: usize = 40;

/// One point's runs within a pass.
struct PointRun {
    /// `None` when the engine panicked or the gate rejected the run.
    metrics: Option<RunMetrics>,
    /// Runs made, and whether a later run's metrics differed from the first's.
    reps: u64,
    diverged: bool,
    /// Host seconds of each run's `SsdSim::new`, and the median of their
    /// `SsdSim::run`.
    new_s: Vec<f64>,
    run_s: f64,
    /// Largest heap high-water mark of one run (see `heap`), bytes.
    heap_bytes: usize,
}

/// A point's runs so far in a pass.
#[derive(Default)]
struct Runs {
    first: Option<RunMetrics>,
    diverged: bool,
    panicked: bool,
    new_s: Vec<f64>,
    run_s: Vec<f64>,
    heap_bytes: usize,
}

impl Runs {
    /// Records one run: its metrics, host seconds of `new` and `run` and
    /// heap high-water mark, or `None` when it panicked.
    fn add(&mut self, outcome: Option<(RunMetrics, f64, f64, usize)>) {
        let Some((m, new_s, run_s, heap_bytes)) = outcome else {
            self.panicked = true;
            return;
        };
        self.new_s.push(new_s);
        self.run_s.push(run_s);
        self.heap_bytes = self.heap_bytes.max(heap_bytes);
        match &self.first {
            None => self.first = Some(m),
            Some(f) => self.diverged |= *f != m,
        }
    }

    /// Further runs needed for the runs to add up to `point_s` host
    /// seconds, within `MAX_REPS`; none once a run failed.
    fn wanted(&self, point_s: f64) -> usize {
        if self.panicked || self.diverged || self.run_s.is_empty() {
            return 0;
        }
        let total: f64 = self.run_s.iter().sum();
        let each = total / self.run_s.len() as f64;
        // `as` saturates: an unmeasurably short run wants `MAX_REPS`.
        let more = ((point_s - total) / each).ceil().max(0.0) as usize;
        more.min(MAX_REPS.saturating_sub(self.run_s.len()))
    }

    fn finish(self) -> PointRun {
        PointRun {
            metrics: if self.panicked { None } else { self.first },
            // A panicking run counts as a run made.
            reps: self.run_s.len() as u64 + u64::from(self.panicked),
            diverged: self.diverged,
            new_s: self.new_s,
            run_s: median(self.run_s),
            heap_bytes: self.heap_bytes,
        }
    }
}

/// One pass: one sub-seed's traces, and every point run on them.
struct Pass {
    traces: Vec<Trace>,
    gen_s: f64,
    runs: Vec<PointRun>,
}

/// One (sub-seed, point) of an end-to-end run: its gated counts and the
/// median run seconds of every pass that ran it.
#[derive(Clone, Default)]
struct Cell {
    events: u64,
    requests: u64,
    run_s: Vec<f64>,
}

/// `num` over the cells of points `keep` selects, divided by the sum of
/// their median run seconds: each sub-seed's traces weigh the same however
/// many passes ran them, and one slow pass moves a cell's median little.
fn cell_rate(
    cells: &[Vec<Cell>],
    points: &[Point],
    keep: fn(&Point) -> bool,
    num: fn(&Cell) -> u64,
) -> f64 {
    let (mut n, mut s) = (0u64, 0.0);
    for row in cells {
        for (cell, p) in row.iter().zip(points) {
            if keep(p) && !cell.run_s.is_empty() {
                n += num(cell);
                s += median(cell.run_s.clone());
            }
        }
    }
    ratio(n as f64, s)
}

/// Times `f`, inside a span when a recorder is given.
fn timed<T>(
    rec: Option<&mut Recorder>,
    name: &'static str,
    point: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match rec {
        Some(rec) => {
            let span = rec.enter(name, point);
            let value = f();
            (value, rec.exit(span))
        }
        None => {
            let start = Instant::now();
            let value = f();
            (value, start.elapsed().as_secs_f64())
        }
    }
}

/// The simulated end-to-end metrics, gathered over one pass per sub-seed.
#[derive(Default)]
struct Simulated {
    /// Baseline ÷ Venice execution time, per trace.
    speedups: Vec<f64>,
    /// Venice p99 latency in µs, per trace.
    p99_us: Vec<f64>,
    conflicted: u64,
    completed: u64,
}

impl Simulated {
    fn add(&mut self, w: &Workload, pass: &Pass) {
        let exec = |t: usize, keep: fn(&Point) -> bool| {
            w.points
                .iter()
                .zip(&pass.runs)
                .find(|(p, _)| p.trace == t && keep(p))
                .and_then(|(_, r)| r.metrics.as_ref())
        };
        for t in 0..w.traces.len() {
            let bus = exec(t, |p| p.kind == FabricKind::Baseline);
            let Some(venice) = exec(t, Point::is_venice) else {
                continue;
            };
            if let Some(bus) = bus {
                self.speedups.push(venice.speedup_over(bus));
            }
            self.p99_us.push(venice.clone().p99().as_micros_f64());
            self.conflicted += venice.conflicted_requests;
            self.completed += venice.completed_requests;
        }
    }
}

struct Bench {
    workload: Workload,
    seed: u64,
    /// Fingerprint each point label must reproduce: pinned, or its first
    /// run's in this process.
    expected: HashMap<String, u64>,
    /// Point labels run, and failed runs per failing label.
    seen: BTreeSet<String>,
    failures: BTreeMap<String, u64>,
    attempted: u64,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Self {
        let expected = gate::pinned(workload.name, seed);
        Bench {
            workload,
            seed,
            expected,
            seen: BTreeSet::new(),
            failures: BTreeMap::new(),
            attempted: 0,
        }
    }

    /// Generates sub-seed `sub`'s traces and runs every point on them,
    /// gating each run. Each point runs again until its runs add up to
    /// `point_s` host seconds (at most `MAX_REPS` runs); `0.0` runs it once.
    fn pass(&mut self, sub: u64, mut rec: Option<&mut Recorder>, point_s: f64) -> Pass {
        let w = &self.workload;
        let trace_seed = workloads::trace_seed(self.seed, sub);
        let pass_span = rec.as_deref_mut().map(|r| r.enter("bench.pass", None));
        let (traces, gen_s) = timed(rec.as_deref_mut(), "workloads.generate", None, || {
            w.traces
                .iter()
                .map(|t| t.generate(trace_seed))
                .collect::<Vec<_>>()
        });
        let configs: Vec<SsdConfig> = w
            .points
            .iter()
            .map(|p| w.point_config(p, &traces[p.trace]))
            .collect();
        let mut run_once = |i: usize, runs: &mut Runs| {
            let point = &w.points[i];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let base = heap::mark();
                let (sim, new_s) = timed(rec.as_deref_mut(), "core.new", Some(i), || {
                    SsdSim::new(configs[i].clone(), point.kind, &traces[point.trace])
                });
                let (m, run_s) = timed(rec.as_deref_mut(), "core.run", Some(i), || sim.run());
                (m, new_s, run_s, heap::peak_above(base))
            }));
            runs.add(outcome.ok());
        };
        let n = w.points.len();
        let mut runs: Vec<Runs> = (0..n).map(|_| Runs::default()).collect();
        for i in 0..n {
            run_once(i, &mut runs[i]);
            // The further runs of the points started so far are spread over
            // this slot and the one after each later point's first run, so
            // a short point's samples span the pass.
            let slots = n - i;
            for (j, r) in runs.iter_mut().enumerate().take(i + 1) {
                for _ in 0..r.wanted(point_s).div_ceil(slots) {
                    run_once(j, r);
                }
            }
        }
        let mut runs: Vec<PointRun> = runs.into_iter().map(Runs::finish).collect();
        if let (Some(rec), Some(span)) = (rec, pass_span) {
            rec.exit(span);
        }
        self.gate(sub, &traces, &mut runs);
        Pass {
            traces,
            gen_s,
            runs,
        }
    }

    /// Applies the correctness gate to a pass's runs; a failing run loses
    /// its metrics so no aggregate uses it.
    fn gate(&mut self, sub: u64, traces: &[Trace], runs: &mut [PointRun]) {
        let w = &self.workload;
        let labels: Vec<String> = w.points.iter().map(|p| w.label(p, sub)).collect();
        let mut verdicts: Vec<Result<(), String>> = runs
            .iter()
            .zip(&w.points)
            .zip(&labels)
            .map(|((run, p), label)| match &run.metrics {
                None => Err("engine panicked".into()),
                Some(_) if run.diverged => Err("runs on the same trace differed".into()),
                Some(m) => gate::check(m, traces[p.trace].len(), self.expected.get(label).copied()),
            })
            .collect();
        for (i, p) in w.points.iter().enumerate() {
            if p.cache == ScoutCacheKind::Off {
                continue;
            }
            let twin = w.points.iter().position(|q| {
                q.trace == p.trace && q.kind == p.kind && q.cache == ScoutCacheKind::Off
            });
            if let (Some(j), Some(on)) = (twin, &runs[i].metrics) {
                if let Some(off) = &runs[j].metrics {
                    if let Err(e) = gate::check_cache_twin(on, off) {
                        verdicts[i] = Err(e);
                    }
                }
            }
        }
        for ((run, verdict), label) in runs.iter_mut().zip(verdicts).zip(labels) {
            self.attempted += run.reps;
            match verdict {
                Ok(()) => {
                    let m = run.metrics.as_ref().expect("passed runs have metrics");
                    self.expected
                        .entry(label.clone())
                        .or_insert(gate::fingerprint(m));
                }
                Err(e) => {
                    eprintln!("perfbench: point {label} failed: {e}");
                    *self.failures.entry(label.clone()).or_insert(0) += run.reps;
                    run.metrics = None;
                }
            }
            self.seen.insert(label);
        }
    }

    /// The `--trace 0` measurement: passes until `seconds` have elapsed
    /// and every sub-seed has run once. A rate divides the work of every
    /// (sub-seed, point) by the median of its run seconds over the passes
    /// (see [`cell_rate`]). `setup_s` adds the median trace generation of a
    /// pass to each point's median `SsdSim::new` over all its runs. The
    /// simulated metrics cover each sub-seed's traces once.
    fn end_to_end(&mut self, seconds: f64) -> Vec<Metric> {
        let start = Instant::now();
        let n = self.workload.points.len();
        let point_s = PASS_TARGET_S / n as f64;
        let mut gen_s = Vec::new();
        let mut new_s = vec![Vec::new(); n];
        let mut heap_bytes = 0;
        let mut cells = vec![vec![Cell::default(); n]; SUBSEEDS as usize];
        let mut sim = Simulated::default();
        let mut passes = 0;
        while passes < SUBSEEDS || start.elapsed().as_secs_f64() < seconds {
            let sub = passes % SUBSEEDS;
            let pass = self.pass(sub, None, point_s);
            let (mut events, mut run_s) = (0, 0.0);
            for (cell, run) in cells[sub as usize].iter_mut().zip(&pass.runs) {
                if let Some(m) = &run.metrics {
                    cell.events = m.events;
                    cell.requests = m.completed_requests;
                    cell.run_s.push(run.run_s);
                    events += m.events;
                    run_s += run.run_s;
                }
            }
            eprintln!(
                "perfbench: pass {passes}: {:.0} events/s over {} runs",
                ratio(events as f64, run_s),
                pass.runs.iter().map(|r| r.reps).sum::<u64>()
            );
            gen_s.push(pass.gen_s);
            for (samples, run) in new_s.iter_mut().zip(&pass.runs) {
                samples.extend(&run.new_s);
            }
            heap_bytes = pass
                .runs
                .iter()
                .map(|r| r.heap_bytes)
                .fold(heap_bytes, usize::max);
            if passes < SUBSEEDS {
                sim.add(&self.workload, &pass);
            }
            passes += 1;
        }
        eprintln!(
            "perfbench: {passes} passes in {:.1} s",
            start.elapsed().as_secs_f64()
        );
        let setup_s = median(gen_s) + new_s.into_iter().map(median).sum::<f64>();
        let points = &self.workload.points;
        let all = |_: &Point| true;
        let events = |c: &Cell| c.events;
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "events_per_s",
                cell_rate(&cells, points, all, events),
                "1/s",
            ),
            Metric::new(
                "sim_requests_per_s",
                cell_rate(&cells, points, all, |c| c.requests),
                "1/s",
            ),
            Metric::new(
                "venice_events_per_s",
                cell_rate(&cells, points, Point::is_venice, events),
                "1/s",
            ),
            Metric::new("peak_heap_mb", heap_bytes as f64 / (1 << 20) as f64, "MB"),
            Metric::new(
                "venice_speedup",
                geometric_mean(sim.speedups.into_iter()),
                "x",
            ),
            Metric::new(
                "venice_p99_us",
                geometric_mean(sim.p99_us.into_iter()),
                "us",
            ),
            Metric::new(
                "venice_conflict_pct",
                ratio(sim.conflicted as f64, sim.completed as f64) * 100.0,
                "%",
            ),
        ]
    }

    /// The `--trace 1` measurement: untraced and traced passes alternate
    /// (the traced one followed by the layer replays) until `seconds` have
    /// elapsed, at least once.
    fn traced(&mut self, seconds: f64) -> Vec<Metric> {
        let start = Instant::now();
        let mut rec = Recorder::new();
        let timer_ns = replay::timer_overhead_ns();
        let n = self.workload.points.len();
        let mut untraced_run_s = 0.0;
        let mut iters = 0u32;
        let mut last: Option<Pass> = None;
        let mut point_replays: Vec<Vec<PointReplay>> = Vec::new();
        let mut trace_replays: Vec<Vec<TraceReplay>> = Vec::new();
        // Warm-up, so the first untraced pass is not charged for cold
        // caches and allocator growth in the overhead figure.
        self.pass(0, None, 0.0);
        while iters == 0 || start.elapsed().as_secs_f64() < seconds {
            let plain = self.pass(0, None, 0.0);
            untraced_run_s += plain.runs.iter().map(|r| r.run_s).sum::<f64>();
            drop(plain);
            let pass = self.pass(0, Some(&mut rec), 0.0);
            let w = &self.workload;
            let sized = |t: usize| {
                let p = w
                    .points
                    .iter()
                    .find(|p| p.trace == t)
                    .expect("trace has points");
                w.point_config(p, &pass.traces[t])
            };
            let span = rec.enter("bench.replay", None);
            let traces: Vec<TraceReplay> = (0..w.traces.len())
                .map(|t| replay::replay_trace(&mut rec, &sized(t), &pass.traces[t]))
                .collect();
            let points: Vec<PointReplay> = (0..n)
                .map(|i| {
                    let p = &w.points[i];
                    let cfg = w.point_config(p, &pass.traces[p.trace]);
                    let mut out = PointReplay::default();
                    let events = pass.runs[i].metrics.as_ref().map_or(0, |m| m.events);
                    replay::replay_point_calendar(&mut rec, i, &cfg, events, self.seed, &mut out);
                    let chips = &traces[p.trace].chips;
                    replay::replay_point_fabric(
                        &mut rec, i, &cfg, p.kind, chips, timer_ns, &mut out,
                    );
                    out
                })
                .collect();
            rec.exit(span);
            point_replays.push(points);
            trace_replays.push(traces);
            last = Some(pass);
            iters += 1;
        }
        let pass = last.expect("at least one traced iteration");
        let spans_path = self.write_spans(&rec);
        eprintln!(
            "perfbench: {iters} traced iterations in {:.1} s; spans in {}",
            start.elapsed().as_secs_f64(),
            spans_path.display()
        );
        let layers = spans::layer_self_s(rec.spans());
        println!("span self time per layer (all iterations):");
        for (layer, s) in &layers {
            println!("  {layer:<14} {s:>10.4} s");
        }
        let span_s = |name: &str, point: Option<usize>| {
            rec.spans()
                .iter()
                .filter(|s| s.name == name && s.point == point)
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                .sum::<f64>()
                / f64::from(iters)
        };
        let run_s: Vec<f64> = (0..n).map(|i| span_s("core.run", Some(i))).collect();
        let gen_s = span_s("workloads.generate", None);
        let traced_run_s: f64 = run_s.iter().sum::<f64>() * f64::from(iters);
        let layer = LayerInputs {
            workload: &self.workload,
            pass: &pass,
            run_s: &run_s,
            points: &point_replays,
            traces: &trace_replays,
        };
        layer.print_faithfulness();
        let mut metrics = layer.metrics(gen_s);
        metrics.push(Metric::new(
            "trace.overhead_pct",
            ratio(traced_run_s - untraced_run_s, untraced_run_s) * 100.0,
            "%",
        ));
        metrics
    }

    /// Writes the recorded spans under the build directory and returns
    /// the path.
    fn write_spans(&self, rec: &Recorder) -> PathBuf {
        let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("perfbench");
        let path = dir.join(format!(
            "spans_{}_seed{}.json",
            self.workload.name, self.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_json()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        path
    }

    /// Prints the metrics table, then the result line.
    fn report(&self, metrics: &[Metric]) {
        let failed: u64 = self.failures.values().sum();
        println!(
            "workload {}  seed {}  points {}  failed_points {}",
            self.workload.name,
            self.seed,
            self.seen.len(),
            self.failures.len()
        );
        for m in metrics {
            println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
        }
        let mut json = String::new();
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
            failed == 0,
            self.attempted,
        );
    }
}

/// One named metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        // A non-finite value would break the JSON; report it as zero.
        let value = if value.is_finite() { value } else { 0.0 };
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What the per-layer metrics are computed from: the last traced pass's
/// engine counts, the mean traced `core.run` seconds per point, and every
/// iteration's replays.
struct LayerInputs<'a> {
    workload: &'a Workload,
    pass: &'a Pass,
    run_s: &'a [f64],
    points: &'a [Vec<PointReplay>],
    traces: &'a [Vec<TraceReplay>],
}

impl LayerInputs<'_> {
    /// Seconds per call of a point replay (summed over iterations).
    fn point_ns(
        &self,
        i: usize,
        secs: fn(&PointReplay) -> f64,
        calls: fn(&PointReplay) -> u64,
    ) -> f64 {
        let s: f64 = self.points.iter().map(|it| secs(&it[i])).sum();
        let c: u64 = self.points.iter().map(|it| calls(&it[i])).sum();
        ratio(s, c as f64) * 1e9
    }

    /// Seconds per call of a trace replay (summed over iterations).
    fn trace_ns(
        &self,
        t: usize,
        secs: fn(&TraceReplay) -> f64,
        calls: fn(&TraceReplay) -> u64,
    ) -> f64 {
        let s: f64 = self.traces.iter().map(|it| secs(&it[t])).sum();
        let c: u64 = self.traces.iter().map(|it| calls(&it[t])).sum();
        ratio(s, c as f64) * 1e9
    }

    /// `(point index, engine metrics)` of the runs that passed the gate.
    fn runs(&self) -> impl Iterator<Item = (usize, &RunMetrics)> {
        self.pass
            .runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i, r.metrics.as_ref()?)))
    }

    fn print_faithfulness(&self) {
        println!("replay call counts vs the engine's own, per point:");
        println!(
            "  {:<30} {:>21} {:>21} {:>23} {:>17}",
            "point",
            "acquires replay/eng",
            "translates rep/eng",
            "queue ops replay/eng",
            "steps/acq rep/eng"
        );
        let last = self.points.last().expect("an iteration");
        let last_traces = self.traces.last().expect("an iteration");
        for (i, m) in self.runs() {
            let p = &self.workload.points[i];
            let r = &last[i];
            let attempts = r.acquire_ok + r.acquire_fail;
            println!(
                "  {:<30} {:>10}/{:<10} {:>10}/{:<10} {:>11}/{:<11} {:>8.1}/{:<8.1}",
                self.workload.label(p, 0),
                attempts,
                m.dispatch.attempts,
                last_traces[p.trace].reads,
                m.ftl.user_reads,
                r.calendar_events,
                m.events,
                ratio(r.scout_steps as f64, attempts as f64),
                ratio(m.fabric.scout_steps as f64, m.dispatch.attempts as f64),
            );
        }
    }

    fn metrics(&self, gen_s: f64) -> Vec<Metric> {
        let w = self.workload;
        let sum = |f: &dyn Fn(&RunMetrics) -> u64| self.runs().map(|(_, m)| f(m)).sum::<u64>();
        let count =
            |name: &str, f: &dyn Fn(&RunMetrics) -> u64| Metric::new(name, sum(f) as f64, "count");
        let run_total: f64 = self.runs().map(|(i, _)| self.run_s[i]).sum();
        // Estimated seconds a layer spends in the engine: engine calls ×
        // the replay's seconds per call, summed over points.
        let share = |est: &dyn Fn(usize, &RunMetrics) -> f64| {
            ratio(
                self.runs().map(|(i, m)| est(i, m)).sum::<f64>() * 1e-9,
                run_total,
            )
        };
        let trace_of = |i: usize| w.points[i].trace;
        let all_points = |secs: fn(&PointReplay) -> f64, calls: fn(&PointReplay) -> u64| {
            let s: f64 = self.points.iter().flatten().map(secs).sum();
            ratio(
                s,
                self.points.iter().flatten().map(calls).sum::<u64>() as f64,
            ) * 1e9
        };
        let all_traces = |secs: fn(&TraceReplay) -> f64, calls: fn(&TraceReplay) -> u64| {
            let s: f64 = self.traces.iter().flatten().map(secs).sum();
            ratio(
                s,
                self.traces.iter().flatten().map(calls).sum::<u64>() as f64,
            ) * 1e9
        };
        let iters = self.points.len() as f64;

        let cal_share = share(&|i, m| {
            m.events as f64 * self.point_ns(i, |r| r.calendar_s, |r| r.calendar_events)
        });
        let hil_share = share(&|i, m| {
            m.hil.submitted as f64 * self.trace_ns(trace_of(i), |r| r.hil_s, |r| r.hil_requests)
        });
        let ftl_share = share(&|i, m| {
            let t = trace_of(i);
            let translate = self.trace_ns(t, |r| r.read_s, |r| r.reads);
            let alloc = self.trace_ns(t, |r| r.write_s, |r| r.writes);
            let cmt = self.trace_ns(t, |r| r.cmt_s, |r| r.cmt_lookups);
            let tsu = self.trace_ns(t, |r| r.tsu_s, |r| r.tsu_ops);
            let (reads, writes) = (m.ftl.user_reads as f64, m.ftl.user_writes as f64);
            reads * translate
                + writes * alloc
                + (reads + writes) * cmt
                + 2.0 * m.transactions as f64 * tsu
        });
        let ic_share = share(&|i, m| {
            let release = self.point_ns(i, |r| r.release_s, |r| r.releases);
            let transfers = m.fabric.transfers as f64 * release;
            // Scout walks vary in length far more than in cost per step, so
            // a walking fabric is charged per scout step.
            let step = self.point_ns(i, |r| r.acquire_ok_s + r.acquire_fail_s, |r| r.scout_steps);
            if m.fabric.scout_steps > 0 && step > 0.0 {
                return m.fabric.scout_steps as f64 * step + transfers;
            }
            let ok = self.point_ns(i, |r| r.acquire_ok_s, |r| r.acquire_ok);
            let fail = self.point_ns(i, |r| r.acquire_fail_s, |r| r.acquire_fail);
            // A replay that never failed an acquire charges failures at the
            // success cost.
            let fail = if fail > 0.0 { fail } else { ok };
            let acq = m.fabric.acquisitions as f64;
            acq * ok + (m.dispatch.attempts as f64 - acq).max(0.0) * fail + transfers
        });

        let precondition_s: f64 = self
            .runs()
            .map(|(i, _)| {
                self.traces
                    .iter()
                    .map(|it| it[trace_of(i)].precondition_s)
                    .sum::<f64>()
                    / iters
            })
            .sum();
        let (venice_acquire_s, venice_steps) = self
            .points
            .iter()
            .flat_map(|it| it.iter().zip(&w.points))
            .filter(|(_, p)| p.kind == FabricKind::Venice)
            .fold((0.0, 0u64), |(s, n), (r, _)| {
                (s + r.acquire_ok_s + r.acquire_fail_s, n + r.scout_steps)
            });
        let cmt_lookups: u64 = self.traces.iter().flatten().map(|r| r.cmt_lookups).sum();
        let cmt_hits: u64 = self.traces.iter().flatten().map(|r| r.cmt_hits).sum();
        let user_writes = sum(&|m| m.ftl.user_writes);
        let programs =
            user_writes + sum(&|m| m.ftl.gc_relocations) + sum(&|m| m.ftl.wear_relocations);
        let attempts = sum(&|m| m.dispatch.attempts);
        let scout_steps = sum(&|m| m.fabric.scout_steps);

        let mut out = vec![
            Metric::new("workloads.gen_s", gen_s, "s"),
            count("sim.events", &|m| m.events),
            Metric::new(
                "sim.calendar_ns_per_event",
                all_points(|r| r.calendar_s, |r| r.calendar_events),
                "ns",
            ),
            Metric::new("sim.calendar_share_est", cal_share, "ratio"),
            count("hil.submitted", &|m| m.hil.submitted),
            count("hil.backpressured", &|m| m.hil.backpressured),
            count("hil.fetched", &|m| m.hil.fetched),
            Metric::new(
                "hil.ns_per_request",
                all_traces(|r| r.hil_s, |r| r.hil_requests),
                "ns",
            ),
            Metric::new("hil.share_est", hil_share, "ratio"),
            Metric::new("ftl.precondition_s", precondition_s, "s"),
            Metric::new(
                "ftl.ns_per_read_translate",
                all_traces(|r| r.read_s, |r| r.reads),
                "ns",
            ),
            Metric::new(
                "ftl.ns_per_write_alloc",
                all_traces(|r| r.write_s, |r| r.writes),
                "ns",
            ),
            count("ftl.gc_erases", &|m| m.ftl.gc_erases),
            count("ftl.gc_relocations", &|m| m.ftl.gc_relocations),
            Metric::new(
                "ftl.write_amplification",
                if user_writes == 0 {
                    1.0
                } else {
                    programs as f64 / user_writes as f64
                },
                "ratio",
            ),
            Metric::new(
                "ftl.cmt_hit_ratio",
                ratio(cmt_hits as f64, cmt_lookups as f64),
                "ratio",
            ),
            Metric::new(
                "ftl.cmt_ns_per_lookup",
                all_traces(|r| r.cmt_s, |r| r.cmt_lookups),
                "ns",
            ),
            Metric::new(
                "ftl.tsu_ns_per_op",
                all_traces(|r| r.tsu_s, |r| r.tsu_ops),
                "ns",
            ),
            Metric::new("ftl.share_est", ftl_share, "ratio"),
            count("interconnect.acquisitions", &|m| m.fabric.acquisitions),
            count("interconnect.conflicts", &|m| m.fabric.conflicts),
            count("interconnect.scout_steps", &|m| m.fabric.scout_steps),
            count("interconnect.scout_failed_steps", &|m| {
                m.fabric.scout_failed_steps
            }),
            count("interconnect.scout_fastfails", &|m| {
                m.fabric.scout_fastfails
            }),
            count("interconnect.hops_total", &|m| m.fabric.hops_total),
            Metric::new(
                "interconnect.acquire_success_ratio",
                ratio(sum(&|m| m.fabric.acquisitions) as f64, attempts as f64),
                "ratio",
            ),
            Metric::new(
                "interconnect.failed_step_frac",
                ratio(
                    sum(&|m| m.fabric.scout_failed_steps) as f64,
                    scout_steps as f64,
                ),
                "ratio",
            ),
            Metric::new(
                "interconnect.ns_per_acquire_ok",
                all_points(|r| r.acquire_ok_s, |r| r.acquire_ok),
                "ns",
            ),
            Metric::new(
                "interconnect.ns_per_acquire_fail",
                all_points(|r| r.acquire_fail_s, |r| r.acquire_fail),
                "ns",
            ),
            Metric::new(
                "interconnect.ns_per_release",
                all_points(|r| r.release_s, |r| r.releases),
                "ns",
            ),
            Metric::new(
                "interconnect.ns_per_scout_step",
                ratio(venice_acquire_s, venice_steps as f64) * 1e9,
                "ns",
            ),
            Metric::new("interconnect.share_est", ic_share, "ratio"),
            count("nand.transactions", &|m| m.transactions),
        ];
        for key in FABRIC_KEYS {
            let (mut run_s, mut events) = (0.0, 0u64);
            for (i, m) in self.runs() {
                if w.points[i].fabric_key() == key {
                    run_s += self.run_s[i];
                    events += m.events;
                }
            }
            out.push(Metric::new(format!("core.run_s.{key}"), run_s, "s"));
            out.push(Metric::new(
                format!("core.ns_per_event.{key}"),
                ratio(run_s, events as f64) * 1e9,
                "ns",
            ));
        }
        let rounds = sum(&|m| m.dispatch.rounds);
        out.extend([
            count("core.dispatch_rounds", &|m| m.dispatch.rounds),
            count("core.dispatch_attempts", &|m| m.dispatch.attempts),
            count("core.dispatch_failed_walks", &|m| m.dispatch.failed_walks),
            Metric::new(
                "core.attempts_per_round",
                ratio(attempts as f64, rounds as f64),
                "ratio",
            ),
            count("core.host_retries", &|m| m.host_retries),
            count("core.shed_requests", &|m| m.shed_requests),
            count("core.deadline_misses", &|m| m.deadline_misses),
            count("core.degraded_reads", &|m| m.degraded_reads),
            count("core.rebuilt_pages", &|m| m.rebuilt_pages),
            count("core.failed_requests", &|m| m.failed_requests),
            Metric::new(
                "core.other_share_est",
                1.0 - cal_share - hil_share - ftl_share - ic_share,
                "ratio",
            ),
        ]);
        out
    }
}

/// `num / den`, or zero when the denominator is zero.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `--fingerprints`: one gated pass per seed and sub-seed, printing the
/// pinned-table lines (`<workload> <seed> <label> <hex>`, tab-separated).
fn print_fingerprints(only: Option<&str>, first: u64, last: u64) -> ExitCode {
    let mut failed = false;
    for name in workloads::NAMES
        .iter()
        .filter(|n| only.is_none_or(|o| o == **n))
    {
        for seed in first..=last {
            let mut bench = Bench::new(Workload::by_name(name).expect("listed name"), seed);
            // Pin what the engine produces now, not what the table holds.
            bench.expected.clear();
            for sub in 0..SUBSEEDS {
                let pass = bench.pass(sub, None, 0.0);
                let w = &bench.workload;
                for (p, run) in w.points.iter().zip(&pass.runs) {
                    if let Some(m) = &run.metrics {
                        println!(
                            "{name}\t{seed}\t{}\t{:016x}",
                            w.label(p, sub),
                            gate::fingerprint(m)
                        );
                    }
                }
            }
            failed |= !bench.failures.is_empty();
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
