//! Dispatch-policy ablation: measures the engine-throughput (events/sec)
//! and simulated-performance effect of each [`DispatchPolicyKind`] on the
//! congested bursty workload, the regime where ROADMAP follow-up (a)
//! identified failed scout walks as the dominant cost.
//!
//! ```sh
//! cargo run --release -p venice-bench --bin policy_ablation
//! cargo run --release -p venice-bench --bin policy_ablation -- --requests 6000 --repeat 5
//! ```
//!
//! Each `(policy, fabric)` cell runs the same trace `repeat` times
//! single-threaded and keeps the best wall-clock time (standard microbench
//! practice: the minimum is the least-noisy estimator of the true cost).
//! A markdown table goes to stdout and a JSON record to
//! `results/policy_ablation.json`.

use std::time::Instant;

use venice_bench::flag_value;
use venice_interconnect::FabricKind;
use venice_ssd::report::{f2, Json, Table};
use venice_ssd::{run_single, DispatchPolicyKind, RunMetrics, SsdConfig};
use venice_workloads::WorkloadAxis;

/// One measured cell: a policy × fabric pair on the congested workload.
struct Cell {
    policy: DispatchPolicyKind,
    fabric: FabricKind,
    metrics: RunMetrics,
    best_wall_s: f64,
}

impl Cell {
    fn events_per_sec(&self) -> f64 {
        self.metrics.events as f64 / self.best_wall_s.max(1e-9)
    }
}

/// Parses `--requests <n>` and `--repeat <n>` from the arguments after
/// the program name.
fn parse_args(args: &[String]) -> Result<(usize, usize), String> {
    let (mut requests, mut repeat) = (4000, 3);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--requests" => requests = flag_value(flag, &mut rest)?,
            "--repeat" => repeat = flag_value(flag, &mut rest)?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((requests, repeat))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (requests, repeat) = parse_args(&args).unwrap_or_else(|err| {
        eprintln!("policy_ablation: {err}\nusage: policy_ablation [--requests <n>] [--repeat <n>]");
        std::process::exit(2);
    });
    let repeat = repeat.max(1);
    let axis = WorkloadAxis::congested();
    let trace = axis.trace(requests);
    let fabrics = [FabricKind::Baseline, FabricKind::Venice];

    let mut cells: Vec<Cell> = Vec::new();
    for fabric in fabrics {
        for policy in DispatchPolicyKind::ALL {
            let cfg = SsdConfig::performance_optimized().with_dispatch_policy(policy);
            let mut best_wall_s = f64::INFINITY;
            let mut metrics = None;
            for _ in 0..repeat {
                let t0 = Instant::now();
                let m = run_single(&cfg, fabric, &trace);
                best_wall_s = best_wall_s.min(t0.elapsed().as_secs_f64());
                metrics = Some(m);
            }
            cells.push(Cell {
                policy,
                fabric,
                metrics: metrics.expect("repeat >= 1"),
                best_wall_s,
            });
        }
    }

    let baseline_eps = |fabric: FabricKind| {
        cells
            .iter()
            .find(|c| c.fabric == fabric && c.policy == DispatchPolicyKind::RetryAll)
            .expect("retry-all cell")
            .events_per_sec()
    };
    let mut t = Table::new(
        [
            "fabric",
            "policy",
            "events/s (M)",
            "vs retry-all",
            "sim exec (ms)",
            "attempts",
            "skipped",
            "conflict %",
        ]
        .map(String::from)
        .to_vec(),
    );
    for c in &cells {
        t.row(vec![
            c.fabric.label().to_string(),
            c.policy.label().to_string(),
            format!("{:.2}", c.events_per_sec() / 1e6),
            format!("{}x", f2(c.events_per_sec() / baseline_eps(c.fabric))),
            format!("{:.3}", c.metrics.execution_time.as_secs_f64() * 1e3),
            c.metrics.dispatch.attempts.to_string(),
            c.metrics.dispatch.skipped_backoff.to_string(),
            f2(c.metrics.conflict_pct()),
        ]);
    }
    println!(
        "# Dispatch-policy ablation: workload `{}`, {} requests, best of {}\n",
        axis.name(),
        requests,
        repeat
    );
    print!("{}", t.to_markdown());

    let cell = |c: &Cell| {
        Json::object()
            .with("fabric", c.fabric.label())
            .with("policy", c.policy.label())
            .with("events", c.metrics.events)
            .with("best_wall_s", c.best_wall_s)
            .with("events_per_sec", c.events_per_sec())
            .with(
                "speedup_vs_retry_all",
                c.events_per_sec() / baseline_eps(c.fabric),
            )
            .with("execution_time_ns", c.metrics.execution_time.as_nanos())
            .with("attempts", c.metrics.dispatch.attempts)
            .with("skipped_backoff", c.metrics.dispatch.skipped_backoff)
            .with("failed_walks", c.metrics.dispatch.failed_walks)
            .with("conflict_pct", c.metrics.conflict_pct())
    };
    let json = Json::object()
        .with("bench", "policy_ablation")
        .with("workload", axis.name())
        .with("requests", requests as u64)
        .with("repeat", repeat as u64)
        .with("cells", Json::Array(cells.iter().map(cell).collect()));
    venice_bench::write_result("policy_ablation", &json);

    let venice_backoff = cells
        .iter()
        .find(|c| {
            c.fabric == FabricKind::Venice && c.policy == DispatchPolicyKind::ConflictBackoff
        })
        .expect("venice backoff cell");
    eprintln!(
        "[venice-bench] congested Venice: conflict-backoff {:.2}x retry-all events/sec",
        venice_backoff.events_per_sec() / baseline_eps(FabricKind::Venice)
    );
}
