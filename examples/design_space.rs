//! Design-space exploration through the sweep engine: one grid crossing
//! the flash-array shape (the paper's Figure 15 study) with a custom
//! workload's intensity, executed on the shared worker pool and written as
//! a reproducible artifact under `results/sweep_design_space/`.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use venice::interconnect::FabricKind;
use venice::ssd::SsdConfig;
use venice::workloads::{WorkloadAxis, WorkloadSpec};
use venice_bench::sweep::{Knob, SweepGrid};

fn main() {
    // A read-heavy bursty workload at three arrival intensities: one
    // workload-axis value per intensity.
    let intensities = [2.0, 8.0, 32.0];
    let workloads: Vec<WorkloadAxis> = intensities
        .iter()
        .map(|&interarrival_us| {
            WorkloadAxis::Spec(
                WorkloadSpec::new(format!("sweep-{interarrival_us}us"), 95.0, 16.0, interarrival_us)
                    .footprint_mb(1024)
                    .burst_mean(32.0),
            )
        })
        .collect();
    let shapes = [(4u16, 16u16), (8, 8), (16, 4)];
    let outcome = SweepGrid::new("design_space")
        .config(SsdConfig::performance_optimized())
        .workloads(workloads)
        .knobs(shapes.map(|(rows, cols)| Knob::Shape(rows, cols)))
        .fabrics(&[
            FabricKind::Baseline,
            FabricKind::NoSsd,
            FabricKind::Venice,
            FabricKind::Ideal,
        ])
        .requests(1_500)
        .run();

    for &interarrival_us in &intensities {
        let name = format!("sweep-{interarrival_us}us");
        println!("\n== mean inter-arrival {interarrival_us} µs ==");
        println!("{:<7} {:>8} {:>8} {:>8}", "shape", "NoSSD", "Venice", "Ideal");
        for &shape in &shapes {
            let rows = outcome.rows_by_workload(|p| {
                p.workload == name && (p.config.fabric.rows, p.config.fabric.cols) == shape
            });
            let results = &rows.first().expect("point row in outcome").1;
            let base = &results[0];
            println!(
                "{:<7} {:>7.2}x {:>7.2}x {:>7.2}x",
                format!("{}x{}", shape.0, shape.1),
                results[1].speedup_over(base),
                results[2].speedup_over(base),
                results[3].speedup_over(base),
            );
        }
    }

    match outcome.write(&venice_bench::results_dir()) {
        Ok(dir) => eprintln!("sweep artifact: {}", dir.join("manifest.json").display()),
        Err(e) => eprintln!("warning: cannot write sweep artifact: {e}"),
    }
}
