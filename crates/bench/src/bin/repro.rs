//! Reproduces the paper's tables and figures: each prints a markdown
//! rendering to stdout and writes a CSV under `results/`.
//!
//! With no argument, runs every table and figure in one process through the
//! shared-pool sweep engine ([`venice_bench::figures::repro_all`]), which
//! also leaves a reproducible sweep artifact at
//! `results/sweep_repro_all/manifest.json`. `--only <name>` runs one of
//! them, `ablate_routing` included (full Venice vs minimal-path Venice vs
//! NoSSD's XY routing, §4.3).
//!
//! ```text
//! cargo run --release -p venice-bench --bin repro
//! cargo run --release -p venice-bench --bin repro -- --only fig13
//! ```

use venice_bench::figures;

/// Every artifact `--only` accepts, with its runner.
const ARTIFACTS: [(&str, fn()); 13] = [
    ("fig04", figures::fig04),
    ("fig09", figures::fig09),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("table1", figures::table1),
    ("table2", figures::table2),
    ("table3", figures::table3),
    ("table4", figures::table4),
    ("ablate_routing", figures::ablate_routing),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => figures::repro_all(),
        [flag, name] if flag == "--only" => match ARTIFACTS.iter().find(|(n, _)| n == name) {
            Some((_, run)) => run(),
            None => usage(&format!("unknown artifact {name:?}")),
        },
        _ => usage("expected no argument or `--only <name>`"),
    }
}

fn usage(err: &str) -> ! {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
    eprintln!("repro: {err}\nusage: repro [--only {}]", names.join("|"));
    std::process::exit(2);
}
