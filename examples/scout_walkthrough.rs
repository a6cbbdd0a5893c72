//! A step-by-step reconstruction of the paper's Figure 8: three circuits
//! block every minimal path from FC3 to flash chip F2, and Venice's
//! non-minimal fully-adaptive scout finds a conflict-free detour.
//!
//! ```sh
//! cargo run --release --example scout_walkthrough
//! ```

use venice::interconnect::mesh::MeshState;
use venice::interconnect::{FcId, Mesh2D, NodeId};
use venice::sim::rng::Lfsr2;

fn main() {
    // Figure 8 uses a 4-row × 5-column mesh, nodes F0..F19 row-major, with
    // controllers FC0..FC3 on the west edge.
    let topo = Mesh2D::new(4, 5);
    let mut mesh = MeshState::new(topo, 4);
    let n = NodeId;

    // The three already-reserved circuits of the figure (drawn in red).
    mesh.reserve_explicit(0, &[n(0), n(1), n(6)]);
    mesh.reserve_explicit(1, &[n(5), n(6), n(7), n(8)]);
    mesh.reserve_explicit(2, &[n(10), n(11), n(12), n(7)]);
    println!("reserved 3 circuits; {} links busy", mesh.reserved_link_count());

    // Request R: FC3 → F2. Every minimal path is blocked.
    let mut lfsr = Lfsr2::new();
    let (path, outcome) = mesh
        .scout_walk(3, topo.fc_node(FcId(3)), n(2), &mut lfsr)
        .expect("a non-minimal conflict-free path exists");

    println!(
        "scout reserved a {}-hop path in {} steps (detoured: {}):",
        path.hops(),
        outcome.steps,
        outcome.detoured
    );
    let names: Vec<String> = path.nodes.iter().map(|x| x.to_string()).collect();
    println!("  FC3 -> {}", names.join(" -> "));
    println!(
        "  (minimal distance would be {} hops — the blue path in Figure 8)",
        topo.manhattan(topo.fc_node(FcId(3)), n(2))
    );

    // Each router along the path now holds a reservation-table row.
    for node in &path.nodes {
        let entry = mesh.reservation(*node, 3).expect("row installed");
        println!(
            "  router {node}: packet {} entry={} exit={}",
            entry.packet_id, entry.entry, entry.exit
        );
    }

    mesh.release(&path);
    println!("released; {} links busy remain", mesh.reserved_link_count());
}
