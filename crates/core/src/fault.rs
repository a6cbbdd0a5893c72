//! Deterministic fault injection: scripted fault/repair plans delivered
//! through the simulator's time-wheel calendar.
//!
//! A [`FaultPlan`] is a *named, seeded script*: given the fabric shape it
//! expands ([`FaultPlan::events_for`]) into a fixed list of timestamped
//! [`FaultAction`]s that [`crate::SsdSim::run`] schedules before the first
//! arrival. Determinism is absolute — the same `(plan, rows, cols)` triple
//! always yields the same script, so fault runs fingerprint exactly like
//! fault-free runs and the sweep engine can carry `faults` as an ordinary
//! axis.
//!
//! Three action classes cover the failure modes of the paper's fabrics:
//!
//! * **fabric faults** ([`FaultAction::Fabric`]) — link/router down/up,
//!   routed to [`venice_interconnect::Fabric::inject_fault`]. The fabric
//!   computes the blast radius ([`venice_interconnect::FaultImpact`]): a bus
//!   fabric loses a whole row per severed row link, the meshes route around
//!   it; setters stamp the generation counters so stale scout-cache extents
//!   self-invalidate.
//! * **chip death** ([`FaultAction::ChipDeath`]) — a permanent chip/die
//!   failure above the fabric: queued transactions fail with error status,
//!   the chip leaves the ready sets, and later requests targeting it
//!   complete-with-error instead of stalling the calendar.
//! * **transient NAND errors** ([`FaultAction::ArmTransient`]) — the next
//!   `charges` program/erase operations on a chip fail once each and are
//!   retried after a full re-issue latency (bounded retry: each charge buys
//!   exactly one retry).
//!
//! [`FaultPlan::None`] expands to the empty script and therefore schedules
//! zero calendar events — the golden-hash contract (`events` feeds the
//! fingerprint) is untouched by construction.
//!
//! The host resilience layer ([`crate::resilience`]) is a second client of
//! the fail-stop machinery built here: a request whose deadline fires
//! aborts at the same command boundaries chip death uses, completes with
//! error status through the same bookkeeping, and frees its fabric/TSU
//! resources the same way — so deadline aborts compose with every fault
//! plan instead of duplicating its paths.

use venice_interconnect::{FabricFault, NodeId};
use venice_sim::rng::Xorshift64Star;
use venice_sim::SimTime;

/// One scripted fault-plan action (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// A fabric-level fault or repair, delivered to
    /// [`venice_interconnect::Fabric::inject_fault`].
    Fabric(FabricFault),
    /// Permanent chip/die failure at a mesh node (chip id = node id).
    ChipDeath(NodeId),
    /// Arm `charges` one-shot transient program/erase failures on a chip.
    ArmTransient {
        /// The chip whose next operations fail.
        chip: NodeId,
        /// How many operations fail (each is retried once).
        charges: u32,
    },
}

/// Named deterministic fault scripts (the sweep engine's `faults` axis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FaultPlan {
    /// No faults: the empty script; bit-identical to the pre-fault engine.
    #[default]
    None,
    /// One mid-row link fails permanently at 20 µs. Bus fabrics lose the
    /// whole row; the meshes reroute (the ablation's headline contrast).
    Link,
    /// The `Link` fault plus a crossing column link: pnSSD loses exactly
    /// the intersection chip (both its buses dead); meshes still reroute.
    LinkCross,
    /// The `Link` fault with a repair at 120 µs: tests the repair contract
    /// (stamp, invalidate, wake) end to end.
    LinkRepair,
    /// A mid-mesh router (never column 0) fails permanently at 20 µs:
    /// exactly one chip dies; every fabric must fail its requests with
    /// error status and keep serving the survivors.
    Router,
    /// A permanent chip/die death at 20 µs, above the fabric: the fabric
    /// path stays healthy but the die never answers again.
    Chip,
    /// The `Chip` death plus two link severances at 20 µs around the same
    /// focal row — the `Link` row cut and a crossing column cut through
    /// the dead chip's east-neighbor survivor: a rebuild must thread its
    /// reconstruction traffic through an already-degraded fabric. Bus
    /// designs lose the dead chip's whole row — its parity-group
    /// survivors included — and even a row+column bus design loses the
    /// east-neighbor survivor, so their rebuilds can only skip pages;
    /// only the path-diverse meshes still reach the complete survivor set
    /// and recover everything.
    ChipAndLink,
    /// Transient NAND program/erase errors: two chips are armed with two
    /// one-shot failures each at 10 µs; every failed op retries once.
    TransientNand,
    /// A seeded storm: six sequential link/router outage windows (each
    /// paired with its repair, never touching column 0) plus one permanent
    /// chip death. The stress plan the randomized property tests sweep.
    Storm,
}

/// Fault-plan injection times (µs scale): early enough to land mid-run for
/// paper-scale traces, late enough that the pipeline is warm.
const FAULT_AT_US: u64 = 20;
const REPAIR_AT_US: u64 = 120;

impl FaultPlan {
    /// All plans, in presentation order.
    pub const ALL: [FaultPlan; 9] = [
        FaultPlan::None,
        FaultPlan::Link,
        FaultPlan::LinkCross,
        FaultPlan::LinkRepair,
        FaultPlan::Router,
        FaultPlan::Chip,
        FaultPlan::ChipAndLink,
        FaultPlan::TransientNand,
        FaultPlan::Storm,
    ];

    /// Stable label used in sweep-point labels, manifests, and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultPlan::None => "none",
            FaultPlan::Link => "link",
            FaultPlan::LinkCross => "link-cross",
            FaultPlan::LinkRepair => "link-repair",
            FaultPlan::Router => "router",
            FaultPlan::Chip => "chip",
            FaultPlan::ChipAndLink => "chip-link",
            FaultPlan::TransientNand => "transient-nand",
            FaultPlan::Storm => "storm",
        }
    }

    /// Expands the plan into its timestamped action script for a
    /// `rows × cols` fabric. Pure and deterministic; actions that need
    /// geometry the shape cannot provide (links on a 1-wide mesh) are
    /// dropped rather than panicking. [`FaultPlan::None`] is always empty.
    pub fn events_for(&self, rows: u16, cols: u16) -> Vec<(SimTime, FaultAction)> {
        let node = |r: u16, c: u16| NodeId(r * cols + c);
        let at = SimTime::from_micros(FAULT_AT_US);
        let repair = SimTime::from_micros(REPAIR_AT_US);
        // The plan's focal point: a mid-mesh row link (r, c0)-(r, c0+1),
        // chosen off column 0 so no plan silently kills a controller attach.
        let r = rows / 2;
        let c0 = (cols / 2).saturating_sub(1).max(1).min(cols.saturating_sub(2));
        let row_link_ok = cols >= 3;
        let mut script = Vec::new();
        match self {
            FaultPlan::None => {}
            FaultPlan::Link => {
                if row_link_ok {
                    script.push((
                        at,
                        FaultAction::Fabric(FabricFault::LinkDown {
                            a: node(r, c0),
                            b: node(r, c0 + 1),
                        }),
                    ));
                }
            }
            FaultPlan::LinkCross => {
                if row_link_ok && rows >= 2 {
                    let rb = if r + 1 < rows { r + 1 } else { r - 1 };
                    script.push((
                        at,
                        FaultAction::Fabric(FabricFault::LinkDown {
                            a: node(r, c0),
                            b: node(r, c0 + 1),
                        }),
                    ));
                    // The crossing column link shares node (r, c0): under
                    // pnSSD, row bus r and column bus c0 are both dead, so
                    // exactly their intersection chip is unreachable.
                    script.push((
                        at,
                        FaultAction::Fabric(FabricFault::LinkDown {
                            a: node(r, c0),
                            b: node(rb, c0),
                        }),
                    ));
                }
            }
            FaultPlan::LinkRepair => {
                if row_link_ok {
                    let (a, b) = (node(r, c0), node(r, c0 + 1));
                    script.push((at, FaultAction::Fabric(FabricFault::LinkDown { a, b })));
                    script.push((repair, FaultAction::Fabric(FabricFault::LinkUp { a, b })));
                }
            }
            FaultPlan::Router => {
                if cols >= 2 {
                    script.push((
                        at,
                        FaultAction::Fabric(FabricFault::RouterDown(node(r, (cols / 2).max(1)))),
                    ));
                }
            }
            FaultPlan::Chip => {
                script.push((at, FaultAction::ChipDeath(node(r, cols / 2))));
            }
            FaultPlan::ChipAndLink => {
                // The links sever first so the death lands on an
                // already-degraded fabric; all three share the focal row,
                // so on a bus design the dead chip's survivors sit behind
                // the severed row bus. The crossing column link runs
                // through the dead chip's east neighbor — its first parity
                // survivor — so a row+column bus design loses exactly that
                // one survivor too: strict parity then blocks every
                // reconstruction, and only a path-diverse mesh can still
                // reach the full survivor set.
                if row_link_ok {
                    script.push((
                        at,
                        FaultAction::Fabric(FabricFault::LinkDown {
                            a: node(r, c0),
                            b: node(r, c0 + 1),
                        }),
                    ));
                }
                let c1 = cols / 2 + 1;
                if rows >= 2 && c1 < cols {
                    let rb = if r + 1 < rows { r + 1 } else { r - 1 };
                    script.push((
                        at,
                        FaultAction::Fabric(FabricFault::LinkDown {
                            a: node(r, c1),
                            b: node(rb, c1),
                        }),
                    ));
                }
                script.push((at, FaultAction::ChipDeath(node(r, cols / 2))));
            }
            FaultPlan::TransientNand => {
                let t = SimTime::from_micros(10);
                script.push((
                    t,
                    FaultAction::ArmTransient {
                        chip: node(r, cols / 2),
                        charges: 2,
                    },
                ));
                script.push((
                    t,
                    FaultAction::ArmTransient {
                        chip: node(0, cols.saturating_sub(1)),
                        charges: 2,
                    },
                ));
            }
            FaultPlan::Storm => {
                if cols < 3 || rows < 2 {
                    return script;
                }
                let mut rng = Xorshift64Star::new(0x5EED_FA17_0000_0001);
                // Six sequential outage windows: down at t, up at t + 18 µs,
                // next window at t + 25 µs — windows never overlap, so the
                // bus fabrics' per-row outage counters and the meshes'
                // boolean masks agree on when each resource is dead.
                for k in 0..6u64 {
                    let down = SimTime::from_micros(15 + 25 * k);
                    let up = SimTime::from_micros(15 + 25 * k + 18);
                    let fault = match rng.next_bounded(3) {
                        0 => {
                            // Row link off the controller column.
                            let fr = rng.next_bounded(u64::from(rows)) as u16;
                            let fc = 1 + rng.next_bounded(u64::from(cols) - 2) as u16;
                            FabricFault::LinkDown {
                                a: node(fr, fc),
                                b: node(fr, fc + 1),
                            }
                        }
                        1 => {
                            // Column link between two non-column-0 routers.
                            let fr = rng.next_bounded(u64::from(rows) - 1) as u16;
                            let fc = 1 + rng.next_bounded(u64::from(cols) - 1) as u16;
                            FabricFault::LinkDown {
                                a: node(fr, fc),
                                b: node(fr + 1, fc),
                            }
                        }
                        _ => {
                            // Router off the controller column.
                            let fr = rng.next_bounded(u64::from(rows)) as u16;
                            let fc = 1 + rng.next_bounded(u64::from(cols) - 1) as u16;
                            FabricFault::RouterDown(node(fr, fc))
                        }
                    };
                    script.push((down, FaultAction::Fabric(fault)));
                    script.push((up, FaultAction::Fabric(fault.repaired())));
                }
                // One permanent chip death mid-storm, off column 0.
                let dr = rng.next_bounded(u64::from(rows)) as u16;
                let dc = 1 + rng.next_bounded(u64::from(cols) - 1) as u16;
                script.push((SimTime::from_micros(50), FaultAction::ChipDeath(node(dr, dc))));
            }
        }
        script
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Point labels and file names carry these labels, so no two plans
    /// may share one.
    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            FaultPlan::ALL.iter().map(FaultPlan::label).collect();
        assert_eq!(labels.len(), FaultPlan::ALL.len());
        assert_eq!(FaultPlan::default(), FaultPlan::None);
    }

    #[test]
    fn none_schedules_nothing() {
        assert!(FaultPlan::None.events_for(8, 8).is_empty());
    }

    #[test]
    fn scripts_are_deterministic_and_avoid_the_controller_column() {
        for plan in FaultPlan::ALL {
            let a = plan.events_for(8, 8);
            let b = plan.events_for(8, 8);
            assert_eq!(a, b, "{plan}: script must be deterministic");
            for (_, action) in &a {
                if let FaultAction::Fabric(FabricFault::RouterDown(n) | FabricFault::RouterUp(n)) =
                    action
                {
                    assert_ne!(n.0 % 8, 0, "{plan}: router faults avoid column 0");
                }
            }
        }
    }

    #[test]
    fn storm_pairs_every_outage_with_a_repair() {
        let script = FaultPlan::Storm.events_for(8, 8);
        let downs = script
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Fabric(f) if f.is_down()))
            .count();
        let ups = script
            .iter()
            .filter(|(_, a)| matches!(a, FaultAction::Fabric(f) if !f.is_down()))
            .count();
        assert_eq!(downs, ups, "every transient outage must repair");
        assert_eq!(downs, 6);
        assert!(script
            .iter()
            .any(|(_, a)| matches!(a, FaultAction::ChipDeath(_))));
    }

    #[test]
    fn degenerate_shapes_drop_impossible_actions_instead_of_panicking() {
        for plan in FaultPlan::ALL {
            let _ = plan.events_for(1, 1);
            let _ = plan.events_for(2, 2);
            let _ = plan.events_for(1, 8);
        }
    }
}
