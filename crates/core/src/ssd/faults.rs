//! Fault injection in the engine: the fault plan's delivery and the
//! dead-chip state it leaves behind (the plans are in `crate::fault`).

use super::*;
use crate::FaultPlan;

/// The state of an armed fault plan.
#[derive(Default)]
pub(super) struct Faults {
    /// Per-chip count of overlapping death causes (fabric blast radius +
    /// scripted chip deaths); a chip is dead while its count is non-zero.
    chip_dead: Vec<u8>,
    /// Per-chip media-loss flag: set only by a permanent
    /// [`FaultAction::ChipDeath`], never cleared (dies don't heal). A chip
    /// in `chip_dead` but not here is merely unreachable (fabric blast
    /// radius) — its data is intact, so failures against it classify as
    /// routing casualties, never as data loss.
    pub(super) media_dead: Vec<bool>,
    /// Per-chip armed transient NAND failures: each charge fails one
    /// program/erase once (retried after a full re-issue latency).
    transient_charges: Vec<u32>,
    pub(super) injected: u64,
    pub(super) active: u64,
    pub(super) retried_ops: u64,
}

impl Faults {
    /// The fault plan `config` arms, if any, with its script put on the
    /// calendar (fault-free runs schedule zero extra events).
    pub(super) fn new(config: &SsdConfig, queue: &mut EventQueue<Event>) -> Option<Faults> {
        if config.fault_plan == FaultPlan::None {
            return None;
        }
        for (at, action) in config.fault_plan.events_for(config.fabric.rows, config.fabric.cols) {
            queue.schedule(at, Event::Fault(action));
        }
        let chips = usize::from(config.array.chips);
        Some(Faults {
            chip_dead: vec![0; chips],
            media_dead: vec![false; chips],
            transient_charges: vec![0; chips],
            ..Faults::default()
        })
    }

    /// Spends one of `chip`'s transient-failure charges, if it has one.
    pub(super) fn take_transient(&mut self, chip: usize) -> bool {
        if self.transient_charges[chip] == 0 {
            return false;
        }
        self.transient_charges[chip] -= 1;
        self.retried_ops += 1;
        true
    }
}

impl SsdSim<'_> {
    /// True while `chip` is dead.
    pub(super) fn chip_dead(&self, chip: usize) -> bool {
        self.faults.as_ref().is_some_and(|f| f.chip_dead[chip] > 0)
    }

    /// Delivers one scripted fault-plan action. Every class reconverges on
    /// a dispatch kick: repairs free resources parked chips may now reach,
    /// and faults fail transactions whose follow-on work (migration steps,
    /// request completions) must keep the calendar moving.
    pub(super) fn on_fault(&mut self, now: SimTime, action: FaultAction) {
        let faults = self.faults.as_mut().expect("fault plan armed");
        faults.injected += 1;
        match action {
            FaultAction::Fabric(fault) => {
                if fault.is_down() {
                    faults.active += 1;
                } else {
                    faults.active = faults.active.saturating_sub(1);
                }
                let impact = self.fabric.inject_fault(fault);
                for node in impact.dead_chips {
                    // Fabric blast radii are outages, not media loss: they
                    // never arm a rebuild (the chip's data is intact behind
                    // the severed path).
                    self.kill_chip(now, usize::from(node.0), false);
                }
                // A repair reverses one layer of chip death. Queued work
                // resumes on the next dispatch round; nothing needs
                // re-arming beyond that because a dead chip's queues were
                // drained, so new work wakes the ready sets.
                let faults = self.faults.as_mut().expect("fault plan armed");
                for node in impact.revived_chips {
                    let dead = &mut faults.chip_dead[usize::from(node.0)];
                    *dead = dead.saturating_sub(1);
                }
            }
            FaultAction::ChipDeath(node) => {
                faults.active += 1;
                self.kill_chip(now, usize::from(node.0), true);
            }
            FaultAction::ArmTransient { chip, charges } => {
                faults.transient_charges[usize::from(chip.0)] += charges;
            }
        }
        // Repairs may free the resource every pooled controller was parked
        // on, and fault drains leave successor work needing a round; either
        // way the dispatcher must look again.
        self.dispatch.parked_on_controllers = false;
        self.schedule_dispatch(now);
    }

    /// Marks a chip unreachable and fail-drains everything queued for it.
    /// Failing a transaction runs its normal completion bookkeeping, which
    /// can spawn *new* transactions onto the same dead chip (relocation
    /// writes, source-block erases) or advance in-flight *rebuild* jobs
    /// (whose remapped writes land elsewhere), so the drain loops until
    /// both the TSU queues — the rebuild class included — and the pending
    /// data bursts are empty.
    ///
    /// `permanent` distinguishes media loss (a scripted
    /// [`FaultAction::ChipDeath`] — the die is gone and, with redundancy
    /// armed, a background rebuild starts) from a fabric outage's blast
    /// radius (the chip is merely unreachable until repair).
    fn kill_chip(&mut self, now: SimTime, chip: usize, permanent: bool) {
        let faults = self.faults.as_mut().expect("fault plan armed");
        faults.chip_dead[chip] += 1;
        let overlapping = faults.chip_dead[chip] > 1;
        if permanent {
            faults.media_dead[chip] = true;
            self.start_rebuild(now, chip);
        }
        if overlapping {
            return; // already dead via an overlapping fault
        }
        let mut drained: Vec<Transaction> = Vec::new();
        loop {
            self.tsu.drain_chip_into(chip as u16, &mut drained);
            if drained.is_empty() && self.data_pending[chip].is_empty() {
                break;
            }
            for txn in &drained {
                self.fail_txn(now, txn.id);
            }
            while self.fail_data_burst(now, chip) {}
        }
        // In-flight command/array events finish on their own; the dead-chip
        // check in `on_chip_op_done` fails them at the command boundary.
    }
}
