//! Tenancy model: named tenants mapped onto NVMe namespaces and
//! submission-queue ranges, with weighted-round-robin arbitration weights
//! and per-tenant queue-depth caps.
//!
//! A [`TenantSet`] is both an engine input (the [`crate::HostInterface`]
//! partitions its submission queues across the set and arbitrates fetches
//! by weight) and a sweep axis (named presets with stable labels, like
//! `FaultPlan` and `DispatchPolicyKind` in the core crate).
//!
//! The default, [`TenantSet::single()`], is one tenant owning every queue
//! with weight 1 and no cap — the host interface then degenerates exactly
//! to the pre-tenancy round-robin arbiter, which the RetryAll golden hash
//! pins bit-for-bit.

/// Per-tenant deadline contract class.
///
/// The host resilience layer resolves the class into a concrete deadline
/// when its deadline mechanism is armed (`ResiliencePolicy` presets with a
/// deadline); with deadlines unarmed, classes are inert — the default
/// single-tenant path stays bit-identical regardless of class. The HIL
/// itself never consults the class; it is a tenant attribute the core's
/// admission stamping reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeadlineClass {
    /// The policy's own deadline (today's 250 µs contract) — the default,
    /// reproducing the single-deadline behavior bit-for-bit.
    #[default]
    Default,
    /// Latency-sensitive: a tighter deadline than the policy default.
    Latency,
    /// Batch/throughput: a much looser deadline than the policy default.
    Batch,
    /// Deadline-free: never stamped, never aborted by timeout even when
    /// the policy arms deadlines for its neighbors.
    None,
}

impl DeadlineClass {
    /// Stable label used in sweep-point labels, manifests, and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            DeadlineClass::Default => "default",
            DeadlineClass::Latency => "latency",
            DeadlineClass::Batch => "batch",
            DeadlineClass::None => "none",
        }
    }
}

/// One tenant's contract: its share of the arbiter and its in-flight cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TenantSpec {
    /// Tenant name (namespace label; mix constituents use their app name).
    pub name: &'static str,
    /// Weighted-round-robin weight: fetch credits per arbitration cycle.
    /// Must be at least 1.
    pub weight: u32,
    /// Maximum requests this tenant may have in flight (fetched but not
    /// completed), enforced at fetch time. `0` means unlimited.
    pub qd_cap: u32,
    /// Deadline contract class, resolved against the armed resilience
    /// policy by the core ([`DeadlineClass::Default`] keeps the policy's
    /// single deadline).
    pub deadline: DeadlineClass,
}

/// A set of tenants sharing one SSD: the tenancy axis of a run.
///
/// Tenants partition the host interface's submission queues into
/// contiguous per-tenant ranges (tenant `t` of `T` owns queues
/// `[t·Q/T, (t+1)·Q/T)`), so a request's tenant id picks its namespace's
/// queue range and its offset picks the queue within the range.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TenantSet {
    label: String,
    tenants: Vec<TenantSpec>,
}

impl Default for TenantSet {
    fn default() -> Self {
        TenantSet::single()
    }
}

impl TenantSet {
    /// The default single-tenant set: one tenant (`all`) owning every
    /// queue, weight 1, no cap. Reproduces the pre-tenancy host interface
    /// bit-for-bit.
    pub fn single() -> Self {
        TenantSet {
            label: "single".to_string(),
            tenants: vec![TenantSpec {
                name: "all",
                weight: 1,
                qd_cap: 0,
                deadline: DeadlineClass::Default,
            }],
        }
    }

    /// Two equal tenants (`victim`, `aggressor`): fair-share WRR, no caps.
    /// The noisy-neighbor scenario with no QoS protection beyond equal
    /// arbitration.
    pub fn pair_fair() -> Self {
        TenantSet::custom(
            "pair-fair",
            vec![
                TenantSpec {
                    name: "victim",
                    weight: 1,
                    qd_cap: 0,
                    deadline: DeadlineClass::Default,
                },
                TenantSpec {
                    name: "aggressor",
                    weight: 1,
                    qd_cap: 0,
                    deadline: DeadlineClass::Default,
                },
            ],
        )
    }

    /// QoS-protected pair: the latency-sensitive `victim` gets a 4× WRR
    /// weight while the bursty `aggressor` is capped at 4 in-flight
    /// requests.
    pub fn victim_boost() -> Self {
        TenantSet::custom(
            "victim-boost",
            vec![
                TenantSpec {
                    name: "victim",
                    weight: 4,
                    qd_cap: 0,
                    deadline: DeadlineClass::Default,
                },
                TenantSpec {
                    name: "aggressor",
                    weight: 1,
                    qd_cap: 4,
                    deadline: DeadlineClass::Default,
                },
            ],
        )
    }

    /// Three tenants with unequal WRR shares for the trio scenario: the
    /// latency-sensitive `victim` keeps its 4× boost, the mixed
    /// `victim-mixed` stream gets a middling 2× share, and the `aggressor`
    /// runs at weight 1 under the same 4-deep in-flight cap as
    /// [`TenantSet::victim_boost`]. Exercises WRR with *three distinct*
    /// weights, not just protected-vs-unprotected.
    pub fn trio_weighted() -> Self {
        TenantSet::custom(
            "trio-weighted",
            vec![
                TenantSpec {
                    name: "victim",
                    weight: 4,
                    qd_cap: 0,
                    deadline: DeadlineClass::Default,
                },
                TenantSpec {
                    name: "victim-mixed",
                    weight: 2,
                    qd_cap: 0,
                    deadline: DeadlineClass::Default,
                },
                TenantSpec {
                    name: "aggressor",
                    weight: 1,
                    qd_cap: 4,
                    deadline: DeadlineClass::Default,
                },
            ],
        )
    }

    /// The deadline-class pair: arbitration-neutral (equal weights, no
    /// caps — exactly [`TenantSet::pair_fair`]) but with *split deadline
    /// contracts*: the latency-sensitive `victim` holds a tight
    /// [`DeadlineClass::Latency`] deadline while the `aggressor` runs
    /// deadline-free ([`DeadlineClass::None`]). Isolates the per-tenant
    /// deadline axis from the WRR/cap axes.
    pub fn deadline_split() -> Self {
        TenantSet::custom(
            "deadline-split",
            vec![
                TenantSpec {
                    name: "victim",
                    weight: 1,
                    qd_cap: 0,
                    deadline: DeadlineClass::Latency,
                },
                TenantSpec {
                    name: "aggressor",
                    weight: 1,
                    qd_cap: 0,
                    deadline: DeadlineClass::None,
                },
            ],
        )
    }

    /// An arbitrary tenant set (property tests and custom scenarios).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty, exceeds 8 tenants (the preset queue
    /// count — every tenant needs at least one queue), or any weight is
    /// zero.
    pub fn custom(label: impl Into<String>, tenants: Vec<TenantSpec>) -> Self {
        assert!(!tenants.is_empty(), "a tenant set needs at least one tenant");
        assert!(
            tenants.len() <= 8,
            "at most 8 tenants (one submission queue each)"
        );
        for t in &tenants {
            assert!(t.weight >= 1, "tenant {} needs a positive weight", t.name);
        }
        TenantSet {
            label: label.into(),
            tenants,
        }
    }

    /// The named presets forming the `tenants` sweep axis.
    pub fn presets() -> Vec<TenantSet> {
        vec![
            TenantSet::single(),
            TenantSet::pair_fair(),
            TenantSet::victim_boost(),
            TenantSet::trio_weighted(),
        ]
    }

    /// Stable axis label (sweep point labels and manifests).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The tenant contracts, indexed by tenant id.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Always false: a tenant set has at least one tenant.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True for one-tenant sets (the bit-identical default path).
    pub fn is_single(&self) -> bool {
        self.tenants.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_the_default_and_inert_shape() {
        let s = TenantSet::default();
        assert_eq!(s, TenantSet::single());
        assert!(s.is_single());
        assert_eq!(s.label(), "single");
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.specs()[0].weight, 1);
        assert_eq!(s.specs()[0].qd_cap, 0);
    }

    /// Point labels and file names carry these labels, so no two named
    /// sets — the presets and the specialty sets — may share one.
    #[test]
    fn labels_are_distinct() {
        let sets: Vec<TenantSet> = TenantSet::presets()
            .into_iter()
            .chain([TenantSet::deadline_split()])
            .collect();
        let labels: std::collections::HashSet<&str> = sets.iter().map(TenantSet::label).collect();
        assert_eq!(labels.len(), sets.len());
    }

    #[test]
    fn victim_boost_protects_the_victim() {
        let v = TenantSet::victim_boost();
        assert_eq!(v.len(), 2);
        assert!(v.specs()[0].weight > v.specs()[1].weight);
        assert_eq!(v.specs()[1].qd_cap, 4);
    }

    #[test]
    fn trio_weighted_orders_three_distinct_weights() {
        let t = TenantSet::trio_weighted();
        assert_eq!(t.label(), "trio-weighted");
        assert_eq!(t.len(), 3);
        let w: Vec<u32> = t.specs().iter().map(|s| s.weight).collect();
        assert_eq!(w, [4, 2, 1], "the two victims must hold distinct shares");
        assert_eq!(t.specs()[2].qd_cap, 4, "the aggressor stays capped");
        assert!(TenantSet::presets().contains(&t));
    }

    #[test]
    fn deadline_split_isolates_the_deadline_axis() {
        let d = TenantSet::deadline_split();
        assert_eq!(d.label(), "deadline-split");
        assert_eq!(d.len(), 2);
        // Arbitration-neutral: same weights/caps as pair_fair.
        let p = TenantSet::pair_fair();
        for (a, b) in d.specs().iter().zip(p.specs()) {
            assert_eq!((a.name, a.weight, a.qd_cap), (b.name, b.weight, b.qd_cap));
        }
        assert_eq!(d.specs()[0].deadline, DeadlineClass::Latency);
        assert_eq!(d.specs()[1].deadline, DeadlineClass::None);
        // Not on the default tenants axis.
        assert!(!TenantSet::presets().contains(&d));
        // Preset sets all carry the Default class (bit-identity contract).
        for set in TenantSet::presets() {
            for spec in set.specs() {
                assert_eq!(spec.deadline, DeadlineClass::Default);
            }
        }
        assert_eq!(DeadlineClass::default(), DeadlineClass::Default);
        for (class, label) in [
            (DeadlineClass::Default, "default"),
            (DeadlineClass::Latency, "latency"),
            (DeadlineClass::Batch, "batch"),
            (DeadlineClass::None, "none"),
        ] {
            assert_eq!(class.label(), label);
        }
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_set_rejected() {
        TenantSet::custom("bad", vec![]);
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_rejected() {
        TenantSet::custom(
            "bad",
            vec![TenantSpec {
                name: "t",
                weight: 0,
                qd_cap: 0,
                deadline: DeadlineClass::Default,
            }],
        );
    }
}
