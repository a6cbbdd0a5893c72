//! Mixed workloads: Table 3's six combinations of concurrent traces.
//!
//! Each mix runs two or three catalog workloads against the same SSD. The
//! constituents share the device but address disjoint partitions of the
//! logical space (as separate tenants would), and the merged arrival stream
//! is time-compressed to the paper's published mix intensity — mixes are
//! much more intense than their constituents (Table 3's inter-arrival
//! column), which is what exacerbates path conflicts in §6.2.

use venice_sim::{SimDuration, SimTime};

use crate::{catalog, Trace, TraceEvent};

/// One Table 3 mix definition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixEntry {
    /// Mix name ("mix1".."mix6").
    pub name: &'static str,
    /// Constituent catalog workload names.
    pub constituents: &'static [&'static str],
    /// The paper's description of the mix.
    pub description: &'static str,
    /// Target average inter-arrival time of the merged stream, µs.
    pub avg_interarrival_us: f64,
}

/// The six mixed workloads (Table 3).
pub const TABLE3: [MixEntry; 6] = [
    MixEntry {
        name: "mix1",
        constituents: &["src2_1", "proj_3"],
        description: "Both workloads are read-intensive",
        avg_interarrival_us: 5.8,
    },
    MixEntry {
        name: "mix2",
        constituents: &["src2_1", "proj_3", "YCSB_D"],
        description: "All three workloads are read-intensive",
        avg_interarrival_us: 8.4,
    },
    MixEntry {
        name: "mix3",
        constituents: &["prxy_0", "rsrch_0"],
        description: "Both workloads are write-intensive",
        avg_interarrival_us: 93.0,
    },
    MixEntry {
        name: "mix4",
        constituents: &["prxy_0", "rsrch_0", "mds_0"],
        description: "All three workloads are write-intensive",
        avg_interarrival_us: 56.0,
    },
    MixEntry {
        name: "mix5",
        constituents: &["prxy_0", "src2_1"],
        description: "prxy_0 is write-intensive and src2_1 is read-intensive",
        avg_interarrival_us: 5.0,
    },
    MixEntry {
        name: "mix6",
        constituents: &["prxy_0", "src2_1", "usr_0"],
        description: "write-intensive + read-intensive + 60/40 mixed",
        avg_interarrival_us: 3.0,
    },
];

/// Looks up a mix by name.
pub fn by_name(name: &str) -> Option<&'static MixEntry> {
    TABLE3.iter().find(|m| m.name == name)
}

/// Builds the merged trace of a mix with `requests_per_stream` requests from
/// each constituent.
///
/// Constituents are generated from their calibrated catalog specs, assigned
/// disjoint address partitions, merged by arrival time, and uniformly
/// time-compressed so the merged mean inter-arrival equals Table 3's value.
///
/// # Panics
///
/// Panics if a constituent name is missing from the catalog.
///
/// # Example
///
/// ```
/// use venice_workloads::mix;
/// let m = mix::by_name("mix1").unwrap();
/// let t = mix::generate(m, 500);
/// assert_eq!(t.len(), 1000);
/// let s = t.stats();
/// assert!((s.avg_interarrival_us - 5.8).abs() / 5.8 < 0.05);
/// ```
pub fn generate(mix: &MixEntry, requests_per_stream: usize) -> Trace {
    let traces: Vec<Trace> = mix
        .constituents
        .iter()
        .map(|name| {
            catalog::by_name(name)
                .unwrap_or_else(|| panic!("unknown constituent {name}"))
                .generate(requests_per_stream)
        })
        .collect();
    merge_tagged(mix.name, &traces, Some(mix.avg_interarrival_us))
}

/// Merges constituent traces over disjoint address partitions, tagging each
/// event with its origin stream's index as its tenant id. Both sorts are
/// stable, so the event stream is byte-identical to the untagged merge —
/// the tags purely ride along.
fn merge_tagged(name: &'static str, traces: &[Trace], compress_to_us: Option<f64>) -> Trace {
    // Disjoint partitions: constituent i occupies [base_i, base_i + fp_i).
    let mut merged: Vec<(TraceEvent, u8)> =
        Vec::with_capacity(traces.iter().map(Trace::len).sum());
    let mut base = 0u64;
    for (ti, t) in traces.iter().enumerate() {
        for e in t.events() {
            merged.push((
                TraceEvent {
                    offset: base + e.offset,
                    ..*e
                },
                ti as u8,
            ));
        }
        base += t.footprint_bytes();
    }
    merged.sort_by_key(|(e, _)| e.arrival);

    // Compress time to the published mix intensity.
    if let Some(avg_interarrival_us) = compress_to_us {
        if merged.len() > 1 {
            let span = merged
                .last()
                .expect("non-empty")
                .0
                .arrival
                .saturating_since(merged[0].0.arrival)
                .as_nanos() as f64;
            let target_span = avg_interarrival_us * 1_000.0 * (merged.len() - 1) as f64;
            let scale = target_span / span.max(1.0);
            let t0 = merged[0].0.arrival.as_nanos() as f64;
            for (e, _) in &mut merged {
                let rel = e.arrival.as_nanos() as f64 - t0;
                e.arrival = SimTime::ZERO + SimDuration::from_nanos_f64(rel * scale);
            }
            // Compression can collapse equal timestamps; keep ordering stable.
            merged.sort_by_key(|(e, _)| e.arrival);
        }
    }

    let (events, tenants): (Vec<TraceEvent>, Vec<u8>) = merged.into_iter().unzip();
    Trace::with_tenants(name, base, events, tenants)
}

/// The latency-sensitive victim stream of the noisy-neighbor scenario:
/// steady small random reads, the kind of tenant whose p99 a QoS scheme
/// must protect. Poisson arrivals at 20 µs keep the stream
/// fabric-sensitive: fast enough that interconnect queueing shows up at
/// the tail, slow enough that the victim's own self-queueing does not
/// drown out the aggressor's interference.
fn victim_spec() -> crate::WorkloadSpec {
    crate::WorkloadSpec::new("victim-reads", 100.0, 4.0, 20.0)
        .footprint_mb(64)
        .burst_mean(1.0)
        .seq_fraction(0.05)
}

/// The aggressor stream: long near-saturating write bursts over a larger
/// partition — the noisy neighbor.
fn aggressor_spec() -> crate::WorkloadSpec {
    crate::WorkloadSpec::new("aggressor-writes", 0.0, 32.0, 30.0)
        .footprint_mb(192)
        .burst_mean(96.0)
        .intra_burst_gap_us(0.1)
        .zipf_theta(1.05)
        .seq_fraction(0.3)
}

/// The second victim of the three-tenant scenario: a throughput-oriented
/// mixed stream — steadier and less latency-critical than
/// [`victim_spec`]'s reads, the kind of tenant an operator would give a
/// smaller (but non-zero) WRR share.
fn victim2_spec() -> crate::WorkloadSpec {
    crate::WorkloadSpec::new("victim-mixed", 70.0, 8.0, 40.0)
        .footprint_mb(96)
        .burst_mean(4.0)
        .seq_fraction(0.2)
}

/// The noisy-neighbor scenario: the victim's latency-sensitive reads
/// (tenant 0) sharing the SSD with the aggressor's write bursts
/// (tenant 1), over disjoint partitions. `requests_per_stream` requests
/// from each; arrivals keep each stream's native intensity (no mix-style
/// compression — the aggressor is already near-saturating).
pub fn noisy_neighbor(requests_per_stream: usize) -> Trace {
    let streams = [
        victim_spec().generate(requests_per_stream),
        aggressor_spec().generate(requests_per_stream),
    ];
    merge_tagged("noisy-neighbor", &streams, None)
}

/// The three-tenant unequal-weight scenario: the latency-sensitive victim
/// (tenant 0) and a throughput-oriented second victim (tenant 1) sharing
/// the SSD with the aggressor's write bursts (tenant 2), over disjoint
/// partitions. Pair with an unequal-weight tenant set (the hil crate's
/// `trio-weighted` preset) to test that WRR shares track weights when the
/// victims deserve *different* protections, not just victim-vs-aggressor.
pub fn noisy_neighbor_trio(requests_per_stream: usize) -> Trace {
    let streams = [
        victim_spec().generate(requests_per_stream),
        victim2_spec().generate(requests_per_stream),
        aggressor_spec().generate(requests_per_stream),
    ];
    merge_tagged("noisy-neighbor-trio", &streams, None)
}

/// The victim stream of [`noisy_neighbor`] running alone (same spec, same
/// partition layout): the per-fabric reference for computing the victim's
/// p99 *degradation* under the aggressor burst.
pub fn victim_solo(requests: usize) -> Trace {
    let streams = [victim_spec().generate(requests)];
    merge_tagged("victim-solo", &streams, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IoOp;

    #[test]
    fn six_mixes_with_known_constituents() {
        assert_eq!(TABLE3.len(), 6);
        for m in &TABLE3 {
            for c in m.constituents {
                assert!(
                    catalog::by_name(c).is_some(),
                    "constituent {c} of {} missing",
                    m.name
                );
            }
        }
    }

    #[test]
    fn merged_intensity_matches_table3() {
        for m in &TABLE3 {
            let t = generate(m, 400);
            let s = t.stats();
            assert!(
                (s.avg_interarrival_us - m.avg_interarrival_us).abs() / m.avg_interarrival_us
                    < 0.05,
                "{}: inter-arrival {} vs {}",
                m.name,
                s.avg_interarrival_us,
                m.avg_interarrival_us
            );
        }
    }

    #[test]
    fn partitions_do_not_overlap() {
        let m = by_name("mix5").unwrap();
        let t = generate(m, 300);
        // prxy_0 writes land in the low partition; src2_1 reads high. Check
        // that both partitions are touched and no event crosses the end.
        let boundary = 2048u64 * 1024 * 1024; // prxy_0 footprint (MSR: 2 GiB)
        let low = t.events().iter().filter(|e| e.offset < boundary).count();
        let high = t.events().iter().filter(|e| e.offset >= boundary).count();
        assert!(low > 0 && high > 0);
        for e in t.events() {
            assert!(e.offset + u64::from(e.bytes) <= t.footprint_bytes());
        }
    }

    #[test]
    fn read_write_mix_reflects_constituents() {
        // mix3 is write-heavy (prxy_0 3% + rsrch_0 9% reads).
        let t = generate(by_name("mix3").unwrap(), 500);
        let reads = t.events().iter().filter(|e| e.op == IoOp::Read).count();
        let pct = reads as f64 / t.len() as f64 * 100.0;
        assert!(pct < 20.0, "mix3 read% {pct}");
        // mix1 is read-heavy.
        let t = generate(by_name("mix1").unwrap(), 500);
        let reads = t.events().iter().filter(|e| e.op == IoOp::Read).count();
        let pct = reads as f64 / t.len() as f64 * 100.0;
        assert!(pct > 90.0, "mix1 read% {pct}");
    }

    #[test]
    fn names_lookup() {
        assert_eq!(TABLE3.len(), 6);
        assert!(by_name("mix7").is_none());
    }

    #[test]
    fn tenant_tags_track_constituents_through_compression() {
        // Every event must carry its origin stream's index, and per-tenant
        // counts must equal the per-stream request budget — tags must
        // survive both stable sorts of the merge.
        let m = by_name("mix2").unwrap(); // three constituents
        let t = generate(m, 250);
        assert!(t.is_tenant_tagged());
        assert_eq!(t.tenant_count(), 3);
        let mut counts = [0usize; 3];
        for i in 0..t.len() {
            counts[usize::from(t.tenant_of(i))] += 1;
        }
        assert_eq!(counts, [250, 250, 250]);
        // Tags also pin the partition: tenant 0 (src2_1) owns the lowest
        // address range, so every tenant-0 event lands below its footprint.
        let fp0 = catalog::by_name("src2_1").unwrap().generate(250).footprint_bytes();
        for (i, e) in t.events().iter().enumerate() {
            if t.tenant_of(i) == 0 {
                assert!(e.offset + u64::from(e.bytes) <= fp0);
            } else {
                assert!(e.offset >= fp0);
            }
        }
    }

    #[test]
    fn tagging_left_the_event_stream_unchanged() {
        // The tagged merge must produce byte-identical events to an untagged
        // reference merge (stable sorts on the same keys preserve order), so
        // pre-tenancy mix results stay reproducible.
        let m = by_name("mix5").unwrap();
        let t = generate(m, 300);
        let reference: Vec<Trace> = m
            .constituents
            .iter()
            .map(|n| catalog::by_name(n).unwrap().generate(300))
            .collect();
        let mut merged: Vec<TraceEvent> = Vec::new();
        let mut base = 0u64;
        for r in &reference {
            for e in r.events() {
                merged.push(TraceEvent { offset: base + e.offset, ..*e });
            }
            base += r.footprint_bytes();
        }
        merged.sort_by_key(|e| e.arrival);
        let span = merged.last().unwrap().arrival.saturating_since(merged[0].arrival).as_nanos()
            as f64;
        let target = m.avg_interarrival_us * 1_000.0 * (merged.len() - 1) as f64;
        let scale = target / span.max(1.0);
        let t0 = merged[0].arrival.as_nanos() as f64;
        for e in &mut merged {
            let rel = e.arrival.as_nanos() as f64 - t0;
            e.arrival = SimTime::ZERO + SimDuration::from_nanos_f64(rel * scale);
        }
        merged.sort_by_key(|e| e.arrival);
        assert_eq!(t.events(), &merged[..]);
    }

    #[test]
    fn noisy_neighbor_pits_reads_against_write_bursts() {
        let t = noisy_neighbor(400);
        assert_eq!(t.len(), 800);
        assert_eq!(t.tenant_count(), 2);
        // Victim (tenant 0) is all reads; aggressor (tenant 1) all writes.
        for (i, e) in t.events().iter().enumerate() {
            match t.tenant_of(i) {
                0 => assert_eq!(e.op, IoOp::Read, "victim event {i} is a write"),
                _ => assert_eq!(e.op, IoOp::Write, "aggressor event {i} is a read"),
            }
        }
        // Deterministic: same call, same bytes and tags.
        let u = noisy_neighbor(400);
        assert_eq!(t.events(), u.events());
        assert_eq!(
            (0..t.len()).map(|i| t.tenant_of(i)).collect::<Vec<_>>(),
            (0..u.len()).map(|i| u.tenant_of(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn noisy_neighbor_trio_layers_a_second_victim_between_the_pair() {
        let t = noisy_neighbor_trio(300);
        assert_eq!(t.len(), 900);
        assert_eq!(t.tenant_count(), 3);
        // Tenant 0 is the all-read victim, tenant 2 the all-write aggressor;
        // tenant 1 (the mixed second victim) must carry both ops.
        let mut ops = [[0usize; 2]; 3];
        for (i, e) in t.events().iter().enumerate() {
            ops[usize::from(t.tenant_of(i))][usize::from(e.op == IoOp::Write)] += 1;
        }
        assert_eq!(ops[0], [300, 0], "victim must be read-only");
        assert!(ops[1][0] > 0 && ops[1][1] > 0, "second victim must mix ops");
        assert_eq!(ops[2], [0, 300], "aggressor must be write-only");
        // Tenant 0 of the trio is byte-identical to the two-tenant victim:
        // the trio only *adds* a stream, it does not perturb the others.
        let pair = noisy_neighbor(300);
        let stream = |tr: &Trace, tenant: u8| -> Vec<TraceEvent> {
            tr.events()
                .iter()
                .enumerate()
                .filter(|(i, _)| tr.tenant_of(*i) == tenant)
                .map(|(_, e)| *e)
                .collect()
        };
        assert_eq!(stream(&t, 0), stream(&pair, 0));
        // Deterministic: same call, same bytes and tags.
        let u = noisy_neighbor_trio(300);
        assert_eq!(t.events(), u.events());
        assert_eq!(
            (0..t.len()).map(|i| t.tenant_of(i)).collect::<Vec<_>>(),
            (0..u.len()).map(|i| u.tenant_of(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn victim_solo_is_the_victim_stream_of_the_shared_run() {
        // Same spec, so the solo run is a fair degradation baseline: all
        // reads, same request sizes as the shared run's tenant-0 events.
        let solo = victim_solo(300);
        assert_eq!(solo.len(), 300);
        assert_eq!(solo.tenant_count(), 1);
        assert!(solo.events().iter().all(|e| e.op == IoOp::Read));
        let shared = noisy_neighbor(300);
        let victim_bytes: Vec<u32> = shared
            .events()
            .iter()
            .enumerate()
            .filter(|(i, _)| shared.tenant_of(*i) == 0)
            .map(|(_, e)| e.bytes)
            .collect();
        let solo_bytes: Vec<u32> = solo.events().iter().map(|e| e.bytes).collect();
        assert_eq!(victim_bytes, solo_bytes);
    }
}
