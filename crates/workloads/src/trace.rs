//! I/O traces: the unit of workload input to the simulator.

use venice_sim::SimTime;

/// Direction of one I/O request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

impl std::fmt::Display for IoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoOp::Read => "R",
            IoOp::Write => "W",
        })
    }
}

/// One trace record: an I/O request with its arrival time, byte offset into
/// the logical address space, and size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival time at the SSD's host interface.
    pub arrival: SimTime,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset into the logical address space.
    pub offset: u64,
    /// Request size in bytes.
    pub bytes: u32,
}

/// First-order statistics of a trace, matching the columns of the paper's
/// Table 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceStats {
    /// Fraction of read requests, in percent.
    pub read_pct: f64,
    /// Mean request size in KiB.
    pub avg_request_kb: f64,
    /// Mean inter-arrival time in microseconds.
    pub avg_interarrival_us: f64,
    /// Number of requests.
    pub requests: usize,
    /// Highest byte addressed plus one (footprint upper bound).
    pub max_offset: u64,
}

/// An I/O trace: time-ordered request records over a bounded logical space.
///
/// # Example
///
/// ```
/// use venice_workloads::{IoOp, Trace, TraceEvent};
/// use venice_sim::SimTime;
///
/// let t = Trace::new(
///     "tiny",
///     1 << 20,
///     vec![TraceEvent {
///         arrival: SimTime::ZERO,
///         op: IoOp::Read,
///         offset: 4096,
///         bytes: 8192,
///     }],
/// );
/// let s = t.stats();
/// assert_eq!(s.read_pct, 100.0);
/// assert_eq!(s.avg_request_kb, 8.0);
/// ```
#[derive(Clone, Debug)]
pub struct Trace {
    name: String,
    footprint_bytes: u64,
    events: Vec<TraceEvent>,
    /// Tenant tag per event (parallel to `events`). Empty means the whole
    /// trace belongs to tenant 0 — the single-tenant default, which keeps
    /// untagged traces allocation-free.
    tenants: Vec<u8>,
}

impl Trace {
    /// Creates a single-tenant trace. Events must be sorted by arrival
    /// time and stay within the footprint.
    ///
    /// # Panics
    ///
    /// Panics if events are unsorted or address beyond the footprint.
    pub fn new(name: impl Into<String>, footprint_bytes: u64, events: Vec<TraceEvent>) -> Self {
        Trace::with_tenants(name, footprint_bytes, events, Vec::new())
    }

    /// Creates a tenant-tagged trace: `tenants[i]` is the tenant id of
    /// `events[i]`. An empty tag vector means single-tenant (all tenant 0).
    ///
    /// # Panics
    ///
    /// Panics if events are unsorted, address beyond the footprint, or the
    /// tag vector is non-empty with a length different from the events'.
    pub fn with_tenants(
        name: impl Into<String>,
        footprint_bytes: u64,
        events: Vec<TraceEvent>,
        tenants: Vec<u8>,
    ) -> Self {
        for w in events.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "trace must be time-sorted");
        }
        for e in &events {
            assert!(
                e.offset + u64::from(e.bytes) <= footprint_bytes,
                "event beyond footprint"
            );
        }
        assert!(
            tenants.is_empty() || tenants.len() == events.len(),
            "tenant tags must be empty or one per event"
        );
        Trace {
            name: name.into(),
            footprint_bytes,
            events,
            tenants,
        }
    }

    /// Tenant id of request `i` (0 for untagged traces).
    pub fn tenant_of(&self, i: usize) -> u8 {
        self.tenants.get(i).copied().unwrap_or(0)
    }

    /// Number of distinct tenants the trace addresses (highest tag + 1;
    /// 1 for untagged traces).
    pub fn tenant_count(&self) -> usize {
        self.tenants
            .iter()
            .copied()
            .max()
            .map_or(1, |m| usize::from(m) + 1)
    }

    /// True when the trace carries per-event tenant tags.
    pub fn is_tenant_tagged(&self) -> bool {
        !self.tenants.is_empty()
    }

    /// Workload name (Table 2 row name for catalog workloads).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical address space covered, in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    /// The request records, time-ordered.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Computes Table 2-style statistics.
    pub fn stats(&self) -> TraceStats {
        let n = self.events.len();
        if n == 0 {
            return TraceStats {
                read_pct: 0.0,
                avg_request_kb: 0.0,
                avg_interarrival_us: 0.0,
                requests: 0,
                max_offset: 0,
            };
        }
        let reads = self.events.iter().filter(|e| e.op == IoOp::Read).count();
        let bytes: u64 = self.events.iter().map(|e| u64::from(e.bytes)).sum();
        let span = self
            .events
            .last()
            .expect("non-empty")
            .arrival
            .saturating_since(self.events[0].arrival);
        let gaps = (n - 1).max(1);
        TraceStats {
            read_pct: reads as f64 / n as f64 * 100.0,
            avg_request_kb: bytes as f64 / n as f64 / 1024.0,
            avg_interarrival_us: span.as_micros_f64() / gaps as f64,
            requests: n,
            max_offset: self
                .events
                .iter()
                .map(|e| e.offset + u64::from(e.bytes))
                .max()
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_sim::SimDuration;

    fn ev(us: u64, op: IoOp, offset: u64, bytes: u32) -> TraceEvent {
        TraceEvent {
            arrival: SimTime::ZERO + SimDuration::from_micros(us),
            op,
            offset,
            bytes,
        }
    }

    #[test]
    fn stats_match_hand_computation() {
        let t = Trace::new(
            "t",
            1 << 20,
            vec![
                ev(0, IoOp::Read, 0, 4096),
                ev(10, IoOp::Write, 4096, 8192),
                ev(30, IoOp::Read, 0, 4096),
            ],
        );
        let s = t.stats();
        assert!((s.read_pct - 66.666).abs() < 0.01);
        assert!((s.avg_request_kb - 16384.0 / 3.0 / 1024.0).abs() < 1e-9);
        assert!((s.avg_interarrival_us - 15.0).abs() < 1e-9);
        assert_eq!(s.requests, 3);
        assert_eq!(s.max_offset, 4096 + 8192);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_events_rejected() {
        Trace::new(
            "bad",
            1 << 20,
            vec![ev(10, IoOp::Read, 0, 4096), ev(5, IoOp::Read, 0, 4096)],
        );
    }

    #[test]
    #[should_panic(expected = "beyond footprint")]
    fn out_of_footprint_rejected() {
        Trace::new("bad", 4096, vec![ev(0, IoOp::Read, 4096, 4096)]);
    }

    #[test]
    fn tenant_tags_follow_events() {
        let events: Vec<TraceEvent> = (0..6).map(|i| ev(i, IoOp::Read, 0, 4096)).collect();
        let tags = vec![0u8, 1, 0, 2, 1, 0];
        let t = Trace::with_tenants("tagged", 1 << 20, events, tags);
        assert!(t.is_tenant_tagged());
        assert_eq!(t.tenant_count(), 3);
        assert_eq!(t.tenant_of(3), 2);
        // Untagged traces are tenant 0 everywhere.
        let plain = Trace::new("plain", 1 << 20, vec![ev(0, IoOp::Read, 0, 4096)]);
        assert!(!plain.is_tenant_tagged());
        assert_eq!(plain.tenant_of(0), 0);
        assert_eq!(plain.tenant_of(99), 0);
        assert_eq!(plain.tenant_count(), 1);
    }

    #[test]
    #[should_panic(expected = "one per event")]
    fn mismatched_tenant_tags_rejected() {
        Trace::with_tenants(
            "bad",
            1 << 20,
            vec![ev(0, IoOp::Read, 0, 4096)],
            vec![0, 1],
        );
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let t = Trace::new("e", 0, vec![]);
        let s = t.stats();
        assert_eq!(s.requests, 0);
        assert_eq!(s.read_pct, 0.0);
    }
}
