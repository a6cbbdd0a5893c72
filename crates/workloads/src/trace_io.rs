//! MQSim ASCII trace interchange.
//!
//! MQSim (the simulator the paper builds on) replays whitespace-separated
//! ASCII traces with one request per line:
//!
//! ```text
//! <arrival-time-ns> <device> <start-sector-lba> <sectors> <type>
//! ```
//!
//! where sectors are 512 bytes and `type` is `1` for reads, `0` for writes
//! (the MSR Cambridge convention MQSim adopts). This module converts between
//! that format and [`Trace`], so real trace files can be replayed on this
//! simulator and our synthetic traces can be replayed on MQSim for
//! cross-validation.

use std::fmt::Write as _;

use venice_sim::SimTime;

use crate::{IoOp, Trace, TraceEvent};

/// Sector size of the MQSim/MSR trace format.
pub const TRACE_SECTOR_BYTES: u64 = 512;

/// Errors from parsing an MQSim ASCII trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceParseError {
    /// A line did not have the five expected fields.
    WrongFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Field index (0-based).
        field: usize,
    },
    /// The request type was neither `0` nor `1`.
    BadType {
        /// 1-based line number.
        line: usize,
    },
    /// Arrival times were not non-decreasing.
    OutOfOrder {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::WrongFieldCount { line, found } => {
                write!(f, "line {line}: expected 5 fields, found {found}")
            }
            TraceParseError::BadNumber { line, field } => {
                write!(f, "line {line}: field {field} is not a number")
            }
            TraceParseError::BadType { line } => {
                write!(f, "line {line}: request type must be 0 (write) or 1 (read)")
            }
            TraceParseError::OutOfOrder { line } => {
                write!(f, "line {line}: arrival times must be non-decreasing")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Parses an MQSim ASCII trace. Empty lines and `#` comments are skipped.
///
/// The trace footprint is derived from the highest sector touched.
///
/// # Errors
///
/// Returns a [`TraceParseError`] describing the first malformed line. A
/// request whose byte offset or end overflows `u64`, or whose size
/// overflows the `u32` byte count, is a [`TraceParseError::BadNumber`] on
/// its LBA or sector field. Never panics.
///
/// # Example
///
/// ```
/// use venice_workloads::trace_io::parse_mqsim;
/// let text = "0 0 8 16 1\n1000 0 0 8 0\n";
/// let trace = parse_mqsim("t", text).unwrap();
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.events()[0].bytes, 16 * 512);
/// ```
pub fn parse_mqsim(name: &str, text: &str) -> Result<Trace, TraceParseError> {
    let mut events = Vec::new();
    let mut max_end = 0u64;
    let mut last_arrival = SimTime::ZERO;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() != 5 {
            return Err(TraceParseError::WrongFieldCount {
                line,
                found: fields.len(),
            });
        }
        let num = |i: usize| -> Result<u64, TraceParseError> {
            fields[i]
                .parse::<u64>()
                .map_err(|_| TraceParseError::BadNumber { line, field: i })
        };
        let arrival = SimTime::from_nanos(num(0)?);
        let _device = num(1)?;
        let lba = num(2)?;
        let sectors = num(3)?.max(1);
        let op = match fields[4] {
            "1" => IoOp::Read,
            "0" => IoOp::Write,
            _ => return Err(TraceParseError::BadType { line }),
        };
        if arrival < last_arrival {
            return Err(TraceParseError::OutOfOrder { line });
        }
        last_arrival = arrival;
        let bad = |field| TraceParseError::BadNumber { line, field };
        let bytes = sectors
            .checked_mul(TRACE_SECTOR_BYTES)
            .and_then(|b| u32::try_from(b).ok())
            .ok_or(bad(3))?;
        let offset = lba.checked_mul(TRACE_SECTOR_BYTES).ok_or(bad(2))?;
        let end = offset.checked_add(u64::from(bytes)).ok_or(bad(2))?;
        max_end = max_end.max(end);
        events.push(TraceEvent {
            arrival,
            op,
            offset,
            bytes,
        });
    }
    Ok(Trace::new(name, max_end, events))
}

/// Renders a [`Trace`] in MQSim's ASCII format (device id 0).
///
/// # Example
///
/// ```
/// use venice_workloads::trace_io::{format_mqsim, parse_mqsim};
/// use venice_workloads::WorkloadSpec;
/// let t = WorkloadSpec::new("x", 50.0, 8.0, 100.0).footprint_mb(16).generate(10);
/// let text = format_mqsim(&t);
/// let back = parse_mqsim("x", &text).unwrap();
/// assert_eq!(back.events(), t.events());
/// ```
pub fn format_mqsim(trace: &Trace) -> String {
    let mut out = String::new();
    for e in trace.events() {
        let ty = match e.op {
            IoOp::Read => 1,
            IoOp::Write => 0,
        };
        let _ = writeln!(
            out,
            "{} 0 {} {} {}",
            e.arrival.as_nanos(),
            e.offset / TRACE_SECTOR_BYTES,
            u64::from(e.bytes) / TRACE_SECTOR_BYTES,
            ty
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_trace() {
        let t = parse_mqsim("x", "0 0 0 8 1\n500 0 128 16 0\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].op, IoOp::Read);
        assert_eq!(t.events()[1].op, IoOp::Write);
        assert_eq!(t.events()[1].offset, 128 * 512);
        assert_eq!(t.footprint_bytes(), (128 + 16) * 512);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let t = parse_mqsim("x", "# header\n\n0 0 0 8 1\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn errors_are_located() {
        assert_eq!(
            parse_mqsim("x", "0 0 0 8\n").unwrap_err(),
            TraceParseError::WrongFieldCount { line: 1, found: 4 }
        );
        assert_eq!(
            parse_mqsim("x", "0 0 zz 8 1\n").unwrap_err(),
            TraceParseError::BadNumber { line: 1, field: 2 }
        );
        assert_eq!(
            parse_mqsim("x", "0 0 0 8 7\n").unwrap_err(),
            TraceParseError::BadType { line: 1 }
        );
        assert_eq!(
            parse_mqsim("x", "100 0 0 8 1\n0 0 0 8 1\n").unwrap_err(),
            TraceParseError::OutOfOrder { line: 2 }
        );
    }

    #[test]
    fn roundtrip_preserves_events() {
        let t = crate::WorkloadSpec::new("rt", 70.0, 16.0, 30.0)
            .footprint_mb(64)
            .generate(200);
        let back = parse_mqsim("rt", &format_mqsim(&t)).unwrap();
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn zero_sector_request_clamped_to_one() {
        let t = parse_mqsim("x", "0 0 0 0 1\n").unwrap();
        assert_eq!(t.events()[0].bytes, 512);
    }

    /// Sizes and offsets past the `u32`/`u64` byte ranges are errors on the
    /// offending field, not a wrapped or truncated request: the boundaries,
    /// then a fuzz of valid lines with one field made oversized,
    /// non-numeric, missing, extra, a bad type or out of order, which must
    /// each fail at that line. Random printable garbage never panics.
    #[test]
    fn malformed_and_oversized_lines_are_errors_not_panics() {
        let max_sectors = u64::from(u32::MAX) / TRACE_SECTOR_BYTES;
        let t = parse_mqsim("x", &format!("0 0 0 {max_sectors} 1")).unwrap();
        assert_eq!(u64::from(t.events()[0].bytes), max_sectors * TRACE_SECTOR_BYTES);
        let last_lba = u64::MAX / TRACE_SECTOR_BYTES;
        for (line, field) in [
            (format!("0 0 0 {} 1", max_sectors + 1), 3),
            (format!("0 0 0 {} 1", max_sectors + 2), 3),
            (format!("0 0 {} 1 0", last_lba + 1), 2),
            (format!("0 0 {last_lba} 1 0"), 2),
        ] {
            let err = TraceParseError::BadNumber { line: 1, field };
            assert_eq!(parse_mqsim("x", &line).unwrap_err(), err, "{line}");
        }
        let mut rng = venice_sim::rng::Xorshift64Star::new(0x7ace);
        for case in 0..2_100 {
            let mut fields: Vec<String> = [1_000 + rng.next_bounded(1_000), 0]
                .into_iter()
                .chain([rng.next_bounded(1 << 20), 1 + rng.next_bounded(64), rng.next_bounded(2)])
                .map(|n| n.to_string())
                .collect();
            let mut above = |lo: u64| (lo + 1 + rng.next_bounded(u64::MAX - lo)).to_string();
            match case % 7 {
                0 => fields[2] = above(last_lba),
                1 => fields[3] = above(max_sectors),
                2 => fields[case % 4] = ["x", "-1", "1.5", "18446744073709551616"][case % 3].into(),
                3 => drop(fields.remove(case / 7 % 5)),
                4 => fields.push("0".into()),
                5 => fields[4] = (2 + case / 7 % 8).to_string(),
                _ => fields[0] = (case / 7 % 1_000).to_string(),
            }
            let text = format!("1000 0 0 8 1\n{}\n", fields.join(" "));
            let err = parse_mqsim("fuzz", &text).expect_err(&text).to_string();
            assert!(err.starts_with("line 2:"), "{text}: {err}");
            let garbage: String = (0..rng.next_bounded(40))
                .map(|_| char::from(b' ' + rng.next_bounded(95) as u8))
                .collect();
            let _ = parse_mqsim("fuzz", &format!("{}\n{garbage}\n", fields.join(" ")));
        }
    }

    #[test]
    fn display_of_errors() {
        let e = TraceParseError::BadType { line: 3 };
        assert!(e.to_string().contains("line 3"));
    }
}
