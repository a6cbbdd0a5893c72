//! NAND operation timing presets (Table 1 of the paper).

use venice_sim::SimDuration;

/// Latencies of the three array operations of a flash die.
///
/// The two presets mirror the paper's Table 1:
///
/// | | `z_nand()` (perf-opt) | `tlc_3d()` (cost-opt) |
/// |---|---|---|
/// | read (tR) | 3 µs | 45 µs |
/// | program (tPROG) | 100 µs | 650 µs |
/// | erase (tBERS) | 1 ms | 3.5 ms |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NandTiming {
    /// Array read latency (tR).
    pub t_r: SimDuration,
    /// Program latency (tPROG).
    pub t_prog: SimDuration,
    /// Block erase latency (tBERS).
    pub t_bers: SimDuration,
}

impl NandTiming {
    /// Performance-optimized preset (Samsung Z-NAND, Table 1).
    pub const fn z_nand() -> Self {
        NandTiming {
            t_r: SimDuration::from_micros(3),
            t_prog: SimDuration::from_micros(100),
            t_bers: SimDuration::from_millis(1),
        }
    }

    /// Cost-optimized preset (3D TLC NAND, Table 1).
    pub const fn tlc_3d() -> Self {
        NandTiming {
            t_r: SimDuration::from_micros(45),
            t_prog: SimDuration::from_micros(650),
            t_bers: SimDuration::from_nanos(3_500_000),
        }
    }

    /// The named presets, as `(name, timing)` pairs — the sweep engine's
    /// NAND-timing axis vocabulary.
    pub const PRESETS: [(&'static str, NandTiming); 2] = [
        ("z-nand", NandTiming::z_nand()),
        ("tlc-3d", NandTiming::tlc_3d()),
    ];

    /// The preset name of this timing, or `None` for a custom one (used to
    /// label sweep points and manifests).
    pub fn preset_name(&self) -> Option<&'static str> {
        Self::PRESETS
            .iter()
            .find(|(_, t)| t == self)
            .map(|&(n, _)| n)
    }

    /// Latency of one operation kind.
    pub const fn latency(&self, kind: crate::NandCommandKind) -> SimDuration {
        match kind {
            crate::NandCommandKind::Read => self.t_r,
            crate::NandCommandKind::Program => self.t_prog,
            crate::NandCommandKind::Erase => self.t_bers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NandCommandKind;

    #[test]
    fn named_presets_round_trip() {
        for (name, timing) in NandTiming::PRESETS {
            assert_eq!(timing.preset_name(), Some(name));
        }
        let custom = NandTiming {
            t_r: SimDuration::from_micros(7),
            ..NandTiming::z_nand()
        };
        assert_eq!(custom.preset_name(), None);
    }

    #[test]
    fn presets_match_table1() {
        let z = NandTiming::z_nand();
        assert_eq!(z.t_r, SimDuration::from_micros(3));
        assert_eq!(z.t_prog, SimDuration::from_micros(100));
        assert_eq!(z.t_bers, SimDuration::from_millis(1));
        let t = NandTiming::tlc_3d();
        assert_eq!(t.t_r, SimDuration::from_micros(45));
        assert_eq!(t.t_prog, SimDuration::from_micros(650));
        assert_eq!(t.t_bers.as_nanos(), 3_500_000);
    }

    #[test]
    fn latency_dispatch() {
        let z = NandTiming::z_nand();
        assert_eq!(z.latency(NandCommandKind::Read), z.t_r);
        assert_eq!(z.latency(NandCommandKind::Program), z.t_prog);
        assert_eq!(z.latency(NandCommandKind::Erase), z.t_bers);
    }
}
