//! The Venice router chip: crossbar ports and the router reservation table
//! of Figure 7.
//!
//! Each flash node carries a router chip next to (not inside) the flash
//! chip. The router has four mesh ports (RIGHT/UP/DOWN/LEFT) plus
//! injection/ejection ports to the local flash chip, and a small
//! *router reservation table* that records, per in-flight packet ID, which
//! entry port is circuit-connected to which exit port. The table has one row
//! per flash controller because the packet ID equals the source controller
//! ID, bounding the number of simultaneous reservations.
//!
//! [`crate::mesh::MeshState`] keeps every router's table in one packed
//! array, one byte per (packet, router) row; read a row back with
//! [`crate::mesh::MeshState::reservation`].

use crate::Direction;

/// A port of the router: one of the four mesh directions or the local
/// ejection port toward the flash chip. (The injection port is only ever
/// used by the locally attached controller and needs no arbitration.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Port {
    /// One of the four mesh directions.
    Mesh(Direction),
    /// The local port toward the flash chip.
    Ejection,
    /// The local port from the attached flash controller into the mesh.
    Injection,
}

impl Port {
    /// 3-bit code: a mesh port's 2-bit direction encoding, then ejection
    /// (4) and injection (5).
    const fn code(self) -> u8 {
        match self {
            Port::Mesh(d) => d.encoding(),
            Port::Ejection => 4,
            Port::Injection => 5,
        }
    }

    /// Decodes [`Port::code`].
    const fn from_code(code: u8) -> Port {
        match code {
            4 => Port::Ejection,
            5 => Port::Injection,
            c => Port::Mesh(Direction::from_encoding(c)),
        }
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Port::Mesh(d) => write!(f, "{d}"),
            Port::Ejection => f.write_str("EJECT"),
            Port::Injection => f.write_str("INJECT"),
        }
    }
}

/// One row of the router reservation table (Figure 7): a packet ID and the
/// bidirectionally connected entry/exit ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReservationEntry {
    /// Packet ID (= source flash controller ID).
    pub packet_id: u8,
    /// Port the scout entered on.
    pub entry: Port,
    /// Port the scout left on.
    pub exit: Port,
}

impl ReservationEntry {
    /// Packs a row's two ports into one byte. The result is never zero, so
    /// zero marks an empty row.
    pub(crate) const fn pack(entry: Port, exit: Port) -> u8 {
        0x40 | entry.code() << 3 | exit.code()
    }

    /// Unpacks a row byte of packet `packet_id`; `None` for an empty row.
    pub(crate) const fn unpack(packet_id: u8, row: u8) -> Option<ReservationEntry> {
        if row == 0 {
            return None;
        }
        Some(ReservationEntry {
            packet_id,
            entry: Port::from_code(row >> 3 & 0b111),
            exit: Port::from_code(row & 0b111),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_rows_roundtrip_every_port_pair() {
        let ports = Direction::ALL
            .map(Port::Mesh)
            .into_iter()
            .chain([Port::Ejection, Port::Injection]);
        for entry in ports.clone() {
            for exit in ports.clone() {
                let row = ReservationEntry::pack(entry, exit);
                assert_ne!(row, 0, "a held row never packs to the empty marker");
                assert_eq!(
                    ReservationEntry::unpack(7, row),
                    Some(ReservationEntry {
                        packet_id: 7,
                        entry,
                        exit
                    })
                );
            }
        }
        assert_eq!(ReservationEntry::unpack(7, 0), None);
    }
}
