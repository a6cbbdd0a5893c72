//! Flash transactions: the unit of work the FTL submits to the flash array.

use venice_nand::PhysicalPageAddr;

/// Identifier of a host I/O request (assigned by the host interface layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// Identifier of a flash transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// What a transaction does and on whose behalf.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Page read for a host request.
    UserRead,
    /// Page program for a host request.
    UserWrite,
    /// Page read issued by the garbage collector (valid-page migration).
    GcRead,
    /// Page program issued by the garbage collector.
    GcWrite,
    /// Block erase issued by the garbage collector.
    GcErase,
    /// Page read issued by the wear leveler.
    WearRead,
    /// Page program issued by the wear leveler.
    WearWrite,
    /// Block erase issued by the wear leveler.
    WearErase,
    /// Mapping-table read (cached-mapping-table miss).
    MapRead,
    /// Survivor-page read issued by the redundancy rebuild engine
    /// (reconstructing a dead chip's page from its parity group). Lowest
    /// dispatch priority: the TSU serves these only when a chip has no
    /// other queued work.
    RebuildRead,
    /// Remapped program of a reconstructed page issued by the rebuild
    /// engine. Rides the normal write queue — NAND program-order rules
    /// bind it to its allocation like every other program.
    RebuildWrite,
}

impl TxnKind {
    /// True for reads of any origin (read-priority scheduling classes).
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            TxnKind::UserRead
                | TxnKind::GcRead
                | TxnKind::WearRead
                | TxnKind::MapRead
                | TxnKind::RebuildRead
        )
    }

    /// True for programs of any origin.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            TxnKind::UserWrite | TxnKind::GcWrite | TxnKind::WearWrite | TxnKind::RebuildWrite
        )
    }

    /// True for erases.
    pub fn is_erase(&self) -> bool {
        matches!(self, TxnKind::GcErase | TxnKind::WearErase)
    }
}

/// One flash transaction: a page-granularity operation bound to a physical
/// location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Unique id.
    pub id: TxnId,
    /// Operation class.
    pub kind: TxnKind,
    /// Target physical page (for erases: any page in the victim block).
    pub target: PhysicalPageAddr,
    /// Logical page, when the transaction maps to one.
    pub lpa: Option<u64>,
    /// Host request this transaction belongs to, if any.
    pub request: Option<RequestId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification_is_partitioned() {
        use TxnKind::*;
        for k in [
            UserRead, UserWrite, GcRead, GcWrite, GcErase, WearRead, WearWrite, WearErase,
            MapRead, RebuildRead, RebuildWrite,
        ] {
            let classes =
                u8::from(k.is_read()) + u8::from(k.is_write()) + u8::from(k.is_erase());
            assert_eq!(classes, 1, "{k:?} must be exactly one class");
        }
    }
}
