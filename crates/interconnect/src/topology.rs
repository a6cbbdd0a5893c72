//! 2D-mesh topology of flash nodes and flash-controller attach points.

use std::fmt;

/// A node (flash chip + router chip) in the interconnection network,
/// numbered row-major: node `r * cols + c` is at row `r`, column `c` —
/// matching the paper's Figure 8 labeling (`F0..F19` for a 4×5 mesh).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// Identifier of a flash controller. Controllers attach to the west edge of
/// the mesh, one per row (Figure 8: `FC0..FC3` on the left).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FcId(pub u8);

impl fmt::Display for FcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FC{}", self.0)
    }
}

/// One of the four mesh directions, with the paper's 2-bit port encoding
/// (Figure 7: `00` RIGHT, `01` UP, `10` DOWN, `11` LEFT).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward larger column index (`+x`), encoding `00`.
    Right,
    /// Toward smaller row index (`-y`), encoding `01`.
    Up,
    /// Toward larger row index (`+y`), encoding `10`.
    Down,
    /// Toward smaller column index (`-x`), encoding `11`.
    Left,
}

impl Direction {
    /// All four directions, in encoding order.
    pub const ALL: [Direction; 4] = [
        Direction::Right,
        Direction::Up,
        Direction::Down,
        Direction::Left,
    ];

    /// The paper's 2-bit port encoding.
    pub const fn encoding(self) -> u8 {
        match self {
            Direction::Right => 0b00,
            Direction::Up => 0b01,
            Direction::Down => 0b10,
            Direction::Left => 0b11,
        }
    }

    /// Decodes a 2-bit port value.
    pub const fn from_encoding(bits: u8) -> Direction {
        match bits & 0b11 {
            0b00 => Direction::Right,
            0b01 => Direction::Up,
            0b10 => Direction::Down,
            _ => Direction::Left,
        }
    }

    /// The opposite direction (the port a packet *enters* on the far router
    /// after leaving through `self`).
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::Right => Direction::Left,
            Direction::Left => Direction::Right,
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }

    /// Dense index in `[0, 4)` for table lookups.
    pub const fn index(self) -> usize {
        self.encoding() as usize
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::Right => "RIGHT",
            Direction::Up => "UP",
            Direction::Down => "DOWN",
            Direction::Left => "LEFT",
        };
        f.write_str(s)
    }
}

/// A bidirectional link between two adjacent routers, identified by a dense
/// index: horizontal links first (row-major), then vertical links.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An `rows × cols` 2D mesh of flash nodes with one flash controller per
/// row attached at column 0 (the paper's Figure 5/8 arrangement).
///
/// # Example
///
/// ```
/// use venice_interconnect::{Direction, Mesh2D, NodeId};
/// let m = Mesh2D::new(8, 8);
/// assert_eq!(m.link_count(), 112); // the paper's 112 links for 8×8
/// let n = m.node_at(3, 4);
/// assert_eq!(m.neighbor(n, Direction::Right), Some(m.node_at(3, 5)));
/// assert_eq!(m.neighbor(m.node_at(0, 0), Direction::Up), None);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mesh2D {
    rows: u16,
    cols: u16,
}

impl Mesh2D {
    /// Creates a mesh with `rows` rows and `cols` columns.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 1 and the node count fits
    /// in a `u16`.
    pub fn new(rows: u16, cols: u16) -> Self {
        assert!(rows >= 1 && cols >= 1, "mesh must be at least 1x1");
        assert!(
            (rows as u32) * (cols as u32) <= u16::MAX as u32,
            "mesh too large"
        );
        Mesh2D { rows, cols }
    }

    /// Number of rows (also the number of flash controllers).
    pub fn rows(&self) -> u16 {
        self.rows
    }

    /// Number of columns (chips per row).
    pub fn cols(&self) -> u16 {
        self.cols
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        usize::from(self.rows) * usize::from(self.cols)
    }

    /// Total number of bidirectional links: `rows*(cols-1)` horizontal plus
    /// `(rows-1)*cols` vertical (112 for the paper's 8×8 mesh).
    pub fn link_count(&self) -> usize {
        usize::from(self.rows) * usize::from(self.cols - 1)
            + usize::from(self.rows - 1) * usize::from(self.cols)
    }

    /// The node at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node_at(&self, row: u16, col: u16) -> NodeId {
        assert!(row < self.rows && col < self.cols, "node out of range");
        NodeId(row * self.cols + col)
    }

    /// Row of a node.
    pub fn row(&self, n: NodeId) -> u16 {
        n.0 / self.cols
    }

    /// Column of a node.
    pub fn col(&self, n: NodeId) -> u16 {
        n.0 % self.cols
    }

    /// The neighboring node in `dir`, or `None` at the mesh edge.
    pub fn neighbor(&self, n: NodeId, dir: Direction) -> Option<NodeId> {
        let (r, c) = (self.row(n), self.col(n));
        let (nr, nc) = match dir {
            Direction::Right => (r, c.checked_add(1).filter(|&x| x < self.cols)?),
            Direction::Left => (r, c.checked_sub(1)?),
            Direction::Up => (r.checked_sub(1)?, c),
            Direction::Down => (r.checked_add(1).filter(|&x| x < self.rows)?, c),
        };
        Some(self.node_at(nr, nc))
    }

    /// The bidirectional link leaving `n` in direction `dir`, or `None` at
    /// the mesh edge.
    pub fn link(&self, n: NodeId, dir: Direction) -> Option<LinkId> {
        self.link_at(self.row(n), self.col(n), dir)
    }

    /// [`Mesh2D::link`] for the node at `(r, c)`, without the row/column
    /// division.
    pub(crate) fn link_at(&self, r: u16, c: u16, dir: Direction) -> Option<LinkId> {
        let h_count = u32::from(self.rows) * u32::from(self.cols - 1);
        match dir {
            Direction::Right if c + 1 < self.cols => {
                Some(LinkId(u32::from(r) * u32::from(self.cols - 1) + u32::from(c)))
            }
            Direction::Left if c > 0 => {
                Some(LinkId(u32::from(r) * u32::from(self.cols - 1) + u32::from(c) - 1))
            }
            Direction::Down if r + 1 < self.rows => {
                Some(LinkId(h_count + u32::from(r) * u32::from(self.cols) + u32::from(c)))
            }
            Direction::Up if r > 0 => Some(LinkId(
                h_count + u32::from(r - 1) * u32::from(self.cols) + u32::from(c),
            )),
            _ => None,
        }
    }

    /// Manhattan distance between two nodes (minimal hop count).
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> u32 {
        let dr = i32::from(self.row(a)) - i32::from(self.row(b));
        let dc = i32::from(self.col(a)) - i32::from(self.col(b));
        dr.unsigned_abs() + dc.unsigned_abs()
    }

    /// Attach node of a flash controller: column 0 of its row.
    ///
    /// # Panics
    ///
    /// Panics if `fc.0 >= rows`.
    pub fn fc_node(&self, fc: FcId) -> NodeId {
        assert!(u16::from(fc.0) < self.rows, "controller out of range");
        self.node_at(u16::from(fc.0), 0)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u16).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_roundtrips() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_encoding(d.encoding()), d);
            assert_eq!(d.opposite().opposite(), d);
        }
        // Figure 7 encodings.
        assert_eq!(Direction::Right.encoding(), 0b00);
        assert_eq!(Direction::Up.encoding(), 0b01);
        assert_eq!(Direction::Down.encoding(), 0b10);
        assert_eq!(Direction::Left.encoding(), 0b11);
    }

    #[test]
    fn paper_mesh_has_112_links() {
        assert_eq!(Mesh2D::new(8, 8).link_count(), 112);
        assert_eq!(Mesh2D::new(4, 16).link_count(), 4 * 15 + 3 * 16);
        assert_eq!(Mesh2D::new(16, 4).link_count(), 16 * 3 + 15 * 4);
    }

    #[test]
    fn neighbors_at_edges_are_none() {
        let m = Mesh2D::new(3, 3);
        assert_eq!(m.neighbor(m.node_at(0, 0), Direction::Up), None);
        assert_eq!(m.neighbor(m.node_at(0, 0), Direction::Left), None);
        assert_eq!(m.neighbor(m.node_at(2, 2), Direction::Down), None);
        assert_eq!(m.neighbor(m.node_at(2, 2), Direction::Right), None);
    }

    #[test]
    fn links_are_shared_between_endpoints() {
        let m = Mesh2D::new(4, 4);
        for n in m.nodes() {
            for d in Direction::ALL {
                if let Some(nb) = m.neighbor(n, d) {
                    let l1 = m.link(n, d).unwrap();
                    let l2 = m.link(nb, d.opposite()).unwrap();
                    assert_eq!(l1, l2, "link identity must be direction-agnostic");
                }
            }
        }
    }

    #[test]
    fn all_link_ids_are_dense_and_unique() {
        let m = Mesh2D::new(5, 7);
        let mut seen = std::collections::HashSet::new();
        for n in m.nodes() {
            for d in [Direction::Right, Direction::Down] {
                if let Some(l) = m.link(n, d) {
                    assert!((l.0 as usize) < m.link_count());
                    assert!(seen.insert(l), "duplicate link id {l}");
                }
            }
        }
        assert_eq!(seen.len(), m.link_count());
    }

    #[test]
    fn manhattan_distance() {
        let m = Mesh2D::new(8, 8);
        assert_eq!(m.manhattan(m.node_at(0, 0), m.node_at(7, 7)), 14);
        assert_eq!(m.manhattan(m.node_at(3, 3), m.node_at(3, 3)), 0);
    }

    #[test]
    fn fc_nodes_on_west_edge() {
        let m = Mesh2D::new(8, 8);
        for fc in 0..8u8 {
            let n = m.fc_node(FcId(fc));
            assert_eq!(m.col(n), 0);
            assert_eq!(m.row(n), u16::from(fc));
        }
    }

    #[test]
    fn figure8_node_numbering() {
        // Figure 8 uses a 4-row × 5-column mesh labeled F0..F19 row-major.
        let m = Mesh2D::new(4, 5);
        assert_eq!(m.node_at(0, 2), NodeId(2));
        assert_eq!(m.node_at(3, 4), NodeId(19));
        assert_eq!(m.row(NodeId(7)), 1);
        assert_eq!(m.col(NodeId(7)), 2);
    }
}
