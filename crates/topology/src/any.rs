//! [`AnyTopology`]: the closed dispatch enum the hot paths run on.
//!
//! The [`Topology`] trait is the open, implementable contract; this enum is
//! its runtime form — a two-word `Copy` value the simulator and the routing
//! algorithms pass by value exactly like the old `Mesh`, with every
//! geometry call a branch-predicted `match` instead of a virtual call.
//! All trait methods are mirrored as inherent methods so call sites need
//! no trait import.

use crate::traits::{ChannelIter, NodeIter, Topology};
use crate::{Coord, Direction, Mesh, MinimalDirs, NodeId, Ring, Torus};
use core::fmt;

/// One of the supported fabric shapes, as a value.
///
/// Obtained from [`crate::TopologySpec::validate`] or via `From` on a
/// concrete topology:
///
/// ```
/// use footprint_topology::{AnyTopology, Direction, Mesh, NodeId, Torus};
/// let m: AnyTopology = Mesh::square(4).into();
/// let t: AnyTopology = Torus::square(4).into();
/// assert_eq!(m.neighbor(NodeId(3), Direction::East), None);
/// assert_eq!(t.neighbor(NodeId(3), Direction::East), Some(NodeId(0)));
/// assert_eq!(m.escape_vcs(), 1);
/// assert_eq!(t.escape_vcs(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnyTopology {
    /// A 2D mesh.
    Mesh(Mesh),
    /// A 2D torus.
    Torus(Torus),
    /// A bidirectional ring.
    Ring(Ring),
}

macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyTopology::Mesh($t) => $body,
            AnyTopology::Torus($t) => $body,
            AnyTopology::Ring($t) => $body,
        }
    };
}

impl AnyTopology {
    /// Short identifier ("mesh", "torus", "ring").
    #[inline]
    pub fn kind_name(self) -> &'static str {
        dispatch!(self, t => Topology::kind_name(&t))
    }

    /// Extent in X (number of columns).
    #[inline]
    pub fn width(self) -> u16 {
        dispatch!(self, t => Topology::width(&t))
    }

    /// Extent in Y (1 for one-dimensional topologies).
    #[inline]
    pub fn height(self) -> u16 {
        dispatch!(self, t => Topology::height(&t))
    }

    /// Total number of nodes.
    #[inline]
    pub fn len(self) -> usize {
        dispatch!(self, t => Topology::len(&t))
    }

    /// `true` only for degenerate single-node fabrics (not constructible
    /// through validated specs).
    #[inline]
    pub fn is_empty(self) -> bool {
        dispatch!(self, t => Topology::is_empty(&t))
    }

    /// Iterates over all node ids in index order.
    #[inline]
    pub fn nodes(self) -> NodeIter {
        dispatch!(self, t => Topology::nodes(&t))
    }

    /// The coordinate of `node`.
    #[inline]
    pub fn coord(self, node: NodeId) -> Coord {
        dispatch!(self, t => Topology::coord(&t, node))
    }

    /// The node at coordinate `c`.
    #[inline]
    pub fn node_at(self, c: Coord) -> NodeId {
        dispatch!(self, t => Topology::node_at(&t, c))
    }

    /// `true` if `c` lies inside the coordinate grid.
    #[inline]
    pub fn contains(self, c: Coord) -> bool {
        dispatch!(self, t => Topology::contains(&t, c))
    }

    /// The neighbor of `node` in `dir`, or `None` where no channel exists.
    #[inline]
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        dispatch!(self, t => Topology::neighbor(&t, node, dir))
    }

    /// Minimal hop count under this topology's metric.
    #[inline]
    pub fn hops(self, a: NodeId, b: NodeId) -> u32 {
        dispatch!(self, t => Topology::hops(&t, a, b))
    }

    /// The productive directions from `cur` toward `dst` (wrap-aware).
    #[inline]
    pub fn minimal_dirs(self, cur: NodeId, dst: NodeId) -> MinimalDirs {
        dispatch!(self, t => Topology::minimal_dirs(&t, cur, dst))
    }

    /// The productive directions on the acyclic (non-wraparound) subgraph.
    #[inline]
    pub fn acyclic_minimal_dirs(self, cur: NodeId, dst: NodeId) -> MinimalDirs {
        dispatch!(self, t => Topology::acyclic_minimal_dirs(&t, cur, dst))
    }

    /// Number of minimal paths between `a` and `b`.
    #[inline]
    pub fn minimal_path_count(self, a: NodeId, b: NodeId) -> u64 {
        dispatch!(self, t => Topology::minimal_path_count(&t, a, b))
    }

    /// Iterates over every directed inter-router channel.
    #[inline]
    pub fn channels(self) -> ChannelIter<AnyTopology> {
        Topology::channels(&self)
    }

    /// `true` if any dimension wraps around.
    #[inline]
    pub fn wraps(self) -> bool {
        dispatch!(self, t => Topology::wraps(&t))
    }

    /// Escape VCs the Duato escape layer reserves on this topology
    /// (1 acyclic, 2 wrapping).
    #[inline]
    pub fn escape_vcs(self) -> usize {
        dispatch!(self, t => Topology::escape_vcs(&t))
    }

    /// The dateline escape-VC class for the hop `cur → dir` of a packet to
    /// `dst` (always 0 on meshes).
    #[inline]
    pub fn escape_class(self, cur: NodeId, dst: NodeId, dir: Direction) -> u8 {
        dispatch!(self, t => Topology::escape_class(&t, cur, dst, dir))
    }

    /// `true` if the channel `node → dir` is a wraparound (dateline)
    /// channel. Always `false` on meshes.
    #[inline]
    pub fn is_wrap_channel(self, node: NodeId, dir: Direction) -> bool {
        dispatch!(self, t => Topology::is_wrap_channel(&t, node, dir))
    }

    /// The underlying mesh, if this is one — for mesh-only overlays
    /// (XORDET's coordinate parity classes and similar).
    #[inline]
    pub fn as_mesh(self) -> Option<Mesh> {
        match self {
            AnyTopology::Mesh(m) => Some(m),
            _ => None,
        }
    }
}

impl Topology for AnyTopology {
    fn kind_name(&self) -> &'static str {
        AnyTopology::kind_name(*self)
    }

    fn width(&self) -> u16 {
        AnyTopology::width(*self)
    }

    fn height(&self) -> u16 {
        AnyTopology::height(*self)
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        AnyTopology::neighbor(*self, node, dir)
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        AnyTopology::hops(*self, a, b)
    }

    fn minimal_dirs(&self, cur: NodeId, dst: NodeId) -> MinimalDirs {
        AnyTopology::minimal_dirs(*self, cur, dst)
    }

    fn acyclic_minimal_dirs(&self, cur: NodeId, dst: NodeId) -> MinimalDirs {
        AnyTopology::acyclic_minimal_dirs(*self, cur, dst)
    }

    fn minimal_path_count(&self, a: NodeId, b: NodeId) -> u64 {
        AnyTopology::minimal_path_count(*self, a, b)
    }

    fn wraps(&self) -> bool {
        AnyTopology::wraps(*self)
    }

    fn escape_vcs(&self) -> usize {
        AnyTopology::escape_vcs(*self)
    }

    fn escape_class(&self, cur: NodeId, dst: NodeId, dir: Direction) -> u8 {
        AnyTopology::escape_class(*self, cur, dst, dir)
    }

    fn is_wrap_channel(&self, node: NodeId, dir: Direction) -> bool {
        AnyTopology::is_wrap_channel(*self, node, dir)
    }
}

impl fmt::Display for AnyTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        dispatch!(*self, t => t.fmt(f))
    }
}

impl From<Mesh> for AnyTopology {
    fn from(m: Mesh) -> Self {
        AnyTopology::Mesh(m)
    }
}

impl From<Torus> for AnyTopology {
    fn from(t: Torus) -> Self {
        AnyTopology::Torus(t)
    }
}

impl From<Ring> for AnyTopology {
    fn from(r: Ring) -> Self {
        AnyTopology::Ring(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_matches_concrete_impls() {
        let mesh = Mesh::square(4);
        let any: AnyTopology = mesh.into();
        for n in mesh.nodes() {
            assert_eq!(any.coord(n), mesh.coord(n));
            for d in crate::DIRECTIONS {
                assert_eq!(any.neighbor(n, d), mesh.neighbor(n, d));
            }
        }
        assert_eq!(any.channels().count(), mesh.channels().count());
        assert_eq!(any.to_string(), "4x4 mesh");
        assert_eq!(any.kind_name(), "mesh");
        assert!(!any.wraps());
        assert_eq!(any.escape_vcs(), 1);
        assert_eq!(
            any.escape_class(NodeId(0), NodeId(5), Direction::East),
            0,
            "mesh escape is single-class"
        );
    }

    #[test]
    fn mesh_minimal_dirs_are_wrap_free_under_dispatch() {
        let any: AnyTopology = Mesh::square(4).into();
        assert_eq!(
            any.minimal_dirs(NodeId(0), NodeId(3)).x,
            Some(Direction::East)
        );
        assert_eq!(any.minimal_dirs(NodeId(0), NodeId(3)), any.acyclic_minimal_dirs(NodeId(0), NodeId(3)));
    }

    #[test]
    fn as_mesh_only_for_meshes() {
        assert!(AnyTopology::from(Mesh::square(4)).as_mesh().is_some());
        assert!(AnyTopology::from(Torus::square(4)).as_mesh().is_none());
        assert!(AnyTopology::from(Ring::new(8)).as_mesh().is_none());
    }
}
