//! Topology substrate for the Footprint NoC reproduction.
//!
//! The paper ("Footprint: Regulating Routing Adaptiveness in
//! Networks-on-Chip", ISCA 2017) evaluates exclusively on 2D meshes; this
//! crate grew from that mesh model into a first-class topology API so the
//! same regulated-adaptiveness machinery can run on other fabrics:
//!
//! * [`Topology`] — the trait every fabric shape implements: node/channel
//!   enumeration, neighbor map, coordinate and hop metric, and the
//!   canonical deadlock-free escape routing (escape-VC count and dateline
//!   classes).
//! * [`Mesh`] — the paper's `width × height` 2D mesh (one escape VC).
//! * [`Torus`] — the mesh with wraparound rows and columns (two dateline
//!   escape-VC classes; see the torus module docs for the acyclicity
//!   argument).
//! * [`Ring`] — the 1D torus: the cheap-router cost point.
//! * [`AnyTopology`] — the `Copy` dispatch enum the simulator's hot paths
//!   carry by value.
//! * [`TopologySpec`] — the validated, canonically-printable configuration
//!   form ([`TopologySpec::validate`] returns typed [`TopologyError`]s).
//!
//! Supporting types: [`NodeId`] (dense row-major index), [`Coord`],
//! [`Direction`]/[`Port`] (the four-direction port alphabet plus the local
//! port), [`Channel`], [`MinimalDirs`], and the deterministic fault-plan
//! model ([`FaultPlan`]).
//!
//! # Example
//!
//! ```
//! use footprint_topology::{Direction, NodeId, Topology, TopologySpec};
//!
//! let torus = TopologySpec::torus(8).validate().unwrap();
//! // Wraparound makes the far corner adjacent in both dimensions.
//! assert_eq!(torus.hops(NodeId(0), NodeId(63)), 2);
//! // Wrapping fabrics reserve two dateline escape-VC classes.
//! assert_eq!(torus.escape_vcs(), 2);
//! assert_eq!("torus:8x8".parse::<TopologySpec>().unwrap().validate().unwrap(), torus);
//! ```

#![warn(missing_docs)]

mod any;
mod coord;
mod fault;
mod mesh;
mod port;
mod ring;
mod spec;
mod torus;
mod traits;

pub use any::AnyTopology;
pub use coord::{Coord, NodeId};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError, FaultTarget};
pub use mesh::{Channel, Mesh, MinimalDirs};
pub use port::{Direction, Port, DIRECTIONS, PORTS, PORT_COUNT};
pub use ring::Ring;
pub use spec::{TopologyError, TopologySpec};
pub use torus::Torus;
pub use traits::{ChannelIter, NodeIter, Topology};

pub(crate) use mesh::binomial;
