//! [`TopologySpec`]: the validated, serialization-stable topology
//! configuration.
//!
//! Configuration structs ([`SimConfig`], the builder) carry a
//! `TopologySpec` — plain data naming a shape and its dimensions — and
//! turn it into a live [`AnyTopology`] through [`TopologySpec::validate`],
//! which returns a typed [`TopologyError`] instead of panicking on
//! nonsense dimensions.
//!
//! The spec is `Copy + Eq + Hash` and has a stable, canonical textual form
//! (`Display`/`FromStr` round-trip: `mesh:8x8`, `torus:8x8`, `ring:16`)
//! so it can key caches and appear in journals without a serde
//! dependency.
//!
//! [`SimConfig`]: https://docs.rs/footprint-sim

use crate::{AnyTopology, Mesh, Ring, Torus};
use core::fmt;
use core::str::FromStr;

/// A topology configuration: shape + dimensions, before validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologySpec {
    /// A `width × height` 2D mesh (minimum 2×2).
    Mesh {
        /// Number of columns.
        width: u16,
        /// Number of rows.
        height: u16,
    },
    /// A `width × height` 2D torus (minimum 3 per dimension).
    Torus {
        /// Number of columns.
        width: u16,
        /// Number of rows.
        height: u16,
    },
    /// An `n`-node bidirectional ring (minimum 3).
    Ring {
        /// Number of nodes.
        nodes: u16,
    },
}

impl TopologySpec {
    /// A square `k × k` mesh.
    pub fn mesh(k: u16) -> Self {
        TopologySpec::Mesh { width: k, height: k }
    }

    /// A square `k × k` torus.
    pub fn torus(k: u16) -> Self {
        TopologySpec::Torus { width: k, height: k }
    }

    /// An `n`-node ring.
    pub fn ring(nodes: u16) -> Self {
        TopologySpec::Ring { nodes }
    }

    /// The node count this spec describes (unvalidated arithmetic).
    pub fn nodes(self) -> usize {
        match self {
            TopologySpec::Mesh { width, height } | TopologySpec::Torus { width, height } => {
                width as usize * height as usize
            }
            TopologySpec::Ring { nodes } => nodes as usize,
        }
    }

    /// Short identifier of the shape ("mesh", "torus", "ring").
    pub fn kind_name(self) -> &'static str {
        match self {
            TopologySpec::Mesh { .. } => "mesh",
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::Ring { .. } => "ring",
        }
    }

    /// Validates the dimensions and builds the live topology.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::MeshTooSmall`] — mesh below 2×2 (a single row or
    ///   column has nodes with a single neighbor and the paper's traffic
    ///   patterns degenerate).
    /// * [`TopologyError::TorusTooSmall`] — torus dimension below 3 (the
    ///   wrap channel must be distinct from the direct channel).
    /// * [`TopologyError::RingTooSmall`] — ring below 3 nodes.
    /// * [`TopologyError::TooManyNodes`] — node ids no longer fit `u16`.
    pub fn validate(self) -> Result<AnyTopology, TopologyError> {
        let nodes = match self {
            TopologySpec::Mesh { width, height } | TopologySpec::Torus { width, height } => {
                u32::from(width) * u32::from(height)
            }
            TopologySpec::Ring { nodes } => u32::from(nodes),
        };
        if nodes > u16::MAX as u32 + 1 {
            return Err(TopologyError::TooManyNodes { nodes });
        }
        match self {
            TopologySpec::Mesh { width, height } => {
                if width < 2 || height < 2 {
                    return Err(TopologyError::MeshTooSmall { width, height });
                }
                Ok(AnyTopology::Mesh(Mesh::new(width, height)))
            }
            TopologySpec::Torus { width, height } => {
                if width < Torus::MIN_DIM || height < Torus::MIN_DIM {
                    return Err(TopologyError::TorusTooSmall { width, height });
                }
                Ok(AnyTopology::Torus(Torus::new(width, height)))
            }
            TopologySpec::Ring { nodes } => {
                if nodes < Ring::MIN_NODES {
                    return Err(TopologyError::RingTooSmall { nodes });
                }
                Ok(AnyTopology::Ring(Ring::new(nodes)))
            }
        }
    }
}

impl From<Mesh> for TopologySpec {
    fn from(m: Mesh) -> Self {
        TopologySpec::Mesh {
            width: m.width(),
            height: m.height(),
        }
    }
}

impl From<Torus> for TopologySpec {
    fn from(t: Torus) -> Self {
        TopologySpec::Torus {
            width: t.width(),
            height: t.height(),
        }
    }
}

impl From<Ring> for TopologySpec {
    fn from(r: Ring) -> Self {
        TopologySpec::Ring {
            nodes: r.len() as u16,
        }
    }
}

impl From<AnyTopology> for TopologySpec {
    fn from(t: AnyTopology) -> Self {
        match t {
            AnyTopology::Mesh(m) => m.into(),
            AnyTopology::Torus(t) => t.into(),
            AnyTopology::Ring(r) => r.into(),
        }
    }
}

impl fmt::Display for TopologySpec {
    /// The canonical textual form: `mesh:WxH`, `torus:WxH`, `ring:N`.
    /// Stable across releases — journals and cache keys
    /// depend on it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Mesh { width, height } => write!(f, "mesh:{width}x{height}"),
            TopologySpec::Torus { width, height } => write!(f, "torus:{width}x{height}"),
            TopologySpec::Ring { nodes } => write!(f, "ring:{nodes}"),
        }
    }
}

impl FromStr for TopologySpec {
    type Err = TopologyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || TopologyError::Unparseable(s.to_owned());
        let (kind, dims) = s.split_once(':').ok_or_else(bad)?;
        let parse_u16 = |t: &str| t.trim().parse::<u16>().map_err(|_| bad());
        match kind.trim().to_ascii_lowercase().as_str() {
            "mesh" | "torus" => {
                let (w, h) = dims.split_once(['x', 'X']).ok_or_else(bad)?;
                let (width, height) = (parse_u16(w)?, parse_u16(h)?);
                Ok(if kind.trim().eq_ignore_ascii_case("mesh") {
                    TopologySpec::Mesh { width, height }
                } else {
                    TopologySpec::Torus { width, height }
                })
            }
            "ring" => Ok(TopologySpec::Ring {
                nodes: parse_u16(dims)?,
            }),
            _ => Err(bad()),
        }
    }
}

/// A rejected topology configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Mesh below the 2×2 minimum.
    MeshTooSmall {
        /// Offending width.
        width: u16,
        /// Offending height.
        height: u16,
    },
    /// Torus dimension below the 3-extent minimum (wrap and direct
    /// channels must be distinct).
    TorusTooSmall {
        /// Offending width.
        width: u16,
        /// Offending height.
        height: u16,
    },
    /// Ring below the 3-node minimum.
    RingTooSmall {
        /// Offending node count.
        nodes: u16,
    },
    /// Node ids no longer fit `u16`.
    TooManyNodes {
        /// The requested node count.
        nodes: u32,
    },
    /// A topology string that does not match the canonical form.
    Unparseable(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::MeshTooSmall { width, height } => write!(
                f,
                "mesh {width}x{height} is too small (both dimensions must be at least 2)"
            ),
            TopologyError::TorusTooSmall { width, height } => write!(
                f,
                "torus {width}x{height} is too small (both dimensions must be at least 3 \
                 so wrap channels are distinct from direct channels)"
            ),
            TopologyError::RingTooSmall { nodes } => {
                write!(f, "ring with {nodes} nodes is too small (minimum 3)")
            }
            TopologyError::TooManyNodes { nodes } => {
                write!(f, "{nodes} nodes exceed the u16 node-id space (max 65536)")
            }
            TopologyError::Unparseable(s) => write!(
                f,
                "`{s}` is not a topology spec (expected mesh:WxH, torus:WxH or ring:N)"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_builds_each_shape() {
        assert!(matches!(
            TopologySpec::mesh(4).validate(),
            Ok(AnyTopology::Mesh(_))
        ));
        assert!(matches!(
            TopologySpec::torus(4).validate(),
            Ok(AnyTopology::Torus(_))
        ));
        assert!(matches!(
            TopologySpec::ring(8).validate(),
            Ok(AnyTopology::Ring(_))
        ));
    }

    #[test]
    fn validate_rejects_undersized_shapes() {
        assert_eq!(
            TopologySpec::Mesh { width: 1, height: 4 }.validate(),
            Err(TopologyError::MeshTooSmall { width: 1, height: 4 })
        );
        assert_eq!(
            TopologySpec::Torus { width: 2, height: 4 }.validate(),
            Err(TopologyError::TorusTooSmall { width: 2, height: 4 })
        );
        assert_eq!(
            TopologySpec::ring(2).validate(),
            Err(TopologyError::RingTooSmall { nodes: 2 })
        );
    }

    #[test]
    fn circulant_is_an_unknown_kind() {
        assert_eq!(
            "circulant:16/5".parse::<TopologySpec>(),
            Err(TopologyError::Unparseable("circulant:16/5".into()))
        );
    }

    #[test]
    fn display_parse_roundtrip() {
        for spec in [
            TopologySpec::mesh(8),
            TopologySpec::Mesh { width: 4, height: 2 },
            TopologySpec::torus(8),
            TopologySpec::ring(16),
        ] {
            let s = spec.to_string();
            assert_eq!(s.parse::<TopologySpec>().unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn canonical_strings_are_stable() {
        assert_eq!(TopologySpec::mesh(8).to_string(), "mesh:8x8");
        assert_eq!(TopologySpec::torus(4).to_string(), "torus:4x4");
        assert_eq!(TopologySpec::ring(16).to_string(), "ring:16");
    }

    #[test]
    fn parse_rejects_junk() {
        for junk in ["", "mesh", "mesh:8", "mobius:8x8", "ring:x", "mesh:8x8x8"] {
            assert!(
                matches!(
                    junk.parse::<TopologySpec>(),
                    Err(TopologyError::Unparseable(_))
                ),
                "{junk}"
            );
        }
    }

    #[test]
    fn from_concrete_topologies() {
        assert_eq!(TopologySpec::from(Mesh::new(8, 4)).to_string(), "mesh:8x4");
        assert_eq!(TopologySpec::from(Torus::square(8)).to_string(), "torus:8x8");
        assert_eq!(TopologySpec::from(Ring::new(9)).to_string(), "ring:9");
        let any = TopologySpec::torus(4).validate().unwrap();
        assert_eq!(TopologySpec::from(any), TopologySpec::torus(4));
    }

    #[test]
    fn spec_reports_node_counts() {
        assert_eq!(TopologySpec::mesh(8).nodes(), 64);
        assert_eq!(TopologySpec::ring(16).nodes(), 16);
        assert_eq!(TopologySpec::mesh(8).kind_name(), "mesh");
        assert_eq!(TopologySpec::torus(8).kind_name(), "torus");
    }
}
