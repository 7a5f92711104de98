//! The decorated drive loop must reproduce `run_with` exactly. A decorator
//! that misses a forwarded method (say `wrap_strategy`, which only matters
//! on a wrapping fabric) changes the simulation, so every paper algorithm
//! runs on a mesh and on a torus.

use footprint_core::{RoutingSpec, RunOptions, TrafficSpec};
use footprint_perfbench::plan::{PointSpec, PAPER_ALGORITHMS};
use footprint_perfbench::run::traced_report;
use footprint_topology::TopologySpec;

fn point(topology: TopologySpec, routing: RoutingSpec, traffic: TrafficSpec) -> PointSpec {
    PointSpec {
        topology,
        vcs: 4,
        routing,
        traffic,
        rate: 0.25,
        seed: 7,
        warmup: 300,
        measurement: 600,
    }
}

#[test]
fn decorated_runs_equal_plain_runs_on_mesh_and_torus() {
    for topology in [TopologySpec::mesh(4), TopologySpec::torus(4)] {
        for routing in PAPER_ALGORITHMS {
            for traffic in [TrafficSpec::UniformRandom, TrafficSpec::Transpose] {
                let spec = point(topology, routing, traffic);
                let plain = spec
                    .builder()
                    .run_with(RunOptions::new().sentinel(false))
                    .expect("plain run");
                let traced = traced_report(&spec).expect("traced run");
                assert!(
                    plain.latency.ejected_packets > 0,
                    "{spec:?} delivered nothing"
                );
                assert_eq!(traced, plain, "{spec:?}");
            }
        }
    }
}

/// Every routing spec, including the ones that override
/// `allows_footprint_join` (none of the four paper algorithms does).
const ALL_SPECS: [RoutingSpec; 13] = [
    RoutingSpec::Footprint,
    RoutingSpec::Dbar,
    RoutingSpec::OddEven,
    RoutingSpec::Dor,
    RoutingSpec::DbarXordet,
    RoutingSpec::OddEvenXordet,
    RoutingSpec::DorXordet,
    RoutingSpec::RandomMinimal,
    RoutingSpec::WestFirst,
    RoutingSpec::NorthLast,
    RoutingSpec::DorVoqSw,
    RoutingSpec::DbarVoqSw,
    RoutingSpec::OddEvenFootprint,
];

/// Methods the simulator calls only to validate a configuration or under a
/// fault plan (`wrap_strategy`, `min_vcs_on`, `allowed_dirs`) cannot change
/// a fault-free run, and no paper algorithm overrides
/// `allows_footprint_join`, so every method is also compared directly.
#[test]
fn decorated_routing_answers_every_query_like_the_plain_one() {
    use footprint_perfbench::trace::{RoutingStats, TimedRouting};
    use footprint_routing::RoutingAlgorithm;
    use footprint_topology::NodeId;
    use std::sync::Arc;

    for topology in [TopologySpec::mesh(4), TopologySpec::torus(4)] {
        let topo = topology.validate().expect("valid topology");
        for routing in ALL_SPECS {
            let plain = routing.build();
            let timed = TimedRouting::new(routing.build(), Arc::new(RoutingStats::default()));
            assert_eq!(timed.name(), plain.name());
            assert_eq!(timed.policy(), plain.policy());
            assert_eq!(timed.has_escape(), plain.has_escape());
            assert_eq!(timed.wrap_strategy(), plain.wrap_strategy(), "{routing:?}");
            assert_eq!(timed.min_vcs_on(topo), plain.min_vcs_on(topo));
            assert_eq!(timed.vc_selection(), plain.vc_selection());
            assert_eq!(
                timed.allows_footprint_join(),
                plain.allows_footprint_join(),
                "{routing:?}"
            );
            let nodes = topology.nodes() as u16;
            for cur in 0..nodes {
                for dest in 0..nodes {
                    let (cur, src, dest) = (NodeId(cur), NodeId((cur + 1) % nodes), NodeId(dest));
                    assert_eq!(
                        timed.allowed_dirs(topo, cur, src, dest),
                        plain.allowed_dirs(topo, cur, src, dest),
                        "{routing:?} {cur:?}->{dest:?}"
                    );
                }
            }
        }
    }
}
