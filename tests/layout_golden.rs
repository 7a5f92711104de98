//! Golden fingerprints of `RunReport`s captured on the pre-SoA
//! (object-of-arrays) datapath.
//!
//! The struct-of-arrays restructuring of the flit/credit datapath is a pure
//! layout change: every run must produce **byte-equal** reports to the
//! object-per-router implementation it replaced. These fingerprints were
//! recorded from the last object-layout build (PR 5); any divergence means
//! the SoA walk changed simulation semantics, not just memory layout.
//!
//! The fingerprint is an FNV-1a hash over the `Debug` rendering of the
//! full `RunReport` (which prints every counter and every f64 with
//! shortest-roundtrip precision), so a single flipped latency sample or
//! purity term shows up as a mismatch.

use footprint_core::{
    PacketSize, RoutingSpec, RunOptions, Scheduler, SimulationBuilder, SweepOptions, TrafficSpec,
};
use footprint_topology::{Direction, FaultEvent, FaultPlan, NodeId};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash a report's Debug rendering against the pinned capture. Report
/// fields added *after* the object-layout capture (and always empty in
/// these single-workload configurations) are erased from the rendering
/// first, so the goldens keep pinning the simulation datapath rather
/// than the report struct's shape:
///
/// * `tenants` (0.7.0) — per-tenant summaries, empty without
///   `SimulationBuilder::tenants`.
/// * `topology` (0.8.0) — the fabric's display name; all goldens ran on
///   the 4×4 / 8×8 meshes the captures were taken on.
/// * `partitions` / `recovery` (0.9.0) — resilience observations,
///   appended at the end of the struct; pure observation, so erasing the
///   rendering suffix restores the 0.8.0 shape byte for byte even for
///   the faulted goldens.
fn golden_hash(debug: &str) -> u64 {
    let stripped = match debug.find(", partitions: ") {
        Some(i) => format!("{} }}", &debug[..i]),
        None => debug.to_string(),
    };
    fnv1a(
        stripped
            .replace(", tenants: []", "")
            .replace(", topology: \"mesh:4x4\"", "")
            .replace(", topology: \"mesh:8x8\"", "")
            .as_bytes(),
    )
}

fn base() -> SimulationBuilder {
    SimulationBuilder::mesh(4)
        .vcs(4)
        .warmup(200)
        .measurement(400)
        .seed(3)
        .injection_rate(0.15)
        .drain(500)
}

fn repair_plan() -> FaultPlan {
    FaultPlan::new()
        .with(FaultEvent::link_down(NodeId(5), Direction::East, 100).repaired_at(250))
}

/// The pinned matrix: (label, fingerprint) per configuration. Captured
/// once on the object-layout build; never regenerate these from a build
/// you are trying to validate.
const GOLDEN: &[(&str, u64)] = &[
    ("footprint", 0xca246d83340da0ec),
    ("footprint+faults", 0x4bd7a34c1716ffbc),
    ("dbar", 0xaa74bb175f6c8571),
    ("dbar+faults", 0xdbb1acb63a17c3a0),
    ("odd-even", 0x25fb0374dc0bdc36),
    ("odd-even+faults", 0x33d6af9a7ef2e545),
    ("dor", 0xa8f5ab1569213023),
    ("dor+faults", 0xde34b7163223f55c),
    ("footprint-multiflit", 0x96585ae002c7c9a0),
    ("paper-8x8-footprint", 0x320b98dd76d27652),
    ("sweep-2pt", 0x454646bffddf8b78),
];

fn fingerprint(spec: RoutingSpec, faults: Option<FaultPlan>, scheduler: Scheduler) -> u64 {
    let mut o = RunOptions::new().scheduler(scheduler).watchdog(10_000);
    if let Some(p) = faults {
        o = o.faults(p);
    }
    let report = base().routing(spec).run_with(o).expect("golden run");
    golden_hash(&format!("{report:?}"))
}

#[test]
fn reports_match_object_layout_goldens() {
    let discover = std::env::var("FOOTPRINT_GOLDEN_PRINT").is_ok();
    let mut got: Vec<(String, u64)> = Vec::new();
    for spec in [
        RoutingSpec::Footprint,
        RoutingSpec::Dbar,
        RoutingSpec::OddEven,
        RoutingSpec::Dor,
    ] {
        for faults in [None, Some(repair_plan())] {
            let label = if faults.is_some() {
                format!("{}+faults", spec.name())
            } else {
                spec.name().to_string()
            };
            // Both schedulers must agree with the recorded value, so the
            // golden table stores one fingerprint per configuration.
            let dense = fingerprint(spec, faults.clone(), Scheduler::Dense);
            let active = fingerprint(spec, faults, Scheduler::Active);
            assert_eq!(dense, active, "{label}: dense vs active diverged");
            got.push((label, dense));
        }
    }
    // Multi-flit packets exercise body/tail streaming, joins and drains.
    let multi = base()
        .routing(RoutingSpec::Footprint)
        .packet_size(PacketSize::Fixed(4))
        .injection_rate(0.05)
        .run_with(RunOptions::new().watchdog(10_000))
        .expect("multiflit run");
    got.push(("footprint-multiflit".into(), golden_hash(&format!("{multi:?}"))));
    // The paper's 8×8/10-VC configuration on a short window.
    let paper = SimulationBuilder::paper_default()
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.30)
        .warmup(100)
        .measurement(200)
        .seed(0xBE_5C)
        .run_with(RunOptions::new().watchdog(10_000))
        .expect("paper run");
    got.push(("paper-8x8-footprint".into(), golden_hash(&format!("{paper:?}"))));
    // A two-point sweep through the canonical sweep path (derived seeds).
    let curve = base()
        .routing(RoutingSpec::Footprint)
        .sweep_with(&[0.05, 0.15], SweepOptions::new().threads(1))
        .expect("sweep");
    got.push(("sweep-2pt".into(), golden_hash(&format!("{curve:?}"))));

    if discover {
        for (label, h) in &got {
            println!("    (\"{label}\", {h:#018x}),");
        }
        return;
    }
    for (label, h) in &got {
        let expected = GOLDEN
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no golden for {label}"));
        assert_eq!(
            *h, expected.1,
            "{label}: report fingerprint diverged from the object-layout golden"
        );
    }
}
