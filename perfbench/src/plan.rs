//! The four benchmark workloads: which simulations each one runs.
//!
//! Every workload is a fixed amount of simulation on the paper's 8×8 mesh
//! with 10 VCs and the Table 2 defaults; only the seed varies between
//! benchmark runs. `README.md` in this directory says why each one exists.

use footprint_core::exec::derive_seed;
use footprint_core::{RoutingSpec, SimulationBuilder, TrafficSpec};
use footprint_topology::TopologySpec;

/// The seed whose outputs are pinned in [`crate::run::pinned_fingerprint`].
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads for sweep workloads (the benchmark machine has two).
pub const SWEEP_WORKERS: usize = 2;

/// The paper's four routing algorithms, in figure order.
pub const PAPER_ALGORITHMS: [RoutingSpec; 4] = [
    RoutingSpec::Dor,
    RoutingSpec::OddEven,
    RoutingSpec::Dbar,
    RoutingSpec::Footprint,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long Footprint uniform-random run at offered load 0.02.
    SteadyLow,
    /// The same run at 0.30, the fixed high load.
    SteadyHigh,
    /// A cold paper-figure batch: 4 algorithms × 2 patterns × 6 rates.
    FigureSweep,
    /// A smaller curve set run cold, then warm, against a snapshot cache.
    WarmRerun,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SteadyLow,
        Workload::SteadyHigh,
        Workload::FigureSweep,
        Workload::WarmRerun,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyLow => "steady_low",
            Workload::SteadyHigh => "steady_high",
            Workload::FigureSweep => "figure_sweep",
            Workload::WarmRerun => "warm_rerun",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulations this workload runs.
    pub fn plan(self) -> Plan {
        let steady = |rate: f64, warmup: u64, measurement: u64| Plan {
            curves: vec![CurveSpec {
                routing: RoutingSpec::Footprint,
                traffic: TrafficSpec::UniformRandom,
                rates: vec![rate],
                warmup,
                measurement,
            }],
            sweep: false,
            cached: false,
        };
        match self {
            Workload::SteadyLow => steady(0.02, 20_000, 80_000),
            Workload::SteadyHigh => steady(0.30, 5_000, 15_000),
            Workload::FigureSweep => Plan {
                curves: curves(
                    &PAPER_ALGORITHMS,
                    &[TrafficSpec::UniformRandom, TrafficSpec::Transpose],
                    &[0.05, 0.15, 0.25, 0.35, 0.45, 0.55],
                    500,
                    1_000,
                ),
                sweep: true,
                cached: false,
            },
            Workload::WarmRerun => Plan {
                curves: curves(
                    &[RoutingSpec::Dor, RoutingSpec::Footprint],
                    &[TrafficSpec::UniformRandom, TrafficSpec::Transpose],
                    &[0.05, 0.15, 0.25, 0.35],
                    2_000,
                    2_000,
                ),
                sweep: true,
                cached: true,
            },
        }
    }
}

fn curves(
    algorithms: &[RoutingSpec],
    patterns: &[TrafficSpec],
    rates: &[f64],
    warmup: u64,
    measurement: u64,
) -> Vec<CurveSpec> {
    let mut out = Vec::new();
    for &traffic in patterns {
        for &routing in algorithms {
            out.push(CurveSpec {
                routing,
                traffic,
                rates: rates.to_vec(),
                warmup,
                measurement,
            });
        }
    }
    out
}

/// What one workload runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The curves; a single-run workload has one curve of one rate.
    pub curves: Vec<CurveSpec>,
    /// `true`: each curve is one `sweep_with` on [`SWEEP_WORKERS`] workers.
    /// `false`: the single point is one `run_with` on the calling thread.
    pub sweep: bool,
    /// `true`: the curve set runs twice against one fresh snapshot cache,
    /// first cold (storing warmup snapshots), then warm (restoring them).
    /// Only sweeps are cached.
    pub cached: bool,
}

impl Plan {
    /// Passes over the curve set in one repetition.
    pub fn passes(&self) -> usize {
        if self.cached {
            2
        } else {
            1
        }
    }

    /// Every point of every curve at `seed`, in curve order.
    pub fn points(&self, seed: u64) -> Vec<PointSpec> {
        self.curves
            .iter()
            .flat_map(|c| (0..c.rates.len()).map(move |i| c.point(seed, i, self.sweep)))
            .collect()
    }
}

/// One curve: an algorithm and a pattern over a list of offered loads.
#[derive(Debug, Clone)]
pub struct CurveSpec {
    /// Routing algorithm.
    pub routing: RoutingSpec,
    /// Traffic pattern.
    pub traffic: TrafficSpec,
    /// Offered loads, flits/node/cycle, strictly increasing.
    pub rates: Vec<f64>,
    /// Warmup cycles per run.
    pub warmup: u64,
    /// Measurement cycles per run.
    pub measurement: u64,
}

impl CurveSpec {
    /// `"dor/uniform"`-style label.
    pub fn label(&self) -> String {
        format!("{}/{:?}", self.routing.name(), self.traffic)
    }

    /// The curve's builder at `seed`, as handed to `sweep_with`.
    pub fn builder(&self, seed: u64) -> SimulationBuilder {
        SimulationBuilder::paper_default()
            .routing(self.routing)
            .traffic(self.traffic)
            .injection_rate(self.rates[0])
            .warmup(self.warmup)
            .measurement(self.measurement)
            .seed(seed)
    }

    /// Point `index` at `seed`. A sweep point carries the seed
    /// `sweep_with` derives for it; a single run uses `seed` itself.
    pub fn point(&self, seed: u64, index: usize, sweep: bool) -> PointSpec {
        PointSpec {
            topology: TopologySpec::mesh(8),
            vcs: 10,
            routing: self.routing,
            traffic: self.traffic,
            rate: self.rates[index],
            seed: if sweep {
                derive_seed(seed, index as u64)
            } else {
                seed
            },
            warmup: self.warmup,
            measurement: self.measurement,
        }
    }
}

/// Everything that shapes one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSpec {
    /// Fabric.
    pub topology: TopologySpec,
    /// VCs per physical channel.
    pub vcs: usize,
    /// Routing algorithm.
    pub routing: RoutingSpec,
    /// Traffic pattern.
    pub traffic: TrafficSpec,
    /// Offered load, flits/node/cycle.
    pub rate: f64,
    /// The run's RNG seed.
    pub seed: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measurement: u64,
}

impl PointSpec {
    /// The builder that runs this point through the public API.
    pub fn builder(&self) -> SimulationBuilder {
        SimulationBuilder::paper_default()
            .topology(self.topology)
            .vcs(self.vcs)
            .routing(self.routing)
            .traffic(self.traffic)
            .injection_rate(self.rate)
            .warmup(self.warmup)
            .measurement(self.measurement)
            .seed(self.seed)
    }
}
