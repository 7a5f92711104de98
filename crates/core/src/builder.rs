//! The simulation builder: one fluent entry point for every experiment.

use core::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::exec::JobOutcome;
use crate::journal::SweepJournal;
use crate::snapcache;
use crate::{RunReport, TenantSpec, TrafficSpec};
use footprint_routing::RoutingSpec;
use footprint_sim::observe::ProbePair;
use footprint_sim::{
    ConfigError, Network, NoTraffic, NullProbe, Probe, Scheduler, Sentinel, SentinelReport,
    SimConfig, StallDiagnostic, StallWatchdog, UnreachablePolicy, Workload,
};
use footprint_stats::{Curve, FaultStats, PartitionReport, RecoveryStats, SweepPoint, TenantProbe};
use footprint_topology::{FaultPlan, NodeId, TopologySpec};
use footprint_traffic::{ModulationSpec, Modulator, PacketSize, Tenant, TenantWorkload};

/// Why a run ([`SimulationBuilder::run_with`]) or a sweep
/// ([`SimulationBuilder::sweep_with`]) failed.
#[derive(Debug)]
pub enum RunError {
    /// The configuration was rejected before the network was built.
    Config(ConfigError),
    /// The stall watchdog tripped: no flit moved for the configured
    /// number of cycles while packets were in flight. The boxed
    /// diagnostic bundle describes the frozen network.
    Stalled(Box<StallDiagnostic>),
    /// The run was configured with [`UnreachablePolicy::Error`] and the
    /// fault plan made at least one generated packet's destination
    /// unreachable. The boxed [`FaultStats`] carries the offending
    /// source→destination pairs and the full disposition accounting.
    Unreachable(Box<FaultStats>),
    /// The runtime invariant sentinel detected a conservation, VC-state
    /// or deadlock violation. The boxed report names the first-failure
    /// cycle, the violated invariant and a state excerpt — the typed
    /// alternative to a panic deep in the cycle loop or, worse, silently
    /// wrong numbers.
    InvariantViolated(Box<SentinelReport>),
    /// The run exceeded its wall-clock deadline
    /// ([`RunOptions::deadline`] / [`SweepOptions::deadline`]) — the
    /// bound a sweep point must finish within so one degenerate
    /// configuration cannot hold an entire campaign hostage.
    DeadlineExceeded {
        /// The configured wall-clock limit.
        limit: Duration,
        /// Simulated cycle reached when the deadline fired.
        cycle: u64,
    },
    /// A sweep job panicked. The panic was quarantined to its own result
    /// slot ([`crate::exec::JobSet::run_quarantined_on`]) so sibling
    /// points completed (and were journaled) normally; the string carries
    /// the offending point and the captured panic payload.
    JobPanicked(String),
    /// The sweep checkpoint journal could not be opened, validated or
    /// appended ([`SweepOptions::checkpoint`]).
    Checkpoint(String),
    /// The fault plan masks wraparound (dateline) channels on a wrapping
    /// fabric and severs deterministic escape routes, so the routing
    /// algorithm's Duato/dateline deadlock-freedom argument no longer
    /// covers every pair. Checked up front
    /// ([`footprint_routing::cdg::check_escape_under_mask`]) — the run is
    /// refused before it can livelock. Opt into the degraded fallback with
    /// [`RunOptions::degraded_escape`] to run anyway under watchdog or
    /// sentinel cover.
    EscapeCompromised {
        /// Source→destination pairs whose deterministic escape route the
        /// mask severs (sorted).
        severed: Vec<(NodeId, NodeId)>,
        /// How many masked directed channels are wraparound channels.
        masked_wrap_channels: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Stalled(d) => d.fmt(f),
            RunError::Unreachable(s) => write!(
                f,
                "{} source→destination pair(s) unreachable under the fault plan \
                 ({} packet(s) dropped)",
                s.unreachable_pairs.len(),
                s.dropped()
            ),
            RunError::InvariantViolated(r) => r.fmt(f),
            RunError::DeadlineExceeded { limit, cycle } => write!(
                f,
                "run exceeded its {limit:?} wall-clock deadline at simulated cycle {cycle}"
            ),
            RunError::JobPanicked(msg) => write!(f, "sweep job panicked: {msg}"),
            RunError::Checkpoint(msg) => write!(f, "sweep checkpoint error: {msg}"),
            RunError::EscapeCompromised {
                severed,
                masked_wrap_channels,
            } => write!(
                f,
                "fault plan compromises the escape network on a wrapping \
                 fabric: {} deterministic escape route(s) severed, {} \
                 wraparound channel(s) masked (run with degraded_escape to \
                 proceed under watchdog/sentinel cover)",
                severed.len(),
                masked_wrap_channels
            ),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Stalled(d) => Some(d.as_ref()),
            RunError::InvariantViolated(r) => Some(r.as_ref()),
            RunError::Unreachable(_)
            | RunError::DeadlineExceeded { .. }
            | RunError::JobPanicked(_)
            | RunError::Checkpoint(_)
            | RunError::EscapeCompromised { .. } => None,
        }
    }
}

impl From<Box<SentinelReport>> for RunError {
    fn from(r: Box<SentinelReport>) -> Self {
        RunError::InvariantViolated(r)
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<Box<StallDiagnostic>> for RunError {
    fn from(d: Box<StallDiagnostic>) -> Self {
        RunError::Stalled(d)
    }
}

/// The per-point knobs a single run and every point of a sweep share.
/// [`RunOptions`] and [`SweepOptions`] both embed one and expose the same
/// setters for it, so the two can never drift apart.
#[derive(Debug, Clone, Default)]
struct PointOptions {
    stall_threshold: Option<u64>,
    faults: FaultPlan,
    on_unreachable: UnreachablePolicy,
    sentinel: Option<bool>,
    deadline: Option<Duration>,
    scheduler: Scheduler,
    degraded_escape: bool,
    snapshot_dir: Option<PathBuf>,
}

/// The setters of the shared [`PointOptions`], generated once for both
/// option types. On a sweep each knob applies to every point.
macro_rules! point_setters {
    () => {
        /// Guards the whole run (warmup included) with a stall watchdog:
        /// if no flit moves for `stall_threshold` consecutive cycles while
        /// packets are in flight, the run aborts with
        /// [`RunError::Stalled`] instead of spinning to the cycle limit.
        /// The threshold must be nonzero.
        #[must_use]
        pub fn watchdog(mut self, stall_threshold: u64) -> Self {
            self.point.stall_threshold = Some(stall_threshold);
            self
        }

        /// Runs under a fault schedule. The plan is validated against the
        /// topology when the network is built.
        #[must_use]
        pub fn faults(mut self, plan: FaultPlan) -> Self {
            self.point.faults = plan;
            self
        }

        /// Disposition of packets whose destination the fault state makes
        /// unreachable (default: drop with accounting). With
        /// [`UnreachablePolicy::Error`], a run that observes any
        /// unreachable generation fails with [`RunError::Unreachable`]
        /// after completing.
        #[must_use]
        pub fn on_unreachable(mut self, policy: UnreachablePolicy) -> Self {
            self.point.on_unreachable = policy;
            self
        }

        /// Explicitly enables (or disables) the runtime invariant sentinel
        /// for the whole run — warmup, measurement and drain. When never
        /// called, the `FOOTPRINT_SENTINEL` environment variable decides
        /// ([`Sentinel::env_enabled`]).
        ///
        /// The sentinel only observes, so an untripped sentinel-on run
        /// reports bit-identically to a sentinel-off run; a violation
        /// aborts with [`RunError::InvariantViolated`].
        #[must_use]
        pub fn sentinel(mut self, enabled: bool) -> Self {
            self.point.sentinel = Some(enabled);
            self
        }

        /// Bounds the run to `limit` of wall-clock time, checked at coarse
        /// cycle-chunk boundaries (~1024 cycles). Exceeding it aborts with
        /// [`RunError::DeadlineExceeded`], so one degenerate sweep point
        /// cannot stall a whole campaign.
        #[must_use]
        pub fn deadline(mut self, limit: Duration) -> Self {
            self.point.deadline = Some(limit);
            self
        }

        /// Which cycle loop the network runs ([`Scheduler::Active`] by
        /// default). The active-set scheduler is bit-identical to the
        /// dense reference loop; select [`Scheduler::Dense`] to cross-check
        /// it or to measure its speedup.
        #[must_use]
        pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
            self.point.scheduler = scheduler;
            self
        }

        /// Opts into the degraded-escape fallback: a fault plan that masks
        /// wraparound channels and severs deterministic escape routes
        /// normally refuses to run ([`RunError::EscapeCompromised`])
        /// because the algorithm's wrapping deadlock-freedom argument no
        /// longer covers every pair. With this flag the run proceeds
        /// anyway — the severed pairs are quarantined by the per-packet
        /// deliverability check, and a watchdog or sentinel should cover
        /// the in-flight worst case (a wedged wormhole across the mask)
        /// since the escape network is no longer a complete fallback.
        #[must_use]
        pub fn degraded_escape(mut self, allow: bool) -> Self {
            self.point.degraded_escape = allow;
            self
        }

        /// Enables the warm-start snapshot cache rooted at `dir`: the
        /// first eligible run of a configuration serializes its
        /// post-warmup network state there, and later runs of the *same*
        /// configuration restore it and skip straight to measurement. The
        /// cache key covers everything that shapes the warmed state —
        /// topology, router geometry, routing, traffic, packet mix,
        /// injection rate, seed, warmup length and scheduler — so a hit
        /// reports **bit-identically** to a cold run.
        ///
        /// Ineligible runs (fault plans, sentinel on, tenants, modulation,
        /// stateful workloads, zero warmup) silently take the cold path; a
        /// missing, corrupt or stale cache file likewise degrades to a
        /// plain warmup. The cache never changes results, only how fast
        /// they arrive.
        #[must_use]
        pub fn snapshot_cache(mut self, dir: impl Into<PathBuf>) -> Self {
            self.point.snapshot_dir = Some(dir.into());
            self
        }
    };
}

/// Options for one execution of a [`SimulationBuilder`]: which observers
/// to attach and which fault schedule to run under.
///
/// The only entry point that steps a network is
/// [`SimulationBuilder::run_with`]; sweeps run it once per point.
/// `RunOptions::default()` is the plain run: no probe, no watchdog, no
/// faults.
///
/// ```
/// use footprint_core::{RunOptions, SimulationBuilder};
///
/// let report = SimulationBuilder::mesh(4)
///     .vcs(4)
///     .warmup(100)
///     .measurement(200)
///     .run_with(RunOptions::new().watchdog(10_000))?;
/// assert!(report.latency.ejected_packets > 0);
/// # Ok::<(), footprint_core::RunError>(())
/// ```
#[derive(Default)]
pub struct RunOptions<'a> {
    probe: Option<&'a mut dyn Probe>,
    point: PointOptions,
}

impl<'a> RunOptions<'a> {
    /// No probe, no watchdog, no faults — the plain run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a probe from the warmup boundary onward (measurement and
    /// drain phases).
    #[must_use]
    pub fn probe(mut self, probe: &'a mut dyn Probe) -> Self {
        self.probe = Some(probe);
        self
    }

    point_setters!();
}

/// Options for a latency-throughput sweep ([`SimulationBuilder::sweep_with`]):
/// the per-point knobs of [`RunOptions`] (without a probe) plus sweep-level
/// knobs.
///
/// `SweepOptions::default()` sweeps the total latency over all classes on
/// the default worker pool, without faults.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    point: PointOptions,
    latency_class: Option<u8>,
    threads: Option<usize>,
    checkpoint: Option<PathBuf>,
}

impl SweepOptions {
    /// Total-latency curve on the default worker pool, no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Summarizes class `class` instead of the total over all classes.
    #[must_use]
    pub fn latency_class(mut self, class: Option<u8>) -> Self {
        self.latency_class = class;
        self
    }

    /// Explicit worker count (`<= 1` runs sequentially on the calling
    /// thread). Defaults to [`crate::exec::num_threads`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Journals completed sweep points to `path`
    /// ([`crate::journal::SweepJournal`]) so a crashed or killed campaign
    /// resumes where it left off: re-running the same sweep with the same
    /// journal skips the recorded points and produces a curve
    /// bit-identical to an uninterrupted run, at any thread count. A
    /// journal written by a differently configured sweep is refused with
    /// [`RunError::Checkpoint`].
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    point_setters!();

    /// The per-point [`RunOptions`] this sweep configuration induces.
    fn run_options(&self) -> RunOptions<'static> {
        RunOptions {
            probe: None,
            point: self.point.clone(),
        }
    }
}

/// Fluent configuration of one simulation run.
///
/// Defaults follow the paper's Table 2: 8×8 mesh, 10 VCs, 4-flit buffers,
/// speedup 2, single-flit packets, Footprint routing, uniform random
/// traffic, 10k warmup + 10k measurement cycles.
///
/// ```
/// use footprint_core::{RoutingSpec, RunOptions, SimulationBuilder, TrafficSpec};
///
/// let report = SimulationBuilder::mesh(4)
///     .vcs(4)
///     .routing(RoutingSpec::Dor)
///     .traffic(TrafficSpec::UniformRandom)
///     .injection_rate(0.1)
///     .warmup(300)
///     .measurement(500)
///     .seed(1)
///     .run_with(RunOptions::new())?;
/// assert!(report.latency.ejected_packets > 0);
/// # Ok::<(), footprint_core::RunError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    topology: TopologySpec,
    num_vcs: usize,
    vc_buffer_depth: usize,
    speedup: usize,
    routing: RoutingSpec,
    traffic: TrafficSpec,
    packet_size: PacketSize,
    rate: f64,
    link_latency: usize,
    warmup: u64,
    measurement: u64,
    drain: u64,
    seed: u64,
    modulation: ModulationSpec,
    tenants: Vec<TenantSpec>,
}

/// Seed salt for the single-workload modulator, far outside the sweep
/// index range so modulation RNGs never collide with point seeds.
const MODULATION_SALT: u64 = 0x4D4F_4475_4C41_7465; // "MODuLAte"
/// Base seed salt for per-tenant modulators (tenant `i` uses `SALT + i`).
const TENANT_SALT: u64 = 0x7465_4E61_4E74_0000; // "teNaNt"
/// Accounting-window length for per-tenant offered/delivered timelines.
const TENANT_WINDOW: u64 = 256;

impl SimulationBuilder {
    /// Starts from the paper's default configuration (8×8 mesh).
    pub fn paper_default() -> Self {
        let cfg = SimConfig::paper_default();
        SimulationBuilder {
            topology: cfg.topology,
            num_vcs: cfg.num_vcs,
            vc_buffer_depth: cfg.vc_buffer_depth,
            speedup: cfg.speedup,
            routing: RoutingSpec::Footprint,
            traffic: TrafficSpec::UniformRandom,
            packet_size: PacketSize::SINGLE,
            rate: 0.1,
            link_latency: cfg.link_latency,
            warmup: 10_000,
            measurement: 10_000,
            drain: 0,
            seed: 0xF007,
            modulation: ModulationSpec::Steady,
            tenants: Vec::new(),
        }
    }

    /// Starts from a `k × k` mesh with otherwise default parameters.
    pub fn mesh(k: u16) -> Self {
        Self::paper_default().topology(TopologySpec::mesh(k))
    }

    /// Starts from a `k × k` torus with otherwise default parameters.
    pub fn torus(k: u16) -> Self {
        Self::paper_default().topology(TopologySpec::torus(k))
    }

    /// Starts from an `n`-node ring with otherwise default parameters.
    pub fn ring(nodes: u16) -> Self {
        Self::paper_default().topology(TopologySpec::ring(nodes))
    }

    /// Sets the topology explicitly — a [`TopologySpec`] or any concrete
    /// topology value (`Mesh`, `Torus`, `Ring`).
    pub fn topology(mut self, topo: impl Into<TopologySpec>) -> Self {
        self.topology = topo.into();
        self
    }

    /// The topology currently configured.
    pub fn topology_spec(&self) -> TopologySpec {
        self.topology
    }

    /// VCs per physical channel.
    pub fn vcs(mut self, n: usize) -> Self {
        self.num_vcs = n;
        self
    }

    /// VC buffer depth in flits.
    pub fn buffer_depth(mut self, n: usize) -> Self {
        self.vc_buffer_depth = n;
        self
    }

    /// Internal speedup.
    pub fn speedup(mut self, n: usize) -> Self {
        self.speedup = n;
        self
    }

    /// Routing algorithm.
    pub fn routing(mut self, spec: RoutingSpec) -> Self {
        self.routing = spec;
        self
    }

    /// Workload.
    pub fn traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = spec;
        self
    }

    /// Packet-size mix.
    pub fn packet_size(mut self, size: PacketSize) -> Self {
        self.packet_size = size;
        self
    }

    /// Offered load, flits/node/cycle (for hotspot traffic: the hotspot
    /// flow rate).
    pub fn injection_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// One-way link latency in cycles (default 1).
    pub fn link_latency(mut self, cycles: usize) -> Self {
        self.link_latency = cycles;
        self
    }

    /// Warmup cycles (excluded from measurement).
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Measurement cycles.
    pub fn measurement(mut self, cycles: u64) -> Self {
        self.measurement = cycles;
        self
    }

    /// Drain cycles after measurement (no injection; lets in-flight packets
    /// finish — useful for delivery checks).
    pub fn drain(mut self, cycles: u64) -> Self {
        self.drain = cycles;
        self
    }

    /// RNG seed (runs are deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Applies a time-varying injection schedule
    /// ([`footprint_traffic::Modulator`]) over the configured traffic:
    /// on/off bursts, rate ramps or piecewise steps. Ignored for
    /// multi-tenant runs (each [`TenantSpec`] carries its own schedule).
    /// The modulator's RNG seed derives from the builder seed, so sweeps
    /// stay bit-identical at any thread count. An invalid schedule fails
    /// the run with [`ConfigError::Workload`].
    pub fn modulation(mut self, spec: ModulationSpec) -> Self {
        self.modulation = spec;
        self
    }

    /// Replaces the single-workload configuration with explicit tenants
    /// sharing the mesh. Tenant `i` gets traffic class `i` (its key in
    /// [`RunReport::tenants`]) and runs at its own rate under its own
    /// modulation schedule; the builder-level [`Self::injection_rate`] and
    /// [`Self::modulation`] are ignored. Per-tenant SLO summaries appear
    /// in [`RunReport::tenants`]. Tenant rates must sum to at most 1.0
    /// flit/node/cycle (the per-node injection budget), or the run fails
    /// with [`ConfigError::Workload`]. An empty vector restores the
    /// single-workload behaviour.
    pub fn tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.tenants = tenants;
        self
    }

    /// The routing spec currently configured.
    pub fn routing_spec(&self) -> RoutingSpec {
        self.routing
    }

    /// The offered load currently configured.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            topology: self.topology,
            num_vcs: self.num_vcs,
            vc_buffer_depth: self.vc_buffer_depth,
            speedup: self.speedup,
            link_latency: self.link_latency,
        }
    }

    /// Builds the network and workload without running (for custom drive
    /// loops). No fault plan is attached; use
    /// [`SimulationBuilder::build_with`] for that.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors (bad VC count, etc.).
    pub fn build(&self) -> Result<(Network, Box<dyn Workload>), ConfigError> {
        let net = Network::new(self.sim_config(), self.routing.build(), self.seed)?;
        let wl = self.build_workload()?;
        Ok((net, wl))
    }

    /// Builds the configured workload — single traffic spec, modulated
    /// spec, or multi-tenant composite — lowering traffic-layer errors
    /// into the simulator's [`ConfigError`] vocabulary (the traffic crate
    /// sits above `footprint-sim`, so the errors travel as plain data).
    fn build_workload(&self) -> Result<Box<dyn Workload>, ConfigError> {
        let lower = |e: footprint_traffic::PatternError| ConfigError::PatternMesh {
            pattern: e.pattern,
            nodes: e.nodes,
        };
        let topo = self.topology.validate()?;
        if self.tenants.is_empty() {
            let base = self
                .traffic
                .build(topo, self.packet_size, self.rate)
                .map_err(lower)?;
            if self.modulation == ModulationSpec::Steady {
                return Ok(base);
            }
            let seed = crate::exec::derive_seed(self.seed, MODULATION_SALT);
            let modulated = Modulator::new(base, self.modulation.clone(), seed)
                .map_err(|e| ConfigError::Workload(e.to_string()))?;
            return Ok(Box::new(modulated));
        }
        if self.tenants.len() > usize::from(u8::MAX) + 1 {
            return Err(ConfigError::Workload(format!(
                "{} tenants exceed the 256 traffic classes",
                self.tenants.len()
            )));
        }
        let total: f64 = self.tenants.iter().map(|t| t.rate).sum();
        if total > 1.0 + 1e-9 {
            return Err(ConfigError::Workload(format!(
                "tenant rates sum to {total} flits/node/cycle (budget 1.0)"
            )));
        }
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for (i, t) in self.tenants.iter().enumerate() {
            if !(0.0..=1.0).contains(&t.rate) {
                return Err(ConfigError::Workload(format!(
                    "tenant `{}` rate {} out of [0, 1]",
                    t.name, t.rate
                )));
            }
            let wl = t
                .traffic
                .build(topo, self.packet_size, t.rate)
                .map_err(lower)?;
            let wl: Box<dyn Workload> = if t.modulation == ModulationSpec::Steady {
                wl
            } else {
                let seed = crate::exec::derive_seed(self.seed, TENANT_SALT + i as u64);
                Box::new(
                    Modulator::new(wl, t.modulation.clone(), seed).map_err(|e| {
                        ConfigError::Workload(format!("tenant `{}`: {e}", t.name))
                    })?,
                )
            };
            tenants.push(Tenant::new(t.name.clone(), i as u8, wl));
        }
        Ok(Box::new(TenantWorkload::new(tenants)))
    }

    /// Builds the network under a fault schedule and unreachable policy,
    /// plus the workload, without running.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors, including a fault plan that does
    /// not fit the topology ([`ConfigError::Fault`]).
    pub fn build_with(
        &self,
        faults: FaultPlan,
        on_unreachable: UnreachablePolicy,
    ) -> Result<(Network, Box<dyn Workload>), ConfigError> {
        let net = Network::with_faults(
            self.sim_config(),
            self.routing.build(),
            self.seed,
            faults,
            on_unreachable,
        )?;
        let wl = self.build_workload()?;
        Ok((net, wl))
    }

    /// Runs one phase, watched when a watchdog is present, audited when a
    /// sentinel is attached, bounded when a deadline is set.
    ///
    /// With a sentinel or deadline the phase runs in coarse cycle chunks
    /// so trip/timeout checks need no per-cycle hook; chunking is
    /// invisible to the simulation (the run loops are stateless between
    /// calls), so any completing combination stays bit-identical to the
    /// single-call fast path.
    fn phase(
        net: &mut Network,
        wl: &mut dyn Workload,
        cycles: u64,
        probe: &mut dyn Probe,
        mut watchdog: Option<&mut StallWatchdog>,
        mut sentinel: Option<&mut Sentinel>,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<(), RunError> {
        const CHUNK: u64 = 1024;
        let chunked = sentinel.is_some() || deadline.is_some();
        let mut remaining = cycles;
        while remaining > 0 {
            // Checked before each chunk, so an already-expired deadline
            // stops the run without simulating another chunk first.
            if let Some((start, limit)) = deadline {
                if start.elapsed() >= limit {
                    return Err(RunError::DeadlineExceeded {
                        limit,
                        cycle: net.cycle(),
                    });
                }
            }
            let step = if chunked { remaining.min(CHUNK) } else { remaining };
            let result = {
                let mut pair;
                let p: &mut dyn Probe = match sentinel.as_mut() {
                    Some(s) => {
                        pair = ProbePair::new(&mut **s, &mut *probe);
                        &mut pair
                    }
                    None => &mut *probe,
                };
                match watchdog.as_mut() {
                    Some(w) => net.run_watched(wl, step, p, w).map_err(RunError::from),
                    None => {
                        net.run_probed(wl, step, p);
                        Ok(())
                    }
                }
            };
            // A sentinel violation outranks the stall it may have caused:
            // the report names the origin of the corruption, the stall is
            // only its symptom.
            if let Some(s) = sentinel.as_mut() {
                if s.tripped() {
                    let report = s.take_report().expect("tripped sentinel holds a report");
                    return Err(RunError::InvariantViolated(report));
                }
            }
            result?;
            remaining -= step;
        }
        Ok(())
    }

    /// Wrap safety: on a wrapping fabric whose deadlock-freedom argument
    /// rests on deterministic escape or dateline routes
    /// ([`WrapStrategy::EscapeVcs`](footprint_routing::WrapStrategy) /
    /// `DatelineVcClasses`), a fault plan that masks any wraparound
    /// channel may sever escape routes without creating a CDG cycle — a
    /// masked acyclic graph stays acyclic, but a pair with no surviving
    /// escape path has no deadlock-free fallback, which is a livelock
    /// hazard, not a loss the per-packet drop accounting can absorb.
    /// Rebuilds the escape CDG under the plan's full channel mask and
    /// refuses the run with [`RunError::EscapeCompromised`] unless the
    /// caller opted into the degraded fallback. Plans that leave every
    /// wraparound channel alive (and every mesh plan) skip the check:
    /// grid-only cuts are covered by the existing per-packet
    /// deliverability quarantine.
    fn check_wrap_safety(&self, faults: &FaultPlan, degraded_escape: bool) -> Result<(), RunError> {
        use footprint_routing::cdg::{check_escape_under_mask, EscapeMaskVerdict};
        use footprint_routing::WrapStrategy;
        if faults.is_empty() {
            return Ok(());
        }
        let topo = self.topology.validate().map_err(ConfigError::from)?;
        if !topo.wraps() {
            return Ok(());
        }
        let strategy = self.routing.build().wrap_strategy();
        if !matches!(
            strategy,
            WrapStrategy::EscapeVcs | WrapStrategy::DatelineVcClasses
        ) {
            return Ok(());
        }
        let dead = faults.down_channels(topo);
        if !dead.iter().any(|&(n, d)| topo.is_wrap_channel(n, d)) {
            return Ok(());
        }
        match check_escape_under_mask(topo, &dead) {
            EscapeMaskVerdict::StillAcyclic => Ok(()),
            EscapeMaskVerdict::EscapeCompromised {
                severed,
                masked_wrap_channels,
            } => {
                if degraded_escape {
                    return Ok(());
                }
                Err(RunError::EscapeCompromised {
                    severed,
                    masked_wrap_channels,
                })
            }
        }
    }

    /// The one execution engine: runs warmup + measurement (+ optional
    /// drain) under `opts` and reports the measurement window. Sweeps run
    /// it once per point ([`Self::run_sweep_point_with`]).
    ///
    /// The probe attaches at the warmup boundary (measurement + drain);
    /// the watchdog, when configured, guards the whole run including
    /// warmup. Probes and the watchdog only observe, so any completing
    /// combination reports bit-identically to the plain run. A fault plan
    /// reshapes the simulated network itself, so its effects *are* part of
    /// the report ([`RunReport::faults`]) — but an empty plan is
    /// bit-identical to no fault subsystem at all.
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] for configuration errors (including a fault
    /// plan that does not fit the topology), [`RunError::Stalled`] when a
    /// configured watchdog trips, [`RunError::Unreachable`] when
    /// [`UnreachablePolicy::Error`] is set and the fault state made any
    /// generated packet undeliverable.
    ///
    /// # Panics
    ///
    /// Panics if a configured watchdog threshold is zero.
    pub fn run_with(&self, opts: RunOptions<'_>) -> Result<RunReport, RunError> {
        let RunOptions {
            probe,
            point:
                PointOptions {
                    stall_threshold,
                    faults,
                    on_unreachable,
                    sentinel,
                    deadline,
                    scheduler,
                    degraded_escape,
                    snapshot_dir,
                },
        } = opts;
        self.check_wrap_safety(&faults, degraded_escape)?;
        let started = Instant::now();
        let faults_empty = faults.is_empty();
        let (mut net, mut wl) = self.build_with(faults, on_unreachable)?;
        net.set_scheduler(scheduler);
        let mut null = NullProbe;
        let probe = probe.unwrap_or(&mut null);
        let mut watchdog = stall_threshold.map(StallWatchdog::new);
        // The sentinel attaches from cycle 0: its flit census must see
        // every injection, so it spans warmup, measurement and drain.
        let mut sentinel = sentinel
            .unwrap_or_else(Sentinel::env_enabled)
            .then(Sentinel::new);
        let deadline = deadline.map(|limit| (started, limit));
        // Warm start: an eligible configuration with a cached post-warmup
        // snapshot restores it and skips the warmup phase outright; a miss
        // remembers the key so this run's warmed state fills the cache.
        let mut warm = false;
        let mut store_key: Option<(PathBuf, String)> = None;
        if let Some(dir) = &snapshot_dir {
            if self.snapshot_eligible(faults_empty, sentinel.is_some()) {
                let key = self.snapshot_key(scheduler);
                match snapcache::load(dir, &key) {
                    Some(bytes) => match net.restore(&bytes) {
                        Ok(()) if net.cycle() == self.warmup => warm = true,
                        // A failed restore may have partially overwritten
                        // the network: rebuild and warm up from scratch
                        // (and overwrite the bad cache entry).
                        _ => {
                            let (n, w) = self.build_with(FaultPlan::new(), on_unreachable)?;
                            net = n;
                            wl = w;
                            net.set_scheduler(scheduler);
                            store_key = Some((dir.clone(), key));
                        }
                    },
                    None => store_key = Some((dir.clone(), key)),
                }
            }
        }
        if !warm {
            let mut warmup_probe = NullProbe;
            Self::phase(
                &mut net,
                &mut *wl,
                self.warmup,
                &mut warmup_probe,
                watchdog.as_mut(),
                sentinel.as_mut(),
                deadline,
            )?;
            if let Some((dir, key)) = store_key {
                if let Ok(blob) = net.snapshot() {
                    snapcache::store(&dir, &key, &blob);
                }
            }
        }
        let boundary = net.cycle();
        net.metrics_mut().reset_window_at(boundary);
        // Multi-tenant runs carry their own accounting probe from the
        // measurement boundary: offered counts then equal the metrics
        // window's generated counts exactly. It composes with any
        // user-supplied probe through a ProbePair (and, inside `phase`,
        // with the sentinel through a second pair — pairs nest).
        let mut tenant_probe =
            (!self.tenants.is_empty()).then(|| TenantProbe::new(boundary, TENANT_WINDOW));
        {
            let mut pair;
            let phase_probe: &mut dyn Probe = match tenant_probe.as_mut() {
                Some(tp) => {
                    pair = ProbePair::new(tp, probe);
                    &mut pair
                }
                None => probe,
            };
            Self::phase(
                &mut net,
                &mut *wl,
                self.measurement,
                &mut *phase_probe,
                watchdog.as_mut(),
                sentinel.as_mut(),
                deadline,
            )?;
            if self.drain > 0 {
                let mut none = NoTraffic;
                Self::phase(
                    &mut net,
                    &mut none,
                    self.drain,
                    &mut *phase_probe,
                    watchdog.as_mut(),
                    sentinel.as_mut(),
                    deadline,
                )?;
            }
        }
        self.assemble_report(&net, on_unreachable, tenant_probe)
    }

    /// Distills a finished network into the [`RunReport`] `run_with`
    /// returns.
    fn assemble_report(
        &self,
        net: &Network,
        on_unreachable: UnreachablePolicy,
        tenant_probe: Option<TenantProbe>,
    ) -> Result<RunReport, RunError> {
        let mut report = RunReport::from_metrics(net.metrics(), self.topology.nodes(), self.rate);
        report.topology = self.topology.to_string();
        report.faults = FaultStats::collect(net);
        report.partitions = PartitionReport::collect(net);
        report.recovery = RecoveryStats::collect(net);
        if let Some(tp) = tenant_probe {
            report.tenants = self
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let class = i as u8;
                    let dropped = report
                        .faults
                        .classes
                        .iter()
                        .find(|c| c.class == class)
                        .map_or(0, |c| c.dropped);
                    tp.summary(class, &t.name, dropped, report.cycles, self.topology.nodes())
                })
                .collect();
        }
        if on_unreachable == UnreachablePolicy::Error
            && !report.faults.unreachable_pairs.is_empty()
        {
            return Err(RunError::Unreachable(Box::new(report.faults)));
        }
        Ok(report)
    }

    /// `true` when this configuration's post-warmup state is exactly
    /// reproducible from a snapshot: no fault plan (fault bookkeeping is
    /// not serialized), sentinel off (its cycle-0 flit census cannot skip
    /// warmup), a nonzero warmup to actually skip, steady modulation and
    /// no tenants (their schedules live outside the network), and a
    /// workload that keeps no state of its own.
    fn snapshot_eligible(&self, faults_empty: bool, sentinel_on: bool) -> bool {
        faults_empty
            && !sentinel_on
            && self.warmup > 0
            && self.modulation == ModulationSpec::Steady
            && self.tenants.is_empty()
            && self.traffic.stateless_workload()
    }

    /// The canonical warm-start cache key: every knob that shapes the
    /// post-warmup network state, spelled out. The injection **rate** and
    /// **seed** are deliberately included — warmup is rate-coupled (the
    /// congestion pattern at the boundary depends on the offered load) and
    /// the RNG stream is seed-coupled, so omitting either would trade the
    /// bit-identity guarantee for hit rate. The rate is keyed by its exact
    /// bit pattern, not a decimal rendering.
    fn snapshot_key(&self, scheduler: Scheduler) -> String {
        format!(
            "footprint-snap-v1 topo={} vcs={} depth={} speedup={} link={} routing={} \
             traffic={:?} packet={:?} rate={:016x} seed={:016x} warmup={} sched={:?}",
            self.topology,
            self.num_vcs,
            self.vc_buffer_depth,
            self.speedup,
            self.link_latency,
            self.routing.name(),
            self.traffic,
            self.packet_size,
            self.rate.to_bits(),
            self.seed,
            self.warmup,
            scheduler,
        )
    }

    /// The canonical sweep entry point: sweeps offered load over `rates`
    /// in parallel under `opts`, producing a latency-throughput curve.
    ///
    /// The rate points run concurrently on the worker pool
    /// ([`SweepOptions::threads`], defaulting to
    /// [`crate::exec::num_threads`], overridable with
    /// `FOOTPRINT_THREADS`), one job per point, each a
    /// [`run_sweep_point_with`](Self::run_sweep_point_with) of
    /// [`sweep_point`](Self::sweep_point). Each point gets its own seed,
    /// derived deterministically from this builder's seed and the rate's
    /// index ([`crate::exec::derive_seed`]), so the curve is bit-identical
    /// whatever the thread count or completion order — with or without a
    /// fault plan, since the fault state is itself a pure function of the
    /// plan and the cycle.
    ///
    /// # Errors
    ///
    /// Any [`RunError`] from the individual points.
    ///
    /// # Panics
    ///
    /// Panics if `rates` is not strictly increasing (curve invariant).
    pub fn sweep_with(&self, rates: &[f64], opts: SweepOptions) -> Result<Curve, RunError> {
        let threads = opts.threads.unwrap_or_else(crate::exec::num_threads);
        // With a checkpoint journal, restore the completed points and
        // submit only the missing ones; each finishing job appends its
        // record (fsync'd) before reporting success, so a kill at any
        // instant loses at most the points still in flight.
        let journal: Option<Mutex<SweepJournal>> = match &opts.checkpoint {
            Some(path) => Some(Mutex::new(
                SweepJournal::open(path, &self.journal_identity(&opts), self.seed, rates)
                    .map_err(RunError::Checkpoint)?,
            )),
            None => None,
        };
        let mut done: std::collections::BTreeMap<usize, SweepPoint> = journal
            .as_ref()
            .map(|j| j.lock().expect("journal lock").completed().clone())
            .unwrap_or_default();
        let mut jobs = crate::exec::JobSet::new();
        let mut submitted = Vec::new();
        for (index, &rate) in rates.iter().enumerate() {
            if done.contains_key(&index) {
                continue;
            }
            submitted.push(index);
            let point = self.sweep_point(index, rate);
            let (opts, journal) = (&opts, &journal);
            jobs.push(move || {
                let sp = point.run_sweep_point_with(opts)?;
                if let Some(j) = journal {
                    let mut j = j.lock().expect("journal lock");
                    j.record(index, &sp).map_err(RunError::Checkpoint)?;
                }
                Ok::<SweepPoint, RunError>(sp)
            });
        }
        // Quarantined execution: a panicking or failing point cannot tear
        // down the pool, so every other point still completes — and, with
        // a journal, is durably recorded for the next resume.
        let outcomes = jobs.run_quarantined_on(threads);
        let mut first_error: Option<RunError> = None;
        for (index, outcome) in submitted.into_iter().zip(outcomes) {
            match outcome {
                JobOutcome::Completed(Ok(sp)) => {
                    done.insert(index, sp);
                }
                JobOutcome::Completed(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                JobOutcome::Panicked(msg) => {
                    first_error.get_or_insert(RunError::JobPanicked(format!(
                        "sweep point {index} (offered load {}): {msg}",
                        rates[index]
                    )));
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut curve = Curve::new(self.routing.name());
        for (_, point) in done {
            curve.push(point);
        }
        Ok(curve)
    }

    /// What a sweep journal is bound to besides its seed and rate grid:
    /// every builder field except the two a sweep varies per point (seed
    /// and rate, neutralized here), plus the sweep options that shape the
    /// recorded numbers — latency class, fault plan and unreachable
    /// policy. A journal written under any other configuration is refused
    /// instead of resumed.
    fn journal_identity(&self, opts: &SweepOptions) -> String {
        let config = self.clone().seed(0).injection_rate(0.0);
        format!(
            "{config:?} latency_class={:?} faults={:?} unreachable={:?}",
            opts.latency_class, opts.point.faults, opts.point.on_unreachable
        )
    }

    /// The builder for sweep point `index` at offered load `rate`: the
    /// same configuration with the point's derived seed. Exposed so
    /// batch runners (the bench harness) can flatten many curves into
    /// one job set while reproducing exactly what
    /// [`Self::sweep_with`] would compute per curve.
    #[must_use]
    pub fn sweep_point(&self, index: usize, rate: f64) -> Self {
        self.clone()
            .injection_rate(rate)
            .seed(crate::exec::derive_seed(self.seed, index as u64))
    }

    /// Runs this builder as one point of a sweep under `opts` (probe-less
    /// per-point [`RunOptions`], class selection). Combined with
    /// [`Self::sweep_point`], this is the unit of work batch runners
    /// submit to a [`crate::exec::JobSet`].
    ///
    /// # Errors
    ///
    /// Any [`RunError`] from the underlying run.
    pub fn run_sweep_point_with(&self, opts: &SweepOptions) -> Result<SweepPoint, RunError> {
        let report = self.run_with(opts.run_options())?;
        let s = match opts.latency_class {
            Some(c) => report.class(c),
            None => report.latency,
        };
        Ok(SweepPoint {
            offered: self.rate,
            accepted: s.throughput,
            latency: s.mean_latency,
        })
    }

    /// Finds the saturation throughput by sweeping `rates` (in
    /// parallel) and applying the 3×-zero-load-latency criterion.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors as [`RunError::Config`].
    pub fn saturation(&self, rates: &[f64]) -> Result<Option<f64>, RunError> {
        Ok(self
            .sweep_with(rates, SweepOptions::new())?
            .saturation_throughput(3.0))
    }
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use footprint_topology::Mesh;

    fn quick() -> SimulationBuilder {
        SimulationBuilder::mesh(4)
            .vcs(4)
            .warmup(200)
            .measurement(400)
            .seed(3)
    }

    #[test]
    fn run_produces_traffic_and_latency() {
        let r = quick()
            .routing(RoutingSpec::Footprint)
            .injection_rate(0.2)
            .run_with(RunOptions::new())
            .unwrap();
        assert!(r.latency.ejected_packets > 50);
        assert!(r.latency.mean_latency > 4.0, "{}", r.latency.mean_latency);
        assert!(r.latency.throughput > 0.1);
        assert_eq!(r.nodes, 16);
        assert_eq!(r.cycles, 400);
        assert!(r.faults.is_clean(), "no plan, no fault effects");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick().injection_rate(0.3).run_with(RunOptions::new()).unwrap();
        let b = quick().injection_rate(0.3).run_with(RunOptions::new()).unwrap();
        assert_eq!(a, b);
        let c = quick().injection_rate(0.3).seed(4).run_with(RunOptions::new()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn sweep_identical_across_thread_counts() {
        // The engine guarantee: `FOOTPRINT_THREADS=1` (sequential,
        // `threads(1)`) and any wider pool — including the default pool —
        // produce bit-identical curves.
        let rates = [0.05, 0.15, 0.25];
        let sequential = quick().sweep_with(&rates, SweepOptions::new().threads(1)).unwrap();
        let pooled = quick().sweep_with(&rates, SweepOptions::new().threads(4)).unwrap();
        let default_pool = quick().sweep_with(&rates, SweepOptions::new()).unwrap();
        assert_eq!(sequential, pooled);
        assert_eq!(sequential, default_pool);
    }

    #[test]
    fn sweep_points_use_distinct_derived_seeds() {
        // No accidental seed reuse across the jobs of one sweep: every
        // rate index maps to its own seed, none of which is the base.
        let base = quick();
        let seeds: Vec<u64> = (0..8)
            .map(|i| crate::exec::derive_seed(3, i as u64))
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert!(seeds.iter().all(|&s| s != 3));
        // And sweep_point() is the exact builder sweep_with() runs for a
        // given index: same config, derived seed, requested rate.
        let p = base.sweep_point(2, 0.25);
        assert_eq!(p.rate(), 0.25);
        assert_eq!(p.seed, crate::exec::derive_seed(3, 2));
    }

    #[test]
    fn sweep_builds_monotonic_curve() {
        let curve = quick()
            .routing(RoutingSpec::Dor)
            .sweep_with(&[0.05, 0.2], SweepOptions::new())
            .unwrap();
        assert_eq!(curve.points.len(), 2);
        assert!(curve.points[0].latency <= curve.points[1].latency * 1.5);
        assert!(curve.points[1].accepted > curve.points[0].accepted);
    }

    #[test]
    fn watched_run_matches_plain_run() {
        // The watchdog and probe only observe: a watched run that never
        // trips reports bit-identically to the plain run.
        let plain = quick().injection_rate(0.2).run_with(RunOptions::new()).unwrap();
        let watched = quick()
            .injection_rate(0.2)
            .run_with(RunOptions::new().probe(&mut footprint_sim::NullProbe).watchdog(10_000))
            .unwrap();
        assert_eq!(plain, watched);
    }

    #[test]
    fn watched_run_propagates_config_errors() {
        let err = quick()
            .vcs(0)
            .run_with(RunOptions::new().probe(&mut footprint_sim::NullProbe).watchdog(100))
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::NumVcs(0))));
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn latency_population_excludes_warmup_born_packets() {
        let r = quick().injection_rate(0.2).run_with(RunOptions::new()).unwrap();
        assert!(r.latency.measured_packets > 0);
        // Warmup-born packets drain into the window: they are counted as
        // ejections (throughput) but not in the latency population.
        assert!(r.latency.measured_packets <= r.latency.ejected_packets);
    }

    #[test]
    fn invalid_config_is_reported() {
        let err = quick().vcs(0).run_with(RunOptions::new()).unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::NumVcs(0))));
        let err = quick().vcs(1).routing(RoutingSpec::Dbar).run_with(RunOptions::new()).unwrap_err();
        assert!(matches!(
            err,
            RunError::Config(ConfigError::TooFewVcsForRouting { .. })
        ));
    }

    #[test]
    fn faulted_run_accounts_for_every_packet() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        // Cut a bottom-row link: same-row pairs across it become
        // unreachable, everything else routes around; a drained run must
        // account for every generated packet as delivered or dropped.
        let plan =
            FaultPlan::new().with(FaultEvent::link_down(NodeId(1), Direction::East, 0));
        // warmup(0): accounting is over the measurement window, so the
        // window must cover every packet for generated = delivered + dropped
        // to hold after the drain.
        let report = quick()
            .warmup(0)
            .injection_rate(0.15)
            .drain(2_000)
            .run_with(RunOptions::new().faults(plan).watchdog(10_000))
            .unwrap();
        assert!(!report.faults.is_clean());
        assert!(report.faults.fully_accounted());
        assert!(report.faults.dropped() > 0);
        assert!(report.latency.ejected_packets > 0);
        assert!(!report.faults.unreachable_pairs.is_empty());
    }

    #[test]
    fn error_policy_turns_unreachable_pairs_into_a_typed_failure() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        let plan =
            FaultPlan::new().with(FaultEvent::link_down(NodeId(1), Direction::East, 0));
        let err = quick()
            .injection_rate(0.15)
            .run_with(
                RunOptions::new()
                    .faults(plan)
                    .on_unreachable(UnreachablePolicy::Error),
            )
            .unwrap_err();
        assert!(err.to_string().contains("unreachable under the fault plan"));
        match err {
            RunError::Unreachable(stats) => {
                assert!(!stats.unreachable_pairs.is_empty());
                assert!(stats.dropped() > 0);
            }
            other => panic!("expected Unreachable, got {other}"),
        }
    }

    #[test]
    fn sweep_with_faults_is_identical_across_thread_counts() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        let plan =
            FaultPlan::new().with(FaultEvent::link_down(NodeId(5), Direction::North, 0));
        let rates = [0.05, 0.15];
        let opts = |threads| {
            SweepOptions::new()
                .faults(plan.clone())
                .threads(threads)
                .watchdog(20_000)
        };
        let sequential = quick().sweep_with(&rates, opts(1)).unwrap();
        let pooled = quick().sweep_with(&rates, opts(4)).unwrap();
        assert_eq!(sequential, pooled);
    }

    #[test]
    fn longer_links_increase_latency() {
        let short = quick().injection_rate(0.1).run_with(RunOptions::new()).unwrap();
        let long = quick().injection_rate(0.1).link_latency(4).run_with(RunOptions::new()).unwrap();
        assert!(
            long.latency.mean_latency > short.latency.mean_latency + 3.0,
            "short {} vs long {}",
            short.latency.mean_latency,
            long.latency.mean_latency
        );
    }

    #[test]
    fn drain_improves_delivery_ratio() {
        let no_drain = quick().injection_rate(0.2).run_with(RunOptions::new()).unwrap();
        let with_drain = quick().injection_rate(0.2).drain(300).run_with(RunOptions::new()).unwrap();
        assert!(with_drain.delivery_ratio() >= no_drain.delivery_ratio());
        assert!(with_drain.delivery_ratio() > 0.97);
    }

    #[test]
    fn sentinel_stays_quiet_across_algorithms() {
        // Every algorithm of the comparison set, with and without XORDET,
        // passes a fully audited run: zero invariant violations.
        for spec in [
            RoutingSpec::Footprint,
            RoutingSpec::Dbar,
            RoutingSpec::OddEven,
            RoutingSpec::Dor,
            RoutingSpec::DbarXordet,
            RoutingSpec::OddEvenXordet,
            RoutingSpec::DorXordet,
        ] {
            let result = quick()
                .routing(spec)
                .injection_rate(0.2)
                .run_with(RunOptions::new().sentinel(true));
            assert!(
                result.is_ok(),
                "{}: {}",
                spec.name(),
                result.unwrap_err()
            );
        }
    }

    #[test]
    fn sentinel_on_reports_bit_identically() {
        // The sentinel only observes: an audited run that never trips
        // reports exactly what the plain run reports.
        let plain = quick().injection_rate(0.2).run_with(RunOptions::new()).unwrap();
        let audited = quick()
            .injection_rate(0.2)
            .run_with(RunOptions::new().sentinel(true))
            .unwrap();
        assert_eq!(plain, audited);
    }

    #[test]
    fn sentinel_stays_quiet_under_a_fault_plan() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        let plan =
            FaultPlan::new().with(FaultEvent::link_down(NodeId(5), Direction::East, 0));
        let report = quick()
            .injection_rate(0.15)
            .drain(1_000)
            .run_with(RunOptions::new().faults(plan).sentinel(true).watchdog(10_000))
            .unwrap();
        assert!(!report.faults.is_clean());
        assert!(report.latency.ejected_packets > 0);
    }

    #[test]
    fn expired_deadline_is_a_typed_error() {
        let err = quick()
            .injection_rate(0.2)
            .run_with(RunOptions::new().deadline(Duration::ZERO))
            .unwrap_err();
        match err {
            RunError::DeadlineExceeded { limit, cycle } => {
                assert_eq!(limit, Duration::ZERO);
                assert_eq!(cycle, 0, "an expired deadline stops before simulating");
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn generous_deadline_does_not_perturb_the_run() {
        let plain = quick().injection_rate(0.2).run_with(RunOptions::new()).unwrap();
        let bounded = quick()
            .injection_rate(0.2)
            .run_with(RunOptions::new().deadline(Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(plain, bounded);
    }

    #[test]
    fn sweep_config_error_survives_quarantine() {
        // Quarantined execution still surfaces per-point errors.
        let err = quick()
            .vcs(0)
            .sweep_with(&[0.05, 0.15], SweepOptions::new().threads(2))
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::NumVcs(0))));
    }

    fn tmp_journal(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "footprint-builder-test-{}-{name}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn checkpointed_sweep_matches_plain_sweep() {
        let rates = [0.05, 0.15, 0.25];
        let plain = quick().sweep_with(&rates, SweepOptions::new().threads(1)).unwrap();
        let path = tmp_journal("match");
        let journaled = quick()
            .sweep_with(&rates, SweepOptions::new().threads(2).checkpoint(&path))
            .unwrap();
        assert_eq!(plain, journaled);
        // A second invocation over a complete journal reruns nothing and
        // restores the identical curve.
        let restored = quick()
            .sweep_with(&rates, SweepOptions::new().threads(2).checkpoint(&path))
            .unwrap();
        assert_eq!(plain, restored);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_sweep_resumes_bit_identically() {
        // Simulate a `kill -9` after two points: truncate the journal to
        // header + 2 records plus a torn half-written line, then resume at
        // both thread counts. The resumed curve must be bit-identical to an
        // uninterrupted sequential sweep — including its rendered output.
        let rates = [0.05, 0.15, 0.25, 0.35];
        let baseline = quick().sweep_with(&rates, SweepOptions::new().threads(1)).unwrap();
        for threads in [1usize, 4] {
            let path = tmp_journal(&format!("resume-{threads}"));
            let full = quick()
                .sweep_with(
                    &rates,
                    SweepOptions::new().threads(threads).checkpoint(&path),
                )
                .unwrap();
            assert_eq!(full, baseline);
            let contents = std::fs::read_to_string(&path).unwrap();
            let keep: Vec<&str> = contents.lines().take(3).collect();
            std::fs::write(&path, format!("{}\npoint 3 3fd3", keep.join("\n"))).unwrap();
            let resumed = quick()
                .sweep_with(
                    &rates,
                    SweepOptions::new().threads(threads).checkpoint(&path),
                )
                .unwrap();
            assert_eq!(resumed, baseline);
            assert_eq!(format!("{resumed}"), format!("{baseline}"));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn active_scheduler_matches_dense_across_algorithms_and_faults() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        // The tentpole guarantee: the active-set scheduler reports
        // bit-identically to the dense reference loop — same latency,
        // throughput, purity and fault accounting — for every routing
        // algorithm, with and without a fault plan in play.
        let plan = FaultPlan::new()
            .with(FaultEvent::link_down(NodeId(5), Direction::East, 100).repaired_at(250));
        for spec in [
            RoutingSpec::Footprint,
            RoutingSpec::Dbar,
            RoutingSpec::OddEven,
            RoutingSpec::Dor,
        ] {
            for faults in [None, Some(plan.clone())] {
                let run = |scheduler: Scheduler| {
                    let mut o = RunOptions::new().scheduler(scheduler).watchdog(10_000);
                    if let Some(p) = faults.clone() {
                        o = o.faults(p);
                    }
                    quick()
                        .routing(spec)
                        .injection_rate(0.15)
                        .drain(500)
                        .run_with(o)
                        .unwrap()
                };
                let dense = run(Scheduler::Dense);
                let active = run(Scheduler::Active);
                assert_eq!(
                    dense,
                    active,
                    "{} (faults: {}) diverged between schedulers",
                    spec.name(),
                    faults.is_some(),
                );
                assert_eq!(dense.faults, active.faults);
                assert!(dense.latency.ejected_packets > 0, "{}", spec.name());
            }
        }
    }

    #[test]
    fn scheduler_choice_is_bit_identical_across_sweep_threads() {
        // Dense sequential is the reference; the active scheduler on a
        // wide pool must reproduce it bit for bit.
        let rates = [0.05, 0.15];
        let sweep = |scheduler, threads| {
            quick()
                .sweep_with(
                    &rates,
                    SweepOptions::new().scheduler(scheduler).threads(threads),
                )
                .unwrap()
        };
        let reference = sweep(Scheduler::Dense, 1);
        assert_eq!(reference, sweep(Scheduler::Active, 1));
        assert_eq!(reference, sweep(Scheduler::Active, 4));
        assert_eq!(reference, sweep(Scheduler::Dense, 4));
    }

    #[test]
    fn active_scheduler_matches_dense_under_sentinel_audit() {
        // Sentinel-armed runs force full ticks on the audit stride; the
        // interleaving of skipped and full ticks must not perturb results.
        let run = |scheduler| {
            quick()
                .injection_rate(0.2)
                .run_with(RunOptions::new().scheduler(scheduler).sentinel(true))
                .unwrap()
        };
        assert_eq!(run(Scheduler::Dense), run(Scheduler::Active));
    }

    #[test]
    fn scheduler_matrix_is_bit_identical_under_faults_and_audit() {
        use footprint_topology::{Direction, FaultEvent, NodeId};
        // The combined equivalence matrix over the SoA datapath: for every
        // comparison algorithm, a sentinel-audited sweep with a mid-run
        // fault-and-repair plan must produce one curve — whichever
        // scheduler runs the cycles and however many workers run the
        // points. Dense sequential is the reference; every other cell of
        // {dense, active} × {1, 4 threads} must match it bit for bit.
        let plan = FaultPlan::new()
            .with(FaultEvent::link_down(NodeId(5), Direction::East, 100).repaired_at(250));
        let rates = [0.05, 0.15];
        for spec in [
            RoutingSpec::Footprint,
            RoutingSpec::Dbar,
            RoutingSpec::OddEven,
            RoutingSpec::Dor,
        ] {
            for faults in [None, Some(plan.clone())] {
                let sweep = |scheduler, threads| {
                    let mut o = SweepOptions::new()
                        .scheduler(scheduler)
                        .threads(threads)
                        .sentinel(true)
                        .watchdog(10_000);
                    if let Some(p) = faults.clone() {
                        o = o.faults(p);
                    }
                    quick()
                        .routing(spec)
                        .drain(500)
                        .sweep_with(&rates, o)
                        .unwrap()
                };
                let reference = sweep(Scheduler::Dense, 1);
                for (scheduler, threads) in [
                    (Scheduler::Active, 1),
                    (Scheduler::Dense, 4),
                    (Scheduler::Active, 4),
                ] {
                    assert_eq!(
                        reference,
                        sweep(scheduler, threads),
                        "{} (faults: {}) diverged under {scheduler:?} × {threads} workers",
                        spec.name(),
                        faults.is_some(),
                    );
                }
            }
        }
    }

    #[test]
    fn pattern_mesh_mismatch_is_a_config_error() {
        // 6×6 mesh with a power-of-two-only pattern: rejected up front
        // with a typed error instead of a mid-simulation panic.
        let err = quick().topology(Mesh::square(6)).traffic(TrafficSpec::Shuffle).run_with(RunOptions::new()).unwrap_err();
        match err {
            RunError::Config(ConfigError::PatternMesh { pattern, nodes }) => {
                assert_eq!(pattern, "shuffle");
                assert_eq!(nodes, 36);
            }
            other => panic!("expected PatternMesh, got {other}"),
        }
        assert!(err.to_string().contains("power-of-two"));
    }

    #[test]
    fn modulated_run_reports_reduced_load() {
        use footprint_traffic::DurationDist;
        // A 50%-duty on/off gate at rate r must accept ≈ r/2 — the
        // end-to-end version of the workload-layer thinning test.
        let steady = quick()
            .injection_rate(0.2)
            .measurement(4_000)
            .run_with(RunOptions::new())
            .unwrap();
        let bursty = quick()
            .injection_rate(0.2)
            .measurement(4_000)
            .modulation(ModulationSpec::OnOff {
                on: DurationDist::Fixed(100),
                off: DurationDist::Fixed(100),
            })
            .run_with(RunOptions::new())
            .unwrap();
        let ratio = bursty.latency.throughput / steady.latency.throughput;
        assert!((ratio - 0.5).abs() < 0.08, "throughput ratio {ratio}");
    }

    #[test]
    fn modulated_runs_are_scheduler_and_thread_invariant() {
        use footprint_traffic::DurationDist;
        let b = quick().injection_rate(0.2).modulation(ModulationSpec::OnOff {
            on: DurationDist::Geometric { mean: 60.0 },
            off: DurationDist::Geometric { mean: 120.0 },
        });
        let dense = b.run_with(RunOptions::new().scheduler(Scheduler::Dense)).unwrap();
        let active = b.run_with(RunOptions::new().scheduler(Scheduler::Active)).unwrap();
        assert_eq!(dense, active);
        let rates = [0.1, 0.2];
        let seq = b.sweep_with(&rates, SweepOptions::new().threads(1)).unwrap();
        let pooled = b.sweep_with(&rates, SweepOptions::new().threads(4)).unwrap();
        assert_eq!(seq, pooled);
    }

    #[test]
    fn tenant_run_reports_per_tenant_summaries() {
        // warmup(0) + drain: the window covers every packet, so the
        // per-tenant accounting invariant closes exactly.
        let report = quick()
            .warmup(0)
            .tenants(vec![
                TenantSpec::new("web", TrafficSpec::UniformRandom, 0.1),
                TenantSpec::new("batch", TrafficSpec::Transpose, 0.1),
            ])
            .drain(500)
            .run_with(RunOptions::new())
            .unwrap();
        assert_eq!(report.tenants.len(), 2);
        let web = report.tenant("web").unwrap();
        let batch = report.tenant("batch").unwrap();
        assert_eq!((web.class, batch.class), (0, 1));
        // Tenant accounting must agree exactly with the per-class window
        // counters the simulator keeps independently.
        for t in &report.tenants {
            let c = report.class(t.class);
            assert_eq!(t.offered_packets, c.generated_packets, "{}", t.name);
            assert_eq!(t.delivered_packets, c.ejected_packets, "{}", t.name);
            assert_eq!(t.measured_packets, c.measured_packets, "{}", t.name);
            assert!(t.delivered_packets > 0, "{}", t.name);
            assert!(t.fully_accounted(), "{}", t.name);
            assert!(t.windows.iter().map(|w| w.offered).sum::<u64>() == t.offered_packets);
            assert_eq!(t.window_cycles, TENANT_WINDOW);
        }
        assert!(report.tenant("nope").is_none());
    }

    #[test]
    fn tenant_misconfigurations_are_typed_errors() {
        use footprint_traffic::DurationDist;
        // Over-budget aggregate rate.
        let err = quick()
            .tenants(vec![
                TenantSpec::new("a", TrafficSpec::UniformRandom, 0.7),
                TenantSpec::new("b", TrafficSpec::Transpose, 0.6),
            ])
            .run_with(RunOptions::new())
            .unwrap_err();
        match &err {
            RunError::Config(ConfigError::Workload(msg)) => {
                assert!(msg.contains("budget"), "{msg}");
            }
            other => panic!("expected Workload config error, got {other}"),
        }
        // Negative per-tenant rate.
        let err = quick()
            .tenants(vec![TenantSpec::new("a", TrafficSpec::UniformRandom, -0.1)])
            .run_with(RunOptions::new())
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::Workload(_))));
        // Invalid modulation schedule (zero-length on-phase).
        let err = quick()
            .modulation(ModulationSpec::OnOff {
                on: DurationDist::Fixed(0),
                off: DurationDist::Fixed(10),
            })
            .run_with(RunOptions::new())
            .unwrap_err();
        assert!(matches!(err, RunError::Config(ConfigError::Workload(_))));
        assert!(err.to_string().contains("invalid workload"));
    }

    #[test]
    fn foreign_journal_is_refused() {
        let rates = [0.05, 0.15];
        let path = tmp_journal("foreign");
        quick()
            .sweep_with(&rates, SweepOptions::new().threads(1).checkpoint(&path))
            .unwrap();
        // Same path, different seed: a different campaign.
        let err = quick()
            .seed(99)
            .sweep_with(&rates, SweepOptions::new().threads(1).checkpoint(&path))
            .unwrap_err();
        match err {
            RunError::Checkpoint(msg) => assert!(msg.contains("different sweep"), "{msg}"),
            other => panic!("expected Checkpoint, got {other}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_of_another_algorithm_is_refused() {
        // Same path, seed and rate grid, different routing algorithm: a
        // DOR journal must never resume a Footprint sweep with DOR points.
        let rates = [0.05, 0.15];
        let path = tmp_journal("dor-then-footprint");
        let opts = || SweepOptions::new().threads(1).checkpoint(&path);
        let dor = || quick().routing(RoutingSpec::Dor);
        dor().sweep_with(&rates, opts()).unwrap();
        let err = quick()
            .routing(RoutingSpec::Footprint)
            .sweep_with(&rates, opts())
            .unwrap_err();
        match err {
            RunError::Checkpoint(msg) => assert!(msg.contains("different sweep"), "{msg}"),
            other => panic!("expected Checkpoint, got {other}"),
        }
        // The sweep options that shape the recorded numbers bind it too.
        let err = dor()
            .sweep_with(&rates, opts().latency_class(Some(0)))
            .unwrap_err();
        assert!(matches!(err, RunError::Checkpoint(_)), "{err}");
        // The journal's own configuration still resumes.
        let resumed = dor().sweep_with(&rates, opts()).unwrap();
        let plain = dor()
            .sweep_with(&rates, SweepOptions::new().threads(1))
            .unwrap();
        assert_eq!(resumed, plain);
        let _ = std::fs::remove_file(&path);
    }
}

