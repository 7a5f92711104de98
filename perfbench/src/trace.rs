//! Outside-in tracing: decorators around the public traits each crate
//! calls through, and an in-memory span log.
//!
//! Nothing here reaches inside a crate. The routing layer is timed by
//! wrapping the `RoutingAlgorithm` a `RoutingSpec` builds, the traffic
//! layer by wrapping the `Workload` a `TrafficSpec` builds, and the
//! simulator's grant/eject counts come from a `Probe`. Decorators forward
//! every call unchanged, so a decorated run reports exactly what the plain
//! run reports (checked by the benchmark and by its tests).

use footprint_routing::{
    DirSet, RoutingAlgorithm, RoutingCtx, VcReallocationPolicy, VcRequest, VcSelection,
    WrapStrategy,
};
use footprint_sim::observe::{FlitEvent, FlitEventKind};
use footprint_sim::{NewPacket, Probe, VaBlockInfo, Workload};
use footprint_topology::{AnyTopology, NodeId};
use rand::rngs::SmallRng;
use rand::RngCore;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One call in this many is timed; every call is counted. Timing all of
/// them would double the cost of a low-load run (two clock reads around a
/// call of a few tens of nanoseconds).
pub const SAMPLE_EVERY: u64 = 16;

/// Call counts and sampled call time of one decorated layer call.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    outputs: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

/// Adds to a counter that only one thread writes: each network steps on a
/// single thread and is read only after its run, so a plain load/store
/// pair is enough and keeps a locked read-modify-write off the hot path.
#[inline]
fn bump(c: &AtomicU64, by: u64) {
    c.store(c.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

impl CallStats {
    /// Runs `f` as one counted call, timing it when the sample falls on it;
    /// `f` returns how many outputs the call produced.
    #[inline]
    fn call(&self, f: impl FnOnce() -> u64) {
        let n = self.calls.load(Ordering::Relaxed);
        self.calls.store(n + 1, Ordering::Relaxed);
        let outputs = if n.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            let outputs = f();
            bump(&self.timed_ns, t.elapsed().as_nanos() as u64);
            bump(&self.timed, 1);
            outputs
        } else {
            f()
        };
        bump(&self.outputs, outputs);
    }

    /// A plain-value copy of the counters.
    pub fn snapshot(&self) -> CallCounts {
        CallCounts {
            calls: self.calls.load(Ordering::Relaxed),
            outputs: self.outputs.load(Ordering::Relaxed),
            timed: self.timed.load(Ordering::Relaxed),
            timed_ns: self.timed_ns.load(Ordering::Relaxed),
        }
    }
}

/// Counters of one decorated call site, summed over runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallCounts {
    /// Calls made.
    pub calls: u64,
    /// Outputs produced (requests appended, packets generated).
    pub outputs: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Host nanoseconds across the timed calls.
    pub timed_ns: u64,
}

impl CallCounts {
    /// Adds another run's counters.
    pub fn add(&mut self, o: CallCounts) {
        self.calls += o.calls;
        self.outputs += o.outputs;
        self.timed += o.timed;
        self.timed_ns += o.timed_ns;
    }

    /// Mean host time per call, less the clock's own cost per interval.
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        (self.timed_ns as f64 / self.timed as f64 - clock_ns).max(0.0)
    }

    /// Estimated host time across all calls, in nanoseconds.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        self.ns_per_call(clock_ns) * self.calls as f64
    }
}

/// Shared counters of a [`TimedRouting`].
#[derive(Debug, Default)]
pub struct RoutingStats {
    /// `route` calls (outputs = VC requests appended).
    pub route: CallStats,
    /// `injection_requests` calls (outputs = VC requests appended).
    pub injection: CallStats,
}

/// A `RoutingAlgorithm` that forwards every method to the algorithm it
/// wraps and counts and samples the two per-packet calls. The simulator
/// calls the configuration methods too (`policy`, `has_escape`,
/// `wrap_strategy`, `min_vcs_on`, `allows_footprint_join`), so each one
/// must forward rather than fall back to the trait default.
pub struct TimedRouting {
    inner: Box<dyn RoutingAlgorithm>,
    stats: Arc<RoutingStats>,
}

impl TimedRouting {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn RoutingAlgorithm>, stats: Arc<RoutingStats>) -> Self {
        TimedRouting { inner, stats }
    }
}

impl RoutingAlgorithm for TimedRouting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn policy(&self) -> VcReallocationPolicy {
        self.inner.policy()
    }

    fn has_escape(&self) -> bool {
        self.inner.has_escape()
    }

    fn wrap_strategy(&self) -> WrapStrategy {
        self.inner.wrap_strategy()
    }

    fn min_vcs_on(&self, topo: AnyTopology) -> usize {
        self.inner.min_vcs_on(topo)
    }

    fn vc_selection(&self) -> VcSelection {
        self.inner.vc_selection()
    }

    fn allows_footprint_join(&self) -> bool {
        self.inner.allows_footprint_join()
    }

    fn route(&self, ctx: &RoutingCtx<'_>, rng: &mut dyn RngCore, out: &mut Vec<VcRequest>) {
        self.stats.route.call(|| {
            let before = out.len();
            self.inner.route(ctx, rng, out);
            (out.len() - before) as u64
        });
    }

    fn injection_requests(
        &self,
        ctx: &RoutingCtx<'_>,
        rng: &mut dyn RngCore,
        out: &mut Vec<VcRequest>,
    ) {
        self.stats.injection.call(|| {
            let before = out.len();
            self.inner.injection_requests(ctx, rng, out);
            (out.len() - before) as u64
        });
    }

    fn allowed_dirs(&self, topo: AnyTopology, cur: NodeId, src: NodeId, dest: NodeId) -> DirSet {
        self.inner.allowed_dirs(topo, cur, src, dest)
    }
}

/// A `Workload` that forwards `generate` and counts and samples it
/// (outputs = packets generated).
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    /// The counters.
    pub stats: CallStats,
}

impl TimedWorkload {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Workload>) -> Self {
        TimedWorkload {
            inner,
            stats: CallStats::default(),
        }
    }
}

impl Workload for TimedWorkload {
    fn generate(&mut self, node: NodeId, cycle: u64, rng: &mut SmallRng) -> Option<NewPacket> {
        let inner = &mut self.inner;
        let mut packet = None;
        self.stats.call(|| {
            packet = inner.generate(node, cycle, rng);
            u64::from(packet.is_some())
        });
        packet
    }
}

/// Simulated events the network reports through the probe bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Output VCs granted to waiting heads.
    pub vc_grants: u64,
    /// Switch-allocation grants.
    pub sa_grants: u64,
    /// Flits ejected.
    pub ejects: u64,
    /// Head packets that requested VCs and got none.
    pub va_blocks: u64,
}

impl EventCounts {
    /// Adds another run's counts.
    pub fn add(&mut self, o: EventCounts) {
        self.vc_grants += o.vc_grants;
        self.sa_grants += o.sa_grants;
        self.ejects += o.ejects;
        self.va_blocks += o.va_blocks;
    }
}

/// A probe that counts flit events and VA failures.
#[derive(Debug, Default)]
pub struct CountingProbe {
    /// The counts so far.
    pub counts: EventCounts,
}

impl Probe for CountingProbe {
    fn va_blocked(&mut self, _info: &VaBlockInfo) {
        self.counts.va_blocks += 1;
    }

    fn wants_flit_events(&self) -> bool {
        true
    }

    fn flit_event(&mut self, event: &FlitEvent) {
        let c = &mut self.counts;
        match event.kind {
            FlitEventKind::VcGrant => c.vc_grants += 1,
            FlitEventKind::SaGrant => c.sa_grants += 1,
            FlitEventKind::Eject => c.ejects += 1,
            FlitEventKind::Inject | FlitEventKind::VaBlock => {}
        }
    }
}

/// The host cost of one `Instant::now()` + `elapsed()` interval with
/// nothing inside it, in nanoseconds (median of many). Subtracted from
/// sampled call times.
pub fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t.elapsed().as_nanos() as u64)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// One timed interval of the benchmark's own code around a call into a
/// layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the log.
    pub id: usize,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// What ran (`"point"`, `"build"`, `"warmup"`, ...).
    pub name: &'static str,
    /// The run or sweep point the span belongs to.
    pub run: usize,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// An in-memory span log, written out once the benchmark ends.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty log on the same epoch, for a job on another thread.
    pub fn child(&self) -> Spans {
        Spans::new(self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: usize) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            run,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, run);
        let r = f();
        (r, self.close(id))
    }

    /// Appends a log recorded on another thread under the same epoch; its
    /// root spans become children of `parent`.
    pub fn absorb(&mut self, other: Spans, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"run\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
