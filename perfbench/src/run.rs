//! Running a workload: the end-to-end pass through the public API, the
//! traced pass through the decorators, the output checks, and the metrics
//! computed from both.

use crate::affinity::Rotation;
use crate::json::{BenchResult, Metric};
use crate::plan::{Plan, PointSpec, Workload, DEFAULT_SEED, SWEEP_WORKERS};
use crate::trace::{
    clock_overhead_ns, CallCounts, CountingProbe, EventCounts, RoutingStats, Spans, TimedRouting,
    TimedWorkload,
};
use footprint_core::{JobSet, RunOptions, RunReport, Scheduler, SweepOptions};
use footprint_sim::{Network, SimConfig};
use footprint_stats::{Curve, FaultStats, PartitionReport, RecoveryStats, SweepPoint};
use footprint_traffic::PacketSize;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A metric's declaration: name, unit and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The end-to-end metrics, reported by an untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    def("wall_s", "s", "lower"),
    def("sim_cycles_per_s", "cycles/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// The per-layer metrics, reported by a traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 29] = [
    def("core.build_s", "s", "lower"),
    def("core.report_s", "s", "lower"),
    def("exec.busy_frac", "fraction", "higher"),
    def("exec.point_p50_s", "s", "lower"),
    def("exec.point_max_s", "s", "lower"),
    def("exec.tail_idle_s", "s", "lower"),
    def("sim.step_ns_per_cycle", "ns/cycle", "lower"),
    def("sim.self_ns_per_cycle", "ns/cycle", "lower"),
    def("sim.vc_grants_per_cycle", "1/cycle", "higher"),
    def("sim.sa_grants_per_cycle", "1/cycle", "higher"),
    def("sim.ejects_per_cycle", "1/cycle", "higher"),
    def("sim.va_block_ratio", "fraction", "lower"),
    def("sim.source_backlog_end", "packets", "lower"),
    def("sim.dense_over_active", "ratio", "higher"),
    def("sim.snapshot_encode_s", "s", "lower"),
    def("sim.snapshot_restore_s", "s", "lower"),
    def("sim.snapshot_bytes", "bytes", "lower"),
    def("routing.route_calls_per_cycle", "1/cycle", "lower"),
    def("routing.route_ns_per_call", "ns", "lower"),
    def("routing.requests_per_call", "1/call", "lower"),
    def("routing.route_share", "fraction", "lower"),
    def("routing.route_calls_per_vc_grant", "ratio", "lower"),
    def("traffic.generate_ns_per_call", "ns", "lower"),
    def("traffic.generate_share", "fraction", "lower"),
    def("traffic.packets_per_call", "1/call", "higher"),
    def("stats.mean_latency_cycles", "cycles", "lower"),
    def(
        "stats.accepted_flits_per_node_cycle",
        "flits/node/cycle",
        "higher",
    ),
    def("stats.saturation_rate", "flits/node/cycle", "higher"),
    def("trace.overhead", "fraction", "lower"),
];

/// Pinned output fingerprints at [`DEFAULT_SEED`]: FNV-1a over the first
/// pass's per-point digests. They change only when the simulated model
/// changes; a pure speed change must leave them alone.
fn pinned_fingerprint(workload: Workload) -> u64 {
    match workload {
        Workload::SteadyLow => 0x87f4_4092_b88e_e9c5,
        Workload::SteadyHigh => 0x421f_940d_d1be_ee11,
        Workload::FigureSweep => 0x3032_e98d_b013_9065,
        Workload::WarmRerun => 0xeb2e_d94b_3e08_94d0,
    }
}

/// How a benchmark run is configured.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long to keep repeating the workload, in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: per-layer metrics.
    pub trace: bool,
    /// Where snapshot caches and the span log go.
    pub out_dir: PathBuf,
}

/// One run's outcome in both paths: the curve point and an exact digest
/// of the output (the full report for a single run, the curve point for
/// a sweep point, the same data `run_with` / `sweep_with` hand back).
#[derive(Debug, Clone, PartialEq)]
struct PointResult {
    /// The curve point.
    point: SweepPoint,
    /// `Debug` rendering of the output; `f64` renders exactly.
    digest: String,
}

/// One pass over a plan: per point, its result or why it failed.
type PassOutput = Vec<Result<PointResult, String>>;

fn summarize(report: &RunReport, rate: f64, sweep: bool) -> PointResult {
    let point = SweepPoint {
        offered: rate,
        accepted: report.latency.throughput,
        latency: report.latency.mean_latency,
    };
    let digest = if sweep {
        format!("{point:?}")
    } else {
        format!("{report:?}")
    };
    PointResult { point, digest }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p))))
}

fn sweep_options(cache: Option<&Path>) -> SweepOptions {
    let o = SweepOptions::new().threads(SWEEP_WORKERS).sentinel(false);
    match cache {
        Some(dir) => o.snapshot_cache(dir),
        None => o,
    }
}

/// One end-to-end pass: the single run through `run_with`, or each curve
/// through one `sweep_with` on [`SWEEP_WORKERS`] workers.
fn plain_pass(plan: &Plan, seed: u64, cache: Option<&Path>) -> PassOutput {
    if !plan.sweep {
        let spec = plan.points(seed)[0];
        return vec![guarded(|| {
            let report = spec
                .builder()
                .run_with(RunOptions::new().sentinel(false))
                .map_err(|e| e.to_string())?;
            Ok(summarize(&report, spec.rate, false))
        })];
    }
    let mut out = Vec::new();
    for curve in &plan.curves {
        let result = guarded(|| {
            curve
                .builder(seed)
                .sweep_with(&curve.rates, sweep_options(cache))
                .map_err(|e| e.to_string())
        });
        match result {
            Ok(c) if c.points.len() == curve.rates.len() => {
                out.extend(c.points.into_iter().map(|point| {
                    Ok(PointResult {
                        point,
                        digest: format!("{point:?}"),
                    })
                }));
            }
            Ok(c) => out.extend(curve.rates.iter().map(|_| {
                Err(format!(
                    "{}: {} points for {} rates",
                    curve.label(),
                    c.points.len(),
                    curve.rates.len()
                ))
            })),
            Err(e) => out.extend(
                curve
                    .rates
                    .iter()
                    .map(|_| Err(format!("{}: {e}", curve.label()))),
            ),
        }
    }
    out
}

/// Cycles a pass simulates. A warm pass restores warmup from the cache and
/// is credited its measurement cycles only.
fn pass_cycles(plan: &Plan, warm: bool) -> u64 {
    plan.curves
        .iter()
        .map(|c| c.rates.len() as u64 * (c.measurement + if warm { 0 } else { c.warmup }))
        .sum()
}

/// FNV-1a over a pass's digests (a failed point hashes its error).
fn fingerprint(out: &PassOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in out {
        let text = match r {
            Ok(p) => p.digest.as_str(),
            Err(e) => e.as_str(),
        };
        for b in text.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Attempted/failed accounting plus a note per problem found.
#[derive(Debug, Default)]
struct Tally {
    /// Runs or points attempted.
    attempted: u64,
    /// Runs or points that failed (error, panic or failed check).
    failed: u64,
    /// What went wrong, for standard error.
    problems: Vec<String>,
}

impl Tally {
    /// Accounts a pass whose points `bad` marks as failing a check;
    /// errored points fail too.
    fn pass(&mut self, what: &str, out: &PassOutput, bad: &[bool]) {
        self.attempted += out.len() as u64;
        for (i, r) in out.iter().enumerate() {
            if let Err(e) = r {
                self.problems.push(format!("{what} point {i}: {e}"));
            }
            if r.is_err() || bad[i] {
                self.failed += 1;
            }
        }
    }

    /// Marks in `bad` every point where `a` and `b` disagree.
    fn compare(&mut self, what: &str, a: &PassOutput, b: &PassOutput, bad: &mut [bool]) {
        if a.len() != b.len() {
            self.problems
                .push(format!("{what}: {} vs {} points", a.len(), b.len()));
            bad.iter_mut().for_each(|x| *x = true);
            return;
        }
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if let (Ok(x), Ok(y)) = (x, y) {
                if x != y {
                    self.problems
                        .push(format!("{what} point {i}: {} != {}", x.digest, y.digest));
                    bad[i] = true;
                }
            }
        }
    }

    /// Marks every point of a pass whose fingerprint is not the pinned one.
    fn pin(&mut self, workload: Workload, seed: u64, out: &PassOutput, bad: &mut [bool]) {
        if seed != DEFAULT_SEED {
            return;
        }
        let got = fingerprint(out);
        let want = pinned_fingerprint(workload);
        if got != want {
            self.problems.push(format!(
                "{} fingerprint {got:#018x} != pinned {want:#018x}",
                workload.name()
            ));
            bad.iter_mut().for_each(|x| *x = true);
        }
    }

    /// Marks points whose curve values are not finite and positive.
    fn sane(&mut self, what: &str, out: &PassOutput, bad: &mut [bool]) {
        for (i, r) in out.iter().enumerate() {
            if let Ok(p) = r {
                let ok = p.point.latency.is_finite()
                    && p.point.latency > 0.0
                    && p.point.accepted.is_finite()
                    && p.point.accepted > 0.0;
                if !ok {
                    self.problems
                        .push(format!("{what} point {i}: implausible {:?}", p.point));
                    bad[i] = true;
                }
            }
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A fresh, empty directory for one repetition's snapshot cache, or
/// `None` for a plan that runs uncached.
fn fresh_cache(plan: &Plan, out_dir: &Path, tag: &str) -> Result<Option<PathBuf>, String> {
    if !plan.cached {
        return Ok(None);
    }
    let dir = out_dir.join(format!("cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(Some(dir))
}

/// The checks every repetition's passes (cold, then warm for a cached
/// plan) go through: plausible values, the pinned fingerprint, identity
/// with the first repetition, and warm == cold. Returns each pass's
/// failure marks.
fn check_passes(
    tally: &mut Tally,
    opts: &Options,
    what: &str,
    passes: &[PassOutput],
    first: Option<&[PassOutput]>,
) -> Vec<Vec<bool>> {
    passes
        .iter()
        .enumerate()
        .map(|(k, out)| {
            let what = format!("{what} pass {k}");
            let mut bad = vec![false; out.len()];
            tally.sane(&what, out, &mut bad);
            if k == 0 {
                tally.pin(opts.workload, opts.seed, out, &mut bad);
            }
            if let Some(f) = first {
                tally.compare(&format!("{what} vs first"), out, &f[k], &mut bad);
            }
            if k == 1 {
                tally.compare(&format!("{what} warm vs cold"), out, &passes[0], &mut bad);
            }
            bad
        })
        .collect()
}

fn cache_entries(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |it| {
        it.filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .count()
    })
}

/// Peak resident memory of this process so far, in MB.
///
/// # Errors
///
/// When `/proc/self/status` has no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Set-up time of one repetition: `SimulationBuilder::build` (config
/// validation, `Network`, workload) for every run the repetition makes.
fn setup_sample(plan: &Plan, points: &[PointSpec]) -> Result<f64, String> {
    let mut total = 0.0;
    for _ in 0..plan.passes() {
        for p in points {
            let b = p.builder();
            let t = Instant::now();
            let built = b.build();
            total += t.elapsed().as_secs_f64();
            built.map_err(|e| e.to_string())?;
        }
    }
    Ok(total)
}

/// Set-up time: the median of repeated samples on each CPU the process may
/// run on, averaged over the CPUs. Samples are taken in rounds that visit
/// every CPU in turn (see [`crate::affinity`]) until a second has been
/// spent and each CPU has at least 21 samples.
fn setup_seconds(plan: &Plan, seed: u64) -> Result<f64, String> {
    const BUDGET_S: f64 = 1.0;
    const ROUNDS: f64 = 10.0;
    const MIN_SAMPLES: usize = 21;
    let points = plan.points(seed);
    let rotation = Rotation::new();
    let cpus = rotation.as_ref().map_or(1, Rotation::cpu_count);
    let visit_s = BUDGET_S / ROUNDS / cpus as f64;
    let mut samples = vec![Vec::new(); cpus];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < BUDGET_S || samples.iter().any(|s| s.len() < MIN_SAMPLES)
    {
        for (cpu, taken) in samples.iter_mut().enumerate() {
            if let Some(r) = &rotation {
                r.pin(cpu);
            }
            let visit = Instant::now();
            let mut n = 0;
            while n < 3 || visit.elapsed().as_secs_f64() < visit_s {
                taken.push(setup_sample(plan, &points)?);
                n += 1;
            }
        }
    }
    let medians: Vec<f64> = samples.iter_mut().map(|s| median(s)).collect();
    Ok(mean(&medians))
}

/// Everything a run prints: human-readable lines, then the result line.
#[derive(Debug)]
pub struct Outcome {
    /// Lines for standard output before the result line.
    pub lines: Vec<String>,
    /// The result.
    pub result: BenchResult,
    /// Problems for standard error.
    pub problems: Vec<String>,
}

fn metric(defn: &MetricDef, value: f64) -> Metric {
    Metric {
        name: defn.name.to_string(),
        value,
        unit: defn.unit.to_string(),
    }
}

fn finish(tally: Tally, mut lines: Vec<String>, metrics: Vec<Metric>) -> Outcome {
    let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    lines.push(format!(
        "fail_frac {fail_frac} fraction ({} of {} runs or points)",
        tally.failed, tally.attempted
    ));
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut problems = tally.problems;
    if !finite {
        problems.push("a metric is not a finite number".into());
    }
    Outcome {
        lines,
        result: BenchResult {
            correct: tally.failed == 0 && finite && tally.attempted > 0,
            attempted: tally.attempted.max(1),
            failed: tally.failed,
            metrics,
        },
        problems,
    }
}

fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs a workload as `opts` asks.
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        run_traced(opts)
    } else {
        run_end_to_end(opts)
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The end-to-end run: repeats the workload through the public API until
/// `opts.seconds` have passed and reports means over the repetitions.
///
/// A single-thread workload pins its repetitions to each allowed CPU in
/// turn and stops on a whole rotation (see [`crate::affinity`]). The mean,
/// not the median, is reported because the machine switches between a
/// slow and a fast speed: a run that spans both has bimodal repetitions,
/// whose median jumps from one mode to the other while the mean moves
/// with the share of time spent in each.
fn run_end_to_end(opts: &Options) -> Outcome {
    let plan = opts.workload.plan();
    let mut tally = Tally::default();
    let setup_s = setup_seconds(&plan, opts.seed).unwrap_or_else(|e| {
        tally.problems.push(format!("set-up: {e}"));
        f64::NAN
    });
    let mut walls = Vec::new();
    let mut first: Option<Vec<PassOutput>> = None;
    let rotation = if plan.sweep { None } else { Rotation::new() };
    let turn = rotation.as_ref().map_or(1, Rotation::cpu_count);
    let start = Instant::now();
    while walls.len() % turn != 0
        || walls.is_empty()
        || start.elapsed().as_secs_f64() < opts.seconds
    {
        let rep = walls.len();
        if let Some(r) = &rotation {
            if !r.pin(rep) {
                tally
                    .problems
                    .push(format!("rep {rep}: pinning to a CPU failed"));
            }
        }
        let cache = match fresh_cache(&plan, &opts.out_dir, &format!("rep{rep}")) {
            Ok(c) => c,
            Err(e) => {
                tally.problems.push(e);
                break;
            }
        };
        let t = Instant::now();
        let mut passes = vec![plain_pass(&plan, opts.seed, cache.as_deref())];
        let mut entries = 0;
        if let Some(dir) = &cache {
            entries = cache_entries(dir);
            passes.push(plain_pass(&plan, opts.seed, Some(dir)));
        }
        walls.push(t.elapsed().as_secs_f64());
        if let Some(dir) = &cache {
            let _ = std::fs::remove_dir_all(dir);
        }
        let what = format!("rep {rep}");
        let mut bad = check_passes(&mut tally, opts, &what, &passes, first.as_deref());
        if cache.is_some() && entries != passes[0].len() {
            tally.problems.push(format!(
                "{what}: cold pass left {entries} cache entries for {} runs",
                passes[0].len()
            ));
            bad[0].iter_mut().for_each(|x| *x = true);
        }
        for (out, bad) in passes.iter().zip(&bad) {
            tally.pass(&what, out, bad);
        }
        if first.is_none() {
            first = Some(passes);
        }
    }
    drop(rotation);
    let peak = peak_rss_mb().unwrap_or_else(|e| {
        tally.problems.push(e);
        f64::NAN
    });
    // Cross-path identities, checked once per process outside the timed
    // section: the cached curves equal the uncached ones, and the dense
    // scheduler reproduces the active-set scheduler's report.
    if let Some(f) = &first {
        if plan.cached {
            let out = plain_pass(&plan, opts.seed, None);
            let mut bad = vec![false; out.len()];
            tally.compare("uncached vs cold", &out, &f[0], &mut bad);
            tally.pass("uncached", &out, &bad);
        }
        if opts.workload == Workload::SteadyLow {
            let out = vec![dense_point(&plan.points(opts.seed)[0], plan.sweep).map(|(p, _)| p)];
            let mut bad = vec![false; 1];
            tally.compare("dense vs active", &out, &f[0], &mut bad);
            tally.pass("dense", &out, &bad);
        }
    }
    let wall_s = mean(&walls);
    let cycles = pass_cycles(&plan, false)
        + if plan.cached {
            pass_cycles(&plan, true)
        } else {
            0
        };
    let sim_rate = cycles as f64 / wall_s;
    let mut lines = vec![format!(
        "workload {} seed {} reps {} machine_threads {} sweep_workers {} cpu_rotation {turn}",
        opts.workload.name(),
        opts.seed,
        walls.len(),
        machine_threads(),
        if plan.sweep { SWEEP_WORKERS } else { 1 }
    )];
    let values = [wall_s, sim_rate, setup_s, peak];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| metric(d, v))
        .collect();
    for m in &metrics {
        lines.push(format!("{} {} {}", m.name, m.value, m.unit));
    }
    lines.push(format!("wall_s per rep {walls:?}"));
    finish(tally, lines, metrics)
}

/// Runs a point through `run_with` under the dense scheduler; returns its
/// result and wall time.
fn dense_point(spec: &PointSpec, sweep: bool) -> Result<(PointResult, f64), String> {
    guarded(|| {
        let t = Instant::now();
        let report = spec
            .builder()
            .run_with(
                RunOptions::new()
                    .sentinel(false)
                    .scheduler(Scheduler::Dense),
            )
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();
        Ok((summarize(&report, spec.rate, sweep), wall))
    })
}

/// One job's timing in the exec pass.
#[derive(Debug, Clone, Copy)]
struct JobTiming {
    start: f64,
    end: f64,
    worker: std::thread::ThreadId,
}

/// Worker-pool figures over a set of batches.
#[derive(Debug, Default, Clone)]
struct ExecStats {
    busy_s: f64,
    capacity_s: f64,
    tail_idle_s: f64,
    points_s: Vec<f64>,
}

impl ExecStats {
    /// Adds one `JobSet::run_on(workers)` batch spanning
    /// `batch_start..batch_end` (seconds since the epoch).
    fn batch(&mut self, workers: usize, batch_start: f64, batch_end: f64, jobs: &[JobTiming]) {
        let workers = workers.min(jobs.len()).max(1);
        self.capacity_s += workers as f64 * (batch_end - batch_start);
        let mut last_end: Vec<(std::thread::ThreadId, f64)> = Vec::new();
        for j in jobs {
            self.busy_s += j.end - j.start;
            self.points_s.push(j.end - j.start);
            match last_end.iter_mut().find(|(w, _)| *w == j.worker) {
                Some((_, e)) => *e = e.max(j.end),
                None => last_end.push((j.worker, j.end)),
            }
        }
        // A worker that never got a job idled for the whole batch.
        let idle_workers = workers.saturating_sub(last_end.len());
        self.tail_idle_s += idle_workers as f64 * (batch_end - batch_start);
        self.tail_idle_s += last_end.iter().map(|&(_, e)| batch_end - e).sum::<f64>();
    }
}

/// The exec pass: the same work as the end-to-end pass, with each point
/// submitted as one timed `JobSet` closure of
/// `sweep_point(i, r).run_sweep_point_with(..)` (or of `run_with` for a
/// single run), one `run_on` batch per curve.
fn exec_pass(
    plan: &Plan,
    seed: u64,
    cache: Option<&Path>,
    epoch: Instant,
    stats: &mut ExecStats,
) -> PassOutput {
    let since = |t: Instant| t.duration_since(epoch).as_secs_f64();
    let workers = if plan.sweep { SWEEP_WORKERS } else { 1 };
    let mut out = Vec::new();
    for curve in &plan.curves {
        let builder = curve.builder(seed);
        let mut jobs = JobSet::new();
        for (i, &rate) in curve.rates.iter().enumerate() {
            let point = builder.sweep_point(i, rate);
            let spec = curve.point(seed, i, plan.sweep);
            let sweep = plan.sweep;
            jobs.push(move || {
                let start = since(Instant::now());
                let result = guarded(|| {
                    if sweep {
                        let p = point
                            .run_sweep_point_with(&sweep_options(cache))
                            .map_err(|e| e.to_string())?;
                        Ok(PointResult {
                            point: p,
                            digest: format!("{p:?}"),
                        })
                    } else {
                        let report = spec
                            .builder()
                            .run_with(RunOptions::new().sentinel(false))
                            .map_err(|e| e.to_string())?;
                        Ok(summarize(&report, spec.rate, false))
                    }
                });
                let timing = JobTiming {
                    start,
                    end: since(Instant::now()),
                    worker: std::thread::current().id(),
                };
                (result, timing)
            });
        }
        let batch_start = since(Instant::now());
        let done = jobs.run_on(workers);
        let batch_end = since(Instant::now());
        let timings: Vec<JobTiming> = done.iter().map(|(_, t)| *t).collect();
        stats.batch(workers, batch_start, batch_end, &timings);
        out.extend(done.into_iter().map(|(r, _)| r));
    }
    out
}

/// How a traced point treats warmup.
#[derive(Clone, Copy)]
enum Warm<'a> {
    /// Simulate warmup.
    Cold,
    /// Simulate warmup and snapshot the network after it.
    Store,
    /// Restore this post-warmup snapshot instead of simulating warmup.
    Restore(&'a [u8]),
}

/// What the decorators and the benchmark's own spans saw in one run.
#[derive(Debug, Clone, Default)]
struct PointTrace {
    route: CallCounts,
    injection: CallCounts,
    generate: CallCounts,
    events: EventCounts,
    cycles: u64,
    phase_s: f64,
    build_s: f64,
    report_s: f64,
    backlog_end: usize,
    snapshots: u64,
    snapshot_bytes: u64,
    encode_s: f64,
    restore_s: f64,
}

impl PointTrace {
    fn add(&mut self, o: &PointTrace) {
        self.route.add(o.route);
        self.injection.add(o.injection);
        self.generate.add(o.generate);
        self.events.add(o.events);
        self.cycles += o.cycles;
        self.phase_s += o.phase_s;
        self.build_s += o.build_s;
        self.report_s += o.report_s;
        self.backlog_end = self.backlog_end.max(o.backlog_end);
        self.snapshots += o.snapshots;
        self.snapshot_bytes += o.snapshot_bytes;
        self.encode_s += o.encode_s;
        self.restore_s += o.restore_s;
    }
}

fn sim_config(spec: &PointSpec) -> SimConfig {
    SimConfig {
        topology: spec.topology,
        num_vcs: spec.vcs,
        ..SimConfig::paper_default()
    }
}

/// Drives one run by hand with decorated routing and traffic and a
/// counting probe, doing what `run_with` does for a fault-free,
/// single-workload run: build, warm up (or restore), reset the metrics
/// window, measure, assemble the report. With `round_trip`, the final
/// network is also snapshotted and restored into a fresh one, which must
/// snapshot back to the same bytes.
fn traced_point(
    spec: &PointSpec,
    warm: Warm<'_>,
    round_trip: bool,
    spans: &mut Spans,
    run: usize,
) -> Result<(RunReport, PointTrace, Option<Vec<u8>>), String> {
    let mut t = PointTrace::default();
    let root = spans.open("point", None, run);
    let builder = spec.builder();
    let (built, build_s) = spans.time("build", Some(root), run, || builder.build());
    built.map_err(|e| e.to_string())?;
    t.build_s = build_s;
    let routing = Arc::new(RoutingStats::default());
    let algo = Box::new(TimedRouting::new(
        spec.routing.build(),
        Arc::clone(&routing),
    ));
    let mut net = Network::new(sim_config(spec), algo, spec.seed).map_err(|e| e.to_string())?;
    let traffic = spec
        .traffic
        .build(net.topo(), PacketSize::SINGLE, spec.rate)
        .map_err(|e| format!("{e:?}"))?;
    let mut wl = TimedWorkload::new(traffic);
    let mut probe = CountingProbe::default();
    let mut blob = None;
    if let Warm::Restore(bytes) = warm {
        let (restored, s) = spans.time("restore", Some(root), run, || net.restore(bytes));
        restored?;
        if net.cycle() != spec.warmup {
            return Err(format!(
                "restored cycle {} != warmup {}",
                net.cycle(),
                spec.warmup
            ));
        }
        t.restore_s += s;
    } else {
        let ((), s) = spans.time("warmup", Some(root), run, || {
            net.run_probed(&mut wl, spec.warmup, &mut probe);
        });
        t.phase_s += s;
        t.cycles += spec.warmup;
        if let Warm::Store = warm {
            let (bytes, s) = spans.time("snapshot", Some(root), run, || net.snapshot());
            let bytes = bytes?;
            t.encode_s += s;
            t.snapshots += 1;
            t.snapshot_bytes += bytes.len() as u64;
            blob = Some(bytes);
        }
    }
    let boundary = net.cycle();
    net.metrics_mut().reset_window_at(boundary);
    let ((), s) = spans.time("measure", Some(root), run, || {
        net.run_probed(&mut wl, spec.measurement, &mut probe);
    });
    t.phase_s += s;
    t.cycles += spec.measurement;
    t.backlog_end = net.source_backlog();
    let (report, s) = spans.time("report", Some(root), run, || {
        let mut r = RunReport::from_metrics(net.metrics(), spec.topology.nodes(), spec.rate);
        r.topology = spec.topology.to_string();
        r.faults = FaultStats::collect(&net);
        r.partitions = PartitionReport::collect(&net);
        r.recovery = RecoveryStats::collect(&net);
        r
    });
    t.report_s = s;
    if round_trip {
        let (bytes, s) = spans.time("snapshot", Some(root), run, || net.snapshot());
        let bytes = bytes?;
        t.encode_s += s;
        t.snapshots += 1;
        t.snapshot_bytes += bytes.len() as u64;
        let mut fresh = Network::new(sim_config(spec), spec.routing.build(), spec.seed)
            .map_err(|e| e.to_string())?;
        let (restored, s) = spans.time("restore", Some(root), run, || fresh.restore(&bytes));
        restored?;
        t.restore_s += s;
        if fresh.snapshot()? != bytes {
            return Err("restored network does not snapshot back to the same bytes".into());
        }
    }
    t.route = routing.route.snapshot();
    t.injection = routing.injection.snapshot();
    t.generate = wl.stats.snapshot();
    t.events = probe.counts;
    spans.close(root);
    Ok((report, t, blob))
}

/// Runs a point through the decorators and the run_with-equivalent drive
/// loop, returning the report it assembles. Exposed for the benchmark's
/// own tests.
///
/// # Errors
///
/// Any configuration error, as text.
pub fn traced_report(spec: &PointSpec) -> Result<RunReport, String> {
    let mut spans = Spans::new(Instant::now());
    traced_point(spec, Warm::Cold, false, &mut spans, 0).map(|(r, _, _)| r)
}

/// The traced pass over a plan: every point through [`traced_point`], one
/// `run_on` batch per curve as in the exec pass. For a cached plan the
/// cold pass (`warm == false`) fills `blobs` with post-warmup snapshots
/// and the warm pass restores them.
fn traced_pass(
    plan: &Plan,
    seed: u64,
    blobs: &mut BTreeMap<usize, Vec<u8>>,
    warm: bool,
    spans: &mut Spans,
    parent: usize,
    total: &mut PointTrace,
) -> PassOutput {
    let workers = if plan.sweep { SWEEP_WORKERS } else { 1 };
    let mut out = Vec::new();
    let mut index = 0;
    for curve in &plan.curves {
        let mut jobs = JobSet::new();
        for i in 0..curve.rates.len() {
            let spec = curve.point(seed, i, plan.sweep);
            let run = index + i;
            let mut local = spans.child();
            let mode = match (plan.cached, warm) {
                (false, _) => Some(Warm::Cold),
                (true, false) => Some(Warm::Store),
                (true, true) => blobs.get(&run).map(|b| Warm::Restore(b.as_slice())),
            };
            let round_trip = !plan.cached && run == 0;
            let sweep = plan.sweep;
            jobs.push(move || {
                let r = guarded(|| {
                    let mode = mode.ok_or("no snapshot stored by the cold pass")?;
                    let (report, t, blob) = traced_point(&spec, mode, round_trip, &mut local, run)?;
                    Ok((summarize(&report, spec.rate, sweep), t, blob))
                });
                (r, local)
            });
        }
        let done = jobs.run_on(workers);
        for (i, (r, local)) in done.into_iter().enumerate() {
            spans.absorb(local, Some(parent));
            out.push(r.map(|(p, t, blob)| {
                total.add(&t);
                if let Some(b) = blob {
                    blobs.insert(index + i, b);
                }
                p
            }));
        }
        index += curve.rates.len();
    }
    out
}

/// Per-layer values of one exec/traced pair, by metric name.
fn layer_values(
    exec: &ExecStats,
    exec_wall: f64,
    t: &PointTrace,
    traced_wall: f64,
    clock_ns: f64,
) -> BTreeMap<&'static str, f64> {
    let cycles = t.cycles.max(1) as f64;
    let phase_ns = t.phase_s * 1e9;
    let route_ns = t.route.total_ns(clock_ns) + t.injection.total_ns(clock_ns);
    let generate_ns = t.generate.total_ns(clock_ns);
    let ev = t.events;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut points = exec.points_s.clone();
    let max_point = points.iter().copied().fold(0.0, f64::max);
    BTreeMap::from([
        ("core.build_s", t.build_s),
        ("core.report_s", t.report_s),
        ("exec.busy_frac", ratio(exec.busy_s, exec.capacity_s)),
        ("exec.point_p50_s", median(&mut points)),
        ("exec.point_max_s", max_point),
        ("exec.tail_idle_s", exec.tail_idle_s),
        ("sim.step_ns_per_cycle", phase_ns / cycles),
        (
            "sim.self_ns_per_cycle",
            (phase_ns - route_ns - generate_ns) / cycles,
        ),
        ("sim.vc_grants_per_cycle", ev.vc_grants as f64 / cycles),
        ("sim.sa_grants_per_cycle", ev.sa_grants as f64 / cycles),
        ("sim.ejects_per_cycle", ev.ejects as f64 / cycles),
        (
            "sim.va_block_ratio",
            ratio(ev.va_blocks as f64, (ev.va_blocks + ev.vc_grants) as f64),
        ),
        ("sim.source_backlog_end", t.backlog_end as f64),
        ("sim.snapshot_encode_s", t.encode_s),
        ("sim.snapshot_restore_s", t.restore_s),
        (
            "sim.snapshot_bytes",
            ratio(t.snapshot_bytes as f64, t.snapshots as f64),
        ),
        (
            "routing.route_calls_per_cycle",
            t.route.calls as f64 / cycles,
        ),
        ("routing.route_ns_per_call", t.route.ns_per_call(clock_ns)),
        (
            "routing.requests_per_call",
            ratio(t.route.outputs as f64, t.route.calls as f64),
        ),
        ("routing.route_share", ratio(route_ns, phase_ns)),
        (
            "routing.route_calls_per_vc_grant",
            ratio(t.route.calls as f64, ev.vc_grants as f64),
        ),
        (
            "traffic.generate_ns_per_call",
            t.generate.ns_per_call(clock_ns),
        ),
        ("traffic.generate_share", ratio(generate_ns, phase_ns)),
        (
            "traffic.packets_per_call",
            ratio(t.generate.outputs as f64, t.generate.calls as f64),
        ),
        ("trace.overhead", traced_wall / exec_wall - 1.0),
    ])
}

/// The simulated statistics of a pass: mean latency and accepted
/// throughput over its points, and mean saturation estimate over its
/// curves (a single run is a one-point curve, whose estimate is its
/// accepted throughput, a lower bound).
fn simulated_stats(
    plan: &Plan,
    out: &PassOutput,
    lines: &mut Vec<String>,
) -> [(&'static str, f64); 3] {
    let ok: Vec<&PointResult> = out.iter().filter_map(|r| r.as_ref().ok()).collect();
    let n = ok.len().max(1) as f64;
    let latency = ok.iter().map(|p| p.point.latency).sum::<f64>() / n;
    let accepted = ok.iter().map(|p| p.point.accepted).sum::<f64>() / n;
    let mut saturation = Vec::new();
    let mut index = 0;
    for c in &plan.curves {
        let mut curve = Curve::new(c.label());
        for r in out[index..index + c.rates.len()].iter().flatten() {
            curve.push(r.point);
        }
        index += c.rates.len();
        let s = curve.saturation(3.0);
        lines.push(format!("curve {} saturation {:?}", c.label(), s));
        if let Some(v) = s.estimate() {
            saturation.push(v);
        }
    }
    let sat = saturation.iter().sum::<f64>() / saturation.len().max(1) as f64;
    [
        ("stats.mean_latency_cycles", latency),
        ("stats.accepted_flits_per_node_cycle", accepted),
        ("stats.saturation_rate", sat),
    ]
}

/// The traced run: pairs of an exec pass (the public API, one timed job
/// per point) and a traced pass (decorated, driven by hand) until
/// `opts.seconds` have passed, then one dense-scheduler rerun of the first
/// point. Reports per-layer medians over the pairs.
fn run_traced(opts: &Options) -> Outcome {
    let plan = opts.workload.plan();
    let seed = opts.seed;
    let clock_ns = clock_overhead_ns();
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut tally = Tally::default();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<Vec<PassOutput>> = None;
    let mut first_active = Vec::new();
    let mut lines = Vec::new();
    let start = Instant::now();
    let mut pair = 0;
    while pair == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let pair_span = spans.open("pair", None, pair);
        let cache = match fresh_cache(&plan, &opts.out_dir, &format!("pair{pair}")) {
            Ok(c) => c,
            Err(e) => {
                tally.problems.push(e);
                break;
            }
        };
        let mut exec = ExecStats::default();
        let id = spans.open("exec_pass", Some(pair_span), pair);
        let mut exec_out = vec![exec_pass(&plan, seed, cache.as_deref(), epoch, &mut exec)];
        if plan.cached {
            exec_out.push(exec_pass(&plan, seed, cache.as_deref(), epoch, &mut exec));
        }
        let exec_wall = spans.close(id);
        if let Some(dir) = &cache {
            let _ = std::fs::remove_dir_all(dir);
        }
        first_active.push(exec.points_s[0]);

        let mut total = PointTrace::default();
        let mut blobs = BTreeMap::new();
        let id = spans.open("traced_pass", Some(pair_span), pair);
        let mut traced = vec![traced_pass(
            &plan, seed, &mut blobs, false, &mut spans, id, &mut total,
        )];
        if plan.cached {
            traced.push(traced_pass(
                &plan, seed, &mut blobs, true, &mut spans, id, &mut total,
            ));
        }
        let traced_wall = spans.close(id);
        spans.close(pair_span);

        let what = format!("pair {pair}");
        let bad = check_passes(&mut tally, opts, &what, &exec_out, first.as_deref());
        for (k, bad_exec) in bad.iter().enumerate() {
            let mut bad_traced = vec![false; traced[k].len()];
            let what = format!("{what} pass {k}");
            tally.compare(
                &format!("{what} traced vs untraced"),
                &traced[k],
                &exec_out[k],
                &mut bad_traced,
            );
            tally.pass(&format!("{what} untraced"), &exec_out[k], bad_exec);
            tally.pass(&format!("{what} traced"), &traced[k], &bad_traced);
        }
        for (name, v) in layer_values(&exec, exec_wall, &total, traced_wall, clock_ns) {
            values.entry(name).or_default().push(v);
        }
        if first.is_none() {
            for (name, v) in simulated_stats(&plan, &exec_out[0], &mut lines) {
                values.entry(name).or_default().push(v);
            }
            first = Some(exec_out);
        }
        pair += 1;
    }
    // The first point again under the dense scheduler: its report must
    // match, and its time against the active-set scheduler's is the
    // scheduler's measured saving.
    if let Some(f) = &first {
        let spec = plan.points(seed)[0];
        let (dense, wall) = match dense_point(&spec, plan.sweep) {
            Ok((p, wall)) => (Ok(p), wall),
            Err(e) => (Err(e), f64::NAN),
        };
        let out = vec![dense];
        let mut bad = vec![false];
        tally.compare("dense vs active", &out, &f[0][..1].to_vec(), &mut bad);
        tally.pass("dense", &out, &bad);
        values.insert(
            "sim.dense_over_active",
            vec![wall / median(&mut first_active)],
        );
    }
    let path = opts
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", opts.workload.name(), seed));
    match spans.write_jsonl(&path) {
        Ok(()) => lines.push(format!(
            "spans {} written to {}",
            spans.spans().len(),
            path.display()
        )),
        Err(e) => tally
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
    lines.insert(
        0,
        format!(
            "workload {} seed {} pairs {pair} machine_threads {} sweep_workers {} clock_ns {clock_ns} sample_every {}",
            opts.workload.name(),
            seed,
            machine_threads(),
            if plan.sweep { SWEEP_WORKERS } else { 1 },
            crate::trace::SAMPLE_EVERY,
        ),
    );
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|d| metric(d, values.get_mut(d.name).map_or(f64::NAN, |v| median(v))))
        .collect();
    for m in &metrics {
        lines.push(format!("{} {} {}", m.name, m.value, m.unit));
    }
    finish(tally, lines, metrics)
}
