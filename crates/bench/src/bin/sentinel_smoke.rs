//! Sentinel smoke test (run by CI).
//!
//! Three checks, each of which must pass for the binary to exit zero:
//!
//! 1. **Audited sweep** — a quick Footprint sweep with the sentinel
//!    enabled on every point, once on a healthy mesh and once under the
//!    standard 1-link-cut fault plan. Zero invariant violations expected;
//!    both curves must be bit-identical to their unaudited twins.
//!
//! 2. **Negative test** — a deliberately broken router (the same
//!    [`BlackHole`] hook as `obs_smoke`) must trip the sentinel with a
//!    protocol-deadlock finding, surfaced as the typed
//!    [`RunError::InvariantViolated`].
//!
//! 3. **Kill/resume drill** — a checkpointed sweep is started in a child
//!    process (this same binary re-executed with `SENTINEL_SMOKE_VICTIM`
//!    set), killed with SIGKILL once the journal holds at least one
//!    record, and then resumed in this process. The resumed curve must be
//!    bit-identical to an uninterrupted run.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use footprint_bench::{phases_from_env, results_dir};
use footprint_core::{RoutingSpec, RunError, SimulationBuilder, SweepOptions, TrafficSpec};
use footprint_routing::{RoutingAlgorithm, RoutingCtx, VcReallocationPolicy, VcRequest};
use footprint_sim::{FlowSet, Network, Sentinel, SentinelViolation, SimConfig, SingleFlow};
use footprint_topology::{Direction, FaultEvent, FaultPlan, NodeId};
use rand::RngCore;

/// The deliberately broken algorithm from `obs_smoke`: injection works,
/// but no head is ever routed.
struct BlackHole;

impl RoutingAlgorithm for BlackHole {
    fn name(&self) -> &'static str {
        "blackhole"
    }

    fn policy(&self) -> VcReallocationPolicy {
        VcReallocationPolicy::Atomic
    }

    fn has_escape(&self) -> bool {
        false
    }

    fn route(&self, _ctx: &RoutingCtx<'_>, _rng: &mut dyn RngCore, _out: &mut Vec<VcRequest>) {}
}

const VICTIM_ENV: &str = "SENTINEL_SMOKE_VICTIM";
const DRILL_SEED: u64 = 0x5EED;

fn quick_builder() -> SimulationBuilder {
    let phases = phases_from_env();
    SimulationBuilder::mesh(4)
        .vcs(4)
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .warmup(phases.warmup.min(500))
        .measurement(phases.measurement.min(1_500))
        .seed(DRILL_SEED)
}

fn drill_rates() -> Vec<f64> {
    (1..=8).map(|i| i as f64 * 0.05).collect()
}

/// Check 1: the sentinel stays quiet on healthy and 1-link-cut sweeps,
/// and perturbs nothing.
fn audited_sweep() -> Result<(), String> {
    let rates = drill_rates();
    let plain = quick_builder()
        .sweep_with(&rates, SweepOptions::new())
        .map_err(|e| format!("plain sweep failed: {e}"))?;
    let audited = quick_builder()
        .sweep_with(&rates, SweepOptions::new().sentinel(true))
        .map_err(|e| format!("sentinel flagged a healthy sweep: {e}"))?;
    if plain != audited {
        return Err("sentinel-on curve differs from the plain curve".into());
    }
    let plan = FaultPlan::new().with(FaultEvent::link_down(NodeId(5), Direction::East, 0));
    let opts = || SweepOptions::new().faults(plan.clone()).watchdog(50_000);
    let faulted_plain = quick_builder()
        .sweep_with(&rates, opts())
        .map_err(|e| format!("faulted sweep failed: {e}"))?;
    let faulted_audited = quick_builder()
        .sweep_with(&rates, opts().sentinel(true))
        .map_err(|e| format!("sentinel flagged the 1-link-cut sweep: {e}"))?;
    if faulted_plain != faulted_audited {
        return Err("sentinel-on faulted curve differs from the plain one".into());
    }
    println!(
        "audited sweep: {} healthy + {} faulted points, zero violations, bit-identical",
        rates.len(),
        rates.len()
    );
    Ok(())
}

/// Check 2: an injected violation surfaces as the typed error.
fn injected_violation() -> Result<(), String> {
    let algo: Box<dyn RoutingAlgorithm> = Box::new(BlackHole);
    let mut net = Network::new(SimConfig::small(), algo, 7).map_err(|e| e.to_string())?;
    let mut wl = FlowSet::new(vec![SingleFlow {
        src: NodeId(0),
        dest: NodeId(15),
        rate: 1.0,
        size: 1,
    }]);
    let mut sentinel = Sentinel::with_intervals(1, 1);
    for _ in 0..100 {
        net.step_probed(&mut wl, &mut sentinel);
        if sentinel.tripped() {
            break;
        }
    }
    let report = sentinel
        .take_report()
        .ok_or("sentinel never tripped on the broken router")?;
    if !matches!(report.violation, SentinelViolation::ProtocolDeadlock(_)) {
        return Err(format!("expected a deadlock finding, got: {}", report.violation));
    }
    let err = RunError::from(report);
    let rendered = err.to_string();
    if !matches!(err, RunError::InvariantViolated(_)) {
        return Err(format!("expected InvariantViolated, got: {rendered}"));
    }
    let out = results_dir().map_err(|e| e.to_string())?.join("sentinel_smoke_violation.txt");
    std::fs::write(&out, format!("{rendered}\n")).map_err(|e| e.to_string())?;
    println!("injected violation: {rendered}");
    println!("wrote {}", out.display());
    Ok(())
}

/// Durable point records in a sweep journal: complete `point` lines (the
/// header and a torn final line are not records). The resuming sweep
/// itself validates the journal against its configuration.
fn journaled_points(journal: &Path) -> usize {
    std::fs::read_to_string(journal).map_or(0, |s| {
        s.split_inclusive('\n')
            .filter(|l| l.starts_with("point ") && l.ends_with('\n'))
            .count()
    })
}

/// Victim mode (child process): run the checkpointed sweep to completion.
/// The parent SIGKILLs this process partway through.
fn victim(journal: &str) -> Result<(), String> {
    quick_builder()
        .sweep_with(
            &drill_rates(),
            SweepOptions::new().threads(2).checkpoint(journal),
        )
        .map_err(|e| format!("victim sweep failed: {e}"))?;
    Ok(())
}

/// Check 3: SIGKILL mid-sweep, then resume bit-identically.
fn kill_resume_drill() -> Result<(), String> {
    let rates = drill_rates();
    let baseline = quick_builder()
        .sweep_with(&rates, SweepOptions::new())
        .map_err(|e| format!("baseline sweep failed: {e}"))?;
    let journal = results_dir()
        .map_err(|e| e.to_string())?
        .join("sentinel_smoke_drill.journal");
    let _ = std::fs::remove_file(&journal);

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = std::process::Command::new(exe)
        .env(VICTIM_ENV, &journal)
        .spawn()
        .map_err(|e| format!("cannot spawn victim: {e}"))?;
    // Kill as soon as the journal holds at least one durable record (or
    // give up waiting and let the child finish — resume still must work).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let records = journaled_points(&journal);
        let exited = child.try_wait().map_err(|e| e.to_string())?.is_some();
        if records >= 1 || exited || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill(); // SIGKILL on unix; no-op if already gone
    let _ = child.wait();

    let restored = journaled_points(&journal);
    println!("after SIGKILL: {restored}/{} points journaled", rates.len());
    if restored >= rates.len() {
        println!("note: victim finished before the kill landed; resume is a pure replay");
    }

    let resumed = quick_builder()
        .sweep_with(
            &rates,
            SweepOptions::new().threads(2).checkpoint(&journal),
        )
        .map_err(|e| format!("resume failed: {e}"))?;
    if resumed != baseline {
        return Err("resumed curve differs from the uninterrupted baseline".into());
    }
    if format!("{resumed}") != format!("{baseline}") {
        return Err("resumed curve renders differently from the baseline".into());
    }
    // A second resume over the now complete journal replays it without
    // simulating anything, so it proves the journal still validates.
    let replayed = quick_builder()
        .sweep_with(&rates, SweepOptions::new().threads(2).checkpoint(&journal))
        .map_err(|e| format!("journal unreadable after resume: {e}"))?;
    if replayed != baseline {
        return Err("replayed curve differs from the uninterrupted baseline".into());
    }
    let journaled = journaled_points(&journal);
    if journaled != rates.len() {
        return Err(format!(
            "journal holds {journaled} of {} points after resume",
            rates.len()
        ));
    }
    println!(
        "kill/resume drill: {journaled}/{} points journaled; curve bit-identical to baseline",
        rates.len()
    );
    let _ = std::fs::remove_file(&journal);
    Ok(())
}

fn main() -> ExitCode {
    if let Ok(journal) = std::env::var(VICTIM_ENV) {
        return match victim(&journal) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("victim: {e}");
                ExitCode::FAILURE
            }
        };
    }
    for (name, check) in [
        ("audited sweep", audited_sweep as fn() -> Result<(), String>),
        ("injected violation", injected_violation),
        ("kill/resume drill", kill_resume_drill),
    ] {
        if let Err(e) = check() {
            eprintln!("FAILED {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("sentinel smoke: all checks passed");
    ExitCode::SUCCESS
}
