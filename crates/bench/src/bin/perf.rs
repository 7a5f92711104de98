//! Performance harness: measures simulated-cycles/sec on the hot path and
//! the wall-clock scaling of the parallel experiment engine, and records
//! both in `BENCH_sim.json` so the perf trajectory is tracked PR over PR.
//!
//! Measurements:
//!
//! * **single-thread cycles/sec** — one representative 8×8 Footprint
//!   uniform-random run (the per-cycle hot path: route computation, VC
//!   allocation, switch traversal), timed end to end. Best of two runs of
//!   4000 cycles; comparable across PRs only on the same runner, which is
//!   why the gate compares it as a *ratio* to the committed baseline.
//! * **sweep wall-clock** — the same `quick_rates()` sweep executed
//!   sequentially (`threads = 1`) and on pools of 1, 2, 4 and 8 workers.
//!   Each pooled run is asserted bit-identical to the sequential one. The
//!   per-pool speedup column is honest for *this* runner: on a single-CPU
//!   box it hovers near 1.0× however many workers are spawned — the
//!   cross-PR throughput gain shows up in the gate's ratio against the
//!   committed baseline instead. Rows whose pool is wider than the machine
//!   carry `"undersubscribed": true`, and the gate skips its 4-worker
//!   wall-clock comparison when either side was measured on fewer than 4
//!   hardware threads (see `sweep.machine_threads`).
//! * **sentinel overhead** — the 4-worker sweep re-run with the invariant
//!   sentinel enabled on every point; the ratio to the fastest plain sweep
//!   is the price of full runtime auditing (budget: ≤ 15%).
//! * **active-set scheduler speedup** — one low-load run (where most
//!   routers idle most cycles) timed under the dense reference loop and
//!   under the active-set scheduler; their ratio is the payoff of skipping
//!   idle components. The two reports are asserted bit-identical.
//! * **warm-start hit speedup** — one standalone run cold (cache miss,
//!   including snapshot serialization) against the same run warm (hit +
//!   restore); reports asserted identical, ratio recorded as
//!   `snapshot.hit_speedup`.
//!
//! Output path: `BENCH_sim.json` in the current directory, or the value
//! of `FOOTPRINT_BENCH_OUT`.

use footprint_bench::quick_rates;
use footprint_core::{
    RoutingSpec, RunOptions, Scheduler, SimulationBuilder, SweepOptions, TrafficSpec,
};
use std::time::Instant;

/// Worker-pool sizes the sweep is timed under.
const SWEEP_THREADS: [usize; 4] = [1, 2, 4, 8];
/// The pool size whose wall-clock the gate tracks (`parallel_secs_4t`).
const HEADLINE_THREADS: usize = 4;

fn builder() -> SimulationBuilder {
    SimulationBuilder::paper_default()
        .routing(RoutingSpec::Footprint)
        .traffic(TrafficSpec::UniformRandom)
        .injection_rate(0.30)
        .warmup(1_000)
        .measurement(3_000)
        .seed(0xBE_5C)
}

fn main() {
    // 1. Hot-path throughput: simulated cycles per wall-clock second on
    // one core. Two timed runs, keep the faster (warm caches).
    let b = builder();
    let total_cycles = 4_000u64;
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        b.run_with(RunOptions::new()).expect("static experiment config");
        best = best.min(t.elapsed().as_secs_f64());
    }
    let cycles_per_sec = total_cycles as f64 / best;

    // 2. Parallel-engine scaling on a quick sweep: sequential reference,
    // then one pooled run per worker count. Pools wider than the machine
    // are still timed (the bit-identity assertion is load-bearing at any
    // width) but their rows are flagged `undersubscribed`: on a 1-core
    // runner a "4-worker speedup" is pure scheduler noise, and the gate
    // must not mistake its wobble for a perf trajectory.
    let machine = std::thread::available_parallelism().map_or(1, usize::from);
    let rates = quick_rates();
    let t = Instant::now();
    let sequential = b
        .sweep_with(&rates, SweepOptions::new().threads(1))
        .expect("static experiment config");
    let seq_secs = t.elapsed().as_secs_f64();
    let mut table = Vec::new();
    let mut headline_secs = f64::NAN;
    for &threads in &SWEEP_THREADS {
        let t = Instant::now();
        let pooled = b
            .sweep_with(&rates, SweepOptions::new().threads(threads))
            .expect("static experiment config");
        let par_secs = t.elapsed().as_secs_f64();
        assert_eq!(
            sequential, pooled,
            "{threads}-worker sweep must be bit-identical to sequential"
        );
        if threads == HEADLINE_THREADS {
            headline_secs = par_secs;
        }
        table.push((threads, par_secs, seq_secs / par_secs));
    }
    assert!(headline_secs.is_finite(), "headline pool size must be in SWEEP_THREADS");

    // 3. Sentinel overhead: the headline pooled sweep with every invariant
    // audited. The sentinel only observes, so the curve must not move.
    // Plain and audited runs are *interleaved* (plain, audited, plain,
    // audited; best of each) because shared runners drift by more than
    // the audit cost over the seconds a sweep takes — comparing an
    // audited run against a plain run measured half a minute earlier
    // reports the machine's mood, not the sentinel's price.
    // Best-of-4 per side: single sweeps on this box scatter by ±35%, and
    // noise only ever adds time, so the minimum over more interleaved
    // samples converges on the true cost where best-of-2 still carries
    // tens of points of jitter into the ratio.
    let mut plain_secs = headline_secs;
    let mut audited_secs = f64::INFINITY;
    for _ in 0..4 {
        let t = Instant::now();
        let plain = b
            .sweep_with(&rates, SweepOptions::new().threads(HEADLINE_THREADS))
            .expect("static experiment config");
        plain_secs = plain_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(sequential, plain, "pooled sweep must stay bit-identical");
        let t = Instant::now();
        let audited = b
            .sweep_with(
                &rates,
                SweepOptions::new().threads(HEADLINE_THREADS).sentinel(true),
            )
            .expect("sentinel must stay quiet on a healthy sweep");
        audited_secs = audited_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(
            sequential, audited,
            "sentinel-on sweep must be bit-identical to the plain sweep"
        );
    }
    let overhead = audited_secs / plain_secs - 1.0;
    // The extra plain runs are more samples of the headline config; let
    // them tighten both the gated number and its table row.
    let headline_secs = plain_secs;
    for row in &mut table {
        if row.0 == HEADLINE_THREADS {
            *row = (row.0, headline_secs, seq_secs / headline_secs);
        }
    }

    // 4. Active-set scheduler payoff at low load: far from saturation most
    // routers are idle most cycles, which is exactly what the scheduler
    // skips. The dense loop is the reference; results must not move.
    let low_load = 0.02;
    let lb = builder().injection_rate(low_load).measurement(10_000);
    let timed = |scheduler: Scheduler| {
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..2 {
            let t = Instant::now();
            report = Some(
                lb.run_with(RunOptions::new().scheduler(scheduler))
                    .expect("static experiment config"),
            );
            best = best.min(t.elapsed().as_secs_f64());
        }
        (best, report.expect("two timed runs"))
    };
    let (dense_secs, dense_report) = timed(Scheduler::Dense);
    let (active_secs, active_report) = timed(Scheduler::Active);
    assert_eq!(
        dense_report, active_report,
        "active-set scheduler must be bit-identical to the dense loop"
    );
    let sched_speedup = dense_secs / active_secs;

    // 5. Warm-start cache in isolation: one run cold (miss + store, so the
    // snapshot serialization cost is on the books) against the same run
    // warm (hit + restore). Reports are asserted identical — the speedup
    // is free only because the numbers cannot move.
    let hitdir =
        std::env::temp_dir().join(format!("footprint-perf-hit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&hitdir);
    let hb = builder().warmup(2_000).measurement(2_000);
    let t = Instant::now();
    let cold_report = hb
        .run_with(RunOptions::new().snapshot_cache(&hitdir))
        .expect("static experiment config");
    let cold_secs = t.elapsed().as_secs_f64();
    let mut hit_secs = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let warm_report = hb
            .run_with(RunOptions::new().snapshot_cache(&hitdir))
            .expect("static experiment config");
        hit_secs = hit_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(
            cold_report, warm_report,
            "a snapshot-cache hit must report bit-identically to the cold run"
        );
    }
    let hit_speedup = cold_secs / hit_secs;
    let _ = std::fs::remove_dir_all(&hitdir);

    // Gate-read fields stay ahead of the nested `by_threads` array: the
    // gate's string surgery scopes a section to the text before its first
    // closing brace.
    let by_threads = table
        .iter()
        .map(|(n, secs, speedup)| {
            // An undersubscribed pool's "speedup" is scheduler noise, so
            // the row omits the field entirely rather than publishing a
            // number that looks like a measurement.
            if *n > machine {
                format!(
                    "      {{ \"threads\": {n}, \"parallel_secs\": {secs:.4}, \"undersubscribed\": true }}"
                )
            } else {
                format!(
                    "      {{ \"threads\": {n}, \"parallel_secs\": {secs:.4}, \"speedup\": {speedup:.2}, \"undersubscribed\": false }}"
                )
            }
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let headline_speedup = seq_secs / headline_secs;
    let json = format!(
        "{{\n  \"single_thread\": {{\n    \"simulated_cycles\": {total_cycles},\n    \
         \"wall_secs\": {best:.4},\n    \"cycles_per_sec\": {cycles_per_sec:.0}\n  }},\n  \
         \"sweep\": {{\n    \"rates\": {},\n    \"sequential_secs\": {seq_secs:.4},\n    \
         \"parallel_secs_4t\": {headline_secs:.4},\n    \"speedup\": {headline_speedup:.2},\n    \
         \"machine_threads\": {machine},\n    \"bit_identical\": true,\n    \
         \"by_threads\": [\n{by_threads}\n    ]\n  }},\n  \
         \"sentinel\": {{\n    \"audited_secs\": {audited_secs:.4},\n    \
         \"overhead\": {overhead:.4},\n    \"budget\": 0.15\n  }},\n  \
         \"scheduler\": {{\n    \"load\": {low_load},\n    \
         \"dense_secs\": {dense_secs:.4},\n    \"active_secs\": {active_secs:.4},\n    \
         \"speedup\": {sched_speedup:.2},\n    \"bit_identical\": true\n  }},\n  \
         \"snapshot\": {{\n    \"cold_secs\": {cold_secs:.4},\n    \
         \"hit_secs\": {hit_secs:.4},\n    \"hit_speedup\": {hit_speedup:.2},\n    \
         \"bit_identical\": true\n  }}\n}}\n",
        rates.len(),
    );
    let path = std::env::var("FOOTPRINT_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".into());
    std::fs::write(&path, &json).expect("write benchmark report");
    println!("single-thread: {cycles_per_sec:.0} simulated cycles/sec ({best:.2}s for {total_cycles} cycles)");
    println!(
        "sweep ({} rates, {machine} hardware thread(s)): sequential {seq_secs:.2}s",
        rates.len()
    );
    for (n, secs, speedup) in &table {
        let note = if *n > machine { " (undersubscribed — speedup is noise)" } else { "" };
        println!("  {n} worker(s): {secs:.2}s → {speedup:.2}x{note}");
    }
    println!(
        "sentinel: audited sweep {audited_secs:.2}s → {:.1}% overhead (budget 15%)",
        overhead * 100.0
    );
    println!(
        "scheduler (load {low_load}): dense {dense_secs:.2}s, active {active_secs:.2}s → {sched_speedup:.2}x"
    );
    println!(
        "snapshot: cold {cold_secs:.2}s, hit {hit_secs:.2}s → {hit_speedup:.2}x warm-start speedup"
    );
    println!("wrote {path}");
}
