//! Perf-regression gate: compares a freshly measured `BENCH_sim.json`
//! against the committed baseline and fails (exit 1) when a tracked
//! metric regressed beyond its tolerance band.
//!
//! Two kinds of metric are compared:
//!
//! * *Ratio* metrics — the active-set scheduler speedup and the sentinel
//!   overhead — are machine-portable and compared directly.
//! * *Same-runner throughput* metrics — single-thread cycles/sec and the
//!   4-worker sweep wall-clock — are hardware-dependent in absolute terms,
//!   but CI measures fresh and baseline on the same runner lineage, so a
//!   *collapse relative to the committed baseline* is still a regression
//!   signal. Their bands are wide (50% retention) to absorb runner noise;
//!   a real regression (an accidental O(n²) in the hot path, the pool
//!   serializing) blows through 2× easily.
//!
//! Concretely:
//!
//! * `scheduler.speedup` regresses when the fresh value drops below 60%
//!   of the committed baseline (a real regression — the scheduler silently
//!   degrading to a dense walk — shows up as a collapse toward 1.0×).
//! * `sentinel.overhead` regresses when the fresh value exceeds both the
//!   committed baseline + 10 points and the 15% budget (a fresh value
//!   within budget never fails, however noisy the baseline).
//! * `single_thread.cycles_per_sec` regresses when the fresh value drops
//!   below 50% of the committed baseline. The gate also reports the
//!   improvement ratio — the number the changelog quotes.
//! * `sweep.parallel_secs_4t` regresses when the fresh 4-worker sweep
//!   takes more than 2× the committed baseline's wall-clock. The gate also
//!   reports fresh throughput against the *baseline sequential* time: the
//!   end-to-end sweep speedup a user of the committed revision gains by
//!   updating. When either file records `sweep.machine_threads` < 4, the
//!   comparison is skipped with a note: a 4-worker pool on a 1-core box
//!   measures the OS scheduler's mood, and gating on it would fail PRs for
//!   the runner's hardware rather than the code.
//! * `snapshot.hit_speedup` (warm-start cache hit over cold run) must
//!   exceed 1.0× outright and retain 60% of the committed baseline.
//!
//! Usage: `perf_gate <fresh.json> <baseline.json>`.
//!
//! A baseline that predates a metric is skipped with a note (schema
//! transitions must not brick CI); a *fresh* file missing a metric fails,
//! because that means the harness stopped measuring it.

use std::process::ExitCode;

/// Minimum acceptable fraction of the baseline scheduler speedup.
const SPEEDUP_RETENTION: f64 = 0.6;
/// Absolute headroom over the baseline sentinel overhead.
const OVERHEAD_SLACK: f64 = 0.10;
/// The sentinel overhead budget (mirrors the harness's published budget).
const OVERHEAD_BUDGET: f64 = 0.15;
/// Minimum acceptable fraction of baseline throughput (cycles/sec up,
/// sweep wall-clock down) for the same-runner metrics.
const THROUGHPUT_RETENTION: f64 = 0.5;
/// Minimum acceptable fraction of the baseline's warm-start hit speedup
/// (a machine-portable ratio, like the scheduler speedup).
const SNAPSHOT_RETENTION: f64 = 0.6;

/// Extracts `"field": <number>` from within the object that follows
/// `"section"` in hand-written JSON of the shape `perf.rs` emits. Not a
/// JSON parser — just enough string surgery for our own flat output. The
/// scan stops at the section's first closing brace, so gated fields must
/// precede any nested object or array in their section (the harness keeps
/// `sweep.by_threads` last for exactly this reason).
fn extract(json: &str, section: &str, field: &str) -> Option<f64> {
    let start = json.find(&format!("\"{section}\""))?;
    let body = &json[start..];
    let end = body.find('}').unwrap_or(body.len());
    let scoped = &body[..end];
    let fstart = scoped.find(&format!("\"{field}\""))?;
    let after = &scoped[fstart..];
    let colon = after.find(':')?;
    let value = after[colon + 1..]
        .trim_start()
        .split(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .next()?;
    value.parse().ok()
}

fn run(fresh: &str, baseline: &str) -> Result<Vec<String>, String> {
    let mut notes = Vec::new();

    let fresh_speedup = extract(fresh, "scheduler", "speedup")
        .ok_or("fresh benchmark is missing scheduler.speedup — did the harness stop measuring the active-set scheduler?")?;
    match extract(baseline, "scheduler", "speedup") {
        Some(base) => {
            let floor = base * SPEEDUP_RETENTION;
            if fresh_speedup < floor {
                return Err(format!(
                    "scheduler.speedup regressed: fresh {fresh_speedup:.2}x < {floor:.2}x \
                     ({:.0}% of committed baseline {base:.2}x)",
                    SPEEDUP_RETENTION * 100.0
                ));
            }
            notes.push(format!(
                "scheduler.speedup ok: fresh {fresh_speedup:.2}x vs baseline {base:.2}x \
                 (floor {floor:.2}x)"
            ));
        }
        None => notes.push(format!(
            "scheduler.speedup: no committed baseline yet (fresh {fresh_speedup:.2}x) — skipped"
        )),
    }

    let fresh_overhead = extract(fresh, "sentinel", "overhead")
        .ok_or("fresh benchmark is missing sentinel.overhead")?;
    match extract(baseline, "sentinel", "overhead") {
        Some(base) => {
            let ceiling = (base + OVERHEAD_SLACK).max(OVERHEAD_BUDGET);
            if fresh_overhead > ceiling {
                return Err(format!(
                    "sentinel.overhead regressed: fresh {:.1}% > ceiling {:.1}% \
                     (baseline {:.1}% + {:.0} points, floor at the {:.0}% budget)",
                    fresh_overhead * 100.0,
                    ceiling * 100.0,
                    base * 100.0,
                    OVERHEAD_SLACK * 100.0,
                    OVERHEAD_BUDGET * 100.0
                ));
            }
            notes.push(format!(
                "sentinel.overhead ok: fresh {:.1}% vs baseline {:.1}% (ceiling {:.1}%)",
                fresh_overhead * 100.0,
                base * 100.0,
                ceiling * 100.0
            ));
        }
        None => notes.push(format!(
            "sentinel.overhead: no committed baseline yet (fresh {:.1}%) — skipped",
            fresh_overhead * 100.0
        )),
    }

    let fresh_cps = extract(fresh, "single_thread", "cycles_per_sec")
        .ok_or("fresh benchmark is missing single_thread.cycles_per_sec")?;
    match extract(baseline, "single_thread", "cycles_per_sec") {
        Some(base) => {
            let floor = base * THROUGHPUT_RETENTION;
            if fresh_cps < floor {
                return Err(format!(
                    "single_thread.cycles_per_sec regressed: fresh {fresh_cps:.0} < {floor:.0} \
                     ({:.0}% of committed baseline {base:.0})",
                    THROUGHPUT_RETENTION * 100.0
                ));
            }
            notes.push(format!(
                "single_thread.cycles_per_sec ok: fresh {fresh_cps:.0} vs baseline {base:.0} \
                 → {:.2}x (floor {floor:.0})",
                fresh_cps / base
            ));
        }
        None => notes.push(format!(
            "single_thread.cycles_per_sec: no committed baseline yet (fresh {fresh_cps:.0}) — skipped"
        )),
    }

    let fresh_4t = extract(fresh, "sweep", "parallel_secs_4t")
        .ok_or("fresh benchmark is missing sweep.parallel_secs_4t — did the harness stop timing the 4-worker sweep?")?;
    // A 4-worker wall-clock measured on fewer than 4 hardware threads is
    // scheduler noise, not a perf signal: skip the comparison whenever
    // either side was undersubscribed. Files that predate the
    // `machine_threads` field gate as before (assume a wide-enough box).
    let undersubscribed = |json: &str| {
        extract(json, "sweep", "machine_threads").is_some_and(|m| m < 4.0)
    };
    if undersubscribed(fresh) || undersubscribed(baseline) {
        notes.push(format!(
            "sweep.parallel_secs_4t: measured on fewer than 4 hardware threads \
             (fresh {fresh_4t:.2}s) — undersubscribed, skipped"
        ));
    } else {
        match extract(baseline, "sweep", "parallel_secs_4t") {
            Some(base) => {
                let ceiling = base / THROUGHPUT_RETENTION;
                if fresh_4t > ceiling {
                    return Err(format!(
                        "sweep.parallel_secs_4t regressed: fresh {fresh_4t:.2}s > {ceiling:.2}s \
                         ({:.0}x the committed baseline {base:.2}s)",
                        1.0 / THROUGHPUT_RETENTION
                    ));
                }
                notes.push(format!(
                    "sweep.parallel_secs_4t ok: fresh {fresh_4t:.2}s vs baseline {base:.2}s \
                     (ceiling {ceiling:.2}s)"
                ));
            }
            None => notes.push(format!(
                "sweep.parallel_secs_4t: no committed baseline yet (fresh {fresh_4t:.2}s) — skipped"
            )),
        }
    }
    // Informational: end-to-end sweep gain over the committed revision's
    // sequential wall-clock (the headline `speedup` the docs quote).
    if let Some(base_seq) = extract(baseline, "sweep", "sequential_secs") {
        notes.push(format!(
            "sweep throughput vs committed sequential baseline: {:.2}x \
             ({base_seq:.2}s → {fresh_4t:.2}s on 4 workers)",
            base_seq / fresh_4t
        ));
    }

    // Warm-start cache hit speedup: must beat a cold run outright, and
    // must retain most of the committed baseline's gain.
    let fresh_hit = extract(fresh, "snapshot", "hit_speedup")
        .ok_or("fresh benchmark is missing snapshot.hit_speedup — did the harness stop measuring the warm-start cache?")?;
    if fresh_hit <= 1.0 {
        return Err(format!(
            "snapshot.hit_speedup below floor: fresh {fresh_hit:.2}x <= 1.0x \
             (a cache hit is no faster than a cold run)"
        ));
    }
    match extract(baseline, "snapshot", "hit_speedup") {
        Some(base) => {
            let floor = (base * SNAPSHOT_RETENTION).max(1.0);
            if fresh_hit < floor {
                return Err(format!(
                    "snapshot.hit_speedup regressed: fresh {fresh_hit:.2}x < {floor:.2}x \
                     ({:.0}% of committed baseline {base:.2}x)",
                    SNAPSHOT_RETENTION * 100.0
                ));
            }
            notes.push(format!(
                "snapshot.hit_speedup ok: fresh {fresh_hit:.2}x vs baseline {base:.2}x \
                 (floor {floor:.2}x)"
            ));
        }
        None => notes.push(format!(
            "snapshot.hit_speedup: no committed baseline yet (fresh {fresh_hit:.2}x) \
             — retention skipped"
        )),
    }

    Ok(notes)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, fresh_path, baseline_path] = &args[..] else {
        eprintln!("usage: perf_gate <fresh.json> <baseline.json>");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perf_gate: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let fresh = read(fresh_path);
    let baseline = read(baseline_path);
    match run(&fresh, &baseline) {
        Ok(notes) => {
            for n in notes {
                println!("perf_gate: {n}");
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perf_gate: FAIL: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(speedup: f64, overhead: f64) -> String {
        bench_json_perf(speedup, overhead, 9854.0, 7.54)
    }

    fn bench_json_perf(speedup: f64, overhead: f64, cps: f64, par4: f64) -> String {
        bench_json_full(speedup, overhead, cps, par4, 1.92)
    }

    /// Mirrors the harness's emission order: gate-read sweep fields come
    /// before the nested `by_threads` array.
    fn bench_json_full(
        speedup: f64,
        overhead: f64,
        cps: f64,
        par4: f64,
        hit: f64,
    ) -> String {
        format!(
            "{{\n  \"single_thread\": {{\n    \"simulated_cycles\": 4000,\n    \
             \"cycles_per_sec\": {cps:.0}\n  }},\n  \
             \"sweep\": {{\n    \"rates\": 6,\n    \"sequential_secs\": {:.4},\n    \
             \"parallel_secs_4t\": {par4:.4},\n    \"speedup\": 1.00,\n    \
             \"machine_threads\": 8,\n    \
             \"bit_identical\": true,\n    \"by_threads\": [\n      \
             {{ \"threads\": 1, \"parallel_secs\": {par4:.4}, \"speedup\": 0.99, \"undersubscribed\": false }},\n      \
             {{ \"threads\": 8, \"parallel_secs\": {par4:.4}, \"undersubscribed\": true }}\n    ]\n  }},\n  \
             \"sentinel\": {{\n    \"overhead\": {overhead:.4}, \"budget\": 0.15\n  }},\n  \
             \"scheduler\": {{\n    \"load\": 0.05,\n    \"speedup\": {speedup:.2},\n    \
             \"bit_identical\": true\n  }},\n  \
             \"snapshot\": {{\n    \"cold_secs\": 1.0,\n    \"hit_secs\": {:.4},\n    \
             \"hit_speedup\": {hit:.2}\n  }}\n}}\n",
            par4 * 0.95,
            1.0 / hit,
        )
    }

    #[test]
    fn extract_scopes_fields_to_their_section() {
        let json = bench_json(2.5, 0.08);
        // `speedup` appears in `sweep`, `scheduler` and every `by_threads`
        // entry; extraction must resolve the one inside the requested
        // section, before its first nested brace.
        assert_eq!(extract(&json, "sweep", "speedup"), Some(1.00));
        assert_eq!(extract(&json, "scheduler", "speedup"), Some(2.5));
        assert_eq!(extract(&json, "sentinel", "overhead"), Some(0.08));
        assert_eq!(extract(&json, "sweep", "parallel_secs_4t"), Some(7.54));
        assert_eq!(extract(&json, "scheduler", "missing"), None);
        assert_eq!(extract(&json, "missing", "speedup"), None);
    }

    #[test]
    fn fields_after_a_nested_object_are_invisible() {
        // Documents the scoping rule the harness's emission order relies
        // on: anything after `by_threads` in the sweep section cannot be
        // extracted (the scan stops at the first `}`).
        let json = bench_json(2.5, 0.08).replace(
            "\"sequential_secs\"",
            "\"by_threads2\": [ { \"threads\": 1 } ],\n    \"sequential_secs\"",
        );
        assert_eq!(extract(&json, "sweep", "sequential_secs"), None);
    }

    #[test]
    fn steady_metrics_pass() {
        let base = bench_json(2.5, 0.08);
        let fresh = bench_json(2.3, 0.10);
        let notes = run(&fresh, &base).unwrap();
        assert_eq!(notes.len(), 6);
    }

    #[test]
    fn snapshot_gate_requires_a_real_speedup() {
        let base = bench_json_full(2.5, 0.08, 9854.0, 7.54, 1.92);
        // A hit that is slower than a cold run fails outright.
        let err =
            run(&bench_json_full(2.5, 0.08, 9854.0, 7.54, 0.97), &base).unwrap_err();
        assert!(err.contains("snapshot.hit_speedup below floor"), "{err}");
        // 60% retention against the baseline's 1.92x → floor 1.15x.
        let err =
            run(&bench_json_full(2.5, 0.08, 9854.0, 7.54, 1.05), &base).unwrap_err();
        assert!(err.contains("snapshot.hit_speedup regressed"), "{err}");
        assert!(run(&bench_json_full(2.5, 0.08, 9854.0, 7.54, 1.30), &base).is_ok());
        // Missing baseline: skip with a note.
        let old_base = base.replace("\"snapshot\"", "\"snapx\"");
        let notes = run(&bench_json(2.5, 0.08), &old_base).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("snapshot.hit_speedup: no committed baseline")),
            "{notes:?}"
        );
    }

    #[test]
    fn collapsed_speedup_fails() {
        let base = bench_json(2.5, 0.08);
        let fresh = bench_json(1.0, 0.08);
        let err = run(&fresh, &base).unwrap_err();
        assert!(err.contains("scheduler.speedup regressed"), "{err}");
    }

    #[test]
    fn blown_overhead_fails_only_past_budget_and_slack() {
        let base = bench_json(2.5, 0.08);
        // 14% is within the 15% budget: never a failure.
        assert!(run(&bench_json(2.5, 0.14), &base).is_ok());
        // 17% is within baseline + 10 points (18%): still fine.
        assert!(run(&bench_json(2.5, 0.17), &base).is_ok());
        // 19% exceeds both: regression.
        let err = run(&bench_json(2.5, 0.19), &base).unwrap_err();
        assert!(err.contains("sentinel.overhead regressed"), "{err}");
    }

    #[test]
    fn halved_cycles_per_sec_fails() {
        let base = bench_json_perf(2.5, 0.08, 20_000.0, 3.0);
        // 60% of baseline: inside the 50% retention band.
        assert!(run(&bench_json_perf(2.5, 0.08, 12_000.0, 3.0), &base).is_ok());
        let err = run(&bench_json_perf(2.5, 0.08, 9_000.0, 3.0), &base).unwrap_err();
        assert!(err.contains("single_thread.cycles_per_sec regressed"), "{err}");
    }

    #[test]
    fn doubled_sweep_wall_clock_fails() {
        let base = bench_json_perf(2.5, 0.08, 20_000.0, 3.0);
        assert!(run(&bench_json_perf(2.5, 0.08, 20_000.0, 5.5), &base).is_ok());
        let err = run(&bench_json_perf(2.5, 0.08, 20_000.0, 6.5), &base).unwrap_err();
        assert!(err.contains("sweep.parallel_secs_4t regressed"), "{err}");
    }

    #[test]
    fn undersubscribed_runner_skips_the_sweep_wall_clock() {
        let base = bench_json_perf(2.5, 0.08, 20_000.0, 3.0);
        // A doubled-and-then-some wall-clock would fail the gate — but not
        // when the fresh file was measured on a 1-core box.
        let fresh = bench_json_perf(2.5, 0.08, 20_000.0, 9.0)
            .replace("\"machine_threads\": 8", "\"machine_threads\": 1");
        let notes = run(&fresh, &base).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("undersubscribed, skipped")),
            "{notes:?}"
        );
        // An undersubscribed *baseline* is just as meaningless a reference.
        let narrow_base = base.replace("\"machine_threads\": 8", "\"machine_threads\": 2");
        let slow_fresh = bench_json_perf(2.5, 0.08, 20_000.0, 9.0);
        assert!(run(&slow_fresh, &narrow_base).is_ok());
        // Files predating the field still gate: the old schema means the
        // old behaviour.
        let old_base = base.replace("    \"machine_threads\": 8,\n", "");
        let old_fresh = bench_json_perf(2.5, 0.08, 20_000.0, 9.0)
            .replace("    \"machine_threads\": 8,\n", "");
        let err = run(&old_fresh, &old_base).unwrap_err();
        assert!(err.contains("sweep.parallel_secs_4t regressed"), "{err}");
    }

    #[test]
    fn improvement_ratio_is_reported() {
        let base = bench_json_perf(2.5, 0.08, 10_000.0, 6.0);
        let fresh = bench_json_perf(2.5, 0.08, 20_000.0, 3.0);
        let notes = run(&fresh, &base).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("2.00x")),
            "cycles/sec ratio should be quoted: {notes:?}"
        );
        assert!(
            notes.iter().any(|n| n.contains("vs committed sequential baseline")),
            "{notes:?}"
        );
    }

    #[test]
    fn missing_fresh_metric_fails_missing_baseline_skips() {
        let with = bench_json(2.5, 0.08);
        let without_scheduler = with.replace("\"scheduler\"", "\"schedx\"");
        assert!(run(&without_scheduler, &with).is_err());
        let notes = run(&with, &without_scheduler).unwrap();
        assert!(notes.iter().any(|n| n.contains("skipped")), "{notes:?}");
    }
}
