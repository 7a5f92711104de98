//! The warm-start snapshot cache trades time, never results: a cache hit
//! must reproduce the cold-start report exactly, the cold run must leave
//! exactly one snapshot behind, and the hit must read that snapshot
//! without rewriting it.

use footprint_core::{RoutingSpec, RunOptions, SimulationBuilder, SweepOptions};

const RATES: [f64; 4] = [0.04, 0.08, 0.12, 0.16];

fn snapshots(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .expect("cache dir created by the cold run")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect()
}

/// A warm-start hit replays the cached post-warmup state and must produce
/// the exact report the cold run produced.
#[test]
fn snapshot_cache_hit_reproduces_cold_start_exactly() {
    let dir = std::env::temp_dir().join(format!("footprint-snapcache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        SimulationBuilder::mesh(4)
            .vcs(4)
            .warmup(200)
            .measurement(400)
            .drain(1_000)
            .injection_rate(0.12)
            .seed(41)
            .routing(RoutingSpec::Footprint)
            // Pinned off: the cache is (deliberately) ineligible under the
            // sentinel, and this test must store/hit even on the
            // FOOTPRINT_SENTINEL=1 CI leg.
            .run_with(
                RunOptions::new()
                    .watchdog(20_000)
                    .sentinel(false)
                    .snapshot_cache(&dir),
            )
            .expect("run")
    };
    let cold = run();
    let stored = snapshots(&dir);
    assert_eq!(
        stored.len(),
        1,
        "the cold run must store exactly one snapshot: {stored:?}"
    );
    let mtime = |p: &std::path::Path| {
        std::fs::metadata(p)
            .and_then(|m| m.modified())
            .expect("snapshot mtime")
    };
    let before = mtime(&stored[0]);
    let warm = run();
    assert_eq!(
        mtime(&stored[0]),
        before,
        "the warm run rewrote the snapshot instead of hitting it"
    );
    assert_eq!(
        format!("{cold:?}"),
        format!("{warm:?}"),
        "snapshot-cache hit diverged from the cold-start report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache key includes the injection rate and seed, so sibling sweep
/// points never collide: a four-point sweep with a shared cache directory
/// stays bit-identical to the uncached sequential sweep on both the cold
/// (store) and warm (hit) passes, sequentially and on a worker pool.
#[test]
fn sweep_with_shared_cache_stays_bit_identical() {
    let base = || {
        SimulationBuilder::mesh(4)
            .vcs(4)
            .warmup(150)
            .measurement(300)
            .drain(1_000)
            .seed(53)
            .routing(RoutingSpec::Footprint)
    };
    let reference = base()
        .sweep_with(&RATES, SweepOptions::new().threads(1))
        .expect("reference sweep");
    for threads in [1, 2] {
        let dir = std::env::temp_dir().join(format!(
            "footprint-snapcache-sweep-{}-{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for pass in ["cold", "warm"] {
            // Sentinel pinned off so the cache path runs even on the
            // FOOTPRINT_SENTINEL=1 CI leg.
            let curve = base()
                .sweep_with(
                    &RATES,
                    SweepOptions::new()
                        .threads(threads)
                        .sentinel(false)
                        .snapshot_cache(&dir),
                )
                .expect("cached sweep");
            assert_eq!(
                format!("{reference:?}"),
                format!("{curve:?}"),
                "{pass} cached sweep on {threads} worker(s) diverged from the uncached sequential sweep"
            );
        }
        assert_eq!(
            snapshots(&dir).len(),
            RATES.len(),
            "one snapshot per sweep point"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
