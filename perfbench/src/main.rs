//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one benchmark workload and prints its metrics, one per line with
//! the unit, then the result line (JSON) as the last line of standard
//! output. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a separate traced run. `--workload all` runs every
//! workload, each in its own process.

use footprint_perfbench::plan::Workload;
use footprint_perfbench::run::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <steady_low|steady_high|figure_sweep|warm_rerun|all> \
     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    // Snapshot caches and span logs go next to the build outputs.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let mut args = Args {
        workload: None,
        seed: footprint_perfbench::plan::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        out_dir: target.join("perfbench-runs"),
    };
    let mut workload_seen = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload_seen = true;
                args.workload = if value == "all" {
                    None
                } else {
                    Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                };
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds `{value}` (1 to 600)"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !workload_seen {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: creating {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        out_dir: args.out_dir,
    });
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.result.to_json());
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own (peak memory is per
/// process) with the same seed, duration and trace setting.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: locating own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: running {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
