//! Host-time benchmark of the gpu-denovo simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nosync_apps|global_sync|local_sync_regen> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run warms up on the first cells, then alternates a batch of
//! set-ups of the workload with a timed repeat of its cells until
//! `--seconds` is spent (at least two repeats), and reports means over
//! the set-ups and repeats. A host-speed probe runs between cells, and
//! the host times are scaled to the probe's reference speed (see
//! `calib`). Every cell's `SimStats` is checked against its repeats and
//! against the digest recorded in `reference.json`; a mismatch, a
//! verifier failure or a watchdog counts the attempt as failed. The last line of stdout is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`).

mod calib;
mod layers;
mod spans;
mod suite;

use gsim_core::{CheckLevel, SystemConfig};
use gsim_types::ProtocolConfig;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark measures the simulator with checking off; a debug
    // build (checking on) would measure something else.
    let check = SystemConfig::micro15(ProtocolConfig::Gd).check;
    if check != CheckLevel::Off {
        eprintln!("perfbench: micro15's check level is {check:?}, not Off; build with --release");
        return ExitCode::from(2);
    }
    let reference = suite::Reference::load();
    let Some(spec) = reference.workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; valid: {}",
            args.workload,
            reference.workload_names().join(", ")
        );
        return ExitCode::from(2);
    };

    // Result caches live beside the binary, in the (ignored) build
    // directory, and are removed before exit.
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from));
    let Some(exe_dir) = exe_dir else {
        eprintln!("perfbench: cannot locate the benchmark binary's directory");
        return ExitCode::FAILURE;
    };
    let work_dir = exe_dir.join(format!("perfbench-work-{}", std::process::id()));
    let run = suite::run(
        spec,
        &reference,
        &suite::RunOptions {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            work_dir: work_dir.clone(),
        },
    );
    let _ = std::fs::remove_dir_all(&work_dir);
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = run
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
