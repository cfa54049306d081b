//! Command-line entry of the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload planaria-mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints the report document (envelope, metrics, fingerprints, checks)
//! as one JSON line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}` last. Exits non-zero
//! when an output check failed or the result does not validate.

use std::process::ExitCode;

use planaria_perfbench::report::{catalogue, result_line, validate_result, Envelope};
use planaria_perfbench::workload::{Scale, Workload};
use planaria_perfbench::{document, run, scratch_dir, RunArgs};

const USAGE: &str = "usage: planaria-perfbench --workload planaria-mix|bop-replay|serve-fleet \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 30.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let scratch = scratch_dir().map_err(|e| format!("cannot create the scratch directory: {e}"))?;
    Ok(RunArgs { workload, seed, seconds, traced, scale: Scale::FULL, scratch })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("planaria-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("planaria-perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!("{}", document(&args, &outcome, &Envelope::current(args.seed)));
    let cat = catalogue(args.traced);
    let line = result_line(&outcome.checks, cat, &outcome.metrics);
    let verdict = validate_result(&line, cat);
    println!("{line}");
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("planaria-perfbench: result rejected: {e}");
            for failure in outcome.checks.failures() {
                eprintln!("  {failure}");
            }
            ExitCode::FAILURE
        }
    }
}
