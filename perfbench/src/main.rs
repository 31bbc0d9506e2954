//! The repository's benchmark: the paper's figure sweep and the online
//! admission service, measured end to end (`--trace 0`) and layer by layer
//! (`--trace 1`). See `perfbench/README.md` for every metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|admit-fresh|admit-steady --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is a
//! report with the host fingerprint and every workload-specific figure by
//! name. A failed correctness gate exits with code 1 and prints no result.

mod admit;
mod host;
mod report;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;

use report::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = admit::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds takes 1..=600".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["sweep", "admit-fresh", "admit-steady"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (sweep, admit-fresh, admit-steady)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("sweep", false) => sweep::run(args),
        ("sweep", true) => trace::sweep(args),
        (_, false) => admit::run(args),
        (_, true) => trace::admission(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks = host::cpu_ticks();
    match run(&args) {
        Ok(mut outcome) => {
            outcome.note("harness.steal_frac", host::steal_frac(ticks), "ratio");
            outcome.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: correctness gate FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse("--workload sweep --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(args.workload, "sweep");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload sweep --trace 2").is_err());
    }
}
