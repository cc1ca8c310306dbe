//! Seeded benchmark of LFO serving and retraining.
//!
//! ```text
//! cargo run --release --manifest-path lfobench/Cargo.toml -- \
//!     --workload serve-standard --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. A traced run also writes its spans to
//! `lfobench/out/`. See README.md.

mod checks;
mod report;
mod retrain;
mod serve;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{result_json, END_TO_END, PER_LAYER};
use spans::Spans;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lfobench: {e}");
            eprintln!(
                "usage: lfobench --workload <serve-standard|serve-huge-catalog|retrain> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let run_id = format!("{name}-seed{}", args.seed);
    let mut spans = Spans::new(args.trace, run_id.clone());
    let outcome = match args.workload {
        Workload::ServeStandard | Workload::ServeHugeCatalog => {
            serve::run(args.workload, args.seed, args.seconds, &mut spans, start)
        }
        Workload::Retrain => retrain::run(args.seed, args.seconds, &mut spans, start),
    };

    println!(
        "workload {name}, seed {}, {} operations, {} failed",
        args.seed, outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    for violation in &outcome.bound_violations {
        println!("KNOWN FAULT: {violation}");
    }
    for m in &outcome.metrics {
        println!("  {:<26} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        println!("  span self times (count, total ms, self ms):");
        for (span, (count, total, own)) in spans.self_times() {
            println!(
                "    {span:<24} {count:>6} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{run_id}.jsonl"));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => {
                eprintln!("lfobench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_json(&outcome, wanted) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lfobench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args("--workload retrain --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Retrain);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload retrain")).is_err());
        assert!(parse_args(&args("--workload retrain --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload retrain --seed 1 --seconds 0")).is_err());
    }
}
