//! The repository benchmark: three single-threaded, closed-loop workloads
//! over the ot-ged workspace. See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload <serve_mixed|pivot_search|batch_estimate>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it runs the workload's traced passes and reports the
//! per-layer metrics. Either way it checks every answer, prints one
//! context line, and ends with the result line
//! `{"correct", "attempted", "failed", "metrics"}`.

mod batch_estimate;
mod context;
mod layers;
mod pivot_search;
mod report;
mod serve_mixed;
mod trace;

use report::{context_line, result_line, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

/// Run parameters shared by every workload.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
}

/// Where runs leave their spans and scratch files (ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("create perfbench/out");
    dir
}

const USAGE: &str = "usage: perfbench --workload <serve_mixed|pivot_search|batch_estimate> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Params, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok((workload, Params { seed, seconds }, trace))
}

fn main() -> ExitCode {
    let (workload, params, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calibration_before = context::calibrate_ms();
    let mut result: RunResult = match (workload.as_str(), traced) {
        ("serve_mixed", false) => serve_mixed::run(&params),
        ("serve_mixed", true) => serve_mixed::run_traced(&params),
        ("pivot_search", false) => pivot_search::run(&params),
        ("pivot_search", true) => pivot_search::run_traced(&params),
        ("batch_estimate", false) => batch_estimate::run(&params),
        ("batch_estimate", true) => batch_estimate::run_traced(&params),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calibration_after = context::calibrate_ms();

    let mut ctx = vec![
        ("workload".to_string(), workload),
        ("seed".to_string(), params.seed.to_string()),
        ("trace".to_string(), traced.to_string()),
    ];
    ctx.extend(context::fingerprint());
    ctx.push((
        "calibration_ms".to_string(),
        format!("{calibration_before:.3} before, {calibration_after:.3} after"),
    ));
    ctx.append(&mut result.context);
    for (what, ok) in &result.checks {
        ctx.push((
            format!("check: {what}"),
            if *ok { "pass" } else { "FAIL" }.to_string(),
        ));
    }
    println!("{}", context_line(&ctx));
    println!("{}", result_line(&result));
    ExitCode::SUCCESS
}
