//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --xbar PATH`
//!
//! Runs one workload against the `xbar` binary at PATH, prints a
//! human-readable report and, as the last line of stdout, the result
//! object. Normally started through `perfbench/run.sh`, which builds the
//! product and this binary first.

use perfbench::metrics::result_line;
use perfbench::product::Ctx;
use perfbench::{campaign, oracle, table2_full, Outcome, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --xbar PATH";

/// State and trace output live here, relative to the checkout root.
const WORK_ROOT: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    xbar: PathBuf,
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut it = argv.into_iter();
    let (mut workload, mut seed, mut seconds, mut traced, mut xbar) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("positive seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--xbar" => xbar = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
        xbar: xbar.ok_or("--xbar is required")?,
    })
}

fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    if !args.xbar.is_file() {
        return Err(format!("no product binary at {}", args.xbar.display()));
    }
    let root = PathBuf::from(WORK_ROOT);
    let ctx = Ctx {
        xbar: std::fs::canonicalize(&args.xbar).map_err(|e| e.to_string())?,
        state: std::path::absolute(root.join("state").join(&args.workload))
            .map_err(|e| e.to_string())?,
        trace_file: root
            .join("traces")
            .join(format!("{}.spans.csv", args.workload)),
        seed: args.seed,
        seconds: args.seconds,
    };
    // Every run starts from empty state, so no product cache is warm.
    let _ = std::fs::remove_dir_all(&ctx.state);
    ctx.fresh_dir("tmp")?;
    let result = match (args.workload.as_str(), args.traced) {
        ("table2_full", false) => table2_full::run(&ctx, out),
        ("table2_full", true) => table2_full::run_traced(&ctx, out),
        ("campaign_sharded", false) => campaign::run(&ctx, out),
        ("campaign_sharded", true) => campaign::run_traced(&ctx, out),
        (_, traced) => oracle::run(&ctx, out, traced),
    };
    let _ = std::fs::remove_dir_all(&ctx.state);
    result
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let ran = run(&args, &mut out);
    for note in &out.notes {
        println!("  {note}");
    }
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let metrics = match std::mem::take(&mut out.metrics).finish(args.traced) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {} ({}): failed_ratio {}/{} = {}",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", result_line(out.attempted, out.failed, &metrics));
    ExitCode::SUCCESS
}
