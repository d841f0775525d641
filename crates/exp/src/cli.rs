//! The `xbar` command-line driver: one binary, every experiment.
//!
//! * `xbar list` — all registered experiments;
//! * `xbar describe <exp>` — description plus auto-generated flag help;
//! * `xbar run <exp> [flags]` — run through the typed [`Experiment`] API,
//!   with `--json` printing the canonical artifact and `--out DIR`
//!   writing it to disk;
//! * `xbar mc shard|coordinate|launch` — the sharded Monte Carlo entry
//!   points;
//! * `xbar serve` / `xbar submit` — the yield-oracle daemon and its
//!   client (see [`crate::service`]).
//!
//! All parsing is `Result`-based: usage problems print the relevant help
//! to stderr and exit with code **2**, runtime failures exit with **1** —
//! never a panic/backtrace.

use crate::experiment::{find_experiment, registry, ExpError, Experiment, Params, Reporter};
use crate::shard;
use std::fmt;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Common experiment parameters (the pre-registry surface, kept as the
/// bridge type experiment library code receives via
/// [`Params::exp_args`]; flags are parsed only by [`Params`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Monte Carlo sample count (paper default: 200).
    pub samples: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Per-crosspoint defect probability (paper default: 0.10).
    pub defect_rate: f64,
    /// Defect sampling stream version (`--rng-stream`, default V1).
    pub stream: xbar_core::SampleStream,
    /// Spatial defect model (`--defect-model` family, default i.i.d.).
    pub model: xbar_core::DefectModelSpec,
    /// Optional CSV output path.
    pub csv: Option<PathBuf>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Params::defaults(&[]).exp_args()
    }
}

const TOP_USAGE: &str = "xbar — unified driver for every experiment in the \
Tunali & Altun (DATE 2018) reproduction

usage:
  xbar list                      list registered experiments
  xbar describe <experiment>     one experiment's description and flags
  xbar run <experiment> [flags]  run an experiment
  xbar mc shard [flags]          run one shard of a sharded MC campaign
  xbar mc coordinate [flags]     coordinate worker processes and merge
  xbar mc launch [flags]         dispatch shards across a fleet of hosts
  xbar serve [flags]             queued, cache-fronted experiment daemon
  xbar submit <experiment> [...] submit to a running daemon

common run flags (see `xbar describe <experiment>` for per-experiment ones):
  --samples N --seed N --defect-rate F --quick --json --out DIR --csv PATH

exit codes: 0 success, 1 runtime failure, 2 usage error";

/// Set by the first write to stdout that fails: `true` when its reader
/// went away, `false` for any other error. Later writes are dropped.
static STDOUT_LOST: OnceLock<bool> = OnceLock::new();

/// Writes `text` to stdout. Everything the CLI prints for its reader goes
/// through here (through [`out!`] and [`outln!`]) with two exceptions:
/// the partial that `xbar mc shard` streams, whose launcher must see a
/// failed stream, and `xbar serve`'s status lines, which must not stop the
/// daemon. Once a write fails, this and every later write are
/// dropped, so the command still does its work, writes its files and
/// exits with its own code. A reader that has gone away, as in
/// `xbar list | head -1`, leaves stderr quiet and that code alone; any
/// other write error is reported once and makes [`run_cli`] exit 1.
pub(crate) fn write_stdout(text: fmt::Arguments<'_>) {
    if STDOUT_LOST.get().is_some() {
        return;
    }
    let mut stdout = io::stdout().lock();
    if let Err(e) = stdout.write_fmt(text).and_then(|()| stdout.flush()) {
        let reader_gone = e.kind() == io::ErrorKind::BrokenPipe;
        if STDOUT_LOST.set(reader_gone).is_ok() && !reader_gone {
            eprintln!("xbar: cannot write to stdout: {e}");
        }
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

pub(crate) use {out, outln};

/// Runs the `xbar` CLI on an argument stream (program name already
/// stripped); returns the process exit code.
pub fn run_cli(args: impl IntoIterator<Item = String>) -> i32 {
    let code = dispatch(args.into_iter());
    if code == 0 && STDOUT_LOST.get() == Some(&false) {
        1
    } else {
        code
    }
}

fn dispatch(mut args: impl Iterator<Item = String>) -> i32 {
    let Some(command) = args.next() else {
        eprintln!("{TOP_USAGE}");
        return 2;
    };
    match command.as_str() {
        "list" => {
            list_experiments();
            0
        }
        "describe" => match args.next() {
            Some(name) => describe_experiment(&name),
            None => {
                eprintln!("xbar describe: which experiment? (see `xbar list`)");
                2
            }
        },
        "run" => match args.next() {
            Some(name) => run_experiment(&name, args.collect()),
            None => {
                eprintln!("xbar run: which experiment? (see `xbar list`)");
                2
            }
        },
        "mc" => match args.next().as_deref() {
            Some("shard") => shard::cli::shard_main(args.collect()),
            Some("coordinate") => shard::cli::coordinate_main(args.collect()),
            Some("launch") => crate::launch::cli::launch_main(args.collect()),
            Some(other) => {
                eprintln!("xbar mc: unknown subcommand {other:?} (shard | coordinate | launch)");
                2
            }
            None => {
                eprintln!("xbar mc: which subcommand? (shard | coordinate | launch)");
                2
            }
        },
        "serve" => crate::service::serve_main(args.collect()),
        "submit" => crate::service::submit_main(args.collect()),
        "--help" | "-h" | "help" => {
            outln!("{TOP_USAGE}");
            0
        }
        other => {
            eprintln!("xbar: unknown command {other:?}\n\n{TOP_USAGE}");
            2
        }
    }
}

/// Runs one CLI verb under the driver's exit-code contract: `--help`
/// prints `usage` and exits 0, a parse error prints it with the error and
/// exits 2; then `body` runs, and its [`ExpError::Usage`] exits 2 and
/// [`ExpError::Failed`] exits 1, each printed after the verb's name.
pub(crate) fn run_verb<A>(
    verb: &str,
    usage: impl Fn() -> String,
    parsed: Result<Option<A>, String>,
    body: impl FnOnce(A) -> Result<(), ExpError>,
) -> i32 {
    let args = match parsed {
        Ok(Some(args)) => args,
        Ok(None) => {
            outln!("{}", usage());
            return 0;
        }
        Err(e) => {
            eprintln!("{verb}: {e}\n\n{}", usage());
            return 2;
        }
    };
    match body(args) {
        Ok(()) => 0,
        Err(ExpError::Usage(e)) => {
            eprintln!("{verb}: {e}");
            2
        }
        Err(ExpError::Failed(e)) => {
            eprintln!("{verb}: {e}");
            1
        }
    }
}

fn list_experiments() {
    let width = registry().iter().map(|e| e.name().len()).max().unwrap_or(0);
    for exp in registry() {
        outln!("{:<width$}  {}", exp.name(), exp.description());
    }
}

fn describe_experiment(name: &str) -> i32 {
    match find_experiment(name) {
        Some(exp) => {
            outln!("{}", experiment_usage(exp));
            0
        }
        None => {
            eprintln!("xbar: unknown experiment {name:?} (see `xbar list`)");
            2
        }
    }
}

fn experiment_usage(exp: &dyn Experiment) -> String {
    Params::usage(exp.name(), exp.description(), exp.extra_params())
}

fn run_experiment(name: &str, rest: Vec<String>) -> i32 {
    let Some(exp) = find_experiment(name) else {
        eprintln!("xbar: unknown experiment {name:?} (see `xbar list`)");
        return 2;
    };
    let parsed = if rest.iter().any(|a| a == "--help" || a == "-h") {
        Ok(None)
    } else {
        Params::parse(exp.extra_params(), rest)
            .map(Some)
            .map_err(String::from)
    };
    let usage = || experiment_usage(exp);
    run_verb(&format!("xbar run {name}"), usage, parsed, |params| {
        let mut reporter = if params.json {
            Reporter::quiet()
        } else {
            Reporter::stdout()
        };
        // A bad parameter value found while running is a usage error like
        // a bad flag: it is reported with the usage text.
        let artifact = exp.run(&params, &mut reporter).map_err(|e| match e {
            ExpError::Usage(msg) => ExpError::Usage(format!("{msg}\n\n{}", usage())),
            failed @ ExpError::Failed(_) => failed,
        })?;
        let document = artifact.render(exp, &params);
        if params.json {
            out!("{document}");
        }
        if let Some(dir) = &params.out {
            let failed = |what: &str, path: &std::path::Path, e: std::io::Error| {
                ExpError::Failed(format!("cannot {what} {}: {e}", path.display()))
            };
            std::fs::create_dir_all(dir).map_err(|e| failed("create", dir, e))?;
            let path = dir.join(format!("{name}.json"));
            // Atomic so a crash mid-write never leaves a torn artifact
            // where a previous good one stood.
            crate::atomic::write_atomic(&path, document.as_bytes())
                .map_err(|e| failed("write", &path, e))?;
            if !params.json {
                outln!("wrote artifact to {}", path.display());
            }
        }
        Ok(())
    })
}
