//! The typed `Experiment` API: one trait, one static registry, one
//! canonical artifact schema — the single surface every figure/table
//! reproduction and every future workload sits behind (and what the
//! `xbar` CLI, the bench harness, and remote launchers drive).
//!
//! An experiment declares its name, description, and extra typed
//! parameters ([`ParamSpec`]) once; the CLI derives flag parsing and
//! `--help` from the declaration, and [`Experiment::run`] receives the
//! resolved [`Params`] plus a [`Reporter`] for human-facing narration.
//! The returned [`Artifact`] carries only **seed-deterministic** data
//! (wall-clock timings stay in the human report), rendered through the
//! raw-text-preserving writer in [`crate::shard::json`] so the same
//! campaign produces byte-identical artifacts on any host and across any
//! shard layout.

mod params;
mod registry;

pub(crate) use params::{flag_num, flag_value};
pub use params::{
    spec, ParamKind, ParamSpec, ParamValue, Params, UsageError, CLUSTER_SIZE_PARAM,
    DEFECT_MODEL_PARAM, DEFECT_MODEL_PARAMS, LINE_RATE_PARAM, RNG_STREAM_PARAM,
};
pub use registry::{find_experiment, registry};

use crate::shard::json::JsonValue;
use crate::table::Table;
use std::fmt;

/// Schema tag of every experiment artifact document.
pub const ARTIFACT_SCHEMA: &str = "xbar-artifact/1";

/// An experiment failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpError {
    /// Bad flags or parameter values — the driver prints usage and exits
    /// with code 2.
    Usage(String),
    /// The experiment ran and failed (I/O, invariant violation, …) — the
    /// driver exits with code 1.
    Failed(String),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Usage(msg) | ExpError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<UsageError> for ExpError {
    fn from(e: UsageError) -> Self {
        ExpError::Usage(e.0)
    }
}

/// One registered experiment: a paper table/figure family or an extension
/// study, runnable through [`Experiment::run`] with typed parameters.
pub trait Experiment: Sync {
    /// Registry name (also the `xbar run <name>` subcommand and the
    /// artifact's `experiment` field).
    fn name(&self) -> &'static str;

    /// One-line description shown by `xbar list` / `xbar describe`.
    fn description(&self) -> &'static str;

    /// Extra typed parameters beyond the common set (empty by default).
    fn extra_params(&self) -> &'static [ParamSpec] {
        &[]
    }

    /// Runs the experiment: human-facing output through `reporter`, the
    /// deterministic result as the returned [`Artifact`].
    ///
    /// # Errors
    ///
    /// [`ExpError::Usage`] for bad parameter values, [`ExpError::Failed`]
    /// for runtime failures.
    fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError>;
}

/// The deterministic result payload of one experiment run. Wrap the
/// experiment-specific data tree with [`Artifact::new`]; the framework
/// adds the schema envelope (`schema`, `experiment`, `params`).
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Experiment-specific payload (an insertion-ordered object).
    pub data: JsonValue,
}

impl Artifact {
    /// Wraps an experiment's data tree.
    #[must_use]
    pub fn new(data: JsonValue) -> Self {
        Self { data }
    }

    /// Renders the full canonical artifact document for `exp` run with
    /// `params`: schema tag, experiment name, the deterministic parameter
    /// echo, and the data payload, with a trailing newline (file-ready).
    #[must_use]
    pub fn render(&self, exp: &dyn Experiment, params: &Params) -> String {
        let doc = JsonValue::obj([
            ("schema", JsonValue::str(ARTIFACT_SCHEMA)),
            ("experiment", JsonValue::str(exp.name())),
            ("params", params.to_json(exp.extra_params())),
            ("data", self.data.clone()),
        ]);
        let mut text = doc.render();
        text.push('\n');
        text
    }
}

enum Sink {
    /// Print to stdout (interactive runs).
    Stdout,
    /// Drop human output (`--json` mode).
    Quiet,
    /// Capture into a buffer (tests).
    Buffer(String),
}

/// Where an experiment's human-facing narration goes. Artifact data never
/// passes through here — the reporter is presentation only, so `--json`
/// runs can drop it wholesale.
pub struct Reporter {
    sink: Sink,
}

impl fmt::Debug for Reporter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.sink {
            Sink::Stdout => "stdout",
            Sink::Quiet => "quiet",
            Sink::Buffer(_) => "buffer",
        };
        write!(f, "Reporter({kind})")
    }
}

impl Reporter {
    /// A reporter printing to stdout. Once a write fails, as when a reader
    /// has gone away, later lines are dropped, as for every line the
    /// `xbar` CLI prints.
    #[must_use]
    pub fn stdout() -> Self {
        Self { sink: Sink::Stdout }
    }

    /// A reporter that drops all human output (`--json` mode).
    #[must_use]
    pub fn quiet() -> Self {
        Self { sink: Sink::Quiet }
    }

    /// A reporter capturing output for assertions.
    #[must_use]
    pub fn buffer() -> Self {
        Self {
            sink: Sink::Buffer(String::new()),
        }
    }

    /// Emits one line of narration.
    pub fn line(&mut self, text: impl fmt::Display) {
        match &mut self.sink {
            Sink::Stdout => crate::cli::outln!("{text}"),
            Sink::Quiet => {}
            Sink::Buffer(buf) => {
                use fmt::Write as _;
                let _ = writeln!(buf, "{text}");
            }
        }
    }

    /// Emits a blank separator line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Emits an ASCII table.
    pub fn table(&mut self, table: &Table) {
        match &mut self.sink {
            Sink::Stdout => table.print(),
            Sink::Quiet => {}
            Sink::Buffer(buf) => buf.push_str(&table.to_ascii()),
        }
    }

    /// The captured output of a [`Reporter::buffer`] reporter (`None` for
    /// the other sinks).
    #[must_use]
    pub fn buffered(&self) -> Option<&str> {
        match &self.sink {
            Sink::Buffer(buf) => Some(buf),
            _ => None,
        }
    }
}

/// Writes the experiment's primary table as CSV when `--csv PATH` was
/// given, reporting the path through the reporter.
///
/// # Errors
///
/// Fails with [`ExpError::Failed`] when the file cannot be written.
pub fn write_csv_if_requested(
    params: &Params,
    reporter: &mut Reporter,
    table: &Table,
) -> Result<(), ExpError> {
    if let Some(path) = &params.csv {
        table
            .write_csv(path)
            .map_err(|e| ExpError::Failed(format!("cannot write CSV {}: {e}", path.display())))?;
        reporter.line(format!("wrote CSV to {}", path.display()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Demo;

    impl Experiment for Demo {
        fn name(&self) -> &'static str {
            "demo"
        }

        fn description(&self) -> &'static str {
            "demo experiment"
        }

        fn run(&self, params: &Params, reporter: &mut Reporter) -> Result<Artifact, ExpError> {
            reporter.line("running");
            Ok(Artifact::new(JsonValue::obj([(
                "seed",
                JsonValue::u64(params.seed),
            )])))
        }
    }

    #[test]
    fn artifact_envelope_has_schema_name_params_data() {
        let params = Params::defaults(&[]);
        let mut reporter = Reporter::buffer();
        let artifact = Demo.run(&params, &mut reporter).expect("runs");
        let text = artifact.render(&Demo, &params);
        assert!(text.ends_with('\n'));
        let doc = crate::shard::json::Json::parse(&text).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(ARTIFACT_SCHEMA)
        );
        assert_eq!(doc.get("experiment").and_then(|v| v.as_str()), Some("demo"));
        assert_eq!(
            doc.get("params")
                .and_then(|p| p.get("seed"))
                .and_then(|v| v.as_u64()),
            Some(2018)
        );
        assert_eq!(
            doc.get("data")
                .and_then(|d| d.get("seed"))
                .and_then(|v| v.as_u64()),
            Some(2018)
        );
        assert_eq!(reporter.buffered(), Some("running\n"));
    }

    #[test]
    fn quiet_reporter_drops_output() {
        let mut reporter = Reporter::quiet();
        reporter.line("x");
        reporter.table(&Table::new("t", &["a"]));
        assert_eq!(reporter.buffered(), None);
    }
}
