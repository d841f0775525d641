//! The typed parameter layer of the [`Experiment`](super::Experiment)
//! API: every experiment declares its extra flags **once** as
//! [`ParamSpec`]s and the CLI derives parsing, `--help` text, and the
//! artifact's `params` echo from the same declaration — no per-binary
//! flag loops. The `xbar mc` verbs describe a Table II campaign with the
//! same layer ([`Params::consume`]), so a campaign means the same thing
//! whichever verb runs it.
//!
//! Parsing is `Result`-returning throughout: a malformed flag produces a
//! [`UsageError`] the driver turns into usage text and exit code 2, never
//! a panic/backtrace.

use crate::shard::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use xbar_core::{DefectModelKind, DefectModelSpec, SampleStream};

/// A flag-parsing/usage error. The CLI driver prints it with the
/// experiment's usage text and exits with code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

impl From<UsageError> for String {
    fn from(e: UsageError) -> Self {
        e.0
    }
}

/// Convenience constructor used by parsing code.
pub(crate) fn usage_err(message: impl Into<String>) -> UsageError {
    UsageError(message.into())
}

/// The value type of one experiment parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// An unsigned count (`usize`).
    USize,
    /// A 64-bit seed-like integer.
    U64,
    /// A floating-point value.
    F64,
    /// A boolean switch (present = true, takes no value).
    Flag,
    /// A free-form string.
    Str,
    /// A comma-separated list of strings.
    StrList,
    /// A closed choice: the value must be one of the listed literals
    /// (stored and echoed as a string).
    Enum(&'static [&'static str]),
}

impl ParamKind {
    fn value_hint(self) -> String {
        match self {
            ParamKind::USize | ParamKind::U64 => "N".to_owned(),
            ParamKind::F64 => "F".to_owned(),
            ParamKind::Flag => String::new(),
            ParamKind::Str => "S".to_owned(),
            ParamKind::StrList => "a,b".to_owned(),
            ParamKind::Enum(choices) => choices.join("|"),
        }
    }
}

/// A resolved parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// An unsigned count.
    USize(usize),
    /// A 64-bit integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A switch.
    Flag(bool),
    /// A string.
    Str(String),
    /// A string list.
    StrList(Vec<String>),
}

impl ParamValue {
    fn to_json(&self) -> JsonValue {
        match self {
            ParamValue::USize(v) => JsonValue::usize(*v),
            ParamValue::U64(v) => JsonValue::u64(*v),
            ParamValue::F64(v) => JsonValue::f64(*v),
            ParamValue::Flag(v) => JsonValue::Bool(*v),
            ParamValue::Str(v) => JsonValue::str(v.clone()),
            ParamValue::StrList(v) => JsonValue::arr(v.iter().map(|s| JsonValue::str(s.clone()))),
        }
    }
}

/// The declaration of one extra experiment parameter: flag name (without
/// the leading `--`), type, textual default, and help line. This single
/// declaration drives parsing, `--help`, and the artifact echo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Flag name without the leading `--` (e.g. `"spare-rows"`).
    pub name: &'static str,
    /// Value type.
    pub kind: ParamKind,
    /// Textual default, parsed by [`Params::defaults`] (e.g. `"0"`,
    /// `"rd53"`, `"false"` for flags).
    pub default: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

/// Const constructor for registry tables.
#[must_use]
pub const fn spec(
    name: &'static str,
    kind: ParamKind,
    default: &'static str,
    help: &'static str,
) -> ParamSpec {
    ParamSpec {
        name,
        kind,
        default,
        help,
    }
}

impl ParamSpec {
    fn parse_value(&self, text: &str) -> Result<ParamValue, UsageError> {
        let bad = |kind: &str| usage_err(format!("--{}: expected {kind}, got {text:?}", self.name));
        Ok(match self.kind {
            ParamKind::USize => {
                ParamValue::USize(text.parse().map_err(|_| bad("an unsigned integer"))?)
            }
            ParamKind::U64 => ParamValue::U64(text.parse().map_err(|_| bad("a u64"))?),
            ParamKind::F64 => {
                let v: f64 = text.parse().map_err(|_| bad("a number"))?;
                if !v.is_finite() {
                    return Err(bad("a finite number"));
                }
                ParamValue::F64(v)
            }
            ParamKind::Flag => ParamValue::Flag(text.parse().map_err(|_| bad("true or false"))?),
            ParamKind::Str => ParamValue::Str(text.to_owned()),
            ParamKind::StrList => {
                if text.is_empty() {
                    return Err(bad("a non-empty comma-separated list"));
                }
                ParamValue::StrList(text.split(',').map(str::to_owned).collect())
            }
            ParamKind::Enum(choices) => {
                if !choices.contains(&text) {
                    return Err(bad(&format!("one of {}", choices.join(", "))));
                }
                ParamValue::Str(text.to_owned())
            }
        })
    }
}

/// The shared `--rng-stream` declaration: every experiment that samples
/// defects adds this spec, so campaigns pick the sampling stream version
/// with one flag and the artifact `params` block echoes it
/// deterministically. The default is `v1`, the frozen dense stream —
/// existing invocations keep their bytes.
pub const RNG_STREAM_PARAM: ParamSpec = spec(
    "rng-stream",
    ParamKind::Enum(&["v1", "v2"]),
    "v1",
    "defect sampling stream: v1 = frozen dense sweep, v2 = geometric skip",
);

/// The shared `--defect-model` declaration: which spatial defect model
/// the campaign draws. Defaults to `iid` (the paper's Table II model) and
/// is echoed in artifacts **only when non-default**, so every pre-model
/// artifact stays byte-frozen.
pub const DEFECT_MODEL_PARAM: ParamSpec = spec(
    "defect-model",
    ParamKind::Enum(&["iid", "clustered", "lines", "composite"]),
    "iid",
    "spatial defect model: iid cells, clustered runs, broken lines, or lines over clusters",
);

/// The shared `--cluster-size` declaration (mean defect-run length for
/// the `clustered`/`composite` models). Echoed only when non-default.
pub const CLUSTER_SIZE_PARAM: ParamSpec = spec(
    "cluster-size",
    ParamKind::F64,
    "4",
    "mean defect-cluster size for clustered/composite models (>= 1)",
);

/// The shared `--line-rate` declaration (per-line break probability for
/// the `lines`/`composite` models). Echoed only when non-default.
pub const LINE_RATE_PARAM: ParamSpec = spec(
    "line-rate",
    ParamKind::F64,
    "0.02",
    "broken wordline/bitline probability for lines/composite models",
);

/// The full defect-model declaration set, appended by every sampling
/// experiment after [`RNG_STREAM_PARAM`].
pub const DEFECT_MODEL_PARAMS: [ParamSpec; 3] =
    [DEFECT_MODEL_PARAM, CLUSTER_SIZE_PARAM, LINE_RATE_PARAM];

/// Extras echoed in artifact `params` **only when non-default**: the
/// defect-model family postdates the frozen artifact pins, so the echo
/// must not disturb existing documents when the campaign never opted in.
const OMIT_DEFAULT_ECHO: [&str; 3] = [
    DEFECT_MODEL_PARAM.name,
    CLUSTER_SIZE_PARAM.name,
    LINE_RATE_PARAM.name,
];

/// The parameters every experiment shares that change what it computes
/// (the old `ExpArgs` surface): echoed in every artifact's `params` block
/// and accepted by [`Params::consume`], so by the `xbar mc` verbs too.
pub(crate) const SHARED_PARAMS: &[ParamSpec] = &[
    spec(
        "samples",
        ParamKind::USize,
        "200",
        "Monte Carlo samples (ignored by deterministic experiments)",
    ),
    spec("seed", ParamKind::U64, "2018", "experiment seed"),
    spec(
        "defect-rate",
        ParamKind::F64,
        "0.10",
        "per-crosspoint defect probability",
    ),
];

/// `xbar run`'s own flags on top of [`SHARED_PARAMS`]: smoke mode and
/// output routing, none of which reaches the artifact.
pub(crate) const RUN_PARAMS: &[ParamSpec] = &[
    spec(
        "quick",
        ParamKind::Flag,
        "false",
        "smoke run: samples/10 (at least 10), applied after --samples",
    ),
    spec(
        "json",
        ParamKind::Flag,
        "false",
        "suppress human output; print the canonical artifact JSON to stdout",
    ),
    spec(
        "out",
        ParamKind::Str,
        "",
        "directory to write the artifact to as <experiment>.json",
    ),
    spec(
        "csv",
        ParamKind::Str,
        "",
        "also write the primary table as CSV",
    ),
];

/// Fully-resolved experiment parameters: the common set as typed fields,
/// per-experiment extras behind the [`Params::usize`]-family accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Monte Carlo sample count (already divided when `quick` is set).
    pub samples: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Per-crosspoint defect probability.
    pub defect_rate: f64,
    /// Smoke-run mode (`--quick`).
    pub quick: bool,
    /// Artifact-to-stdout mode (`--json`).
    pub json: bool,
    /// Artifact output directory (`--out DIR`).
    pub out: Option<PathBuf>,
    /// CSV output path for the primary table (`--csv PATH`).
    pub csv: Option<PathBuf>,
    extras: BTreeMap<&'static str, ParamValue>,
}

impl Params {
    /// Defaults for the common set plus the given extra specs.
    ///
    /// # Panics
    ///
    /// Panics when a spec's textual default does not parse as its own
    /// kind — a registry bug, pinned by the completeness test.
    #[must_use]
    pub fn defaults(extra: &[ParamSpec]) -> Self {
        let extras = extra
            .iter()
            .map(|s| {
                let value = s
                    .parse_value(s.default)
                    .unwrap_or_else(|e| panic!("bad default for --{}: {e}", s.name));
                (s.name, value)
            })
            .collect();
        Self {
            samples: 200,
            seed: 2018,
            defect_rate: 0.10,
            quick: false,
            json: false,
            out: None,
            csv: None,
            extras,
        }
    }

    /// Parses a flag stream against the shared flags (`--samples --seed
    /// --defect-rate`), `xbar run`'s own (`--quick --json --out --csv`) and
    /// `extra`. `--quick` is applied **after** all flags
    /// (order-independent): `samples = (samples / 10).max(10)`.
    ///
    /// # Errors
    ///
    /// Returns a [`UsageError`] on an unknown flag, a missing value, or a
    /// malformed value — never panics.
    pub fn parse(
        extra: &[ParamSpec],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, UsageError> {
        let mut out = Self::defaults(extra);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if out.consume(extra, &flag, &mut it)? {
                continue;
            }
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| usage_err(format!("expected a --flag, got {flag:?}")))?;
            let mut path = || flag_value(&flag, &mut it).map(PathBuf::from);
            match name {
                "quick" => out.quick = true,
                "json" => out.json = true,
                "out" => out.out = Some(path()?),
                "csv" => out.csv = Some(path()?),
                other => return Err(usage_err(format!("unknown flag --{other}"))),
            }
        }
        out.finish()
    }

    /// Tries to consume one flag that changes what the experiment computes
    /// — one of [`SHARED_PARAMS`] or `extra` — plus its value from `it`;
    /// `Ok(false)` when `flag` is none of them, so a caller with flags of
    /// its own (the `xbar mc` verbs) can interleave them. Finish the
    /// stream with [`Params::finish`].
    ///
    /// # Errors
    ///
    /// Reports a missing or malformed value, or one out of its range.
    pub(crate) fn consume(
        &mut self,
        extra: &[ParamSpec],
        flag: &str,
        it: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, UsageError> {
        let Some(name) = flag.strip_prefix("--") else {
            return Ok(false);
        };
        match name {
            "samples" => self.samples = flag_num(flag, &flag_value(flag, it)?)?,
            "seed" => self.seed = flag_num(flag, &flag_value(flag, it)?)?,
            "defect-rate" => {
                let v: f64 = flag_num(flag, &flag_value(flag, it)?)?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(usage_err("--defect-rate must be a probability in [0, 1]"));
                }
                self.defect_rate = v;
            }
            other => {
                let Some(spec) = extra.iter().find(|s| s.name == other) else {
                    return Ok(false);
                };
                let value = if spec.kind == ParamKind::Flag {
                    ParamValue::Flag(true)
                } else {
                    spec.parse_value(&flag_value(flag, it)?)?
                };
                self.extras.insert(spec.name, value);
            }
        }
        Ok(true)
    }

    /// Completes a flag stream: applies `--quick` **after** all flags
    /// (order-independent, `samples = (samples / 10).max(10)`), then the
    /// checks that span flags.
    ///
    /// # Errors
    ///
    /// Rejects a zero sample count and out-of-range defect-model params.
    pub(crate) fn finish(mut self) -> Result<Self, UsageError> {
        if self.quick {
            self.samples = (self.samples / 10).max(10);
        }
        // Central floor: every Monte Carlo experiment divides by the
        // sample count or asserts it non-zero; deterministic experiments
        // ignore it, so rejecting 0 here costs nothing and keeps the
        // no-panic exit-code contract for all of them.
        if self.samples == 0 {
            return Err(usage_err("--samples must be at least 1"));
        }
        // Central range checks for the shared defect-model params (the
        // same role the `--defect-rate` bound plays above), so
        // `Params::defect_model` is infallible for accessor code.
        if let Some(ParamValue::F64(v)) = self.extras.get(CLUSTER_SIZE_PARAM.name) {
            // Non-finite values never reach here: `parse_value` rejects
            // them for every F64 param.
            if *v < 1.0 {
                return Err(usage_err("--cluster-size must be at least 1"));
            }
        }
        if let Some(ParamValue::F64(v)) = self.extras.get(LINE_RATE_PARAM.name) {
            if !(0.0..=1.0).contains(v) {
                return Err(usage_err("--line-rate must be a probability in [0, 1]"));
            }
        }
        Ok(self)
    }

    /// An extra `usize` parameter declared by the experiment.
    ///
    /// # Panics
    ///
    /// Panics when the experiment did not declare `name` with that kind —
    /// a programmer error, not a user error.
    #[must_use]
    pub fn usize(&self, name: &str) -> usize {
        match self.extras.get(name) {
            Some(ParamValue::USize(v)) => *v,
            other => panic!("param --{name} is not a declared usize (got {other:?})"),
        }
    }

    /// An extra `u64` parameter. See [`Params::usize`] for panics.
    #[must_use]
    pub fn u64(&self, name: &str) -> u64 {
        match self.extras.get(name) {
            Some(ParamValue::U64(v)) => *v,
            other => panic!("param --{name} is not a declared u64 (got {other:?})"),
        }
    }

    /// An extra `f64` parameter. See [`Params::usize`] for panics.
    #[must_use]
    pub fn f64(&self, name: &str) -> f64 {
        match self.extras.get(name) {
            Some(ParamValue::F64(v)) => *v,
            other => panic!("param --{name} is not a declared f64 (got {other:?})"),
        }
    }

    /// An extra flag parameter. See [`Params::usize`] for panics.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        match self.extras.get(name) {
            Some(ParamValue::Flag(v)) => *v,
            other => panic!("param --{name} is not a declared flag (got {other:?})"),
        }
    }

    /// An extra string parameter. See [`Params::usize`] for panics.
    #[must_use]
    pub fn str(&self, name: &str) -> &str {
        match self.extras.get(name) {
            Some(ParamValue::Str(v)) => v,
            other => panic!("param --{name} is not a declared string (got {other:?})"),
        }
    }

    /// An extra string-list parameter. See [`Params::usize`] for panics.
    #[must_use]
    pub fn list(&self, name: &str) -> &[String] {
        match self.extras.get(name) {
            Some(ParamValue::StrList(v)) => v,
            other => panic!("param --{name} is not a declared list (got {other:?})"),
        }
    }

    /// The defect sampling stream selected by `--rng-stream`, or
    /// [`SampleStream::V1`] for experiments that never declared
    /// [`RNG_STREAM_PARAM`] (deterministic experiments sample nothing).
    #[must_use]
    pub fn sample_stream(&self) -> SampleStream {
        match self.extras.get(RNG_STREAM_PARAM.name) {
            Some(ParamValue::Str(v)) => SampleStream::parse(v)
                .unwrap_or_else(|_| panic!("--rng-stream validated at parse time, got {v:?}")),
            _ => SampleStream::V1,
        }
    }

    /// The defect model selected by `--defect-model` (+ `--cluster-size`,
    /// `--line-rate`), or the default i.i.d. model for experiments that
    /// never declared [`DEFECT_MODEL_PARAMS`]. Parameter ranges are
    /// enforced at parse time, so this is infallible.
    #[must_use]
    pub fn defect_model(&self) -> DefectModelSpec {
        let kind = match self.extras.get(DEFECT_MODEL_PARAM.name) {
            Some(ParamValue::Str(v)) => DefectModelKind::parse(v)
                .unwrap_or_else(|_| panic!("--defect-model validated at parse time, got {v:?}")),
            _ => return DefectModelSpec::default(),
        };
        let cluster_size = match self.extras.get(CLUSTER_SIZE_PARAM.name) {
            Some(ParamValue::F64(v)) => *v,
            _ => DefectModelSpec::DEFAULT_CLUSTER_SIZE,
        };
        let line_rate = match self.extras.get(LINE_RATE_PARAM.name) {
            Some(ParamValue::F64(v)) => *v,
            _ => DefectModelSpec::DEFAULT_LINE_RATE,
        };
        DefectModelSpec::new(kind, cluster_size, line_rate)
            .expect("defect-model params validated at parse time")
    }

    /// The equivalent legacy [`ExpArgs`](crate::ExpArgs) for experiment
    /// code that predates the typed layer.
    #[must_use]
    pub fn exp_args(&self) -> crate::ExpArgs {
        crate::ExpArgs {
            samples: self.samples,
            seed: self.seed,
            defect_rate: self.defect_rate,
            stream: self.sample_stream(),
            model: self.defect_model(),
            csv: self.csv.clone(),
        }
    }

    /// The canonical `params` echo of the artifact document: the
    /// experiment-semantic parameters (common + extras in declaration
    /// order). Output routing (`--json`, `--out`, `--csv`) is deliberately
    /// excluded so artifacts stay byte-identical across hosts and
    /// invocation styles.
    #[must_use]
    pub fn to_json(&self, extra: &[ParamSpec]) -> JsonValue {
        let mut fields = vec![
            ("samples".to_owned(), JsonValue::usize(self.samples)),
            ("seed".to_owned(), JsonValue::u64(self.seed)),
            ("defect_rate".to_owned(), JsonValue::f64(self.defect_rate)),
        ];
        for s in extra {
            let value = self
                .extras
                .get(s.name)
                .expect("defaults seeded every declared extra");
            // The defect-model family is echoed only when non-default:
            // these params postdate the frozen artifact pins, and omitting
            // them at their defaults keeps every existing document
            // byte-identical.
            if OMIT_DEFAULT_ECHO.contains(&s.name)
                && value
                    == &s
                        .parse_value(s.default)
                        .expect("defaults validated by Params::defaults")
            {
                continue;
            }
            fields.push((s.name.replace('-', "_"), value.to_json()));
        }
        JsonValue::Obj(fields)
    }

    /// Renders the auto-generated usage text for an experiment: common
    /// flags followed by the experiment's extras, one line each.
    #[must_use]
    pub fn usage(exp_name: &str, description: &str, extra: &[ParamSpec]) -> String {
        let mut out = format!("{description}\n\nusage: xbar run {exp_name} [flags]\n\nflags:\n");
        for s in SHARED_PARAMS.iter().chain(RUN_PARAMS) {
            push_flag_line(&mut out, s);
        }
        if !extra.is_empty() {
            out.push_str("\nexperiment flags:\n");
            for s in extra {
                push_flag_line(&mut out, s);
            }
        }
        out
    }

    /// The usage lines of the flags [`Params::consume`] accepts with
    /// `extra`, one per line: the campaign block of the `xbar mc` verbs.
    #[must_use]
    pub(crate) fn consume_usage(extra: &[ParamSpec]) -> String {
        let mut out = String::new();
        for s in SHARED_PARAMS.iter().chain(extra) {
            push_flag_line(&mut out, s);
        }
        out
    }
}

/// The value following `flag`, or a usage error: the value reader of
/// every flag parser in the crate.
pub(crate) fn flag_value(
    flag: &str,
    it: &mut dyn Iterator<Item = String>,
) -> Result<String, UsageError> {
    it.next()
        .ok_or_else(|| usage_err(format!("{flag} needs a value")))
}

fn push_flag_line(out: &mut String, s: &ParamSpec) {
    let hint = s.kind.value_hint();
    let flag = if hint.is_empty() {
        format!("--{}", s.name)
    } else {
        format!("--{} {hint}", s.name)
    };
    let default = if s.default.is_empty() || s.kind == ParamKind::Flag {
        String::new()
    } else {
        format!(" (default {})", s.default)
    };
    out.push_str(&format!("  {flag:<22} {}{default}\n", s.help));
}

/// `text` as a number, or a usage error naming `flag`.
pub(crate) fn flag_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, UsageError> {
    text.parse()
        .map_err(|_| usage_err(format!("{flag}: expected a number, got {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXTRA: &[ParamSpec] = &[
        spec("circuit", ParamKind::Str, "rd53", "registry circuit"),
        spec(
            "spare-rows",
            ParamKind::USize,
            "0",
            "spare horizontal lines",
        ),
        spec("verbose", ParamKind::Flag, "false", "print more"),
        spec("sizes", ParamKind::StrList, "8,9", "input sizes"),
        RNG_STREAM_PARAM,
    ];

    fn parse(words: &[&str]) -> Result<Params, UsageError> {
        Params::parse(EXTRA, words.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults_match_the_paper_and_specs() {
        let p = parse(&[]).expect("defaults parse");
        assert_eq!(p.samples, 200);
        assert_eq!(p.seed, 2018);
        assert!((p.defect_rate - 0.10).abs() < 1e-12);
        assert_eq!(p.str("circuit"), "rd53");
        assert_eq!(p.usize("spare-rows"), 0);
        assert!(!p.flag("verbose"));
        assert_eq!(p.list("sizes"), ["8", "9"]);
    }

    #[test]
    fn common_and_extra_flags_roundtrip() {
        let p = parse(&[
            "--samples",
            "50",
            "--seed",
            "9",
            "--defect-rate",
            "0.2",
            "--circuit",
            "bw",
            "--spare-rows",
            "4",
            "--verbose",
            "--sizes",
            "10,15",
            "--csv",
            "/tmp/x.csv",
        ])
        .expect("parses");
        assert_eq!(p.samples, 50);
        assert_eq!(p.seed, 9);
        assert_eq!(p.str("circuit"), "bw");
        assert_eq!(p.usize("spare-rows"), 4);
        assert!(p.flag("verbose"));
        assert_eq!(p.list("sizes"), ["10", "15"]);
        assert_eq!(p.csv.as_deref(), Some(std::path::Path::new("/tmp/x.csv")));
    }

    #[test]
    fn consume_takes_experiment_flags_and_leaves_the_caller_its_own() {
        // A caller with flags of its own (here a valued `--out`)
        // interleaves them with the experiment's; output routing is never
        // consume's, so `--json` stays with the caller too.
        let words = [
            "--samples",
            "50",
            "--out",
            "x",
            "--spare-rows",
            "4",
            "--json",
            "--verbose",
        ];
        let mut p = Params::defaults(EXTRA);
        let mut it = words.iter().map(|s| (*s).to_owned());
        let (mut out, mut foreign) = (None, Vec::new());
        while let Some(flag) = it.next() {
            if p.consume(EXTRA, &flag, &mut it).expect("well-formed") {
                continue;
            }
            match flag.as_str() {
                "--out" => out = it.next(),
                _ => foreign.push(flag),
            }
        }
        assert_eq!(out.as_deref(), Some("x"));
        assert_eq!(foreign, ["--json"]);
        let p = p.finish().expect("finishes");
        assert_eq!(p.samples, 50);
        assert_eq!(p.usize("spare-rows"), 4);
        assert!(p.flag("verbose"));
        assert!(!p.json);

        let err = Params::defaults(EXTRA)
            .consume(EXTRA, "--samples", &mut std::iter::empty())
            .expect_err("missing value");
        assert!(err.0.contains("needs a value"), "{err}");
        let mut p = Params::defaults(EXTRA);
        let mut zero = ["0".to_owned()].into_iter();
        assert_eq!(p.consume(EXTRA, "--samples", &mut zero), Ok(true));
        let err = p.finish().expect_err("the sample floor spans flags");
        assert!(err.0.contains("at least 1"), "{err}");

        let text = Params::consume_usage(EXTRA);
        assert!(text.contains("--samples N"), "{text}");
        assert!(text.contains("--rng-stream v1|v2"), "{text}");
        assert!(!text.contains("--json"), "{text}");
    }

    #[test]
    fn quick_is_order_independent() {
        for words in [
            &["--quick", "--samples", "500"][..],
            &["--samples", "500", "--quick"][..],
        ] {
            assert_eq!(parse(words).expect("parses").samples, 50);
        }
        assert_eq!(parse(&["--quick"]).expect("parses").samples, 20);
        // Floor of 10 samples even for tiny campaigns.
        assert_eq!(
            parse(&["--samples", "3", "--quick"])
                .expect("parses")
                .samples,
            10
        );
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        for (words, needle) in [
            (&["--frobnicate"][..], "unknown flag"),
            (&["--samples"][..], "needs a value"),
            (&["--samples", "many"][..], "expected a number"),
            (&["--spare-rows", "-1"][..], "unsigned"),
            (&["--defect-rate", "NaN"][..], "[0, 1]"),
            (&["--defect-rate", "1.5"][..], "[0, 1]"),
            (&["--defect-rate", "-0.1"][..], "[0, 1]"),
            (&["--samples", "0"][..], "at least 1"),
            (&["positional"][..], "expected a --flag"),
            (&["--sizes", ""][..], "non-empty"),
        ] {
            let err = parse(words).expect_err("must fail");
            assert!(err.0.contains(needle), "{words:?}: {err}");
        }
    }

    #[test]
    fn enum_params_validate_their_choices() {
        // Default: the declared literal, typed through sample_stream().
        let p = parse(&[]).expect("defaults parse");
        assert_eq!(p.str("rng-stream"), "v1");
        assert_eq!(p.sample_stream(), SampleStream::V1);

        let p = parse(&["--rng-stream", "v2"]).expect("parses");
        assert_eq!(p.sample_stream(), SampleStream::V2);

        let err = parse(&["--rng-stream", "v3"]).expect_err("must fail");
        assert!(err.0.contains("one of v1, v2"), "{err}");
    }

    #[test]
    fn sample_stream_defaults_to_v1_when_undeclared() {
        // Experiments that never declared RNG_STREAM_PARAM (deterministic
        // ones) still answer V1 instead of panicking.
        let p = Params::parse(&[], std::iter::empty()).expect("parses");
        assert_eq!(p.sample_stream(), SampleStream::V1);
    }

    #[test]
    fn enum_usage_hint_lists_the_choices() {
        let text = Params::usage("demo", "a demo experiment", EXTRA);
        assert!(text.contains("--rng-stream v1|v2"), "{text}");
        assert!(text.contains("(default v1)"), "{text}");
    }

    const MODELED: &[ParamSpec] = &[
        RNG_STREAM_PARAM,
        DEFECT_MODEL_PARAM,
        CLUSTER_SIZE_PARAM,
        LINE_RATE_PARAM,
    ];

    fn parse_modeled(words: &[&str]) -> Result<Params, UsageError> {
        Params::parse(MODELED, words.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defect_model_defaults_parses_and_normalizes() {
        // Default and undeclared both answer the i.i.d. model.
        let p = parse_modeled(&[]).expect("defaults parse");
        assert_eq!(p.defect_model(), DefectModelSpec::default());
        let p = Params::parse(&[], std::iter::empty()).expect("parses");
        assert_eq!(p.defect_model(), DefectModelSpec::default());

        let p =
            parse_modeled(&["--defect-model", "clustered", "--cluster-size", "6"]).expect("parses");
        let spec = p.defect_model();
        assert_eq!(spec.kind(), DefectModelKind::Clustered);
        assert!((spec.cluster_size() - 6.0).abs() < 1e-12);

        let p =
            parse_modeled(&["--defect-model", "lines", "--line-rate", "0.125"]).expect("parses");
        let spec = p.defect_model();
        assert_eq!(spec.kind(), DefectModelKind::Lines);
        assert!((spec.line_rate() - 0.125).abs() < 1e-12);

        // A parameter the chosen kind never consumes is normalized back to
        // its default, so campaign identity comparisons stay exact.
        let p = parse_modeled(&["--defect-model", "lines", "--cluster-size", "9"]).expect("parses");
        assert!(
            (p.defect_model().cluster_size() - DefectModelSpec::DEFAULT_CLUSTER_SIZE).abs() < 1e-12
        );
    }

    #[test]
    fn defect_model_params_are_range_checked_at_parse_time() {
        for (words, needle) in [
            (&["--defect-model", "blobs"][..], "one of iid, clustered"),
            (&["--cluster-size", "0.5"][..], "at least 1"),
            (&["--cluster-size", "NaN"][..], "finite"),
            (&["--cluster-size", "inf"][..], "finite"),
            (&["--line-rate", "1.5"][..], "[0, 1]"),
            (&["--line-rate", "-0.1"][..], "[0, 1]"),
            (&["--line-rate", "NaN"][..], "finite"),
        ] {
            let err = parse_modeled(words).expect_err("must fail");
            assert!(err.0.contains(needle), "{words:?}: {err}");
        }
    }

    #[test]
    fn default_model_params_are_omitted_from_the_echo() {
        // The frozen-artifact contract: at their defaults the model params
        // leave no trace in the params echo, so pre-existing documents stay
        // byte-identical.
        let p = parse_modeled(&[]).expect("defaults parse");
        let text = p.to_json(MODELED).render();
        // `rng_stream` predates the freeze and is echoed unconditionally;
        // the model family must leave no trace at its defaults.
        assert!(text.contains("\"rng_stream\": \"v1\""), "{text}");
        for absent in ["defect_model", "cluster_size", "line_rate"] {
            assert!(
                !text.contains(absent),
                "default echo leaks {absent}: {text}"
            );
        }

        let p =
            parse_modeled(&["--defect-model", "clustered", "--cluster-size", "6"]).expect("parses");
        let text = p.to_json(MODELED).render();
        assert!(text.contains("\"defect_model\": \"clustered\""), "{text}");
        assert!(text.contains("\"cluster_size\": 6.0"), "{text}");
        assert!(!text.contains("line_rate"), "{text}");
    }

    #[test]
    fn params_echo_is_ordered_and_excludes_output_routing() {
        let p = parse(&["--json", "--out", "/tmp/a", "--csv", "/tmp/b.csv"]).expect("parses");
        let text = p.to_json(EXTRA).render();
        assert!(text.starts_with("{\n  \"samples\": 200,\n  \"seed\": 2018,"));
        assert!(text.contains("\"spare_rows\": 0"));
        assert!(!text.contains("csv"), "{text}");
        assert!(!text.contains("/tmp"), "{text}");
    }

    #[test]
    fn usage_lists_common_and_extra_flags() {
        let text = Params::usage("demo", "a demo experiment", EXTRA);
        for needle in [
            "--samples N",
            "--spare-rows N",
            "--sizes a,b",
            "xbar run demo",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }
}
