//! Integration tests of the typed `Experiment` API and the `xbar` CLI:
//! registry completeness, parse round-trips (including error paths and
//! exit codes), golden artifact-schema pins, and the `xbar mc`
//! byte-identity contract.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use xbar_exp::shard::json::Json;
use xbar_exp::{find_experiment, registry, ExpError, Params, Reporter};

// ---------------------------------------------------------------------------
// Registry completeness
// ---------------------------------------------------------------------------

#[test]
fn registry_covers_every_experiment_with_unique_names() {
    let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
    assert_eq!(names.len(), 18, "tables + figures + ext studies + yield");
    let unique: HashSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate names in {names:?}");
    // Every pre-redesign binary's experiment is present.
    for expected in [
        "table1",
        "table2",
        "fig1",
        "fig2_fig4",
        "fig3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "ext_yield_redundancy",
        "ext_multilevel_defects",
        "ext_ablation_hba",
        "ext_analog_validation",
        "ext_column_redundancy",
        "ext_defect_scan",
        "ext_model_yield",
        "ext_cluster_tolerance",
        "estimate_yield",
    ] {
        assert!(
            names.contains(&expected),
            "{expected} missing from registry"
        );
    }
}

#[test]
fn registry_descriptions_and_param_specs_are_well_formed() {
    for exp in registry() {
        assert!(
            !exp.description().trim().is_empty(),
            "{}: empty description",
            exp.name()
        );
        let mut seen = HashSet::new();
        for spec in exp.extra_params() {
            assert!(
                seen.insert(spec.name),
                "{}: duplicate param --{}",
                exp.name(),
                spec.name
            );
            assert!(!spec.help.trim().is_empty(), "--{} has no help", spec.name);
            assert!(
                !spec.name.starts_with('-') && !spec.name.contains(' '),
                "--{} is not a bare kebab-case name",
                spec.name
            );
        }
        // Defaults must parse for every experiment (panics otherwise).
        let _ = Params::defaults(exp.extra_params());
    }
}

#[test]
fn find_experiment_resolves_names_and_rejects_unknowns() {
    assert_eq!(find_experiment("table2").map(|e| e.name()), Some("table2"));
    assert!(find_experiment("not-an-experiment").is_none());
}

// ---------------------------------------------------------------------------
// Typed-params layer: run-time usage errors surface as ExpError::Usage
// ---------------------------------------------------------------------------

#[test]
fn experiments_reject_bad_param_values_as_usage_errors() {
    for (name, flags, needle) in [
        ("table2", &["--circuits", "nope"][..], "not a Table II"),
        ("estimate_yield", &["--mapper", "psychic"][..], "hybrid"),
        (
            "estimate_yield",
            &["--circuit", "nope"][..],
            "not registered",
        ),
        ("fig6", &["--input-sizes", "8,banana"][..], "input size"),
        (
            "ext_column_redundancy",
            &["--stuck-closed-fraction", "1.5"][..],
            "[0, 1]",
        ),
        ("table2", &["--circuits", "rd53,rd53"][..], "listed twice"),
    ] {
        let exp = find_experiment(name).expect("registered");
        let params = Params::parse(exp.extra_params(), flags.iter().map(|s| (*s).to_owned()))
            .expect("flags themselves parse");
        let err = exp
            .run(&params, &mut Reporter::quiet())
            .expect_err("bad value must fail");
        match &err {
            ExpError::Usage(msg) => assert!(msg.contains(needle), "{name}: {msg}"),
            ExpError::Failed(msg) => panic!("{name}: expected Usage, got Failed({msg})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Golden artifact schemas (pinned layouts; update DELIBERATELY, never
// silently — downstream tooling parses these documents)
// ---------------------------------------------------------------------------

fn run_artifact(name: &str, flags: &[&str]) -> (String, Params) {
    let exp = find_experiment(name).expect("registered");
    let params = Params::parse(exp.extra_params(), flags.iter().map(|s| (*s).to_owned()))
        .expect("flags parse");
    let artifact = exp
        .run(&params, &mut Reporter::quiet())
        .expect("experiment runs");
    (artifact.render(exp, &params), params)
}

#[test]
fn golden_table2_artifact_layout_is_pinned() {
    let (text, _) = run_artifact(
        "table2",
        &["--samples", "12", "--seed", "5", "--circuits", "rd53"],
    );
    let expected = r#"{
  "schema": "xbar-artifact/1",
  "experiment": "table2",
  "params": {
    "samples": 12,
    "seed": 5,
    "defect_rate": 0.1,
    "circuits": [
      "rd53"
    ],
    "rng_stream": "v1"
  },
  "data": {
    "circuits": [
      {
        "name": "rd53",
        "inputs": 5,
        "outputs": 3,
        "products": 31,
        "area": 544,
        "area_published": 544,
        "inclusion_ratio": 0.3327205882352941,
        "samples": 12,
        "hba_successes": 11,
        "hba_success_rate": 0.9166666666666666,
        "ea_successes": 11,
        "ea_success_rate": 0.9166666666666666
      }
    ]
  }
}
"#;
    assert_eq!(text, expected, "table2 artifact layout drifted");
}

#[test]
fn golden_estimate_yield_artifact_layout_is_pinned() {
    let (text, _) = run_artifact(
        "estimate_yield",
        &["--samples", "15", "--seed", "7", "--spare-rows", "2"],
    );
    let expected = r#"{
  "schema": "xbar-artifact/1",
  "experiment": "estimate_yield",
  "params": {
    "samples": 15,
    "seed": 7,
    "defect_rate": 0.1,
    "circuit": "rd53",
    "spare_rows": 2,
    "stuck_closed_fraction": 0.0,
    "mapper": "hybrid",
    "rng_stream": "v1"
  },
  "data": {
    "circuit": "rd53",
    "rows": 34,
    "cols": 16,
    "spare_rows": 2,
    "mapper": "hybrid",
    "successes": 15,
    "samples": 15,
    "success_rate": 1.0,
    "area": 576,
    "area_overhead": 1.0588235294117647
  }
}
"#;
    assert_eq!(text, expected, "estimate_yield artifact layout drifted");
}

#[test]
fn golden_ext_model_yield_artifact_layout_is_pinned() {
    // Pins every spatial defect model's yield sweep in one document:
    // the sampling procedures themselves are frozen by these counts.
    let (text, _) = run_artifact("ext_model_yield", &["--samples", "12", "--seed", "5"]);
    let expected = r#"{
  "schema": "xbar-artifact/1",
  "experiment": "ext_model_yield",
  "params": {
    "samples": 12,
    "seed": 5,
    "defect_rate": 0.1,
    "circuit": "rd53",
    "rng_stream": "v1"
  },
  "data": {
    "circuit": "rd53",
    "rows": 34,
    "cols": 16,
    "models": [
      {
        "model": "iid",
        "sweep": [
          {
            "defect_rate": 0.05,
            "successes": 12,
            "samples": 12
          },
          {
            "defect_rate": 0.1,
            "successes": 12,
            "samples": 12
          },
          {
            "defect_rate": 0.15,
            "successes": 10,
            "samples": 12
          },
          {
            "defect_rate": 0.2,
            "successes": 2,
            "samples": 12
          }
        ]
      },
      {
        "model": "clustered",
        "sweep": [
          {
            "defect_rate": 0.05,
            "successes": 3,
            "samples": 12
          },
          {
            "defect_rate": 0.1,
            "successes": 3,
            "samples": 12
          },
          {
            "defect_rate": 0.15,
            "successes": 0,
            "samples": 12
          },
          {
            "defect_rate": 0.2,
            "successes": 0,
            "samples": 12
          }
        ]
      },
      {
        "model": "lines",
        "sweep": [
          {
            "defect_rate": 0.05,
            "successes": 4,
            "samples": 12
          },
          {
            "defect_rate": 0.1,
            "successes": 4,
            "samples": 12
          },
          {
            "defect_rate": 0.15,
            "successes": 4,
            "samples": 12
          },
          {
            "defect_rate": 0.2,
            "successes": 4,
            "samples": 12
          }
        ]
      },
      {
        "model": "composite",
        "sweep": [
          {
            "defect_rate": 0.05,
            "successes": 1,
            "samples": 12
          },
          {
            "defect_rate": 0.1,
            "successes": 1,
            "samples": 12
          },
          {
            "defect_rate": 0.15,
            "successes": 0,
            "samples": 12
          },
          {
            "defect_rate": 0.2,
            "successes": 0,
            "samples": 12
          }
        ]
      }
    ]
  }
}
"#;
    assert_eq!(text, expected, "ext_model_yield artifact layout drifted");
}

#[test]
fn golden_ext_cluster_tolerance_artifact_layout_is_pinned() {
    let (text, _) = run_artifact("ext_cluster_tolerance", &["--samples", "12", "--seed", "5"]);
    let expected = r#"{
  "schema": "xbar-artifact/1",
  "experiment": "ext_cluster_tolerance",
  "params": {
    "samples": 12,
    "seed": 5,
    "defect_rate": 0.1,
    "circuit": "rd53",
    "rng_stream": "v1"
  },
  "data": {
    "circuit": "rd53",
    "products": 31,
    "defect_rate": 0.1,
    "sweep": [
      {
        "cluster_size": 1.0,
        "hba_successes": 11,
        "ea_successes": 12,
        "samples": 12
      },
      {
        "cluster_size": 2.0,
        "hba_successes": 3,
        "ea_successes": 4,
        "samples": 12
      },
      {
        "cluster_size": 4.0,
        "hba_successes": 1,
        "ea_successes": 1,
        "samples": 12
      },
      {
        "cluster_size": 8.0,
        "hba_successes": 0,
        "ea_successes": 0,
        "samples": 12
      }
    ]
  }
}
"#;
    assert_eq!(
        text, expected,
        "ext_cluster_tolerance artifact layout drifted"
    );
}

#[test]
fn table2_circuit_subset_preserves_user_order() {
    // Same contract as `xbar mc coordinate --circuits`: the artifact's
    // circuit array lines up with the requested order.
    let (text, _) = run_artifact("table2", &["--samples", "10", "--circuits", "misex1,rd53"]);
    let doc = Json::parse(&text).expect("artifact parses");
    let names: Vec<&str> = doc
        .get("data")
        .and_then(|d| d.get("circuits"))
        .and_then(Json::as_arr)
        .expect("circuits array")
        .iter()
        .map(|c| c.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, ["misex1", "rd53"]);
}

#[test]
fn every_experiment_declares_a_parseable_artifact_envelope() {
    // Cheap structural check on the two fast deterministic experiments
    // (the full registry sweep is CI's `xbar run --quick --json` loop).
    for name in ["fig3", "fig8"] {
        let (text, _) = run_artifact(name, &[]);
        let doc = Json::parse(&text).expect("artifact parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("xbar-artifact/1")
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(name));
        assert!(doc.get("params").is_some());
        assert!(doc.get("data").is_some());
    }
}

// ---------------------------------------------------------------------------
// Process-level: exit codes, mc byte-identity
// ---------------------------------------------------------------------------

fn xbar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args(args)
        .output()
        .expect("spawn xbar")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn xbar_list_names_every_registered_experiment() {
    let out = xbar(&["list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for exp in registry() {
        assert!(
            text.lines().any(|l| l.starts_with(exp.name())),
            "{} missing from `xbar list`",
            exp.name()
        );
    }
}

#[test]
fn usage_problems_exit_2_with_help_not_a_backtrace() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["run"][..],
        &["run", "not-an-experiment"][..],
        &["run", "table2", "--frobnicate"][..],
        &["run", "table2", "--samples"][..],
        &["run", "table2", "--samples", "many"][..],
        &["describe", "not-an-experiment"][..],
        &["mc"][..],
        &["mc", "frobnicate"][..],
        &["mc", "shard", "--shard-index", "x"][..],
        &["mc", "coordinate", "--shards"][..],
        &["mc", "coordinate", "--shard-timeout", "soon"][..],
        &["mc", "coordinate", "--shard-timeout", "0"][..],
        &["mc", "coordinate", "--max-inflight", "0"][..],
        &["mc", "coordinate", "--worker-arg"][..],
        // The campaign flags are `xbar run table2`'s: what it refuses,
        // every mc verb refuses; `xbar run`'s own flags stay its own.
        &["mc", "coordinate", "--in-process", "--defect-rate", "1.5"][..],
        &["mc", "coordinate", "--in-process", "--samples", "0"][..],
        &[
            "mc",
            "coordinate",
            "--in-process",
            "--circuits",
            "rd53,rd53",
        ][..],
        &["mc", "coordinate", "--in-process", "--circuits", "t481"][..],
        &["mc", "coordinate", "--quick"][..],
        &["mc", "shard", "--defect-rate", "-0.5"][..],
        &["mc", "shard", "--circuits", "cordic"][..],
    ] {
        let out = xbar(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "xbar {args:?}: expected exit 2, got {:?}\nstderr: {}",
            out.status.code(),
            stderr(&out)
        );
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "xbar {args:?} panicked:\n{err}");
    }
}

/// Runs xbar on a stdout pipe whose reader is gone before xbar starts, as
/// in `xbar list | head -1` once `head` has its line: every write fails.
fn xbar_to_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("run xbar")
}

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    for args in [
        &["list"][..],
        &["describe", "table2"][..],
        &["run", "table2", "--quick"][..],
    ] {
        let out = xbar_to_closed_stdout(args);
        let err = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(0),
            "xbar {args:?}: expected exit 0, got {:?}\nstderr: {err}",
            out.status.code()
        );
        assert!(!err.contains("panicked"), "xbar {args:?} panicked:\n{err}");
    }
    // A streamed partial is the exception: its launcher must see the
    // failed stream.
    let out = xbar_to_closed_stdout(&["mc", "shard", "--samples", "4", "--circuits", "rd53"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("cannot stream partial"), "stderr: {err}");
}

/// A reader that goes away must not cost the work: every verb that writes
/// files still writes them, byte for byte as with an open stdout, and
/// exits 0 after its campaign has run and cleaned up.
#[test]
fn a_closed_stdout_still_gets_every_file_written() {
    let dir = std::env::temp_dir().join(format!("xbar-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf8 path").to_owned();
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("written");
    let closed = |args: &[&str]| {
        let out = xbar_to_closed_stdout(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(0), "xbar {args:?}\nstderr: {err}");
        assert!(!err.contains("panicked"), "xbar {args:?} panicked:\n{err}");
    };

    // `run --out DIR`, with and without `--json` on the closed stdout.
    let quick = xbar(&["run", "table2", "--quick", "--json"]);
    assert!(quick.status.success(), "{}", stderr(&quick));
    for (out, json) in [("run", &[][..]), ("run-json", &["--json"][..])] {
        closed(&[&["run", "table2", "--quick", "--out", &path(out)][..], json].concat());
        assert_eq!(read(&format!("{out}/table2.json")), stdout(&quick), "{out}");
    }

    // The `mc` verbs: merged stats and launch's canonical artifact.
    let campaign = ["--samples", "4", "--circuits", "rd53"];
    let mono = xbar(&[&["run", "table2", "--json"][..], &campaign].concat());
    assert!(mono.status.success(), "{}", stderr(&mono));
    let open = xbar(
        &[
            &[
                "mc",
                "coordinate",
                "--in-process",
                "--out",
                &path("open.json"),
            ][..],
            &campaign,
        ]
        .concat(),
    );
    assert!(open.status.success(), "{}", stderr(&open));
    let (work, artifact) = (path("work"), path("artifact.json"));
    for (out, flags) in [
        ("in-process.json", &["coordinate", "--in-process"][..]),
        ("coordinate.json", &["coordinate", "--shards", "2"][..]),
        (
            "launch.json",
            &[
                "launch",
                "--hosts",
                "alpha*2",
                "--shards",
                "3",
                "--artifact",
                &artifact,
            ][..],
        ),
    ] {
        closed(
            &[
                &["mc"][..],
                flags,
                &["--work-dir", &work, "--out", &path(out)],
                &campaign,
            ]
            .concat(),
        );
        assert_eq!(read(out), read("open.json"), "{out}");
    }
    assert_eq!(read("artifact.json"), stdout(&mono));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn describe_and_help_exit_0() {
    for args in [
        &["--help"][..],
        &["describe", "table2"][..],
        &["run", "table2", "--help"][..],
        &["mc", "shard", "--help"][..],
        &["mc", "coordinate", "--help"][..],
        &["mc", "launch", "--help"][..],
    ] {
        let out = xbar(args);
        assert!(out.status.success(), "xbar {args:?} failed");
        assert!(!stdout(&out).is_empty());
    }
}

#[test]
fn mc_verbs_list_the_campaign_flags_xbar_describe_table2_lists() {
    // One vocabulary: every mc verb's usage carries table2's own flag
    // lines, rendered from the same declarations.
    let describe = stdout(&xbar(&["describe", "table2"]));
    let table2_lines: Vec<&str> = describe
        .lines()
        .filter(|line| {
            [
                "--samples",
                "--seed",
                "--defect-rate",
                "--circuits",
                "--rng-stream",
                "--defect-model",
                "--cluster-size",
                "--line-rate",
            ]
            .iter()
            .any(|flag| line.trim_start().starts_with(flag))
        })
        .collect();
    assert_eq!(table2_lines.len(), 8, "{describe}");
    for verb in ["shard", "coordinate", "launch"] {
        let usage = stdout(&xbar(&["mc", verb, "--help"]));
        for line in &table2_lines {
            assert!(usage.contains(line), "mc {verb} lacks {line:?}:\n{usage}");
        }
    }
}

#[test]
fn mc_coordinate_is_byte_identical_to_in_process_with_xbar_as_its_own_worker() {
    let dir = std::env::temp_dir().join(format!("xbar-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf8 path").to_owned();
    let campaign = ["--samples", "30", "--circuits", "rd53"];
    let coordinate = |flags: &[&str], out: &str| -> String {
        let done = xbar(
            &[
                &["mc", "coordinate", "--out", &path(out)][..],
                flags,
                &campaign,
            ]
            .concat(),
        );
        assert!(done.status.success(), "{flags:?}: {}", stderr(&done));
        std::fs::read_to_string(dir.join(out)).expect("merged artifact")
    };
    let single = coordinate(&["--in-process"], "single.json");

    // No --worker: default resolution finds the xbar binary next to the
    // running xbar and spawns it as `xbar mc shard` — the self-contained
    // path production uses.
    let work = path("work");
    let sharded = coordinate(&["--shards", "3", "--work-dir", &work], "sharded.json");
    assert_eq!(
        sharded, single,
        "3-shard xbar run must be byte-identical to --in-process"
    );
    Json::parse(&sharded).expect("merged artifact parses");

    // `--worker PATH` names an xbar binary, spawned as `PATH mc shard ...`.
    let xbar_bin = env!("CARGO_BIN_EXE_xbar");
    let named = coordinate(
        &["--shards", "3", "--work-dir", &work, "--worker", xbar_bin],
        "named.json",
    );
    assert_eq!(
        named, single,
        "--worker $xbar must be byte-identical to --in-process"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn json_mode_stdout_carries_only_the_artifact() {
    let out = xbar(&["run", "estimate_yield", "--quick", "--json"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let doc = Json::parse(&text).expect("stdout is exactly one JSON document");
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some("estimate_yield")
    );
}

#[test]
fn out_dir_receives_the_artifact_file() {
    let dir = std::env::temp_dir().join(format!("xbar-out-test-{}", std::process::id()));
    let out = xbar(&["run", "fig3", "--out", dir.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "{}", stderr(&out));
    let path: PathBuf = dir.join("fig3.json");
    let text = std::fs::read_to_string(&path).expect("artifact written");
    Json::parse(&text).expect("artifact parses");
    let _ = std::fs::remove_dir_all(&dir);
}
