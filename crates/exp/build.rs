//! Derives the exact circuits' mapping covers once, at build time.
//!
//! An exact registry circuit's mapping cover (the function or its
//! complement, whichever minimizes to fewer products) depends on nothing
//! but the circuit, so every process that mapped it used to repeat the
//! same two minimizations and a complement. This script calls
//! `BenchmarkInfo::mapping_cover`, the one definition, for every
//! `BenchmarkSource::Exact` entry and writes the covers as PLA text to
//! `$OUT_DIR/exact_covers.rs`, which `xbar_exp::experiments` includes and
//! parses on demand.
//!
//! The only rerun rule names this file: Cargo rebuilds the script, and so
//! reruns it, whenever its build-dependency `xbar-logic` changes, so the
//! table cannot go stale.

use std::fmt::Write as _;
use std::path::PathBuf;
use xbar_logic::bench_reg::{registry, BenchmarkSource};
use xbar_logic::Pla;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let mut table = String::from("const EXACT_COVERS: &[(&str, &str)] = &[\n");
    for info in registry()
        .iter()
        .filter(|info| info.source == BenchmarkSource::Exact)
    {
        // Exact circuits ignore the seed.
        let pla = Pla::from_cover(info.mapping_cover(0)).to_pla_string();
        writeln!(table, "    ({:?}, {pla:?}),", info.name).expect("writing to a String");
    }
    table.push_str("];\n");
    let out_dir = PathBuf::from(std::env::var_os("OUT_DIR").expect("Cargo sets OUT_DIR"));
    let path = out_dir.join("exact_covers.rs");
    std::fs::write(&path, table).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}
