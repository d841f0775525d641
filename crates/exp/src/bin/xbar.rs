//! The unified experiment driver: `xbar list | describe | run | mc`.
//! See `xbar --help` and the crate-level docs of `xbar-exp`.

#![forbid(unsafe_code)]

fn main() {
    std::process::exit(xbar_exp::run_cli(std::env::args().skip(1)));
}
