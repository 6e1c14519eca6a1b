//! `lintall` — runs the whole lint family and aggregates exit status.
//!
//! Invokes the sibling `vlint`, `chaoslint`, `replaylint`, `flowlint`,
//! `storelint`, and `regionlint` binaries (from this executable's own
//! directory, so a release build drives release lints) and exits
//! non-zero if any of them fails. Each tool reports failures in the shared JSON schema
//! documented in `ildp_bench::lint`.
//!
//! Usage: `cargo run --release -p ildp-bench --bin lintall`
//! (`ILDP_SCALE` applies to every tool, default 10.)

use std::process::Command;

/// The lint family, in execution order.
const TOOLS: [&str; 6] = [
    "vlint",
    "chaoslint",
    "replaylint",
    "flowlint",
    "storelint",
    "regionlint",
];

fn main() {
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe.parent().expect("executable directory").to_path_buf();
    let mut failed: Vec<&str> = Vec::new();
    for tool in TOOLS {
        let path = dir.join(tool);
        if !path.exists() {
            eprintln!(
                "lintall: {tool} not found at {} — build it first \
                 (cargo build --release -p ildp-bench --bins)",
                path.display()
            );
            failed.push(tool);
            continue;
        }
        println!("==== {tool} ====");
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => println!("==== {tool}: PASS ====\n"),
            Ok(s) => {
                println!("==== {tool}: FAIL ({s}) ====\n");
                failed.push(tool);
            }
            Err(e) => {
                println!("==== {tool}: failed to run: {e} ====\n");
                failed.push(tool);
            }
        }
    }
    if failed.is_empty() {
        println!("lintall: all {} lints passed", TOOLS.len());
    } else {
        println!("lintall: FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
}
