//! Plain-text report formatting for the experiment binaries, and the
//! schema reference for the JSON artifacts `perfstat` emits.
//!
//! # `BENCH_engine.json` (perfstat default mode)
//!
//! Single-VM functional-engine trajectory, synchronous translation:
//!
//! ```json
//! {
//!   "bench": "engine_functional",     // artifact discriminator
//!   "mode": "null_sink",              // no timing model attached
//!   "scale": 30, "reps": 3,           // ILDP_SCALE / PERFSTAT_REPS
//!   "guest_insts_per_sec": 0,         // total_guest_insts / total wall
//!   "total_guest_insts": 0, "total_wall_seconds": 0.0,
//!   "ras_hit_rate": 0.0,              // dual-RAS hits / (hits+misses);
//!                                     // null when nothing dispatched
//!   "regions_formed": 0,              // hot chains merged into regions
//!   "region_entries": 0,              // entries into re-formed regions
//!   "seam_pairs_eliminated": 0,       // cross-fragment seams erased by
//!                                     // region re-formation
//!   "fragments_verified": 0, "verify_wall_seconds": 0.0,
//!   "fragments_verified_per_s": 0,
//!   "evictions": 0, "smc_invalidations": 0, "demotions": 0,
//!   "interp_fallback_ratio": 0.0,     // steady-state, warmup excluded
//!   "seam_report": { /* whole-cache dataflow, see below */ },
//!   "workloads": [ { "name": "...", /* same fields per workload */ } ]
//! }
//! ```
//!
//! ## `seam_report` (aggregate and per-workload)
//!
//! The whole-cache dataflow pass (`ildp_verifier::flow`) over the final
//! installed cache — the optimization-opportunity counts that feed
//! region re-formation (ROADMAP item 5, DESIGN.md §10, §12):
//!
//! ```json
//! { "fragments": 0,            // live fragments analyzed
//!   "resolved_edges": 0,       // chained seams in the fragment graph
//!   "boundary_exits": 0,       // exits treated as all-live boundaries
//!   "copy_ins": 0,             // static copy-from-GPR instructions
//!   "copy_outs": 0,            // static copy-to-GPR instructions
//!   "dead_copy_outs": 0,       // copy-outs provably dead at the copy
//!   "redundant_seam_pairs": 0  // copy-out→copy-in of the same register
//!                              // across a resolved seam
//! }
//! ```
//!
//! # Lint failure reports
//!
//! All six lint binaries (`vlint`, `chaoslint`, `replaylint`,
//! `flowlint`, `storelint`, `regionlint`) emit one shared
//! single-line JSON schema on failure, built by
//! [`crate::lint::LintReport`]:
//!
//! ```json
//! { "tool": "vlint", "scale": 10,
//!   /* tool-specific counters as extra top-level integer keys */
//!   "failures": [ { "cell": "gzip:basic:sw_pred.ras",
//!                   "details": ["V01 ..."] } ]
//! }
//! ```
//!
//! A failing `cell` feeds back into that tool's `--repro` flag; the
//! `lintall` binary runs the family in sequence and aggregates exit
//! status.
//!
//! # `BENCH_throughput.json` (`perfstat --throughput`)
//!
//! Multi-VM scaling sweep plus the warm-start store section and the
//! cross-process warm start:
//!
//! ```json
//! {
//!   "bench": "multi_vm_throughput",
//!   "scale": 5,                       // ILDP_SCALE (default 5 here)
//!   "vms_per_cell": 8,                // ILDP_VMS
//!   "throughput_metric": "...",       // how guest_insts_per_sec divides
//!   "scaling_ratio": 0.0,             // ips(max threads) / ips(1 thread)
//!   "scaling": [
//!     { "threads": 1, "runs": 0, "guest_insts": 0,
//!       "guest_insts_per_sec": 0,     // insts / cpu critical path
//!       "cpu_critical_path_seconds": 0.0,  // max per-thread CPU
//!       "cpu_total_seconds": 0.0, "wall_seconds": 0.0,
//!       "translate_stall_seconds": 0.0,    // guest-visible stall
//!       "translate_wall_seconds": 0.0 }    // translate+verify time (same work)
//!   ],
//!   "warm_start": {
//!     "cold_runs": 0, "cold_fragments": 0,  // published artifacts
//!     "warm_runs": 0, "warm_hits": 0, "warm_misses": 0,
//!     "reuse_rate": 0.0,              // hits / (hits+misses), gate ≥0.9
//!     "retranslations": 0,            // warm translations ran (gate 0)
//!     "reverifications": 0            // warm verifier calls (gate 0)
//!   },
//!   "cross_process": {
//!     "store_entries": 0,             // artifacts pretranslated to disk
//!     "store_bytes": 0,               // saved container size
//!     "pretranslate_seconds": 0.0,    // phase 1: translate+verify+save
//!     "cold_boot_seconds": 0.0,       // phase 2: exec'd child, all cells
//!     "cells": 0,                     // workload × form × chain cells run
//!     "warm_hits": 0, "warm_misses": 0,
//!     "reuse_rate": 0.0,              // gate ≥0.9 across the exec boundary
//!     "store_quarantined": 0,         // artifacts the child rejected (gate 0)
//!     "reverifications": 0            // child verifier calls (gate 0)
//!   }
//! }
//! ```
//!
//! The cross-process section is the zero-warmup boot proof: phase 1
//! (`pretranslate`'s entry points) saves the store, phase 2 re-execs
//! `perfstat --warm-child <store>` and the fresh process must serve
//! every fragment from the file with zero retranslation.
//!
//! The scaling section divides by the **CPU critical path** (largest
//! per-thread CPU time) rather than wall clock, so the sweep measures
//! parallel decomposition even when the host has fewer physical cores
//! than harness threads; `wall_seconds` is reported unmassaged next to
//! it.

/// Escapes a string for embedding in a JSON string literal (the lint
/// binaries emit structured failure reports without a JSON dependency).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A simple fixed-width table printer: benchmark rows, named numeric
/// columns, and an arithmetic-mean footer (the paper reports averages).
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
    precision: usize,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            precision: 2,
        }
    }

    /// Sets the number of digits after the decimal point (default 2).
    pub fn precision(mut self, p: usize) -> Table {
        self.precision = p;
        self
    }

    /// Appends a benchmark row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn row(&mut self, name: &str, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        self.rows.push((name.to_string(), values.to_vec()));
    }

    /// Column-wise arithmetic means.
    pub fn averages(&self) -> Vec<f64> {
        let n = self.rows.len().max(1) as f64;
        (0..self.columns.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect()
    }

    /// Renders the table with an `Avg.` footer.
    pub fn render(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .chain([4])
            .max()
            .unwrap()
            .max(9);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len().max(self.precision + 6))
            .collect::<Vec<_>>();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&format!("{:<name_w$}", ""));
        for (c, w) in self.columns.iter().zip(&col_w) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        let fmt_val = |v: f64, w: usize| format!("  {v:>w$.prec$}", prec = self.precision);
        for (name, vals) in &self.rows {
            out.push_str(&format!("{name:<name_w$}"));
            for (v, w) in vals.iter().zip(&col_w) {
                out.push_str(&fmt_val(*v, *w));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<name_w$}", "Avg."));
        for (v, w) in self.averages().iter().zip(&col_w) {
            out.push_str(&fmt_val(*v, *w));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows_and_average() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row("gzip", &[1.0, 2.0]);
        t.row("mcf", &[3.0, 4.0]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("gzip"));
        assert!(s.contains("Avg."));
        assert_eq!(t.averages(), vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.row("x", &[1.0, 2.0]);
    }
}
