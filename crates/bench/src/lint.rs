//! Shared machinery for the lint family (`vlint`, `chaoslint`,
//! `replaylint`, `flowlint`, `storelint`, `regionlint`, driven together
//! by `lintall`).
//!
//! Every lint binary reports failures through one JSON schema so CI and
//! the verify skill can parse all six uniformly:
//!
//! ```json
//! {
//!   "tool": "<vlint|chaoslint|replaylint|flowlint|storelint|regionlint>",
//!   "scale": 10,
//!   "<extra>": 123,            // tool-specific counters, 0+ of them
//!   "failures": [
//!     {"cell": "<workload:form:chain or gate name>",
//!      "details": ["<human-readable finding>", ...]}
//!   ]
//! }
//! ```
//!
//! A lint prints its report only on failure (`failures` non-empty) and
//! exits non-zero; `lintall` aggregates the exit statuses.

use crate::{harness_scale, json_escape};
use ildp_core::ChainPolicy;
use ildp_isa::IsaForm;
use spec_workloads::{by_name, Workload, NAMES};

/// One failing unit in a lint report: the `--repro`-addressable cell (or
/// gate name) plus its findings.
#[derive(Clone, Debug)]
pub struct LintFailure {
    /// Cell spec (`workload:form:chain`) or gate name.
    pub cell: String,
    /// Human-readable findings for this cell.
    pub details: Vec<String>,
}

/// The shared failure report emitted by every lint binary.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Tool name (`vlint`, `chaoslint`, `replaylint`, `flowlint`).
    pub tool: &'static str,
    /// Workload scale the run used.
    pub scale: u32,
    /// Tool-specific counters, emitted as extra top-level JSON keys in
    /// order (e.g. chaoslint's `injections`/`undetected`).
    pub extras: Vec<(&'static str, u64)>,
    /// The failing cells; empty means the lint passed.
    pub failures: Vec<LintFailure>,
}

impl LintReport {
    /// A fresh report for `tool` at the current harness scale.
    pub fn new(tool: &'static str) -> LintReport {
        LintReport {
            tool,
            scale: harness_scale(),
            extras: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Appends a tool-specific counter (top-level JSON key).
    pub fn extra(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.extras.push((key, value));
        self
    }

    /// Records a failing cell with its findings.
    pub fn fail(&mut self, cell: impl Into<String>, details: Vec<String>) {
        self.failures.push(LintFailure {
            cell: cell.into(),
            details,
        });
    }

    /// Whether the lint passed (no failures recorded).
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the shared JSON schema (single line).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"tool\":\"{}\",\"scale\":{}", self.tool, self.scale);
        for (key, value) in &self.extras {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push_str(",\"failures\":[");
        for (k, f) in self.failures.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let details: Vec<String> = f
                .details
                .iter()
                .map(|d| format!("\"{}\"", json_escape(d)))
                .collect();
            out.push_str(&format!(
                "{{\"cell\":\"{}\",\"details\":[{}]}}",
                json_escape(&f.cell),
                details.join(",")
            ));
        }
        out.push_str("]}");
        out
    }

    /// Prints the failure report and per-cell repro lines, then exits
    /// non-zero, if any failure was recorded. No output when clean.
    pub fn finish_or_exit(&self) {
        if self.is_clean() {
            return;
        }
        println!("{}: FAILURE REPORT", self.tool);
        println!("{}", self.to_json());
        for f in &self.failures {
            println!("rerun: {} --repro {}", self.tool, f.cell);
        }
        std::process::exit(1);
    }
}

/// Short name of an ISA form, as used in cell specs.
pub fn form_name(form: IsaForm) -> &'static str {
    match form {
        IsaForm::Basic => "basic",
        IsaForm::Modified => "modified",
    }
}

/// Formats a `workload:form:chain` cell spec.
pub fn cell_spec(workload: &str, form: IsaForm, chain: ChainPolicy) -> String {
    format!("{workload}:{}:{}", form_name(form), chain.label())
}

/// Parses a `workload:form:chain` cell spec back into its parts,
/// instantiating the workload at `scale`.
pub fn parse_cell_spec(s: &str, scale: u32) -> Result<(Workload, IsaForm, ChainPolicy), String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [workload, form, chain] = parts[..] else {
        return Err(format!("bad cell spec {s:?}: want workload:form:chain"));
    };
    if !NAMES.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let form = match form {
        "basic" => IsaForm::Basic,
        "modified" => IsaForm::Modified,
        other => return Err(format!("unknown ISA form {other:?}")),
    };
    let chain = match chain {
        "no_pred" => ChainPolicy::NoPred,
        "sw_pred.no_ras" => ChainPolicy::SwPred,
        "sw_pred.ras" => ChainPolicy::SwPredDualRas,
        other => return Err(format!("unknown chain policy {other:?}")),
    };
    Ok((by_name(workload, scale).unwrap(), form, chain))
}

/// Every ISA form, in matrix order.
pub const ALL_FORMS: [IsaForm; 2] = [IsaForm::Basic, IsaForm::Modified];

/// Every chain policy, in matrix order.
pub const ALL_CHAINS: [ChainPolicy; 3] = [
    ChainPolicy::NoPred,
    ChainPolicy::SwPred,
    ChainPolicy::SwPredDualRas,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_schema() {
        let mut rep = LintReport::new("vlint");
        rep.scale = 7;
        rep.extra("injections", 12);
        assert!(rep.is_clean());
        rep.fail("wl:basic:no_pred", vec!["bad \"thing\"".to_string()]);
        let json = rep.to_json();
        assert_eq!(
            json,
            "{\"tool\":\"vlint\",\"scale\":7,\"injections\":12,\
             \"failures\":[{\"cell\":\"wl:basic:no_pred\",\
             \"details\":[\"bad \\\"thing\\\"\"]}]}"
        );
    }

    #[test]
    fn cell_spec_round_trips() {
        for form in ALL_FORMS {
            for chain in ALL_CHAINS {
                let spec = cell_spec(NAMES[0], form, chain);
                let (w, f, c) = parse_cell_spec(&spec, 1).unwrap();
                assert_eq!(w.name, NAMES[0]);
                assert_eq!(f, form);
                assert_eq!(c, chain);
            }
        }
    }

    #[test]
    fn bad_cell_specs_are_rejected() {
        assert!(parse_cell_spec("nope", 1).is_err());
        assert!(parse_cell_spec("nope:basic:no_pred", 1).is_err());
        assert!(parse_cell_spec(&format!("{}:weird:no_pred", NAMES[0]), 1).is_err());
        assert!(parse_cell_spec(&format!("{}:basic:weird", NAMES[0]), 1).is_err());
    }
}
