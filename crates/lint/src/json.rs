//! Machine-readable output for `orpheus-lint --json`.
//!
//! The schema is pinned by `tests/cli.rs::json_output_matches_schema`,
//! which parses this output back with `obs::json`:
//!
//! ```json
//! {
//!   "schema": "orpheus-lint/1",
//!   "files_scanned": 42,
//!   "findings": [
//!     {"path": "crates/x/src/a.rs", "line": 7, "rule": "L001", "msg": "…"}
//!   ]
//! }
//! ```
//!
//! Findings are already sorted by `(path, line, rule)` by
//! `lint_sources`, so the output is stable across runs.

use crate::FileFinding;
use obs::json::Json;

/// Current schema identifier; bump the suffix on breaking changes.
pub const SCHEMA: &str = "orpheus-lint/1";

/// Render the report document.
pub fn render(findings: &[FileFinding], files_scanned: usize) -> String {
    let findings: Vec<String> = findings
        .iter()
        .map(|f| {
            object(&[
                ("path", string(&f.path)),
                ("line", f.finding.line.to_string()),
                ("rule", string(f.finding.rule.id())),
                ("msg", string(&f.finding.msg)),
            ])
        })
        .collect();
    let doc = object(&[
        ("schema", string(SCHEMA)),
        ("files_scanned", files_scanned.to_string()),
        ("findings", format!("[{}]", findings.join(","))),
    ]);
    doc + "\n"
}

/// A JSON string literal, escaped by `obs::json`.
fn string(s: &str) -> String {
    Json::Str(s.to_owned()).to_string()
}

/// A compact object of rendered values, keys in the schema's order (a
/// `Json::Obj` would sort them).
fn object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}:{value}", string(key)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Rule};

    #[test]
    fn renders_escaped_and_ordered() {
        let findings = vec![FileFinding {
            path: "crates/x/src/a.rs".into(),
            finding: Finding {
                line: 3,
                rule: Rule::L001,
                msg: "has a \"quote\"".into(),
            },
        }];
        let doc = render(&findings, 7);
        assert!(doc.contains("\"schema\":\"orpheus-lint/1\""));
        assert!(doc.contains("\"files_scanned\":7"));
        assert!(doc.contains("\"rule\":\"L001\""));
        assert!(doc.contains("has a \\\"quote\\\""));
    }

    #[test]
    fn empty_report_is_valid() {
        assert_eq!(
            render(&[], 0),
            "{\"schema\":\"orpheus-lint/1\",\"files_scanned\":0,\"findings\":[]}\n"
        );
    }
}
