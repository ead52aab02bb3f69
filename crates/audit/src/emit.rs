//! JSON and SARIF emitters for audit findings — hand-rolled (the crate is
//! dependency-free) and byte-deterministic: no timestamps, no absolute
//! paths, stable ordering everywhere, so two runs over the same tree emit
//! identical bytes and CI can diff or cache them.

use crate::{Finding, Rule, Severity};
use std::fmt::Write as _;

/// Version string stamped into both report formats.
pub const TOOL_VERSION: &str = "5.0.0";

/// Escapes `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

/// Renders findings as the tool's native JSON report. `baselined[i]`
/// says whether `findings[i]` is grandfathered by the baseline file.
pub fn to_json(findings: &[Finding], baselined: &[bool]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"cfa-audit\",\n");
    let _ = writeln!(out, "  \"version\": \"{TOOL_VERSION}\",");
    let new = baselined.iter().filter(|&&b| !b).count();
    let _ = writeln!(
        out,
        "  \"summary\": {{ \"total\": {}, \"new\": {}, \"baselined\": {} }},",
        findings.len(),
        new,
        findings.len() - new
    );
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let _ = write!(
            out,
            "    {{ \"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \"snippet\": \"{}\", \"note\": {}, \"baselined\": {} }}",
            f.rule,
            severity_str(f.severity),
            json_escape(&f.file),
            f.line,
            json_escape(&f.snippet),
            match &f.note {
                Some(n) => format!("\"{}\"", json_escape(n)),
                None => "null".to_string(),
            },
            baselined.get(i).copied().unwrap_or(false),
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders findings as SARIF 2.1.0 for CI code-scanning annotation.
/// Baselined findings keep `baselineState: "unchanged"` and drop to level
/// `note`; new findings are `"new"` at their rule's severity.
pub fn to_sarif(findings: &[Finding], baselined: &[bool]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"cfa-audit\",\n");
    let _ = writeln!(out, "          \"version\": \"{TOOL_VERSION}\",");
    out.push_str("          \"informationUri\": \"https://example.invalid/manet-cfa\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let _ = write!(
            out,
            "            {{ \"id\": \"{}\", \"shortDescription\": {{ \"text\": \"{}\" }}, \"help\": {{ \"text\": \"{}\" }}, \"defaultConfiguration\": {{ \"level\": \"{}\" }} }}",
            rule,
            json_escape(rule.summary()),
            json_escape(rule.hint()),
            severity_str(rule.severity()),
        );
        out.push_str(if i + 1 < Rule::ALL.len() { ",\n" } else { "\n" });
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let is_base = baselined.get(i).copied().unwrap_or(false);
        let level = if is_base {
            "note"
        } else {
            severity_str(f.severity)
        };
        let rule_index = Rule::ALL.iter().position(|r| *r == f.rule).unwrap_or(0);
        let message = match &f.note {
            Some(n) => format!("{}: {} [{}]", f.rule.summary(), f.snippet, n),
            None => format!("{}: {}", f.rule.summary(), f.snippet),
        };
        let _ = write!(
            out,
            "        {{ \"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"{}\", \"baselineState\": \"{}\", \"message\": {{ \"text\": \"{}\" }}, \"locations\": [ {{ \"physicalLocation\": {{ \"artifactLocation\": {{ \"uri\": \"{}\", \"uriBaseId\": \"SRCROOT\" }}, \"region\": {{ \"startLine\": {} }} }} }} ] }}",
            f.rule,
            rule_index,
            level,
            if is_base { "unchanged" } else { "new" },
            json_escape(&message),
            json_escape(&f.file),
            f.line,
        );
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: Rule::D006,
            file: "crates/sim/src/x.rs".into(),
            line: 3,
            snippet: "v[0].unwrap() // \"quoted\"".into(),
            note: Some("unwrap() reachable via Simulator::run".into()),
            severity: Severity::Error,
        }]
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let f = sample();
        let a = to_json(&f, &[false]);
        let b = to_json(&f, &[false]);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"new\": 1"));
    }

    #[test]
    fn sarif_has_schema_rules_and_baseline_state() {
        let f = sample();
        let s = to_sarif(&f, &[true]);
        assert!(s.contains("sarif-2.1.0.json"));
        assert!(s.contains("\"id\": \"D008\""));
        assert!(s.contains("\"baselineState\": \"unchanged\""));
        assert!(s.contains("\"level\": \"note\""));
        let s_new = to_sarif(&f, &[false]);
        assert!(s_new.contains("\"baselineState\": \"new\""));
        assert!(s_new.contains("\"level\": \"error\""));
    }

    #[test]
    fn sarif_is_balanced_json_shape() {
        let s = to_sarif(&sample(), &[false]);
        // Cheap structural sanity: balanced braces/brackets outside strings.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut prev = ' ';
        for c in s.chars() {
            match c {
                '"' if prev != '\\' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            prev = if prev == '\\' && c == '\\' { ' ' } else { c };
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
