//! The `--fix` autofix engine: byte-span patches for the *mechanical*
//! rules, applied in place.
//!
//! | Rule | Rewrite |
//! |------|---------|
//! | D003 | `a == b` on floats → `(a).to_bits() == (b).to_bits()` — exact bit identity, no behavior change for the non-NaN values the workspace compares |
//! | D005 | bare `#[allow(...)]` → same-line justification template for a human to fill in |
//! | D010 | `x as u32` on a tracked wide value → `u32::try_from(x).expect(..)` plus a justified `allow(D004)` (which also covers D006) — silent truncation becomes a loud failure |
//!
//! Only *simple* operand shapes are rewritten — a plain identifier, a
//! dotted field chain, or a literal — so a patch never duplicates a
//! side-effecting expression. Everything else is left for a human.
//!
//! The engine is **idempotent and re-scan-clean by construction**: every
//! rewrite removes the pattern its rule matches (and suppresses any rule
//! the rewrite would newly trip, e.g. the `expect` a D010 fix
//! introduces), so a second `--fix` run finds nothing to do and a
//! re-scan reports none of the mechanical rules.

use std::collections::BTreeMap;
use std::path::Path;

use crate::body::Cursor;
use crate::lexer::{lex, Token, TokenKind};
use crate::{Finding, Rule};

/// One byte-span replacement inside a file.
struct Patch {
    /// Byte offset of the first replaced byte.
    start: usize,
    /// Byte offset one past the last replaced byte.
    end: usize,
    /// Replacement text.
    replacement: String,
}

/// What `apply_fixes` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FixOutcome {
    /// Number of individual patches applied.
    pub applied: usize,
    /// Number of files rewritten.
    pub files: usize,
}

/// Applies the mechanical fixes for `findings` to the tree rooted at
/// `root` (the same root the findings were scanned from, so the
/// workspace-relative `Finding::file` paths resolve). Returns how many
/// patches landed; findings whose shape is not mechanically fixable are
/// skipped.
pub fn apply_fixes(root: &Path, findings: &[Finding]) -> std::io::Result<FixOutcome> {
    let mut by_file: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        if matches!(f.rule, Rule::D003 | Rule::D005 | Rule::D010) {
            by_file.entry(f.file.as_str()).or_default().push(f);
        }
    }
    let mut outcome = FixOutcome::default();
    for (file, file_findings) in by_file {
        let path = root.join(file);
        let src = std::fs::read_to_string(&path)?;
        let toks: Vec<Token> = lex(&src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect();
        let c = Cursor {
            src: &src,
            toks: &toks,
        };
        let mut patches: Vec<Patch> = Vec::new();
        for f in &file_findings {
            match f.rule {
                Rule::D003 => fix_d003(c, f.line, &mut patches),
                Rule::D005 => fix_d005(&src, f.line, &mut patches),
                Rule::D010 => fix_d010(c, f, &mut patches),
                _ => {}
            }
        }
        if patches.is_empty() {
            continue;
        }
        // Apply back-to-front so earlier offsets stay valid; drop any
        // patch overlapping one already applied.
        patches.sort_by(|a, b| b.start.cmp(&a.start).then(b.end.cmp(&a.end)));
        let mut out = src.clone();
        let mut low = usize::MAX;
        let mut applied_here = 0usize;
        for p in patches {
            if p.end > low {
                continue;
            }
            out.replace_range(p.start..p.end, &p.replacement);
            low = p.start;
            applied_here += 1;
        }
        if applied_here > 0 {
            std::fs::write(&path, out)?;
            outcome.applied += applied_here;
            outcome.files += 1;
        }
    }
    Ok(outcome)
}

/// Byte offset one past the last content byte of 1-based `line` (i.e.
/// where a trailing comment would be inserted).
fn line_end_offset(src: &str, line: usize) -> Option<usize> {
    let mut start = 0;
    for (n, text) in src.split_inclusive('\n').enumerate() {
        if n + 1 == line {
            return Some(start + text.trim_end_matches('\n').len());
        }
        start += text.len();
    }
    None
}

/// Walks a simple operand chain *backwards* from `i` (exclusive): a
/// dotted identifier chain (`self.cfg.threshold`, `score`) or a single
/// numeric literal. Returns the index of its first token, or `None` when
/// the preceding expression is not simple.
fn chain_start(c: Cursor<'_>, i: usize) -> Option<usize> {
    let mut j = i.checked_sub(1)?;
    if c.toks[j].kind == TokenKind::Num {
        return Some(j);
    }
    while c.is_ident(j) {
        match j.checked_sub(1) {
            Some(dot) if c.is_punct(dot, ".") => j = dot.checked_sub(1)?,
            // A `*`/`&`/call shape in front means the operand is not a
            // plain chain — refuse to fix.
            Some(p) if ["*", "&", ")", "]"].iter().any(|s| c.is_punct(p, s)) => return None,
            _ => return Some(j),
        }
    }
    None
}

/// Walks a simple operand chain *forwards* from `i` (inclusive); returns
/// the index one past its last token.
fn chain_end(c: Cursor<'_>, i: usize) -> Option<usize> {
    if c.toks.get(i)?.kind == TokenKind::Num {
        return Some(i + 1);
    }
    let mut j = i;
    while c.is_ident(j) {
        if !c.is_punct(j + 1, ".") {
            // A following `(` makes it a call — not a simple chain.
            return (!c.is_punct(j + 1, "(")).then_some(j + 1);
        }
        j += 2;
    }
    None
}

/// D003: rewrites a float `==`/`!=` on `line` to a `to_bits()` identity
/// comparison when both operands are simple chains or literals. The
/// lexer emits `==`/`!=` as two adjacent punct tokens (`=`+`=`, `!`+`=`)
/// — matched here by byte adjacency.
fn fix_d003(c: Cursor<'_>, line: usize, patches: &mut Vec<Patch>) {
    for (i, t) in c.toks.iter().enumerate() {
        let op = if c.is_punct(i, "=") { "==" } else { "!=" };
        if t.line != line
            || !(c.is_punct(i, "=") || c.is_punct(i, "!"))
            || !c.is_punct(i + 1, "=")
            || c.toks[i + 1].start != t.end
        {
            continue;
        }
        let (Some(lhs_start), Some(rhs_end)) = (chain_start(c, i), chain_end(c, i + 2)) else {
            continue;
        };
        let lhs = &c.src[c.toks[lhs_start].start..c.toks[i - 1].end];
        let rhs = &c.src[c.toks[i + 2].start..c.toks[rhs_end - 1].end];
        patches.push(Patch {
            start: c.toks[lhs_start].start,
            end: c.toks[rhs_end - 1].end,
            replacement: format!("({lhs}).to_bits() {op} ({rhs}).to_bits()"),
        });
        return;
    }
}

/// D005: appends the justification template to the bare `#[allow(...)]`
/// line — any same-line comment satisfies the rule, and the template
/// tells a human what to write.
fn fix_d005(src: &str, line: usize, patches: &mut Vec<Patch>) {
    let Some(at) = line_end_offset(src, line) else {
        return;
    };
    patches.push(Patch {
        start: at,
        end: at,
        replacement: " // TODO(audit): justify this allow or remove it".to_string(),
    });
}

/// D010: rewrites `x as u32` to `u32::try_from(x).expect(..)` for the
/// operand/target named in the finding note, and appends a justified
/// `allow(D004)` so the introduced `expect` (a *deliberate*, loud
/// failure) does not itself trip the panic rules on re-scan.
fn fix_d010(c: Cursor<'_>, f: &Finding, patches: &mut Vec<Patch>) {
    // The note reads "`raw` (u64) truncated by `as u16`, …". Constant
    // overflows ("constant N does not fit …") are real bugs, not
    // mechanical rewrites — left to a human.
    let note = f.note.as_deref().unwrap_or("");
    if !note.contains("truncated by") {
        return;
    }
    let mut ticks = note.split('`');
    let operand = match (ticks.next(), ticks.next()) {
        (Some(_), Some(op)) => op,
        _ => return,
    };
    for (i, t) in c.toks.iter().enumerate() {
        let Some(op_at) = i.checked_sub(1) else {
            continue;
        };
        if t.line != f.line
            || !c.is_word(i, "as")
            || !c.is_word(op_at, operand)
            || !c.is_ident(i + 1)
        {
            continue;
        }
        let target = c.text(i + 1);
        patches.push(Patch {
            start: c.toks[op_at].start,
            end: c.toks[i + 1].end,
            replacement: format!(
                "{target}::try_from({operand}).expect(\"audit(D010): {operand} out of {target} range\")"
            ),
        });
        if let Some(eol) = line_end_offset(c.src, f.line) {
            patches.push(Patch {
                start: eol,
                end: eol,
                replacement: format!(
                    " // audit: allow(D004, reason = \"checked narrowing introduced by --fix; out-of-range {operand} is corrupt input and must fail loudly\")"
                ),
            });
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_source;

    fn lex_code(src: &str) -> Vec<Token> {
        lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .collect()
    }

    fn apply(src: &str, patches: Vec<Patch>) -> String {
        let mut out = src.to_string();
        let mut sorted = patches;
        sorted.sort_by_key(|p| std::cmp::Reverse(p.start));
        for p in sorted {
            out.replace_range(p.start..p.end, &p.replacement);
        }
        out
    }

    #[test]
    fn d003_simple_identifiers_become_to_bits() {
        let src = "fn f(score: f64, threshold: f64) -> bool { score == threshold }\n";
        let toks = lex_code(src);
        let mut patches = Vec::new();
        fix_d003(Cursor { src, toks: &toks }, 1, &mut patches);
        let fixed = apply(src, patches);
        assert!(
            fixed.contains("(score).to_bits() == (threshold).to_bits()"),
            "{fixed}"
        );
        // Re-scan: the mechanical rule is clean after the fix.
        assert!(scan_source("crates/sim/src/fixture.rs", &fixed).is_empty());
    }

    #[test]
    fn d003_dotted_chain_and_literal() {
        let src = "fn f(s: &S) -> bool { s.cfg.threshold != 0.5 }\n";
        let toks = lex_code(src);
        let mut patches = Vec::new();
        fix_d003(Cursor { src, toks: &toks }, 1, &mut patches);
        let fixed = apply(src, patches);
        assert!(
            fixed.contains("(s.cfg.threshold).to_bits() != (0.5).to_bits()"),
            "{fixed}"
        );
    }

    #[test]
    fn d003_refuses_side_effecting_operands() {
        let src = "fn f(v: &[f64]) -> bool { v.iter().sum::<f64>() == 1.0 }\n";
        let toks = lex_code(src);
        let mut patches = Vec::new();
        fix_d003(Cursor { src, toks: &toks }, 1, &mut patches);
        assert!(patches.is_empty(), "call operands must not be rewritten");
    }

    #[test]
    fn d005_appends_justification_template() {
        let src = "#[allow(dead_code)]\nfn f() {}\n";
        let mut patches = Vec::new();
        fix_d005(src, 1, &mut patches);
        let fixed = apply(src, patches);
        assert!(fixed.starts_with("#[allow(dead_code)] // TODO(audit):"));
        // The same-line comment satisfies D005 on re-scan.
        assert!(scan_source("crates/ml/src/fixture.rs", &fixed).is_empty());
    }

    #[test]
    fn d010_rewrites_to_checked_conversion() {
        let src = "fn slot(raw: u64) -> u16 {\n    raw as u16\n}\n";
        let toks = lex_code(src);
        let f = Finding {
            rule: Rule::D010,
            file: "crates/sim/src/x.rs".into(),
            line: 2,
            snippet: "raw as u16".into(),
            note: Some("`raw` (u64) truncated by `as u16`, reachable via run_fleet".into()),
            severity: Rule::D010.severity(),
        };
        let mut patches = Vec::new();
        fix_d010(Cursor { src, toks: &toks }, &f, &mut patches);
        let fixed = apply(src, patches);
        assert!(
            fixed.contains("u16::try_from(raw).expect(\"audit(D010): raw out of u16 range\")"),
            "{fixed}"
        );
        assert!(
            fixed.contains("audit: allow(D004"),
            "the introduced expect must carry its own justification: {fixed}"
        );
    }

    #[test]
    fn d010_skips_constant_overflow_notes() {
        let src = "fn f() -> u8 {\n    let cap = 256;\n    cap as u8\n}\n";
        let toks = lex_code(src);
        let f = Finding {
            rule: Rule::D010,
            file: "x.rs".into(),
            line: 3,
            snippet: "cap as u8".into(),
            note: Some("constant 256 does not fit `u8` (`cap as u8`)".into()),
            severity: Rule::D010.severity(),
        };
        let mut patches = Vec::new();
        fix_d010(Cursor { src, toks: &toks }, &f, &mut patches);
        assert!(
            patches.is_empty(),
            "constant overflow is a bug, not a rewrite"
        );
    }
}
