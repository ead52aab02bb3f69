//! `cfa-audit` — scan the workspace for determinism violations.
//!
//! Usage:
//!
//! ```text
//! cargo run -p cfa-audit                        # scan the workspace, text report
//! cargo run -p cfa-audit -- <path>              # scan another tree (e.g. a fixture)
//! cargo run -p cfa-audit -- --format sarif      # SARIF 2.1.0 to stdout
//! cargo run -p cfa-audit -- --format json       # native JSON report
//! cargo run -p cfa-audit -- --update-baseline   # rewrite crates/audit/baseline.txt
//! cargo run -p cfa-audit -- --no-baseline       # strict: ignore the baseline
//! cargo run -p cfa-audit -- --rules             # print the rule table
//! cargo run -p cfa-audit -- <path> --fix        # apply mechanical fixes in place
//! ```
//!
//! The scan runs on every core; the report is byte-identical at any
//! thread count.
//!
//! `--fix` rewrites the mechanical rules (D003 float equality →
//! `to_bits()`, D005 bare allow → justification template, D010
//! truncating cast → checked `try_from`) for *non-baselined* findings
//! and is idempotent: a second run applies nothing.
//!
//! Findings are checked against the committed baseline
//! (`crates/audit/baseline.txt` under the scanned root, or `--baseline
//! <path>`): grandfathered findings are reported at note level, anything
//! new fails the run. Exits non-zero iff at least one non-baselined
//! finding survives its allow annotations, so CI can gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

use cfa_audit::{
    apply_fixes, scan_tree_with_stats_at, to_json, to_sarif, Baseline, Rule, BASELINE_REL_PATH,
};

fn workspace_root() -> PathBuf {
    // crates/audit/ -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cfa-audit [<root>] [--format text|json|sarif] [--baseline <path>] \
         [--no-baseline] [--update-baseline] [--rules] [--fix]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut update_baseline = false;
    let mut fix = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules" => {
                for rule in Rule::ALL {
                    println!("{rule}  {}", rule.summary());
                    println!("      fix: {}", rule.hint());
                }
                return ExitCode::SUCCESS;
            }
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                _ => return usage(),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--no-baseline" => no_baseline = true,
            "--update-baseline" => update_baseline = true,
            "--fix" => fix = true,
            flag if flag.starts_with("--") => return usage(),
            path => {
                if root.replace(PathBuf::from(path)).is_some() {
                    return usage();
                }
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    // Reports are byte-identical for every thread count (the
    // `map_chunks` contract), so the scan uses all cores.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // audit: allow(D002, reason = "measures the scan's own wall time for the stderr footer; never feeds scoring or simulation")
    let scan_started = std::time::Instant::now();
    let (findings, stats) = match scan_tree_with_stats_at(&root, threads) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cfa-audit: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    // Stderr, so the stdout report stays byte-identical across runs.
    eprintln!(
        "cfa-audit: scanned {} files / {} lines / {} functions in {:.0} ms",
        stats.files,
        stats.lines,
        stats.functions,
        scan_started.elapsed().as_secs_f64() * 1000.0
    );

    let baseline_path = baseline_path.unwrap_or_else(|| root.join(BASELINE_REL_PATH));
    if update_baseline {
        let text = Baseline::render(&findings);
        if let Err(e) = std::fs::write(&baseline_path, &text) {
            eprintln!("cfa-audit: cannot write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "cfa-audit: baseline updated — {} finding{} grandfathered at {}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if no_baseline {
        Baseline::default()
    } else {
        Baseline::load(&baseline_path)
    };
    let baselined = baseline.classify(&findings);
    let new = baselined.iter().filter(|&&b| !b).count();

    if fix {
        // Fix only non-baselined findings: grandfathered sites burn down
        // through deliberate review, not bulk rewrites.
        let fixable: Vec<_> = findings
            .iter()
            .zip(&baselined)
            .filter(|&(_, &is_base)| !is_base)
            .map(|(f, _)| f.clone())
            .collect();
        match apply_fixes(&root, &fixable) {
            Ok(outcome) => {
                println!(
                    "cfa-audit: applied {} fix{} across {} file{}",
                    outcome.applied,
                    if outcome.applied == 1 { "" } else { "es" },
                    outcome.files,
                    if outcome.files == 1 { "" } else { "s" },
                );
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("cfa-audit: --fix failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match format {
        Format::Json => print!("{}", to_json(&findings, &baselined)),
        Format::Sarif => print!("{}", to_sarif(&findings, &baselined)),
        Format::Text => {
            if findings.is_empty() {
                println!("cfa-audit: clean ({} rules, no findings)", Rule::ALL.len());
            } else {
                for (f, &is_base) in findings.iter().zip(&baselined) {
                    if is_base {
                        println!("{f} [baselined]");
                    } else {
                        println!("{f}");
                        println!("    fix: {}", f.rule.hint());
                    }
                }
                println!(
                    "cfa-audit: {} finding{} ({} new, {} baselined) — see `cargo run -p cfa-audit -- --rules`",
                    findings.len(),
                    if findings.len() == 1 { "" } else { "s" },
                    new,
                    findings.len() - new,
                );
            }
        }
    }

    if new == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
