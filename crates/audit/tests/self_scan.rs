//! The acceptance gates for the analyzer itself:
//!
//! 1. the shipped workspace is clean **modulo the committed baseline** —
//!    every new violation has been fixed or carries a justified
//!    `audit: allow`, and every grandfathered one is in `baseline.txt`,
//! 2. the seeded fixture tree trips every rule (lexical and
//!    interprocedural), so the scan cannot have silently gone blind, and
//! 3. two scans of the same tree emit byte-identical reports, and the
//!    fixture's JSON report matches its committed golden copy.

use std::path::PathBuf;

use cfa_audit::{
    scan_tree, scan_tree_with_stats_at, to_json, to_sarif, Baseline, Rule, BASELINE_REL_PATH,
};

fn audit_crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    audit_crate_dir().join("../..").canonicalize().unwrap()
}

#[test]
fn shipped_workspace_is_clean_modulo_baseline() {
    let root = workspace_root();
    let findings = scan_tree(&root).unwrap();
    let baseline = Baseline::load(&root.join(BASELINE_REL_PATH));
    let flags = baseline.classify(&findings);
    let fresh: Vec<String> = findings
        .iter()
        .zip(&flags)
        .filter(|&(_, &grandfathered)| !grandfathered)
        .map(|(f, _)| f.to_string())
        .collect();
    assert!(
        fresh.is_empty(),
        "the shipped tree must audit clean modulo baseline.txt; new findings:\n{}",
        fresh.join("\n")
    );
}

#[test]
fn seeded_fixture_trips_every_rule() {
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    for rule in Rule::ALL {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "seeded fixture no longer trips {rule}; findings: {findings:?}"
        );
    }
    // The justified allow in the fixture must still suppress its line.
    assert!(
        !findings
            .iter()
            .any(|f| f.snippet.contains("keys().count()")),
        "allowed-with-reason line was flagged: {findings:?}"
    );
}

#[test]
fn fixture_interprocedural_findings_carry_call_chains() {
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("sim/src/simulator.rs"))
        .expect("fixture D006");
    let note = d006.note.as_deref().unwrap_or("");
    assert!(
        note.contains("Simulator::run") && note.contains("Simulator::dispatch"),
        "D006 note must show the reaching chain, got: {note}"
    );
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("ml/src/model.rs"))
        .expect("fixture D008");
    assert!(
        d008.note.as_deref().unwrap_or("").contains("predict_row"),
        "D008 note must show the predict-path root, got: {:?}",
        d008.note
    );
}

#[test]
fn fixture_serve_request_path_roots_are_live() {
    // The serving roots added with cfa-serve: `handle_conn` seeds D006
    // reachability and `score_rows_into` seeds D008 reachability, so a
    // panic or allocation on the network request path cannot go blind.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("serve/src/handler.rs"))
        .expect("serve fixture D006");
    assert!(
        d006.note.as_deref().unwrap_or("").contains("handle_conn"),
        "serve D006 note must root at handle_conn, got: {:?}",
        d006.note
    );
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("serve/src/handler.rs"))
        .expect("serve fixture D008");
    assert!(
        d008.note
            .as_deref()
            .unwrap_or("")
            .contains("score_rows_into"),
        "serve D008 note must root at score_rows_into, got: {:?}",
        d008.note
    );
}

#[test]
fn fixture_compiled_engine_roots_are_live() {
    // The compiled-engine roots: `CompiledEnsemble::score_batch` (the
    // structure-of-arrays batch entry) and `CompiledEnsemble::score_row`
    // seed D008 and D006 reachability, so an allocation or panic planted
    // on the compiled scoring path is caught.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("ml/src/compiled.rs"))
        .expect("compiled-path fixture D008");
    assert!(
        d008.note
            .as_deref()
            .unwrap_or("")
            .contains("CompiledEnsemble::score"),
        "compiled D008 note must root at a CompiledEnsemble entry, got: {:?}",
        d008.note
    );
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("ml/src/compiled.rs"))
        .expect("compiled-path fixture D006");
    assert!(
        d006.note
            .as_deref()
            .unwrap_or("")
            .contains("CompiledEnsemble::score"),
        "compiled D006 note must root at a CompiledEnsemble entry, got: {:?}",
        d006.note
    );
}

#[test]
fn fixture_grid_and_fleet_roots_are_live() {
    // The kernel scale-up roots: `SpatialGrid::candidates_into` (the
    // per-frame neighbor query) seeds D008 reachability and `run_fleet`
    // (the corpus-production driver) seeds D006 reachability, so an
    // allocation in the grid query or a panic under the fleet driver is
    // caught.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("sim/src/grid.rs"))
        .expect("grid fixture D008");
    assert!(
        d008.note
            .as_deref()
            .unwrap_or("")
            .contains("candidates_into"),
        "grid D008 note must root at candidates_into, got: {:?}",
        d008.note
    );
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("sim/src/grid.rs"))
        .expect("fleet fixture D006");
    assert!(
        d006.note.as_deref().unwrap_or("").contains("run_fleet"),
        "fleet D006 note must root at run_fleet, got: {:?}",
        d006.note
    );
}

#[test]
fn fixture_reactor_fanout_and_registry_roots_are_live() {
    // The fleet front-end roots: `Reactor::run` seeds D006 reachability
    // (a panic in the event loop drops every connection at once),
    // `fanout_alarms` seeds D008 (a per-alarm allocation stalls the
    // loop), and the registry-swap lock pair keeps the D014 cycle check
    // pointed at the name → model map.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d006 = findings
        .iter()
        .find(|f| f.rule == Rule::D006 && f.file.ends_with("serve/src/reactor.rs"))
        .expect("reactor fixture D006");
    assert!(
        d006.note.as_deref().unwrap_or("").contains("Reactor::run"),
        "reactor D006 note must root at Reactor::run, got: {:?}",
        d006.note
    );
    let d008 = findings
        .iter()
        .find(|f| f.rule == Rule::D008 && f.file.ends_with("serve/src/reactor.rs"))
        .expect("fan-out fixture D008");
    assert!(
        d008.note.as_deref().unwrap_or("").contains("fanout_alarms"),
        "fan-out D008 note must root at fanout_alarms, got: {:?}",
        d008.note
    );
    let d014 = findings
        .iter()
        .find(|f| f.rule == Rule::D014 && f.file.ends_with("serve/src/reactor.rs"))
        .expect("registry-swap fixture D014");
    assert!(
        d014.note
            .as_deref()
            .unwrap_or("")
            .contains("lock-order cycle"),
        "registry-swap D014 note must name the cycle, got: {:?}",
        d014.note
    );
}

#[test]
fn fixture_taint_findings_carry_source_to_sink_chains() {
    // The taint layer's findings must read like D006's: the note names
    // the untrusted source and the call chain from source to sink.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d012 = findings
        .iter()
        .find(|f| f.rule == Rule::D012 && f.file.ends_with("serve/src/frame.rs"))
        .expect("taint fixture D012");
    let note = d012.note.as_deref().unwrap_or("");
    assert!(
        note.contains("stream.read_exact")
            && note.contains("read_frame")
            && note.contains("alloc_body"),
        "D012 note must carry the source and the source→sink chain, got: {note}"
    );
    let d013 = findings
        .iter()
        .find(|f| f.rule == Rule::D013 && f.file.ends_with("serve/src/frame.rs"))
        .expect("taint fixture D013");
    assert!(
        d013.note.as_deref().unwrap_or("").contains("stream.read"),
        "D013 note must name the network source, got: {:?}",
        d013.note
    );
}

#[test]
fn fixture_lock_findings_cover_cycle_and_blocking_guard() {
    // Both D014 shapes stay live: the snapshot/retire reverse-order
    // cycle, and the guard relay holds across forward's socket write.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let d014: Vec<&str> = findings
        .iter()
        .filter(|f| f.rule == Rule::D014)
        .filter_map(|f| f.note.as_deref())
        .collect();
    assert!(
        d014.iter().any(|n| n.contains("lock-order cycle")),
        "fixture must trip the D014 lock-order cycle, got: {d014:?}"
    );
    assert!(
        d014.iter()
            .any(|n| n.contains("blocking call") && n.contains("write_all")),
        "fixture must trip the D014 blocking-guard check, got: {d014:?}"
    );
}

#[test]
fn parallel_scan_is_byte_identical_across_thread_counts() {
    // The `map_chunks` contract applied to the analyzer itself: the
    // report bytes must not depend on the scan's thread count.
    let root = workspace_root();
    let baseline = Baseline::load(&root.join(BASELINE_REL_PATH));
    let run = |threads: usize| {
        let (findings, stats) = scan_tree_with_stats_at(&root, threads).unwrap();
        let flags = baseline.classify(&findings);
        (
            to_json(&findings, &flags),
            to_sarif(&findings, &flags),
            stats,
        )
    };
    let (json_1, sarif_1, stats_1) = run(1);
    for threads in [2, 4] {
        let (json_n, sarif_n, stats_n) = run(threads);
        assert_eq!(
            json_1, json_n,
            "JSON report must be byte-identical at {threads} threads"
        );
        assert_eq!(
            sarif_1, sarif_n,
            "SARIF report must be byte-identical at {threads} threads"
        );
        assert_eq!(stats_1, stats_n, "scan stats must not depend on threads");
    }
}

#[test]
fn fixture_findings_are_ordered_and_located() {
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    // Ordering is (file, line, rule): sorted file keys, ascending lines.
    let keys: Vec<(&str, usize)> = findings.iter().map(|f| (f.file.as_str(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "findings must come out in deterministic (file, line) order"
    );
    assert!(findings.iter().all(|f| f.line > 0));
}

#[test]
fn repeated_scans_emit_byte_identical_reports() {
    let root = workspace_root();
    let baseline = Baseline::load(&root.join(BASELINE_REL_PATH));
    let run = || {
        let findings = scan_tree(&root).unwrap();
        let flags = baseline.classify(&findings);
        (to_json(&findings, &flags), to_sarif(&findings, &flags))
    };
    let (json_a, sarif_a) = run();
    let (json_b, sarif_b) = run();
    assert_eq!(json_a, json_b, "JSON report must be byte-deterministic");
    assert_eq!(sarif_a, sarif_b, "SARIF report must be byte-deterministic");
    assert!(sarif_a.contains("\"version\": \"2.1.0\""));
}

#[test]
fn fixture_json_report_matches_the_golden_file() {
    // `cfa-audit --format json crates/audit/fixtures/seeded`, byte for
    // byte. Regenerate the golden file only for a reviewed change to
    // the findings.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    let flags = Baseline::load(&root.join(BASELINE_REL_PATH)).classify(&findings);
    let golden =
        std::fs::read_to_string(audit_crate_dir().join("fixtures/seeded_report.json")).unwrap();
    assert_eq!(to_json(&findings, &flags), golden);
}

#[test]
fn d014_reports_every_retired_d011_site() {
    // D011 (a guard held across direct stream I/O) was folded into D014;
    // every site it reported in the fixture is a D014 finding now.
    let root = audit_crate_dir().join("fixtures/seeded");
    let findings = scan_tree(&root).unwrap();
    // The one site the parent reported as D011, with its note.
    let site = (
        "crates/serve/src/conn.rs",
        9,
        "guard `q` held across write_all() in pump",
    );
    assert!(
        findings.iter().any(|f| f.rule == Rule::D014
            && (f.file.as_str(), f.line, f.note.as_deref().unwrap_or("")) == site),
        "no D014 at {site:?}: {findings:?}"
    );
}
