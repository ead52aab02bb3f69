//! The taint layer — rules D012–D014.
//!
//! Untrusted input enters this workspace at exactly three kinds of
//! places: bytes read off a `TcpStream` in `crates/serve`, CLI arguments
//! and scenario files in `cfa-bench`, and the fleet driver's scenario
//! parsing under `src/`. A length or index derived from those bytes must
//! pass a *sanitizer* — a dominating comparison against a cap, a
//! `try_into`/`checked_*` conversion, or construction of a validated
//! newtype like `FrameLen` — before it may size an allocation (D012) or
//! index a slice / feed wrapping arithmetic (D013).
//!
//! The fixpoint in [`check`] reads each function's op stream (see
//! [`body`](crate::body)): binds carry the identifiers their initializers
//! read, conditions carry their bound checks, and calls carry
//! per-argument identifier lists. Taint propagates through the workspace
//! call graph — argument → parameter binding, return values, and
//! `read(&mut buf)`-style out-parameters — using the same conservative
//! resolution as D006 ([`CallGraph::resolve`]). Findings carry the full
//! source → sink call chain, like D006 panic-reachability notes.
//!
//! D014 is the lock-discipline half. From the lock facts of
//! `interproc::flow` — every acquisition with
//! the identities already held, every call made under a live guard —
//! this layer builds the lock-acquisition-order graph over
//! `crates/serve` and flags any acquisition that closes a cycle (the
//! classic AB/BA deadlock), and any guard held across a blocking socket
//! call (`accept`/`read`/`write` family), made directly or through a
//! chain of calls.
//!
//! Suppression: `// audit: allow(D012, reason = "...")` at the sink (or
//! the line above), same as every other rule.

use crate::body::{Call, CallKind, Op, Store};
use crate::graph::CallGraph;
use crate::interproc::{flow, render_chain, FileCtx};
use crate::parser::FnDef;
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Read-family methods whose `&mut` argument is filled with untrusted
/// bytes when called in a source crate.
const READ_FILL_METHODS: [&str; 5] = [
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
];

/// Methods/functions whose numeric argument sizes an allocation.
const ALLOC_SIZE_METHODS: [&str; 6] = [
    "with_capacity",
    "reserve",
    "reserve_exact",
    "resize",
    "resize_with",
    "set_len",
];

/// Method calls that block on a socket. Consulted only for the serving
/// crate, where `read`/`write`/`accept` receivers are streams and
/// listeners.
const BLOCKING_METHODS: [&str; 12] = [
    "write_all",
    "read_exact",
    "flush",
    "read_to_end",
    "read_to_string",
    "write_fmt",
    "write_vectored",
    "read",
    "write",
    "accept",
    "incoming",
    "connect",
];

/// Whether a call blocks on a socket.
fn blocking(c: &Call) -> bool {
    matches!(c.kind, CallKind::Method { .. }) && BLOCKING_METHODS.contains(&c.name.as_str())
}

/// Validated-newtype constructors that launder taint by construction.
/// `FrameLen::parse` rejects any length over the frame cap, so a value
/// that came through it is bounded.
const SANITIZER_TYPES: [&str; 1] = ["FrameLen"];

/// Whether sources are seeded in `rel`: only the serving crate, the
/// bench crate, and the fleet driver under `src/` receive untrusted
/// input by design — the audit tool's own file reads must not taint
/// themselves.
fn seeds(rel: &str) -> bool {
    rel.starts_with("crates/serve/") || rel.starts_with("crates/bench/") || rel.starts_with("src/")
}

/// The direct untrusted-input source a call is, if any (`env::args()`,
/// `fs::read_to_string(..)`).
fn source(c: &Call) -> Option<String> {
    let CallKind::Qualified { head } = &c.kind else {
        return None;
    };
    let name = c.name.as_str();
    let hit = (head == "env" && matches!(name, "args" | "args_os" | "var" | "var_os"))
        || (head == "fs" && matches!(name, "read" | "read_to_string"));
    hit.then(|| format!("{head}::{name}()"))
}

/// Whether a call sanitizes the value it produces: `try_into`/`try_from`,
/// `checked_*` arithmetic, `.min(cap)`/`clamp`, and validated-newtype
/// constructors (`FrameLen::…`).
fn sanitizes(c: &Call) -> bool {
    let name = c.name.as_str();
    matches!(name, "try_into" | "try_from" | "clamp")
        || name.starts_with("checked_")
        || (name == "min" && matches!(c.kind, CallKind::Method { .. }))
        || matches!(&c.kind, CallKind::Qualified { head } if SANITIZER_TYPES.contains(&head.as_str()))
}

/// The sinks a call feeds, with the identifiers feeding each: allocation
/// sizes (D012, including `vec![init; len]`) and wrapping/unchecked
/// arithmetic (D013).
fn call_sinks(c: &Call) -> Vec<(Rule, String, Vec<String>)> {
    let mut out = Vec::new();
    let what = || format!("{}()", c.name);
    let args = || c.args.iter().flatten().cloned();
    if ALLOC_SIZE_METHODS.contains(&c.name.as_str()) {
        out.push((Rule::D012, what(), args().collect::<Vec<_>>()));
    }
    if let (CallKind::Macro, "vec", [_, len]) = (&c.kind, c.name.as_str(), &c.args[..]) {
        out.push((Rule::D012, String::from("vec![_; n]"), len.clone()));
    }
    let method = matches!(c.kind, CallKind::Method { .. });
    if method && (c.name.starts_with("wrapping_") || c.name.starts_with("unchecked_")) {
        let mut names: Vec<String> = args().collect();
        if let Some(recv) = c.recv_last().filter(|r| *r != "self") {
            if !names.iter().any(|n| n == recv) {
                names.push(recv.to_string());
            }
        }
        out.push((Rule::D013, what(), names));
    }
    out.retain(|(_, _, names)| !names.is_empty());
    out
}

// ---------------------------------------------------------------------------
// Interprocedural fixpoint
// ---------------------------------------------------------------------------

/// Where a tainted value came from: source description plus the call
/// chain walked so far (qualified fn names, source first).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Prov {
    desc: String,
    path: Vec<String>,
}

impl Prov {
    /// Extends the chain through `q`, skipping consecutive duplicates.
    fn via(&self, q: &str) -> Prov {
        let mut p = self.clone();
        if p.path.last().map(String::as_str) != Some(q) {
            p.path.push(q.to_string());
        }
        p
    }
}

/// Monotone interprocedural state, indexed by fn id.
struct State {
    /// Tainted parameter positions, seeded by callers.
    tainted: Vec<BTreeMap<usize, Prov>>,
    /// Taint of the return value.
    ret: Vec<Option<Prov>>,
    /// Parameter positions the fn taints in the *caller* (out-params).
    out: Vec<BTreeMap<usize, Prov>>,
}

/// One tainted value reaching a sink during an eval pass.
struct SinkHit {
    rule: Rule,
    what: String,
    line: usize,
    name: String,
    prov: Prov,
}

struct EvalOut {
    env: BTreeMap<String, Prov>,
    hits: Vec<SinkHit>,
    arg_out: Vec<(usize, usize, Prov)>,
    ret: Option<Prov>,
}

/// Abstract-interprets one function's op stream for taint. Two passes
/// over the ops catch loop-carried taint; hits and outward flows are
/// collected from the second (stable) pass only. `seeded` controls
/// whether the fn's own tainted-parameter state enters the environment —
/// the unseeded run isolates what the fn taints *by itself* (sources + callee
/// out-params), which is what callers may conclude about by-ref
/// arguments without cross-caller contamination.
fn eval(graph: &CallGraph, i: usize, st: &State, seeded: bool) -> EvalOut {
    let f = &graph.fns[i];
    let targets = &graph.targets[i];
    let q = f.qualified();
    let mut env: BTreeMap<String, Prov> = BTreeMap::new();
    if seeded {
        for (pos, prov) in &st.tainted[i] {
            if let Some(p) = f.params.get(*pos) {
                env.entry(p.name.clone()).or_insert_with(|| prov.clone());
            }
        }
    }
    let mut hits: Vec<SinkHit> = Vec::new();
    let mut arg_out: Vec<(usize, usize, Prov)> = Vec::new();
    let mut ret: Option<Prov> = None;

    let seed = seeds(&f.file);
    let fresh = |desc: String| Prov {
        desc,
        path: vec![q.clone()],
    };
    for pass in 0..2 {
        let collect = pass == 1;
        for (k, op) in f.ops.iter().enumerate() {
            let mut sinks = Vec::new();
            match op {
                Op::Check(names) => {
                    for n in names {
                        env.remove(n);
                    }
                }
                Op::Bind(b) => {
                    let calls = || {
                        b.init.clone().filter_map(|k| match &f.ops[k] {
                            Op::Call(c) => Some((k, c)),
                            _ => None,
                        })
                    };
                    if calls().any(|(_, c)| sanitizes(c)) {
                        env.remove(&b.dst);
                        continue;
                    }
                    if let Some(desc) = seed.then(|| calls().find_map(|(_, c)| source(c))).flatten()
                    {
                        env.entry(b.dst.clone()).or_insert_with(|| fresh(desc));
                        continue;
                    }
                    let compound = matches!(b.store, Store::Update(_));
                    let mut prov = b
                        .srcs
                        .iter()
                        .chain(compound.then_some(&b.dst))
                        .find_map(|s| env.get(s).cloned());
                    if prov.is_none() {
                        prov = calls().find_map(|(c, _)| {
                            targets
                                .get(c)
                                .and_then(|ts| ts.iter().find_map(|&t| st.ret[t].clone()))
                                .map(|p| p.via(&q))
                        });
                    }
                    match prov {
                        Some(p) => {
                            env.entry(b.dst.clone()).or_insert(p);
                        }
                        None => {
                            env.remove(&b.dst);
                        }
                    }
                }
                // Of the macros, only `vec![_; n]` feeds taint.
                Op::Call(c) if c.kind != CallKind::Macro || c.name == "vec" => {
                    if seed
                        && matches!(c.kind, CallKind::Method { .. })
                        && READ_FILL_METHODS.contains(&c.name.as_str())
                    {
                        let recv = c.recv_last().unwrap_or("stream");
                        for dst in c.args.iter().flatten() {
                            env.entry(dst.clone()).or_insert_with(|| {
                                fresh(format!("bytes filled by `{recv}.{}()`", c.name))
                            });
                        }
                    }
                    if collect {
                        for (rule, what, names) in call_sinks(c) {
                            sinks.push((rule, what, names, c.line));
                        }
                    }
                    if let Some(ts) = targets.get(k).filter(|ts| !ts.is_empty()) {
                        if collect {
                            for (pos, arg) in c.args.iter().enumerate() {
                                if let Some(prov) = arg.iter().find_map(|a| env.get(a)) {
                                    for &t in ts {
                                        arg_out.push((t, pos, prov.clone()));
                                    }
                                }
                            }
                        }
                        for &t in ts {
                            for (pos, prov) in &st.out[t] {
                                for a in c.args.get(*pos).into_iter().flatten() {
                                    env.entry(a.clone()).or_insert_with(|| prov.via(&q));
                                }
                            }
                        }
                    }
                }
                Op::Index { names, line } if collect && !names.is_empty() => {
                    sinks.push((Rule::D013, String::from("index []"), names.clone(), *line));
                }
                Op::Return(names) if collect && ret.is_none() => {
                    ret = names.iter().find_map(|n| env.get(n).cloned());
                }
                _ => {}
            }
            for (rule, what, names, line) in sinks {
                if let Some((n, prov)) = names.iter().find_map(|n| env.get(n).map(|p| (n, p))) {
                    hits.push(SinkHit {
                        rule,
                        what,
                        line,
                        name: n.clone(),
                        prov: prov.clone(),
                    });
                }
            }
        }
    }
    EvalOut {
        env,
        hits,
        arg_out,
        ret,
    }
}

/// Runs the taint fixpoint and D012/D013 emission, then the D014 lock
/// rules. `files` maps workspace-relative paths to lexical context.
pub fn check(graph: &CallGraph, files: &BTreeMap<String, FileCtx>) -> Vec<Finding> {
    let n = graph.fns.len();
    let mut st = State {
        tainted: vec![BTreeMap::new(); n],
        ret: vec![None; n],
        out: vec![BTreeMap::new(); n],
    };
    for _round in 0..24 {
        let mut changed = false;
        for i in 0..n {
            if graph.fns[i].is_test {
                continue;
            }
            let out = eval(graph, i, &st, true);
            for (t, pos, prov) in out.arg_out {
                if graph.fns[t].is_test || pos >= graph.fns[t].params.len() {
                    continue;
                }
                st.tainted[t].entry(pos).or_insert_with(|| {
                    changed = true;
                    prov.via(&graph.fns[t].qualified())
                });
            }
            if st.ret[i].is_none() {
                if let Some(p) = out.ret {
                    st.ret[i] = Some(p);
                    changed = true;
                }
            }
            let o2 = eval(graph, i, &st, false);
            for (pos, p) in graph.fns[i].params.iter().enumerate() {
                if let Some(prov) = o2.env.get(&p.name) {
                    st.out[i].entry(pos).or_insert_with(|| {
                        changed = true;
                        prov.clone()
                    });
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut findings = Vec::new();
    for i in 0..n {
        let f = &graph.fns[i];
        if f.is_test {
            continue;
        }
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        let out = eval(graph, i, &st, true);
        let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
        for h in out.hits {
            if !seen.insert((h.line, h.what.clone())) {
                continue;
            }
            let rule = h.rule;
            let mut chain = h.prov.path.clone();
            let q = f.qualified();
            if chain.last() != Some(&q) {
                chain.push(q);
            }
            let note = format!(
                "`{}` carries {} into {} without a dominating bound check, via {}",
                h.name,
                h.prov.desc,
                h.what,
                render_chain(&chain)
            );
            findings.extend(ctx.finding(rule, &f.file, h.line, note));
        }
    }
    findings.extend(lock_rules(graph, files));
    findings
}

// ---------------------------------------------------------------------------
// D014: lock-order cycles and guards held across blocking calls
// ---------------------------------------------------------------------------

/// True for a usable lock identity (the value lattice records `?` when it
/// cannot name the lock).
fn named(l: &str) -> bool {
    l != "?"
}

/// Builds the serve-crate lock rules.
fn lock_rules(graph: &CallGraph, files: &BTreeMap<String, FileCtx>) -> Vec<Finding> {
    let n = graph.fns.len();
    let in_serve = |f: &FnDef| !f.is_test && f.file.starts_with("crates/serve/");
    let flows: Vec<_> = graph
        .fns
        .iter()
        .map(|f| in_serve(f).then(|| flow(f)))
        .collect();
    let acquires = |i: usize| flows[i].iter().flat_map(|fl| &fl.acquires);
    let guarded = |i: usize| flows[i].iter().flat_map(|fl| &fl.guarded);

    // --- transitive "does this fn block?", seeded at direct socket I/O
    // sites in the serving crate and propagated caller-ward.
    let mut blocks: Vec<Option<String>> = graph
        .fns
        .iter()
        .map(|f| {
            let direct = f.calls().find(|c| blocking(c)).filter(|_| in_serve(f));
            direct.map(|c| format!("{}()", c.name))
        })
        .collect();
    for _ in 0..n.min(24) {
        let mut changed = false;
        for i in 0..n {
            if blocks[i].is_some() || graph.fns[i].is_test {
                continue;
            }
            let hit = graph.edges[i]
                .iter()
                .find_map(|&c| blocks[c].as_ref().map(|d| (c, d.clone())));
            if let Some((c, d)) = hit {
                blocks[i] = Some(format!("{} → {}", graph.fns[c].qualified(), d));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // --- transitive "which locks can this fn acquire?".
    let mut acq: Vec<BTreeSet<String>> = (0..n)
        .map(|i| {
            acquires(i)
                .map(|a| a.0.clone())
                .filter(|l| named(l))
                .collect()
        })
        .collect();
    for _ in 0..n.min(24) {
        let mut changed = false;
        for i in 0..n {
            if graph.fns[i].is_test {
                continue;
            }
            let mut add: Vec<String> = Vec::new();
            for &c in &graph.edges[i] {
                for l in &acq[c] {
                    if !acq[i].contains(l) {
                        add.push(l.clone());
                    }
                }
            }
            if !add.is_empty() {
                acq[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // --- the lock-acquisition-order graph: an edge `h → l` means `l` was
    // (or can be, through a guarded call) acquired while `h` was held.
    struct AcqSite {
        from: String,
        to: String,
        fn_idx: usize,
        line: usize,
        via: Option<usize>,
    }
    let acq = &acq;
    let mut sites: Vec<AcqSite> = Vec::new();
    for i in 0..n {
        // Direct acquisitions, then the locks each guarded call can take.
        let direct = acquires(i).map(|(lock, held, line)| (held, *line, None, vec![lock.clone()]));
        let called = guarded(i).flat_map(|(g, held, _)| {
            let targets = graph.resolve(i, &g.name, &g.kind).into_iter();
            targets.map(move |t| (held, g.line, Some(t), acq[t].iter().cloned().collect()))
        });
        for (held, line, via, locks) in direct.chain(called) {
            for to in locks.iter().filter(|l| named(l)) {
                for from in held.iter().filter(|h| named(h)) {
                    let (from, to) = (from.clone(), to.clone());
                    sites.push(AcqSite {
                        from,
                        to,
                        fn_idx: i,
                        line,
                        via,
                    });
                }
            }
        }
    }
    let mut order: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for s in &sites {
        order
            .entry(s.from.clone())
            .or_default()
            .insert(s.to.clone());
    }

    let mut findings = Vec::new();
    let mut emitted: BTreeSet<(String, usize, String)> = BTreeSet::new();

    // Cycle check: acquiring `to` while holding `from` deadlocks if some
    // other path acquires `from` while holding `to` (transitively).
    for s in &sites {
        if !reaches(&order, &s.to, &s.from) {
            continue;
        }
        let f = &graph.fns[s.fn_idx];
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        let how = match s.via {
            Some(t) => format!("via {}", graph.fns[t].qualified()),
            None => String::from("directly"),
        };
        let key = (f.file.clone(), s.line, format!("cycle:{}:{}", s.from, s.to));
        if !emitted.insert(key) {
            continue;
        }
        let note = format!(
            "{} acquires `{}` while holding `{}` ({how}) — the reverse order is also taken, closing a lock-order cycle",
            f.qualified(),
            s.to,
            s.from,
        );
        findings.extend(ctx.finding(Rule::D014, &f.file, s.line, note));
    }

    // Guard held across blocking socket I/O: a call made directly, or one
    // that transitively blocks.
    for (i, f) in graph.fns.iter().enumerate() {
        let Some(ctx) = files.get(&f.file) else {
            continue;
        };
        for (g, held, guard) in guarded(i) {
            if blocking(g) {
                let note = format!(
                    "guard `{guard}` held across {}() in {}",
                    g.name,
                    f.qualified()
                );
                findings.extend(ctx.finding(Rule::D014, &f.file, g.line, note));
            }
            let Some(h) = held.iter().find(|h| named(h)) else {
                continue;
            };
            for t in graph.resolve(i, &g.name, &g.kind) {
                let Some(d) = &blocks[t] else { continue };
                let key = (f.file.clone(), g.line, format!("block:{h}"));
                if !emitted.insert(key) {
                    continue;
                }
                let note = format!(
                    "guard on `{h}` held across a blocking call: {} → {d}",
                    graph.fns[t].qualified(),
                );
                findings.extend(ctx.finding(Rule::D014, &f.file, g.line, note));
                break;
            }
        }
    }

    findings
}

/// Is `to` reachable from `from` in the lock-order graph?
fn reaches(order: &BTreeMap<String, BTreeSet<String>>, from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&str> = vec![from];
    while let Some(u) = stack.pop() {
        if !seen.insert(u) {
            continue;
        }
        if let Some(next) = order.get(u) {
            for v in next {
                if v == to {
                    return true;
                }
                stack.push(v);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn ops_of(rel: &str, src: &str) -> Vec<Op> {
        parse_file(rel, src, &lex(src), false).remove(0).ops
    }

    fn calls(ops: &[Op]) -> impl Iterator<Item = &Call> {
        ops.iter().filter_map(|op| match op {
            Op::Call(c) => Some(c),
            _ => None,
        })
    }

    #[test]
    fn read_fill_taints_buffer_and_reaches_index_sink() {
        let ops = ops_of(
            "crates/serve/src/x.rs",
            "fn f(stream: &mut TcpStream, buf: &mut [u8], table: &[u8]) -> u8 {\n\
                 stream.read(&mut buf[..]).ok();\n\
                 let n = buf[0] as usize;\n\
                 table[n]\n\
             }\n",
        );
        let read = calls(&ops).find(|c| c.name == "read").expect("read call");
        assert!(READ_FILL_METHODS.contains(&read.name.as_str()));
        assert_eq!(read.recv, "stream");
        assert!(read.args.iter().flatten().any(|a| a == "buf"));
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Index { names, .. } if names == &["n".to_string()])));
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Return(names) if names.contains(&"n".into()))));
    }

    #[test]
    fn comparison_in_condition_emits_checks() {
        let ops = ops_of(
            "crates/serve/src/x.rs",
            "fn f(len: usize) -> usize {\n\
                 if len > MAX {\n\
                     return 0;\n\
                 }\n\
                 len\n\
             }\n",
        );
        assert!(ops
            .iter()
            .any(|o| matches!(o, Op::Check(names) if names.contains(&"len".into()))));
    }

    #[test]
    fn sanitizer_marks_assign() {
        let ops = ops_of(
            "crates/serve/src/x.rs",
            "fn f(len: usize) {\n\
                 let capped = len.min(64);\n\
                 let raw = len + 1;\n\
                 scratch.reserve(capped);\n\
             }\n",
        );
        let sanitized: Vec<bool> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Bind(b) => Some(calls(&ops[b.init.clone()]).any(sanitizes)),
                _ => None,
            })
            .collect();
        assert_eq!(sanitized, vec![true, false]);
        assert!(calls(&ops)
            .flat_map(call_sinks)
            .any(|(rule, _, names)| rule == Rule::D012 && names == ["capped"]));
    }

    #[test]
    fn env_args_is_a_source_only_in_seeded_paths() {
        let src = "fn f() { let a = std::env::args().count(); }\n";
        let ops = ops_of("crates/serve/src/x.rs", src);
        assert_eq!(calls(&ops).find_map(source).as_deref(), Some("env::args()"));
        assert!(seeds("crates/serve/src/x.rs"));
        assert!(!seeds("crates/audit/src/x.rs"));
    }

    #[test]
    fn interprocedural_chain_reaches_alloc_sink() {
        // read() taints buf in `recv`; the derived length flows through
        // `frame_len` into `alloc_for`, whose with_capacity is the sink.
        let src = "\
            fn recv(stream: &mut TcpStream) -> usize {\n\
                let mut hdr = [0u8; 4];\n\
                stream.read_exact(&mut hdr).ok();\n\
                let len = frame_len(hdr);\n\
                alloc_for(len)\n\
            }\n\
            fn frame_len(hdr: [u8; 4]) -> usize {\n\
                let n = u32::from_le_bytes(hdr);\n\
                let out = n as usize;\n\
                out\n\
            }\n\
            fn alloc_for(len: usize) -> usize {\n\
                let v: Vec<u8> = Vec::with_capacity(len);\n\
                v.capacity()\n\
            }\n";
        let fns = parse_file("crates/serve/src/x.rs", src, &lex(src), false);
        let graph = CallGraph::build(fns);
        let mut files = BTreeMap::new();
        files.insert(
            "crates/serve/src/x.rs".to_string(),
            FileCtx {
                lines: src.lines().map(String::from).collect(),
                allowed: Vec::new(),
            },
        );
        let findings = check(&graph, &files);
        let d012: Vec<&Finding> = findings.iter().filter(|f| f.rule == Rule::D012).collect();
        assert_eq!(d012.len(), 1, "{findings:?}");
        let note = d012[0].note.as_deref().unwrap();
        assert!(note.contains("recv"), "{note}");
        assert!(note.contains("alloc_for"), "{note}");
    }

    #[test]
    fn bound_check_clears_taint() {
        let src = "\
            fn recv(stream: &mut TcpStream) -> usize {\n\
                let mut hdr = [0u8; 4];\n\
                stream.read_exact(&mut hdr).ok();\n\
                let len = hdr[0] as usize;\n\
                if len > 64 {\n\
                    return 0;\n\
                }\n\
                let v: Vec<u8> = Vec::with_capacity(len);\n\
                v.capacity()\n\
            }\n";
        let fns = parse_file("crates/serve/src/x.rs", src, &lex(src), false);
        let graph = CallGraph::build(fns);
        let mut files = BTreeMap::new();
        files.insert(
            "crates/serve/src/x.rs".to_string(),
            FileCtx {
                lines: src.lines().map(String::from).collect(),
                allowed: Vec::new(),
            },
        );
        let findings = check(&graph, &files);
        // The hdr[0] read itself is an index into locally-tainted hdr —
        // the with_capacity must NOT fire after the check.
        assert!(
            !findings.iter().any(|f| f.rule == Rule::D012),
            "{findings:?}"
        );
    }

    #[test]
    fn lock_cycle_and_blocking_guard_are_flagged() {
        let src = "\
            impl S {\n\
                fn ab(&self) {\n\
                    let ga = self.a.lock().unwrap();\n\
                    let gb = self.b.lock().unwrap();\n\
                    drop(gb);\n\
                    drop(ga);\n\
                }\n\
                fn ba(&self) {\n\
                    let gb = self.b.lock().unwrap();\n\
                    let ga = self.a.lock().unwrap();\n\
                    drop(ga);\n\
                    drop(gb);\n\
                }\n\
                fn pump(&self, stream: &mut TcpStream) {\n\
                    let g = self.a.lock().unwrap();\n\
                    self.relay(stream);\n\
                    drop(g);\n\
                }\n\
                fn relay(&self, stream: &mut TcpStream) {\n\
                    let mut b = [0u8; 8];\n\
                    stream.read_exact(&mut b).ok();\n\
                }\n\
            }\n";
        let fns = parse_file("crates/serve/src/x.rs", src, &lex(src), false);
        let graph = CallGraph::build(fns);
        let mut files = BTreeMap::new();
        files.insert(
            "crates/serve/src/x.rs".to_string(),
            FileCtx {
                lines: src.lines().map(String::from).collect(),
                allowed: Vec::new(),
            },
        );
        let findings = lock_rules(&graph, &files);
        let notes: Vec<&str> = findings.iter().filter_map(|f| f.note.as_deref()).collect();
        assert!(
            notes.iter().any(|n| n.contains("lock-order cycle")),
            "{notes:?}"
        );
        assert!(
            notes
                .iter()
                .any(|n| n.contains("held across a blocking call")),
            "{notes:?}"
        );
    }

    #[test]
    fn taint_decisions_are_file_order_independent() {
        let a = "fn alloc_for(len: usize) { let v: Vec<u8> = Vec::with_capacity(len); v.capacity(); }\n";
        let b = "fn recv(stream: &mut TcpStream) {\n\
                     let mut hdr = [0u8; 4];\n\
                     stream.read_exact(&mut hdr).ok();\n\
                     let len = hdr[0] as usize;\n\
                     alloc_for(len);\n\
                 }\n";
        let order1 = {
            let mut fns = parse_file("crates/serve/src/a.rs", a, &lex(a), false);
            fns.extend(parse_file("crates/serve/src/b.rs", b, &lex(b), false));
            fns
        };
        let order2 = {
            let mut fns = parse_file("crates/serve/src/b.rs", b, &lex(b), false);
            fns.extend(parse_file("crates/serve/src/a.rs", a, &lex(a), false));
            fns
        };
        let mut files = BTreeMap::new();
        for (rel, src) in [("crates/serve/src/a.rs", a), ("crates/serve/src/b.rs", b)] {
            files.insert(
                rel.to_string(),
                FileCtx {
                    lines: src.lines().map(String::from).collect(),
                    allowed: Vec::new(),
                },
            );
        }
        let key = |fs: Vec<Finding>| -> Vec<(String, String, usize)> {
            let mut k: Vec<_> = fs
                .into_iter()
                .map(|f| (f.rule.id().to_string(), f.file, f.line))
                .collect();
            k.sort();
            k
        };
        let f1 = key(check(&CallGraph::build(order1), &files));
        let f2 = key(check(&CallGraph::build(order2), &files));
        assert_eq!(f1, f2);
        assert!(!f1.is_empty(), "the D012 sink must fire in both orders");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn random_source_to_sink_chains_decide_deterministically(
            hops in 0usize..3,
            sink_kind in 0usize..3,
            sanitized in proptest::bool::ANY,
            san_slot in 0usize..5,
        ) {
            // Synthesize a chain of single-function "crates": f0 reads
            // untrusted bytes, f1..f_hops pass the value along with a
            // little arithmetic, and the last function spends it in a
            // randomly chosen sink. Optionally one function on the chain
            // bound-checks the value first.
            let last = hops + 1;
            let san_pos = sanitized.then(|| san_slot % (last + 1));
            let guard = |pos: usize| -> &'static str {
                if san_pos == Some(pos) {
                    "    if v > 4096 { return; }\n"
                } else {
                    ""
                }
            };
            let mut files: Vec<(String, String)> = Vec::new();
            let mut src0 = String::from(
                "fn f0(stream: &mut TcpStream) {\n\
                 \x20   let mut hdr = [0u8; 4];\n\
                 \x20   stream.read_exact(&mut hdr).ok();\n\
                 \x20   let v = hdr[0] as usize;\n",
            );
            src0.push_str(guard(0));
            src0.push_str("    f1(v);\n}\n");
            files.push(("crates/serve/src/g0.rs".to_string(), src0));
            for i in 1..=hops {
                let mut s = format!("fn f{i}(v: usize) {{\n");
                s.push_str(guard(i));
                s.push_str(&format!("    let w = v + {i};\n    f{}(w);\n}}\n", i + 1));
                files.push((format!("crates/serve/src/g{i}.rs"), s));
            }
            let mut sink_src = format!("fn f{last}(v: usize) {{\n");
            sink_src.push_str(guard(last));
            sink_src.push_str(match sink_kind {
                0 => "    let buf: Vec<u8> = Vec::with_capacity(v);\n    buf.capacity();\n",
                1 => "    let table = [0u8; 8];\n    table[v];\n",
                _ => "    v.wrapping_mul(3);\n",
            });
            sink_src.push_str("}\n");
            files.push((format!("crates/serve/src/g{last}.rs"), sink_src));

            let mut ctxs = BTreeMap::new();
            for (rel, src) in &files {
                ctxs.insert(
                    rel.clone(),
                    FileCtx {
                        lines: src.lines().map(String::from).collect(),
                        allowed: Vec::new(),
                    },
                );
            }
            let parse_all = |order: &[&(String, String)]| {
                let mut fns = Vec::new();
                for (rel, src) in order {
                    fns.extend(parse_file(rel, src, &lex(src), false));
                }
                fns
            };
            let key = |fs: Vec<Finding>| -> Vec<(String, String, usize)> {
                let mut k: Vec<_> = fs
                    .into_iter()
                    .map(|f| (f.rule.id().to_string(), f.file, f.line))
                    .collect();
                k.sort();
                k
            };
            let fwd: Vec<&(String, String)> = files.iter().collect();
            let rev: Vec<&(String, String)> = files.iter().rev().collect();
            let k_fwd = key(check(&CallGraph::build(parse_all(&fwd)), &ctxs));
            let k_fwd2 = key(check(&CallGraph::build(parse_all(&fwd)), &ctxs));
            let k_rev = key(check(&CallGraph::build(parse_all(&rev)), &ctxs));
            prop_assert_eq!(&k_fwd, &k_fwd2, "same inputs must decide identically");
            prop_assert_eq!(&k_fwd, &k_rev, "file order must not change taint decisions");

            let expect = if sink_kind == 0 { "D012" } else { "D013" };
            if san_pos.is_some() {
                prop_assert!(
                    k_fwd.is_empty(),
                    "a dominating bound check anywhere on the chain clears the sink; got {:?}",
                    k_fwd
                );
            } else {
                prop_assert!(
                    k_fwd.iter().any(|(rule, _, _)| rule == expect),
                    "unchecked chain of {} hops must reach the {} sink; got {:?}",
                    hops,
                    expect,
                    k_fwd
                );
            }
        }
    }
}
