//! The interprocedural rules D006–D008, evaluated over the workspace
//! [`crate::graph::CallGraph`].
//!
//! * **D006 — panic reachability.** No `panic!`-family macro, `unwrap`/
//!   `expect`, or slice/array indexing may be transitively reachable from
//!   the simulator's per-event dispatch (`Simulator::run` /
//!   `Simulator::run_until`) or from the zero-alloc prediction entry
//!   point (`predict_row`). A panic on either path aborts a training or
//!   calibration run mid-stream — the silent corruption the paper's
//!   threshold selection cannot tolerate.
//! * **D007 — unbounded growth.** A type whose event-path methods grow a
//!   `self` field (`insert`/`push`/…) must evict from that same field
//!   somewhere in the type (`remove`/`retain`/`truncate`/…), mirroring
//!   the FloodAgent 60 s / 4096-entry bound; otherwise per-event state
//!   grows without limit over a long run.
//! * **D008 — allocation in the hot predict path.** `Vec::new`,
//!   `to_vec`, `clone`, `format!`, `collect`, … must not be reachable
//!   from the per-row scoring path (`predict_row`, `class_probs_into`,
//!   `score_all`, `score_snapshot`, …): that path is advertised
//!   zero-alloc and the ensemble calls it `L` times per event.
//!
//! The value-lattice rules D009/D010 are emitted here too: [`flow`]
//! runs a small abstract interpretation over each body's op stream
//! (float reductions over parallel results, truncating casts on tracked
//! wide values, and the lock facts the D014 graph consumes) and this
//! layer applies the interprocedural gate — D010 fires only in functions
//! reachable from the panic/predict hot roots.
//!
//! Suppression: `// audit: allow(D006, reason = "...")` at the site (or
//! the line above). For panic sites, an existing `allow(D004, ...)`
//! justification also suppresses D006 — both rules police the same
//! contract and one written reason is enough. For D009, the allow's
//! `reason` doubles as the *documented canonical combine order* the rule
//! demands.

use crate::body::{Bind, Call, CallKind, Op, Shape, Store};
use crate::graph::CallGraph;
use crate::parser::FnDef;
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Qualified roots of the event-dispatch path.
pub const EVENT_ROOTS: [&str; 2] = ["Simulator::run", "Simulator::run_until"];

/// Bare-name roots of the zero-alloc predict/score path.
/// `score_rows_into` is the serving hot loop in `cfa-serve` — a network
/// request must not allocate per row any more than a simulation event.
/// The compiled engine's entry points (`CompiledEnsemble`'s row and
/// structure-of-arrays batch scorers, and the detector's batch router)
/// are held to the same per-row zero-allocation contract as the
/// interpreted walk; they are qualified so the client-side convenience
/// `Client::score_batch` (which builds a wire frame per request) stays
/// out of the hot-path net.
pub const PREDICT_ROOTS: [&str; 13] = [
    "predict_row",
    "prob_of_row",
    "class_probs_into",
    "score_all",
    "score_indices",
    "one_model_score",
    "score_snapshot",
    "score_rows_into",
    "CompiledEnsemble::score_row",
    "CompiledEnsemble::score_batch",
    "score_rows_with",
    // The spatial grid's neighbor query runs once per transmitted frame —
    // the kernel's hottest loop — and must reuse caller scratch, never
    // allocate per query.
    "SpatialGrid::candidates_into",
    // Alarm fan-out runs on the reactor thread for every alarm × every
    // subscriber; it must reuse its frame scratch and never allocate (or
    // block) per event, or a popular model stalls the whole event loop.
    "fanout_alarms",
];

/// Per-file context the interprocedural pass needs back from the lexical
/// pass: the raw source lines (for snippets) and a suppression check.
pub struct FileCtx {
    /// Raw source lines of the file.
    pub lines: Vec<String>,
    /// `(rule, line)` pairs (0-based lines) with a justified allow.
    pub allowed: Vec<(Rule, usize)>,
}

impl FileCtx {
    pub(crate) fn is_allowed(&self, rule: Rule, line0: usize) -> bool {
        self.allowed.iter().any(|&(r, l)| r == rule && l == line0)
    }

    pub(crate) fn snippet(&self, line1: usize) -> String {
        self.lines
            .get(line1.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// A `rule` finding at 1-based `line` of `file`, unless a justified
    /// allow covers it.
    pub(crate) fn finding(
        &self,
        rule: Rule,
        file: &str,
        line: usize,
        note: impl Into<Option<String>>,
    ) -> Option<Finding> {
        (!self.is_allowed(rule, line - 1)).then(|| Finding {
            rule,
            file: file.to_string(),
            line,
            snippet: self.snippet(line),
            note: note.into(),
            severity: rule.severity(),
        })
    }
}

/// Renders a call chain for a finding note, eliding the middle of long
/// chains so messages stay readable.
pub(crate) fn render_chain(chain: &[String]) -> String {
    if chain.len() <= 6 {
        chain.join(" → ")
    } else {
        let head = chain[..3].join(" → ");
        let tail = chain[chain.len() - 2..].join(" → ");
        format!("{head} → … → {tail}")
    }
}

/// A rule site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// What the site is (`unwrap()`, `panic!`, `index []`, `clone()`, …).
    pub what: String,
    /// 1-based source line.
    pub line: usize,
}

/// Methods whose call can panic.
const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Macros that unconditionally (or on failure) panic.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Method calls that allocate.
const ALLOC_METHODS: [&str; 6] = [
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
    "collect",
    "join",
];

/// `Type::fn` pairs that allocate.
const ALLOC_QUALIFIED: [(&str, &str); 7] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("String", "from"),
    ("Box", "new"),
];

/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["format", "vec"];

/// Methods that grow a collection.
const GROW_METHODS: [&str; 7] = [
    "insert",
    "push",
    "push_back",
    "push_front",
    "extend",
    "entry",
    "entry_or_default",
];

/// Methods that shrink or bound a collection.
const EVICT_METHODS: [&str; 13] = [
    "remove",
    "pop",
    "pop_front",
    "pop_back",
    "pop_first",
    "pop_last",
    "clear",
    "retain",
    "truncate",
    "drain",
    "split_off",
    "swap_remove",
    "take",
];

/// The D006 panic site (`panic!` family, `unwrap`/`expect`, indexing) or
/// D008 allocation site (`Vec::new`, `to_vec`, `clone`, `format!`, …)
/// an op is, if any.
pub fn site(op: &Op) -> Option<(Rule, Site)> {
    let (rule, what, line) = match op {
        Op::Index { line, .. } => (Rule::D006, String::from("index []"), *line),
        Op::Call(c) => {
            let n = c.name.as_str();
            let (rule, what) = match &c.kind {
                CallKind::Macro if PANIC_MACROS.contains(&n) => (Rule::D006, format!("{n}!")),
                CallKind::Macro if ALLOC_MACROS.contains(&n) => (Rule::D008, format!("{n}!")),
                CallKind::Method { .. } if PANIC_METHODS.contains(&n) => {
                    (Rule::D006, format!("{n}()"))
                }
                CallKind::Method { .. } if ALLOC_METHODS.contains(&n) => {
                    (Rule::D008, format!("{n}()"))
                }
                CallKind::Qualified { head }
                    if ALLOC_QUALIFIED.iter().any(|&(h, m)| h == head && m == n) =>
                {
                    (Rule::D008, format!("{head}::{n}"))
                }
                _ => return None,
            };
            (rule, what, c.line)
        }
        _ => return None,
    };
    Some((rule, Site { what, line }))
}

/// The `self` field a call grows (`(true, field)`, `self.seen.insert(..)`)
/// or evicts from (`(false, field)`), if any; the field is the dotted path
/// under `self`. `mem::take(&mut self.f)` / `mem::replace(&mut self.f,
/// …)` move the whole field out, so they count as eviction.
pub fn field_op(c: &Call) -> Option<(bool, String)> {
    let name = c.name.as_str();
    match &c.kind {
        CallKind::Method { .. } => {
            let field = c.recv.strip_prefix("self.")?;
            let grows = GROW_METHODS.contains(&name);
            (grows || EVICT_METHODS.contains(&name)).then(|| (grows, field.to_string()))
        }
        CallKind::Qualified { head } if head == "mem" && matches!(name, "take" | "replace") => {
            Some((false, c.self_arg.clone()?))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Value lattice: D009/D010 sites and the D014 lock facts
// ---------------------------------------------------------------------------

/// Abstract value of a local binding. The lattice is deliberately flat:
/// no branches are joined, bindings die at the closing brace of their
/// block, and `drop` kills along all paths — imprecision always errs
/// toward *fewer* findings, never false ones.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    /// Integer constant (literal or two-term fold).
    Const(i128),
    /// Wide integer value; payload is the source type name.
    Wide(String),
    /// `f64`/`f32` value.
    Float,
    /// Ordered results of a parallel fan-out (`map_chunks`, joined
    /// handles).
    Parallel,
    /// A `spawn` join handle (or collection of them).
    Handle,
    /// Loop variable over a `Parallel`/`Handle` collection.
    ParallelElem,
    /// A live lock guard; payload is the lock's identity.
    Guard(String),
    /// Anything else — tracked for shadowing only.
    Other,
}

/// 64/128-bit integer types whose narrowing casts D010 polices.
/// `SimTime` is the simulator's u64 tick wrapper.
const WIDE_TYPES: [&str; 7] = ["u64", "i64", "u128", "i128", "usize", "isize", "SimTime"];

/// `(bits, signed)` of a primitive integer type, with `usize`/`isize`
/// assessed at 64 bits. They can be 32-bit on some deploy targets, but
/// flagging every `u64 → usize` index cast would drown the signal, so
/// only the provable case is held.
fn int_bits(ty: &str) -> Option<(u32, bool)> {
    let bits = match ty.get(1..)? {
        "8" => 8,
        "16" => 16,
        "32" => 32,
        "64" | "size" => 64,
        "128" => 128,
        _ => return None,
    };
    match ty.chars().next()? {
        'u' => Some((bits, false)),
        'i' => Some((bits, true)),
        _ => None,
    }
}

/// Calls never worth recording as guarded work: the lock/condvar
/// machinery itself and poison plumbing.
const GUARD_MACHINERY: [&str; 8] = [
    "lock",
    "wait",
    "notify_one",
    "notify_all",
    "drop",
    "unwrap_or_else",
    "into_inner",
    "unwrap",
];

/// Whether `v` fits in the `bits`-wide (un)signed target.
fn const_fits(v: i128, bits: u32, signed: bool) -> bool {
    if signed {
        v >= -(1i128 << (bits - 1)) && v < (1i128 << (bits - 1))
    } else {
        v >= 0 && (bits >= 127 || v < (1i128 << bits))
    }
}

/// Parses an integer literal token (decimal/hex/octal/binary, `_`
/// separators, type suffix) to its value, if it is one.
fn int_literal(text: &str) -> Option<i128> {
    let t = text.replace('_', "");
    // Strip a type suffix (`u32`, `i64`, `usize`, …).
    let t = match t.find(['u', 'i']) {
        Some(p) if p > 0 && int_bits(&t[p..]).is_some() => &t[..p],
        _ => &t,
    };
    for (prefix, radix) in [("0x", 16), ("0X", 16), ("0o", 8), ("0b", 2)] {
        if let Some(digits) = t.strip_prefix(prefix) {
            return i128::from_str_radix(digits, radix).ok();
        }
    }
    if t.contains(['.', 'e', 'E']) {
        return None;
    }
    t.parse().ok()
}

/// Whether a numeric literal token is a float (`0.5`, `1e-3`, `2f64`).
pub(crate) fn float_literal(text: &str) -> bool {
    text.contains('.')
        || text.ends_with("f64")
        || text.ends_with("f32")
        || (text.contains(['e', 'E']) && !text.starts_with("0x") && !text.starts_with("0X"))
}

/// A wide-integer or float scalar type name's value class.
fn scalar(ty: &str) -> Option<Val> {
    if WIDE_TYPES.contains(&ty) {
        Some(Val::Wide(ty.to_string()))
    } else {
        matches!(ty, "f64" | "f32").then_some(Val::Float)
    }
}

/// Maps a declared type's tokens to an abstract value.
fn type_class(ty: &[String]) -> Val {
    let mut scalars = ty.iter().filter(|t| *t != "&" && *t != "mut");
    if let (Some(t), None) = (scalars.next(), scalars.next()) {
        if let Some(v) = scalar(t) {
            return v;
        }
    }
    if ty.iter().any(|t| t == "JoinHandle") {
        Val::Handle
    } else if ty.iter().any(|t| t == "MutexGuard") {
        // Identity unknown from a type annotation alone.
        Val::Guard(String::from("?"))
    } else {
        Val::Other
    }
}

/// The identity of the lock a `lock` call acquires: the receiver's last
/// field for `shared.queue.lock()`, the argument's last identifier for
/// the free `lock(&shared.queue)` helper, `?` when neither names it.
fn lock_identity(c: &Call) -> String {
    let named = match c.kind {
        CallKind::Method { .. } => c.recv_last(),
        _ => None,
    };
    let named = named.or_else(|| c.args.iter().flatten().last().map(String::as_str));
    named.unwrap_or("?").to_string()
}

/// The value-lattice facts of one body.
#[derive(Debug, Default)]
pub(crate) struct Flow<'a> {
    /// D009: float reductions over parallel/chunked results.
    pub(crate) reductions: Vec<Site>,
    /// D010: truncating casts on tracked wide values.
    pub(crate) casts: Vec<Site>,
    /// D014: every lock acquisition as `(lock, held, line)`, with the
    /// identities of the locks already held, outermost first.
    pub(crate) acquires: Vec<(String, Vec<String>, usize)>,
    /// D014: every call made while a guard is live, with the held-set
    /// and the innermost live guard's binding name.
    pub(crate) guarded: Vec<(&'a Call, Vec<String>, String)>,
}

/// The binding environment: `(name, value, block depth)`, innermost last.
#[derive(Default)]
struct Env(Vec<(String, Val, usize)>);

impl Env {
    fn get(&self, name: &str) -> Option<&Val> {
        self.0.iter().rev().find(|b| b.0 == name).map(|b| &b.1)
    }

    fn bind(&mut self, name: &str, val: Val, depth: usize) {
        self.0.push((name.to_string(), val, depth));
    }

    /// Kills the named binding (a moved-out guard, `drop(g)`).
    fn kill(&mut self, name: &str) {
        if let Some(b) = self.0.iter_mut().rev().find(|b| b.0 == name) {
            b.1 = Val::Other;
        }
    }

    /// Identities of every live guard, outermost first.
    fn held(&self) -> Vec<String> {
        self.0
            .iter()
            .filter_map(|b| match &b.1 {
                Val::Guard(lock) => Some(lock.clone()),
                _ => None,
            })
            .collect()
    }

    /// An integer term of a fold: a literal or a constant binding.
    fn term(&self, t: &str) -> Option<i128> {
        if t.starts_with(|c: char| c.is_ascii_digit()) {
            int_literal(t)
        } else {
            match self.get(t) {
                Some(Val::Const(v)) => Some(*v),
                _ => None,
            }
        }
    }

    /// Classifies a bind's initializer.
    fn classify<'a>(&self, b: &Bind, mut calls: impl Iterator<Item = &'a Call>) -> Val {
        match &b.shape {
            Shape::Lit(t) if float_literal(t) => return Val::Float,
            Shape::Lit(t) => return int_literal(t).map_or(Val::Other, Val::Const),
            Shape::Name(n) => return self.get(n).cloned().unwrap_or(Val::Other),
            Shape::Fold(a, op, c) => {
                let (Some(x), Some(y)) = (self.term(a), self.term(c)) else {
                    return Val::Other;
                };
                let v = match op.as_str() {
                    "+" => x.checked_add(y),
                    "-" => x.checked_sub(y),
                    "*" => x.checked_mul(y),
                    "/" if y != 0 => Some(x / y),
                    "&" => Some(x & y),
                    "|" => Some(x | y),
                    _ => None,
                };
                return v.map_or(Val::Other, Val::Const);
            }
            Shape::As(ty) => {
                if let Some(v) = scalar(ty) {
                    return v;
                }
            }
            Shape::Other => {}
        }
        let mut joins = false;
        let shaped = calls.find_map(|c| {
            joins |= c.name == "join" && c.args.is_empty();
            match c.name.as_str() {
                _ if c.kind == CallKind::Macro => None,
                "map_chunks" => Some(Val::Parallel),
                "spawn" => Some(Val::Handle),
                "lock" => Some(Val::Guard(lock_identity(c))),
                _ => None,
            }
        });
        let head_is_handle = b.head.as_deref().and_then(|h| self.get(h)) == Some(&Val::Handle);
        shaped.unwrap_or(if head_is_handle && joins {
            Val::Parallel
        } else {
            Val::Other
        })
    }
}

/// The D010 note for `operand as target`, when the target cannot hold
/// every value of the operand.
fn truncation(val: Option<&Val>, operand: &str, target: &str) -> Option<String> {
    let (bits, signed) = int_bits(target)?;
    match val? {
        Val::Wide(ty) => {
            let from = if matches!(ty.as_str(), "u128" | "i128") {
                128
            } else {
                64
            };
            (bits < from).then(|| format!("`{operand}` ({ty}) truncated by `as {target}`"))
        }
        Val::Const(v) => (bits < 128 && !const_fits(*v, bits, signed))
            .then(|| format!("constant {v} does not fit `{target}` (`{operand} as {target}`)")),
        _ => None,
    }
}

/// Runs the value lattice over one body's ops.
pub(crate) fn flow(f: &FnDef) -> Flow<'_> {
    let mut env = Env::default();
    for p in &f.params {
        let v = type_class(&p.ty);
        if v != Val::Other {
            env.bind(&p.name, v, 0);
        }
    }
    let calls = |b: &Bind| {
        f.ops[b.init.clone()].iter().filter_map(|op| match op {
            Op::Call(c) => Some(c),
            _ => None,
        })
    };
    let mut out = Flow::default();
    let mut depth = 1usize;
    for op in &f.ops {
        match op {
            Op::Open => depth += 1,
            Op::Close => {
                depth = depth.saturating_sub(1);
                env.0.retain(|b| b.2 <= depth);
            }
            Op::Drop(name) => env.kill(name),
            Op::For { var, head } => {
                if matches!(env.get(head), Some(Val::Parallel | Val::Handle)) {
                    // The loop variable lives in the loop body block.
                    env.bind(var, Val::ParallelElem, depth + 1);
                }
            }
            Op::Cast {
                operand,
                target,
                line,
            } => {
                if let Some(what) = truncation(env.get(operand), operand, target) {
                    out.casts.push(Site { what, line: *line });
                }
            }
            Op::Reduce {
                name,
                head,
                joins,
                line,
            } => {
                let parallel = match env.get(head) {
                    Some(Val::Parallel) => true,
                    Some(Val::Handle) => *joins,
                    _ => false,
                };
                if parallel {
                    out.reductions.push(Site {
                        what: format!("f64 {name}() over `{head}` (parallel fan-out output)"),
                        line: *line,
                    });
                }
            }
            Op::Call(c) if c.kind != CallKind::Macro => {
                if c.name == "lock" {
                    out.acquires.push((lock_identity(c), env.held(), c.line));
                }
                let guard = env.0.iter().rev().find(|b| matches!(b.1, Val::Guard(_)));
                if let (Some(g), false) = (guard, GUARD_MACHINERY.contains(&c.name.as_str())) {
                    out.guarded.push((c, env.held(), g.0.clone()));
                }
            }
            Op::Bind(b) if !b.deref => match b.store {
                Store::Let => {
                    let init = env.classify(b, calls(b));
                    // Annotation beats initializer shape for scalar types;
                    // the initializer wins for call shapes and constants.
                    let val = match (type_class(&b.ty), init) {
                        (Val::Other, init) => init,
                        (
                            _,
                            init @ (Val::Parallel | Val::Handle | Val::Guard(_) | Val::Const(_)),
                        ) => init,
                        (ann, _) => ann,
                    };
                    env.bind(&b.dst, val, depth);
                }
                Store::Set if env.get(&b.dst).is_some() => {
                    // `g = cv.wait(g)` keeps the guard live.
                    let keeps_guard = matches!(env.get(&b.dst), Some(Val::Guard(_)))
                        && calls(b).any(|c| c.name == "wait");
                    if !keeps_guard {
                        let val = env.classify(b, calls(b));
                        env.kill(&b.dst);
                        env.bind(&b.dst, val, depth);
                    }
                }
                Store::Update('+') if env.get(&b.dst) == Some(&Val::Float) => {
                    let from_parallel = b
                        .srcs
                        .iter()
                        .any(|s| matches!(env.get(s), Some(Val::ParallelElem | Val::Parallel)))
                        || calls(b).any(|c| c.name == "join" && c.args.is_empty());
                    if from_parallel {
                        out.reductions.push(Site {
                            what: format!(
                                "float accumulation into `{}` over joined thread results",
                                b.dst
                            ),
                            line: b.line,
                        });
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }
    out
}

/// Runs D006–D010 over the graph. `files` maps workspace-relative paths
/// to their lexical context.
pub fn check(graph: &CallGraph, files: &BTreeMap<String, FileCtx>) -> Vec<Finding> {
    // D006 roots.
    // `handle_conn` is cfa-serve's per-connection request handler: a
    // malformed network frame must never panic a worker, so the whole
    // request-handling path is held to the same standard as the
    // simulator's event path.
    // `score_row`/`score_batch` are the compiled engine's scoring entry
    // points: a malformed row must fail loudly at the asserted width
    // check, never via an unjustified panic site deeper in the walk.
    // `run_fleet` is the corpus-production entry point: it drives whole
    // batches of simulations across worker threads, so any panic it can
    // reach takes the entire fleet down with it.
    // `Reactor::run` is cfa-serve's single event loop: every connection
    // lives in its poll table, so one panic drops the whole fleet of
    // clients at once — nothing reachable from it may panic on network
    // input. `score_job` is the worker-side scoring entry the reactor
    // dispatches to; it is held to the same standard.
    let panic_roots: Vec<&str> = EVENT_ROOTS
        .iter()
        .copied()
        .chain([
            "predict_row",
            "handle_conn",
            "CompiledEnsemble::score_row",
            "CompiledEnsemble::score_batch",
            "run_fleet",
            "Reactor::run",
            "score_job",
        ])
        .collect();
    // D010's gate: a silently-truncating `as` on an id/index/time wide
    // value corrupts data instead of failing; on the panic-policed and
    // predict paths the contract is "fail loudly or prove the range".
    let hot_roots: Vec<&str> = panic_roots.iter().chain(&PREDICT_ROOTS).copied().collect();
    let reach = |roots: &[&str]| graph.reachable(&graph.roots(roots));
    let panic_parent = reach(&panic_roots);
    let event_parent = reach(&EVENT_ROOTS);
    let predict_parent = reach(&PREDICT_ROOTS);
    let hot_parent = reach(&hot_roots);
    // D007 eviction index: (owner type, field) pairs evicted anywhere.
    let mut evicted: BTreeSet<(&str, String)> = BTreeSet::new();
    for f in &graph.fns {
        let Some(owner) = &f.owner else { continue };
        for (_, field) in f.calls().filter_map(field_op).filter(|(grows, _)| !grows) {
            evicted.insert((owner.as_str(), field));
        }
    }

    let mut findings = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        let Some(ctx) = files.get(&f.file).filter(|_| !f.is_test) else {
            continue;
        };
        let chain =
            |parent: &[Option<usize>]| parent[i].map(|_| render_chain(&graph.chain(parent, i)));
        let mut emit = |rule: Rule, line: usize, note: String| {
            findings.extend(ctx.finding(rule, &f.file, line, note));
        };

        // --- D006 panic reachability / D008 allocation in the predict path
        let chains = [chain(&panic_parent), chain(&predict_parent)];
        let sites = f.ops.iter().filter(|_| chains.iter().any(Option::is_some));
        for (rule, site) in sites.filter_map(site) {
            let (chain, note) = match rule {
                Rule::D006 => (&chains[0], "reachable via"),
                _ => (
                    &chains[1],
                    "allocates on the zero-alloc predict path, reachable via",
                ),
            };
            // A justified D004 (hot-path panic contract) allow covers the
            // same site for D006.
            let d004 = rule == Rule::D006 && ctx.is_allowed(Rule::D004, site.line - 1);
            if let (Some(chain), false) = (chain, d004) {
                emit(rule, site.line, format!("{} {note} {chain}", site.what));
            }
        }

        // --- D007: unbounded growth on the event path ------------------
        if let (Some(chain), Some(owner)) = (chain(&event_parent), &f.owner) {
            for c in f.calls() {
                let Some((true, field)) = field_op(c) else {
                    continue;
                };
                if !evicted.contains(&(owner.as_str(), field.clone())) {
                    let note = format!(
                        "{owner}.{field} grows via {}() on the event path ({chain}) but no method of {owner} ever evicts from it",
                        c.name
                    );
                    emit(Rule::D007, c.line, note);
                }
            }
        }

        // --- D009: non-canonical float reduction -----------------------
        // Applied to all non-test code: float addition is
        // non-associative, so the combine order of per-chunk / per-thread
        // partial results is part of the bit-determinism contract. A
        // justified allow is the documentation the rule demands.
        // Only reductions, casts and `+=` stores can yield a lattice site.
        let lattice = f.ops.iter().any(|op| match op {
            Op::Bind(b) => b.store == Store::Update('+'),
            _ => matches!(op, Op::Reduce { .. } | Op::Cast { .. }),
        });
        let fl = if lattice { flow(f) } else { Flow::default() };
        for site in fl.reductions {
            emit(Rule::D009, site.line, format!(
                "{} — float addition is non-associative; the combine order must be documented as thread-count invariant",
                site.what
            ));
        }

        // --- D010: truncating casts on hot paths -----------------------
        if let Some(chain) = chain(&hot_parent) {
            for site in fl.casts {
                let note = format!("{}, reachable via {chain}", site.what);
                emit(Rule::D010, site.line, note);
            }
        }
    }
    findings
}
