//! The workspace call graph: name-based resolution of the call ops the
//! [`body`](crate::body) walker lowered, plus deterministic reachability.
//!
//! Resolution policy (conservative, zero type inference):
//!
//! * **Free calls** `name(...)` resolve to free functions only — same
//!   module first, then same file, then same crate, then workspace-wide.
//!   A method of the same name never captures a free call (shadowing
//!   stays sound).
//! * **Direct self calls** `self.name(...)` resolve to the method of the
//!   enclosing impl/trait type when one exists; otherwise they fall back
//!   to every method of that name (trait default methods live on the
//!   trait type).
//! * **Other method calls** `recv.name(...)` resolve to *every* workspace
//!   method named `name` — the conservative answer for trait-object and
//!   generic dispatch (`Box<dyn App>`, `A: Agent`).
//! * **Qualified calls** `Head::name(...)` resolve to `Head`'s method if
//!   the workspace defines one, else to free functions named `name`
//!   (module-qualified paths like `helpers::score`).
//! * **Downstream workspaces** (`perfbench/`, which depends on this
//!   workspace) never supply callees to code outside them.
//!
//! Calls that resolve to nothing are std/vendored-API calls and simply
//! add no edges. Edges are deduplicated and sorted, and BFS visits in
//! index order, so reachability and the recorded shortest call chains are
//! byte-for-byte reproducible run to run.

use crate::body::{CallKind, Op};
use crate::parser::FnDef;
use std::collections::BTreeMap;

/// The resolved workspace call graph over all parsed functions.
pub struct CallGraph {
    /// The parsed functions, in file-then-source order.
    pub fns: Vec<FnDef>,
    /// `edges[i]` = sorted, deduplicated callee indices of `fns[i]`.
    pub edges: Vec<Vec<usize>>,
    /// `targets[i][k]` = candidate callees of the op `fns[i].ops[k]`
    /// (empty unless it is a resolved call).
    pub targets: Vec<Vec<Vec<usize>>>,
    /// Free functions by bare name (non-test only).
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by bare name (non-test only).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by `(owner, name)` (non-test only).
    methods_by_owner: BTreeMap<(String, String), Vec<usize>>,
}

/// Separate cargo workspaces inside the tree that depend on the main
/// one (the benchmark harness): no main-workspace code can call into
/// them, so their functions are never callees of functions outside them.
const DOWNSTREAM_ROOTS: [&str; 1] = ["perfbench/"];

/// Strips a workspace-relative path to its crate root (`crates/sim/` or
/// `src/`), the granularity used for same-crate resolution preferences.
fn crate_root(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        match rest.find('/') {
            Some(end) => rel.get(..7 + end + 1).unwrap_or(rel),
            None => rel,
        }
    } else {
        match rel.find('/') {
            Some(end) => rel.get(..end + 1).unwrap_or(rel),
            None => rel,
        }
    }
}

impl CallGraph {
    /// Builds the graph from parsed functions. Test functions participate
    /// as callees only if a non-test function actually names them — roots
    /// and rule reporting both exclude them downstream.
    pub fn build(fns: Vec<FnDef>) -> CallGraph {
        // Lookup indexes, retained for per-call-site resolution by the
        // taint layer. BTreeMap: lookups only, but ordered anyway so
        // that no future iteration can introduce nondeterminism.
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut methods_by_owner: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            if f.is_test {
                continue; // never resolve *into* test code
            }
            match &f.owner {
                None => free_by_name.entry(f.name.clone()).or_default().push(i),
                Some(o) => {
                    methods_by_name.entry(f.name.clone()).or_default().push(i);
                    methods_by_owner
                        .entry((o.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                }
            }
        }
        let mut g = CallGraph {
            fns,
            edges: Vec::new(),
            targets: Vec::new(),
            free_by_name,
            methods_by_name,
            methods_by_owner,
        };
        for (i, f) in g.fns.iter().enumerate() {
            let targets: Vec<Vec<usize>> = (f.ops.iter())
                .map(|op| match op {
                    Op::Call(c) => g.resolve(i, &c.name, &c.kind),
                    _ => Vec::new(),
                })
                .collect();
            let mut out: Vec<usize> = targets.iter().flatten().copied().collect();
            out.sort_unstable();
            out.dedup();
            g.edges.push(out);
            g.targets.push(targets);
        }
        g
    }

    /// Resolves one call site in `fns[caller]` to its candidate callee
    /// indices under the module/impl-scoped policy documented above.
    pub fn resolve(&self, caller: usize, name: &str, kind: &CallKind) -> Vec<usize> {
        let Some(f) = self.fns.get(caller) else {
            return Vec::new();
        };
        let mut out = match kind {
            CallKind::Free => {
                let Some(cands) = self.free_by_name.get(name) else {
                    return Vec::new();
                };
                // Narrow by proximity: same module+file, then same file,
                // then same crate, then anywhere.
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| self.fns.get(c).is_some_and(|g| g.file == f.file))
                    .collect();
                let same_mod: Vec<usize> = same_file
                    .iter()
                    .copied()
                    .filter(|&c| self.fns.get(c).is_some_and(|g| g.module == f.module))
                    .collect();
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&c| {
                        self.fns
                            .get(c)
                            .is_some_and(|g| crate_root(&g.file) == crate_root(&f.file))
                    })
                    .collect();
                if !same_mod.is_empty() {
                    same_mod
                } else if !same_file.is_empty() {
                    same_file
                } else if !same_crate.is_empty() {
                    same_crate
                } else {
                    cands.clone()
                }
            }
            CallKind::Method { on_self } => {
                let scoped = f
                    .owner
                    .clone()
                    .filter(|_| *on_self)
                    .and_then(|o| self.methods_by_owner.get(&(o, name.to_string())));
                match scoped {
                    Some(ms) => ms.clone(),
                    None => self.methods_by_name.get(name).cloned().unwrap_or_default(),
                }
            }
            CallKind::Qualified { head } => {
                if let Some(ms) = self.methods_by_owner.get(&(head.clone(), name.to_string())) {
                    ms.clone()
                } else if let Some(cands) = self.free_by_name.get(name) {
                    // Module-qualified free call (`helpers::f()`): accept
                    // free fns whose module path ends with the head
                    // segment, or any when head is a crate-ish qualifier.
                    let crate_ish = matches!(head.as_str(), "crate" | "self" | "super");
                    cands
                        .iter()
                        .copied()
                        .filter(|&c| {
                            crate_ish
                                || self.fns.get(c).is_some_and(|g| {
                                    g.module.last().map(String::as_str) == Some(head)
                                })
                        })
                        .collect()
                } else {
                    Vec::new()
                }
            }
            CallKind::Macro => Vec::new(),
        };
        let downstream = |file: &str| DOWNSTREAM_ROOTS.iter().find(|r| file.starts_with(**r));
        let own = downstream(&f.file);
        out.retain(|&c| {
            let theirs = self.fns.get(c).and_then(|g| downstream(&g.file));
            theirs.is_none_or(|r| Some(r) == own)
        });
        out
    }

    /// Indices of non-test functions whose qualified name ends with any of
    /// `suffixes` (`"Simulator::run"`) or whose bare name equals a suffix
    /// without `::` (`"predict_row"`).
    pub fn roots(&self, suffixes: &[&str]) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test)
            .filter(|(_, f)| {
                suffixes.iter().any(|s| {
                    if s.contains("::") {
                        let q = f.qualified();
                        q == *s || q.ends_with(&format!("::{s}"))
                    } else {
                        f.name == *s
                    }
                })
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS from `roots`: returns, for each function index, `Some(parent)`
    /// if reachable (`parent == usize::MAX` for a root). Cycles (mutual
    /// recursion) terminate because visited nodes are never re-enqueued.
    pub fn reachable(&self, roots: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for r in sorted_roots {
            if let Some(slot @ None) = parent.get_mut(r) {
                *slot = Some(usize::MAX);
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            let callees = self.edges.get(u).map(Vec::as_slice).unwrap_or(&[]);
            for &v in callees {
                if self.fns.get(v).is_some_and(|f| f.is_test) {
                    continue;
                }
                if let Some(slot @ None) = parent.get_mut(v) {
                    *slot = Some(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// The discovery chain of `idx` back to its BFS root, as qualified
    /// names root-first (capped so messages stay readable).
    pub fn chain(&self, parent: &[Option<usize>], idx: usize) -> Vec<String> {
        let mut rev = Vec::new();
        let mut cur = idx;
        for _ in 0..64 {
            let Some(f) = self.fns.get(cur) else {
                break;
            };
            rev.push(f.qualified());
            match parent.get(cur) {
                Some(Some(p)) if *p != usize::MAX => cur = *p,
                _ => break,
            }
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let mut fns = Vec::new();
        for (rel, src) in files {
            fns.extend(parse_file(rel, src, &crate::lexer::lex(src), false));
        }
        CallGraph::build(fns)
    }

    fn idx(g: &CallGraph, q: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.qualified() == q)
            .unwrap_or_else(|| panic!("no fn {q}"))
    }

    #[test]
    fn mutual_recursion_terminates_and_reaches_both() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); }\nfn main_like() { ping(); }\n",
        )]);
        let roots = g.roots(&["main_like"]);
        let parent = g.reachable(&roots);
        assert!(parent[idx(&g, "ping")].is_some());
        assert!(parent[idx(&g, "pong")].is_some());
    }

    #[test]
    fn cross_crate_method_edges() {
        let g = graph_of(&[
            (
                "crates/sim/src/simulator.rs",
                "impl Simulator { fn run(&mut self) { self.agent.on_packet(1); } }\n",
            ),
            (
                "crates/routing/src/agent.rs",
                "impl FloodAgent { fn on_packet(&mut self, x: u32) { self.table[0]; } }\n",
            ),
        ]);
        let parent = g.reachable(&g.roots(&["Simulator::run"]));
        assert!(
            parent[idx(&g, "FloodAgent::on_packet")].is_some(),
            "conservative dispatch must cross crates"
        );
    }

    #[test]
    fn shadowed_free_fn_beats_method_of_same_name() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn score() {}\n\
             impl Model { fn score(&self) { dangerous(); } }\n\
             fn dangerous() { Some(1).unwrap(); }\n\
             fn root() { score(); }\n",
        )]);
        let parent = g.reachable(&g.roots(&["root"]));
        // The bare call resolves to the free fn, not Model::score.
        assert!(parent[idx(&g, "score")].is_some());
        assert!(parent[idx(&g, "Model::score")].is_none());
        assert!(parent[idx(&g, "dangerous")].is_none());
    }

    #[test]
    fn self_calls_prefer_the_enclosing_impl() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) { Some(1).unwrap(); } }\n",
        )]);
        let parent = g.reachable(&g.roots(&["A::go"]));
        assert!(parent[idx(&g, "A::step")].is_some());
        assert!(parent[idx(&g, "B::step")].is_none());
    }

    #[test]
    fn free_calls_prefer_same_module_then_same_crate() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "fn helper() {}\nfn root() { helper(); }\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() { loop {} }\n"),
        ]);
        let parent = g.reachable(&g.roots(&["root"]));
        let a_helper = g
            .fns
            .iter()
            .position(|f| f.file.starts_with("crates/a/") && f.name == "helper")
            .unwrap();
        let b_helper = g
            .fns
            .iter()
            .position(|f| f.file.starts_with("crates/b/") && f.name == "helper")
            .unwrap();
        assert!(parent[a_helper].is_some());
        assert!(parent[b_helper].is_none());
    }

    #[test]
    fn test_fns_are_not_resolution_targets() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn root() { helper(); }\n#[cfg(test)]\nmod tests { fn helper() {} }\n",
        )]);
        let parent = g.reachable(&g.roots(&["root"]));
        let t = idx(&g, "tests::helper");
        assert!(parent[t].is_none());
    }

    #[test]
    fn chains_walk_back_to_the_root() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let parent = g.reachable(&g.roots(&["a"]));
        assert_eq!(g.chain(&parent, idx(&g, "c")), vec!["a", "b", "c"]);
    }

    #[test]
    fn downstream_workspace_methods_are_not_callees_of_the_main_tree() {
        // `f64::max` in the traffic crate must not resolve to the
        // benchmark harness's `Tracer::max`: perfbench depends on the
        // workspace, never the other way round.
        let g = graph_of(&[
            (
                "crates/traffic/src/cbr.rs",
                "impl CbrSource { fn start(&mut self, a: f64) -> f64 { a.max(0.0) } }\n",
            ),
            (
                "perfbench/src/trace.rs",
                "impl Tracer { fn max(&mut self) { self.counters.entry(1); } \
                 fn report(&mut self) { self.max(); } }\n",
            ),
        ]);
        let parent = g.reachable(&g.roots(&["CbrSource::start"]));
        assert!(parent[idx(&g, "Tracer::max")].is_none());
        let parent = g.reachable(&g.roots(&["Tracer::report"]));
        assert!(parent[idx(&g, "Tracer::max")].is_some());
    }

    #[test]
    fn qualified_calls_resolve_to_workspace_methods() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "impl Table { fn new() -> Table { Table } }\nfn root() { Table::new(); }\n",
        )]);
        let parent = g.reachable(&g.roots(&["root"]));
        assert!(parent[idx(&g, "Table::new")].is_some());
    }
}
