//! Item-level parser on top of the [`lexer`](crate::lexer): extracts `fn`
//! definitions with their module / `impl` / `trait` ownership, their
//! parameters, and their bodies lowered by the [`body`](mod@crate::body)
//! walker into one op stream.
//!
//! This is deliberately not a full Rust grammar: it tracks brace nesting,
//! angle-bracket balance in `impl` headers, and attribute spans, which is
//! enough to attribute every call to the right function with zero
//! dependencies. Trait `dyn`/generic dispatch is handled conservatively at
//! resolution time (see [`graph`](crate::graph)), not here.

use crate::body::{self, Call, Cursor, Op};
use crate::lexer::{Token, TokenKind};

/// One declared parameter (`self` excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// The declared type's tokens.
    pub ty: Vec<String>,
}

/// One parsed function definition with its lowered body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` self type or `trait` name, if any.
    pub owner: Option<String>,
    /// Enclosing module path (lexical `mod` nesting only).
    pub module: Vec<String>,
    /// Workspace-relative file, forward slashes.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inside `#[cfg(test)]` scope, under `#[test]`, or in a test path.
    pub is_test: bool,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// The body's op stream, in source order.
    pub ops: Vec<Op>,
}

impl FnDef {
    /// `Owner::name` when the fn is a method, else `name` — prefixed with
    /// the module path. The identity used in call chains and tests.
    pub fn qualified(&self) -> String {
        let mut q = String::new();
        for m in &self.module {
            q.push_str(m);
            q.push_str("::");
        }
        if let Some(o) = &self.owner {
            q.push_str(o);
            q.push_str("::");
        }
        q.push_str(&self.name);
        q
    }

    /// The body's call expressions, in source order.
    pub fn calls(&self) -> impl Iterator<Item = &Call> {
        self.ops.iter().filter_map(|op| match op {
            Op::Call(c) => Some(c),
            _ => None,
        })
    }
}

/// Parses one file's tokens (as lexed from `source`) into its function
/// definitions. `rel` is the workspace-relative path; `path_is_test`
/// marks whole-file test collateral (tests/, benches/, examples/).
pub fn parse_file(rel: &str, source: &str, tokens: &[Token], path_is_test: bool) -> Vec<FnDef> {
    let toks: Vec<Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .copied()
        .collect();
    let mut p = Parser {
        c: Cursor {
            src: source,
            toks: &toks,
        },
        rel,
        fns: Vec::new(),
    };
    p.items(
        0,
        toks.len(),
        &mut Scope {
            module: Vec::new(),
            owner: None,
            is_test: path_is_test,
        },
    );
    p.fns
}

/// Lexical context an item is parsed in.
struct Scope {
    module: Vec<String>,
    owner: Option<String>,
    is_test: bool,
}

struct Parser<'s> {
    c: Cursor<'s>,
    rel: &'s str,
    fns: Vec<FnDef>,
}

impl Parser<'_> {
    /// The identifier after `i`, or an empty name.
    fn name_after(&self, i: usize, end: usize) -> String {
        let at = (i + 1 < end && self.c.is_ident(i + 1)).then_some(i + 1);
        at.map(|k| self.c.text(k).to_string()).unwrap_or_default()
    }

    /// First index in `[i, end)` holding one of the puncts `stops`.
    fn scan_to(&self, mut i: usize, end: usize, stops: &[&str]) -> usize {
        while i < end && !stops.iter().any(|s| self.c.is_punct(i, s)) {
            i += 1;
        }
        i
    }

    /// Walks the items in `[start, end)`.
    fn items(&mut self, start: usize, end: usize, scope: &mut Scope) {
        let mut i = start;
        // Attributes seen since the last item: is any `cfg(test)` / `test`?
        let mut pending_test_attr = false;
        while i < end {
            // Attribute: `#` `[` … `]` (also `#![…]`).
            if self.c.is_punct(i, "#") {
                let j = i + 1 + usize::from(self.c.is_punct(i + 1, "!"));
                if self.c.is_punct(j, "[") {
                    let close = self.c.matching(j, end);
                    let joined: String = (j..close).map(|k| self.c.text(k)).collect();
                    if joined.contains("cfg(test") || joined == "[test]" {
                        pending_test_attr = true;
                    }
                    i = close;
                    continue;
                }
            }
            if !self.c.is_ident(i) {
                i += 1;
                continue;
            }
            // A nested item body: `(owner, open brace)`; `mod` keeps the
            // owner and pushes a module segment.
            let (owner, open) = match self.c.text(i) {
                "mod" => (None, self.scan_to(i + 1, end, &["{", ";"])),
                "impl" => {
                    let (self_ty, open) = self.impl_header(i, end);
                    (Some(self_ty), open.unwrap_or(i))
                }
                "trait" => (
                    Some(self.name_after(i, end)),
                    self.scan_to(i + 1, end, &["{"]),
                ),
                "fn" => {
                    i = self.fn_def(i, end, scope, pending_test_attr);
                    pending_test_attr = false;
                    continue;
                }
                "struct" | "enum" | "union" | "macro_rules" => {
                    // Skip to `;` or over the balanced body (a tuple
                    // struct `struct S(u8);` ends at its `;`).
                    let j = self.scan_to(i + 1, end, &["{", ";"]);
                    i = if self.c.is_punct(j, "{") {
                        self.c.matching(j, end)
                    } else {
                        j + 1
                    };
                    pending_test_attr = false;
                    continue;
                }
                _ => {
                    i += 1;
                    continue;
                }
            };
            if open < end && self.c.is_punct(open, "{") {
                let close = self.c.matching(open, end);
                let was_test = scope.is_test;
                scope.is_test |= pending_test_attr;
                let is_mod = owner.is_none();
                let prev_owner = if is_mod {
                    scope.module.push(self.name_after(i, end));
                    None
                } else {
                    Some(std::mem::replace(&mut scope.owner, owner))
                };
                self.items(open + 1, close - 1, scope);
                match prev_owner {
                    Some(o) => scope.owner = o,
                    None => {
                        scope.module.pop();
                    }
                }
                scope.is_test = was_test;
                i = close;
            } else {
                i = open + 1;
            }
            pending_test_attr = false;
        }
    }

    /// Parses an `impl` header starting at the `impl` token: returns the
    /// self-type name and the index of the body `{`.
    fn impl_header(&self, impl_at: usize, end: usize) -> (String, Option<usize>) {
        // Find the body `{`; `<`/`>` never contain braces in a header.
        let j = self.scan_to(impl_at + 1, end, &["{", ";"]);
        let body = (j < end && self.c.is_punct(j, "{")).then_some(j);
        // The self type's head segment (`Simulator` in `Simulator<A>`) is
        // the last angle-depth-0 identifier before `where`/body — after
        // the `for`, when one appears at angle depth 0.
        let mut angle = 0i32;
        let mut name = "";
        for k in impl_at + 1..j {
            if self.c.is_punct(k, "<") {
                angle += 1;
            } else if self.c.is_punct(k, ">") {
                angle -= 1;
            } else if angle == 0 && self.c.is_word(k, "where") {
                break;
            } else if angle == 0 && self.c.is_word(k, "for") {
                name = "";
            } else if angle == 0
                && self.c.is_ident(k)
                && !matches!(self.c.text(k), "dyn" | "impl" | "mut" | "const" | "unsafe")
            {
                name = self.c.text(k);
            }
        }
        (name.to_string(), body)
    }

    /// Parses a `fn` item starting at the `fn` keyword; returns the index
    /// one past the definition.
    fn fn_def(&mut self, fn_at: usize, end: usize, scope: &Scope, test_attr: bool) -> usize {
        let name_at = fn_at + 1;
        if name_at >= end || !self.c.is_ident(name_at) {
            return fn_at + 1;
        }
        // Scan the signature for the body `{` or a `;` (trait fn without
        // default body). Generic bounds may contain braces only inside
        // const generics — rare enough to ignore.
        let j = self.scan_to(name_at + 1, end, &["{", ";"]);
        if j >= end || self.c.is_punct(j, ";") {
            return j + 1;
        }
        let body_close = self.c.matching(j, end);
        self.fns.push(FnDef {
            name: self.c.text(name_at).to_string(),
            owner: scope.owner.clone(),
            module: scope.module.clone(),
            file: self.rel.to_string(),
            line: self.c.toks[fn_at].line,
            is_test: scope.is_test || test_attr,
            params: self.params(name_at + 1, j),
            ops: body::lower(self.c, j + 1, body_close - 1),
        });
        body_close
    }

    /// Mines the parameters out of a signature token range
    /// (`[after_name, body_open)`): each depth-1 comma-separated segment
    /// shaped `[mut] name: Ty`. Generic bounds before the list may
    /// themselves contain parens (`F: Fn(usize) -> T`), so the list opens
    /// at the first `(` at angle depth 0.
    fn params(&self, start: usize, end: usize) -> Vec<Param> {
        let mut angle = 0i32;
        let Some(open) = (start..end).find(|&i| {
            if self.c.is_punct(i, "<") {
                angle += 1;
            } else if self.c.is_punct(i, ">") {
                angle -= 1;
            }
            angle == 0 && self.c.is_punct(i, "(")
        }) else {
            return Vec::new();
        };
        let close = self.c.matching(open, end) - 1;
        let mut out = Vec::new();
        let (mut depth, mut seg) = (0, open + 1);
        for i in open + 1..=close {
            if i < close && !(depth == 0 && self.c.is_punct(i, ",")) {
                let angle = i32::from(self.c.is_punct(i, "<")) - i32::from(self.c.is_punct(i, ">"));
                depth += self.c.delta(i) + angle;
                continue;
            }
            let name = seg + usize::from(self.c.is_word(seg, "mut"));
            if name < i && self.c.is_ident(name) && self.c.is_punct(name + 1, ":") {
                out.push(Param {
                    name: self.c.text(name).to_string(),
                    ty: (name + 2..i).map(|k| self.c.text(k).to_string()).collect(),
                });
            }
            seg = i + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<FnDef> {
        parse_file("crates/x/src/lib.rs", src, &crate::lexer::lex(src), false)
    }

    #[test]
    fn free_fn_and_method_ownership() {
        let fns = parse(
            "fn free() {}\n\
             struct S;\n\
             impl S { fn method(&self) {} }\n\
             trait T { fn defaulted(&self) { self.method(); } }\n",
        );
        let names: Vec<String> = fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free", "S::method", "T::defaulted"]);
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let fns = parse("impl<A: Agent> Classifier for Simulator<A> { fn run(&self) {} }\n");
        assert_eq!(fns[0].qualified(), "Simulator::run");
    }

    #[test]
    fn module_nesting_and_cfg_test() {
        let fns = parse(
            "mod inner { fn a() {} }\n\
             #[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\n",
        );
        assert_eq!(fns[0].qualified(), "inner::a");
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test && fns[2].is_test);
    }

    #[test]
    fn const_fn_is_parsed() {
        let fns = parse("impl E { pub const fn index(self) -> usize { 0 } }\n");
        assert_eq!(fns[0].qualified(), "E::index");
    }

    #[test]
    fn trait_fn_without_body_is_skipped() {
        let fns = parse("trait T { fn sig(&self); fn with_body(&self) { self.sig(); } }\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].qualified(), "T::with_body");
    }
}
