//! The one body walker: lowers a function body's tokens, once, into an
//! ordered stream of [`Op`]s. Every per-function fact the rules need is
//! a query over that stream:
//!
//! * call edges and the panic / allocation / growth sites of D006–D008
//!   ([`interproc`](crate::interproc));
//! * the value-lattice facts of D009/D010 and the lock facts of D014
//!   ([`interproc::flow`](crate::interproc::flow));
//! * the taint fixpoint of D012/D013 ([`taint`](crate::taint)).
//!
//! This is deliberately not a Rust grammar. Statements are found by
//! balanced-bracket scanning to the next `;` or `{`; only simple
//! `let name [: Ty] = init` bindings and `name [op]= expr` stores are
//! lowered to [`Bind`]s, and everything else is read token by token. An
//! initializer is read as one expression: nested `let`s, `if`
//! conditions and reassignments inside it are not statements.

use crate::lexer::{Token, TokenKind};
use std::ops::Range;

/// A comment-free token slice plus its source text: the cursor shared by
/// the item [`parser`](crate::parser) and the body walker.
#[derive(Clone, Copy)]
pub(crate) struct Cursor<'s> {
    pub(crate) src: &'s str,
    pub(crate) toks: &'s [Token],
}

impl<'s> Cursor<'s> {
    pub(crate) fn text(&self, i: usize) -> &'s str {
        self.toks[i].text(self.src)
    }

    pub(crate) fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Punct && self.text(i) == p
    }

    pub(crate) fn is_ident(&self, i: usize) -> bool {
        i < self.toks.len() && self.toks[i].kind == TokenKind::Ident
    }

    pub(crate) fn is_word(&self, i: usize, w: &str) -> bool {
        self.is_ident(i) && self.text(i) == w
    }

    /// `1` for an opening `(`, `[` or `{`, `-1` for a closing one, else
    /// `0`.
    pub(crate) fn delta(&self, i: usize) -> i32 {
        if !self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Punct) {
            return 0;
        }
        match self.text(i) {
            "(" | "[" | "{" => 1,
            ")" | "]" | "}" => -1,
            _ => 0,
        }
    }

    /// Index one past the bracket closing the `(`, `[` or `{` at `open`
    /// (bounded by `end`).
    pub(crate) fn matching(&self, open: usize, end: usize) -> usize {
        let mut depth = 0;
        for i in open..end {
            depth += self.delta(i);
            if depth == 0 {
                return i + 1;
            }
        }
        end
    }

    /// Index of the bracket opening the `)`, `]` or turbofish `>` at
    /// `close`.
    fn opening(&self, close: usize) -> Option<usize> {
        let angle = self.is_punct(close, ">");
        let mut depth = 0;
        for i in (0..=close).rev() {
            depth -= match angle {
                true => i32::from(self.is_punct(i, "<")) - i32::from(self.is_punct(i, ">")),
                false => self.delta(i),
            };
            if depth == 0 {
                return Some(i);
            }
        }
        None
    }

    /// The `sep`-separated segments inside the bracket group opening at
    /// `open`, split at its own depth.
    fn segments(&self, open: usize, end: usize, sep: &str) -> Vec<Range<usize>> {
        let close = self.matching(open, end).saturating_sub(1);
        let (mut depth, mut seg, mut out) = (0, open + 1, Vec::new());
        for k in open..close {
            depth += self.delta(k);
            if depth == 1 && self.is_punct(k, sep) {
                out.push(seg..k);
                seg = k + 1;
            }
        }
        if close > seg {
            out.push(seg..close);
        }
        out
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — a free-function call.
    Free,
    /// `recv.name(...)`. `on_self` is true for a direct `self.name(...)`
    /// (no field segment in between), which resolution scopes to the
    /// enclosing impl before falling back to any method of that name.
    Method {
        /// Direct `self.method(...)` call.
        on_self: bool,
    },
    /// `Head::name(...)` — `head` is the path segment before the final
    /// `::`, e.g. `Vec` in `Vec::with_capacity`.
    Qualified {
        /// Path segment immediately before the called name.
        head: String,
    },
    /// `name!(...)` — a macro invocation.
    Macro,
}

/// One call expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name (last path segment / method name / macro name).
    pub name: String,
    /// Shape of the call site.
    pub kind: CallKind,
    /// The dotted identifier chain before a method call's `.` (`self.seen`
    /// in `self.seen.insert(..)`); empty when the receiver is not a
    /// plain chain.
    pub recv: String,
    /// Value-carrying identifiers of each argument, in position order
    /// (`vec![init; len]` has two; other macros none).
    pub args: Vec<Vec<String>>,
    /// The `self` field path the first argument borrows
    /// (`&mut self.a.b` → `a.b`).
    pub self_arg: Option<String>,
    /// 1-based source line.
    pub line: usize,
}

impl Call {
    /// The last segment of the receiver chain (`seen` in
    /// `self.seen.insert(..)`), if there is one.
    pub fn recv_last(&self) -> Option<&str> {
        self.recv.rsplit('.').next().filter(|r| !r.is_empty())
    }
}

/// How a [`Bind`] stores its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Store {
    /// `let name [: Ty] [= init];`
    Let,
    /// `name = init;`
    Set,
    /// `name op= init;` with the operator byte.
    Update(char),
}

/// The token shape of an initializer, for constant folding and type
/// propagation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// One numeric literal.
    Lit(String),
    /// One identifier.
    Name(String),
    /// `a op b` over two literal-or-identifier terms.
    Fold(String, String, String),
    /// An expression ending in `as Ty`.
    As(String),
    /// Anything else.
    Other,
}

/// A `let` binding or a store to a named place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bind {
    /// Bound or assigned name (a field store binds the field name).
    pub dst: String,
    /// How the value is stored.
    pub store: Store,
    /// Store through a dereference (`*dst = …`).
    pub deref: bool,
    /// The `let` type annotation's tokens; empty when absent.
    pub ty: Vec<String>,
    /// The initializer's shape.
    pub shape: Shape,
    /// The initializer's first token, when it is an identifier heading a
    /// longer expression (`handles` in `handles.into_iter()…`).
    pub head: Option<String>,
    /// Value-carrying identifiers the initializer reads.
    pub srcs: Vec<String>,
    /// Indices of the initializer's own ops, which precede the bind.
    pub init: Range<usize>,
    /// 1-based source line of the statement.
    pub line: usize,
}

/// One lowered operation, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A block opens.
    Open,
    /// A block closes: bindings made inside it die.
    Close,
    /// A binding or store.
    Bind(Box<Bind>),
    /// A call or macro invocation.
    Call(Call),
    /// An index expression `value[..]` with the identifiers inside the
    /// brackets.
    Index {
        /// Identifiers in the index expression.
        names: Vec<String>,
        /// 1-based source line.
        line: usize,
    },
    /// `operand as target` where the operand is a bare local.
    Cast {
        /// The cast local.
        operand: String,
        /// The target type.
        target: String,
        /// 1-based source line.
        line: usize,
    },
    /// A float `.sum::<f64>()` / `.fold(0.0, …)` on a receiver chain.
    Reduce {
        /// `sum` or `fold`.
        name: String,
        /// The chain's head identifier.
        head: String,
        /// A no-argument `join()` sits between head and reduction.
        joins: bool,
        /// 1-based source line.
        line: usize,
    },
    /// `drop(name)`.
    Drop(String),
    /// `for var in head…`.
    For {
        /// The loop variable.
        var: String,
        /// The iterated chain's head identifier.
        head: String,
    },
    /// The identifiers of an `if`/`while` condition that compares.
    Check(Vec<String>),
    /// The identifiers of a `return` or trailing expression.
    Return(Vec<String>),
}

/// Keywords that look like call heads but are not calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "loop", "return", "fn", "move", "else", "in",
];

/// Keywords allowed immediately before `[` without making it an index
/// expression (slice patterns, bindings).
const NON_INDEX_KEYWORDS: [&str; 12] = [
    "let", "in", "mut", "ref", "return", "if", "else", "match", "loop", "while", "for", "box",
];

/// Identifiers never collected as value carriers.
const IDENT_SKIP: [&str; 22] = [
    "mut", "ref", "as", "in", "if", "else", "match", "return", "let", "move", "self", "Some",
    "None", "Ok", "Err", "true", "false", "box", "loop", "while", "for", "break",
];

/// Lowers the body token range `[start, end)` (strictly inside the fn's
/// braces).
pub(crate) fn lower(c: Cursor<'_>, start: usize, end: usize) -> Vec<Op> {
    let mut w = Walker { c, ops: Vec::new() };
    w.walk(start, end, true);
    w.trailing_return(start, end);
    w.ops
}

struct Walker<'s> {
    c: Cursor<'s>,
    ops: Vec<Op>,
}

impl Walker<'_> {
    /// Walks `[start, end)` for its sites. In statement mode (`stmts`)
    /// it also lowers blocks, bindings, conditions, `return` and `for`
    /// heads; an initializer is walked as one expression.
    fn walk(&mut self, start: usize, end: usize, stmts: bool) {
        let mut i = start;
        while i < end {
            if self.c.is_punct(i, "#") && self.c.is_punct(i + 1, "[") {
                i = self.c.matching(i + 1, end);
                continue;
            }
            if let Some(next) = stmts.then(|| self.stmt(i, end)).flatten() {
                i = next;
                continue;
            }
            self.site(i, end);
            i += 1;
        }
    }

    /// Lowers the statement construct at `i`; returns the index to resume
    /// at when it consumed the tokens.
    fn stmt(&mut self, i: usize, end: usize) -> Option<usize> {
        if self.c.is_punct(i, "{") {
            self.ops.push(Op::Open);
        } else if self.c.is_punct(i, "}") {
            self.ops.push(Op::Close);
        }
        if !self.c.is_ident(i) {
            return None;
        }
        match self.c.text(i) {
            "let" => self.let_stmt(i, end),
            "if" | "while" => Some(self.cond(i, end)),
            "return" => {
                let names = self.idents(i + 1, self.stmt_end(i + 1, end));
                if !names.is_empty() {
                    self.ops.push(Op::Return(names));
                }
                None
            }
            "for" => {
                self.for_head(i);
                None
            }
            _ => self.assign(i, end),
        }
    }

    /// Index of the statement end from `i`: the first `;` or `{` at
    /// bracket depth 0, or an unbalanced closing bracket.
    fn stmt_end(&self, i: usize, end: usize) -> usize {
        let mut depth = 0;
        for j in i..end {
            if depth == 0 && (self.c.is_punct(j, ";") || self.c.is_punct(j, "{")) {
                return j;
            }
            depth += self.c.delta(j);
            if depth < 0 {
                return j;
            }
        }
        end
    }

    /// Value-carrying identifiers in `[start, end)`: not call or macro
    /// heads, not keywords or constructor names; deduplicated.
    fn idents(&self, start: usize, end: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for i in start..end {
            if self.c.is_ident(i) && !self.c.is_punct(i + 1, "(") && !self.c.is_punct(i + 1, "!") {
                let t = self.c.text(i);
                if !IDENT_SKIP.contains(&t) && !out.iter().any(|o| o == t) {
                    out.push(t.to_string());
                }
            }
        }
        out
    }

    /// Lowers the initializer `[start, stop)` of a bind and pushes it.
    fn bind(&mut self, dst: &str, store: Store, ty: Vec<String>, init: Range<usize>, at: usize) {
        let (start, stop) = (init.start, init.end);
        let from = self.ops.len();
        self.walk(start, stop, false);
        let deref = at.checked_sub(1).is_some_and(|p| self.c.is_punct(p, "*"));
        let head =
            (stop > start + 1 && self.c.is_ident(start)).then(|| self.c.text(start).to_string());
        self.ops.push(Op::Bind(Box::new(Bind {
            dst: dst.to_string(),
            store,
            deref,
            ty,
            shape: self.shape(start, stop),
            head,
            srcs: self.idents(start, stop),
            init: from..self.ops.len(),
            line: self.c.toks[at].line,
        })));
    }

    fn shape(&self, s: usize, e: usize) -> Shape {
        let term = |i: usize| matches!(self.c.toks[i].kind, TokenKind::Num | TokenKind::Ident);
        let text = |i: usize| self.c.text(i).to_string();
        if e == s + 1 {
            return match self.c.toks[s].kind {
                TokenKind::Num => Shape::Lit(text(s)),
                TokenKind::Ident => Shape::Name(text(s)),
                _ => Shape::Other,
            };
        }
        if e == s + 3 && self.c.toks[s + 1].kind == TokenKind::Punct && term(s) && term(s + 2) {
            return Shape::Fold(text(s), text(s + 1), text(s + 2));
        }
        if e >= s + 3 && self.c.is_ident(e - 1) && self.c.is_word(e - 2, "as") {
            return Shape::As(text(e - 1));
        }
        Shape::Other
    }

    /// `let [mut] name [: Ty] [= init];`; `None` for pattern bindings,
    /// which the statement walk reads token by token.
    fn let_stmt(&mut self, at: usize, end: usize) -> Option<usize> {
        let mut j = at + 1;
        if self.c.is_word(j, "mut") {
            j += 1;
        }
        if !self.c.is_ident(j) || !(self.c.is_punct(j + 1, ":") || self.c.is_punct(j + 1, "=")) {
            return None;
        }
        let stop = self.stmt_end(j, end);
        // The annotation runs to the `=` outside any `<…>`.
        let mut angle = 0;
        let eq = (j + 1..stop).find(|&k| {
            angle += i32::from(self.c.is_punct(k, "<")) - i32::from(self.c.is_punct(k, ">"));
            angle == 0 && self.c.is_punct(k, "=")
        });
        let ty = (j + 2..eq.unwrap_or(stop)).map(|k| self.c.text(k).to_string());
        let init = eq.map_or(stop, |e| e + 1);
        self.bind(self.c.text(j), Store::Let, ty.collect(), init..stop, at);
        Some(stop)
    }

    /// `name = …` / `name op= …` at the identifier `i`.
    fn assign(&mut self, i: usize, end: usize) -> Option<usize> {
        let name = self.c.text(i);
        if IDENT_SKIP.contains(&name) {
            return None;
        }
        let (eq, store) = if self.c.is_punct(i + 1, "=") {
            (i + 1, Store::Set)
        } else {
            let op = ["+", "-", "*", "/", "%", "&", "|", "^"]
                .into_iter()
                .find(|op| self.c.is_punct(i + 1, op))
                .filter(|_| self.c.is_punct(i + 2, "="))?;
            (i + 2, Store::Update(op.chars().next().unwrap_or('+')))
        };
        // `a == b` is a comparison; `a <= b`, `a != b` never reach here.
        if self.c.is_punct(eq + 1, "=")
            || i.checked_sub(1).is_some_and(|p| {
                self.c.toks[p].kind == TokenKind::Punct
                    && matches!(self.c.text(p), "=" | "<" | ">" | "!")
            })
        {
            return None;
        }
        let stop = self.stmt_end(eq + 1, end);
        self.bind(name, store, Vec::new(), eq + 1..stop, i);
        Some(stop)
    }

    /// `if`/`while` condition: walk it, then emit a `Check` of its
    /// identifiers when it compares anything — the conservative model of
    /// a dominating bound check. Returns the index of the body `{`.
    fn cond(&mut self, kw: usize, end: usize) -> usize {
        let stop = self.stmt_end(kw + 1, end);
        self.walk(kw + 1, stop, true);
        let compares = (kw + 1..stop).any(|i| {
            let p = |s: &str| self.c.is_punct(i, s);
            p("<") || p(">") || ((p("=") || p("!")) && self.c.is_punct(i + 1, "="))
        });
        if compares {
            let names = self.idents(kw + 1, stop);
            self.ops.push(Op::Check(names));
        }
        stop
    }

    /// `for [&] [mut] var in [&] [mut] head…`.
    fn for_head(&mut self, at: usize) {
        let skip = |j: usize| {
            let byref = |k: usize| self.c.is_punct(k, "&") || self.c.is_word(k, "mut");
            (j..).find(|&k| !byref(k)).unwrap_or(j)
        };
        let var = skip(at + 1);
        let head = skip(var + 2);
        if self.c.is_ident(var) && self.c.is_word(var + 1, "in") && self.c.is_ident(head) {
            self.ops.push(Op::For {
                var: self.c.text(var).to_string(),
                head: self.c.text(head).to_string(),
            });
        }
    }

    /// The ops anchored at token `i`: calls, macros, index expressions,
    /// casts, reductions and drops.
    fn site(&mut self, i: usize, end: usize) {
        let c = self.c;
        let line = c.toks[i].line;
        if c.is_punct(i, "[") {
            let indexes = i.checked_sub(1).is_some_and(|p| match c.toks[p].kind {
                TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&c.text(p)),
                TokenKind::Punct => matches!(c.text(p), ")" | "]"),
                _ => false,
            });
            if indexes {
                let names = self.idents(i + 1, c.matching(i, end).saturating_sub(1));
                self.ops.push(Op::Index { names, line });
            }
            return;
        }
        if !c.is_ident(i) {
            return;
        }
        let name = c.text(i);
        if c.is_punct(i + 1, "!") && ["(", "[", "{"].iter().any(|p| c.is_punct(i + 2, p)) {
            // `vec![init; len]`'s arguments split at `;`.
            let args = if name == "vec" {
                c.segments(i + 2, end, ";")
            } else {
                Vec::new()
            };
            let args = args
                .into_iter()
                .map(|r| self.idents(r.start, r.end))
                .collect();
            self.ops.push(Op::Call(Call {
                name: name.to_string(),
                kind: CallKind::Macro,
                recv: String::new(),
                args,
                self_arg: None,
                line,
            }));
            return;
        }
        if c.is_punct(i + 1, "(") && !NON_CALL_KEYWORDS.contains(&name) {
            self.call(i, end);
            if name == "drop" && c.is_ident(i + 2) && c.is_punct(i + 3, ")") {
                self.ops.push(Op::Drop(c.text(i + 2).to_string()));
            }
        }
        let after_dot = i.checked_sub(1).is_some_and(|p| c.is_punct(p, "."));
        match name {
            "as" => {
                // The operand is a bare local, not a field read (`x.n as T`).
                let local = |op: usize| !op.checked_sub(1).is_some_and(|p| c.is_punct(p, "."));
                let operand = i.checked_sub(1).filter(|&op| c.is_ident(op) && local(op));
                if let (Some(op), true) = (operand, c.is_ident(i + 1)) {
                    self.ops.push(Op::Cast {
                        operand: c.text(op).to_string(),
                        target: c.text(i + 1).to_string(),
                        line,
                    });
                }
            }
            "sum" | "fold" if after_dot => self.reduce(i, line),
            _ => {}
        }
    }

    /// The call whose name token is at `i` (next token `(`).
    fn call(&mut self, i: usize, end: usize) {
        let c = self.c;
        let prev = i.checked_sub(1);
        let mut recv: Vec<&str> = Vec::new();
        let kind = if prev.is_some_and(|p| c.is_punct(p, ".")) {
            // Walk the receiver back: `.`-separated identifier chain.
            let mut k = i - 1;
            while let Some(p) = k.checked_sub(1).filter(|&p| c.is_ident(p)) {
                recv.push(c.text(p));
                match p.checked_sub(1) {
                    Some(dot) if c.is_punct(dot, ".") => k = dot,
                    _ => break,
                }
            }
            recv.reverse();
            CallKind::Method {
                on_self: recv == ["self"],
            }
        } else if prev.is_some_and(|p| c.is_punct(p, "::")) {
            let head = i
                .checked_sub(2)
                .filter(|&p| c.is_ident(p))
                .map(|p| c.text(p).to_string())
                .unwrap_or_default();
            CallKind::Qualified { head }
        } else {
            CallKind::Free
        };
        let args = c.segments(i + 1, end, ",");
        let args = args
            .into_iter()
            .map(|r| self.idents(r.start, r.end))
            .collect();
        // `&[mut] self.a.b` as the first argument.
        let mut k = i + 2;
        let mut path: Vec<&str> = Vec::new();
        if c.is_punct(k, "&") {
            k += 1 + usize::from(c.is_word(k + 1, "mut"));
            if c.is_word(k, "self") {
                k += 1;
                while c.is_punct(k, ".") && c.is_ident(k + 1) {
                    path.push(c.text(k + 1));
                    k += 2;
                }
            }
        }
        self.ops.push(Op::Call(Call {
            name: c.text(i).to_string(),
            kind,
            recv: recv.join("."),
            args,
            self_arg: (!path.is_empty()).then(|| path.join(".")),
            line: c.toks[i].line,
        }));
    }

    /// A `.sum`/`.fold` at `i`: recorded when float-typed (a `::<f64>`
    /// turbofish, or a fold seeded with a float literal) and rooted at a
    /// plain receiver chain.
    fn reduce(&mut self, i: usize, line: usize) {
        let c = self.c;
        let name = c.text(i);
        let float = if name == "sum" {
            c.is_punct(i + 1, "::")
                && c.is_punct(i + 2, "<")
                && i + 3 < c.toks.len()
                && matches!(c.text(i + 3), "f64" | "f32")
        } else {
            c.is_punct(i + 1, "(")
                && c.toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Num)
                && crate::interproc::float_literal(c.text(i + 2))
        };
        let Some(head) = self.chain_head(i - 1).filter(|_| float) else {
            return;
        };
        let joins = (head..i)
            .any(|j| c.is_word(j, "join") && c.is_punct(j + 1, "(") && c.is_punct(j + 2, ")"));
        self.ops.push(Op::Reduce {
            name: name.to_string(),
            head: c.text(head).to_string(),
            joins,
            line,
        });
    }

    /// Walks a dotted receiver chain back from the `.` at `dot` to its
    /// head identifier, skipping balanced call groups and turbofishes.
    fn chain_head(&self, dot: usize) -> Option<usize> {
        let c = self.c;
        let mut j = dot;
        loop {
            j = j.checked_sub(1)?;
            if c.is_punct(j, ")") {
                j = c.opening(j)?.checked_sub(1)?;
                if c.is_punct(j, ">") {
                    j = c.opening(j)?.checked_sub(1)?;
                    if !c.is_punct(j, "::") {
                        return None;
                    }
                    j = j.checked_sub(1)?;
                }
            }
            if !c.is_ident(j) {
                return None;
            }
            match j.checked_sub(1) {
                Some(p) if c.is_punct(p, ".") => j = p,
                _ => return Some(j),
            }
        }
    }

    /// The body's trailing expression is its return value — only for a
    /// brace-free trailing segment, since a trailing `if`/`match` block
    /// would over-approximate wildly.
    fn trailing_return(&mut self, start: usize, end: usize) {
        let mut depth = 0;
        let mut seg = start;
        for i in start..end {
            depth += self.c.delta(i);
            if depth == 0 && self.c.is_punct(i, ";") {
                seg = i + 1;
            }
        }
        if (seg..end).any(|k| self.c.is_punct(k, "{")) {
            return;
        }
        let names = self.idents(seg, end);
        if !names.is_empty() {
            self.ops.push(Op::Return(names));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interproc::{field_op, flow, site, Site};
    use crate::parser::{parse_file, FnDef};
    use crate::Rule;

    fn parse(src: &str) -> Vec<FnDef> {
        parse_file("crates/x/src/lib.rs", src, &crate::lexer::lex(src), false)
    }

    /// A growth or eviction as `(field, method, line)`.
    type FieldOp<'a> = (String, &'a str, usize);

    /// `(grows, evicts)` of a body.
    fn field_ops(f: &FnDef) -> (Vec<FieldOp<'_>>, Vec<FieldOp<'_>>) {
        let (mut grows, mut evicts) = (Vec::new(), Vec::new());
        for c in f.calls() {
            if let Some((grow, field)) = field_op(c) {
                let op = (field, c.name.as_str(), c.line);
                if grow {
                    grows.push(op)
                } else {
                    evicts.push(op)
                }
            }
        }
        (grows, evicts)
    }

    fn sites(f: &FnDef, rule: Rule) -> Vec<Site> {
        let of_rule = f.ops.iter().filter_map(site).filter(|(r, _)| *r == rule);
        of_rule.map(|(_, s)| s).collect()
    }

    /// Stream I/O calls made while a guard is live, as `guard: method`.
    fn guarded_io(f: &crate::interproc::Flow) -> Vec<String> {
        f.guarded
            .iter()
            .filter(|(c, ..)| matches!(c.name.as_str(), "write_all" | "flush" | "read_exact"))
            .map(|(c, _, guard)| format!("{guard}: {}", c.name))
            .collect()
    }

    // --- calls and D006–D008 sites ----------------------------------------

    #[test]
    fn calls_are_classified() {
        let fns = parse(
            "fn f(&self) {\n\
                 helper();\n\
                 self.dispatch();\n\
                 self.queue.push(1);\n\
                 EventQueue::new();\n\
                 println!(\"x\");\n\
             }\n",
        );
        let got: Vec<(&str, CallKind, usize)> = fns[0]
            .calls()
            .map(|c| (c.name.as_str(), c.kind.clone(), c.line))
            .collect();
        let qualified = CallKind::Qualified {
            head: "EventQueue".into(),
        };
        assert_eq!(
            got,
            vec![
                ("helper", CallKind::Free, 2),
                ("dispatch", CallKind::Method { on_self: true }, 3),
                ("push", CallKind::Method { on_self: false }, 4),
                ("new", qualified, 5),
                ("println", CallKind::Macro, 6),
            ]
        );
    }

    #[test]
    fn panic_sites_include_indexing_but_not_patterns() {
        let fns = parse(
            "fn f(v: &[u32], m: &M) -> u32 {\n\
                 let [a, b] = [1, 2];\n\
                 let x = v[0];\n\
                 let y = m.counts[a as usize];\n\
                 v.first().unwrap() + panic_free(x, y, b)\n\
             }\n",
        );
        let p = sites(&fns[0], Rule::D006);
        assert_eq!(p.len(), 3, "{p:?}");
        assert_eq!(
            p[0],
            Site {
                what: "index []".into(),
                line: 3
            }
        );
        assert_eq!(
            p[1],
            Site {
                what: "index []".into(),
                line: 4
            }
        );
        assert_eq!(
            p[2],
            Site {
                what: "unwrap()".into(),
                line: 5
            }
        );
    }

    #[test]
    fn attribute_brackets_are_not_indexing() {
        let fns = parse("fn f() {\n    #[allow(unused)]\n    let x = 1;\n}\n");
        assert!(sites(&fns[0], Rule::D006).is_empty());
    }

    #[test]
    fn vec_macro_is_alloc_not_index() {
        let fns = parse("fn f() { let v = vec![1, 2]; }\n");
        assert_eq!(sites(&fns[0], Rule::D008).len(), 1);
        assert!(sites(&fns[0], Rule::D006).is_empty());
    }

    #[test]
    fn growth_and_eviction_field_ops() {
        let fns = parse(
            "impl A {\n\
                 fn grow(&mut self) { self.seen.insert(1); self.windows.traffic.push(2); }\n\
                 fn bound(&mut self) { self.seen.pop_first(); local.push(3); }\n\
             }\n",
        );
        assert_eq!(
            field_ops(&fns[0]).0,
            vec![
                ("seen".to_string(), "insert", 2),
                ("windows.traffic".to_string(), "push", 2),
            ]
        );
        assert_eq!(
            field_ops(&fns[1]).1,
            vec![("seen".to_string(), "pop_first", 3)]
        );
        // `local.push` is not a self-field growth.
        assert!(field_ops(&fns[1]).0.is_empty());
    }

    #[test]
    fn mem_take_and_replace_are_evictions() {
        let fns = parse(
            "impl A {\n\
                 fn grow(&mut self) { self.ready.push(1); }\n\
                 fn drain(&mut self) -> Vec<u32> { std::mem::take(&mut self.ready) }\n\
                 fn swap(&mut self) { let _ = std::mem::replace(&mut self.slot, 0); }\n\
                 fn not_a_field(&mut self, v: &mut Vec<u32>) { std::mem::take(v); }\n\
             }\n",
        );
        assert_eq!(field_ops(&fns[1]).1, vec![("ready".to_string(), "take", 3)]);
        assert_eq!(
            field_ops(&fns[2]).1,
            vec![("slot".to_string(), "replace", 4)]
        );
        assert!(field_ops(&fns[3]).1.is_empty());
    }

    #[test]
    fn alloc_sites_cover_qualified_methods_and_macros() {
        let fns = parse(
            "fn f() {\n\
                 let a = Vec::new();\n\
                 let b = x.to_vec();\n\
                 let c = y.clone();\n\
                 let d = format!(\"{a:?}\");\n\
             }\n",
        );
        let whats: Vec<String> = sites(&fns[0], Rule::D008)
            .into_iter()
            .map(|s| s.what)
            .collect();
        assert_eq!(whats, vec!["Vec::new", "to_vec()", "clone()", "format!"]);
    }

    // --- D009 ------------------------------------------------------------

    #[test]
    fn sum_over_map_chunks_output_is_a_reduction() {
        let fns = parse(
            "fn f(par: Parallelism, n: usize) -> f64 {\n\
                 let parts = map_chunks(par, n, |r| r.len() as f64);\n\
                 parts.iter().sum::<f64>()\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert_eq!(f.reductions.len(), 1, "{f:?}");
        assert_eq!(f.reductions[0].line, 3);
    }

    #[test]
    fn join_accumulation_into_float_is_a_reduction() {
        let fns = parse(
            "fn f(handles: Vec<JoinHandle<f64>>) -> f64 {\n\
                 let mut total = 0.0f64;\n\
                 for h in handles {\n\
                     total += h.join().unwrap_or(0.0);\n\
                 }\n\
                 total\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert_eq!(f.reductions.len(), 1, "{f:?}");
    }

    #[test]
    fn ordinary_slice_sum_is_not_a_reduction() {
        let fns = parse(
            "fn f(intervals: &[f64]) -> f64 {\n\
                 intervals.iter().sum::<f64>() / intervals.len() as f64\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert!(f.reductions.is_empty(), "{f:?}");
    }

    #[test]
    fn integer_sum_over_parallel_output_is_not_flagged() {
        let fns = parse(
            "fn f(par: Parallelism, n: usize) -> u64 {\n\
                 let parts = map_chunks(par, n, |r| r.len() as u64);\n\
                 parts.iter().sum::<u64>()\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert!(f.reductions.is_empty(), "{f:?}");
    }

    // --- D010 ------------------------------------------------------------

    #[test]
    fn wide_binding_narrow_cast_is_flagged() {
        let fns = parse(
            "fn f(raw: u64) -> u16 {\n\
                 raw as u16\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert_eq!(f.casts.len(), 1, "{f:?}");
        assert!(f.casts[0].what.contains("u64"));
    }

    #[test]
    fn annotated_let_and_chain_copy_are_tracked() {
        let fns = parse(
            "fn f(seed: u64) -> u32 {\n\
                 let raw: u64 = seed;\n\
                 let id = raw;\n\
                 id as u32\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert_eq!(f.casts.len(), 1, "{f:?}");
    }

    #[test]
    fn const_that_fits_is_not_flagged() {
        let fns = parse(
            "fn f() -> u8 {\n\
                 let cap = 255;\n\
                 cap as u8\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert!(f.casts.is_empty(), "{f:?}");
    }

    #[test]
    fn const_that_overflows_is_flagged() {
        let fns = parse(
            "fn f() -> u8 {\n\
                 let cap = 256;\n\
                 cap as u8\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert_eq!(f.casts.len(), 1, "{f:?}");
    }

    #[test]
    fn const_fold_through_arithmetic() {
        let fns = parse(
            "fn f() -> (u16, u16) {\n\
                 let base = 60;\n\
                 let fits = base * 1000;\n\
                 let over = base * 2000;\n\
                 (fits as u16, over as u16)\n\
             }\n",
        );
        let f = flow(&fns[0]);
        // 60_000 fits u16; 120_000 does not.
        assert_eq!(f.casts.len(), 1, "{f:?}");
        assert!(f.casts[0].what.contains("120000"), "{f:?}");
    }

    #[test]
    fn widening_and_expression_casts_are_not_judged() {
        let fns = parse(
            "fn f(raw: u64, v: &[u8]) -> u64 {\n\
                 let a = raw as u128;\n\
                 let b = v.len() as u32;\n\
                 a as u64 + b as u64\n\
             }\n",
        );
        let f = flow(&fns[0]);
        // `raw as u128` widens; `v.len() as u32` is an expression (not a
        // tracked binding); `a as u64` truncates a 128-bit source.
        assert_eq!(f.casts.len(), 1, "{f:?}");
        assert!(f.casts[0].what.contains("u128"), "{f:?}");
    }

    // --- D014 (direct) ------------------------------------------------------------

    #[test]
    fn guard_across_write_is_flagged() {
        let fns = parse(
            "fn f(stream: &mut TcpStream, queue: &Mutex<VecDeque<Vec<u8>>>) {\n\
                 let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());\n\
                 while let Some(frame) = q.pop_front() {\n\
                     let _ = stream.write_all(&frame);\n\
                 }\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert_eq!(guarded_io(&f), vec!["q: write_all"], "{f:?}");
    }

    #[test]
    fn second_lock_while_guard_live_records_acquisition_order() {
        // Nested acquisition is not flagged per function: the acquires
        // carry the held-set and D014's lock-order graph decides whether
        // the order is actually cyclic.
        let fns = parse(
            "fn f(a: &Mutex<u64>, b: &Mutex<u64>) -> u64 {\n\
                 let ga = a.lock().unwrap_or_else(|p| p.into_inner());\n\
                 let gb = b.lock().unwrap_or_else(|p| p.into_inner());\n\
                 *ga + *gb\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert!(guarded_io(&f).is_empty(), "{f:?}");
        let a = String::from("a");
        let want = vec![(a.clone(), vec![], 2), ("b".into(), vec![a], 3)];
        assert_eq!(f.acquires, want, "{f:?}");
    }

    #[test]
    fn drop_before_io_is_clean() {
        let fns = parse(
            "fn f(stream: &mut TcpStream, queue: &Mutex<VecDeque<Vec<u8>>>) {\n\
                 let q = queue.lock().unwrap_or_else(|p| p.into_inner());\n\
                 let n = q.len();\n\
                 drop(q);\n\
                 let _ = stream.write_all(&[n as u8]);\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert!(guarded_io(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn condvar_wait_keeps_guard_without_violation() {
        let fns = parse(
            "fn f(shared: &Shared) {\n\
                 let mut q = lock(&shared.queue);\n\
                 loop {\n\
                     if q.is_empty() {\n\
                         q = shared.available.wait(q).unwrap_or_else(|p| p.into_inner());\n\
                     }\n\
                 }\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert!(guarded_io(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let fns = parse(
            "fn f(stream: &mut TcpStream, queue: &Mutex<u64>) {\n\
                 {\n\
                     let g = queue.lock().unwrap_or_else(|p| p.into_inner());\n\
                     let _ = *g;\n\
                 }\n\
                 let _ = stream.flush();\n\
             }\n",
        );
        let f = flow(&fns[0]);
        assert!(guarded_io(&f).is_empty(), "{f:?}");
    }
}
