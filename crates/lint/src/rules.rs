//! L2, borrow-across-poll: a linear scan over the lexed token stream with
//! a little delimiter bookkeeping — deliberately syntactic. It accepts a
//! small false-negative rate (a guard moved into a struct, a poll behind a
//! function call) in exchange for zero parser dependencies and predictable
//! behavior on any input.

use std::ops::Range;

use crate::lexer::{matching_close, Tok, TokKind};
use crate::Finding;

/// Calls that poll the runtime, and so may run delivered handlers: the
/// wait loop and `poll` themselves, and every call that waits in them — a
/// synchronous RMI, a fence, a barrier and each collective. Holding a
/// `RefCell` storage borrow across one risks a double-borrow panic when a
/// delivered handler touches the same container.
const POLLS: &[&str] = &[
    "poll", "wait_until", "sync_rmi", "barrier", "rmi_fence", "allreduce", "allreduce_sum",
    "allreduce_max_f64", "broadcast", "allgather", "exclusive_scan",
];

/// Direct-borrow accessors whose closure runs with the container storage
/// borrowed: a poll point inside is a borrow held across a poll.
const WITH_BORROW_ENTRY: &[&str] = &["with_slice", "with_slice_mut", "with_segment"];

/// True when `toks[i]` is a *call* of the identifier (followed by `(`,
/// and not a declaration `fn name(`).
fn is_call(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Open && t.text == "(")
        && (i == 0 || toks[i - 1].text != "fn")
}

/// True when `toks[i]` is a method call `.name(`.
fn is_method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].text == name && i > 0 && toks[i - 1].text == "." && is_call(toks, i)
}

/// True when `toks[i]` reaches a poll point: a call [`POLLS`] names, or a
/// `.wait()`.
fn is_poll_point(toks: &[Tok], i: usize) -> bool {
    (is_call(toks, i) && POLLS.contains(&toks[i].text.as_str())) || is_method_call(toks, i, "wait")
}

/// L2: a `RefCell` borrow guard live across a poll point in the same
/// block, or a poll point inside the closure of a `with_slice`-style
/// accessor (which runs with the storage borrowed).
pub fn borrow_across_poll(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut flag = |k: usize, message: String, hint: String| {
        out.push(Finding { file: path.to_string(), line: toks[k].line, message, hint })
    };

    // Leg 1: let-bound borrow guards, as (name, line, depth), vs later poll
    // points.
    let mut guards: Vec<(String, u32, u32)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Close && t.text == "}" {
            // Block interiors sit one level deeper than the brace tokens:
            // a guard declared at depth d dies when a `}` at depth < d
            // closes its block.
            guards.retain(|g| g.2 <= t.depth);
        } else if t.kind == TokKind::Ident && t.text == "let" {
            // Statement extent: to the `;` at this depth.
            let d = t.depth;
            let mut end = i + 1;
            while end < toks.len() && toks[end].depth >= d && !(toks[end].text == ";" && toks[end].depth == d) {
                end += 1;
            }
            // A right-hand side that *is* a closure literal defines code,
            // not a borrow.
            let eq = (i..end).find(|&k| toks[k].text == "=" && toks[k].depth == d);
            if !eq.is_some_and(|e| toks.get(e + 1).is_some_and(|t| t.text == "|" || t.text == "move")) {
                // The initializer runs under the guards already live. The
                // bound name is the first identifier after `let` but `mut`.
                check(&mut flag, toks, i..end, &guards);
                let borrows = (i..end).any(|k| is_method_call(toks, k, "borrow") || is_method_call(toks, k, "borrow_mut"));
                let name = toks[i + 1..end].iter().find(|t| t.kind == TokKind::Ident && t.text != "mut");
                if let Some(name) = name.filter(|n| borrows && n.text != "_") {
                    guards.push((name.text.clone(), t.line, d));
                }
            }
            i = end.max(i + 1);
            continue;
        } else if is_call(toks, i) && t.text == "drop" {
            // `drop(g)` releases the guard early.
            if let Some(arg) = toks.get(i + 2).filter(|a| a.kind == TokKind::Ident) {
                guards.retain(|g| g.0 != arg.text);
            }
        }
        check(&mut flag, toks, i..i + 1, &guards);
        i += 1;
    }

    // Leg 2: poll points in the closure passed to a `with_slice`-style
    // accessor: everything from the first `|` of its arguments on.
    for i in (0..toks.len()).filter(|&i| is_call(toks, i) && WITH_BORROW_ENTRY.contains(&toks[i].text.as_str())) {
        let (entry, close) = (&toks[i].text, matching_close(toks, i + 1));
        let Some(pipe) = (i + 2..close).find(|&k| toks[k].text == "|") else { continue };
        for k in (pipe..close).filter(|&k| is_poll_point(toks, k)) {
            flag(
                k,
                format!(
                    "`{}` inside the closure passed to `{entry}` — the container storage stays \
                     borrowed for the whole closure, so polling here can double-borrow",
                    toks[k].text
                ),
                format!("copy what you need out of the `{entry}` closure and poll/wait after it returns"),
            );
        }
    }
    out
}

/// Flags each poll point in `range` while a guard is live.
fn check(flag: &mut impl FnMut(usize, String, String), toks: &[Tok], range: Range<usize>, guards: &[(String, u32, u32)]) {
    let Some((name, line, _)) = guards.last() else { return };
    for k in range.filter(|&k| is_poll_point(toks, k)) {
        flag(
            k,
            format!(
                "`{}` reached while the borrow guard `{name}` (line {line}) is still live — a \
                 handler delivered by the poll can hit a double borrow",
                toks[k].text
            ),
            format!("drop `{name}` (end its scope or call `drop`) before polling, fencing, or waiting"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        borrow_across_poll("test.rs", &lex(src))
    }

    #[test]
    fn l2_fires_on_guard_across_poll() {
        let f = run("fn f(loc: &Location) { let g = cell.borrow_mut(); g.push(1); loc.poll(); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains('g'));
    }

    #[test]
    fn l2_clean_when_dropped_or_scoped() {
        let ok = "fn f(loc: &Location) { { let g = cell.borrow(); use_it(&g); } loc.poll(); \
                  let h = cell.borrow(); drop(h); loc.barrier(); }";
        assert!(run(ok).is_empty());
    }

    #[test]
    fn l2_fires_inside_with_slice_closure() {
        let f = run("fn f(a: &PArray<u64>) { a.with_slice(run, |s| { loc.barrier(); s.len() }); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("with_slice"));
    }

    #[test]
    fn l2_closure_binding_is_not_a_guard() {
        let ok = "fn f(loc: &Location) { let reader = |c: &Cell| c.borrow().len(); loc.poll(); }";
        assert!(run(ok).is_empty());
    }
}
