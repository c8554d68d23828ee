//! The per-file token rules: L1 blocking-in-handler, L2
//! borrow-across-poll, L3 divergent-collective, L6 undocumented-unsafe.
//!
//! Every rule is a linear scan over the lexed token stream with a little
//! delimiter bookkeeping — deliberately syntactic. The rules accept a
//! small false-negative rate (e.g. a handler closure built far from its
//! registration site) in exchange for zero parser dependencies and
//! predictable behavior on any input; DESIGN.md "Static analysis"
//! documents the contract.

use crate::lexer::{matching_close, LexedFile, Tok, TokKind};
use crate::{Finding, Rule};

/// RTS calls whose closure argument executes inside the polling loop of
/// another location (a handler context).
const HANDLER_ENTRY: &[&str] = &[
    "async_rmi",
    "sync_rmi",
    "split_rmi",
    "send_request",
    "dir_route",
    "dir_route_ret",
];

/// Collective operations every location must reach: L3's subject, and
/// with `sync_rmi` the calls that block (see [`blocks`]).
const COLLECTIVES: &[&str] = &[
    "barrier",
    "rmi_fence",
    "allreduce",
    "allreduce_sum",
    "allreduce_max_f64",
    "broadcast",
    "allgather",
    "exclusive_scan",
];

/// Calls that block on remote progress: waiting inside a handler deadlocks
/// the polling loop that would deliver the awaited response.
fn blocks(name: &str) -> bool {
    name == "sync_rmi" || COLLECTIVES.contains(&name)
}

/// Calls that poll the runtime (and may execute handlers reentrantly):
/// every blocking call, which polls while it waits, and the wait loop and
/// `poll` themselves. Holding a `RefCell` storage borrow across one risks a
/// double-borrow panic when a delivered handler touches the same container.
fn polls(name: &str) -> bool {
    blocks(name) || name == "poll" || name == "wait_until"
}

/// True when `toks[i]` reaches a poll point: a call [`polls`] names, or a
/// `.wait()`.
fn is_poll_point(toks: &[Tok], i: usize) -> bool {
    (is_call(toks, i) && polls(&toks[i].text)) || is_method_call(toks, i, "wait")
}

/// Direct-borrow accessors whose closure runs with the container storage
/// borrowed: a poll point inside is a borrow held across a poll.
const WITH_BORROW_ENTRY: &[&str] = &[
    "with_slice",
    "with_slice_mut",
    "with_segment",
    "with_row_slice",
    "with_row_slice_mut",
];

/// True when `toks[i]` is a *call* of the identifier (followed by `(`,
/// and not a declaration `fn name(`).
fn is_call(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == TokKind::Ident
        && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Open && t.text == "(")
        && (i == 0 || toks[i - 1].text != "fn")
}

/// True when `toks[i]` is a method call `.name(`.
fn is_method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].kind == TokKind::Ident
        && toks[i].text == name
        && i > 0
        && toks[i - 1].text == "."
        && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Open && t.text == "(")
}

/// True when the `|` at `toks[i]` begins a closure rather than acting as
/// a binary/bit-or: decided from the preceding significant token.
fn starts_closure(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = &toks[i - 1];
    match prev.kind {
        // `x | y`, `f(a)|b`, `1 | 2`, `"s" | _` are or-patterns/bit-ors.
        TokKind::Close | TokKind::Lit => false,
        TokKind::Ident => matches!(prev.text.as_str(), "move" | "return" | "else" | "match"),
        _ => prev.text != "|", // `||` boolean-or after an expression
    }
}

/// The token range of one closure body found inside `range`, along with
/// the index just past it. `start` must point at the opening `|`.
fn closure_body(toks: &[Tok], start: usize, range_end: usize) -> (usize, usize) {
    let pipe_depth = toks[start].depth;
    let mut j = start + 1;
    // Find the closing `|` of the parameter list (same nesting depth).
    while j < range_end && !(toks[j].text == "|" && toks[j].depth == pipe_depth) {
        j += 1;
    }
    j += 1; // past closing `|`
    // Body: a brace block (possibly after `-> Type`) or a bare expression
    // running to the next `,` at the pipe's depth.
    let mut k = j;
    while k < range_end {
        let t = &toks[k];
        if t.kind == TokKind::Open && t.text == "{" && t.depth == pipe_depth {
            return (k + 1, matching_close(toks, k).min(range_end));
        }
        if t.text == "," && t.depth == pipe_depth {
            return (j, k);
        }
        if t.depth < pipe_depth {
            break;
        }
        k += 1;
    }
    (j, range_end)
}

/// Scans `range` of `toks` for closure literals and calls `f` with each
/// closure body range.
fn for_each_closure_body(
    toks: &[Tok],
    range: (usize, usize),
    f: &mut impl FnMut((usize, usize)),
) {
    let mut j = range.0;
    while j < range.1 {
        if toks[j].text == "|" && toks[j].kind == TokKind::Punct && starts_closure(toks, j) {
            let body = closure_body(toks, j, range.1);
            f(body);
            j = body.1.max(j + 1);
        } else {
            j += 1;
        }
    }
}

/// L1: blocking / collective calls inside closures passed to RMI issue or
/// handler-registration calls.
pub fn blocking_in_handler(path: &str, file: &LexedFile) -> Vec<Finding> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(is_call(toks, i) && HANDLER_ENTRY.contains(&toks[i].text.as_str())) {
            continue;
        }
        let entry = toks[i].text.clone();
        let close = matching_close(toks, i + 1);
        for_each_closure_body(toks, (i + 2, close), &mut |(b0, b1)| {
            for k in b0..b1 {
                let blocked = if is_call(toks, k) && blocks(&toks[k].text) {
                    Some(toks[k].text.clone())
                } else if is_method_call(toks, k, "wait") {
                    Some("wait".to_string())
                } else {
                    None
                };
                if let Some(name) = blocked {
                    out.push(Finding {
                        file: path.to_string(),
                        line: toks[k].line,
                        rule: Rule::BlockingInHandler,
                        message: format!(
                            "blocking `{name}` inside a closure passed to `{entry}` \
                             — RMI handlers run inside the polling loop, so waiting \
                             there deadlocks"
                        ),
                        hint: "make the handler non-blocking: reply via a split-phase \
                               RMI / reply token instead of waiting in place"
                            .to_string(),
                    });
                }
            }
        });
    }
    out
}

/// L2: a `RefCell` borrow guard live across a poll point in the same
/// block, or a poll point inside a `with_slice`/`with_segment` closure
/// (which runs with the storage borrowed).
pub fn borrow_across_poll(path: &str, file: &LexedFile) -> Vec<Finding> {
    let toks = &file.toks;
    let mut out = Vec::new();

    // Leg 1: let-bound borrow guards vs later poll points.
    struct Guard {
        name: String,
        line: u32,
        depth: u32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    // A poll point at `toks[k]` while a guard is live.
    let flag = |k: usize, guards: &[Guard], out: &mut Vec<Finding>| {
        let Some(g) = guards.last() else { return };
        out.push(Finding {
            file: path.to_string(),
            line: toks[k].line,
            rule: Rule::BorrowAcrossPoll,
            message: format!(
                "`{}` reached while the borrow guard `{}` (line {}) is \
                 still live — a handler delivered by the poll can hit a \
                 double borrow",
                toks[k].text, g.name, g.line
            ),
            hint: format!(
                "drop `{}` (end its scope or call `drop`) before polling, \
                 fencing, or waiting",
                g.name
            ),
        });
    };
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Close && t.text == "}" {
            // Block interiors sit one level deeper than the brace tokens:
            // a guard declared at depth d dies when a `}` at depth < d
            // closes its block.
            guards.retain(|g| g.depth <= t.depth);
            i += 1;
            continue;
        }
        if t.kind == TokKind::Ident && t.text == "let" {
            let stmt_depth = t.depth;
            // Statement extent: to the `;` at this depth.
            let mut end = i + 1;
            while end < toks.len() && !(toks[end].text == ";" && toks[end].depth == stmt_depth) {
                if toks[end].depth < stmt_depth {
                    break;
                }
                end += 1;
            }
            // Bound name: first ident after `let` that isn't `mut`.
            let name = toks[i + 1..end]
                .iter()
                .find(|t| t.kind == TokKind::Ident && t.text != "mut")
                .map(|t| t.text.clone());
            // RHS that *is* a closure literal defines code, not a borrow.
            let eq = (i..end).find(|&k| toks[k].text == "=" && toks[k].depth == stmt_depth);
            let rhs_is_closure = eq.is_some_and(|e| {
                toks.get(e + 1).is_some_and(|t| t.text == "|" || t.text == "move")
            });
            if rhs_is_closure {
                i = end.max(i + 1);
                continue;
            }
            // The initializer runs under the guards already live.
            (i..end).filter(|&k| is_poll_point(toks, k)).for_each(|k| flag(k, &guards, &mut out));
            let borrows = (i..end).any(|k| {
                is_method_call(toks, k, "borrow") || is_method_call(toks, k, "borrow_mut")
            });
            if let (Some(name), true) = (name, borrows) {
                if name != "_" {
                    guards.push(Guard { name, line: t.line, depth: stmt_depth });
                }
            }
            i = end.max(i + 1);
            continue;
        }
        // `drop(g)` releases the guard early.
        if is_call(toks, i) && t.text == "drop" {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Ident {
                    guards.retain(|g| g.name != arg.text);
                }
            }
        }
        if is_poll_point(toks, i) {
            flag(i, &guards, &mut out);
        }
        i += 1;
    }

    // Leg 2: poll points inside with_slice/with_segment closures.
    for i in 0..toks.len() {
        if !(is_call(toks, i) && WITH_BORROW_ENTRY.contains(&toks[i].text.as_str())) {
            continue;
        }
        let entry = toks[i].text.clone();
        let close = matching_close(toks, i + 1);
        for_each_closure_body(toks, (i + 2, close), &mut |(b0, b1)| {
            for k in b0..b1 {
                if is_poll_point(toks, k) {
                    out.push(Finding {
                        file: path.to_string(),
                        line: toks[k].line,
                        rule: Rule::BorrowAcrossPoll,
                        message: format!(
                            "`{}` inside the closure passed to `{entry}` — the \
                             container storage stays borrowed for the whole \
                             closure, so polling here can double-borrow",
                            toks[k].text
                        ),
                        hint: format!(
                            "copy what you need out of the `{entry}` closure and \
                             poll/wait after it returns"
                        ),
                    });
                }
            }
        });
    }
    out
}

/// True when the condition token range looks like a location-id guard:
/// an id accessor (`.id(`, `this_id`, `*_id`) compared with `==`/`!=`.
fn is_location_id_condition(toks: &[Tok], range: (usize, usize)) -> bool {
    let mut has_id = false;
    let mut has_cmp = false;
    for k in range.0..range.1 {
        let t = &toks[k];
        if t.kind == TokKind::Ident
            && (t.text == "id" || t.text == "this_id" || t.text.ends_with("_id"))
            && k > range.0
            && (toks[k - 1].text == "." || toks.get(k + 1).is_some_and(|n| n.text == "("))
        {
            has_id = true;
        }
        if (t.text == "=" || t.text == "!") && toks.get(k + 1).is_some_and(|n| n.text == "=") {
            has_cmp = true;
        }
    }
    has_id && has_cmp
}

/// Collects collective calls in `range`, as `(index, name)`.
fn collectives_in(toks: &[Tok], range: (usize, usize)) -> Vec<(usize, String)> {
    (range.0..range.1)
        .filter(|&k| is_call(toks, k) && COLLECTIVES.contains(&toks[k].text.as_str()))
        .map(|k| (k, toks[k].text.clone()))
        .collect()
}

/// L3: a collective call lexically nested under a location-id conditional
/// — only some locations reach it, so the collective hangs.
///
/// A symmetric `if id == 0 { collective } else { collective }` split is
/// *not* flagged: every location still reaches a collective.
pub fn divergent_collective(path: &str, file: &LexedFile) -> Vec<Finding> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "if") {
            continue;
        }
        let if_depth = toks[i].depth;
        // Condition: tokens up to the `{` at the same depth.
        let mut body_open = i + 1;
        while body_open < toks.len()
            && !(toks[body_open].kind == TokKind::Open
                && toks[body_open].text == "{"
                && toks[body_open].depth == if_depth)
        {
            if toks[body_open].depth < if_depth {
                break;
            }
            body_open += 1;
        }
        if body_open >= toks.len() || toks[body_open].kind != TokKind::Open {
            continue;
        }
        if !is_location_id_condition(toks, (i + 1, body_open)) {
            continue;
        }
        let body_close = matching_close(toks, body_open);
        let then_collectives = collectives_in(toks, (body_open + 1, body_close));
        // Else branch (plain or else-if chain), if any.
        let mut else_collectives = Vec::new();
        let mut has_else = false;
        if toks.get(body_close + 1).is_some_and(|t| t.text == "else") {
            has_else = true;
            // The else extent runs to the close of the last brace block of
            // the chain at this depth.
            let mut j = body_close + 2;
            while j < toks.len() && toks[j].depth >= if_depth {
                if toks[j].kind == TokKind::Open && toks[j].text == "{" && toks[j].depth == if_depth
                {
                    let c = matching_close(toks, j);
                    else_collectives.extend(collectives_in(toks, (j + 1, c)));
                    j = c + 1;
                    // Chain continues only via `else`.
                    if !toks.get(j).is_some_and(|t| t.text == "else") {
                        break;
                    }
                } else {
                    j += 1;
                }
            }
        }
        let flag = |list: &[(usize, String)], out: &mut Vec<Finding>| {
            for (k, name) in list {
                out.push(Finding {
                    file: path.to_string(),
                    line: toks[*k].line,
                    rule: Rule::DivergentCollective,
                    message: format!(
                        "collective `{name}` under a location-id conditional — \
                         locations failing the guard never reach it, so the \
                         collective hangs"
                    ),
                    hint: "hoist the collective out of the id guard (or give the \
                           other branch a matching collective)"
                        .to_string(),
                });
            }
        };
        if !then_collectives.is_empty() && (!has_else || else_collectives.is_empty()) {
            flag(&then_collectives, &mut out);
        }
        if !else_collectives.is_empty() && then_collectives.is_empty() {
            flag(&else_collectives, &mut out);
        }
    }
    out
}

/// L6: every `unsafe` block / fn / impl needs an adjacent `// SAFETY:`
/// comment stating the invariant (uppercase, the std convention).
pub fn undocumented_unsafe(path: &str, file: &LexedFile) -> Vec<Finding> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "unsafe") {
            continue;
        }
        let line = toks[i].line;
        let site = match toks.get(i + 1).map(|t| t.text.as_str()) {
            Some("{") => "block",
            Some("fn") => "fn",
            Some("impl") => "impl",
            Some("trait") => "trait",
            _ => "item",
        };
        if has_adjacent_safety_comment(file, line) {
            continue;
        }
        out.push(Finding {
            file: path.to_string(),
            line,
            rule: Rule::UndocumentedUnsafe,
            message: format!("`unsafe` {site} without an adjacent `// SAFETY:` comment"),
            hint: "state the invariant that makes this sound in a `// SAFETY:` \
                   comment directly above the `unsafe`"
                .to_string(),
        });
    }
    out
}

/// True when a safety comment is adjacent to `line`: on the line itself,
/// anywhere in the contiguous comment/attribute run directly above it, or
/// on the first line inside the block (`unsafe { // SAFETY:` style).
/// Accepts the std `// SAFETY:` convention and the rustdoc `# Safety`
/// section heading (the `missing_safety_doc` convention for declaring an
/// `unsafe fn`'s caller contract).
fn has_adjacent_safety_comment(file: &LexedFile, line: u32) -> bool {
    let commented = |l: u32| {
        file.comments.iter().any(|c| {
            c.line <= l
                && l <= c.end_line
                && (c.text.contains("SAFETY:") || c.text.contains("# Safety"))
        })
    };
    if commented(line) || commented(line + 1) {
        return true;
    }
    // Walk the contiguous comment/attribute run above.
    let mut l = line - 1;
    while l >= 1 {
        let idx = (l - 1) as usize;
        let Some(text) = file.lines.get(idx) else { break };
        let t = text.trim_start();
        let is_comment_line = file.comments.iter().any(|c| c.line <= l && l <= c.end_line);
        if !(is_comment_line || t.starts_with("#[") || t.starts_with("#![")) {
            break;
        }
        if commented(l) {
            return true;
        }
        l -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule: fn(&str, &LexedFile) -> Vec<Finding>, src: &str) -> Vec<Finding> {
        rule("test.rs", &lex(src))
    }

    #[test]
    fn l1_fires_on_sync_inside_async_closure() {
        let f = run(
            blocking_in_handler,
            "fn f(loc: &Location) { loc.async_rmi(1, h, move |t, l| { l.sync_rmi(0, h2, |x, _| x.v); }); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("sync_rmi"));
        assert!(f[0].message.contains("async_rmi"));
    }

    #[test]
    fn l1_clean_on_nonblocking_handler_and_outside_waits() {
        let f = run(
            blocking_in_handler,
            "fn f(loc: &Location) { loc.async_rmi(1, h, move |t, _| t.bump(1)); loc.barrier(); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l1_fires_on_wait_in_dir_route() {
        let f = run(
            blocking_in_handler,
            "fn f() { dir_route(obj, pol, g, None, move |rep, l, _| { fut.wait(); }); }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("wait"));
    }

    #[test]
    fn l1_ignores_names_in_strings_and_or_expressions() {
        let f = run(
            blocking_in_handler,
            r#"fn f() { loc.async_rmi(1, h, move |t, _| { t.log("call barrier() later"); let m = a | b; }); }"#,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l2_fires_on_guard_across_poll() {
        let f = run(
            borrow_across_poll,
            "fn f(loc: &Location) { let g = cell.borrow_mut(); g.push(1); loc.poll(); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains('g'));
    }

    #[test]
    fn l2_clean_when_dropped_or_scoped() {
        let ok = "fn f(loc: &Location) { { let g = cell.borrow(); use_it(&g); } loc.poll(); \
                  let h = cell.borrow(); drop(h); loc.barrier(); }";
        assert!(run(borrow_across_poll, ok).is_empty());
    }

    #[test]
    fn l2_fires_inside_with_slice_closure() {
        let f = run(
            borrow_across_poll,
            "fn f(a: &PArray<u64>) { a.with_slice(run, |s| { loc.barrier(); s.len() }); }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("with_slice"));
    }

    #[test]
    fn l2_closure_binding_is_not_a_guard() {
        let ok = "fn f(loc: &Location) { let reader = |c: &Cell| c.borrow().len(); loc.poll(); }";
        assert!(run(borrow_across_poll, ok).is_empty());
    }

    #[test]
    fn l3_fires_on_guarded_barrier() {
        let f = run(
            divergent_collective,
            "fn f(loc: &Location) { if loc.id() == 0 { loc.barrier(); } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("barrier"));
    }

    #[test]
    fn l3_clean_on_symmetric_split_and_plain_guards() {
        let ok = "fn f(loc: &Location) { \
                  if loc.id() == 0 { loc.broadcast(0, v); } else { loc.broadcast(0, w); } \
                  if loc.id() == 0 { println(); } loc.barrier(); }";
        assert!(run(divergent_collective, ok).is_empty());
    }

    #[test]
    fn l3_fires_on_collective_only_in_else() {
        let f = run(
            divergent_collective,
            "fn f(loc: &Location) { if loc.id() != 0 { work(); } else { loc.rmi_fence(); } }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("rmi_fence"));
    }

    #[test]
    fn l3_ignores_non_id_conditions() {
        let ok = "fn f(loc: &Location) { if done == 0 { loc.barrier(); } }";
        assert!(run(divergent_collective, ok).is_empty());
    }

    #[test]
    fn l6_fires_without_safety_comment() {
        let f = run(undocumented_unsafe, "fn f() { unsafe { danger() } }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SAFETY"));
    }

    #[test]
    fn l6_accepts_adjacent_safety_comments() {
        for ok in [
            "fn f() { // SAFETY: checked above\n unsafe { danger() } }",
            "fn f() { unsafe { // SAFETY: checked\n danger() } }",
            "fn f() { unsafe { danger() } // SAFETY: trailing\n }",
            "// SAFETY: the invariant\n#[inline]\nunsafe fn g() {}",
            "/// Releases the lock.\n///\n/// # Safety\n/// Caller must hold it.\nunsafe fn g() {}",
        ] {
            assert!(run(undocumented_unsafe, ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn l6_lowercase_safety_is_not_enough() {
        let f = run(undocumented_unsafe, "// Safety: close but wrong case\nunsafe fn g() {}");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn l6_doc_comment_does_not_break_the_run() {
        let ok = "// SAFETY: real invariant\n/// docs\nunsafe fn g() {}";
        assert!(run(undocumented_unsafe, ok).is_empty());
    }
}
