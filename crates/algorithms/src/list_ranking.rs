//! Parallel list ranking by pointer jumping (Wyllie's algorithm) — the
//! engine under the Euler-tour technique (Chapter X.H).
//!
//! The list is represented as a successor pArray: `succ[i]` is the index
//! of the element after `i`, or [`NIL`] for the last element. Each of the
//! ⌈log₂ n⌉ rounds doubles the pointers: `rank[i] += rank[succ[i]]`,
//! `succ[i] = succ[succ[i]]`, with the remote reads issued as *batched
//! split-phase* gets — the communication/computation overlap the paper's
//! split-phase methods exist for.

use stapl_containers::array::PArray;
use stapl_core::interfaces::{ElementRead, ElementWrite, LocalIteration, PContainer};

/// End-of-list marker.
pub const NIL: usize = usize::MAX;

/// **Collective.** Computes, for every element, the number of elements
/// *after* it in its list. `succ` is not modified.
fn list_rank_after(succ: &PArray<usize>) -> PArray<u64> {
    let loc = succ.location().clone();
    let n = succ.global_size();
    // Working copies (double-buffered).
    let ws = PArray::new(&loc, n, NIL);
    let wr = PArray::new(&loc, n, 0u64);
    let next_s = PArray::new(&loc, n, NIL);
    let next_r = PArray::new(&loc, n, 0u64);
    succ.for_each_local(|i, s| {
        ws.set_element(i, *s); // aligned: local write
        wr.set_element(i, u64::from(*s != NIL));
    });
    loc.barrier();
    let mut cur = (ws, wr);
    let mut nxt = (next_s, next_r);
    let rounds = usize::BITS - n.max(2).leading_zeros();
    for _ in 0..=rounds {
        // Read phase: batched split-phase reads of the successor's
        // (succ, rank).
        let mut items: Vec<(usize, usize, u64)> = Vec::new(); // (i, s, r)
        cur.0.for_each_local(|i, s| {
            let r = cur.1.get_element(i); // aligned local read
            items.push((i, *s, r));
        });
        const BATCH: usize = 128;
        for chunk in items.chunks(BATCH) {
            let futs: Vec<_> = chunk
                .iter()
                .map(|(_, s, _)| {
                    if *s == NIL {
                        None
                    } else {
                        Some((cur.0.split_get_element(*s), cur.1.split_get_element(*s)))
                    }
                })
                .collect();
            for ((i, s, r), fut) in chunk.iter().zip(futs) {
                match fut {
                    None => {
                        nxt.0.set_element(*i, *s);
                        nxt.1.set_element(*i, *r);
                    }
                    Some((fs, fr)) => {
                        let ss = fs.get();
                        let rs = fr.get();
                        nxt.0.set_element(*i, ss);
                        nxt.1.set_element(*i, r + rs);
                    }
                }
            }
        }
        // Everyone finished reading `cur` and writing `nxt` (all writes
        // were local; the barrier separates rounds).
        loc.rmi_fence();
        std::mem::swap(&mut cur, &mut nxt);
    }
    cur.1
}

/// **Collective.** Positions from the head of the list: element `i` of a
/// list of length `len` gets `len - 1 - rank_after(i)`. Elements not in
/// any list (i.e. unreachable self-contained NILs) get their rank-based
/// value as well; callers index only list members.
pub fn list_positions(succ: &PArray<usize>, len: usize) -> PArray<u64> {
    let ranks = list_rank_after(succ);
    let pos = PArray::new(succ.location(), succ.global_size(), 0u64);
    ranks.for_each_local(|i, r| {
        pos.set_element(i, (len as u64 - 1).saturating_sub(*r));
    });
    succ.location().barrier();
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_rts::{execute, RtsConfig};

    /// Builds succ for the identity list 0 → 1 → ... → n-1.
    fn chain(loc: &stapl_rts::Location, n: usize) -> PArray<usize> {
        PArray::from_fn(loc, n, |i| if i + 1 < n { i + 1 } else { NIL })
    }

    #[test]
    fn chain_ranks_count_down() {
        execute(RtsConfig::default(), 2, |loc| {
            let s = chain(loc, 10);
            let r = list_rank_after(&s);
            for i in 0..10 {
                assert_eq!(r.get_element(i), (9 - i) as u64);
            }
        });
    }

    #[test]
    fn positions_recover_list_order() {
        execute(RtsConfig::default(), 3, |loc| {
            // A scrambled list over indices: 4 → 2 → 0 → 5 → 1 → 3.
            let order = [4usize, 2, 0, 5, 1, 3];
            let s = PArray::from_fn(loc, 6, |i| {
                let at = order.iter().position(|&x| x == i).unwrap();
                if at + 1 < 6 {
                    order[at + 1]
                } else {
                    NIL
                }
            });
            let pos = list_positions(&s, 6);
            for (expect, &i) in order.iter().enumerate() {
                assert_eq!(pos.get_element(i), expect as u64, "element {i}");
            }
        });
    }

    #[test]
    fn single_element_list() {
        execute(RtsConfig::default(), 2, |loc| {
            let s = PArray::new(loc, 1, NIL);
            let r = list_rank_after(&s);
            assert_eq!(r.get_element(0), 0);
        });
    }

    #[test]
    fn long_chain_many_rounds() {
        execute(RtsConfig::default(), 2, |loc| {
            let n = 300;
            let s = chain(loc, n);
            let r = list_rank_after(&s);
            for i in (0..n).step_by(37) {
                assert_eq!(r.get_element(i), (n - 1 - i) as u64);
            }
        });
    }
}
