//! pVector: a dynamic indexed sequence — the pArray/pList hybrid of the
//! paper's taxonomy (Fig. 12d).
//!
//! pVector gives O(1) *index-based* access (like pArray) but supports
//! inserts and erases (like pList), paying the well-known tradeoff the
//! paper measures in Fig. 42: inserting shifts elements inside a block
//! (linear time) and unbalances the partition.
//!
//! A pVector is a [`PArray`] plus the structural edits waiting for the next
//! commit. The array holds one contiguous block per location, cut by an
//! [`ExplicitPartition`](stapl_core::partition::ExplicitPartition) of the
//! block lengths (a balanced one until the first commit). Element access is
//! the array's, through [`PVector::array`], and addresses the committed
//! layout. `insert_async`, `erase_async` and `push_back` route by that
//! layout too, and only leave an edit at the owner: nothing moves until
//! the collective [`PContainer::commit`], where each location replays its
//! edits in arrival order onto its block and the array is re-cut to the
//! new lengths — the lazy replicated metadata of Chapter VII.G. If no
//! element write comes between an edit and its commit, the result is that
//! of applying each edit on arrival. A commit that finds a location's
//! block redistributed under its pending edits panics rather than replay
//! them onto elements they were not addressed to.

use stapl_core::bcontainer::MemSize;
use stapl_core::domain::Range1d;
use stapl_core::interfaces::{PContainer, RangedContainer};
use stapl_core::pobject::PObject;
use stapl_rts::{LocId, Location};

use crate::array::PArray;

/// A structural edit waiting at its owner for the next commit.
enum Edit<T> {
    /// Insert before GID `.0`. The offset is clamped to the block's live
    /// length, so a GID past the block (`usize::MAX`) appends.
    Insert(usize, T),
    /// Erase GID `.0`: clamped to the block's live last element, skipped
    /// on an empty block.
    Erase(usize),
}

/// A location's edits waiting for the next commit, and the block they
/// address: the location's block as the last collective left it.
struct Pending<T> {
    edits: Vec<Edit<T>>,
    block: Option<Range1d>,
}

/// The STAPL pVector.
#[derive(Clone)]
pub struct PVector<T: Send + Clone + 'static> {
    a: PArray<T>,
    pending: PObject<Pending<T>>,
}

impl<T: Send + Clone + 'static> PVector<T> {
    /// **Collective.** A pVector of `n` copies of `init`, balanced.
    pub fn new(loc: &Location, n: usize, init: T) -> Self {
        Self::over(loc, || PArray::new(loc, n, init))
    }

    /// **Collective.** Builds with `f(i)` at every index, locally.
    pub fn from_fn(loc: &Location, n: usize, f: impl Fn(usize) -> T) -> Self
    where
        T: Default,
    {
        Self::over(loc, || PArray::from_fn(loc, n, f))
    }

    fn over(loc: &Location, array: impl FnOnce() -> PArray<T>) -> Self {
        let pending = PObject::register(loc, Pending { edits: Vec::new(), block: None });
        // pArray's constructor ends in the barrier that syncs both handles.
        let v = PVector { a: array(), pending };
        v.record_block();
        v
    }

    /// The elements as of the last commit: a pArray, whose element, bulk
    /// and local methods and views are the pVector's. Redistribute it only
    /// through [`PVector::rebalance`], which commits first: an edit still
    /// pending addresses its block as the last commit cut it, and the next
    /// commit panics if that block has moved.
    pub fn array(&self) -> &PArray<T> {
        &self.a
    }

    /// Notes this location's block as the one later edits address.
    fn record_block(&self) {
        self.pending.local_mut().block = self.a.own_block();
    }

    fn leave(&self, owner: LocId, edit: Edit<T>) {
        self.pending.invoke_at(owner, move |cell, _| cell.borrow_mut().edits.push(edit));
    }

    /// Asynchronously inserts `v` before global index `gid` at the next
    /// commit; `gid == global_size()` is [`PVector::push_back`]. O(block)
    /// at the commit — the linear cost the paper contrasts with pList's O(1).
    pub fn insert_async(&self, gid: usize, v: T) {
        if gid == self.global_size() {
            return self.push_back(v);
        }
        self.leave(self.a.locate_element(gid).1, Edit::Insert(gid, v));
    }

    /// Asynchronously erases the element at global index `gid` at the next
    /// commit.
    pub fn erase_async(&self, gid: usize) {
        self.leave(self.a.locate_element(gid).1, Edit::Erase(gid));
    }

    /// Appends at the global end at the next commit: to the last location's
    /// block, amortized O(1).
    pub fn push_back(&self, v: T) {
        self.leave(self.location().nlocs() - 1, Edit::Insert(usize::MAX, v));
    }

    /// **Collective.** Commits, then restores a balanced distribution after
    /// skewed `insert`/`erase` bursts (Section V.G's redistribution for the
    /// dynamic case): block sizes then differ by at most one.
    pub fn rebalance(&self) {
        self.commit();
        self.a.rebalance();
        self.record_block();
    }

    /// All elements in index order as of the last commit (test/debug
    /// helper): one bulk read of the array.
    pub fn collect_ordered(&self) -> Vec<T> {
        self.a.get_range(Range1d::with_size(self.global_size()))
    }

    /// **Collective.** Removes all elements, pending edits included.
    pub fn clear(&self) {
        self.location().rmi_fence();
        self.pending.local_mut().edits.clear();
        self.a.reblock(|_, block| block.clear());
        self.record_block();
    }
}

impl<T: Send + Clone + 'static> PContainer for PVector<T> {
    fn location(&self) -> &Location {
        self.a.location()
    }

    /// Size as of the last commit (lazy replicated metadata).
    fn global_size(&self) -> usize {
        self.a.global_size()
    }

    fn local_size(&self) -> usize {
        self.a.local_size()
    }

    /// **Collective.** Replays every location's pending edits, in arrival
    /// order, onto its block, and re-cuts the array to the new blocks.
    ///
    /// # Panics
    ///
    /// On a location with pending edits whose array was redistributed other
    /// than by [`PVector::rebalance`] since the last commit.
    fn commit(&self) {
        self.location().rmi_fence();
        let (edits, addressed) = {
            let mut pending = self.pending.local_mut();
            (std::mem::take(&mut pending.edits), pending.block)
        };
        let now = self.a.own_block();
        if !edits.is_empty() && now != addressed {
            let show =
                |b: Option<Range1d>| b.map_or("other blocks".into(), |r| format!("[{}, {})", r.lo, r.hi));
            panic!(
                "pVector commit: location {}'s {} pending edits address its block {}, but its array \
                 was redistributed since and it now holds {}: commit before redistributing the \
                 array, or use PVector::rebalance, which commits first",
                self.location().id(),
                edits.len(),
                show(addressed),
                show(now)
            );
        }
        self.a.reblock(|lo, block| {
            for edit in edits {
                match edit {
                    Edit::Insert(g, v) => block.insert((g - lo).min(block.len()), v),
                    Edit::Erase(g) if !block.is_empty() => {
                        block.remove((g - lo).min(block.len() - 1));
                    }
                    Edit::Erase(_) => {}
                }
            }
        });
        self.record_block();
    }

    fn memory_size(&self) -> MemSize {
        self.a.memory_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_core::interfaces::{ElementRead, ElementWrite};
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn construct_get_set() {
        execute(RtsConfig::default(), 3, |loc| {
            let v = PVector::from_fn(loc, 10, |i| i as i64);
            assert_eq!(v.global_size(), 10);
            for i in 0..10 {
                assert_eq!(v.array().get_element(i), i as i64);
            }
            if loc.id() == 2 {
                v.array().set_element(0, -5);
            }
            loc.rmi_fence();
            assert_eq!(v.array().get_element(0), -5);
        });
    }

    #[test]
    fn insert_shifts_subsequent_elements() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 6, |i| i as i32 * 10);
            if loc.id() == 0 {
                v.insert_async(2, 99);
            }
            v.commit();
            assert_eq!(v.global_size(), 7);
            assert_eq!(v.collect_ordered(), vec![0, 10, 99, 20, 30, 40, 50]);
        });
    }

    #[test]
    fn erase_removes_and_commit_rebalances_bounds() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 6, |i| i as i32);
            if loc.id() == 1 {
                v.erase_async(0);
                v.erase_async(5); // still routed by the committed layout
            }
            v.commit();
            assert_eq!(v.global_size(), 4);
            assert_eq!(v.collect_ordered(), vec![1, 2, 3, 4]);
        });
    }

    #[test]
    fn push_back_appends_globally() {
        execute(RtsConfig::default(), 3, |loc| {
            let v = PVector::new(loc, 3, 0u32);
            if loc.id() == 0 {
                v.push_back(7);
                v.push_back(8);
            }
            v.commit();
            assert_eq!(v.global_size(), 5);
            assert_eq!(v.collect_ordered(), vec![0, 0, 0, 7, 8]);
            assert_eq!(v.array().get_element(4), 8);
        });
    }

    #[test]
    fn apply_get_round_trips() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::new(loc, 4, 1u64);
            if loc.id() == 0 {
                let r = v.array().apply_get(3, |x| {
                    *x += 9;
                    *x
                });
                assert_eq!(r, 10);
            }
            loc.rmi_fence();
            assert_eq!(v.array().get_element(3), 10);
        });
    }

    #[test]
    fn mixed_operations_converge_after_commit() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 8, |i| i as i64);
            // Interleave reads/inserts/deletes from both locations, then
            // commit and verify global invariants (size accounting).
            for k in 0..4 {
                if loc.id() == 0 {
                    v.insert_async(k, 100 + k as i64);
                } else {
                    v.erase_async(7 - k);
                }
                assert_eq!(v.array().get_element(k), k as i64); // the committed layout
            }
            v.commit();
            assert_eq!(v.global_size(), 8); // 4 inserts, 4 erases
        });
    }

    #[test]
    fn rebalance_restores_balance_after_skewed_inserts() {
        execute(RtsConfig::default(), 3, |loc| {
            let v = PVector::from_fn(loc, 9, |i| i as i64);
            // Location 0 bloats its own block with 12 extra elements.
            if loc.id() == 0 {
                for k in 0..12 {
                    v.insert_async(0, 100 + k);
                }
            }
            v.commit();
            let before = v.collect_ordered();
            assert_eq!(v.global_size(), 21);
            v.rebalance();
            // Same elements in the same order...
            assert_eq!(v.collect_ordered(), before);
            assert_eq!(v.global_size(), 21);
            // ...but block sizes now differ by at most one.
            let sizes = loc.allgather(v.local_size());
            assert_eq!(sizes.iter().sum::<usize>(), 21);
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "{sizes:?}");
            // Index resolution is exact again.
            for (i, x) in before.iter().enumerate() {
                assert_eq!(v.array().get_element(i), *x);
            }
        });
    }

    #[test]
    fn rebalance_handles_emptied_locations() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 8, |i| i as u32);
            // Erase location 1's whole block.
            if loc.id() == 0 {
                for _ in 0..4 {
                    v.erase_async(4);
                }
            }
            v.commit();
            assert_eq!(v.global_size(), 4);
            v.rebalance();
            assert_eq!(v.collect_ordered(), vec![0, 1, 2, 3]);
            let sizes = loc.allgather(v.local_size());
            assert_eq!(sizes, vec![2, 2]);
        });
    }

    #[test]
    fn rebalance_of_balanced_vector_is_identity() {
        execute(RtsConfig::default(), 4, |loc| {
            let v = PVector::from_fn(loc, 17, |i| i as u64 * 3);
            let before = v.collect_ordered();
            v.rebalance();
            assert_eq!(v.collect_ordered(), before);
            let _ = loc;
        });
    }

    #[test]
    fn clear_empties() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::new(loc, 10, 3u8);
            v.push_back(4);
            v.clear();
            v.commit();
            assert_eq!(v.global_size(), 0);
            assert_eq!(v.local_size(), 0);
        });
    }

    /// `op` on every location of a pVector `[0, 6)` at P=2.
    fn on_six<R>(op: impl Fn(&PVector<i32>) -> R + Send + Sync) {
        execute(RtsConfig::default(), 2, |loc| {
            op(&PVector::from_fn(loc, 6, |i| i as i32));
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_the_end_panics() {
        on_six(|v| v.array().get_element(1000));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_past_the_end_panics() {
        on_six(|v| v.array().set_element(2000, 77));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn apply_set_past_the_end_panics() {
        on_six(|v| v.array().apply_set(6, |x| *x = 1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn apply_get_past_the_end_panics() {
        on_six(|v| v.array().apply_get(6, |x| *x));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn erase_past_the_end_panics() {
        on_six(|v| v.erase_async(5000));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_past_the_end_panics() {
        on_six(|v| v.insert_async(7, 1));
    }

    #[test]
    fn insert_at_the_end_appends() {
        on_six(|v| {
            if v.location().id() == 0 {
                v.insert_async(6, 60);
                v.insert_async(6, 61);
            }
            v.commit();
            assert_eq!(v.collect_ordered(), [0, 1, 2, 3, 4, 5, 60, 61]);
        });
    }

    /// An element write between an edit and its commit addresses the
    /// committed layout; the insert lands in front of it at the commit.
    #[test]
    fn a_write_before_the_commit_addresses_the_committed_layout() {
        on_six(|v| {
            if v.location().id() == 0 {
                v.insert_async(0, 99);
                v.array().set_element(0, 55);
            }
            v.commit();
            assert_eq!(v.collect_ordered(), [99, 55, 1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn reads_before_the_commit_address_the_committed_layout() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 8, |i| i as u32);
            if loc.id() == 0 {
                v.erase_async(4);
            }
            loc.rmi_fence();
            assert_eq!(v.array().get_element(6), 6);
            // This location's committed piece still lends its slice.
            let (bcid, piece) = v.array().local_pieces()[0];
            let got = v.array().with_slice(bcid, piece, |s| s.to_vec());
            assert_eq!(got, Some(piece.iter().map(|g| g as u32).collect()));
            v.commit();
            assert_eq!(v.array().get_element(6), 7);
        });
    }

    /// Blocks `[8 | 4]` after the first commit, `[6 | 6]` after the array
    /// is rebalanced under a pending `erase_async(7)`: replayed onto the new
    /// block, the erase would remove GID 5, not the value it addressed.
    #[test]
    #[should_panic(expected = "pending edits address its block [0, 8)")]
    fn a_commit_after_the_array_was_rebalanced_under_an_edit_panics() {
        execute(RtsConfig::default(), 2, |loc| {
            let v = PVector::from_fn(loc, 12, |i| i as i32);
            if loc.id() == 0 {
                v.insert_async(0, 200);
                v.insert_async(0, 201);
            } else {
                v.erase_async(11);
                v.erase_async(10);
            }
            v.commit();
            assert_eq!(v.collect_ordered(), [201, 200, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
            if loc.id() == 0 {
                v.erase_async(7); // the value 5
            }
            v.array().rebalance();
            v.commit();
        });
    }

    /// Rotated under pending edits, each location holds its peer's block.
    #[test]
    #[should_panic(expected = "pending edits address its block")]
    fn a_commit_after_the_array_was_rotated_under_an_edit_panics() {
        on_six(|v| {
            v.erase_async(3 * v.location().id());
            v.array().rotate(1);
            v.commit();
        });
    }

    /// Location 0 leaves a commit and at once inserts into location 2's
    /// block and writes an element, each sent as it is issued: a peer may
    /// still be in the commit's closing barrier. The insert waits for the next commit; the write
    /// addresses the new layout, which every location installed before
    /// that barrier.
    #[test]
    fn an_edit_issued_after_commit_lands_in_the_next_one() {
        execute(RtsConfig::unbuffered(), 3, |loc| {
            let v = PVector::from_fn(loc, 9, |i| i as u32);
            if loc.id() == 1 {
                v.erase_async(0); // blocks [2, 3, 3]: GIDs 5..8 on location 2
            }
            v.commit();
            if loc.id() == 0 {
                v.insert_async(6, 100);
                v.array().set_element(5, 50); // element 6; element 5 in the old layout
            }
            loc.rmi_fence();
            assert_eq!(v.collect_ordered(), [1, 2, 3, 4, 5, 50, 7, 8]);
            v.commit();
            assert_eq!(v.collect_ordered(), [1, 2, 3, 4, 5, 50, 100, 7, 8]);
        });
    }
}
