//! `p_map_reduce_kv` takes emitted keys borrowed and owns a key only the
//! first time a location sees it: counted here through a key type whose
//! `to_owned` counts its calls, on the Zipf corpus the unit tests use.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashSet;

use stapl_algorithms::mapreduce::{map_reduce, p_map_reduce_kv, synthetic_corpus, word_count_kv};
use stapl_containers::associative::PHashMap;
use stapl_core::interfaces::{AssociativeContainer, PContainer};
use stapl_rts::{execute, execute_collect, RtsConfig};
use stapl_views::assoc_view::MapView;

thread_local! {
    /// `to_owned` calls made by this location (locations are threads).
    static OWNED: Cell<usize> = const { Cell::new(0) };
}

/// The borrowed form of a key. Not `Clone`, so that `to_owned` is the one
/// below and not the blanket impl's.
#[derive(Debug, PartialEq, Eq, Hash)]
struct Rank(u32);

#[derive(Debug, PartialEq, Eq, Hash)]
struct OwnedRank(Rank);

impl Clone for OwnedRank {
    fn clone(&self) -> Self {
        OwnedRank(Rank(self.0 .0))
    }
}

impl Borrow<Rank> for OwnedRank {
    fn borrow(&self) -> &Rank {
        &self.0
    }
}

impl ToOwned for Rank {
    type Owned = OwnedRank;

    fn to_owned(&self) -> OwnedRank {
        OWNED.with(|n| n.set(n.get() + 1));
        OwnedRank(Rank(self.0))
    }
}

/// `"word17"` → 17, the corpus' word rank.
fn rank(word: &str) -> u32 {
    word["word".len()..].parse().expect("a corpus word")
}

#[test]
fn one_owned_key_per_distinct_key_per_location() {
    execute(RtsConfig::default(), 3, |loc| {
        let docs: PHashMap<u64, String> = PHashMap::new(loc);
        let text = synthetic_corpus(loc, 600, 50, 11);
        for (i, line) in text.split_inclusive(' ').collect::<Vec<_>>().chunks(40).enumerate() {
            docs.insert_async((loc.id() * 100 + i) as u64, line.concat());
        }
        docs.commit();
        let view = MapView::new(docs);
        // What this location maps: the documents stored here.
        let (mut emits, mut distinct) = (0usize, HashSet::new());
        view.for_each_kv(|_, doc| {
            emits += doc.split_whitespace().count();
            distinct.extend(doc.split_whitespace().map(rank));
        });

        let chunked: PHashMap<OwnedRank, u64> = PHashMap::new(loc);
        OWNED.with(|n| n.set(0));
        p_map_reduce_kv(
            &view,
            &chunked,
            |_, doc, emit| doc.split_whitespace().for_each(|w| emit(&Rank(rank(w)), 1)),
            0,
            |acc, v| *acc += v,
        );
        let owned = OWNED.with(Cell::get);
        assert_eq!(owned, distinct.len(), "one to_owned per distinct key, {emits} emits");
        assert!(loc.allreduce_sum((emits > 2 * owned) as u64) > 0, "corpus too flat to tell");

        // Same counts as the per-pair streaming shuffle.
        let streaming: PHashMap<u32, u64> = PHashMap::new(loc);
        map_reduce(&streaming, text.split_whitespace(), |w, emit| emit(rank(w), 1), 0, |acc, v| {
            *acc += v
        });
        assert_eq!(chunked.global_size(), streaming.global_size());
        let mut mine: Vec<(u32, u64)> = Vec::new();
        chunked.for_each_local(|k, n| mine.push((k.0 .0, *n)));
        for (k, n) in mine {
            assert_eq!(streaming.find(k), Some(n), "count of word{k}");
        }
    });
}

/// Neither the local combine nor the output store draws a per-run hash key,
/// and the shuffle groups by bucket in a `Vec`: two executions on one corpus
/// merge in the same order and leave the pairs in the same store order.
#[test]
fn two_executions_leave_the_counts_in_the_same_store_order() {
    let run = || {
        execute_collect(RtsConfig::default(), 1, |loc| {
            let docs: PHashMap<u64, String> = PHashMap::new(loc);
            let text = synthetic_corpus(loc, 2000, 300, 5);
            for (i, line) in text.split_inclusive(' ').collect::<Vec<_>>().chunks(25).enumerate() {
                docs.insert_async(i as u64, line.concat());
            }
            docs.commit();
            let counts: PHashMap<String, u64> = PHashMap::with_buckets(loc, 4);
            word_count_kv(&MapView::new(docs), &counts);
            let mut order = Vec::new();
            counts.for_each_local(|w, n| order.push((w.clone(), *n)));
            order
        })
    };
    let first = run();
    assert!(first[0].len() > 100, "too few distinct words to tell an order");
    assert_eq!(first, run());
}
