//! MapReduce over associative pContainers (Chapter XII.C, Fig. 59): the
//! map phase emits (key, value) pairs that are *combined at the owner*
//! through the hash-partitioned shuffle (`apply_or_insert`), so the
//! reduce happens incrementally as pairs arrive — no separate shuffle
//! materialization.

use std::borrow::Borrow;
use std::hash::Hash;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stapl_containers::associative::{KvStore, PHashMap};
use stapl_core::gid::{Key, KeyHashMap};
use stapl_core::interfaces::{PContainer, SegmentedContainer};
use stapl_rts::Location;
use stapl_views::assoc_view::MapView;

/// **Collective.** Generic MapReduce: every location maps its own
/// `inputs`, emitting pairs through the closure handed to `map`; values
/// with equal keys are combined with `combine` at the key's owner.
/// Returns after a commit, so the result is globally consistent.
pub fn map_reduce<I, K, V, M, C>(
    out: &PHashMap<K, V>,
    inputs: impl IntoIterator<Item = I>,
    map: M,
    identity: V,
    combine: C,
) where
    K: Key + std::hash::Hash,
    V: Send + Clone + 'static,
    M: Fn(I, &mut dyn FnMut(K, V)),
    C: Fn(&mut V, V) + Send + Clone + 'static,
{
    for item in inputs {
        map(item, &mut |k, v| {
            let c = combine.clone();
            out.apply_or_insert(k, identity.clone(), move |slot| c(slot, v));
        });
    }
    out.commit();
}

/// **Collective.** MapReduce over a key-value view — the bucket-grained
/// shuffle: every location maps its local pairs of `input`, **combines
/// equal output keys locally first**, then ships the combined partials
/// with one `merge_segment` RMI per destination (owner, bucket) of `out`,
/// where they merge into the final entries. One message per bucket
/// instead of one per emitted pair — the chunked-DHT insert pattern that
/// makes word-count / histogram / group-by scale; the per-pair
/// [`map_reduce`] remains the streaming fallback.
///
/// `map` emits each key **borrowed** (`&Q`, e.g. `&str` for `String`
/// keys): a key already seen on this location combines in place, and only
/// a first sight pays `to_owned` — one owned key per distinct key, not
/// per emitted pair.
///
/// `identity` must be `combine`'s identity, and `combine` must be
/// associative and commutative (pairs arrive from all locations in
/// nondeterministic order).
pub fn p_map_reduce_kv<K, V, S, K2, Q, V2, M, C>(
    input: &MapView<K, V, S>,
    out: &PHashMap<K2, V2>,
    map: M,
    identity: V2,
    combine: C,
) where
    K: Key,
    V: Send + Clone + 'static,
    S: KvStore<K, V>,
    K2: Key + Hash + Borrow<Q>,
    Q: ?Sized + Hash + Eq + ToOwned<Owned = K2>,
    V2: Send + Clone + 'static,
    M: Fn(&K, &V, &mut dyn FnMut(&Q, V2)),
    C: Fn(&mut V2, V2) + Clone + Send + 'static,
{
    // Map + local combine: one entry per distinct output key.
    let mut partial: KeyHashMap<K2, V2> = KeyHashMap::default();
    input.for_each_kv(|k, v| {
        map(k, v, &mut |q, v2| match partial.get_mut(q) {
            Some(slot) => combine(slot, v2),
            None => combine(partial.entry(q.to_owned()).or_insert(identity.clone()), v2),
        })
    });
    // Shuffle: group by destination bucket (dense ids, so a `Vec`: merges
    // leave in bucket order, the same in every run), one bulk merge each.
    let mut per_bucket: Vec<Vec<(K2, V2)>> = vec![Vec::new(); out.segments().len()];
    for (k2, v2) in partial {
        per_bucket[out.bucket_of(&k2)].push((k2, v2));
    }
    for (sid, items) in per_bucket.into_iter().enumerate().filter(|(_, items)| !items.is_empty()) {
        out.merge_segment(sid, items, identity.clone(), combine.clone());
    }
    out.commit();
}

/// **Collective.** Word count over a distributed document collection (a
/// `MapView` of id → text): the chunked-MapReduce flagship. Each location
/// counts its local documents' words, then ships one combined message per
/// destination bucket.
pub fn word_count_kv<S>(
    docs: &MapView<u64, String, S>,
    out: &PHashMap<String, u64>,
) where
    S: KvStore<u64, String>,
{
    p_map_reduce_kv(
        docs,
        out,
        |_, text, emit| text.split_whitespace().for_each(|w| emit(w, 1)),
        0,
        |acc, v| *acc += v,
    );
}

/// **Collective.** The paper's flagship MapReduce: counts word
/// occurrences in this location's shard of a corpus (Fig. 59 used the
/// Simple English Wikipedia dump; see [`synthetic_corpus`]).
pub fn word_count(loc: &Location, local_text: &str) -> PHashMap<String, u64> {
    let counts: PHashMap<String, u64> = PHashMap::new(loc);
    map_reduce(
        &counts,
        local_text.split_whitespace(),
        |w, emit| emit(w.to_string(), 1),
        0,
        |acc, v| *acc += v,
    );
    counts
}

/// Generates this location's shard of a synthetic corpus with a
/// Zipf-like word distribution (rank-r word has weight 1/r), substituting
/// for the paper's 1.5 GB Wikipedia dump: the skewed key popularity is
/// what stresses the combining shuffle.
pub fn synthetic_corpus(loc: &Location, words_per_location: usize, vocab: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ (loc.id() as u64).wrapping_mul(0x2545_f491));
    // Inverse-CDF sampling over harmonic weights.
    let weights: Vec<f64> = (1..=vocab).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(vocab);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut out = String::with_capacity(words_per_location * 7);
    for _ in 0..words_per_location {
        let x: f64 = rng.random();
        let idx = cdf.partition_point(|&c| c < x).min(vocab - 1);
        out.push_str("word");
        out.push_str(&idx.to_string());
        out.push(' ');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stapl_core::interfaces::AssociativeContainer;
    use stapl_rts::{execute, RtsConfig};

    #[test]
    fn word_count_counts() {
        execute(RtsConfig::default(), 3, |loc| {
            // Each location contributes the same sentence.
            let counts = word_count(loc, "a b a c a b");
            assert_eq!(counts.find("a".into()), Some(9));
            assert_eq!(counts.find("b".into()), Some(6));
            assert_eq!(counts.find("c".into()), Some(3));
            assert_eq!(counts.find("d".into()), None);
            assert_eq!(counts.global_size(), 3);
        });
    }

    #[test]
    fn map_reduce_with_custom_combine() {
        execute(RtsConfig::default(), 2, |loc| {
            // Max-by-key over (key, value) pairs.
            let out: PHashMap<u32, u64> = PHashMap::new(loc);
            let pairs: Vec<(u32, u64)> =
                vec![(1, loc.id() as u64 * 10 + 5), (2, loc.id() as u64), (1, 3)];
            map_reduce(
                &out,
                pairs,
                |(k, v), emit| emit(k, v),
                0,
                |acc, v| {
                    if v > *acc {
                        *acc = v;
                    }
                },
            );
            assert_eq!(out.find(1), Some(15));
            assert_eq!(out.find(2), Some(1));
        });
    }

    #[test]
    fn kv_word_count_matches_sequential_model() {
        execute(RtsConfig::default(), 4, |loc| {
            // Distributed documents: every location contributes two lines.
            let docs: PHashMap<u64, String> = PHashMap::new(loc);
            let lines = [
                "the quick brown fox", "jumps over the lazy dog",
                "the fox likes the dog", "a dog and a fox",
                "over and over again", "the quick dog sleeps",
                "a lazy brown fox jumps", "again the fox sleeps",
            ];
            for (i, line) in lines.iter().enumerate() {
                if i % loc.nlocs() == loc.id() {
                    docs.insert_async(i as u64, line.to_string());
                }
            }
            docs.commit();
            // Sequential model over the full collection.
            let mut model: std::collections::HashMap<&str, u64> = Default::default();
            for line in lines {
                for w in line.split_whitespace() {
                    *model.entry(w).or_insert(0) += 1;
                }
            }
            let counts: PHashMap<String, u64> = PHashMap::new(loc);
            word_count_kv(&MapView::new(docs), &counts);
            assert_eq!(counts.global_size(), model.len());
            for (w, n) in &model {
                assert_eq!(counts.find(w.to_string()), Some(*n), "count of {w:?}");
            }
        });
    }

    #[test]
    fn kv_shuffle_is_bucket_grained_not_pair_grained() {
        execute(RtsConfig::unbuffered(), 4, |loc| {
            // A skewed corpus with many repeated words: the local combine
            // must collapse them before the shuffle.
            let docs: PHashMap<u64, String> = PHashMap::new(loc);
            let text = synthetic_corpus(loc, 400, 40, 3);
            docs.insert_async(loc.id() as u64, text.clone());
            docs.commit();
            let words: usize = text.split_whitespace().count();
            let view = MapView::new(docs);

            let chunked: PHashMap<String, u64> = PHashMap::new(loc);
            loc.rmi_fence();
            // Snapshot, then barrier, so no location starts the measured
            // phase before every location has its baseline.
            let before = loc.stats();
            loc.barrier();
            word_count_kv(&view, &chunked);
            let after = loc.stats();
            let chunked_reqs = after.remote_requests - before.remote_requests;
            assert!(after.segment_requests > before.segment_requests);

            // Per-pair baseline: one apply_or_insert per word occurrence.
            let streaming: PHashMap<String, u64> = PHashMap::new(loc);
            loc.rmi_fence();
            let before = loc.stats();
            loc.barrier();
            map_reduce(
                &streaming,
                text.split_whitespace(),
                |w, emit| emit(w.to_string(), 1),
                0,
                |acc, v| *acc += v,
            );
            let streaming_reqs = loc.stats().remote_requests - before.remote_requests;

            // Identical results...
            assert_eq!(chunked.global_size(), streaming.global_size());
            let mine = chunked.collect_ordered();
            for (w, n) in mine {
                assert_eq!(streaming.find(w.clone()), Some(n), "count of {w:?}");
            }
            // ... at a fraction of the traffic (words >> buckets).
            assert!(
                chunked_reqs * 10 <= streaming_reqs.max(1),
                "bucket-grained shuffle should cut remote requests >= 10x \
                 (got {chunked_reqs} vs {streaming_reqs} for {words} words)"
            );
        });
    }

    #[test]
    fn corpus_is_zipf_skewed_and_deterministic() {
        execute(RtsConfig::default(), 2, |loc| {
            let text = synthetic_corpus(loc, 2000, 50, 42);
            let again = synthetic_corpus(loc, 2000, 50, 42);
            assert_eq!(text, again, "same seed, same shard");
            let counts = word_count(loc, &text);
            let top = counts.find("word0".into()).unwrap_or(0);
            let rare = counts.find("word49".into()).unwrap_or(0);
            assert!(top > rare * 3, "zipf head {top} should dwarf tail {rare}");
            // Total counted words = words emitted.
            let mut total = 0u64;
            counts.for_each_local(|_, c| total += c);
            assert_eq!(loc.allreduce_sum(total), 4000);
        });
    }

    #[test]
    fn shards_differ_across_locations() {
        execute(RtsConfig::default(), 2, |loc| {
            let mine = synthetic_corpus(loc, 100, 20, 7);
            let shards = loc.allgather(mine);
            assert_ne!(shards[0], shards[1]);
        });
    }
}
