//! The data-distribution manager (Table X): partition + partition mapper,
//! replicated per location, answering "where does GID g live?".
//!
//! This is the module that provides the shared-object view: every
//! element-wise container method asks the distribution for the (BCID,
//! location) of the target GID and then either executes locally or ships
//! the operation (Fig. 7's address-resolution flow).

use std::marker::PhantomData;

use stapl_rts::LocId;

use crate::domain::Range1d;
use crate::gid::Bcid;
use crate::mapper::PartitionMapper;
use crate::partition::{IndexPartition, IndexSubDomain, KeyPartition};

/// A maximal run of GIDs that live on one owner *and* are contiguous in
/// the owning base container's storage — the unit of bulk transport: a
/// whole run moves as one RMI and reads/writes one slice at the owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GidRun {
    /// The GIDs of the run, `[gids.lo, gids.hi)`.
    pub gids: Range1d,
    /// Base container holding the run.
    pub bcid: Bcid,
    /// Location owning that base container.
    pub owner: LocId,
}

/// Distribution of a 1-D indexed container (pArray, pVector).
#[derive(Clone)]
pub struct IndexDistribution {
    partition: IndexPartition,
    mapper: PartitionMapper,
}

impl IndexDistribution {
    pub fn new(partition: impl Into<IndexPartition>, mapper: impl Into<PartitionMapper>) -> Self {
        IndexDistribution { partition: partition.into(), mapper: mapper.into() }
    }

    pub fn partition(&self) -> &IndexPartition {
        &self.partition
    }

    pub fn mapper(&self) -> &PartitionMapper {
        &self.mapper
    }

    pub fn global_size(&self) -> usize {
        self.partition.global_size()
    }

    /// (BCID, owning location) of `gid` — the `get_info` + mapper lookup of
    /// the paper's invoke skeleton.
    #[inline]
    pub fn locate(&self, gid: usize) -> (Bcid, LocId) {
        let b = self.partition.find(gid);
        (b, self.mapper.map(b))
    }

    /// BCIDs mapped to `loc`, ascending.
    pub fn bcids_of(&self, loc: LocId) -> Vec<Bcid> {
        self.mapper.local_bcids(loc, self.partition.num_subdomains())
    }

    /// (BCID, sub-domain) pairs owned by `loc`, ascending by BCID.
    pub fn local_subdomains(&self, loc: LocId) -> Vec<(Bcid, IndexSubDomain)> {
        self.bcids_of(loc).into_iter().map(|b| (b, self.partition.subdomain(b))).collect()
    }

    /// Decomposes `[r.lo, r.hi)` into its maximal storage-contiguous runs,
    /// in GID order: each run lies inside one base container and (for
    /// block-cyclic sub-domains) inside one block, so it maps to one
    /// contiguous storage span at the owner. Cost is O(number of runs) —
    /// the decomposition bulk transport coarsens element traffic onto.
    pub fn contiguous_runs(&self, r: Range1d) -> Vec<GidRun> {
        assert!(
            r.hi <= self.global_size(),
            "range [{}, {}) exceeds the distributed domain (size {})",
            r.lo,
            r.hi,
            self.global_size()
        );
        let mut out = Vec::new();
        let mut g = r.lo;
        while g < r.hi {
            let bcid = self.partition.find(g);
            let run_hi = match self.partition.subdomain(bcid) {
                IndexSubDomain::Contiguous(sd) => sd.hi.min(r.hi),
                IndexSubDomain::BlockCyclic { first, block, stride, global_hi } => {
                    let block_lo = g - (g - first) % stride;
                    (block_lo + block).min(global_hi).min(r.hi)
                }
            };
            debug_assert!(run_hi > g, "run decomposition must make progress");
            out.push(GidRun { gids: Range1d::new(g, run_hi), bcid, owner: self.mapper.map(bcid) });
            g = run_hi;
        }
        out
    }

    /// Approximate metadata bytes of the replicated distribution.
    pub fn memory_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.partition.num_subdomains() * std::mem::size_of::<usize>()
    }
}

/// Distribution of an associative container: key partition + mapper. The
/// partition is the concrete type `P` its store names, so locating a key is
/// a direct, inlinable call.
pub struct KeyDistribution<K, P> {
    partition: P,
    mapper: PartitionMapper,
    _key: PhantomData<fn(&K)>,
}

impl<K, P: KeyPartition<K>> KeyDistribution<K, P> {
    pub fn new(partition: P, mapper: impl Into<PartitionMapper>) -> Self {
        KeyDistribution { partition, mapper: mapper.into(), _key: PhantomData }
    }

    pub fn locate(&self, k: &K) -> (Bcid, LocId) {
        let b = self.partition.find(k);
        (b, self.mapper.map(b))
    }

    pub fn num_subdomains(&self) -> usize {
        self.partition.num_subdomains()
    }

    pub fn bcids_of(&self, loc: LocId) -> Vec<Bcid> {
        self.mapper.local_bcids(loc, self.partition.num_subdomains())
    }

    pub fn mapper(&self) -> &PartitionMapper {
        &self.mapper
    }

    pub fn partition(&self) -> &P {
        &self.partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::CyclicMapper;
    use crate::partition::{BalancedPartition, HashPartition, SplitterPartition};

    #[test]
    fn locate_agrees_with_partition_and_mapper() {
        // 12 elements, 4 sub-domains, 2 locations, cyclic — Fig. 10 setup.
        let d = IndexDistribution::new(BalancedPartition::new(12, 4), CyclicMapper::new(2));
        assert_eq!(d.locate(0), (0, 0));
        assert_eq!(d.locate(3), (1, 1));
        assert_eq!(d.locate(6), (2, 0));
        assert_eq!(d.locate(9), (3, 1));
    }

    #[test]
    fn local_subdomains_cover_location_elements() {
        let d = IndexDistribution::new(BalancedPartition::new(100, 8), CyclicMapper::new(4));
        let mut total = 0;
        for loc in 0..4 {
            for (b, sd) in d.local_subdomains(loc) {
                for g in sd.iter() {
                    assert_eq!(d.locate(g), (b, loc));
                    total += 1;
                }
            }
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn contiguous_runs_cover_in_order_and_match_locate() {
        // Mix of contiguous (balanced) and strided (block-cyclic) shapes.
        let dists = [
            IndexDistribution::new(BalancedPartition::new(37, 5), CyclicMapper::new(3)),
            IndexDistribution::new(
                crate::partition::BlockCyclicPartition::new(29, 3, 4),
                CyclicMapper::new(2),
            ),
            IndexDistribution::new(
                crate::partition::ExplicitPartition::from_sizes(&[3, 9, 1, 8]),
                CyclicMapper::new(4),
            ),
            // Blocks a pVector commit emptied, and an empty domain.
            IndexDistribution::new(
                crate::partition::ExplicitPartition::from_sizes(&[0, 3, 0, 2]),
                CyclicMapper::new(4),
            ),
            IndexDistribution::new(
                crate::partition::ExplicitPartition::from_sizes(&[0, 0]),
                CyclicMapper::new(2),
            ),
        ];
        for d in &dists {
            // The whole domain, an inner range and an empty one, cut to `n`.
            let (n, cut) = (d.global_size(), |g: usize| g.min(d.global_size()));
            for (lo, hi) in [(0, n), (cut(1), cut(1).max(n.saturating_sub(2))), (cut(5), cut(5))] {
                let r = Range1d::new(lo, hi);
                let runs = d.contiguous_runs(r);
                // Runs are consecutive and cover exactly [lo, hi).
                let mut g = lo;
                for run in &runs {
                    assert_eq!(run.gids.lo, g);
                    assert!(run.gids.hi > run.gids.lo);
                    // Every GID of the run resolves to the run's (bcid, owner)
                    // and to consecutive storage offsets.
                    let sd = d.partition().subdomain(run.bcid);
                    let base = sd.offset(run.gids.lo);
                    for (k, gid) in run.gids.iter().enumerate() {
                        assert_eq!(d.locate(gid), (run.bcid, run.owner));
                        assert_eq!(sd.offset(gid), base + k);
                    }
                    g = run.gids.hi;
                }
                assert_eq!(g, hi.max(lo));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the distributed domain")]
    fn contiguous_runs_rejects_out_of_bounds() {
        let d = IndexDistribution::new(BalancedPartition::new(10, 2), CyclicMapper::new(2));
        d.contiguous_runs(Range1d::new(5, 11));
    }

    #[test]
    fn key_distribution_sorted_and_hashed() {
        let sorted =
            KeyDistribution::new(SplitterPartition::new(vec![50, 100]), CyclicMapper::new(3));
        assert_eq!(sorted.locate(&10).0, 0);
        assert_eq!(sorted.locate(&75).0, 1);
        assert_eq!(sorted.locate(&200).0, 2);

        let hashed: KeyDistribution<i32, _> =
            KeyDistribution::new(HashPartition::new(6), CyclicMapper::new(3));
        let (b, l) = hashed.locate(&42);
        assert!(b < 6 && l < 3);
        assert_eq!(hashed.locate(&42), (b, l));
    }
}
