//! Partition mappers: sub-domain (BCID) → location (Table IX).
//!
//! The mapper decides where each base container is allocated. The paper
//! provides cyclic, blocked and general mappers; users can implement the
//! trait for machine-aware placements.

use stapl_rts::LocId;

use crate::gid::Bcid;

/// Maps BCIDs onto locations.
pub trait PartitionMapper: 'static {
    /// Location owning `bcid`.
    fn map(&self, bcid: Bcid) -> LocId;

    fn nlocs(&self) -> usize;

    fn clone_box(&self) -> Box<dyn PartitionMapper>;

    /// BCIDs (out of `num_bcids`) owned by `loc`, in increasing order.
    fn local_bcids(&self, loc: LocId, num_bcids: usize) -> Vec<Bcid> {
        (0..num_bcids).filter(|b| self.map(*b) == loc).collect()
    }
}

impl Clone for Box<dyn PartitionMapper> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Sub-domains dealt to locations round-robin: `bcid mod nlocs`.
/// With one sub-domain per location (the common case) this is the identity.
#[derive(Clone, Copy, Debug)]
pub struct CyclicMapper {
    nlocs: usize,
}

impl CyclicMapper {
    pub fn new(nlocs: usize) -> Self {
        assert!(nlocs >= 1);
        CyclicMapper { nlocs }
    }
}

impl PartitionMapper for CyclicMapper {
    fn map(&self, bcid: Bcid) -> LocId {
        bcid % self.nlocs
    }

    fn nlocs(&self) -> usize {
        self.nlocs
    }

    fn clone_box(&self) -> Box<dyn PartitionMapper> {
        Box::new(*self)
    }
}

/// `m / L` consecutive sub-domains per location.
#[derive(Clone, Copy, Debug)]
pub struct BlockedMapper {
    nlocs: usize,
    /// Sub-domains per location: `ceil(num_bcids / nlocs)`.
    per: usize,
}

impl BlockedMapper {
    pub fn new(nlocs: usize, num_bcids: usize) -> Self {
        assert!(nlocs >= 1 && num_bcids >= 1);
        BlockedMapper { nlocs, per: num_bcids.div_ceil(nlocs) }
    }
}

impl PartitionMapper for BlockedMapper {
    fn map(&self, bcid: Bcid) -> LocId {
        (bcid / self.per).min(self.nlocs - 1)
    }

    fn nlocs(&self) -> usize {
        self.nlocs
    }

    fn clone_box(&self) -> Box<dyn PartitionMapper> {
        Box::new(*self)
    }
}

/// Arbitrary BCID → location table.
#[derive(Clone, Debug)]
pub struct GeneralMapper {
    nlocs: usize,
    assignment: Vec<LocId>,
}

impl GeneralMapper {
    pub fn new(nlocs: usize, assignment: Vec<LocId>) -> Self {
        assert!(assignment.iter().all(|&l| l < nlocs));
        GeneralMapper { nlocs, assignment }
    }
}

impl PartitionMapper for GeneralMapper {
    fn map(&self, bcid: Bcid) -> LocId {
        self.assignment[bcid]
    }

    fn nlocs(&self) -> usize {
        self.nlocs
    }

    fn clone_box(&self) -> Box<dyn PartitionMapper> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_mapper_wraps() {
        let m = CyclicMapper::new(4);
        assert_eq!(m.map(0), 0);
        assert_eq!(m.map(5), 1);
        assert_eq!(m.map(7), 3);
        assert_eq!(m.local_bcids(1, 8), vec![1, 5]);
    }

    #[test]
    fn blocked_mapper_groups_consecutive() {
        let m = BlockedMapper::new(2, 8);
        assert_eq!(m.local_bcids(0, 8), vec![0, 1, 2, 3]);
        assert_eq!(m.local_bcids(1, 8), vec![4, 5, 6, 7]);
    }

    #[test]
    fn blocked_mapper_uneven() {
        let m = BlockedMapper::new(3, 7); // per = 3
        assert_eq!(m.map(0), 0);
        assert_eq!(m.map(3), 1);
        assert_eq!(m.map(6), 2);
        // All locations used, all bcids mapped in-range.
        for b in 0..7 {
            assert!(m.map(b) < 3);
        }
    }

    #[test]
    fn general_mapper_is_arbitrary() {
        let m = GeneralMapper::new(3, vec![2, 0, 2, 1]);
        assert_eq!(m.map(0), 2);
        assert_eq!(m.map(3), 1);
        assert_eq!(m.local_bcids(2, 4), vec![0, 2]);
    }

    #[test]
    #[should_panic]
    fn general_mapper_rejects_out_of_range() {
        GeneralMapper::new(2, vec![0, 2]);
    }

    #[test]
    fn paper_fig10_deployment() {
        // Fig. 10: 4 sub-domains on 2 locations, cyclic:
        // D0->L0, D1->L1, D2->L0, D3->L1.
        let m = CyclicMapper::new(2);
        assert_eq!((0..4).map(|b| m.map(b)).collect::<Vec<_>>(), vec![0, 1, 0, 1]);
    }
}
