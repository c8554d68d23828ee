//! Partition mappers: sub-domain (BCID) → location (Table IX).
//!
//! The mapper decides where each base container is allocated. The paper
//! provides cyclic, blocked and general mappers; here a blocked placement
//! is a general table.

use stapl_rts::LocId;

use crate::gid::Bcid;

/// Maps BCIDs onto locations. The placements are a closed set, so each
/// query is one `match` the compiler sees through.
#[derive(Clone, Debug)]
pub enum PartitionMapper {
    Cyclic(CyclicMapper),
    General(GeneralMapper),
}

impl PartitionMapper {
    /// Location owning `bcid`.
    #[inline]
    pub fn map(&self, bcid: Bcid) -> LocId {
        match self {
            PartitionMapper::Cyclic(m) => bcid % m.nlocs,
            PartitionMapper::General(m) => m.assignment[bcid],
        }
    }

    /// Location owning `bcid`, or `None` when a general table is too short
    /// to name one.
    pub fn owner(&self, bcid: Bcid) -> Option<LocId> {
        match self {
            PartitionMapper::Cyclic(m) => Some(bcid % m.nlocs),
            PartitionMapper::General(m) => m.assignment.get(bcid).copied(),
        }
    }

    /// BCIDs (out of `num_bcids`) owned by `loc`, in increasing order.
    pub fn local_bcids(&self, loc: LocId, num_bcids: usize) -> Vec<Bcid> {
        (0..num_bcids).filter(|b| self.map(*b) == loc).collect()
    }
}

impl From<CyclicMapper> for PartitionMapper {
    fn from(m: CyclicMapper) -> Self {
        PartitionMapper::Cyclic(m)
    }
}

impl From<GeneralMapper> for PartitionMapper {
    fn from(m: GeneralMapper) -> Self {
        PartitionMapper::General(m)
    }
}

/// A boxed mapper, as `benchmark/` still passes one; it exists only for
/// that crate's two call sites.
impl<M: Into<PartitionMapper>> From<Box<M>> for PartitionMapper {
    fn from(m: Box<M>) -> Self {
        (*m).into()
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

/// Arbitrary BCID → location table.
#[derive(Clone, Debug)]
pub struct GeneralMapper {
    assignment: Vec<LocId>,
}

impl GeneralMapper {
    pub fn new(nlocs: usize, assignment: Vec<LocId>) -> Self {
        assert!(assignment.iter().all(|&l| l < nlocs));
        GeneralMapper { assignment }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_mapper_wraps() {
        let m = PartitionMapper::from(CyclicMapper::new(4));
        assert_eq!(m.map(0), 0);
        assert_eq!(m.map(5), 1);
        assert_eq!(m.map(7), 3);
        assert_eq!(m.local_bcids(1, 8), vec![1, 5]);
    }

    #[test]
    fn general_mapper_is_arbitrary() {
        let m = PartitionMapper::from(GeneralMapper::new(3, vec![2, 0, 2, 1]));
        assert_eq!(m.map(0), 2);
        assert_eq!(m.map(3), 1);
        assert_eq!(m.local_bcids(2, 4), vec![0, 2]);
        assert_eq!(m.owner(4), None);
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
        let m = PartitionMapper::from(CyclicMapper::new(2));
        assert_eq!((0..4).map(|b| m.map(b)).collect::<Vec<_>>(), vec![0, 1, 0, 1]);
    }
}
