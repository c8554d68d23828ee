//! The location manager (Table IV): administers the base containers of a
//! pContainer that are mapped to one location.

use crate::bcontainer::{BaseContainer, MemSize};
use crate::gid::Bcid;

/// Per-location owner of a pContainer's local base containers, keyed by
/// globally unique BCID. A BCID-sorted `Vec` (typically of one entry — the
/// default constructors place one base container per location) keeps lookup
/// a compare or a short binary search and local iteration in BCID order,
/// which — combined with an ordered partition — yields the container's
/// linearization restricted to this location.
pub struct LocationManager<B> {
    bcontainers: Vec<(Bcid, B)>,
}

impl<B> Default for LocationManager<B> {
    fn default() -> Self {
        LocationManager { bcontainers: Vec::new() }
    }
}

impl<B> LocationManager<B> {
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, bcid: Bcid) -> Result<usize, usize> {
        self.bcontainers.binary_search_by_key(&bcid, |(b, _)| *b)
    }

    /// Adds a base container under `bcid`.
    ///
    /// # Panics
    /// Panics if `bcid` is already present.
    pub fn add_bcontainer(&mut self, bcid: Bcid, bc: B) {
        match self.position(bcid) {
            Ok(_) => panic!("bcid {bcid} already managed on this location"),
            Err(at) => self.bcontainers.insert(at, (bcid, bc)),
        }
    }

    /// Removes and returns the base container under `bcid`.
    pub fn remove_bcontainer(&mut self, bcid: Bcid) -> Option<B> {
        self.position(bcid).ok().map(|at| self.bcontainers.remove(at).1)
    }

    /// Number of local base containers.
    pub fn num_bcontainers(&self) -> usize {
        self.bcontainers.len()
    }

    pub fn get(&self, bcid: Bcid) -> Option<&B> {
        self.position(bcid).ok().map(|at| &self.bcontainers[at].1)
    }

    pub fn get_mut(&mut self, bcid: Bcid) -> Option<&mut B> {
        self.position(bcid).ok().map(|at| &mut self.bcontainers[at].1)
    }

    /// The only local base container — what every default constructor
    /// places — or `None` when there are none or several.
    #[inline]
    pub fn only(&self) -> Option<(Bcid, &B)> {
        if let [(bcid, bc)] = self.bcontainers.as_slice() { Some((*bcid, bc)) } else { None }
    }

    #[inline]
    pub fn only_mut(&mut self) -> Option<(Bcid, &mut B)> {
        if let [(bcid, bc)] = self.bcontainers.as_mut_slice() { Some((*bcid, bc)) } else { None }
    }

    /// The `k`-th local base container in BCID order, with its BCID: a
    /// position, not a search (`k < num_bcontainers()`).
    #[inline]
    pub fn nth_mut(&mut self, k: usize) -> Option<(Bcid, &mut B)> {
        self.bcontainers.get_mut(k).map(|(b, c)| (*b, c))
    }

    /// Local base containers in BCID order.
    pub fn iter(&self) -> impl Iterator<Item = (Bcid, &B)> {
        self.bcontainers.iter().map(|(b, c)| (*b, c))
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Bcid, &mut B)> {
        self.bcontainers.iter_mut().map(|(b, c)| (*b, c))
    }

    pub fn bcids(&self) -> impl Iterator<Item = Bcid> + '_ {
        self.bcontainers.iter().map(|(b, _)| *b)
    }
}

impl<B: BaseContainer> LocationManager<B> {
    /// Total elements stored locally.
    pub fn local_len(&self) -> usize {
        self.iter().map(|(_, b)| b.len()).sum()
    }

    /// Clears every local base container (keeps the bContainers themselves,
    /// as the paper's `clear` keeps the distribution valid).
    pub fn clear(&mut self) {
        for (_, b) in self.iter_mut() {
            b.clear();
        }
    }

    /// Local memory usage; the manager's own bookkeeping is metadata.
    pub fn memory_size(&self) -> MemSize {
        let mut m: MemSize = self.iter().map(|(_, b)| b.memory_size()).sum();
        m.metadata += self.bcontainers.capacity() * std::mem::size_of::<Bcid>();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct VecBc(Vec<u32>);

    impl BaseContainer for VecBc {
        type Value = u32;

        fn len(&self) -> usize {
            self.0.len()
        }

        fn clear(&mut self) {
            self.0.clear();
        }

        fn memory_size(&self) -> MemSize {
            MemSize::new(std::mem::size_of::<Vec<u32>>(), self.0.len() * 4)
        }
    }

    #[test]
    fn add_get_remove() {
        let mut lm = LocationManager::new();
        lm.add_bcontainer(3, VecBc(vec![1, 2]));
        lm.add_bcontainer(1, VecBc(vec![3]));
        assert_eq!(lm.num_bcontainers(), 2);
        assert_eq!(lm.get(3).unwrap().0, vec![1, 2]);
        assert!(lm.get(0).is_none());
        assert_eq!(lm.local_len(), 3);
        let removed = lm.remove_bcontainer(1).unwrap();
        assert_eq!(removed.0, vec![3]);
        assert_eq!(lm.num_bcontainers(), 1);
    }

    #[test]
    fn iteration_is_bcid_ordered() {
        let mut lm = LocationManager::new();
        for b in [5, 1, 3] {
            lm.add_bcontainer(b, VecBc(vec![b as u32]));
        }
        let order: Vec<Bcid> = lm.iter().map(|(b, _)| b).collect();
        assert_eq!(order, vec![1, 3, 5]);
        let by_position: Vec<Bcid> = (0..4).filter_map(|k| lm.nth_mut(k).map(|(b, _)| b)).collect();
        assert_eq!(by_position, order);
    }

    #[test]
    #[should_panic(expected = "already managed")]
    fn duplicate_bcid_panics() {
        let mut lm = LocationManager::new();
        lm.add_bcontainer(0, VecBc(vec![]));
        lm.add_bcontainer(0, VecBc(vec![]));
    }

    #[test]
    fn clear_keeps_bcontainers() {
        let mut lm = LocationManager::new();
        lm.add_bcontainer(0, VecBc(vec![1, 2, 3]));
        lm.clear();
        assert_eq!(lm.num_bcontainers(), 1);
        assert_eq!(lm.local_len(), 0);
    }

    #[test]
    fn memory_size_accumulates() {
        let mut lm = LocationManager::new();
        lm.add_bcontainer(0, VecBc(vec![0; 10]));
        lm.add_bcontainer(1, VecBc(vec![0; 6]));
        let m = lm.memory_size();
        assert_eq!(m.data, 64);
        assert!(m.metadata > 0);
    }
}
