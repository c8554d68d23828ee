//! The location manager (Table IV): administers the base containers of a
//! pContainer that are mapped to one location.

use crate::bcontainer::{BaseContainer, MemSize};
use crate::gid::Bcid;

/// Per-location owner of a pContainer's local base containers, keyed by
/// globally unique BCID. The one bContainer every default constructor
/// places sits inline, so a local access reaches it with one tag test and
/// no heap hop; any other count (none, or several) is a BCID-sorted `Vec`,
/// searched by binary search. Either way local iteration is in BCID order,
/// which — combined with an ordered partition — yields the container's
/// linearization restricted to this location.
pub struct LocationManager<B> {
    slots: Slots<B>,
}

/// The two shapes of [`LocationManager`]. `Many` never holds exactly one
/// entry: adding and removing cross to and from `One`.
enum Slots<B> {
    One((Bcid, B)),
    Many(Vec<(Bcid, B)>),
}

impl<B> Default for Slots<B> {
    fn default() -> Self {
        Slots::Many(Vec::new())
    }
}

impl<B> Default for LocationManager<B> {
    fn default() -> Self {
        LocationManager { slots: Slots::default() }
    }
}

impl<B> LocationManager<B> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Every entry, in BCID order.
    fn entries(&self) -> &[(Bcid, B)] {
        match &self.slots {
            Slots::One(e) => std::slice::from_ref(e),
            Slots::Many(v) => v,
        }
    }

    fn entries_mut(&mut self) -> &mut [(Bcid, B)] {
        match &mut self.slots {
            Slots::One(e) => std::slice::from_mut(e),
            Slots::Many(v) => v,
        }
    }

    /// Adds a base container under `bcid`.
    ///
    /// # Panics
    /// Panics if `bcid` is already present.
    pub fn add_bcontainer(&mut self, bcid: Bcid, bc: B) {
        assert!(self.get(bcid).is_none(), "bcid {bcid} already managed on this location");
        self.slots = match std::mem::take(&mut self.slots) {
            Slots::Many(v) if v.is_empty() => Slots::One((bcid, bc)),
            slots => {
                let mut v = match slots {
                    Slots::One(e) => vec![e],
                    Slots::Many(v) => v,
                };
                v.insert(v.partition_point(|(b, _)| *b < bcid), (bcid, bc));
                Slots::Many(v)
            }
        };
    }

    /// Removes and returns the base container under `bcid`.
    pub fn remove_bcontainer(&mut self, bcid: Bcid) -> Option<B> {
        match std::mem::take(&mut self.slots) {
            Slots::One((b, bc)) if b == bcid => Some(bc),
            Slots::One(e) => {
                self.slots = Slots::One(e);
                None
            }
            Slots::Many(mut v) => {
                let removed = v.binary_search_by_key(&bcid, |(b, _)| *b).ok().map(|at| v.remove(at).1);
                self.slots = if v.len() == 1 { Slots::One(v.remove(0)) } else { Slots::Many(v) };
                removed
            }
        }
    }

    /// Number of local base containers.
    pub fn num_bcontainers(&self) -> usize {
        self.entries().len()
    }

    /// The base container under `bcid`: the inline one's BCID compared,
    /// else a binary search.
    #[inline]
    pub fn get(&self, bcid: Bcid) -> Option<&B> {
        match &self.slots {
            Slots::One((b, bc)) => (*b == bcid).then_some(bc),
            Slots::Many(v) => v.binary_search_by_key(&bcid, |(b, _)| *b).ok().map(|at| &v[at].1),
        }
    }

    #[inline]
    pub fn get_mut(&mut self, bcid: Bcid) -> Option<&mut B> {
        match &mut self.slots {
            Slots::One((b, bc)) => (*b == bcid).then_some(bc),
            Slots::Many(v) => {
                v.binary_search_by_key(&bcid, |(b, _)| *b).ok().map(|at| &mut v[at].1)
            }
        }
    }

    /// The only local base container — what every default constructor
    /// places — or `None` when there are none or several.
    #[inline]
    pub fn only(&self) -> Option<(Bcid, &B)> {
        if let Slots::One((bcid, bc)) = &self.slots { Some((*bcid, bc)) } else { None }
    }

    #[inline]
    pub fn only_mut(&mut self) -> Option<(Bcid, &mut B)> {
        if let Slots::One((bcid, bc)) = &mut self.slots { Some((*bcid, bc)) } else { None }
    }

    /// The `k`-th local base container in BCID order, with its BCID: a
    /// position, not a search (`k < num_bcontainers()`).
    #[inline]
    pub fn nth_mut(&mut self, k: usize) -> Option<(Bcid, &mut B)> {
        self.entries_mut().get_mut(k).map(|(b, c)| (*b, c))
    }

    /// Local base containers in BCID order.
    pub fn iter(&self) -> impl Iterator<Item = (Bcid, &B)> {
        self.entries().iter().map(|(b, c)| (*b, c))
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Bcid, &mut B)> {
        self.entries_mut().iter_mut().map(|(b, c)| (*b, c))
    }

    pub fn bcids(&self) -> impl Iterator<Item = Bcid> + '_ {
        self.entries().iter().map(|(b, _)| *b)
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

    /// Local memory usage; the manager's own bookkeeping is metadata: a
    /// BCID per slot it holds room for (one for the inline bContainer, the
    /// `Vec`'s capacity otherwise).
    pub fn memory_size(&self) -> MemSize {
        let mut m: MemSize = self.iter().map(|(_, b)| b.memory_size()).sum();
        let slots = match &self.slots {
            Slots::One(_) => 1,
            Slots::Many(v) => v.capacity(),
        };
        m.metadata += slots * std::mem::size_of::<Bcid>();
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
