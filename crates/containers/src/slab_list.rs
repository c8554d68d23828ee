//! A slab-allocated doubly-linked list with stable element identifiers —
//! the sequential substrate under the pList base containers.
//!
//! STAPL's pList base container is an STL list whose iterators stay valid
//! across unrelated inserts/erases. In Rust, the equivalent stability is
//! provided by *generational ids*: elements live in a slab (`Vec` + free
//! list), and an element's `u64` id is its slot in the low half and the
//! slot's generation in the high half. Access, insert-before and erase by
//! id are a bounds-checked index and a generation compare. Erasing bumps
//! the slot's generation, so **ids are never reused** — not after the slot
//! finds a new tenant, not across [`SlabList::clear`], and a slot that has
//! run out of generations is retired rather than recycled.
//!
//! A slot is a `Live` element — its value, generation and two `u32`
//! links — or a `Free` one that keeps only the generation
//! its next tenant gets. The live/free tag sits in the padding beside the
//! three `u32`s, so a `u64` element takes 24 bytes ([`SlabList::SLOT_BYTES`]):
//! its value and 16 bytes of list.

use std::mem;

/// The nil link. `alloc` keeps every slot below `u32::MAX`, so no slot
/// is ever named by it.
const NIL: u32 = u32::MAX;

/// One slab slot. Links are `u32` slot numbers, not `usize`: an id already
/// keeps its slot in 32 bits.
enum Slot<T> {
    Live {
        val: T,
        /// Generation of the slot's current tenant.
        gen: u32,
        prev: u32,
        next: u32,
    },
    /// Erase moves the value out, so it drops at once instead of lingering
    /// until the slot is reused; `gen` is the next tenant's generation.
    Free { gen: u32 },
}

impl<T> Slot<T> {
    fn gen(&self) -> u32 {
        match self {
            Slot::Live { gen, .. } | Slot::Free { gen } => *gen,
        }
    }
}

/// The id of generation `gen`'s tenant of `slot`.
fn id_of(gen: u32, slot: u32) -> u64 {
    u64::from(gen) << 32 | u64::from(slot)
}

/// A linked slot: every slot the links reach is live.
fn linked<T>(slot: &Slot<T>) -> (&T, u32, u32) {
    match slot {
        Slot::Live { val, gen, next, .. } => (val, *gen, *next),
        Slot::Free { .. } => unreachable!("a linked slot is live"),
    }
}

/// Doubly-linked list with O(1) push/insert/erase by stable id.
pub struct SlabList<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
    head: u32,
    tail: u32,
}

impl<T> Default for SlabList<T> {
    fn default() -> Self {
        SlabList { slots: Vec::new(), free: Vec::new(), len: 0, head: NIL, tail: NIL }
    }
}

impl<T> SlabList<T> {
    /// Bytes one element takes in the slab (24 for a `u64`).
    pub const SLOT_BYTES: usize = mem::size_of::<Slot<T>>();

    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id of the element living in `slot`.
    fn id_at(&self, slot: u32) -> u64 {
        id_of(self.slots[slot as usize].gen(), slot)
    }

    /// The live slot `id` names, if its element is still alive.
    fn live(&self, id: u64) -> Option<(u32, &Slot<T>)> {
        let slot = id as u32;
        match self.slots.get(slot as usize)? {
            s @ Slot::Live { gen, .. } if *gen == (id >> 32) as u32 => Some((slot, s)),
            _ => None,
        }
    }

    /// The slot `id` names, if its element is still alive.
    fn slot_of(&self, id: u64) -> Option<u32> {
        self.live(id).map(|(slot, _)| slot)
    }

    /// `slot`'s `prev` link; the slot must be live.
    fn prev_mut(&mut self, slot: u32) -> &mut u32 {
        match &mut self.slots[slot as usize] {
            Slot::Live { prev, .. } => prev,
            Slot::Free { .. } => unreachable!("a linked slot is live"),
        }
    }

    /// `slot`'s `next` link; the slot must be live.
    fn next_mut(&mut self, slot: u32) -> &mut u32 {
        match &mut self.slots[slot as usize] {
            Slot::Live { next, .. } => next,
            Slot::Free { .. } => unreachable!("a linked slot is live"),
        }
    }

    /// Places `val` in a free (or new) slot already linked to `prev` and
    /// `next`; the neighbours' links are the caller's to set.
    #[inline]
    fn alloc(&mut self, val: T, prev: u32, next: u32) -> (u64, u32) {
        let slot = match self.free.pop() {
            Some(s) => {
                let gen = self.slots[s as usize].gen();
                self.slots[s as usize] = Slot::Live { val, gen, prev, next };
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "SlabList: out of 32-bit slots");
                self.slots.push(Slot::Live { val, gen: 0, prev, next });
                (self.slots.len() - 1) as u32
            }
        };
        self.len += 1;
        (self.id_at(slot), slot)
    }

    /// Appends; returns the element's stable id.
    #[inline]
    pub fn push_back(&mut self, val: T) -> u64 {
        let tail = self.tail;
        let (id, slot) = self.alloc(val, tail, NIL);
        match tail {
            NIL => self.head = slot,
            _ => *self.next_mut(tail) = slot,
        }
        self.tail = slot;
        id
    }

    /// Prepends; returns the element's stable id.
    pub fn push_front(&mut self, val: T) -> u64 {
        let head = self.head;
        let (id, slot) = self.alloc(val, NIL, head);
        match head {
            NIL => self.tail = slot,
            _ => *self.prev_mut(head) = slot,
        }
        self.head = slot;
        id
    }

    /// Inserts before the element with id `before`; `None` if `before`
    /// does not exist (e.g. it was concurrently erased).
    pub fn insert_before(&mut self, before: u64, val: T) -> Option<u64> {
        let anchor = self.slot_of(before)?;
        let prev = *self.prev_mut(anchor);
        let (id, slot) = self.alloc(val, prev, anchor);
        *self.prev_mut(anchor) = slot;
        match prev {
            NIL => self.head = slot,
            _ => *self.next_mut(prev) = slot,
        }
        Some(id)
    }

    /// Removes the element with id `id`, returning its value (moved out,
    /// so it drops as soon as the caller is done with it).
    pub fn erase(&mut self, id: u64) -> Option<T> {
        let slot = self.slot_of(id)?;
        let Slot::Live { gen, prev, next, .. } = self.slots[slot as usize] else { unreachable!() };
        match prev {
            NIL => self.head = next,
            _ => *self.next_mut(prev) = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => *self.prev_mut(next) = prev,
        }
        self.len -= 1;
        // The next tenant gets a new generation; a slot with none left is
        // retired (never on the free list again), not wrapped around.
        let next_gen = gen.checked_add(1);
        if next_gen.is_some() {
            self.free.push(slot);
        }
        match mem::replace(&mut self.slots[slot as usize], Slot::Free { gen: next_gen.unwrap_or(gen) }) {
            Slot::Live { val, .. } => Some(val),
            Slot::Free { .. } => unreachable!(),
        }
    }

    pub fn get(&self, id: u64) -> Option<&T> {
        self.live(id).map(|(_, s)| linked(s).0)
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.slot_of(id)?;
        match &mut self.slots[slot as usize] {
            Slot::Live { val, .. } => Some(val),
            Slot::Free { .. } => None,
        }
    }

    pub fn contains(&self, id: u64) -> bool {
        self.live(id).is_some()
    }

    pub fn front_id(&self) -> Option<u64> {
        (self.head != NIL).then(|| self.id_at(self.head))
    }

    /// Id of the element after `id` in list order.
    pub fn next_id(&self, id: u64) -> Option<u64> {
        let (_, _, n) = linked(self.live(id)?.1);
        (n != NIL).then(|| self.id_at(n))
    }

    /// Id of the element before `id` in list order.
    pub fn prev_id(&self, id: u64) -> Option<u64> {
        let Slot::Live { prev: p, .. } = self.live(id)?.1 else { unreachable!() };
        (*p != NIL).then(|| self.id_at(*p))
    }

    /// In-order traversal.
    pub fn iter(&self) -> SlabIter<'_, T> {
        SlabIter { list: self, cur: self.head }
    }

    /// In-order traversal with each element's id and mutable value: one
    /// walk along the links, no id resolved twice.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(u64, &mut T)) {
        let mut cur = self.head;
        while cur != NIL {
            let Slot::Live { val, gen, next, .. } = &mut self.slots[cur as usize] else {
                unreachable!("a linked slot is live")
            };
            f(id_of(*gen, cur), val);
            cur = *next;
        }
    }

    /// Erases every element. The slab is kept, so that the generations —
    /// and with them the never-reused rule — survive.
    pub fn clear(&mut self) {
        while let Some(id) = self.front_id() {
            self.erase(id);
        }
    }

    /// Bytes used: slab tags, generations and links and the free list
    /// (metadata), and values (data).
    pub fn memory_bytes(&self) -> (usize, usize) {
        let meta = self.slots.capacity() * (Self::SLOT_BYTES - mem::size_of::<T>())
            + self.free.capacity() * mem::size_of::<u32>();
        (meta, self.slots.capacity() * mem::size_of::<T>())
    }
}

pub struct SlabIter<'a, T> {
    list: &'a SlabList<T>,
    cur: u32,
}

impl<'a, T> Iterator for SlabIter<'a, T> {
    type Item = (u64, &'a T);

    fn next(&mut self) -> Option<(u64, &'a T)> {
        if self.cur == NIL {
            return None;
        }
        let slot = self.cur;
        let (val, gen, next) = linked(&self.list.slots[slot as usize]);
        self.cur = next;
        Some((id_of(gen, slot), val))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(l: &SlabList<i32>) -> Vec<i32> {
        l.iter().map(|(_, v)| *v).collect()
    }

    #[test]
    fn push_back_front_order() {
        let mut l = SlabList::new();
        l.push_back(2);
        l.push_back(3);
        l.push_front(1);
        assert_eq!(values(&l), vec![1, 2, 3]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn insert_before_head_and_middle() {
        let mut l = SlabList::new();
        let a = l.push_back(10);
        let c = l.push_back(30);
        let b = l.insert_before(c, 20).unwrap();
        assert_eq!(values(&l), vec![10, 20, 30]);
        let z = l.insert_before(a, 5).unwrap();
        assert_eq!(values(&l), vec![5, 10, 20, 30]);
        assert_eq!(l.front_id(), Some(z));
        assert_eq!(l.next_id(z), Some(a));
        assert_eq!(l.prev_id(c), Some(b));
    }

    #[test]
    fn insert_before_missing_returns_none() {
        let mut l = SlabList::new();
        l.push_back(1);
        assert_eq!(l.insert_before(999, 2), None);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn erase_relinks() {
        let mut l = SlabList::new();
        let a = l.push_back(1);
        let b = l.push_back(2);
        let c = l.push_back(3);
        assert_eq!(l.erase(b), Some(2));
        assert_eq!(values(&l), vec![1, 3]);
        assert_eq!(l.next_id(a), Some(c));
        assert_eq!(l.prev_id(c), Some(a));
        assert_eq!(l.erase(a), Some(1));
        assert_eq!(l.front_id(), Some(c));
        assert_eq!(l.erase(c), Some(3));
        assert!(l.is_empty());
        assert_eq!(l.front_id(), None);
    }

    #[test]
    fn erase_missing_is_none() {
        let mut l: SlabList<i32> = SlabList::new();
        assert_eq!(l.erase(0), None);
    }

    #[test]
    fn slots_are_reused_but_ids_are_not() {
        let mut l = SlabList::new();
        let a = l.push_back(1);
        l.erase(a);
        let b = l.push_back(2);
        assert_ne!(a, b, "ids must be stable / never reused");
        assert_eq!(l.slots.len(), 1, "slab slot must be reused");
        assert!(!l.contains(a));
        assert!(l.contains(b));
        // A slot out of generations is retired, not wrapped around to ids
        // it has already issued.
        let Slot::Live { gen, .. } = &mut l.slots[0] else { unreachable!() };
        *gen = u32::MAX;
        let last = l.front_id().unwrap();
        assert_eq!(l.erase(last), Some(2));
        assert_eq!((l.push_back(3), l.slots.len()), (1, 2));
        assert!(!l.contains(last) && !l.contains(a) && l.len() == 1);
    }

    #[test]
    fn erase_drops_the_value_immediately() {
        use std::rc::Rc;
        let probe = Rc::new(5);
        let mut l = SlabList::new();
        let id = l.push_back(probe.clone());
        assert_eq!(Rc::strong_count(&probe), 2);
        let out = l.erase(id).unwrap();
        drop(out);
        // The erased value must not linger inside the freed slab slot.
        assert_eq!(Rc::strong_count(&probe), 1);
    }

    #[test]
    fn erase_works_without_clone() {
        // Regression: erase used to require `T: Clone` and clone the value
        // out of the slab.
        struct NoClone(#[allow(dead_code)] u8);
        let mut l = SlabList::new();
        let id = l.push_back(NoClone(3));
        assert!(l.erase(id).is_some());
        assert!(l.is_empty());
    }

    #[test]
    fn get_and_get_mut() {
        let mut l = SlabList::new();
        let a = l.push_back(5);
        *l.get_mut(a).unwrap() += 10;
        assert_eq!(l.get(a), Some(&15));
        assert_eq!(l.get(a + 1), None);
    }

    #[test]
    fn ids_traverse_in_both_directions() {
        let mut l = SlabList::new();
        let ids: Vec<u64> = (0..5).map(|i| l.push_back(i)).collect();
        let mut forward = vec![l.front_id().unwrap()];
        while let Some(n) = l.next_id(*forward.last().unwrap()) {
            forward.push(n);
        }
        assert_eq!(forward, ids);
        let mut backward = vec![ids[4]];
        while let Some(p) = l.prev_id(*backward.last().unwrap()) {
            backward.push(p);
        }
        backward.reverse();
        assert_eq!(backward, ids);
    }

    #[test]
    fn clear_resets() {
        let mut l = SlabList::new();
        let old = [l.push_back(1), l.push_back(2)];
        l.clear();
        assert!(l.is_empty());
        assert_eq!(values(&l), Vec::<i32>::new());
        let new = l.push_back(9);
        assert_eq!(values(&l), vec![9]);
        assert!(!old.contains(&new) && old.iter().all(|id| l.get(*id).is_none()));
    }

    #[test]
    fn random_model_check_against_vec() {
        // Drive SlabList and a reference Vec<(id, val)> with the same op
        // stream — a clear() every 400 steps and in-place `for_each_mut`
        // updates included; orders must agree at every step, and no id is
        // ever issued twice.
        let mut l = SlabList::new();
        let mut model: Vec<(u64, i32)> = Vec::new();
        let (mut issued, mut dead) = (std::collections::HashSet::new(), Vec::new());
        let mut rng: u64 = 0x9e3779b97f4a7c15;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for step in 0..2000 {
            let k = (next() as usize) % model.len().max(1);
            let inserted = match next() % 5 {
                _ if step % 400 == 399 => {
                    l.clear();
                    dead.extend(model.drain(..).map(|(id, _)| id));
                    None
                }
                0 => Some((model.len(), l.push_back(step))),
                1 => Some((0, l.push_front(step))),
                2 if !model.is_empty() => Some((k, l.insert_before(model[k].0, step).unwrap())),
                3 if !model.is_empty() => {
                    let (id, v) = model.remove(k);
                    assert_eq!(l.erase(id), Some(v));
                    dead.push(id);
                    None
                }
                4 => {
                    let mut walked = Vec::new();
                    l.for_each_mut(|id, v| {
                        *v += 1;
                        walked.push(id);
                    });
                    model.iter_mut().for_each(|(_, v)| *v += 1);
                    assert!(walked.iter().eq(model.iter().map(|(id, _)| id)), "for_each_mut order");
                    None
                }
                _ => None,
            };
            if let Some((at, id)) = inserted {
                assert!(issued.insert(id), "id {id:#x} issued twice");
                model.insert(at, (id, step));
            }
            assert_eq!(l.len(), model.len());
        }
        let got: Vec<(u64, i32)> = l.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(got, model);
        assert!(dead.iter().all(|id| !l.contains(*id)), "an erased or cleared id resolves");
    }
}
