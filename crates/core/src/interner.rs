//! String interning for entity URIs, relation/attribute names and literals.
//!
//! A [`Interner`] assigns dense `u32` indices to distinct strings in first-seen
//! order, so the rest of the library can work with copyable ids while still
//! being able to recover the original symbol for I/O and for name-based
//! matching (used by the conventional approaches).
//!
//! Every string is stored once, in one arena: no allocation per symbol. The
//! lookup table holds ids only and compares through the arena.

use std::hash::{BuildHasher, RandomState};

/// A free slot of the lookup table. Never a valid id: `intern` refuses to
/// hand out `u32::MAX`.
const FREE: u32 = u32::MAX;

/// Slots allocated by the first insertion.
const MIN_SLOTS: usize = 8;

/// A dense string interner. Indices are assigned in first-insertion order.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    /// Every name, back to back in index order.
    text: String,
    /// `ends[i]` is where name `i` stops in `text`; it starts where name
    /// `i - 1` stops.
    ends: Vec<u32>,
    /// Open addressing, linear probing: each slot is an index or [`FREE`].
    /// The length is zero or a power of two, and at least half the slots
    /// are free, so every probe ends.
    slots: Vec<u32>,
    /// Keyed per process, like `HashMap`'s: names come from dataset files,
    /// and a file cannot aim at a key it does not know. The key decides
    /// where an index sits in `slots` and nothing else — indices are
    /// first-seen, iteration is by index.
    hasher: RandomState,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        let mut it = Self {
            ends: Vec::with_capacity(cap),
            ..Self::default()
        };
        if cap > 0 {
            it.slots = vec![FREE; (cap * 2).next_power_of_two().max(MIN_SLOTS)];
        }
        it
    }

    /// Interns `name`, returning its index. Existing names keep their index
    /// and cost no allocation.
    ///
    /// # Panics
    /// Panics if the indices or the stored text outgrow a `u32`.
    pub fn intern(&mut self, name: &str) -> u32 {
        let hash = self.hasher.hash_one(name);
        let mut slot = match self.probe(hash, name) {
            Ok(i) => return i,
            Err(slot) => slot,
        };
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.grow();
            slot = self.free_slot(hash);
        }
        let i = u32::try_from(self.ends.len())
            .ok()
            .filter(|&i| i != FREE)
            .expect("interner overflows u32");
        self.text.push_str(name);
        self.ends
            .push(u32::try_from(self.text.len()).expect("interned text overflows u32"));
        self.slots[slot] = i;
        i
    }

    /// Looks up the index of `name` without inserting.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.probe(self.hasher.hash_one(name), name).ok()
    }

    /// Returns the string for index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn resolve(&self, i: u32) -> &str {
        let i = i as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start as usize..self.ends[i] as usize]
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(index, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.ends.len() as u32).map(|i| (i, self.resolve(i)))
    }

    /// Walks the probe sequence of `name`, whose hash is `hash`: its index,
    /// or the free slot that ends the walk (meaningless while the table is
    /// empty, when `intern` grows it before using the slot).
    fn probe(&self, hash: u64, name: &str) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                FREE => return Err(slot),
                i if self.resolve(i) == name => return Ok(i),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The first free slot on the probe sequence of `hash`.
    fn free_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != FREE {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Doubles the table and re-seats every index.
    fn grow(&mut self) {
        self.slots = vec![FREE; (self.slots.len() * 2).max(MIN_SLOTS)];
        for i in 0..self.ends.len() as u32 {
            let slot = self.free_slot(self.hasher.hash_one(self.resolve(i)));
            self.slots[slot] = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::testkit::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = Interner::new();
        let a = it.intern("dbpedia:Mount_Everest");
        let b = it.intern("wikidata:Q513");
        let a2 = it.intern("dbpedia:Mount_Everest");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(it.len(), 2);
        assert_eq!(it.resolve(a), "dbpedia:Mount_Everest");
        assert_eq!(it.resolve(b), "wikidata:Q513");
    }

    #[test]
    fn get_does_not_insert() {
        let mut it = Interner::new();
        assert_eq!(it.get("x"), None);
        let i = it.intern("x");
        assert_eq!(it.get("x"), Some(i));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn indices_are_dense_and_in_insertion_order() {
        let mut it = Interner::new();
        for (k, name) in ["a", "b", "c", "d"].iter().enumerate() {
            assert_eq!(it.intern(name), k as u32);
        }
        let collected: Vec<_> = it.iter().map(|(i, n)| (i, n.to_owned())).collect();
        assert_eq!(
            collected,
            vec![
                (0, "a".to_owned()),
                (1, "b".to_owned()),
                (2, "c".to_owned()),
                (3, "d".to_owned())
            ]
        );
    }

    props! {
        #[test]
        fn resolve_roundtrips(names in vec_of(string_of("abcdefghijklmnopqrstuvwxyz", 1..=8), 0..50)) {
            let mut it = Interner::new();
            let ids: Vec<u32> = names.iter().map(|n| it.intern(n)).collect();
            for (name, id) in names.iter().zip(&ids) {
                prop_assert_eq!(it.resolve(*id), name.as_str());
                prop_assert_eq!(it.get(name), Some(*id));
            }
            // Interner length equals the number of distinct names.
            let distinct: std::collections::HashSet<_> = names.iter().collect();
            prop_assert_eq!(it.len(), distinct.len());
        }
    }
}
