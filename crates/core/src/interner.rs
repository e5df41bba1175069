//! String interning for entity URIs, relation/attribute names and literals.
//!
//! A [`Interner`] assigns dense `u32` indices to distinct strings in first-seen
//! order, so the rest of the library can work with copyable ids while still
//! being able to recover the original symbol for I/O and for name-based
//! matching (used by the conventional approaches).
//!
//! Every string is stored once, in one arena ([`Symbols`]): no allocation
//! per symbol. The lookup table holds ids only and compares through the
//! arena; a table that is only resolved once built keeps the arena alone.

use std::hash::{BuildHasher, RandomState};

/// A free slot of the lookup table. Never a valid id: `intern` refuses to
/// hand out `u32::MAX`.
const FREE: u32 = u32::MAX;

/// Slots allocated by the first insertion.
const MIN_SLOTS: usize = 8;

/// Names in index order, back to back in one arena: what an [`Interner`]
/// resolves through, and all that is kept of a table nothing looks up by
/// name ([`Interner::into_symbols`]). It has no lookup to misuse: names
/// are resolved by index and counted, never found or added.
#[derive(Clone, Debug, Default)]
pub struct Symbols {
    /// Every name, back to back in index order.
    text: String,
    /// `ends[i]` is where name `i` stops in `text`; it starts where name
    /// `i - 1` stops.
    ends: Vec<u32>,
}

impl Symbols {
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
}

/// A dense string interner. Indices are assigned in first-insertion order.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Symbols,
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
        let mut it = Self::default();
        it.reserve(cap);
        it
    }

    /// Makes room for `additional` more names: up to that many, the index
    /// array and the lookup table do not grow again. Only the text does,
    /// whose length no count gives.
    pub fn reserve(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        let names = self.len() + additional;
        self.names.ends.reserve_exact(additional);
        if names * 2 > self.slots.len() {
            self.reseat((names * 2).next_power_of_two().max(MIN_SLOTS));
        }
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
        if (self.len() + 1) * 2 > self.slots.len() {
            self.reseat((self.slots.len() * 2).max(MIN_SLOTS));
            slot = self.free_slot(hash);
        }
        let i = u32::try_from(self.len())
            .ok()
            .filter(|&i| i != FREE)
            .expect("interner overflows u32");
        let names = &mut self.names;
        names.text.push_str(name);
        names
            .ends
            .push(u32::try_from(names.text.len()).expect("interned text overflows u32"));
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
        self.names.resolve(i)
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(index, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names.iter()
    }

    /// The names without the lookup table, for a table that is only
    /// resolved and counted from now on. The text gives back what its
    /// doubling left unused (half of it, at worst): nothing is added to it
    /// any more.
    pub fn into_symbols(mut self) -> Symbols {
        self.names.text.shrink_to_fit();
        self.names
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

    /// Replaces the table by one of `len` slots and re-seats every index.
    fn reseat(&mut self, len: usize) {
        self.slots = vec![FREE; len];
        for i in 0..self.len() as u32 {
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

    #[test]
    fn reserving_keeps_ids_and_symbols_resolve_like_the_interner() {
        let mut it = Interner::with_capacity(2);
        for name in ["b", "a", "b", "cc"] {
            it.intern(name);
        }
        // Past the table's half-full mark: every index is re-seated.
        it.reserve(100);
        assert_eq!(
            (it.get("b"), it.get("a"), it.get("cc")),
            (Some(0), Some(1), Some(2))
        );
        assert_eq!(it.intern("d"), 3);
        let names: Vec<(u32, String)> = it.iter().map(|(i, n)| (i, n.to_owned())).collect();
        let symbols = it.into_symbols();
        assert_eq!(symbols.len(), 4);
        let resolved: Vec<(u32, String)> = symbols.iter().map(|(i, n)| (i, n.to_owned())).collect();
        assert_eq!(resolved, names);
        assert_eq!(symbols.resolve(2), "cc");
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
