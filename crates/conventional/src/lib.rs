//! # openea-conventional
//!
//! The two conventional (non-embedding) entity-alignment systems the paper
//! compares against (Sect. 6.3), implemented from their published
//! algorithms:
//!
//! * [`paris`] — **PARIS** \[70\]: probabilistic alignment of relations and
//!   instances with functionality weighting, run to a fixpoint. Strongest
//!   when literals are clean; cannot start without attribute triples
//!   (Table 8).
//! * [`logmap`] — a **LogMap**-style matcher \[34\]: high-precision lexical
//!   anchors, structural propagation, and 1-to-1 inconsistency repair.
//!   Dependent on meaningful names, so it degrades sharply under symbolic
//!   heterogeneity (the D-W effect).
//!
//! Both are unsupervised: they consume a [`openea_core::KgPair`] without the
//! seed alignment and emit a predicted alignment. Both keep their candidates
//! in key-ordered maps, so score sums and ties (to the lower `(e1, e2)`) do
//! not depend on a hasher and a run repeats exactly.
//!
//! ```
//! use openea_conventional::{ConventionalSystem, Paris};
//! use openea_core::{KgBuilder, KgPair};
//!
//! let mut b1 = KgBuilder::new("KG1");
//! b1.add_attr_triple("a", "name", "unique shared literal");
//! let mut b2 = KgBuilder::new("KG2");
//! b2.add_attr_triple("x", "label", "unique shared literal");
//! let kg1 = b1.build();
//! let kg2 = b2.build();
//! let gold = vec![(kg1.entity_by_name("a").unwrap(), kg2.entity_by_name("x").unwrap())];
//! let pair = KgPair::new(kg1, kg2, gold.clone());
//! assert_eq!(Paris::default().align(&pair), gold);
//! ```

pub mod logmap;
pub mod paris;

pub use logmap::LogMap;
pub use paris::Paris;

use openea_core::{AlignedPair, KgPair};

/// A conventional alignment system.
pub trait ConventionalSystem {
    fn name(&self) -> &'static str;

    /// Predicts an alignment; the reference alignment in `pair` is *not*
    /// consulted (unsupervised).
    fn align(&self, pair: &KgPair) -> Vec<AlignedPair>;
}
