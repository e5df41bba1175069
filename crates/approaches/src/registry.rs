//! Registry of the 12 integrated approaches.

use crate::attre::AttrE;
use crate::bootea::BootEa;
use crate::common::Approach;
use crate::gcnalign::GcnAlign;
use crate::imuse::Imuse;
use crate::iptranse::IpTransE;
use crate::jape::Jape;
use crate::kdcoe::KdCoe;
use crate::mtranse::MTransE;
use crate::multike::MultiKe;
use crate::rdgcn::Rdgcn;
use crate::rsn4ea::Rsn4Ea;
use crate::sea::Sea;

/// The 12 approaches of the study, in the paper's table order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApproachKind {
    MTransE,
    IPTransE,
    Jape,
    KdCoe,
    BootEa,
    GcnAlign,
    AttrE,
    Imuse,
    Sea,
    Rsn4Ea,
    MultiKe,
    Rdgcn,
}

impl ApproachKind {
    pub const ALL: [ApproachKind; 12] = [
        ApproachKind::MTransE,
        ApproachKind::IPTransE,
        ApproachKind::Jape,
        ApproachKind::KdCoe,
        ApproachKind::BootEa,
        ApproachKind::GcnAlign,
        ApproachKind::AttrE,
        ApproachKind::Imuse,
        ApproachKind::Sea,
        ApproachKind::Rsn4Ea,
        ApproachKind::MultiKe,
        ApproachKind::Rdgcn,
    ];

    /// Instantiates the approach with its default hyper-parameters.
    pub fn build(self) -> Box<dyn Approach> {
        match self {
            ApproachKind::MTransE => Box::new(MTransE::default()),
            ApproachKind::IPTransE => Box::new(IpTransE::default()),
            ApproachKind::Jape => Box::new(Jape),
            ApproachKind::KdCoe => Box::new(KdCoe::default()),
            ApproachKind::BootEa => Box::new(BootEa::default()),
            ApproachKind::GcnAlign => Box::new(GcnAlign),
            ApproachKind::AttrE => Box::new(AttrE),
            ApproachKind::Imuse => Box::new(Imuse),
            ApproachKind::Sea => Box::new(Sea::default()),
            ApproachKind::Rsn4Ea => Box::new(Rsn4Ea),
            ApproachKind::MultiKe => Box::new(MultiKe),
            ApproachKind::Rdgcn => Box::new(Rdgcn),
        }
    }
}

/// All 12 approaches with default settings.
pub fn all_approaches() -> Vec<Box<dyn Approach>> {
    ApproachKind::ALL.iter().map(|k| k.build()).collect()
}

/// Looks an approach up by its paper name (case-insensitive).
pub fn approach_by_name(name: &str) -> Option<Box<dyn Approach>> {
    all_approaches()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_distinct_approaches() {
        let all = all_approaches();
        assert_eq!(all.len(), 12);
        let names: std::collections::HashSet<_> = all.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn lookup_by_name() {
        assert!(approach_by_name("BootEA").is_some());
        assert!(approach_by_name("rdgcn").is_some());
        assert!(approach_by_name("NoSuchThing").is_none());
    }

    #[test]
    fn every_approach_declares_requirements() {
        for a in all_approaches() {
            let r = a.requirements();
            // Every approach needs seed alignment (Table 9: all embedding
            // approaches have mandatory pre-aligned entities).
            assert_eq!(
                r.pre_aligned_entities,
                crate::common::Req::Mandatory,
                "{}",
                a.name()
            );
        }
    }
}
