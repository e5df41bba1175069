//! IPTransE's path miner against the two-hash-map miner it replaced, which
//! stays here as the reference: the counting pass must find the same path
//! instances in the same order, whatever the cap.

use openea_approaches::iptranse::{mine_paths, PathInstance};
use openea_runtime::testkit::prelude::*;
use std::collections::HashMap;

/// `direct[(h, t)]` and `out_edges[h]` filled in triple order, one `Vec` per
/// key, then every `h -r1-> m -r2-> t` (`t ≠ h`) joined with `direct[(h, t)]`.
fn reference_mine_paths(triples: &[(u32, u32, u32)], max_instances: usize) -> Vec<PathInstance> {
    let mut direct: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    let mut out_edges: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
    for &(h, r, t) in triples {
        direct.entry((h, t)).or_default().push(r);
        out_edges.entry(h).or_default().push((r, t));
    }
    let mut found = Vec::new();
    'outer: for &(h, r1, m) in triples {
        if let Some(nexts) = out_edges.get(&m) {
            for &(r2, t) in nexts {
                if t == h {
                    continue;
                }
                if let Some(r3s) = direct.get(&(h, t)) {
                    for &r3 in r3s {
                        found.push(PathInstance { r1, r2, r3 });
                        if found.len() >= max_instances {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    found
}

props! {
    #![cases = 64]

    /// Random multigraphs over a dozen ids (duplicate triples and self-loops
    /// come with the small range), reversed triples for `h → m → h`
    /// back-edges, a hub (id 12) with up to hundreds of out-edges and a few
    /// in-edges, and tails past every head that have no out-edges — all
    /// rotated so the hub's triples interleave with the rest. Caps: 0, 1, a
    /// random one, and two that stop mid-way.
    #[test]
    fn mine_paths_matches_the_hash_map_reference(
        edges in vec_of((0u32..12, 0u32..5, 0u32..12), 0..80),
        back_edges in vec_of(0usize..80, 0..8),
        hub_out in 0u32..400,
        hub_in in vec_of((0u32..12, 0u32..5), 0..6),
        sinks in vec_of((0u32..12, 13u32..18), 0..4),
        (rotation, cap) in (0usize..1000, 0usize..200),
    ) {
        let mut triples = edges.clone();
        triples.extend(back_edges.iter().filter_map(|&i| edges.get(i)).map(|&(h, r, t)| (t, r, h)));
        triples.extend((0..hub_out).map(|k| (12, k % 5, k % 13)));
        triples.extend(hub_in.iter().map(|&(h, r)| (h, r, 12)));
        triples.extend(sinks.iter().map(|&(h, t)| (h, 0, t)));
        if !triples.is_empty() {
            let len = triples.len();
            triples.rotate_left(rotation % len);
        }
        let all = reference_mine_paths(&triples, usize::MAX);
        prop_assert_eq!(mine_paths(&triples, usize::MAX), all.clone());
        for cap in [0, 1, cap, all.len() / 2, all.len().saturating_sub(1)] {
            prop_assert_eq!(
                mine_paths(&triples, cap),
                reference_mine_paths(&triples, cap),
                "cap {}", cap
            );
        }
    }
}
