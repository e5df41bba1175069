//! Reading and writing datasets in the OpenEA on-disk layout.
//!
//! A dataset directory contains tab-separated files:
//!
//! ```text
//! rel_triples_1    h \t r \t t          relation triples of KG1
//! rel_triples_2
//! attr_triples_1   e \t a \t v          attribute triples of KG1
//! attr_triples_2
//! ent_links        e1 \t e2             reference entity alignment
//! 721_5fold/<k>/{train,valid,test}_links   cross-validation folds
//! ```

use crate::error::{Error, Result};
use crate::kg::{KgBuilder, KnowledgeGraph};
use crate::pair::{AlignedPair, FoldSplit, KgPair};
use std::fs;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

fn read_triple_file(path: &Path, mut add: impl FnMut(&str, &str, &str)) -> Result<()> {
    let file = fs::File::open(path).map_err(|e| Error::io(path, e))?;
    let reader = BufReader::new(file);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| Error::io(path, e))?;
        if line.is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        match (cols.next(), cols.next(), cols.next()) {
            (Some(a), Some(b), Some(c)) => add(a, b, c),
            _ => {
                return Err(Error::Malformed {
                    path: path.into(),
                    line: lineno + 1,
                    expected_cols: 3,
                })
            }
        }
    }
    Ok(())
}

fn read_links(path: &Path) -> Result<Vec<(String, String)>> {
    let file = fs::File::open(path).map_err(|e| Error::io(path, e))?;
    let reader = BufReader::new(file);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| Error::io(path, e))?;
        if line.is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        match (cols.next(), cols.next()) {
            (Some(a), Some(b)) => out.push((a.to_owned(), b.to_owned())),
            _ => {
                return Err(Error::Malformed {
                    path: path.into(),
                    line: lineno + 1,
                    expected_cols: 2,
                })
            }
        }
    }
    Ok(out)
}

fn resolve_links(
    path: &Path,
    links: &[(String, String)],
    kg1: &KnowledgeGraph,
    kg2: &KnowledgeGraph,
) -> Result<Vec<AlignedPair>> {
    links
        .iter()
        .enumerate()
        .map(|(i, (a, b))| {
            let e1 = kg1.entity_by_name(a).ok_or_else(|| Error::UnknownEntity {
                path: path.into(),
                line: i + 1,
                name: a.clone(),
            })?;
            let e2 = kg2.entity_by_name(b).ok_or_else(|| Error::UnknownEntity {
                path: path.into(),
                line: i + 1,
                name: b.clone(),
            })?;
            Ok((e1, e2))
        })
        .collect()
}

/// Reads one KG of a dataset directory (`which` is 1 or 2). `extra_entities`
/// are registered even when they occur in no triple (isolated aligned
/// entities live only in `ent_links`).
fn read_kg<'a>(
    dir: &Path,
    which: u8,
    name: &str,
    extra_entities: impl Iterator<Item = &'a str>,
) -> Result<KnowledgeGraph> {
    let mut b = KgBuilder::new(name);
    read_triple_file(&dir.join(format!("rel_triples_{which}")), |h, r, t| {
        b.add_rel_triple(h, r, t);
    })?;
    let attr_path = dir.join(format!("attr_triples_{which}"));
    if attr_path.exists() {
        read_triple_file(&attr_path, |e, a, v| {
            b.add_attr_triple(e, a, v);
        })?;
    }
    for e in extra_entities {
        b.add_entity(e);
    }
    Ok(b.build())
}

/// Reads a full dataset (both KGs plus `ent_links`) from `dir`.
pub fn read_pair(dir: impl AsRef<Path>) -> Result<KgPair> {
    let dir = dir.as_ref();
    let links_path = dir.join("ent_links");
    let links = read_links(&links_path)?;
    let kg1 = read_kg(dir, 1, "KG1", links.iter().map(|(a, _)| a.as_str()))?;
    let kg2 = read_kg(dir, 2, "KG2", links.iter().map(|(_, b)| b.as_str()))?;
    let alignment = resolve_links(&links_path, &links, &kg1, &kg2)?;
    Ok(KgPair::new(kg1, kg2, alignment))
}

/// Reads the cross-validation folds stored under `dir/721_5fold`.
pub fn read_folds(dir: impl AsRef<Path>, pair: &KgPair) -> Result<Vec<FoldSplit>> {
    let base = dir.as_ref().join("721_5fold");
    let mut folds = Vec::new();
    for k in 1.. {
        let fold_dir = base.join(k.to_string());
        if !fold_dir.exists() {
            break;
        }
        let mut parts = [Vec::new(), Vec::new(), Vec::new()];
        for (slot, file) in ["train_links", "valid_links", "test_links"]
            .iter()
            .enumerate()
        {
            let path = fold_dir.join(file);
            let links = read_links(&path)?;
            parts[slot] = resolve_links(&path, &links, &pair.kg1, &pair.kg2)?;
        }
        let [train, valid, test] = parts;
        folds.push(FoldSplit { train, valid, test });
    }
    Ok(folds)
}

fn write_lines<I: IntoIterator<Item = String>>(path: &Path, lines: I) -> Result<()> {
    let file = fs::File::create(path).map_err(|e| Error::io(path, e))?;
    let mut w = BufWriter::new(file);
    for line in lines {
        writeln!(w, "{line}").map_err(|e| Error::io(path, e))?;
    }
    w.flush().map_err(|e| Error::io(path, e))
}

fn link_lines<'a>(
    pairs: &'a [AlignedPair],
    kg1: &'a KnowledgeGraph,
    kg2: &'a KnowledgeGraph,
) -> impl Iterator<Item = String> + 'a {
    pairs
        .iter()
        .map(move |&(a, b)| format!("{}\t{}", kg1.entity_name(a), kg2.entity_name(b)))
}

/// Writes a dataset (both KGs plus `ent_links`) into `dir`, creating it.
pub fn write_pair(dir: impl AsRef<Path>, pair: &KgPair) -> Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir).map_err(|e| Error::io(dir, e))?;
    for (which, kg) in [(1u8, &pair.kg1), (2, &pair.kg2)] {
        write_lines(
            &dir.join(format!("rel_triples_{which}")),
            kg.rel_triples().iter().map(|t| {
                format!(
                    "{}\t{}\t{}",
                    kg.entity_name(t.head),
                    kg.relation_name(t.rel),
                    kg.entity_name(t.tail)
                )
            }),
        )?;
        write_lines(
            &dir.join(format!("attr_triples_{which}")),
            kg.attr_triples().iter().map(|t| {
                format!(
                    "{}\t{}\t{}",
                    kg.entity_name(t.entity),
                    kg.attribute_name(t.attr),
                    kg.literal_value(t.value)
                )
            }),
        )?;
    }
    write_lines(
        &dir.join("ent_links"),
        link_lines(&pair.alignment, &pair.kg1, &pair.kg2),
    )
}

/// Writes cross-validation folds under `dir/721_5fold/<k>/`.
pub fn write_folds(dir: impl AsRef<Path>, pair: &KgPair, folds: &[FoldSplit]) -> Result<()> {
    for (k, fold) in folds.iter().enumerate() {
        let fold_dir = dir.as_ref().join("721_5fold").join((k + 1).to_string());
        fs::create_dir_all(&fold_dir).map_err(|e| Error::io(&fold_dir, e))?;
        for (file, part) in [
            ("train_links", &fold.train),
            ("valid_links", &fold.valid),
            ("test_links", &fold.test),
        ] {
            write_lines(&fold_dir.join(file), link_lines(part, &pair.kg1, &pair.kg2))?;
        }
    }
    Ok(())
}

/// Convenience: resolves alignment pairs back to entity-name pairs.
pub fn alignment_names(pair: &KgPair, pairs: &[AlignedPair]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|&(a, b)| {
            (
                pair.kg1.entity_name(a).to_owned(),
                pair.kg2.entity_name(b).to_owned(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kg::KgBuilder;
    use crate::pair::k_fold_splits;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    fn sample_pair() -> KgPair {
        let mut b1 = KgBuilder::new("KG1");
        b1.add_rel_triple("x/a", "x/r", "x/b");
        b1.add_rel_triple("x/b", "x/r", "x/c");
        b1.add_attr_triple("x/a", "x/name", "Alpha Centauri");
        let mut b2 = KgBuilder::new("KG2");
        b2.add_rel_triple("y/a", "y/s", "y/b");
        b2.add_rel_triple("y/c", "y/s", "y/b");
        b2.add_attr_triple("y/c", "y/label", "Gamma \"quoted\"");
        let kg1 = b1.build();
        let kg2 = b2.build();
        let alignment = vec![
            (
                kg1.entity_by_name("x/a").unwrap(),
                kg2.entity_by_name("y/a").unwrap(),
            ),
            (
                kg1.entity_by_name("x/b").unwrap(),
                kg2.entity_by_name("y/b").unwrap(),
            ),
            (
                kg1.entity_by_name("x/c").unwrap(),
                kg2.entity_by_name("y/c").unwrap(),
            ),
        ];
        KgPair::new(kg1, kg2, alignment)
    }

    #[test]
    fn roundtrip_pair() {
        let dir = std::env::temp_dir().join(format!("openea_io_test_{}", std::process::id()));
        let pair = sample_pair();
        write_pair(&dir, &pair).unwrap();
        let back = read_pair(&dir).unwrap();
        assert_eq!(back.kg1.num_entities(), pair.kg1.num_entities());
        assert_eq!(back.kg2.num_rel_triples(), pair.kg2.num_rel_triples());
        assert_eq!(back.kg2.num_attr_triples(), 1);
        assert_eq!(back.num_aligned(), 3);
        let names = alignment_names(&back, &back.alignment);
        assert!(names.contains(&("x/a".to_owned(), "y/a".to_owned())));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn roundtrip_folds() {
        let dir = std::env::temp_dir().join(format!("openea_fold_test_{}", std::process::id()));
        let pair = sample_pair();
        let mut rng = SmallRng::seed_from_u64(1);
        let folds = k_fold_splits(&pair.alignment, 3, &mut rng);
        write_pair(&dir, &pair).unwrap();
        write_folds(&dir, &pair, &folds).unwrap();
        let back = read_pair(&dir).unwrap();
        let back_folds = read_folds(&dir, &back).unwrap();
        assert_eq!(back_folds.len(), 3);
        for (a, b) in folds.iter().zip(&back_folds) {
            assert_eq!(a.train.len(), b.train.len());
            assert_eq!(a.valid.len(), b.valid.len());
            assert_eq!(a.test.len(), b.test.len());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_file_errors() {
        let dir = std::env::temp_dir().join(format!("openea_bad_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("rel_triples_1"), "only_two\tcolumns\n").unwrap();
        fs::write(dir.join("rel_triples_2"), "").unwrap();
        fs::write(dir.join("ent_links"), "").unwrap();
        let err = read_pair(&dir).unwrap_err();
        assert!(matches!(err, Error::Malformed { line: 1, .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn link_only_entities_are_registered_as_isolated() {
        // An aligned entity may occur in no triple at all; `ent_links` is
        // then its only mention and reading must still succeed.
        let dir = std::env::temp_dir().join(format!("openea_unk_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("rel_triples_1"), "a\tr\tb\n").unwrap();
        fs::write(dir.join("rel_triples_2"), "c\ts\td\n").unwrap();
        fs::write(dir.join("ent_links"), "a\tlink_only\n").unwrap();
        let pair = read_pair(&dir).unwrap();
        assert_eq!(pair.num_aligned(), 1);
        let e = pair.kg2.entity_by_name("link_only").unwrap();
        assert_eq!(pair.kg2.degree(e), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_entity_in_fold_links_errors() {
        let dir = std::env::temp_dir().join(format!("openea_unkf_test_{}", std::process::id()));
        let fold_dir = dir.join("721_5fold").join("1");
        fs::create_dir_all(&fold_dir).unwrap();
        fs::write(dir.join("rel_triples_1"), "a\tr\tb\n").unwrap();
        fs::write(dir.join("rel_triples_2"), "c\ts\td\n").unwrap();
        fs::write(dir.join("ent_links"), "a\tc\n").unwrap();
        fs::write(fold_dir.join("train_links"), "a\tnot_there\n").unwrap();
        fs::write(fold_dir.join("valid_links"), "").unwrap();
        fs::write(fold_dir.join("test_links"), "").unwrap();
        let pair = read_pair(&dir).unwrap();
        let err = read_folds(&dir, &pair).unwrap_err();
        assert!(matches!(err, Error::UnknownEntity { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_io_error() {
        let err = read_pair("/definitely/not/a/dir").unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
    }
}
