//! Golden-file pinning of the *sharded* snapshot placement (versions 1 and
//! 2), plus the typed-error contract for every way a shard set can be
//! corrupted, all through the one artifact reader, [`load_artifact`].
//!
//! `fixtures/tiny.manifest` + `fixtures/tiny.shard000`/`tiny.shard001`
//! are committed artifacts: the same logical snapshot as the monolithic
//! golden fixture, sharded at two target rows per shard.
//! `fixtures/tiny-lineage.manifest` and its two shards are the same for
//! `tiny-lineage.snap`'s warm-started snapshot: a version-2 manifest, its
//! shards byte-identical to the cold set's (lineage never moves the
//! generation). Corruption tests copy a fixture set into a temp directory
//! first — the committed files are never mutated.
//!
//! To regenerate after an *intentional* format-version bump:
//! `OPENEA_REGEN_FIXTURES=1 cargo test -p openea-serve --test sharded_golden`

use openea_approaches::common::EpochTrace;
use openea_approaches::{Lineage, StopReason, TrainTrace};
use openea_serve::{load_artifact, shard_path, write_sharded, Snapshot, SnapshotError};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny.manifest")
}

fn lineage_manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny-lineage.manifest")
}

/// Rows per shard in the committed fixture: 3 targets → shards of 2 + 1.
const SHARD_ENTITIES: usize = 2;
const NUM_SHARDS: usize = 2;

/// The logical contents of the committed fixture — the same snapshot the
/// monolithic golden test pins, so the two formats are provably views of
/// one artifact. Literals only; stable by construction.
fn fixture_snapshot() -> Snapshot {
    Snapshot {
        dim: 2,
        metric: openea_align::Metric::Cosine,
        emb1: vec![1.0, 0.0, 0.5, -0.25, 0.0, 1.0, -0.125, 0.875],
        emb2: vec![0.75, 0.125, -1.0, 2.0, 0.0625, -0.5],
        names1: vec![
            "en:alpha".into(),
            "en:beta".into(),
            "en:gamma".into(),
            "en:delta".into(),
        ],
        names2: vec!["fr:un".into(), "fr:deux".into(), "fr:trois".into()],
        trace: TrainTrace {
            label: "GoldenFixture".into(),
            epochs: vec![
                EpochTrace {
                    epoch: 0,
                    mean_loss: 0.75,
                    pairs: 24,
                    wall_s: 0.0015,
                    val_hits1: None,
                },
                EpochTrace {
                    epoch: 1,
                    mean_loss: 0.5,
                    pairs: 24,
                    wall_s: 0.0016,
                    val_hits1: Some(0.25),
                },
                EpochTrace {
                    epoch: 2,
                    mean_loss: 0.375,
                    pairs: 24,
                    wall_s: 0.0014,
                    val_hits1: Some(0.5),
                },
            ],
            stop: StopReason::EarlyStopped { epoch: 2 },
            total_wall_s: 0.005,
        },
        lineage: None,
    }
}

/// `tiny-lineage.snap`'s snapshot: the fixture as a warm-started child
/// generation.
fn lineage_fixture_snapshot() -> Snapshot {
    Snapshot {
        lineage: Some(Lineage {
            parent_generation: 0xfeed_f00d_dead_beef,
            trained_epochs: 27,
        }),
        ..fixture_snapshot()
    }
}

/// A fresh temp directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "openea-sharded-golden-{tag}-{}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copies the committed fixture set of `manifest` into a fresh temp
/// directory so corruption tests can mutate files freely.
fn scratch_copy_of(manifest: &Path, tag: &str) -> PathBuf {
    let mpath = scratch_dir(tag).join(manifest.file_name().unwrap());
    fs::copy(manifest, &mpath).unwrap();
    for i in 0..NUM_SHARDS {
        fs::copy(shard_path(manifest, i), shard_path(&mpath, i)).unwrap();
    }
    mpath
}

fn scratch_copy(tag: &str) -> PathBuf {
    scratch_copy_of(&fixture_manifest_path(), tag)
}

/// Loads the artifact at `path` whole.
fn load(path: &Path) -> Result<Snapshot, SnapshotError> {
    load_artifact(path, u64::MAX).map(|art| art.snapshot)
}

/// FNV-1a 64 (the codec's checksum primitive), reimplemented here so the
/// corruption tests can re-seal a tampered shard's own trailer.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const HEADER_LEN: usize = 20;

/// Re-shards `snap` into a scratch directory and compares every file byte
/// for byte against the committed set at `mpath` (regenerating that set
/// first under `OPENEA_REGEN_FIXTURES`).
fn assert_golden_set(snap: &Snapshot, mpath: &Path, tag: &str) {
    if std::env::var_os("OPENEA_REGEN_FIXTURES").is_some() {
        fs::create_dir_all(mpath.parent().unwrap()).unwrap();
        write_sharded(snap, mpath, SHARD_ENTITIES).unwrap();
    }
    let fresh = scratch_dir(tag).join(mpath.file_name().unwrap());
    let shard_paths = write_sharded(snap, &fresh, SHARD_ENTITIES).unwrap();
    assert_eq!(shard_paths.len(), NUM_SHARDS);
    let committed = fs::read(mpath)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", mpath.display()));
    assert_eq!(
        committed,
        fs::read(&fresh).unwrap(),
        "the manifest format drifted from the committed golden file; \
         bump the version and regenerate fixtures if this was intentional"
    );
    for i in 0..NUM_SHARDS {
        assert_eq!(
            fs::read(shard_path(mpath, i)).unwrap(),
            fs::read(shard_path(&fresh, i)).unwrap(),
            "shard {i} format drifted from the committed golden file"
        );
    }
}

#[test]
fn golden_fixtures_match_todays_encoder() {
    assert_golden_set(&fixture_snapshot(), &fixture_manifest_path(), "regen");
    let manifest = fs::read(fixture_manifest_path()).unwrap();
    assert_eq!(manifest[8..12], 1u32.to_le_bytes(), "a cold manifest is v1");
}

#[test]
fn lineage_golden_fixtures_match_todays_encoder() {
    let mpath = lineage_manifest_path();
    assert_golden_set(&lineage_fixture_snapshot(), &mpath, "regen-lineage");
    let manifest = fs::read(&mpath).unwrap();
    assert_eq!(manifest[8..12], 2u32.to_le_bytes(), "a warm manifest is v2");
    // The snapshot is `tiny-lineage.snap`'s, and its shards are the cold
    // set's: lineage never moves the generation.
    let snap = mpath.with_extension("snap");
    assert_eq!(
        Snapshot::read_from(&snap).unwrap(),
        lineage_fixture_snapshot()
    );
    for i in 0..NUM_SHARDS {
        assert_eq!(
            fs::read(shard_path(&mpath, i)).unwrap(),
            fs::read(shard_path(&fixture_manifest_path(), i)).unwrap()
        );
    }
}

#[test]
fn manifest_roundtrip_and_reassembly() {
    for (mpath, snap) in [
        (fixture_manifest_path(), fixture_snapshot()),
        (lineage_manifest_path(), lineage_fixture_snapshot()),
    ] {
        // The shard set reassembles exactly the monolithic snapshot, bit
        // for bit, generation and lineage included.
        let art = load_artifact(&mpath, u64::MAX).unwrap();
        let back = art.snapshot;
        assert_eq!(back, snap);
        assert_eq!(back.generation(), snap.generation());
        assert_eq!(back.lineage, snap.lineage);
        // Load → re-save is byte-identical (pure-function codec).
        let resaved = scratch_dir("resave").join(mpath.file_name().unwrap());
        write_sharded(&back, &resaved, SHARD_ENTITIES).unwrap();
        assert_eq!(fs::read(&resaved).unwrap(), fs::read(&mpath).unwrap());
        // And the shard ranges tile 0..n2 as promised: 0..2, then 2..3.
        assert_eq!(art.coverage.shards_total, NUM_SHARDS);
        let first = load_artifact(&mpath, 2 * 2 * 4).unwrap().coverage;
        assert_eq!((first.shards_loaded, first.loaded_entities), (1, 2));
        assert_eq!(
            (art.coverage.shards_loaded, art.coverage.loaded_entities),
            (2, 3)
        );
    }
}

#[test]
fn a_warm_started_sharded_artifact_keeps_its_lineage() {
    let snap = lineage_fixture_snapshot();
    let mpath = scratch_dir("lineage").join("live.manifest");
    write_sharded(&snap, &mpath, 1).unwrap();
    let back = load_artifact(&mpath, u64::MAX).unwrap().snapshot;
    assert_eq!(back.lineage, snap.lineage);
    assert_eq!(back.generation(), snap.generation());
    assert_eq!(back, snap);
}

#[test]
fn missing_shard_is_typed() {
    let mpath = scratch_copy("missing");
    fs::remove_file(shard_path(&mpath, 1)).unwrap();
    match load(&mpath) {
        Err(SnapshotError::MissingShard { index: 1, path }) => {
            assert_eq!(path, shard_path(&mpath, 1));
        }
        other => panic!("expected MissingShard, got {other:?}"),
    }
}

#[test]
fn tampered_shard_fails_its_own_trailer_checksum() {
    // Flip a payload byte without re-sealing: the shard's own framing
    // catches it before any manifest comparison.
    let mpath = scratch_copy("torn");
    let spath = shard_path(&mpath, 0);
    let mut bytes = fs::read(&spath).unwrap();
    let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - 8) / 2;
    bytes[mid] ^= 0x40;
    fs::write(&spath, &bytes).unwrap();
    assert!(matches!(
        load(&mpath),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn resealed_shard_fails_the_manifest_checksum() {
    // Flip an embedding byte *and* recompute the shard's own trailer: the
    // file is internally consistent, but the manifest knows better.
    let mpath = scratch_copy("resealed");
    let spath = shard_path(&mpath, 0);
    let mut bytes = fs::read(&spath).unwrap();
    let last = bytes.len() - 9; // final embedding byte, after the header
    bytes[last] ^= 0x40;
    let payload_end = bytes.len() - 8;
    let seal = fnv1a64(&bytes[HEADER_LEN..payload_end]);
    bytes[payload_end..].copy_from_slice(&seal.to_le_bytes());
    fs::write(&spath, &bytes).unwrap();
    match load(&mpath) {
        Err(SnapshotError::ShardChecksumMismatch {
            index: 0,
            manifest: m,
            shard,
        }) => {
            assert_ne!(m, shard);
        }
        other => panic!("expected ShardChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn foreign_generation_shard_is_typed() {
    // Shard a *different* snapshot (same shape, different embeddings) and
    // drop its shard 0 into this set: a stale artifact from another
    // deployment generation.
    let mpath = scratch_copy("foreign");
    let mut other = fixture_snapshot();
    other.emb2[0] += 1.0;
    let dir = mpath.parent().unwrap().join("other");
    fs::create_dir_all(&dir).unwrap();
    let opath = dir.join("tiny.manifest");
    write_sharded(&other, &opath, SHARD_ENTITIES).unwrap();
    fs::copy(shard_path(&opath, 0), shard_path(&mpath, 0)).unwrap();
    match load(&mpath) {
        Err(SnapshotError::GenerationMismatch {
            index: 0,
            manifest: m,
            shard,
        }) => {
            assert_eq!(m, fixture_snapshot().generation());
            assert_eq!(shard, other.generation());
        }
        other => panic!("expected GenerationMismatch, got {other:?}"),
    }
}

/// Writes `image` as the manifest at `mpath`, a scratch copy of a fixture
/// set, and loads it.
fn load_manifest_image(mpath: &Path, image: &[u8]) -> Result<Snapshot, SnapshotError> {
    fs::write(mpath, image).unwrap();
    load(mpath)
}

#[test]
fn truncating_the_manifest_anywhere_is_typed_not_a_panic() {
    for (fixture, tag) in [
        (fixture_manifest_path(), "cut"),
        (lineage_manifest_path(), "cut-lineage"),
    ] {
        let mpath = scratch_copy_of(&fixture, tag);
        let bytes = fs::read(&fixture).unwrap();
        for cut in 0..bytes.len() {
            match load_manifest_image(&mpath, &bytes[..cut]) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }
}

#[test]
fn corrupt_manifest_header_paths_are_typed() {
    let mpath = scratch_copy("header");
    let bytes = fs::read(fixture_manifest_path()).unwrap();

    let mut bad_magic = bytes.clone();
    bad_magic[3] = b'X';
    assert!(matches!(
        load_manifest_image(&mpath, &bad_magic),
        Err(SnapshotError::BadMagic)
    ));
    // A manifest is not the inline layout `decode` reads from memory (distinct
    // magics) ...
    assert!(matches!(
        Snapshot::decode(&bytes),
        Err(SnapshotError::BadMagic)
    ));
    // ... and the file reader goes by the magic, not the name: an inline
    // snapshot under a manifest's name loads as what it is.
    let inline = fixture_snapshot().encode();
    assert_eq!(
        load_manifest_image(&mpath, &inline).unwrap(),
        fixture_snapshot()
    );

    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        load_manifest_image(&mpath, &future),
        Err(SnapshotError::UnsupportedVersion(9))
    ));

    let mut flipped = bytes.clone();
    let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - 8) / 2;
    flipped[mid] ^= 0x01;
    assert!(matches!(
        load_manifest_image(&mpath, &flipped),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn shard_error_display_is_informative() {
    let e = SnapshotError::MissingShard {
        index: 3,
        path: PathBuf::from("/tmp/x.shard003"),
    };
    let msg = e.to_string();
    assert!(msg.contains('3') && msg.contains("x.shard003"), "{msg}");
    let e = SnapshotError::ShardChecksumMismatch {
        index: 1,
        manifest: 10,
        shard: 11,
    };
    assert!(e.to_string().contains("checksum"), "{e}");
    let e = SnapshotError::GenerationMismatch {
        index: 0,
        manifest: 1,
        shard: 2,
    };
    assert!(e.to_string().contains("generation"), "{e}");
}
