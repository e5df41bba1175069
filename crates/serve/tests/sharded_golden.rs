//! Golden-file pinning of the version-1 *sharded* snapshot format, plus
//! the typed-error contract for every way a shard set can be corrupted.
//!
//! `fixtures/tiny.manifest` + `fixtures/tiny.shard000`/`tiny.shard001`
//! are committed artifacts: the same logical snapshot as the monolithic
//! golden fixture, sharded at two target rows per shard. Corruption tests
//! copy the fixture set into a temp directory first — the committed files
//! are never mutated.
//!
//! To regenerate after an *intentional* format-version bump:
//! `OPENEA_REGEN_FIXTURES=1 cargo test -p openea-serve --test sharded_golden`

use openea_approaches::common::EpochTrace;
use openea_approaches::{StopReason, TrainTrace};
use openea_serve::{shard_path, write_sharded, ShardManifest, Snapshot, SnapshotError};
use std::fs;
use std::path::PathBuf;

fn fixture_manifest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny.manifest")
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

/// Copies the committed fixture set into a fresh temp directory so
/// corruption tests can mutate files freely.
fn scratch_copy(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "openea-sharded-golden-{tag}-{}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).unwrap();
    let mpath = dir.join("tiny.manifest");
    fs::copy(fixture_manifest_path(), &mpath).unwrap();
    for i in 0..NUM_SHARDS {
        fs::copy(
            shard_path(&fixture_manifest_path(), i),
            shard_path(&mpath, i),
        )
        .unwrap();
    }
    mpath
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

#[test]
fn golden_fixtures_match_todays_encoder() {
    let snap = fixture_snapshot();
    let mpath = fixture_manifest_path();
    if std::env::var_os("OPENEA_REGEN_FIXTURES").is_some() {
        fs::create_dir_all(mpath.parent().unwrap()).unwrap();
        write_sharded(&snap, &mpath, SHARD_ENTITIES).unwrap();
    }
    // Re-shard into a scratch directory and compare every file byte for
    // byte against the committed set.
    let dir = std::env::temp_dir().join(format!("openea-sharded-regen-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let fresh = dir.join("tiny.manifest");
    let shard_paths = write_sharded(&snap, &fresh, SHARD_ENTITIES).unwrap();
    assert_eq!(shard_paths.len(), NUM_SHARDS);
    let committed = fs::read(&mpath)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", mpath.display()));
    assert_eq!(
        committed,
        fs::read(&fresh).unwrap(),
        "the manifest format drifted from the committed golden file; \
         bump the version and regenerate fixtures if this was intentional"
    );
    for i in 0..NUM_SHARDS {
        assert_eq!(
            fs::read(shard_path(&mpath, i)).unwrap(),
            fs::read(shard_path(&fresh, i)).unwrap(),
            "shard {i} format drifted from the committed golden file"
        );
    }
}

#[test]
fn manifest_roundtrip_and_reassembly() {
    let mpath = fixture_manifest_path();
    let committed = fs::read(&mpath).unwrap();
    let manifest = ShardManifest::decode(&committed).unwrap();
    // Load → re-encode is byte-identical (pure-function codec).
    assert_eq!(manifest.encode(), committed);
    // The shard set reassembles exactly the monolithic snapshot, bit for
    // bit, generation included.
    let snap = fixture_snapshot();
    assert_eq!(manifest.generation, snap.generation());
    let back = manifest.clone().load(&mpath).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.generation(), snap.generation());
    // And the shard ranges tile 0..n2 as promised.
    assert_eq!(manifest.shards.len(), NUM_SHARDS);
    assert_eq!(
        manifest
            .shards
            .iter()
            .map(|s| (s.start, s.end))
            .collect::<Vec<_>>(),
        vec![(0, 2), (2, 3)]
    );
}

#[test]
fn missing_shard_is_typed() {
    let mpath = scratch_copy("missing");
    fs::remove_file(shard_path(&mpath, 1)).unwrap();
    let manifest = ShardManifest::read_from(&mpath).unwrap();
    match manifest.load(&mpath) {
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
    let manifest = ShardManifest::read_from(&mpath).unwrap();
    assert!(matches!(
        manifest.load(&mpath),
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
    let manifest = ShardManifest::read_from(&mpath).unwrap();
    match manifest.load(&mpath) {
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
    let manifest = ShardManifest::read_from(&mpath).unwrap();
    match manifest.load(&mpath) {
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

#[test]
fn truncating_the_manifest_anywhere_is_typed_not_a_panic() {
    let bytes = fs::read(fixture_manifest_path()).unwrap();
    for cut in 0..bytes.len() {
        match ShardManifest::decode(&bytes[..cut]) {
            Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_manifest_header_paths_are_typed() {
    let bytes = fs::read(fixture_manifest_path()).unwrap();

    let mut bad_magic = bytes.clone();
    bad_magic[3] = b'X';
    assert!(matches!(
        ShardManifest::decode(&bad_magic),
        Err(SnapshotError::BadMagic)
    ));
    // A monolithic snapshot is not a manifest (distinct magics).
    assert!(matches!(
        ShardManifest::decode(&fixture_snapshot().encode()),
        Err(SnapshotError::BadMagic)
    ));

    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        ShardManifest::decode(&future),
        Err(SnapshotError::UnsupportedVersion(9))
    ));

    let mut flipped = bytes.clone();
    let mid = HEADER_LEN + (bytes.len() - HEADER_LEN - 8) / 2;
    flipped[mid] ^= 0x01;
    assert!(matches!(
        ShardManifest::decode(&flipped),
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
