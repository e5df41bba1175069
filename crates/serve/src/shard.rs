//! Sibling shards: the placement of a snapshot's `emb2` in `N` shard files
//! beside the snapshot file (then called a *manifest*), so a serve node can
//! load a memory-budgeted slice of a million-entity snapshot instead of the
//! whole thing.
//!
//! Only the target-side matrix (`emb2`) is sharded — it dominates memory at
//! scale and is the side the two-stage index partitions. The manifest is the
//! snapshot layout of [`crate::snapshot`] with `emb2` replaced by a shard
//! table: the snapshot *generation* that ties every shard to exactly one
//! logical snapshot, then each shard's row range and checksum. Everything
//! else — `emb1`, both name maps, the trace and, for a warm-started run, the
//! lineage — is in the manifest, written and read by the one payload codec.
//!
//! ## Shard files (version 1)
//!
//! A shard uses the crate's container framing (magic · version u32 ·
//! payload length u64 · payload · FNV-1a 64 of the payload) with the magic
//! `OPENEASH`. Shard `i` holds rows `start..end` of `emb2`:
//!
//! ```text
//! generation u64 · shard index u64 · start u64 · end u64 · dim u32
//! f32 × (end−start)·dim
//! ```
//!
//! ## Verification order on load
//!
//! The manifest's payload is decoded and verified first, its shard table
//! tiling `0..n2`. Then every shard of the budgeted prefix goes through the
//! one streaming frame reader: one descriptor, its length read once, one
//! decode-and-hash pass. For each shard: existence (else
//! [`SnapshotError::MissingShard`]) → header against the real length →
//! rows decoded straight onto the `emb2` the returned snapshot owns →
//! the shard's own trailer (a torn write is
//! [`SnapshotError::ChecksumMismatch`]) → generation (a shard of another
//! snapshot is [`SnapshotError::GenerationMismatch`]) → the manifest's
//! checksum for it, against the *same hash value* the trailer was just
//! compared with — computed once, compared twice (a consistent shard
//! rewritten after the manifest was sealed is
//! [`SnapshotError::ShardChecksumMismatch`]) → index/range/dim → unread
//! bytes. The writer mirrors it: a shard's manifest checksum is the
//! trailer its streaming write just produced.

use crate::snapshot::{overflow, write_file, FrameReader, FrameWriter, Snapshot, SnapshotError};
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

const SHARD_MAGIC: &[u8; 8] = b"OPENEASH";
const VERSION: u32 = 1;

/// One shard's entry in the manifest: the target-row range it covers and
/// the FNV-1a 64 checksum of its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShardMeta {
    /// First target row (inclusive).
    start: usize,
    /// Last target row (exclusive).
    end: usize,
    /// Checksum of the shard file's payload, as sealed by the writer.
    checksum: u64,
}

/// A manifest's shard table: the generation every shard carries and the
/// shards in row order.
pub(crate) struct ShardTable {
    generation: u64,
    shards: Vec<ShardMeta>,
}

/// Path of shard `index` next to `manifest_path`: `<stem>.shard<index:03>`.
pub fn shard_path(manifest_path: &Path, index: usize) -> PathBuf {
    manifest_path.with_extension(format!("shard{index:03}"))
}

/// Shards `snap` into `<manifest_path>` plus one shard file per
/// `shard_entities` target rows (the last shard takes the remainder; a
/// snapshot with zero targets writes zero shards). Every file is written
/// atomically; the manifest is written *last*, so a crash mid-write never
/// leaves a manifest naming incomplete shards. Returns the shard paths.
pub fn write_sharded(
    snap: &Snapshot,
    manifest_path: &Path,
    shard_entities: usize,
) -> Result<Vec<PathBuf>, SnapshotError> {
    assert!(shard_entities > 0, "shard_entities must be positive");
    let (n2, dim) = (snap.num_targets(), snap.dim);
    let generation = snap.generation();
    let mut shards = Vec::new();
    let mut paths = Vec::new();
    let mut start = 0usize;
    while start < n2 {
        let end = (start + shard_entities).min(n2);
        let index = shards.len();
        let path = shard_path(manifest_path, index);
        // The trailer the writer just computed *is* the manifest's
        // checksum for this shard: one pass over the rows, not two.
        let checksum = write_file(&path, SHARD_MAGIC, VERSION, &|w| {
            w.bytes(&generation.to_le_bytes())?;
            w.bytes(&(index as u64).to_le_bytes())?;
            w.bytes(&(start as u64).to_le_bytes())?;
            w.bytes(&(end as u64).to_le_bytes())?;
            w.bytes(&(dim as u32).to_le_bytes())?;
            w.floats(&snap.emb2[start * dim..end * dim])
        })?;
        shards.push(ShardMeta {
            start,
            end,
            checksum,
        });
        paths.push(path);
        start = end;
    }
    let table = ShardTable { generation, shards };
    snap.view().with_shards(&table).write_to(manifest_path)?;
    Ok(paths)
}

impl ShardTable {
    /// Encodes the table where an inline snapshot has `emb2`.
    pub(crate) fn write(&self, w: &mut FrameWriter<'_>) -> io::Result<()> {
        w.bytes(&self.generation.to_le_bytes())?;
        w.bytes(&(self.shards.len() as u64).to_le_bytes())?;
        for s in &self.shards {
            w.bytes(&(s.start as u64).to_le_bytes())?;
            w.bytes(&(s.end as u64).to_le_bytes())?;
            w.bytes(&s.checksum.to_le_bytes())?;
        }
        Ok(())
    }

    /// Decodes a table whose shards must tile `0..n2` contiguously.
    pub(crate) fn read(r: &mut FrameReader<impl Read>, n2: usize) -> Result<Self, SnapshotError> {
        let generation = r.u64()?;
        let n_shards = r.u64()? as usize;
        let mut shards = Vec::with_capacity(n_shards.min(r.remaining() / 24));
        let mut cursor = 0usize;
        for i in 0..n_shards {
            let (start, end, checksum) = (r.u64()? as usize, r.u64()? as usize, r.u64()?);
            if start != cursor || end <= start {
                return Err(SnapshotError::Malformed(format!(
                    "shard {i} covers {start}..{end} but the previous shard ended at {cursor}"
                )));
            }
            cursor = end;
            shards.push(ShardMeta {
                start,
                end,
                checksum,
            });
        }
        if cursor != n2 {
            return Err(SnapshotError::Malformed(format!(
                "shards cover {cursor} of {n2} target rows"
            )));
        }
        Ok(Self { generation, shards })
    }

    /// Target rows per shard, in order.
    pub(crate) fn rows(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.end - s.start).collect()
    }

    /// Reads the first `loaded` shards from beside `manifest_path` onto the
    /// end of `emb2`, each verified in the module's order.
    pub(crate) fn read_prefix(
        &self,
        manifest_path: &Path,
        loaded: usize,
        dim: usize,
        emb2: &mut Vec<f32>,
    ) -> Result<(), SnapshotError> {
        // Reserve `emb2` once, for the lesser of what the table promises
        // and what the shard files hold (a lying table cannot reserve more
        // than is on disk). `metadata` here bounds that reservation only:
        // every check runs on the length `read_shard_into` reads, once,
        // from the descriptor it opens.
        let (mut floats, mut on_disk) = (0usize, 0u64);
        for (i, meta) in self.shards[..loaded].iter().enumerate() {
            floats = floats.saturating_add((meta.end - meta.start).saturating_mul(dim));
            on_disk += fs::metadata(shard_path(manifest_path, i)).map_or(0, |m| m.len() / 4);
        }
        emb2.reserve_exact(floats.min(on_disk as usize));
        (0..loaded).try_for_each(|i| self.read_shard_into(manifest_path, i, dim, emb2))
    }

    /// Reads and verifies shard `index`, decoding its rows straight onto the
    /// end of `emb2`. Header fields that contradict the table only stop the
    /// *decoding*: the rest of the payload is still hashed, so a foreign or
    /// regrained shard gets the typed error a whole-file check would give it.
    fn read_shard_into(
        &self,
        manifest_path: &Path,
        index: usize,
        dim: usize,
        emb2: &mut Vec<f32>,
    ) -> Result<(), SnapshotError> {
        let meta = &self.shards[index];
        let path = shard_path(manifest_path, index);
        let file = fs::File::open(&path).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => SnapshotError::MissingShard { index, path },
            _ => e.into(),
        })?;
        let mut r = FrameReader::open_file(file, &[SHARD_MAGIC], VERSION..=VERSION)?;
        let generation = r.u64();
        let rows = (|| {
            let own_index = r.u64()? as usize;
            let start = r.u64()? as usize;
            let end = r.u64()? as usize;
            let own_dim = r.u32()? as usize;
            if own_index != index || start != meta.start || end != meta.end || own_dim != dim {
                return Err(SnapshotError::Malformed(format!(
                    "shard {index} header says shard {own_index} rows {start}..{end} dim {own_dim}, \
                     manifest says rows {}..{} dim {dim}",
                    meta.start, meta.end
                )));
            }
            let floats = (end - start).checked_mul(dim).ok_or_else(overflow)?;
            r.floats_into(floats, emb2)?;
            r.at_end()
        })();
        let actual = r.finish()?;
        let generation = generation?;
        if generation != self.generation {
            return Err(SnapshotError::GenerationMismatch {
                index,
                manifest: self.generation,
                shard: generation,
            });
        }
        if actual != meta.checksum {
            return Err(SnapshotError::ShardChecksumMismatch {
                index,
                manifest: meta.checksum,
                shard: actual,
            });
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::load_artifact;
    use crate::snapshot::tests::tiny_snapshot;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("openea-shard-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_reassembles_the_snapshot() {
        let snap = tiny_snapshot();
        let dir = tmpdir("roundtrip");
        let mpath = dir.join("tiny.manifest");
        let paths = write_sharded(&snap, &mpath, 1).unwrap();
        assert_eq!(paths.len(), snap.num_targets());
        let art = load_artifact(&mpath, u64::MAX).unwrap();
        assert_eq!(art.coverage.shards_total, snap.num_targets());
        assert!(!art.coverage.partial());
        assert_eq!(art.snapshot, snap);
        assert_eq!(art.snapshot.generation(), snap.generation());
    }

    #[test]
    fn budgeted_load_takes_a_prefix_and_changes_generation() {
        let snap = tiny_snapshot(); // 2 targets, dim 2
        let dir = tmpdir("budget");
        let mpath = dir.join("tiny.manifest");
        write_sharded(&snap, &mpath, 1).unwrap();
        // Budget of one row's bytes → exactly the first shard.
        let art = load_artifact(&mpath, 8).unwrap();
        let (slice, coverage) = (art.snapshot, art.coverage);
        assert_eq!(coverage.shards_loaded, 1);
        assert_eq!(coverage.loaded_entities, 1);
        assert_eq!(coverage.total_entities, 2);
        assert!(coverage.partial());
        assert_eq!(slice.num_targets(), 1);
        assert_eq!(slice.emb2, &snap.emb2[..2]);
        assert_eq!(slice.names2, &snap.names2[..1]);
        assert_ne!(slice.generation(), snap.generation());
        // Zero budget still loads the first shard.
        assert_eq!(load_artifact(&mpath, 0).unwrap().coverage.shards_loaded, 1);
    }

    #[test]
    fn a_budgeted_inline_load_is_one_whole_shard() {
        let snap = tiny_snapshot();
        let path = tmpdir("inline-budget").join("tiny.snap");
        snap.write_to(&path).unwrap();
        let art = load_artifact(&path, 0).unwrap();
        assert_eq!(art.snapshot, snap);
        assert_eq!(
            (art.coverage.shards_loaded, art.coverage.shards_total),
            (1, 1)
        );
        assert!(!art.coverage.partial());
    }

    #[test]
    fn the_magic_and_not_the_name_picks_the_placement() {
        let snap = tiny_snapshot();
        let dir = tmpdir("names");
        let (sharded, inline) = (dir.join("sharded.snap"), dir.join("inline.manifest"));
        write_sharded(&snap, &sharded, 1).unwrap();
        snap.write_to(&inline).unwrap();
        assert_eq!(
            load_artifact(&sharded, u64::MAX)
                .unwrap()
                .coverage
                .shards_total,
            2
        );
        assert_eq!(
            load_artifact(&inline, u64::MAX)
                .unwrap()
                .coverage
                .shards_total,
            1
        );
        assert_eq!(Snapshot::read_from(&sharded).unwrap(), snap);
        assert_eq!(Snapshot::read_from(&inline).unwrap(), snap);
    }

    #[test]
    fn missing_shard_is_typed() {
        let snap = tiny_snapshot();
        let dir = tmpdir("missing");
        let mpath = dir.join("tiny.manifest");
        let paths = write_sharded(&snap, &mpath, 1).unwrap();
        fs::remove_file(&paths[1]).unwrap();
        match Snapshot::read_from(&mpath) {
            Err(SnapshotError::MissingShard { index: 1, .. }) => {}
            other => panic!("expected MissingShard, got {other:?}"),
        }
    }

    #[test]
    fn same_stem_writers_do_not_share_a_staging_file() {
        // `live.snap` and the `live.manifest` set, written at once into one
        // directory: each file stages through its own `<file name>.tmp`.
        let mut snap = tiny_snapshot();
        snap.emb2 = (0..40_000).map(|i| i as f32).collect();
        snap.names2.clear();
        let dir = tmpdir("stem");
        let (spath, mpath) = (dir.join("live.snap"), dir.join("live.manifest"));
        let start = std::sync::Barrier::new(2);
        for _ in 0..8 {
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    snap.write_to(&spath).unwrap();
                });
                s.spawn(|| {
                    start.wait();
                    write_sharded(&snap, &mpath, 2_500).unwrap();
                });
            });
            assert_eq!(Snapshot::read_from(&spath).unwrap(), snap);
            assert_eq!(Snapshot::read_from(&mpath).unwrap(), snap);
        }
    }

    #[test]
    fn failed_write_is_io_and_leaves_no_staging_file() {
        // The rename cannot succeed: the destination is a non-empty
        // directory.
        let dir = tmpdir("renamefail");
        let dest = dir.join("live.snap");
        fs::create_dir_all(dest.join("occupied")).unwrap();
        match tiny_snapshot().write_to(&dest) {
            Err(SnapshotError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(left.is_empty(), "staging files left behind: {left:?}");
    }

    #[test]
    fn zero_targets_writes_zero_shards() {
        let mut snap = tiny_snapshot();
        snap.emb2.clear();
        snap.names2.clear();
        let dir = tmpdir("zero");
        let mpath = dir.join("tiny.manifest");
        let paths = write_sharded(&snap, &mpath, 4).unwrap();
        assert!(paths.is_empty());
        let art = load_artifact(&mpath, u64::MAX).unwrap();
        assert_eq!(art.coverage.shards_total, 0);
        assert_eq!(art.snapshot, snap);
    }
}
