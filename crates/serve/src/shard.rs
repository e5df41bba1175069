//! Sharded snapshots: one *manifest* plus N *shard* files, so a serve node
//! can load a memory-budgeted slice of a million-entity snapshot instead of
//! the whole thing.
//!
//! Only the target-side matrix (`emb2`) is sharded — it dominates memory at
//! scale and is the side the two-stage index partitions. Everything else
//! (dim, metric, `emb1`, both name maps, the training trace) lives in the
//! manifest, together with per-shard byte ranges and checksums and the
//! snapshot *generation* that ties every shard to exactly one logical
//! snapshot.
//!
//! ## On-disk layout (version 1)
//!
//! Both file kinds use the crate's shared container framing
//! (magic · version u32 · payload length u64 · payload · FNV-1a 64 of the
//! payload), with distinct magics: `OPENEASM` for manifests, `OPENEASH`
//! for shards.
//!
//! Manifest payload:
//!
//! ```text
//! dim u32 · metric u8 · n1 u64 · n2 u64 · generation u64
//! shard count u64 · per shard: start u64 · end u64 · checksum u64
//! emb1  f32 × n1·dim
//! names1 · names2 · trace      (same encodings as snapshot version 1)
//! ```
//!
//! Shard `i` payload (rows `start..end` of `emb2`):
//!
//! ```text
//! generation u64 · shard index u64 · start u64 · end u64 · dim u32
//! f32 × (end−start)·dim
//! ```
//!
//! ## Verification order on load
//!
//! Every file goes through the one streaming frame reader of
//! [`crate::snapshot`]: one descriptor, its length read once, one
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

use crate::snapshot::{
    encode_frame, metric_from_tag, metric_tag, overflow, read_names, read_trace, write_file,
    write_names, write_trace, FrameReader, FrameWriter, Snapshot, SnapshotError,
};
use openea_align::Metric;
use openea_approaches::TrainTrace;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

const MANIFEST_MAGIC: &[u8; 8] = b"OPENEASM";
const SHARD_MAGIC: &[u8; 8] = b"OPENEASH";
const VERSION: u32 = 1;

/// One shard's entry in the manifest: the target-row range it covers and
/// the FNV-1a 64 checksum of its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// First target row (inclusive).
    pub start: usize,
    /// Last target row (exclusive).
    pub end: usize,
    /// Checksum of the shard file's payload, as sealed by the writer.
    pub checksum: u64,
}

impl ShardMeta {
    pub fn rows(&self) -> usize {
        self.end - self.start
    }
}

/// A decoded shard manifest: everything but the sharded `emb2` rows.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    pub dim: usize,
    pub metric: Metric,
    pub n1: usize,
    /// Total target rows across all shards.
    pub n2: usize,
    /// [`Snapshot::generation`] of the sharded snapshot.
    pub generation: u64,
    pub shards: Vec<ShardMeta>,
    pub emb1: Vec<f32>,
    pub names1: Vec<String>,
    pub names2: Vec<String>,
    pub trace: TrainTrace,
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
    let n1 = snap.num_queries();
    write_file(manifest_path, MANIFEST_MAGIC, VERSION, &|w| {
        manifest_head(w, dim, snap.metric, (n1, n2), generation, &shards)?;
        manifest_rest(w, &snap.emb1, &snap.names1, &snap.names2, &snap.trace)
    })?;
    Ok(paths)
}

/// First half of the manifest payload: shape, generation, shard table.
fn manifest_head(
    w: &mut FrameWriter<'_>,
    dim: usize,
    metric: Metric,
    (n1, n2): (usize, usize),
    generation: u64,
    shards: &[ShardMeta],
) -> io::Result<()> {
    w.bytes(&(dim as u32).to_le_bytes())?;
    w.bytes(&[metric_tag(metric)])?;
    w.bytes(&(n1 as u64).to_le_bytes())?;
    w.bytes(&(n2 as u64).to_le_bytes())?;
    w.bytes(&generation.to_le_bytes())?;
    w.bytes(&(shards.len() as u64).to_le_bytes())?;
    for s in shards {
        w.bytes(&(s.start as u64).to_le_bytes())?;
        w.bytes(&(s.end as u64).to_le_bytes())?;
        w.bytes(&s.checksum.to_le_bytes())?;
    }
    Ok(())
}

/// Second half: what is not sharded, in snapshot version 1's encodings.
fn manifest_rest(
    w: &mut FrameWriter<'_>,
    emb1: &[f32],
    names1: &[String],
    names2: &[String],
    trace: &TrainTrace,
) -> io::Result<()> {
    w.floats(emb1)?;
    write_names(w, names1)?;
    write_names(w, names2)?;
    write_trace(w, trace)
}

impl ShardManifest {
    /// Serializes to the version-1 manifest layout. Pure function of the
    /// data: equal manifests encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let (counts, generation) = ((self.n1, self.n2), self.generation);
        encode_frame(MANIFEST_MAGIC, VERSION, &|w| {
            manifest_head(w, self.dim, self.metric, counts, generation, &self.shards)?;
            manifest_rest(w, &self.emb1, &self.names1, &self.names2, &self.trace)
        })
    }

    /// Decodes and structurally validates a manifest byte stream: framing
    /// first, then shard ranges must tile `0..n2` contiguously.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        FrameReader::open(bytes, bytes.len() as u64, MANIFEST_MAGIC, VERSION..=VERSION)?
            .decode(Self::read_payload)
    }

    fn read_payload(r: &mut FrameReader<impl Read>) -> Result<Self, SnapshotError> {
        let dim = r.u32()? as usize;
        if dim == 0 {
            return Err(SnapshotError::Malformed("dim is zero".into()));
        }
        let metric = metric_from_tag(r.u8()?)?;
        let n1 = r.u64()? as usize;
        let n2 = r.u64()? as usize;
        let generation = r.u64()?;
        let n_shards = r.u64()? as usize;
        let mut shards = Vec::with_capacity(n_shards.min(r.remaining() / 24));
        for _ in 0..n_shards {
            let start = r.u64()? as usize;
            let end = r.u64()? as usize;
            let checksum = r.u64()?;
            shards.push(ShardMeta {
                start,
                end,
                checksum,
            });
        }
        let mut cursor = 0usize;
        for (i, s) in shards.iter().enumerate() {
            if s.start != cursor || s.end <= s.start {
                return Err(SnapshotError::Malformed(format!(
                    "shard {i} covers {}..{} but the previous shard ended at {cursor}",
                    s.start, s.end
                )));
            }
            cursor = s.end;
        }
        if cursor != n2 {
            return Err(SnapshotError::Malformed(format!(
                "shards cover {cursor} of {n2} target rows"
            )));
        }
        let mut emb1 = Vec::new();
        r.floats_into(n1.checked_mul(dim).ok_or_else(overflow)?, &mut emb1)?;
        let names1 = read_names(r, n1)?;
        let names2 = read_names(r, n2)?;
        let trace = read_trace(r)?;
        Ok(Self {
            dim,
            metric,
            n1,
            n2,
            generation,
            shards,
            emb1,
            names1,
            names2,
            trace,
        })
    }

    /// Reads and fully validates a manifest file.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        FrameReader::open_file(fs::File::open(path)?, MANIFEST_MAGIC, VERSION..=VERSION)?
            .decode(Self::read_payload)
    }

    /// Reads and verifies shard `index` from its conventional path next to
    /// `manifest_path`, decoding its rows straight onto the end of `emb2`,
    /// in the module's verification order. Header fields that contradict
    /// the manifest only stop the *decoding*: the rest of the payload is
    /// still hashed, so a foreign or regrained shard gets the typed error
    /// a whole-file check would give it.
    fn read_shard_into(
        &self,
        manifest_path: &Path,
        index: usize,
        emb2: &mut Vec<f32>,
    ) -> Result<(), SnapshotError> {
        let meta = &self.shards[index];
        let path = shard_path(manifest_path, index);
        let file = fs::File::open(&path).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => SnapshotError::MissingShard { index, path },
            _ => e.into(),
        })?;
        let mut r = FrameReader::open_file(file, SHARD_MAGIC, VERSION..=VERSION)?;
        let generation = r.u64();
        let rows = (|| {
            let own_index = r.u64()? as usize;
            let start = r.u64()? as usize;
            let end = r.u64()? as usize;
            let dim = r.u32()? as usize;
            if own_index != index || start != meta.start || end != meta.end || dim != self.dim {
                return Err(SnapshotError::Malformed(format!(
                    "shard {index} header says shard {own_index} rows {start}..{end} dim {dim}, \
                     manifest says rows {}..{} dim {}",
                    meta.start, meta.end, self.dim
                )));
            }
            r.floats_into(meta.rows().checked_mul(dim).ok_or_else(overflow)?, emb2)?;
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

    /// Loads *every* shard and reassembles the full [`Snapshot`]. The
    /// result's [`Snapshot::generation`] always equals the manifest's —
    /// `load_budgeted` with an unlimited budget is the same operation.
    pub fn load(self, manifest_path: &Path) -> Result<Snapshot, SnapshotError> {
        Ok(self.load_budgeted(manifest_path, u64::MAX)?.0)
    }

    /// Loads a *prefix* of the shards whose `emb2` bytes fit `max_bytes`
    /// (always at least one shard, so a tiny budget still serves the first
    /// slice), returning the assembled snapshot and the number of shards
    /// loaded. A partial load keeps target ids stable — shard ranges start
    /// at row 0 — but is a *different* snapshot: its generation differs
    /// from the manifest's, so answer caches can never alias a slice with
    /// the full corpus. Consumes the manifest: `emb1`, the name maps and
    /// the trace move into the snapshot.
    pub fn load_budgeted(
        self,
        manifest_path: &Path,
        max_bytes: u64,
    ) -> Result<(Snapshot, usize), SnapshotError> {
        // Size the prefix first so `emb2` is reserved once, for the lesser
        // of what the manifest promises and what the shard files hold (a
        // lying table cannot reserve more than is on disk). `metadata` here
        // bounds that reservation only: every check runs on the length
        // `read_shard_into` reads, once, from the descriptor it opens.
        let (mut loaded, mut floats, mut on_disk) = (0usize, 0usize, 0u64);
        for (i, meta) in self.shards.iter().enumerate() {
            let more = meta.rows().saturating_mul(self.dim);
            if loaded > 0 && (floats.saturating_add(more) as u64).saturating_mul(4) > max_bytes {
                break;
            }
            floats = floats.saturating_add(more);
            on_disk += fs::metadata(shard_path(manifest_path, i)).map_or(0, |m| m.len() / 4);
            loaded += 1;
        }
        let mut emb2 = Vec::with_capacity(floats.min(on_disk as usize));
        for i in 0..loaded {
            self.read_shard_into(manifest_path, i, &mut emb2)?;
        }
        let mut names2 = self.names2;
        names2.truncate(emb2.len() / self.dim);
        Ok((
            Snapshot {
                dim: self.dim,
                metric: self.metric,
                emb1: self.emb1,
                emb2,
                names1: self.names1,
                names2,
                trace: self.trace,
                // The shard manifest predates the lineage extension and
                // stays byte-pinned; sharded artifacts reload lineage-less.
                lineage: None,
            },
            loaded,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let manifest = ShardManifest::read_from(&mpath).unwrap();
        assert_eq!(manifest.generation, snap.generation());
        let back = manifest.load(&mpath).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.generation(), snap.generation());
    }

    #[test]
    fn budgeted_load_takes_a_prefix_and_changes_generation() {
        let snap = tiny_snapshot(); // 2 targets, dim 2
        let dir = tmpdir("budget");
        let mpath = dir.join("tiny.manifest");
        write_sharded(&snap, &mpath, 1).unwrap();
        let manifest = ShardManifest::read_from(&mpath).unwrap();
        // Budget of one row's bytes → exactly the first shard.
        let (slice, loaded) = manifest.clone().load_budgeted(&mpath, 8).unwrap();
        assert_eq!(loaded, 1);
        assert_eq!(slice.num_targets(), 1);
        assert_eq!(slice.emb2, &snap.emb2[..2]);
        assert_eq!(slice.names2, &snap.names2[..1]);
        assert_ne!(slice.generation(), snap.generation());
        // Zero budget still loads the first shard.
        let (_, loaded) = manifest.load_budgeted(&mpath, 0).unwrap();
        assert_eq!(loaded, 1);
    }

    #[test]
    fn missing_shard_is_typed() {
        let snap = tiny_snapshot();
        let dir = tmpdir("missing");
        let mpath = dir.join("tiny.manifest");
        let paths = write_sharded(&snap, &mpath, 1).unwrap();
        fs::remove_file(&paths[1]).unwrap();
        let manifest = ShardManifest::read_from(&mpath).unwrap();
        match manifest.load(&mpath) {
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
            let manifest = ShardManifest::read_from(&mpath).unwrap();
            assert_eq!(manifest.load(&mpath).unwrap(), snap);
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
        let manifest = ShardManifest::read_from(&mpath).unwrap();
        let back = manifest.load(&mpath).unwrap();
        assert_eq!(back, snap);
    }
}
