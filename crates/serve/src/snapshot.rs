//! Versioned binary snapshot codec for trained alignment embeddings.
//!
//! A snapshot is the durable artifact on the training → serving path: the
//! two embedding matrices of an [`ApproachOutput`], the entity-name maps of
//! both KGs, the similarity metric and the training trace, serialized into
//! one self-validating file.
//!
//! ## On-disk layout (versions 1 and 2)
//!
//! One layout, two placements of the target-side matrix `emb2`: *inline*
//! in the payload (a `.snap`), or in *sibling shards* (a `.manifest` plus
//! `.shard000`, `.shard001`, … beside it; see [`crate::shard`]). The magic
//! names the placement; nothing else about the file does.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"OPENEASN" (emb2 inline) or b"OPENEASM" (emb2 in shards)
//! 8       4     format version, u32 LE (1 or 2)
//! 12      8     payload length N, u64 LE
//! 20      N     payload (see below)
//! 20+N    8     FNV-1a 64 checksum of the payload, u64 LE
//! ```
//!
//! Payload, all integers little-endian, strings as `u32 length + UTF-8`:
//!
//! ```text
//! dim u32 · metric u8 · n1 u64 · n2 u64
//! shards (sharded only) generation u64 · u64 count
//!         · per shard: start u64 · end u64 · checksum u64
//! emb1  f32 × n1·dim      (row-major, IEEE-754 bit patterns)
//! emb2  (inline only) f32 × n2·dim
//! names1  u64 count (0 or n1) · count strings
//! names2  u64 count (0 or n2) · count strings
//! trace   label string · stop u8 tag (+ u64 epoch for tags 2/3)
//!         · total_wall_s f64 · u64 epoch count
//!         · per epoch: epoch u64 · mean_loss f32 · pairs u64
//!                      · wall_s f64 · val flag u8 (+ f64 when 1)
//! lineage (version 2 only) parent_generation u64 · trained_epochs u64
//! ```
//!
//! A snapshot without lineage (a cold run) always encodes as version 1, so
//! pre-lineage artifacts and fixtures stay byte-pinned; warm-started runs
//! carry their provenance in the version-2 extension, in either placement.
//! Readers accept both.
//!
//! One payload writer serves both placements, and one
//! file reader ([`load_artifact`]) reads both: it decodes and verifies the
//! payload, then, when `emb2` is sharded, streams each verified shard onto
//! the `emb2` it returns. A memory budget keeps the longest prefix of whole
//! shards that fits it (always at least one); an inline `emb2` is one shard,
//! so a `.snap` always loads whole.
//!
//! ## Guarantees
//!
//! * **Golden-file stability** — encoding is a pure function of the data
//!   (no timestamps, no hash-map iteration order), so load → re-save is
//!   byte-identical and the committed fixture in `tests/fixtures/` pins the
//!   format across releases.
//! * **Bit-exact embeddings** — `f32` values roundtrip by bit pattern, so a
//!   served snapshot answers queries bit-identically to the training-time
//!   output (`ApproachOutput::content_hash` agrees before and after).
//! * **Typed failures** — a corrupted header, truncated file or flipped
//!   payload bit yields a [`SnapshotError`], never a panic.
//! * **No buffer proportional to the artifact** — the one frame writer
//!   runs a payload body twice over borrowed data (sizing, then writing and
//!   hashing, floats through a fixed 64 KiB conversion buffer); the one
//!   frame reader decodes into the vectors the caller keeps, hashing
//!   exactly the bytes it decodes, in the same pass.
//! * **Verification order** — header against the stream's real length
//!   (magic, version, `Truncated`, trailing bytes) → one decode-and-hash
//!   pass, every count and reservation bounded by the bytes the payload
//!   still holds → trailer. A structural error is reported only *after* the
//!   rest of the payload is hashed and the trailer compared, so a corrupt
//!   payload is `ChecksumMismatch` whatever its fields claim, and nothing
//!   decoded reaches a caller before all of it passes.

use crate::shard::ShardTable;
use openea_align::Metric;
use openea_approaches::common::EpochTrace;
use openea_approaches::engine::{CheckpointSink, Lineage, WarmStart};
use openea_approaches::{ApproachOutput, StopReason, TrainTrace};
use openea_runtime::hash::Fnv1a;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The magic of a snapshot whose `emb2` is inline.
const INLINE: &[u8; 8] = b"OPENEASN";
/// The magic of a snapshot whose `emb2` is in sibling shards (a manifest).
const SHARDED: &[u8; 8] = b"OPENEASM";
const VERSION: u32 = 1;
/// Version-2 extension: the payload ends with a 16-byte lineage record.
const VERSION_LINEAGE: u32 = 2;
/// Bytes before the payload: magic + version + payload length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Why a snapshot could not be read (or written). Every decode failure is a
/// typed variant — corrupt input never panics.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The byte stream ended before a field it promised.
    Truncated {
        need: usize,
        have: usize,
    },
    /// The payload checksum does not match — bit rot or a torn write.
    ChecksumMismatch {
        expected: u64,
        actual: u64,
    },
    /// Structurally invalid contents (bad enum tag, bad UTF-8, inconsistent
    /// counts, trailing bytes).
    Malformed(String),
    /// A shard file named by a manifest does not exist on disk.
    MissingShard {
        index: usize,
        path: PathBuf,
    },
    /// A shard file is internally consistent but its payload does not hash
    /// to the checksum the manifest recorded for it — the shard was
    /// swapped or rewritten after the manifest was sealed.
    ShardChecksumMismatch {
        index: usize,
        manifest: u64,
        shard: u64,
    },
    /// A shard file carries a different generation than its manifest — it
    /// belongs to another (older or newer) snapshot of the same layout.
    GenerationMismatch {
        index: usize,
        manifest: u64,
        shard: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (reader knows {VERSION}..={VERSION_LINEAGE})"
                )
            }
            SnapshotError::Truncated { need, have } => {
                write!(f, "truncated snapshot: need {need} bytes, have {have}")
            }
            SnapshotError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            SnapshotError::MissingShard { index, path } => {
                write!(f, "missing shard {index}: {}", path.display())
            }
            SnapshotError::ShardChecksumMismatch {
                index,
                manifest,
                shard,
            } => write!(
                f,
                "shard {index} checksum mismatch: manifest says {manifest:#018x}, shard payload hashes to {shard:#018x}"
            ),
            SnapshotError::GenerationMismatch {
                index,
                manifest,
                shard,
            } => write!(
                f,
                "shard {index} generation mismatch: manifest is {manifest:#018x}, shard is {shard:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Bytes of the fixed conversion buffer floats pass through, either way.
const CHUNK: usize = 64 << 10;

/// What fills one frame's payload. It runs twice per frame, so it must be a
/// pure function of the data it borrows: the sizing pass (the writer's `out`
/// is `None`) only counts, the writing pass hashes each piece on its way out.
pub(crate) type FrameBody<'a> = &'a dyn Fn(&mut FrameWriter<'_>) -> io::Result<()>;

pub(crate) struct FrameWriter<'a> {
    out: Option<&'a mut dyn Write>,
    len: u64,
    hash: Fnv1a,
}

impl<'a> FrameWriter<'a> {
    fn new(out: Option<&'a mut dyn Write>) -> Self {
        Self {
            out,
            len: 0,
            hash: Fnv1a::new(),
        }
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.len += b.len() as u64;
        let Some(out) = self.out.as_mut() else {
            return Ok(());
        };
        self.hash.update(b);
        out.write_all(b)
    }

    pub(crate) fn str(&mut self, s: &str) -> io::Result<()> {
        self.bytes(&(s.len() as u32).to_le_bytes())?;
        self.bytes(s.as_bytes())
    }

    /// Row-major floats by IEEE-754 bit pattern, little-endian.
    pub(crate) fn floats(&mut self, values: &[f32]) -> io::Result<()> {
        if self.out.is_none() {
            self.len += 4 * values.len() as u64;
            return Ok(());
        }
        let mut buf = [0u8; CHUNK];
        for part in values.chunks(CHUNK / 4) {
            for (le, v) in buf.chunks_exact_mut(4).zip(part) {
                le.copy_from_slice(&v.to_le_bytes());
            }
            self.bytes(&buf[..4 * part.len()])?;
        }
        Ok(())
    }
}

/// Payload length of `body`, from its sizing pass.
fn payload_len(body: FrameBody<'_>) -> io::Result<u64> {
    let mut sizing = FrameWriter::new(None);
    body(&mut sizing)?;
    Ok(sizing.len)
}

/// Streams one framed section — magic · version u32 · payload length u64 ·
/// payload · FNV-1a 64 of the payload — into `dst`; returns that checksum.
fn write_frame(
    dst: &mut dyn Write,
    magic: &[u8; 8],
    version: u32,
    payload_len: u64,
    body: FrameBody<'_>,
) -> io::Result<u64> {
    dst.write_all(magic)?;
    dst.write_all(&version.to_le_bytes())?;
    dst.write_all(&payload_len.to_le_bytes())?;
    let mut w = FrameWriter::new(Some(&mut *dst));
    body(&mut w)?;
    assert_eq!(w.len, payload_len, "a frame body repeats itself exactly");
    let checksum = w.hash.finish();
    dst.write_all(&checksum.to_le_bytes())?;
    Ok(checksum)
}

/// Streams one framed section to `path` atomically: into `<file name>.tmp`
/// beside it (the *whole* name, so `live.manifest`, `live.shard000` and
/// `live.snap` never share a staging file), fsync, rename over `path`; a
/// failed write removes its staging file. Returns the payload checksum.
pub(crate) fn write_file(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    body: FrameBody<'_>,
) -> Result<u64, SnapshotError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let staged = (|| -> io::Result<u64> {
        let mut out = BufWriter::new(fs::File::create(&tmp)?);
        let checksum = write_frame(&mut out, magic, version, payload_len(body)?, body)?;
        out.into_inner()?.sync_all()?;
        fs::rename(&tmp, path)?;
        Ok(checksum)
    })();
    if staged.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    Ok(staged?)
}

/// The one framed-section reader: a bounds-checked little-endian decoder
/// over a stream whose real length is known up front. Every byte it hands
/// out is hashed and was first `claim`ed against what the payload holds.
pub(crate) struct FrameReader<R> {
    src: R,
    /// Which of the accepted magics the stream starts with.
    magic: [u8; 8],
    version: u32,
    payload_len: usize,
    /// Payload bytes claimed so far.
    pos: usize,
    hash: Fnv1a,
}

/// One little-endian field reader per primitive, named after it.
macro_rules! le_fields {
    ($($t:ident),*) => {$(
        pub(crate) fn $t(&mut self) -> Result<$t, SnapshotError> {
            Ok($t::from_le_bytes(self.array()?))
        }
    )*};
}

impl FrameReader<BufReader<fs::File>> {
    /// Over an open file: one descriptor, its length read once.
    pub(crate) fn open_file(
        file: fs::File,
        magics: &[&[u8; 8]],
        versions: RangeInclusive<u32>,
    ) -> Result<Self, SnapshotError> {
        let len = file.metadata()?.len();
        Self::open(BufReader::new(file), len, magics, versions)
    }
}

impl<R: Read> FrameReader<R> {
    /// Validates the header: one of `magics`, a version in `versions`, and
    /// the framed length against `len`, the real byte length of `src` (short
    /// is `Truncated`, long is trailing bytes).
    pub(crate) fn open(
        mut src: R,
        len: u64,
        magics: &[&[u8; 8]],
        versions: RangeInclusive<u32>,
    ) -> Result<Self, SnapshotError> {
        let (have, need) = (len as usize, HEADER_LEN);
        let mut head = [0u8; HEADER_LEN];
        src.read_exact(&mut head[..have.min(need)])?;
        let magic: [u8; 8] = head[..8].try_into().unwrap();
        if have >= 8 && !magics.contains(&&magic) {
            return Err(SnapshotError::BadMagic);
        }
        if have < need {
            return Err(SnapshotError::Truncated { need, have });
        }
        let version = u32::from_le_bytes(head[8..12].try_into().unwrap());
        if !versions.contains(&version) {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(head[12..20].try_into().unwrap()) as usize;
        let need = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(8))
            .ok_or_else(overflow)?;
        if have < need {
            return Err(SnapshotError::Truncated { need, have });
        }
        if have > need {
            let extra = have - need;
            return Err(SnapshotError::Malformed(format!(
                "{extra} trailing bytes after checksum"
            )));
        }
        Ok(Self {
            src,
            magic,
            version,
            payload_len,
            pos: 0,
            hash: Fnv1a::new(),
        })
    }

    /// Payload bytes not yet claimed.
    pub(crate) fn remaining(&self) -> usize {
        self.payload_len - self.pos
    }

    /// The payload schema ends here: every byte must have been claimed.
    pub(crate) fn at_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            return Ok(());
        }
        let why = format!("{} unread payload bytes", self.remaining());
        Err(SnapshotError::Malformed(why))
    }

    /// Claims the next `n` payload bytes, or says how far short they fall.
    fn claim(&mut self, n: usize) -> Result<(), SnapshotError> {
        let need = self.pos.checked_add(n).ok_or_else(overflow)?;
        if need > self.payload_len {
            let have = self.payload_len;
            return Err(SnapshotError::Truncated { need, have });
        }
        self.pos = need;
        Ok(())
    }

    /// Reads claimed payload bytes, hashing them as they arrive.
    fn fill(&mut self, chunk: &mut [u8]) -> Result<(), SnapshotError> {
        self.src.read_exact(chunk)?;
        self.hash.update(chunk);
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        self.claim(N)?;
        let mut a = [0u8; N];
        self.fill(&mut a)?;
        Ok(a)
    }

    le_fields!(u8, u32, u64, f32, f64);

    pub(crate) fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        self.claim(len)?;
        let mut raw = vec![0u8; len];
        self.fill(&mut raw)?;
        String::from_utf8(raw).map_err(|_| SnapshotError::Malformed("string is not UTF-8".into()))
    }

    /// Decodes `n` floats straight onto the end of `out`, which the caller keeps.
    pub(crate) fn floats_into(
        &mut self,
        n: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), SnapshotError> {
        let mut left = n.checked_mul(4).ok_or_else(overflow)?;
        self.claim(left)?;
        out.reserve(n);
        let mut buf = [0u8; CHUNK];
        while left > 0 {
            let chunk = &mut buf[..left.min(CHUNK)];
            self.fill(chunk)?;
            let le = chunk.chunks_exact(4);
            out.extend(le.map(|c| f32::from_le_bytes(c.try_into().unwrap())));
            left -= chunk.len();
        }
        Ok(())
    }

    /// Hashes whatever payload is still unclaimed, then compares the
    /// trailer. Returns the payload checksum.
    pub(crate) fn finish(mut self) -> Result<u64, SnapshotError> {
        while self.remaining() > 0 {
            let mut buf = [0u8; CHUNK];
            let n = self.remaining().min(CHUNK);
            self.claim(n)?;
            self.fill(&mut buf[..n])?;
        }
        let mut trailer = [0u8; 8];
        self.src.read_exact(&mut trailer)?;
        let expected = u64::from_le_bytes(trailer);
        let actual = self.hash.finish();
        if expected != actual {
            return Err(SnapshotError::ChecksumMismatch { expected, actual });
        }
        Ok(actual)
    }

    /// Decodes a whole section with `body`, releasing its value — or its
    /// structural error — only once the frame has verified, with the
    /// payload checksum beside it.
    fn decode_summed<T>(
        mut self,
        body: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<(T, u64), SnapshotError> {
        let parsed = body(&mut self).and_then(|value| self.at_end().map(|()| value));
        let checksum = self.finish()?;
        parsed.map(|value| (value, checksum))
    }
}

fn metric_tag(m: Metric) -> u8 {
    match m {
        Metric::Cosine => 0,
        Metric::Inner => 1,
        Metric::Euclidean => 2,
        Metric::Manhattan => 3,
    }
}

fn metric_from_tag(tag: u8) -> Result<Metric, SnapshotError> {
    Ok(match tag {
        0 => Metric::Cosine,
        1 => Metric::Inner,
        2 => Metric::Euclidean,
        3 => Metric::Manhattan,
        other => return Err(SnapshotError::Malformed(format!("metric tag {other}"))),
    })
}

/// A decoded (or to-be-encoded) snapshot: everything the serving layer
/// needs to answer alignment queries for one trained run.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    pub dim: usize,
    pub metric: Metric,
    /// Row-major `n1 × dim` embeddings of KG1 entities (the query side).
    pub emb1: Vec<f32>,
    /// Row-major `n2 × dim` embeddings of KG2 entities (the target side).
    pub emb2: Vec<f32>,
    /// Entity names of KG1 by id — empty when the producer had no name map.
    pub names1: Vec<String>,
    /// Entity names of KG2 by id — empty when the producer had no name map.
    pub names2: Vec<String>,
    pub trace: TrainTrace,
    /// Provenance of a warm-started run (version-2 extension): the parent
    /// snapshot's generation and the cumulative epoch count. `None` for
    /// cold runs, which encode as version 1 byte-for-byte.
    pub lineage: Option<Lineage>,
}

impl Snapshot {
    /// Packages a trained output (embeddings, metric, trace) with the two
    /// entity-name maps. Either map may be empty; non-empty maps must match
    /// the embedding row counts.
    pub fn from_output(out: &ApproachOutput, names1: Vec<String>, names2: Vec<String>) -> Self {
        let view = SnapshotView::of_output(out, &names1, &names2);
        Self {
            dim: view.dim,
            metric: view.metric,
            emb1: view.emb1.to_vec(),
            emb2: view.emb2.to_vec(),
            trace: view.trace.clone(),
            lineage: view.lineage,
            names1,
            names2,
        }
    }

    /// The borrowed form the codec writes from, with `emb2` inline.
    pub(crate) fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            dim: self.dim,
            metric: self.metric,
            emb1: &self.emb1,
            emb2: &self.emb2,
            shards: None,
            names1: &self.names1,
            names2: &self.names2,
            trace: &self.trace,
            lineage: self.lineage,
        }
    }

    /// Rebuilds the `ApproachOutput` view of the snapshot (augmentation
    /// history is eval-time telemetry and is not persisted).
    pub fn to_output(&self) -> ApproachOutput {
        let mut out =
            ApproachOutput::new(self.dim, self.metric, self.emb1.clone(), self.emb2.clone());
        out.trace = self.trace.clone();
        out.lineage = self.lineage;
        out
    }

    /// The parameters a trainer resumes from, lent without a copy of the
    /// embedding matrices, for `RunContext::resume_from`. The view cites
    /// *this* snapshot's generation as the parent and carries the cumulative
    /// epoch count (from the lineage record when present, else this run's
    /// trace length).
    pub fn warm_start(&self) -> WarmStart<'_> {
        WarmStart {
            dim: self.dim,
            emb1: &self.emb1,
            emb2: &self.emb2,
            parent_generation: self.generation(),
            trained_epochs: match self.lineage {
                Some(l) => l.trained_epochs,
                None => self.trace.epochs.len() as u64,
            },
        }
    }

    /// Number of KG1 (query-side) entities.
    pub fn num_queries(&self) -> usize {
        self.emb1.len() / self.dim
    }

    /// Number of KG2 (target-side) entities.
    pub fn num_targets(&self) -> usize {
        self.emb2.len() / self.dim
    }

    /// Serializes to the inline layout: version 1 when the snapshot has no
    /// lineage (bit-for-bit the pre-lineage format), version 2 with the
    /// 16-byte lineage record appended otherwise. Pure function of the
    /// data: equal snapshots encode to equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let view = self.view();
        let body: FrameBody<'_> = &|w| view.write_payload(w);
        let n = payload_len(body).expect("sizing does no I/O");
        let mut bytes = Vec::with_capacity(HEADER_LEN + n as usize + 8);
        write_frame(&mut bytes, INLINE, view.version(), n, body).expect("a Vec takes every write");
        bytes
    }

    /// Decodes a version-1 or version-2 byte stream of the inline layout (a
    /// sharded snapshot's rows are files, read by [`load_artifact`]).
    /// Nothing decoded is returned unless magic, version, length, checksum
    /// and structure all verify.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let len = bytes.len() as u64;
        let r = FrameReader::open(bytes, len, &[INLINE], VERSION..=VERSION_LINEAGE)?;
        let ((snap, _), _) = r.decode_summed(Self::read_payload)?;
        Ok(snap)
    }

    /// The one payload reader, for either placement: the snapshot with
    /// `emb2` decoded when it is inline and empty when it is sharded, and
    /// then the shard table.
    fn read_payload(
        r: &mut FrameReader<impl Read>,
    ) -> Result<(Self, Option<ShardTable>), SnapshotError> {
        let dim = r.u32()? as usize;
        if dim == 0 {
            return Err(SnapshotError::Malformed("dim is zero".into()));
        }
        let metric = metric_from_tag(r.u8()?)?;
        let n1 = r.u64()? as usize;
        let n2 = r.u64()? as usize;
        let table = if &r.magic == SHARDED {
            Some(ShardTable::read(r, n2)?)
        } else {
            None
        };
        let (mut emb1, mut emb2) = (Vec::new(), Vec::new());
        r.floats_into(n1.checked_mul(dim).ok_or_else(overflow)?, &mut emb1)?;
        if table.is_none() {
            r.floats_into(n2.checked_mul(dim).ok_or_else(overflow)?, &mut emb2)?;
        }
        let names1 = read_names(r, n1)?;
        let names2 = read_names(r, n2)?;
        let trace = read_trace(r)?;
        let lineage = if r.version >= VERSION_LINEAGE {
            Some(Lineage {
                parent_generation: r.u64()?,
                trained_epochs: r.u64()?,
            })
        } else {
            None
        };
        let snap = Self {
            dim,
            metric,
            emb1,
            emb2,
            names1,
            names2,
            trace,
            lineage,
        };
        Ok((snap, table))
    }

    /// The snapshot's *generation*: an FNV-1a 64 digest of everything that
    /// determines query answers — dim, metric, entity counts and both
    /// embedding matrices by bit pattern (names, trace and lineage are
    /// excluded; they never change a score). Two snapshots answer identically iff
    /// they share a generation, so the serving cache keys on it and the
    /// shard manifest uses it to tie shard files to one snapshot.
    pub fn generation(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.update(&(self.dim as u64).to_le_bytes());
        h.update(&[metric_tag(self.metric)]);
        h.update(&(self.num_queries() as u64).to_le_bytes());
        h.update(&(self.num_targets() as u64).to_le_bytes());
        for &v in &self.emb1 {
            h.update(&v.to_le_bytes());
        }
        for &v in &self.emb2 {
            h.update(&v.to_le_bytes());
        }
        h.finish()
    }

    /// Writes the snapshot atomically, `emb2` inline: stream it into
    /// `<file name>.tmp` beside `path`, fsync, rename over `path`. A crashed
    /// writer never leaves a half snapshot under the final name and a failed
    /// one leaves no staging file.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        self.view().write_to(path).map(drop)
    }

    /// Reads and fully validates a snapshot file of either placement, every
    /// shard included, decoding the matrices straight into the vectors the
    /// returned snapshot owns.
    pub fn read_from(path: &Path) -> Result<Self, SnapshotError> {
        load_artifact(path, u64::MAX).map(|art| art.snapshot)
    }
}

/// A fully validated artifact load: the assembled snapshot plus how much
/// of the artifact it covers.
pub struct LoadedArtifact {
    pub snapshot: Snapshot,
    pub coverage: LoadCoverage,
}

/// How much of an artifact a (possibly budgeted) load actually covered.
#[derive(Clone, Copy, Debug)]
pub struct LoadCoverage {
    /// Target entities loaded (`snapshot.num_targets()`).
    pub loaded_entities: usize,
    /// Target entities the *full* artifact holds.
    pub total_entities: usize,
    /// Shards assembled (an inline `emb2` is one shard).
    pub shards_loaded: usize,
    /// Shards the artifact holds (1 for an inline `emb2`).
    pub shards_total: usize,
}

impl LoadCoverage {
    /// The longest prefix of shards of `rows` target rows each whose
    /// `dim`-float rows fit `budget_bytes`, and always at least one shard,
    /// so a tiny budget still serves the first slice and an inline `emb2`
    /// (one shard) loads whole.
    pub(crate) fn within(rows: &[usize], dim: usize, budget_bytes: u64) -> Self {
        let (mut shards_loaded, mut loaded_entities) = (0, 0usize);
        for &n in rows {
            let more = loaded_entities.saturating_add(n);
            if shards_loaded > 0
                && (more.saturating_mul(dim) as u64).saturating_mul(4) > budget_bytes
            {
                break;
            }
            (shards_loaded, loaded_entities) = (shards_loaded + 1, more);
        }
        Self {
            loaded_entities,
            total_entities: rows.iter().sum(),
            shards_loaded,
            shards_total: rows.len(),
        }
    }

    /// True when a memory budget truncated the load to a shard prefix.
    pub fn partial(&self) -> bool {
        self.loaded_entities < self.total_entities
    }
}

/// The one artifact reader: loads the snapshot at `path`, applying
/// `budget_bytes` to its target-side matrix (`u64::MAX` = unlimited). The
/// file's magic picks the placement of `emb2`, whatever its name. The
/// payload is decoded and verified first; then the budget picks a prefix of
/// whole shards, at least one, and when `emb2` is sharded each of those
/// shards is verified and decoded onto the end of `emb2`. A partial load
/// keeps target ids stable (shards start at row 0) but is a *different*
/// snapshot: its generation differs from the artifact's, so answer caches
/// can never alias a slice with the full corpus.
pub fn load_artifact(path: &Path, budget_bytes: u64) -> Result<LoadedArtifact, SnapshotError> {
    load_artifact_summed(path, budget_bytes).map(|(art, _)| art)
}

/// [`load_artifact`], with the payload checksum beside the load.
fn load_artifact_summed(
    path: &Path,
    budget_bytes: u64,
) -> Result<(LoadedArtifact, u64), SnapshotError> {
    let file = fs::File::open(path)?;
    let r = FrameReader::open_file(file, &[INLINE, SHARDED], VERSION..=VERSION_LINEAGE)?;
    let ((mut snapshot, table), checksum) = r.decode_summed(Snapshot::read_payload)?;
    let rows = match &table {
        Some(table) => table.rows(),
        None => vec![snapshot.num_targets()],
    };
    let coverage = LoadCoverage::within(&rows, snapshot.dim, budget_bytes);
    if let Some(table) = &table {
        table.read_prefix(
            path,
            coverage.shards_loaded,
            snapshot.dim,
            &mut snapshot.emb2,
        )?;
    }
    snapshot.names2.truncate(coverage.loaded_entities);
    Ok((LoadedArtifact { snapshot, coverage }, checksum))
}

/// A snapshot by reference — what the codec writes from, so a checkpoint
/// does not copy its matrices to serialize them.
#[derive(Clone, Copy)]
pub(crate) struct SnapshotView<'a> {
    dim: usize,
    metric: Metric,
    emb1: &'a [f32],
    emb2: &'a [f32],
    /// Where `emb2` goes: `None` writes it inline, a table writes the
    /// manifest of shards already on disk.
    shards: Option<&'a ShardTable>,
    names1: &'a [String],
    names2: &'a [String],
    trace: &'a TrainTrace,
    lineage: Option<Lineage>,
}

impl<'a> SnapshotView<'a> {
    /// Borrows what [`Snapshot::from_output`] copies, under its contract.
    fn of_output(out: &'a ApproachOutput, names1: &'a [String], names2: &'a [String]) -> Self {
        assert!(out.dim > 0, "snapshot requires a positive dim");
        assert_eq!(out.emb1.len() % out.dim, 0);
        assert_eq!(out.emb2.len() % out.dim, 0);
        assert!(
            names1.is_empty() || names1.len() == out.emb1.len() / out.dim,
            "names1 must be empty or cover every KG1 entity"
        );
        assert!(
            names2.is_empty() || names2.len() == out.emb2.len() / out.dim,
            "names2 must be empty or cover every KG2 entity"
        );
        Self {
            dim: out.dim,
            metric: out.metric,
            emb1: &out.emb1,
            emb2: &out.emb2,
            shards: None,
            names1,
            names2,
            trace: &out.trace,
            lineage: out.lineage,
        }
    }

    /// The same snapshot with `emb2` in the shards `table` describes.
    pub(crate) fn with_shards(self, table: &'a ShardTable) -> Self {
        Self {
            shards: Some(table),
            ..self
        }
    }

    fn version(&self) -> u32 {
        self.lineage.map_or(VERSION, |_| VERSION_LINEAGE)
    }

    /// The one payload writer, for either placement.
    fn write_payload(&self, w: &mut FrameWriter<'_>) -> io::Result<()> {
        w.bytes(&(self.dim as u32).to_le_bytes())?;
        w.bytes(&[metric_tag(self.metric)])?;
        w.bytes(&((self.emb1.len() / self.dim) as u64).to_le_bytes())?;
        w.bytes(&((self.emb2.len() / self.dim) as u64).to_le_bytes())?;
        if let Some(table) = self.shards {
            table.write(w)?;
        }
        w.floats(self.emb1)?;
        if self.shards.is_none() {
            w.floats(self.emb2)?;
        }
        write_names(w, self.names1)?;
        write_names(w, self.names2)?;
        write_trace(w, self.trace)?;
        if let Some(l) = self.lineage {
            w.bytes(&l.parent_generation.to_le_bytes())?;
            w.bytes(&l.trained_epochs.to_le_bytes())?;
        }
        Ok(())
    }

    /// Writes atomically; returns the payload checksum.
    pub(crate) fn write_to(&self, path: &Path) -> Result<u64, SnapshotError> {
        let magic = if self.shards.is_some() {
            SHARDED
        } else {
            INLINE
        };
        write_file(path, magic, self.version(), &|w| self.write_payload(w))
    }
}

pub(crate) fn overflow() -> SnapshotError {
    SnapshotError::Malformed("embedding size overflows usize".into())
}

/// Encodes a name map: `u64` count followed by the strings.
fn write_names(w: &mut FrameWriter<'_>, names: &[String]) -> io::Result<()> {
    w.bytes(&(names.len() as u64).to_le_bytes())?;
    names.iter().try_for_each(|n| w.str(n))
}

/// Decodes a name map for `n` entities (count must be 0 or `n`).
fn read_names(r: &mut FrameReader<impl Read>, n: usize) -> Result<Vec<String>, SnapshotError> {
    let count = r.u64()? as usize;
    if count != 0 && count != n {
        return Err(SnapshotError::Malformed(format!(
            "name map has {count} entries for {n} entities"
        )));
    }
    let mut names = Vec::with_capacity(count.min(r.remaining() / 4));
    for _ in 0..count {
        names.push(r.string()?);
    }
    Ok(names)
}

/// Encodes a training trace.
fn write_trace(w: &mut FrameWriter<'_>, trace: &TrainTrace) -> io::Result<()> {
    w.str(&trace.label)?;
    match trace.stop {
        StopReason::NotRecorded => w.bytes(&[0])?,
        StopReason::MaxEpochs => w.bytes(&[1])?,
        StopReason::EarlyStopped { epoch } => {
            w.bytes(&[2])?;
            w.bytes(&(epoch as u64).to_le_bytes())?;
        }
        StopReason::DeadlineExceeded { epoch } => {
            w.bytes(&[3])?;
            w.bytes(&(epoch as u64).to_le_bytes())?;
        }
    }
    w.bytes(&trace.total_wall_s.to_le_bytes())?;
    w.bytes(&(trace.epochs.len() as u64).to_le_bytes())?;
    for e in &trace.epochs {
        w.bytes(&(e.epoch as u64).to_le_bytes())?;
        w.bytes(&e.mean_loss.to_le_bytes())?;
        w.bytes(&(e.pairs as u64).to_le_bytes())?;
        w.bytes(&e.wall_s.to_le_bytes())?;
        match e.val_hits1 {
            Some(v) => {
                w.bytes(&[1])?;
                w.bytes(&v.to_le_bytes())?;
            }
            None => w.bytes(&[0])?,
        }
    }
    Ok(())
}

/// Decodes a training trace; the bytes the payload still holds bound the
/// epoch preallocation against a lying count.
fn read_trace(r: &mut FrameReader<impl Read>) -> Result<TrainTrace, SnapshotError> {
    let label = r.string()?;
    let stop = match r.u8()? {
        0 => StopReason::NotRecorded,
        1 => StopReason::MaxEpochs,
        2 => StopReason::EarlyStopped {
            epoch: r.u64()? as usize,
        },
        3 => StopReason::DeadlineExceeded {
            epoch: r.u64()? as usize,
        },
        other => return Err(SnapshotError::Malformed(format!("stop tag {other}"))),
    };
    let total_wall_s = r.f64()?;
    let n_epochs = r.u64()? as usize;
    let mut epochs = Vec::with_capacity(n_epochs.min(r.remaining() / 29));
    for _ in 0..n_epochs {
        let epoch = r.u64()? as usize;
        let mean_loss = r.f32()?;
        let pairs = r.u64()? as usize;
        let wall_s = r.f64()?;
        let val_hits1 = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            other => return Err(SnapshotError::Malformed(format!("val flag {other}"))),
        };
        epochs.push(EpochTrace {
            epoch,
            mean_loss,
            pairs,
            wall_s,
            val_hits1,
        });
    }
    Ok(TrainTrace {
        label,
        epochs,
        stop,
        total_wall_s,
    })
}

/// Sanitizes an approach label into a file stem (`MTransE` → `mtranse`).
fn file_stem(label: &str) -> String {
    let stem: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    if stem.is_empty() {
        "run".into()
    } else {
        stem
    }
}

/// A [`CheckpointSink`] that persists driver-engine artifacts as snapshots:
/// every checkpoint it is handed overwrites `<label>.ckpt.snap` (crash-safe
/// serving artifact mid-training) and the finished run writes
/// `<label>.snap`. The engine hands over only checkpoints that improved on
/// the run's best, so the checkpoint file always holds the output the run
/// would return if it ended now. Install on a [`RunContext`] via
/// `with_artifacts` — works for any registry approach, none of which know
/// this type exists.
///
/// The writer [`holds`](CheckpointSink::holds) a label's checkpoint while
/// its latest checkpoint write succeeded, so the engine does not keep the
/// best's tables beside the file. [`restore`](CheckpointSink::restore)
/// reads them back through [`Snapshot::read_from`]'s checksummed reader and
/// rejects a file whose payload checksum is not the one this writer wrote.
///
/// [`RunContext`]: openea_approaches::RunContext
pub struct SnapshotWriter {
    dir: PathBuf,
    names1: Vec<String>,
    names2: Vec<String>,
    checkpoints: AtomicUsize,
    completions: AtomicUsize,
    last_error: Mutex<Option<SnapshotError>>,
    /// Payload checksum of each label's checkpoint file, while its latest
    /// checkpoint write succeeded.
    held: Mutex<HashMap<String, u64>>,
}

impl SnapshotWriter {
    /// A writer emitting snapshots into `dir` with the given entity-name
    /// maps (pass empty vectors to persist ids only).
    pub fn new(dir: impl Into<PathBuf>, names1: Vec<String>, names2: Vec<String>) -> Self {
        Self {
            dir: dir.into(),
            names1,
            names2,
            checkpoints: AtomicUsize::new(0),
            completions: AtomicUsize::new(0),
            last_error: Mutex::new(None),
            held: Mutex::new(HashMap::new()),
        }
    }

    /// Path of the final snapshot for `label`.
    pub fn final_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("{}.snap", file_stem(label)))
    }

    /// Path of the rolling best-checkpoint snapshot for `label`.
    pub fn checkpoint_path(&self, label: &str) -> PathBuf {
        self.dir.join(format!("{}.ckpt.snap", file_stem(label)))
    }

    /// Checkpoint snapshots written so far.
    pub fn checkpoints_written(&self) -> usize {
        self.checkpoints.load(Ordering::SeqCst)
    }

    /// Final snapshots written so far.
    pub fn completions_written(&self) -> usize {
        self.completions.load(Ordering::SeqCst)
    }

    /// The most recent write error, if any (the sink interface cannot
    /// propagate it through the engine).
    pub fn take_error(&self) -> Option<SnapshotError> {
        self.last_error().take()
    }

    /// Writes `out` to `path`; returns its payload checksum, or `None` with
    /// the error recorded.
    fn write(&self, path: &Path, out: &ApproachOutput) -> Option<u64> {
        let written = SnapshotView::of_output(out, &self.names1, &self.names2).write_to(path);
        self.recorded(written)
    }

    /// The value of `result`, or `None` with its error recorded.
    fn recorded<T>(&self, result: Result<T, SnapshotError>) -> Option<T> {
        result.map_err(|e| *self.last_error() = Some(e)).ok()
    }

    /// The error slot; a guard poisoned by a panicking writer still holds
    /// a consistent `Option`, so it is recovered, not re-panicked.
    fn last_error(&self) -> MutexGuard<'_, Option<SnapshotError>> {
        self.last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The held checksums, recovered from poisoning like the error slot.
    fn held(&self) -> MutexGuard<'_, HashMap<String, u64>> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CheckpointSink for SnapshotWriter {
    fn on_checkpoint(&self, label: &str, _epoch: usize, out: &ApproachOutput, _score: f64) {
        match self.write(&self.checkpoint_path(label), out) {
            Some(checksum) => {
                self.checkpoints.fetch_add(1, Ordering::SeqCst);
                self.held().insert(label.to_owned(), checksum);
            }
            None => {
                self.held().remove(label);
            }
        }
    }

    fn holds(&self, label: &str) -> bool {
        self.held().contains_key(label)
    }

    fn restore(&self, label: &str) -> Option<(Vec<f32>, Vec<f32>)> {
        let written = self.held().get(label).copied();
        let read = written
            .ok_or_else(|| {
                let why = format!("no checkpoint of {label} is held");
                SnapshotError::Io(io::Error::new(io::ErrorKind::NotFound, why))
            })
            .and_then(|expected| {
                let (art, actual) = load_artifact_summed(&self.checkpoint_path(label), u64::MAX)?;
                if actual == expected {
                    Ok(art.snapshot)
                } else {
                    Err(SnapshotError::ChecksumMismatch { expected, actual })
                }
            });
        self.recorded(read).map(|snap| (snap.emb1, snap.emb2))
    }

    fn on_complete(&self, label: &str, out: &ApproachOutput) {
        if self.write(&self.final_path(label), out).is_some() {
            self.completions.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn tiny_snapshot() -> Snapshot {
        Snapshot {
            dim: 2,
            metric: Metric::Cosine,
            emb1: vec![1.0, 0.0, 0.5, -0.25, 0.0, 0.0],
            emb2: vec![0.75, 0.125, -1.0, 2.0],
            names1: vec!["e:a".into(), "e:b".into(), "e:c".into()],
            names2: vec!["f:x".into(), "f:y".into()],
            trace: TrainTrace {
                label: "Tiny".into(),
                epochs: vec![
                    EpochTrace {
                        epoch: 0,
                        mean_loss: 0.5,
                        pairs: 10,
                        wall_s: 0.001,
                        val_hits1: None,
                    },
                    EpochTrace {
                        epoch: 1,
                        mean_loss: 0.25,
                        pairs: 10,
                        wall_s: 0.002,
                        val_hits1: Some(0.5),
                    },
                ],
                stop: StopReason::EarlyStopped { epoch: 1 },
                total_wall_s: 0.004,
            },
            lineage: None,
        }
    }

    /// The tiny snapshot as a warm-started child generation (version 2).
    pub(crate) fn tiny_lineage_snapshot() -> Snapshot {
        Snapshot {
            lineage: Some(Lineage {
                parent_generation: 0x1234_5678_9abc_def0,
                trained_epochs: 42,
            }),
            ..tiny_snapshot()
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let snap = tiny_snapshot();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        // Re-encoding is byte-identical (golden-file stability in memory).
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn lineage_roundtrips_as_version_2() {
        let snap = tiny_lineage_snapshot();
        let bytes = snap.encode();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 2);
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes);
        // Lineage never moves the generation: answers are identical.
        assert_eq!(snap.generation(), tiny_snapshot().generation());
    }

    #[test]
    fn cold_snapshots_still_encode_as_version_1() {
        let bytes = tiny_snapshot().encode();
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 1);
    }

    #[test]
    fn every_v2_truncation_point_is_typed_not_a_panic() {
        let bytes = tiny_lineage_snapshot().encode();
        for cut in 0..bytes.len() {
            match Snapshot::decode(&bytes[..cut]) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn warm_start_is_bit_exact_and_cites_self_as_parent() {
        let snap = tiny_lineage_snapshot();
        let generation = snap.generation();
        let warm = snap.warm_start();
        assert_eq!(warm.emb1, snap.emb1);
        assert_eq!(warm.emb2, snap.emb2);
        assert_eq!(warm.parent_generation, generation);
        assert_eq!(warm.trained_epochs, 42);
        assert_eq!(warm.rows1(), 3);
        assert_eq!(warm.rows2(), 2);
        // A cold snapshot falls back to its trace length for the epoch count.
        assert_eq!(tiny_snapshot().warm_start().trained_epochs, 2);
    }

    #[test]
    fn roundtrip_preserves_content_hash() {
        let snap = tiny_snapshot();
        let out = snap.to_output();
        let back = Snapshot::decode(&snap.encode()).unwrap().to_output();
        assert_eq!(out.content_hash(), back.content_hash());
    }

    #[test]
    fn empty_name_maps_are_allowed() {
        let mut snap = tiny_snapshot();
        snap.names1.clear();
        snap.names2.clear();
        let back = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn special_floats_roundtrip_by_bit_pattern() {
        let mut snap = tiny_snapshot();
        snap.emb1[0] = f32::NAN;
        snap.emb1[1] = f32::NEG_INFINITY;
        snap.emb2[0] = -0.0;
        let back = Snapshot::decode(&snap.encode()).unwrap();
        for (a, b) in snap.emb1.iter().zip(&back.emb1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in snap.emb2.iter().zip(&back.emb2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = tiny_snapshot().encode();
        bytes[0] ^= 0xff;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = tiny_snapshot().encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_truncation_point_is_typed_not_a_panic() {
        let bytes = tiny_snapshot().encode();
        for cut in 0..bytes.len() {
            match Snapshot::decode(&bytes[..cut]) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut bytes = tiny_snapshot().encode();
        let mid = HEADER_LEN + 10;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = tiny_snapshot().encode();
        bytes.push(0);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn file_stem_sanitizes_labels() {
        assert_eq!(file_stem("MTransE"), "mtranse");
        assert_eq!(file_stem("GCN-Align v2"), "gcn-align-v2");
        assert_eq!(file_stem(""), "run");
    }
}
