//! Corruption sweep over the streaming snapshot reader, for both placements
//! of `emb2` (inline, and a manifest with its shards): whatever happens to
//! the bytes, a load ends in a typed [`SnapshotError`] or in exactly the
//! pristine value — never a panic, a hang, or an allocation a lying length
//! field talked it into.
//!
//! Each case sweeps the committed fixtures (`tiny.snap`,
//! `tiny-lineage.snap`, `tiny.manifest` and `tiny-lineage.manifest`, each
//! with its two shards) with: a
//! truncation at every length; a flip of every header bit; flips striding
//! through the payload and trailer (the case's generated `phase` and `bit`
//! move the stride, so the cases together reach every lane); every length
//! and count field overwritten with 0, value ∓ 1, 2⁴⁰ and `u64::MAX`; and,
//! for the shard set, each file removed. Every mutation that keeps its
//! length runs twice — as is, and with the trailer re-sealed over the
//! mutated payload, so structural checks are reached and not only the
//! checksum. A re-sealed image may be a *valid other* artifact (a flipped
//! embedding bit under a fresh seal is one); then the load must return what
//! those bytes say, which for a shard set can only differ from the pristine
//! value outside the rows the manifest's shard checksums protect.
//!
//! The test recomputes FNV-1a itself and holds the decoders to the
//! precedence rule: once magic, version and framed length pass, a payload
//! that does not hash to its trailer is `ChecksumMismatch`, whatever its
//! corrupt fields claim. Under the counting allocator no load may have more
//! than its input's length + 64 KiB live. One `#[test]` only, for the
//! allocator's sake.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::CountingAlloc;
use openea_runtime::testkit::faults::{truncations, Fault};
use openea_runtime::testkit::prelude::*;
use openea_serve::{load_artifact, shard_path, Snapshot, SnapshotError};
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const HEADER_LEN: usize = 20;
const SLACK: usize = 64 * 1024;
/// Payload bytes between two flips of one case.
const STRIDE: usize = 8;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Snapshot,
    Manifest,
    Shard,
}

impl Kind {
    fn magic(self) -> &'static [u8; 8] {
        match self {
            Kind::Snapshot => b"OPENEASN",
            Kind::Manifest => b"OPENEASM",
            Kind::Shard => b"OPENEASH",
        }
    }

    fn max_version(self) -> u32 {
        match self {
            Kind::Snapshot | Kind::Manifest => 2,
            Kind::Shard => 1,
        }
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../serve/tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `Some(payload hashes to its trailer)` once magic, version and the framed
/// length against the real length all pass; `None` when the header itself
/// is what is wrong.
fn framing_verdict(kind: Kind, bytes: &[u8]) -> Option<bool> {
    if bytes.len() < HEADER_LEN + 8 || &bytes[..8] != kind.magic() {
        return None;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if version < 1
        || version > kind.max_version()
        || payload_len != (bytes.len() - HEADER_LEN - 8) as u64
    {
        return None;
    }
    let end = bytes.len() - 8;
    let trailer = u64::from_le_bytes(bytes[end..].try_into().unwrap());
    Some(fnv1a64(&bytes[HEADER_LEN..end]) == trailer)
}

/// Walks a pristine image by the documented layout and collects the
/// `(offset, width)` of every length and count field in it.
struct Walk<'a> {
    bytes: &'a [u8],
    at: usize,
    fields: Vec<(usize, usize)>,
}

impl Walk<'_> {
    fn int(&mut self, width: usize, is_field: bool) -> usize {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(&self.bytes[self.at..self.at + width]);
        if is_field {
            self.fields.push((self.at, width));
        }
        self.at += width;
        u64::from_le_bytes(le) as usize
    }

    fn string(&mut self, is_field: bool) {
        self.at += self.int(4, is_field);
    }

    fn names(&mut self) {
        for i in 0..self.int(8, true) {
            self.string(i == 0);
        }
    }

    fn trace(&mut self) {
        self.string(true); // label
        if self.int(1, false) >= 2 {
            self.at += 8; // stop epoch
        }
        self.at += 8; // total_wall_s
        self.int(8, true); // epoch count; the epochs themselves hold no counts
    }
}

fn length_fields(kind: Kind, bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut w = Walk {
        bytes,
        at: 12,
        fields: Vec::new(),
    };
    w.int(8, true); // framed payload length
    match kind {
        Kind::Shard => {
            w.at += 8; // generation
            for _ in 0..3 {
                w.int(8, true); // index, start, end
            }
            w.int(4, true); // dim
        }
        Kind::Snapshot | Kind::Manifest => {
            let dim = w.int(4, false);
            w.at += 1; // metric
            let n1 = w.int(8, true);
            let n2 = w.int(8, true);
            let mut floats = n1 * dim;
            if kind == Kind::Manifest {
                w.at += 8; // generation
                w.at += 24 * w.int(8, true); // shard count, table
            } else {
                floats += n2 * dim;
            }
            w.at += 4 * floats;
            w.names();
            w.names();
            w.trace();
        }
    }
    w.fields
}

/// One mutated image of a pristine file; `image` is `None` for the file
/// removed.
struct Mutation {
    label: String,
    image: Option<Vec<u8>>,
    resealed: bool,
}

/// Every mutation of `pristine` for one case.
fn mutations(kind: Kind, pristine: &[u8], phase: usize, bit: u8) -> Vec<Mutation> {
    let mut out = Vec::new();
    let mut push = |label: String, image: Option<Vec<u8>>| {
        out.push(Mutation {
            label,
            image,
            resealed: false,
        })
    };
    let mut faults = truncations(pristine.len(), 1);
    faults.push(Fault::Remove);
    for offset in 0..HEADER_LEN {
        faults.extend((0..8).map(|bit| Fault::FlipBit { offset, bit }));
    }
    faults.extend(
        (HEADER_LEN + phase..pristine.len())
            .step_by(STRIDE)
            .map(|offset| Fault::FlipBit { offset, bit }),
    );
    for fault in faults {
        push(format!("{fault:?}"), fault.apply(pristine));
    }
    for (offset, width) in length_fields(kind, pristine) {
        let mut le = [0u8; 8];
        le[..width].copy_from_slice(&pristine[offset..offset + width]);
        let value = u64::from_le_bytes(le);
        for v in [
            0,
            value.wrapping_sub(1),
            value.wrapping_add(1),
            1 << 40,
            u64::MAX,
        ] {
            let mut bytes = pristine.to_vec();
            bytes[offset..offset + width].copy_from_slice(&v.to_le_bytes()[..width]);
            push(format!("field@{offset} := {v:#x}"), Some(bytes));
        }
    }
    // The same images again with the trailer re-sealed over whatever the
    // payload now is.
    let resealed: Vec<_> = out
        .iter()
        .filter_map(|m| {
            let mut bytes = m.image.clone().filter(|b| b.len() == pristine.len())?;
            let end = bytes.len() - 8;
            let seal = fnv1a64(&bytes[HEADER_LEN..end]);
            bytes[end..].copy_from_slice(&seal.to_le_bytes());
            Some(Mutation {
                label: format!("{}, re-sealed", m.label),
                image: Some(bytes),
                resealed: true,
            })
        })
        .collect();
    out.extend(resealed);
    out
}

/// The contract for one load of one mutated file `m` of kind `kind`, the
/// whole input being `input_len` bytes.
fn check(
    file: &str,
    kind: Kind,
    m: &Mutation,
    input_len: usize,
    pristine: &Snapshot,
    (outcome, peak): (Result<Snapshot, SnapshotError>, usize),
) -> PropResult {
    let label = &m.label;
    prop_assert!(
        peak <= input_len + SLACK,
        "{file}: {label}: {peak} bytes live for a {input_len}-byte input"
    );
    let image = m.image.as_deref();
    if image.and_then(|bytes| framing_verdict(kind, bytes)) == Some(false) {
        prop_assert!(
            matches!(outcome, Err(SnapshotError::ChecksumMismatch { .. })),
            "{file}: {label}: the payload does not hash to its trailer, yet the load said {outcome:?}"
        );
    }
    let Ok(value) = outcome else { return Ok(()) };
    let says_what_the_bytes_say = match kind {
        _ if !m.resealed => false,
        Kind::Snapshot => Some(value.encode().as_slice()) == image,
        Kind::Manifest => value.emb2 == pristine.emb2,
        Kind::Shard => false,
    };
    prop_assert!(
        value == *pristine || says_what_the_bytes_say,
        "{file}: {label}: loaded a value that is neither the pristine one nor what the bytes say"
    );
    Ok(())
}

fn sweep_monolithic(name: &str, phase: usize, bit: u8) -> PropResult {
    let bytes = fixture(name);
    let pristine = Snapshot::decode(&bytes).expect("the committed fixture decodes");
    for m in mutations(Kind::Snapshot, &bytes, phase, bit) {
        let Some(image) = &m.image else { continue };
        let measured = ALLOC.measure(|| Snapshot::decode(image));
        check(name, Kind::Snapshot, &m, image.len(), &pristine, measured)?;
    }
    Ok(())
}

fn sweep_shard_set(dir: &Path, stem: &str, phase: usize, bit: u8) -> PropResult {
    let manifest = dir.join(format!("{stem}.manifest"));
    let files: Vec<(Kind, PathBuf, Vec<u8>)> = vec![
        (
            Kind::Manifest,
            manifest.clone(),
            fixture(&format!("{stem}.manifest")),
        ),
        (
            Kind::Shard,
            shard_path(&manifest, 0),
            fixture(&format!("{stem}.shard000")),
        ),
        (
            Kind::Shard,
            shard_path(&manifest, 1),
            fixture(&format!("{stem}.shard001")),
        ),
    ];
    for (_, path, bytes) in &files {
        std::fs::write(path, bytes).unwrap();
    }
    let set_len: usize = files.iter().map(|(_, _, b)| b.len()).sum();
    let pristine = load_artifact(&manifest, u64::MAX)
        .expect("the committed shard set loads")
        .snapshot;
    for (kind, path, bytes) in &files {
        let file = path.file_name().unwrap().to_string_lossy();
        for m in mutations(*kind, bytes, phase, bit) {
            match &m.image {
                Some(image) => std::fs::write(path, image).unwrap(),
                None => std::fs::remove_file(path).unwrap(),
            }
            let input_len = set_len - bytes.len() + m.image.as_ref().map_or(0, Vec::len);
            let measured =
                ALLOC.measure(|| load_artifact(&manifest, u64::MAX).map(|art| art.snapshot));
            check(&file, *kind, &m, input_len, &pristine, measured)?;
        }
        std::fs::write(path, bytes).unwrap();
    }
    Ok(())
}

props! {
    #![cases = 8]

    #[test]
    fn every_corruption_is_a_typed_error_or_the_pristine_value(
        phase in 0usize..STRIDE,
        bit in 0u8..8,
    ) {
        sweep_monolithic("tiny.snap", phase, bit)?;
        sweep_monolithic("tiny-lineage.snap", phase, bit)?;
        let dir = std::env::temp_dir().join(format!("openea-codec-corruption-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let swept = sweep_shard_set(&dir, "tiny", phase, bit)
            .and_then(|()| sweep_shard_set(&dir, "tiny-lineage", phase, bit));
        let _ = std::fs::remove_dir_all(&dir);
        swept?;
    }
}
