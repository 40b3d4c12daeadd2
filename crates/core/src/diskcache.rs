//! Persistent on-disk workload cache.
//!
//! Preparing a workload — synthesizing the graph and features, encoding
//! the DirectGraph image — is the dominant cost of starting any
//! experiment process, and it repeats identically in every process that
//! sweeps the same dataset. This module persists fully prepared
//! [`Workload`]s keyed by [`WorkloadBuilder::fingerprint`] so a second
//! process (or a second `cargo test` binary) deserializes in
//! milliseconds instead of rebuilding.
//!
//! File layout (little-endian), one file per fingerprint:
//!
//! ```text
//! magic   "BWC1"                         4 B
//! format_version                         u32
//! fingerprint echo                       u64 len + bytes
//! seed                                   u64
//! model: hops u8, fanout u16,
//!        feature_dim u64, hidden_dim u64
//! dataset name                           u64 len + bytes
//! spec scale (num_nodes)                 u64
//! batches: count, then per batch         u64 len + u32 node ids
//! graph: offsets (u64 len + u64s),
//!        adjacency (u64 len + u32s)
//! features: dim u64, values u64 len + f32 bits
//! DirectGraph                            embedded `DirectGraph::save` stream
//! checksum                               u64 FNV-1a over everything after magic
//! ```
//!
//! **Validation and fallback.** A load is served only if the magic,
//! format version, checksum, and fingerprint echo all match and every
//! embedded structure parses; any mismatch — truncation, corruption, a
//! cache written by an incompatible build — returns `None` and the
//! caller rebuilds from scratch. Nothing in the cache is trusted
//! without the checksum.
//!
//! **Invalidation rule.** [`FORMAT_VERSION`] must be bumped whenever
//! the *meaning* of a fingerprint changes: generator stream layout,
//! feature synthesis, DirectGraph placement, mini-batch drawing, or
//! this container format itself. The fingerprint captures builder
//! parameters, not code — the version captures the code.
//!
//! **Location.** The `BEACON_WORKLOAD_CACHE` environment variable picks
//! the directory; `0`, `off`, or empty disables persistence entirely;
//! unset defaults to `target/workload-cache` in the workspace. Writes
//! go to a temp file and are atomically renamed into place, so
//! concurrent processes never observe partial files.
//!
//! **Cascade recordings.** The same directory also holds `brc1-` files:
//! serialized [`CascadeRecording`]s keyed by the record/replay cache
//! (see [`crate::replaycache`]), in an identical container (magic
//! `BRC1`, the shared [`FORMAT_VERSION`], key echo, checksum, atomic
//! publish). Workloads and the cascades recorded from them invalidate
//! together.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use beacon_gnn::GnnModelConfig;
use beacon_graph::{CsrGraph, Dataset, DatasetSpec, FeatureTable, NodeId};
use beacon_platforms::CascadeRecording;
use directgraph::DirectGraph;
use simkit::hash::{fnv1a, FNV_OFFSET};

use crate::workload::Workload;

const MAGIC: &[u8; 4] = b"BWC1";
const RECORDING_MAGIC: &[u8; 4] = b"BRC1";

/// Container+pipeline version; see the module docs for the bump rule.
pub const FORMAT_VERSION: u32 = 1;

static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime disk-cache traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCacheStats {
    /// Loads served from a valid cache file.
    pub hits: u64,
    /// Lookups that fell through to a fresh build (missing, disabled,
    /// or invalid file).
    pub misses: u64,
}

/// Returns the hit/miss counters accumulated by this process.
pub fn stats() -> DiskCacheStats {
    DiskCacheStats {
        hits: DISK_HITS.load(Ordering::Relaxed),
        misses: DISK_MISSES.load(Ordering::Relaxed),
    }
}

/// Resolves the cache directory from the environment: an explicit path
/// from `BEACON_WORKLOAD_CACHE`, `None` when disabled (`0`, `off`, or
/// empty), or the workspace-local default when unset.
pub(crate) fn default_dir() -> Option<PathBuf> {
    match std::env::var("BEACON_WORKLOAD_CACHE") {
        Ok(v) => {
            let v = v.trim();
            if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
                None
            } else {
                Some(PathBuf::from(v))
            }
        }
        Err(_) => Some(PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/workload-cache"
        ))),
    }
}

/// The cache file path for a fingerprint inside `dir`.
pub(crate) fn file_path(dir: &Path, fingerprint: &str) -> PathBuf {
    dir.join(format!(
        "bwc1-{:016x}.bin",
        fnv1a(FNV_OFFSET, fingerprint.as_bytes())
    ))
}

/// Attempts to load the workload for `fingerprint` from `dir`.
///
/// Returns `None` — after counting a miss — on any validation failure,
/// so callers can always fall back to a fresh build.
pub(crate) fn load(dir: &Path, fingerprint: &str) -> Option<Workload> {
    let result = try_load(&file_path(dir, fingerprint), fingerprint);
    match &result {
        Some(_) => {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
            simkit::profile::count("workload/disk_cache_hit", 1);
        }
        None => {
            DISK_MISSES.fetch_add(1, Ordering::Relaxed);
            simkit::profile::count("workload/disk_cache_miss", 1);
        }
    }
    result
}

/// Best-effort save of `workload` under `fingerprint` in `dir`. I/O
/// failures are swallowed: a cache that cannot be written only costs
/// the next process a rebuild.
pub(crate) fn save(dir: &Path, fingerprint: &str, workload: &Workload) {
    let _ = try_save(dir, fingerprint, workload);
}

fn try_save(dir: &Path, fingerprint: &str, w: &Workload) -> std::io::Result<()> {
    let _p = simkit::profile::phase("workload/disk_cache_save");
    let mut payload = Vec::new();
    payload.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_bytes(&mut payload, fingerprint.as_bytes());
    payload.extend_from_slice(&w.seed().to_le_bytes());
    let m = w.model();
    payload.push(m.hops);
    payload.extend_from_slice(&m.fanout.to_le_bytes());
    payload.extend_from_slice(&(m.feature_dim as u64).to_le_bytes());
    payload.extend_from_slice(&(m.hidden_dim as u64).to_le_bytes());
    put_bytes(&mut payload, w.spec().dataset.name().as_bytes());
    payload.extend_from_slice(&(w.spec().num_nodes as u64).to_le_bytes());
    payload.extend_from_slice(&(w.batches().len() as u64).to_le_bytes());
    for batch in w.batches() {
        payload.extend_from_slice(&(batch.len() as u64).to_le_bytes());
        for v in batch {
            payload.extend_from_slice(&v.as_u32().to_le_bytes());
        }
    }
    let g = w.graph();
    payload.extend_from_slice(&(g.offsets().len() as u64).to_le_bytes());
    for &o in g.offsets() {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    payload.extend_from_slice(&(g.adjacency().len() as u64).to_le_bytes());
    for &v in g.adjacency() {
        payload.extend_from_slice(&v.as_u32().to_le_bytes());
    }
    let f = w.features();
    payload.extend_from_slice(&(f.dim() as u64).to_le_bytes());
    payload.extend_from_slice(&(f.values().len() as u64).to_le_bytes());
    for &x in f.values() {
        payload.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    w.directgraph().save(&mut payload)?;

    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        "tmp-{}-{:016x}",
        std::process::id(),
        fnv1a(FNV_OFFSET, fingerprint.as_bytes())
    ));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(MAGIC)?;
        file.write_all(&payload)?;
        file.write_all(&fnv1a(FNV_OFFSET, &payload).to_le_bytes())?;
        file.sync_all()?;
    }
    // Atomic publish: readers see either the old file or the complete
    // new one, never a partial write.
    let result = std::fs::rename(&tmp, file_path(dir, fingerprint));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn try_load(path: &Path, fingerprint: &str) -> Option<Workload> {
    let _p = simkit::profile::phase("workload/disk_cache_load");
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let (payload, tail) = bytes[MAGIC.len()..].split_at(bytes.len() - MAGIC.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv1a(FNV_OFFSET, payload) != stored {
        return None;
    }

    let mut cur = Cursor { buf: payload };
    if cur.u32()? != FORMAT_VERSION {
        return None;
    }
    if cur.bytes()? != fingerprint.as_bytes() {
        return None;
    }
    let seed = cur.u64()?;
    let model = GnnModelConfig {
        hops: cur.u8()?,
        fanout: cur.u16()?,
        feature_dim: cur.u64()? as usize,
        hidden_dim: cur.u64()? as usize,
    };
    let name = cur.bytes()?.to_vec();
    let dataset = *Dataset::ALL
        .iter()
        .find(|d| d.name().as_bytes() == name.as_slice())?;
    let num_nodes = cur.u64()? as usize;
    let spec = DatasetSpec::preset(dataset).at_scale(num_nodes);

    let num_batches = cur.u64()? as usize;
    let mut batches = Vec::with_capacity(num_batches.min(1 << 20));
    for _ in 0..num_batches {
        let len = cur.u64()? as usize;
        let mut batch = Vec::with_capacity(len.min(1 << 24));
        for _ in 0..len {
            batch.push(NodeId::new(cur.u32()?));
        }
        batches.push(batch);
    }

    let num_offsets = cur.u64()? as usize;
    let mut offsets = Vec::with_capacity(num_offsets.min(1 << 28));
    for _ in 0..num_offsets {
        offsets.push(cur.u64()?);
    }
    let num_adj = cur.u64()? as usize;
    let mut adjacency = Vec::with_capacity(num_adj.min(1 << 28));
    for _ in 0..num_adj {
        adjacency.push(NodeId::new(cur.u32()?));
    }
    // Validate the CSR invariants before from_raw_parts (which panics
    // on violation); the checksum rules out corruption, so a failure
    // here means version drift FORMAT_VERSION failed to capture — treat
    // it as a miss rather than bringing the process down.
    if offsets.is_empty()
        || offsets[0] != 0
        || offsets.windows(2).any(|w| w[0] > w[1])
        || *offsets.last()? != adjacency.len() as u64
        || adjacency.iter().any(|v| v.index() >= offsets.len() - 1)
    {
        return None;
    }
    let graph = CsrGraph::from_raw_parts(offsets, adjacency);

    let dim = cur.u64()? as usize;
    let num_values = cur.u64()? as usize;
    if dim == 0 || !num_values.is_multiple_of(dim) {
        return None;
    }
    let mut values = Vec::with_capacity(num_values.min(1 << 28));
    for _ in 0..num_values {
        values.push(f32::from_bits(cur.u32()?));
    }
    let features = FeatureTable::from_rows(dim, values);

    let dg = DirectGraph::load(cur.buf).ok()?;

    if graph.num_nodes() != num_nodes
        || features.num_nodes() != num_nodes
        || dg.directory().len() != num_nodes
    {
        return None;
    }
    Some(Workload::from_parts(
        spec,
        graph,
        features,
        dg,
        model,
        batches,
        seed,
        Some(fingerprint.to_string()),
    ))
}

/// The cascade-recording cache file path for a replay key inside `dir`.
///
/// Recordings live beside the BWC1 workload files in the same
/// directory, under their own `brc1-` prefix, and follow the same
/// container discipline: magic, [`FORMAT_VERSION`], key echo, FNV-1a
/// checksum, atomic temp-file publish. The shared version constant is
/// deliberate — anything that invalidates a cached workload (generator
/// streams, DirectGraph placement, batch drawing) also invalidates any
/// cascade recorded from it.
pub(crate) fn recording_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!(
        "brc1-{:016x}.bin",
        fnv1a(FNV_OFFSET, key.as_bytes())
    ))
}

/// Attempts to load the cascade recording for `key` from `dir`.
/// Returns `None` on any validation failure; callers re-record.
pub(crate) fn load_recording(dir: &Path, key: &str) -> Option<CascadeRecording> {
    let _p = simkit::profile::phase("replay/disk_cache_load");
    let bytes = std::fs::read(recording_path(dir, key)).ok()?;
    if bytes.len() < RECORDING_MAGIC.len() + 8 || &bytes[..RECORDING_MAGIC.len()] != RECORDING_MAGIC
    {
        return None;
    }
    let (payload, tail) =
        bytes[RECORDING_MAGIC.len()..].split_at(bytes.len() - RECORDING_MAGIC.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv1a(FNV_OFFSET, payload) != stored {
        return None;
    }
    let mut cur = Cursor { buf: payload };
    if cur.u32()? != FORMAT_VERSION {
        return None;
    }
    if cur.bytes()? != key.as_bytes() {
        return None;
    }
    let body_len = cur.u64()? as usize;
    if cur.buf.len() != body_len {
        return None;
    }
    let body = cur.take(body_len)?;
    CascadeRecording::from_bytes(body)
}

/// Best-effort save of `recording` under `key` in `dir`; I/O failures
/// only cost the next process a re-record.
pub(crate) fn save_recording(dir: &Path, key: &str, recording: &CascadeRecording) {
    let _ = try_save_recording(dir, key, recording);
}

fn try_save_recording(dir: &Path, key: &str, recording: &CascadeRecording) -> std::io::Result<()> {
    let _p = simkit::profile::phase("replay/disk_cache_save");
    let mut payload = Vec::new();
    payload.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_bytes(&mut payload, key.as_bytes());
    put_bytes(&mut payload, &recording.to_bytes());

    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        "tmp-rec-{}-{:016x}",
        std::process::id(),
        fnv1a(FNV_OFFSET, key.as_bytes())
    ));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(RECORDING_MAGIC)?;
        file.write_all(&payload)?;
        file.write_all(&fnv1a(FNV_OFFSET, &payload).to_le_bytes())?;
        file.sync_all()?;
    }
    let result = std::fs::rename(&tmp, recording_path(dir, key));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

struct Cursor<'a> {
    buf: &'a [u8],
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn bytes(&mut self) -> Option<&[u8]> {
        let len = self.u64()? as usize;
        self.take(len)
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadBuilder;

    fn builder() -> WorkloadBuilder {
        Workload::builder()
            .dataset(crate::Dataset::Ogbn)
            .nodes(400)
            .batch_size(8)
            .batches(2)
            .seed(19)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("beacon-diskcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_identical(a: &Workload, b: &Workload) {
        assert_eq!(a.seed(), b.seed());
        assert_eq!(a.model(), b.model());
        assert_eq!(a.spec(), b.spec());
        assert_eq!(a.batches(), b.batches());
        assert_eq!(a.graph(), b.graph());
        assert_eq!(
            a.features()
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.features()
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(a.directgraph().digest(), b.directgraph().digest());
        assert_eq!(a.directgraph().stats(), b.directgraph().stats());
        assert_eq!(a.directgraph().directory(), b.directgraph().directory());
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let dir = tempdir("roundtrip");
        let b = builder();
        let key = b.fingerprint().unwrap();
        let w = b.prepare().unwrap();
        save(&dir, &key, &w);
        let loaded = load(&dir, &key).expect("fresh save must load");
        assert_identical(&w, &loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_wrong_key_miss() {
        let dir = tempdir("misskey");
        assert!(load(&dir, "no such key").is_none());
        let b = builder();
        let key = b.fingerprint().unwrap();
        let w = b.prepare().unwrap();
        save(&dir, &key, &w);
        // A different fingerprint maps to a different file name; even a
        // forced collision is rejected by the fingerprint echo.
        let other = file_path(&dir, "other-key");
        std::fs::copy(file_path(&dir, &key), &other).unwrap();
        assert!(load(&dir, "other-key").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_truncated_and_version_mismatched_files_fall_back() {
        let dir = tempdir("corrupt");
        let b = builder();
        let key = b.fingerprint().unwrap();
        let w = b.prepare().unwrap();
        save(&dir, &key, &w);
        let path = file_path(&dir, &key);
        let pristine = std::fs::read(&path).unwrap();

        // Truncation at several depths (header, mid-payload, checksum).
        for cut in [3, 20, pristine.len() / 2, pristine.len() - 4] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(load(&dir, &key).is_none(), "truncated at {cut}");
        }
        // Bit flip in the middle of the payload breaks the checksum.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(load(&dir, &key).is_none(), "bit flip must fail checksum");
        // Version bump with a recomputed checksum still misses.
        let mut reversioned = pristine.clone();
        reversioned[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_end = reversioned.len() - 8;
        let sum = fnv1a(FNV_OFFSET, &reversioned[4..body_end]);
        reversioned[body_end..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &reversioned).unwrap();
        assert!(load(&dir, &key).is_none(), "future version must miss");
        // And the pristine bytes still load (the harness itself works).
        std::fs::write(&path, &pristine).unwrap();
        assert!(load(&dir, &key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_values_resolve_to_none() {
        // Can't mutate the process environment safely under parallel
        // tests; exercise the parsing contract directly.
        for v in ["0", "off", "OFF", "  ", ""] {
            let v = v.trim();
            let disabled = v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off");
            assert!(disabled, "{v:?} should disable the cache");
        }
    }
}
