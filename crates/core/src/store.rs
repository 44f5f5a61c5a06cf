//! Out-of-host-core shard storage: the rung *below* host fallback on the
//! memory governor's ladder.
//!
//! When the working set exceeds even host RAM, the governor evicts shard
//! topology to a [`ShardStore`] and streams it back GraphChi-style through
//! the chunked-transfer staging path, charging the cost model a storage
//! read per load instead of pretending the host holds everything. Two
//! implementations ship: [`MemShardStore`] (tests, and a stand-in for a
//! fast object cache) and [`FileShardStore`] (one checksummed file per
//! shard). See `docs/DURABILITY.md` and `docs/MEMORY.md`.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use gr_graph::CompressionCodec;
use gr_graph::GraphLayout;
use gr_graph::Shard;

use crate::frame::{self, FrameError};

/// Why a shard could not be spilled or loaded. Like
/// [`SnapshotError`](crate::snapshot::SnapshotError), every variant names
/// the location involved and read-side failures carry byte offsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O operation failed for a shard blob.
    Io {
        shard: u32,
        path: PathBuf,
        op: &'static str,
        detail: String,
    },
    /// A shard blob ended early (`offset` = where decoding stopped).
    ShortRead {
        shard: u32,
        path: PathBuf,
        offset: u64,
        needed: u64,
    },
    /// A shard blob failed its header or checksum validation.
    Corrupt {
        shard: u32,
        path: PathBuf,
        what: &'static str,
    },
    /// The store has no blob for this shard (a load before any spill —
    /// always an engine bug, never user error).
    Missing { shard: u32 },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                shard,
                path,
                op,
                detail,
            } => write!(
                f,
                "shard {shard} store {op} failed for {}: {detail}",
                path.display()
            ),
            StoreError::ShortRead {
                shard,
                path,
                offset,
                needed,
            } => write!(
                f,
                "shard {shard} blob {} truncated: needed {needed} more bytes \
                 (at byte offset {offset})",
                path.display()
            ),
            StoreError::Corrupt { shard, path, what } => {
                write!(
                    f,
                    "shard {shard} blob {} corrupt: bad {what}",
                    path.display()
                )
            }
            StoreError::Missing { shard } => {
                write!(f, "shard {shard} was never spilled to the store")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Where evicted shards live when the graph does not fit in host memory.
///
/// Implementations must be safe to call from the single-threaded engine
/// loop but are `Send + Sync` so one store can back a future multi-device
/// run. Payloads are opaque bytes to the store; the engine frames them
/// (`shard_payload`) and verifies integrity on the way back in.
pub trait ShardStore: Send + Sync {
    /// Short human tag for decision logs and reports ("mem", "file").
    fn name(&self) -> &'static str;

    /// Persist `payload` for `shard`, replacing any previous blob.
    /// Returns the payload bytes actually held by the store — smaller
    /// than `payload.len()` when the store compresses, so spilled-byte
    /// accounting reflects what really hit the medium.
    fn put(&self, shard: u32, payload: &[u8]) -> Result<u64, StoreError>;

    /// Fetch the blob previously stored for `shard`.
    fn get(&self, shard: u32) -> Result<Vec<u8>, StoreError>;

    /// Whether a blob exists for `shard`.
    fn contains(&self, shard: u32) -> bool;
}

/// Cloneable handle wrapping a [`ShardStore`], mirroring
/// [`PartitionLogicHandle`](crate::options::PartitionLogicHandle) so
/// `Options` stays `Clone`.
#[derive(Clone)]
pub struct ShardStoreHandle(pub Arc<dyn ShardStore>);

impl ShardStoreHandle {
    pub fn new<S: ShardStore + 'static>(store: S) -> Self {
        ShardStoreHandle(Arc::new(store))
    }
}

impl fmt::Debug for ShardStoreHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShardStoreHandle({})", self.0.name())
    }
}

impl std::ops::Deref for ShardStoreHandle {
    type Target = dyn ShardStore;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

/// In-memory store: a mutexed map. Useful in tests and as the model
/// implementation — it exercises every engine spill path with zero disk.
#[derive(Default)]
pub struct MemShardStore {
    blobs: Mutex<HashMap<u32, Vec<u8>>>,
}

impl MemShardStore {
    pub fn new() -> Self {
        Self::default()
    }
}

impl ShardStore for MemShardStore {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn put(&self, shard: u32, payload: &[u8]) -> Result<u64, StoreError> {
        self.blobs
            .lock()
            .expect("shard store poisoned")
            .insert(shard, payload.to_vec());
        Ok(payload.len() as u64)
    }

    fn get(&self, shard: u32) -> Result<Vec<u8>, StoreError> {
        self.blobs
            .lock()
            .expect("shard store poisoned")
            .get(&shard)
            .cloned()
            .ok_or(StoreError::Missing { shard })
    }

    fn contains(&self, shard: u32) -> bool {
        self.blobs
            .lock()
            .expect("shard store poisoned")
            .contains_key(&shard)
    }
}

/// File-backed store: one blob per shard under a directory, each a
/// `crate::frame` (magic [`SPILL_MAGIC`], the shard id as its header,
/// the payload as its body) written temp-file + rename like snapshots, so
/// a crash mid-spill never leaves a readable-but-wrong blob. With a codec
/// the body is the payload's u32 little-endian words stride-2
/// delta-coded (shard payloads interleave `(neighbor, edge id)` pairs, so
/// same-lane deltas are small), zig-zagged, and run through the named
/// [`CompressionCodec`]; without one it is stored raw.
///
/// The codec rides in the frame, not the store config, so any store
/// reads any frame. Spill frames never outlive a run; frames of another
/// layout are refused as corrupt.
pub struct FileShardStore {
    dir: PathBuf,
    codec: Option<CompressionCodec>,
}

/// Magic bytes opening every spilled shard frame.
pub const SPILL_MAGIC: [u8; 4] = *b"GRSP";

/// Spill frame version.
const SPILL_VERSION: u32 = 1;

impl FileShardStore {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_codec(dir, None)
    }

    /// A store writing codec-coded frames (`None` behaves like [`new`]).
    ///
    /// [`new`]: FileShardStore::new
    pub fn with_codec(dir: impl Into<PathBuf>, codec: Option<CompressionCodec>) -> Self {
        FileShardStore {
            dir: dir.into(),
            codec,
        }
    }

    fn name_for(shard: u32) -> String {
        format!("shard-{shard:06}.grsh")
    }
}

impl ShardStore for FileShardStore {
    fn name(&self) -> &'static str {
        "file"
    }

    fn put(&self, shard: u32, payload: &[u8]) -> Result<u64, StoreError> {
        let framed = frame::seal(
            &SPILL_MAGIC,
            SPILL_VERSION,
            self.codec,
            &shard.to_le_bytes(),
            payload,
        );
        frame::write_atomic(&self.dir, &Self::name_for(shard), &framed).map_err(|f| {
            StoreError::Io {
                shard,
                path: f.path,
                op: f.op,
                detail: f.detail,
            }
        })?;
        // The stored body: smaller than the payload when coded.
        Ok((framed.len() - frame::PREFIX - 4 - 8) as u64)
    }

    fn get(&self, shard: u32) -> Result<Vec<u8>, StoreError> {
        let path = self.dir.join(Self::name_for(shard));
        let buf = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::Missing { shard })
            }
            Err(e) => {
                return Err(StoreError::Io {
                    shard,
                    path,
                    op: "read",
                    detail: e.to_string(),
                })
            }
        };
        let corrupt = |what| StoreError::Corrupt {
            shard,
            path: path.clone(),
            what,
        };
        let framed = |e| match e {
            FrameError::Short { offset, needed, .. } => StoreError::ShortRead {
                shard,
                path: path.clone(),
                offset,
                needed,
            },
            FrameError::BadMagic => corrupt("magic"),
            FrameError::Version { .. } => corrupt("version"),
            FrameError::Checksum { .. } => corrupt("checksum"),
            FrameError::Corrupt { what, .. } => corrupt(what),
        };
        let f = frame::open(&buf, &SPILL_MAGIC, SPILL_VERSION).map_err(framed)?;
        if f.header != shard.to_le_bytes() {
            return Err(corrupt("shard id"));
        }
        Ok(f.body().map_err(framed)?.into_owned())
    }

    fn contains(&self, shard: u32) -> bool {
        self.dir.join(Self::name_for(shard)).exists()
    }
}

/// Serialize a shard's topology — its slice of the CSC/CSR adjacency as
/// `(neighbor, edge id)` pairs over the owned vertex interval — into the
/// bytes the store holds. This is what a real out-of-core engine would
/// evict; sizes track the size model's per-shard footprint, so spilled
/// bytes in reports are honest.
pub(crate) fn shard_payload(layout: &GraphLayout, shard: &Shard) -> Vec<u8> {
    let in_count = shard.in_edges.len();
    let out_count = shard.out_edges.len();
    let mut out = Vec::with_capacity(16 + (in_count + out_count) * 8);
    out.extend_from_slice(&(in_count as u64).to_le_bytes());
    out.extend_from_slice(&(out_count as u64).to_le_bytes());
    for v in shard.interval.start..shard.interval.end {
        for (nbr, eid) in layout.csc.entries(v) {
            out.extend_from_slice(&nbr.to_le_bytes());
            out.extend_from_slice(&eid.to_le_bytes());
        }
        for (nbr, eid) in layout.csr.entries(v) {
            out.extend_from_slice(&nbr.to_le_bytes());
            out.extend_from_slice(&eid.to_le_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("gr-store-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn mem_store_round_trips_and_reports_missing() {
        let s = MemShardStore::new();
        assert!(!s.contains(3));
        assert_eq!(s.get(3), Err(StoreError::Missing { shard: 3 }));
        s.put(3, b"topology").unwrap();
        assert!(s.contains(3));
        assert_eq!(s.get(3).unwrap(), b"topology");
        s.put(3, b"replaced").unwrap();
        assert_eq!(s.get(3).unwrap(), b"replaced");
    }

    #[test]
    fn file_store_round_trips_through_disk() {
        let dir = tmpdir("rt");
        let s = FileShardStore::new(&dir);
        assert_eq!(s.get(0), Err(StoreError::Missing { shard: 0 }));
        s.put(0, &[7u8; 1000]).unwrap();
        s.put(1, &[]).unwrap();
        assert!(s.contains(0) && s.contains(1) && !s.contains(2));
        assert_eq!(s.get(0).unwrap(), vec![7u8; 1000]);
        assert_eq!(s.get(1).unwrap(), Vec::<u8>::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_detects_corruption_truncation_and_id_swaps() {
        let dir = tmpdir("corrupt");
        let s = FileShardStore::new(&dir);
        s.put(5, b"payload bytes here").unwrap();
        let path = dir.join("shard-000005.grsh");
        let good = fs::read(&path).unwrap();
        let corrupt =
            |what| matches!(s.get(5), Err(StoreError::Corrupt { what: w, .. }) if w == what);

        // Bit flip in the payload, or a cut inside the frame -> checksum.
        let mut bad = good.clone();
        bad[frame::PREFIX + 6] ^= 1;
        fs::write(&path, &bad).unwrap();
        assert!(corrupt("checksum"));
        fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert!(corrupt("checksum"));

        // A cut inside the fixed prefix -> short read with offsets.
        fs::write(&path, &good[..20]).unwrap();
        match s.get(5) {
            Err(StoreError::ShortRead { offset, needed, .. }) => {
                assert_eq!((offset, needed), (20, (frame::PREFIX + 8 - 20) as u64))
            }
            other => panic!("expected short read, got {other:?}"),
        }

        // A blob renamed over another shard's slot -> id mismatch.
        fs::write(&path, &good).unwrap();
        fs::copy(&path, dir.join("shard-000009.grsh")).unwrap();
        assert!(matches!(
            s.get(9),
            Err(StoreError::Corrupt {
                what: "shard id",
                ..
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coded_frames_round_trip_and_shrink_real_payloads() {
        let layout = GraphLayout::build(&gr_graph::gen::rmat_g500(9, 4096, 7).symmetrize());
        let shards = gr_graph::partition_into_shards(&layout, &gr_graph::EvenEdgePartition, 4);
        let dir = tmpdir("coded");
        for codec in [CompressionCodec::Varint, CompressionCodec::Zeta(3)] {
            let s = FileShardStore::with_codec(&dir, Some(codec));
            for (i, sh) in shards.iter().enumerate() {
                let payload = shard_payload(&layout, sh);
                let stored = s.put(i as u32, &payload).unwrap();
                assert!(
                    stored < payload.len() as u64,
                    "{}: stored {stored} >= raw {}",
                    codec.name(),
                    payload.len()
                );
                assert_eq!(s.get(i as u32).unwrap(), payload, "{}", codec.name());
            }
        }
        // Odd-length payloads (raw tail bytes) survive too.
        let s = FileShardStore::with_codec(&dir, Some(CompressionCodec::Varint));
        for odd in [b"x".as_slice(), b"seven by", b"payload bytes here!"] {
            s.put(9, odd).unwrap();
            assert_eq!(s.get(9).unwrap(), odd);
        }
        s.put(9, &[]).unwrap();
        assert_eq!(s.get(9).unwrap(), Vec::<u8>::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_store_reads_any_frame_and_refuses_retired_layouts() {
        let dir = tmpdir("compat");
        let raw = FileShardStore::new(&dir);
        let coded = FileShardStore::with_codec(&dir, Some(CompressionCodec::Zeta(3)));
        // The codec rides in the frame, not the store config.
        assert_eq!(raw.put(2, b"written without a codec").unwrap(), 23);
        assert_eq!(coded.get(2).unwrap(), b"written without a codec");
        coded.put(3, b"compressed frame").unwrap();
        assert_eq!(raw.get(3).unwrap(), b"compressed frame");
        // A v1 `GRSH` blob (magic | shard | len | payload | fnv1a) left by
        // an older build is refused, never misread.
        let mut v1 = b"GRSH".to_vec();
        v1.extend_from_slice(&4u32.to_le_bytes());
        v1.extend_from_slice(&3u64.to_le_bytes());
        v1.extend_from_slice(b"old");
        let sum = frame::fnv1a(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        fs::write(dir.join("shard-000004.grsh"), &v1).unwrap();
        assert!(matches!(
            raw.get(4),
            Err(StoreError::Corrupt { what: "magic", .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrite a frame's bytes (checksum excluded) and re-seal it, so only
    /// the decoder stands between the lie and the caller.
    fn reseal(path: &Path, good: &[u8], edit: impl FnOnce(&mut Vec<u8>)) {
        let mut body = good[..good.len() - 8].to_vec();
        edit(&mut body);
        let checksum = frame::fnv1a(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        fs::write(path, &body).unwrap();
    }

    #[test]
    fn hostile_raw_lengths_and_retired_tags_fail_typed() {
        let dir = tmpdir("hostile");
        let payload = b"payload bytes here, long enough to damage";
        let path = dir.join("shard-000005.grsh");
        for codec in [CompressionCodec::Varint, CompressionCodec::Zeta(3)] {
            let s = FileShardStore::with_codec(&dir, Some(codec));
            s.put(5, payload).unwrap();
            let good = fs::read(&path).unwrap();
            for len in [payload.len() as u64 + 4, payload.len() as u64 + 1, u64::MAX] {
                reseal(&path, &good, |b| {
                    b[9..17].copy_from_slice(&len.to_le_bytes())
                });
                match s.get(5) {
                    Err(StoreError::Corrupt { what, .. }) => assert!(
                        what == "raw length" || (what == "compressed payload" && len != u64::MAX),
                        "{} {len}: {what}",
                        codec.name()
                    ),
                    other => panic!("{} {len}: expected corrupt, got {other:?}", codec.name()),
                }
            }
            reseal(&path, &good, |_| {});
            assert_eq!(s.get(5).unwrap(), payload);
        }
        // Tags 1..=8 named ζ_k in the old bit order: refused, never
        // decoded, even under a valid checksum.
        let good = fs::read(&path).unwrap();
        assert_eq!(good[8], 0x13, "zeta3 frames carry tag 0x13");
        for old in 1..=8u8 {
            reseal(&path, &good, |b| b[8] = old);
            assert!(
                matches!(
                    FileShardStore::new(&dir).get(5),
                    Err(StoreError::Corrupt {
                        what: "codec tag",
                        ..
                    })
                ),
                "tag {old}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn handle_is_cloneable_and_debuggable() {
        let h = ShardStoreHandle::new(MemShardStore::new());
        let h2 = h.clone();
        h.put(1, b"x").unwrap();
        assert!(h2.contains(1), "clones share the underlying store");
        assert_eq!(format!("{h:?}"), "ShardStoreHandle(mem)");
    }
}
