//! Durable checkpoints: versioned, checksummed binary snapshots of the
//! engine's host-resident master state, written atomically at iteration
//! boundaries so a killed run can resume from disk.
//!
//! The host computes exact results deterministically, so a snapshot of
//! the host master state at a BSP iteration boundary is a complete resume
//! point: replaying the remaining iterations converges bit-identically to
//! the uninterrupted run. Every snapshot is one container in the shared
//! `crate::frame` layout: a fixed header (kind, fingerprint, `n`, `m`,
//! iteration count, delta base, placement) and a body of fixed-width
//! little-endian state via [`StateBytes`] — a full holds every vertex, a
//! delta the dirty bitmap and the same per-vertex records for the dirty
//! vertices — optionally coded, under one checksum. See
//! `docs/DURABILITY.md`.

use std::fmt;
use std::path::PathBuf;

use gr_graph::GraphLayout;

use crate::api::GasProgram;
use crate::frame::Fnv;

mod container;
pub(crate) use container::{
    encode, file_name, load_newest, prune, DeltaChain, Kind, Placement, Restored,
};

/// Snapshot format version (bump on any layout change; readers reject
/// mismatches with [`SnapshotError::VersionMismatch`]). Version 1 was the
/// retired GRCK layout with its GRCD/GRCZ/GRCM siblings.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"GRCK";

/// How many intact snapshots a checkpoint directory retains: the latest
/// plus one fallback in case the latest is detected corrupt on resume.
pub const SNAPSHOTS_RETAINED: usize = 2;

/// When (and whether) the engine persists checkpoints to disk.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Rollback checkpoints stay in memory, exactly as before durable
    /// checkpoints existed: an armed fault plan clones host state each
    /// iteration, nothing touches disk. The default.
    #[default]
    InMemoryOnly,
    /// Never checkpoint, not even in memory. A rollback that would need a
    /// checkpoint then surfaces as [`EngineError::Unrecoverable`]
    /// (fail-stop); use only when replay-on-fault is unwanted.
    ///
    /// [`EngineError::Unrecoverable`]: crate::recovery::EngineError::Unrecoverable
    Off,
    /// Write a durable snapshot into `dir` at iteration boundary 0 and
    /// after every `every`-th completed iteration (and on convergence).
    /// [`GraphReduce::resume`](crate::GraphReduce::resume) restarts from
    /// the latest intact snapshot in `dir`.
    Durable { dir: PathBuf, every: u32 },
    /// Like [`CheckpointPolicy::Durable`], but between full snapshots the
    /// engine writes *delta* snapshots holding only the vertices whose
    /// state changed since the last full one (plus the bitmaps and trace,
    /// which are cheap). Every `full_every`-th durable boundary is
    /// promoted to a full snapshot so the restore chain stays at most one
    /// delta long. Restores are bit-identical to `Durable`.
    DurableDelta {
        dir: PathBuf,
        every: u32,
        full_every: u32,
    },
}

impl CheckpointPolicy {
    /// Whether this policy writes snapshots to disk.
    pub(crate) fn is_durable(&self) -> bool {
        matches!(
            self,
            CheckpointPolicy::Durable { .. } | CheckpointPolicy::DurableDelta { .. }
        )
    }

    /// Convenience constructor for [`CheckpointPolicy::Durable`].
    pub fn durable(dir: impl Into<PathBuf>, every: u32) -> Self {
        CheckpointPolicy::Durable {
            dir: dir.into(),
            every: every.max(1),
        }
    }

    /// Convenience constructor for [`CheckpointPolicy::DurableDelta`]:
    /// durable boundary every `every` iterations, a full snapshot every
    /// `full_every` durable boundaries, deltas in between. Both clamp
    /// to at least 1.
    pub fn durable_delta(dir: impl Into<PathBuf>, every: u32, full_every: u32) -> Self {
        CheckpointPolicy::DurableDelta {
            dir: dir.into(),
            every: every.max(1),
            full_every: full_every.max(1),
        }
    }
}

/// Why a snapshot could not be written or read back. Every variant carries
/// the file (or directory) involved; read-side variants add the byte
/// offset at which decoding failed, mirroring the edge-list loader's
/// hardened errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// An OS-level I/O operation failed; `op` says which one, `detail` is
    /// the rendered `io::Error`.
    Io {
        path: PathBuf,
        op: &'static str,
        detail: String,
    },
    /// The file ended before `needed` more bytes for `what` (truncation).
    ShortRead {
        path: PathBuf,
        offset: u64,
        needed: u64,
        what: &'static str,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic { path: PathBuf },
    /// The file's format version is not [`SNAPSHOT_VERSION`].
    VersionMismatch {
        path: PathBuf,
        found: u32,
        expected: u32,
    },
    /// The trailing checksum does not match the content (bit rot or a
    /// torn write that slipped past the rename barrier).
    ChecksumMismatch {
        path: PathBuf,
        stored: u64,
        computed: u64,
    },
    /// The snapshot was taken for a different algorithm, graph, or state
    /// layout than the resuming run; `field` names the mismatch.
    FingerprintMismatch {
        path: PathBuf,
        field: &'static str,
        found: String,
        expected: String,
    },
    /// A decoded field is internally inconsistent (e.g. frontier words
    /// with tail bits past the vertex count).
    Corrupt {
        path: PathBuf,
        offset: u64,
        what: &'static str,
    },
    /// No intact snapshot exists under the directory.
    NoSnapshot { dir: PathBuf },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, op, detail } => {
                write!(f, "snapshot {op} failed for {}: {detail}", path.display())
            }
            SnapshotError::ShortRead {
                path,
                offset,
                needed,
                what,
            } => write!(
                f,
                "truncated snapshot {}: needed {needed} more bytes reading {what} \
                 (at byte offset {offset})",
                path.display()
            ),
            SnapshotError::BadMagic { path } => {
                write!(f, "{} is not a GraphReduce snapshot (bad magic)", path.display())
            }
            SnapshotError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "snapshot {} has format version {found}, this build reads {expected}",
                path.display()
            ),
            SnapshotError::ChecksumMismatch {
                path,
                stored,
                computed,
            } => write!(
                f,
                "snapshot {} is corrupt: stored checksum {stored:#018x} != computed {computed:#018x}",
                path.display()
            ),
            SnapshotError::FingerprintMismatch {
                path,
                field,
                found,
                expected,
            } => write!(
                f,
                "snapshot {} was taken for a different run: {field} is {found}, expected {expected}",
                path.display()
            ),
            SnapshotError::Corrupt { path, offset, what } => write!(
                f,
                "snapshot {} is corrupt: invalid {what} (at byte offset {offset})",
                path.display()
            ),
            SnapshotError::NoSnapshot { dir } => {
                write!(f, "no intact snapshot found under {}", dir.display())
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// StateBytes: fixed-width, endian-stable value serialization
// ---------------------------------------------------------------------------

/// Fixed-width little-endian serialization for GAS state values.
///
/// Every [`GasProgram`] value type (vertex, edge, gather) implements this
/// so checkpoints and spilled shards have a defined on-disk layout that is
/// independent of struct padding and host endianness. Floats round-trip by
/// bit pattern (`to_le_bytes`/`from_le_bytes`), so restored state is
/// bit-identical, NaNs included.
///
/// Composite value structs can implement it one field at a time with
/// [`impl_state_bytes!`](crate::impl_state_bytes).
pub trait StateBytes: Sized {
    /// Serialized width in bytes (fixed per type).
    const BYTES: usize;

    /// Write exactly [`Self::BYTES`] bytes into `out`.
    fn write_bytes(&self, out: &mut [u8]);

    /// Read a value back from exactly [`Self::BYTES`] bytes.
    fn read_bytes(src: &[u8]) -> Self;
}

macro_rules! impl_state_bytes_prim {
    ($($t:ty),+) => {$(
        impl StateBytes for $t {
            const BYTES: usize = std::mem::size_of::<$t>();

            fn write_bytes(&self, out: &mut [u8]) {
                out[..Self::BYTES].copy_from_slice(&self.to_le_bytes());
            }

            fn read_bytes(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src[..Self::BYTES].try_into().unwrap())
            }
        }
    )+};
}

impl_state_bytes_prim!(u32, u64, i32, i64, f32, f64);

impl StateBytes for () {
    const BYTES: usize = 0;

    fn write_bytes(&self, _out: &mut [u8]) {}

    fn read_bytes(_src: &[u8]) -> Self {}
}

/// Implement [`StateBytes`] for a plain struct by concatenating its fields
/// in declaration order:
///
/// ```
/// #[derive(Clone, Copy)]
/// pub struct PrValue { pub rank: f32, pub out_degree: u32 }
/// graphreduce::impl_state_bytes!(PrValue { rank: f32, out_degree: u32 });
/// ```
#[macro_export]
macro_rules! impl_state_bytes {
    ($ty:ty { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl $crate::StateBytes for $ty {
            const BYTES: usize = 0 $(+ <$fty as $crate::StateBytes>::BYTES)+;

            fn write_bytes(&self, out: &mut [u8]) {
                let mut at = 0usize;
                $(
                    let w = <$fty as $crate::StateBytes>::BYTES;
                    <$fty as $crate::StateBytes>::write_bytes(&self.$field, &mut out[at..at + w]);
                    at += w;
                )+
                let _ = at;
            }

            fn read_bytes(src: &[u8]) -> Self {
                let mut at = 0usize;
                $(
                    let w = <$fty as $crate::StateBytes>::BYTES;
                    let $field = <$fty as $crate::StateBytes>::read_bytes(&src[at..at + w]);
                    at += w;
                )+
                let _ = at;
                Self { $($field),+ }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// What makes a snapshot resumable by exactly one (program, graph, state
/// layout): the algorithm name, a structural hash of the graph, a hash of
/// the value-type widths and phase set, and the graph's vertex and edge
/// counts, which every decoded length is checked against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    pub(crate) algorithm: String,
    pub(crate) graph: u64,
    pub(crate) state: u64,
    pub(crate) vertices: u32,
    pub(crate) edges: u64,
}

/// Edges hashed exhaustively up to this count; larger graphs are
/// stride-sampled (still covering first/last edges) so fingerprinting
/// stays O(1M) however big the graph is.
const FP_EDGE_SAMPLES: u64 = 1 << 20;

/// Structural graph fingerprint: vertex/edge counts plus (sampled) edge
/// endpoints. Deterministic for a given layout; any re-partitioning or
/// edge edit changes it.
pub(crate) fn graph_fingerprint(layout: &GraphLayout) -> u64 {
    let n = layout.num_vertices();
    let m = layout.num_edges();
    let mut h = Fnv::new();
    h.update(&n.to_le_bytes());
    h.update(&m.to_le_bytes());
    let stride = (m / FP_EDGE_SAMPLES).max(1);
    let mut e = 0u64;
    while e < m {
        let (src, dst) = layout.edge_endpoints(e as u32);
        h.update(&src.to_le_bytes());
        h.update(&dst.to_le_bytes());
        e += stride;
    }
    if m > 0 {
        let (src, dst) = layout.edge_endpoints((m - 1) as u32);
        h.update(&src.to_le_bytes());
        h.update(&dst.to_le_bytes());
    }
    h.finish()
}

/// The fingerprint a run stamps into (and a resume validates against)
/// every snapshot.
pub(crate) fn fingerprint_for<P: GasProgram>(program: &P, layout: &GraphLayout) -> Fingerprint {
    let mut h = Fnv::new();
    for width in [P::VertexValue::BYTES, P::EdgeValue::BYTES, P::Gather::BYTES] {
        h.update(&(width as u64).to_le_bytes());
    }
    h.update(&[program.has_gather() as u8, program.has_scatter() as u8]);
    Fingerprint {
        algorithm: program.name().to_string(),
        graph: graph_fingerprint(layout),
        state: h.finish(),
        vertices: layout.num_vertices(),
        edges: layout.num_edges(),
    }
}

/// FNV-1a over the serialized form of a value slice — the run report's
/// `state_fingerprint`, which the CI kill-restart smoke diffs between a
/// resumed run and its uninterrupted oracle.
pub(crate) fn values_fingerprint<V: StateBytes>(values: &[V]) -> u64 {
    let mut h = Fnv::new();
    let mut buf = vec![0u8; V::BYTES];
    for v in values {
        v.write_bytes(&mut buf);
        h.update(&buf);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprog::PrValue;

    #[test]
    fn state_bytes_round_trip_primitives_and_structs() {
        let mut buf = [0u8; 8];
        42u32.write_bytes(&mut buf);
        assert_eq!(u32::read_bytes(&buf), 42);
        f32::NAN.write_bytes(&mut buf);
        assert!(f32::read_bytes(&buf).is_nan());
        (-1.5f64).write_bytes(&mut buf);
        assert_eq!(f64::read_bytes(&buf), -1.5);
        assert_eq!(<() as StateBytes>::BYTES, 0);
        // Struct via the macro (PrValue from the shared test programs).
        assert_eq!(PrValue::BYTES, 8);
        let v = PrValue {
            rank: 0.25,
            out_degree: 7,
        };
        v.write_bytes(&mut buf);
        let back = PrValue::read_bytes(&buf);
        assert_eq!(back.rank, 0.25);
        assert_eq!(back.out_degree, 7);
    }

    #[test]
    fn checkpoint_policy_defaults_and_clamps() {
        assert_eq!(CheckpointPolicy::default(), CheckpointPolicy::InMemoryOnly);
        match CheckpointPolicy::durable("/tmp/x", 0) {
            CheckpointPolicy::Durable { every, .. } => assert_eq!(every, 1, "0 clamps to 1"),
            _ => unreachable!(),
        }
        match CheckpointPolicy::durable_delta("/tmp/x", 0, 0) {
            CheckpointPolicy::DurableDelta {
                every, full_every, ..
            } => {
                assert_eq!(every, 1, "0 clamps to 1");
                assert_eq!(full_every, 1, "0 clamps to 1");
            }
            _ => unreachable!(),
        }
    }
}
