//! The durable-checkpoint writer shared by the single-GPU driver and the
//! multi-GPU orchestrator.
//!
//! `DurableWriter` owns the full-vs-delta schedule, the dirty-vertex
//! accumulator delta snapshots are keyed off, and what each container
//! records beyond the host state: the body codec (single-GPU runs reuse
//! the shard codec) and the multi-GPU placement. All writes go through
//! the fault-hardened storage plane ([`crate::storage`]), so injected
//! checkpoint-write faults are retried and, after exhaustion, degrade to
//! a skipped snapshot instead of a failed run.
//!
//! Disk time is host-side and off the device timelines: durable runs stay
//! time-identical to in-memory-only runs.

use std::path::{Path, PathBuf};

use gr_graph::{Bitmap, CompressionCodec};
use gr_observe::{Decision, MetricsRegistry, Observer};

use crate::api::GasProgram;
use crate::exec::host::HostState;
use crate::recovery::EngineError;
use crate::snapshot::{self, CheckpointPolicy, DeltaChain, Fingerprint, Kind, Placement};
use crate::storage::StorageCtx;

/// Writes versioned, checksummed snapshots at BSP iteration boundaries,
/// choosing full vs delta deterministically — a resumed run makes the
/// same choices at the same boundaries as the uninterrupted one.
pub(crate) struct DurableWriter {
    dir: PathBuf,
    every: u32,
    /// `Some(k)`: delta mode — promote every `k`-th durable boundary to a
    /// full snapshot, write deltas in between. `None`: every snapshot is
    /// full.
    full_every: Option<u32>,
    fp: Fingerprint,
    /// Snapshot body compression (single-GPU runs reuse the shard codec;
    /// multi-GPU snapshots stay uncompressed).
    codec: Option<CompressionCodec>,
    /// `Some`: record the cluster context in every snapshot (multi-GPU
    /// runs only).
    placement: Option<Placement>,
    /// Boundary the newest on-disk snapshot covers (write dedupe and the
    /// driver's in-memory-checkpoint elision).
    durable_at: Option<u32>,
    /// Vertices changed since the last full snapshot (delta mode only).
    dirty: Bitmap,
    last_full_at: Option<u32>,
}

impl DurableWriter {
    /// The writer a durable [`CheckpointPolicy`] arms; `None` for the
    /// in-memory policies.
    pub(crate) fn from_policy(
        policy: &CheckpointPolicy,
        fp: &Fingerprint,
        codec: Option<CompressionCodec>,
    ) -> Option<Self> {
        let (dir, every, full_every) = match policy {
            CheckpointPolicy::Durable { dir, every } => (dir, every, None),
            CheckpointPolicy::DurableDelta {
                dir,
                every,
                full_every,
            } => (dir, every, Some((*full_every).max(1))),
            _ => return None,
        };
        Some(DurableWriter {
            dir: dir.clone(),
            every: (*every).max(1),
            full_every,
            fp: fp.clone(),
            codec,
            placement: None,
            durable_at: None,
            dirty: Bitmap::new(fp.vertices),
            last_full_at: None,
        })
    }

    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the newest on-disk snapshot covers exactly `boundary` (the
    /// driver elides its in-memory rollback clone when it does).
    pub(crate) fn covers(&self, boundary: u32) -> bool {
        self.durable_at == Some(boundary)
    }

    /// Record the cluster context to stamp into every snapshot (multi-GPU
    /// orchestrator only; refresh after redistribution).
    pub(crate) fn set_placement(&mut self, num_gpus: u32, owners: &[usize]) {
        self.placement = Some(Placement {
            num_gpus,
            owners: owners.iter().map(|&o| o as u32).collect(),
        });
    }

    /// A resume restored state at `boundary`; continue the schedule (and,
    /// for a delta restore, the dirty chain) exactly where the killed run
    /// left it.
    pub(crate) fn note_restored(&mut self, boundary: u32, chain: Option<DeltaChain>) {
        self.durable_at = Some(boundary);
        match chain {
            Some(c) => {
                self.last_full_at = Some(c.base_iterations);
                self.dirty = c.dirty;
            }
            None => self.last_full_at = Some(boundary),
        }
    }

    /// Fold one completed iteration's changed set into the dirty
    /// accumulator. Call once per *successful* iteration (rollback
    /// replays recompute the identical changed set, and OR is idempotent,
    /// so replays never inflate the dirty set).
    pub(crate) fn record_iteration(&mut self, changed: &Bitmap) {
        if self.full_every.is_some() {
            self.dirty.or_assign(changed);
        }
    }

    /// Write a durable snapshot of the current iteration boundary — every
    /// `every` completed iterations, or unconditionally when `force`d
    /// (the initial boundary and convergence). Full vs delta follows the
    /// configured cadence; a skipped write (storage-fault exhaustion)
    /// leaves the previous snapshot in charge and the run continues.
    pub(crate) fn maybe_write<P: GasProgram>(
        &mut self,
        host: &HostState<P>,
        force: bool,
        storage: &mut StorageCtx,
        observer: &Observer,
        metrics: &mut MetricsRegistry,
    ) -> Result<(), EngineError> {
        let boundary = host.iterations.len() as u32;
        if self.durable_at == Some(boundary) || (!force && !boundary.is_multiple_of(self.every)) {
            return Ok(());
        }
        let full = match (self.full_every, self.last_full_at) {
            (None, _) | (Some(_), None) => true,
            (Some(fe), Some(last)) => boundary.saturating_sub(last) >= self.every * fe,
        };
        let kind = if full { Kind::Full } else { Kind::Delta };
        let delta = (!full).then(|| {
            let base = self.last_full_at.expect("delta implies a prior full");
            (base, &self.dirty)
        });
        let (bytes, raw_len) =
            snapshot::encode(&self.fp, host, delta, self.placement.as_ref(), self.codec);
        let name = snapshot::file_name(kind, boundary);
        let Some(written) = storage.snapshot_write(&self.dir, &name, boundary, &bytes)? else {
            // Skipped after retry exhaustion: the previous snapshot still
            // covers its boundary; the schedule state is untouched.
            return Ok(());
        };
        metrics.inc("engine.checkpoint_writes", 1);
        metrics.inc("engine.checkpoint_bytes", written);
        metrics.inc("engine.checkpoint_raw_bytes", raw_len);
        if full {
            metrics.inc("engine.checkpoint_full_bytes", written);
            self.last_full_at = Some(boundary);
            self.dirty.clear_all();
        } else {
            metrics.inc("engine.checkpoint_delta_writes", 1);
            metrics.inc("engine.checkpoint_delta_bytes", written);
        }
        // A new full makes every delta it covers redundant.
        snapshot::prune(&self.dir, full.then_some(boundary))?;
        observer.decision(|| Decision::CheckpointWrite {
            iteration: boundary,
            bytes: written,
        });
        self.durable_at = Some(boundary);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryPolicy;
    use crate::snapshot::fingerprint_for;
    use crate::testprog::Cc;
    use gr_graph::{gen, GraphLayout};
    use gr_sim::FaultPlan;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("gr-durable-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn delta_cadence_promotes_every_kth_boundary_to_full() {
        let layout = GraphLayout::build(&gen::uniform(64, 256, 3).symmetrize());
        let fp = fingerprint_for(&Cc, &layout);
        let dir = tmpdir("cadence");
        let policy = CheckpointPolicy::durable_delta(&dir, 1, 3);
        let mut w = DurableWriter::from_policy(&policy, &fp, None).unwrap();
        let mut storage = StorageCtx::new(
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            Observer::disabled(),
        );
        let mut metrics = MetricsRegistry::new();
        let mut host = HostState::<Cc>::cold(&Cc, &layout);
        // Boundary 0: always full. Boundaries 1, 2: deltas. Boundary 3: full.
        let mut kinds = Vec::new();
        for b in 0..=3u32 {
            while (host.iterations.len() as u32) < b {
                host.iterations
                    .push(crate::stats::IterationStats::default());
            }
            w.record_iteration(&host.changed);
            w.maybe_write(
                &host,
                b == 0,
                &mut storage,
                &Observer::disabled(),
                &mut metrics,
            )
            .unwrap();
            let full = dir.join(snapshot::file_name(Kind::Full, b)).exists();
            let delta = dir.join(snapshot::file_name(Kind::Delta, b)).exists();
            kinds.push((full, delta));
        }
        assert_eq!(
            kinds,
            vec![(true, false), (false, true), (false, true), (true, false)],
            "full at 0, deltas at 1-2, full at 3"
        );
        assert_eq!(metrics.counter("engine.checkpoint_writes"), 4);
        assert_eq!(metrics.counter("engine.checkpoint_delta_writes"), 2);
        assert!(
            metrics.counter("engine.checkpoint_full_bytes")
                + metrics.counter("engine.checkpoint_delta_bytes")
                == metrics.counter("engine.checkpoint_bytes")
        );
        // The full at 3 obsoleted the earlier deltas.
        assert!(!dir.join(snapshot::file_name(Kind::Delta, 1)).exists());
        assert!(!dir.join(snapshot::file_name(Kind::Delta, 2)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_boundary_never_writes_twice() {
        let layout = GraphLayout::build(&gen::uniform(64, 256, 3).symmetrize());
        let fp = fingerprint_for(&Cc, &layout);
        let dir = tmpdir("dedupe");
        let policy = CheckpointPolicy::durable(&dir, 2);
        let mut w = DurableWriter::from_policy(&policy, &fp, None).unwrap();
        let mut storage = StorageCtx::new(
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            Observer::disabled(),
        );
        let mut metrics = MetricsRegistry::new();
        let host = HostState::<Cc>::cold(&Cc, &layout);
        w.maybe_write(
            &host,
            true,
            &mut storage,
            &Observer::disabled(),
            &mut metrics,
        )
        .unwrap();
        assert!(w.covers(0));
        // Forced again at the same boundary (convergence right after the
        // initial snapshot): deduped.
        w.maybe_write(
            &host,
            true,
            &mut storage,
            &Observer::disabled(),
            &mut metrics,
        )
        .unwrap();
        assert_eq!(metrics.counter("engine.checkpoint_writes"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
