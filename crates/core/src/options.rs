//! Runtime options: every optimization of Section 5 is independently
//! toggleable so the Figure 15 ablation (optimized vs unoptimized GR) and
//! the design-choice benches can isolate each mechanism.

use std::path::PathBuf;
use std::sync::Arc;

use gr_graph::{CompressionCodec, EvenEdgePartition, PartitionLogic};
use gr_sim::FaultPlan;

use crate::recovery::RecoveryPolicy;
use crate::snapshot::CheckpointPolicy;
use crate::store::{FileShardStore, ShardStore, ShardStoreHandle};

/// Shared handle to a partition logic plug-in (Section 4.2's Partition
/// Logic Table: "GraphReduce is able to take any user-provided
/// partitioning logic as a plug-in").
#[derive(Clone)]
pub struct PartitionLogicHandle(pub Arc<dyn PartitionLogic + Send + Sync>);

impl PartitionLogicHandle {
    pub fn new<L: PartitionLogic + Send + Sync + 'static>(logic: L) -> Self {
        PartitionLogicHandle(Arc::new(logic))
    }
}

impl Default for PartitionLogicHandle {
    fn default() -> Self {
        PartitionLogicHandle::new(EvenEdgePartition)
    }
}

impl std::fmt::Debug for PartitionLogicHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PartitionLogic({})", self.0.name())
    }
}

impl std::ops::Deref for PartitionLogicHandle {
    type Target = dyn PartitionLogic + Send + Sync;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

/// Cost-model choice for the Gather phase (Section 3.1's hybrid model
/// ablation). The *results* are identical; the knob selects which kind of
/// parallelism the simulated kernels exploit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GatherMode {
    /// Edge-centric gatherMap + vertex-centric gatherReduce (the paper's
    /// hybrid default): one lane per in-edge, no atomics, then a contiguous
    /// per-vertex reduction.
    Hybrid,
    /// Pure vertex-centric: one lane per vertex walks its whole in-edge
    /// list — load-imbalanced on skewed graphs and serializes each list.
    VertexCentric,
    /// Pure edge-centric with atomic accumulation into the destination
    /// vertex — contended random atomics instead of the two-step reduce.
    EdgeCentricAtomic,
}

/// How streamed shard buffers cross PCIe (Section 3.2 closes with:
/// "certain performance benefits may exist through intelligent runtime
/// buffer-type selecting; we leave this exploration for the future work" —
/// this knob is that exploration).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamingMode {
    /// Explicit `cudaMemcpyAsync` staging (the paper's choice).
    Explicit,
    /// Zero-copy pinned/UVA access for the *sequentially accessed*
    /// streaming buffers (all of GR's shard buffers are sequential by
    /// construction — the sorted layout of Section 4.2); random-access
    /// buffers remain device-resident either way.
    ZeroCopySequential,
}

/// Which host-side kernel implementation computes the *results* (the
/// simulated device timeline is unaffected — `ShardWork` counts, and
/// therefore every simulated cost, are identical across all variants).
///
/// The adaptive default mirrors Gunrock-style frontier-aware kernel
/// selection: a phase over a mostly-empty interval iterates only the set
/// bits of the frontier bitmap (word-skipping, O(active)), while a dense
/// interval is scanned contiguously (O(interval)); FrontierActivate pushes
/// over the out-edges of a sparse changed set and pulls over in-edges when
/// it is dense. Every mode but `Serial` runs on the host thread pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HostKernels {
    /// Pick sparse or dense per shard per phase by comparing the
    /// interval's active population against its length, and push or pull
    /// activation per iteration from the push work (the default).
    #[default]
    Adaptive,
    /// Always scan the full interval; always activate by pull.
    Dense,
    /// Always iterate only the set bits; always activate by push.
    Sparse,
    /// The pre-adaptive reference path: O(interval) scans probing the
    /// bitmap per vertex and push activation, one shard at a time on the
    /// calling thread. Kept as the wall-clock benchmark baseline and the
    /// differential-test oracle.
    Serial,
}

/// GraphReduce runtime configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// Use multiple CUDA streams with double buffering so shard transfers
    /// overlap kernels and each other (Section 5.1). Off = one stream,
    /// fully serialized (the unoptimized baseline's execution mode).
    pub async_streams: bool,
    /// Spray each shard's sub-arrays over dynamically created streams so
    /// copy issue overheads and DMA latencies pipeline across Hyper-Q
    /// hardware queues (Section 5.1).
    pub spray: bool,
    /// Number of spray streams per shard copy when `spray` is on.
    pub spray_width: u32,
    /// Skip data movement and kernel launches for shards with no active
    /// vertices or edges (Section 5.2, dynamic frontier management).
    pub frontier_management: bool,
    /// Merge adjacent surviving GAS phases into one copy-in/copy-out cycle
    /// and drop phases the program does not define (Section 5.3).
    pub phase_fusion: bool,
    /// CTA-style load balancing (ModernGPU): kernels see balanced work
    /// regardless of degree skew. Off = per-block imbalance inflates
    /// kernel time on skewed shards.
    pub cta_load_balance: bool,
    /// Gather-phase programming model (hybrid is the paper's choice).
    pub gather_mode: GatherMode,
    /// Number of shards processed concurrently (the `K` of Equation (1)).
    /// The paper derives K = 2 for the K20c.
    pub concurrent_shards: u32,
    /// Override the shard count `P`; `None` derives the minimal P that
    /// satisfies Equation (1) for the device's memory.
    pub num_shards: Option<usize>,
    /// Keep shard buffers resident on the device when the whole working
    /// set fits (in-GPU-memory mode — how GR competes in Table 4).
    pub cache_resident: bool,
    /// Partition logic plug-in (Section 4.2's Partition Logic Table);
    /// defaults to the paper's load-balanced even-edge intervals.
    pub partition_logic: PartitionLogicHandle,
    /// Transfer technique for streamed shard buffers.
    pub streaming_mode: StreamingMode,
    /// Deterministic fault-injection schedule armed on the device before
    /// the run. [`FaultPlan::none`] (the default) adds zero ops and zero
    /// simulated time — the fault machinery costs one branch per device op.
    pub fault_plan: FaultPlan,
    /// What the engine does about injected (or real) device faults.
    pub recovery: RecoveryPolicy,
    /// Host-side kernel implementation computing the exact results
    /// (sparse/dense selection + parallelism; results bit-identical).
    pub host_kernels: HostKernels,
    /// Cap the device's usable memory below its nominal capacity, in
    /// bytes. Planning still sizes shards for the nominal device ("plan
    /// optimistically"); the memory governor then degrades the plan —
    /// residency drop, concurrency cut, shard splits, chunked transfers,
    /// host fallback — until it fits the cap ("govern at runtime").
    /// `None` (the default) leaves the device uncapped and the governor
    /// idle.
    pub mem_cap: Option<u64>,
    /// When (and whether) rollback checkpoints are persisted to disk.
    /// [`CheckpointPolicy::InMemoryOnly`] (the default) is exactly the
    /// pre-durability behavior: zero disk traffic, zero extra cost when no
    /// fault plan is armed.
    pub checkpoint_policy: CheckpointPolicy,
    /// Out-of-host-core spill target, the rung *below* host fallback on
    /// the memory ladder. `None` (the default) keeps the blanket
    /// storage-stall model for graphs that exceed host RAM.
    pub shard_store: Option<ShardStoreHandle>,
    /// Gap + varint/ζ compression for shard topology on the PCIe and
    /// spill paths (`docs/COMPRESSION.md`). `None` (the default) ships raw
    /// `(neighbor, edge id)` buffers; `Some(codec)` ships bit-packed gap
    /// streams, charges a `decompress` kernel per shard-load, and lets the
    /// memory governor budget in compressed bytes. Results are
    /// bit-identical either way. Single-GPU path only.
    pub shard_compression: Option<CompressionCodec>,
    /// Directory behind [`Options::with_spill_dir`], remembered so a later
    /// [`Options::with_shard_compression`] can rebuild the
    /// [`FileShardStore`] with the codec regardless of builder order.
    pub spill_dir: Option<PathBuf>,
}

impl Options {
    /// Everything on: the configuration evaluated as "GR" in Tables 3-4.
    pub fn optimized() -> Self {
        Options {
            async_streams: true,
            spray: true,
            spray_width: 8,
            frontier_management: true,
            phase_fusion: true,
            cta_load_balance: true,
            gather_mode: GatherMode::Hybrid,
            concurrent_shards: 2,
            num_shards: None,
            cache_resident: true,
            partition_logic: PartitionLogicHandle::default(),
            streaming_mode: StreamingMode::Explicit,
            fault_plan: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            host_kernels: HostKernels::Adaptive,
            mem_cap: None,
            checkpoint_policy: CheckpointPolicy::InMemoryOnly,
            shard_store: None,
            shard_compression: None,
            spill_dir: None,
        }
    }

    /// Everything off: the "unoptimized GR" baseline of Figure 15 —
    /// synchronous single-stream execution, every phase copies its shard
    /// in and out, inactive shards still move.
    pub fn unoptimized() -> Self {
        Options {
            async_streams: false,
            spray: false,
            spray_width: 1,
            frontier_management: false,
            phase_fusion: false,
            cta_load_balance: false,
            gather_mode: GatherMode::Hybrid,
            concurrent_shards: 1,
            num_shards: None,
            cache_resident: false,
            partition_logic: PartitionLogicHandle::default(),
            streaming_mode: StreamingMode::Explicit,
            fault_plan: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
            host_kernels: HostKernels::Adaptive,
            mem_cap: None,
            checkpoint_policy: CheckpointPolicy::InMemoryOnly,
            shard_store: None,
            shard_compression: None,
            spill_dir: None,
        }
    }

    /// Builder-style toggles (used heavily by the ablation benches).
    pub fn with_async_streams(mut self, on: bool) -> Self {
        self.async_streams = on;
        if !on {
            self.concurrent_shards = 1;
        }
        self
    }

    pub fn with_spray(mut self, on: bool) -> Self {
        self.spray = on;
        self
    }

    pub fn with_frontier_management(mut self, on: bool) -> Self {
        self.frontier_management = on;
        self
    }

    pub fn with_phase_fusion(mut self, on: bool) -> Self {
        self.phase_fusion = on;
        self
    }

    pub fn with_cta_load_balance(mut self, on: bool) -> Self {
        self.cta_load_balance = on;
        self
    }

    pub fn with_gather_mode(mut self, mode: GatherMode) -> Self {
        self.gather_mode = mode;
        self
    }

    pub fn with_concurrent_shards(mut self, k: u32) -> Self {
        self.concurrent_shards = k.max(1);
        self
    }

    pub fn with_num_shards(mut self, p: usize) -> Self {
        self.num_shards = Some(p.max(1));
        self
    }

    pub fn with_partition_logic<L: PartitionLogic + Send + Sync + 'static>(
        mut self,
        logic: L,
    ) -> Self {
        self.partition_logic = PartitionLogicHandle::new(logic);
        self
    }

    pub fn with_streaming_mode(mut self, mode: StreamingMode) -> Self {
        self.streaming_mode = mode;
        self
    }

    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    pub fn with_host_kernels(mut self, kernels: HostKernels) -> Self {
        self.host_kernels = kernels;
        self
    }

    /// Cap usable device memory at `bytes` (see [`Options::mem_cap`]).
    pub fn with_mem_cap(mut self, bytes: u64) -> Self {
        self.mem_cap = Some(bytes);
        self
    }

    /// Set the checkpoint persistence policy (see
    /// [`Options::checkpoint_policy`]).
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint_policy = policy;
        self
    }

    /// Plug in a shard store as the out-of-host-core spill target (see
    /// [`Options::shard_store`]).
    pub fn with_shard_store<S: ShardStore + 'static>(mut self, store: S) -> Self {
        self.shard_store = Some(ShardStoreHandle::new(store));
        self
    }

    /// Convenience: spill evicted shards to checksummed files under `dir`
    /// (a [`FileShardStore`], its frames coded through the active codec when
    /// compression is on).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self.rebuild_spill_store();
        self
    }

    /// Compress shard topology with `codec` on the PCIe and spill paths
    /// (see [`Options::shard_compression`]).
    pub fn with_shard_compression(mut self, codec: CompressionCodec) -> Self {
        self.shard_compression = Some(codec);
        self.rebuild_spill_store();
        self
    }

    /// Re-derive the [`FileShardStore`] from `spill_dir` + the active
    /// codec, so `with_spill_dir` and `with_shard_compression` compose in
    /// either order. A custom [`Options::with_shard_store`] is left alone.
    fn rebuild_spill_store(&mut self) {
        if let Some(dir) = &self.spill_dir {
            self.shard_store = Some(ShardStoreHandle::new(FileShardStore::with_codec(
                dir.clone(),
                self.shard_compression,
            )));
        }
    }
}

impl Default for Options {
    fn default() -> Self {
        Options::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_on_every_switch() {
        let on = Options::optimized();
        let off = Options::unoptimized();
        assert!(on.async_streams && !off.async_streams);
        assert!(on.spray && !off.spray);
        assert!(on.frontier_management && !off.frontier_management);
        assert!(on.phase_fusion && !off.phase_fusion);
        assert!(on.cta_load_balance && !off.cta_load_balance);
        assert_eq!(off.concurrent_shards, 1);
        assert_eq!(on.concurrent_shards, 2);
    }

    #[test]
    fn disabling_async_forces_one_concurrent_shard() {
        let o = Options::optimized().with_async_streams(false);
        assert_eq!(o.concurrent_shards, 1);
    }

    #[test]
    fn builders_set_fields() {
        let o = Options::unoptimized()
            .with_spray(true)
            .with_concurrent_shards(0)
            .with_num_shards(0)
            .with_gather_mode(GatherMode::VertexCentric);
        assert!(o.spray);
        assert_eq!(o.concurrent_shards, 1); // clamped
        assert_eq!(o.num_shards, Some(1)); // clamped
        assert_eq!(o.gather_mode, GatherMode::VertexCentric);
    }

    #[test]
    fn durability_defaults_off_in_both_presets() {
        for o in [Options::optimized(), Options::unoptimized()] {
            assert_eq!(o.checkpoint_policy, CheckpointPolicy::InMemoryOnly);
            assert!(o.shard_store.is_none());
        }
        let o = Options::optimized()
            .with_checkpoint_policy(CheckpointPolicy::durable("/tmp/ck", 3))
            .with_spill_dir("/tmp/spill");
        assert!(matches!(
            o.checkpoint_policy,
            CheckpointPolicy::Durable { every: 3, .. }
        ));
        assert_eq!(o.shard_store.as_ref().unwrap().name(), "file");
        let o = o.with_shard_store(crate::store::MemShardStore::new());
        assert_eq!(o.shard_store.as_ref().unwrap().name(), "mem");
    }

    #[test]
    fn compression_composes_with_spill_dir_in_either_order() {
        for o in [Options::optimized(), Options::unoptimized()] {
            assert!(o.shard_compression.is_none());
            assert!(o.spill_dir.is_none());
        }
        let a = Options::optimized()
            .with_spill_dir("/tmp/gr-spill")
            .with_shard_compression(CompressionCodec::Varint);
        let b = Options::optimized()
            .with_shard_compression(CompressionCodec::Varint)
            .with_spill_dir("/tmp/gr-spill");
        for o in [a, b] {
            assert_eq!(o.shard_compression, Some(CompressionCodec::Varint));
            assert_eq!(o.shard_store.as_ref().unwrap().name(), "file");
        }
    }

    #[test]
    fn fault_injection_defaults_off() {
        let o = Options::optimized();
        assert!(o.fault_plan.is_none());
        assert_eq!(o.recovery, RecoveryPolicy::default());
        let armed = o
            .with_fault_plan(FaultPlan::none().fail_h2d(0, 1))
            .with_recovery(RecoveryPolicy::fail_fast());
        assert!(!armed.fault_plan.is_none());
        assert_eq!(armed.recovery.max_retries, 0);
    }
}
