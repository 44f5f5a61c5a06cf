//! # graphreduce — out-of-core GPU graph processing (SC '15)
//!
//! A faithful reproduction of *GraphReduce: Processing Large-Scale Graphs on
//! Accelerator-Based Systems* (Sengupta, Song, Agarwal, Schwan; SC 2015) on
//! top of the [`gr_sim`] virtual accelerator.
//!
//! Users implement [`GasProgram`] — the paper's `gatherMap` / `gatherReduce`
//! / `apply` / `scatter` device functions plus state types — and hand it to
//! [`GraphReduce`] together with a [`gr_graph::GraphLayout`] and a
//! [`gr_sim::Platform`]. The runtime:
//!
//! 1. partitions the graph into load-balanced shards sized by Equations
//!    (1)–(2) ([`sizes`]);
//! 2. streams shards over PCIe on asynchronous streams with double
//!    buffering and spray copies ([`engine`], Section 5.1);
//! 3. skips shards with no active vertices (dynamic frontier management,
//!    Section 5.2);
//! 4. fuses/eliminates phases the program doesn't define (Section 5.3);
//! 5. reports the statistics behind every figure of the paper's evaluation
//!    ([`stats`]).
//!
//! ```
//! use graphreduce::{GasProgram, GraphReduce, InitialFrontier, Options};
//! use gr_graph::{gen, GraphLayout};
//! use gr_sim::Platform;
//!
//! /// Connected components (Figure 6 of the paper).
//! struct Cc;
//! impl GasProgram for Cc {
//!     type VertexValue = u32;
//!     type EdgeValue = ();
//!     type Gather = u32;
//!     fn name(&self) -> &'static str { "cc" }
//!     fn init_vertex(&self, v: u32, _d: u32) -> u32 { v }
//!     fn initial_frontier(&self) -> InitialFrontier { InitialFrontier::All }
//!     fn gather_identity(&self) -> u32 { u32::MAX }
//!     fn gather_map(&self, _d: &u32, src: &u32, _e: &(), _w: f32) -> u32 { *src }
//!     fn gather_reduce(&self, a: u32, b: u32) -> u32 { a.min(b) }
//!     fn apply(&self, v: &mut u32, r: u32, _i: u32) -> bool {
//!         if r < *v { *v = r; true } else { false }
//!     }
//!     fn scatter(&self, _s: &u32, _d: &u32, _e: &mut ()) {}
//! }
//!
//! let layout = GraphLayout::build(&gen::uniform(256, 2048, 7).symmetrize());
//! let gr = GraphReduce::new(Cc, &layout, Platform::paper_node(), Options::optimized());
//! let out = gr.run().unwrap();
//! assert_eq!(out.vertex_values.len(), 256);
//! assert!(out.stats.iterations > 0);
//! ```

pub mod api;
pub mod buffers;
pub mod engine;
pub mod exec;
mod frame;
pub mod multi;
pub mod options;
pub mod phases;
pub mod recovery;
pub mod report;
pub mod session;
pub mod sizes;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod store;
#[cfg(any(test, feature = "test-support"))]
pub mod testprog;

pub use api::{GasProgram, InitialFrontier};
pub use buffers::StagingBuffer;
pub use engine::{GraphReduce, RunResult, WarmStart};
pub use gr_observe::{WallProfile, WallProfiler, WallSummary};
pub use gr_sim::{DeviceFault, DeviceHealth, FaultPlan, IoFault, IoOp};
pub use multi::{MultiGraphReduce, MultiRunResult, MultiRunStats};
pub use options::{GatherMode, HostKernels, Options, PartitionLogicHandle, StreamingMode};
pub use recovery::{EngineError, RecoveryPolicy};
pub use session::{GraphSession, Query};
pub use sizes::{
    optimal_concurrent_shards, pcie_saturating_bytes, plan_partition, plan_partition_with,
    PartitionPlan, PlanError, SizeModel,
};
pub use snapshot::{CheckpointPolicy, SnapshotError, StateBytes};
pub use stats::{IterationStats, RunStats};
pub use store::{FileShardStore, MemShardStore, ShardStore, ShardStoreHandle, StoreError};
