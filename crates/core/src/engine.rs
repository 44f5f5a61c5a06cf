//! The single-GPU GraphReduce frontend: [`GraphReduce`] binds one
//! [`GasProgram`] to one graph on one platform and runs it through the
//! layered execution core in [`crate::exec`] (Figures 8-12).
//!
//! Execution is Bulk-Synchronous across phases (Section 4.4): every
//! iteration runs Gather over all shards, then Apply, then
//! Scatter+FrontierActivate, with device barriers between stages. Within a
//! stage, shards are independent and pipeline across `K` CUDA streams
//! (copy/compute overlap, Section 5.1); the spray operation spreads each
//! shard's sub-array copies over dynamically cycled streams so issue
//! overheads and DMA latencies pipeline through Hyper-Q.
//!
//! *Results* are computed eagerly on the host with identical semantics
//! regardless of the optimization flags — the flags only change what the
//! virtual device copies and launches, which is exactly the paper's claim
//! (the optimizations are pure data-movement/scheduling transformations).
//!
//! The planning, data-movement, compute-spec, device, and iteration-loop
//! layers themselves live under [`crate::exec`]; the graph-lifetime /
//! query-lifetime split lives in [`crate::session`]. This module holds
//! only the one-shot compatibility facade: [`GraphReduce`] is
//! `GraphSession::new(..)` plus a single [`crate::session::Query`] per
//! `run*` call.

use gr_graph::GraphLayout;
use gr_observe::{Observer, WallProfiler};
use gr_sim::Platform;

use crate::api::GasProgram;
use crate::options::Options;
use crate::recovery::EngineError;
use crate::session::{GraphSession, Query};
use crate::sizes::SizeModel;
use crate::stats::RunStats;

pub use crate::session::WarmStart;

/// Output of one GraphReduce run.
pub struct RunResult<P: GasProgram> {
    /// Final vertex values, indexed by vertex id.
    pub vertex_values: Vec<P::VertexValue>,
    /// Final mutable edge state, indexed by canonical edge id.
    pub edge_values: Vec<P::EdgeValue>,
    /// Everything the evaluation section measures.
    pub stats: RunStats,
}

/// The GraphReduce framework instance: one program bound to one graph on
/// one platform — a compatibility facade over [`GraphSession`] that runs
/// exactly one query per `run*` call.
pub struct GraphReduce<'g, P: GasProgram> {
    program: P,
    session: GraphSession<'g>,
    observer: Observer,
    wall: WallProfiler,
}

impl<'g, P: GasProgram> GraphReduce<'g, P> {
    pub fn new(program: P, layout: &'g GraphLayout, platform: Platform, opts: Options) -> Self {
        GraphReduce {
            program,
            session: GraphSession::new(layout, platform, opts),
            observer: Observer::disabled(),
            wall: WallProfiler::disarmed(),
        }
    }

    /// Attach a [`gr_observe::Observer`]: the run emits per-shard GAS
    /// phase spans, iteration spans, shard-skip and phase-fusion/
    /// elimination decisions, device op spans, and per-iteration
    /// metrics snapshots into its sink. The default (no observer) costs
    /// one branch per would-be event.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Attach a wall-clock profiler (armed or disarmed). Armed, the run
    /// attributes real host milliseconds per (iteration, shard, GAS
    /// phase, resolved kernel shape) — read back via
    /// [`WallProfiler::profile`](gr_observe::WallProfiler::profile) and
    /// summarized in [`RunStats::wall`](crate::stats::RunStats::wall).
    /// The default disarmed profiler costs one branch per would-be scope
    /// and changes nothing else.
    pub fn with_wall_profiler(mut self, wall: WallProfiler) -> Self {
        self.wall = wall;
        self
    }

    /// The byte model derived from the program's data types and phase set.
    pub fn size_model(&self) -> SizeModel {
        SizeModel::for_program(&self.program)
    }

    /// The underlying build-once session (shared partition plans and
    /// compressed topology) this facade runs its queries against.
    pub fn session(&self) -> &GraphSession<'g> {
        &self.session
    }

    fn query(&self) -> Query<'_, 'g, P> {
        self.session
            .query(&self.program)
            .with_observer(self.observer.clone())
            .with_wall_profiler(self.wall.clone())
    }

    /// Execute to convergence; returns final state and statistics.
    pub fn run(&self) -> Result<RunResult<P>, EngineError> {
        self.query().run()
    }

    /// Execute incrementally from a previous run's state (dynamic graphs).
    pub fn run_warm(&self, warm: WarmStart<P>) -> Result<RunResult<P>, EngineError> {
        self.query().warm(warm).run()
    }

    /// Resume a killed or interrupted run from the newest intact durable
    /// snapshot in `dir` (see [`crate::snapshot::CheckpointPolicy`]).
    ///
    /// The snapshot's fingerprint must match this instance's program and
    /// graph — a mismatch fails fast with
    /// [`SnapshotError::FingerprintMismatch`](crate::SnapshotError::FingerprintMismatch)
    /// rather than replaying the wrong state. A corrupt newest snapshot
    /// (failed checksum, truncation) silently falls back to the previous
    /// intact one. Full, delta (restored as its base full plus the newest
    /// delta), coded and multi-GPU snapshots are all accepted. Replay
    /// continues from the restored iteration boundary and converges
    /// bit-identically to an uninterrupted run.
    pub fn resume(&self, dir: impl AsRef<std::path::Path>) -> Result<RunResult<P>, EngineError> {
        self.query().resume(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::GatherMode;
    use crate::testprog::{Bfs, Cc};
    use gr_graph::gen;

    fn small_graph() -> GraphLayout {
        GraphLayout::build(&gen::uniform(512, 4096, 3).symmetrize())
    }

    fn reference_cc(layout: &GraphLayout) -> Vec<u32> {
        // Sequential min-label flooding to a fixed point.
        let n = layout.num_vertices();
        let mut label: Vec<u32> = (0..n).collect();
        loop {
            let mut changed = false;
            for v in 0..n {
                for (src, _) in layout.csc.entries(v) {
                    if label[src as usize] < label[v as usize] {
                        label[v as usize] = label[src as usize];
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        label
    }

    #[test]
    fn cc_matches_reference_under_every_option_set() {
        let layout = small_graph();
        let want = reference_cc(&layout);
        let plat = Platform::paper_node_scaled(16384); // force out-of-core
        for opts in [
            Options::optimized(),
            Options::unoptimized(),
            Options::optimized().with_spray(false),
            Options::optimized().with_frontier_management(false),
            Options::optimized().with_phase_fusion(false),
            Options::optimized().with_async_streams(false),
            Options::optimized().with_gather_mode(GatherMode::VertexCentric),
            Options::optimized().with_gather_mode(GatherMode::EdgeCentricAtomic),
        ] {
            let out = GraphReduce::new(Cc, &layout, plat.clone(), opts.clone())
                .run()
                .unwrap();
            assert_eq!(out.vertex_values, want, "opts {opts:?}");
        }
    }

    #[test]
    fn bfs_depths_match_reference() {
        let layout = small_graph();
        // Reference BFS from 0.
        let n = layout.num_vertices();
        let mut depth = vec![u32::MAX; n as usize];
        depth[0] = 0;
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(v) = queue.pop_front() {
            for (dst, _) in layout.csr.entries(v) {
                if depth[dst as usize] == u32::MAX {
                    depth[dst as usize] = depth[v as usize] + 1;
                    queue.push_back(dst);
                }
            }
        }
        let out = GraphReduce::new(
            Bfs(0),
            &layout,
            Platform::paper_node_scaled(16384),
            Options::optimized(),
        )
        .run()
        .unwrap();
        assert_eq!(out.vertex_values, depth);
    }

    #[test]
    fn optimized_moves_fewer_bytes_than_unoptimized() {
        let layout = small_graph();
        let plat = Platform::paper_node_scaled(16384);
        let opt = GraphReduce::new(Cc, &layout, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        let unopt = GraphReduce::new(Cc, &layout, plat, Options::unoptimized())
            .run()
            .unwrap();
        assert_eq!(opt.vertex_values, unopt.vertex_values);
        let ob = opt.stats.bytes_h2d + opt.stats.bytes_d2h;
        let ub = unopt.stats.bytes_h2d + unopt.stats.bytes_d2h;
        assert!(ob < ub, "optimized {ob} B vs unoptimized {ub} B");
        assert!(opt.stats.memcpy_time < unopt.stats.memcpy_time);
        assert!(opt.stats.elapsed < unopt.stats.elapsed);
    }

    #[test]
    fn frontier_management_skips_shards_for_bfs() {
        // A long path: most shards are inactive most iterations.
        let n = 2048u32;
        let el =
            gr_graph::EdgeList::from_edges(n, (0..n - 1).map(|v| (v, v + 1)).collect::<Vec<_>>())
                .symmetrize();
        let layout = GraphLayout::build(&el);
        let plat = Platform::paper_node_scaled(1 << 16); // tiny device: many shards
        let with = GraphReduce::new(Bfs(0), &layout, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        let without = GraphReduce::new(
            Bfs(0),
            &layout,
            plat,
            Options::optimized().with_frontier_management(false),
        )
        .run()
        .unwrap();
        assert_eq!(with.vertex_values, without.vertex_values);
        assert!(with.stats.skipped_shard_copies > 0);
        assert!(with.stats.num_shards > 1, "need an out-of-core setup");
        assert!(
            (with.stats.bytes_h2d as f64) < 0.7 * without.stats.bytes_h2d as f64,
            "frontier mgmt should slash copies: {} vs {}",
            with.stats.bytes_h2d,
            without.stats.bytes_h2d
        );
    }

    #[test]
    fn phase_elimination_skips_in_edges_for_bfs() {
        let layout = small_graph();
        let plat = Platform::paper_node_scaled(16384);
        let fused = GraphReduce::new(
            Bfs(0),
            &layout,
            plat.clone(),
            Options::optimized().with_frontier_management(false),
        )
        .run()
        .unwrap();
        let unfused = GraphReduce::new(
            Bfs(0),
            &layout,
            plat,
            Options::optimized()
                .with_frontier_management(false)
                .with_phase_fusion(false),
        )
        .run()
        .unwrap();
        // Elimination drops in-edge buffers entirely; unfused mode hauls
        // them every iteration despite BFS never using them.
        assert!(fused.stats.bytes_h2d * 2 < unfused.stats.bytes_h2d);
    }

    #[test]
    fn in_memory_graph_runs_resident() {
        let layout = small_graph();
        // Full-size device: everything fits.
        let out = GraphReduce::new(Cc, &layout, Platform::paper_node(), Options::optimized())
            .run()
            .unwrap();
        assert!(out.stats.all_resident);
        assert_eq!(out.stats.num_shards, 1);
        // Resident mode copies each buffer at most once: bytes are bounded
        // by ~one traversal of the graph's full records + static in/out.
        let one_pass = layout.num_edges() * 60 + layout.num_vertices() as u64 * 40;
        assert!(out.stats.bytes_h2d < one_pass);
    }

    #[test]
    fn iteration_trace_matches_frontier_dynamics() {
        let layout = small_graph();
        let out = GraphReduce::new(
            Bfs(0),
            &layout,
            Platform::paper_node(),
            Options::optimized(),
        )
        .run()
        .unwrap();
        let sizes = out.stats.frontier_sizes();
        assert_eq!(sizes[0], 1); // BFS starts at one source
        assert!(out.stats.max_frontier() > 1);
        // The per-iteration activation chain is consistent: frontier of
        // iteration i+1 equals activated set of iteration i.
        for w in out.stats.per_iteration.windows(2) {
            assert_eq!(w[1].frontier_size, w[0].activated);
        }
    }

    #[test]
    fn spray_speeds_up_small_copy_heavy_runs() {
        let layout = small_graph();
        let plat = Platform::paper_node_scaled(1 << 14); // many tiny shards
        let spray = GraphReduce::new(Cc, &layout, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        let no_spray = GraphReduce::new(Cc, &layout, plat, Options::optimized().with_spray(false))
            .run()
            .unwrap();
        assert_eq!(spray.vertex_values, no_spray.vertex_values);
        assert!(
            spray.stats.elapsed <= no_spray.stats.elapsed,
            "spray {:?} vs {:?}",
            spray.stats.elapsed,
            no_spray.stats.elapsed
        );
    }

    #[test]
    fn empty_graph_runs_zero_iterations() {
        let layout = GraphLayout::build(&gr_graph::EdgeList::new(0));
        let out = GraphReduce::new(Cc, &layout, Platform::paper_node(), Options::optimized())
            .run()
            .unwrap();
        assert_eq!(out.stats.iterations, 0);
        assert!(out.vertex_values.is_empty());
    }

    #[test]
    fn isolated_vertices_converge_immediately_for_bfs() {
        let el = gr_graph::EdgeList::from_edges(8, vec![(0, 1)]);
        let layout = GraphLayout::build(&el);
        let out = GraphReduce::new(
            Bfs(0),
            &layout,
            Platform::paper_node(),
            Options::optimized(),
        )
        .run()
        .unwrap();
        assert_eq!(out.stats.iterations, 2); // source, then vertex 1
        assert_eq!(out.vertex_values[0], 0);
        assert_eq!(out.vertex_values[1], 1);
        assert!(out.vertex_values[2..].iter().all(|&d| d == u32::MAX));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::testprog::Cc;
    use gr_graph::{gen, EdgeList};

    #[test]
    fn out_of_host_core_streams_from_storage() {
        let layout = GraphLayout::build(&gen::uniform(512, 8000, 5).symmetrize());
        // Device forces sharding; host memory smaller than the graph.
        let mut plat = Platform::paper_node_scaled(1 << 13);
        plat.host.mem_capacity = 100_000; // ~1/8 of the graph footprint
        let ssd = GraphReduce::new(Cc, &layout, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        plat.host.mem_capacity = 1 << 40;
        let ram = GraphReduce::new(Cc, &layout, plat, Options::optimized())
            .run()
            .unwrap();
        assert_eq!(ssd.vertex_values, ram.vertex_values);
        assert!(
            ssd.stats.elapsed > ram.stats.elapsed * 2,
            "SSD-backed run {:?} must be much slower than RAM-backed {:?}",
            ssd.stats.elapsed,
            ram.stats.elapsed
        );
        // Data volume over PCIe is identical — the tier only adds latency.
        assert_eq!(ssd.stats.bytes_h2d, ram.stats.bytes_h2d);
    }

    #[test]
    fn warm_start_converges_in_fewer_iterations() {
        // Build a graph, run CC, append a bridging edge, rerun warm.
        let base = gen::uniform(600, 3000, 9).symmetrize();
        let layout = GraphLayout::build(&base);
        let plat = Platform::paper_node();
        let first = GraphReduce::new(Cc, &layout, plat.clone(), Options::optimized())
            .run()
            .unwrap();

        // Mutate: connect vertex 0's component to an isolated-ish pair.
        let mut edges = base.edges.clone();
        edges.push((0, 599));
        edges.push((599, 0));
        let updated = EdgeList::from_edges(600, edges);
        let layout2 = GraphLayout::build(&updated);

        let gr2 = GraphReduce::new(Cc, &layout2, plat.clone(), Options::optimized());
        let warm = gr2
            .run_warm(WarmStart {
                vertex_values: first.vertex_values.clone(),
                frontier: vec![0, 599],
            })
            .unwrap();
        let cold = gr2.run().unwrap();
        assert_eq!(warm.vertex_values, cold.vertex_values);
        assert!(
            warm.stats.iterations <= cold.stats.iterations,
            "incremental run took {} iterations vs {} cold",
            warm.stats.iterations,
            cold.stats.iterations
        );
        assert!(
            warm.stats.per_iteration[0].frontier_size <= 2,
            "warm start seeds only the mutation endpoints"
        );
    }

    #[test]
    fn partition_logic_plugin_changes_balance_not_results() {
        let layout = GraphLayout::build(&gen::rmat_g500(11, 40_000, 6).symmetrize());
        let plat = Platform::paper_node_scaled(1 << 13);
        let even_edges = GraphReduce::new(Cc, &layout, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        let even_vertices = GraphReduce::new(
            Cc,
            &layout,
            plat,
            Options::optimized().with_partition_logic(gr_graph::EvenVertexPartition),
        )
        .run()
        .unwrap();
        assert_eq!(even_edges.vertex_values, even_vertices.vertex_values);
        // Naive even-vertex intervals on a skewed graph need more shards to
        // fit (the heavy interval blows the slot budget until P grows) —
        // the measurable cost the paper's load-balanced default avoids.
        assert!(
            even_vertices.stats.num_shards >= even_edges.stats.num_shards,
            "even-vertex {} vs even-edge {}",
            even_vertices.stats.num_shards,
            even_edges.stats.num_shards
        );
    }

    #[test]
    fn warm_start_handles_added_vertices() {
        let base = gen::uniform(100, 500, 11).symmetrize();
        let layout = GraphLayout::build(&base);
        let plat = Platform::paper_node();
        let first = GraphReduce::new(Cc, &layout, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        // Grow the vertex set and attach the new vertex.
        let mut edges = base.edges.clone();
        edges.push((5, 100));
        edges.push((100, 5));
        let layout2 = GraphLayout::build(&EdgeList::from_edges(101, edges));
        let gr2 = GraphReduce::new(Cc, &layout2, plat, Options::optimized());
        let warm = gr2
            .run_warm(WarmStart {
                vertex_values: first.vertex_values,
                frontier: vec![5, 100],
            })
            .unwrap();
        assert_eq!(warm.vertex_values, gr2.run().unwrap().vertex_values);
    }
}

#[cfg(test)]
mod streaming_mode_tests {
    use super::*;
    use crate::options::StreamingMode;
    use crate::testprog::Cc;
    use gr_graph::gen;

    #[test]
    fn zero_copy_streaming_matches_results_and_shaves_time() {
        // The Section 3.2 future-work exploration: with GR's fully
        // sequential streamed buffers, zero-copy access wins slightly
        // (pinned sequential beats explicit staging — Figure 4) without
        // changing a single result bit.
        let layout = GraphLayout::build(&gen::stencil3d(8192, 140_000, 31).symmetrize());
        let plat = Platform::paper_node_scaled(1 << 12);
        let explicit = GraphReduce::new(Cc, &layout, plat.clone(), Options::optimized())
            .run()
            .unwrap();
        let zero_copy = GraphReduce::new(
            Cc,
            &layout,
            plat,
            Options::optimized().with_streaming_mode(StreamingMode::ZeroCopySequential),
        )
        .run()
        .unwrap();
        assert_eq!(explicit.vertex_values, zero_copy.vertex_values);
        assert!(!explicit.stats.all_resident, "needs the streaming path");
        assert!(
            zero_copy.stats.memcpy_time < explicit.stats.memcpy_time,
            "zero-copy {:?} should undercut explicit staging {:?}",
            zero_copy.stats.memcpy_time,
            explicit.stats.memcpy_time
        );
        // Same byte volume crosses the link either way.
        assert_eq!(explicit.stats.bytes_h2d, zero_copy.stats.bytes_h2d);
    }
}
