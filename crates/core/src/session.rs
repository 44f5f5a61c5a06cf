//! Build-once graph sessions and per-query executors.
//!
//! Everything whose lifetime is *the graph* lives in [`GraphSession`]:
//! the [`GraphLayout`] borrow, the platform, the session [`Options`]
//! (partitioning, compression, spill/store wiring, streaming mode), the
//! gap-coded [`ShardCompression`] topology (built exactly once, shared by
//! every query), and a partition-plan cache keyed by the program's
//! [`SizeModel`] — `plan_partition_with` is a pure function of
//! `(layout, sizes, device, session options)`, so two queries with the
//! same byte model reuse one plan.
//!
//! Everything whose lifetime is *one query* lives in [`Query`]: the
//! algorithm program borrow, warm/restored host state, the observer and
//! wall profiler, and the query-scoped policy knobs (fault plan, recovery,
//! checkpoint policy, host kernels, memory cap). The governed
//! [`ExecPlan`](crate::exec::plan::ExecPlan) stays per-query on purpose:
//! the governor ladder emits its decisions and metrics into the query's
//! observer lane, which keeps decision logs and [`crate::RunStats`] bit-identical
//! to the pre-session engine (see `docs/SERVING.md`).
//!
//! [`GraphReduce`](crate::GraphReduce) is a thin compatibility facade over
//! `GraphSession::new(..).query(..)`; the serving layer (`gr-serve`)
//! multiplexes many concurrent queries over one session.

use std::sync::{Arc, Mutex};

use gr_graph::GraphLayout;
use gr_observe::{Observer, WallProfiler};
use gr_sim::{FaultPlan, Platform};

use crate::api::GasProgram;
use crate::engine::RunResult;
use crate::exec::compress::ShardCompression;
use crate::exec::driver::Runner;
use crate::options::{HostKernels, Options};
use crate::recovery::{EngineError, RecoveryPolicy};
use crate::sizes::{PartitionPlan, PlanError, SizeModel};
use crate::snapshot::CheckpointPolicy;

/// Warm-start state for incremental (dynamic-graph) processing — the
/// paper's third future-work item. After mutating a graph (e.g. appending
/// edges and rebuilding the [`GraphLayout`]), a previous run's vertex
/// values can be carried over and only the vertices a mutation touched are
/// re-activated; monotone algorithms (CC, SSSP, BFS levels with care)
/// then converge in a handful of incremental iterations instead of a full
/// re-run. Mutable edge state restarts from `Default` (canonical edge ids
/// change when the layout is rebuilt).
///
/// A warm start is just a query against an existing session: build the
/// session once, then [`Query::warm`] seeds the follow-up query.
pub struct WarmStart<P: GasProgram> {
    /// Vertex values from the previous run; padded with `init_vertex` for
    /// vertices the mutation added.
    pub vertex_values: Vec<P::VertexValue>,
    /// Vertices to seed the frontier with (typically the endpoints of
    /// inserted/removed edges).
    pub frontier: Vec<gr_graph::VertexId>,
}

/// Plan-cache key: the byte model plus the planner inputs that can differ
/// between the single-device path (session options) and the multi-GPU
/// facade (fixed `K = 2`, default partition logic).
type PlanKey = (SizeModel, u32, Option<usize>, bool);

/// Build-once, query-many handle to one graph on one platform.
///
/// Construction pays the graph-lifetime costs up front — notably the
/// gap-coded compressed topology when `opts.shard_compression` is armed —
/// and every subsequent [`Query`] borrows the session instead of
/// rebuilding them. Sessions are `Sync`: the plan cache is behind a mutex,
/// everything else is read-only after construction.
pub struct GraphSession<'g> {
    layout: &'g GraphLayout,
    platform: Platform,
    opts: Options,
    comp: Option<Arc<ShardCompression>>,
    plans: Mutex<Vec<(PlanKey, PartitionPlan)>>,
}

impl<'g> GraphSession<'g> {
    /// Bind a graph to a platform under session-lifetime `opts`.
    pub fn new(layout: &'g GraphLayout, platform: Platform, opts: Options) -> Self {
        // Graph-lifetime state: the compressed topology is a pure function
        // of (layout, codec) — build it once here instead of per run.
        let comp = opts
            .shard_compression
            .map(|codec| Arc::new(ShardCompression::new(layout, codec)));
        GraphSession {
            layout,
            platform,
            opts,
            comp,
            plans: Mutex::new(Vec::new()),
        }
    }

    /// The graph this session serves.
    pub fn layout(&self) -> &'g GraphLayout {
        self.layout
    }

    /// The platform every query runs on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The session-lifetime options (graph/partitioning/compression knobs).
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// The shared compressed topology, if compression is armed.
    pub(crate) fn compression(&self) -> Option<Arc<ShardCompression>> {
        self.comp.clone()
    }

    /// Number of distinct partition plans materialized so far.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    /// The session's partition plan for a program byte model, computed on
    /// first use and cached: `plan_partition_with` is pure and every input
    /// besides `sizes` is session-constant.
    pub fn partition_plan(&self, sizes: &SizeModel) -> Result<PartitionPlan, PlanError> {
        self.plan_cached(
            sizes,
            self.opts.concurrent_shards,
            self.opts.num_shards,
            false,
        )
    }

    /// The multi-GPU orchestrator's plan shape: per-device concurrency 2,
    /// organic shard count, default partition logic (what
    /// [`crate::multi::MultiGraphReduce`] has always planned with).
    pub(crate) fn multi_partition_plan(
        &self,
        sizes: &SizeModel,
    ) -> Result<PartitionPlan, PlanError> {
        self.plan_cached(sizes, 2, None, true)
    }

    fn plan_cached(
        &self,
        sizes: &SizeModel,
        requested_k: u32,
        override_p: Option<usize>,
        default_logic: bool,
    ) -> Result<PartitionPlan, PlanError> {
        let key = (*sizes, requested_k, override_p, default_logic);
        if let Some((_, plan)) = self.plans.lock().unwrap().iter().find(|(k, _)| *k == key) {
            return Ok(plan.clone());
        }
        let plan = if default_logic {
            crate::sizes::plan_partition(
                self.layout,
                sizes,
                &self.platform.device,
                &self.platform.pcie,
                requested_k,
                override_p,
            )?
        } else {
            crate::sizes::plan_partition_with(
                self.layout,
                sizes,
                &self.platform.device,
                &self.platform.pcie,
                requested_k,
                override_p,
                &*self.opts.partition_logic,
            )?
        };
        self.plans.lock().unwrap().push((key, plan.clone()));
        Ok(plan)
    }

    /// Start a query for `program` against this session. The returned
    /// builder carries the query-lifetime state; [`Query::run`] executes.
    pub fn query<'q, P: GasProgram>(&'q self, program: &'q P) -> Query<'q, 'g, P> {
        Query {
            session: self,
            program,
            opts: self.opts.clone(),
            observer: Observer::disabled(),
            wall: WallProfiler::disarmed(),
            warm: None,
            lane: None,
        }
    }
}

/// One query's execution builder: algorithm program, warm/resume state,
/// observability hooks, and query-scoped policy overrides, borrowing the
/// graph-lifetime state from a [`GraphSession`].
pub struct Query<'q, 'g, P: GasProgram> {
    session: &'q GraphSession<'g>,
    program: &'q P,
    opts: Options,
    observer: Observer,
    wall: WallProfiler,
    warm: Option<WarmStart<P>>,
    lane: Option<String>,
}

impl<'q, 'g, P: GasProgram> Query<'q, 'g, P> {
    /// Attach a [`gr_observe::Observer`] for this query's spans, decisions
    /// and metric snapshots.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Attach a wall-clock profiler (armed or disarmed) for this query.
    pub fn with_wall_profiler(mut self, wall: WallProfiler) -> Self {
        self.wall = wall;
        self
    }

    /// Seed the query from a previous run's vertex values (incremental
    /// processing over a mutated graph) — see [`WarmStart`].
    pub fn warm(mut self, warm: WarmStart<P>) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Prefix this query's device-op observability lanes (e.g. `"q3/"`) so
    /// concurrent queries over one session demultiplex in the decision/span
    /// log — the serving layer's per-query lane.
    pub fn with_lane(mut self, lane: impl Into<String>) -> Self {
        self.lane = Some(lane.into());
        self
    }

    /// Query-scoped fault-injection plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.opts.fault_plan = plan;
        self
    }

    /// Query-scoped recovery policy.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.opts.recovery = policy;
        self
    }

    /// Query-scoped checkpoint policy.
    pub fn with_checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.opts.checkpoint_policy = policy;
        self
    }

    /// Query-scoped host-kernel selection.
    pub fn with_host_kernels(mut self, kernels: HostKernels) -> Self {
        self.opts.host_kernels = kernels;
        self
    }

    /// Query-scoped device-memory cap (exercises the runtime governor).
    pub fn with_mem_cap(mut self, bytes: u64) -> Self {
        self.opts.mem_cap = Some(bytes);
        self
    }

    /// Execute to convergence; returns final state and statistics.
    pub fn run(self) -> Result<RunResult<P>, EngineError> {
        self.run_inner(None)
    }

    /// Resume a killed or interrupted run from the newest intact durable
    /// snapshot in `dir` — same contract as
    /// [`GraphReduce::resume`](crate::GraphReduce::resume).
    pub fn resume(self, dir: impl AsRef<std::path::Path>) -> Result<RunResult<P>, EngineError> {
        let fp = crate::snapshot::fingerprint_for(self.program, self.session.layout);
        let restored = crate::snapshot::load_newest::<P>(dir.as_ref(), &fp)?;
        self.run_inner(Some(restored))
    }

    fn run_inner(
        self,
        restored: Option<crate::snapshot::Restored<P>>,
    ) -> Result<RunResult<P>, EngineError> {
        let sizes = SizeModel::for_program(self.program);
        let plan = self.session.partition_plan(&sizes)?;
        Runner::new(
            self.program,
            self.session.layout,
            &self.session.platform,
            &self.opts,
            sizes,
            plan,
            self.warm,
            restored,
            self.observer,
            self.wall,
            self.session.compression(),
            self.lane,
        )?
        .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testprog::{Bfs, Cc};
    use gr_graph::gen;

    fn small_graph() -> GraphLayout {
        GraphLayout::build(&gen::uniform(512, 4096, 3).symmetrize())
    }

    #[test]
    fn session_queries_match_facade_runs() {
        let layout = small_graph();
        let plat = Platform::paper_node_scaled(16384);
        let session = GraphSession::new(&layout, plat.clone(), Options::optimized());
        let via_session = session.query(&Cc).run().unwrap();
        let via_facade = crate::GraphReduce::new(Cc, &layout, plat, Options::optimized())
            .run()
            .unwrap();
        assert_eq!(via_session.vertex_values, via_facade.vertex_values);
        assert_eq!(
            via_session.stats.to_string(),
            via_facade.stats.to_string(),
            "session and facade runs must be indistinguishable"
        );
    }

    #[test]
    fn plan_cache_is_shared_across_same_shape_queries() {
        let layout = small_graph();
        let session = GraphSession::new(
            &layout,
            Platform::paper_node_scaled(16384),
            Options::optimized(),
        );
        let a = session.query(&Bfs(0)).run().unwrap();
        assert_eq!(session.cached_plans(), 1);
        let b = session.query(&Bfs(0)).run().unwrap();
        // Same byte model: one plan serves both queries.
        assert_eq!(session.cached_plans(), 1);
        assert_eq!(a.vertex_values, b.vertex_values);
        // A different byte model (CC gathers) plans separately.
        session.query(&Cc).run().unwrap();
        assert_eq!(session.cached_plans(), 2);
    }

    #[test]
    fn queries_with_distinct_sources_share_one_session() {
        let layout = small_graph();
        let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
        for src in [0u32, 17, 400] {
            let got = session.query(&Bfs(src)).run().unwrap();
            let want = crate::GraphReduce::new(
                Bfs(src),
                &layout,
                Platform::paper_node(),
                Options::optimized(),
            )
            .run()
            .unwrap();
            assert_eq!(got.vertex_values, want.vertex_values, "source {src}");
        }
        assert_eq!(session.cached_plans(), 1);
    }

    #[test]
    fn query_scoped_mem_cap_governs_without_touching_session_plan() {
        let layout = small_graph();
        let session = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
        let free = session.query(&Cc).run().unwrap();
        let capped = session.query(&Cc).with_mem_cap(96 * 1024).run().unwrap();
        assert_eq!(free.vertex_values, capped.vertex_values);
        assert!(
            capped.stats.governor_decisions() > 0,
            "cap must engage the governor"
        );
        // The optimistic partition plan is shared; only the governed
        // per-query exec plan differs.
        assert_eq!(session.cached_plans(), 1);
    }
}
