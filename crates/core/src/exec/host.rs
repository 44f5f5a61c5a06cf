//! Host master state: the exact, eagerly computed results every run
//! produces regardless of what the virtual device timeline does. One per
//! run — the multi orchestrator shares this single copy across its
//! devices (vertex state is replicated, so host truth is global).
//!
//! This is the real-compute half of the driver layer: the BSP iteration
//! over the GAS phase kernels (`crates/core/src/phases.rs`). Each phase is
//! one fan-out over the host thread pool: every shard is cut into
//! edge-balanced vertex ranges (`plan_chunks`), pool threads claim them
//! dynamically, and per-chunk outputs merge in chunk order, so results
//! are bit-identical at any width. Each chunk runs inside a
//! `WallProfiler` scope keyed by (iteration, shard, phase, resolved
//! kernel shape), so armed runs attribute real milliseconds to the
//! Serial/Dense/Sparse/pull choices — disarmed, each scope is one branch
//! (see `gr-observe`'s overhead guard).

use gr_graph::{Bitmap, GraphLayout, Shard, TopoView};
use gr_observe::profiler::{WALL_ITERATION, WALL_NO_SHARD};
use gr_observe::{Decision, MetricsRegistry, Observer, WallKey, WallProfiler};
use rayon::prelude::*;

use crate::api::{GasProgram, InitialFrontier};
use crate::engine::WarmStart;
use crate::options::HostKernels;
use crate::phases::{
    activate_pull, activate_push_range, activates_by_pull, apply_range, atomic_words, gather_range,
    scatter_range, set_bit_atomic, Shape, ShardWork, SharedSliceMut,
};
use crate::stats::IterationStats;

/// One unit of a phase fan-out: the vertex range `[lo, hi)` of one shard.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    shard: usize,
    lo: u32,
    hi: u32,
}

/// Chunks per pool thread: enough that dynamic claiming evens out uneven
/// chunks, few enough that per-chunk bookkeeping stays negligible.
const CHUNKS_PER_THREAD: u64 = 4;

/// Smallest chunk worth handing to another thread, in work units
/// (vertices + in-edges + out-edges).
const MIN_CHUNK_WORK: u64 = 4096;

/// Cut every shard into chunks of about `1 / (width * CHUNKS_PER_THREAD)`
/// of the graph's work (vertices + in-edges + out-edges), at word-aligned
/// vertex ids inside a shard. At width 1 each shard is one chunk. The
/// chunks partition the vertex set in ascending order.
fn plan_chunks(layout: &GraphLayout, shards: &[Shard], width: usize) -> Vec<Chunk> {
    let work_before =
        |v: u32| u64::from(v) + layout.csc.offsets[v as usize] + layout.csr.offsets[v as usize];
    let target = if width <= 1 {
        u64::MAX
    } else {
        (work_before(layout.num_vertices()) / (width as u64 * CHUNKS_PER_THREAD))
            .max(MIN_CHUNK_WORK)
    };
    let mut chunks = Vec::with_capacity(shards.len());
    for (shard, sh) in shards.iter().enumerate() {
        let end = sh.interval.end;
        let mut lo = sh.interval.start;
        while lo < end {
            let goal = work_before(lo).saturating_add(target);
            let mut hi = end;
            if goal < work_before(end) {
                // First vertex whose prefix work reaches the goal, rounded
                // up to a word boundary (so `hi > lo`).
                let (mut a, mut b) = (lo + 1, end);
                while a < b {
                    let m = a + (b - a) / 2;
                    if work_before(m) >= goal {
                        b = m;
                    } else {
                        a = m + 1;
                    }
                }
                hi = a.checked_next_multiple_of(64).map_or(end, |h| h.min(end));
            }
            chunks.push(Chunk { shard, lo, hi });
            lo = hi;
        }
    }
    chunks
}

/// Split `data` into the disjoint sub-slices `[lo, hi)` of ascending,
/// non-overlapping ranges.
fn carve<T>(mut data: &mut [T], ranges: impl Iterator<Item = (usize, usize)>) -> Vec<&mut [T]> {
    let mut offset = 0;
    ranges
        .map(|(lo, hi)| {
            let (_, rest) = std::mem::take(&mut data).split_at_mut(lo - offset);
            let (mine, rest) = rest.split_at_mut(hi - lo);
            data = rest;
            offset = hi;
            mine
        })
        .collect()
}

/// Run `f` on every item, one pool task each (on this thread when
/// `inline`); results in item order.
fn fan_out<T: Send, R: Send>(inline: bool, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    if inline {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    slots
        .par_iter_mut()
        .with_max_len(1)
        .map(|slot| f(slot.take().expect("each slot is claimed once")))
        .collect()
}

/// Everything `compute_iteration` mutates, including the full iteration
/// trace. One type serves as the live state, the in-memory rollback
/// checkpoint (a clone taken at the iteration boundary; restoring it
/// drops the stats of replayed iterations), and what a durable snapshot
/// encodes and restores.
pub(crate) struct HostState<P: GasProgram> {
    pub(crate) vertex_values: Vec<P::VertexValue>,
    pub(crate) edge_values: Vec<P::EdgeValue>,
    pub(crate) gather_temp: Vec<P::Gather>,
    pub(crate) frontier: Bitmap,
    pub(crate) changed: Bitmap,
    pub(crate) next_frontier: Bitmap,
    pub(crate) iterations: Vec<IterationStats>,
}

impl<P: GasProgram> HostState<P> {
    /// Cold start: `init_vertex` everywhere, frontier from the program.
    pub(crate) fn cold(program: &P, layout: &GraphLayout) -> Self {
        let n = layout.num_vertices();
        let values = (0..n)
            .map(|v| program.init_vertex(v, layout.csr.degree(v) as u32))
            .collect();
        let frontier = match program.initial_frontier() {
            InitialFrontier::All => Bitmap::full(n),
            InitialFrontier::Single(v) => {
                let mut b = Bitmap::new(n);
                if n > 0 {
                    b.set(v);
                }
                b
            }
        };
        Self::with_frontier(program, layout, values, frontier)
    }

    /// Warm start: carry a previous run's vertex values (padded with
    /// `init_vertex` for added vertices), seed the frontier explicitly.
    pub(crate) fn warm(program: &P, layout: &GraphLayout, w: WarmStart<P>) -> Self {
        let n = layout.num_vertices();
        let mut values = w.vertex_values;
        assert!(
            values.len() <= n as usize,
            "warm-start values exceed the vertex set"
        );
        for v in values.len() as u32..n {
            values.push(program.init_vertex(v, layout.csr.degree(v) as u32));
        }
        let mut b = Bitmap::new(n);
        for v in w.frontier {
            b.set(v);
        }
        Self::with_frontier(program, layout, values, b)
    }

    fn with_frontier(
        program: &P,
        layout: &GraphLayout,
        vertex_values: Vec<P::VertexValue>,
        frontier: Bitmap,
    ) -> Self {
        let n = layout.num_vertices();
        HostState {
            vertex_values,
            edge_values: vec![P::EdgeValue::default(); layout.num_edges() as usize],
            gather_temp: vec![program.gather_identity(); n as usize],
            frontier,
            changed: Bitmap::new(n),
            next_frontier: Bitmap::new(n),
            iterations: Vec::new(),
        }
    }

    /// One exact BSP iteration: Gather over all shards, Apply, Scatter,
    /// FrontierActivate, each phase one fan-out over edge-balanced chunks
    /// whose outputs merge in chunk order, so results are bit-identical at
    /// every pool width (`HostKernels::Serial` runs one chunk per shard on
    /// the calling thread: the oracle). Pushes this iteration's
    /// [`IterationStats`] and logs one [`Decision::ShardSkip`] per inactive
    /// shard (when frontier management is on — one decision == one shard
    /// counted skipped).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compute_iteration(
        &mut self,
        program: &P,
        view: TopoView<'_>,
        shards: &[Shard],
        mode: HostKernels,
        frontier_management: bool,
        iter: u32,
        observer: &Observer,
        metrics: &mut MetricsRegistry,
        wall: &WallProfiler,
    ) -> Vec<ShardWork> {
        let _iter_scope = wall.scope(|| WallKey {
            iteration: iter,
            shard: WALL_NO_SHARD,
            phase: WALL_ITERATION,
            shape: "",
        });
        let layout = view.layout();
        let n = layout.num_vertices();
        let frontier_size = self.frontier.count();
        self.changed.clear_all();
        self.next_frontier.clear_all();
        // The oracle (`Serial`) and a 1-wide pool run every chunk here.
        let width = match mode {
            HostKernels::Serial => 1,
            _ => rayon::current_num_threads(),
        };
        let inline = width == 1;
        let chunks = plan_chunks(layout, shards, width);
        let ranges = || chunks.iter().map(|c| (c.lo as usize, c.hi as usize));
        let shapes = |bits: &Bitmap| -> Vec<Shape> {
            shards.iter().map(|sh| Shape::of(mode, bits, sh)).collect()
        };
        let key = |c: &Chunk, phase: &'static str, shape: &'static str| WallKey {
            iteration: iter,
            shard: c.shard as u32,
            phase,
            shape,
        };
        let mut work = vec![ShardWork::default(); shards.len()];
        for (w, sh) in work.iter_mut().zip(shards) {
            w.active_vertices = self
                .frontier
                .count_range(sh.interval.start, sh.interval.end);
        }

        // Gather (all shards, before any apply — BSP).
        if program.has_gather() {
            let shape = shapes(&self.frontier);
            let (values, edges, frontier) =
                (&self.vertex_values, &self.edge_values, &self.frontier);
            let items = chunks.iter().zip(carve(&mut self.gather_temp, ranges()));
            let counts = fan_out(inline, items.collect(), |(c, out)| {
                let s = shape[c.shard];
                let _w = wall.scope(|| key(c, "gather", s.name()));
                let w = &layout.weights;
                gather_range(program, view, s, c.lo, values, edges, w, frontier, out)
            });
            for (c, in_edges) in chunks.iter().zip(counts) {
                work[c.shard].active_in_edges += in_edges;
            }
        }

        // Apply. Each chunk also sums the out-degrees of its changed
        // vertices: the push work of scatter and FrontierActivate.
        let shape = shapes(&self.frontier);
        let (gather_temp, frontier) = (&self.gather_temp, &self.frontier);
        let items = chunks.iter().zip(carve(&mut self.vertex_values, ranges()));
        let changes = fan_out(inline, items.collect(), |(c, values)| {
            let s = shape[c.shard];
            let _w = wall.scope(|| key(c, "apply", s.name()));
            let (mut ids, mut out_edges) = (Vec::new(), 0);
            let temp = &gather_temp[c.lo as usize..c.hi as usize];
            apply_range(program, s, c.lo, values, temp, frontier, iter, |v| {
                ids.push(v);
                out_edges += layout.csr.degree(v);
            });
            (ids, out_edges)
        });
        for (c, (ids, out_edges)) in chunks.iter().zip(changes) {
            work[c.shard].changed_vertices += ids.len() as u64;
            work[c.shard].out_edges_of_changed += out_edges;
            for v in ids {
                self.changed.set(v);
            }
        }

        // Scatter (only when defined): chunks cover disjoint source
        // ranges, whose out-edges carry disjoint canonical edge ids.
        if program.has_scatter() {
            let shape = shapes(&self.changed);
            let (values, changed) = (&self.vertex_values, &self.changed);
            let edges = SharedSliceMut::new(&mut self.edge_values);
            fan_out(inline, chunks.iter().collect(), |c| {
                let s = shape[c.shard];
                let _w = wall.scope(|| key(c, "scatter", s.name()));
                // SAFETY: the chunks' source ranges are disjoint.
                unsafe { scatter_range(program, view, s, c.lo, c.hi, values, &edges, changed) };
            });
        }

        // FrontierActivate (always; framework-generated). Pull chunks own
        // the word-aligned destination ranges their bounds round up to;
        // push chunks OR into shared words atomically. Either way the
        // activation count is the fresh frontier's popcount.
        let push_work: u64 = work.iter().map(|w| w.out_edges_of_changed).sum();
        let changed = &self.changed;
        if push_work > 0 && activates_by_pull(mode, push_work, layout.num_edges()) {
            let align = |v: u32| v.checked_next_multiple_of(64).map_or(n, |a| a.min(n));
            let pulls: Vec<(&Chunk, u32, u32)> = chunks
                .iter()
                .map(|c| (c, align(c.lo), align(c.hi)))
                .filter(|&(_, lo, hi)| lo < hi)
                .collect();
            let word_ranges = pulls
                .iter()
                .map(|&(_, lo, hi)| (lo as usize / 64, hi.div_ceil(64) as usize));
            self.next_frontier.update_words(|words| {
                let items = pulls.iter().zip(carve(words, word_ranges));
                fan_out(inline, items.collect(), |(&(c, lo, hi), words)| {
                    let _w = wall.scope(|| key(c, "activate", "pull"));
                    activate_pull(view, changed, lo, hi, words);
                });
            });
        } else if push_work > 0 {
            let shape = shapes(changed);
            self.next_frontier.update_words(|words| {
                let next = atomic_words(words);
                fan_out(inline, chunks.iter().collect(), |c| {
                    let s = shape[c.shard];
                    let _w = wall.scope(|| key(c, "activate", s.name()));
                    activate_push_range(view, s, c.lo, c.hi, changed, |v| set_bit_atomic(next, v));
                });
            });
        }

        let processed = if frontier_management {
            // Log one skip decision per inactive shard: the engine
            // inspected the shard's slice of the frontier bitmap and
            // found no active vertex, so the whole shard is elided
            // this iteration. One decision == one shard counted in
            // `shards_skipped`.
            for (i, sh) in shards.iter().enumerate() {
                if !work[i].is_active() {
                    let active = work[i].active_vertices;
                    observer.decision(|| Decision::ShardSkip {
                        iteration: iter,
                        shard: i as u32,
                        interval_bits: sh.interval.len() as u64,
                        active_bits: active,
                    });
                }
            }
            work.iter().filter(|w| w.is_active()).count() as u32
        } else {
            shards.len() as u32
        };
        metrics.observe("engine.frontier_size", frontier_size);
        metrics.observe("engine.active_shards", processed as u64);
        self.iterations.push(IterationStats {
            frontier_size,
            gathered_edges: work.iter().map(|w| w.active_in_edges).sum(),
            changed: self.changed.count(),
            activated: self.next_frontier.count(),
            shards_processed: processed,
            shards_skipped: shards.len() as u32 - processed,
        });
        work
    }

    /// Publish the next frontier (end of the BSP superstep).
    pub(crate) fn finish_iteration(&mut self) {
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
    }
}

/// Final state and per-iteration trace of [`run_to_convergence`].
pub struct HostRun<P: GasProgram> {
    pub vertex_values: Vec<P::VertexValue>,
    pub edge_values: Vec<P::EdgeValue>,
    pub iterations: Vec<IterationStats>,
    /// Per iteration: out-edges of the changed vertices (the push work of
    /// scatter and FrontierActivate).
    pub push_work: Vec<u64>,
}

/// Run `program` on `layout` to convergence from a cold start with the
/// engine's exact host iteration (every phase one chunked fan-out over
/// the current pool), without a device timeline or observation. The
/// baseline engines compute their results through this.
pub fn run_to_convergence<P: GasProgram>(
    program: &P,
    layout: &GraphLayout,
    shards: &[Shard],
    mode: HostKernels,
) -> HostRun<P> {
    let mut host = HostState::cold(program, layout);
    let (observer, wall) = (Observer::disabled(), WallProfiler::disarmed());
    let (mut metrics, mut push_work) = (MetricsRegistry::new(), Vec::new());
    let mut iter = 0;
    while iter < program.max_iterations() && host.frontier.count() > 0 {
        let work = host.compute_iteration(
            program,
            TopoView::raw(layout),
            shards,
            mode,
            false,
            iter,
            &observer,
            &mut metrics,
            &wall,
        );
        push_work.push(work.iter().map(|w| w.out_edges_of_changed).sum());
        host.finish_iteration();
        iter += 1;
    }
    HostRun {
        vertex_values: host.vertex_values,
        edge_values: host.edge_values,
        iterations: host.iterations,
        push_work,
    }
}

// Manual impl: a derive would demand `P: Clone` of the program itself.
impl<P: GasProgram> Clone for HostState<P> {
    fn clone(&self) -> Self {
        HostState {
            vertex_values: self.vertex_values.clone(),
            edge_values: self.edge_values.clone(),
            gather_temp: self.gather_temp.clone(),
            frontier: self.frontier.clone(),
            changed: self.changed.clone(),
            next_frontier: self.next_frontier.clone(),
            iterations: self.iterations.clone(),
        }
    }
}
