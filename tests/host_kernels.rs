//! Differential tests for the sparse/dense/serial/parallel host kernels.
//!
//! The contract under test: every [`HostKernels`] mode — and the threaded
//! paths inside them — produces **bit-identical** results and identical
//! `ShardWork` counts. `Serial` is the oracle (the pre-adaptive reference
//! kernels); `Dense`, `Sparse`, and `Adaptive` must match it exactly, at
//! phase level (fixed frontier densities from 0.1% to 100%) and across
//! whole engine runs for all four evaluated algorithms.

use gr_algorithms::{Bfs, Cc, PageRank, Sssp};
use gr_graph::{
    build_shards, gen, Bitmap, CompressedTopology, CompressionCodec, EdgeList, GraphLayout,
    Interval, Shard, TopoView,
};
use gr_observe::{export, Observer};
use gr_sim::Platform;
use graphreduce::phases::{
    activate_pull, activate_shard, apply_shard, gather_shard, scatter_shard,
};
use graphreduce::{GasProgram, GraphReduce, HostKernels, Options};

/// Force a multi-thread worker pool so the parallel dense paths (and the
/// cross-shard engine fan-out) actually run threaded even on single-CPU
/// machines. Every test in this binary wants the same value, so a
/// process-wide set-once is race-free.
fn force_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

const DENSITIES: [f64; 4] = [0.001, 0.01, 0.5, 1.0];

/// Deterministic pseudo-random frontier at roughly `density` (always at
/// least one active vertex, so every phase has work).
fn random_frontier(n: u32, density: f64, seed: u64) -> Bitmap {
    if density >= 1.0 {
        return Bitmap::full(n);
    }
    let mut b = Bitmap::new(n);
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let thresh = (density * f64::from(u32::MAX)) as u64;
    for v in 0..n {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (s >> 32) < thresh {
            b.set(v);
        }
    }
    if b.count() == 0 && n > 0 {
        b.set(seed as u32 % n);
    }
    b
}

/// Everything one GAS iteration produces, phase by phase.
#[derive(Debug, PartialEq)]
struct PhaseOutcome<V, E, G> {
    gather: Vec<(u64, u64)>,
    changed_ids: Vec<Vec<u32>>,
    scattered: Vec<u64>,
    activate: Vec<(u64, u64)>,
    values: Vec<V>,
    edge_values: Vec<E>,
    gather_temp: Vec<G>,
    next_frontier: Vec<u32>,
}

/// Run one full GAS iteration under `mode` from freshly initialized state.
fn run_phases<P: GasProgram>(
    program: &P,
    layout: &GraphLayout,
    shards: &[Shard],
    frontier: &Bitmap,
    mode: HostKernels,
) -> PhaseOutcome<P::VertexValue, P::EdgeValue, P::Gather> {
    let n = layout.num_vertices();
    let mut values: Vec<P::VertexValue> = (0..n)
        .map(|v| program.init_vertex(v, layout.csr.degree(v) as u32))
        .collect();
    let mut edge_values = vec![P::EdgeValue::default(); layout.num_edges() as usize];
    let mut gather_temp = vec![program.gather_identity(); n as usize];

    let mut gather = Vec::new();
    if program.has_gather() {
        for sh in shards {
            let (lo, hi) = (sh.interval.start as usize, sh.interval.end as usize);
            // Split per shard so slices mirror the engine's carve-up.
            let slice = &mut gather_temp[lo..hi];
            gather.push(gather_shard(
                program,
                TopoView::raw(layout),
                sh,
                &values,
                &edge_values,
                &layout.weights,
                frontier,
                slice,
                mode,
            ));
        }
    }

    let mut changed_ids = Vec::new();
    let mut changed = Bitmap::new(n);
    for sh in shards {
        let (lo, hi) = (sh.interval.start as usize, sh.interval.end as usize);
        let ids = apply_shard(
            program,
            sh,
            &mut values[lo..hi],
            &gather_temp[lo..hi],
            frontier,
            0,
            mode,
        );
        for &v in &ids {
            changed.set(v);
        }
        changed_ids.push(ids);
    }

    // Scatter is exercised unconditionally: even with a no-op scatter
    // function the sparse/dense/parallel iteration machinery (and its
    // work count) must agree across modes.
    let scattered = shards
        .iter()
        .map(|sh| {
            scatter_shard(
                program,
                TopoView::raw(layout),
                sh,
                &values,
                &mut edge_values,
                &changed,
                mode,
            )
        })
        .collect();

    let mut next = Bitmap::new(n);
    let activate = shards
        .iter()
        .map(|sh| activate_shard(TopoView::raw(layout), sh, &changed, &mut next, mode))
        .collect();

    PhaseOutcome {
        gather,
        changed_ids,
        scattered,
        activate,
        values,
        edge_values,
        gather_temp,
        next_frontier: next.iter_set().collect(),
    }
}

fn phase_graph() -> (GraphLayout, Vec<Shard>) {
    // Big enough that the dense parallel paths actually split (>4096 per
    // shard), with weights so SSSP has real distances.
    let el = gen::with_random_weights(gen::uniform(20_000, 120_000, 7), 1.0, 8).symmetrize();
    let layout = GraphLayout::build(&el);
    let shards = build_shards(
        &layout,
        &[
            Interval {
                start: 0,
                end: 9_000,
            },
            Interval {
                start: 9_000,
                end: 20_000,
            },
        ],
    );
    (layout, shards)
}

fn assert_phases_agree<P: GasProgram>(program: P)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
    P::Gather: PartialEq + std::fmt::Debug,
{
    force_threads();
    let (layout, shards) = phase_graph();
    for (di, &density) in DENSITIES.iter().enumerate() {
        let frontier = random_frontier(layout.num_vertices(), density, 11 + di as u64);
        let oracle = run_phases(&program, &layout, &shards, &frontier, HostKernels::Serial);
        assert!(
            oracle.gather.iter().map(|g| g.0).sum::<u64>() > 0 || !program.has_gather(),
            "density {density} frontier produced no gather work"
        );
        for mode in [
            HostKernels::Dense,
            HostKernels::Sparse,
            HostKernels::Adaptive,
        ] {
            let got = run_phases(&program, &layout, &shards, &frontier, mode);
            assert_eq!(
                got,
                oracle,
                "{} differs from Serial under {mode:?} at density {density}",
                program.name()
            );
        }
    }
}

#[test]
fn bfs_phases_agree_across_modes_and_densities() {
    assert_phases_agree(Bfs::new(0));
}

#[test]
fn sssp_phases_agree_across_modes_and_densities() {
    assert_phases_agree(Sssp::new(0));
}

#[test]
fn pagerank_phases_agree_across_modes_and_densities() {
    assert_phases_agree(PageRank::default());
}

#[test]
fn cc_phases_agree_across_modes_and_densities() {
    assert_phases_agree(Cc);
}

// ---------------------------------------------------------------------------
// Whole-run agreement: every mode, multi-shard engine, threaded fan-out.
// ---------------------------------------------------------------------------

fn engine_graph() -> GraphLayout {
    GraphLayout::build(
        &gen::with_random_weights(gen::rmat_g500(12, 40_000, 5), 1.0, 6).symmetrize(),
    )
}

fn assert_runs_agree<P: GasProgram + Clone>(program: P)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
{
    force_threads();
    let layout = engine_graph();
    // Scaled-down device: the run streams multiple shards, so the engine's
    // cross-shard parallel fan-out engages alongside the kernel modes.
    let plat = Platform::paper_node_scaled(8_192);
    let oracle = GraphReduce::new(
        program.clone(),
        &layout,
        plat.clone(),
        Options::optimized().with_host_kernels(HostKernels::Serial),
    )
    .run()
    .unwrap();
    assert!(
        oracle.stats.num_shards > 1,
        "setup must stream multiple shards"
    );
    for mode in [
        HostKernels::Dense,
        HostKernels::Sparse,
        HostKernels::Adaptive,
    ] {
        let got = GraphReduce::new(
            program.clone(),
            &layout,
            plat.clone(),
            Options::optimized().with_host_kernels(mode),
        )
        .run()
        .unwrap();
        assert_eq!(got.vertex_values, oracle.vertex_values, "{mode:?}");
        assert_eq!(got.edge_values, oracle.edge_values, "{mode:?}");
        // Identical ShardWork counts ⇒ identical simulated timeline.
        assert_eq!(
            got.stats.per_iteration, oracle.stats.per_iteration,
            "{mode:?}"
        );
        assert_eq!(got.stats.elapsed, oracle.stats.elapsed, "{mode:?}");
        assert_eq!(got.stats.bytes_h2d, oracle.stats.bytes_h2d, "{mode:?}");
        assert_eq!(
            got.stats.kernel_launches, oracle.stats.kernel_launches,
            "{mode:?}"
        );
    }
}

#[test]
fn bfs_runs_agree_across_modes() {
    assert_runs_agree(Bfs::new(0));
}

#[test]
fn sssp_runs_agree_across_modes() {
    assert_runs_agree(Sssp::new(0));
}

#[test]
fn pagerank_runs_agree_across_modes() {
    assert_runs_agree(PageRank::default());
}

#[test]
fn cc_runs_agree_across_modes() {
    assert_runs_agree(Cc);
}

// ---------------------------------------------------------------------------
// Push vs pull activation, and bit-identity across pool widths, on a
// directed multigraph: pull reads the CSC and push the CSR, so only a
// non-symmetric graph can tell a transposed read from a correct one.
// ---------------------------------------------------------------------------

/// Directed R-MAT plus explicit self-loops and parallel edges, and 64
/// trailing vertices with no edge at all.
fn directed_multigraph() -> GraphLayout {
    let base = gen::rmat_g500(12, 30_000, 9);
    let n = base.num_vertices;
    let mut edges = base.edges;
    for v in (0..n).step_by(97) {
        let dst = (v * 7 + 1) % n;
        edges.extend([(v, v), (v, dst), (v, dst)]);
    }
    let el = gen::with_random_weights(EdgeList::from_edges(n + 64, edges), 1.0, 4);
    let layout = GraphLayout::build(&el);
    let csr = &layout.csr;
    assert!(
        (0..n).any(|v| csr.entries(v).any(|(d, _)| d == v)),
        "self-loop"
    );
    assert!((n..n + 64).all(|v| csr.degree(v) == 0 && layout.csc.degree(v) == 0));
    assert!(
        (0..n).any(|v| csr.degree(v) != layout.csc.degree(v)),
        "the graph must not be symmetric"
    );
    layout
}

/// Shards with boundaries that are not multiples of 64.
fn odd_shards(layout: &GraphLayout) -> Vec<Shard> {
    let n = layout.num_vertices();
    let cuts = [0, 1_000, 2_501, 2_502, n];
    let intervals: Vec<Interval> = cuts
        .windows(2)
        .map(|w| Interval {
            start: w[0],
            end: w[1],
        })
        .collect();
    build_shards(layout, &intervals)
}

#[test]
fn pull_and_push_activation_agree_with_the_serial_oracle() {
    let layout = directed_multigraph();
    let shards = odd_shards(&layout);
    let n = layout.num_vertices();
    let comp = CompressedTopology::build(&layout, CompressionCodec::Zeta(3));
    for view in [TopoView::raw(&layout), TopoView::compressed(&layout, &comp)] {
        for (di, &density) in DENSITIES.iter().enumerate() {
            let changed = random_frontier(n, density, 23 + di as u64);
            let push = |mode: HostKernels| {
                let mut next = Bitmap::new(n);
                let walked: u64 = shards
                    .iter()
                    .map(|sh| activate_shard(view, sh, &changed, &mut next, mode).0)
                    .sum();
                (walked, next)
            };
            let (walked, oracle) = push(HostKernels::Serial);
            let push_work: u64 = changed.iter_set().map(|v| layout.csr.degree(v)).sum();
            assert_eq!(walked, push_work, "push work is the changed out-degree");
            assert_eq!(push(HostKernels::Sparse), (walked, oracle.clone()));

            // Pull over word-aligned ranges, whole and split.
            for cuts in [vec![0, n], vec![0, 64, 1_024, 2_560, n]] {
                let mut pulled = Bitmap::new(n);
                pulled.update_words(|words| {
                    for r in cuts.windows(2) {
                        let (lo, hi) = (r[0], r[1]);
                        let w = &mut words[lo as usize / 64..(hi as usize).div_ceil(64)];
                        activate_pull(view, &changed, lo, hi, w);
                    }
                });
                assert_eq!(
                    pulled,
                    oracle,
                    "pull != push at density {density} (compressed: {}, cuts {cuts:?})",
                    view.is_compressed()
                );
            }
        }
    }
}

/// Run `program` on the directed multigraph in `width`-thread pools and
/// return everything a run exposes: vertex and edge state, the iteration
/// trace (incl. `activated`), and the recorded device timeline, whose
/// per-shard kernel spans are priced from each shard's `ShardWork`.
fn run_at_width<P: GasProgram + Clone + Send>(
    program: &P,
    layout: &GraphLayout,
    opts: &Options,
    width: usize,
) -> (Vec<P::VertexValue>, Vec<P::EdgeValue>, String, String)
where
    P::VertexValue: Send,
    P::EdgeValue: Send,
{
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap();
    pool.install(|| {
        let (observer, sink) = Observer::recording();
        let out = GraphReduce::new(
            program.clone(),
            layout,
            Platform::paper_node_scaled(8_192),
            opts.clone(),
        )
        .with_observer(observer)
        .run()
        .unwrap();
        assert!(out.stats.num_shards > 1, "the run must stream shards");
        (
            out.vertex_values,
            out.edge_values,
            format!("{:?}", out.stats.per_iteration),
            export::jsonl(&sink.recorded()),
        )
    })
}

fn assert_widths_agree<P: GasProgram + Clone + Send>(program: P)
where
    P::VertexValue: PartialEq + std::fmt::Debug + Send,
    P::EdgeValue: PartialEq + std::fmt::Debug + Send,
{
    let layout = directed_multigraph();
    for opts in [
        Options::optimized(),
        Options::optimized().with_shard_compression(CompressionCodec::Zeta(3)),
    ] {
        let oracle = run_at_width(&program, &layout, &opts, 1);
        for width in [2, 4] {
            let got = run_at_width(&program, &layout, &opts, width);
            assert!(
                got == oracle,
                "{} at width {width} differs from width 1 (compression {:?})",
                program.name(),
                opts.shard_compression
            );
        }
    }
}

#[test]
fn bfs_runs_are_bit_identical_across_widths() {
    assert_widths_agree(Bfs::new(0));
}

#[test]
fn sssp_runs_are_bit_identical_across_widths() {
    assert_widths_agree(Sssp::new(0));
}

#[test]
fn pagerank_runs_are_bit_identical_across_widths() {
    assert_widths_agree(PageRank::default());
}

#[test]
fn cc_runs_are_bit_identical_across_widths() {
    assert_widths_agree(Cc);
}
