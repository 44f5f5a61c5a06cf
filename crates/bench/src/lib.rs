//! # gr-bench — harness regenerating every table and figure of the paper
//!
//! One binary per experiment (see DESIGN.md's experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — dataset inventory and in-/out-of-memory split |
//! | `table2` | Table 2 — X-Stream (CPU) vs CuSha (GPU) BFS motivation |
//! | `fig3`   | Figure 3 — frontier size vs iteration, four cases |
//! | `fig4`   | Figure 4 — explicit / pinned / managed transfer comparison |
//! | `fig5`   | Figure 5 — compute-transfer & compute-compute overlap (matmul) |
//! | `table3` | Table 3 + Figures 13/14 — GR vs GraphChi vs X-Stream |
//! | `table4` | Table 4 — GR vs MapGraph vs CuSha (in-memory) |
//! | `fig15`  | Figure 15 — memcpy time, optimized vs unoptimized GR |
//! | `fig16`  | Figure 16 — frontier dynamics on out-of-memory graphs |
//! | `fig17`  | Figure 17 — % iterations below half of peak frontier |
//! | `all`    | everything above, in order |
//!
//! All binaries accept `--scale N` (default 64): datasets and device
//! memory shrink by the same divisor, preserving the out-of-memory split
//! of Table 1. Absolute times are simulated-K20c virtual time, not
//! wall-clock; the paper-vs-measured comparison lives in EXPERIMENTS.md.

use std::sync::Arc;

use gr_baselines::{BaselineStats, CuSha, GraphChi, MapGraph, XStream};
use gr_graph::{Dataset, GraphLayout};
use gr_observe::WallProfile;
use gr_observe::{Observer, RecordingSink};
use gr_sim::{OutOfMemory, Platform, SimDuration};
use graphreduce::{EngineError, GraphReduce, GraphSession, Options, RunStats, WallProfiler};

pub mod matmul;
pub mod trajectory;

/// The four evaluated algorithms (Section 6.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algo {
    Bfs,
    Sssp,
    Pagerank,
    Cc,
}

impl Algo {
    pub const ALL: [Algo; 4] = [Algo::Bfs, Algo::Sssp, Algo::Pagerank, Algo::Cc];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "BFS",
            Algo::Sssp => "SSSP",
            Algo::Pagerank => "PageRank",
            Algo::Cc => "CC",
        }
    }
}

/// Parse `--scale N` (or `GR_SCALE`); default 64.
pub fn scale_from_args() -> u64 {
    scale_from_args_or(64)
}

/// Parse `--scale N` (or `GR_SCALE`) with an experiment-specific default.
/// The in-memory experiments (Tables 2 and 4) default to a finer scale
/// (16): their graphs are small to begin with, and over-shrinking them
/// leaves fixed per-iteration costs dominating both engines, compressing
/// the speedup spread the paper reports.
pub fn scale_from_args_or(default: u64) -> u64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|s| s.parse().ok()) {
                return v;
            }
        }
    }
    std::env::var("GR_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Build the layout an algorithm runs on: SSSP gets weights; CC gets a
/// symmetrized input (the paper stores undirected inputs as directed
/// pairs); BFS/PageRank run the directed graph as generated.
pub fn layout_for(ds: Dataset, algo: Algo, scale: u64) -> GraphLayout {
    let el = match algo {
        Algo::Sssp => ds.generate_weighted(scale),
        Algo::Cc => ds.generate(scale).symmetrize(),
        _ => ds.generate(scale),
    };
    GraphLayout::build(&el)
}

/// Traversal source: the max-out-degree vertex (a vertex that actually
/// reaches a large fraction of the graph, as the paper's BFS runs do).
pub fn default_source(layout: &GraphLayout) -> u32 {
    (0..layout.num_vertices())
        .max_by_key(|&v| layout.csr.degree(v))
        .unwrap_or(0)
}

/// PageRank configuration used across all engines/tables.
fn pagerank() -> gr_algorithms::PageRank {
    gr_algorithms::PageRank {
        damping: 0.85,
        epsilon: 1e-4,
        max_iters: 60,
    }
}

/// Run GraphReduce with `opts`; panics on planning failure (callers pick
/// platforms the plan fits).
pub fn run_gr(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
    opts: Options,
) -> Result<RunStats, EngineError> {
    run_gr_wall(
        algo,
        layout,
        platform,
        opts,
        Observer::disabled(),
        WallProfiler::disarmed(),
    )
}

/// [`run_gr`] with an [`Observer`] attached: spans, decisions, and
/// metrics flow to the observer's sink during the run.
pub fn run_gr_observed(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
    opts: Options,
    observer: Observer,
) -> Result<RunStats, EngineError> {
    run_gr_wall(
        algo,
        layout,
        platform,
        opts,
        observer,
        WallProfiler::disarmed(),
    )
}

/// The fully instrumented run: an [`Observer`] for the virtual timeline
/// and a [`WallProfiler`] for real host time. Pass the disabled/disarmed
/// handles to keep the zero-cost paths.
pub fn run_gr_wall(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
    opts: Options,
    observer: Observer,
    wall: WallProfiler,
) -> Result<RunStats, EngineError> {
    gr_with_resume(algo, layout, platform, opts, None, observer, wall)
}

/// [`run_gr_wall`], but resuming from the newest durable snapshot in
/// `dir` (see `GraphReduce::resume`) instead of starting cold.
pub fn resume_gr_wall(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
    opts: Options,
    dir: &std::path::Path,
    observer: Observer,
    wall: WallProfiler,
) -> Result<RunStats, EngineError> {
    gr_with_resume(algo, layout, platform, opts, Some(dir), observer, wall)
}

fn gr_result<P: graphreduce::GasProgram>(
    program: P,
    layout: &GraphLayout,
    platform: &Platform,
    opts: Options,
    resume_dir: Option<&std::path::Path>,
    observer: Observer,
    wall: WallProfiler,
) -> Result<RunStats, EngineError> {
    let gr = GraphReduce::new(program, layout, platform.clone(), opts)
        .with_observer(observer)
        .with_wall_profiler(wall);
    Ok(match resume_dir {
        Some(dir) => gr.resume(dir)?,
        None => gr.run()?,
    }
    .stats)
}

fn gr_with_resume(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
    opts: Options,
    resume_dir: Option<&std::path::Path>,
    observer: Observer,
    wall: WallProfiler,
) -> Result<RunStats, EngineError> {
    let src = default_source(layout);
    match algo {
        Algo::Bfs => gr_result(
            gr_algorithms::Bfs::new(src),
            layout,
            platform,
            opts,
            resume_dir,
            observer,
            wall,
        ),
        Algo::Sssp => gr_result(
            gr_algorithms::Sssp::new(src),
            layout,
            platform,
            opts,
            resume_dir,
            observer,
            wall,
        ),
        Algo::Pagerank => gr_result(
            pagerank(),
            layout,
            platform,
            opts,
            resume_dir,
            observer,
            wall,
        ),
        Algo::Cc => gr_result(
            gr_algorithms::Cc,
            layout,
            platform,
            opts,
            resume_dir,
            observer,
            wall,
        ),
    }
}

/// Run one algorithm as a query against an existing [`GraphSession`] —
/// the serving-path equivalent of [`run_gr_wall`]: same source choice,
/// same programs, but partitioning/compression are the session's, built
/// once and shared across every query.
pub fn run_session_gr(
    algo: Algo,
    session: &GraphSession<'_>,
    observer: Observer,
    wall: WallProfiler,
) -> Result<RunStats, EngineError> {
    let src = default_source(session.layout());
    fn query<P: graphreduce::GasProgram>(
        session: &GraphSession<'_>,
        prog: &P,
        observer: Observer,
        wall: WallProfiler,
    ) -> Result<RunStats, EngineError> {
        Ok(session
            .query(prog)
            .with_observer(observer)
            .with_wall_profiler(wall)
            .run()?
            .stats)
    }
    match algo {
        Algo::Bfs => query(session, &gr_algorithms::Bfs::new(src), observer, wall),
        Algo::Sssp => query(session, &gr_algorithms::Sssp::new(src), observer, wall),
        Algo::Pagerank => query(session, &pagerank(), observer, wall),
        Algo::Cc => query(session, &gr_algorithms::Cc, observer, wall),
    }
}

/// A layout every algorithm can run on: weighted (SSSP) and symmetrized
/// (CC), so one session serves the whole sweep.
pub fn session_layout_for(ds: Dataset, scale: u64) -> GraphLayout {
    GraphLayout::build(&ds.generate_weighted(scale).symmetrize())
}

/// Run all four algorithms against **one** shared session (layout and
/// platform loaded once), asserting each report is byte-identical to a
/// fresh pre-refactor-style `GraphReduce` construction on the same
/// layout. Returns the per-algorithm stats in [`Algo::ALL`] order.
pub fn run_session_all(
    layout: &GraphLayout,
    platform: &Platform,
    opts: &Options,
) -> Result<Vec<(Algo, RunStats)>, EngineError> {
    let session = GraphSession::new(layout, platform.clone(), opts.clone());
    let mut out = Vec::with_capacity(Algo::ALL.len());
    for algo in Algo::ALL {
        let stats = run_session_gr(
            algo,
            &session,
            Observer::disabled(),
            WallProfiler::disarmed(),
        )?;
        let standalone = run_gr(algo, layout, platform, opts.clone())?;
        assert_eq!(
            stats.to_string(),
            standalone.to_string(),
            "{} report diverged between the shared session and a dedicated GraphReduce",
            algo.name()
        );
        out.push((algo, stats));
    }
    Ok(out)
}

/// Pin the host worker-thread count for this process (`--threads N` on
/// the CLIs): fixes the width of the global host pool, which is read once
/// when the pool is created. Call it before any host kernel has run; a
/// pool that already exists keeps its width, and this says so on stderr.
/// For a width scoped to part of a process, use [`with_host_threads`].
pub fn set_host_threads(n: usize) {
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build_global()
    {
        eprintln!(
            "warning: --threads {n} ignored ({e}); running on {} thread(s)",
            rayon::current_num_threads()
        );
    }
}

/// Run `f` with the host kernels on a pool of exactly `n` threads, then
/// restore the process-wide pool (the `wallclock` thread sweep).
pub fn with_host_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build()
        .expect("spawn a host thread pool")
        .install(f)
}

/// The thread count parallel host kernels will actually fan out to: the
/// pool [`with_host_threads`] selected, else the process-wide pool
/// (`--threads`, `RAYON_NUM_THREADS`, or the machine's available
/// parallelism). This is what benchmark reports must record.
pub fn effective_host_threads() -> usize {
    rayon::current_num_threads()
}

/// Value of `--<name> <value>` anywhere on the command line.
pub fn flag_value(name: &str) -> Option<String> {
    let mut it = std::env::args();
    while let Some(a) = it.next() {
        if a == name {
            return it.next();
        }
    }
    None
}

/// `--report <path>` / `--trace <path>` wiring shared by the bench
/// binaries and examples: hands out an [`Observer`] (recording only
/// when an artifact was requested — otherwise the engine keeps the
/// zero-cost disabled path), then writes the requested files from the
/// capture after the run.
pub struct RunArtifacts {
    pub report_path: Option<String>,
    pub trace_path: Option<String>,
    sink: Option<Arc<RecordingSink>>,
    observer: Observer,
}

impl RunArtifacts {
    /// Parse `--report` and `--trace` from the process arguments.
    pub fn from_env() -> Self {
        Self::from_paths(flag_value("--report"), flag_value("--trace"))
    }

    pub fn from_paths(report_path: Option<String>, trace_path: Option<String>) -> Self {
        let (observer, sink) = if report_path.is_some() || trace_path.is_some() {
            let (obs, sink) = Observer::recording();
            (obs, Some(sink))
        } else {
            (Observer::disabled(), None)
        };
        RunArtifacts {
            report_path,
            trace_path,
            sink,
            observer,
        }
    }

    /// True when any artifact was requested.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The observer to attach to the run (disabled when no artifact was
    /// requested).
    pub fn observer(&self) -> Observer {
        self.observer.clone()
    }

    /// Write the requested artifacts. `stats` feeds the run report; a
    /// trace needs only the capture. Returns the written paths.
    pub fn write(&self, stats: Option<&RunStats>) -> std::io::Result<Vec<String>> {
        self.write_with_wall(stats, None)
    }

    /// [`RunArtifacts::write`] plus an optional wall profile: when given,
    /// the Chrome trace gains the real-time `"wall"` track beside the
    /// virtual sim/engine tracks.
    pub fn write_with_wall(
        &self,
        stats: Option<&RunStats>,
        wall: Option<&WallProfile>,
    ) -> std::io::Result<Vec<String>> {
        let mut written = Vec::new();
        let Some(sink) = &self.sink else {
            return Ok(written);
        };
        let rec = sink.recorded();
        if let Some(path) = &self.report_path {
            match stats {
                Some(stats) => {
                    std::fs::write(path, graphreduce::report::run_report(stats, &rec))?;
                    written.push(path.clone());
                }
                None => eprintln!(
                    "--report needs single-device RunStats; skipping {path} (use --trace here)"
                ),
            }
        }
        if let Some(path) = &self.trace_path {
            std::fs::write(path, gr_observe::export::chrome_trace_with_wall(&rec, wall))?;
            written.push(path.clone());
        }
        Ok(written)
    }

    /// Like [`RunArtifacts::write`], but exits with a clean CLI error
    /// instead of bubbling an `io::Error` for the caller to panic on.
    pub fn write_or_exit(&self, stats: Option<&RunStats>) -> Vec<String> {
        self.write(stats).unwrap_or_else(|e| {
            eprintln!("error: failed to write --report/--trace output: {e}");
            std::process::exit(1);
        })
    }
}

/// Run the GraphChi-style engine.
pub fn run_graphchi(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
    scale: u64,
) -> BaselineStats {
    let chi = GraphChi::scaled(scale);
    let src = default_source(layout);
    match algo {
        Algo::Bfs => {
            chi.run(&gr_algorithms::Bfs::new(src), layout, &platform.host)
                .stats
        }
        Algo::Sssp => {
            chi.run(&gr_algorithms::Sssp::new(src), layout, &platform.host)
                .stats
        }
        Algo::Pagerank => chi.run(&pagerank(), layout, &platform.host).stats,
        Algo::Cc => chi.run(&gr_algorithms::Cc, layout, &platform.host).stats,
    }
}

/// Run the X-Stream-style engine.
pub fn run_xstream(algo: Algo, layout: &GraphLayout, platform: &Platform) -> BaselineStats {
    let xs = XStream::default();
    let src = default_source(layout);
    match algo {
        Algo::Bfs => {
            xs.run(&gr_algorithms::Bfs::new(src), layout, &platform.host)
                .stats
        }
        Algo::Sssp => {
            xs.run(&gr_algorithms::Sssp::new(src), layout, &platform.host)
                .stats
        }
        Algo::Pagerank => xs.run(&pagerank(), layout, &platform.host).stats,
        Algo::Cc => xs.run(&gr_algorithms::Cc, layout, &platform.host).stats,
    }
}

/// Run the CuSha-style engine (fails on out-of-memory graphs).
pub fn run_cusha(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
) -> Result<BaselineStats, OutOfMemory> {
    let cu = CuSha::default();
    let src = default_source(layout);
    Ok(match algo {
        Algo::Bfs => {
            cu.run(&gr_algorithms::Bfs::new(src), layout, platform)?
                .stats
        }
        Algo::Sssp => {
            cu.run(&gr_algorithms::Sssp::new(src), layout, platform)?
                .stats
        }
        Algo::Pagerank => cu.run(&pagerank(), layout, platform)?.stats,
        Algo::Cc => cu.run(&gr_algorithms::Cc, layout, platform)?.stats,
    })
}

/// Run the MapGraph-style engine (fails on out-of-memory graphs).
pub fn run_mapgraph(
    algo: Algo,
    layout: &GraphLayout,
    platform: &Platform,
) -> Result<BaselineStats, OutOfMemory> {
    let mg = MapGraph::default();
    let src = default_source(layout);
    Ok(match algo {
        Algo::Bfs => {
            mg.run(&gr_algorithms::Bfs::new(src), layout, platform)?
                .stats
        }
        Algo::Sssp => {
            mg.run(&gr_algorithms::Sssp::new(src), layout, platform)?
                .stats
        }
        Algo::Pagerank => mg.run(&pagerank(), layout, platform)?.stats,
        Algo::Cc => mg.run(&gr_algorithms::Cc, layout, platform)?.stats,
    })
}

/// Frontier sizes per iteration (for Figures 3/16/17), via GraphReduce.
pub fn frontier_trace(algo: Algo, layout: &GraphLayout, platform: &Platform) -> Vec<u64> {
    run_gr(algo, layout, platform, Options::optimized())
        .map(|s| s.frontier_sizes())
        .unwrap_or_default()
}

/// Milliseconds with 3 decimals, for table cells.
pub fn ms(d: SimDuration) -> String {
    format!("{:.3}", d.as_millis_f64())
}

/// Ratio formatted as the paper prints speedups.
pub fn speedup(base: SimDuration, ours: SimDuration) -> String {
    if ours.is_zero() {
        return "-".into();
    }
    format!("{:.1}x", base.as_secs_f64() / ours.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_respect_algorithm_requirements() {
        let scale = 2048;
        let sssp = layout_for(Dataset::Ak2010, Algo::Sssp, scale);
        assert!(sssp.weights.iter().any(|&w| w != 1.0));
        let cc = layout_for(Dataset::Webbase1M, Algo::Cc, scale);
        let bfs = layout_for(Dataset::Webbase1M, Algo::Bfs, scale);
        assert!(cc.num_edges() > bfs.num_edges()); // symmetrized
    }

    #[test]
    fn default_source_has_max_degree() {
        let layout = layout_for(Dataset::KronLogn20, Algo::Bfs, 4096);
        let s = default_source(&layout);
        let d = layout.csr.degree(s);
        assert!((0..layout.num_vertices()).all(|v| layout.csr.degree(v) <= d));
    }

    #[test]
    fn all_engines_run_one_cell() {
        // One Table 3 cell end-to-end at tiny scale: every engine completes
        // and GR beats the CPU engines.
        let scale = 1024;
        let plat = Platform::paper_node_scaled(scale);
        let layout = layout_for(Dataset::Orkut, Algo::Bfs, scale);
        let gr = run_gr(Algo::Bfs, &layout, &plat, Options::optimized()).unwrap();
        let chi = run_graphchi(Algo::Bfs, &layout, &plat, scale);
        let xs = run_xstream(Algo::Bfs, &layout, &plat);
        assert!(
            gr.elapsed < chi.elapsed,
            "GR {:?} vs GraphChi {:?}",
            gr.elapsed,
            chi.elapsed
        );
        assert!(
            gr.elapsed < xs.elapsed,
            "GR {:?} vs X-Stream {:?}",
            gr.elapsed,
            xs.elapsed
        );
    }

    #[test]
    fn gpu_engines_oom_on_out_of_memory_datasets() {
        let scale = 1024;
        let plat = Platform::paper_node_scaled(scale);
        let layout = layout_for(Dataset::Uk2002, Algo::Bfs, scale);
        assert!(run_cusha(Algo::Bfs, &layout, &plat).is_err());
        assert!(run_mapgraph(Algo::Bfs, &layout, &plat).is_err());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(SimDuration::from_micros(1500)), "1.500");
        assert_eq!(
            speedup(SimDuration::from_millis(30), SimDuration::from_millis(10)),
            "3.0x"
        );
        assert_eq!(
            speedup(SimDuration::from_millis(30), SimDuration::ZERO),
            "-"
        );
    }
}
