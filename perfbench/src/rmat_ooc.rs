//! `rmat-ooc`: BFS, SSSP, PageRank and CC, once each per job, on one
//! out-of-core session over a weighted Graph500 R-MAT graph at two host
//! threads. Power-law degrees and a low diameter give dense frontiers, so
//! the host GAS kernels and the cross-shard fan-out do most of the work.
//! Nothing here touches compression, durability or serving.

use std::time::Instant;

use gr_algorithms::{Bfs, Cc, PageRank, Sssp};
use gr_graph::gen;
use gr_serve::QueryOutput;
use graphreduce::sizes::SizeModel;
use graphreduce::Options;

use crate::check::Answers;
use crate::common::{
    codec_walk, cpu_seconds, host_scale, ooc_platform, peak_rss_mb, pick_sources, report_jobs,
    set_up, Job, Report, Rng, RunCfg, Setup,
};
use crate::probe::{Layers, Probe};

pub const THREADS: usize = 2;
/// Graph500 R-MAT scale and requested edges (about 2.1 M directed edges
/// once symmetrized).
pub const SCALE: u32 = 16;
pub const EDGES: u64 = 1 << 20;
/// Edge weights are drawn from `[1, MAX_WEIGHT)`.
pub const MAX_WEIGHT: f32 = 8.0;
const SETUPS: usize = 5;
/// Jobs run even when the window is shorter (a traced run alternates
/// traced and untraced jobs, so it needs two of each).
const MIN_JOBS: usize = 4;
/// BFS and SSSP sources: a seeded pool, used in turn by successive jobs.
const POOL: usize = 4;

/// The weighted, symmetrized R-MAT graph of `seed` (shared with `serve-mix`).
pub fn rmat_edges(seed: u64) -> gr_graph::edgelist::EdgeList {
    let mut rng = Rng::stream(seed, "rmat");
    let (g, w) = (rng.next_u64(), rng.next_u64());
    gen::with_random_weights(gen::rmat_g500(SCALE, EDGES, g), MAX_WEIGHT, w).symmetrize()
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let mut probe = Probe::new(cfg.trace);
    let pr = PageRank::default();
    let models = [
        SizeModel::for_program(&Bfs::new(0)),
        SizeModel::for_program(&Sssp::new(0)),
        SizeModel::for_program(&pr),
        SizeModel::for_program(&Cc),
    ];

    let generate = || rmat_edges(cfg.seed);
    let setup = Setup {
        generate: &generate,
        platform: ooc_platform,
        opts: Options::optimized(),
        models: &models,
    };
    let mut slot = None;
    let (layout, session) = set_up(&mut probe.tracer, &mut report, &setup, SETUPS, &mut slot);

    let pool = pick_sources(layout, &mut Rng::stream(cfg.seed, "sources"), POOL);
    let mut jobs = Vec::new();
    let mut answers = Answers::default();
    let start = Instant::now();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < cfg.seconds {
        let req = jobs.len() as u64;
        let traced = cfg.trace && req % 2 == 1;
        let source = pool[jobs.len() % POOL];
        let (bfs, sssp) = (Bfs::new(source), Sssp::new(source));
        let mut layers = Layers::default();
        let cpu0 = cpu_seconds();
        let span = probe.tracer.begin_when(traced, "job", req);
        let (r_bfs, bfs_ms) = probe.run("query.bfs", req, traced, session.query(&bfs), &mut layers);
        let (r_sssp, sssp_ms) =
            probe.run("query.sssp", req, traced, session.query(&sssp), &mut layers);
        let (r_pr, pr_ms) = probe.run(
            "query.pagerank",
            req,
            traced,
            session.query(&pr),
            &mut layers,
        );
        let (r_cc, cc_ms) = probe.run("query.cc", req, traced, session.query(&Cc), &mut layers);
        probe.tracer.end(span);
        layers.set("proc.cpu_s", cpu_seconds() - cpu0);
        layers.set("query.bfs_ms", bfs_ms);
        layers.set("query.sssp_ms", sssp_ms);
        layers.set("query.pagerank_ms", pr_ms);
        layers.set("query.cc_ms", cc_ms);
        let stats = [
            r_bfs.as_ref().ok().map(|r| &r.stats),
            r_sssp.as_ref().ok().map(|r| &r.stats),
            r_pr.as_ref().ok().map(|r| &r.stats),
            r_cc.as_ref().ok().map(|r| &r.stats),
        ];
        for s in stats.into_iter().flatten() {
            layers.add_run(s);
        }
        answers.record_result(("bfs", source), r_bfs, |r| {
            QueryOutput::Depths(r.vertex_values)
        });
        answers.record_result(("sssp", source), r_sssp, |r| {
            QueryOutput::Distances(r.vertex_values)
        });
        answers.record_result(("pagerank", 0), r_pr, |r| {
            QueryOutput::Ranks(r.vertex_values.iter().map(|v| v.rank).collect())
        });
        answers.record_result(("cc", 0), r_cc, |r| {
            QueryOutput::Components(r.vertex_values)
        });
        jobs.push(Job {
            traced,
            scale: host_scale(layout, THREADS),
            solve_s: (bfs_ms + sssp_ms + pr_ms + cc_ms) / 1e3,
            layers,
        });
    }
    report.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    report_jobs(&mut report, &jobs);
    if cfg.trace {
        codec_walk(layout, &mut report.metrics);
    }

    answers.check(layout, &pr, &mut report);
    report.notes.push(format!(
        "graph: {} vertices, {} edges; {} shards at most; {THREADS} host threads",
        layout.num_vertices(),
        layout.num_edges(),
        jobs[0].layers.get("session.shards")
    ));
    probe.finish(&mut report);
    report
}
