//! `grid-zeta3-resume`: SSSP and CC on a weighted 2-D grid whose shards
//! are ζ₃-coded, out of core, with durable delta checkpoints, at one host
//! thread. Each job runs SSSP and CC straight through, then SSSP again
//! killed at a mid-run iteration boundary and resumed from its
//! checkpoints. The high diameter gives hundreds of sparse iterations,
//! where frontier skipping and per-iteration overhead dominate; with one
//! thread, threading changes should not move anything here.

use std::path::Path;
use std::time::Instant;

use gr_algorithms::{Cc, PageRank, Sssp};
use gr_graph::{gen, CompressionCodec};
use gr_serve::QueryOutput;
use graphreduce::sizes::SizeModel;
use graphreduce::{CheckpointPolicy, EngineError, FaultPlan, Options};

use crate::check::Answers;
use crate::common::{
    codec_walk, cpu_seconds, host_scale, ooc_platform, peak_rss_mb, report_jobs, set_up, Job,
    Report, Rng, RunCfg, Setup,
};
use crate::probe::{Layers, Probe};
use crate::stats::median;

pub const THREADS: usize = 1;
pub const VERTICES: u32 = 1 << 14;
pub const EDGES: u64 = 1 << 18;
pub const MAX_WEIGHT: f32 = 8.0;
pub const CODEC: CompressionCodec = CompressionCodec::Zeta(3);
/// A durable snapshot every `CHECKPOINT_EVERY` iterations; every
/// `FULL_EVERY`-th of them is full, the rest are deltas.
pub const CHECKPOINT_EVERY: u32 = 8;
pub const FULL_EVERY: u32 = 4;
const SETUPS: usize = 15;
const MIN_JOBS: usize = 4;
/// SSSP sources: a seeded pool, used in turn by successive jobs.
const POOL: usize = 4;

fn grid_edges(seed: u64) -> gr_graph::edgelist::EdgeList {
    let mut rng = Rng::stream(seed, "grid");
    let (g, w) = (rng.next_u64(), rng.next_u64());
    gen::with_random_weights(gen::grid2d_with_edges(VERTICES, EDGES, g), MAX_WEIGHT, w)
}

/// A seeded SSSP source in the grid's 8 x 8 corner block: the far corner
/// is then about the grid's diameter away, so every job sweeps the long
/// sparse frontier the workload is about, whatever the seed.
fn corner_source(rng: &mut Rng) -> u32 {
    // `grid2d_with_edges` lays the vertices out row by row, ceil(sqrt(V))
    // to a row, when the edge budget covers all of them (it does here).
    let width = (VERTICES as f64).sqrt().ceil() as u64;
    (rng.below(8) * width + rng.below(8)) as u32
}

/// An empty checkpoint directory at `dir`.
fn fresh_dir(dir: &Path) -> CheckpointPolicy {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create checkpoint directory");
    CheckpointPolicy::durable_delta(dir, CHECKPOINT_EVERY, FULL_EVERY)
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let mut probe = Probe::new(cfg.trace);
    let models = [
        SizeModel::for_program(&Sssp::new(0)),
        SizeModel::for_program(&Cc),
    ];

    let generate = || grid_edges(cfg.seed);
    let setup = Setup {
        generate: &generate,
        platform: ooc_platform,
        opts: Options::optimized().with_shard_compression(CODEC),
        models: &models,
    };
    let mut slot = None;
    let (layout, session) = set_up(&mut probe.tracer, &mut report, &setup, SETUPS, &mut slot);

    let dirs = ["sssp", "cc", "killed"].map(|d| cfg.work_dir.join(d));
    let mut src_rng = Rng::stream(cfg.seed, "sources");
    let pool: Vec<u32> = (0..POOL).map(|_| corner_source(&mut src_rng)).collect();
    let mut jobs = Vec::new();
    let mut answers = Answers::default();
    // Per job: whether the kill fault stopped the run, and whether the
    // resumed run's state fingerprint equals the straight run's.
    let mut recoveries: Vec<(bool, bool)> = Vec::new();
    let mut resume_ms = Vec::new();
    let start = Instant::now();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < cfg.seconds {
        let req = jobs.len() as u64;
        let traced = cfg.trace && req % 2 == 1;
        let source = pool[jobs.len() % POOL];
        let sssp = Sssp::new(source);
        let mut layers = Layers::default();
        let cpu0 = cpu_seconds();
        let span = probe.tracer.begin_when(traced, "job", req);
        let q = session
            .query(&sssp)
            .with_checkpoint_policy(fresh_dir(&dirs[0]));
        let (r_sssp, sssp_ms) = probe.run("query.sssp", req, traced, q, &mut layers);
        let q = session
            .query(&Cc)
            .with_checkpoint_policy(fresh_dir(&dirs[1]));
        let (r_cc, cc_ms) = probe.run("query.cc", req, traced, q, &mut layers);
        let iterations = r_sssp.as_ref().map_or(2, |r| r.stats.iterations);
        let kill = FaultPlan::none().kill_at_iteration((iterations / 2).max(1));
        let q = session
            .query(&sssp)
            .with_checkpoint_policy(fresh_dir(&dirs[2]))
            .with_fault_plan(kill);
        let (r_killed, killed_ms) =
            probe.run("durable.killed_run", req, traced, q, &mut Layers::default());
        let killed = matches!(r_killed, Err(EngineError::Killed { .. }));
        let span_resume = probe.tracer.begin_when(traced, "durable.resume", req);
        let t_resume = Instant::now();
        let policy = CheckpointPolicy::durable_delta(&dirs[2], CHECKPOINT_EVERY, FULL_EVERY);
        let r_resumed = session
            .query(&sssp)
            .with_checkpoint_policy(policy)
            .resume(&dirs[2]);
        let recovery_ms = t_resume.elapsed().as_secs_f64() * 1e3;
        probe.tracer.end(span_resume);
        probe.tracer.end(span);
        layers.set("proc.cpu_s", cpu_seconds() - cpu0);
        layers.set("query.sssp_ms", sssp_ms);
        layers.set("query.cc_ms", cc_ms);
        layers.set("durable.killed_run_ms", killed_ms);
        layers.set("durable.resume_ms", recovery_ms);
        let stats = [
            r_sssp.as_ref().ok().map(|r| &r.stats),
            r_cc.as_ref().ok().map(|r| &r.stats),
        ];
        for s in stats.into_iter().flatten() {
            layers.add_run(s);
        }
        let straight_fp = r_sssp.as_ref().ok().and_then(|r| r.stats.state_fingerprint);
        let resumed_fp = r_resumed
            .as_ref()
            .ok()
            .and_then(|r| r.stats.state_fingerprint);
        let fingerprints_match = straight_fp.is_some() && straight_fp == resumed_fp;
        recoveries.push((killed, fingerprints_match));
        answers.record_result(("sssp", source), r_sssp, |r| {
            QueryOutput::Distances(r.vertex_values)
        });
        answers.record_result(("cc", 0), r_cc, |r| {
            QueryOutput::Components(r.vertex_values)
        });
        answers.record_result(("sssp", source), r_resumed, |r| {
            QueryOutput::Distances(r.vertex_values)
        });
        if !traced {
            resume_ms.push(recovery_ms);
        }
        jobs.push(Job {
            traced,
            scale: host_scale(layout, THREADS),
            solve_s: (sssp_ms + cc_ms) / 1e3,
            layers,
        });
    }
    report.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    report
        .metrics
        .set("recovery_s", median(&resume_ms) / 1e3, "s");
    report_jobs(&mut report, &jobs);
    if cfg.trace {
        codec_walk(layout, &mut report.metrics);
    }
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }

    answers.check(layout, &PageRank::default(), &mut report);
    for &(killed, fingerprints_match) in &recoveries {
        report.tally(killed);
        if !killed {
            report
                .notes
                .push("a killed run was not stopped by its kill fault".into());
        }
        report.tally(fingerprints_match);
        if !fingerprints_match {
            report
                .notes
                .push("a resumed run's state fingerprint differs from the straight run's".into());
        }
    }
    report.notes.push(format!(
        "graph: {} vertices, {} edges; {} shards at most; codec {}; {THREADS} host thread",
        layout.num_vertices(),
        layout.num_edges(),
        jobs[0].layers.get("session.shards"),
        CODEC.name()
    ));
    probe.finish(&mut report);
    report
}
