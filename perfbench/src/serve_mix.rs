//! `serve-mix`: the `rmat-ooc` graph held in device memory and served by
//! one `GraphServe` at two host threads. BFS queries batch into MS-BFS
//! sweeps; SSSP queries run as singletons beside them.
//!
//! Each run measures, on one session:
//! - closed bursts: a seeded mix of queries submitted at once and drained
//!   (`solve_s`, `sim_s`);
//! - an open loop at each of two fixed rates: seeded Poisson arrivals,
//!   submitted in real time from this process, each answer timed from the
//!   moment its query was due (`serve.<rate>.*`: median and tail latency,
//!   goodput, queue wait, drain time, batch size, generator lateness).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gr_algorithms::{MsBfsLevels, Sssp};
use gr_serve::{GraphServe, QuerySpec, ServeConfig};
use gr_sim::Platform;
use graphreduce::sizes::SizeModel;
use graphreduce::{GraphSession, Options};

use crate::check::{Answers, Key};
use crate::common::{
    codec_walk, cpu_seconds, host_scale, peak_rss_mb, pick_sources, report_jobs, set_up, Job,
    Report, Rng, RunCfg, Setup,
};
use crate::probe::{Layers, Probe};
use crate::rmat_ooc::rmat_edges;
use crate::stats::{median, tail};
use crate::trace::{Span, QUERY_LANE_BASE};

pub const THREADS: usize = 2;
pub const CONFIG: ServeConfig = ServeConfig {
    max_pending: 256,
    max_batch: 64,
};
/// Distinct BFS sources queries draw from; SSSP sources are the first
/// `SSSP_POOL` of them.
const POOL: usize = 64;
const SSSP_POOL: usize = 8;
/// Queries in one closed burst.
const BURST: usize = 64;
const SETUPS: usize = 5;
const MIN_BURSTS: usize = 4;
/// Share of the run's window spent on closed bursts (the rest is split
/// evenly between the two open-loop rates). Half, because the bursts give
/// the gated `solve_s` and need many samples on a noisy host.
const BURST_SHARE: f64 = 0.5;
/// Target length of one open-loop window, and the fewest rounds of
/// (low, high) windows a run makes.
const WINDOW_S: f64 = 2.0;
const MIN_ROUNDS: usize = 2;

/// The open-loop load, fixed on the command line.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    pub rate_lo: f64,
    pub rate_hi: f64,
    /// One query in `sssp_one_in` is SSSP, the rest BFS.
    pub sssp_one_in: u64,
    /// Answers later than this miss the limit (goodput).
    pub limit_ms: f64,
}

impl Default for Load {
    fn default() -> Self {
        Load {
            rate_lo: 40.0,
            rate_hi: 150.0,
            sssp_one_in: 16,
            limit_ms: 500.0,
        }
    }
}

/// The gate's key for a served query.
fn key(spec: &QuerySpec) -> Key {
    match spec {
        QuerySpec::Sssp { source } => ("sssp", *source),
        QuerySpec::Bfs { source } => ("bfs", *source),
        QuerySpec::PageRank => ("pagerank", 0),
        QuerySpec::Cc => ("cc", 0),
    }
}

/// The `i`-th query of a seeded stream: every `sssp_one_in`-th is SSSP.
fn spec(i: usize, rng: &mut Rng, pool: &[u32], load: &Load) -> QuerySpec {
    if i as u64 % load.sssp_one_in == load.sssp_one_in - 1 {
        QuerySpec::Sssp {
            source: pool[rng.below(SSSP_POOL as u64) as usize],
        }
    } else {
        QuerySpec::Bfs {
            source: pool[rng.below(POOL as u64) as usize],
        }
    }
}

/// One rate's open-loop measurements over all of its windows.
#[derive(Default)]
struct Rate {
    /// Median and tail latency of each window.
    window_p50_ms: Vec<f64>,
    window_tail_ms: Vec<f64>,
    bfs_ms: Vec<f64>,
    sssp_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    generator_late_ms: Vec<f64>,
    answered: u64,
    batches: u64,
    rejected: u64,
    lost: u64,
    within_limit: u64,
    seconds: f64,
}

impl Rate {
    /// `p50_ms` and `tail_ms` are medians over the windows (each window
    /// starts from an idle server, so a slow stretch of the host spoils
    /// one window, not the figure); everything else is pooled.
    fn report(&self, name: &str, report: &mut Report) {
        let m = &mut report.metrics;
        let p = |s: &str| format!("serve.{name}.{s}");
        m.set(p("p50_ms"), median(&self.window_p50_ms), "ms");
        m.set(p("tail_ms"), median(&self.window_tail_ms), "ms");
        m.set(p("queue_wait_ms"), median(&self.queue_wait_ms), "ms");
        m.set(p("drain_ms"), median(&self.drain_ms), "ms");
        m.set(
            p("batch_size"),
            self.answered as f64 / self.batches.max(1) as f64,
            "count",
        );
        m.set(p("batches"), self.batches as f64, "count");
        m.set(p("bfs_p50_ms"), median(&self.bfs_ms), "ms");
        m.set(p("sssp_p50_ms"), median(&self.sssp_ms), "ms");
        m.set(p("rejected"), self.rejected as f64, "count");
        m.set(
            p("generator_late_ms"),
            median(&self.generator_late_ms),
            "ms",
        );
        m.set(
            p("goodput_qps"),
            self.within_limit as f64 / self.seconds.max(1e-9),
            "1/s",
        );
        report.notes.push(format!(
            "serve {name}: {} windows, {} answered, {} rejected, {} lost",
            self.window_p50_ms.len(),
            self.answered,
            self.rejected,
            self.lost
        ));
    }
}

/// Run one open-loop window: `seconds` of seeded Poisson arrivals at
/// `rate` per second, then until the last answer is in.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    session: &GraphSession<'_>,
    probe: &mut Probe,
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
    pool: &[u32],
    load: &Load,
    traced: bool,
    answers: &mut Answers,
    out: &mut Rate,
) {
    let mut arrivals: Vec<(f64, QuerySpec)> = Vec::new();
    let mut due = 0.0;
    loop {
        due += -rng.unit().ln() / rate;
        if due >= seconds {
            break;
        }
        arrivals.push((due, spec(arrivals.len(), rng, pool, load)));
    }
    let mut serve = GraphServe::with_config(session, CONFIG).with_observer(probe.observer(traced));
    let mut latency_ms = Vec::with_capacity(arrivals.len());
    let mut due_of: HashMap<u64, f64> = HashMap::new();
    let mut query_spans: Vec<Span> = Vec::new();
    let window_span = probe.tracer.begin_when(traced, "serve.window", 0);
    let start = Instant::now();
    let start_ns = probe.tracer.ns_at(start);
    let mut next = 0;
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < arrivals.len() && arrivals[next].0 <= now {
            let (d, s) = arrivals[next].clone();
            match serve.submit(s, None) {
                Ok(id) => {
                    due_of.insert(id, d);
                }
                Err(_) => out.rejected += 1,
            }
            next += 1;
        }
        if serve.pending() > 0 {
            let pending = serve.pending() as u64;
            let drain_start = start.elapsed().as_secs_f64();
            let span = probe
                .tracer
                .begin_when(traced, "serve.drain", serve.ticks());
            let result = serve.drain();
            probe.tracer.end(span);
            let done = start.elapsed().as_secs_f64();
            out.drain_ms.push((done - drain_start) * 1e3);
            let Ok(outcomes) = result else {
                out.lost += pending;
                continue;
            };
            for o in outcomes {
                let d = due_of[&o.id];
                let ms = (done - d) * 1e3;
                out.queue_wait_ms.push((drain_start - d) * 1e3);
                latency_ms.push(ms);
                match o.spec {
                    QuerySpec::Sssp { .. } => out.sssp_ms.push(ms),
                    _ => out.bfs_ms.push(ms),
                }
                if ms <= load.limit_ms {
                    out.within_limit += 1;
                }
                out.answered += 1;
                if traced {
                    query_spans.push(Span {
                        name: format!("serve.query.{}", o.spec.kind()),
                        start_ns: start_ns + (d * 1e9) as u64,
                        end_ns: start_ns + (done * 1e9) as u64,
                        parent: None,
                        req: o.id,
                        lane: QUERY_LANE_BASE + (o.id % 16) as u32,
                    });
                }
                answers.record(key(&o.spec), o.output);
            }
        } else if next < arrivals.len() {
            let wait = arrivals[next].0 - now;
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            let late = start.elapsed().as_secs_f64() - arrivals[next].0;
            out.generator_late_ms.push(late.max(0.0) * 1e3);
        } else {
            break;
        }
    }
    probe.tracer.end(window_span);
    for s in query_spans {
        probe.tracer.record(s);
    }
    out.batches += serve.ticks();
    out.seconds += seconds;
    out.window_p50_ms.push(median(&latency_ms));
    out.window_tail_ms.push(tail(&latency_ms).value);
}

pub fn run(cfg: &RunCfg, load: &Load) -> Report {
    let mut report = Report::default();
    let mut probe = Probe::new(cfg.trace);
    let models = [
        SizeModel::for_program(&MsBfsLevels::new(vec![0])),
        SizeModel::for_program(&Sssp::new(0)),
    ];

    let generate = || rmat_edges(cfg.seed);
    let setup = Setup {
        generate: &generate,
        platform: |_| Platform::paper_node(),
        opts: Options::optimized(),
        models: &models,
    };
    let mut slot = None;
    let (layout, session) = set_up(&mut probe.tracer, &mut report, &setup, SETUPS, &mut slot);

    let pool = pick_sources(layout, &mut Rng::stream(cfg.seed, "pool"), POOL);
    let mut answers = Answers::default();

    // Closed bursts: every query of the burst submitted at once, drained.
    let mut burst_rng = Rng::stream(cfg.seed, "bursts");
    let mut jobs = Vec::new();
    let start = Instant::now();
    while jobs.len() < MIN_BURSTS || start.elapsed().as_secs_f64() < cfg.seconds * BURST_SHARE {
        let req = jobs.len() as u64;
        let traced = cfg.trace && req % 2 == 1;
        let specs: Vec<QuerySpec> = (0..BURST)
            .map(|i| spec(i, &mut burst_rng, &pool, load))
            .collect();
        let mut serve =
            GraphServe::with_config(&session, CONFIG).with_observer(probe.observer(traced));
        let mut layers = Layers::default();
        let cpu0 = cpu_seconds();
        let span = probe.tracer.begin_when(traced, "serve.burst", req);
        let t0 = Instant::now();
        let mut lost = 0;
        for s in &specs {
            if serve.submit(s.clone(), None).is_err() {
                lost += 1;
            }
        }
        let result = serve.drain();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        probe.tracer.end(span);
        layers.set("proc.cpu_s", cpu_seconds() - cpu0);
        layers.set("observe.decisions", probe.take_decisions() as f64);
        match result {
            Ok(outcomes) => {
                let mut seen = Vec::new();
                for o in &outcomes {
                    if !seen.contains(&o.stats.batch) {
                        seen.push(o.stats.batch);
                        layers.add_run(&o.stats.run);
                    }
                }
                for o in outcomes {
                    answers.record(key(&o.spec), o.output);
                }
            }
            Err(_) => lost = BURST,
        }
        for _ in 0..lost {
            report.tally(false);
        }
        if traced {
            // The engine work of the burst, run directly on the session
            // with the wall profiler armed: the serving pump takes no
            // profiler, so host-kernel numbers come from this replica.
            let bfs: Vec<u32> = specs
                .iter()
                .filter_map(|s| match s {
                    QuerySpec::Bfs { source } => Some(*source),
                    _ => None,
                })
                .collect();
            let msbfs = MsBfsLevels::new(bfs);
            let q = session.query(&msbfs);
            let (_, ms) = probe.run("query.msbfs_replica", req, true, q, &mut layers);
            layers.set("query.bfs_ms", ms);
            for s in &specs {
                if let QuerySpec::Sssp { source } = s {
                    let sssp = Sssp::new(*source);
                    let (_, ms) = probe.run(
                        "query.sssp_replica",
                        req,
                        true,
                        session.query(&sssp),
                        &mut layers,
                    );
                    layers.add("query.sssp_ms", ms);
                }
            }
        }
        jobs.push(Job {
            traced,
            scale: host_scale(layout, THREADS),
            solve_s: wall_ms / 1e3,
            layers,
        });
    }
    report_jobs(&mut report, &jobs);

    // Open loop: windows at the two rates, alternating, so a slow stretch
    // of the host falls on both. A traced run adds a traced window at the
    // high rate to each round (the untraced one is the overhead baseline).
    let open_s = cfg.seconds * (1.0 - BURST_SHARE);
    let rounds = ((open_s / (2.0 * WINDOW_S)).round() as usize).max(MIN_ROUNDS);
    let window_s = open_s / (2 * rounds) as f64;
    let mut schedule = vec![("lo", load.rate_lo, cfg.trace), ("hi", load.rate_hi, false)];
    if cfg.trace {
        schedule.push(("hi_traced", load.rate_hi, true));
    }
    let mut rates: Vec<Rate> = schedule.iter().map(|_| Rate::default()).collect();
    let mut rngs: Vec<Rng> = schedule
        .iter()
        .map(|(name, ..)| Rng::stream(cfg.seed, &format!("arrivals-{name}")))
        .collect();
    for _ in 0..rounds {
        for (i, &(_, rate, traced)) in schedule.iter().enumerate() {
            open_loop(
                &session,
                &mut probe,
                rate,
                window_s,
                &mut rngs[i],
                &pool,
                load,
                traced,
                &mut answers,
                &mut rates[i],
            );
        }
    }
    for ((name, ..), rate) in schedule.iter().zip(&rates) {
        for _ in 0..rate.rejected + rate.lost {
            report.tally(false);
        }
        rate.report(name, &mut report);
    }
    report.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
    // The user-facing serving figures under their own names (full table).
    let get = |name: &str| report.metrics.get(name).map_or(0.0, |v| v.0);
    let aliases = [
        ("p50_ms.lo", get("serve.lo.p50_ms"), "ms"),
        ("tail_ms.lo", get("serve.lo.tail_ms"), "ms"),
        ("p50_ms.hi", get("serve.hi.p50_ms"), "ms"),
        ("tail_ms.hi", get("serve.hi.tail_ms"), "ms"),
        ("goodput_qps.hi", get("serve.hi.goodput_qps"), "1/s"),
    ];
    let p50_hi = aliases[2].1;
    for (name, value, unit) in aliases {
        report.metrics.set(name, value, unit);
    }
    if cfg.trace {
        let traced_p50 = report
            .metrics
            .get("serve.hi_traced.p50_ms")
            .map_or(0.0, |v| v.0);
        report
            .metrics
            .set("trace.overhead_p50_ms", traced_p50 - p50_hi, "ms");
        codec_walk(layout, &mut report.metrics);
    }

    answers.check(layout, &gr_serve::pagerank_program(), &mut report);
    report.notes.push(format!(
        "graph: {} vertices, {} edges, in device memory; batch width {}; {THREADS} host threads; \
         load lo {} qps, hi {} qps, 1 in {} SSSP, limit {} ms",
        layout.num_vertices(),
        layout.num_edges(),
        CONFIG.max_batch,
        load.rate_lo,
        load.rate_hi,
        load.sssp_one_in,
        load.limit_ms
    ));
    probe.finish(&mut report);
    report
}
