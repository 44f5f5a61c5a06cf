//! Pieces every workload shares: seeded randomness, the metric table a
//! workload reports, process counters, platform sizing and set-up timing.

use std::collections::BTreeMap;
use std::time::Instant;

use gr_algorithms::Cc;
use gr_graph::GraphLayout;
use gr_sim::Platform;
use graphreduce::sizes::SizeModel;
use graphreduce::{GraphSession, Options};

use crate::trace::Tracer;

/// SplitMix64: the one generator behind every seeded choice the benchmark
/// makes (graph seeds, weights seeds, sources, arrival times).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `purpose`, derived from the workload seed.
    pub fn stream(seed: u64, purpose: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Everything one run measured, by metric name, with units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// A workload's result: operations attempted and failed, every metric it
/// measured, and notes for the human-readable part of the output.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
    /// A traced run's spans: Chrome trace JSON and the self-time rows.
    pub trace: Option<(String, Vec<crate::trace::SelfTime>)>,
}

impl Report {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// How the command line asked this run to behave.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout for this run.
    pub work_dir: std::path::PathBuf,
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User + system CPU seconds this process has used (all threads).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// An out-of-core platform for `layout`: device memory holds all static
/// buffers plus about a quarter of the streamed edge bytes, so every
/// algorithm streams its edges through several shards.
pub fn ooc_platform(layout: &GraphLayout) -> Platform {
    let model = SizeModel::for_program(&Cc);
    let streamed = layout.num_edges() * (model.in_edge_bytes() + model.out_edge_bytes());
    let budget = model.static_bytes(layout.num_vertices() as u64) + streamed / 4;
    let nominal = Platform::paper_node().device.mem_capacity;
    Platform::paper_node_scaled((nominal / budget.max(1)).max(1))
}

/// `count` distinct vertices with at least one out-edge, drawn from `rng`.
pub fn pick_sources(layout: &GraphLayout, rng: &mut Rng, count: usize) -> Vec<u32> {
    let n = layout.num_vertices() as u64;
    let mut out: Vec<u32> = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.below(n) as u32;
        if layout.csr.degree(v) > 0 && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Wall times of one set-up, in milliseconds, and the host speed right
/// after it.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub gen_ms: f64,
    pub layout_ms: f64,
    pub session_ms: f64,
    pub plan_ms: f64,
    /// [`host_scale`] measured at the end of the set-up.
    pub scale: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.gen_ms + self.layout_ms + self.session_ms + self.plan_ms) / 1e3
    }
}

/// Report the set-up metrics: `setup_s` is the median over the set-ups of
/// each one's total rescaled to the reference host speed; the wall-clock
/// median and each layer's median are reported as measured.
fn report_setup(report: &mut Report, setups: &[SetupTimes]) {
    use crate::stats::{median, quartiles};
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let (q1, setup_s, q3) = quartiles(
        &setups
            .iter()
            .map(|t| t.total_s() * t.scale)
            .collect::<Vec<_>>(),
    );
    let m = &mut report.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("setup_wall_s", med(SetupTimes::total_s), "s");
    m.set("graph.gen_ms", med(|s| s.gen_ms), "ms");
    m.set("graph.layout_ms", med(|s| s.layout_ms), "ms");
    m.set("session.build_ms", med(|s| s.session_ms), "ms");
    m.set("session.plan_ms", med(|s| s.plan_ms), "ms");
    report.notes.push(format!(
        "setup: {} set-ups, median {setup_s:.4} s at reference speed (quartiles {q1:.4} .. {q3:.4})",
        setups.len()
    ));
}

/// Milliseconds spent in `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// One closed-loop job: the workload's uninterrupted queries, issued back
/// to back.
pub struct Job {
    /// Whether the job ran traced (only in a traced run, every other job).
    pub traced: bool,
    /// Sum of the uninterrupted queries' wall times.
    pub solve_s: f64,
    /// [`host_scale`] measured right after the job.
    pub scale: f64,
    pub layers: crate::probe::Layers,
}

/// Report the closed-loop metrics of `jobs`. End-to-end numbers come from
/// untraced jobs only; per-layer numbers from traced ones, with the
/// tracing overhead as the difference of the two medians.
pub fn report_jobs(report: &mut Report, jobs: &[Job]) {
    use crate::stats::{median, quartiles};
    let bare: Vec<&Job> = jobs.iter().filter(|j| !j.traced).collect();
    let wall: Vec<f64> = bare.iter().map(|j| j.solve_s).collect();
    let scaled: Vec<f64> = bare.iter().map(|j| j.solve_s * j.scale).collect();
    let sims: Vec<f64> = bare.iter().map(|j| j.layers.get("sim_s")).collect();
    let scales: Vec<f64> = jobs.iter().map(|j| j.scale).collect();
    let (q1, solve_s, q3) = quartiles(&scaled);
    let m = &mut report.metrics;
    m.set("solve_s", solve_s, "s");
    m.set("solve_wall_s", median(&wall), "s");
    m.set("sim_s", median(&sims), "s");
    m.set(
        "probe_ns_per_edge",
        PROBE_REF_NS_PER_EDGE / median(&scales),
        "ns",
    );
    report.notes.push(format!(
        "jobs: {} untraced, solve_s median {solve_s:.4} s at reference speed \
         (quartiles {q1:.4} .. {q3:.4})",
        bare.len()
    ));
    let traced: Vec<crate::probe::Layers> = jobs
        .iter()
        .filter(|j| j.traced)
        .map(|j| j.layers.clone())
        .collect();
    if !traced.is_empty() {
        crate::probe::Layers::report(&traced, m);
        let traced_solve: Vec<f64> = jobs
            .iter()
            .filter(|j| j.traced)
            .map(|j| j.solve_s)
            .collect();
        m.set(
            "trace.overhead_solve_ms",
            (median(&traced_solve) - median(&wall)) * 1e3,
            "ms",
        );
    }
}

/// Decode cost of the ζ₃-coded topology against the raw layout: a full
/// CSC + CSR walk through `TopoView`, in nanoseconds per edge entry
/// (median of three walks each).
pub fn codec_walk(layout: &GraphLayout, m: &mut Metrics) {
    use gr_graph::{CompressedTopology, CompressionCodec, TopoView};
    let comp = CompressedTopology::build(layout, CompressionCodec::Zeta(3));
    let entries = 2.0 * layout.num_edges() as f64;
    let walk = |view: TopoView<'_>| {
        let ns: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0u64;
                for v in 0..layout.num_vertices() {
                    for (u, e) in view.csc_entries(v).chain(view.csr_entries(v)) {
                        acc = acc.wrapping_add(u64::from(u) ^ u64::from(e));
                    }
                }
                std::hint::black_box(acc);
                t.elapsed().as_nanos() as f64 / entries.max(1.0)
            })
            .collect();
        crate::stats::median(&ns)
    };
    m.set("graph.raw_ns_per_edge", walk(TopoView::raw(layout)), "ns");
    m.set(
        "graph.decode_ns_per_edge",
        walk(TopoView::compressed(layout, &comp)),
        "ns",
    );
}

/// What one set-up builds: the workload's graph, its platform, the
/// session options, and the byte models of every program it will run.
pub struct Setup<'a> {
    pub generate: &'a dyn Fn() -> gr_graph::edgelist::EdgeList,
    pub platform: fn(&GraphLayout) -> Platform,
    pub opts: Options,
    pub models: &'a [SizeModel],
}

/// Make `count` timed set-ups, reports them (see [`report_setup`]) and
/// keeps the last: its layout goes into `slot`, and its session, which
/// borrows that layout, is returned with it.
///
/// One set-up generates the edge list (span `graph.gen`), builds the
/// layout (`graph.layout`), binds it to a session (`session.build`), and
/// computes the partition plan of every program (`session.plan`).
pub fn set_up<'g>(
    tracer: &mut Tracer,
    report: &mut Report,
    setup: &Setup<'_>,
    count: usize,
    slot: &'g mut Option<GraphLayout>,
) -> (&'g GraphLayout, GraphSession<'g>) {
    let mut times = Vec::with_capacity(count);
    for _ in 1..count {
        let mut t = SetupTimes::default();
        let layout = build_layout(tracer, &mut t, setup);
        build_session(tracer, &mut t, &layout, setup);
        times.push(t);
    }
    let mut t = SetupTimes::default();
    let layout: &'g GraphLayout = slot.insert(build_layout(tracer, &mut t, setup));
    let session = build_session(tracer, &mut t, layout, setup);
    times.push(t);
    report_setup(report, &times);
    (layout, session)
}

fn build_layout(tracer: &mut Tracer, t: &mut SetupTimes, setup: &Setup<'_>) -> GraphLayout {
    let span = tracer.begin("graph.gen", 0);
    let (el, ms) = timed(setup.generate);
    tracer.end(span);
    t.gen_ms = ms;
    let span = tracer.begin("graph.layout", 0);
    let (layout, ms) = timed(|| GraphLayout::build(&el));
    tracer.end(span);
    t.layout_ms = ms;
    layout
}

fn build_session<'g>(
    tracer: &mut Tracer,
    t: &mut SetupTimes,
    layout: &'g GraphLayout,
    setup: &Setup<'_>,
) -> GraphSession<'g> {
    let span = tracer.begin("session.build", 0);
    let platform = (setup.platform)(layout);
    let (session, ms) = timed(|| GraphSession::new(layout, platform, setup.opts.clone()));
    tracer.end(span);
    t.session_ms = ms;
    let span = tracer.begin("session.plan", 0);
    let ((), ms) = timed(|| {
        for m in setup.models {
            session
                .partition_plan(m)
                .expect("the workload's graph has a partition plan");
        }
    });
    tracer.end(span);
    t.plan_ms = ms;
    // Set-up code runs on one thread, so the probe does too.
    t.scale = host_scale(layout, 1);
    session
}

/// The host speed the benchmark's rescaled times are quoted at: one probe
/// edge per this many nanoseconds.
pub const PROBE_REF_NS_PER_EDGE: f64 = 2.0;

/// How fast the host runs right now, as the factor that rescales a wall
/// time measured now to the reference speed.
///
/// The machines this runs on are shared, and their speed drifts by up to
/// two times over minutes, far more than any bound a regression gate can
/// use. The probe is fixed work that lives in the benchmark, so no change
/// to the program moves it: pull sweeps summing in-neighbour values over
/// the CSC arrays of `layout`, split over `threads` threads, repeated for
/// at least 50 ms. A time divided by the probe's time tracks the program,
/// not the host.
pub fn host_scale(layout: &GraphLayout, threads: usize) -> f64 {
    let n = layout.num_vertices() as usize;
    let (offsets, neighbors) = (&layout.csc.offsets, &layout.csc.neighbors);
    let x: Vec<f32> = (0..n).map(|v| 1.0 / (1 + v % 7) as f32).collect();
    let mut y = vec![0f32; n];
    let chunk = n.div_ceil(threads.max(1)).max(1);
    let start = Instant::now();
    let mut sweeps = 0u32;
    while sweeps == 0 || start.elapsed().as_secs_f64() < 0.05 {
        std::thread::scope(|s| {
            for (c, out) in y.chunks_mut(chunk).enumerate() {
                let x = &x;
                s.spawn(move || {
                    for (i, o) in out.iter_mut().enumerate() {
                        let v = c * chunk + i;
                        let row = offsets[v] as usize..offsets[v + 1] as usize;
                        *o = neighbors[row].iter().map(|&u| x[u as usize]).sum();
                    }
                });
            }
        });
        std::hint::black_box(&y);
        sweeps += 1;
    }
    let ref_s = PROBE_REF_NS_PER_EDGE * 1e-9 * neighbors.len() as f64 * f64::from(sweeps);
    ref_s / start.elapsed().as_secs_f64()
}
