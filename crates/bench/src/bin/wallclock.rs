//! Wall-clock benchmark harness for the *host* execution engine.
//!
//! Everything else in this crate reports **simulated** device time; this
//! bin times the real host-side kernels (`graphreduce::phases`) that
//! compute the exact results, so host-engine optimizations — sparse/dense
//! kernel selection, parallel shards — are measurable and regress-able.
//!
//! ```sh
//! cargo run --release -p gr-bench --bin wallclock            # full run
//! cargo run --release -p gr-bench --bin wallclock -- --tiny --trials 1
//! cargo run --release -p gr-bench --bin wallclock -- --threads 2 \
//!     --compare results/bench_trajectory.jsonl
//! ```
//!
//! One invocation produces (schema `gr-wallclock-v2`):
//!
//! - **runs** — each algorithm to convergence under `HostKernels::Serial`
//!   and `HostKernels::Adaptive` at the effective thread count, warmup +
//!   N timed trials, median/p95/min milliseconds;
//! - **scaling** — a thread sweep (1/2/4/8, or just `--threads N`) of an
//!   out-of-core CC run under an armed [`WallProfiler`]: total and
//!   in-kernel wall time, per-GAS-phase breakdown, and the across-shard
//!   fan-out imbalance at every point;
//! - **compression** — out-of-core CC raw and ζ₃-compressed on the R-MAT
//!   and a 2D grid of the same edge budget: transfer bytes, wall times,
//!   and the decode throughput (ns per edge entry of a full CSC + CSR
//!   `TopoView` walk) raw and under varint and ζ1–ζ4;
//! - **sparse_bfs_iteration** — the targeted microbenchmark of one
//!   BFS-tail iteration at ~0.1% frontier density;
//! - one appended line in `results/bench_trajectory.jsonl` keyed by the
//!   git commit (disable with `--no-trajectory`), giving every commit a
//!   perf trajectory to compare against;
//! - with `--compare <baseline>`: per-row deltas against a previous
//!   report or trajectory file, exiting nonzero when the median delta
//!   regresses by more than 10% (the CI gate);
//! - with `--profile <path>`: a Chrome/Perfetto trace of the last profiled
//!   run carrying the real-time `wall` track.

use std::time::Instant;

use gr_algorithms::{Bfs, Cc, PageRank, Sssp};
use gr_bench::trajectory::{self, BenchRow, TrajectoryEntry};
use gr_bench::{effective_host_threads, run_gr_wall, set_host_threads, with_host_threads, Algo};
use gr_graph::{
    build_shards, gen, Bitmap, CompressedTopology, CompressionCodec, GraphLayout, Interval,
    TopoView,
};
use gr_observe::Observer;
use gr_sim::Platform;
use graphreduce::phases::{activate_shard, apply_shard};
use graphreduce::sizes::SizeModel;
use graphreduce::{GasProgram, GraphReduce, HostKernels, Options, WallProfiler, WallSummary};

struct Args {
    scale: u32,
    edges: u64,
    trials: usize,
    warmup: usize,
    tiny: bool,
    threads: Option<usize>,
    out: String,
    compare: Option<String>,
    profile: Option<String>,
    trajectory: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 16,
        edges: 1 << 20,
        trials: 5,
        warmup: 1,
        tiny: false,
        threads: None,
        out: "BENCH_wallclock.json".to_string(),
        compare: None,
        profile: None,
        trajectory: Some(trajectory::TRAJECTORY_PATH.to_string()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => {
                args.scale = 10;
                args.edges = 1 << 13;
                args.warmup = 0;
                args.tiny = true;
            }
            "--scale" => args.scale = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(usage),
            "--trials" => {
                args.trials = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(usage)
            }
            "--threads" => {
                args.threads = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(usage))
            }
            "--out" => args.out = it.next().unwrap_or_else(usage),
            "--compare" => args.compare = Some(it.next().unwrap_or_else(usage)),
            "--profile" => args.profile = Some(it.next().unwrap_or_else(usage)),
            "--trajectory" => args.trajectory = Some(it.next().unwrap_or_else(usage)),
            "--no-trajectory" => args.trajectory = None,
            _ => usage(),
        }
    }
    args.trials = args.trials.max(1);
    args
}

fn usage<T>() -> T {
    eprintln!(
        "usage: wallclock [--tiny] [--scale N] [--trials N] [--threads N] [--out path.json] \
         [--compare baseline.json|trajectory.jsonl] [--profile trace.json] \
         [--trajectory path.jsonl | --no-trajectory]"
    );
    std::process::exit(2);
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn p95(sorted: &[f64]) -> f64 {
    let idx = ((sorted.len() as f64) * 0.95).ceil() as usize;
    sorted[idx.saturating_sub(1).min(sorted.len() - 1)]
}

/// Time `f` `trials` times (after `warmup` unrecorded runs); returns
/// sorted durations in milliseconds.
fn time_trials<F: FnMut()>(warmup: usize, trials: usize, mut f: F) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    let mut ms: Vec<f64> = (0..trials)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    ms
}

fn bench_run<P: GasProgram + Clone>(
    rows: &mut Vec<BenchRow>,
    program: P,
    layout: &GraphLayout,
    platform: &Platform,
    args: &Args,
) {
    for (mode, label) in [
        (HostKernels::Serial, "serial"),
        (HostKernels::Adaptive, "adaptive"),
    ] {
        let opts = Options::optimized().with_host_kernels(mode);
        let mut iterations = 0;
        let ms = time_trials(args.warmup, args.trials, || {
            let out = GraphReduce::new(program.clone(), layout, platform.clone(), opts.clone())
                .run()
                .expect("fault-free run");
            iterations = out.stats.iterations;
        });
        let row = BenchRow {
            kind: "wallclock".to_string(),
            algo: program.name().to_string(),
            mode: label.to_string(),
            threads: effective_host_threads() as u64,
            iterations: iterations as u64,
            median_ms: median(&ms),
            p95_ms: p95(&ms),
            min_ms: ms[0],
        };
        eprintln!(
            "{:>8} {:>8}: median {:.3} ms  p95 {:.3} ms  ({} iterations)",
            row.algo, row.mode, row.median_ms, row.p95_ms, row.iterations
        );
        rows.push(row);
    }
}

// ---------------------------------------------------------------------------
// Thread-scaling sweep.
// ---------------------------------------------------------------------------

/// One thread-sweep point: an out-of-core CC run profiled for real time.
struct ScalingPoint {
    threads: usize,
    /// Worker threads that actually recorded kernel time.
    workers: usize,
    shards: usize,
    total_median_ms: f64,
    kernel_median_ms: f64,
    imbalance: f64,
    /// (phase, median milliseconds over trials), zero phases dropped.
    phases: Vec<(&'static str, f64)>,
}

/// A platform whose device memory forces the benched graph out-of-core
/// (streamed in several shards), so the across-shard rayon fan-out — the
/// thing thread scaling measures — actually engages.
fn sweep_platform(layout: &GraphLayout) -> Platform {
    let model = SizeModel::for_program(&Cc);
    let streamed = layout.num_edges() * (model.in_edge_bytes() + model.out_edge_bytes());
    // Budget: all static buffers plus about a quarter of the streamed
    // footprint — the plan lands at a handful of shards at any scale.
    let budget = model.static_bytes(layout.num_vertices() as u64) + streamed / 4;
    let nominal = Platform::paper_node().device.mem_capacity;
    Platform::paper_node_scaled((nominal / budget.max(1)).max(1))
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    median(&xs)
}

/// Profile one CC run per trial at `threads` workers and reduce the
/// per-trial [`WallSummary`]s to medians.
fn sweep_point(
    layout: &GraphLayout,
    platform: &Platform,
    threads: usize,
    args: &Args,
) -> ScalingPoint {
    let wall = WallProfiler::armed();
    let mut summaries: Vec<WallSummary> = Vec::with_capacity(args.trials);
    let mut workers = 0usize;
    let mut shards = 0usize;
    for t in 0..args.warmup + args.trials {
        wall.reset();
        let stats = run_gr_wall(
            Algo::Cc,
            layout,
            platform,
            Options::optimized(),
            Observer::disabled(),
            wall.clone(),
        )
        .expect("fault-free sweep run");
        shards = stats.num_shards;
        if t >= args.warmup {
            let profile = wall.profile();
            workers = workers.max(profile.thread_count());
            summaries.push(profile.summary());
        }
    }
    let ms = |f: fn(&WallSummary) -> u64| {
        median_of(summaries.iter().map(|s| f(s) as f64 / 1e6).collect())
    };
    let mut phases: Vec<(&'static str, f64)> = Vec::new();
    for (phase, _) in &summaries[0].phases {
        let med = median_of(
            summaries
                .iter()
                .map(|s| {
                    s.phases
                        .iter()
                        .find(|(p, _)| p == phase)
                        .map_or(0.0, |(_, ns)| *ns as f64 / 1e6)
                })
                .collect(),
        );
        if med > 0.0 {
            phases.push((phase, med));
        }
    }
    let point = ScalingPoint {
        threads,
        workers,
        shards,
        total_median_ms: ms(|s| s.total_ns),
        kernel_median_ms: ms(|s| s.kernel_ns),
        imbalance: median_of(summaries.iter().map(|s| s.imbalance).collect()),
        phases,
    };
    eprintln!(
        "scaling {} thread(s): total {:.3} ms, kernels {:.3} ms, imbalance {:.2} \
         ({} shards, {} workers busy)",
        point.threads,
        point.total_median_ms,
        point.kernel_median_ms,
        point.imbalance,
        point.shards,
        point.workers
    );
    point
}

// ---------------------------------------------------------------------------
// Compressed-shard benchmark: transfer ratio + wall delta, RMAT vs grid.
// ---------------------------------------------------------------------------

/// One graph's compressed-vs-raw comparison: the simulated host↔device
/// transfer volumes of an out-of-core CC run, the real host wall time
/// paid to decode rows lazily through the gap streams, and the decode
/// throughput of every codec.
struct CompressionRow {
    graph: &'static str,
    codec: &'static str,
    raw_bytes: u64,
    compressed_bytes: u64,
    transfer_ratio: f64,
    raw_median_ms: f64,
    compressed_median_ms: f64,
    wall_delta_pct: f64,
    /// `(view, median ns per edge entry)` of a full CSC + CSR walk, for
    /// the raw layout and each codec in [`DECODE_CODECS`].
    decode_ns_per_edge: Vec<(&'static str, f64)>,
}

const DECODE_CODECS: [CompressionCodec; 5] = [
    CompressionCodec::Varint,
    CompressionCodec::Zeta(1),
    CompressionCodec::Zeta(2),
    CompressionCodec::Zeta(3),
    CompressionCodec::Zeta(4),
];

/// Decode throughput: a full CSC + CSR walk through `TopoView`, raw and
/// under every codec, in median nanoseconds per edge entry.
fn bench_decode(layout: &GraphLayout, args: &Args) -> Vec<(&'static str, f64)> {
    let entries = (2 * layout.num_edges()).max(1) as f64;
    let walk = |view: TopoView<'_>| {
        let ms = time_trials(args.warmup, args.trials, || {
            let mut acc = 0u64;
            for v in 0..layout.num_vertices() {
                for (u, e) in view.csc_entries(v).chain(view.csr_entries(v)) {
                    acc = acc.wrapping_add(u64::from(u) ^ u64::from(e));
                }
            }
            std::hint::black_box(acc);
        });
        median(&ms) * 1e6 / entries
    };
    let mut out = vec![("raw", walk(TopoView::raw(layout)))];
    for codec in DECODE_CODECS {
        let comp = CompressedTopology::build(layout, codec);
        out.push((codec.name(), walk(TopoView::compressed(layout, &comp))));
    }
    out
}

/// Bench one layout compressed and raw on its out-of-core platform. RMAT
/// (power-law gaps — the codecs' home turf) and a 2D grid (near-constant
/// small gaps) bracket the ratio a real graph lands in.
fn bench_compression_on(
    rows: &mut Vec<BenchRow>,
    graph: &'static str,
    layout: &GraphLayout,
    args: &Args,
) -> CompressionRow {
    let codec = CompressionCodec::Zeta(3);
    let platform = sweep_platform(layout);
    let mut measure = |opts: Options, mode: &str| {
        let mut bytes = 0u64;
        let mut iterations = 0u64;
        let ms = time_trials(args.warmup, args.trials, || {
            let out = GraphReduce::new(Cc, layout, platform.clone(), opts.clone())
                .run()
                .expect("fault-free compression bench run");
            bytes = out.stats.bytes_h2d + out.stats.bytes_d2h;
            iterations = out.stats.iterations as u64;
        });
        rows.push(BenchRow {
            kind: "wallclock".to_string(),
            algo: format!("cc@{graph}"),
            mode: mode.to_string(),
            threads: effective_host_threads() as u64,
            iterations,
            median_ms: median(&ms),
            p95_ms: p95(&ms),
            min_ms: ms[0],
        });
        (bytes, median(&ms))
    };
    let (raw_bytes, raw_ms) = measure(Options::optimized(), "raw");
    let (z_bytes, z_ms) = measure(
        Options::optimized().with_shard_compression(codec),
        codec.name(),
    );
    let row = CompressionRow {
        graph,
        codec: codec.name(),
        raw_bytes,
        compressed_bytes: z_bytes,
        transfer_ratio: raw_bytes as f64 / (z_bytes as f64).max(1.0),
        raw_median_ms: raw_ms,
        compressed_median_ms: z_ms,
        wall_delta_pct: 100.0 * (z_ms - raw_ms) / raw_ms.max(1e-12),
        decode_ns_per_edge: bench_decode(layout, args),
    };
    eprintln!(
        "compression {graph:>5} ({}): transfers {:.2} -> {:.2} MB ({:.2}x), \
         wall {:.3} -> {:.3} ms ({:+.1}%)",
        row.codec,
        row.raw_bytes as f64 / 1e6,
        row.compressed_bytes as f64 / 1e6,
        row.transfer_ratio,
        row.raw_median_ms,
        row.compressed_median_ms,
        row.wall_delta_pct
    );
    let decode: Vec<String> = row
        .decode_ns_per_edge
        .iter()
        .map(|(view, ns)| format!("{view} {ns:.2}"))
        .collect();
    eprintln!("decode {graph:>5} ns/edge: {}", decode.join(", "));
    row
}

// ---------------------------------------------------------------------------
// Sparse-iteration microbenchmark (unchanged from v1).
// ---------------------------------------------------------------------------

struct SparseIter {
    density: f64,
    active: u64,
    serial_median_ms: f64,
    adaptive_median_ms: f64,
    speedup: f64,
}

/// One BFS-shaped iteration (apply over the frontier + frontierActivate
/// over the changed set) at a sparse frontier: every 1021st vertex active.
/// This isolates exactly the O(interval)-vs-O(active) difference the
/// adaptive kernels exist for.
fn bench_sparse_iteration(layout: &GraphLayout, args: &Args) -> SparseIter {
    let n = layout.num_vertices();
    let shards = build_shards(layout, &[Interval { start: 0, end: n }]);
    let shard = &shards[0];
    let program = Bfs::new(0);
    // Stride 1021 (prime), not a power of two: RMAT piles degree onto ids
    // with zero low bytes, so a power-of-two stride would select exactly
    // the hubs and the (mode-independent) edge walk would swamp the
    // scan-vs-skip difference this microbenchmark isolates. ~0.1% density
    // is a BFS tail iteration — the regime dynamic frontier management
    // targets (Figure 17: most iterations sit far below the peak).
    let mut frontier = Bitmap::new(n);
    let mut v = 1u32;
    while v < n {
        frontier.set(v);
        v += 1021;
    }
    let active = frontier.count();
    let base_values = vec![u32::MAX; n as usize];
    let gather_temp = vec![(); n as usize];

    // Time only the two phase kernels; the state resets between trials
    // are benchmark scaffolding, identical for both modes, and O(n) — at
    // sparse frontiers they would otherwise drown the O(active) path.
    let run = |mode: HostKernels| {
        let mut values = base_values.clone();
        let mut next = Bitmap::new(n);
        let mut changed_bits = Bitmap::new(n);
        let mut ms = Vec::with_capacity(args.trials);
        for t in 0..args.warmup + args.trials {
            values.copy_from_slice(&base_values);
            next.clear_all();
            changed_bits.clear_all();
            let t0 = Instant::now();
            let changed = apply_shard(
                &program,
                shard,
                &mut values,
                &gather_temp,
                &frontier,
                0,
                mode,
            );
            let apply_elapsed = t0.elapsed();
            for c in changed {
                changed_bits.set(c);
            }
            let t1 = Instant::now();
            activate_shard(TopoView::raw(layout), shard, &changed_bits, &mut next, mode);
            let activate_elapsed = t1.elapsed();
            if t >= args.warmup {
                ms.push((apply_elapsed + activate_elapsed).as_secs_f64() * 1e3);
            }
        }
        ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        median(&ms)
    };

    let serial = run(HostKernels::Serial);
    let adaptive = run(HostKernels::Adaptive);
    let out = SparseIter {
        density: active as f64 / n as f64,
        active,
        serial_median_ms: serial,
        adaptive_median_ms: adaptive,
        speedup: serial / adaptive.max(1e-12),
    };
    eprintln!(
        "sparse iteration ({} of {} active, {:.2}%): serial {:.4} ms, adaptive {:.4} ms — {:.1}x",
        out.active,
        n,
        100.0 * out.density,
        out.serial_median_ms,
        out.adaptive_median_ms,
        out.speedup
    );
    out
}

// ---------------------------------------------------------------------------
// Output, trajectory, comparison.
// ---------------------------------------------------------------------------

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn v2_json(
    args: &Args,
    commit: &str,
    layout: &GraphLayout,
    rows: &[BenchRow],
    scaling: &[ScalingPoint],
    compression: &[CompressionRow],
    sparse: &SparseIter,
) -> String {
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"gr-wallclock-v2\",\n");
    json.push_str(&format!("  \"commit\": \"{commit}\",\n"));
    json.push_str(&format!(
        "  \"graph\": {{\"generator\": \"rmat_g500\", \"scale\": {}, \"vertices\": {}, \"edges\": {}, \"symmetrized\": true}},\n",
        args.scale,
        layout.num_vertices(),
        layout.num_edges()
    ));
    json.push_str(&format!(
        "  \"host_threads\": {},\n  \"trials\": {},\n  \"warmup\": {},\n",
        effective_host_threads(),
        args.trials,
        args.warmup
    ));
    json.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"algo\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \"iterations\": {}, \"median_ms\": {:.4}, \"p95_ms\": {:.4}, \"min_ms\": {:.4}}}{}\n",
            r.algo,
            r.mode,
            r.threads,
            r.iterations,
            r.median_ms,
            r.p95_ms,
            r.min_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scaling\": [\n");
    for (i, p) in scaling.iter().enumerate() {
        let phases: Vec<String> = p
            .phases
            .iter()
            .map(|(phase, ms)| format!("{{\"phase\": \"{phase}\", \"median_ms\": {ms:.4}}}"))
            .collect();
        json.push_str(&format!(
            "    {{\"threads\": {}, \"workers_busy\": {}, \"shards\": {}, \"total_median_ms\": {:.4}, \"kernel_median_ms\": {:.4}, \"imbalance\": {:.4}, \"phases\": [{}]}}{}\n",
            p.threads,
            p.workers,
            p.shards,
            p.total_median_ms,
            p.kernel_median_ms,
            p.imbalance,
            phases.join(", "),
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"compression\": [\n");
    for (i, c) in compression.iter().enumerate() {
        let decode: Vec<String> = c
            .decode_ns_per_edge
            .iter()
            .map(|(view, ns)| format!("\"{view}\": {ns:.4}"))
            .collect();
        json.push_str(&format!(
            "    {{\"graph\": \"{}\", \"codec\": \"{}\", \"raw_bytes\": {}, \"compressed_bytes\": {}, \"transfer_ratio\": {:.4}, \"raw_median_ms\": {:.4}, \"compressed_median_ms\": {:.4}, \"wall_delta_pct\": {:.2}, \"decode_ns_per_edge\": {{{}}}}}{}\n",
            c.graph,
            c.codec,
            c.raw_bytes,
            c.compressed_bytes,
            c.transfer_ratio,
            c.raw_median_ms,
            c.compressed_median_ms,
            c.wall_delta_pct,
            decode.join(", "),
            if i + 1 < compression.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sparse_bfs_iteration\": {{\"density\": {:.6}, \"active_vertices\": {}, \"serial_median_ms\": {:.6}, \"adaptive_median_ms\": {:.6}, \"speedup\": {:.2}}}\n",
        sparse.density,
        sparse.active,
        sparse.serial_median_ms,
        sparse.adaptive_median_ms,
        sparse.speedup
    ));
    json.push_str("}\n");
    json
}

/// Append this run's rows to the trajectory file (created on first use).
fn append_trajectory(path: &str, entry: &TrajectoryEntry) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    use std::io::Write;
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", entry.to_line()));
    match result {
        Ok(()) => eprintln!("appended trajectory entry ({}) to {path}", entry.commit),
        Err(e) => eprintln!("warning: cannot append trajectory to {path}: {e}"),
    }
}

/// The `--compare` gate: exits 1 on a median regression beyond the
/// threshold, 2 when the baseline cannot gate this run at all.
fn run_compare(baseline_path: &str, rows: &[BenchRow], scale: u64) -> ! {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let baseline = trajectory::baseline_rows(&text, scale).unwrap_or_else(|e| {
        eprintln!("error: unusable baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let cmp = trajectory::compare(&baseline, rows).unwrap_or_else(|e| {
        eprintln!("error: cannot compare against {baseline_path}: {e}");
        std::process::exit(2);
    });
    eprintln!("comparison against {baseline_path}:");
    for d in &cmp.deltas {
        eprintln!(
            "  {:>9} {:>8} {:>8} @{} thread(s): {:.3} -> {:.3} ms ({:+.1}%)",
            d.kind, d.algo, d.mode, d.threads, d.baseline_ms, d.current_ms, d.delta_pct
        );
    }
    for (kind, algo, mode, threads) in &cmp.unmatched {
        eprintln!(
            "  {kind:>9} {algo:>8} {mode:>8} @{threads} thread(s): no baseline row (not gated)"
        );
    }
    eprintln!(
        "  median delta {:+.1}% (gate: > +{:.0}% fails)",
        cmp.median_delta_pct,
        trajectory::REGRESSION_PCT
    );
    if cmp.regressed() {
        eprintln!("REGRESSION: median wall time is more than 10% above the baseline");
        std::process::exit(1);
    }
    eprintln!("ok: within the regression budget");
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if let Some(n) = args.threads {
        set_host_threads(n);
    }
    eprintln!(
        "graph: rmat_g500 scale {} ({} edges requested), {} host thread(s), {} trial(s)",
        args.scale,
        args.edges,
        effective_host_threads(),
        args.trials
    );
    let el =
        gen::with_random_weights(gen::rmat_g500(args.scale, args.edges, 42), 1.0, 43).symmetrize();
    let layout = GraphLayout::build(&el);
    let platform = Platform::paper_node();

    let mut rows = Vec::new();
    bench_run(&mut rows, Bfs::new(0), &layout, &platform, &args);
    bench_run(&mut rows, Sssp::new(0), &layout, &platform, &args);
    bench_run(&mut rows, PageRank::default(), &layout, &platform, &args);
    bench_run(&mut rows, Cc, &layout, &platform, &args);
    let sparse = bench_sparse_iteration(&layout, &args);

    // Thread sweep: runs on scoped pools of 1/2/4/8 threads (just N under
    // `--threads N`; 1/2 under `--tiny` to keep CI smoke fast); the
    // process-wide pool is left as it was.
    // Compression bracket: the benched RMAT plus a 2D grid of the same
    // edge budget, each compressed and raw on its out-of-core platform.
    let grid_layout = GraphLayout::build(&gen::grid2d_with_edges(
        layout.num_vertices(),
        args.edges,
        7,
    ));
    let compression = vec![
        bench_compression_on(&mut rows, "rmat", &layout, &args),
        bench_compression_on(&mut rows, "grid", &grid_layout, &args),
    ];

    let sweep_plat = sweep_platform(&layout);
    let sweep_threads: Vec<usize> = match args.threads {
        Some(n) => vec![n],
        None if args.tiny => vec![1, 2],
        None => vec![1, 2, 4, 8],
    };
    let scaling: Vec<ScalingPoint> = sweep_threads
        .iter()
        .map(|&t| with_host_threads(t, || sweep_point(&layout, &sweep_plat, t, &args)))
        .collect();

    // Optional wall-track trace: one more profiled run, virtual timeline
    // and real time side by side.
    if let Some(path) = &args.profile {
        let wall = WallProfiler::armed();
        let (observer, sink) = Observer::recording();
        run_gr_wall(
            Algo::Cc,
            &layout,
            &sweep_plat,
            Options::optimized(),
            observer,
            wall.clone(),
        )
        .expect("fault-free profiled run");
        let trace =
            gr_observe::export::chrome_trace_with_wall(&sink.recorded(), Some(&wall.profile()));
        std::fs::write(path, trace).expect("write profile trace");
        eprintln!("wrote {path}");
    }

    let commit = git_commit();
    let json = v2_json(
        &args,
        &commit,
        &layout,
        &rows,
        &scaling,
        &compression,
        &sparse,
    );
    std::fs::write(&args.out, &json).expect("write benchmark json");
    eprintln!("wrote {}", args.out);

    // Gate before appending: `baseline_rows` keeps the newest entry per
    // key, so appending first would make a trajectory-file compare judge
    // the run against itself. Compare runs exit inside `run_compare` and
    // leave the baseline file untouched.
    if let Some(baseline) = &args.compare {
        run_compare(baseline, &rows, args.scale as u64);
    }

    if let Some(path) = &args.trajectory {
        append_trajectory(
            path,
            &TrajectoryEntry {
                commit,
                schema: "gr-wallclock-v2".into(),
                scale: args.scale as u64,
                rows: rows.clone(),
            },
        );
    }
}
