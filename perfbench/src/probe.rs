//! Running one engine query from outside, traced or not.
//!
//! Untraced, a query runs exactly as a user would run it and only its wall
//! time is taken. Traced, the benchmark arms the engine's existing
//! `WallProfiler` and a recording `Observer` on the query, wraps the call
//! in a span, and turns what they recorded into per-layer numbers.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use gr_observe::profiler::WALL_ITERATION;
use gr_observe::{Observer, RecordingSink, WallProfiler};
use graphreduce::{EngineError, GasProgram, Query, RunResult, RunStats};

use crate::common::Metrics;
use crate::trace::{covered_ns, Tracer};

pub struct Probe {
    pub tracer: Tracer,
    wall: WallProfiler,
    armed_at: Instant,
    observer: Observer,
    sink: Option<Arc<RecordingSink>>,
}

impl Probe {
    pub fn new(traced: bool) -> Probe {
        let tracer = Tracer::new(traced);
        let (wall, armed_at) = if traced {
            let at = Instant::now();
            (WallProfiler::armed(), at)
        } else {
            (WallProfiler::disarmed(), Instant::now())
        };
        let (observer, sink) = if traced {
            let (o, s) = Observer::recording();
            (o, Some(s))
        } else {
            (Observer::disabled(), None)
        };
        Probe {
            tracer,
            wall,
            armed_at,
            observer,
            sink,
        }
    }

    /// Hand a traced run's spans to `report`.
    pub fn finish(self, report: &mut crate::common::Report) {
        if self.traced() {
            report.trace = Some((self.tracer.chrome_json(), self.tracer.self_times()));
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_armed()
    }

    /// The recording observer, for a layer the probe does not run itself
    /// (the serving pump), when `traced`; a disabled one otherwise.
    pub fn observer(&self, traced: bool) -> Observer {
        if traced {
            self.observer.clone()
        } else {
            Observer::disabled()
        }
    }

    /// Decisions recorded since the last call (0 when untraced).
    pub fn take_decisions(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.take().decisions.len())
    }

    /// Run `query` under span `name`. With `traced` false the query runs
    /// bare even in a traced run (the overhead baseline).
    pub fn run<P: GasProgram>(
        &mut self,
        name: &str,
        req: u64,
        traced: bool,
        query: Query<'_, '_, P>,
        layers: &mut Layers,
    ) -> (Result<RunResult<P>, EngineError>, f64) {
        let traced = traced && self.traced();
        if !traced {
            let t = Instant::now();
            let res = query.run();
            return (res, t.elapsed().as_secs_f64() * 1e3);
        }
        self.wall.reset();
        let span = self.tracer.begin(name, req);
        let t = Instant::now();
        let res = query
            .with_wall_profiler(self.wall.clone())
            .with_observer(self.observer.clone())
            .run();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        self.tracer.end(span);
        let profile = self.wall.profile();
        self.tracer.attach_profile(span, &profile, self.armed_at);
        let summary = profile.summary();
        let kernel_ms = summary.kernel_ns as f64 / 1e6;
        // Wall time with at least one GAS kernel running (parallel kernels
        // overlap, so this is less than their summed busy time).
        let kernel_wall_ms = covered_ns(
            0,
            u64::MAX,
            profile
                .samples
                .iter()
                .filter(|s| s.key.phase != WALL_ITERATION)
                .map(|s| (s.start_ns, s.start_ns + s.dur_ns)),
        ) as f64
            / 1e6;
        for (phase, ns) in &summary.phases {
            layers.add(&format!("host.{phase}_ms"), *ns as f64 / 1e6);
        }
        layers.add("host.kernel_ms", kernel_ms);
        layers.max("host.workers_busy", summary.threads as f64);
        layers.add("host.imbalance_weighted", summary.imbalance * kernel_ms);
        layers.add("host.kernel_wall_ms", kernel_wall_ms);
        layers.add(
            "query.outside_kernel_ms",
            (wall_ms - kernel_wall_ms).max(0.0),
        );
        layers.add("observe.decisions", self.take_decisions() as f64);
        (res, wall_ms)
    }
}

/// Per-layer numbers of one job (one sample), summed over its queries.
#[derive(Default, Clone)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.0.entry(name.to_string()).or_insert(v);
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Simulator and movement counters of one engine run.
    pub fn add_run(&mut self, s: &RunStats) {
        self.add("sim_s", s.elapsed.as_secs_f64());
        self.add("movement.h2d_mb", s.bytes_h2d as f64 / 1e6);
        self.add("movement.d2h_mb", s.bytes_d2h as f64 / 1e6);
        self.add("movement.copy_ops", s.copy_ops as f64);
        self.add("sim.kernel_launches", s.kernel_launches as f64);
        self.add("sim.memcpy_s", s.memcpy_time.as_secs_f64());
        self.add("sim.kernel_s", s.kernel_time.as_secs_f64());
        let (done, skipped) = s.per_iteration.iter().fold((0u64, 0u64), |(d, k), it| {
            (
                d + u64::from(it.shards_processed),
                k + u64::from(it.shards_skipped),
            )
        });
        self.add("frontier.shard_cycles", (done + skipped) as f64);
        self.add("frontier.skipped_cycles", skipped as f64);
        self.max("session.shards", s.num_shards as f64);
        self.add("durable.checkpoint_writes", s.checkpoint_writes as f64);
        self.add(
            "durable.checkpoint_mb",
            s.checkpoint_bytes_written as f64 / 1e6,
        );
        self.add("durable.delta_mb", s.checkpoint_delta_bytes as f64 / 1e6);
        self.add("graph.compressed_bytes", s.compressed_bytes as f64);
        self.add("graph.compressed_raw_bytes", s.compressed_raw_bytes as f64);
    }

    /// Median of each number over `samples`, then the ratios derived from
    /// the summed counters, written into `m` with their units.
    pub fn report(samples: &[Layers], m: &mut Metrics) {
        let mut names: Vec<&String> = samples.iter().flat_map(|l| l.0.keys()).collect();
        names.sort();
        names.dedup();
        let med: BTreeMap<String, f64> = names
            .into_iter()
            .map(|n| {
                let xs: Vec<f64> = samples.iter().map(|l| l.get(n)).collect();
                (n.clone(), crate::stats::median(&xs))
            })
            .collect();
        let get = |n: &str| med.get(n).copied().unwrap_or(0.0);
        for (name, v) in &med {
            if let Some(unit) = unit_of(name) {
                m.set(name.clone(), *v, unit);
            }
        }
        let cycles = get("frontier.shard_cycles");
        if cycles > 0.0 {
            m.set(
                "frontier.skip_ratio",
                get("frontier.skipped_cycles") / cycles,
                "ratio",
            );
        }
        let z = get("graph.compressed_bytes");
        let ratio = if z > 0.0 {
            get("graph.compressed_raw_bytes") / z
        } else {
            1.0
        };
        m.set("graph.compression_ratio", ratio, "ratio");
        let kernel = get("host.kernel_ms");
        if kernel > 0.0 {
            m.set(
                "host.imbalance",
                get("host.imbalance_weighted") / kernel,
                "ratio",
            );
        }
    }
}

/// Unit of a per-layer number reported as is (derived ones are set by
/// [`Layers::report`]; bookkeeping sums have none and are not reported).
fn unit_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "sim_s" | "sim.memcpy_s" | "sim.kernel_s" | "proc.cpu_s" => "s",
        "movement.h2d_mb" | "movement.d2h_mb" | "durable.checkpoint_mb" | "durable.delta_mb" => {
            "MB"
        }
        "movement.copy_ops"
        | "sim.kernel_launches"
        | "session.shards"
        | "durable.checkpoint_writes"
        | "host.workers_busy"
        | "observe.decisions" => "count",
        n if n.ends_with("_ms") => "ms",
        _ => return None,
    })
}
