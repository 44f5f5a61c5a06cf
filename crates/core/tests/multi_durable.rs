//! Multi-GPU durable recovery: checkpoints taken at BSP barrier
//! boundaries by the orchestrator must resume bit-identically — same
//! vertex values, same per-iteration trace, same state fingerprint —
//! including after a process kill, on *fewer* devices than the run was
//! checkpointed on, and under delta snapshots. Durable writes are
//! host-side only: device timelines and barrier counts stay untouched.
//!
//! See docs/DURABILITY.md (multi-GPU resume semantics) and the
//! single-GPU kill-restart family in tests/chaos.rs these mirror.

use gr_graph::{gen, GraphLayout};
use gr_observe::{Decision, Observer};
use gr_sim::{FaultPlan, Platform};
use graphreduce::testprog::{Bfs, Cc, Pr, Sssp};
use graphreduce::{CheckpointPolicy, EngineError, GasProgram, MultiGraphReduce, MultiRunResult};

fn multi_layout() -> GraphLayout {
    GraphLayout::build(&gen::rmat_g500(11, 30_000, 17).symmetrize())
}

fn platform() -> Platform {
    Platform::paper_node_scaled(1 << 14)
}

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("gr-multidur-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn durable(dir: &std::path::Path) -> CheckpointPolicy {
    CheckpointPolicy::durable(dir, 1)
}

/// Kill a durable `gpus`-GPU run of `p` at boundary `kill_at`, then
/// resume it on `resume_gpus` devices and return the finished result.
fn kill_then_resume<P: GasProgram + Clone>(
    p: &P,
    layout: &GraphLayout,
    gpus: u32,
    resume_gpus: u32,
    kill_at: u32,
    tag: &str,
) -> MultiRunResult<P> {
    let dir = scratch(tag);
    let res = MultiGraphReduce::new(p.clone(), layout, platform(), gpus)
        .with_checkpoint_policy(durable(&dir))
        .with_fault_plan(0, FaultPlan::none().kill_at_iteration(kill_at))
        .run();
    match res {
        Err(EngineError::Killed { iteration }) => {
            assert_eq!(
                iteration, kill_at,
                "{tag}: killed at the requested boundary"
            )
        }
        Err(e) => panic!("{tag}: wrong error {e}"),
        Ok(_) => panic!("{tag}: run must not survive the kill"),
    }
    MultiGraphReduce::new(p.clone(), layout, platform(), resume_gpus)
        .with_checkpoint_policy(durable(&dir))
        .resume(&dir)
        .unwrap()
}

/// The kill-restart family on N GPUs: kill at the first, a middle, and
/// the last boundary; every resumed run must match the uninterrupted
/// oracle bit-for-bit.
fn assert_multi_kill_restart<P: GasProgram + Clone>(p: P, gpus: u32, tag: &str)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
{
    let layout = multi_layout();
    let oracle_dir = scratch(&format!("{tag}-oracle"));
    let oracle = MultiGraphReduce::new(p.clone(), &layout, platform(), gpus)
        .with_checkpoint_policy(durable(&oracle_dir))
        .run()
        .unwrap();
    let iters = oracle.stats.iterations;
    assert!(
        iters >= 3,
        "{tag}: graph too easy to kill mid-run ({iters})"
    );
    let fp = oracle
        .stats
        .state_fingerprint
        .expect("durable multi runs fingerprint state");
    for kill_at in [0, iters / 2, iters - 1] {
        let out = kill_then_resume(
            &p,
            &layout,
            gpus,
            gpus,
            kill_at,
            &format!("{tag}-k{kill_at}"),
        );
        assert_eq!(
            out.vertex_values, oracle.vertex_values,
            "{tag} kill@{kill_at}"
        );
        assert_eq!(out.stats.iterations, iters, "{tag} kill@{kill_at}");
        assert_eq!(
            out.stats.per_iteration.len(),
            oracle.stats.per_iteration.len(),
            "{tag} kill@{kill_at}: full trace restored"
        );
        let frontiers = |s: &graphreduce::MultiRunStats| {
            s.per_iteration
                .iter()
                .map(|i| i.frontier_size)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            frontiers(&out.stats),
            frontiers(&oracle.stats),
            "{tag} kill@{kill_at}: per-iteration trace bit-identical"
        );
        assert_eq!(
            out.stats.state_fingerprint,
            Some(fp),
            "{tag} kill@{kill_at}"
        );
        assert_eq!(out.stats.checkpoint_restores, 1, "{tag} kill@{kill_at}");
    }
}

#[test]
fn bfs_multi_kill_restart_resumes_bit_identical() {
    assert_multi_kill_restart(Bfs(0), 2, "bfs-x2");
}

#[test]
fn cc_multi_kill_restart_resumes_bit_identical() {
    assert_multi_kill_restart(Cc, 4, "cc-x4");
}

#[test]
fn resume_on_fewer_devices_redistributes_and_matches() {
    // Checkpoint on 4 GPUs, come back up with 2: the recorded placement
    // is advisory — ownership is re-derived for the surviving device set
    // and the answer matches an uninterrupted 2-GPU run exactly.
    let layout = multi_layout();
    let oracle = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .run()
        .unwrap();
    let out = kill_then_resume(&Cc, &layout, 4, 2, 2, "shrink");
    assert_eq!(out.vertex_values, oracle.vertex_values);
    assert_eq!(out.stats.num_gpus, 2, "resumed run reports its own width");
    assert_eq!(out.stats.iterations, oracle.stats.iterations);
    assert_eq!(out.stats.checkpoint_restores, 1);
}

#[test]
fn resume_emits_exactly_one_restore_decision() {
    let layout = multi_layout();
    let dir = scratch("one-restore");
    let res = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .with_checkpoint_policy(durable(&dir))
        .with_fault_plan(1, FaultPlan::none().kill_at_iteration(2))
        .run();
    assert!(matches!(res, Err(EngineError::Killed { iteration: 2 })));
    let (obs, sink) = Observer::recording();
    let out = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .with_observer(obs)
        .with_checkpoint_policy(durable(&dir))
        .resume(&dir)
        .unwrap();
    let rec = sink.recorded();
    let restores = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::CheckpointRestore { .. }))
        .count() as u64;
    assert_eq!(restores, 1);
    let writes = rec
        .decisions
        .iter()
        .filter(|d| matches!(d, Decision::CheckpointWrite { .. }))
        .count() as u64;
    assert_eq!(
        writes, out.stats.checkpoint_writes,
        "one decision per write"
    );
    assert!(out.stats.checkpoint_bytes_written > 0);
}

#[test]
fn durable_checkpointing_leaves_multi_timeline_untouched() {
    // Snapshot writes are host-side: elapsed virtual time, exchange
    // bytes, and results must be byte-identical with and without them.
    let layout = multi_layout();
    let clean = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .run()
        .unwrap();
    let dir = scratch("timeline");
    let durable_run = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .with_checkpoint_policy(durable(&dir))
        .run()
        .unwrap();
    assert_eq!(clean.vertex_values, durable_run.vertex_values);
    assert_eq!(clean.stats.elapsed, durable_run.stats.elapsed);
    assert_eq!(clean.stats.exchange_bytes, durable_run.stats.exchange_bytes);
    assert!(durable_run.stats.checkpoint_writes > 0);
    assert_eq!(clean.stats.checkpoint_writes, 0);
    assert_eq!(clean.stats.state_fingerprint, None, "zero cost when off");
}

/// Delta-vs-full differential for one program: identical results and
/// fingerprints, and the delta run's on-disk footprint splits into full
/// + delta bytes that sum to the total.
fn assert_delta_matches_full<P: GasProgram + Clone>(p: P, tag: &str) -> (u64, u64)
where
    P::VertexValue: PartialEq + std::fmt::Debug,
{
    let layout = multi_layout();
    let full_dir = scratch(&format!("{tag}-full"));
    let full = MultiGraphReduce::new(p.clone(), &layout, platform(), 2)
        .with_checkpoint_policy(CheckpointPolicy::durable(&full_dir, 1))
        .run()
        .unwrap();
    let delta_dir = scratch(&format!("{tag}-delta"));
    let delta = MultiGraphReduce::new(p.clone(), &layout, platform(), 2)
        .with_checkpoint_policy(CheckpointPolicy::durable_delta(&delta_dir, 1, 4))
        .run()
        .unwrap();
    assert_eq!(full.vertex_values, delta.vertex_values, "{tag}");
    assert_eq!(
        full.stats.state_fingerprint, delta.stats.state_fingerprint,
        "{tag}"
    );
    assert_eq!(
        full.stats.iterations, delta.stats.iterations,
        "{tag}: snapshot cadence must not change the computation"
    );
    assert!(delta.stats.checkpoint_delta_writes > 0, "{tag}");
    assert_eq!(
        delta.stats.checkpoint_full_bytes + delta.stats.checkpoint_delta_bytes,
        delta.stats.checkpoint_bytes_written,
        "{tag}: full + delta bytes account for every byte written"
    );
    // A kill mid-run must restore through the delta chain (one full +
    // one delta) to the exact same answer.
    let dir = scratch(&format!("{tag}-delta-kill"));
    let kill_at = full.stats.iterations - 1;
    let res = MultiGraphReduce::new(p.clone(), &layout, platform(), 2)
        .with_checkpoint_policy(CheckpointPolicy::durable_delta(&dir, 1, 4))
        .with_fault_plan(0, FaultPlan::none().kill_at_iteration(kill_at))
        .run();
    assert!(matches!(res, Err(EngineError::Killed { .. })), "{tag}");
    let resumed = MultiGraphReduce::new(p, &layout, platform(), 2)
        .with_checkpoint_policy(CheckpointPolicy::durable_delta(&dir, 1, 4))
        .resume(&dir)
        .unwrap();
    assert_eq!(resumed.vertex_values, full.vertex_values, "{tag}");
    assert_eq!(
        resumed.stats.state_fingerprint, full.stats.state_fingerprint,
        "{tag}: delta-chain resume lands on the same fingerprint"
    );
    (
        delta.stats.checkpoint_full_bytes
            / delta
                .stats
                .checkpoint_writes
                .saturating_sub(delta.stats.checkpoint_delta_writes)
                .max(1),
        delta.stats.checkpoint_delta_bytes / delta.stats.checkpoint_delta_writes.max(1),
    )
}

#[test]
fn delta_snapshots_match_fulls_across_algorithms() {
    assert_delta_matches_full(Cc, "cc");
    assert_delta_matches_full(Sssp(0), "sssp");
    assert_delta_matches_full(Pr, "pr");
}

#[test]
fn sparse_frontier_deltas_are_measurably_smaller_than_fulls() {
    // BFS touches a shrinking frontier each iteration: a delta snapshot
    // serializes only the dirty rows, so its average on-disk size must
    // land well under the average full snapshot.
    let (avg_full, avg_delta) = assert_delta_matches_full(Bfs(0), "bfs");
    assert!(
        avg_delta < avg_full / 2,
        "delta snapshots must be measurably smaller: avg delta {avg_delta} vs avg full {avg_full}"
    );
}

#[test]
fn multi_checkpoint_write_faults_degrade_gracefully() {
    // I/O faults on the orchestrator's checkpoint path: absorbed faults
    // retry, exhaustion skips the write, and the run still converges to
    // the clean answer with one decision per injected fault.
    let layout = multi_layout();
    let clean = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .run()
        .unwrap();
    let dir = scratch("multi-io");
    let plan = FaultPlan::none()
        .fail_checkpoint_write(0, 2)
        .torn_checkpoint_write(3, 1);
    let injected = plan.io_fault_count();
    let (obs, sink) = Observer::recording();
    let out = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .with_observer(obs)
        .with_checkpoint_policy(durable(&dir))
        .with_fault_plan(0, plan)
        .run()
        .unwrap();
    assert_eq!(out.vertex_values, clean.vertex_values);
    assert_eq!(out.stats.storage_retries, injected, "all faults absorbed");
    assert_eq!(out.stats.checkpoints_skipped, 0);
    assert_eq!(
        sink.recorded().storage_decisions() as u64,
        injected,
        "one decision per injected I/O fault"
    );
    // The hardened writes stayed durable: resume replays exactly.
    let resumed = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .with_checkpoint_policy(durable(&dir))
        .resume(&dir)
        .unwrap();
    assert_eq!(resumed.vertex_values, clean.vertex_values);
}

#[test]
fn multi_snapshots_record_placement_and_resume_single_gpu() {
    // A multi run writes the same container as a single-GPU run, with
    // the device count and shard placement in its header; the single-GPU
    // engine ignores the placement, so a multi checkpoint can even be
    // resumed single-GPU.
    let layout = multi_layout();
    let dir = scratch("placement");
    let multi = MultiGraphReduce::new(Cc, &layout, platform(), 2)
        .with_checkpoint_policy(durable(&dir))
        .run()
        .unwrap();
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "grck"))
        .max()
        .expect("a snapshot was written");
    let bytes = std::fs::read(&newest).unwrap();
    assert_eq!(bytes[..4], graphreduce::snapshot::SNAPSHOT_MAGIC);
    // Header: 25-byte frame prefix, kind u8, algorithm (len u32 + bytes),
    // graph and state hashes and m (u64 each), n, iterations and base
    // (u32 each), then the device count and the placement length.
    let algo = u32::from_le_bytes(bytes[26..30].try_into().unwrap()) as usize;
    let at = 30 + algo + 36;
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    assert_eq!(word(at), 2, "device count");
    assert!(word(at + 4) > 0, "one owner per shard");
    let single = graphreduce::GraphReduce::new(
        Cc,
        &layout,
        platform(),
        graphreduce::Options::optimized()
            .with_checkpoint_policy(CheckpointPolicy::durable(&dir, 1)),
    )
    .resume(&dir)
    .unwrap();
    assert_eq!(single.vertex_values, multi.vertex_values);
    assert_eq!(
        single.stats.state_fingerprint,
        multi.stats.state_fingerprint
    );
}
