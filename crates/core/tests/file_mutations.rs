//! Seeded mutation harness over every file kind the engine writes: full,
//! delta, ζ₃-coded and multi-GPU snapshots from real durable runs, and
//! raw and ζ₃ spill frames from `FileShardStore`.
//!
//! Each file is truncated at sampled offsets, has single bits flipped, and
//! has every header count and length field rewritten to a lie (0, off by
//! one, the type's maximum) under a recomputed checksum, so only the
//! decoder stands between the lie and the caller. A mutated snapshot must
//! either fail `resume` with a typed error or fall back to an older intact
//! file and replay to the uninterrupted answer; a mutated spill frame
//! must fail `get` with a typed error. Nothing may panic or abort.
//!
//! Field offsets follow the layout in `docs/DURABILITY.md`: a 25-byte
//! frame prefix (magic, version, codec tag, raw length u64 at 9, coded
//! length u64 at 17), then the caller's header.

use std::path::{Path, PathBuf};

use gr_graph::{gen, CompressionCodec, GraphLayout};
use gr_observe::{Decision, Observer};
use gr_sim::Platform;
use graphreduce::testprog::Cc;
use graphreduce::{
    CheckpointPolicy, EngineError, FileShardStore, GraphReduce, MultiGraphReduce, Options,
    ShardStore, SnapshotError, StoreError,
};

/// A 16 x 16 grid: CC takes about its diameter in iterations, so delta
/// runs leave deltas and fulls on disk.
fn layout() -> GraphLayout {
    GraphLayout::build(&gen::grid2d_with_edges(256, 1024, 3))
}

fn platform() -> Platform {
    Platform::paper_node()
}

fn scratch(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("gr-mut-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// FNV-1a 64, the frame checksum, so a lie can be resealed.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `good` with `value` written over `width` bytes at `at`, checksum
/// recomputed over the result.
fn reseal(good: &[u8], at: usize, width: usize, value: u64) -> Vec<u8> {
    let mut body = good[..good.len() - 8].to_vec();
    body[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

fn field(bytes: &[u8], at: usize, width: usize) -> u64 {
    let mut w = [0u8; 8];
    w[..width].copy_from_slice(&bytes[at..at + width]);
    u64::from_le_bytes(w)
}

/// Deterministic xorshift stream for sampled offsets and bits.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Every mutation of `good`, labelled: sampled truncations, sampled
/// single-bit flips, and each `(name, offset, width)` count field set to
/// 0, off by one either way, and its maximum.
fn mutations(
    good: &[u8],
    fields: &[(&'static str, usize, usize)],
    seed: u64,
) -> Vec<(String, Vec<u8>)> {
    let mut rng = Rng(seed);
    let mut out = Vec::new();
    let len = good.len();
    let mut cuts = vec![0, 1, 4, 8, 24, 25, 26, len / 2, len - 9, len - 8, len - 1];
    cuts.extend((0..6).map(|_| rng.below(len)));
    for cut in cuts {
        out.push((format!("truncated to {cut}"), good[..cut].to_vec()));
    }
    for _ in 0..24 {
        let (at, bit) = (rng.below(len), rng.below(8));
        let mut bad = good.to_vec();
        bad[at] ^= 1 << bit;
        out.push((format!("bit {bit} of byte {at} flipped"), bad));
    }
    for &(name, at, width) in fields {
        let v = field(good, at, width);
        let max = if width == 8 {
            u64::MAX
        } else {
            u64::from(u32::MAX)
        };
        for lie in [0, v.wrapping_sub(1), v + 1, max] {
            if lie != v && lie <= max {
                out.push((
                    format!("{name} = {lie} (was {v})"),
                    reseal(good, at, width, lie),
                ));
            }
        }
    }
    out
}

/// Header count and length fields of a snapshot container.
fn snapshot_fields(bytes: &[u8]) -> Vec<(&'static str, usize, usize)> {
    let algo = field(bytes, 26, 4) as usize;
    let at = 30 + algo;
    vec![
        ("raw length", 9, 8),
        ("coded length", 17, 8),
        ("algorithm name length", 26, 4),
        ("edge count", at + 16, 8),
        ("vertex count", at + 24, 4),
        ("iteration count", at + 28, 4),
        ("delta base", at + 32, 4),
        ("device count", at + 36, 4),
        ("placement length", at + 40, 4),
    ]
}

/// Snapshot files under `dir` as `(boundary, is_delta, path)`.
fn snapshots(dir: &Path) -> Vec<(u32, bool, PathBuf)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            let (digits, delta) = match name.strip_prefix("ckpt-") {
                Some(rest) => (rest.strip_suffix(".grck")?.to_string(), false),
                None => (
                    name.strip_prefix("delta-")?
                        .strip_suffix(".grcd")?
                        .to_string(),
                    true,
                ),
            };
            Some((digits.parse().ok()?, delta, p))
        })
        .collect();
    out.sort();
    out
}

/// One snapshot file to mutate: a directory a real run left behind, the
/// newest file of the wanted kind in it, and how to resume.
struct Target {
    tag: &'static str,
    dir: PathBuf,
    boundary: u32,
    file: PathBuf,
    gpus: u32,
}

impl Target {
    /// Run CC durably into a fresh directory and pick the newest file of
    /// the wanted kind.
    fn new(
        tag: &'static str,
        opts: Options,
        policy: CheckpointPolicy,
        gpus: u32,
        delta: bool,
    ) -> Self {
        let dir = scratch(tag);
        let policy = match policy {
            CheckpointPolicy::Durable { every, .. } => CheckpointPolicy::durable(&dir, every),
            CheckpointPolicy::DurableDelta {
                every, full_every, ..
            } => CheckpointPolicy::durable_delta(&dir, every, full_every),
            other => other,
        };
        let l = layout();
        if gpus > 1 {
            MultiGraphReduce::new(Cc, &l, platform(), gpus)
                .with_checkpoint_policy(policy)
                .run()
                .unwrap();
        } else {
            GraphReduce::new(Cc, &l, platform(), opts.with_checkpoint_policy(policy))
                .run()
                .unwrap();
        }
        let (boundary, _, file) = snapshots(&dir)
            .into_iter()
            .rfind(|s| s.1 == delta)
            .unwrap_or_else(|| panic!("{tag}: the run left no file of the wanted kind"));
        Target {
            tag,
            dir,
            boundary,
            file,
            gpus,
        }
    }

    /// Resume from a copy of the directory holding `bytes` in place of
    /// the target (and nothing newer): the final values and the boundary
    /// the restore came from.
    fn resume(&self, bytes: &[u8]) -> Result<(Vec<u32>, u32), EngineError> {
        let work = scratch(&format!("{}-work", self.tag));
        for (b, _, p) in snapshots(&self.dir) {
            if b <= self.boundary && p != self.file {
                std::fs::copy(&p, work.join(p.file_name().unwrap())).unwrap();
            }
        }
        std::fs::write(work.join(self.file.file_name().unwrap()), bytes).unwrap();
        let l = layout();
        let (obs, sink) = Observer::recording();
        let values = if self.gpus > 1 {
            MultiGraphReduce::new(Cc, &l, platform(), self.gpus)
                .with_observer(obs)
                .resume(&work)
                .map(|r| r.vertex_values)
        } else {
            GraphReduce::new(Cc, &l, platform(), Options::optimized())
                .with_observer(obs)
                .resume(&work)
                .map(|r| r.vertex_values)
        };
        std::fs::remove_dir_all(&work).unwrap();
        let restored = sink.recorded().decisions.iter().find_map(|d| match d {
            Decision::CheckpointRestore { iteration, .. } => Some(*iteration),
            _ => None,
        });
        values.map(|v| (v, restored.expect("a resume logs its restore")))
    }
}

fn oracle() -> Vec<u32> {
    GraphReduce::new(Cc, &layout(), platform(), Options::optimized())
        .run()
        .unwrap()
        .vertex_values
}

fn targets() -> Vec<Target> {
    let zeta = Options::optimized().with_shard_compression(CompressionCodec::Zeta(3));
    let full = CheckpointPolicy::durable("", 1);
    // Fulls only at boundaries 0 and 64: the run ends on deltas.
    let delta = CheckpointPolicy::durable_delta("", 1, 64);
    vec![
        Target::new("full", Options::optimized(), full.clone(), 1, false),
        Target::new("delta", Options::optimized(), delta.clone(), 1, true),
        Target::new("zeta3", zeta.clone(), full.clone(), 1, false),
        Target::new("zeta3-delta", zeta, delta, 1, true),
        Target::new("multi", Options::optimized(), full, 2, false),
    ]
}

#[test]
fn mutated_snapshots_fail_typed_or_fall_back_to_an_older_intact_file() {
    let want = oracle();
    for (i, t) in targets().iter().enumerate() {
        let good = std::fs::read(&t.file).unwrap();
        assert_eq!(
            t.resume(&good).unwrap(),
            (want.clone(), t.boundary),
            "{}",
            t.tag
        );
        let (mut refused, mut fell_back) = (0, 0);
        for (what, bad) in mutations(&good, &snapshot_fields(&good), 0x9e37 + i as u64) {
            match t.resume(&bad) {
                Err(EngineError::Snapshot(_)) => refused += 1,
                Err(e) => panic!("{} {what}: untyped failure {e}", t.tag),
                Ok((values, restored)) => {
                    assert_eq!(values, want, "{} {what}: wrong answer", t.tag);
                    // The device count is advisory: a resume at another
                    // width re-derives the placement, so a lie there is
                    // self-consistent and may be read.
                    assert!(
                        restored < t.boundary || what.starts_with("device count"),
                        "{} {what}: restored the mutated file at {restored}",
                        t.tag
                    );
                    fell_back += 1;
                }
            }
        }
        assert!(
            refused > 0 && fell_back > 0,
            "{}: {refused} refused, {fell_back} fell back",
            t.tag
        );
        std::fs::remove_dir_all(&t.dir).unwrap();
    }
}

#[test]
fn mutated_spill_frames_fail_typed() {
    // A shard-shaped payload: interleaved (neighbor, edge id) words.
    let payload: Vec<u8> = (0u32..600)
        .flat_map(|i| [i / 3, i * 7].into_iter().flat_map(u32::to_le_bytes))
        .collect();
    for (i, codec) in [None, Some(CompressionCodec::Zeta(3))]
        .into_iter()
        .enumerate()
    {
        let dir = scratch("spill");
        let store = FileShardStore::with_codec(&dir, codec);
        store.put(7, &payload).unwrap();
        let path = dir.join("shard-000007.grsh");
        let good = std::fs::read(&path).unwrap();
        assert_eq!(store.get(7).unwrap(), payload);
        let fields = [("raw length", 9, 8), ("coded length", 17, 8)];
        for (what, bad) in mutations(&good, &fields, 0x51 + i as u64) {
            std::fs::write(&path, &bad).unwrap();
            match store.get(7) {
                Err(StoreError::Corrupt { .. } | StoreError::ShortRead { .. }) => {}
                other => panic!("{codec:?} {what}: expected a typed error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Resume from a directory holding only the older of a run's two
/// retained full snapshots (its frontier is not yet empty, so a resume
/// would run iterations on it), its header field `name` rewritten by
/// `lie`: the error it reports.
fn resume_with_lie(gpus: u32, name: &str, lie: impl FnOnce(u64) -> u64) -> EngineError {
    let full = CheckpointPolicy::durable("", 1);
    let mut t = Target::new("repro", Options::optimized(), full, gpus, false);
    let (boundary, _, file) = snapshots(&t.dir).remove(0);
    std::fs::remove_file(&t.file).unwrap();
    (t.boundary, t.file) = (boundary, file);
    let good = std::fs::read(&t.file).unwrap();
    let &(_, at, width) = snapshot_fields(&good).iter().find(|f| f.0 == name).unwrap();
    let err = t.resume(&reseal(&good, at, width, lie(field(&good, at, width))));
    std::fs::remove_dir_all(&t.dir).unwrap();
    err.expect_err("a lying header must not resume")
}

#[test]
fn iteration_count_of_u32_max_is_corrupt_not_an_abort() {
    let e = resume_with_lie(1, "iteration count", |_| u64::from(u32::MAX));
    assert!(
        matches!(
            e,
            EngineError::Snapshot(SnapshotError::Corrupt {
                what: "iteration count",
                ..
            })
        ),
        "{e}"
    );
}

#[test]
fn placement_length_of_u32_max_is_corrupt_not_an_abort() {
    let e = resume_with_lie(2, "placement length", |_| u64::from(u32::MAX));
    assert!(
        matches!(
            e,
            EngineError::Snapshot(SnapshotError::Corrupt {
                what: "placement map length",
                ..
            })
        ),
        "{e}"
    );
}

#[test]
fn vertex_count_one_short_is_corrupt_not_a_panic() {
    let e = resume_with_lie(1, "vertex count", |n| n - 1);
    assert!(
        matches!(
            e,
            EngineError::Snapshot(SnapshotError::Corrupt {
                what: "vertex count",
                ..
            })
        ),
        "{e}"
    );
}
