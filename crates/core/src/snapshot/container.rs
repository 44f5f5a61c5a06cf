//! The snapshot container: one encoder and one decoder for fulls and
//! deltas, the file naming and retention, and the one resume entry point
//! ([`load_newest`]).
//!
//! Layout, inside the shared [`crate::frame`]:
//!
//! ```text
//! header: kind u8 | algorithm (len u32 + bytes) | graph u64 | state u64
//!       | m u64 | n u32 | iterations u32 | delta base u32
//!       | devices u32 | placement len u32 | owner u32 per shard
//! body:   [dirty bitmap (deltas)] | (vertex value, gather temp) per
//!         written vertex | edge values | frontier, changed and
//!         next-frontier bitmaps | trace (40 B per iteration)
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use gr_graph::{Bitmap, CompressionCodec};

use super::{
    Fingerprint, SnapshotError, StateBytes, SNAPSHOTS_RETAINED, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use crate::api::GasProgram;
use crate::exec::host::HostState;
use crate::frame::{self, put_values, FrameError, Reader};
use crate::stats::IterationStats;

/// A full snapshot holds every vertex; a delta holds the vertices changed
/// since the last full (cumulative, so a restore chain is one full plus
/// at most one delta).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Full = 0,
    Delta = 1,
}

/// The cluster context a multi-GPU snapshot was taken under: the device
/// count and the owning device per shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Placement {
    pub(crate) num_gpus: u32,
    pub(crate) owners: Vec<u32>,
}

/// Where a delta restore left the incremental-write chain: the resumed
/// run's `DurableWriter` continues accumulating onto this dirty set
/// against the same base full snapshot.
#[derive(Clone, Debug)]
pub(crate) struct DeltaChain {
    /// Iteration boundary of the base full snapshot the delta applied to.
    pub(crate) base_iterations: u32,
    /// Vertices dirty since that base (cumulative).
    pub(crate) dirty: Bitmap,
}

/// Serialize `host` into one container: a full, or with `delta =
/// Some((base, dirty))` a delta carrying only the `dirty` vertices. The
/// body is coded through `codec` when given. Returns the file bytes and
/// what they would take with a raw body.
pub(crate) fn encode<P: GasProgram>(
    fp: &Fingerprint,
    host: &HostState<P>,
    delta: Option<(u32, &Bitmap)>,
    placement: Option<&Placement>,
    codec: Option<CompressionCodec>,
) -> (Vec<u8>, u64) {
    let n = host.vertex_values.len();
    let (gpus, owners) = placement.map_or((0, &[][..]), |p| (p.num_gpus, &p.owners[..]));
    let kind = if delta.is_some() {
        Kind::Delta
    } else {
        Kind::Full
    };
    let mut header = vec![kind as u8];
    put_values(&mut header, &[fp.algorithm.len() as u32]);
    header.extend_from_slice(fp.algorithm.as_bytes());
    put_values(
        &mut header,
        &[fp.graph, fp.state, host.edge_values.len() as u64],
    );
    let iterations = host.iterations.len() as u32;
    let base = delta.map_or(0, |(base, _)| base);
    put_values(
        &mut header,
        &[n as u32, iterations, base, gpus, owners.len() as u32],
    );
    put_values(&mut header, owners);

    let (vb, rec) = (
        P::VertexValue::BYTES,
        P::VertexValue::BYTES + P::Gather::BYTES,
    );
    let count = delta.map_or(n, |(_, dirty)| dirty.count() as usize);
    let mut body = Vec::with_capacity(
        4 * n.div_ceil(64) * 8
            + count * rec
            + host.edge_values.len() * P::EdgeValue::BYTES
            + host.iterations.len() * IterationStats::BYTES,
    );
    if let Some((_, dirty)) = delta {
        put_values(&mut body, dirty.words());
    }
    let start = body.len();
    body.resize(start + count * rec, 0);
    let mut put_record = |i: usize, v: usize| {
        let at = start + i * rec;
        host.vertex_values[v].write_bytes(&mut body[at..at + vb]);
        host.gather_temp[v].write_bytes(&mut body[at + vb..at + rec]);
    };
    match delta {
        None => (0..n).for_each(|v| put_record(v, v)),
        Some((_, dirty)) => {
            for (i, v) in dirty.iter_set().enumerate() {
                put_record(i, v as usize);
            }
        }
    }
    put_values(&mut body, &host.edge_values);
    for bitmap in [&host.frontier, &host.changed, &host.next_frontier] {
        put_values(&mut body, bitmap.words());
    }
    put_values(&mut body, &host.iterations);
    let raw = (frame::PREFIX + header.len() + body.len() + 8) as u64;
    let sealed = frame::seal(&SNAPSHOT_MAGIC, SNAPSHOT_VERSION, codec, &header, &body);
    (sealed, raw)
}

impl SnapshotError {
    fn framed(path: &Path, e: FrameError) -> Self {
        let path = path.to_path_buf();
        match e {
            FrameError::Short {
                offset,
                needed,
                what,
            } => SnapshotError::ShortRead {
                path,
                offset,
                needed,
                what,
            },
            FrameError::BadMagic => SnapshotError::BadMagic { path },
            FrameError::Version { found } => SnapshotError::VersionMismatch {
                path,
                found,
                expected: SNAPSHOT_VERSION,
            },
            FrameError::Checksum { stored, computed } => SnapshotError::ChecksumMismatch {
                path,
                stored,
                computed,
            },
            FrameError::Corrupt { offset, what } => SnapshotError::Corrupt { path, offset, what },
        }
    }
}

/// Decode one container file. Validates the frame, then every header
/// field: the kind and iteration count against the file name, the
/// fingerprint (a mismatch fails fast), `n` and `m` against the resuming
/// graph, the delta base and the placement, bounding every count by the
/// bytes that remain before anything is allocated. A full builds the host
/// state from scratch; a delta fetches its base full's state through
/// `base` and overlays its dirty records. Gather temps of clean vertices
/// keep the base's values: the engine writes a vertex's gather slot
/// before reading it in every iteration the vertex is active, so those
/// stale slots are never observed.
fn decode<P: GasProgram>(
    path: &Path,
    buf: &[u8],
    fp: &Fingerprint,
    kind: Kind,
    iterations: u32,
    base: impl FnOnce(u32) -> Result<HostState<P>, SnapshotError>,
) -> Result<Restored<P>, SnapshotError> {
    let err = |e| SnapshotError::framed(path, e);
    let f = frame::open(buf, &SNAPSHOT_MAGIC, SNAPSHOT_VERSION).map_err(err)?;
    let mut r = Reader::new(f.header, frame::PREFIX);
    if r.take(1, "snapshot kind").map_err(err)?[0] != kind as u8 {
        return Err(err(r.corrupt("snapshot kind")));
    }
    let algo_len = r.u32("algorithm name length").map_err(err)?;
    if algo_len > 4096 {
        return Err(err(r.corrupt("algorithm name length")));
    }
    let algo = r
        .take_n(algo_len.into(), 1, "algorithm name")
        .map_err(err)?;
    let mismatch = |field, found, expected| SnapshotError::FingerprintMismatch {
        path: path.to_path_buf(),
        field,
        found,
        expected,
    };
    let algo = String::from_utf8_lossy(algo);
    if algo != fp.algorithm {
        return Err(mismatch(
            "algorithm",
            algo.into_owned(),
            fp.algorithm.clone(),
        ));
    }
    for (field, want) in [
        ("graph fingerprint", fp.graph),
        ("state-layout fingerprint", fp.state),
    ] {
        let found = r.u64(field).map_err(err)?;
        if found != want {
            return Err(mismatch(
                field,
                format!("{found:#018x}"),
                format!("{want:#018x}"),
            ));
        }
    }
    if r.u64("edge count").map_err(err)? != fp.edges {
        return Err(err(r.corrupt("edge count")));
    }
    let n = fp.vertices;
    if r.u32("vertex count").map_err(err)? != n {
        return Err(err(r.corrupt("vertex count")));
    }
    if r.u32("iteration count").map_err(err)? != iterations {
        return Err(err(r.corrupt("iteration count")));
    }
    let base_at = r.u32("base iteration count").map_err(err)?;
    let base_ok = match kind {
        Kind::Full => base_at == 0,
        Kind::Delta => base_at < iterations,
    };
    if !base_ok {
        return Err(err(r.corrupt("base iteration count")));
    }
    let num_gpus = r.u32("device count").map_err(err)?;
    let owners_len = r.u32("placement map length").map_err(err)?;
    // A shard owns at least one vertex, so a placement never outnumbers
    // the graph's vertices; no devices means no placement at all.
    if (num_gpus == 0 && owners_len != 0) || owners_len > n.max(1) {
        return Err(err(r.corrupt("placement map length")));
    }
    let owners: Vec<u32> = r.values(owners_len.into(), "placement map").map_err(err)?;
    if owners.iter().any(|&o| o >= num_gpus) {
        return Err(err(r.corrupt("placement map entry")));
    }
    r.finish("header length").map_err(err)?;

    // The largest body this header allows (a delta with every vertex
    // dirty), so a hostile raw length is refused before decoding.
    let (vb, rec) = (
        P::VertexValue::BYTES,
        P::VertexValue::BYTES + P::Gather::BYTES,
    );
    let max_body = (u64::from(n.div_ceil(64)) * 32)
        .saturating_add(u64::from(n) * rec as u64)
        .saturating_add(fp.edges.saturating_mul(P::EdgeValue::BYTES as u64))
        .saturating_add(u64::from(iterations) * IterationStats::BYTES as u64);
    if f.raw_len > max_body {
        return Err(err(FrameError::Corrupt {
            offset: 9,
            what: "raw length",
        }));
    }
    let body = f.body().map_err(err)?;
    let mut r = Reader::new(&body, f.body_base());
    let (mut values, mut gathers, dirty) = match kind {
        Kind::Full => (Vec::new(), Vec::new(), None),
        Kind::Delta => {
            let b = base(base_at)?;
            let dirty = r.bitmap(n, "dirty bitmap").map_err(err)?;
            (b.vertex_values, b.gather_temp, Some(dirty))
        }
    };
    let count = dirty.as_ref().map_or(u64::from(n), Bitmap::count);
    let recs = r.take_n(count, rec, "vertex records").map_err(err)?;
    let record = |i: usize| {
        let at = i * rec;
        (
            P::VertexValue::read_bytes(&recs[at..at + vb]),
            P::Gather::read_bytes(&recs[at + vb..at + rec]),
        )
    };
    match &dirty {
        None => (values, gathers) = (0..n as usize).map(record).unzip(),
        Some(d) => {
            for (i, v) in d.iter_set().enumerate() {
                (values[v as usize], gathers[v as usize]) = record(i);
            }
        }
    }
    let edge_values = r.values(fp.edges, "edge values").map_err(err)?;
    let frontier = r.bitmap(n, "frontier bitmap").map_err(err)?;
    let changed = r.bitmap(n, "changed bitmap").map_err(err)?;
    let next_frontier = r.bitmap(n, "next-frontier bitmap").map_err(err)?;
    let trace = r.values(iterations.into(), "trace").map_err(err)?;
    r.finish("body length").map_err(err)?;
    Ok(Restored {
        host: HostState {
            vertex_values: values,
            edge_values,
            gather_temp: gathers,
            frontier,
            changed,
            next_frontier,
            iterations: trace,
        },
        bytes: buf.len() as u64,
        delta: dirty.map(|dirty| DeltaChain {
            base_iterations: base_at,
            dirty,
        }),
        placement: (num_gpus > 0).then_some(Placement { num_gpus, owners }),
    })
}

pub(crate) fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.to_path_buf(),
        op,
        detail: e.to_string(),
    }
}

/// Snapshot filename for a kind and completed-iteration count
/// (zero-padded so lexicographic order == iteration order).
pub(crate) fn file_name(kind: Kind, iterations: u32) -> String {
    match kind {
        Kind::Full => format!("ckpt-{iterations:08}.grck"),
        Kind::Delta => format!("delta-{iterations:08}.grcd"),
    }
}

fn parse_name(name: &str) -> Option<(u32, Kind)> {
    let (digits, kind) = match name.strip_prefix("ckpt-") {
        Some(rest) => (rest.strip_suffix(".grck")?, Kind::Full),
        None => (
            name.strip_prefix("delta-")?.strip_suffix(".grcd")?,
            Kind::Delta,
        ),
    };
    Some((digits.parse().ok()?, kind))
}

/// Every snapshot file under `dir`, newest boundary first; at one
/// boundary a full sorts before a delta (never written by one run, but a
/// resume could legitimately recreate one as the other).
fn snapshot_files(dir: &Path) -> Result<Vec<(u32, Kind, PathBuf)>, SnapshotError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, "read directory", e))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, "read directory entry", e))?;
        if let Some((iters, kind)) = entry.file_name().to_str().and_then(parse_name) {
            found.push((iters, kind, entry.path()));
        }
    }
    found.sort_by_key(|&(iters, kind, _)| (std::cmp::Reverse(iters), kind as u8));
    Ok(found)
}

/// Retention: keep the [`SNAPSHOTS_RETAINED`] newest files of each kind,
/// and drop every delta at or below `obsolete_upto` (a freshly written
/// full makes all earlier deltas redundant).
pub(crate) fn prune(dir: &Path, obsolete_upto: Option<u32>) -> Result<(), SnapshotError> {
    let mut kept = [0usize; 2];
    for (iters, kind, path) in snapshot_files(dir)? {
        kept[kind as usize] += 1;
        let obsolete = kind == Kind::Delta && obsolete_upto.is_some_and(|upto| iters <= upto);
        if obsolete || kept[kind as usize] > SNAPSHOTS_RETAINED {
            fs::remove_file(&path).map_err(|e| io_err(&path, "prune", e))?;
        }
    }
    Ok(())
}

/// Everything a resume needs from disk: the restored host state, its
/// on-disk size (a delta restore adds its base full's size), the delta
/// chain to continue (if the newest file was a delta), and the placement
/// (if a multi-GPU run wrote the file).
pub(crate) struct Restored<P: GasProgram> {
    pub(crate) host: HostState<P>,
    pub(crate) bytes: u64,
    pub(crate) delta: Option<DeltaChain>,
    pub(crate) placement: Option<Placement>,
}

/// Load the newest intact snapshot — full or delta — under `dir` for the
/// given fingerprint. A delta needs its base full intact too; corruption
/// of either falls back to the next-older candidate, while a fingerprint
/// or version mismatch fails fast (resuming a different run's checkpoint
/// silently would be the worst possible outcome).
pub(crate) fn load_newest<P: GasProgram>(
    dir: &Path,
    fp: &Fingerprint,
) -> Result<Restored<P>, SnapshotError> {
    let mut last_err = None;
    for (iters, kind, path) in snapshot_files(dir)? {
        match load_one::<P>(dir, &path, kind, iters, fp) {
            Ok(r) => return Ok(r),
            Err(e @ SnapshotError::FingerprintMismatch { .. })
            | Err(e @ SnapshotError::VersionMismatch { .. }) => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or(SnapshotError::NoSnapshot {
        dir: dir.to_path_buf(),
    }))
}

fn load_one<P: GasProgram>(
    dir: &Path,
    path: &Path,
    kind: Kind,
    iters: u32,
    fp: &Fingerprint,
) -> Result<Restored<P>, SnapshotError> {
    let read = |p: &Path| fs::read(p).map_err(|e| io_err(p, "read", e));
    let mut base_bytes = 0;
    let mut r = decode(path, &read(path)?, fp, kind, iters, |at| {
        let base_path = dir.join(file_name(Kind::Full, at));
        let buf = read(&base_path)?;
        base_bytes = buf.len() as u64;
        let no_base = |_| unreachable!("a full has no base");
        Ok(decode::<P>(&base_path, &buf, fp, Kind::Full, at, no_base)?.host)
    })?;
    r.bytes += base_bytes;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::super::fingerprint_for;
    use super::*;
    use crate::testprog::{Cc, Pr};
    use gr_graph::{gen, GraphLayout};

    fn layout() -> GraphLayout {
        GraphLayout::build(&gen::uniform(96, 400, 5).symmetrize())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("gr-snap-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// Host state at boundary `iters` whose vertex values carry `seed`, so
    /// tests can tell which file a resume actually restored.
    fn host(l: &GraphLayout, iters: usize, seed: u32) -> HostState<Cc> {
        let mut frontier = Bitmap::new(96);
        frontier.set(3);
        frontier.set(77);
        HostState {
            vertex_values: (0u32..96).map(|i| i + seed).collect(),
            edge_values: vec![(); l.num_edges() as usize],
            gather_temp: vec![u32::MAX; 96],
            frontier,
            changed: Bitmap::new(96),
            next_frontier: Bitmap::new(96),
            iterations: (0..iters)
                .map(|i| IterationStats {
                    frontier_size: 96 - i as u64,
                    gathered_edges: 400,
                    changed: 12,
                    activated: 2,
                    shards_processed: 2,
                    shards_skipped: 0,
                })
                .collect(),
        }
    }

    fn write(dir: &Path, fp: &Fingerprint, h: &HostState<Cc>, delta: Option<(u32, &Bitmap)>) {
        let kind = if delta.is_some() {
            Kind::Delta
        } else {
            Kind::Full
        };
        let (bytes, _) = encode(fp, h, delta, None, None);
        frame::write_atomic(dir, &file_name(kind, h.iterations.len() as u32), &bytes).unwrap();
    }

    fn decode_full(
        buf: &[u8],
        fp: &Fingerprint,
        iters: u32,
    ) -> Result<Restored<Cc>, SnapshotError> {
        decode(
            Path::new("mem"),
            buf,
            fp,
            Kind::Full,
            iters,
            |_| unreachable!(),
        )
    }

    /// The error decoding `buf` fails with (it must fail).
    fn refuse(buf: &[u8], fp: &Fingerprint, iters: u32) -> SnapshotError {
        decode_full(buf, fp, iters).err().expect("decode must fail")
    }

    fn same(a: &HostState<Cc>, b: &HostState<Cc>) {
        assert_eq!(a.vertex_values, b.vertex_values);
        assert_eq!(a.gather_temp, b.gather_temp);
        assert_eq!(a.edge_values.len(), b.edge_values.len());
        assert_eq!(a.frontier, b.frontier);
        assert_eq!(a.changed, b.changed);
        assert_eq!(a.next_frontier, b.next_frontier);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn full_round_trips_raw_and_coded() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let h = host(&l, 1, 0);
        for codec in [
            None,
            Some(CompressionCodec::Zeta(3)),
            Some(CompressionCodec::Varint),
        ] {
            let (buf, raw) = encode(&fp, &h, None, None, codec);
            same(&decode_full(&buf, &fp, 1).unwrap().host, &h);
            assert_eq!(buf[8], frame::codec_tag(codec));
            if codec.is_none() {
                assert_eq!(raw, buf.len() as u64);
            }
        }
    }

    #[test]
    fn bit_flips_anywhere_fail_the_checksum() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let (buf, _) = encode(&fp, &host(&l, 1, 0), None, None, None);
        // Flip one bit in several regions: header, values, bitmap, trace.
        for at in [9, 40, 200, buf.len() - 20] {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            match refuse(&bad, &fp, 1) {
                SnapshotError::ChecksumMismatch { .. } => {}
                other => panic!("flip at {at}: expected checksum mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_a_typed_short_read_or_checksum_failure() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let (buf, _) = encode(&fp, &host(&l, 1, 0), None, None, None);
        // A file cut before the version ends: the reader reports exactly
        // which field ran dry and where.
        match refuse(&buf[..6], &fp, 1) {
            SnapshotError::ShortRead {
                offset,
                needed,
                what,
                ..
            } => {
                assert_eq!(offset, 4, "version field starts after the magic");
                assert_eq!(needed, 2, "4-byte version, 2 bytes left");
                assert_eq!(what, "version");
            }
            other => panic!("expected short read, got {other:?}"),
        }
        // A cut anywhere past the prefix is an integrity failure, never
        // silently-short state.
        for cut in [60, buf.len() - 3] {
            let e = refuse(&buf[..cut], &fp, 1);
            assert!(matches!(e, SnapshotError::ChecksumMismatch { .. }), "{e}");
            assert!(e.to_string().contains("corrupt"), "{e}");
        }
    }

    #[test]
    fn wrong_magic_version_and_retired_formats_are_refused() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let (buf, _) = encode(&fp, &host(&l, 1, 0), None, None, None);
        // The retired siblings never read as this container.
        for magic in [b"XRCK", b"GRCD", b"GRCZ", b"GRCM"] {
            let mut bad = buf.clone();
            bad[..4].copy_from_slice(magic);
            assert!(matches!(
                refuse(&bad, &fp, 1),
                SnapshotError::BadMagic { .. }
            ));
        }
        // Version 1 is the retired GRCK layout.
        for v in [1u32, 99] {
            let mut bad = buf.clone();
            bad[4..8].copy_from_slice(&v.to_le_bytes());
            match refuse(&bad, &fp, 1) {
                SnapshotError::VersionMismatch {
                    found, expected, ..
                } => assert_eq!((found, expected), (v, SNAPSHOT_VERSION)),
                other => panic!("expected version mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn fingerprint_mismatches_fail_fast_with_field_context() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let (buf, _) = encode(&fp, &host(&l, 1, 0), None, None, None);
        // Different algorithm.
        let other = Fingerprint {
            algorithm: "pagerank".into(),
            ..fp.clone()
        };
        let e = refuse(&buf, &other, 1);
        assert!(e.to_string().contains("algorithm"), "{e}");
        // Different graph.
        let l2 = GraphLayout::build(&gen::uniform(96, 420, 6).symmetrize());
        let fp2 = fingerprint_for(&Cc, &l2);
        assert_ne!(
            fp.graph, fp2.graph,
            "distinct graphs must fingerprint apart"
        );
        let e = refuse(&buf, &fp2, 1);
        assert!(
            matches!(e, SnapshotError::FingerprintMismatch { field, .. } if field == "graph fingerprint"),
        );
        // Different state layout (Pr has an 8-byte vertex value).
        let fp3 = fingerprint_for(&Pr, &l);
        assert_ne!(fp.state, fp3.state);
    }

    #[test]
    fn header_counts_are_checked_against_the_run_and_the_name() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let (buf, _) = encode(&fp, &host(&l, 1, 0), None, None, None);
        // Same graph hash, lying counts: corrupt, never a short state.
        for (field, lie) in [
            (
                "vertex count",
                Fingerprint {
                    vertices: 95,
                    ..fp.clone()
                },
            ),
            (
                "edge count",
                Fingerprint {
                    edges: fp.edges + 1,
                    ..fp.clone()
                },
            ),
        ] {
            match refuse(&buf, &lie, 1) {
                SnapshotError::Corrupt { what, .. } => assert_eq!(what, field),
                other => panic!("{field}: expected corrupt, got {other:?}"),
            }
        }
        // A file whose name disagrees with its boundary or kind.
        assert!(matches!(
            refuse(&buf, &fp, 2),
            SnapshotError::Corrupt {
                what: "iteration count",
                ..
            }
        ));
        let as_delta = decode::<Cc>(Path::new("mem"), &buf, &fp, Kind::Delta, 1, |_| {
            unreachable!("the kind is checked before any base is fetched")
        });
        assert!(matches!(
            as_delta.err(),
            Some(SnapshotError::Corrupt {
                what: "snapshot kind",
                ..
            })
        ));
    }

    #[test]
    fn placement_round_trips_and_hostile_raw_lengths_fail_typed() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let h = host(&l, 1, 0);
        let p = Placement {
            num_gpus: 3,
            owners: vec![0, 1, 2, 0, 1],
        };
        let (buf, _) = encode(&fp, &h, None, Some(&p), None);
        assert_eq!(decode_full(&buf, &fp, 1).unwrap().placement, Some(p));
        // A coded body whose raw length exceeds anything the header
        // allows is refused before the decoder allocates.
        let (good, _) = encode(&fp, &h, None, None, Some(CompressionCodec::Zeta(3)));
        let mut bad = good[..good.len() - 8].to_vec();
        bad[9..17].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let sum = frame::fnv1a(&bad);
        bad.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            refuse(&bad, &fp, 1),
            SnapshotError::Corrupt {
                what: "raw length",
                ..
            }
        ));
    }

    #[test]
    fn retention_keeps_two_of_each_kind_and_drops_obsolete_deltas() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("retain");
        let dirty = Bitmap::new(96);
        for iters in [0usize, 2, 4, 6] {
            write(&dir, &fp, &host(&l, iters, iters as u32), None);
            prune(&dir, Some(iters as u32)).unwrap();
        }
        for iters in [7usize, 8, 9] {
            write(&dir, &fp, &host(&l, iters, 0), Some((6, &dirty)));
            prune(&dir, None).unwrap();
        }
        let names = |dir: &Path| -> Vec<(u32, Kind)> {
            snapshot_files(dir)
                .unwrap()
                .into_iter()
                .map(|(i, k, _)| (i, k))
                .collect()
        };
        assert_eq!(
            names(&dir),
            vec![
                (9, Kind::Delta),
                (8, Kind::Delta),
                (6, Kind::Full),
                (4, Kind::Full)
            ]
        );
        // A full at 8 obsoletes the iter-8 delta (and pushes out 4).
        write(&dir, &fp, &host(&l, 8, 8), None);
        prune(&dir, Some(8)).unwrap();
        assert_eq!(
            names(&dir),
            vec![(9, Kind::Delta), (8, Kind::Full), (6, Kind::Full)]
        );
        // No temp litter survives a completed write.
        assert!(fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".tmp")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_latest_falls_back_to_previous_intact() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("fallback");
        write(&dir, &fp, &host(&l, 4, 4), None);
        write(&dir, &fp, &host(&l, 6, 6), None);
        let r = load_newest::<Cc>(&dir, &fp).unwrap();
        assert_eq!(r.host.vertex_values[0], 6, "the newest file was loaded");
        assert!(r.bytes > 0 && r.delta.is_none() && r.placement.is_none());
        // Flip a byte in the newest file.
        let latest = dir.join(file_name(Kind::Full, 6));
        let mut raw = fs::read(&latest).unwrap();
        raw[100] ^= 0xff;
        fs::write(&latest, &raw).unwrap();
        let r = load_newest::<Cc>(&dir, &fp).unwrap();
        assert_eq!(r.host.vertex_values[0], 4, "fell back to the intact file");
        // Both corrupt -> typed error, not garbage state.
        let prev = dir.join(file_name(Kind::Full, 4));
        let mut raw = fs::read(&prev).unwrap();
        raw.truncate(raw.len() - 1);
        fs::write(&prev, &raw).unwrap();
        assert!(load_newest::<Cc>(&dir, &fp).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_round_trips_onto_its_base_and_needs_it() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("delta");
        let base = host(&l, 2, 0);
        write(&dir, &fp, &base, None);
        // Three vertices changed since the base.
        let mut dirty = Bitmap::new(96);
        let mut next = host(&l, 4, 0);
        for v in [0u32, 40, 95] {
            dirty.set(v);
            next.vertex_values[v as usize] = 7;
            next.gather_temp[v as usize] = 5;
        }
        next.frontier = Bitmap::new(96);
        next.frontier.set(40);
        for codec in [None, Some(CompressionCodec::Zeta(3))] {
            let (buf, _) = encode(&fp, &next, Some((2, &dirty)), None, codec);
            frame::write_atomic(&dir, &file_name(Kind::Delta, 4), &buf).unwrap();
            let got = load_newest::<Cc>(&dir, &fp).unwrap();
            same(&got.host, &next);
            let chain = got.delta.expect("newest file is a delta");
            assert_eq!(chain.base_iterations, 2);
            assert_eq!(chain.dirty, dirty);
            // A delta of 3 dirty vertices is far smaller than a full.
            assert!(buf.len() < encode(&fp, &next, None, None, codec).0.len());
        }
        // Flip a byte in the delta: resume falls back to the base full.
        let dpath = dir.join(file_name(Kind::Delta, 4));
        let good = fs::read(&dpath).unwrap();
        let mut bad = good.clone();
        bad[60] ^= 0xff;
        fs::write(&dpath, &bad).unwrap();
        let got = load_newest::<Cc>(&dir, &fp).unwrap();
        same(&got.host, &base);
        assert!(got.delta.is_none());
        // Delete the base instead: a dangling intact delta is unusable.
        fs::write(&dpath, &good).unwrap();
        fs::remove_file(dir.join(file_name(Kind::Full, 2))).unwrap();
        assert!(matches!(
            load_newest::<Cc>(&dir, &fp),
            Err(SnapshotError::Io { op: "read", .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_is_a_clean_no_snapshot() {
        let dir = tmpdir("empty");
        let fp = fingerprint_for(&Cc, &layout());
        assert!(matches!(
            load_newest::<Cc>(&dir, &fp),
            Err(SnapshotError::NoSnapshot { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            load_newest::<Cc>(&dir, &fp),
            Err(SnapshotError::Io { .. })
        ));
    }
}
