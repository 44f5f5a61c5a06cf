//! The one on-disk framing behind durable snapshots and spilled shards.
//!
//! Every file this crate writes is one frame:
//!
//! ```text
//! magic [4] | version u32 | codec tag u8 | raw len u64 | coded len u64
//!           | header (caller fields) | body (coded len bytes)
//!           | fnv1a-64 over every preceding byte
//! ```
//!
//! The body is stored as is (tag [`RAW_TAG`]) or run through the shard
//! store's payload coder ([`compress_payload`]); the header never is.
//! [`open`] checks magic and version, then the checksum, and only then
//! believes a single length or tag, so bit rot never reaches a decoder.
//! [`write_atomic`] is the one tmp + fsync + rename write.

use std::borrow::Cow;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use gr_graph::compress::{unzigzag, zigzag, BitReader, BitWriter};
use gr_graph::{Bitmap, CompressionCodec};

use crate::snapshot::StateBytes;

// ---------------------------------------------------------------------------
// FNV-1a checksums
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 (dependency-free; frames are read fully into
/// memory anyway, so a cryptographic hash buys nothing here).
#[derive(Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Codec tags
// ---------------------------------------------------------------------------

/// Codec tag of a body stored as is.
const RAW_TAG: u8 = 0xff;

/// First ζ tag: ζ_k bodies carry `ZETA_TAG_BASE + k`. Tags `1..=8` named
/// ζ_k in a retired bit order (minimal-binary suffix MSB-first, one bit
/// at a time) and are refused as a corrupt codec tag, never decoded.
const ZETA_TAG_BASE: u8 = 0x10;

/// Frame byte naming the body coding: [`RAW_TAG`], 0 = varint, or
/// `ZETA_TAG_BASE + k` = ζ_k.
pub(crate) fn codec_tag(codec: Option<CompressionCodec>) -> u8 {
    match codec {
        None => RAW_TAG,
        Some(CompressionCodec::Varint) => 0,
        Some(CompressionCodec::Zeta(k)) => ZETA_TAG_BASE + k.clamp(1, 8) as u8,
    }
}

/// Inverse of [`codec_tag`]; `Err` for any tag this build never writes.
fn codec_from_tag(tag: u8) -> Result<Option<CompressionCodec>, ()> {
    match tag {
        RAW_TAG => Ok(None),
        0 => Ok(Some(CompressionCodec::Varint)),
        t @ 0x11..=0x18 => Ok(Some(CompressionCodec::Zeta(u32::from(t - ZETA_TAG_BASE)))),
        _ => Err(()),
    }
}

// ---------------------------------------------------------------------------
// Seal / open
// ---------------------------------------------------------------------------

/// Bytes before the caller's header: magic, version, codec tag, raw and
/// coded body lengths.
pub(crate) const PREFIX: usize = 25;

/// Why a frame could not be opened. Offsets are file byte offsets (for a
/// coded body, offsets into the decoded body); the snapshot and shard
/// stores map these onto their own typed errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// The bytes ended `needed` short of `what`.
    Short {
        offset: u64,
        needed: u64,
        what: &'static str,
    },
    BadMagic,
    Version {
        found: u32,
    },
    Checksum {
        stored: u64,
        computed: u64,
    },
    /// A field is internally inconsistent.
    Corrupt {
        offset: u64,
        what: &'static str,
    },
}

/// Frame `header` and `body` (coded through `codec`, or raw) under one
/// checksum.
pub(crate) fn seal(
    magic: &[u8; 4],
    version: u32,
    codec: Option<CompressionCodec>,
    header: &[u8],
    body: &[u8],
) -> Vec<u8> {
    let coded = match codec {
        Some(c) => Cow::Owned(compress_payload(c, body)),
        None => Cow::Borrowed(body),
    };
    let mut out = Vec::with_capacity(PREFIX + header.len() + coded.len() + 8);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.push(codec_tag(codec));
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&(coded.len() as u64).to_le_bytes());
    out.extend_from_slice(header);
    out.extend_from_slice(&coded);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A frame whose magic, version and checksum held.
pub(crate) struct Opened<'a> {
    /// The caller's header fields (file offset [`PREFIX`]).
    pub(crate) header: &'a [u8],
    codec: Option<CompressionCodec>,
    /// Body length once decoded (checked against the coded length for a
    /// raw body, and against the stream by the decoder otherwise).
    pub(crate) raw_len: u64,
    body: &'a [u8],
    body_offset: usize,
}

impl<'a> Opened<'a> {
    /// Offset base for a body reader: file offsets for a raw body,
    /// decoded-body offsets for a coded one.
    pub(crate) fn body_base(&self) -> usize {
        if self.codec.is_none() {
            self.body_offset
        } else {
            0
        }
    }

    /// The body as written: borrowed when raw, decoded otherwise. A raw
    /// length the coded stream cannot hold fails before any allocation.
    pub(crate) fn body(&self) -> Result<Cow<'a, [u8]>, FrameError> {
        match self.codec {
            None => Ok(Cow::Borrowed(self.body)),
            Some(c) => decompress_payload(c, self.body, self.raw_len)
                .map(Cow::Owned)
                .map_err(|what| FrameError::Corrupt {
                    offset: self.body_offset as u64,
                    what,
                }),
        }
    }
}

/// Validate `buf` as a frame: magic and version first (so a foreign or
/// older file is named as such), then the checksum over every byte, then
/// the codec tag and lengths.
pub(crate) fn open<'a>(
    buf: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<Opened<'a>, FrameError> {
    let mut r = Reader::new(buf, 0);
    if r.take(4, "magic")? != magic {
        return Err(FrameError::BadMagic);
    }
    let found = r.u32("version")?;
    if found != version {
        return Err(FrameError::Version { found });
    }
    if buf.len() < PREFIX + 8 {
        return Err(FrameError::Short {
            offset: buf.len() as u64,
            needed: (PREFIX + 8 - buf.len()) as u64,
            what: "frame header",
        });
    }
    let end = buf.len() - 8;
    let stored = u64::from_le_bytes(buf[end..].try_into().unwrap());
    let computed = fnv1a(&buf[..end]);
    if stored != computed {
        return Err(FrameError::Checksum { stored, computed });
    }
    let codec = codec_from_tag(r.take(1, "codec tag")?[0]).map_err(|()| FrameError::Corrupt {
        offset: 8,
        what: "codec tag",
    })?;
    let raw_len = r.u64("raw length")?;
    let coded_len = r.u64("coded length")?;
    let body_offset = match usize::try_from(coded_len) {
        Ok(len) if len <= end - PREFIX => end - len,
        _ => {
            return Err(FrameError::Corrupt {
                offset: 17,
                what: "coded length",
            })
        }
    };
    if codec.is_none() && raw_len != coded_len {
        return Err(FrameError::Corrupt {
            offset: 9,
            what: "raw length",
        });
    }
    Ok(Opened {
        header: &buf[PREFIX..body_offset],
        codec,
        raw_len,
        body: &buf[body_offset..end],
        body_offset,
    })
}

/// Bounded little-endian reader: every read checks the bytes that remain
/// before it allocates, and errors carry `base + position`.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], base: usize) -> Self {
        Reader { buf, pos: 0, base }
    }

    fn offset(&self) -> u64 {
        (self.base + self.pos) as u64
    }

    pub(crate) fn corrupt(&self, what: &'static str) -> FrameError {
        FrameError::Corrupt {
            offset: self.offset(),
            what,
        }
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        let left = self.buf.len() - self.pos;
        if left < n {
            return Err(FrameError::Short {
                offset: self.offset(),
                needed: (n - left) as u64,
                what,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `count` items of `width` bytes each, bounded by the bytes left
    /// (checked multiplication, so a hostile count never overflows).
    pub(crate) fn take_n(
        &mut self,
        count: u64,
        width: usize,
        what: &'static str,
    ) -> Result<&'a [u8], FrameError> {
        let left = (self.buf.len() - self.pos) as u64;
        match count.checked_mul(width as u64) {
            Some(len) if len <= left => self.take(len as usize, what),
            _ => Err(self.corrupt(what)),
        }
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// `count` fixed-width [`StateBytes`] values.
    pub(crate) fn values<V: StateBytes>(
        &mut self,
        count: u64,
        what: &'static str,
    ) -> Result<Vec<V>, FrameError> {
        let raw = self.take_n(count, V::BYTES, what)?;
        Ok((0..count as usize)
            .map(|i| V::read_bytes(&raw[i * V::BYTES..]))
            .collect())
    }

    pub(crate) fn bitmap(&mut self, len: u32, what: &'static str) -> Result<Bitmap, FrameError> {
        let offset = self.offset();
        let words = self.values(len.div_ceil(64).into(), what)?;
        Bitmap::from_words(len, words).ok_or(FrameError::Corrupt { offset, what })
    }

    /// Every byte must have been consumed.
    pub(crate) fn finish(&self, what: &'static str) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.corrupt(what))
        }
    }
}

/// Append `values` in their fixed-width [`StateBytes`] layout.
pub(crate) fn put_values<V: StateBytes>(out: &mut Vec<u8>, values: &[V]) {
    let start = out.len();
    out.resize(start + values.len() * V::BYTES, 0);
    for (i, v) in values.iter().enumerate() {
        v.write_bytes(&mut out[start + i * V::BYTES..start + (i + 1) * V::BYTES]);
    }
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

/// An OS-level failure on the write path: which file, which step.
#[derive(Debug)]
pub(crate) struct IoFailure {
    pub(crate) path: PathBuf,
    pub(crate) op: &'static str,
    pub(crate) detail: String,
}

fn fail<'a>(path: &'a Path, op: &'static str) -> impl FnOnce(std::io::Error) -> IoFailure + 'a {
    move |e| IoFailure {
        path: path.to_path_buf(),
        op,
        detail: e.to_string(),
    }
}

/// Write `bytes` to `dir/name` atomically: `.tmp` + fsync + rename, so a
/// crash mid-write never leaves a half file under a valid name.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), IoFailure> {
    fs::create_dir_all(dir).map_err(fail(dir, "create directory"))?;
    let finalp = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = fs::File::create(&tmp).map_err(fail(&tmp, "create"))?;
        f.write_all(bytes).map_err(fail(&tmp, "write"))?;
        f.sync_all().map_err(fail(&tmp, "sync"))?;
    }
    fs::rename(&tmp, &finalp).map_err(fail(&finalp, "rename into place"))
}

// ---------------------------------------------------------------------------
// Body coding
// ---------------------------------------------------------------------------

/// Code an opaque body: its u32 little-endian words stride-2 delta-coded
/// against the previous word in the same lane (shard payloads interleave
/// `(neighbor, eid)` pairs and snapshot records `(value, gather)` pairs,
/// so lane deltas are small), zig-zagged, and written through `codec`. A
/// non-multiple-of-4 tail rides as raw bytes after the coded words.
fn compress_payload(codec: CompressionCodec, payload: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let words = payload.len() / 4;
    let mut prev = [0u32; 2];
    for i in 0..words {
        let word = u32::from_le_bytes(payload[i * 4..i * 4 + 4].try_into().unwrap());
        codec.write(&mut w, zigzag(word as i64 - prev[i % 2] as i64));
        prev[i % 2] = word;
    }
    for &b in &payload[words * 4..] {
        w.write_bits(b as u64, 8);
    }
    let bit_len = w.bit_len();
    let mut out = Vec::with_capacity(bit_len.div_ceil(8) as usize);
    for word in w.finish() {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(bit_len.div_ceil(8) as usize);
    out
}

/// Exact inverse of [`compress_payload`]. `rawlen` comes from the frame
/// header; the checksum vouches that the bytes are the ones written, not
/// that a writer of this program wrote them. So a `rawlen` the stream
/// cannot hold fails as `"raw length"` before anything is allocated, and
/// a decode that runs past the stream, or stops a byte or more short of
/// its end, fails as `"compressed payload"`.
fn decompress_payload(
    codec: CompressionCodec,
    z: &[u8],
    rawlen: u64,
) -> Result<Vec<u8>, &'static str> {
    let stream_bits = z.len() as u64 * 8;
    let (words, tail) = (rawlen / 4, rawlen % 4);
    // Every varint takes at least 8 bits, every ζ code at least 1, and
    // every raw tail byte 8.
    let min_code_bits = if codec == CompressionCodec::Varint {
        8
    } else {
        1
    };
    let fits = words
        .checked_mul(min_code_bits)
        .and_then(|b| b.checked_add(tail * 8))
        .is_some_and(|b| b <= stream_bits);
    if !fits {
        return Err("raw length");
    }
    let bits: Vec<u64> = z
        .chunks(8)
        .map(|c| {
            let mut word = [0u8; 8];
            word[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(word)
        })
        .collect();
    let dec = codec.decoder();
    let mut r = BitReader::new(&bits, 0);
    let mut out = Vec::with_capacity(rawlen as usize);
    let mut prev = [0u32; 2];
    for i in 0..words as usize {
        let word = (prev[i % 2] as i64).wrapping_add(unzigzag(dec.read(&mut r))) as u32;
        if r.bit_pos() > stream_bits {
            return Err("compressed payload");
        }
        out.extend_from_slice(&word.to_le_bytes());
        prev[i % 2] = word;
    }
    for _ in 0..tail {
        out.push(r.read_bits(8) as u8);
    }
    // The stream must end exactly where the writer stopped: past it is a
    // short stream, and a whole unread byte is a raw length that lies low.
    if r.bit_pos().div_ceil(8) != z.len() as u64 {
        return Err("compressed payload");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    /// Rewrite a frame's bytes (checksum excluded) and re-seal it, so only
    /// the opener stands between a lie and the caller.
    fn reseal(good: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = good[..good.len() - 8].to_vec();
        edit(&mut body);
        let checksum = fnv1a(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        body
    }

    fn body_of(buf: &[u8]) -> Result<Vec<u8>, FrameError> {
        let f = open(buf, &MAGIC, 1)?;
        Ok(f.body()?.into_owned())
    }

    #[test]
    fn frames_round_trip_raw_and_coded_bodies_with_odd_tails() {
        let body = b"payload bytes here, long enough to code!";
        for codec in [
            None,
            Some(CompressionCodec::Varint),
            Some(CompressionCodec::Zeta(3)),
        ] {
            for len in [0, 1, 7, 8, body.len()] {
                let sealed = seal(&MAGIC, 1, codec, b"hdr", &body[..len]);
                let f = open(&sealed, &MAGIC, 1).unwrap();
                assert_eq!(f.header, b"hdr");
                assert_eq!(&*f.body().unwrap(), &body[..len], "{codec:?} {len}");
            }
        }
    }

    #[test]
    fn magic_version_and_checksum_run_before_any_field_is_believed() {
        let good = seal(&MAGIC, 1, None, b"h", b"body");
        assert!(matches!(open(&good, b"GRSH", 1), Err(FrameError::BadMagic)));
        assert_eq!(
            open(&good, &MAGIC, 2).err(),
            Some(FrameError::Version { found: 1 })
        );
        assert_eq!(
            open(&good[..6], &MAGIC, 1).err(),
            Some(FrameError::Short {
                offset: 4,
                needed: 2,
                what: "version"
            })
        );
        for at in [8, 12, 20, good.len() - 3] {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            assert!(
                matches!(open(&bad, &MAGIC, 1), Err(FrameError::Checksum { .. })),
                "{at}"
            );
        }
        assert!(matches!(
            open(&good[..good.len() - 1], &MAGIC, 1),
            Err(FrameError::Checksum { .. })
        ));
    }

    #[test]
    fn hostile_lengths_fail_typed_before_allocation() {
        let payload = b"payload bytes here, long enough to damage";
        for codec in [CompressionCodec::Varint, CompressionCodec::Zeta(3)] {
            let good = seal(&MAGIC, 1, Some(codec), b"", payload);
            let rawlen = payload.len() as u64;
            for (case, len) in [
                ("overrun by one word", rawlen + 4),
                ("overrun by a tail byte", rawlen + 1),
                ("u64::MAX", u64::MAX),
            ] {
                let bad = reseal(&good, |b| b[9..17].copy_from_slice(&len.to_le_bytes()));
                match body_of(&bad) {
                    Err(FrameError::Corrupt { what, .. }) => assert!(
                        what == "raw length" || (what == "compressed payload" && len != u64::MAX),
                        "{} {case}: {what}",
                        codec.name()
                    ),
                    other => panic!("{} {case}: expected corrupt, got {other:?}", codec.name()),
                }
            }
            // Cut the coded stream's last 3 bytes and fix the coded length.
            let bad = reseal(&good, |b| {
                b.truncate(b.len() - 3);
                let clen = (b.len() - PREFIX) as u64;
                b[17..25].copy_from_slice(&clen.to_le_bytes());
            });
            assert!(matches!(body_of(&bad), Err(FrameError::Corrupt { .. })));
        }
        // Raw bodies: the two lengths must agree; the coded length must
        // fit the file.
        let good = seal(&MAGIC, 1, None, b"", payload);
        let rawlen = payload.len() as u64;
        for lie in [0, rawlen - 1, rawlen + 1, u64::MAX] {
            let bad = reseal(&good, |b| b[9..17].copy_from_slice(&lie.to_le_bytes()));
            assert!(matches!(
                body_of(&bad),
                Err(FrameError::Corrupt {
                    what: "raw length",
                    ..
                })
            ));
            let bad = reseal(&good, |b| b[17..25].copy_from_slice(&lie.to_le_bytes()));
            assert!(
                matches!(body_of(&bad), Err(FrameError::Corrupt { .. })),
                "{lie}"
            );
        }
    }

    #[test]
    fn retired_zeta_tags_are_refused_and_live_tags_round_trip() {
        let good = seal(
            &MAGIC,
            1,
            Some(CompressionCodec::Zeta(3)),
            b"",
            b"some bytes",
        );
        assert_eq!(good[8], 0x13, "zeta3 frames carry tag 0x13");
        for old in 1..=8u8 {
            assert_eq!(
                open(&reseal(&good, |b| b[8] = old), &MAGIC, 1).err(),
                Some(FrameError::Corrupt {
                    offset: 8,
                    what: "codec tag"
                }),
                "tag {old}"
            );
        }
        for codec in (1..=8)
            .map(CompressionCodec::Zeta)
            .chain([CompressionCodec::Varint])
        {
            assert_eq!(codec_from_tag(codec_tag(Some(codec))), Ok(Some(codec)));
        }
        assert_eq!(codec_tag(Some(CompressionCodec::Varint)), 0);
        assert_eq!(codec_from_tag(RAW_TAG), Ok(None));
    }

    #[test]
    fn atomic_write_leaves_no_temp_litter() {
        let dir = std::env::temp_dir().join(format!("gr-frame-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_atomic(&dir, "f.bin", b"abc").unwrap();
        write_atomic(&dir, "f.bin", b"abcd").unwrap();
        assert_eq!(fs::read(dir.join("f.bin")).unwrap(), b"abcd");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
