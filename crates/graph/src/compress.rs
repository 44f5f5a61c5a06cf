//! WebGraph-style compressed neighbor lists for shard streaming.
//!
//! GraphReduce is transfer-bound: every out-of-core iteration re-ships
//! shard topology over PCIe, and ROADMAP item 3 calls for shipping fewer
//! bytes per shard. The dual layout of Section 4.2 already sorts every
//! adjacency row (CSC rows by source, CSR rows by destination), which is
//! exactly the precondition for the gap-compression family WebGraph built
//! for power-law webs: successive neighbors in a sorted row are close
//! together, so the *differences* are small integers that universal codes
//! shrink to a few bits each.
//!
//! # Encoding
//!
//! Each adjacency row of vertex `v` is encoded independently:
//!
//! - the first neighbor is stored as the zig-zagged signed offset from `v`
//!   (neighbors cluster around their owner on locality-rich graphs);
//! - every following neighbor is stored as the gap from its predecessor
//!   (`>= 0`; zero gaps encode multi-edges);
//! - CSC rows stop there — canonical edge ids are *implicit* (CSC position
//!   is the canonical numbering, so `eid = csc.offsets[v] + k`);
//! - CSR rows interleave the canonical edge id after each destination: the
//!   first id absolutely, the rest as `eid - prev_eid - 1` (ids strictly
//!   increase along a CSR row because the canonical order sorts by
//!   destination first).
//!
//! Row degrees are *not* encoded: per-vertex offsets/degrees are static
//! device metadata (see `SizeModel::static_bytes`), so decoders take the
//! count from the raw layout and the bit stream spends nothing on it.
//!
//! Two self-delimiting integer codes back the gaps, selectable via
//! [`CompressionCodec`]:
//!
//! - **varint** — LEB128, 7 payload bits per byte. Byte-aligned-ish,
//!   cheap to decode, a safe default for mild skew.
//! - **ζ_k** (Boldi–Vigna) — tuned for the power-law gap distributions of
//!   web/social graphs; `k = 3` is WebGraph's recommended default.
//!
//! Per-vertex *bit* offsets are kept alongside the stream so any vertex
//! interval's compressed extent is an O(1) subtraction — the memory
//! governor plans transfers in compressed bytes without decoding anything.
//!
//! # Decoding
//!
//! The stream is little-endian: bit `i` is bit `i % 64` of word `i / 64`,
//! and every field is stored low bit first. [`Decoder`] reads whole codes
//! out of a 64-bit peek at the stream (zero past its end). A ζ_k
//! code is `h` zeros and a one — the unary prefix, one `trailing_zeros` —
//! then its minimal-binary suffix as at most two fields: the `s - 1` high
//! bits, and one low bit only when those reach the threshold. A varint is
//! found by the first byte of the peek with a clear top bit. Each codec
//! also has a constant [`TABLE_BITS`]-bit lookup table that decodes any
//! code of at most that many bits with one load; longer codes fall back to
//! the word-level path. Code lengths are the textbook ones, so byte counts
//! do not depend on the bit order (see `docs/COMPRESSION.md`).
//!
//! Decoding is lazy and allocation-free: [`TopoView`] hands the host
//! kernels an iterator per row that walks the bit stream in place, so the
//! Serial/Dense/Sparse phase shapes read through the view without ever
//! materializing a whole shard. All variants yield entries in exactly the
//! raw layout's order, which is what keeps compressed runs bit-identical.

use std::fmt;
use std::sync::OnceLock;

use crate::csr::{Adjacency, GraphLayout};
use crate::edgelist::VertexId;

// ---------------------------------------------------------------------------
// Codec selection
// ---------------------------------------------------------------------------

/// Universal code used for gap values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressionCodec {
    /// LEB128 variable-length bytes (7 payload bits per byte).
    Varint,
    /// Boldi–Vigna ζ_k code; `k` in `1..=4` (3 is the WebGraph default).
    Zeta(u32),
}

impl Default for CompressionCodec {
    fn default() -> Self {
        CompressionCodec::Zeta(3)
    }
}

/// Every value a codec writes is below this bound. Gaps, edge ids and
/// zig-zagged word deltas stay below 2^34; the bound keeps every ζ_k code
/// (`k <= 8`) and every varint inside one 64-bit peek.
pub const CODE_LIMIT: u64 = 1 << 48;

/// Largest ζ shrinkage parameter; [`CompressionCodec::Zeta`] clamps to it.
const MAX_K: u32 = 8;

impl CompressionCodec {
    /// Stable short name (decision records, CLI flags, run reports).
    pub fn name(&self) -> &'static str {
        match self {
            CompressionCodec::Varint => "varint",
            CompressionCodec::Zeta(1) => "zeta1",
            CompressionCodec::Zeta(2) => "zeta2",
            CompressionCodec::Zeta(3) => "zeta3",
            CompressionCodec::Zeta(4) => "zeta4",
            CompressionCodec::Zeta(_) => "zeta",
        }
    }

    /// Parse a CLI-style codec name (`varint`, `zeta`, `zeta1`..`zeta4`).
    pub fn parse(s: &str) -> Option<CompressionCodec> {
        match s {
            "varint" => Some(CompressionCodec::Varint),
            "zeta" | "zeta3" => Some(CompressionCodec::Zeta(3)),
            "zeta1" => Some(CompressionCodec::Zeta(1)),
            "zeta2" => Some(CompressionCodec::Zeta(2)),
            "zeta4" => Some(CompressionCodec::Zeta(4)),
            _ => None,
        }
    }

    /// Shrinkage parameter `k` (ζ only, 0 for varint), clamped to a sane
    /// range.
    fn k(&self) -> u32 {
        match self {
            CompressionCodec::Varint => 0,
            CompressionCodec::Zeta(k) => (*k).clamp(1, MAX_K),
        }
    }

    /// Append the integer `x < CODE_LIMIT` to the bit stream.
    pub fn write(&self, w: &mut BitWriter, x: u64) {
        assert!(x < CODE_LIMIT, "{x} is outside the codec domain");
        match self {
            CompressionCodec::Varint => {
                // LEB128 bytes, low group first, written as one field.
                let (mut field, mut bits, mut rest) = (0u64, 0u32, x);
                loop {
                    let group = rest & 0x7f;
                    rest >>= 7;
                    let more = if rest == 0 { 0 } else { 0x80 };
                    field |= (group | more) << bits;
                    bits += 8;
                    if rest == 0 {
                        break;
                    }
                }
                w.write_bits(field, bits);
            }
            CompressionCodec::Zeta(_) => {
                // ζ_k encodes positive integers; shift the domain by one so
                // zero gaps (multi-edges) stay representable.
                let n = x + 1;
                let k = self.k();
                let h = (63 - n.leading_zeros()) / k;
                // Unary prefix: h zeros then a one.
                w.write_bits(1 << h, h + 1);
                // Minimal binary of n - 2^(hk) over an interval of size
                // 2^(hk) * (2^k - 1).
                let lo = 1u64 << (h * k);
                write_minimal_binary(w, n - lo, (lo << k) - lo);
            }
        }
    }

    /// The word-level decoder for this codec.
    pub fn decoder(&self) -> Decoder {
        Decoder::new(self.k())
    }
}

/// Width `s = ceil(log2 z)` and threshold `t = 2^s - z` of the minimal
/// binary code over `[0, z)`, `z >= 2`.
fn minimal_binary_shape(z: u64) -> (u32, u64) {
    let s = 64 - (z - 1).leading_zeros();
    (s, (1u64 << s) - z)
}

/// Minimal binary code of `m` over `[0, z)`. Values below the threshold
/// `t` are the `s - 1`-bit field `m`. The rest take `s` bits: `v = m + t`
/// stored as the field `v >> 1` followed by the bit `v & 1`. Because
/// `v >> 1 >= t` exactly when `m >= t`, a decoder reads the `s - 1`-bit
/// field first and knows from it whether the low bit follows.
fn write_minimal_binary(w: &mut BitWriter, m: u64, z: u64) {
    debug_assert!(m < z);
    if z <= 1 {
        return; // single-value interval: zero bits
    }
    let (s, t) = minimal_binary_shape(z);
    if m < t {
        w.write_bits(m, s - 1);
    } else {
        let v = m + t;
        w.write_bits((v >> 1) | ((v & 1) << (s - 1)), s);
    }
}

fn read_minimal_binary(r: &mut BitReader<'_>, z: u64) -> u64 {
    if z <= 1 {
        return 0;
    }
    let (s, t) = minimal_binary_shape(z);
    let bits = r.peek();
    let high = bits & ((1u64 << (s - 1)) - 1);
    if high < t {
        r.skip(s - 1);
        high
    } else {
        r.skip(s);
        ((high << 1) | ((bits >> (s - 1)) & 1)) - t
    }
}

/// Lookahead, in bits, of every codec's decode table.
pub const TABLE_BITS: u32 = 12;

/// One codec's decode table: entry `p` is `value << 4 | length` for the
/// code that the next [`TABLE_BITS`] stream bits `p` start with, or 0
/// when that code is longer (no code is 0 bits long).
type DecodeTable = [u16; 1 << TABLE_BITS];

/// Word-level decoder for one codec: one table load for codes of at most
/// [`TABLE_BITS`] bits, the word-level path for longer ones. Copy it once
/// per stream; the tables are built on first use and shared.
#[derive(Clone, Copy)]
pub struct Decoder {
    /// ζ shrinkage parameter, or 0 for varint.
    k: u32,
    table: &'static DecodeTable,
}

impl fmt::Debug for Decoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decoder").field("k", &self.k).finish()
    }
}

impl Decoder {
    fn new(k: u32) -> Decoder {
        static TABLES: OnceLock<Vec<DecodeTable>> = OnceLock::new();
        let tables = TABLES.get_or_init(|| (0..=MAX_K).map(build_table).collect());
        Decoder {
            k,
            table: &tables[k as usize],
        }
    }

    /// Read one integer written by [`CompressionCodec::write`]. Never
    /// panics: a bit pattern no writer produces (including the zero
    /// padding past the stream end) moves the reader far past the end of
    /// its stream, where [`BitReader::bit_pos`] shows it.
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> u64 {
        let word = r.peek();
        let entry = self.table[(word & ((1 << TABLE_BITS) - 1)) as usize];
        if entry != 0 {
            r.skip(u32::from(entry & 0xf));
            return u64::from(entry >> 4);
        }
        read_long(self.k, r, word)
    }
}

/// The word-level path: decode the code starting at `r`, whose next 64
/// bits are `word`, under ζ_k (`k >= 1`) or varint (`k == 0`).
fn read_long(k: u32, r: &mut BitReader<'_>, word: u64) -> u64 {
    if k == 0 {
        // The code ends with the first byte whose top bit is clear.
        let stop = !word & 0x8080_8080_8080_8080;
        if stop == 0 {
            r.invalidate();
            return 0;
        }
        let bytes = stop.trailing_zeros() / 8 + 1;
        r.skip(8 * bytes);
        (0..bytes).fold(0, |x, i| x | (((word >> (8 * i)) & 0x7f) << (7 * i)))
    } else {
        let h = word.trailing_zeros();
        // Past 2^63 the suffix would not fit one peek; writers stop far
        // below (CODE_LIMIT).
        if (h + 1) * k > 63 {
            r.invalidate();
            return 0;
        }
        r.skip(h + 1);
        let lo = 1u64 << (h * k);
        lo - 1 + read_minimal_binary(r, (lo << k) - lo)
    }
}

/// Decode every [`TABLE_BITS`]-bit pattern with the word-level path and
/// keep the codes that fit, so table and fallback agree by construction.
fn build_table(k: u32) -> DecodeTable {
    let mut table = [0u16; 1 << TABLE_BITS];
    for (pattern, entry) in table.iter_mut().enumerate() {
        let word = [pattern as u64];
        let mut r = BitReader::new(&word, 0);
        let x = read_long(k, &mut r, word[0]);
        let len = r.bit_pos();
        if len <= u64::from(TABLE_BITS) {
            // A code of at most 12 bits carries a value below 2^12.
            assert!(len > 0 && x < 1 << TABLE_BITS);
            *entry = ((x << 4) | len) as u16;
        }
    }
    table
}

/// Zig-zag mapping of a signed offset into the non-negative code domain.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

// ---------------------------------------------------------------------------
// Bit stream
// ---------------------------------------------------------------------------

/// Append-only little-endian bit sink (low bits of each word first).
#[derive(Default)]
pub struct BitWriter {
    words: Vec<u64>,
    bit_len: u64,
}

impl BitWriter {
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Append the low `n < 64` bits of `value` (higher bits are masked
    /// off).
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n < 64);
        if n == 0 {
            return;
        }
        let value = value & ((1u64 << n) - 1);
        let word = (self.bit_len / 64) as usize;
        let off = (self.bit_len % 64) as u32;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= value << off;
        if off + n > 64 {
            self.words.push(value >> (64 - off));
        }
        self.bit_len += n as u64;
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    pub fn finish(self) -> Vec<u64> {
        self.words
    }
}

/// Where a reader jumps when it meets a bit pattern no writer produces:
/// past the end of any stream, so a caller checking [`BitReader::bit_pos`]
/// against its stream length sees an overrun.
const INVALID_POS: u64 = u64::MAX / 2;

/// Cursor over a [`BitWriter`]'s word stream.
pub struct BitReader<'a> {
    words: &'a [u64],
    pos: u64,
}

impl<'a> BitReader<'a> {
    pub fn new(words: &'a [u64], start_bit: u64) -> BitReader<'a> {
        BitReader {
            words,
            pos: start_bit,
        }
    }

    /// The next 64 bits, stream order from the low bit, zero past the end
    /// of the words. Does not advance.
    #[inline]
    fn peek(&self) -> u64 {
        let word = (self.pos / 64) as usize;
        let off = (self.pos % 64) as u32;
        let lo = self.words.get(word).copied().unwrap_or(0);
        let hi = self.words.get(word + 1).copied().unwrap_or(0);
        // `hi << (64 - off)`, written so that off = 0 shifts hi out
        // instead of overflowing the shift.
        (lo >> off) | ((hi << 1) << (63 - off))
    }

    /// Advance the cursor by `n` bits.
    #[inline]
    fn skip(&mut self, n: u32) {
        self.pos += u64::from(n);
    }

    /// Read `n < 64` bits, advancing the cursor.
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n < 64);
        let v = self.peek() & ((1u64 << n) - 1);
        self.skip(n);
        v
    }

    fn invalidate(&mut self) {
        self.pos = INVALID_POS;
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }
}

// ---------------------------------------------------------------------------
// Compressed adjacency
// ---------------------------------------------------------------------------

/// One gap-compressed adjacency direction with per-vertex bit offsets.
#[derive(Clone, Debug)]
pub struct CompressedAdjacency {
    /// `bit_offsets[v]..bit_offsets[v+1]` is vertex `v`'s row in `bits`.
    pub bit_offsets: Vec<u64>,
    bits: Vec<u64>,
    decoder: Decoder,
    /// CSR rows interleave explicit canonical edge ids; CSC ids are
    /// implicit (canonical order *is* CSC position).
    explicit_eids: bool,
}

impl CompressedAdjacency {
    fn build(adj: &Adjacency, codec: CompressionCodec, explicit_eids: bool) -> CompressedAdjacency {
        let n = adj.offsets.len() - 1;
        let mut w = BitWriter::new();
        let mut bit_offsets = Vec::with_capacity(n + 1);
        bit_offsets.push(0);
        for v in 0..n as u32 {
            let mut prev_nbr = 0u32;
            let mut prev_eid = 0u32;
            for (k, (nbr, eid)) in adj.entries(v).enumerate() {
                if k == 0 {
                    codec.write(&mut w, zigzag(nbr as i64 - v as i64));
                    if explicit_eids {
                        codec.write(&mut w, eid as u64);
                    }
                } else {
                    codec.write(&mut w, (nbr - prev_nbr) as u64);
                    if explicit_eids {
                        // Canonical ids strictly increase along a CSR row.
                        debug_assert!(eid > prev_eid);
                        codec.write(&mut w, (eid - prev_eid - 1) as u64);
                    }
                }
                prev_nbr = nbr;
                prev_eid = eid;
            }
            bit_offsets.push(w.bit_len());
        }
        CompressedAdjacency {
            bit_offsets,
            bits: w.finish(),
            decoder: codec.decoder(),
            explicit_eids,
        }
    }

    /// Compressed extent of the vertex interval `[lo, hi)` in bytes.
    pub fn interval_bytes(&self, lo: VertexId, hi: VertexId) -> u64 {
        (self.bit_offsets[hi as usize] - self.bit_offsets[lo as usize]).div_ceil(8)
    }

    /// Total compressed bytes of the whole direction.
    pub fn total_bytes(&self) -> u64 {
        self.bit_offsets.last().copied().unwrap_or(0).div_ceil(8)
    }

    /// Lazy decoder for vertex `v`'s row. `count` must be the raw degree
    /// (taken from static layout metadata); `eid_base` seeds implicit
    /// canonical ids for CSC rows and is ignored for CSR rows.
    pub fn row(&self, v: VertexId, count: u64, eid_base: u64) -> CompressedRowIter<'_> {
        CompressedRowIter {
            reader: BitReader::new(&self.bits, self.bit_offsets[v as usize]),
            decoder: self.decoder,
            explicit_eids: self.explicit_eids,
            v,
            remaining: count,
            first: true,
            prev_nbr: 0,
            // One before the first id, wrapping: CSR rows code their
            // first id absolutely, CSC ids count up from `eid_base`.
            prev_eid: if self.explicit_eids {
                u32::MAX
            } else {
                (eid_base as u32).wrapping_sub(1)
            },
        }
    }
}

/// Streaming decoder over one compressed row; yields `(neighbor, eid)` in
/// exactly the raw layout's order.
pub struct CompressedRowIter<'a> {
    reader: BitReader<'a>,
    decoder: Decoder,
    explicit_eids: bool,
    v: VertexId,
    remaining: u64,
    first: bool,
    prev_nbr: u32,
    /// The previous canonical id; the next is one more, plus the coded
    /// gap on CSR rows.
    prev_eid: u32,
}

impl Iterator for CompressedRowIter<'_> {
    type Item = (VertexId, u32);

    fn next(&mut self) -> Option<(VertexId, u32)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let code = self.decoder.read(&mut self.reader);
        let nbr = if self.first {
            self.first = false;
            (self.v as i64 + unzigzag(code)) as u32
        } else {
            self.prev_nbr + code as u32
        };
        let mut eid = self.prev_eid.wrapping_add(1);
        if self.explicit_eids {
            eid = eid.wrapping_add(self.decoder.read(&mut self.reader) as u32);
        }
        self.prev_nbr = nbr;
        self.prev_eid = eid;
        Some((nbr, eid))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

// ---------------------------------------------------------------------------
// Whole-graph compressed topology
// ---------------------------------------------------------------------------

/// Both adjacency directions compressed under one codec, plus the facts
/// the byte accounting needs (whether real weights must still ship raw).
#[derive(Clone, Debug)]
pub struct CompressedTopology {
    pub csc: CompressedAdjacency,
    pub csr: CompressedAdjacency,
    pub codec: CompressionCodec,
    /// Whether the graph carries non-trivial weights. All-1.0 weights are
    /// synthesized device-side and never ship.
    pub weighted: bool,
}

impl CompressedTopology {
    /// Compress both directions of `layout` under `codec`.
    pub fn build(layout: &GraphLayout, codec: CompressionCodec) -> CompressedTopology {
        CompressedTopology {
            csc: CompressedAdjacency::build(&layout.csc, codec, false),
            csr: CompressedAdjacency::build(&layout.csr, codec, true),
            codec,
            weighted: layout.weights.iter().any(|&w| w != 1.0),
        }
    }

    /// Total compressed topology bytes (both directions).
    pub fn total_bytes(&self) -> u64 {
        self.csc.total_bytes() + self.csr.total_bytes()
    }
}

// ---------------------------------------------------------------------------
// Topology view
// ---------------------------------------------------------------------------

/// What the host GAS kernels read topology through: raw adjacency slices,
/// or lazy per-row decoders when a compressed topology is installed. Both
/// paths yield entries in identical order, so results are bit-identical.
#[derive(Clone, Copy)]
pub struct TopoView<'a> {
    layout: &'a GraphLayout,
    comp: Option<&'a CompressedTopology>,
}

impl<'a> TopoView<'a> {
    /// View over the raw dual layout.
    pub fn raw(layout: &'a GraphLayout) -> TopoView<'a> {
        TopoView { layout, comp: None }
    }

    /// View decoding rows lazily from `comp`.
    pub fn compressed(layout: &'a GraphLayout, comp: &'a CompressedTopology) -> TopoView<'a> {
        TopoView {
            layout,
            comp: Some(comp),
        }
    }

    /// The underlying raw layout (degrees, offsets, weights are static
    /// metadata and always read raw).
    pub fn layout(&self) -> &'a GraphLayout {
        self.layout
    }

    /// Whether rows decode from the compressed stream.
    pub fn is_compressed(&self) -> bool {
        self.comp.is_some()
    }

    /// In-edges of `v` as `(source, canonical eid)`, CSC order.
    pub fn csc_entries(&self, v: VertexId) -> TopoRowIter<'a> {
        match self.comp {
            None => TopoRowIter::raw(&self.layout.csc, v),
            Some(c) => TopoRowIter::Decoded(c.csc.row(
                v,
                self.layout.csc.degree(v),
                self.layout.csc.offsets[v as usize],
            )),
        }
    }

    /// Out-edges of `v` as `(destination, canonical eid)`, CSR order.
    pub fn csr_entries(&self, v: VertexId) -> TopoRowIter<'a> {
        match self.comp {
            None => TopoRowIter::raw(&self.layout.csr, v),
            Some(c) => TopoRowIter::Decoded(c.csr.row(v, self.layout.csr.degree(v), 0)),
        }
    }
}

/// Row iterator behind [`TopoView`]: raw slice walk or bit-stream decode.
pub enum TopoRowIter<'a> {
    Raw {
        adj: &'a Adjacency,
        idx: usize,
        end: usize,
    },
    Decoded(CompressedRowIter<'a>),
}

impl<'a> TopoRowIter<'a> {
    fn raw(adj: &'a Adjacency, v: VertexId) -> TopoRowIter<'a> {
        let r = adj.range(v);
        TopoRowIter::Raw {
            adj,
            idx: r.start,
            end: r.end,
        }
    }
}

impl Iterator for TopoRowIter<'_> {
    type Item = (VertexId, u32);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, u32)> {
        match self {
            TopoRowIter::Raw { adj, idx, end } => {
                if idx < end {
                    let i = *idx;
                    *idx += 1;
                    Some((adj.neighbors[i], adj.edge_id(i)))
                } else {
                    None
                }
            }
            TopoRowIter::Decoded(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            TopoRowIter::Raw { idx, end, .. } => (*end - *idx, Some(*end - *idx)),
            TopoRowIter::Decoded(it) => it.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::gen;

    const CODECS: [CompressionCodec; 4] = [
        CompressionCodec::Varint,
        CompressionCodec::Zeta(1),
        CompressionCodec::Zeta(3),
        CompressionCodec::Zeta(4),
    ];

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits((1 << 57) - 1, 57); // spans words
        w.write_bits(0, 0);
        w.write_bits(0x5a, 8);
        let words = w.finish();
        let mut r = BitReader::new(&words, 0);
        assert_eq!(r.read_bits(3), 0b101);
        assert_eq!(r.read_bits(57), (1 << 57) - 1);
        assert_eq!(r.read_bits(8), 0x5a);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, 1 << 40, -(1 << 40)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn codec_integer_roundtrip() {
        let values: Vec<u64> = (0..200)
            .chain([
                255,
                256,
                1000,
                65535,
                65536,
                1 << 20,
                (1 << 32) - 1,
                1 << 40,
            ])
            .collect();
        for codec in CODECS {
            let mut w = BitWriter::new();
            for &v in &values {
                codec.write(&mut w, v);
            }
            let words = w.finish();
            let mut r = BitReader::new(&words, 0);
            let dec = codec.decoder();
            for &v in &values {
                assert_eq!(dec.read(&mut r), v, "{} value {v}", codec.name());
            }
        }
    }

    #[test]
    fn zeta_small_gaps_beat_varint() {
        // ζ3 spends ~4 bits on tiny gaps; varint spends 8.
        let mut wz = BitWriter::new();
        let mut wv = BitWriter::new();
        for g in 0..64u64 {
            CompressionCodec::Zeta(3).write(&mut wz, g % 4);
            CompressionCodec::Varint.write(&mut wv, g % 4);
        }
        assert!(wz.bit_len() < wv.bit_len());
    }

    #[test]
    fn codec_names_parse_back() {
        for codec in CODECS {
            assert_eq!(CompressionCodec::parse(codec.name()), Some(codec));
        }
        assert_eq!(
            CompressionCodec::parse("zeta"),
            Some(CompressionCodec::Zeta(3))
        );
        assert_eq!(CompressionCodec::parse("lz4"), None);
        assert_eq!(CompressionCodec::default(), CompressionCodec::Zeta(3));
    }

    fn assert_topo_roundtrip(layout: &GraphLayout, codec: CompressionCodec) {
        let comp = CompressedTopology::build(layout, codec);
        let view = TopoView::compressed(layout, &comp);
        for v in 0..layout.num_vertices() {
            let raw_csc: Vec<_> = layout.csc.entries(v).collect();
            let dec_csc: Vec<_> = view.csc_entries(v).collect();
            assert_eq!(raw_csc, dec_csc, "csc row {v} ({})", codec.name());
            let raw_csr: Vec<_> = layout.csr.entries(v).collect();
            let dec_csr: Vec<_> = view.csr_entries(v).collect();
            assert_eq!(raw_csr, dec_csr, "csr row {v} ({})", codec.name());
        }
    }

    #[test]
    fn roundtrip_exact_on_generated_graphs() {
        let graphs = [
            gen::uniform(512, 4096, 3).symmetrize(),
            gen::rmat_g500(10, 1 << 12, 42),
            gen::grid2d_with_edges(576, 2304, 1),
            EdgeList::new(17), // empty rows everywhere
        ];
        for el in &graphs {
            let layout = GraphLayout::build(el);
            for codec in CODECS {
                assert_topo_roundtrip(&layout, codec);
            }
        }
    }

    #[test]
    fn roundtrip_exact_with_multi_edges_and_hubs() {
        // Duplicate edges (zero gaps) and a hub with back-pointing
        // neighbors (negative first offsets).
        let el = EdgeList::from_edges(
            8,
            vec![
                (7, 0),
                (7, 0),
                (7, 1),
                (0, 7),
                (1, 7),
                (2, 7),
                (3, 7),
                (3, 7),
                (5, 4),
                (4, 5),
            ],
        );
        let layout = GraphLayout::build(&el);
        for codec in CODECS {
            assert_topo_roundtrip(&layout, codec);
        }
    }

    #[test]
    fn interval_bytes_sum_to_total() {
        let layout = GraphLayout::build(&gen::rmat_g500(9, 4096, 7).symmetrize());
        let comp = CompressedTopology::build(&layout, CompressionCodec::Zeta(3));
        let n = layout.num_vertices();
        let mid = n / 2;
        for adj in [&comp.csc, &comp.csr] {
            let whole = adj.interval_bytes(0, n);
            // Bit extents are exact; byte rounding may add at most 1 per cut.
            let parts = adj.interval_bytes(0, mid) + adj.interval_bytes(mid, n);
            assert!(parts >= whole && parts <= whole + 1);
            assert_eq!(adj.total_bytes(), adj.interval_bytes(0, n));
        }
        assert_eq!(
            comp.total_bytes(),
            comp.csc.total_bytes() + comp.csr.total_bytes()
        );
    }

    #[test]
    fn compression_beats_raw_on_skewed_graphs() {
        // Raw topology ships 12 B per edge per direction in the cost
        // model; a scale-10 RMAT should compress well below half of the
        // 4 B/edge neighbor words alone.
        let layout = GraphLayout::build(&gen::rmat_g500(10, 1 << 13, 42).symmetrize());
        let raw_topo = layout.num_edges() * 12 * 2;
        for codec in CODECS {
            let comp = CompressedTopology::build(&layout, codec);
            let ratio = raw_topo as f64 / comp.total_bytes() as f64;
            assert!(
                ratio > 2.5,
                "{}: ratio {ratio:.2} (raw {raw_topo} vs {})",
                codec.name(),
                comp.total_bytes()
            );
        }
    }

    #[test]
    fn weighted_flag_tracks_real_weights() {
        let el = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]);
        let layout = GraphLayout::build(&el);
        let comp = CompressedTopology::build(&layout, CompressionCodec::Varint);
        assert!(!comp.weighted);
        let wl = GraphLayout::build(&el.clone().with_weights(vec![2.0, 1.0]));
        let comp = CompressedTopology::build(&wl, CompressionCodec::Varint);
        assert!(comp.weighted);
    }
}
