//! The word-level, table-driven decoder against a bit-at-a-time reference
//! of the same bit order, the closed-form code lengths, and the
//! compressed sizes of two fixed graphs.
//!
//! Debug builds check shift overflow, so `cargo test` (debug profile)
//! also guards the decode-table build and the word-level path.

use gr_graph::compress::{BitReader, BitWriter, CODE_LIMIT, TABLE_BITS};
use gr_graph::{gen, CompressedTopology, CompressionCodec, GraphLayout};

const CODECS: [CompressionCodec; 5] = [
    CompressionCodec::Varint,
    CompressionCodec::Zeta(1),
    CompressionCodec::Zeta(2),
    CompressionCodec::Zeta(3),
    CompressionCodec::Zeta(4),
];

/// Read `n` bits one at a time, low bit first.
fn field(r: &mut BitReader<'_>, n: u32) -> u64 {
    (0..n).fold(0, |x, i| x | (r.read_bits(1) << i))
}

/// The codes as specified, decoded one bit at a time: LEB128 bytes; or
/// ζ_k as `h` zeros and a one, then the minimal binary of `n - 2^(hk)`
/// over `[0, z)`, `z = 2^(hk) (2^k - 1)`, as an `s - 1`-bit field plus a
/// low bit when that field reaches the threshold `2^s - z`.
fn reference_read(codec: CompressionCodec, r: &mut BitReader<'_>) -> u64 {
    match codec {
        CompressionCodec::Varint => {
            let mut x = 0;
            for group in 0.. {
                let byte = field(r, 8);
                x |= (byte & 0x7f) << (7 * group);
                if byte & 0x80 == 0 {
                    break;
                }
            }
            x
        }
        CompressionCodec::Zeta(k) => {
            let mut h = 0;
            while r.read_bits(1) == 0 {
                h += 1;
            }
            let lo = 1u64 << (h * k);
            let z = (lo << k) - lo;
            if z == 1 {
                return lo - 1;
            }
            let s = 64 - (z - 1).leading_zeros();
            let t = (1u64 << s) - z;
            let high = field(r, s - 1);
            let m = if high < t {
                high
            } else {
                ((high << 1) | r.read_bits(1)) - t
            };
            lo + m - 1
        }
    }
}

/// Closed-form code length in bits.
fn code_len(codec: CompressionCodec, x: u64) -> u64 {
    match codec {
        CompressionCodec::Varint => 8 * u64::from((64 - x.leading_zeros()).max(1).div_ceil(7)),
        CompressionCodec::Zeta(k) => {
            let n = x + 1;
            let h = u64::from((63 - n.leading_zeros()) / k);
            let hk = h * u64::from(k);
            if k == 1 {
                2 * h + 1
            } else if n < 1 << (hk + 1) {
                h + hk + u64::from(k)
            } else {
                h + 1 + hk + u64::from(k)
            }
        }
    }
}

/// Values at and around every power of two: every ζ_k bucket edge
/// `2^(hk)`, every minimal-binary threshold and every varint byte edge.
fn edge_values() -> Vec<u64> {
    let mut v: Vec<u64> = (0..300).collect();
    for j in 2..48 {
        let p = 1u64 << j;
        v.extend([p - 2, p - 1, p, p + 1]);
    }
    v.push(CODE_LIMIT - 1);
    v
}

/// Write `pad` filler bits, then `values`; return the words and the bit
/// position after each code.
fn encode(codec: CompressionCodec, pad: u32, values: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut w = BitWriter::new();
    w.write_bits(0x5555_5555_5555_5555, pad);
    let ends = values
        .iter()
        .map(|&x| {
            codec.write(&mut w, x);
            w.bit_len()
        })
        .collect();
    (w.finish(), ends)
}

/// Decode `values` from `pad` with both decoders, checking every value
/// and every code boundary.
fn assert_decodes(codec: CompressionCodec, pad: u32, values: &[u64]) {
    let (words, ends) = encode(codec, pad, values);
    let dec = codec.decoder();
    let mut fast = BitReader::new(&words, u64::from(pad));
    let mut reference = BitReader::new(&words, u64::from(pad));
    for (&x, &end) in values.iter().zip(&ends) {
        let name = codec.name();
        assert_eq!(dec.read(&mut fast), x, "{name} value {x} at pad {pad}");
        assert_eq!(
            reference_read(codec, &mut reference),
            x,
            "{name} reference {x}"
        );
        assert_eq!(fast.bit_pos(), end, "{name} value {x} at pad {pad}: end");
        assert_eq!(reference.bit_pos(), end, "{name} reference {x}: end");
    }
}

#[test]
fn decoder_matches_reference_on_all_values_below_2_16() {
    let values: Vec<u64> = (0..1 << 16).collect();
    for codec in CODECS {
        assert_decodes(codec, 0, &values);
    }
}

#[test]
fn decoder_matches_reference_on_bucket_edges() {
    for codec in CODECS {
        assert_decodes(codec, 0, &edge_values());
    }
}

#[test]
fn decoder_matches_reference_at_every_start_offset() {
    // Codes straddle a word boundary at some offset for every value.
    let values = edge_values();
    for codec in CODECS {
        for pad in 0..64 {
            assert_decodes(codec, pad, &values);
        }
    }
}

#[test]
fn codes_ending_exactly_at_the_stream_end_decode() {
    // No zero padding after the last code: the peek's tail comes from
    // past the last word.
    for codec in CODECS {
        for x in edge_values() {
            let pad = ((64 - code_len(codec, x) % 64) % 64) as u32;
            let (words, ends) = encode(codec, pad, &[x]);
            assert_eq!(ends[0], 64 * words.len() as u64, "{} {x}", codec.name());
            assert_decodes(codec, pad, &[x]);
        }
    }
}

#[test]
fn code_lengths_match_the_closed_form() {
    let mut values: Vec<u64> = (0..1 << 12).collect();
    values.extend(edge_values());
    for codec in CODECS {
        let (_, ends) = encode(codec, 0, &values);
        let mut start = 0;
        for (&x, &end) in values.iter().zip(&ends) {
            assert_eq!(
                end - start,
                code_len(codec, x),
                "{} value {x}",
                codec.name()
            );
            start = end;
        }
    }
}

#[test]
fn short_codes_fit_the_table_and_long_ones_still_decode() {
    // ζ3 codes up to value 2^6 - 1 take at most 12 bits (table hits);
    // past that they take the word-level path. Both sides are covered.
    let zeta3 = CompressionCodec::Zeta(3);
    assert!(code_len(zeta3, 63) <= u64::from(TABLE_BITS));
    assert!(code_len(zeta3, 1 << 12) > u64::from(TABLE_BITS));
    assert_decodes(zeta3, 7, &[0, 63, 1 << 12, 5, 1 << 30, 1]);
}

#[test]
fn arbitrary_bits_never_panic() {
    // Any bit pattern decodes to something or runs the reader past its
    // end; it never panics (debug builds check every shift).
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let words: Vec<u64> = (0..64)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Sparse words exercise long unary prefixes.
            if i % 3 == 0 {
                state & (state >> 17) & (state >> 31)
            } else {
                state
            }
        })
        .chain([0, 0, u64::MAX, 0x8080_8080_8080_8080])
        .collect();
    let end = 64 * words.len() as u64;
    for codec in CODECS {
        let dec = codec.decoder();
        for start in 0..128 {
            let mut r = BitReader::new(&words, start);
            while r.bit_pos() <= end {
                dec.read(&mut r);
            }
        }
    }
}

#[test]
fn compressed_sizes_are_pinned() {
    // Code lengths do not depend on the bit order, so these byte counts
    // are the ones every earlier encoding produced.
    let rmat = GraphLayout::build(&gen::rmat_g500(12, 1 << 15, 42).symmetrize());
    let grid = GraphLayout::build(&gen::grid2d_with_edges(4096, 1 << 14, 7));
    let pinned: [(&GraphLayout, [u64; 5]); 2] = [
        (&rmat, [268_966, 264_598, 223_738, 220_448, 226_184]),
        (&grid, [58_738, 61_502, 51_695, 52_000, 52_184]),
    ];
    for (layout, totals) in pinned {
        for (codec, total) in CODECS.into_iter().zip(totals) {
            let comp = CompressedTopology::build(layout, codec);
            assert_eq!(comp.total_bytes(), total, "{}", codec.name());
        }
    }
}
