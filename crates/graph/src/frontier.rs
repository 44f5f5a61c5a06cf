//! Frontier sets: which vertices are active in an iteration.
//!
//! The frontier drives the paper's dynamic frontier management (Section
//! 5.2): shards whose interval holds no active vertex (and receives no
//! activation) are neither copied to the device nor launched. The dense
//! bitmap form keeps per-interval counting O(words) and activation
//! (one-hop neighborhood marking) branch-light.

/// A fixed-size dense bitmap over vertex ids with an exact popcount cache.
///
/// ```
/// use gr_graph::Bitmap;
///
/// let mut frontier = Bitmap::new(1000);
/// frontier.set(3);
/// frontier.set(997);
/// assert_eq!(frontier.count(), 2);
/// assert!(frontier.any_in_range(0, 10));
/// assert_eq!(frontier.count_range(500, 1000), 1);
/// assert_eq!(frontier.iter_set().collect::<Vec<_>>(), vec![3, 997]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: u32,
    count: u64,
}

impl Bitmap {
    /// All-zeros bitmap over `len` bits.
    pub fn new(len: u32) -> Self {
        Bitmap {
            words: vec![0; (len as usize).div_ceil(64)],
            len,
            count: 0,
        }
    }

    /// All-ones bitmap over `len` bits.
    pub fn full(len: u32) -> Self {
        let mut b = Bitmap::new(len);
        for w in &mut b.words {
            *w = !0;
        }
        // Clear the tail past `len`.
        let tail = (len % 64) as u64;
        if tail != 0 {
            if let Some(last) = b.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        b.count = len as u64;
        b
    }

    /// Number of bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`; returns whether it was newly set.
    ///
    /// The counter update branches instead of adding `u64::from(newly)`:
    /// rustc 1.95.0 miscompiles the bool-to-int add in release builds when
    /// the returned flag also feeds a caller-side branch (the increment is
    /// dropped entirely). See `frontier::tests::count_survives_release_opt`.
    #[inline]
    pub fn set(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let newly = *w & mask == 0;
        *w |= mask;
        if newly {
            self.count += 1;
        }
        newly
    }

    /// Clear bit `i`; returns whether it was previously set.
    #[inline]
    pub fn clear(&mut self, i: u32) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        let was = *w & mask != 0;
        *w &= !mask;
        if was {
            self.count -= 1;
        }
        was
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        debug_assert!(i < self.len);
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits (O(1)).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The backing 64-bit words, low bit = low vertex id (serialization).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstruct a bitmap from serialized words. Returns `None` when the
    /// word count does not match `len` or a tail bit past `len` is set —
    /// both indicate corrupted input, never a valid bitmap.
    pub fn from_words(len: u32, words: Vec<u64>) -> Option<Self> {
        if words.len() != (len as usize).div_ceil(64) {
            return None;
        }
        let tail = (len % 64) as u64;
        if tail != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return None;
                }
            }
        }
        let count = words.iter().map(|w| w.count_ones() as u64).sum();
        Some(Bitmap { words, len, count })
    }

    /// Write the backing words directly (bulk kernels that build whole
    /// words, or OR them in from several threads), then recount. Bits past
    /// `len` are cleared, so the popcount stays exact.
    pub fn update_words<R>(&mut self, f: impl FnOnce(&mut [u64]) -> R) -> R {
        let out = f(&mut self.words);
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        self.count = self.words.iter().map(|w| w.count_ones() as u64).sum();
        out
    }

    /// Clear all bits.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
        self.count = 0;
    }

    /// Bitwise OR-assign from another bitmap of the same length.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let mut count = 0u64;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
            count += a.count_ones() as u64;
        }
        self.count = count;
    }

    /// Count set bits within `[lo, hi)`.
    pub fn count_range(&self, lo: u32, hi: u32) -> u64 {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo == hi {
            return 0;
        }
        let (wl, bl) = ((lo / 64) as usize, lo % 64);
        let (wh, bh) = ((hi / 64) as usize, hi % 64);
        let mask_lo = !0u64 << bl;
        if wl == wh {
            let mask_hi = (1u64 << bh) - 1;
            return (self.words[wl] & mask_lo & mask_hi).count_ones() as u64;
        }
        let mut c = (self.words[wl] & mask_lo).count_ones() as u64;
        for w in &self.words[wl + 1..wh] {
            c += w.count_ones() as u64;
        }
        // The final word is partial only when `hi` is not word-aligned.
        if bh != 0 {
            c += (self.words[wh] & ((1u64 << bh) - 1)).count_ones() as u64;
        }
        c
    }

    /// Whether any bit in `[lo, hi)` is set (early-exit).
    pub fn any_in_range(&self, lo: u32, hi: u32) -> bool {
        debug_assert!(lo <= hi && hi <= self.len);
        if lo == hi {
            return false;
        }
        let (wl, bl) = ((lo / 64) as usize, lo % 64);
        let (wh, bh) = ((hi / 64) as usize, hi % 64);
        let mask_lo = !0u64 << bl;
        if wl == wh {
            return self.words[wl] & mask_lo & ((1u64 << bh) - 1) != 0;
        }
        if self.words[wl] & mask_lo != 0 {
            return true;
        }
        if self.words[wl + 1..wh].iter().any(|&w| w != 0) {
            return true;
        }
        bh != 0 && self.words[wh] & ((1u64 << bh) - 1) != 0
    }

    /// Iterate over set bit indices in ascending order.
    pub fn iter_set(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros();
                w &= w - 1;
                Some(wi as u32 * 64 + b)
            })
        })
    }

    /// Index of the first set bit at or after `i`, skipping zero words
    /// (O(words) worst case, O(1) on dense prefixes).
    pub fn next_set_from(&self, i: u32) -> Option<u32> {
        if i >= self.len {
            return None;
        }
        let mut wi = (i / 64) as usize;
        let mut w = self.words[wi] & (!0u64 << (i % 64));
        loop {
            if w != 0 {
                let b = wi as u32 * 64 + w.trailing_zeros();
                // Bits past `len` only exist transiently in never-written
                // words; `full`/`set` keep the tail clean, so b < len here.
                debug_assert!(b < self.len);
                return Some(b);
            }
            wi += 1;
            if wi == self.words.len() {
                return None;
            }
            w = self.words[wi];
        }
    }

    /// Iterate set bits within `[lo, hi)` in ascending order, skipping
    /// all-zero words — the sparse-mode kernel walk: cost is
    /// O(words in range + set bits), independent of the interval's size
    /// when it is mostly empty.
    pub fn iter_set_range(&self, lo: u32, hi: u32) -> impl Iterator<Item = u32> + '_ {
        debug_assert!(lo <= hi && hi <= self.len);
        let wl = (lo / 64) as usize;
        // One-past-the-last word the range touches (== wl for empty ranges).
        let wh = if lo < hi {
            (hi as usize).div_ceil(64)
        } else {
            wl
        };
        let mut wi = wl;
        let mut cur = if lo < hi {
            self.words[wl] & (!0u64 << (lo % 64))
        } else {
            0
        };
        std::iter::from_fn(move || loop {
            if cur != 0 {
                let b = wi as u32 * 64 + cur.trailing_zeros();
                if b >= hi {
                    return None;
                }
                cur &= cur - 1;
                return Some(b);
            }
            wi += 1;
            if wi >= wh {
                return None;
            }
            cur = self.words[wi];
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear_count() {
        let mut b = Bitmap::new(130);
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(64)); // already set
        assert_eq!(b.count(), 3);
        assert!(b.get(129) && b.get(0) && b.get(64));
        assert!(!b.get(1));
        assert!(b.clear(64));
        assert!(!b.clear(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn full_has_exact_count_and_clean_tail() {
        let b = Bitmap::full(70);
        assert_eq!(b.count(), 70);
        assert_eq!(b.iter_set().count(), 70);
        assert_eq!(b.iter_set().last(), Some(69));
        let b64 = Bitmap::full(64);
        assert_eq!(b64.count(), 64);
    }

    #[test]
    fn count_range_cases() {
        let mut b = Bitmap::new(200);
        for i in [0u32, 5, 63, 64, 65, 127, 128, 199] {
            b.set(i);
        }
        assert_eq!(b.count_range(0, 200), 8);
        assert_eq!(b.count_range(0, 64), 3);
        assert_eq!(b.count_range(64, 128), 3);
        assert_eq!(b.count_range(5, 6), 1);
        assert_eq!(b.count_range(6, 63), 0);
        assert_eq!(b.count_range(65, 65), 0);
        assert_eq!(b.count_range(128, 200), 2);
        assert_eq!(b.count_range(1, 199), 6);
    }

    #[test]
    fn any_in_range_matches_count_range() {
        let mut b = Bitmap::new(300);
        for i in [17u32, 64, 255] {
            b.set(i);
        }
        for lo in (0..300).step_by(13) {
            for hi in (lo..300).step_by(29) {
                assert_eq!(
                    b.any_in_range(lo, hi),
                    b.count_range(lo, hi) > 0,
                    "range {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn or_assign_unions() {
        let mut a = Bitmap::new(100);
        let mut b = Bitmap::new(100);
        a.set(1);
        a.set(50);
        b.set(50);
        b.set(99);
        a.or_assign(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.iter_set().collect::<Vec<_>>(), vec![1, 50, 99]);
    }

    #[test]
    fn iter_set_ascending() {
        let mut b = Bitmap::new(500);
        let bits = [3u32, 64, 65, 129, 400, 499];
        for &i in &bits {
            b.set(i);
        }
        assert_eq!(b.iter_set().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn clear_all_resets() {
        let mut b = Bitmap::full(77);
        b.clear_all();
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter_set().count(), 0);
    }

    /// Regression guard for the rustc 1.95.0 release-mode miscompile of
    /// `count += u64::from(flag)` when `flag` also reaches a branch: keep
    /// the exact trigger shape (`assert!(set(..))`).
    #[test]
    fn count_survives_release_opt() {
        let mut b = Bitmap::new(130);
        assert!(b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(!b.set(64));
        assert_eq!(b.count(), 3);
        assert!(b.clear(129));
        assert!(!b.clear(129));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn next_set_from_skips_zero_words() {
        let mut b = Bitmap::new(1000);
        for i in [3u32, 64, 700, 999] {
            b.set(i);
        }
        assert_eq!(b.next_set_from(0), Some(3));
        assert_eq!(b.next_set_from(3), Some(3));
        assert_eq!(b.next_set_from(4), Some(64));
        assert_eq!(b.next_set_from(65), Some(700));
        assert_eq!(b.next_set_from(700), Some(700));
        assert_eq!(b.next_set_from(701), Some(999));
        assert_eq!(b.next_set_from(1000), None);
        let empty = Bitmap::new(256);
        assert_eq!(empty.next_set_from(0), None);
    }

    #[test]
    fn iter_set_range_matches_filtered_iter_set() {
        let mut b = Bitmap::new(500);
        for i in [0u32, 1, 63, 64, 65, 127, 200, 255, 256, 440, 499] {
            b.set(i);
        }
        for lo in (0..=500).step_by(37) {
            for hi in (lo..=500).step_by(41) {
                let got: Vec<u32> = b.iter_set_range(lo, hi).collect();
                let want: Vec<u32> = b.iter_set().filter(|&v| v >= lo && v < hi).collect();
                assert_eq!(got, want, "range {lo}..{hi}");
            }
        }
        // Degenerate and word-aligned edges.
        assert_eq!(b.iter_set_range(64, 64).count(), 0);
        assert_eq!(
            b.iter_set_range(64, 128).collect::<Vec<_>>(),
            vec![64, 65, 127]
        );
        assert_eq!(b.iter_set_range(0, 500).count() as u64, b.count());
    }

    #[test]
    fn iter_set_range_on_full_bitmap() {
        let b = Bitmap::full(130);
        assert_eq!(
            b.iter_set_range(100, 130).collect::<Vec<_>>(),
            (100..130).collect::<Vec<_>>()
        );
    }

    #[test]
    fn words_round_trip_through_from_words() {
        let mut b = Bitmap::new(130);
        for i in [0u32, 64, 129] {
            b.set(i);
        }
        let rebuilt = Bitmap::from_words(130, b.words().to_vec()).unwrap();
        assert_eq!(rebuilt, b);
        assert_eq!(rebuilt.count(), 3);
        // Wrong word count and dirty tail bits are both rejected.
        assert!(Bitmap::from_words(130, vec![0; 2]).is_none());
        assert!(Bitmap::from_words(130, vec![0, 0, 1 << 2]).is_none());
        // Word-aligned lengths have no tail to validate.
        assert!(Bitmap::from_words(128, vec![!0, !0]).is_some());
        assert!(Bitmap::from_words(0, vec![]).is_some());
    }

    #[test]
    fn update_words_recounts_and_keeps_the_tail_clean() {
        let mut b = Bitmap::new(70);
        b.set(3);
        let seen = b.update_words(|w| {
            w[0] |= 1 << 10;
            w[1] = !0; // bits 64..128, of which only 64..70 exist
            w.len()
        });
        assert_eq!(seen, 2);
        assert_eq!(b.count(), 2 + 6);
        assert_eq!(b.iter_set().last(), Some(69));
        assert_eq!(b, Bitmap::from_words(70, b.words().to_vec()).unwrap());
    }

    #[test]
    fn zero_length_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter_set().count(), 0);
    }
}
