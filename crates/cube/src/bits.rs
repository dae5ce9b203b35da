//! A compact, growable bit vector used for the `USED`/`PHASE` encoding of
//! cubes (paper, Figure 5 and §4.1.1).
//!
//! Storage is word-level with a small-size fast path: vectors of up to
//! 128 bits (one or two `u64` words — every cube space the mapper and the
//! hazard algorithms touch in practice) live inline in the struct and
//! never allocate; wider vectors spill to a `Vec<u64>`. All binary
//! operations require both operands to have the same length; this is
//! enforced with `debug_assert!` because the cube layer already
//! guarantees it.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// Number of words stored inline before spilling to the heap.
const INLINE_WORDS: usize = 2;

/// Word storage: inline for ≤ `INLINE_WORDS` words, heap beyond. The
/// active word count is always derived from the owning vector's bit
/// length, so inline padding words past the end are never observed (they
/// are kept zeroed anyway).
#[derive(Clone)]
enum Store {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A fixed-width bit vector.
///
/// `Bits` is the storage type behind [`crate::Cube`]'s `USED` and `PHASE`
/// vectors. Bit `i` corresponds to variable `i` of the enclosing
/// [`crate::VarTable`].
///
/// # Examples
///
/// ```
/// use asyncmap_cube::Bits;
/// let mut b = Bits::new(70);
/// b.set(3, true);
/// b.set(69, true);
/// assert!(b.get(3) && b.get(69) && !b.get(4));
/// assert_eq!(b.count_ones(), 2);
/// ```
pub struct Bits {
    len: usize,
    store: Store,
}

#[inline]
const fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl Bits {
    /// Creates an all-zero bit vector holding `len` bits.
    #[inline]
    pub fn new(len: usize) -> Self {
        let store = if words_for(len) <= INLINE_WORDS {
            Store::Inline([0; INLINE_WORDS])
        } else {
            Store::Heap(vec![0; words_for(len)])
        };
        Bits { len, store }
    }

    /// Creates an all-one bit vector holding `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = if words_for(len) <= INLINE_WORDS {
            Bits {
                len,
                store: Store::Inline([!0u64; INLINE_WORDS]),
            }
        } else {
            Bits {
                len,
                store: Store::Heap(vec![!0u64; words_for(len)]),
            }
        };
        b.mask_tail();
        // Inline padding words past the active count must stay zero so
        // whole-array comparisons never see them (mask_tail only clears
        // the partial tail of the last *active* word).
        if let Store::Inline(w) = &mut b.store {
            for word in w.iter_mut().skip(words_for(len)) {
                *word = 0;
            }
        }
        b
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The storage words, low bits first: bit `i` of the vector lives at
    /// bit `i % 64` of word `i / 64`. Bits beyond `len` in the final word
    /// are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.store {
            Store::Inline(w) => &w[..words_for(self.len)],
            Store::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let n = words_for(self.len);
        match &mut self.store {
            Store::Inline(w) => &mut w[..n],
            Store::Heap(v) => v,
        }
    }

    /// Builds a vector of `len` bits by filling words from `f(word_index)`
    /// (tail bits beyond `len` are masked off).
    #[inline]
    pub fn from_words_fn(len: usize, mut f: impl FnMut(usize) -> u64) -> Bits {
        let mut out = Bits::new(len);
        for (i, w) in out.words_mut().iter_mut().enumerate() {
            *w = f(i);
        }
        out.mask_tail();
        out
    }

    /// The assignment of `nvars` variables numbered `m` in truth-table
    /// order: bit `v` is bit `v` of `m` (bits of `m` at `nvars` and above
    /// are dropped).
    ///
    /// ```
    /// use asyncmap_cube::Bits;
    /// let b = Bits::from_index(3, 0b110);
    /// assert!(!b.get(0) && b.get(1) && b.get(2));
    /// ```
    #[inline]
    pub fn from_index(nvars: usize, m: usize) -> Bits {
        Bits::from_words_fn(nvars, |w| if w == 0 { m as u64 } else { 0 })
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `i >= self.len()`; release builds omit the
    /// check (this accessor is on the mapper's innermost loops).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words()[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `i >= self.len()`; release builds omit the
    /// check.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words_mut()[i / WORD_BITS];
        let m = 1u64 << (i % WORD_BITS);
        if value {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// Flips bit `i`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `i >= self.len()`; release builds omit the
    /// check.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words_mut()[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
    }

    /// `true` if no bit is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Index of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterator over indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bits: self,
            word_index: 0,
            current: self.words().first().copied().unwrap_or(0),
        }
    }

    /// `self & other`, element-wise.
    #[inline]
    pub fn and(&self, other: &Bits) -> Bits {
        self.zip_with(other, |a, b| a & b)
    }

    /// `self | other`, element-wise.
    #[inline]
    pub fn or(&self, other: &Bits) -> Bits {
        self.zip_with(other, |a, b| a | b)
    }

    /// `self ^ other`, element-wise.
    #[inline]
    pub fn xor(&self, other: &Bits) -> Bits {
        self.zip_with(other, |a, b| a ^ b)
    }

    /// `self & !other`, element-wise.
    #[inline]
    pub fn and_not(&self, other: &Bits) -> Bits {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Bitwise complement (restricted to the vector's width).
    pub fn not(&self) -> Bits {
        let words = self.words();
        let mut out = Bits::from_words_fn(self.len, |i| !words[i]);
        out.mask_tail();
        out
    }

    /// `true` if every set bit of `self` is also set in `other`.
    #[inline]
    pub fn is_subset(&self, other: &Bits) -> bool {
        debug_assert_eq!(self.len, other.len);
        let (a, b) = (self.words(), other.words());
        a.iter().zip(b).all(|(x, y)| x & !y == 0)
    }

    /// `true` if `self` and `other` share no set bit.
    #[inline]
    pub fn is_disjoint(&self, other: &Bits) -> bool {
        debug_assert_eq!(self.len, other.len);
        let (a, b) = (self.words(), other.words());
        a.iter().zip(b).all(|(x, y)| x & y == 0)
    }

    #[inline]
    fn zip_with(&self, other: &Bits, f: impl Fn(u64, u64) -> u64) -> Bits {
        debug_assert_eq!(self.len, other.len, "bit vector length mismatch");
        let (a, b) = (self.words(), other.words());
        Bits::from_words_fn(self.len, |i| f(a[i], b[i]))
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl Default for Bits {
    fn default() -> Self {
        Bits::new(0)
    }
}

impl Clone for Bits {
    #[inline]
    fn clone(&self) -> Self {
        Bits {
            len: self.len,
            store: self.store.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (&mut self.store, &source.store) {
            (Store::Heap(dst), Store::Heap(src)) => {
                self.len = source.len;
                dst.clone_from(src);
            }
            _ => *self = source.clone(),
        }
    }
}

impl PartialEq for Bits {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for Bits {}

impl PartialOrd for Bits {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bits {
    /// Lexicographic on `(len, words)` — identical to the ordering the
    /// previous `Vec<u64>`-backed derive produced, so sorted cube sets
    /// (e.g. [`crate::Cover::all_primes`]) are unchanged.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.len
            .cmp(&other.len)
            .then_with(|| self.words().cmp(other.words()))
    }
}

impl Hash for Bits {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

/// Iterator over set-bit indices of a [`Bits`], produced by
/// [`Bits::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    bits: &'a Bits,
    word_index: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.bits.words().len() {
                return None;
            }
            self.current = self.bits.words()[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero() {
        let b = Bits::new(100);
        assert!(b.is_zero());
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 0);
        assert!(b.first_one().is_none());
    }

    #[test]
    fn ones_has_all_bits() {
        let b = Bits::ones(70);
        assert_eq!(b.count_ones(), 70);
        assert!(b.get(0) && b.get(69));
    }

    #[test]
    fn ones_tail_is_masked() {
        // A complement of ones must be exactly zero even with a partial word.
        let b = Bits::ones(65);
        assert!(b.not().is_zero());
        // Same for widths around the inline/heap boundary.
        for len in [1, 63, 64, 127, 128, 129, 200] {
            assert!(Bits::ones(len).not().is_zero(), "len {len}");
            assert_eq!(Bits::ones(len).count_ones() as usize, len, "len {len}");
        }
    }

    #[test]
    fn set_get_flip_across_words() {
        let mut b = Bits::new(130);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        b.flip(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut b = Bits::new(200);
        let idx = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &idx {
            b.set(i, true);
        }
        let collected: Vec<usize> = b.iter_ones().collect();
        assert_eq!(collected, idx);
    }

    #[test]
    fn boolean_ops() {
        let mut a = Bits::new(80);
        let mut b = Bits::new(80);
        a.set(1, true);
        a.set(70, true);
        b.set(1, true);
        b.set(2, true);
        assert_eq!(a.and(&b).iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.or(&b).iter_ones().collect::<Vec<_>>(), vec![1, 2, 70]);
        assert_eq!(a.xor(&b).iter_ones().collect::<Vec<_>>(), vec![2, 70]);
        assert_eq!(a.and_not(&b).iter_ones().collect::<Vec<_>>(), vec![70]);
    }

    #[test]
    fn subset_and_disjoint() {
        let mut a = Bits::new(10);
        let mut b = Bits::new(10);
        a.set(3, true);
        b.set(3, true);
        b.set(4, true);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let mut c = Bits::new(10);
        c.set(5, true);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn from_index_unpacks_truth_table_order() {
        for nvars in [0, 1, 3, 64, 65, 130] {
            for m in [0usize, 1, 0b1011, usize::MAX] {
                let b = Bits::from_index(nvars, m);
                assert_eq!(b.len(), nvars);
                for v in 0..nvars {
                    assert_eq!(b.get(v), v < 64 && (m >> v) & 1 == 1, "{nvars} {m} {v}");
                }
            }
        }
    }

    #[test]
    fn first_one_positions() {
        let mut b = Bits::new(130);
        b.set(127, true);
        assert_eq!(b.first_one(), Some(127));
        b.set(3, true);
        assert_eq!(b.first_one(), Some(3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics_in_debug() {
        Bits::new(8).get(8);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Bits::new(0)).is_empty());
    }

    #[test]
    fn inline_and_heap_agree_on_ordering_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        // Equal vectors hash equal regardless of storage class; ordering is
        // lexicographic on (len, words) for both.
        let mut small_a = Bits::new(100);
        let mut small_b = Bits::new(100);
        small_a.set(65, true);
        small_b.set(65, true);
        assert_eq!(small_a, small_b);
        let hash = |b: &Bits| {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&small_a), hash(&small_b));
        small_b.set(2, true);
        assert_ne!(small_a, small_b);
        assert!(small_a < small_b); // word 0 of a (0) < word 0 of b (bit 2)
        let wide = Bits::new(190);
        assert!(small_a < wide); // shorter sorts first
    }

    #[test]
    fn clone_from_preserves_value() {
        let mut a = Bits::ones(150);
        let b = Bits::ones(70);
        a.clone_from(&b);
        assert_eq!(a, b);
        let mut c = Bits::new(200);
        c.clone_from(&Bits::ones(300));
        assert_eq!(c, Bits::ones(300));
    }
}
