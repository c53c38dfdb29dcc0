//! The covering decomposition `ζ(a, b)` (Definition 3.1) and its `Incr`
//! operator (Lemma 3.4).
//!
//! `ζ(a, b)` is an ordered list of bucket structures covering the index
//! range `[a, b]`, defined inductively:
//!
//! ```text
//! ζ(b, b)  = ⟨BS(b, b+1)⟩
//! ζ(a, b)  = ⟨BS(a, c), ζ(c, b)⟩,   c = a + 2^{⌊log(b+1−a)⌋ − 1}
//! ```
//!
//! so bucket widths decay geometrically and `|ζ(a, b)| = O(log(b − a))`
//! (Fact 3.2). `Incr` appends element `b+1` while restoring canonical form
//! by merging equal-width prefixes; Lemma 3.4 proves `Incr(ζ(a,b)) =
//! ζ(a, b+1)`, which the property tests verify directly against the
//! inductive definition.

use super::bucket::BucketStruct;
use crate::memory::MemoryWords;
use crate::rngutil::{floor_log2, BitSource};
use crate::sample::Sample;
use rand::Rng;

/// A canonical covering decomposition over a contiguous index range.
#[derive(Debug, Clone)]
pub(crate) struct Covering<T, S = ()> {
    buckets: Vec<BucketStruct<T, S>>,
}

impl<T: Clone> Covering<T, ()> {
    /// `ζ(b, b)`: a single width-1 bucket holding `item`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn new(item: Sample<T>) -> Self {
        Self {
            buckets: vec![BucketStruct::singleton(item)],
        }
    }
}

impl<T: Clone, S: Clone> Covering<T, S> {
    /// `ζ(b, b)` carrying a tracker statistic for the single element.
    pub fn new_with_stat(item: Sample<T>, stat: S) -> Self {
        Self {
            buckets: vec![BucketStruct::singleton_with_stat(item, stat)],
        }
    }

    /// First covered index.
    pub fn start(&self) -> u64 {
        self.buckets[0].a
    }

    /// One past the last covered index.
    pub fn end(&self) -> u64 {
        self.buckets.last().expect("covering is never empty").b
    }

    /// Number of covered elements.
    pub fn covered_len(&self) -> u64 {
        self.end() - self.start()
    }

    /// Number of buckets (`O(log covered_len)` by Fact 3.2).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The buckets, oldest first.
    pub fn buckets(&self) -> &[BucketStruct<T, S>] {
        &self.buckets
    }

    /// Timestamp of the newest covered element (= `ts_first` of the final
    /// width-1 bucket).
    pub fn newest_ts(&self) -> u64 {
        let last = self.buckets.last().expect("covering is never empty");
        debug_assert_eq!(
            last.width(),
            1,
            "canonical covering must end in a width-1 bucket"
        );
        last.ts_first
    }

    /// Timestamp of the oldest covered element.
    pub fn oldest_ts(&self) -> u64 {
        self.buckets[0].ts_first
    }

    /// `Incr` (Lemma 3.4): append the next element (its index must equal
    /// [`Covering::end`]) and restore canonical form.
    ///
    /// Walks the list front-to-back exactly as the paper's recursion: at
    /// each suffix `ζ(a, b)`, if `⌊log(b+2−a)⌋ = ⌊log(b+1−a)⌋` the head
    /// bucket is kept; otherwise the first two buckets (which the proof
    /// shows have equal width) merge. The recursion bottoms out at the
    /// final width-1 bucket, where the new element is appended.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn incr<R: Rng>(&mut self, item: Sample<T>, rng: &mut R, bits: &mut BitSource)
    where
        S: Default,
    {
        self.incr_with_stat(item, S::default(), rng, bits);
    }

    /// [`Covering::incr`] carrying the tracker statistic of the appended
    /// element.
    pub fn incr_with_stat<R: Rng>(
        &mut self,
        item: Sample<T>,
        stat: S,
        rng: &mut R,
        bits: &mut BitSource,
    ) {
        debug_assert_eq!(item.index(), self.end(), "Incr: non-consecutive index");
        debug_assert!(
            item.timestamp() >= self.newest_ts(),
            "Incr: timestamps must be non-decreasing"
        );
        let end = self.end(); // b + 1
        let mut i = 0;
        loop {
            if i == self.buckets.len() - 1 {
                // Base case ζ(b, b): append BS(b+1, b+2).
                self.buckets
                    .push(BucketStruct::singleton_with_stat(item, stat));
                break;
            }
            let a = self.buckets[i].a;
            let len_old = end - a; // b + 1 − a
            if floor_log2(len_old + 1) == floor_log2(len_old) {
                i += 1;
            } else {
                // ⌊log⌋ jumped: b+1−a = 2^j − 1 and the first two buckets
                // have equal width; unify them.
                let right = self.buckets.remove(i + 1);
                self.buckets[i].merge_right(right, rng, bits);
                i += 1;
            }
        }
        debug_assert!(self.is_canonical(), "Incr broke canonical form");
    }

    /// Split for the Lemma 3.5 case-2 transition: find the unique bucket
    /// whose first element is expired while the *next* bucket's first
    /// element is active, given `active(ts)` decides activity. Returns the
    /// straddling bucket (the new `BS(y, z)`) and replaces `self` with the
    /// remaining suffix `ζ(z, ·)`.
    ///
    /// # Panics
    /// Debug-panics unless the first bucket is expired and the newest
    /// element is active (the case-2 precondition).
    pub fn split_straddle(&mut self, active: impl Fn(u64) -> bool) -> BucketStruct<T, S> {
        debug_assert!(
            !active(self.buckets[0].ts_first),
            "split: first bucket still active"
        );
        debug_assert!(active(self.newest_ts()), "split: newest element expired");
        let j = self
            .buckets
            .iter()
            .position(|b| active(b.ts_first))
            .expect("newest element is active, so an active bucket exists");
        debug_assert!(j >= 1);
        let mut tail = self.buckets.split_off(j);
        std::mem::swap(&mut self.buckets, &mut tail);
        // `tail` now holds the dropped prefix; its last bucket straddles.
        tail.pop().expect("prefix is non-empty")
    }

    /// Uniform sample of the covered range: pick a bucket with probability
    /// proportional to its width, output its `R` sample.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn sample_uniform<R: Rng>(&self, rng: &mut R) -> Sample<T> {
        self.sample_uniform_with_stat(rng).0
    }

    /// Uniform sample of the covered range together with its tracker
    /// statistic.
    pub fn sample_uniform_with_stat<R: Rng>(&self, rng: &mut R) -> (Sample<T>, S) {
        let total = self.covered_len();
        let mut x = rng.gen_range(0..total);
        for b in &self.buckets {
            if x < b.width() {
                return (b.r.clone(), b.r_stat.clone());
            }
            x -= b.width();
        }
        unreachable!("widths sum to covered_len")
    }

    /// Apply `observe` to every bucket's `R` statistic (called once per
    /// arriving element by tracked engines — `O(log n)` tracker updates).
    pub fn observe_all(&mut self, mut observe: impl FnMut(&mut S)) {
        for b in &mut self.buckets {
            observe(&mut b.r_stat);
        }
    }

    /// Structural invariant: contiguous buckets matching Definition 3.1
    /// (each head width is `2^{⌊log L⌋−1}` for suffix length `L`, final
    /// bucket width 1).
    pub fn is_canonical(&self) -> bool {
        let end = self.end();
        let mut expect_a = self.start();
        for (i, b) in self.buckets.iter().enumerate() {
            if b.a != expect_a || b.b <= b.a {
                return false;
            }
            let suffix_len = end - b.a; // covered elements from this bucket on
            let want = if i == self.buckets.len() - 1 {
                1
            } else {
                1u64 << (floor_log2(suffix_len) - 1)
            };
            if b.width() != want {
                return false;
            }
            expect_a = b.b;
        }
        expect_a == end
    }
}

impl<T, S> MemoryWords for Covering<T, S> {
    fn memory_words(&self) -> usize {
        self.buckets.iter().map(MemoryWords::memory_words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    fn item(i: u64) -> Sample<u64> {
        Sample::new(i, i, i)
    }

    fn build(len: u64, rng: &mut SmallRng) -> Covering<u64> {
        let mut bits = BitSource::new();
        let mut c = Covering::new(item(0));
        for i in 1..len {
            c.incr(item(i), rng, &mut bits);
        }
        c
    }

    #[test]
    fn widths_match_inductive_definition() {
        // Reference widths computed straight from Definition 3.1.
        fn reference_widths(mut len: u64) -> Vec<u64> {
            let mut out = Vec::new();
            while len > 1 {
                let w = 1u64 << (crate::rngutil::floor_log2(len) - 1);
                out.push(w);
                len -= w;
            }
            out.push(1);
            out
        }
        let mut rng = SmallRng::seed_from_u64(1);
        for len in 1..=300u64 {
            let c = build(len, &mut rng);
            let got: Vec<u64> = c.buckets().iter().map(|b| b.width()).collect();
            assert_eq!(got, reference_widths(len), "len = {len}");
            assert!(c.is_canonical());
        }
    }

    #[test]
    fn bucket_count_is_logarithmic() {
        let mut rng = SmallRng::seed_from_u64(2);
        for &len in &[1u64, 2, 15, 16, 17, 255, 256, 1023, 4096, 10_000] {
            let c = build(len, &mut rng);
            let bound = 2 * (crate::rngutil::floor_log2(len) as usize + 1) + 1;
            assert!(
                c.bucket_count() <= bound,
                "len={len}: {} buckets > bound {bound}",
                c.bucket_count()
            );
        }
    }

    #[test]
    fn covered_range_is_contiguous() {
        let mut rng = SmallRng::seed_from_u64(3);
        let c = build(100, &mut rng);
        assert_eq!(c.start(), 0);
        assert_eq!(c.end(), 100);
        assert_eq!(c.covered_len(), 100);
    }

    #[test]
    fn sample_uniform_over_covered_range() {
        let len = 24u64;
        let trials = 30_000u64;
        let mut counts = vec![0u64; len as usize];
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(10_000 + t);
            let c = build(len, &mut rng);
            counts[c.sample_uniform(&mut rng).index() as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "covering sample not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn split_straddle_returns_boundary_bucket() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut c = build(64, &mut rng);
        // Expire timestamps < 10: active(ts) = ts >= 10.
        let head = c.split_straddle(|ts| ts >= 10);
        // The straddling bucket begins expired and its successor is active.
        assert!(head.ts_first < 10);
        assert!(c.oldest_ts() >= 10);
        assert_eq!(
            head.b,
            c.start(),
            "head must be adjacent to the remaining suffix"
        );
        // Case-2 invariant |B1| <= |B2| (the proof of Lemma 3.5 case 2(c)).
        assert!(head.width() <= c.covered_len());
    }

    #[test]
    fn split_invariant_holds_for_every_boundary() {
        for boundary in 1..64u64 {
            let mut rng = SmallRng::seed_from_u64(500 + boundary);
            let mut c = build(64, &mut rng);
            let head = c.split_straddle(|ts| ts >= boundary);
            assert!(
                head.width() <= c.covered_len(),
                "boundary {boundary}: head width {} > tail len {}",
                head.width(),
                c.covered_len()
            );
        }
    }

    #[test]
    fn newest_ts_tracks_last_item() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut bits = BitSource::new();
        let mut c = Covering::new(item(0));
        for i in 1..50 {
            c.incr(Sample::new(i, i, i * 3), &mut rng, &mut bits);
            assert_eq!(c.newest_ts(), i * 3);
        }
    }

    #[test]
    fn memory_words_scale_with_bucket_count() {
        let mut rng = SmallRng::seed_from_u64(6);
        let c = build(1000, &mut rng);
        assert_eq!(c.memory_words(), c.bucket_count() * 9);
    }
}
