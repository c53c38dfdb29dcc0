//! Bucket structures `BS(x, y)` — the atoms of the covering decomposition.

use crate::memory::MemoryWords;
use crate::rngutil::BitSource;
use crate::sample::Sample;
use rand::Rng;

/// The paper's bucket structure (§3.1):
/// `BS(x, y) = { p_x, x, y, T(p_x), R_{x,y}, Q_{x,y}, r, q }`.
///
/// Covers the index range `[a, b)` (the paper's `B(x, y)` holds elements
/// `p_x .. p_{y−1}`). `r` and `q` of the paper (the indexes of the picked
/// samples) live inside the [`Sample`] records; `T(p_x)` is `ts_first`. The
/// stored first element `p_x` of the paper is only ever used through its
/// timestamp, so only the timestamp is kept — one word fewer, same
/// asymptotics, and the word accounting below matches the struct exactly.
#[derive(Debug, Clone)]
pub(crate) struct BucketStruct<T, S = ()> {
    /// First covered index (`x`).
    pub a: u64,
    /// One past the last covered index (`y`).
    pub b: u64,
    /// Timestamp of the first covered element `T(p_a)`.
    pub ts_first: u64,
    /// Uniform sample of the covered range — the output sample.
    pub r: Sample<T>,
    /// Tracker statistic riding along with `r` (suffix statistic from the
    /// sampled position; `()` when tracking is unused).
    pub r_stat: S,
    /// Second, independent uniform sample — consumed by the implicit-event
    /// generator (Lemma 3.6).
    pub q: Sample<T>,
}

impl<T: Clone> BucketStruct<T, ()> {
    /// Width-1 bucket holding exactly the element `item` — `BS(b, b+1)`,
    /// without a tracker statistic.
    pub fn singleton(item: Sample<T>) -> Self {
        Self::singleton_with_stat(item, ())
    }
}

impl<T: Clone, S: Clone> BucketStruct<T, S> {
    /// Width-1 bucket holding exactly the element `item` — `BS(b, b+1)` —
    /// carrying the tracker statistic `stat` for its `R` sample.
    pub fn singleton_with_stat(item: Sample<T>, stat: S) -> Self {
        let idx = item.index();
        let ts = item.timestamp();
        Self {
            a: idx,
            b: idx + 1,
            ts_first: ts,
            r: item.clone(),
            r_stat: stat,
            q: item,
        }
    }

    /// Number of covered elements.
    pub fn width(&self) -> u64 {
        self.b - self.a
    }

    /// Merge with the adjacent right neighbour of equal width (the `Incr`
    /// union step): each of the merged `R`, `Q` is taken from the left or
    /// right bucket with probability 1/2, independently, preserving both
    /// uniformity and the R/Q independence. The two fair coins come from a
    /// caller-held [`BitSource`], so a merge costs 2 *bits* instead of 2
    /// RNG words — one `next_u64` services 32 merges.
    pub fn merge_right<R: Rng>(
        &mut self,
        right: BucketStruct<T, S>,
        rng: &mut R,
        bits: &mut BitSource,
    ) {
        debug_assert_eq!(self.b, right.a, "merge of non-adjacent buckets");
        debug_assert_eq!(
            self.width(),
            right.width(),
            "merge of unequal-width buckets"
        );
        if bits.bit(rng) {
            self.r = right.r;
            self.r_stat = right.r_stat;
        }
        if bits.bit(rng) {
            self.q = right.q;
        }
        self.b = right.b;
    }
}

impl<T, S> MemoryWords for BucketStruct<T, S> {
    fn memory_words(&self) -> usize {
        // a, b, ts_first + two samples of 3 words each.
        3 + 2 * Sample::<T>::WORDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn item(i: u64) -> Sample<u64> {
        Sample::new(i * 10, i, i)
    }

    #[test]
    fn singleton_covers_one_index() {
        let b = BucketStruct::singleton(item(5));
        assert_eq!((b.a, b.b), (5, 6));
        assert_eq!(b.width(), 1);
        assert_eq!(b.ts_first, 5);
        assert_eq!(b.r.index(), 5);
        assert_eq!(b.q.index(), 5);
    }

    #[test]
    fn merge_right_combines_ranges() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut bits = BitSource::new();
        let mut left = BucketStruct::singleton(item(0));
        let right = BucketStruct::singleton(item(1));
        left.merge_right(right, &mut rng, &mut bits);
        assert_eq!((left.a, left.b), (0, 2));
        assert_eq!(left.ts_first, 0);
        assert!(left.r.index() <= 1);
    }

    #[test]
    fn merge_picks_each_side_half_the_time() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut bits = BitSource::new();
        let trials = 20_000;
        let mut left_wins = 0u64;
        for _ in 0..trials {
            let mut l = BucketStruct::singleton(item(0));
            let r = BucketStruct::singleton(item(1));
            l.merge_right(r, &mut rng, &mut bits);
            if l.r.index() == 0 {
                left_wins += 1;
            }
        }
        let rate = left_wins as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn r_and_q_merge_independently() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut bits = BitSource::new();
        let trials = 20_000;
        let mut joint = [[0u64; 2]; 2];
        for _ in 0..trials {
            let mut l = BucketStruct::singleton(item(0));
            let r = BucketStruct::singleton(item(1));
            l.merge_right(r, &mut rng, &mut bits);
            joint[l.r.index() as usize][l.q.index() as usize] += 1;
        }
        // Each of the 4 cells should hold about a quarter.
        for row in &joint {
            for &c in row {
                let f = c as f64 / trials as f64;
                assert!((f - 0.25).abs() < 0.02, "cell fraction {f}");
            }
        }
    }

    // The width check is a `debug_assert!`, so release builds have no
    // panic to observe.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn merge_rejects_unequal_widths() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut bits = BitSource::new();
        let mut wide = BucketStruct::singleton(item(0));
        wide.merge_right(BucketStruct::singleton(item(1)), &mut rng, &mut bits);
        // width-2 merged with width-1 must panic (debug assertions on).
        wide.merge_right(BucketStruct::singleton(item(2)), &mut rng, &mut bits);
    }
}
