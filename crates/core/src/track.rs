//! Sample decoration hooks for sampling-based algorithms (Theorem 5.1).
//!
//! Several of the §5 applications (AMS frequency moments, CCM entropy,
//! Buriol triangle counting) need more than the sampled element: they need a
//! statistic of the stream *suffix following the sampled position* — e.g.
//! "how many later elements equal the sampled value". A reservoir can carry
//! such a statistic for free: reset it whenever the candidate is replaced,
//! fold in every subsequent arrival otherwise.
//!
//! [`SampleTracker`] is that hook. The sequence-window sampler
//! [`crate::seq::SeqSamplerWr`] is generic over it, and ingests tracked
//! streams on the same skip-ahead path as untracked ones: only the
//! arrivals a lane accepts draw randomness, while every arrival is folded
//! into the retained candidates' statistics. The default [`NullTracker`]
//! compiles to nothing. This is exactly the "replace the underlying
//! sampling method" transformation of Theorem 5.1, expressed as an API.

/// Per-candidate suffix statistic maintained alongside a reservoir sample.
pub trait SampleTracker<T> {
    /// The statistic carried with each candidate.
    type Stat: Clone + std::fmt::Debug;

    /// `false` promises that [`observe`](SampleTracker::observe) is a
    /// no-op, so the sampler may pass over non-accepted arrivals without
    /// touching them. A tracker that folds every arrival into its
    /// statistic must keep the default `true`: the sampler then calls
    /// `observe` on every retained candidate for every arrival, and keeps
    /// one statistic per lane. Either way, which arrivals are accepted is
    /// drawn by the same `O(log n)`-draws skip-ahead of [`crate::skip`].
    const TRACKS: bool = true;

    /// Called when a reservoir adopts `value` (at stream position `index`)
    /// as its new candidate; returns the initial statistic.
    fn fresh(&mut self, value: &T, index: u64) -> Self::Stat;

    /// Called for every element arriving after the candidate, while the
    /// candidate is retained.
    fn observe(&mut self, stat: &mut Self::Stat, incoming: &T);
}

/// The trivial tracker: carries no statistic.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracker;

impl<T> SampleTracker<T> for NullTracker {
    type Stat = ();

    const TRACKS: bool = false;

    fn fresh(&mut self, _value: &T, _index: u64) -> Self::Stat {}

    fn observe(&mut self, _stat: &mut Self::Stat, _incoming: &T) {}
}

/// A tracker that counts occurrences of the candidate's value in the suffix
/// starting at the candidate itself (so the count is at least 1).
///
/// This is the `r` statistic of the AMS estimator ("the number of
/// occurrences of `a_j` in the stream suffix") and of the CCM entropy
/// estimator; both applications in `swsample-apps` are built on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct OccurrenceTracker;

impl<T: PartialEq + Clone + std::fmt::Debug> SampleTracker<T> for OccurrenceTracker {
    /// `(candidate value, occurrence count including the candidate)`.
    type Stat = (T, u64);

    fn fresh(&mut self, value: &T, _index: u64) -> Self::Stat {
        (value.clone(), 1)
    }

    fn observe(&mut self, stat: &mut Self::Stat, incoming: &T) {
        if *incoming == stat.0 {
            stat.1 += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracker_is_unit() {
        let mut t = NullTracker;
        let _: () = SampleTracker::<u64>::fresh(&mut t, &5, 0);
        SampleTracker::<u64>::observe(&mut t, &mut (), &6);
    }

    #[test]
    fn occurrence_tracker_counts_matches() {
        let mut t = OccurrenceTracker;
        let mut stat = t.fresh(&7u64, 0);
        assert_eq!(stat, (7, 1));
        for v in [7, 3, 7, 7, 9] {
            t.observe(&mut stat, &v);
        }
        assert_eq!(stat.1, 4);
    }

    #[test]
    fn occurrence_tracker_resets_on_fresh() {
        let mut t = OccurrenceTracker;
        let mut stat = t.fresh(&1u64, 0);
        t.observe(&mut stat, &1);
        let stat2 = t.fresh(&2u64, 5);
        assert_eq!(stat2, (2, 1));
        assert_eq!(stat.1, 2, "old stat unaffected");
    }
}
