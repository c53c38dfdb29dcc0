//! Triangle counting over sliding edge-stream windows (Corollary 5.3).
//!
//! The Buriol–Frahling–Leonardi–Marchetti-Spaccamela–Sohler one-pass
//! estimator: sample an edge `e = (a, b)` uniformly from the stream, pick a
//! third vertex `v` uniformly from `V ∖ {a, b}`, and watch whether both
//! `(a, v)` and `(b, v)` appear *after* `e`. For each triangle exactly one
//! (edge, vertex) choice succeeds — its first-appearing edge with the
//! opposite vertex — so
//!
//! ```text
//! E[β] = T₃ / (|E| · (V − 2))      ⇒      T̂₃ = β̄ · |E| · (V − 2)
//! ```
//!
//! Windowed via Theorem 5.1: the uniform edge comes from [`SeqSamplerWr`]
//! over the last `n` edges, and the watch-list rides along in a
//! [`SampleTracker`]. Every post-sample arrival is inside the window (the
//! window is a suffix), so `β` refers precisely to the window's triangles:
//! a triangle whose three edges are active is counted via its first active
//! edge.
//!
//! As in the original estimator, `|E|` counts stream (window) edges with
//! multiplicity; heavy duplication inflates the estimate. The experiments
//! use workloads with low duplication, like the original paper's.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swsample_core::seq::SeqSamplerWr;
use swsample_core::track::SampleTracker;
use swsample_core::MemoryWords;
use swsample_stream::Edge;

/// Watch statistic: the sampled edge's endpoints, the chosen third vertex,
/// and whether each completing edge has been seen.
#[derive(Debug, Clone, Copy)]
pub struct TriangleWatch {
    a: u32,
    b: u32,
    v: u32,
    seen_av: bool,
    seen_bv: bool,
}

impl TriangleWatch {
    /// `true` once both completing edges have appeared.
    pub fn complete(&self) -> bool {
        self.seen_av && self.seen_bv
    }
}

/// Tracker choosing the third vertex and watching for the completing edges.
#[derive(Debug)]
pub struct TriangleTracker {
    nodes: u32,
    rng: SmallRng,
}

impl TriangleTracker {
    /// Tracker over a graph with `nodes ≥ 3` vertices.
    pub fn new(nodes: u32, seed: u64) -> Self {
        assert!(nodes >= 3, "TriangleTracker: need at least 3 nodes");
        Self {
            nodes,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl SampleTracker<Edge> for TriangleTracker {
    type Stat = TriangleWatch;

    fn fresh(&mut self, edge: &Edge, _index: u64) -> TriangleWatch {
        // Uniform v from V \ {a, b}.
        let v = loop {
            let v = self.rng.gen_range(0..self.nodes);
            if v != edge.u && v != edge.v {
                break v;
            }
        };
        TriangleWatch {
            a: edge.u,
            b: edge.v,
            v,
            seen_av: false,
            seen_bv: false,
        }
    }

    fn observe(&mut self, stat: &mut TriangleWatch, incoming: &Edge) {
        if *incoming == Edge::new(stat.a, stat.v) {
            stat.seen_av = true;
        }
        if *incoming == Edge::new(stat.b, stat.v) {
            stat.seen_bv = true;
        }
    }
}

/// Buriol-style triangle-count estimator over the last `n` edges.
#[derive(Debug)]
pub struct TriangleEstimator<R> {
    nodes: u32,
    sampler: SeqSamplerWr<Edge, R, TriangleTracker>,
    estimators: usize,
}

impl<R: Rng> TriangleEstimator<R> {
    /// Estimator over windows of the last `n` edges of a graph on `nodes`
    /// vertices, using `estimators` parallel basic estimators.
    pub fn new(n: u64, nodes: u32, estimators: usize, rng: R, tracker_seed: u64) -> Self {
        assert!(estimators >= 1);
        Self {
            nodes,
            estimators,
            sampler: SeqSamplerWr::with_tracker(
                n,
                estimators,
                rng,
                TriangleTracker::new(nodes, tracker_seed),
            ),
        }
    }

    /// Feed the next edge.
    pub fn insert(&mut self, edge: Edge) {
        self.sampler.push(edge);
    }

    /// Current estimate of the window triangle count; `None` before any
    /// edge arrives.
    pub fn estimate(&self) -> Option<f64> {
        let m = self.sampler.active_len();
        if m == 0 {
            return None;
        }
        let picks = self.sampler.sample_k_with_stats()?;
        let hits = picks.iter().filter(|(_, w)| w.complete()).count();
        let beta = hits as f64 / picks.len() as f64;
        Some(beta * m as f64 * (self.nodes as f64 - 2.0))
    }

    /// Number of active edges in the window.
    pub fn active_len(&self) -> u64 {
        self.sampler.active_len()
    }
}

impl<R> MemoryWords for TriangleEstimator<R> {
    fn memory_words(&self) -> usize {
        // Sampler + 5-word watch stat per estimator.
        self.sampler.memory_words() + self.estimators * 5 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use swsample_stream::{count_triangles, EdgeStreamGen};

    #[test]
    fn empty_returns_none() {
        let est = TriangleEstimator::new(10, 5, 4, SmallRng::seed_from_u64(0), 1);
        assert!(est.estimate().is_none());
    }

    #[test]
    fn triangle_free_window_estimates_zero() {
        // A long path has no triangles.
        let mut est = TriangleEstimator::new(50, 100, 32, SmallRng::seed_from_u64(1), 2);
        for i in 0..60u32 {
            est.insert(Edge::new(i, i + 1));
        }
        assert_eq!(est.estimate().expect("nonempty"), 0.0);
    }

    #[test]
    fn dense_triangle_stream_estimates_nonzero_and_sane() {
        let mut gen = EdgeStreamGen::new(20, 0.6);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 200u64;
        // Average over independent estimator instances and window replays.
        let mut mean_est = 0.0;
        let reps = 30;
        let mut window: Vec<Edge> = Vec::new();
        for rep in 0..reps {
            let mut est =
                TriangleEstimator::new(n, 20, 64, SmallRng::seed_from_u64(100 + rep), rep);
            window.clear();
            for _ in 0..n {
                let e = gen.next_edge(&mut rng);
                window.push(e);
                est.insert(e);
            }
            mean_est += est.estimate().expect("nonempty");
        }
        mean_est /= reps as f64;
        let exact = count_triangles(&window) as f64;
        // Rough agreement: same order of magnitude (the estimator's variance
        // at 64 samples is substantial; E10 sweeps this properly).
        assert!(mean_est > 0.0, "estimated zero triangles in dense stream");
        assert!(
            mean_est < 40.0 * exact.max(1.0),
            "estimate {mean_est} wildly above exact {exact}"
        );
    }

    #[test]
    fn watch_completes_on_both_edges() {
        let mut tr = TriangleTracker::new(10, 7);
        let mut w = tr.fresh(&Edge::new(0, 1), 0);
        assert!(!w.complete());
        let v = w.v;
        tr.observe(&mut w, &Edge::new(0, v));
        assert!(!w.complete());
        tr.observe(&mut w, &Edge::new(1, v));
        assert!(w.complete());
    }

    #[test]
    fn watches_match_a_brute_force_scan_of_the_suffix() {
        use swsample_core::WindowSampler;
        // Few nodes, so completing edges recur. After every step each
        // watch has seen exactly the completing edges that arrived after
        // its sampled edge: fed per edge, then in ragged chunks that cross
        // rotations.
        let mut gen = EdgeStreamGen::new(6, 0.5);
        let mut rng = SmallRng::seed_from_u64(21);
        let stream: Vec<Edge> = (0..400).map(|_| gen.next_edge(&mut rng)).collect();
        let n = 37u64;
        for k in [4usize, 16] {
            for batched in [false, true] {
                let tracker = TriangleTracker::new(6, k as u64);
                let mut s = SeqSamplerWr::with_tracker(n, k, SmallRng::seed_from_u64(5), tracker);
                let mut chunks = SmallRng::seed_from_u64(k as u64);
                let mut at = 0usize;
                while at < stream.len() {
                    let len = if batched { chunks.gen_range(1..90) } else { 1 };
                    let chunk = &stream[at..(at + len).min(stream.len())];
                    if batched {
                        s.insert_batch(chunk);
                    } else {
                        s.push(chunk[0]);
                    }
                    at += chunk.len();
                    for (smp, w) in s.sample_k_with_stats().expect("nonempty") {
                        let (a, b) = (smp.value().u, smp.value().v);
                        assert_eq!((w.a, w.b), (a, b));
                        assert!(w.v != a && w.v != b);
                        let after = &stream[smp.index() as usize + 1..at];
                        let seen = |x: u32| after.contains(&Edge::new(x, w.v));
                        assert_eq!(w.seen_av, seen(a), "k={k} batched={batched} at {at}");
                        assert_eq!(w.seen_bv, seen(b), "k={k} batched={batched} at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn tracker_never_picks_endpoint() {
        let mut tr = TriangleTracker::new(3, 9);
        for _ in 0..100 {
            let w = tr.fresh(&Edge::new(0, 2), 0);
            assert_eq!(w.v, 1);
        }
    }
}
