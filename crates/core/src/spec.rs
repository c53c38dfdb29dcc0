//! Declarative sampler construction: [`SamplerSpec`].
//!
//! Every sampler in the workspace is described by the same plain-data
//! record — window discipline, replacement mode, algorithm family, `k`,
//! window size, RNG seed — and [`SamplerSpec::build`] turns that record
//! into a boxed [`ErasedWindowSampler`]. This
//! is what lets one process hold a *heterogeneous fleet* of windows (the
//! multi-stream engine in `swsample-stream`, the CLI's `run`/`multi`
//! subcommands, the experiment harness) without being generic over every
//! concrete sampler type.
//!
//! The spec round-trips through the CLI flag surface:
//!
//! ```
//! use swsample_core::spec::SamplerSpec;
//!
//! let spec: SamplerSpec = "--window seq --n 1000 --mode wor --algo paper --k 16 --seed 7"
//!     .parse()
//!     .unwrap();
//! assert_eq!(
//!     spec.to_string(),
//!     "--window seq --n 1000 --mode wor --algo paper --k 16 --seed 7"
//! );
//! let mut sampler = spec.build::<u64>().unwrap();
//! sampler.insert_batch(&(0..5_000u64).collect::<Vec<_>>());
//! assert!(sampler.sample_k().unwrap().iter().all(|s| s.index() >= 4_000));
//! ```
//!
//! Crate boundaries: `swsample-core` can construct the paper's samplers
//! (Theorems 2.1/2.2/3.9/4.4) and the whole-stream Algorithm L reservoir.
//! The baseline algorithms ([`Algorithm::Chain`], [`Algorithm::Priority`],
//! [`Algorithm::WindowBuffer`]) live in `swsample-baselines`, which
//! depends on this crate — so building *those* specs goes through the full
//! factory `swsample_baselines::spec::build`, which handles every
//! algorithm and delegates the core ones here. APIs that need to build
//! arbitrary specs without naming a crate take a [`SamplerFactory`].

use crate::erased::ErasedWindowSampler;
use crate::memory::MemoryWords;
use crate::reservoir::ReservoirL;
use crate::sample::Sample;
use crate::traits::WindowSampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which sliding-window discipline the sampler maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// The last `n` arrivals are active (§2, sequence-based windows).
    Sequence(u64),
    /// Arrivals within the last `w` ticks are active (§3, timestamp-based
    /// windows).
    Timestamp(u64),
    /// No window at all: the entire stream is active (the paper's
    /// Question 1.2 reference point).
    WholeStream,
}

/// Whether the `k` maintained samples are drawn with or without
/// replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// `k` independent samples (Theorems 2.1, 3.9).
    With,
    /// `k` distinct elements (Theorems 2.2, 4.4).
    Without,
}

/// Which algorithm family maintains the sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's samplers — deterministic `O(k)` / `O(k log n)` words.
    Paper,
    /// Li's Algorithm L over the whole stream (no expiry).
    ReservoirL,
    /// Chain sampling (Babcock–Datar–Motwani '02) — sequence windows,
    /// with replacement, randomized memory bound. Built by
    /// `swsample_baselines::spec::build`.
    Chain,
    /// Priority sampling (BDM '02; Gemulla–Lehner '08 for the
    /// without-replacement top-`k` variant) — timestamp windows,
    /// randomized memory bound. Built by `swsample_baselines::spec::build`.
    Priority,
    /// Exact full-window buffering (Zhang et al. '05) — `O(n)` words.
    /// Built by `swsample_baselines::spec::build`.
    WindowBuffer,
}

impl Algorithm {
    /// The flag-surface token (`--algo <token>`).
    pub fn token(&self) -> &'static str {
        match self {
            Algorithm::Paper => "paper",
            Algorithm::ReservoirL => "reservoir-l",
            Algorithm::Chain => "chain",
            Algorithm::Priority => "priority",
            Algorithm::WindowBuffer => "window-buffer",
        }
    }
}

/// A plain-data description of any sampler in the workspace.
///
/// See the [module docs](self) for the grammar and an end-to-end example.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SamplerSpec {
    /// Window discipline and size.
    pub window: WindowKind,
    /// With or without replacement.
    pub replacement: Replacement,
    /// Algorithm family.
    pub algorithm: Algorithm,
    /// Number of maintained samples.
    pub k: usize,
    /// Seed for the sampler's own RNG stream.
    pub seed: u64,
}

/// Why a spec failed to validate, parse, or build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The field combination is meaningless (e.g. chain sampling over a
    /// timestamp window, `k = 0`).
    Invalid(String),
    /// The combination is valid but the constructor lives in a crate this
    /// builder cannot see; the message names the factory that can.
    Unsupported(String),
    /// The flag string did not parse.
    Parse(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Invalid(m) => write!(f, "invalid sampler spec: {m}"),
            SpecError::Unsupported(m) => write!(f, "unsupported here: {m}"),
            SpecError::Parse(m) => write!(f, "cannot parse sampler spec: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A function that turns a spec into a running erased sampler.
///
/// `SamplerSpec::build::<T>` is a `SamplerFactory<T>` covering the
/// algorithms `swsample-core` owns; `swsample_baselines::spec::build`
/// covers all of them. Code that must stay crate-agnostic (the
/// multi-stream engine) takes the factory as a value.
pub type SamplerFactory<T> = fn(&SamplerSpec) -> Result<Box<dyn ErasedWindowSampler<T>>, SpecError>;

/// The fleet-storage selector of older releases, kept so callers that
/// still pass it (`MultiStreamEngine::with_backend`,
/// `DurableEngine::create`) compile unchanged.
///
/// A keyed fleet has exactly one per-key store — one boxed
/// [`ErasedWindowSampler`] per key — so the single variant selects
/// nothing and is ignored wherever it is accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FleetBackend {
    /// The only store: one boxed sampler per key.
    #[default]
    Auto,
}

impl SamplerSpec {
    /// Convenience: the paper's sampler over the last `n` arrivals.
    pub fn seq(n: u64, replacement: Replacement, k: usize, seed: u64) -> Self {
        Self {
            window: WindowKind::Sequence(n),
            replacement,
            algorithm: Algorithm::Paper,
            k,
            seed,
        }
    }

    /// Convenience: the paper's sampler over the last `w` ticks.
    pub fn ts(w: u64, replacement: Replacement, k: usize, seed: u64) -> Self {
        Self {
            window: WindowKind::Timestamp(w),
            replacement,
            algorithm: Algorithm::Paper,
            k,
            seed,
        }
    }

    /// Check that the field combination describes a sampler that exists.
    ///
    /// The rules mirror the literature: chain sampling is defined for
    /// sequence windows with replacement; priority sampling for timestamp
    /// windows (the Gemulla–Lehner top-`k` variant is its
    /// without-replacement form); window buffering answers
    /// without-replacement queries over either window kind; Algorithm L
    /// runs over the whole stream without replacement; the paper's
    /// samplers cover both windows in both modes.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |m: String| Err(SpecError::Invalid(m));
        if self.k == 0 {
            return err("k must be at least 1".into());
        }
        match self.window {
            WindowKind::Sequence(0) => return err("--n must be at least 1".into()),
            WindowKind::Timestamp(0) => return err("--w must be at least 1".into()),
            _ => {}
        }
        let (win, rep) = (self.window, self.replacement);
        match self.algorithm {
            Algorithm::Paper => match win {
                WindowKind::WholeStream => {
                    err("the paper's samplers need a window (--window seq|ts)".into())
                }
                _ => Ok(()),
            },
            Algorithm::ReservoirL => match (win, rep) {
                (WindowKind::WholeStream, Replacement::Without) => Ok(()),
                (WindowKind::WholeStream, Replacement::With) => {
                    err("reservoir-l samples without replacement (--mode wor)".into())
                }
                _ => err("reservoir-l runs over the whole stream (--window stream)".into()),
            },
            Algorithm::Chain => match (win, rep) {
                (WindowKind::Sequence(_), Replacement::With) => Ok(()),
                (WindowKind::Sequence(_), Replacement::Without) => {
                    err("chain sampling is with-replacement (--mode wr)".into())
                }
                _ => err("chain sampling is sequence-window only (--window seq)".into()),
            },
            Algorithm::Priority => match win {
                WindowKind::Timestamp(_) => Ok(()),
                _ => err("priority sampling is timestamp-window only (--window ts)".into()),
            },
            Algorithm::WindowBuffer => match (win, rep) {
                (WindowKind::WholeStream, _) => {
                    err("window-buffer needs a window (--window seq|ts)".into())
                }
                (_, Replacement::With) => {
                    err("window-buffer answers without-replacement queries (--mode wor)".into())
                }
                _ => Ok(()),
            },
        }
    }

    /// Construct the described sampler, type-erased.
    ///
    /// Covers the algorithms owned by `swsample-core`
    /// ([`Algorithm::Paper`], [`Algorithm::ReservoirL`]); the baseline
    /// algorithms return [`SpecError::Unsupported`] naming
    /// `swsample_baselines::spec::build`, the factory that covers all of
    /// them. The sampler's RNG is a `SmallRng` seeded from `self.seed`,
    /// so equal specs produce identically-distributed (indeed identical)
    /// samplers.
    ///
    /// `T: Send + Sync` because [`ErasedWindowSampler`] is `Send + Sync`
    /// (erased samplers cross worker threads in parallel fleets and are
    /// queried under shared read locks) and the built sampler stores
    /// values of `T`.
    pub fn build<T: Clone + Send + Sync + 'static>(
        &self,
    ) -> Result<Box<dyn ErasedWindowSampler<T>>, SpecError> {
        self.validate()?;
        let rng = SmallRng::seed_from_u64(self.seed);
        let k = self.k;
        match (self.algorithm, self.window, self.replacement) {
            (Algorithm::Paper, WindowKind::Sequence(n), Replacement::With) => Ok(Box::new(
                WithSpec::new(self.clone(), crate::seq::SeqSamplerWr::new(n, k, rng)),
            )),
            (Algorithm::Paper, WindowKind::Sequence(n), Replacement::Without) => Ok(Box::new(
                WithSpec::new(self.clone(), crate::seq::SeqSamplerWor::new(n, k, rng)),
            )),
            (Algorithm::Paper, WindowKind::Timestamp(w), Replacement::With) => Ok(Box::new(
                WithSpec::new(self.clone(), crate::ts::TsSamplerWr::new(w, k, rng)),
            )),
            (Algorithm::Paper, WindowKind::Timestamp(w), Replacement::Without) => Ok(Box::new(
                WithSpec::new(self.clone(), crate::ts::TsSamplerWor::new(w, k, rng)),
            )),
            (Algorithm::ReservoirL, ..) => Ok(Box::new(WithSpec::new(
                self.clone(),
                WholeStreamL::new(k, rng),
            ))),
            (algo, ..) => Err(SpecError::Unsupported(format!(
                "algorithm `{}` lives in swsample-baselines; build it with \
                 swsample_baselines::spec::build",
                algo.token()
            ))),
        }
    }
}

impl std::fmt::Display for SamplerSpec {
    /// Render the canonical CLI flag surface. `Display` then `FromStr` is
    /// the identity on validated specs (proptest-checked).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.window {
            WindowKind::Sequence(n) => write!(f, "--window seq --n {n}")?,
            WindowKind::Timestamp(w) => write!(f, "--window ts --w {w}")?,
            WindowKind::WholeStream => write!(f, "--window stream")?,
        }
        let mode = match self.replacement {
            Replacement::With => "wr",
            Replacement::Without => "wor",
        };
        write!(
            f,
            " --mode {mode} --algo {} --k {} --seed {}",
            self.algorithm.token(),
            self.k,
            self.seed
        )
    }
}

impl std::str::FromStr for SamplerSpec {
    type Err = SpecError;

    /// Parse the CLI flag surface: whitespace-separated `--flag value`
    /// pairs in any order. Required: `--window` (plus `--n` for `seq`,
    /// `--w` for `ts`). Defaults: `--mode wr --algo paper --k 1 --seed 42`.
    fn from_str(s: &str) -> Result<Self, SpecError> {
        let perr = |m: String| SpecError::Parse(m);
        let mut window: Option<&str> = None;
        let mut n: Option<u64> = None;
        let mut w: Option<u64> = None;
        let mut mode: Option<&str> = None;
        let mut algo: Option<&str> = None;
        let mut k: Option<usize> = None;
        let mut seed: Option<u64> = None;

        let mut it = s.split_whitespace();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| perr(format!("expected `--flag`, got `{flag}`")))?;
            let value = it
                .next()
                .ok_or_else(|| perr(format!("--{name}: missing value")))?;
            let dup = |prev: bool| -> Result<(), SpecError> {
                if prev {
                    Err(perr(format!("--{name}: given twice")))
                } else {
                    Ok(())
                }
            };
            match name {
                "window" => {
                    dup(window.is_some())?;
                    window = Some(value);
                }
                "mode" => {
                    dup(mode.is_some())?;
                    mode = Some(value);
                }
                "algo" => {
                    dup(algo.is_some())?;
                    algo = Some(value);
                }
                "n" => {
                    dup(n.is_some())?;
                    n = Some(parse_num(name, value)?);
                }
                "w" => {
                    dup(w.is_some())?;
                    w = Some(parse_num(name, value)?);
                }
                "k" => {
                    dup(k.is_some())?;
                    k = Some(parse_num::<usize>(name, value)?);
                }
                "seed" => {
                    dup(seed.is_some())?;
                    seed = Some(parse_num(name, value)?);
                }
                other => return Err(perr(format!("unknown spec flag --{other}"))),
            }
        }

        let window = match window.ok_or_else(|| perr("missing --window seq|ts|stream".into()))? {
            "seq" => WindowKind::Sequence(
                n.ok_or_else(|| perr("--window seq needs --n <arrivals>".into()))?,
            ),
            "ts" => WindowKind::Timestamp(
                w.ok_or_else(|| perr("--window ts needs --w <ticks>".into()))?,
            ),
            "stream" => WindowKind::WholeStream,
            other => {
                return Err(perr(format!(
                    "--window: expected seq|ts|stream, got `{other}`"
                )))
            }
        };
        if matches!(window, WindowKind::Timestamp(_) | WindowKind::WholeStream) && n.is_some() {
            return Err(perr("--n applies to --window seq only".into()));
        }
        if matches!(window, WindowKind::Sequence(_) | WindowKind::WholeStream) && w.is_some() {
            return Err(perr("--w applies to --window ts only".into()));
        }
        let replacement = match mode.unwrap_or("wr") {
            "wr" => Replacement::With,
            "wor" => Replacement::Without,
            other => return Err(perr(format!("--mode: expected wr|wor, got `{other}`"))),
        };
        let algorithm = match algo.unwrap_or("paper") {
            "paper" => Algorithm::Paper,
            "reservoir-l" => Algorithm::ReservoirL,
            "chain" => Algorithm::Chain,
            "priority" => Algorithm::Priority,
            "window-buffer" => Algorithm::WindowBuffer,
            other => {
                return Err(perr(format!(
                    "--algo: expected paper|reservoir-l|chain|priority|window-buffer, got `{other}`"
                )))
            }
        };
        Ok(SamplerSpec {
            window,
            replacement,
            algorithm,
            k: k.unwrap_or(1),
            seed: seed.unwrap_or(42),
        })
    }
}

fn parse_num<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, SpecError> {
    raw.parse()
        .map_err(|_| SpecError::Parse(format!("--{name}: cannot parse `{raw}` as a number")))
}

/// A concrete sampler paired with the spec that built it, so the erased
/// view can answer [`WindowSampler::spec`] introspection.
///
/// The spec is configuration, not stream-dependent state: like the RNG
/// state, it is excluded from the §1.4 word accounting, so `WithSpec`
/// reports exactly its inner sampler's footprint.
#[derive(Debug, Clone)]
pub struct WithSpec<S> {
    // Inner first: the spec is cold configuration read only by
    // introspection, while every insert dispatches into `inner` — keyed
    // fleets hold 10⁵ boxed `WithSpec`s, so the sampler's hot fields
    // belong at the front of the box rather than behind ~50 bytes of
    // spec. Declaration order is only a nudge under `repr(Rust)` (the
    // compiler may reorder), but it costs nothing to point the right way.
    inner: S,
    spec: SamplerSpec,
}

impl<S> WithSpec<S> {
    /// Pair `inner` with the spec describing it.
    pub fn new(spec: SamplerSpec, inner: S) -> Self {
        Self { spec, inner }
    }

    /// The wrapped sampler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: MemoryWords> MemoryWords for WithSpec<S> {
    fn memory_words(&self) -> usize {
        self.inner.memory_words()
    }
}

impl<T, S: WindowSampler<T>> WindowSampler<T> for WithSpec<S> {
    fn advance_time(&mut self, now: u64) {
        self.inner.advance_time(now);
    }

    fn insert(&mut self, value: T) {
        self.inner.insert(value);
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        self.inner.insert_batch(values);
    }

    fn advance_and_insert(&mut self, now: u64, values: &[T])
    where
        T: Clone,
    {
        self.inner.advance_and_insert(now, values);
    }

    fn sample(&mut self) -> Option<Sample<T>> {
        self.inner.sample()
    }

    fn sample_k(&mut self) -> Option<Vec<Sample<T>>> {
        self.inner.sample_k()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn spec(&self) -> Option<&SamplerSpec> {
        Some(&self.spec)
    }

    fn save_state(&self) -> Option<crate::state::SamplerState<T>> {
        self.inner.save_state()
    }

    fn restore_state(
        &mut self,
        state: crate::state::SamplerState<T>,
    ) -> Result<(), crate::state::StateError> {
        self.inner.restore_state(state)
    }
}

/// Whole-stream Algorithm L as a [`WindowSampler`] (the window is the
/// entire stream). The `swsample-baselines` crate exposes the same shape
/// as `StreamReservoir`; this private twin exists so `swsample-core` can
/// build [`Algorithm::ReservoirL`] specs without a dependency cycle.
#[derive(Debug, Clone)]
struct WholeStreamL<T, R> {
    inner: ReservoirL<T>,
    rng: R,
    next_index: u64,
}

impl<T, R: Rng> WholeStreamL<T, R> {
    fn new(k: usize, rng: R) -> Self {
        Self {
            inner: ReservoirL::new(k),
            rng,
            next_index: 0,
        }
    }
}

impl<T, R> MemoryWords for WholeStreamL<T, R> {
    fn memory_words(&self) -> usize {
        self.inner.memory_words() + 1
    }
}

impl<T: Clone, R: Rng + 'static> WindowSampler<T> for WholeStreamL<T, R> {
    fn insert(&mut self, value: T) {
        let idx = self.next_index;
        self.next_index += 1;
        self.inner.insert(&mut self.rng, value, idx, idx);
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        self.inner
            .insert_batch(&mut self.rng, values, self.next_index);
        self.next_index += values.len() as u64;
    }

    fn sample(&mut self) -> Option<Sample<T>> {
        let entries = self.inner.entries();
        if entries.is_empty() {
            return None;
        }
        let j = self.rng.gen_range(0..entries.len());
        Some(entries[j].clone())
    }

    fn sample_k(&mut self) -> Option<Vec<Sample<T>>> {
        if self.inner.entries().is_empty() {
            None
        } else {
            Some(self.inner.entries().to_vec())
        }
    }

    fn k(&self) -> usize {
        self.inner.capacity()
    }

    fn save_state(&self) -> Option<crate::state::SamplerState<T>> {
        let (next_accept, w_bits) = self.inner.skip_state();
        Some(crate::state::SamplerState::StreamL {
            next_index: self.next_index,
            rng: crate::state::capture_rng(&self.rng)?,
            res: crate::state::ReservoirLState {
                entries: self.inner.entries().to_vec(),
                seen: self.inner.seen(),
                next_accept,
                w_bits,
            },
        })
    }

    fn restore_state(
        &mut self,
        state: crate::state::SamplerState<T>,
    ) -> Result<(), crate::state::StateError> {
        use crate::state::{SamplerState, StateError};
        let (next_index, rng, res) = match state {
            SamplerState::StreamL {
                next_index,
                rng,
                res,
            } => (next_index, rng, res),
            other => {
                return Err(StateError::Mismatch {
                    expected: "stream-l",
                    found: other.family(),
                })
            }
        };
        if res.entries.len() > self.inner.capacity() {
            return Err(StateError::Corrupt(format!(
                "stream-l reservoir has {} entries for k = {}",
                res.entries.len(),
                self.inner.capacity()
            )));
        }
        if !crate::state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        self.inner = ReservoirL::from_parts(
            self.inner.capacity(),
            res.entries,
            res.seen,
            res.next_accept,
            res.w_bits,
        );
        self.next_index = next_index;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> SamplerSpec {
        s.parse().expect("spec parses")
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "--window seq --n 1000 --mode wr --algo paper --k 4 --seed 1",
            "--window seq --n 8 --mode wor --algo paper --k 2 --seed 99",
            "--window ts --w 60 --mode wor --algo paper --k 16 --seed 3",
            "--window ts --w 7 --mode wr --algo priority --k 1 --seed 0",
            "--window stream --mode wor --algo reservoir-l --k 5 --seed 12",
            "--window seq --n 64 --mode wr --algo chain --k 3 --seed 4",
            "--window seq --n 64 --mode wor --algo window-buffer --k 3 --seed 4",
        ] {
            assert_eq!(spec(s).to_string(), s, "canonical form differs");
        }
    }

    #[test]
    fn parse_accepts_any_flag_order_and_defaults() {
        let a = spec("--seed 7 --k 2 --n 10 --window seq --algo paper --mode wor");
        assert_eq!(a, SamplerSpec::seq(10, Replacement::Without, 2, 7));
        // Defaults: wr, paper, k = 1, seed = 42.
        let d = spec("--window seq --n 5");
        assert_eq!(d, SamplerSpec::seq(5, Replacement::With, 1, 42));
    }

    #[test]
    fn parse_errors_are_specific() {
        for bad in [
            "",
            "--window",
            "--window seq",                    // missing --n
            "--window ts",                     // missing --w
            "--window seq --n ten",            // bad number
            "--window seq --n 5 --n 6",        // duplicate
            "--window stream --n 5",           // --n on stream
            "--window seq --n 5 --w 6",        // --w on seq
            "--window seq --n 5 --mode maybe", // bad mode
            "--window seq --n 5 --algo magic", // bad algo
            "--window seq --n 5 --bogus 1",    // unknown flag
            "window seq",                      // not a flag
        ] {
            assert!(
                bad.parse::<SamplerSpec>().is_err(),
                "`{bad}` should not parse"
            );
        }
    }

    #[test]
    fn validate_enforces_algorithm_windows() {
        assert!(spec("--window seq --n 9 --mode wor").validate().is_ok());
        for bad in [
            "--window ts --w 9 --algo chain",
            "--window seq --n 9 --mode wor --algo chain",
            "--window seq --n 9 --algo priority",
            "--window stream --algo paper",
            "--window stream --mode wr --algo reservoir-l",
            "--window seq --n 9 --mode wr --algo window-buffer",
            "--window seq --n 9 --k 0",
        ] {
            assert!(spec(bad).validate().is_err(), "`{bad}` should not validate");
        }
    }

    #[test]
    fn build_covers_core_algorithms() {
        for s in [
            "--window seq --n 100 --mode wr --k 3 --seed 5",
            "--window seq --n 100 --mode wor --k 3 --seed 5",
            "--window ts --w 10 --mode wr --k 3 --seed 5",
            "--window ts --w 10 --mode wor --k 3 --seed 5",
            "--window stream --mode wor --algo reservoir-l --k 3 --seed 5",
        ] {
            let sp = spec(s);
            let mut sampler = sp.build::<u64>().expect("core spec builds");
            assert_eq!(sampler.k(), 3);
            assert_eq!(sampler.spec(), Some(&sp), "spec introspection");
            sampler.advance_and_insert(1, &[1, 2, 3, 4]);
            assert!(sampler.sample_k().is_some());
            assert!(sampler.memory_words() > 0);
        }
    }

    #[test]
    fn baseline_algorithms_point_at_the_full_factory() {
        for s in [
            "--window seq --n 100 --algo chain",
            "--window ts --w 10 --algo priority",
            "--window seq --n 100 --mode wor --algo window-buffer",
        ] {
            match spec(s).build::<u64>() {
                Err(SpecError::Unsupported(m)) => {
                    assert!(m.contains("swsample_baselines"), "hint names the factory")
                }
                Err(e) => panic!("`{s}`: expected Unsupported, got {e:?}"),
                Ok(_) => panic!("`{s}`: expected Unsupported, got a sampler"),
            }
        }
    }

    #[test]
    fn built_sampler_matches_concrete_construction() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        // Equal seed, equal stream => identical samples: build() is just
        // construction, not a different algorithm.
        let sp = SamplerSpec::seq(50, Replacement::Without, 4, 77);
        let mut erased = sp.build::<u64>().expect("builds");
        let mut concrete = crate::seq::SeqSamplerWor::new(50, 4, SmallRng::seed_from_u64(77));
        let values: Vec<u64> = (0..500).collect();
        for chunk in values.chunks(64) {
            erased.insert_batch(chunk);
            WindowSampler::insert_batch(&mut concrete, chunk);
        }
        assert_eq!(erased.sample_k(), WindowSampler::sample_k(&mut concrete));
        assert_eq!(erased.memory_words(), MemoryWords::memory_words(&concrete));
    }

    #[test]
    fn whole_stream_reservoir_spans_the_stream() {
        let sp = spec("--window stream --mode wor --algo reservoir-l --k 8 --seed 2");
        let mut s = sp.build::<u64>().expect("builds");
        let values: Vec<u64> = (0..10_000).collect();
        for chunk in values.chunks(512) {
            s.insert_batch(chunk);
        }
        let out = s.sample_k().expect("nonempty");
        assert_eq!(out.len(), 8);
        let mut idx: Vec<u64> = out.iter().map(|x| x.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 8, "distinct");
        assert!(s.memory_words() <= 8 * 3 + 6);
    }
}
