//! Queries are pure: a `sample` or `sample_k` call changes no later
//! answer and no checkpoint record.
//!
//! Two twins of every family `swsample_baselines::spec::build` makes, over
//! sequence, timestamp and whole-stream windows, take the same random
//! schedule of clock moves and arrivals; one of them also answers queries
//! at random points. After every step both twins' checkpoint records must
//! be byte-identical, at random comparison points and at the end both
//! answer alike, and a query repeated with no arrival and no clock move
//! returns the same answer. The fleet check runs the same schedules
//! through two `MultiStreamEngine`s, one of them queried with
//! `sample_k_many` and `sample`.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use swsample::baselines::spec::build;
use swsample::core::{ErasedWindowSampler, SamplerSpec};
use swsample::stream::MultiStreamEngine;

/// Every family the full factory builds, at windows small enough that a
/// schedule of a few hundred arrivals crosses many buckets and expiries.
const FAMILIES: [&str; 10] = [
    "--window seq --n 7 --mode wr --algo paper",
    "--window seq --n 7 --mode wor --algo paper",
    "--window ts --w 6 --mode wr --algo paper",
    "--window ts --w 6 --mode wor --algo paper",
    "--window stream --mode wor --algo reservoir-l",
    "--window seq --n 7 --mode wr --algo chain",
    "--window ts --w 6 --mode wr --algo priority",
    "--window ts --w 6 --mode wor --algo priority",
    "--window seq --n 7 --mode wor --algo window-buffer",
    "--window ts --w 6 --mode wor --algo window-buffer",
];

/// One schedule step `(op, n)`: `op` 0 moves the clock by `n`, 1–3 insert
/// a batch of `n` arrivals, 4 inserts one, 5 and 6 query the asked twin
/// (`sample_k` twice, `sample`), 7 compares both twins' `sample_k`.
type Step = (u8, u64);

fn spec(family: &str, k: usize, seed: u64) -> SamplerSpec {
    format!("{family} --k {k} --seed {seed}")
        .parse()
        .expect("family template parses")
}

/// The checkpoint record as bytes; `None` for families that do not
/// checkpoint.
fn record(s: &dyn ErasedWindowSampler<u64>) -> Option<Vec<u8>> {
    s.save_state().map(|state| state.encode_record())
}

fn twins_agree(spec: &SamplerSpec, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut quiet = build::<u64>(spec).expect("spec builds");
    let mut asked = build::<u64>(spec).expect("spec builds");
    let (mut now, mut value) = (0u64, 0u64);
    for (i, &(op, n)) in steps.iter().enumerate() {
        match op {
            0 => {
                now += n;
                quiet.advance_time(now);
                asked.advance_time(now);
            }
            1..=3 => {
                let values: Vec<u64> = (value..value + n).collect();
                value += n;
                quiet.insert_batch(&values);
                asked.insert_batch(&values);
            }
            4 => {
                quiet.insert(value);
                asked.insert(value);
                value += 1;
            }
            5 => {
                let first = asked.sample_k();
                prop_assert_eq!(first, asked.sample_k(), "{spec}: step {i}: repeat");
            }
            6 => {
                asked.sample();
            }
            _ => prop_assert_eq!(quiet.sample_k(), asked.sample_k(), "{spec}: step {i}"),
        }
        prop_assert_eq!(record(&*quiet), record(&*asked), "{spec}: step {i}: record");
    }
    prop_assert_eq!(quiet.sample_k(), asked.sample_k(), "{spec}: final sample_k");
    prop_assert_eq!(quiet.sample(), asked.sample(), "{spec}: final sample");
    Ok(())
}

/// Every key's checkpoint record in key order; `None` for families that
/// do not checkpoint.
fn records(engine: &MultiStreamEngine<u64, u64>) -> Option<Vec<(u64, Vec<u8>)>> {
    let mut saved: Vec<(u64, Vec<u8>)> = engine
        .save_states()
        .ok()?
        .into_iter()
        .map(|(key, state)| (key, state.encode_record()))
        .collect();
    saved.sort_unstable();
    Some(saved)
}

fn fleets_agree(spec: &SamplerSpec, steps: &[Step]) -> Result<(), TestCaseError> {
    let fleet = || MultiStreamEngine::with_threads(spec.clone(), 4, build::<u64>, 1);
    let mut quiet = fleet().expect("engine builds");
    let mut asked = fleet().expect("engine builds");
    let keys: Vec<u64> = (0..6).collect();
    let (mut now, mut value) = (0u64, 0u64);
    for (i, &(op, n)) in steps.iter().enumerate() {
        match op {
            0 => now += n,
            1..=4 => {
                // Key of arrival `v`: a scrambled choice among the six.
                let batch: Vec<(u64, u64, u64)> = (value..=value + n)
                    .map(|v| ((v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % 6, now, v))
                    .collect();
                value += n + 1;
                quiet.ingest(&batch);
                asked.ingest(&batch);
            }
            5 => {
                let first = asked.sample_k_many(&keys);
                prop_assert_eq!(
                    first,
                    asked.sample_k_many(&keys),
                    "{spec}: step {i}: repeat"
                );
            }
            6 => {
                for key in &keys {
                    asked.sample(key);
                }
            }
            _ => prop_assert_eq!(
                quiet.sample_k_many(&keys),
                asked.sample_k_many(&keys),
                "{spec}: step {i}"
            ),
        }
        prop_assert_eq!(
            records(&quiet),
            records(&asked),
            "{spec}: step {i}: records"
        );
    }
    prop_assert_eq!(
        quiet.sample_k_many(&keys),
        asked.sample_k_many(&keys),
        "{spec}: final sample_k_many"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn queries_change_no_later_answer_or_record(
        k in 1usize..6,
        seed in any::<u64>(),
        steps in vec((0u8..8, 0u64..7), 1..160),
    ) {
        for family in FAMILIES {
            twins_agree(&spec(family, k, seed), &steps)?;
        }
    }

    #[test]
    fn fleet_queries_change_no_later_answer_or_record(
        k in 1usize..6,
        seed in any::<u64>(),
        steps in vec((0u8..8, 0u64..7), 1..120),
    ) {
        for family in FAMILIES {
            fleets_agree(&spec(family, k, seed), &steps)?;
        }
    }
}
