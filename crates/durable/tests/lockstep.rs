//! Lockstep equivalence: for every spec-expressible sampler family,
//! `save → restore → keep ingesting` produces exactly the samples an
//! uninterrupted run produces — the invariant that makes checkpointed
//! recovery bit-identical rather than merely statistically equivalent.
//!
//! The durable engine is the round-trip under test: states travel
//! through a real snapshot file on disk, not just through memory.

use std::path::PathBuf;

use swsample_core::{FleetBackend, Sample, SamplerSpec};
use swsample_durable::snapshot::SNAPSHOT_VERSION;
use swsample_durable::{DurableEngine, DurableOptions};
use swsample_stream::MultiStreamEngine;

/// One canonical template per family the spec grammar can express.
const FAMILIES: &[(&str, &str)] = &[
    (
        "seq-wr",
        "--window seq --n 48 --mode wr --algo paper --k 3 --seed 101",
    ),
    (
        "seq-wor",
        "--window seq --n 48 --mode wor --algo paper --k 3 --seed 102",
    ),
    (
        "ts-wr",
        "--window ts --w 24 --mode wr --algo paper --k 3 --seed 103",
    ),
    (
        "ts-wor",
        "--window ts --w 24 --mode wor --algo paper --k 3 --seed 104",
    ),
    (
        "reservoir-l",
        "--window stream --mode wor --algo reservoir-l --k 3 --seed 105",
    ),
    (
        "chain",
        "--window seq --n 48 --mode wr --algo chain --k 3 --seed 106",
    ),
    (
        "priority",
        "--window ts --w 24 --mode wr --algo priority --k 3 --seed 107",
    ),
    (
        "priority-topk",
        "--window ts --w 24 --mode wor --algo priority --k 3 --seed 108",
    ),
    (
        "buffer-seq",
        "--window seq --n 48 --mode wor --algo window-buffer --k 3 --seed 109",
    ),
    (
        "buffer-ts",
        "--window ts --w 24 --mode wor --algo window-buffer --k 3 --seed 110",
    ),
];

const KEYS: u64 = 29;
const BATCHES: usize = 40;
const BATCH_LEN: u64 = 11;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swsample-lockstep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic keyed workload with a non-decreasing clock: batch `b`
/// carries events `(e % KEYS, e / 4, e * 7)` for `e` in its index range.
fn batch(b: usize) -> Vec<(u64, u64, u64)> {
    (0..BATCH_LEN)
        .map(|i| {
            let e = b as u64 * BATCH_LEN + i;
            (e % KEYS, e / 4, e * 7)
        })
        .collect()
}

fn fleet_samples(engine: &MultiStreamEngine<u64, u64>) -> Vec<(u64, Option<Vec<Sample<u64>>>)> {
    let mut keys = engine.keys();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| {
            let s = engine.sample_k(&k);
            (k, s)
        })
        .collect()
}

#[test]
fn every_family_survives_save_restore_in_lockstep() {
    for (name, template) in FAMILIES {
        let spec: SamplerSpec = template.parse().unwrap_or_else(|e| {
            panic!("family {name}: template failed to parse: {e}");
        });

        // The uninterrupted reference run.
        let mut reference = MultiStreamEngine::<u64, u64>::with_factory(
            spec.clone(),
            4,
            swsample_baselines::spec::build::<u64>,
        )
        .unwrap_or_else(|e| panic!("family {name}: reference engine: {e}"));
        for b in 0..BATCHES {
            reference.ingest(&batch(b));
        }

        // The interrupted run: ingest half, checkpoint through a real
        // snapshot file, reopen, ingest the rest.
        let dir = tmp_dir(name);
        let durable = DurableEngine::<u64, u64>::create(
            &dir,
            spec,
            4,
            2,
            FleetBackend::Auto,
            DurableOptions::default(),
        )
        .unwrap_or_else(|e| panic!("family {name}: create: {e}"));
        for b in 0..BATCHES / 2 {
            durable.ingest(&batch(b)).unwrap();
        }
        let snap = durable.snapshot().unwrap();
        // The round trip under test is the current (varint) format.
        let header = std::fs::read(&snap).expect("read snapshot");
        assert_eq!(
            u32::from_le_bytes(header[8..12].try_into().unwrap()),
            SNAPSHOT_VERSION,
            "family {name}"
        );
        drop(durable);
        let durable = DurableEngine::<u64, u64>::open(&dir, DurableOptions::default())
            .unwrap_or_else(|e| panic!("family {name}: open: {e}"));
        assert_eq!(durable.next_seq(), (BATCHES / 2) as u64, "family {name}");
        for b in BATCHES / 2..BATCHES {
            durable.ingest(&batch(b)).unwrap();
        }

        assert_eq!(
            fleet_samples(durable.engine()),
            fleet_samples(&reference),
            "family {name}: resumed samples diverged from uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_at_every_boundary_is_equivalent_for_one_family() {
    // Finer-grained variant for one representative family: cutting the
    // stream at *any* batch boundary and round-tripping through disk
    // never changes the final samples.
    let spec: SamplerSpec = "--window ts --w 24 --mode wor --algo paper --k 3 --seed 77"
        .parse()
        .expect("spec");
    let mut reference = MultiStreamEngine::<u64, u64>::with_factory(
        spec.clone(),
        4,
        swsample_baselines::spec::build::<u64>,
    )
    .expect("reference");
    for b in 0..12 {
        reference.ingest(&batch(b));
    }
    let expected = fleet_samples(&reference);

    for cut in 0..=12usize {
        let dir = tmp_dir(&format!("cut{cut}"));
        let durable = DurableEngine::<u64, u64>::create(
            &dir,
            spec.clone(),
            4,
            1,
            FleetBackend::Auto,
            DurableOptions::default(),
        )
        .expect("create");
        for b in 0..cut {
            durable.ingest(&batch(b)).unwrap();
        }
        durable.snapshot().unwrap();
        drop(durable);
        let durable =
            DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).expect("open");
        for b in cut..12 {
            durable.ingest(&batch(b)).unwrap();
        }
        assert_eq!(
            fleet_samples(durable.engine()),
            expected,
            "cut at batch {cut} diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
