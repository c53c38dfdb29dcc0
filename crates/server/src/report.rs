//! The `multi` report — the hottest keys' current samples, then the
//! `# keys:` and `# memory:` lines — written once for the CLI's `multi`
//! fleet and for the load generator's `--render-multi`, so a served
//! run's output can be diffed byte for byte against an offline one.

use std::collections::HashMap;
use std::io::{self, Write};

use swsample_core::spec::{Algorithm, SamplerSpec, WindowKind};

use crate::protocol::WireSample;
use crate::stats::EngineStats;

/// How a memory line qualifies the reported figure.
pub fn memory_note(spec: &SamplerSpec) -> &'static str {
    match (spec.algorithm, spec.window) {
        (Algorithm::Paper, WindowKind::Timestamp(_)) => "deterministic O(k log n)",
        (Algorithm::Paper, _) | (Algorithm::ReservoirL, _) => "deterministic",
        (Algorithm::WindowBuffer, _) => "exact O(n) buffer",
        (Algorithm::Chain, _) | (Algorithm::Priority, _) => "randomized bound",
    }
}

/// `(key, arrivals)` per key, in the report's deterministic order:
/// arrivals descending, key ascending as the tiebreak.
pub fn hot_keys(traffic: HashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut hot: Vec<(u64, u64)> = traffic.into_iter().collect();
    hot.sort_unstable_by_key(|&(key, cnt)| (std::cmp::Reverse(cnt), key));
    hot
}

/// Write the report: one `key` line per `(key, arrivals, sample)` row,
/// then the fleet's key count out of the `domain` and its memory.
pub fn write_multi_report(
    out: &mut dyn Write,
    template: &SamplerSpec,
    domain: u64,
    rows: &[(u64, u64, Option<Vec<WireSample>>)],
    engine: &EngineStats,
) -> io::Result<()> {
    let timestamped = matches!(template.window, WindowKind::Timestamp(_));
    for (key, cnt, samples) in rows {
        let rendered = match samples {
            Some(samples) => samples
                .iter()
                .map(|(value, index, timestamp)| {
                    if timestamped {
                        format!("{value}@t{timestamp}")
                    } else {
                        format!("{value}@{index}")
                    }
                })
                .collect::<Vec<_>>()
                .join(" "),
            None => "(window empty)".into(),
        };
        writeln!(out, "key {key}\t{cnt} arrivals\t{rendered}")?;
    }
    writeln!(
        out,
        "# keys: {}/{domain} materialized across {} shards",
        engine.keys, engine.shards
    )?;
    writeln!(
        out,
        "# memory: fleet {} words, max per key {} words ({})",
        engine.memory_words,
        engine.max_key_words,
        memory_note(template)
    )
}
