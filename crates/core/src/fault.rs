//! Deterministic fault injection shared by the durable and serving
//! layers: one environment variable, one grammar, one injector.
//!
//! A [`FaultSchedule`] is a set of rules, one per [`FaultSite`], parsed
//! from the `SWSAMPLE_FAULTS` environment variable (or a `--faults`
//! flag). Each rule fires on a deterministic subset of the operations
//! that pass through its site, chosen by its [`Trigger`]:
//!
//! - `<site>=1/N` — seeded: fire on roughly one in `N` operations.
//!   Whether the `n`th operation faults is a pure function of
//!   `(seed, site, n)` — a splitmix64-style mix reduced modulo `N` — so
//!   the same seed replays the *exact same* connection drops, stalls,
//!   byte flips and transient disk errors on every run, which turns an
//!   exactly-once violation under chaos into a reproducible test
//!   failure rather than a flake.
//! - `<site>=@N` — counted: fire once, on the `N`th operation (1-based).
//! - `<site>=@N..` — counted: fire on every operation from the `N`th on.
//!
//! Any trigger may be followed by `:P`, for the sites that take a
//! parameter: a stall duration `:Pms` on `stall-rx`/`stall-tx`
//! (default 10ms), the torn-tail length on `kill`, the byte offset on
//! `corrupt-snapshot`. `seed=S` sets the schedule seed (default 0).
//!
//! ```text
//! SWSAMPLE_FAULTS=seed=7,drop-rx=1/61,stall-rx=1/37:5ms,flip-tx=1/71,wal-append=1/23
//! SWSAMPLE_FAULTS=kill=@40:11
//! SWSAMPLE_FAULTS=disk-full=@3..,corrupt-snapshot=@2:120
//! ```
//!
//! Network sites, consulted by the server's reader/writer threads:
//! `drop-rx` / `drop-tx` (sever the connection while receiving /
//! sending, the tx side mid-frame), `stall-rx` / `stall-tx` (sleep past
//! the peer's deadline), `flip-tx` (flip one byte of an outgoing frame
//! so the peer's CRC catches it).
//!
//! Durable sites ([`FaultSite::is_durable`]), consulted by the durable
//! engine: `wal-append` / `wal-fsync` (transient disk errors it retries
//! boundedly) and the hard faults — `kill` (exit 42 after a WAL append,
//! before apply; `:P` first tears `P` bytes onto the log tail, without
//! it the log is synced), `shutdown` (graceful close after an applied
//! batch, then exit 43), `disk-full` (the append fails with a synthetic
//! out-of-space error) and `corrupt-snapshot` (XOR byte `P` of a freshly
//! written snapshot with `0xFF`).
//!
//! Layers consult the schedule through a [`FaultInjector`], which owns
//! the per-site operation counters (atomics, so concurrent reader and
//! writer threads share one injector) and counts every injected fault
//! for the server's STATS surface. An empty schedule short-circuits:
//! the per-operation cost in production is one branch.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Name of the environment variable [`FaultSchedule::from_env`] reads.
pub const FAULTS_ENV: &str = "SWSAMPLE_FAULTS";

/// SplitMix64 finalizer over a seed, a per-site salt, and an operation
/// index. Public because the client's retry jitter derives from the
/// same mix, keeping *all* chaos-path randomness seed-deterministic.
pub fn mix64(seed: u64, salt: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt)
        .wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A place in the stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Sever the connection after receiving a complete frame.
    DropRx,
    /// Sever the connection mid-way through sending a frame.
    DropTx,
    /// Stall before processing a received frame.
    StallRx,
    /// Stall before sending a frame.
    StallTx,
    /// Flip one byte of an outgoing frame (the peer's CRC rejects it).
    FlipTx,
    /// Fail a WAL append with a transient (retryable) I/O error.
    WalAppend,
    /// Fail a WAL fsync with a transient (retryable) I/O error.
    WalFsync,
    /// Exit the process after a WAL append, before the batch is applied.
    Kill,
    /// Close the durable engine after an applied batch, then exit.
    Shutdown,
    /// Fail a WAL append with a synthetic out-of-space error.
    DiskFull,
    /// Corrupt one byte of a freshly written snapshot.
    CorruptSnapshot,
}

impl FaultSite {
    /// Every site, in canonical (grammar/display) order.
    pub const ALL: [FaultSite; 11] = [
        FaultSite::DropRx,
        FaultSite::DropTx,
        FaultSite::StallRx,
        FaultSite::StallTx,
        FaultSite::FlipTx,
        FaultSite::WalAppend,
        FaultSite::WalFsync,
        FaultSite::Kill,
        FaultSite::Shutdown,
        FaultSite::DiskFull,
        FaultSite::CorruptSnapshot,
    ];

    /// The site's token in the schedule grammar.
    pub fn token(self) -> &'static str {
        match self {
            FaultSite::DropRx => "drop-rx",
            FaultSite::DropTx => "drop-tx",
            FaultSite::StallRx => "stall-rx",
            FaultSite::StallTx => "stall-tx",
            FaultSite::FlipTx => "flip-tx",
            FaultSite::WalAppend => "wal-append",
            FaultSite::WalFsync => "wal-fsync",
            FaultSite::Kill => "kill",
            FaultSite::Shutdown => "shutdown",
            FaultSite::DiskFull => "disk-full",
            FaultSite::CorruptSnapshot => "corrupt-snapshot",
        }
    }

    /// Inverse of [`token`](Self::token).
    pub fn from_token(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.token() == token)
    }

    /// The unit suffix of the site's `:P` parameter (`"ms"` for stall
    /// durations, `""` for plain byte counts), or `None` if the site
    /// takes no parameter.
    pub fn param_unit(self) -> Option<&'static str> {
        match self {
            FaultSite::StallRx | FaultSite::StallTx => Some("ms"),
            FaultSite::Kill | FaultSite::CorruptSnapshot => Some(""),
            _ => None,
        }
    }

    /// True for the sites only the durable engine consults — `wal-append`
    /// and every site after it in [`ALL`](Self::ALL); a schedule naming
    /// one is meaningless without a WAL directory.
    pub fn is_durable(self) -> bool {
        self >= FaultSite::WalAppend
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|s| *s == self).expect("in ALL")
    }

    /// Per-site salt so two sites with the same seed and rate fire on
    /// different operation indices.
    fn salt(self) -> u64 {
        mix64(0x5157_5341_4d50_4c45, 0, self.index() as u64)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Which operations at a site a [`FaultRule`] fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// `1/N`: the operations whose seeded mix is divisible by `N`
    /// (roughly one in `N`, not every `N`th).
    Rate(u64),
    /// `@N`: only the `N`th operation (1-based).
    At(u64),
    /// `@N..`: the `N`th operation (1-based) and every one after it.
    From(u64),
}

impl Trigger {
    fn parse(s: &str) -> Option<Self> {
        let count = |n: &str| n.trim().parse::<u64>().ok().filter(|&n| n >= 1);
        if let Some(denom) = s.strip_prefix("1/") {
            return count(denom).map(Trigger::Rate);
        }
        let at = s.strip_prefix('@')?;
        match at.strip_suffix("..") {
            Some(n) => count(n).map(Trigger::From),
            None => count(at).map(Trigger::At),
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trigger::Rate(denom) => write!(f, "1/{denom}"),
            Trigger::At(n) => write!(f, "@{n}"),
            Trigger::From(n) => write!(f, "@{n}.."),
        }
    }
}

/// One rule of a [`FaultSchedule`]: fire at `site` on the operations
/// `trigger` selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Where the rule applies.
    pub site: FaultSite,
    /// Which operations fault.
    pub trigger: Trigger,
    /// The `:P` parameter, for sites with a [`FaultSite::param_unit`].
    pub param: Option<u64>,
}

/// A fired fault: which site, which operation, and the rule's `:P`
/// parameter, plus an auxiliary seeded word for choosing byte offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultHit {
    /// The site that fired.
    pub site: FaultSite,
    /// 0-based index of the operation that faulted at this site.
    pub op: u64,
    /// The rule's `:P` parameter (stall milliseconds, torn-tail bytes,
    /// snapshot byte offset), if it has one.
    pub param: Option<u64>,
    /// Deterministic auxiliary randomness, e.g. to pick which byte of a
    /// frame to flip or where to cut a dropped frame.
    pub aux: u64,
}

/// A schedule of fault rules. The default schedule is empty and
/// injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed mixed into every seeded-rate fire/no-fire decision.
    pub seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultSchedule {
    /// True if no rule is configured (the production fast path).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule for `site`, if any.
    pub fn rule(&self, site: FaultSite) -> Option<&FaultRule> {
        self.rules.iter().find(|r| r.site == site)
    }

    /// The first rule's site that only the durable engine consults, if
    /// any (see [`FaultSite::is_durable`]).
    pub fn durable_site(&self) -> Option<FaultSite> {
        self.rules.iter().map(|r| r.site).find(|s| s.is_durable())
    }

    /// Pure fire/no-fire decision for the `n`th (0-based) operation at
    /// `site`. Same `(seed, site, n)` — same answer, every run.
    pub fn fires(&self, site: FaultSite, n: u64) -> Option<FaultHit> {
        let rule = self.rule(site)?;
        let fires = match rule.trigger {
            Trigger::Rate(denom) => mix64(self.seed, site.salt(), n).is_multiple_of(denom.max(1)),
            Trigger::At(at) => n + 1 == at,
            Trigger::From(from) => n + 1 >= from,
        };
        fires.then(|| FaultHit {
            site,
            op: n,
            param: rule.param,
            aux: mix64(self.seed, site.salt() ^ 0xA0A0_A0A0_A0A0_A0A0, n),
        })
    }

    /// The smallest operation index at which `site` fires, scanning the
    /// first `limit` indices. Lets tests assert "this schedule *will*
    /// inject at least one drop within N operations" deterministically.
    pub fn first_hit(&self, site: FaultSite, limit: u64) -> Option<u64> {
        self.rule(site)?;
        (0..limit).find(|&n| self.fires(site, n).is_some())
    }

    /// Parse a schedule from the [`FAULTS_ENV`] environment variable.
    /// Unset or empty means no faults; a malformed value is an error
    /// (silently ignoring a typo'd schedule would make a chaos harness
    /// pass vacuously).
    pub fn from_env() -> Result<Self, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(raw) => raw.parse(),
            Err(_) => Ok(FaultSchedule::default()),
        }
    }
}

impl fmt::Display for FaultSchedule {
    /// Canonical form: `seed=S` first (omitted only when the whole
    /// schedule is empty and the seed is 0), then rules in
    /// [`FaultSite::ALL`] order. `parse(display(s)) == s` always.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rules.is_empty() && self.seed == 0 {
            return Ok(());
        }
        write!(f, "seed={}", self.seed)?;
        for rule in &self.rules {
            write!(f, ",{}={}", rule.site, rule.trigger)?;
            if let (Some(param), Some(unit)) = (rule.param, rule.site.param_unit()) {
                write!(f, ":{param}{unit}")?;
            }
        }
        Ok(())
    }
}

impl FromStr for FaultSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut schedule = FaultSchedule::default();
        let mut seed_seen = false;
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault `{part}`: expected name=value"))?;
            let (name, value) = (name.trim(), value.trim());
            if name == "seed" {
                if seed_seen {
                    return Err("fault `seed` given twice".to_string());
                }
                seed_seen = true;
                schedule.seed = value.parse().map_err(|_| {
                    format!("fault `seed`: expected an unsigned integer, got `{value}`")
                })?;
                continue;
            }
            let site = FaultSite::from_token(name)
                .ok_or_else(|| format!("unknown fault site `{name}`"))?;
            if schedule.rule(site).is_some() {
                return Err(format!("fault `{name}` given twice"));
            }
            let (trigger, param) = match value.split_once(':') {
                Some((trigger, param)) => (trigger.trim(), Some(param.trim())),
                None => (value, None),
            };
            let trigger = Trigger::parse(trigger).ok_or_else(|| {
                format!(
                    "fault `{name}`: expected a trigger `1/N`, `@N` or `@N..` (N >= 1), got `{trigger}`"
                )
            })?;
            let param = match (param, site.param_unit()) {
                (Some(param), Some(unit)) => Some(
                    param
                        .strip_suffix(unit)
                        .and_then(|p| p.trim().parse::<u64>().ok())
                        .ok_or_else(|| {
                            format!("fault `{name}`: expected `:<integer>{unit}`, got `:{param}`")
                        })?,
                ),
                (Some(param), None) => {
                    return Err(format!(
                        "fault `{name}`: `:{param}` — only stall-rx, stall-tx, kill and corrupt-snapshot take a parameter"
                    ))
                }
                // Stall sites default to 10ms when the duration is omitted.
                (None, Some("ms")) => Some(10),
                (None, _) => None,
            };
            schedule.rules.push(FaultRule {
                site,
                trigger,
                param,
            });
        }
        schedule.rules.sort_by_key(|r| r.site);
        Ok(schedule)
    }
}

/// Shared, thread-safe front end over a [`FaultSchedule`]: owns the
/// per-site operation counters and tallies fired faults.
#[derive(Debug, Default)]
pub struct FaultInjector {
    schedule: FaultSchedule,
    ops: [AtomicU64; FaultSite::ALL.len()],
    hits: [AtomicU64; FaultSite::ALL.len()],
}

impl FaultInjector {
    /// Wrap a schedule.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultInjector {
            schedule,
            ..FaultInjector::default()
        }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// True if the schedule injects nothing; callers on hot paths can
    /// skip whole fault blocks behind this one branch.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Count one operation at `site`; `Some(hit)` if that operation is
    /// scheduled to fault. An empty schedule never counts or fires.
    pub fn check(&self, site: FaultSite) -> Option<FaultHit> {
        self.schedule.rule(site)?;
        let n = self.ops[site.index()].fetch_add(1, Ordering::Relaxed);
        let hit = self.schedule.fires(site, n)?;
        self.hits[site.index()].fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Faults fired so far at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.hits[site.index()].load(Ordering::Relaxed)
    }

    /// Faults fired so far across every site.
    pub fn injected_total(&self) -> u64 {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips_canonically() {
        let s: FaultSchedule = " stall-rx=1/37:5ms, seed=7,drop-rx=1/61 "
            .parse()
            .expect("parse");
        assert_eq!(s.seed, 7);
        assert_eq!(
            s.rule(FaultSite::DropRx),
            Some(&FaultRule {
                site: FaultSite::DropRx,
                trigger: Trigger::Rate(61),
                param: None,
            })
        );
        assert_eq!(s.rule(FaultSite::StallRx).unwrap().param, Some(5));
        // Canonical display: seed first, sites in ALL order.
        let shown = s.to_string();
        assert_eq!(shown, "seed=7,drop-rx=1/61,stall-rx=1/37:5ms");
        assert_eq!(shown.parse::<FaultSchedule>().unwrap(), s);
    }

    #[test]
    fn counted_triggers_round_trip_and_mark_durable_sites() {
        let s: FaultSchedule = "corrupt-snapshot=@2:120, disk-full=@3.., kill=@40:11, shutdown=@7"
            .parse()
            .expect("parse");
        let shown = s.to_string();
        let canonical = "seed=0,kill=@40:11,shutdown=@7,disk-full=@3..,corrupt-snapshot=@2:120";
        assert_eq!(shown, canonical);
        assert_eq!(shown.parse::<FaultSchedule>().unwrap(), s);
        assert_eq!(s.durable_site(), Some(FaultSite::Kill));
        let network: FaultSchedule = "drop-rx=@1,stall-tx=1/3".parse().unwrap();
        assert_eq!(network.durable_site(), None);
    }

    #[test]
    fn empty_and_default_stall() {
        assert!("".parse::<FaultSchedule>().unwrap().is_empty());
        assert_eq!(FaultSchedule::default().to_string(), "");
        let s: FaultSchedule = "stall-tx=1/3".parse().unwrap();
        assert_eq!(s.rule(FaultSite::StallTx).unwrap().param, Some(10));
    }

    #[test]
    fn rejects_malformed_naming_the_token() {
        for (input, must_mention) in [
            ("drop-rx", "drop-rx"),
            ("drop-rx=61", "drop-rx"),
            ("drop-rx=1/0", "drop-rx"),
            ("drop-rx=1/x", "drop-rx"),
            ("flip-tx=1/3:5ms", "flip-tx"),
            ("stall-rx=1/3:5s", "stall-rx"),
            ("seed=banana", "seed"),
            ("seed=1,seed=2", "seed"),
            ("drop-rx=1/2,drop-rx=1/3", "drop-rx"),
            ("drop-sideways=1/2", "drop-sideways"),
            ("kill=@1,kill=@2", "kill"),
            ("kill=@lots", "kill"),
            ("kill=@40:lots", "kill"),
            ("shutdown=@0", "shutdown"),
            ("disk-full=@0..", "disk-full"),
            ("disk-full=@3..:7", "disk-full"),
            ("shutdown=@3:7", "shutdown"),
        ] {
            let err = input.parse::<FaultSchedule>().expect_err(input);
            assert!(err.contains(must_mention), "{input}: {err}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let s: FaultSchedule = "seed=42,drop-rx=1/16".parse().unwrap();
        let fires: Vec<u64> = (0..10_000)
            .filter(|&n| s.fires(FaultSite::DropRx, n).is_some())
            .collect();
        // Same seed, same schedule: same decisions.
        let again: Vec<u64> = (0..10_000)
            .filter(|&n| s.fires(FaultSite::DropRx, n).is_some())
            .collect();
        assert_eq!(fires, again);
        // ~1/16 of 10k ops, generously bounded.
        assert!(
            (300..1000).contains(&fires.len()),
            "expected roughly 625 hits, got {}",
            fires.len()
        );
        assert_eq!(
            s.first_hit(FaultSite::DropRx, 10_000),
            fires.first().copied()
        );
        // A different seed makes different decisions.
        let other: FaultSchedule = "seed=43,drop-rx=1/16".parse().unwrap();
        let other_fires: Vec<u64> = (0..10_000)
            .filter(|&n| other.fires(FaultSite::DropRx, n).is_some())
            .collect();
        assert_ne!(fires, other_fires);
        // Sites are decorrelated: same seed, different site, different ops.
        let two: FaultSchedule = "seed=42,drop-rx=1/16,drop-tx=1/16".parse().unwrap();
        let tx: Vec<u64> = (0..10_000)
            .filter(|&n| two.fires(FaultSite::DropTx, n).is_some())
            .collect();
        assert_ne!(fires, tx);
    }

    #[test]
    fn counted_triggers_fire_on_exact_operations() {
        // The injector numbers each site's operations on its own.
        let injector = &FaultInjector::new("seed=9,kill=@3,disk-full=@3..".parse().unwrap());
        let fired = |site| (0..6u64).filter(move |_| injector.check(site).is_some());
        let kills: Vec<u64> = fired(FaultSite::Kill).collect();
        assert_eq!(kills, vec![2], "@3 fires once, on the third operation");
        let full: Vec<u64> = fired(FaultSite::DiskFull).collect();
        assert_eq!(full, vec![2, 3, 4, 5], "@3.. fires from the third on");
    }

    #[test]
    fn injector_counts_ops_and_hits() {
        let injector = FaultInjector::new("seed=1,wal-append=1/4".parse().expect("schedule"));
        let mut fired = 0u64;
        for _ in 0..1000 {
            if injector.check(FaultSite::WalAppend).is_some() {
                fired += 1;
            }
        }
        assert!(fired > 0);
        assert_eq!(injector.injected(FaultSite::WalAppend), fired);
        assert_eq!(injector.injected_total(), fired);
        // Unscheduled sites never fire and never count.
        assert!(injector.check(FaultSite::FlipTx).is_none());
        assert_eq!(injector.injected(FaultSite::FlipTx), 0);
    }

    #[test]
    fn empty_injector_is_inert() {
        let injector = FaultInjector::default();
        assert!(injector.is_empty());
        for site in FaultSite::ALL {
            assert!(injector.check(site).is_none());
        }
        assert_eq!(injector.injected_total(), 0);
    }
}
