//! [`Fleet`]: the keyed fleet `serve` and `multi` hold — a plain
//! [`MultiStreamEngine`], or a [`DurableEngine`] behind a mutex —
//! opened, fed and closed through one type.

use std::hash::Hash;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use swsample_core::state::StateCodec;
use swsample_core::{FleetBackend, SamplerSpec};
use swsample_stream::MultiStreamEngine;

use crate::engine::{DurableEngine, DurableOptions, Event, ResumeOverrides};
use crate::DurableError;

/// Where [`Fleet::open`] keeps the fleet's state.
#[derive(Debug)]
pub enum Storage {
    /// In memory only: nothing outlives the process.
    Memory,
    /// A write-ahead-logged directory: created fresh
    /// ([`DurableEngine::create`]) without overrides, recovered
    /// ([`DurableEngine::open_with`]) with them.
    Wal(PathBuf, DurableOptions, Option<ResumeOverrides>),
}

enum Repr<K: Clone, T: Clone> {
    Plain(MultiStreamEngine<K, T>),
    // Boxed: the durable engine carries WAL buffers that would bloat
    // the enum.
    Durable(Box<Mutex<DurableEngine<K, T>>>),
}

/// A keyed sampling fleet, in memory or write-ahead logged. Every method
/// but the rescale pair takes `&self`, so a server can share one fleet
/// between its ingest loop and its query threads.
pub struct Fleet<K: Clone, T: Clone>(Repr<K, T>);

impl<K, T> Fleet<K, T>
where
    K: StateCodec + Hash + Eq + Clone + Send + Sync + 'static,
    T: StateCodec + Clone + Send + Sync + 'static,
{
    /// Build the fleet for `template` at `shards`/`threads` (with
    /// [`swsample_baselines::spec::build`] as the sampler factory).
    /// A resume whose directory recorded another template fails with
    /// [`DurableError::Config`] naming both; shard and thread overrides
    /// apply as given.
    pub fn open(
        template: SamplerSpec,
        shards: usize,
        threads: usize,
        storage: Storage,
    ) -> Result<Self, DurableError> {
        let durable = match storage {
            Storage::Memory => {
                return MultiStreamEngine::with_threads(
                    template,
                    shards,
                    swsample_baselines::spec::build::<T>,
                    threads,
                )
                .map(|engine| Fleet(Repr::Plain(engine)))
                .map_err(|e| DurableError::Config(e.to_string()));
            }
            Storage::Wal(dir, opts, None) => {
                DurableEngine::create(dir, template, shards, threads, FleetBackend::Auto, opts)?
            }
            Storage::Wal(dir, opts, Some(overrides)) => {
                let durable = DurableEngine::open_with(dir, opts, overrides)?;
                let recorded = durable.engine().template();
                if *recorded != template {
                    return Err(DurableError::Config(format!(
                        "{} was recorded with template `{recorded}`, not `{template}`",
                        durable.dir().display()
                    )));
                }
                durable
            }
        };
        Ok(Fleet(Repr::Durable(Box::new(Mutex::new(durable)))))
    }

    fn durable(engine: &Mutex<DurableEngine<K, T>>) -> MutexGuard<'_, DurableEngine<K, T>> {
        engine.lock().expect("durable fleet lock poisoned")
    }

    /// Apply one batch. In memory a sampler panic comes back as
    /// [`DurableError::Apply`] (see
    /// [`MultiStreamEngine::try_ingest_parallel`]); durable, the batch
    /// is appended to the WAL, then applied ([`DurableEngine::ingest`]).
    pub fn ingest(&self, batch: &[Event<K, T>]) -> Result<(), DurableError> {
        match &self.0 {
            Repr::Plain(engine) => engine
                .try_ingest_parallel(batch)
                .map_err(DurableError::Apply),
            Repr::Durable(engine) => Self::durable(engine).ingest(batch).map(|_| ()),
        }
    }

    /// Run `read` against the in-memory fleet (under the durable
    /// engine's lock when there is one).
    pub fn read<R>(&self, read: impl FnOnce(&MultiStreamEngine<K, T>) -> R) -> R {
        match &self.0 {
            Repr::Plain(engine) => read(engine),
            Repr::Durable(engine) => read(Self::durable(engine).engine()),
        }
    }

    /// Batches in the WAL — after a resume, the batches it recovered
    /// (0 in memory).
    pub fn logged_batches(&self) -> u64 {
        match &self.0 {
            Repr::Plain(_) => 0,
            Repr::Durable(engine) => Self::durable(engine).next_seq(),
        }
    }

    /// Transient WAL faults absorbed by the durable engine's bounded
    /// retry (0 in memory).
    pub fn wal_retries(&self) -> u64 {
        match &self.0 {
            Repr::Plain(_) => 0,
            Repr::Durable(engine) => Self::durable(engine).transient_retries(),
        }
    }

    /// Wait for the last batch to apply and fsync the WAL, without a
    /// snapshot ([`DurableEngine::sync`]).
    pub fn sync(&self) -> Result<(), DurableError> {
        match &self.0 {
            Repr::Plain(engine) => engine.flush().map_err(DurableError::Apply),
            Repr::Durable(engine) => Self::durable(engine).sync(),
        }
    }

    /// Graceful end of stream: [`MultiStreamEngine::flush`] in memory,
    /// so the last batch's deferred panic is not lost; fsync and a final
    /// snapshot when durable ([`DurableEngine::close`]).
    pub fn close(&self) -> Result<(), DurableError> {
        match &self.0 {
            Repr::Plain(engine) => engine.flush().map_err(DurableError::Apply),
            Repr::Durable(engine) => Self::durable(engine).close().map(|_| ()),
        }
    }

    /// Live rescale onto a new shard count; samples are unaffected.
    pub fn set_shards(&mut self, shards: usize) -> Result<(), DurableError> {
        match &mut self.0 {
            Repr::Plain(engine) => Ok(engine.set_shards(shards)?),
            Repr::Durable(engine) => Self::durable(engine).set_shards(shards),
        }
    }

    /// Resize the ingest worker pool; samples are unaffected.
    pub fn set_threads(&mut self, threads: usize) {
        match &mut self.0 {
            Repr::Plain(engine) => engine.set_threads(threads),
            Repr::Durable(engine) => Self::durable(engine).set_threads(threads),
        }
    }
}
