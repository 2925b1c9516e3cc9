//! Lightweight runtime instrumentation.
//!
//! A [`Trace`] is shared by all components of a running net and
//! counts the events the tests and benchmarks care about: records
//! handled per component kind, box invocations and their abstract work,
//! synchrocell fires, star unfoldings, and records left stranded in
//! unfired synchrocells at end-of-stream (almost always a coordination
//! bug — the paper's merger net, for instance, must end with none).

use snet_core::ChainTally;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared event counters; all methods are thread-safe and cheap.
#[derive(Debug, Default)]
pub struct Trace {
    /// Records fed through boxes (matched only).
    pub box_records: AtomicU64,
    /// Total abstract work reported by boxes.
    pub box_ops: AtomicU64,
    /// Records fed through filters (matched only).
    pub filter_records: AtomicU64,
    /// Records passed through any component untouched (type mismatch
    /// under the permissive policy).
    pub passthroughs: AtomicU64,
    /// Synchrocell stores.
    pub sync_stores: AtomicU64,
    /// Synchrocell fires (merges emitted).
    pub sync_fires: AtomicU64,
    /// Records stranded in unfired synchrocells at end-of-stream.
    pub sync_stranded: AtomicU64,
    /// Star replica instantiations.
    pub star_unfoldings: AtomicU64,
    /// Index-split replica instantiations.
    pub split_replicas: AtomicU64,
    /// Records routed by parallel dispatchers.
    pub dispatched: AtomicU64,
    /// Records diverted to the dead-letter stream.
    pub dead_letters: AtomicU64,
    /// Extra box invocations performed by the retry policy (attempts
    /// beyond the first, successful or not).
    pub retries: AtomicU64,
    /// Component instances created: the start-up graph plus every star
    /// and split replica unfolded while the run was live.
    pub components_built: AtomicU64,
    /// Component instances that observed end-of-stream and closed their
    /// outputs. Equal to `components_built` once a run has terminated,
    /// however it ended — every instance is retired exactly once.
    pub components_finalized: AtomicU64,
    /// Task activations the scheduled engine ran for the run: what the
    /// grain costs in scheduling, so it depends on the schedule (the
    /// worker count, which task ran first) and the simulated cluster,
    /// which has no tasks, leaves it at zero.
    pub activations: AtomicU64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds one chain step's tally into the run counters — the only way
    /// a box or filter record is counted.
    pub(crate) fn count_chain(&self, t: &ChainTally) {
        self.box_records.fetch_add(t.box_records, Ordering::Relaxed);
        self.box_ops.fetch_add(t.box_ops, Ordering::Relaxed);
        self.filter_records
            .fetch_add(t.filter_records, Ordering::Relaxed);
        self.passthroughs
            .fetch_add(t.passthroughs, Ordering::Relaxed);
        self.retries.fetch_add(t.retries, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(&self, counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "boxes: {} records / {} ops; filters: {}; dispatched: {}; \
             sync: {} stores, {} fires, {} stranded; unfoldings: {} star, {} split; \
             passthroughs: {}; dead letters: {}; retries: {}; activations: {}",
            self.box_records.load(Ordering::Relaxed),
            self.box_ops.load(Ordering::Relaxed),
            self.filter_records.load(Ordering::Relaxed),
            self.dispatched.load(Ordering::Relaxed),
            self.sync_stores.load(Ordering::Relaxed),
            self.sync_fires.load(Ordering::Relaxed),
            self.sync_stranded.load(Ordering::Relaxed),
            self.star_unfoldings.load(Ordering::Relaxed),
            self.split_replicas.load(Ordering::Relaxed),
            self.passthroughs.load(Ordering::Relaxed),
            self.dead_letters.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
            self.activations.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Trace::new();
        t.count_chain(&ChainTally {
            box_records: 2,
            box_ops: 15,
            ..ChainTally::default()
        });
        Trace::add(&t.sync_fires, 1);
        assert_eq!(t.get(&t.box_records), 2);
        assert_eq!(t.get(&t.box_ops), 15);
        assert!(t.summary().contains("2 records"));
        assert!(t.summary().contains("1 fires"));
    }
}
