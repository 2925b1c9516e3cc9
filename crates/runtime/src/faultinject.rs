//! Deterministic fault injection for robustness testing.
//!
//! The harness wraps an ordinary [`BoxDef`] in a *chaos box* that fails
//! on a reproducible, **content-keyed** schedule: whether a record
//! triggers a fault is a pure function of the harness seed and the
//! record's own fields and tags. That makes the schedule independent of
//! engine scheduling order — the interpreter, the scheduled engine and
//! the simulated cluster all see the *same* records fault, no matter
//! how their activations interleave — which is what makes cross-engine
//! parity assertions possible at all.
//!
//! Each selected record faults [`FaultSpec::fails_per_record`] times and
//! then succeeds, so a [`FailurePolicy::Retry`](snet_core::FailurePolicy)
//! with enough attempts provably converges to the fault-free output.
//! `u32::MAX` marks a permanent fault, which is what the dead-letter
//! partition tests want: the diverted set is exactly the selected set.
//!
//! Faults come in three flavours ([`FaultKind`]): a clean
//! `SnetError::BoxFailure`, a `panic!` with a formatted (`String`)
//! payload — exercising each engine's unwind-catch path — and a stall
//! that sleeps before succeeding, for deadline/cancellation tests.

use snet_core::boxdef::BoxDef;
use snet_core::{BoxOutput, Record, SnetError, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an injected fault looks like to the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Return `Err(SnetError::BoxFailure { .. })`.
    Error,
    /// `panic!` with a dynamically formatted `String` payload.
    Panic,
    /// Sleep for [`FaultSpec::stall`], then run the real box. The
    /// activation *succeeds* — slowly — so runs stay semantically
    /// fault-free while deadlines get something to trip over.
    Stall,
}

/// A deterministic fault schedule.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Seed mixed into every record key; two specs with different seeds
    /// select (almost surely) different record sets.
    pub seed: u64,
    /// Roughly one in `one_in` records is selected (content-keyed, so
    /// the *same* records in every engine). `1` selects every record.
    pub one_in: u64,
    /// How many times each selected record faults before its activations
    /// start succeeding. `u32::MAX` means the fault is permanent.
    pub fails_per_record: u32,
    /// The failure mode injected.
    pub kind: FaultKind,
    /// Sleep duration for [`FaultKind::Stall`]; ignored otherwise.
    pub stall: Duration,
}

impl FaultSpec {
    /// A schedule of clean `BoxFailure` errors.
    pub fn errors(seed: u64, one_in: u64, fails_per_record: u32) -> FaultSpec {
        FaultSpec {
            seed,
            one_in,
            fails_per_record,
            kind: FaultKind::Error,
            stall: Duration::ZERO,
        }
    }

    /// A schedule of panics with formatted payloads.
    pub fn panics(seed: u64, one_in: u64, fails_per_record: u32) -> FaultSpec {
        FaultSpec {
            kind: FaultKind::Panic,
            ..FaultSpec::errors(seed, one_in, fails_per_record)
        }
    }

    /// A schedule that stalls every selected activation by `stall`.
    pub fn stalls(seed: u64, one_in: u64, stall: Duration) -> FaultSpec {
        FaultSpec {
            kind: FaultKind::Stall,
            stall,
            fails_per_record: u32::MAX,
            ..FaultSpec::errors(seed, one_in, 0)
        }
    }

    /// Whether this schedule selects `rec` for fault injection. Pure:
    /// tests use it to predict the fault set ahead of a run.
    pub fn selects(&self, rec: &Record) -> bool {
        self.one_in > 0 && splitmix64(self.seed ^ record_key(rec)).is_multiple_of(self.one_in)
    }
}

/// SplitMix64 — tiny, seedable, and good enough to decorrelate record
/// keys from the seed. (Vigna's public-domain generator.)
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A content hash of a record: fields and tags, sorted by label *name*
/// (not interning order, which differs across processes). Opaque
/// payloads hash by type only — schedules keyed on them should carry a
/// distinguishing tag instead.
pub fn record_key(rec: &Record) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        splitmix64(h ^ v)
    }
    fn str_key(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in s.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let mut fields: Vec<_> = rec.fields().collect();
    fields.sort_by_key(|(l, _)| l.as_str());
    let mut tags: Vec<_> = rec.tags().collect();
    tags.sort_by_key(|(l, _)| l.as_str());

    let mut h = 0x5367_4e65_7446_491eu64;
    for (label, value) in fields {
        h = mix(h, str_key(label.as_str()));
        h = match value {
            Value::Unit => mix(h, 1),
            Value::Int(i) => mix(h, *i as u64),
            Value::Float(x) => mix(h, x.to_bits()),
            Value::Str(s) => mix(h, str_key(s)),
            Value::Bytes(b) => {
                let mut bh = 0u64;
                for chunk in b.chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    bh = mix(bh, u64::from_le_bytes(word));
                }
                mix(h, bh)
            }
            Value::Data(_) => mix(h, 2),
        };
    }
    for (label, value) in tags {
        h = mix(h, str_key(label.as_str()));
        h = mix(h, value as u64);
    }
    h
}

/// Live counters for one chaos box; shared with the test via `Arc`.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Faults actually injected (errors, panics, or stalls).
    pub injected: AtomicU64,
    /// Activations passed through to the real box.
    pub passed: AtomicU64,
}

impl ChaosStats {
    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Activations that reached the real box.
    pub fn passed(&self) -> u64 {
        self.passed.load(Ordering::Relaxed)
    }
}

/// Wraps `def` in a chaos box following `spec`. The wrapper keeps the
/// original signature and per-box policy, so it drops into any topology
/// unchanged.
pub fn chaos(def: &BoxDef, spec: FaultSpec) -> BoxDef {
    chaos_with_stats(def, spec).0
}

/// [`chaos`], plus shared counters for asserting that injection really
/// happened (a fault test that silently injects nothing proves nothing).
pub fn chaos_with_stats(def: &BoxDef, spec: FaultSpec) -> (BoxDef, Arc<ChaosStats>) {
    let stats = Arc::new(ChaosStats::default());
    let st = Arc::clone(&stats);
    let inner = Arc::clone(&def.func);
    let name = def.sig.name.clone();
    // Per-record fault budget. Keyed by content hash so retries of the
    // same record (clones, in whatever engine) share one budget.
    let attempts: Mutex<HashMap<u64, u32>> = Mutex::new(HashMap::new());

    let func = move |input: &Record| -> Result<BoxOutput, SnetError> {
        let key = record_key(input);
        let due = spec.one_in > 0 && splitmix64(spec.seed ^ key).is_multiple_of(spec.one_in) && {
            let mut map = attempts.lock().unwrap();
            let n = map.entry(key).or_insert(0);
            if *n < spec.fails_per_record {
                *n = n.saturating_add(1);
                true
            } else {
                false
            }
        };
        if due {
            st.injected.fetch_add(1, Ordering::Relaxed);
            match spec.kind {
                FaultKind::Error => {
                    return Err(SnetError::BoxFailure {
                        name: name.clone(),
                        cause: format!("injected fault (key {key:#018x})"),
                    });
                }
                FaultKind::Panic => {
                    // Formatted on purpose: the payload is a `String`,
                    // which the catch-sites must downcast.
                    panic!("injected panic in {name} (key {key:#018x})");
                }
                FaultKind::Stall => std::thread::sleep(spec.stall),
            }
        }
        st.passed.fetch_add(1, Ordering::Relaxed);
        inner.call(input)
    };

    let mut wrapped = BoxDef::new(def.sig.clone(), Arc::new(func));
    wrapped.policy = def.policy;
    (wrapped, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::{BoxSig, Work};

    fn identity_box() -> BoxDef {
        BoxDef::from_fn(BoxSig::parse("id", &["x"], &[&["x"]]), |input| {
            Ok(BoxOutput::one(input.clone(), Work::ops(1)))
        })
    }

    fn rec(x: i64) -> Record {
        Record::new().with_field("x", Value::Int(x))
    }

    #[test]
    fn record_key_is_content_based() {
        let a = rec(7);
        let b = rec(7);
        let c = rec(8);
        assert_eq!(record_key(&a), record_key(&b));
        assert_ne!(record_key(&a), record_key(&c));
        // Tags participate too.
        assert_ne!(record_key(&a), record_key(&a.clone().with_tag("t", 1)));
    }

    #[test]
    fn selection_is_deterministic_and_seeded() {
        let spec = FaultSpec::errors(42, 3, 1);
        let picks: Vec<bool> = (0..100).map(|i| spec.selects(&rec(i))).collect();
        let again: Vec<bool> = (0..100).map(|i| spec.selects(&rec(i))).collect();
        assert_eq!(picks, again);
        let hits = picks.iter().filter(|p| **p).count();
        assert!(hits > 10 && hits < 70, "one-in-3 picked {hits}/100");
        let other = FaultSpec::errors(43, 3, 1);
        let picks2: Vec<bool> = (0..100).map(|i| other.selects(&rec(i))).collect();
        assert_ne!(picks, picks2, "different seeds, same schedule");
    }

    #[test]
    fn faults_are_bounded_per_record() {
        let (chaotic, stats) = chaos_with_stats(&identity_box(), FaultSpec::errors(1, 1, 2));
        let r = rec(5);
        assert!(chaotic.func.call(&r).is_err());
        assert!(chaotic.func.call(&r).is_err());
        // Third attempt on the same content succeeds.
        assert!(chaotic.func.call(&r).is_ok());
        assert_eq!(stats.injected(), 2);
        assert_eq!(stats.passed(), 1);
    }

    #[test]
    fn permanent_faults_never_recover() {
        let (chaotic, stats) = chaos_with_stats(&identity_box(), FaultSpec::errors(1, 1, u32::MAX));
        let r = rec(5);
        for _ in 0..10 {
            assert!(chaotic.func.call(&r).is_err());
        }
        assert_eq!(stats.injected(), 10);
        assert_eq!(stats.passed(), 0);
    }

    #[test]
    fn panic_kind_panics_with_string_payload() {
        let (chaotic, _) = chaos_with_stats(&identity_box(), FaultSpec::panics(1, 1, 1));
        let r = rec(5);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = chaotic.func.call(&r);
        }))
        .unwrap_err();
        let msg = snet_core::panic_cause(payload.as_ref());
        assert!(msg.contains("injected panic in id"), "payload: {msg}");
    }

    #[test]
    fn stall_kind_succeeds_slowly() {
        let spec = FaultSpec::stalls(1, 1, Duration::from_millis(5));
        let (chaotic, stats) = chaos_with_stats(&identity_box(), spec);
        let t0 = std::time::Instant::now();
        assert!(chaotic.func.call(&rec(5)).is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(stats.injected(), 1);
        assert_eq!(stats.passed(), 1);
    }

    #[test]
    fn wrapper_preserves_signature_and_policy() {
        let def = identity_box().with_policy(snet_core::FailurePolicy::DeadLetter);
        let wrapped = chaos(&def, FaultSpec::errors(1, 2, 1));
        assert_eq!(wrapped.sig, def.sig);
        assert_eq!(wrapped.policy, def.policy);
    }
}
