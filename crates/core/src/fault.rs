//! Fault-tolerance vocabulary shared by every engine.
//!
//! S+Net (arXiv:1306.2743) argues that extra-functional concerns —
//! bounds, priorities, *robustness* — belong at the coordination layer,
//! not inside boxes. This module is that principle applied to failures:
//! what happens when a component cannot process a record is a property
//! of the *network configuration* ([`FailurePolicy`]), not of the box
//! code, and every engine (threaded, scheduled, interpreter) resolves
//! it through the same [`policy_step`] helper so the engines cannot
//! drift apart on failure semantics.
//!
//! The three policies:
//!
//! * [`FailurePolicy::FailFast`] — the first error aborts the whole
//!   run (the historical behavior, and still the default);
//! * [`FailurePolicy::Retry`] — transient [`SnetError::BoxFailure`]s
//!   (including contained panics) are retried with exponential backoff
//!   before the run is failed;
//! * [`FailurePolicy::DeadLetter`] — the offending record is diverted
//!   to the run's dead-letter stream together with a structured
//!   [`FailureReport`], and the run continues. A queue-backed message
//!   processor survives individual message failures via dead-lettering
//!   rather than process death (the Demaq shape, arXiv:cs/0612114).

use crate::error::{panic_cause, SnetError};
use crate::record::Record;
use crate::semantics::StepOut;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an engine does when a component fails to process a record.
///
/// Configured globally via the engine configuration and overridable per
/// box ([`crate::boxdef::BoxDef::with_policy`]). Combinator glue
/// (dispatchers, filters) always follows the global policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// The first error poisons the run: in-flight records are
    /// discarded and the run reports the error.
    #[default]
    FailFast,
    /// Re-invoke the component on the same record up to `max_attempts`
    /// times total, sleeping `backoff * 2^(attempt-1)` between
    /// attempts. Only [`SnetError::BoxFailure`] (a failed or panicked
    /// box invocation) is retried — deterministic coordination errors
    /// (missing tags, type mismatches) fail immediately. Exhaustion
    /// fails the run like [`FailurePolicy::FailFast`].
    ///
    /// The backoff sleep runs on the executing thread, which in the
    /// scheduled engine is a pool worker — keep the base small (or
    /// zero) so retries cannot starve sibling components.
    Retry {
        /// Total invocation attempts (min 1).
        max_attempts: u32,
        /// Base backoff; doubled after every failed attempt.
        backoff: Duration,
    },
    /// Divert the offending record (plus a [`FailureReport`]) to the
    /// run's dead-letter stream and keep processing. Applies to every
    /// per-record error, box or glue, so the surviving outputs plus
    /// the dead letters always partition the input-derived record set.
    DeadLetter,
}

/// Structured description of one component failure, attached to every
/// [`DeadLetter`]. Deliberately timestamp-free: `seq` is a per-run
/// sequence number, so reports are reproducible under the
/// deterministic fault-injection harness.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureReport {
    /// The failing component (box name, or glue id such as
    /// `"par-dispatch"`).
    pub component: String,
    /// Invocation attempts made on the record (1 unless retried).
    pub attempts: u32,
    /// The error of the final attempt.
    pub cause: SnetError,
    /// Per-run failure sequence number (0-based, allocation order).
    pub seq: u64,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failure #{} at {} after {} attempt{}: {}",
            self.seq,
            self.component,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.cause
        )
    }
}

impl std::error::Error for FailureReport {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// A record diverted from the network under
/// [`FailurePolicy::DeadLetter`]: the record exactly as it arrived at
/// the failing component, plus the report saying why it was diverted.
#[derive(Clone, Debug, PartialEq)]
pub struct DeadLetter {
    /// The record the component could not process.
    pub record: Record,
    /// Why, where, and after how many attempts.
    pub report: FailureReport,
}

impl fmt::Display for DeadLetter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (record {:?})", self.report, self.record)
    }
}

impl std::error::Error for DeadLetter {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.report.cause)
    }
}

/// Outcome of running one per-record component step under a
/// [`FailurePolicy`]; `T` is whatever the step itself returns (a
/// [`StepOut`], or a tally when the step writes into a caller's sink).
#[derive(Debug)]
pub enum StepVerdict<T = StepOut> {
    /// The step succeeded (possibly after retries); emit its records.
    Out {
        /// The successful step result.
        step: T,
        /// Invocation attempts consumed (1 = no retry happened).
        attempts: u32,
    },
    /// The record was diverted; the run continues without it.
    Dead(Box<DeadLetter>),
    /// The failure is fatal under the policy; the run must abort.
    Fatal(SnetError),
}

/// Runs one fallible per-record component step under `policy`, with
/// panic containment: a panic unwinding out of `attempt` is converted
/// to [`SnetError::BoxFailure`] (`&str` and `String` payloads are
/// reported verbatim) before the policy is applied, so a panicking box
/// retries / dead-letters exactly like an erroring one.
///
/// `FailFast` invokes `attempt` once on the record as-is — no clone,
/// no sequence-number traffic — so the default configuration costs
/// nothing beyond the pre-existing panic guard. The other policies
/// clone the record per attempt (they must be able to hand the
/// original back). `seq` is only consumed when a dead letter is
/// actually minted.
pub fn policy_step<T>(
    policy: FailurePolicy,
    component: &str,
    seq: &AtomicU64,
    rec: Record,
    mut attempt: impl FnMut(Record) -> Result<T, SnetError>,
) -> StepVerdict<T> {
    let mut guarded =
        |rec: Record| match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| attempt(rec)))
        {
            Ok(res) => res,
            Err(payload) => Err(SnetError::BoxFailure {
                name: component.to_owned(),
                cause: format!("panicked: {}", panic_cause(payload.as_ref())),
            }),
        };
    match policy {
        FailurePolicy::FailFast => match guarded(rec) {
            Ok(step) => StepVerdict::Out { step, attempts: 1 },
            Err(e) => StepVerdict::Fatal(e),
        },
        FailurePolicy::Retry {
            max_attempts,
            backoff,
        } => {
            let max = max_attempts.max(1);
            let mut attempts = 1;
            loop {
                match guarded(rec.clone()) {
                    Ok(step) => return StepVerdict::Out { step, attempts },
                    Err(e @ SnetError::BoxFailure { .. }) if attempts < max => {
                        if !backoff.is_zero() {
                            // Exponential: base << (attempt - 1), shift
                            // capped so the multiplier cannot overflow.
                            let exp = (attempts - 1).min(20);
                            std::thread::sleep(backoff.saturating_mul(1u32 << exp));
                        }
                        attempts += 1;
                        let _ = e;
                    }
                    Err(e) => return StepVerdict::Fatal(e),
                }
            }
        }
        FailurePolicy::DeadLetter => match guarded(rec.clone()) {
            Ok(step) => StepVerdict::Out { step, attempts: 1 },
            Err(cause) => StepVerdict::Dead(Box::new(DeadLetter {
                record: rec,
                report: FailureReport {
                    component: component.to_owned(),
                    attempts: 1,
                    cause,
                    seq: seq.fetch_add(1, Ordering::Relaxed),
                },
            })),
        },
    }
}

/// Policy resolution for a per-record error raised by combinator glue
/// (a dispatcher that cannot route a record): under
/// [`FailurePolicy::DeadLetter`] the record is diverted, otherwise the
/// error is fatal. Glue has no retry semantics — its errors are
/// deterministic.
pub fn reject(
    policy: FailurePolicy,
    component: &str,
    seq: &AtomicU64,
    rec: Record,
    cause: SnetError,
) -> Result<Box<DeadLetter>, SnetError> {
    match policy {
        FailurePolicy::DeadLetter => Ok(Box::new(DeadLetter {
            record: rec,
            report: FailureReport {
                component: component.to_owned(),
                attempts: 1,
                cause,
                seq: seq.fetch_add(1, Ordering::Relaxed),
            },
        })),
        _ => Err(cause),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use crate::semantics::{self, MismatchPolicy};
    use crate::value::Value;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn flaky_box(fail_first: u32) -> BoxDef {
        let calls = Arc::new(AtomicU32::new(0));
        BoxDef::from_fn(BoxSig::parse("flaky", &["x"], &[&["x"]]), move |r| {
            let n = calls.fetch_add(1, Ordering::Relaxed);
            if n < fail_first {
                return Err(SnetError::Engine(format!("transient #{n}")));
            }
            Ok(BoxOutput::one(r.clone(), Work::ZERO))
        })
    }

    fn run(policy: FailurePolicy, def: &BoxDef) -> StepVerdict {
        let seq = AtomicU64::new(0);
        policy_step(
            policy,
            &def.sig.name,
            &seq,
            Record::new().with_field("x", Value::Int(7)),
            |r| semantics::box_step(def, r, MismatchPolicy::Forward),
        )
    }

    #[test]
    fn fail_fast_is_fatal_on_first_error() {
        match run(FailurePolicy::FailFast, &flaky_box(1)) {
            StepVerdict::Fatal(SnetError::BoxFailure { name, .. }) => assert_eq!(name, "flaky"),
            other => panic!("expected fatal, got {other:?}"),
        }
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let policy = FailurePolicy::Retry {
            max_attempts: 4,
            backoff: Duration::ZERO,
        };
        match run(policy, &flaky_box(2)) {
            StepVerdict::Out { step, attempts } => {
                assert_eq!(attempts, 3);
                assert_eq!(step.records.len(), 1);
            }
            other => panic!("expected success after retries, got {other:?}"),
        }
    }

    #[test]
    fn retry_exhaustion_is_fatal() {
        let policy = FailurePolicy::Retry {
            max_attempts: 2,
            backoff: Duration::ZERO,
        };
        assert!(matches!(
            run(policy, &flaky_box(10)),
            StepVerdict::Fatal(SnetError::BoxFailure { .. })
        ));
    }

    #[test]
    fn dead_letter_diverts_record_and_reports() {
        match run(FailurePolicy::DeadLetter, &flaky_box(10)) {
            StepVerdict::Dead(dl) => {
                assert_eq!(dl.record.field("x").unwrap().as_int(), Some(7));
                assert_eq!(dl.report.component, "flaky");
                assert_eq!(dl.report.attempts, 1);
                assert_eq!(dl.report.seq, 0);
                assert!(dl.to_string().contains("flaky"), "{dl}");
            }
            other => panic!("expected dead letter, got {other:?}"),
        }
    }

    #[test]
    fn panics_are_contained_with_dynamic_payloads() {
        let bomb = BoxDef::from_fn(BoxSig::parse("bomb", &["x"], &[&["x"]]), |r| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            // Formatted panic => `String` payload, the case the &str-only
            // downcast used to lose.
            panic!("boom on {x}");
        });
        match run(FailurePolicy::DeadLetter, &bomb) {
            StepVerdict::Dead(dl) => match &dl.report.cause {
                SnetError::BoxFailure { cause, .. } => {
                    assert!(cause.contains("boom on 7"), "{cause}")
                }
                other => panic!("expected box failure, got {other:?}"),
            },
            other => panic!("expected dead letter, got {other:?}"),
        }
    }

    #[test]
    fn glue_reject_respects_policy() {
        let seq = AtomicU64::new(5);
        let rec = Record::new().with_tag("k", 1);
        let dl = reject(
            FailurePolicy::DeadLetter,
            "split-dispatch",
            &seq,
            rec.clone(),
            SnetError::MissingTag(crate::Label::new("j")),
        )
        .expect("diverted");
        assert_eq!(dl.report.seq, 5);
        assert_eq!(dl.record, rec);
        let err = reject(
            FailurePolicy::FailFast,
            "split-dispatch",
            &seq,
            rec,
            SnetError::MissingTag(crate::Label::new("j")),
        )
        .unwrap_err();
        assert!(matches!(err, SnetError::MissingTag(_)));
    }

    #[test]
    fn reports_compose_as_std_errors() {
        let report = FailureReport {
            component: "solver".into(),
            attempts: 3,
            cause: SnetError::DivisionByZero,
            seq: 2,
        };
        let as_std: &dyn std::error::Error = &report;
        assert!(as_std.source().is_some());
        let boxed: Box<dyn std::error::Error> = Box::new(report);
        assert!(boxed.to_string().contains("after 3 attempts"));
    }
}
