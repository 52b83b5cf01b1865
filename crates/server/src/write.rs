//! The server's write plane: write requests, tickets, and the pluggable
//! admission-control surface.
//!
//! Writes travel a dedicated bounded [`BatchQueue`](crate::queue::BatchQueue)
//! (backpressure independent of the read queue) into a single writer
//! thread that owns the authoritative keyset. Each drained micro-batch is
//! validated against the keyset, screened by an [`AdmissionPolicy`],
//! merged, rebuilt into a fresh index, and published as one new epoch —
//! see `crate::epoch` and `ServerBuilder::start_online`.
//!
//! Admission control is where online defenses plug in: a policy sees every
//! candidate write together with its source id and a [`KeyView`] of the
//! *current* authoritative keyset — every earlier accepted write
//! included, those of its own batch too — and either admits it or names
//! the filter that rejected it. Concrete filters (per-source rate
//! limiting, streaming density screens) live in `lis_defense::admission`;
//! this module defines only the trait, the pass-through [`AdmitAll`], and
//! the first-reject-wins [`AdmissionChain`], so the server carries no
//! dependency on the defense crate.

use crate::server::ResponseSlot;
use lis_core::error::Result;
use lis_core::keys::{Key, KeyView};
use std::sync::Arc;
use std::time::Duration;

/// One mutation of the served keyset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert a new key.
    Insert(Key),
    /// Remove an existing key.
    Remove(Key),
}

impl WriteOp {
    /// The key the operation targets.
    pub fn key(&self) -> Key {
        match *self {
            WriteOp::Insert(k) | WriteOp::Remove(k) => k,
        }
    }
}

/// Terminal outcome of one submitted write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteStatus {
    /// The write landed in the authoritative keyset; `epoch` is the epoch
    /// whose published snapshot first reflects it.
    Applied {
        /// Epoch number serving the write.
        epoch: u64,
    },
    /// An admission filter turned the write away.
    Rejected {
        /// Name of the rejecting filter.
        filter: String,
    },
    /// The write was invalid against the authoritative keyset (duplicate
    /// insert, remove of an absent key, out-of-domain key).
    Failed {
        /// Human-readable failure reason.
        reason: String,
    },
}

/// Reason prefix of [`WriteStatus::Failed`] outcomes caused by serving
/// infrastructure (a crashed writer) rather than validation. Writes
/// failing with this prefix are worth resubmitting; validation failures
/// are deterministic and are not.
pub const TRANSIENT_FAILURE_PREFIX: &str = "writer crashed";

impl WriteStatus {
    /// `true` iff the write was applied.
    pub fn is_applied(&self) -> bool {
        matches!(self, WriteStatus::Applied { .. })
    }

    /// `true` iff an admission filter rejected the write.
    pub fn is_rejected(&self) -> bool {
        matches!(self, WriteStatus::Rejected { .. })
    }

    /// `true` iff the write failed for a transient infrastructure reason
    /// (the writer crashed while it was queued) rather than validation —
    /// the client may resubmit it against the recovered writer.
    pub fn is_transient_failure(&self) -> bool {
        matches!(self, WriteStatus::Failed { reason } if reason.starts_with(TRANSIENT_FAILURE_PREFIX))
    }
}

/// A claim on one in-flight write; resolves to a [`WriteStatus`].
pub struct WriteTicket {
    pub(crate) slot: Arc<ResponseSlot<WriteStatus>>,
}

impl WriteTicket {
    /// Blocks until the writer thread has decided the write's fate.
    pub fn wait(self) -> Result<WriteStatus> {
        self.slot.wait()
    }

    /// Like [`WriteTicket::wait`] but gives up with
    /// [`LisError::Timeout`](lis_core::error::LisError::Timeout) after
    /// `timeout` — a backlogged write queue cannot hang the client.
    pub fn wait_timeout(self, timeout: Duration) -> Result<WriteStatus> {
        self.slot.wait_timeout(timeout)
    }
}

/// One queued write: the operation, its claimed source, and the slot the
/// writer thread fulfills.
pub(crate) struct WriteRequest {
    pub(crate) op: WriteOp,
    pub(crate) source: u64,
    pub(crate) slot: Arc<ResponseSlot<WriteStatus>>,
}

/// An admission filter's verdict on one write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Let the write through (to the next filter, then the keyset).
    Admit,
    /// Turn it away; the string names the rejecting filter and lands in
    /// [`WriteStatus::Rejected`].
    Reject(String),
}

/// A pluggable screen on the write queue.
///
/// `admit` runs on the writer thread with the write already validated
/// (no duplicates, no absent-key removes reach it), the submitting
/// client's source id, and the current authoritative keyset — enough for
/// rate limiting, envelope checks, and density screens. Policies are
/// stateful (`&mut self`): one policy instance sees the whole write stream
/// in admission order.
///
/// The keyset arrives as a [`KeyView`] because the writer merges a batch
/// into its key array once, after the batch's last verdict: the view is
/// the array plus every write accepted so far, so a verdict never depends
/// on where the batch boundaries fell. A `&KeySet` coerces to the view.
pub trait AdmissionPolicy: Send {
    /// Short display name (used in reports and rejection reasons).
    fn name(&self) -> &str;

    /// Decides one write against the current authoritative keyset.
    fn admit(&mut self, op: &WriteOp, source: u64, keyset: &dyn KeyView) -> Admission;
}

/// The no-defense policy: every validated write is admitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn name(&self) -> &str {
        "admit-all"
    }

    fn admit(&mut self, _op: &WriteOp, _source: u64, _keyset: &dyn KeyView) -> Admission {
        Admission::Admit
    }
}

/// Composes filters; the first rejection wins and later filters never see
/// the write (their state only tracks admitted-or-earlier-screened
/// traffic, like a real filter stack).
#[derive(Default)]
pub struct AdmissionChain {
    filters: Vec<Box<dyn AdmissionPolicy>>,
}

impl AdmissionChain {
    /// An empty chain (admits everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a filter (builder style).
    pub fn with(mut self, filter: impl AdmissionPolicy + 'static) -> Self {
        self.filters.push(Box::new(filter));
        self
    }

    /// Number of filters in the chain.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// `true` iff the chain holds no filters.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

impl AdmissionPolicy for AdmissionChain {
    fn name(&self) -> &str {
        "chain"
    }

    fn admit(&mut self, op: &WriteOp, source: u64, keyset: &dyn KeyView) -> Admission {
        for filter in &mut self.filters {
            if let Admission::Reject(by) = filter.admit(op, source, keyset) {
                return Admission::Reject(by);
            }
        }
        Admission::Admit
    }
}

/// A [`RollbackPolicy`]'s verdict on one completed read window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftVerdict {
    /// Not enough signal yet (baseline still forming, or too few reads
    /// landed in the window to trust its mean).
    Calibrating,
    /// Mean lookup cost is within the healthy envelope.
    Healthy,
    /// Mean lookup cost crossed the degradation threshold — the writer
    /// should quarantine recent writes and republish the last-good epoch.
    Degraded,
}

/// A drift monitor the writer thread consults between flushes: it
/// observes each *completed* read window's mean lookup cost and decides
/// whether the served index has degraded enough to warrant an epoch
/// rollback. Like [`AdmissionPolicy`], the trait lives here so the
/// server carries no dependency on the defense crate; the concrete
/// monitor (`CostDriftMonitor`) lives in `lis_defense::drift`.
///
/// On `Degraded` the writer resets the authoritative keyset to its last
/// checkpoint, rebuilds, republishes (see `Server::builder`), and then
/// calls [`RollbackPolicy::rolled_back`] so the monitor can clear
/// transient state while keeping its baseline.
pub trait RollbackPolicy: Send {
    /// Short display name (for reports and logs).
    fn name(&self) -> &str;

    /// Classifies one completed read window: its start offset, the
    /// requests served in it, and their mean lookup cost.
    fn observe(&mut self, start_ms: u64, served: u64, mean_cost: f64) -> DriftVerdict;

    /// Notification that the writer rolled back in response to a
    /// `Degraded` verdict.
    fn rolled_back(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use lis_core::keys::KeySet;

    struct RejectOver(Key);

    impl AdmissionPolicy for RejectOver {
        fn name(&self) -> &str {
            "reject-over"
        }

        fn admit(&mut self, op: &WriteOp, _source: u64, _keyset: &dyn KeyView) -> Admission {
            if op.key() > self.0 {
                Admission::Reject("reject-over".into())
            } else {
                Admission::Admit
            }
        }
    }

    #[test]
    fn chain_applies_first_reject() {
        let ks = KeySet::from_keys(vec![1, 5, 9]).unwrap();
        let mut chain = AdmissionChain::new().with(AdmitAll).with(RejectOver(100));
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.admit(&WriteOp::Insert(7), 0, &ks), Admission::Admit);
        assert_eq!(
            chain.admit(&WriteOp::Insert(101), 0, &ks),
            Admission::Reject("reject-over".into())
        );
    }

    #[test]
    fn write_op_reports_its_key() {
        assert_eq!(WriteOp::Insert(7).key(), 7);
        assert_eq!(WriteOp::Remove(9).key(), 9);
        assert!(WriteStatus::Applied { epoch: 3 }.is_applied());
        assert!(WriteStatus::Rejected { filter: "x".into() }.is_rejected());
    }

    #[test]
    fn transient_failures_are_distinguished_from_validation() {
        let crash = WriteStatus::Failed {
            reason: format!("{TRANSIENT_FAILURE_PREFIX} mid-batch (injected fault)"),
        };
        assert!(crash.is_transient_failure());
        let validation = WriteStatus::Failed {
            reason: "duplicate key 7".into(),
        };
        assert!(!validation.is_transient_failure());
        assert!(!WriteStatus::Applied { epoch: 1 }.is_transient_failure());
    }
}

#[cfg(test)]
mod ticket_tests {
    use super::*;
    use lis_core::error::LisError;

    /// A ticket whose timeout expires concurrently with the writer
    /// fulfilling it must resolve to exactly one outcome — either the
    /// status or a timeout error, never a hang, never both.
    #[test]
    fn wait_timeout_races_fulfillment_to_one_outcome() {
        for spin in 0..64u32 {
            let slot = Arc::new(ResponseSlot::new());
            let ticket = WriteTicket {
                slot: Arc::clone(&slot),
            };
            let fulfiller = std::thread::spawn(move || {
                // Vary the fulfiller's arrival around the tiny timeout so
                // repeated runs land on both sides of the race.
                for _ in 0..spin * 100 {
                    std::hint::spin_loop();
                }
                slot.fulfill(Ok(WriteStatus::Applied { epoch: 1 }));
            });
            match ticket.wait_timeout(Duration::from_micros(u64::from(spin) * 10)) {
                Ok(WriteStatus::Applied { epoch }) => assert_eq!(epoch, 1),
                Err(LisError::Timeout(_)) => {}
                other => panic!("expected Applied or Timeout, got {other:?}"),
            }
            fulfiller.join().unwrap();
        }
    }

    /// A pre-fulfilled ticket resolves immediately even with a zero
    /// timeout — fulfillment is never lost to an already-expired deadline.
    #[test]
    fn fulfilled_ticket_beats_zero_timeout() {
        let slot = Arc::new(ResponseSlot::new());
        slot.fulfill(Ok(WriteStatus::Applied { epoch: 7 }));
        let ticket = WriteTicket { slot };
        assert_eq!(
            ticket.wait_timeout(Duration::ZERO).unwrap(),
            WriteStatus::Applied { epoch: 7 }
        );
    }
}

/// Model-checking tests: `lis_check` explores the fulfill-vs-expiry race
/// over the real `ResponseSlot`/`WriteTicket` code. A zero timeout keeps
/// model runs deterministic (the expiry branch never consults a condvar,
/// so the only race is whether the fulfiller ran first) while still
/// exercising both resolutions across schedules.
#[cfg(all(test, feature = "check"))]
mod model_tests {
    use super::*;
    use lis_check::{thread, try_check, CheckConfig};
    use lis_core::error::LisError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fulfill_vs_expiry_resolves_exactly_once() {
        let fulfilled = Arc::new(AtomicUsize::new(0));
        let expired = Arc::new(AtomicUsize::new(0));
        let (f, e) = (Arc::clone(&fulfilled), Arc::clone(&expired));
        try_check(
            "write-ticket-timeout",
            CheckConfig::new().min_schedules(300),
            move || {
                let slot = Arc::new(ResponseSlot::new());
                let ticket = WriteTicket {
                    slot: Arc::clone(&slot),
                };
                let writer = thread::spawn(move || {
                    slot.fulfill(Ok(WriteStatus::Applied { epoch: 1 }));
                });
                match ticket.wait_timeout(Duration::ZERO) {
                    Ok(WriteStatus::Applied { epoch: 1 }) => {
                        f.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(LisError::Timeout(_)) => {
                        e.fetch_add(1, Ordering::SeqCst);
                    }
                    other => panic!("expected Applied or Timeout, got {other:?}"),
                }
                writer.join().unwrap();
            },
        )
        .expect("ticket race must resolve to exactly one outcome");
        assert!(
            fulfilled.load(Ordering::SeqCst) > 0,
            "exploration never saw the fulfiller win"
        );
        assert!(
            expired.load(Ordering::SeqCst) > 0,
            "exploration never saw the expiry win"
        );
    }

    /// The blocking `wait` against a fulfiller: no schedule may strand
    /// the waiting client.
    #[test]
    fn wait_is_never_stranded_by_fulfill_order() {
        try_check(
            "write-ticket-wait",
            CheckConfig::new().min_schedules(300),
            || {
                let slot = Arc::new(ResponseSlot::new());
                let ticket = WriteTicket {
                    slot: Arc::clone(&slot),
                };
                let writer = thread::spawn(move || {
                    slot.fulfill(Ok(WriteStatus::Applied { epoch: 2 }));
                });
                assert_eq!(
                    ticket.wait().unwrap(),
                    WriteStatus::Applied { epoch: 2 },
                    "fulfillment lost"
                );
                writer.join().unwrap();
            },
        )
        .expect("wait must see the fulfillment under every schedule");
    }
}
