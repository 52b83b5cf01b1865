//! Error type shared across the workspace.

use crate::keys::{Key, KeyDomain};
use std::fmt;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, LisError>;

/// Errors produced by the learned-index substrate and the attacks built on
/// top of it.
#[derive(Debug, Clone, PartialEq)]
pub enum LisError {
    /// A keyset must contain at least one key.
    EmptyKeySet,
    /// A regression needs at least two distinct keys.
    DegenerateRegression {
        /// Number of keys supplied.
        n: usize,
    },
    /// Domain constructed with `min > max`.
    InvalidDomain {
        /// Requested lower bound.
        min: Key,
        /// Requested upper bound.
        max: Key,
    },
    /// Key falls outside the declared domain.
    KeyOutOfDomain {
        /// The offending key.
        key: Key,
        /// The domain it violated.
        domain: KeyDomain,
    },
    /// Key already present in a duplicate-free set.
    DuplicateKey(Key),
    /// Key not present.
    KeyNotFound(Key),
    /// Partition count must be in `1..=n`.
    InvalidPartition {
        /// Requested partition count.
        parts: usize,
        /// Available key count.
        keys: usize,
    },
    /// The keyset has no unoccupied slot to poison.
    NoPoisoningCandidates,
    /// Poisoning budget parameters out of range.
    InvalidBudget(String),
    /// RMI configuration error (e.g. zero second-stage models).
    InvalidRmiConfig(String),
    /// No index registered under the requested name.
    UnknownIndex {
        /// The name that failed to resolve.
        name: String,
        /// Comma-separated list of registered names.
        available: String,
    },
    /// Operation the structure does not support (e.g. in-place writes on a
    /// statically trained index — rebuild per epoch instead).
    Unsupported(String),
    /// A blocking wait gave up after the given duration.
    Timeout(std::time::Duration),
    /// Admission refused under load: the estimated queue wait exceeds the
    /// request's deadline. The request was shed, not enqueued — retry
    /// after backoff or relax the deadline.
    Overloaded {
        /// Estimated time the request would have waited in the queue.
        estimated_wait: std::time::Duration,
        /// The deadline the caller attached to the request.
        deadline: std::time::Duration,
    },
    /// The server shut down: the request was either refused at submission
    /// or in flight when its serving thread stopped. Retryable against a
    /// live server, unlike [`LisError::Invariant`].
    Shutdown(String),
    /// A storage-layer I/O operation failed (open, append, fsync, rename).
    /// Transient by classification: the medium may recover, so
    /// [`LisError::is_retryable`] returns `true` — unlike
    /// [`LisError::Corruption`], which no retry can repair.
    Io {
        /// What the durability plane was doing when the I/O failed.
        context: String,
    },
    /// Durable state failed validation: a checksum mismatch, an LSN gap,
    /// or an op the authoritative keyset refuses to replay. Never
    /// retryable — retrying re-reads the same damaged bytes; the caller
    /// must surface the error (and the operator restore from a snapshot).
    Corruption {
        /// Where in the log or snapshot the damage was found.
        context: String,
    },
    /// Generic invariant breach with context.
    Invariant(String),
}

impl LisError {
    /// `true` for transient serving-infrastructure outcomes a client may
    /// meaningfully retry — shed under load, a timed-out wait, a request
    /// caught in a shutdown or worker death. Validation errors and
    /// invariant breaches are deterministic and must surface instead.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Self::Overloaded { .. } | Self::Timeout(_) | Self::Shutdown(_) | Self::Io { .. }
        )
    }
}

impl fmt::Display for LisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyKeySet => write!(f, "keyset must not be empty"),
            Self::DegenerateRegression { n } => {
                write!(
                    f,
                    "linear regression needs at least 2 distinct keys, got {n}"
                )
            }
            Self::InvalidDomain { min, max } => {
                write!(f, "invalid key domain: min {min} > max {max}")
            }
            Self::KeyOutOfDomain { key, domain } => {
                write!(f, "key {key} outside domain {domain}")
            }
            Self::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            Self::KeyNotFound(k) => write!(f, "key {k} not found"),
            Self::InvalidPartition { parts, keys } => {
                write!(f, "cannot split {keys} keys into {parts} partitions")
            }
            Self::NoPoisoningCandidates => {
                write!(f, "no unoccupied in-range key available for poisoning")
            }
            Self::InvalidBudget(msg) => write!(f, "invalid poisoning budget: {msg}"),
            Self::InvalidRmiConfig(msg) => write!(f, "invalid RMI configuration: {msg}"),
            Self::UnknownIndex { name, available } => {
                write!(f, "unknown index '{name}' (available: {available})")
            }
            Self::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            Self::Timeout(waited) => write!(f, "timed out after {waited:?}"),
            Self::Overloaded {
                estimated_wait,
                deadline,
            } => {
                write!(
                    f,
                    "overloaded: estimated wait {estimated_wait:?} exceeds deadline {deadline:?}"
                )
            }
            Self::Shutdown(msg) => write!(f, "server shut down: {msg}"),
            Self::Io { context } => write!(f, "storage I/O failed: {context}"),
            Self::Corruption { context } => {
                write!(f, "durable state corrupted: {context}")
            }
            Self::Invariant(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for LisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LisError::KeyOutOfDomain {
            key: 42,
            domain: KeyDomain { min: 0, max: 10 },
        };
        let s = e.to_string();
        assert!(s.contains("42") && s.contains("[0, 10]"));
    }

    #[test]
    fn retryable_classifies_transient_vs_deterministic() {
        let transient = [
            LisError::Timeout(std::time::Duration::from_millis(1)),
            LisError::Overloaded {
                estimated_wait: std::time::Duration::from_millis(5),
                deadline: std::time::Duration::from_millis(1),
            },
            LisError::Shutdown("worker died".into()),
            LisError::Io {
                context: "fsync wal".into(),
            },
        ];
        for e in &transient {
            assert!(e.is_retryable(), "{e} must be retryable");
        }
        assert!(!LisError::Invariant("bug".into()).is_retryable());
        assert!(!LisError::DuplicateKey(7).is_retryable());
        assert!(
            !LisError::Corruption {
                context: "wal record 3 crc mismatch".into()
            }
            .is_retryable(),
            "corruption must never be retried"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LisError::EmptyKeySet);
    }
}
