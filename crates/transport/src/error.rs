//! Typed transfer failures shared by both datapaths.
//!
//! The engine ([`crate::sender::CcSender`]) converts an expired dead-time
//! budget into a stall carrying partial-progress statistics, instead of
//! retrying a dead peer forever on a capped-backoff timer. The simulator
//! records it in `FlowStats::stalled`; the real-socket driver (`pcc-udp`)
//! returns it as a [`TransferError::Stalled`].

use std::fmt;

/// A transfer that aborted rather than completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferError {
    /// The dead-time budget expired: no forward progress (no new bytes
    /// cumulatively acknowledged) for longer than the configured budget,
    /// with the retransmission timer firing fruitlessly the whole time.
    Stalled {
        /// Milliseconds since the last forward progress when the engine
        /// gave up.
        dark_ms: u64,
        /// Consecutive RTO firings without any progress in between.
        timeouts: u64,
        /// Bytes cumulatively acknowledged before the stall (partial
        /// progress; the prefix the receiver is known to hold).
        acked_bytes: u64,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::Stalled {
                dark_ms,
                timeouts,
                acked_bytes,
            } => write!(
                f,
                "transfer stalled: no progress for {dark_ms} ms \
                 ({timeouts} consecutive timeouts, {acked_bytes} bytes acked)"
            ),
        }
    }
}

impl std::error::Error for TransferError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_progress_stats() {
        let e = TransferError::Stalled {
            dark_ms: 30_000,
            timeouts: 7,
            acked_bytes: 123_456,
        };
        let s = e.to_string();
        assert!(s.contains("30000 ms"), "{s}");
        assert!(s.contains("7 consecutive"), "{s}");
        assert!(s.contains("123456 bytes"), "{s}");
    }

    #[test]
    fn round_trips_through_io_error() {
        // The UDP datapath ships it inside `io::Error`; callers downcast.
        let e = TransferError::Stalled {
            dark_ms: 1,
            timeouts: 2,
            acked_bytes: 3,
        };
        let io = std::io::Error::new(std::io::ErrorKind::TimedOut, e);
        let back = io
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<TransferError>())
            .expect("downcast");
        assert_eq!(*back, e);
    }
}
