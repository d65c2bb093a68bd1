//! Typed errors for the engine's worker hot path.
//!
//! The message decode path (superstep drain, checkpoint inbox decode) used
//! to panic on malformed bytes — acceptable while buffers were provably
//! engine-internal, but a panic in a worker poisons the whole cluster and
//! loses the structured cause. Lint rule **P01** now forbids
//! `unwrap`/`expect`/`panic!` in that path; corruption instead surfaces as
//! a [`WireError`] (codec layer) wrapped into an [`EngineError`] (worker
//! layer), which the driver re-raises with the failing partition attached.

use std::fmt;

/// A malformed wire buffer, detected during decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-width read.
    Eof {
        /// What was being decoded.
        context: &'static str,
        /// Bytes the read required.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag byte matched no known variant.
    BadTag {
        /// The enum or frame whose tag was read.
        context: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    Utf8 {
        /// What was being decoded.
        context: &'static str,
    },
    /// A framed payload's checksum did not match its contents.
    Checksum {
        /// The frame whose checksum failed.
        context: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof {
                context,
                needed,
                remaining,
            } => write!(
                f,
                "unexpected end of wire buffer decoding {context}: \
                 need {needed} bytes, {remaining} remain"
            ),
            WireError::BadTag { context, tag } => {
                write!(f, "unknown {context} tag {tag:#04x}")
            }
            WireError::Utf8 { context } => write!(f, "invalid UTF-8 decoding {context}"),
            WireError::Checksum { context } => {
                write!(f, "checksum mismatch decoding {context}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A worker-level failure surfaced to the driver as a value, not a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A received frame failed to decode.
    Wire(WireError),
    /// A transport-level I/O failure on this worker's own connections
    /// (dial failure, write failure, connection reset, mid-frame EOF).
    /// `detail` carries the stringified `io::Error` — `io::Error` itself is
    /// neither `Clone` nor `Eq`, which this type must be so the driver can
    /// re-surface a worker error by value.
    Net {
        /// What the transport was doing (e.g. "reading frame from peer 2").
        context: String,
        /// The underlying I/O failure, stringified.
        detail: String,
    },
    /// The coordinator observed a remote worker die: its control connection
    /// reset, or its process exited. `detail` names the evidence (exit
    /// status or socket error) so the failure is attributable.
    RemoteWorkerDied {
        /// The partition whose worker died.
        partition: u16,
        /// Exit status / connection error that proved the death.
        detail: String,
    },
    /// A peer's end-of-phase sentinel proved frames were lost in flight and
    /// never retransmitted: the received data-frame sequence numbers do not
    /// cover the sender's declared watermark.
    FrameLoss {
        /// The peer partition whose frames went missing.
        peer: u16,
        /// Data frames the sentinel declared sent (cumulative).
        expected: u64,
        /// Data frames actually accounted for (cumulative).
        got: u64,
    },
    /// A worker received a frame it cannot accept in its current state:
    /// wrong epoch, wrong recipient, or a kind that is invalid mid-phase.
    Protocol {
        /// Human description of the violation.
        detail: String,
    },
    /// Writing or committing a checkpoint failed. `detail` carries the
    /// stringified storage error (the underlying `GofsError` is not `Eq`).
    Checkpoint {
        /// What the checkpoint machinery was doing (e.g. "writing slice 3").
        context: String,
        /// The underlying storage failure, stringified.
        detail: String,
    },
    /// The job configuration cannot run: more timesteps than the source
    /// stores, or temporal parallelism combined with a pattern, timestep
    /// mode, checkpointing or cluster that needs the barriered loop.
    Config {
        /// What is wrong with the configuration.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Wire(e) => write!(f, "wire decode failed: {e}"),
            EngineError::Net { context, detail } => {
                write!(f, "transport failure {context}: {detail}")
            }
            EngineError::RemoteWorkerDied { partition, detail } => {
                write!(f, "remote worker for partition {partition} died: {detail}")
            }
            EngineError::FrameLoss {
                peer,
                expected,
                got,
            } => write!(
                f,
                "frames from peer {peer} lost in flight: sentinel declared {expected} \
                 data frames, only {got} accounted for"
            ),
            EngineError::Protocol { detail } => write!(f, "transport protocol violation: {detail}"),
            EngineError::Checkpoint { context, detail } => {
                write!(f, "checkpoint failure {context}: {detail}")
            }
            EngineError::Config { detail } => write!(f, "invalid job configuration: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Wire(e) => Some(e),
            EngineError::Net { .. }
            | EngineError::RemoteWorkerDied { .. }
            | EngineError::FrameLoss { .. }
            | EngineError::Protocol { .. }
            | EngineError::Checkpoint { .. }
            | EngineError::Config { .. } => None,
        }
    }
}

impl From<WireError> for EngineError {
    fn from(e: WireError) -> Self {
        EngineError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = WireError::Eof {
            context: "u32",
            needed: 4,
            remaining: 1,
        };
        assert!(e.to_string().contains("u32"));
        assert!(e.to_string().contains("4 bytes"));
        let e = WireError::BadTag {
            context: "Option",
            tag: 7,
        };
        assert!(e.to_string().contains("0x07"));
        let e: EngineError = WireError::Utf8 { context: "String" }.into();
        assert!(e.to_string().contains("UTF-8"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn transport_errors_name_their_subject() {
        let e = EngineError::RemoteWorkerDied {
            partition: 3,
            detail: "exit status: 1".into(),
        };
        assert!(e.to_string().contains("partition 3"), "{e}");
        assert!(e.to_string().contains("exit status"), "{e}");

        let e = EngineError::FrameLoss {
            peer: 2,
            expected: 7,
            got: 5,
        };
        assert!(e.to_string().contains("peer 2"), "{e}");

        let e = EngineError::Net {
            context: "reading frame from peer 1".into(),
            detail: "connection reset".into(),
        };
        assert!(e.to_string().contains("peer 1"), "{e}");

        let e: EngineError = WireError::Checksum { context: "frame" }.into();
        assert!(e.to_string().contains("checksum mismatch"), "{e}");
    }
}
