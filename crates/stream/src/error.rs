//! Typed streaming errors.
//!
//! A streaming pipeline fixes its geometry — sample rate, channel count,
//! frame/hop sizes — at construction, because every downstream quantity
//! (band-edge bins, GCC lag windows, hop deadlines) is derived from it. A
//! chunk carries no sample rate: the pipeline that builds the stream fixes
//! it. A producer that changes channel count mid-stream would not crash
//! the DSP; it would silently scramble the microphone pairs behind every
//! GCC lag. These errors make that contract violation loud and
//! recoverable: the stream's state is untouched and valid pushes keep
//! working.

use std::error::Error;
use std::fmt;

/// An error raised by the streaming ingest/analysis layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A chunk arrived with a different number of channels than the stream
    /// was built for. Accepting it would scramble the microphone-pair
    /// geometry behind every GCC lag.
    ChannelCountChanged {
        /// Channel count the stream was built for.
        expected: usize,
        /// Channel count of the offending chunk.
        got: usize,
    },
    /// The channels of one chunk have unequal lengths.
    RaggedChunk {
        /// Length of the first channel in the chunk.
        first: usize,
        /// The differing length encountered.
        other: usize,
    },
    /// A chunk carried a NaN or infinite sample. One such sample would
    /// poison every spectral accumulator and the decision, so the whole
    /// chunk is refused before any of it is ingested.
    NonFinite {
        /// Channel of the first non-finite sample.
        channel: usize,
        /// Its index within the chunk.
        index: usize,
    },
    /// A chunk would take the capture past its length cap. Evidence
    /// buffers grow with the capture, so a session that never stops
    /// pushing would hold memory without bound; the chunk is refused
    /// before any of it is ingested.
    CaptureTooLong {
        /// The cap, in samples per channel.
        limit: usize,
        /// Samples per channel the capture would hold with the chunk.
        got: usize,
    },
    /// Invalid construction-time geometry (zero sizes, hop larger than the
    /// frame, too few channels, …).
    BadGeometry(String),
    /// Feature assembly was requested before one complete analysis frame
    /// was accumulated — the capture is shorter than a single frame, so no
    /// fixed-width feature vector exists yet.
    NoFrames,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::ChannelCountChanged { expected, got } => write!(
                f,
                "channel count changed mid-stream: stream built for {expected} channels, chunk has {got}"
            ),
            StreamError::RaggedChunk { first, other } => write!(
                f,
                "ragged chunk: channels must share one length, got {first} and {other}"
            ),
            StreamError::NonFinite { channel, index } => write!(
                f,
                "non-finite sample in chunk: channel {channel}, index {index}"
            ),
            StreamError::CaptureTooLong { limit, got } => write!(
                f,
                "capture too long: {got} samples per channel exceed the {limit}-sample cap"
            ),
            StreamError::BadGeometry(msg) => write!(f, "bad stream geometry: {msg}"),
            StreamError::NoFrames => write!(
                f,
                "no analysis frames accumulated: capture shorter than one frame"
            ),
        }
    }
}

impl Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_both_sides_of_the_mismatch() {
        let e = StreamError::ChannelCountChanged {
            expected: 4,
            got: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains('4') && msg.contains('2'), "{msg}");

        let e = StreamError::RaggedChunk {
            first: 480,
            other: 7,
        };
        assert!(e.to_string().contains("480"));

        let e = StreamError::NonFinite {
            channel: 2,
            index: 17,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("channel 2") && msg.contains("index 17"),
            "{msg}"
        );

        let e = StreamError::CaptureTooLong {
            limit: 192_000,
            got: 192_480,
        };
        let msg = e.to_string();
        assert!(msg.contains("192000") && msg.contains("192480"), "{msg}");

        let e = StreamError::BadGeometry("hop 0".into());
        assert!(e.to_string().contains("hop 0"));
    }
}
