//! Typed errors for the persistence layer.
//!
//! Corrupt on-disk state must never panic a loader: every failure mode —
//! bad magic, unsupported format, checksum mismatch, torn record,
//! truncated file — maps to a [`PersistError`] variant, so recovery code
//! can distinguish "fall back to the previous snapshot" from "the disk is
//! broken".

use std::fmt;
use std::io;

use banks_graph::codec::CodecError;
use banks_graph::GraphError;

/// Errors produced while writing, reading or recovering persistent state.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with the expected magic bytes — it is not a
    /// BANKS snapshot / WAL (or the header was overwritten).
    BadMagic {
        /// What the file actually started with.
        found: Vec<u8>,
        /// The magic the format requires.
        expected: &'static [u8],
    },
    /// The file carries a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// A checksum did not match its payload: the region was bit-flipped or
    /// partially overwritten.
    ChecksumMismatch {
        /// Which region failed (e.g. `"snapshot header"`, `"wal record"`).
        region: &'static str,
        /// The checksum stored on disk.
        stored: u32,
        /// The checksum computed over the bytes actually read.
        computed: u32,
    },
    /// A record or header extends past the end of the file — the classic
    /// torn final write of a crashed process.
    Truncated {
        /// Byte offset at which the incomplete region starts.
        offset: u64,
        /// What was being read.
        region: &'static str,
    },
    /// The bytes parsed but describe an internally inconsistent structure.
    Corrupt {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A directory holds snapshot files but none of them could be loaded.
    NoValidSnapshot {
        /// How many snapshot files were tried.
        attempts: usize,
        /// The error from the newest candidate.
        last_error: String,
    },
    /// Decoded data violated a `banks-graph` invariant during reassembly.
    Graph(GraphError),
    /// The operation requires persistence, but none is configured.
    Disabled,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic { found, expected } => write!(
                f,
                "bad magic {found:?}, expected {:?}",
                String::from_utf8_lossy(expected)
            ),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads up to {supported})"
            ),
            PersistError::ChecksumMismatch {
                region,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {region}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::Truncated { offset, region } => {
                write!(f, "file truncated at byte {offset} while reading {region}")
            }
            PersistError::Corrupt { detail } => write!(f, "corrupt data: {detail}"),
            PersistError::NoValidSnapshot {
                attempts,
                last_error,
            } => write!(
                f,
                "no valid snapshot among {attempts} candidate(s); newest failed with: {last_error}"
            ),
            PersistError::Graph(e) => write!(f, "graph reassembly failed: {e}"),
            PersistError::Disabled => write!(f, "persistence is not enabled"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<GraphError> for PersistError {
    fn from(e: GraphError) -> Self {
        PersistError::Graph(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { offset, region } => PersistError::Truncated { offset, region },
            CodecError::Corrupt { detail } => PersistError::Corrupt { detail },
        }
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PersistError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let e = PersistError::BadMagic {
            found: b"NOTBANKS".to_vec(),
            expected: b"BANKSDB0",
        };
        assert!(e.to_string().contains("BANKSDB0"));

        let e = PersistError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('1'));

        let e = PersistError::ChecksumMismatch {
            region: "wal record",
            stored: 0xdead,
            computed: 0xbeef,
        };
        assert!(e.to_string().contains("wal record"));

        let e = PersistError::Truncated {
            offset: 1234,
            region: "record header",
        };
        assert!(e.to_string().contains("1234"));

        let e = PersistError::Disabled;
        assert!(e.to_string().contains("not enabled"));
    }

    #[test]
    fn io_and_graph_errors_convert() {
        let io_err: PersistError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(io_err, PersistError::Io(_)));
        let g: PersistError = GraphError::TooManyKinds.into();
        assert!(matches!(g, PersistError::Graph(_)));
        let cut = banks_graph::codec::Cursor::new(&[1], 40).u32("record header");
        assert!(matches!(
            PersistError::from(cut.unwrap_err()),
            PersistError::Truncated {
                offset: 40,
                region: "record header"
            }
        ));
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&io_err);
    }
}
