//! The workspace's one little-endian byte codec, and the stable binary
//! serialization of [`GraphMutation`] batches built on it.
//!
//! [`Cursor`] and the `put_*` writers are how every binary format is read
//! and written: mutation batches here, WAL records and snapshots in
//! `banks-persist`.  Every read is checked against the remaining input
//! and fails with a typed [`CodecError`] instead of panicking — the bytes
//! may come off a disk that crashed mid-write or a peer that lies.
//!
//! The write-ahead log in `banks-persist` appends every accepted
//! [`MutationBatch`] to disk and replays it after a crash, so the encoding
//! must be *stable across releases*: little-endian fixed-width integers, a
//! one-byte tag per op, and length-prefixed UTF-8 strings.  Weights are
//! stored as raw IEEE-754 bit patterns so a replayed batch reproduces the
//! pre-crash graph bit for bit.
//!
//! Decoding a batch is totally defensive — truncated, oversized or
//! unknown-tag input yields [`GraphError::ParseError`] (with the failing op
//! index as the `line`), never a panic.

use std::fmt;

use crate::error::GraphError;
use crate::ids::NodeId;
use crate::mutation::{GraphMutation, MutationBatch};
use crate::Result;

/// Format version written as the first byte of every encoded batch.
pub const CODEC_VERSION: u8 = 1;

const TAG_ADD_NODE: u8 = 0;
const TAG_ADD_EDGE: u8 = 1;
const TAG_REMOVE_EDGE: u8 = 2;
const TAG_SET_LABEL: u8 = 3;
const TAG_SET_WEIGHT: u8 = 4;
const TAG_REMOVE_NODE: u8 = 5;

// ------------------------------------------------------------------ writing

/// Appends a `u16` in little-endian order.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its raw IEEE-754 bit pattern (bit-exact round trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string (`len: u32` + bytes).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a `[u32]` slice verbatim (little-endian elements).
pub fn put_u32_slice(buf: &mut Vec<u8>, vs: &[u32]) {
    buf.reserve(vs.len() * 4);
    for &v in vs {
        put_u32(buf, v);
    }
}

/// Appends an `[f64]` slice as raw bit patterns.
pub fn put_f64_slice(buf: &mut Vec<u8>, vs: &[f64]) {
    buf.reserve(vs.len() * 8);
    for &v in vs {
        put_f64(buf, v);
    }
}

// ------------------------------------------------------------------ reading

/// Why a [`Cursor`] read failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends inside the value being read.
    Truncated {
        /// Offset of the value's first byte within the containing input.
        offset: u64,
        /// What was being read.
        region: &'static str,
    },
    /// The bytes are there but do not form a valid value.
    Corrupt {
        /// Human-readable description of the problem.
        detail: String,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, region } => {
                write!(f, "input truncated at byte {offset} while reading {region}")
            }
            CodecError::Corrupt { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result of a [`Cursor`] read.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Bounds-checked little-endian cursor over a byte slice.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Offset of `bytes[0]` within the containing input, for errors.
    base_offset: u64,
}

impl<'a> Cursor<'a> {
    /// Wraps a slice whose first byte sits at `base_offset` in its input.
    pub fn new(bytes: &'a [u8], base_offset: u64) -> Self {
        Cursor {
            bytes,
            pos: 0,
            base_offset,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base_offset + self.pos as u64
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize, region: &'static str) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.offset(),
                region,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, region: &'static str) -> CodecResult<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, region)?);
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, region: &'static str) -> CodecResult<u8> {
        Ok(self.take(1, region)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, region: &'static str) -> CodecResult<u16> {
        self.array(region).map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, region: &'static str) -> CodecResult<u32> {
        self.array(region).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, region: &'static str) -> CodecResult<u64> {
        self.array(region).map(u64::from_le_bytes)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, region: &'static str) -> CodecResult<f64> {
        self.u64(region).map(f64::from_bits)
    }

    /// Reads a `u64` and validates it as an element count: `count * width`
    /// must fit in the remaining input, which bounds allocations by the
    /// input size no matter what a corrupt header claims.
    pub fn count(&mut self, width: usize, region: &'static str) -> CodecResult<usize> {
        let count = self.u64(region)? as usize;
        if count
            .checked_mul(width)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(CodecError::Corrupt {
                detail: format!(
                    "{region}: count {count} x {width} bytes exceeds the {} bytes left",
                    self.remaining()
                ),
            });
        }
        Ok(count)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, region: &'static str) -> CodecResult<String> {
        self.str(region).map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string in place, for callers that
    /// store it in a form other than `String`.
    pub fn str(&mut self, region: &'static str) -> CodecResult<&'a str> {
        let len = self.u32(region)? as usize;
        let bytes = self.take(len, region)?;
        std::str::from_utf8(bytes).map_err(|e| CodecError::Corrupt {
            detail: format!("{region}: invalid UTF-8: {e}"),
        })
    }

    /// Reads `n` little-endian `u32`s, decoding them as the iterator runs.
    pub fn u32s(
        &mut self,
        n: usize,
        region: &'static str,
    ) -> CodecResult<impl Iterator<Item = u32> + 'a> {
        let raw = self.take(n.saturating_mul(4), region)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
    }

    /// Reads `n` little-endian `u32`s.
    pub fn u32_vec(&mut self, n: usize, region: &'static str) -> CodecResult<Vec<u32>> {
        self.u32s(n, region).map(Iterator::collect)
    }

    /// Reads `n` `f64` bit patterns.
    pub fn f64_vec(&mut self, n: usize, region: &'static str) -> CodecResult<Vec<f64>> {
        let raw = self.take(n.saturating_mul(8), region)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                f64::from_bits(u64::from_le_bytes([
                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                ]))
            })
            .collect())
    }
}

// ---------------------------------------------------------- mutation batches

/// Encodes a batch into a self-describing byte string.
///
/// Layout: `version: u8`, `op_count: u32`, then each op as a `tag: u8`
/// followed by tag-specific fields.  Strings are `len: u32` + UTF-8 bytes;
/// node ids are `u32`; weights are `f64` bit patterns.  All integers are
/// little-endian.
pub fn encode_batch(batch: &MutationBatch) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + batch.len() * 16);
    buf.push(CODEC_VERSION);
    put_u32(&mut buf, batch.len() as u32);
    for op in batch.ops() {
        match op {
            GraphMutation::AddNode { kind, label } => {
                buf.push(TAG_ADD_NODE);
                put_str(&mut buf, kind);
                put_str(&mut buf, label);
            }
            GraphMutation::AddEdge { from, to, weight } => {
                buf.push(TAG_ADD_EDGE);
                put_u32(&mut buf, from.0);
                put_u32(&mut buf, to.0);
                match weight {
                    Some(w) => {
                        buf.push(1);
                        put_f64(&mut buf, *w);
                    }
                    None => buf.push(0),
                }
            }
            GraphMutation::RemoveEdge { from, to } => {
                buf.push(TAG_REMOVE_EDGE);
                put_u32(&mut buf, from.0);
                put_u32(&mut buf, to.0);
            }
            GraphMutation::SetLabel { node, label } => {
                buf.push(TAG_SET_LABEL);
                put_u32(&mut buf, node.0);
                put_str(&mut buf, label);
            }
            GraphMutation::SetWeight { from, to, weight } => {
                buf.push(TAG_SET_WEIGHT);
                put_u32(&mut buf, from.0);
                put_u32(&mut buf, to.0);
                put_f64(&mut buf, *weight);
            }
            GraphMutation::RemoveNode { node } => {
                buf.push(TAG_REMOVE_NODE);
                put_u32(&mut buf, node.0);
            }
        }
    }
    buf
}

/// Decodes a batch previously produced by [`encode_batch`].
///
/// Rejects unknown format versions, unknown op tags, truncated input and
/// invalid UTF-8 with [`GraphError::ParseError`]; the reported `line` is
/// the 1-based index of the op being decoded (0 for header problems).
pub fn decode_batch(bytes: &[u8]) -> Result<MutationBatch> {
    let mut op = 0;
    decode_ops(&mut Cursor::new(bytes, 0), &mut op).map_err(|e| GraphError::ParseError {
        line: op,
        message: e.to_string(),
    })
}

/// The body of [`decode_batch`]; `op` tracks the op being decoded.
fn decode_ops(c: &mut Cursor<'_>, op: &mut usize) -> CodecResult<MutationBatch> {
    let corrupt = |detail: String| CodecError::Corrupt { detail };
    let version = c.u8("codec version")?;
    if version != CODEC_VERSION {
        return Err(corrupt(format!(
            "unsupported mutation codec version {version}"
        )));
    }
    let count = c.u32("op count")? as usize;
    // A conservative bound: every op needs at least 1 tag byte.
    if count > c.remaining() {
        return Err(corrupt(format!(
            "op count {count} exceeds the {} bytes left",
            c.remaining()
        )));
    }
    let mut batch = MutationBatch::new();
    for i in 1..=count {
        *op = i;
        let mutation = match c.u8("op tag")? {
            TAG_ADD_NODE => GraphMutation::AddNode {
                kind: c.string("node kind")?,
                label: c.string("node label")?,
            },
            TAG_ADD_EDGE => {
                let from = NodeId(c.u32("node id")?);
                let to = NodeId(c.u32("node id")?);
                let weight = match c.u8("weight flag")? {
                    0 => None,
                    1 => Some(c.f64("edge weight")?),
                    other => return Err(corrupt(format!("invalid weight flag {other}"))),
                };
                GraphMutation::AddEdge { from, to, weight }
            }
            TAG_REMOVE_EDGE => GraphMutation::RemoveEdge {
                from: NodeId(c.u32("node id")?),
                to: NodeId(c.u32("node id")?),
            },
            TAG_SET_LABEL => GraphMutation::SetLabel {
                node: NodeId(c.u32("node id")?),
                label: c.string("node label")?,
            },
            TAG_SET_WEIGHT => GraphMutation::SetWeight {
                from: NodeId(c.u32("node id")?),
                to: NodeId(c.u32("node id")?),
                weight: c.f64("edge weight")?,
            },
            TAG_REMOVE_NODE => GraphMutation::RemoveNode {
                node: NodeId(c.u32("node id")?),
            },
            tag => return Err(corrupt(format!("unknown mutation tag {tag}"))),
        };
        batch.push(mutation);
    }
    if !c.is_done() {
        return Err(corrupt(format!(
            "{} trailing bytes after final op",
            c.remaining()
        )));
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_slices() {
        let mut buf = Vec::new();
        put_u16(&mut buf, 513);
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, 0.1 + 0.2);
        put_str(&mut buf, "BANKS");
        put_u32_slice(&mut buf, &[1, 2, 3]);
        put_f64_slice(&mut buf, &[1.5, -2.5]);

        let mut c = Cursor::new(&buf, 0);
        assert_eq!(c.u16("t").unwrap(), 513);
        assert_eq!(c.u32("t").unwrap(), 7);
        assert_eq!(c.u64("t").unwrap(), u64::MAX - 1);
        assert_eq!(c.f64("t").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(c.string("t").unwrap(), "BANKS");
        assert_eq!(c.u32_vec(3, "t").unwrap(), vec![1, 2, 3]);
        assert_eq!(c.f64_vec(2, "t").unwrap(), vec![1.5, -2.5]);
        assert!(c.is_done());
    }

    #[test]
    fn truncated_reads_are_typed() {
        let mut c = Cursor::new(&[1, 2], 100);
        assert_eq!(
            c.u32("header"),
            Err(CodecError::Truncated {
                offset: 100,
                region: "header"
            })
        );
        // An element count that overflows the byte length is a truncation.
        assert!(matches!(
            c.u32_vec(usize::MAX, "ids"),
            Err(CodecError::Truncated { offset: 100, .. })
        ));
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX / 2);
        let mut c = Cursor::new(&buf, 0);
        assert!(matches!(
            c.count(8, "postings"),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_utf8_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut c = Cursor::new(&buf, 0);
        assert!(matches!(c.string("label"), Err(CodecError::Corrupt { .. })));
    }

    fn sample_batch() -> MutationBatch {
        MutationBatch::new()
            .add_node("paper", "Keyword Searching and Browsing")
            .add_edge(NodeId(0), NodeId(1))
            .add_edge_weighted(NodeId(1), NodeId(2), 2.5)
            .remove_edge(NodeId(3), NodeId(4))
            .set_label(NodeId(5), "renamed")
            .set_weight(NodeId(6), NodeId(7), 0.125)
            .remove_node(NodeId(8))
    }

    #[test]
    fn round_trips_every_op_kind() {
        let batch = sample_batch();
        let decoded = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(decoded, batch);
    }

    #[test]
    fn round_trips_empty_batch_and_empty_strings() {
        let empty = MutationBatch::new();
        assert_eq!(decode_batch(&encode_batch(&empty)).unwrap(), empty);
        let blank = MutationBatch::new().add_node("", "");
        assert_eq!(decode_batch(&encode_batch(&blank)).unwrap(), blank);
    }

    #[test]
    fn weight_bit_patterns_survive_exactly() {
        let w = 0.1f64 + 0.2f64; // a value with an awkward binary expansion
        let batch = MutationBatch::new().set_weight(NodeId(0), NodeId(1), w);
        let decoded = decode_batch(&encode_batch(&batch)).unwrap();
        match decoded.ops()[0] {
            GraphMutation::SetWeight { weight, .. } => {
                assert_eq!(weight.to_bits(), w.to_bits());
            }
            ref other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let bytes = encode_batch(&sample_batch());
        for cut in 0..bytes.len() {
            match decode_batch(&bytes[..cut]) {
                Err(GraphError::ParseError { .. }) => {}
                Ok(_) => panic!("decoding a {cut}-byte prefix must not succeed"),
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_version_tag_and_trailing_bytes_are_rejected() {
        let mut bytes = encode_batch(&sample_batch());
        bytes[0] = 99;
        assert!(matches!(
            decode_batch(&bytes),
            Err(GraphError::ParseError { line: 0, .. })
        ));

        let mut bytes = encode_batch(&MutationBatch::new().remove_edge(NodeId(0), NodeId(1)));
        bytes[5] = 200; // op tag
        assert!(matches!(
            decode_batch(&bytes),
            Err(GraphError::ParseError { line: 1, .. })
        ));

        let mut bytes = encode_batch(&MutationBatch::new());
        bytes.push(0);
        assert!(decode_batch(&bytes).is_err());
    }

    #[test]
    fn bogus_op_count_is_rejected_without_allocation_blowup() {
        let mut bytes = vec![CODEC_VERSION];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_batch(&bytes),
            Err(GraphError::ParseError { .. })
        ));
    }
}
