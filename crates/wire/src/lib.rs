//! # nrsnn-wire
//!
//! The serving schema of the NRSNN reproduction and its binary codecs.
//! Every serving-protocol message ([`Request`], [`Response`] and their
//! parts) and every model part ([`ModelRecord`], [`LayerSpec`],
//! [`NoiseSpec`]) is defined here, once, next to its binary encoding: a
//! length-prefixed, versioned framing for the messages, a sparse
//! spike-raster codec, and the binary on-disk model format (`NRSM`).
//! `nrsnn-serve` re-exports these types and adds the newline-delimited JSON
//! codec, the negotiated fallback wire; the binary encoding here is the
//! byte-exact one (floats as raw little-endian bits, not decimal text;
//! spike rasters as an index/value split, not nested arrays).
//!
//! ## Correctness bar
//!
//! Every codec here is **bit-exact**: `decode(encode(x))` reproduces `x`
//! down to the sign of a negative zero and the last bit of a subnormal, and
//! seeds travel as full 64-bit integers so values above 2^53 survive (JSON
//! numbers are IEEE doubles and silently truncate them).  The property
//! suite in `tests/roundtrip_proptest.rs` pins this per frame type, the
//! golden files under `tests/golden/` pin the byte layout itself, and the
//! adversarial suite in `tests/adversarial.rs` pins decoder behaviour on
//! hostile input (truncation, oversized length prefixes, corrupt bytes):
//! always a typed [`WireError`], never a panic, a hang or an unbounded
//! allocation.
//!
//! ## Layout overview
//!
//! ```text
//! frame   := magic:u8 (0xB5)  version:u8  payload_len:u32le  payload
//! payload := tag:u8  body            (see `frame` module for every tag)
//! model   := "NRSM"  version:u8  body (see `model` module)
//! ```
//!
//! Scalars are little-endian; `f32`/`f64` travel as their raw IEEE bits via
//! `to_bits`/`from_bits`.  Strings are UTF-8 with a `u32` byte-length
//! prefix; sequences carry a `u32` element count.  A decoder rejects any
//! length prefix that exceeds the bytes actually present **before**
//! allocating, so a hostile 4 GiB length prefix costs nothing.
//!
//! ## Versioning
//!
//! [`WIRE_VERSION`] (frames) and [`MODEL_VERSION`] (model files) are single
//! bytes checked on decode; an unknown version is a typed
//! [`WireError::UnsupportedVersion`], never a best-effort parse.  Bumping a
//! version requires re-blessing the golden fixtures (see
//! `tests/golden.rs`).

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod bytes;
pub mod frame;
pub mod model;
pub mod raster;

pub use bytes::{ByteReader, ByteWriter};
pub use frame::{
    decode_frame, decode_payload, encode_frame, encode_payload, read_frame, write_frame, Frame,
    FrameHeader, InferenceReply, Request, RequestTrace, Response, ServerStats, StageLatency,
    TraceSpan, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_LEN, WIRE_VERSION,
};
pub use model::{
    decode_model, encode_model, LayerSpec, ModelRecord, NoiseSpec, MODEL_MAGIC, MODEL_VERSION,
};
pub use raster::{decode_raster, encode_raster, read_raster, write_raster, MAX_RASTER_DIM};

use std::error::Error;
use std::fmt;

/// Everything a wire decoder can reject (and the I/O failures of the
/// streaming helpers).  Every variant is a *typed* refusal: hostile bytes
/// can produce any of these but never a panic or an attacker-sized
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced structure did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were actually left.
        have: usize,
    },
    /// The first byte of a frame (or the 4-byte model preamble) did not
    /// carry the expected magic.
    BadMagic {
        /// The byte that was found where the magic belonged.
        found: u8,
    },
    /// The format version byte is not one this build understands.
    UnsupportedVersion {
        /// The version byte that was found.
        found: u8,
    },
    /// A frame announced a payload larger than [`MAX_FRAME_LEN`]; rejected
    /// before any allocation.
    FrameTooLarge {
        /// The announced payload length.
        len: u64,
        /// The enforced cap.
        max: u64,
    },
    /// The payload tag byte does not name a known frame type.
    UnknownTag {
        /// The unknown tag.
        tag: u8,
    },
    /// The bytes were structurally readable but semantically invalid
    /// (unsorted spike train, out-of-range index, non-UTF-8 string, …).
    InvalidPayload(String),
    /// Decoding consumed the structure but bytes were left over — the
    /// encoding is self-delimiting, so trailing garbage is corruption.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
    /// An I/O failure in the streaming `read_frame`/`write_frame` helpers.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic { found } => write!(f, "bad magic byte 0x{found:02X}"),
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::UnknownTag { tag } => write!(f, "unknown frame tag 0x{tag:02X}"),
            WireError::InvalidPayload(msg) => write!(f, "invalid payload: {msg}"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete structure")
            }
            WireError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, WireError>;
