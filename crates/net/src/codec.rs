//! Length-prefixed wire frames in each message's own fixed layout.
//!
//! The transport sends every protocol message as one *frame*: a
//! little-endian `u32` body length, then the body — the send sequence
//! number, sender, receiver and send round as little-endian `u64`s, then the
//! payload as its [`Wire`] implementation lays it out. There is no tag per
//! field and no self-description: a payload type knows its own layout, so a
//! protocol message costs its fields' bytes and a variant tag. The encoding
//! is deterministic (floats travel as their exact `f64::to_bits` image), so
//! the bytes-on-the-wire figure reported by `exp_net` is a pure function of
//! the protocol trace.
//!
//! Decoding is written for a hostile peer: [`FrameDecoder`] buffers partial
//! reads until a full frame is available and rejects frames beyond
//! [`DEFAULT_MAX_FRAME`] before buffering their bodies, and every read of a
//! [`WireReader`] is bounds-checked, so a truncated, trailing-garbage or
//! unknown-tag frame yields a [`CodecError`] instead of a panic.

use std::fmt;
use tsa_sim::{Envelope, NodeId, Round};

/// Default bound on a single frame's body size (1 MiB) — vastly above any
/// real protocol message, but small enough that a corrupt length prefix
/// cannot make the decoder buffer gigabytes.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Bytes of the `u32` length prefix preceding every frame body.
pub const FRAME_HEADER_LEN: usize = 4;

/// A framing or decoding failure. All variants are recoverable errors — the
/// codec never panics on wire input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The length prefix announced a body larger than the decoder's bound.
    Oversized {
        /// The announced body length.
        len: usize,
        /// The decoder's configured bound.
        max: usize,
    },
    /// The body was structurally invalid: truncated, an unknown variant tag,
    /// invalid UTF-8, or trailing bytes.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds bound of {max}")
            }
            CodecError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A type with a fixed little-endian wire layout: what the transport can
/// carry as a payload.
pub trait Wire: Sized {
    /// Appends this value's layout to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value back, consuming exactly the bytes
    /// [`encode`](Wire::encode) wrote.
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, CodecError>;
}

/// A cursor over a frame body; every read is bounds-checked.
///
/// Its reads and the scalar [`Wire`] impls below are `#[inline]`: a payload
/// type in another crate calls them once per field, and folding them into
/// its encoder and decoder halves the time of both.
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Takes the next `n` bytes, or fails if fewer are left.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() {
            return Err(CodecError::Malformed("truncated body"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Takes the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads one byte: a variant tag.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads one `T`.
    pub fn read<T: Wire>(&mut self) -> Result<T, CodecError> {
        T::decode(self)
    }
}

impl Wire for u32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, CodecError> {
        reader.array().map(u32::from_le_bytes)
    }
}

impl Wire for u64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, CodecError> {
        reader.array().map(u64::from_le_bytes)
    }
}

/// Bit-exact: NaN payloads, signed zeros and subnormals travel unchanged.
impl Wire for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, CodecError> {
        reader.read().map(f64::from_bits)
    }
}

impl Wire for NodeId {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }
    #[inline]
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, CodecError> {
        reader.read().map(NodeId)
    }
}

/// A `u32` byte length, then the UTF-8 bytes.
impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len())
            .expect("a wire string is shorter than 4 GiB")
            .encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = reader.read::<u32>()? as usize;
        let bytes = reader.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed("invalid UTF-8"))
    }
}

/// Appends `(seq, envelope)` as one complete frame to `out`, returning the
/// frame's total on-the-wire length (header included).
///
/// The sequence number travels with the message because it is the message's
/// *identity* in a [`MessageTrace`](tsa_event::MessageTrace) — the receiver
/// records fates against it.
pub fn encode_wire_frame<M: Wire>(seq: u64, env: &Envelope<M>, out: &mut Vec<u8>) -> usize {
    encode_frame_parts(seq, env.from, env.to, env.sent_at, &env.payload, out)
}

/// [`encode_wire_frame`] from the envelope's parts: the transport encodes a
/// send straight from its outbox, with no envelope and no payload clone.
pub(crate) fn encode_frame_parts<M: Wire>(
    seq: u64,
    from: NodeId,
    to: NodeId,
    sent_at: Round,
    payload: &M,
    out: &mut Vec<u8>,
) -> usize {
    let header_at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    seq.encode(out);
    from.encode(out);
    to.encode(out);
    sent_at.encode(out);
    payload.encode(out);
    let frame_len = out.len() - header_at;
    let body_len = u32::try_from(frame_len - FRAME_HEADER_LEN).expect("a frame body fits a u32");
    out[header_at..header_at + FRAME_HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
    frame_len
}

/// Decodes a frame body back into `(seq, envelope)`.
///
/// The whole body must be consumed — trailing bytes are an error, so a frame
/// boundary slipping out of sync is caught at the first frame, not after
/// silently resynchronizing on garbage.
pub fn decode_wire_value<M: Wire>(body: &[u8]) -> Result<(u64, Envelope<M>), CodecError> {
    let mut reader = WireReader { buf: body };
    let seq = reader.read()?;
    let env = Envelope::new(
        reader.read()?,
        reader.read()?,
        reader.read()?,
        reader.read()?,
    );
    if !reader.buf.is_empty() {
        return Err(CodecError::Malformed("trailing bytes after payload"));
    }
    Ok((seq, env))
}

/// Incremental frame extraction over a byte stream delivered in arbitrary
/// chunks (the read side of a TCP connection).
///
/// Feed raw reads in with [`push`](FrameDecoder::push); pull frame bodies
/// out with [`next_frame`](FrameDecoder::next_frame) until it returns
/// `Ok(None)`. After an error the stream offset is meaningless and the
/// caller should drop the connection.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// A decoder enforcing the [`DEFAULT_MAX_FRAME`] body bound.
    pub fn new() -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
        }
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact once the consumed prefix dominates, amortizing the copy.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame's body, if one is buffered, as a
    /// slice of the decoder's buffer: nothing is allocated per frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed and `Err` as soon as the
    /// header announces a body beyond the bound.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, CodecError> {
        let pending = &self.buf[self.start..];
        let Some(header) = pending.first_chunk::<FRAME_HEADER_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > DEFAULT_MAX_FRAME {
            return Err(CodecError::Oversized {
                len,
                max: DEFAULT_MAX_FRAME,
            });
        }
        let Some(body) = pending.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len) else {
            return Ok(None);
        };
        self.start += FRAME_HEADER_LEN + len;
        Ok(Some(body))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }
}

impl Default for FrameDecoder {
    /// [`FrameDecoder::new`].
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame<M: Wire>(seq: u64, payload: M) -> Vec<u8> {
        let mut out = Vec::new();
        let env = Envelope::new(NodeId(3), NodeId(u64::MAX), 41, payload);
        assert_eq!(encode_wire_frame(seq, &env, &mut out), out.len());
        out
    }

    fn body(frame: &[u8]) -> &[u8] {
        &frame[FRAME_HEADER_LEN..]
    }

    #[test]
    fn a_frame_is_the_header_four_words_and_the_payload() {
        let bytes = frame(7, 0x0102_0304_0506_0708u64);
        assert_eq!(bytes.len(), FRAME_HEADER_LEN + 5 * 8);
        assert_eq!(bytes[..4], 40u32.to_le_bytes());
        assert_eq!(bytes[4..12], 7u64.to_le_bytes(), "seq first");
        assert_eq!(bytes[36..], 0x0102_0304_0506_0708u64.to_le_bytes());
        let text = frame(8, "héllo".to_string());
        assert_eq!(text.len(), FRAME_HEADER_LEN + 4 * 8 + 4 + "héllo".len());
    }

    #[test]
    fn u64_and_string_frames_round_trip() {
        for seq in [0, 1, u64::MAX] {
            let (got, env) = decode_wire_value::<u64>(body(&frame(seq, seq ^ 5))).unwrap();
            assert_eq!(
                (got, env.from, env.to, env.sent_at),
                (seq, NodeId(3), NodeId(u64::MAX), 41)
            );
            assert_eq!(env.payload, seq ^ 5);
        }
        for text in ["", "a", "héllo\nworld ✓🦀"] {
            let (_, env) = decode_wire_value::<String>(body(&frame(2, text.to_string()))).unwrap();
            assert_eq!(env.payload, text);
        }
    }

    #[test]
    fn a_frame_stream_splits_at_any_boundary() {
        let mut stream = frame(0, 10u64);
        stream.extend(frame(1, 11u64));
        stream.extend(frame(2, 12u64));
        // Deliver the stream one byte at a time — the cruelest segmentation.
        let mut dec = FrameDecoder::new();
        let mut seen = Vec::new();
        for byte in stream {
            dec.push(&[byte]);
            while let Some(body) = dec.next_frame().unwrap() {
                let (seq, env) = decode_wire_value::<u64>(body).unwrap();
                seen.push((seq, env.payload));
            }
        }
        assert_eq!(seen, [(0, 10), (1, 11), (2, 12)]);
        assert_eq!(dec.pending_len(), 0);
    }

    #[test]
    fn a_default_decoder_is_a_new_one() {
        let mut dec = FrameDecoder::default();
        dec.push(&frame(9, 90u64));
        let body = dec.next_frame().unwrap().expect("one whole frame");
        assert_eq!(decode_wire_value::<u64>(body).unwrap().0, 9);
        let past = DEFAULT_MAX_FRAME as u32 + 1;
        dec.push(&past.to_le_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_before_buffering() {
        // A body of exactly the bound is waited for; one byte more is
        // refused on its four header bytes alone.
        let mut dec = FrameDecoder::new();
        dec.push(&(DEFAULT_MAX_FRAME as u32).to_le_bytes());
        assert_eq!(dec.next_frame(), Ok(None));
        let mut dec = FrameDecoder::new();
        dec.push(&(DEFAULT_MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(CodecError::Oversized {
                len: DEFAULT_MAX_FRAME + 1,
                max: DEFAULT_MAX_FRAME
            })
        );
        assert_eq!(dec.pending_len(), FRAME_HEADER_LEN);
    }

    #[test]
    fn malformed_bodies_error_without_panicking() {
        fn error<M: Wire>(body: &[u8]) -> CodecError {
            decode_wire_value::<M>(body)
                .err()
                .expect("not a valid body")
        }
        let truncated = CodecError::Malformed("truncated body");
        let word = frame(1, 9u64);
        assert_eq!(error::<u64>(&[]), truncated);
        assert_eq!(error::<u64>(&body(&word)[..39]), truncated);
        let mut trailing = body(&word).to_vec();
        trailing.push(0);
        assert_eq!(
            error::<u64>(&trailing),
            CodecError::Malformed("trailing bytes after payload")
        );
        // A string length past the body's end, and bytes that are not UTF-8.
        let mut text = body(&frame(1, "ab".to_string())).to_vec();
        text[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(error::<String>(&text), truncated);
        text[32..36].copy_from_slice(&2u32.to_le_bytes());
        text[36] = 0xFF;
        assert_eq!(
            error::<String>(&text),
            CodecError::Malformed("invalid UTF-8")
        );
    }
}
