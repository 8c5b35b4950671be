//! Property tests for the wire codec over the two payloads `tsa-net` carries
//! itself, `u64` and `String`: random frames must round-trip exactly — whole,
//! split at every byte boundary, and interleaved in one stream — every
//! strict prefix of a frame must read as incomplete or fail with a typed
//! error, and no corruption of a valid stream may ever panic the decoder.

use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestRng};
use tsa_net::{
    decode_wire_value, encode_wire_frame, CodecError, FrameDecoder, DEFAULT_MAX_FRAME,
    FRAME_HEADER_LEN,
};
use tsa_sim::{Envelope, NodeId};

/// A frame's payload: either of the two types, so one stream interleaves
/// fixed-size and length-prefixed layouts.
#[derive(Clone, Debug, PartialEq)]
enum Payload {
    Word(u64),
    Text(String),
}

/// One frame as sent: its sequence number, envelope header and payload.
#[derive(Clone, Debug, PartialEq)]
struct Sent {
    seq: u64,
    from: u64,
    to: u64,
    sent_at: u64,
    payload: Payload,
}

/// Random frames. Header words are raw 64-bit draws; strings mix ASCII with
/// multi-byte UTF-8, the empty string included.
struct Frame;

impl Strategy for Frame {
    type Value = Sent;

    fn generate(&self, rng: &mut TestRng) -> Sent {
        const ALPHABET: [char; 8] = ['a', 'z', '0', ' ', 'λ', 'é', '✓', '🦀'];
        let payload = if rng.next_u64() & 1 == 0 {
            Payload::Word(rng.next_u64())
        } else {
            Payload::Text(
                (0..rng.next_u64() % 12)
                    .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize])
                    .collect(),
            )
        };
        Sent {
            seq: rng.next_u64(),
            from: rng.next_u64(),
            to: rng.next_u64(),
            sent_at: rng.next_u64(),
            payload,
        }
    }
}

/// Appends `sent` as one frame to `out`.
fn encode(sent: &Sent, out: &mut Vec<u8>) {
    fn envelope<M>(sent: &Sent, payload: M) -> Envelope<M> {
        Envelope::new(NodeId(sent.from), NodeId(sent.to), sent.sent_at, payload)
    }
    match &sent.payload {
        Payload::Word(word) => encode_wire_frame(sent.seq, &envelope(sent, *word), out),
        Payload::Text(text) => encode_wire_frame(sent.seq, &envelope(sent, text.clone()), out),
    };
}

fn frame(sent: &Sent) -> Vec<u8> {
    let mut out = Vec::new();
    encode(sent, &mut out);
    out
}

/// Decodes a body as the payload type `like` carries.
fn decode(body: &[u8], like: &Payload) -> Result<Sent, CodecError> {
    fn sent<M>((seq, env): (u64, Envelope<M>), payload: fn(M) -> Payload) -> Sent {
        Sent {
            seq,
            from: env.from.raw(),
            to: env.to.raw(),
            sent_at: env.sent_at,
            payload: payload(env.payload),
        }
    }
    match like {
        Payload::Word(_) => decode_wire_value::<u64>(body).map(|got| sent(got, Payload::Word)),
        Payload::Text(_) => decode_wire_value::<String>(body).map(|got| sent(got, Payload::Text)),
    }
}

/// Feeds `pieces` to a fresh decoder and decodes every frame it yields, each
/// as the type of the frame sent in its place.
fn receive<'a>(pieces: impl IntoIterator<Item = &'a [u8]>, sent: &[Sent]) -> Vec<Sent> {
    let mut decoder = FrameDecoder::new();
    let mut got = Vec::new();
    for piece in pieces {
        decoder.push(piece);
        while let Some(body) = decoder.next_frame().expect("valid frames decode") {
            got.push(decode(body, &sent[got.len()].payload).expect("valid bodies decode"));
        }
    }
    assert_eq!(decoder.pending_len(), 0, "nothing left over");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn interleaved_frames_round_trip_whole_and_split_anywhere(
        sent in proptest::collection::vec(Frame, 1..6),
        chunk in 1usize..17,
    ) {
        let mut stream = Vec::new();
        for frame in &sent {
            encode(frame, &mut stream);
        }
        prop_assert_eq!(&receive([&stream[..]], &sent), &sent);
        prop_assert_eq!(&receive(stream.chunks(chunk), &sent), &sent);
        for cut in 0..=stream.len() {
            let (head, tail) = stream.split_at(cut);
            prop_assert_eq!(&receive([head, tail], &sent), &sent, "split at {}", cut);
        }
    }

    #[test]
    fn every_strict_prefix_of_a_frame_is_incomplete_or_an_error(sent in Frame) {
        let frame = frame(&sent);
        for cut in 0..frame.len() {
            let mut decoder = FrameDecoder::new();
            decoder.push(&frame[..cut]);
            prop_assert_eq!(decoder.next_frame(), Ok(None), "prefix of {} bytes", cut);
        }
        // The body alone, cut anywhere: every field has a determined length,
        // so a shortened body can never decode as some other frame.
        let body = &frame[FRAME_HEADER_LEN..];
        for cut in 0..body.len() {
            let got = decode(&body[..cut], &sent.payload);
            prop_assert!(
                matches!(got, Err(CodecError::Malformed(_))),
                "body prefix of {cut} bytes gave {got:?}"
            );
        }
    }

    #[test]
    fn one_trailing_byte_is_malformed(sent in Frame, extra in 0u8..=255) {
        let mut frame = frame(&sent);
        frame.push(extra);
        let body_len = (frame.len() - FRAME_HEADER_LEN) as u32;
        frame[..FRAME_HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame);
        let body = decoder.next_frame().expect("within the bound").expect("complete");
        prop_assert_eq!(
            decode(body, &sent.payload),
            Err(CodecError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn an_oversized_header_is_refused_before_its_body(
        over in 1..=u32::MAX - DEFAULT_MAX_FRAME as u32,
    ) {
        let len = DEFAULT_MAX_FRAME as u32 + over;
        let mut decoder = FrameDecoder::new();
        decoder.push(&len.to_le_bytes());
        prop_assert_eq!(
            decoder.next_frame(),
            Err(CodecError::Oversized { len: len as usize, max: DEFAULT_MAX_FRAME })
        );
    }

    #[test]
    fn corrupted_streams_never_panic(
        sent in proptest::collection::vec(Frame, 1..4),
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..4),
    ) {
        // Flipped bits may still decode (a header word's raw bytes), but the
        // decoder has no panic or overflow path on arbitrary input: headers
        // included in the flips, every body read as both payload types.
        let mut stream = Vec::new();
        for frame in &sent {
            encode(frame, &mut stream);
        }
        for (at, bit) in flips {
            let at = at % stream.len();
            stream[at] ^= 1 << bit;
        }
        let mut decoder = FrameDecoder::new();
        decoder.push(&stream);
        while let Ok(Some(body)) = decoder.next_frame() {
            let _ = decode(body, &Payload::Word(0));
            let _ = decode(body, &Payload::Text(String::new()));
        }
    }
}
