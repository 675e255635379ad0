//! Wire-protocol robustness suite: random round-trips and hostile bytes.
//!
//! Two families:
//!
//! * **Round-trip properties** — random frames and random schema payloads
//!   must survive encode → decode bit-exactly, including several frames
//!   back-to-back in one stream (the real connection shape).
//!
//! * **Corruption / truncation fuzz** — any mutilation of a valid byte
//!   stream (cut anywhere, any byte flipped, or plain random bytes) must
//!   produce a clean typed [`WireError`], never a panic and never an
//!   oversized allocation. The daemon shares this exact decode path, so
//!   these properties are what keeps a hostile client from taking a
//!   tenant down.

use carp_service::service::PlanResponse;
use carp_service::wire::schema;
use carp_service::wire::{
    read_frame, write_frame, FrameDecoder, FrameKind, WireError, HEADER_LEN, VERSION,
};
use carp_warehouse::request::{QueryKind, Request};
use carp_warehouse::route::Route;
use carp_warehouse::types::Cell;
use proptest::prelude::*;

const ALL_KINDS: [FrameKind; 12] = [
    FrameKind::Submit,
    FrameKind::SubmitAck,
    FrameKind::PlanReply,
    FrameKind::Advance,
    FrameKind::AdvanceReply,
    FrameKind::Cancel,
    FrameKind::CancelReply,
    FrameKind::MetricsQuery,
    FrameKind::MetricsReply,
    FrameKind::ErrorReply,
    FrameKind::TailLog,
    FrameKind::LogChunk,
];

fn encode(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, kind, payload).expect("in-memory write");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stream of random frames decodes back frame-for-frame, then EOFs
    /// cleanly.
    #[test]
    fn random_frames_round_trip_back_to_back(
        frames in proptest::collection::vec(
            (0usize..12, proptest::collection::vec(0u8..=255, 0..200)),
            1..6,
        ),
    ) {
        let mut stream = Vec::new();
        for (k, payload) in &frames {
            stream.extend_from_slice(&encode(ALL_KINDS[*k], payload));
        }
        let mut cursor = stream.as_slice();
        for (k, payload) in &frames {
            let (kind, got) = read_frame(&mut cursor)
                .expect("valid frame decodes")
                .expect("frame present");
            prop_assert_eq!(kind, ALL_KINDS[*k]);
            prop_assert_eq!(&got, payload);
        }
        prop_assert_eq!(read_frame(&mut cursor).expect("clean EOF"), None);
    }

    /// Cutting a valid single-frame stream anywhere yields `Truncated`
    /// (or a clean EOF when nothing was sent at all).
    #[test]
    fn any_truncation_is_a_clean_typed_error(
        k in 0usize..12,
        payload in proptest::collection::vec(0u8..=255, 0..200),
        cut_seed in 0u64..10_000,
    ) {
        let stream = encode(ALL_KINDS[k], &payload);
        let cut = (cut_seed as usize) % stream.len(); // < full frame
        let mut cursor = &stream[..cut];
        let got = read_frame(&mut cursor);
        if cut == 0 {
            prop_assert_eq!(got, Ok(None));
        } else {
            prop_assert_eq!(got, Err(WireError::Truncated));
        }
    }

    /// Flipping any single byte of a valid frame never panics: the reader
    /// either reports a typed header error, or hands the (corrupt) payload
    /// to the schema layer, which must also fail typed-only.
    #[test]
    fn any_single_byte_flip_never_panics(
        k in 0usize..12,
        payload in proptest::collection::vec(0u8..=255, 0..120),
        pos_seed in 0u64..10_000,
        flip in 1u8..=255,
    ) {
        let mut stream = encode(ALL_KINDS[k], &payload);
        let pos = (pos_seed as usize) % stream.len();
        stream[pos] ^= flip;
        let mut cursor = stream.as_slice();
        if let Ok(Some((kind, body))) = read_frame(&mut cursor) {
            // Header survived (the flip hit the payload, or mutated the
            // header into another valid one): every schema decoder must
            // digest the corrupt payload without panicking.
            exercise_schema_decoders(kind, &body);
        }
    }

    /// Plain random bytes into the frame reader: typed error or clean EOF.
    #[test]
    fn random_bytes_never_panic_the_frame_reader(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut cursor = bytes.as_slice();
        let _ = read_frame(&mut cursor); // must return, not panic
    }

    /// Random bytes into every schema decoder: typed error or a valid
    /// parse, never a panic.
    #[test]
    fn random_bytes_never_panic_the_schema_layer(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
        k in 0usize..12,
    ) {
        exercise_schema_decoders(ALL_KINDS[k], &bytes);
    }

    /// Submit payloads round-trip exactly: tenant id and every request
    /// field.
    #[test]
    fn submit_round_trips(
        tenant_seed in 0u64..1_000_000,
        id in 0u64..u64::MAX,
        t in 0u32..1_000_000,
        endpoints in (0u16..500, 0u16..500, 0u16..500, 0u16..500),
        kind in 0usize..3,
    ) {
        let (orow, ocol, drow, dcol) = endpoints;
        let tenant = format!("W-{tenant_seed}");
        let kind = [QueryKind::Pickup, QueryKind::Transmission, QueryKind::Return][kind];
        let request = Request::new(
            id,
            t,
            Cell::new(orow, ocol),
            Cell::new(drow, dcol),
            kind,
        );
        let payload = schema::encode_submit(&tenant, &request);
        let (got_tenant, got_request) = schema::decode_submit(&payload).expect("round trip");
        prop_assert_eq!(got_tenant, tenant.as_str());
        prop_assert_eq!(got_request, request);
    }

    /// Planned-route replies round-trip exactly through the zero-copy
    /// route view, for arbitrary cell sequences.
    #[test]
    fn plan_reply_round_trips(
        id in 0u64..u64::MAX,
        start in 0u32..1_000_000,
        cells in proptest::collection::vec((0u16..400, 0u16..400), 0..64),
    ) {
        let route = Route::new(
            start,
            cells.iter().map(|&(r, c)| Cell::new(r, c)).collect(),
        );
        let response = PlanResponse::Planned(route.clone());
        let payload = schema::encode_plan_reply(id, &response);
        let (got_id, verdict) = schema::decode_plan_reply(&payload).expect("round trip");
        prop_assert_eq!(got_id, id);
        match verdict.into_response() {
            PlanResponse::Planned(got) => prop_assert_eq!(got, route),
            other => prop_assert!(false, "verdict decoded as {other:?}"),
        }
    }
}

/// Feed `body` to the schema decoder matching `kind` (and, for reply
/// kinds, the decoder a confused peer would apply). Every decoder must
/// return, never panic — the return value itself is irrelevant here.
fn exercise_schema_decoders(kind: FrameKind, body: &[u8]) {
    match kind {
        FrameKind::Submit => {
            let _ = schema::decode_submit(body);
        }
        FrameKind::SubmitAck => {
            let _ = schema::decode_submit_ack(body);
        }
        FrameKind::PlanReply => {
            let _ = schema::decode_plan_reply(body);
        }
        FrameKind::Advance => {
            let _ = schema::decode_advance(body);
        }
        FrameKind::AdvanceReply => {
            let _ = schema::decode_advance_reply(body);
        }
        FrameKind::Cancel => {
            let _ = schema::decode_cancel(body);
        }
        FrameKind::CancelReply => {
            let _ = schema::decode_cancel_reply(body);
        }
        FrameKind::MetricsQuery => {
            let _ = schema::decode_metrics_query(body);
        }
        FrameKind::MetricsReply => {
            let _ = schema::decode_metrics_reply(body);
        }
        FrameKind::ErrorReply => {
            let _ = schema::decode_error_reply(body);
        }
        FrameKind::TailLog => {
            let _ = schema::decode_tail_log(body);
        }
        FrameKind::LogChunk => {
            // The chunk view defers record parsing; force it so corrupt
            // embedded records are digested too.
            if let Ok(view) = schema::decode_log_chunk(body) {
                let _ = view.records();
            }
        }
    }
}

/// What a full decode of `stream` produced: every frame that came out, and
/// how the stream ended (clean EOF or a typed error).
type Decoded = (Vec<(FrameKind, Vec<u8>)>, Result<(), WireError>);

/// Decode `stream` the way the per-connection thread model does: blocking
/// [`read_frame`] calls until clean EOF or a typed error.
fn decode_blocking(stream: &[u8]) -> Decoded {
    let mut cursor = stream;
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut cursor) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Ok(())),
            Err(err) => return (frames, Err(err)),
        }
    }
}

/// Decode `stream` the way the reactor does: nonblocking reads deliver the
/// bytes in arbitrary segments (`cuts` are split offsets, modulo-mapped
/// into the stream), each pushed into a [`FrameDecoder`] and drained; EOF
/// is judged by `finish`.
fn decode_segmented(stream: &[u8], cuts: &[usize]) -> Decoded {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
    bounds.push(stream.len());
    bounds.sort_unstable();
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    let mut start = 0;
    for &end in &bounds {
        decoder.push(&stream[start..end]);
        start = end;
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(err) => return (frames, Err(err)),
            }
        }
    }
    (frames, decoder.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Worst-case TCP segmentation — every byte its own read — must yield
    /// exactly the frames that went in, judged clean at EOF, identical to
    /// the blocking path.
    #[test]
    fn byte_by_byte_reassembly_matches_blocking(
        frames in proptest::collection::vec(
            (0usize..12, proptest::collection::vec(0u8..=255, 0..120)),
            1..5,
        ),
    ) {
        let mut stream = Vec::new();
        for (k, payload) in &frames {
            stream.extend_from_slice(&encode(ALL_KINDS[*k], payload));
        }
        let every_byte: Vec<usize> = (0..stream.len()).collect();
        let (got, terminal) = decode_segmented(&stream, &every_byte);
        prop_assert_eq!(terminal, Ok(()));
        prop_assert_eq!(got.len(), frames.len());
        for ((kind, body), (k, payload)) in got.iter().zip(frames.iter()) {
            prop_assert_eq!(*kind, ALL_KINDS[*k]);
            prop_assert_eq!(body, payload);
        }
        prop_assert_eq!(decode_segmented(&stream, &every_byte), decode_blocking(&stream));
    }

    /// Any byte stream — valid frames, truncated mid-frame, or with a byte
    /// flipped anywhere — decodes to the *same* frame sequence and the
    /// *same* terminal verdict through the reactor's incremental decoder
    /// as through the blocking reader, at any segmentation.
    #[test]
    fn adversarial_segmentation_matches_blocking(
        frames in proptest::collection::vec(
            (0usize..12, proptest::collection::vec(0u8..=255, 0..120)),
            0..4,
        ),
        cut_seed in 0u64..10_000,
        flip_pos in 0u64..10_000,
        flip_bits in 0u8..=255, // 0 = leave the stream intact
        cuts in proptest::collection::vec(0usize..5_000, 0..8),
    ) {
        let mut stream = Vec::new();
        for (k, payload) in &frames {
            stream.extend_from_slice(&encode(ALL_KINDS[*k], payload));
        }
        // Mutilate: maybe cut the tail off, maybe flip one byte.
        stream.truncate((cut_seed as usize) % (stream.len() + 1));
        if !stream.is_empty() {
            let pos = (flip_pos as usize) % stream.len();
            stream[pos] ^= flip_bits;
        }
        prop_assert_eq!(decode_segmented(&stream, &cuts), decode_blocking(&stream));
    }
}

/// A frame whose header declares an absurd payload length must be rejected
/// from the length field alone — no allocation, no read attempt.
#[test]
fn oversize_length_is_rejected_before_allocation() {
    let mut header = Vec::new();
    header.extend_from_slice(b"CARP");
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&1u16.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(header.len(), HEADER_LEN);
    let mut cursor = header.as_slice();
    assert_eq!(read_frame(&mut cursor), Err(WireError::Oversize(u32::MAX)));
}
