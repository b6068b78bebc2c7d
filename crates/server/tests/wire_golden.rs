//! Golden wire pins: both bundled traces served in memory through
//! `serve_session`, with the FNV-1a of the *whole* request and response
//! byte streams pinned — length prefixes, frame tags, the session token
//! and every CRC32C trailer included, not just the event payloads the
//! session checksum covers. Any change to a byte on the wire, in either
//! direction, fails here.

use codic_server::proto::{write_frame_crc, Fnv64, Frame, SessionParams};
use codic_server::server::{serve_session, ServerConfig, SessionEnd};
use codic_server::trace::parse_trace;

/// The request a default client sends for `trace`: `Hello`, the trace
/// in batches of 1024, `Bye`.
fn request(trace: &str, hello: SessionParams) -> Vec<u8> {
    let ops = parse_trace(trace).expect("bundled trace parses");
    let mut wire = Vec::new();
    write_frame_crc(&mut wire, &Frame::Hello(hello)).unwrap();
    for chunk in ops.chunks(1024) {
        write_frame_crc(&mut wire, &Frame::Batch(chunk.to_vec())).unwrap();
    }
    write_frame_crc(&mut wire, &Frame::Bye).unwrap();
    wire
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.value()
}

/// Serves `trace` and checks `(request len, request hash, response len,
/// response hash)` against the pin.
fn assert_pinned(
    trace: &str,
    hello: SessionParams,
    config: &ServerConfig,
    pin: (usize, u64, usize, u64),
) {
    let input = request(trace, hello);
    let mut output = Vec::new();
    let end = serve_session(&mut input.as_slice(), &mut output, config).unwrap();
    assert!(matches!(end, SessionEnd::Bye), "session end: {end:?}");
    let got = (input.len(), fnv(&input), output.len(), fnv(&output));
    assert_eq!(
        got, pin,
        "wire bytes moved: got ({}, {:#018x}, {}, {:#018x})",
        got.0, got.1, got.2, got.3
    );
}

#[test]
fn mixed_trace_wire_bytes_are_pinned() {
    assert_pinned(
        include_str!("../traces/sample_mixed.trace"),
        SessionParams::defaults(),
        &ServerConfig::default(),
        (18_508, 0x0db7_a911_0865_11f8, 84_179, 0x319f_ebb2_4ab5_3e61),
    );
}

#[test]
fn bitwise_trace_wire_bytes_are_pinned() {
    assert_pinned(
        include_str!("../traces/sample_bitwise.trace"),
        SessionParams {
            compute_rows: 64,
            ..SessionParams::defaults()
        },
        &ServerConfig {
            compute_rows: 64,
            ..ServerConfig::default()
        },
        (16_462, 0x55dc_b51b_d600_a908, 62_117, 0x639e_8da8_7055_4066),
    );
}
