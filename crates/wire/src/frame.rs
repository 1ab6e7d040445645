//! The `cpw1` wire protocol: length-prefixed, FNV-checksummed binary
//! frames over TCP.
//!
//! Every frame is
//!
//! ```text
//! magic  4 bytes  b"cpw1"            (protocol + major version)
//! kind   1 byte   message discriminant
//! len    4 bytes  payload length, little-endian u32
//! sum    8 bytes  FNV-1a 64 of the payload, little-endian
//! payload len bytes
//! ```
//!
//! and the decoder is *incremental*: fed any byte prefix it either yields
//! a complete frame and the bytes consumed, asks for more input, or
//! rejects the stream — it never panics and never allocates for a frame
//! it has already decided to reject (the length field is validated
//! against [`MAX_PAYLOAD`] and each kind's own size contract *before* any
//! payload handling). Same discipline as `conprobe-json`'s parser, same
//! fuzz-style test corpus.
//!
//! Protocol evolution: the magic carries the major version (`cpw1`); the
//! `hello`/`hello_ack` exchange carries a minor [`PROTO_VERSION`] so
//! compatible revisions can negotiate without re-framing.

use std::fmt;

/// Frame magic: protocol name + major version.
pub const MAGIC: [u8; 4] = *b"cpw1";

/// Minor protocol version carried in `hello`/`hello_ack`; both ends of
/// the protocol live in this repository, so a version is a clean break
/// and peers on different versions refuse each other at the handshake.
///
/// * 2 added keyed, pipelined operations (`write_q`/`read_q` and their
///   responses): a request carries a client-chosen request id echoed in
///   the response, plus a keyspace key the server maps onto a shard.
/// * 3 added the campaign dispatch family (`work_req`/`work_grant`/
///   `work_fin`/`result_push`/`result_ack`) spoken between a `dispatch`
///   coordinator and its `worker` peers.
/// * 4 added the `busy` load-shed frame: an overloaded server answers
///   (or greets) a client with `busy` instead of queueing it, and the
///   client retries with backoff.
/// * 5 made the keyed operations the only data-plane family: the
///   version-1 `write`/`write_ack`/`read`/`read_ok` kinds (numbers 2–5)
///   are retired and rejected as [`WireError::UnknownKind`] from the
///   kind byte alone, and `throttled` echoes the request id it refuses,
///   so a pipelined client FIFO-verifies it like any other response.
pub const PROTO_VERSION: u16 = 5;

/// Frame header size: magic + kind + len + checksum.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// Hard cap on payload size. A read of every post a 3-agent campaign can
/// produce fits in a few kilobytes; a megabyte means a corrupt or hostile
/// length field, and is rejected before any allocation.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// FNV-1a 64-bit — the same checksum the campaign journal uses.
pub use conprobe_json::frame::fnv64;

pub(crate) const KIND_HELLO: u8 = 0;
const KIND_HELLO_ACK: u8 = 1;
// 2–5 were the version-1 `write`/`write_ack`/`read`/`read_ok`; the
// numbers stay retired so an old peer is refused, never misread.
pub(crate) const KIND_THROTTLED: u8 = 6;
pub(crate) const KIND_STOP: u8 = 7;
const KIND_STOP_ACK: u8 = 8;
pub(crate) const KIND_WRITE_Q: u8 = 9;
pub(crate) const KIND_WRITE_Q_ACK: u8 = 10;
pub(crate) const KIND_READ_Q: u8 = 11;
pub(crate) const KIND_READ_Q_OK: u8 = 12;
const KIND_WORK_REQ: u8 = 13;
const KIND_WORK_GRANT: u8 = 14;
const KIND_WORK_FIN: u8 = 15;
const KIND_RESULT_PUSH: u8 = 16;
const KIND_RESULT_ACK: u8 = 17;
pub(crate) const KIND_BUSY: u8 = 18;
const KIND_MAX: u8 = KIND_BUSY;

/// One `cpw1` message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server greeting; doubles as the Cristian clock probe.
    Hello {
        /// The client's minor protocol version.
        proto: u16,
    },
    /// Server → client: version, hosted service token, and the server's
    /// clock reading (nanoseconds on the server's monotonic timeline) at
    /// the moment the hello was handled — the `agent_reading` of a
    /// [`ProbeSample`](conprobe_harness::clocksync::ProbeSample).
    HelloAck {
        /// The server's minor protocol version.
        proto: u16,
        /// Nanoseconds on the server's monotonic clock.
        server_clock_nanos: i64,
        /// Journal-style token of the hosted service (e.g. `blogger`).
        service: String,
    },
    /// Server → client: the request was refused by the rate limiter (a
    /// throttle-storm brownout) and had no effect.
    Throttled {
        /// The request id of the refused `write_q`/`read_q`.
        req: u32,
    },
    /// Client → server: begin a graceful drain of the whole server.
    Stop,
    /// Server → client: drain initiated.
    StopAck,
    /// Client → server (v2): a pipelined, keyed write. Many may be in
    /// flight on one connection; the server answers them in arrival
    /// order, each ack echoing `req`.
    WriteQ {
        /// Client-chosen request id, echoed in the ack.
        req: u32,
        /// Keyspace key; the server routes it to a shard.
        key: u32,
        /// Writing author (agent) id.
        author: u32,
        /// Author-local sequence number.
        seq: u32,
        /// The client's local timestamp for the post.
        client_ts_nanos: i64,
        /// Post body.
        content: String,
    },
    /// Server → client (v2): ack for a [`Frame::WriteQ`].
    WriteQAck {
        /// The request id of the write being acknowledged.
        req: u32,
        /// `PostId::as_u64()` of the created post.
        id: u64,
    },
    /// Client → server (v2): a pipelined, keyed feed read.
    ReadQ {
        /// Client-chosen request id, echoed in the response.
        req: u32,
        /// Keyspace key; the server routes it to a shard.
        key: u32,
    },
    /// Server → client (v2): the keyed feed for a [`Frame::ReadQ`].
    ReadQOk {
        /// The request id of the read being answered.
        req: u32,
        /// `PostId::as_u64()` for each post, in returned order.
        ids: Vec<u64>,
    },
    /// Worker → dispatcher (v2): request one unit of campaign work.
    WorkReq {
        /// The worker's self-assigned id (used only for progress labels).
        worker: u32,
    },
    /// Dispatcher → worker (v2): a leased work unit. The worker derives
    /// the instance config from its own identical campaign parameters;
    /// `seed` lets it verify both sides derived the same plan.
    WorkGrant {
        /// Campaign instance index to run.
        instance: u32,
        /// The instance's root seed, as derived by the dispatcher.
        seed: u64,
        /// Journal cell the result belongs to (e.g. `blogger/test1`).
        cell: String,
    },
    /// Dispatcher → worker (v2): no work remains; disconnect.
    WorkFin,
    /// Worker → dispatcher (v2): a finished unit's journal record —
    /// the exact JSON payload the worker would have written to a local
    /// campaign journal, pushed verbatim so the dispatcher's journal is
    /// byte-compatible with a single-process run.
    ResultPush {
        /// The journal record payload (JSON text).
        record: String,
    },
    /// Dispatcher → worker (v2): the pushed record is durably journaled;
    /// the worker may request the next unit.
    ResultAck,
    /// Server → client (v4): load shed. The server is over its accept
    /// backlog or connection budget and refuses to queue this client;
    /// the connection is closed right after the frame flushes. Clients
    /// treat it as retryable and back off at least `retry_after_millis`
    /// before reconnecting.
    Busy {
        /// Server's backoff hint, milliseconds.
        retry_after_millis: u32,
    },
}

/// A rejected byte stream. One variant per way a frame can be malformed;
/// incomplete input is *not* an error (the decoder returns `Ok(None)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream does not begin with the `cpw1` magic.
    BadMagic,
    /// Unknown message discriminant.
    UnknownKind(u8),
    /// Length field exceeds [`MAX_PAYLOAD`] (rejected before allocation).
    Oversized(u32),
    /// Length field contradicts the kind's payload contract.
    BadLength {
        /// The offending frame kind.
        kind: u8,
        /// The declared payload length.
        len: u32,
    },
    /// Payload checksum mismatch.
    BadChecksum,
    /// A string field is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "stream does not start with the cpw1 magic"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized(len) => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::BadLength { kind, len } => {
                write!(f, "payload length {len} is invalid for frame kind {kind}")
            }
            WireError::BadChecksum => write!(f, "payload checksum mismatch"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl Frame {
    /// Encodes the frame into a self-contained byte string.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 32);
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame to `out` — the write-batching entry
    /// point: an event loop coalesces many responses into one buffer and
    /// flushes them with a single `write`. Fields go straight into `out`;
    /// the keyed kinds share their writers with the hot loops.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { proto } => {
                append_frame_with(out, KIND_HELLO, |p| p.extend_from_slice(&proto.to_le_bytes()))
            }
            Frame::HelloAck { proto, server_clock_nanos, service } => {
                append_frame_with(out, KIND_HELLO_ACK, |p| {
                    p.extend_from_slice(&proto.to_le_bytes());
                    p.extend_from_slice(&server_clock_nanos.to_le_bytes());
                    p.extend_from_slice(service.as_bytes());
                })
            }
            Frame::Throttled { req } => {
                append_frame_with(out, KIND_THROTTLED, |p| p.extend_from_slice(&req.to_le_bytes()))
            }
            Frame::Stop => append_frame_with(out, KIND_STOP, |_| {}),
            Frame::StopAck => append_frame_with(out, KIND_STOP_ACK, |_| {}),
            Frame::WriteQ { req, key, author, seq, client_ts_nanos, content } => {
                append_write_q(out, *req, *key, *author, *seq, *client_ts_nanos, content)
            }
            Frame::WriteQAck { req, id } => append_write_q_ack(out, *req, *id),
            Frame::ReadQ { req, key } => append_read_q(out, *req, *key),
            Frame::ReadQOk { req, ids } => append_read_q_ok(out, *req, ids),
            Frame::WorkReq { worker } => append_frame_with(out, KIND_WORK_REQ, |p| {
                p.extend_from_slice(&worker.to_le_bytes())
            }),
            Frame::WorkGrant { instance, seed, cell } => {
                append_frame_with(out, KIND_WORK_GRANT, |p| {
                    p.extend_from_slice(&instance.to_le_bytes());
                    p.extend_from_slice(&seed.to_le_bytes());
                    p.extend_from_slice(cell.as_bytes());
                })
            }
            Frame::WorkFin => append_frame_with(out, KIND_WORK_FIN, |_| {}),
            Frame::ResultPush { record } => {
                append_frame_with(out, KIND_RESULT_PUSH, |p| p.extend_from_slice(record.as_bytes()))
            }
            Frame::ResultAck => append_frame_with(out, KIND_RESULT_ACK, |_| {}),
            Frame::Busy { retry_after_millis } => append_frame_with(out, KIND_BUSY, |p| {
                p.extend_from_slice(&retry_after_millis.to_le_bytes())
            }),
        }
    }
}

/// Appends one framed message to `out`: header, then whatever payload
/// `fill` writes, with the length and FNV checksum backpatched after the
/// payload is in place. This is the allocation-free encode path the hot
/// loops use (`fill` writes straight into the batch buffer).
fn append_frame_with(out: &mut Vec<u8>, kind: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&MAGIC);
    out.push(kind);
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 12]); // len + checksum, backpatched
    let payload_at = out.len();
    fill(out);
    let payload_len = out.len() - payload_at;
    debug_assert!(payload_len <= MAX_PAYLOAD, "outbound frame exceeds the payload cap");
    let sum = fnv64(&out[payload_at..]);
    out[len_at..len_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[len_at + 4..len_at + 12].copy_from_slice(&sum.to_le_bytes());
}

// The keyed payload layouts. Every keyed payload leads with the request
// id; the writers below and the readers after them are the only code
// that knows the offsets.
//
// ```text
// write_q      req u32 | key u32 | author u32 | seq u32 | client_ts i64 | content utf-8
// write_q_ack  req u32 | id u64
// read_q       req u32 | key u32
// read_q_ok    req u32 | id u64 ...
// throttled    req u32
// ```

/// Appends a framed `read_q_ok` response straight from an id slice — no
/// intermediate `Frame` or `Vec<u64>` on the server's hot read path.
pub fn append_read_q_ok(out: &mut Vec<u8>, req: u32, ids: &[u64]) {
    append_read_q_ok_iter(out, req, ids.iter().copied());
}

/// Iterator flavour of [`append_read_q_ok`]: the length is backpatched
/// after the ids are written, so the caller can stream ids from any
/// source (the server streams `PostId`s out of a shared snapshot) with
/// no intermediate collection.
pub fn append_read_q_ok_iter(out: &mut Vec<u8>, req: u32, ids: impl IntoIterator<Item = u64>) {
    append_frame_with(out, KIND_READ_Q_OK, |p| {
        p.extend_from_slice(&req.to_le_bytes());
        for id in ids {
            p.extend_from_slice(&id.to_le_bytes());
        }
    });
}

/// Appends a framed `write_q_ack` response.
pub fn append_write_q_ack(out: &mut Vec<u8>, req: u32, id: u64) {
    append_frame_with(out, KIND_WRITE_Q_ACK, |p| {
        p.extend_from_slice(&req.to_le_bytes());
        p.extend_from_slice(&id.to_le_bytes());
    });
}

/// Appends a framed `read_q` request.
pub fn append_read_q(out: &mut Vec<u8>, req: u32, key: u32) {
    append_frame_with(out, KIND_READ_Q, |p| {
        p.extend_from_slice(&req.to_le_bytes());
        p.extend_from_slice(&key.to_le_bytes());
    });
}

/// Appends a framed `write_q` request.
pub fn append_write_q(
    out: &mut Vec<u8>,
    req: u32,
    key: u32,
    author: u32,
    seq: u32,
    client_ts_nanos: i64,
    content: &str,
) {
    append_frame_with(out, KIND_WRITE_Q, |p| {
        p.extend_from_slice(&req.to_le_bytes());
        p.extend_from_slice(&key.to_le_bytes());
        p.extend_from_slice(&author.to_le_bytes());
        p.extend_from_slice(&seq.to_le_bytes());
        p.extend_from_slice(&client_ts_nanos.to_le_bytes());
        p.extend_from_slice(content.as_bytes());
    });
}

/// The request id a keyed payload (request or response) leads with.
/// Like the two readers below, takes a payload [`decode_raw`] located,
/// whose length the kind's contract has already vetted.
pub(crate) fn payload_req(payload: &[u8]) -> u32 {
    le_u32(payload)
}

/// The `(req, key)` of a `read_q` payload.
pub(crate) fn read_q_fields(payload: &[u8]) -> (u32, u32) {
    (le_u32(payload), le_u32(&payload[4..8]))
}

/// A `write_q` payload, borrowed from the decode buffer.
pub(crate) struct WriteQ<'a> {
    pub req: u32,
    pub key: u32,
    pub author: u32,
    pub seq: u32,
    pub client_ts_nanos: i64,
    pub content: &'a str,
}

/// The fields of a `write_q` payload; only the body's UTF-8 can fail.
pub(crate) fn write_q_fields(payload: &[u8]) -> Result<WriteQ<'_>, WireError> {
    Ok(WriteQ {
        req: le_u32(payload),
        key: le_u32(&payload[4..8]),
        author: le_u32(&payload[8..12]),
        seq: le_u32(&payload[12..16]),
        client_ts_nanos: le_i64(&payload[16..24]),
        content: std::str::from_utf8(&payload[24..]).map_err(|_| WireError::BadUtf8)?,
    })
}

/// Validates a declared payload length against the kind's contract,
/// *before* the payload bytes are read or buffered.
fn check_length(kind: u8, len: u32) -> Result<(), WireError> {
    let ok = match kind {
        KIND_HELLO => len == 2,
        KIND_HELLO_ACK => len >= 10,
        KIND_THROTTLED => len == 4,
        KIND_STOP | KIND_STOP_ACK => len == 0,
        KIND_WRITE_Q => len >= 24,
        KIND_WRITE_Q_ACK => len == 12,
        KIND_READ_Q => len == 8,
        KIND_READ_Q_OK => len >= 4 && (len - 4).is_multiple_of(8),
        KIND_WORK_REQ => len == 4,
        KIND_WORK_GRANT => len >= 12,
        KIND_WORK_FIN | KIND_RESULT_ACK => len == 0,
        KIND_RESULT_PUSH => true,
        KIND_BUSY => len == 4,
        other => return Err(WireError::UnknownKind(other)),
    };
    if ok {
        Ok(())
    } else {
        Err(WireError::BadLength { kind, len })
    }
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn le_i64(b: &[u8]) -> i64 {
    le_u64(b) as i64
}

/// Incrementally decodes the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a complete frame; drop `consumed`
///   bytes and call again for the next one.
/// * `Ok(None)` — `buf` is a (possibly empty) prefix of a well-formed
///   frame; read more bytes.
/// * `Err(_)` — the stream is corrupt at the front; the connection should
///   be dropped.
///
/// Never panics on any input (see the fuzz tests), and rejects oversized
/// or contract-violating length fields from the 9-byte header alone —
/// before buffering, allocating for, or checksumming any payload.
pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    match decode_raw(buf)? {
        None => Ok(None),
        Some(raw) => {
            let frame = parse_payload(raw.kind, &buf[raw.payload.clone()])?;
            Ok(Some((frame, raw.consumed)))
        }
    }
}

/// A validated frame located in (not copied out of) the caller's buffer:
/// the hot-path view [`decode_raw`] returns. The payload checksum has
/// already been verified; `payload` indexes the caller's buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// The frame discriminant (one of the `KIND_*` values).
    pub kind: u8,
    /// Byte range of the payload within the decoded buffer.
    pub payload: std::ops::Range<usize>,
    /// Total bytes the frame occupies (drop this many and decode again).
    pub consumed: usize,
}

/// Incremental decode without materializing a [`Frame`]: header and
/// checksum validation only, returning where the payload sits in `buf`.
/// Pipelined reapers use this to count and verify thousands of responses
/// per second without allocating a `Vec<u64>` per feed; pass the payload
/// range to [`parse_payload`] when the typed frame is actually needed.
/// Same contract as [`decode`]: `Ok(None)` wants more input, errors mean
/// the stream is corrupt at the front.
pub fn decode_raw(buf: &[u8]) -> Result<Option<RawFrame>, WireError> {
    // Validate the magic on however much of it has arrived, so garbage is
    // rejected at the first byte rather than after a 17-byte read.
    let magic_avail = buf.len().min(4);
    if buf[..magic_avail] != MAGIC[..magic_avail] {
        return Err(WireError::BadMagic);
    }
    if buf.len() < 5 {
        return Ok(None);
    }
    // Kind and (once present) length are validated as soon as their
    // bytes arrive; a retired, unknown or oversized frame never gets to
    // buffer a payload.
    let kind = buf[4];
    if !matches!(kind, KIND_HELLO | KIND_HELLO_ACK | KIND_THROTTLED..=KIND_MAX) {
        return Err(WireError::UnknownKind(kind));
    }
    if buf.len() < 9 {
        return Ok(None);
    }
    let len = le_u32(&buf[5..9]);
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    check_length(kind, len)?;
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let sum = le_u64(&buf[9..17]);
    let payload = &buf[HEADER_LEN..total];
    if fnv64(payload) != sum {
        return Err(WireError::BadChecksum);
    }
    Ok(Some(RawFrame { kind, payload: HEADER_LEN..total, consumed: total }))
}

/// Parses a checksum-verified payload (located by [`decode_raw`]) into a
/// typed [`Frame`]. Only UTF-8 validation can still fail here.
pub fn parse_payload(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let frame = match kind {
        KIND_HELLO => Frame::Hello { proto: le_u16(payload) },
        KIND_HELLO_ACK => Frame::HelloAck {
            proto: le_u16(&payload[..2]),
            server_clock_nanos: le_i64(&payload[2..10]),
            service: std::str::from_utf8(&payload[10..])
                .map_err(|_| WireError::BadUtf8)?
                .to_owned(),
        },
        KIND_THROTTLED => Frame::Throttled { req: payload_req(payload) },
        KIND_STOP => Frame::Stop,
        KIND_STOP_ACK => Frame::StopAck,
        KIND_WRITE_Q => {
            let w = write_q_fields(payload)?;
            Frame::WriteQ {
                req: w.req,
                key: w.key,
                author: w.author,
                seq: w.seq,
                client_ts_nanos: w.client_ts_nanos,
                content: w.content.to_owned(),
            }
        }
        KIND_WRITE_Q_ACK => {
            Frame::WriteQAck { req: payload_req(payload), id: le_u64(&payload[4..12]) }
        }
        KIND_READ_Q => {
            let (req, key) = read_q_fields(payload);
            Frame::ReadQ { req, key }
        }
        KIND_READ_Q_OK => Frame::ReadQOk {
            req: payload_req(payload),
            ids: payload[4..].chunks_exact(8).map(le_u64).collect(),
        },
        KIND_WORK_REQ => Frame::WorkReq { worker: le_u32(payload) },
        KIND_WORK_GRANT => Frame::WorkGrant {
            instance: le_u32(&payload[..4]),
            seed: le_u64(&payload[4..12]),
            cell: std::str::from_utf8(&payload[12..]).map_err(|_| WireError::BadUtf8)?.to_owned(),
        },
        KIND_WORK_FIN => Frame::WorkFin,
        KIND_RESULT_PUSH => Frame::ResultPush {
            record: std::str::from_utf8(payload).map_err(|_| WireError::BadUtf8)?.to_owned(),
        },
        KIND_RESULT_ACK => Frame::ResultAck,
        KIND_BUSY => Frame::Busy { retry_after_millis: le_u32(payload) },
        _ => unreachable!("check_length vetted the kind"),
    };
    Ok(frame)
}

/// Reads one complete frame off a blocking stream, keeping bytes past
/// its end in `buf` for the next call. EOF before a frame completes is
/// `UnexpectedEof`; a corrupt stream is `InvalidData`.
pub fn read_frame(stream: &mut impl std::io::Read, buf: &mut Vec<u8>) -> std::io::Result<Frame> {
    use std::io::{Error, ErrorKind};
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match decode(buf).map_err(|e| Error::new(ErrorKind::InvalidData, format!("cpw1: {e}")))? {
            Some((frame, consumed)) => {
                buf.drain(..consumed);
                return Ok(frame);
            }
            None => {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(Error::new(ErrorKind::UnexpectedEof, "peer closed mid-frame"));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}

/// Writes one frame to a blocking stream.
pub fn write_frame(stream: &mut impl std::io::Write, frame: &Frame) -> std::io::Result<()> {
    stream.write_all(&frame.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_json::testkit;

    fn corpus() -> Vec<Frame> {
        vec![
            Frame::Hello { proto: PROTO_VERSION },
            Frame::HelloAck {
                proto: PROTO_VERSION,
                server_clock_nanos: -42,
                service: "blogger".into(),
            },
            Frame::HelloAck { proto: 9, server_clock_nanos: i64::MAX, service: String::new() },
            Frame::Throttled { req: 0 },
            Frame::Throttled { req: u32::MAX },
            Frame::Stop,
            Frame::StopAck,
            Frame::WriteQ {
                req: 7,
                key: 0xdead_beef,
                author: 2,
                seq: 9,
                client_ts_nanos: -1,
                content: "pipelined".into(),
            },
            Frame::WriteQ {
                req: u32::MAX,
                key: 0,
                author: 0,
                seq: u32::MAX,
                client_ts_nanos: i64::MIN,
                content: String::new(),
            },
            Frame::WriteQAck { req: 7, id: 0x0000_0002_0000_0009 },
            Frame::ReadQ { req: 8, key: 3 },
            Frame::ReadQOk { req: 8, ids: vec![] },
            Frame::ReadQOk { req: u32::MAX, ids: vec![1, u64::MAX, 0x1234_5678_9abc_def0] },
            Frame::WorkReq { worker: 3 },
            Frame::WorkGrant {
                instance: 5,
                seed: 0xfeed_beef_cafe_f00d,
                cell: "blogger/test1".into(),
            },
            Frame::WorkGrant { instance: u32::MAX, seed: 0, cell: String::new() },
            Frame::WorkFin,
            Frame::ResultPush { record: "{\"cell\":\"blogger/test1\",\"instance\":5}".into() },
            Frame::ResultPush { record: String::new() },
            Frame::ResultAck,
            Frame::Busy { retry_after_millis: 250 },
            Frame::Busy { retry_after_millis: u32::MAX },
        ]
    }

    #[test]
    fn round_trips_every_frame_kind() {
        for frame in corpus() {
            let bytes = frame.encode();
            let (decoded, consumed) = decode(&bytes).unwrap().expect("complete frame");
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame, "round-trip mismatch");
        }
    }

    #[test]
    fn decodes_back_to_back_frames_from_one_buffer() {
        let mut stream = Vec::new();
        for frame in corpus() {
            stream.extend_from_slice(&frame.encode());
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while let Some((frame, consumed)) = decode(&stream[offset..]).unwrap() {
            decoded.push(frame);
            offset += consumed;
        }
        assert_eq!(offset, stream.len());
        assert_eq!(decoded, corpus());
    }

    #[test]
    fn every_prefix_of_a_valid_frame_asks_for_more_input() {
        for frame in corpus() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                match decode(&bytes[..cut]) {
                    Ok(None) => {}
                    other => panic!(
                        "prefix {cut}/{} of {frame:?} should want more input, got {other:?}",
                        bytes.len()
                    ),
                }
            }
        }
    }

    #[test]
    fn single_byte_mutations_never_panic_and_never_misparse_silently() {
        for frame in corpus() {
            for (_, _, mutated) in testkit::flips(&frame.encode()) {
                // Must not panic; and when a frame *is* produced it
                // must be internally consistent (checksummed payload).
                if let Ok(Some((decoded, consumed))) = decode(&mutated) {
                    assert!(consumed <= mutated.len());
                    let reencoded = decoded.encode();
                    let (again, _) = decode(&reencoded).unwrap().expect("re-decode");
                    assert_eq!(again, decoded);
                }
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let mut rng = testkit::TestRng::new(0x1234_5678_9abc_def0);
        let mut next = || rng.next_u64() as u8;
        for _ in 0..2_000 {
            let len = usize::from(next()) % 64;
            let mut bytes: Vec<u8> = (0..len).map(|_| next()).collect();
            let _ = decode(&bytes);
            // Also with a valid magic stapled on, to reach the deeper
            // header/payload paths.
            let mut with_magic = MAGIC.to_vec();
            with_magic.append(&mut bytes);
            let _ = decode(&with_magic);
        }
    }

    /// An incremental consumer: owns a buffer, is fed arbitrary chunks,
    /// yields every complete frame — the exact discipline the event loop
    /// and the pipelined reaper run per connection.
    struct Incremental {
        buf: Vec<u8>,
        frames: Vec<Frame>,
    }

    impl Incremental {
        fn new() -> Self {
            Incremental { buf: Vec::new(), frames: Vec::new() }
        }

        fn feed(&mut self, chunk: &[u8]) -> Result<(), WireError> {
            self.buf.extend_from_slice(chunk);
            while let Some((frame, consumed)) = decode(&self.buf)? {
                self.frames.push(frame);
                self.buf.drain(..consumed);
            }
            Ok(())
        }
    }

    #[test]
    fn pipelined_stream_survives_a_split_at_every_byte_boundary() {
        // Many concatenated frames — the pipelined wire image — cut into
        // two reads at every possible boundary: the decoder must
        // reassemble the identical frame sequence every time.
        let mut stream = Vec::new();
        for frame in corpus() {
            stream.extend_from_slice(&frame.encode());
        }
        for cut in 0..=stream.len() {
            let mut inc = Incremental::new();
            inc.feed(&stream[..cut]).expect("clean prefix");
            inc.feed(&stream[cut..]).expect("clean suffix");
            assert!(inc.buf.is_empty(), "cut at {cut} left {} bytes undecoded", inc.buf.len());
            assert_eq!(inc.frames, corpus(), "cut at {cut} misparsed the stream");
        }
    }

    #[test]
    fn pipelined_stream_survives_byte_at_a_time_delivery() {
        let mut stream = Vec::new();
        for frame in corpus() {
            stream.extend_from_slice(&frame.encode());
        }
        let mut inc = Incremental::new();
        for &b in &stream {
            inc.feed(&[b]).expect("clean stream");
        }
        assert_eq!(inc.frames, corpus());
    }

    #[test]
    fn corrupt_chunk_surfaces_a_typed_error_and_keeps_decoded_frames() {
        // The accumulator idiom under chaos: a mid-stream byte flip must
        // come back as a `WireError` from `feed`, never a panic, and the
        // frames decoded before the corruption stay available.
        let clean: Vec<u8> = corpus().iter().take(3).flat_map(|f| f.encode()).collect();
        let mut inc = Incremental::new();
        inc.feed(&clean).expect("clean stream");
        let decoded_before = inc.frames.len();
        assert_eq!(decoded_before, 3);
        let mut corrupt = Frame::Stop.encode();
        corrupt[0] ^= 0xff; // magic destroyed
        assert_eq!(inc.feed(&corrupt), Err(WireError::BadMagic));
        assert_eq!(inc.frames.len(), decoded_before, "pre-corruption frames survive");
        // A checksum-corrupted frame is also a typed error, at any flip
        // offset inside the payload.
        let victim = Frame::ResultPush { record: "xyz".into() }.encode();
        for (pos, flip, mutated) in testkit::flips(&victim).filter(|(pos, ..)| *pos >= HEADER_LEN) {
            let mut inc = Incremental::new();
            assert_eq!(inc.feed(&mutated), Err(WireError::BadChecksum), "{flip:#04x} at {pos}");
        }
    }

    #[test]
    fn interleaved_partial_frames_across_two_connections_stay_isolated() {
        // Two connections' streams delivered in interleaved partial
        // chunks (as one event-loop sweep sees them): each per-connection
        // decoder must reassemble its own stream, unperturbed by the
        // scheduling of the other.
        let stream_a: Vec<u8> = corpus().iter().flat_map(|f| f.encode()).collect();
        let frames_b = vec![
            Frame::ReadQ { req: 1, key: 9 },
            Frame::WriteQ {
                req: 2,
                key: 9,
                author: 1,
                seq: 1,
                client_ts_nanos: 5,
                content: "other conn".into(),
            },
            Frame::Stop,
        ];
        let stream_b: Vec<u8> = frames_b.iter().flat_map(|f| f.encode()).collect();
        // Deterministically vary the chunk sizes so partial headers and
        // partial payloads of both streams are in flight at once.
        for chunk_a in [1usize, 3, 7, 16, 29] {
            for chunk_b in [2usize, 5, 11, 23] {
                let mut inc_a = Incremental::new();
                let mut inc_b = Incremental::new();
                let (mut off_a, mut off_b) = (0, 0);
                while off_a < stream_a.len() || off_b < stream_b.len() {
                    if off_a < stream_a.len() {
                        let end = (off_a + chunk_a).min(stream_a.len());
                        inc_a.feed(&stream_a[off_a..end]).expect("clean stream a");
                        off_a = end;
                    }
                    if off_b < stream_b.len() {
                        let end = (off_b + chunk_b).min(stream_b.len());
                        inc_b.feed(&stream_b[off_b..end]).expect("clean stream b");
                        off_b = end;
                    }
                }
                assert_eq!(inc_a.frames, corpus(), "chunks ({chunk_a},{chunk_b})");
                assert_eq!(inc_b.frames, frames_b, "chunks ({chunk_a},{chunk_b})");
            }
        }
    }

    #[test]
    fn raw_decode_agrees_with_typed_decode_on_every_corpus_frame() {
        for frame in corpus() {
            let bytes = frame.encode();
            let raw = decode_raw(&bytes).unwrap().expect("complete frame");
            assert_eq!(raw.consumed, bytes.len());
            assert_eq!(parse_payload(raw.kind, &bytes[raw.payload.clone()]).unwrap(), frame);
        }
    }

    #[test]
    fn append_helpers_match_the_enum_encoding() {
        let mut out = Vec::new();
        append_read_q(&mut out, 3, 17);
        assert_eq!(out, Frame::ReadQ { req: 3, key: 17 }.encode());
        out.clear();
        append_read_q_ok(&mut out, 3, &[1, 2, u64::MAX]);
        assert_eq!(out, Frame::ReadQOk { req: 3, ids: vec![1, 2, u64::MAX] }.encode());
        out.clear();
        append_write_q(&mut out, 4, 17, 2, 9, -5, "body");
        assert_eq!(
            out,
            Frame::WriteQ {
                req: 4,
                key: 17,
                author: 2,
                seq: 9,
                client_ts_nanos: -5,
                content: "body".into()
            }
            .encode()
        );
        out.clear();
        append_write_q_ack(&mut out, 4, 99);
        assert_eq!(out, Frame::WriteQAck { req: 4, id: 99 }.encode());
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header_alone() {
        // Header declares a 256 MiB payload; only the 17 header bytes
        // exist. Rejection must come from the length field, not an
        // attempted buffer fill.
        let mut bytes = MAGIC.to_vec();
        bytes.push(9); // write_q
        bytes.extend_from_slice(&(256u32 << 20).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::Oversized(256 << 20)));
        // Same header truncated to 9 bytes (magic+kind+len): still
        // rejected — no waiting for a payload that should never come.
        assert_eq!(decode(&bytes[..9]), Err(WireError::Oversized(256 << 20)));
    }

    #[test]
    fn length_contract_violations_are_rejected_before_the_payload_arrives() {
        // A `stop` frame declaring a payload is nonsense even though the
        // length is small.
        let mut bytes = MAGIC.to_vec();
        bytes.push(7); // stop
        bytes.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::BadLength { kind: 7, len: 3 }));
        // `read_q_ok` payloads must be a request id plus whole u64s.
        let mut bytes = MAGIC.to_vec();
        bytes.push(12); // read_q_ok
        bytes.extend_from_slice(&8u32.to_le_bytes());
        assert_eq!(decode(&bytes), Err(WireError::BadLength { kind: 12, len: 8 }));
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let mut bytes = Frame::ResultPush { record: "x".into() }.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip a payload byte; header checksum now lies
        assert_eq!(decode(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn garbage_magic_is_rejected_at_the_first_wrong_byte() {
        assert_eq!(decode(b"xpw1....."), Err(WireError::BadMagic));
        assert_eq!(decode(b"c"), Ok(None));
        assert_eq!(decode(b"cq"), Err(WireError::BadMagic));
        assert_eq!(decode(b""), Ok(None));
    }

    #[test]
    fn unknown_kind_is_rejected_as_soon_as_the_kind_byte_arrives() {
        let mut bytes = MAGIC.to_vec();
        bytes.push(99);
        assert_eq!(decode(&bytes), Err(WireError::UnknownKind(99)));
    }

    /// A well-formed header and checksum around `payload` under any
    /// kind byte, spelled without the encoder under test.
    fn framed(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.push(kind);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn retired_kinds_are_rejected_from_the_kind_byte_and_never_parsed() {
        // The version-1 `write`, `write_ack`, `read` and `read_ok` frames
        // exactly as the last peer that spoke them encoded them.
        let mut write = Vec::new();
        write.extend_from_slice(&2u32.to_le_bytes());
        write.extend_from_slice(&1u32.to_le_bytes());
        write.extend_from_slice(&5_000_000i64.to_le_bytes());
        write.extend_from_slice(b"post");
        let ids: Vec<u8> = [1u64, u64::MAX].iter().flat_map(|id| id.to_le_bytes()).collect();
        let retired =
            [framed(2, &write), framed(3, &7u64.to_le_bytes()), framed(4, &[]), framed(5, &ids)];
        for (bytes, kind) in retired.iter().zip(2u8..) {
            for prefix in testkit::prefixes(bytes) {
                let cut = prefix.len();
                match decode_raw(prefix) {
                    Ok(None) => assert!(cut < 5, "kind {kind}: {cut} bytes were still buffered"),
                    Err(WireError::UnknownKind(k)) => assert_eq!((k, cut >= 5), (kind, true)),
                    other => panic!("kind {kind}, prefix {cut}: {other:?}"),
                }
            }
            // No single-byte flip of a retired kind byte lands on a live
            // kind, so every mutation is a typed rejection too.
            for (pos, flip, mutated) in testkit::flips(bytes) {
                let got = decode(&mutated);
                match pos {
                    0..=3 => assert_eq!(got, Err(WireError::BadMagic)),
                    4 => assert!(matches!(got, Err(WireError::UnknownKind(_))), "{got:?}"),
                    _ => assert_eq!(got, Err(WireError::UnknownKind(kind)), "{flip:#04x} at {pos}"),
                }
            }
        }
    }

    #[test]
    fn keyed_frames_encode_to_these_exact_bytes() {
        let cases: [(Frame, u8, &[u8]); 5] = [
            (
                Frame::WriteQ {
                    req: 1,
                    key: 2,
                    author: 3,
                    seq: 4,
                    client_ts_nanos: 5,
                    content: "hi".into(),
                },
                9,
                &[
                    1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, b'h',
                    b'i',
                ],
            ),
            (Frame::WriteQAck { req: 1, id: 0x0102 }, 10, &[1, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0]),
            (Frame::ReadQ { req: 0x0a0b, key: 7 }, 11, &[0x0b, 0x0a, 0, 0, 7, 0, 0, 0]),
            (Frame::ReadQOk { req: 1, ids: vec![9] }, 12, &[1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]),
            (Frame::Throttled { req: 0xdead_beef }, 6, &[0xef, 0xbe, 0xad, 0xde]),
        ];
        for (frame, kind, payload) in cases {
            assert_eq!(frame.encode(), framed(kind, payload), "{frame:?}");
        }
    }
}
