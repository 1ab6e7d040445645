//! Multiplexed, pipelined `cpw1` client connections for load generation.
//!
//! [`PipeConn`] is the client half of the wire layer's event-loop story:
//! the state of a non-blocking connection that keeps up to `depth` keyed
//! requests in flight, batches their frames into one output buffer
//! (flushed with single large writes), and reaps responses incrementally
//! with [`decode_raw`](crate::frame::decode_raw) — no allocation per
//! response. It owns no socket and reads no clock: [`PipeConn::pump`]
//! sweeps it over the caller's non-blocking stream (any `Read + Write`),
//! and one generator thread sweeps thousands of these.
//!
//! The server answers each connection's requests strictly in arrival
//! order, so the reaper verifies FIFO: every `read_q_ok`, `write_q_ack`
//! or `throttled` must echo the request id at the head of the in-flight
//! queue. A mismatch is an *ordering error* — counted, never silently
//! averaged away — and tears the connection down.

use crate::conn::{FrameBuf, READ_BACKLOG_CAP};
use crate::frame::{
    append_read_q, decode_raw, parse_payload, payload_req, Frame, KIND_BUSY, KIND_READ_Q_OK,
    KIND_THROTTLED, KIND_WRITE_Q_ACK, PROTO_VERSION,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::time::Duration;

/// One request awaiting its response.
struct Inflight {
    req: u32,
    sent: u64,
}

/// Why a connection was torn down (all fatal to the connection, none to
/// the run — the generator reconnects or retires the slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeFault {
    /// Socket error, EOF, or handshake failure.
    Io,
    /// The response stream failed frame validation.
    Decode,
    /// A response echoed a request id out of FIFO order.
    Ordering,
    /// The oldest in-flight request outlived the stall timeout.
    Stall,
    /// The server shed this connection with a typed `busy` frame: not an
    /// error, a backpressure signal. The generator reconnects after the
    /// server's wait hint instead of immediately.
    Busy,
}

/// What one sweep of [`PipeConn::pump`] accomplished.
#[derive(Debug, Default, Clone, Copy)]
pub struct PumpResult {
    /// Responses reaped this sweep, with their queue-to-response
    /// latencies (capped to a small inline buffer's worth per sweep by
    /// the caller's read batching — excess carries to the next sweep).
    pub completed: usize,
    /// Requests the server refused with `throttled` this sweep: reaped
    /// in FIFO order like any response, but neither completed operations
    /// nor latency samples.
    pub throttled: usize,
    /// Bytes moved in either direction (the loop's progress signal).
    pub progressed: bool,
    /// Set when the connection died this sweep.
    pub fault: Option<PipeFault>,
    /// On a [`PipeFault::Busy`] fault: the server's minimum-wait hint,
    /// milliseconds, from the shed frame's payload.
    pub busy_wait_millis: Option<u32>,
}

/// A pipelined connection issuing keyed reads, minus its stream: issue,
/// reap, stall. Time is an argument — nanoseconds on whatever epoch the
/// loop that owns the socket keeps.
pub struct PipeConn {
    buf: FrameBuf,
    inflight: VecDeque<Inflight>,
    next_req: u32,
    awaiting_hello: bool,
    /// Completion latencies reaped by the last pump, nanoseconds.
    latencies: Vec<u64>,
    /// Pacing: the earliest instant this connection may issue again.
    pub next_issue_at: u64,
    /// Errors charged to this connection (the per-connection counter the
    /// load report surfaces so a few sick connections aren't hidden in
    /// the aggregate).
    pub errors: u64,
}

impl PipeConn {
    /// The state of a connection made at `now`: the protocol handshake
    /// is queued as its first pipelined exchange.
    pub fn new(now: u64) -> PipeConn {
        let mut buf = FrameBuf::default();
        Frame::Hello { proto: PROTO_VERSION }.encode_into(buf.out());
        PipeConn {
            buf,
            inflight: VecDeque::new(),
            next_req: 0,
            awaiting_hello: true,
            latencies: Vec::new(),
            next_issue_at: now,
            errors: 0,
        }
    }

    /// Requests currently awaiting responses.
    pub fn inflight(&self) -> usize {
        self.inflight.len() + usize::from(self.awaiting_hello)
    }

    /// Queues one keyed read at `now` (no I/O yet; `pump` flushes).
    /// Returns the request id it will be answered under.
    pub fn issue_read(&mut self, key: u32, now: u64) -> u32 {
        let req = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        append_read_q(self.buf.out(), req, key);
        self.inflight.push_back(Inflight { req, sent: now });
        req
    }

    /// Latencies (nanos) of the responses reaped by the last `pump`.
    pub fn take_latencies(&mut self) -> std::vec::Drain<'_, u64> {
        self.latencies.drain(..)
    }

    /// One event-loop sweep over the stream `io`: flush queued frames,
    /// read whatever it has, then — `clock` is read once, after the I/O —
    /// reap and check the stall bound at that instant.
    pub fn pump<S: Read + Write>(
        &mut self,
        io: &mut S,
        scratch: &mut [u8],
        stall_after: Duration,
        clock: &impl Fn() -> u64,
    ) -> PumpResult {
        let mut result = PumpResult::default();
        let Ok(wrote) = self.buf.flush(io) else { return self.fail(result, PipeFault::Io) };
        let Ok(read) = self.buf.fill(io, scratch, READ_BACKLOG_CAP) else {
            return self.fail(result, PipeFault::Io);
        };
        result.progressed = wrote || read;
        let result = self.reap(result, clock(), stall_after.as_nanos() as u64);
        if self.buf.eof() && result.fault.is_none() {
            return self.fail(result, PipeFault::Io);
        }
        result
    }

    /// Reaps the complete responses buffered, in FIFO order, at `now`.
    /// `stall_after` bounds how long the oldest in-flight request may go
    /// unanswered (a lossy server drops responses; the slot must not leak
    /// forever).
    fn reap(&mut self, mut result: PumpResult, now: u64, stall_after: u64) -> PumpResult {
        loop {
            let raw = match decode_raw(self.buf.unread()) {
                Ok(Some(raw)) => raw,
                Ok(None) => break,
                Err(_) => return self.fail(result, PipeFault::Decode),
            };
            let payload = &self.buf.unread()[raw.payload.clone()];
            if raw.kind == KIND_BUSY {
                // Load shed (possible both at the handshake and, in
                // principle, mid-stream): a backpressure signal, not an
                // error — `errors` stays untouched; the caller backs off
                // for the hinted wait and reconnects.
                result.busy_wait_millis = Some(payload_req(payload));
                result.fault = Some(PipeFault::Busy);
                return result;
            }
            if self.awaiting_hello {
                let ack = parse_payload(raw.kind, payload);
                if !matches!(ack, Ok(Frame::HelloAck { proto, .. }) if proto == PROTO_VERSION) {
                    return self.fail(result, PipeFault::Io);
                }
                self.awaiting_hello = false;
            } else {
                if !matches!(raw.kind, KIND_READ_Q_OK | KIND_WRITE_Q_ACK | KIND_THROTTLED) {
                    return self.fail(result, PipeFault::Decode);
                }
                let req = payload_req(payload);
                match self.inflight.pop_front() {
                    Some(head) if head.req == req => {
                        if raw.kind == KIND_THROTTLED {
                            result.throttled += 1;
                        } else {
                            self.latencies.push(now - head.sent);
                            result.completed += 1;
                        }
                    }
                    _ => return self.fail(result, PipeFault::Ordering),
                }
            }
            self.buf.consume(raw.consumed);
            result.progressed = true;
        }
        // Stall detection: a lossy or wedged server must not pin this
        // slot forever.
        match self.inflight.front() {
            Some(oldest) if now - oldest.sent >= stall_after => self.fail(result, PipeFault::Stall),
            _ => result,
        }
    }

    fn fail(&mut self, mut result: PumpResult, fault: PipeFault) -> PumpResult {
        self.errors += 1;
        result.fault = Some(fault);
        result
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::conn::mem::{frames, FakeClock, Link};
    use crate::frame::{append_read_q_ok, read_frame};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    const NEVER: Duration = Duration::from_secs(3600);

    /// A `PipeConn` on the `a` end of an in-memory link under a
    /// fabricated clock; the test plays the server on the `b` end.
    pub(crate) struct Rig {
        pub conn: PipeConn,
        pub link: Link,
        pub clock: FakeClock,
        scratch: Vec<u8>,
    }

    impl Rig {
        /// Connected at time 0, handshake flushed and acknowledged.
        pub(crate) fn new() -> Rig {
            let conn = PipeConn::new(0);
            let mut rig = Rig {
                conn,
                link: Link::default(),
                clock: FakeClock::default(),
                scratch: vec![0; 4096],
            };
            assert_eq!(rig.pump(NEVER).fault, None, "flushing the hello must not fault");
            assert_eq!(rig.requests(), [Frame::Hello { proto: PROTO_VERSION }]);
            let ack = Frame::HelloAck {
                proto: PROTO_VERSION,
                server_clock_nanos: 0,
                service: "blogger".into(),
            };
            rig.answer(&ack.encode());
            rig
        }

        pub(crate) fn pump(&mut self, stall_after: Duration) -> PumpResult {
            self.conn.pump(&mut self.link.a(), &mut self.scratch, stall_after, &self.clock.read())
        }

        /// Every frame the client has put on the wire so far.
        fn requests(&mut self) -> Vec<Frame> {
            frames(&self.link.a_to_b.take())
        }

        pub(crate) fn answer(&mut self, bytes: &[u8]) {
            self.link.b_to_a.bytes.extend(bytes);
        }
    }

    #[test]
    fn pipelines_many_requests_and_reaps_them_in_order() {
        let mut rig = Rig::new();
        for i in 0..32u32 {
            assert_eq!(rig.conn.issue_read(i % 4, 1_000 + u64::from(i)), i);
        }
        assert_eq!(rig.conn.inflight(), 33); // 32 reads + the pending hello
        rig.clock.set(2_000);
        assert_eq!(rig.pump(NEVER).completed, 0, "the ack is reaped; nothing is answered yet");
        let mut batch = Vec::new();
        for frame in rig.requests() {
            match frame {
                Frame::ReadQ { req, key } => append_read_q_ok(&mut batch, req, &[u64::from(key)]),
                other => panic!("expected read_q, got {other:?}"),
            }
        }
        // The answers arrive in two pieces, the cut inside a frame.
        let (early, late) = batch.split_at(batch.len() / 2 + 3);
        rig.answer(early);
        rig.clock.set(1_000_000);
        let first = rig.pump(NEVER);
        rig.answer(late);
        rig.clock.set(2_000_000);
        let second = rig.pump(NEVER);
        assert_eq!((first.fault, second.fault), (None, None));
        assert_eq!(first.completed + second.completed, 32);
        assert_eq!(rig.conn.inflight(), 0);
        // A latency is the reaping pump's instant minus the issue instant.
        let latencies: Vec<u64> = rig.conn.take_latencies().collect();
        let expect: Vec<u64> = (0..32u64)
            .map(|i| if i < first.completed as u64 { 1_000_000 } else { 2_000_000 } - 1_000 - i)
            .collect();
        assert_eq!(latencies, expect);
        assert_eq!(rig.conn.errors, 0);
    }

    /// A hand-driven single-connection server double over a real socket:
    /// accepts once, then answers under caller control.
    fn pair() -> (TcpStream, PipeConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nonblocking(true).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nodelay(true).unwrap();
        (stream, PipeConn::new(0), server)
    }

    /// The thin socket loop, once over real TCP: handshake, a flushed
    /// pipeline, and a FIFO violation surfacing through `pump` on the
    /// wall clock. Everything else about `PipeConn` is tested in memory.
    #[test]
    fn an_out_of_order_response_is_an_ordering_error() {
        let (mut stream, mut conn, mut server) = pair();
        let epoch = Instant::now();
        let clock = || epoch.elapsed().as_nanos() as u64;
        let mut scratch = [0u8; 4096];
        let mut server_buf = Vec::new();
        conn.issue_read(0, clock());
        conn.issue_read(0, clock());
        assert_eq!(conn.pump(&mut stream, &mut scratch, NEVER, &clock).fault, None);
        let hello = read_frame(&mut server, &mut server_buf).expect("hello");
        assert_eq!(hello, Frame::Hello { proto: PROTO_VERSION });
        for _ in 0..2 {
            read_frame(&mut server, &mut server_buf).expect("client hung up early");
        }
        // Acknowledge, then answer req 1 before req 0: a FIFO violation.
        let mut batch = Frame::HelloAck {
            proto: PROTO_VERSION,
            server_clock_nanos: 0,
            service: "blogger".into(),
        }
        .encode();
        append_read_q_ok(&mut batch, 1, &[]);
        append_read_q_ok(&mut batch, 0, &[]);
        server.write_all(&batch).unwrap();
        let fault = loop {
            let r = conn.pump(&mut stream, &mut scratch, NEVER, &clock);
            assert_eq!(r.completed, 0);
            if r.fault.is_some() {
                break r.fault;
            }
            assert!(epoch.elapsed() < Duration::from_secs(5), "the answers never arrived");
            std::thread::yield_now();
        };
        assert_eq!(fault, Some(PipeFault::Ordering));
        assert_eq!(conn.errors, 1);
    }

    /// Issues `depth` reads, answers them with `answer(req)` in one
    /// batch, and pumps once. Returns the rig with what that pump saw.
    fn answer_reads(depth: u32, answer: impl Fn(&mut Vec<u8>, u32)) -> (Rig, PumpResult) {
        let mut rig = Rig::new();
        for _ in 0..depth {
            rig.conn.issue_read(0, 0);
        }
        let _ = rig.pump(NEVER);
        let mut batch = Vec::new();
        for frame in rig.requests() {
            match frame {
                Frame::ReadQ { req, .. } => answer(&mut batch, req),
                other => panic!("expected read_q, got {other:?}"),
            }
        }
        rig.answer(&batch);
        let result = rig.pump(NEVER);
        (rig, result)
    }

    #[test]
    fn throttled_responses_are_reaped_in_fifo_order_outside_ops_and_latency() {
        // Depth 8, every third request refused: feeds and refusals
        // interleave on one connection and all echo their request id.
        let (mut rig, r) = answer_reads(8, |batch, req| {
            if req % 3 == 1 {
                Frame::Throttled { req }.encode_into(batch);
            } else {
                append_read_q_ok(batch, req, &[u64::from(req)]);
            }
        });
        assert_eq!(r.fault, None);
        assert_eq!((r.completed, r.throttled), (5, 3));
        assert_eq!(rig.conn.inflight(), 0);
        assert_eq!(rig.conn.take_latencies().len(), 5, "a refusal is not a latency sample");
        assert_eq!(rig.conn.errors, 0, "a refusal is not an ordering or decode error");
    }

    #[test]
    fn a_throttled_echoing_the_wrong_request_is_an_ordering_error() {
        let (rig, r) = answer_reads(4, |batch, req| {
            // The refusal of request 2 claims to answer request 3.
            let echoed = if req == 2 { 3 } else { req };
            Frame::Throttled { req: echoed }.encode_into(batch);
        });
        assert_eq!(r.fault, Some(PipeFault::Ordering));
        assert_eq!((r.completed, r.throttled), (0, 2), "the two before it were reaped");
        assert_eq!(rig.conn.errors, 1);
    }

    #[test]
    fn a_corrupt_response_stream_is_a_decode_error() {
        let mut rig = Rig::new();
        rig.conn.issue_read(7, 0);
        rig.answer(b"garbage that is definitely not cpw1");
        let r = rig.pump(NEVER);
        assert_eq!(r.fault, Some(PipeFault::Decode));
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn a_busy_shed_is_a_typed_backpressure_fault_not_an_error() {
        // The server sheds at the handshake: busy frame, then hang up —
        // exactly what the bounded accept backlog does.
        let mut rig = Rig::new();
        rig.link.b_to_a.bytes.clear(); // no hello_ack: the shed is the greeting
        rig.answer(&Frame::Busy { retry_after_millis: 75 }.encode());
        rig.link.b_to_a.closed = true;
        let r = rig.pump(NEVER);
        assert_eq!(r.fault, Some(PipeFault::Busy));
        assert_eq!(r.busy_wait_millis, Some(75), "the wait hint rides along");
        assert_eq!(rig.conn.errors, 0, "backpressure is not an error");
    }

    #[test]
    fn a_server_that_hangs_up_is_an_io_fault_after_its_last_answers_are_reaped() {
        let mut rig = Rig::new();
        rig.conn.issue_read(0, 0);
        rig.conn.issue_read(0, 0);
        let mut answers = Vec::new();
        append_read_q_ok(&mut answers, 0, &[]);
        rig.answer(&answers);
        rig.link.b_to_a.closed = true;
        let first = rig.pump(NEVER);
        assert_eq!((first.completed, first.fault), (1, None), "a short read ends the sweep");
        let second = rig.pump(NEVER);
        assert_eq!(second.fault, Some(PipeFault::Io));
    }

    #[test]
    fn an_unanswered_request_eventually_stalls_out() {
        let stall_after = Duration::from_millis(50);
        let mut rig = Rig::new();
        rig.clock.set(1_000_000);
        assert_eq!(rig.pump(stall_after).fault, None, "the ack; nothing in flight yet");
        rig.conn.issue_read(0, 1_000_000);
        rig.clock.set(50_999_999);
        assert_eq!(rig.pump(stall_after).fault, None, "one nanosecond short of the bound");
        rig.clock.set(51_000_000);
        assert_eq!(rig.pump(stall_after).fault, Some(PipeFault::Stall));
        assert_eq!(rig.conn.errors, 1);
    }
}
