//! Multiplexed, pipelined `cpw1` client connections for load generation.
//!
//! [`PipeConn`] is the client half of the wire layer's event-loop story:
//! a non-blocking connection that keeps up to `depth` keyed requests in
//! flight, batches their frames into one output buffer (flushed with
//! single large writes), and reaps responses incrementally with
//! [`decode_raw`](crate::frame::decode_raw) — no allocation per
//! response. One generator thread sweeps thousands of these, which is
//! how `conprobe load` drives tens of thousands of concurrent
//! connections from a handful of threads.
//!
//! The server answers each connection's requests strictly in arrival
//! order, so the reaper verifies FIFO: every `read_q_ok`, `write_q_ack`
//! or `throttled` must echo the request id at the head of the in-flight
//! queue. A mismatch is an *ordering error* — counted, never silently
//! averaged away — and tears the connection down.

use crate::frame::{
    append_read_q, decode_raw, parse_payload, payload_req, Frame, HEADER_LEN, KIND_BUSY,
    KIND_READ_Q_OK, KIND_THROTTLED, KIND_WRITE_Q_ACK, PROTO_VERSION,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One request awaiting its response.
struct Inflight {
    req: u32,
    sent: Instant,
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

/// A non-blocking pipelined connection issuing keyed reads.
pub struct PipeConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    inpos: usize,
    outbuf: Vec<u8>,
    outpos: usize,
    inflight: VecDeque<Inflight>,
    next_req: u32,
    awaiting_hello: bool,
    /// Completion latencies reaped by the last pump, nanoseconds.
    latencies: Vec<u64>,
    /// Pacing: the earliest instant this connection may issue again.
    pub next_issue_at: Instant,
    /// Errors charged to this connection (the per-connection counter the
    /// load report surfaces so a few sick connections aren't hidden in
    /// the aggregate).
    pub errors: u64,
}

impl PipeConn {
    /// Connects (blocking), then switches to non-blocking and queues the
    /// protocol handshake as the first pipelined exchange.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<PipeConn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let mut outbuf = Vec::with_capacity(4096);
        Frame::Hello { proto: PROTO_VERSION }.encode_into(&mut outbuf);
        Ok(PipeConn {
            stream,
            inbuf: Vec::with_capacity(4096),
            inpos: 0,
            outbuf,
            outpos: 0,
            inflight: VecDeque::new(),
            next_req: 0,
            awaiting_hello: true,
            latencies: Vec::new(),
            next_issue_at: Instant::now(),
            errors: 0,
        })
    }

    /// Requests currently awaiting responses.
    pub fn inflight(&self) -> usize {
        self.inflight.len() + usize::from(self.awaiting_hello)
    }

    /// Queues one keyed read (no I/O yet; `pump` flushes). Returns the
    /// request id it will be answered under.
    pub fn issue_read(&mut self, key: u32) -> u32 {
        let req = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        append_read_q(&mut self.outbuf, req, key);
        self.inflight.push_back(Inflight { req, sent: Instant::now() });
        req
    }

    /// Latencies (nanos) of the responses reaped by the last `pump`.
    pub fn take_latencies(&mut self) -> std::vec::Drain<'_, u64> {
        self.latencies.drain(..)
    }

    /// One event-loop sweep: flush queued frames, read whatever the
    /// socket has, reap completed responses in FIFO order. `stall_after`
    /// bounds how long the oldest in-flight request may go unanswered
    /// (a lossy server drops responses; the slot must not leak forever).
    pub fn pump(&mut self, scratch: &mut [u8], stall_after: Duration) -> PumpResult {
        let mut result = PumpResult::default();
        // Flush as much of the batched request buffer as the socket takes.
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return self.fail(result, PipeFault::Io),
                Ok(n) => {
                    self.outpos += n;
                    result.progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.fail(result, PipeFault::Io),
            }
        }
        if self.outpos == self.outbuf.len() {
            self.outbuf.clear();
            self.outpos = 0;
        } else if self.outpos > 64 * 1024 {
            self.outbuf.drain(..self.outpos);
            self.outpos = 0;
        }
        // Read to exhaustion.
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return self.fail(result, PipeFault::Io),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    result.progressed = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.fail(result, PipeFault::Io),
            }
        }
        // Reap complete responses.
        loop {
            let raw = match decode_raw(&self.inbuf[self.inpos..]) {
                Ok(Some(raw)) => raw,
                Ok(None) => break,
                Err(_) => return self.fail(result, PipeFault::Decode),
            };
            let payload_at = self.inpos + HEADER_LEN;
            let payload_end = self.inpos + raw.consumed;
            self.inpos += raw.consumed;
            let payload = &self.inbuf[payload_at..payload_end];
            if raw.kind == KIND_BUSY {
                // Load shed (possible both at the handshake and, in
                // principle, mid-stream): a backpressure signal, not an
                // error — `errors` stays untouched; the caller backs off
                // for the hinted wait and reconnects.
                result.busy_wait_millis =
                    payload.get(..4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
                result.fault = Some(PipeFault::Busy);
                return result;
            }
            if self.awaiting_hello {
                match parse_payload(raw.kind, payload) {
                    Ok(Frame::HelloAck { proto, .. }) if proto == PROTO_VERSION => {
                        self.awaiting_hello = false;
                        result.progressed = true;
                        continue;
                    }
                    _ => return self.fail(result, PipeFault::Io),
                }
            }
            if !matches!(raw.kind, KIND_READ_Q_OK | KIND_WRITE_Q_ACK | KIND_THROTTLED) {
                return self.fail(result, PipeFault::Decode);
            }
            let req = payload_req(payload);
            let head = match self.inflight.pop_front() {
                Some(head) => head,
                None => return self.fail(result, PipeFault::Ordering),
            };
            if head.req != req {
                return self.fail(result, PipeFault::Ordering);
            }
            if raw.kind == KIND_THROTTLED {
                result.throttled += 1;
            } else {
                self.latencies.push(head.sent.elapsed().as_nanos() as u64);
                result.completed += 1;
            }
            result.progressed = true;
        }
        if self.inpos == self.inbuf.len() {
            self.inbuf.clear();
            self.inpos = 0;
        } else if self.inpos > 64 * 1024 {
            self.inbuf.drain(..self.inpos);
            self.inpos = 0;
        }
        // Stall detection: a lossy or wedged server must not pin this
        // slot forever.
        if let Some(oldest) = self.inflight.front() {
            if oldest.sent.elapsed() >= stall_after {
                return self.fail(result, PipeFault::Stall);
            }
        }
        result
    }

    fn fail(&mut self, mut result: PumpResult, fault: PipeFault) -> PumpResult {
        self.errors += 1;
        result.fault = Some(fault);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{append_read_q_ok, append_write_q_ack, read_frame};
    use std::net::TcpListener;

    /// A hand-driven single-connection server double: accepts once,
    /// then answers under caller control. The client's queued hello is
    /// flushed here (the server double reads blockingly, so the frame
    /// must be on the wire before `ack_hello`).
    fn pair() -> (PipeConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conn = PipeConn::connect(addr, Duration::from_secs(2)).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nodelay(true).unwrap();
        let mut scratch = [0u8; 4096];
        let r = conn.pump(&mut scratch, Duration::from_secs(5));
        assert_eq!(r.fault, None, "flushing the hello must not fault");
        (conn, server)
    }

    fn read_requests(server: &mut TcpStream, buf: &mut Vec<u8>, want: usize) -> Vec<Frame> {
        (0..want).map(|_| read_frame(server, buf).expect("client hung up early")).collect()
    }

    fn ack_hello(server: &mut TcpStream, buf: &mut Vec<u8>) {
        match read_requests(server, buf, 1).remove(0) {
            Frame::Hello { proto } => assert_eq!(proto, PROTO_VERSION),
            other => panic!("expected hello, got {other:?}"),
        }
        let ack = Frame::HelloAck {
            proto: PROTO_VERSION,
            server_clock_nanos: 0,
            service: "blogger".into(),
        };
        server.write_all(&ack.encode()).unwrap();
    }

    fn pump_until(
        conn: &mut PipeConn,
        completed: &mut usize,
        want: usize,
        deadline: Duration,
    ) -> Option<PipeFault> {
        let mut scratch = [0u8; 4096];
        let begin = Instant::now();
        while *completed < want {
            let r = conn.pump(&mut scratch, Duration::from_secs(5));
            *completed += r.completed;
            if r.fault.is_some() {
                return r.fault;
            }
            assert!(begin.elapsed() < deadline, "timed out at {completed}/{want}");
            if !r.progressed {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        None
    }

    #[test]
    fn pipelines_many_requests_and_reaps_them_in_order() {
        let (mut conn, mut server) = pair();
        let mut server_buf = Vec::new();
        ack_hello(&mut server, &mut server_buf);
        for i in 0..32u32 {
            assert_eq!(conn.issue_read(i % 4), i);
        }
        assert_eq!(conn.inflight(), 33); // 32 reads + the pending hello
                                         // Flush the client side, then answer every request in one batch.
        let mut scratch = [0u8; 4096];
        let _ = conn.pump(&mut scratch, Duration::from_secs(5));
        let reqs = read_requests(&mut server, &mut server_buf, 32);
        let mut batch = Vec::new();
        for frame in reqs {
            match frame {
                Frame::ReadQ { req, key } => append_read_q_ok(&mut batch, req, &[u64::from(key)]),
                other => panic!("expected read_q, got {other:?}"),
            }
        }
        server.write_all(&batch).unwrap();
        let mut completed = 0;
        assert_eq!(pump_until(&mut conn, &mut completed, 32, Duration::from_secs(5)), None);
        assert_eq!(conn.inflight(), 0);
        assert_eq!(conn.take_latencies().len(), 32);
        assert_eq!(conn.errors, 0);
    }

    #[test]
    fn an_out_of_order_response_is_an_ordering_error() {
        let (mut conn, mut server) = pair();
        let mut server_buf = Vec::new();
        ack_hello(&mut server, &mut server_buf);
        conn.issue_read(0);
        conn.issue_read(0);
        let mut scratch = [0u8; 4096];
        let _ = conn.pump(&mut scratch, Duration::from_secs(5));
        let _ = read_requests(&mut server, &mut server_buf, 2);
        // Answer req 1 before req 0: a FIFO violation.
        let mut batch = Vec::new();
        append_read_q_ok(&mut batch, 1, &[]);
        append_read_q_ok(&mut batch, 0, &[]);
        server.write_all(&batch).unwrap();
        let mut completed = 0;
        let fault = pump_until(&mut conn, &mut completed, 2, Duration::from_secs(5));
        assert_eq!(fault, Some(PipeFault::Ordering));
        assert_eq!(conn.errors, 1);
    }

    /// Issues `depth` reads, answers them with `answer(req)` in one
    /// batch, and pumps until every response was reaped or a fault
    /// surfaced. Returns the connection with `(completed, throttled,
    /// fault)`.
    fn answer_reads(
        depth: u32,
        answer: impl Fn(&mut Vec<u8>, u32),
    ) -> (PipeConn, usize, usize, Option<PipeFault>) {
        let (mut conn, mut server) = pair();
        let mut server_buf = Vec::new();
        ack_hello(&mut server, &mut server_buf);
        for _ in 0..depth {
            conn.issue_read(0);
        }
        let mut scratch = [0u8; 4096];
        let _ = conn.pump(&mut scratch, Duration::from_secs(5));
        let mut batch = Vec::new();
        for frame in read_requests(&mut server, &mut server_buf, depth as usize) {
            match frame {
                Frame::ReadQ { req, .. } => answer(&mut batch, req),
                other => panic!("expected read_q, got {other:?}"),
            }
        }
        server.write_all(&batch).unwrap();
        let (mut completed, mut throttled) = (0, 0);
        let begin = Instant::now();
        while completed + throttled < depth as usize {
            let r = conn.pump(&mut scratch, Duration::from_secs(5));
            completed += r.completed;
            throttled += r.throttled;
            if r.fault.is_some() {
                return (conn, completed, throttled, r.fault);
            }
            assert!(begin.elapsed() < Duration::from_secs(5), "timed out");
        }
        (conn, completed, throttled, None)
    }

    #[test]
    fn throttled_responses_are_reaped_in_fifo_order_outside_ops_and_latency() {
        // Depth 8, every third request refused: feeds and refusals
        // interleave on one connection and all echo their request id.
        let (mut conn, completed, throttled, fault) = answer_reads(8, |batch, req| {
            if req % 3 == 1 {
                Frame::Throttled { req }.encode_into(batch);
            } else {
                append_read_q_ok(batch, req, &[u64::from(req)]);
            }
        });
        assert_eq!(fault, None);
        assert_eq!((completed, throttled), (5, 3));
        assert_eq!(conn.inflight(), 0);
        assert_eq!(conn.take_latencies().len(), 5, "a refusal is not a latency sample");
        assert_eq!(conn.errors, 0, "a refusal is not an ordering or decode error");
    }

    #[test]
    fn a_throttled_echoing_the_wrong_request_is_an_ordering_error() {
        let (conn, completed, throttled, fault) = answer_reads(4, |batch, req| {
            // The refusal of request 2 claims to answer request 3.
            let echoed = if req == 2 { 3 } else { req };
            Frame::Throttled { req: echoed }.encode_into(batch);
        });
        assert_eq!(fault, Some(PipeFault::Ordering));
        assert_eq!((completed, throttled), (0, 2), "the two before it were reaped");
        assert_eq!(conn.errors, 1);
    }

    #[test]
    fn a_corrupt_response_stream_is_a_decode_error() {
        let (mut conn, mut server) = pair();
        let mut server_buf = Vec::new();
        ack_hello(&mut server, &mut server_buf);
        conn.issue_read(7);
        let mut scratch = [0u8; 4096];
        let _ = conn.pump(&mut scratch, Duration::from_secs(5));
        let _ = read_requests(&mut server, &mut server_buf, 1);
        server.write_all(b"garbage that is definitely not cpw1").unwrap();
        let mut completed = 0;
        let fault = pump_until(&mut conn, &mut completed, 1, Duration::from_secs(5));
        assert_eq!(fault, Some(PipeFault::Decode));
    }

    #[test]
    fn a_busy_shed_is_a_typed_backpressure_fault_not_an_error() {
        let (mut conn, mut server) = pair();
        // The server sheds at the handshake: busy frame, then hang up —
        // exactly what the bounded accept backlog does.
        server.write_all(&Frame::Busy { retry_after_millis: 75 }.encode()).unwrap();
        drop(server);
        let mut scratch = [0u8; 4096];
        let begin = Instant::now();
        loop {
            let r = conn.pump(&mut scratch, Duration::from_secs(5));
            match r.fault {
                Some(PipeFault::Busy) => {
                    assert_eq!(r.busy_wait_millis, Some(75), "the wait hint rides along");
                    break;
                }
                Some(other) => panic!("expected the busy fault, got {other:?}"),
                None => assert!(begin.elapsed() < Duration::from_secs(5), "busy never surfaced"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(conn.errors, 0, "backpressure is not an error");
    }

    #[test]
    fn an_unanswered_request_eventually_stalls_out() {
        let (mut conn, mut server) = pair();
        let mut server_buf = Vec::new();
        ack_hello(&mut server, &mut server_buf);
        conn.issue_read(0);
        let mut scratch = [0u8; 4096];
        let begin = Instant::now();
        loop {
            let r = conn.pump(&mut scratch, Duration::from_millis(50));
            match r.fault {
                Some(PipeFault::Stall) => break,
                Some(other) => panic!("unexpected fault {other:?}"),
                None => {
                    assert!(begin.elapsed() < Duration::from_secs(5), "stall never fired");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        // An ack for the write_q kind is also a valid reap path.
        let mut batch = Vec::new();
        append_write_q_ack(&mut batch, 0, 9);
        drop(batch);
        drop(server);
    }
}
