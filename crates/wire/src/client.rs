//! The TCP client side of `cpw1` — a blocking
//! [`ServiceEndpoint`](conprobe_harness::transport::ServiceEndpoint).
//!
//! The live probe agents and the load generator's seeder call it through
//! that trait: one keyed operation per call, addressed to the client's
//! current keyspace key, with reconnect-and-resend underneath.

use crate::frame::{read_frame, write_frame, Frame, PROTO_VERSION};
use conprobe_harness::transport::{EndpointError, ServiceEndpoint};
use conprobe_services::{ClientOp, OpResult};
use conprobe_sim::SimRng;
use conprobe_store::PostId;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn io_err(context: &str, e: std::io::Error) -> EndpointError {
    EndpointError(format!("{context}: {e}"))
}

/// Reconnect budget for a dropped connection: up to `attempts`
/// re-dials per failed operation, spaced by capped exponential backoff
/// (`base_delay * 2^i`, clamped to `max_delay`) with seeded jitter so a
/// fleet of agents losing the same server does not re-dial in lockstep.
///
/// Every `cpw1` request is safe to resend on a fresh connection: writes
/// are deduplicated server-side by post id (the ack is re-issued),
/// reads and hellos are pure, and `stop` is a level trigger — so the
/// client re-sends the in-flight frame after each reconnect.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Maximum reconnect attempts per failed operation.
    pub attempts: u32,
    /// Backoff before the first reconnect attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the jitter stream (deterministic per client).
    pub seed: u64,
}

impl ReconnectPolicy {
    /// No reconnection: the first connection error is the caller's
    /// problem (the pre-hardening behaviour).
    pub fn disabled() -> Self {
        ReconnectPolicy {
            attempts: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            seed: 0,
        }
    }

    /// The probe agents' default: a handful of quick retries bounded
    /// well under the read cadence.
    pub fn probe_default(seed: u64) -> Self {
        ReconnectPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
            seed,
        }
    }

    /// The backoff before reconnect attempt `attempt` (0-based):
    /// `min(base * 2^attempt, max)`, scaled by a jitter factor in
    /// `[0.5, 1.0)` drawn from `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> Duration {
        let exp = self.base_delay.saturating_mul(2u32.saturating_pow(attempt));
        let capped = exp.min(self.max_delay).max(self.base_delay);
        capped.mul_f64(0.5 + rng.gen_unit() * 0.5)
    }
}

/// A connected `cpw1` client.
///
/// One request is in flight at a time, and the response must echo its
/// request id. The constructor
/// performs the `hello` handshake and verifies the minor protocol
/// version, so a connected client is always version-compatible. With a
/// [`ReconnectPolicy`], a send or receive failure transparently
/// re-dials, re-handshakes and re-sends the in-flight frame.
pub struct WireClient {
    stream: TcpStream,
    /// Undecoded bytes read off the socket.
    buf: Vec<u8>,
    addr: SocketAddr,
    timeout: Duration,
    policy: ReconnectPolicy,
    jitter: SimRng,
    reconnects: u64,
    service: String,
    last_server_clock_nanos: i64,
    /// The keyspace key every operation addresses (0 until
    /// [`WireClient::set_key`] says otherwise).
    key: u32,
    /// Request-id stream.
    next_req: u32,
    /// Set when the server shed this client with a `busy` frame: the
    /// minimum wait the next reconnect must respect.
    busy_hint_millis: Option<u32>,
    /// How many times the server shed this client with a `busy` frame.
    busy_sheds: u64,
}

impl WireClient {
    /// Connects, handshakes, and verifies protocol versions. `timeout`
    /// bounds the connect and every subsequent read. The client never
    /// reconnects (see [`WireClient::connect_with_policy`]).
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Self, EndpointError> {
        Self::connect_with_policy(addr, timeout, ReconnectPolicy::disabled())
    }

    /// Like [`WireClient::connect`], but a dropped connection is
    /// re-dialed under `policy` and the in-flight frame re-sent.
    pub fn connect_with_policy(
        addr: SocketAddr,
        timeout: Duration,
        policy: ReconnectPolicy,
    ) -> Result<Self, EndpointError> {
        let stream = Self::dial(addr, timeout)?;
        let jitter = SimRng::new(policy.seed).split("wire.client.backoff");
        let mut client = WireClient {
            stream,
            buf: Vec::new(),
            addr,
            timeout,
            policy,
            jitter,
            reconnects: 0,
            service: String::new(),
            last_server_clock_nanos: 0,
            key: 0,
            next_req: 0,
            busy_hint_millis: None,
            busy_sheds: 0,
        };
        if let Err(first) = client.handshake() {
            // A load-shedding server answers the dial itself with `busy`
            // and hangs up; that is retryable under the same policy as a
            // mid-operation drop.
            let mut last_err = first;
            for attempt in 0..client.policy.attempts {
                match client.reconnect(attempt) {
                    Ok(()) => return Ok(client),
                    Err(e) => last_err = e,
                }
            }
            return Err(last_err);
        }
        Ok(client)
    }

    fn dial(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, EndpointError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| io_err(&format!("connect {addr}"), e))?;
        stream.set_nodelay(true).map_err(|e| io_err("set_nodelay", e))?;
        stream.set_read_timeout(Some(timeout)).map_err(|e| io_err("set_read_timeout", e))?;
        Ok(stream)
    }

    /// The journal-style token of the service the server hosts
    /// (`blogger`, `gplus`, …), learned during the handshake.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// How many times this client re-dialed a dropped connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// How many times the server shed this client with a `busy` frame.
    pub fn busy_sheds(&self) -> u64 {
        self.busy_sheds
    }

    /// Makes every subsequent [`ServiceEndpoint::call`] address keyspace
    /// key `key` — one isolated logical object per key. `None` is key 0.
    pub fn set_key(&mut self, key: Option<u32>) {
        self.key = key.unwrap_or(0);
    }

    fn send(&mut self, frame: &Frame) -> Result<(), EndpointError> {
        write_frame(&mut self.stream, frame).map_err(|e| io_err("send frame", e))
    }

    fn recv(&mut self) -> Result<Frame, EndpointError> {
        match read_frame(&mut self.stream, &mut self.buf).map_err(|e| io_err("receive frame", e))? {
            Frame::Busy { retry_after_millis } => {
                // Load shed: the server refuses this connection and
                // closes it. Surface a retryable error; the next
                // reconnect honours the server's wait hint.
                self.busy_hint_millis = Some(retry_after_millis);
                self.busy_sheds += 1;
                Err(EndpointError(format!("server busy: retry after {retry_after_millis}ms")))
            }
            frame => Ok(frame),
        }
    }

    /// One non-retrying `hello` exchange on the current stream; validates
    /// the version and refreshes the service token and clock cache.
    fn handshake(&mut self) -> Result<i64, EndpointError> {
        self.send(&Frame::Hello { proto: PROTO_VERSION })?;
        match self.recv()? {
            Frame::HelloAck { proto, server_clock_nanos, service } => {
                if proto != PROTO_VERSION {
                    return Err(EndpointError(format!(
                        "protocol version mismatch: client {PROTO_VERSION}, server {proto}"
                    )));
                }
                self.service = service;
                self.last_server_clock_nanos = server_clock_nanos;
                Ok(server_clock_nanos)
            }
            other => Err(EndpointError(format!("expected hello_ack, got {other:?}"))),
        }
    }

    /// Tears down the dead stream, waits out the backoff for `attempt`
    /// (at least the server's `busy` wait hint, if one was received),
    /// re-dials and re-handshakes. Any half-received bytes are dropped
    /// with the old connection — the new stream starts on a frame
    /// boundary by construction.
    fn reconnect(&mut self, attempt: u32) -> Result<(), EndpointError> {
        let mut delay = self.policy.backoff(attempt, &mut self.jitter);
        if let Some(hint) = self.busy_hint_millis.take() {
            delay = delay.max(Duration::from_millis(u64::from(hint)));
        }
        std::thread::sleep(delay);
        self.stream = Self::dial(self.addr, self.timeout)?;
        self.buf.clear();
        self.reconnects += 1;
        self.handshake()?;
        Ok(())
    }

    fn try_roundtrip(&mut self, frame: &Frame) -> Result<Frame, EndpointError> {
        self.send(frame)?;
        self.recv()
    }

    fn roundtrip(&mut self, frame: Frame) -> Result<Frame, EndpointError> {
        let mut last_err = match self.try_roundtrip(&frame) {
            Ok(reply) => return Ok(reply),
            Err(e) => e,
        };
        if self.policy.attempts == 0 {
            return Err(last_err);
        }
        for attempt in 0..self.policy.attempts {
            match self.reconnect(attempt).and_then(|()| self.try_roundtrip(&frame)) {
                Ok(reply) => return Ok(reply),
                Err(e) => last_err = e,
            }
        }
        Err(EndpointError(format!(
            "giving up after {} reconnect attempt(s): {last_err}",
            self.policy.attempts
        )))
    }

    /// One `hello` round trip: returns the server's clock reading
    /// (nanoseconds on its monotonic timeline) and refreshes the cached
    /// service token. This is the Cristian probe primitive: wrap the call
    /// between two local clock readings to form a
    /// [`ProbeSample`](conprobe_harness::clocksync::ProbeSample).
    pub fn hello(&mut self) -> Result<i64, EndpointError> {
        match self.roundtrip(Frame::Hello { proto: PROTO_VERSION })? {
            Frame::HelloAck { proto, server_clock_nanos, service } => {
                if proto != PROTO_VERSION {
                    return Err(EndpointError(format!(
                        "protocol version mismatch: client {PROTO_VERSION}, server {proto}"
                    )));
                }
                self.service = service;
                self.last_server_clock_nanos = server_clock_nanos;
                Ok(server_clock_nanos)
            }
            other => Err(EndpointError(format!("expected hello_ack, got {other:?}"))),
        }
    }

    /// Asks the server to begin a graceful drain; returns once the server
    /// acknowledged.
    pub fn stop_server(&mut self) -> Result<(), EndpointError> {
        match self.roundtrip(Frame::Stop)? {
            Frame::StopAck => Ok(()),
            other => Err(EndpointError(format!("expected stop_ack, got {other:?}"))),
        }
    }
}

impl ServiceEndpoint for WireClient {
    /// One keyed operation, with the echoed request id verified (a
    /// blocking client has exactly one request in flight, so any other
    /// id means the stream is confused).
    fn call(&mut self, op: ClientOp) -> Result<OpResult, EndpointError> {
        let (req, key) = (self.next_req, self.key);
        self.next_req = self.next_req.wrapping_add(1);
        let request = match op {
            ClientOp::Write(post) => Frame::WriteQ {
                req,
                key,
                author: post.id.author.0,
                seq: post.id.seq,
                client_ts_nanos: post.client_ts.as_nanos(),
                content: String::from(&*post.content),
            },
            ClientOp::Read => Frame::ReadQ { req, key },
            ClientOp::Inspect => {
                // Replica introspection is a white-box, sim-only facility.
                return Err(EndpointError("inspect is not part of the wire protocol".into()));
            }
        };
        let (got, result) = match self.roundtrip(request)? {
            Frame::WriteQAck { req, id } => (req, OpResult::WriteAck(PostId::from_u64(id))),
            Frame::ReadQOk { req, ids } => {
                (req, OpResult::ReadOk(ids.into_iter().map(PostId::from_u64).collect()))
            }
            Frame::Throttled { req } => (req, OpResult::Throttled),
            other => return Err(EndpointError(format!("unexpected response frame {other:?}"))),
        };
        if got != req {
            return Err(EndpointError(format!(
                "request id mismatch: sent {req}, response echoes {got}"
            )));
        }
        Ok(result)
    }

    fn server_clock(&mut self) -> Result<i64, EndpointError> {
        self.hello()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// What the listener doubles answer: an empty feed, an ack for the
    /// post a write names, and the control replies.
    fn canned_reply(request: Frame) -> Option<Frame> {
        Some(match request {
            Frame::Hello { .. } => Frame::HelloAck {
                proto: PROTO_VERSION,
                server_clock_nanos: 1,
                service: "blogger".into(),
            },
            Frame::WriteQ { req, author, seq, .. } => Frame::WriteQAck {
                req,
                id: PostId::new(conprobe_store::AuthorId(author), seq).as_u64(),
            },
            Frame::ReadQ { req, .. } => Frame::ReadQOk { req, ids: Vec::new() },
            Frame::Stop => Frame::StopAck,
            _ => return None,
        })
    }

    /// A miniature `cpw1` responder for exercising the reconnect path:
    /// accepts up to `conns` connections, *drops every `drop_every`-th
    /// one at accept* (the flaky half), and closes every surviving
    /// connection after serving `frames_per_conn` frames (so each
    /// operation beyond the handshake forces a reconnect). Returns the
    /// number of frames served.
    fn flaky_listener(
        drop_every: u64,
        frames_per_conn: u64,
        conns: u64,
    ) -> (SocketAddr, std::thread::JoinHandle<u64>, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut accepted = 0u64;
            let mut served = 0u64;
            while accepted < conns {
                let (mut stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    Err(_) => break,
                };
                stream.set_nonblocking(false).expect("blocking conn");
                accepted += 1;
                if drop_every > 0 && accepted.is_multiple_of(drop_every) {
                    continue; // flaky: close the fresh connection unserved
                }
                let _ = stream.set_nodelay(true);
                let mut buf = Vec::new();
                for _ in 0..frames_per_conn {
                    let Ok(frame) = read_frame(&mut stream, &mut buf) else { break };
                    let Some(reply) = canned_reply(frame) else { break };
                    served += 1;
                    if write_frame(&mut stream, &reply).is_err() {
                        break;
                    }
                }
            }
            served
        });
        (addr, handle, stop)
    }

    fn quick_policy() -> ReconnectPolicy {
        ReconnectPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
            seed: 42,
        }
    }

    #[test]
    fn reconnect_rides_out_dropped_connections_and_resends_in_flight_ops() {
        // Every connection serves the handshake plus exactly one
        // operation, and every second dial is dropped unserved: every op
        // after the first needs at least one reconnect, half of which
        // fail and must be retried under the backoff budget.
        let (addr, server, stop) = flaky_listener(2, 2, 40);
        let mut client =
            WireClient::connect_with_policy(addr, Duration::from_secs(2), quick_policy())
                .expect("initial connect");
        assert_eq!(client.service(), "blogger");
        for i in 0..5u32 {
            match client.call(ClientOp::Read).expect("read survives the flaky listener") {
                OpResult::ReadOk(ids) => assert!(ids.is_empty(), "op {i}"),
                other => panic!("expected ReadOk, got {other:?}"),
            }
        }
        assert!(
            client.reconnects() >= 5,
            "every post-handshake op forced at least one reconnect, got {}",
            client.reconnects()
        );
        assert_eq!(client.service(), "blogger", "the re-handshake refreshes the token");
        drop(client);
        stop.store(true, Ordering::Release);
        let served = server.join().expect("listener thread");
        assert!(served >= 10, "handshakes + ops were served across incarnations: {served}");
    }

    #[test]
    fn without_a_policy_the_first_drop_is_fatal() {
        // One connection, handshake only: the first call hits EOF and
        // the policy-free client reports it without re-dialing.
        let (addr, server, _stop) = flaky_listener(0, 1, 1);
        let mut client = WireClient::connect(addr, Duration::from_secs(2)).expect("connect");
        let err = client.call(ClientOp::Read).expect_err("no reconnect without a policy");
        assert!(!err.0.contains("giving up"), "no budget language on the fast path: {}", err.0);
        assert_eq!(client.reconnects(), 0);
        let _ = server.join();
    }

    #[test]
    fn exhausted_reconnect_budget_reports_the_attempts() {
        // One good connection, then the listener goes away for good: the
        // next op burns the whole budget against a dead address.
        let (addr, server, _stop) = flaky_listener(0, 2, 1);
        let mut client =
            WireClient::connect_with_policy(addr, Duration::from_secs(2), quick_policy())
                .expect("connect");
        client.call(ClientOp::Read).expect("first op served");
        let _ = server.join(); // listener closed: further dials are refused
        let err = client.call(ClientOp::Read).expect_err("budget must run out");
        assert!(err.0.contains("giving up after 4 reconnect attempt(s)"), "{}", err.0);
    }

    /// Sheds the first `sheds` dials with a `busy` frame (5 ms hint) and
    /// an immediate close — the server's load-shedding behaviour — then
    /// serves one connection normally for `frames` frames.
    fn shedding_listener(sheds: u32, frames: u64) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            for _ in 0..sheds {
                let (mut conn, _) = listener.accept().expect("accept to shed");
                let _ = write_frame(&mut conn, &Frame::Busy { retry_after_millis: 5 });
            }
            let (mut conn, _) = listener.accept().expect("accept to serve");
            let mut buf = Vec::new();
            for _ in 0..frames {
                let Ok(frame) = read_frame(&mut conn, &mut buf) else { return };
                let Some(reply) = canned_reply(frame) else { return };
                if write_frame(&mut conn, &reply).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn busy_shed_is_retryable_and_honours_the_wait_hint() {
        let (addr, server) = shedding_listener(2, 2);
        let started = std::time::Instant::now();
        let mut client =
            WireClient::connect_with_policy(addr, Duration::from_secs(2), quick_policy())
                .expect("the policy rides out the busy sheds");
        assert_eq!(client.busy_sheds(), 2, "both sheds were observed");
        assert!(
            started.elapsed() >= Duration::from_millis(10),
            "each reconnect waited at least the 5ms busy hint: {:?}",
            started.elapsed()
        );
        match client.call(ClientOp::Read).expect("post-shed op") {
            OpResult::ReadOk(ids) => assert!(ids.is_empty()),
            other => panic!("expected ReadOk, got {other:?}"),
        }
        drop(client);
        server.join().expect("listener thread");
    }

    #[test]
    fn busy_shed_without_a_policy_is_fatal() {
        let (addr, server) = shedding_listener(1, 0);
        let err = match WireClient::connect(addr, Duration::from_secs(2)) {
            Ok(_) => panic!("no retry budget, the shed is the caller's problem"),
            Err(e) => e,
        };
        assert!(err.0.contains("server busy: retry after 5ms"), "{}", err.0);
        drop(server); // the serving accept never happens; don't join
    }

    #[test]
    fn backoff_is_capped_and_jittered() {
        let policy = ReconnectPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            seed: 7,
        };
        let mut rng = SimRng::new(7).split("test");
        for attempt in 0..8 {
            let d = policy.backoff(attempt, &mut rng);
            let uncapped = policy.base_delay * 2u32.pow(attempt);
            let cap = uncapped.min(policy.max_delay);
            assert!(d >= cap.mul_f64(0.5), "attempt {attempt}: {d:?} under jitter floor");
            assert!(d <= cap, "attempt {attempt}: {d:?} over the cap");
        }
        // The jitter stream is seeded: same seed, same delays.
        let once: Vec<Duration> = {
            let mut rng = SimRng::new(9).split("t");
            (0..4).map(|a| policy.backoff(a, &mut rng)).collect()
        };
        let again: Vec<Duration> = {
            let mut rng = SimRng::new(9).split("t");
            (0..4).map(|a| policy.backoff(a, &mut rng)).collect()
        };
        assert_eq!(once, again);
    }

    #[test]
    fn a_write_carries_the_posts_body_onto_the_wire_unchanged() {
        // However `Post` holds its body, the `write_q` frame a client
        // sends is the one built from the same text as a `String`.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let hello = read_frame(&mut stream, &mut buf).expect("hello");
            write_frame(&mut stream, &canned_reply(hello).expect("hello ack")).expect("ack");
            let write = read_frame(&mut stream, &mut buf).expect("write_q");
            write_frame(&mut stream, &canned_reply(write.clone()).expect("write ack"))
                .expect("ack");
            write
        });
        let mut client = WireClient::connect(addr, Duration::from_secs(2)).expect("connect");
        client.set_key(Some(9));
        let body = "héllo, wire \u{1F980} — 64 bytes or so of opaque message body text";
        let id = PostId::new(conprobe_store::AuthorId(3), 7);
        let post = conprobe_store::Post::new(id, body, conprobe_sim::LocalTime::from_nanos(-5));
        client.call(ClientOp::Write(post)).expect("write acknowledged");
        let sent = server.join().expect("listener thread");
        let Frame::WriteQ { req, .. } = sent else { panic!("expected write_q, got {sent:?}") };
        let expected = Frame::WriteQ {
            req,
            key: 9,
            author: 3,
            seq: 7,
            client_ts_nanos: -5,
            content: body.to_string(),
        };
        assert_eq!(sent.encode(), expected.encode());
    }
}
