//! The blocking client side of `cpw1` — a [`ServiceEndpoint`].
//!
//! The live probe agents and the load generator's seeder call it through
//! that trait: one keyed operation per call, addressed to the client's
//! current keyspace key, with reconnect-and-resend underneath. The
//! dispatch worker sends its `work_req`/`result_push` frames through the
//! same exchange, so this is the one place in the crate that dials,
//! handshakes, backs off and re-sends.

use crate::frame::{read_frame, write_frame, Frame, PROTO_VERSION};
use conprobe_harness::transport::{EndpointError, ServiceEndpoint};
use conprobe_services::{ClientOp, OpResult};
use conprobe_sim::SimRng;
use conprobe_store::PostId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn io_err(context: &str, e: std::io::Error) -> EndpointError {
    EndpointError(format!("{context}: {e}"))
}

/// Dials `addr` within `timeout` for an event loop (`load`'s sweepers,
/// `chaosd`'s upstreams): no Nagle delay, non-blocking.
pub(crate) fn dial_nonblocking(addr: SocketAddr, timeout: Duration) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
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

/// Why an exchange failed, and whether a fresh session may fix it.
enum Failed {
    /// A dead or shed connection: re-dial under the policy.
    Retry(EndpointError),
    /// A version or service-token mismatch: every re-dial would meet it
    /// again, so it ends the exchange at once.
    Fatal(EndpointError),
}

impl From<EndpointError> for Failed {
    fn from(e: EndpointError) -> Self {
        Failed::Retry(e)
    }
}

/// A connected `cpw1` client over stream `S` (a `TcpStream` for every
/// public constructor; a scripted in-memory peer in the tests).
///
/// One request is in flight at a time, and the response must echo its
/// request id. The constructor performs the `hello` handshake and
/// verifies the protocol version, so a connected client is always
/// version-compatible. With a [`ReconnectPolicy`], a send or receive
/// failure transparently re-dials, re-handshakes and re-sends the
/// in-flight frame. The service token the first handshake learns is
/// pinned: a re-handshake that presents another one, like a version
/// mismatch, is terminal.
pub struct WireClient<S = TcpStream> {
    /// The live session; `None` after a failure, until the next dial.
    stream: Option<S>,
    /// Undecoded bytes read off the stream.
    buf: Vec<u8>,
    /// Opens a fresh stream to the server.
    dial: Box<dyn FnMut() -> Result<S, EndpointError> + Send>,
    /// Waits out a reconnect backoff.
    pause: Box<dyn FnMut(Duration) + Send>,
    policy: ReconnectPolicy,
    jitter: SimRng,
    reconnects: u64,
    service: String,
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
        Self::dial_tcp(addr, timeout, Some(timeout), policy)
    }

    /// [`WireClient::connect_with_policy`] with the read timeout set on
    /// its own: `None` lets a read block for as long as the server takes.
    pub(crate) fn dial_tcp(
        addr: SocketAddr,
        timeout: Duration,
        read_timeout: Option<Duration>,
        policy: ReconnectPolicy,
    ) -> Result<Self, EndpointError> {
        let dial = move || {
            let stream = TcpStream::connect_timeout(&addr, timeout)
                .map_err(|e| io_err(&format!("connect {addr}"), e))?;
            stream.set_nodelay(true).map_err(|e| io_err("set_nodelay", e))?;
            stream.set_read_timeout(read_timeout).map_err(|e| io_err("set_read_timeout", e))?;
            Ok(stream)
        };
        Self::with_dialer(dial, std::thread::sleep, policy)
    }
}

impl<S: Read + Write> WireClient<S> {
    /// Connects through `dial` and handshakes; `dial` opens every later
    /// session too, and every reconnect backoff is waited out by `pause`.
    /// A failed first dial or handshake — a load-shedding server answers
    /// the dial itself with `busy` and hangs up — is retried under
    /// `policy` like a mid-operation drop.
    pub(crate) fn with_dialer(
        dial: impl FnMut() -> Result<S, EndpointError> + Send + 'static,
        pause: impl FnMut(Duration) + Send + 'static,
        policy: ReconnectPolicy,
    ) -> Result<Self, EndpointError> {
        let jitter = SimRng::new(policy.seed).split("wire.client.backoff");
        let mut client = WireClient {
            stream: None,
            buf: Vec::new(),
            dial: Box::new(dial),
            pause: Box::new(pause),
            policy,
            jitter,
            reconnects: 0,
            service: String::new(),
            key: 0,
            next_req: 0,
            busy_hint_millis: None,
            busy_sheds: 0,
        };
        client.exchange(|_| Ok(()))?;
        Ok(client)
    }

    /// The journal-style token of the service the server hosts
    /// (`blogger`, `gplus`, …), learned during the first handshake.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// How many times this client re-dialed, refused dials included.
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
        let stream = self.stream.as_mut().expect("exchange opens a session before any send");
        write_frame(stream, frame).map_err(|e| io_err("send frame", e))
    }

    fn recv(&mut self) -> Result<Frame, EndpointError> {
        let stream = self.stream.as_mut().expect("exchange opens a session before any recv");
        match read_frame(stream, &mut self.buf).map_err(|e| io_err("receive frame", e))? {
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

    /// One `hello` exchange on the live session: checks the version and
    /// the pinned service token, and returns the server's clock.
    fn handshake(&mut self) -> Result<i64, Failed> {
        self.send(&Frame::Hello { proto: PROTO_VERSION })?;
        match self.recv()? {
            Frame::HelloAck { proto, .. } if proto != PROTO_VERSION => {
                Err(Failed::Fatal(EndpointError(format!(
                    "protocol version mismatch: client {PROTO_VERSION}, server {proto}"
                ))))
            }
            Frame::HelloAck { server_clock_nanos, service, .. } => {
                if self.service.is_empty() {
                    self.service = service;
                } else if service != self.service {
                    return Err(Failed::Fatal(EndpointError(format!(
                        "re-handshake found service '{service}' where '{}' was",
                        self.service
                    ))));
                }
                Ok(server_clock_nanos)
            }
            other => Err(EndpointError(format!("expected hello_ack, got {other:?}")).into()),
        }
    }

    /// Runs `step` on a live session, dialing and handshaking first if
    /// there is none. A retryable failure drops the session; under the
    /// policy the client then waits out the backoff (at least the
    /// server's `busy` hint, if one came), re-dials and runs `step` again,
    /// so a request is re-sent byte for byte on the fresh session. Any
    /// half-received bytes go with the old session — a new one starts on
    /// a frame boundary by construction.
    fn exchange<T>(
        &mut self,
        mut step: impl FnMut(&mut Self) -> Result<T, Failed>,
    ) -> Result<T, EndpointError> {
        let mut attempt = 0;
        loop {
            let outcome = match self.stream {
                Some(_) => step(self),
                None => self.open().and_then(|()| step(self)),
            };
            let failed = match outcome {
                Ok(value) => return Ok(value),
                Err(failed) => failed,
            };
            self.stream = None;
            let error = match failed {
                Failed::Fatal(e) => return Err(e),
                Failed::Retry(e) => e,
            };
            if attempt == self.policy.attempts {
                return Err(match attempt {
                    0 => error,
                    n => {
                        EndpointError(format!("giving up after {n} reconnect attempt(s): {error}"))
                    }
                });
            }
            let mut delay = self.policy.backoff(attempt, &mut self.jitter);
            if let Some(hint) = self.busy_hint_millis.take() {
                delay = delay.max(Duration::from_millis(u64::from(hint)));
            }
            (self.pause)(delay);
            self.reconnects += 1;
            attempt += 1;
        }
    }

    fn open(&mut self) -> Result<(), Failed> {
        self.stream = Some((self.dial)()?);
        self.buf.clear();
        self.handshake().map(drop)
    }

    /// One request/response exchange, re-sent on a fresh session under
    /// the policy when the connection dies.
    pub(crate) fn roundtrip(&mut self, frame: &Frame) -> Result<Frame, EndpointError> {
        self.exchange(|client| {
            client.send(frame)?;
            Ok(client.recv()?)
        })
    }

    /// One `hello` round trip: returns the server's clock reading
    /// (nanoseconds on its monotonic timeline) and re-checks the service
    /// token. This is the Cristian probe primitive: wrap the call
    /// between two local clock readings to form a
    /// [`ProbeSample`](conprobe_harness::clocksync::ProbeSample).
    pub fn hello(&mut self) -> Result<i64, EndpointError> {
        self.exchange(Self::handshake)
    }

    /// Asks the server to begin a graceful drain; returns once the server
    /// acknowledged.
    pub fn stop_server(&mut self) -> Result<(), EndpointError> {
        match self.roundtrip(&Frame::Stop)? {
            Frame::StopAck => Ok(()),
            other => Err(EndpointError(format!("expected stop_ack, got {other:?}"))),
        }
    }
}

impl<S: Read + Write> ServiceEndpoint for WireClient<S> {
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
        };
        let (got, result) = match self.roundtrip(&request)? {
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
    use crate::frame::decode;
    use conprobe_sim::LocalTime;
    use conprobe_store::{AuthorId, Post};
    use std::collections::VecDeque;
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};

    /// What the peers answer: an empty feed, an ack for the post a write
    /// names, and the control replies.
    fn canned_reply(request: Frame) -> Option<Frame> {
        Some(match request {
            Frame::Hello { .. } => Frame::HelloAck {
                proto: PROTO_VERSION,
                server_clock_nanos: 1,
                service: "blogger".into(),
            },
            Frame::WriteQ { req, author, seq, .. } => {
                Frame::WriteQAck { req, id: PostId::new(AuthorId(author), seq).as_u64() }
            }
            Frame::ReadQ { req, .. } => Frame::ReadQOk { req, ids: Vec::new() },
            Frame::Stop => Frame::StopAck,
            _ => return None,
        })
    }

    /// One scripted connection, in memory: answers its first `frames`
    /// requests with [`canned_reply`] (a hello with its own `proto` and
    /// `service`), then hangs up — later requests are swallowed and reads
    /// see EOF. Every byte the client writes lands in `log[conn]`.
    struct Peer {
        frames: u64,
        proto: u16,
        service: &'static str,
        /// Request bytes not yet decoded.
        pending: Vec<u8>,
        /// Reply bytes the client has not read yet.
        replies: VecDeque<u8>,
        log: Arc<Mutex<Vec<Vec<u8>>>>,
        conn: usize,
    }

    impl Peer {
        fn serving(frames: u64) -> Peer {
            Peer {
                frames,
                proto: PROTO_VERSION,
                service: "blogger",
                pending: Vec::new(),
                replies: VecDeque::new(),
                log: Arc::default(),
                conn: 0,
            }
        }

        /// Sheds the dial with a `busy` frame (5 ms hint) and hangs up —
        /// the server's load-shedding behaviour.
        fn shedding() -> Peer {
            let mut peer = Peer::serving(0);
            peer.replies.extend(Frame::Busy { retry_after_millis: 5 }.encode());
            peer
        }
    }

    impl Write for Peer {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.log.lock().unwrap()[self.conn].extend_from_slice(bytes);
            self.pending.extend_from_slice(bytes);
            while let Some((request, used)) = decode(&self.pending).expect("the client's frames") {
                self.pending.drain(..used);
                if self.frames == 0 {
                    continue;
                }
                self.frames -= 1;
                let reply = match request {
                    Frame::Hello { .. } => Frame::HelloAck {
                        proto: self.proto,
                        server_clock_nanos: 1,
                        service: self.service.into(),
                    },
                    other => canned_reply(other).expect("a request the peer answers"),
                };
                self.replies.extend(reply.encode());
            }
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Read for Peer {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.replies.read(out)
        }
    }

    /// What a scripted client did: the bytes it wrote on each connection
    /// it opened, in dial order, and every backoff it paused for.
    #[derive(Default)]
    struct Log {
        sent: Arc<Mutex<Vec<Vec<u8>>>>,
        pauses: Arc<Mutex<Vec<Duration>>>,
    }

    impl Log {
        fn sent(&self) -> Vec<Vec<u8>> {
            self.sent.lock().unwrap().clone()
        }

        fn pauses(&self) -> Vec<Duration> {
            self.pauses.lock().unwrap().clone()
        }
    }

    /// Connects a client whose `n`-th dial reaches `script(n)` (`None`:
    /// refused) and whose pauses are recorded, not slept.
    fn scripted(
        policy: ReconnectPolicy,
        script: impl Fn(usize) -> Option<Peer> + Send + 'static,
    ) -> (Result<WireClient<Peer>, EndpointError>, Log) {
        let log = Log::default();
        let (sent, pauses) = (Arc::clone(&log.sent), Arc::clone(&log.pauses));
        let mut dials = 0;
        let dial = move || {
            let mut peer = script(dials).ok_or_else(|| EndpointError("refused".into()))?;
            dials += 1;
            let mut conns = sent.lock().unwrap();
            (peer.log, peer.conn) = (Arc::clone(&sent), conns.len());
            conns.push(Vec::new());
            Ok(peer)
        };
        let pause = move |d| pauses.lock().unwrap().push(d);
        (WireClient::with_dialer(dial, pause, policy), log)
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
        // after the first needs two reconnects, the first of which fails
        // and must be retried under the backoff budget.
        let (client, log) =
            scripted(quick_policy(), |n| Some(Peer::serving(2 * (1 - n as u64 % 2))));
        let mut client = client.expect("initial connect");
        assert_eq!(client.service(), "blogger");
        for i in 0..5u32 {
            match client.call(ClientOp::Read).expect("read survives the flaky peer") {
                OpResult::ReadOk(ids) => assert!(ids.is_empty(), "op {i}"),
                other => panic!("expected ReadOk, got {other:?}"),
            }
        }
        assert_eq!(client.reconnects(), 8, "two re-dials for each op after the first");
        assert_eq!(log.pauses().len(), 8, "one backoff per re-dial");
        let sent = log.sent();
        assert_eq!(sent.len(), 9);
        let hello = Frame::Hello { proto: PROTO_VERSION }.encode();
        for op in 0..5u32 {
            let answered = [hello.clone(), Frame::ReadQ { req: op, key: 0 }.encode()].concat();
            assert!(
                sent[2 * op as usize].starts_with(&answered),
                "op {op} answered by dial {}",
                2 * op
            );
        }
        assert_eq!(client.service(), "blogger", "the token stays pinned");
    }

    #[test]
    fn without_a_policy_the_first_drop_is_fatal() {
        // One connection, handshake only: the first call hits EOF and
        // the policy-free client reports it without re-dialing.
        let (client, log) = scripted(ReconnectPolicy::disabled(), |_| Some(Peer::serving(1)));
        let mut client = client.expect("connect");
        let err = client.call(ClientOp::Read).expect_err("no reconnect without a policy");
        assert!(!err.0.contains("giving up"), "no budget language on the fast path: {}", err.0);
        assert_eq!(client.reconnects(), 0);
        assert_eq!((log.sent().len(), log.pauses().len()), (1, 0));
    }

    #[test]
    fn exhausted_reconnect_budget_reports_the_attempts() {
        // One good connection, then every dial is refused: the next op
        // burns the whole budget against a dead address.
        let (client, log) = scripted(quick_policy(), |n| (n == 0).then(|| Peer::serving(2)));
        let mut client = client.expect("connect");
        client.call(ClientOp::Read).expect("first op served");
        let err = client.call(ClientOp::Read).expect_err("budget must run out");
        assert!(err.0.contains("giving up after 4 reconnect attempt(s)"), "{}", err.0);
        assert_eq!(client.reconnects(), 4);
        assert_eq!(log.pauses().len(), 4);
    }

    #[test]
    fn busy_shed_is_retryable_and_honours_the_wait_hint() {
        let (client, log) = scripted(quick_policy(), |n| {
            Some(if n < 2 { Peer::shedding() } else { Peer::serving(2) })
        });
        let mut client = client.expect("the policy rides out the busy sheds");
        assert_eq!(client.busy_sheds(), 2, "both sheds were observed");
        let pauses = log.pauses();
        assert_eq!(pauses.len(), 2);
        // The policy alone would wait under 1 ms before the first re-dial.
        assert!(
            pauses.iter().all(|p| *p >= Duration::from_millis(5)),
            "each reconnect waited at least the 5ms busy hint: {pauses:?}"
        );
        match client.call(ClientOp::Read).expect("post-shed op") {
            OpResult::ReadOk(ids) => assert!(ids.is_empty()),
            other => panic!("expected ReadOk, got {other:?}"),
        }
    }

    #[test]
    fn busy_shed_without_a_policy_is_fatal() {
        let (client, log) = scripted(ReconnectPolicy::disabled(), |_| Some(Peer::shedding()));
        let Err(err) = client else { panic!("no retry budget, the shed is the caller's problem") };
        assert!(err.0.contains("server busy: retry after 5ms"), "{}", err.0);
        assert_eq!((log.sent().len(), log.pauses().len()), (1, 0));
    }

    #[test]
    fn a_version_mismatch_fails_at_once() {
        let mismatch = format!("version mismatch: client {PROTO_VERSION}, server 4");
        // At connect: one dial, no pause, no re-dial — though the
        // budget would allow four.
        let (client, log) =
            scripted(quick_policy(), |_| Some(Peer { proto: 4, ..Peer::serving(9) }));
        let Err(err) = client else { panic!("a version-4 server must be refused") };
        assert!(err.0.contains(&mismatch), "{}", err.0);
        assert_eq!((log.sent().len(), log.pauses().len()), (1, 0));
        // On a live session's clock probe: the same, and no reconnect.
        let (client, log) = scripted(quick_policy(), |_| Some(Peer::serving(9)));
        let mut client = client.expect("connect");
        client.stream.as_mut().expect("a live session").proto = 4;
        let err = client.hello().expect_err("a version-4 hello_ack is refused");
        assert!(err.0.contains(&mismatch), "{}", err.0);
        assert_eq!(client.reconnects(), 0);
        assert_eq!((log.sent().len(), log.pauses().len()), (1, 0));
    }

    #[test]
    fn a_re_handshake_with_another_service_token_is_terminal() {
        // The blogger server hangs up after one op; the re-dial reaches
        // a server hosting gplus. The client must not silently switch.
        let (client, log) = scripted(quick_policy(), |n| {
            Some(if n == 0 {
                Peer::serving(2)
            } else {
                Peer { service: "gplus", ..Peer::serving(9) }
            })
        });
        let mut client = client.expect("connect");
        client.call(ClientOp::Read).expect("first op served");
        let err = client.call(ClientOp::Read).expect_err("another service is refused");
        assert!(err.0.contains("'gplus' where 'blogger'"), "{}", err.0);
        assert_eq!(client.service(), "blogger");
        assert_eq!(client.reconnects(), 1);
        assert_eq!(log.sent().len(), 2, "no re-dial after the mismatch");
    }

    #[test]
    fn a_request_lost_with_its_connection_is_resent_byte_for_byte() {
        // At-least-once delivery: the first connection takes the write
        // and dies before answering it; the next dial must carry the same
        // hello and the same `write_q` bytes (same request id included).
        let (client, log) = scripted(quick_policy(), |n| Some(Peer::serving(1 + n as u64)));
        let mut client = client.expect("connect");
        let id = PostId::new(AuthorId(3), 7);
        let post = Post::new(id, "at least once", LocalTime::from_nanos(-5));
        match client.call(ClientOp::Write(post)).expect("acked on the second session") {
            OpResult::WriteAck(acked) => assert_eq!(acked, id),
            other => panic!("expected WriteAck, got {other:?}"),
        }
        let sent = log.sent();
        assert_eq!(sent.len(), 2);
        let hello = Frame::Hello { proto: PROTO_VERSION }.encode();
        assert!(sent[0].len() > hello.len(), "the write reached the first connection");
        assert_eq!(sent[0], sent[1]);
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
        let id = PostId::new(AuthorId(3), 7);
        let post = Post::new(id, body, LocalTime::from_nanos(-5));
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
