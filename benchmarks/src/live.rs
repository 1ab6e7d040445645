//! The live workloads, `wire-read` and `wire-mixed`: a real `WireServer`
//! on loopback TCP, driven by one generator thread over two non-blocking
//! pipelined connections.
//!
//! Three kinds of phase run on the same connections: open-loop Poisson
//! arrivals at a low and at a high fixed rate, where latency runs from the
//! instant an op was *due* (a stall is charged to every op due during
//! it), and a closed loop with 2 × 64 requests in flight, flat out, which
//! is the capacity figure. A rate-ladder search for the knee is not used:
//! rungs near it swing by orders of magnitude between identical runs.
//!
//! Every response is checked — FIFO order per connection, the kind that
//! answers the request, the exact ids for a read-only corpus, each write
//! acknowledged once under its own id — and after the phases every key is
//! read at every listener until it shows the seeded and acknowledged ids,
//! so no acknowledged write is lost.

use crate::calib::{Reference, SET_UPS_AFTER, SET_UPS_BEFORE};
use crate::gen::{ops_hash, poisson_schedule, Op, OpStream, Rng};
use crate::metrics::{Better, Outcome, Values};
use crate::stats::{median, per_slice, percentile, quiet_quartile, series};
use crate::util::record_peak_rss;
use conprobe::harness::ServiceEndpoint;
use conprobe::services::{ClientOp, OpResult, ServiceKind};
use conprobe::sim::LocalTime;
use conprobe::store::{AuthorId, Post, PostId};
use conprobe::wire::frame::{append_read_q, append_write_q, decode_raw, HEADER_LEN};
use conprobe::wire::{ServeConfig, WireClient, WireServer};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Keys in the corpus.
pub const KEYS: u32 = 1024;
/// Posts seeded per key.
pub const POSTS_PER_KEY: u32 = 8;
/// Closed-loop requests in flight per connection.
const DEPTH: usize = 64;
/// Generator connections (`nproc` on the sizing machine).
const CONNS: usize = 2;
/// Slice length for capacity and tail statistics.
const SLICE_NS: u64 = 500_000_000;
/// An op unanswered this long after it was due has failed.
const OP_TIMEOUT_NS: u64 = 1_000_000_000;
/// A phase whose generator ran later than this (p99) is re-run once.
const LATE_LIMIT_US: f64 = 1000.0;
/// The weak arm's anti-entropy period: the convergence check allows two.
const ANTI_ENTROPY: Duration = Duration::from_secs(2);
const IO_TIMEOUT: Duration = Duration::from_secs(5);

// `cpw1` response kinds (the crate keeps the constants private).
const KIND_WRITE_Q_ACK: u8 = 10;
const KIND_READ_Q_OK: u8 = 12;

/// A live workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Workload name.
    pub name: &'static str,
    /// Hosted service.
    pub kind: ServiceKind,
    /// Share of `write_q` in the mix, percent.
    pub write_pct: u32,
    /// Low open-loop rate, ops/s.
    pub lo_rate: f64,
    /// High open-loop rate, ops/s — the rate `lat_p50_us` is taken at.
    pub hi_rate: f64,
}

/// Read-only traffic on a single-replica service: the pure data plane.
pub const WIRE_READ: LiveSpec = LiveSpec {
    name: "wire-read",
    kind: ServiceKind::Blogger,
    write_pct: 0,
    lo_rate: 20_000.0,
    hi_rate: 100_000.0,
};

/// 90/10 reads/writes through two front doors of a weak three-replica arm.
pub const WIRE_MIXED: LiveSpec = LiveSpec {
    name: "wire-mixed",
    kind: ServiceKind::FacebookFeed,
    write_pct: 10,
    lo_rate: 10_000.0,
    hi_rate: 40_000.0,
};

/// The body of every generated write: 64 bytes, a function of the seed.
pub fn write_body(seed: u64) -> String {
    format!("{:-<64}", format!("conprobe-bench write seed {seed:#x} "))
}

/// The corpus post `slot` of `key`.
pub fn corpus_post(ids: &mut Rng, key: u32, slot: u32, body: &str) -> Post {
    let id = PostId::new(AuthorId(ids.below(3)), key * POSTS_PER_KEY + slot + 1);
    Post::new(id, body, LocalTime::from_nanos(i64::from(slot) * 1_000))
}

/// Frames the benchmark sent, to be matched against the server's own
/// counters at drain.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// `hello` handshakes (one per blocking client).
    pub hellos: u64,
    /// `read`/`read_q` requests.
    pub reads: u64,
    /// `write`/`write_q` requests.
    pub writes: u64,
}

/// A running server with its seeded corpus.
pub struct Bed {
    spec: LiveSpec,
    server: WireServer,
    addrs: Vec<SocketAddr>,
    /// Per key, the seeded ids (sorted).
    seeded: Vec<Vec<u64>>,
    /// Per key, the id bytes a read returned right after seeding. A
    /// read-only workload must see exactly these bytes in every response.
    served: Vec<Vec<u8>>,
    /// Per key, ids of acknowledged generated writes.
    acked: Vec<Vec<u64>>,
    sent: Sent,
    body: String,
}

fn read_ids(client: &mut WireClient, key: u32) -> Result<Vec<u64>, String> {
    client.set_key(Some(key));
    match client.call(ClientOp::Read) {
        Ok(OpResult::ReadOk(ids)) => Ok(ids.into_iter().map(PostId::as_u64).collect()),
        other => Err(format!("read of key {key}: {other:?}")),
    }
}

fn sorted(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort_unstable();
    ids
}

impl Bed {
    /// Starts the server and seeds the corpus over the wire: every post
    /// written and acknowledged, then every key read back, 64 requests in
    /// flight on one connection. (One blocking round trip per post would
    /// time 9 000 thread wake-ups of a virtual machine, not the server.)
    pub fn set_up(spec: LiveSpec, seed: u64) -> Result<Bed, String> {
        let server = WireServer::start(&ServeConfig::loopback(spec.kind, seed))
            .map_err(|e| format!("bind loopback server: {e}"))?;
        let addrs: Vec<SocketAddr> = server.addrs().iter().map(|(_, a)| *a).collect();
        let body = write_body(seed);
        let mut sent = Sent::default();
        let mut ids = Rng::new(seed, "corpus");
        let corpus: Vec<(u32, u32, PostId)> = (0..KEYS)
            .flat_map(|key| (0..POSTS_PER_KEY).map(move |slot| (key, slot)))
            .map(|(key, slot)| (key, slot, corpus_post(&mut ids, key, slot, &body).id))
            .collect();
        let mut seeded = vec![Vec::new(); KEYS as usize];
        for (key, _, id) in &corpus {
            seeded[*key as usize].push(id.as_u64());
        }
        seeded.iter_mut().for_each(|ids| ids.sort_unstable());

        let mut conn = Conn::dial(addrs[0], 0, 0)?;
        let (mut acked, mut served) =
            (vec![Vec::new(); KEYS as usize], vec![Vec::new(); KEYS as usize]);
        let mut check = Check {
            served: None,
            capture: Some(&mut served),
            acked: &mut acked,
            sent: &mut sent,
            body: &body,
            wrong: 0,
        };
        let writes = corpus.iter().map(|(key, slot, id)| Request::Write {
            key: *key,
            id: *id,
            client_ts: i64::from(*slot) * 1_000,
        });
        conn.pipeline(&mut check, writes)?;
        conn.pipeline(&mut check, (0..KEYS).map(|key| Request::Read { key }))?;
        if check.wrong > 0 {
            return Err(format!("{} seeding request(s) were answered wrongly", check.wrong));
        }
        for key in 0..KEYS as usize {
            let read_back: Vec<u64> = served[key]
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            if sorted(read_back.clone()) != seeded[key] || sorted(acked[key].clone()) != seeded[key]
            {
                return Err(format!("key {key} does not serve its seeded posts: {read_back:?}"));
            }
        }
        let acked = vec![Vec::new(); KEYS as usize];
        Ok(Bed { spec, server, addrs, seeded, served, acked, sent, body })
    }

    /// The checker for this bed's generator connections.
    fn check(&mut self) -> Check<'_> {
        Check {
            served: (self.spec.write_pct == 0).then_some(self.served.as_slice()),
            capture: None,
            acked: &mut self.acked,
            sent: &mut self.sent,
            body: &self.body,
            wrong: 0,
        }
    }

    fn connect(&self) -> Result<Vec<Conn>, String> {
        (0..CONNS)
            .map(|i| {
                // Connection i dials front door i: on the weak arm that is
                // two replicas taking writes (multi-master). Only replica 0
                // was seeded directly; the others hold the corpus once
                // replication delivers it.
                let floor = if i == 0 || self.spec.write_pct == 0 { POSTS_PER_KEY } else { 0 };
                Conn::dial(self.addrs[i], i as u32, floor)
            })
            .collect()
    }

    /// After the phases: every key, at every listener, must come to show
    /// exactly the seeded and the acknowledged ids within two
    /// anti-entropy periods — no acknowledged write lost, none invented.
    pub fn check_converged(&mut self) -> Result<(), String> {
        let want: Vec<Vec<u64>> = (0..KEYS as usize)
            .map(|k| sorted(self.seeded[k].iter().chain(&self.acked[k]).copied().collect()))
            .collect();
        let mut clients = Vec::new();
        for addr in &self.addrs {
            clients
                .push(WireClient::connect(*addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?);
            self.sent.hellos += 1;
        }
        let deadline = Instant::now() + 2 * ANTI_ENTROPY + Duration::from_secs(1);
        loop {
            let mut lagging = 0usize;
            for (door, client) in clients.iter_mut().enumerate() {
                for key in 0..KEYS {
                    let got = sorted(read_ids(client, key)?);
                    self.sent.reads += 1;
                    let want = &want[key as usize];
                    if let Some(extra) = got.iter().find(|id| want.binary_search(id).is_err()) {
                        return Err(format!(
                            "listener {door} key {key} serves unknown id {extra:#x}"
                        ));
                    }
                    lagging += usize::from(got.len() != want.len());
                }
            }
            if lagging == 0 {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{lagging} (listener, key) reads still miss acknowledged writes after two \
                     anti-entropy periods"
                ));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Drains the server and matches its frame counters against what was
    /// sent. Returns the server's counts and the drain time.
    pub fn tear_down(self) -> Result<(Sent, Duration), String> {
        let began = Instant::now();
        self.server.request_stop();
        let dump = self.server.join();
        let drain = began.elapsed();
        let doc = conprobe::json::parse(&dump).map_err(|e| format!("server metrics dump: {e}"))?;
        let counter = |name: &str| {
            doc.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
        };
        let served = Sent {
            hellos: counter("wire.server.hellos"),
            reads: counter("wire.server.reads"),
            writes: counter("wire.server.writes"),
        };
        let frames = counter("wire.server.frames");
        if served != self.sent || frames != served.hellos + served.reads + served.writes {
            return Err(format!(
                "server counted {served:?} in {frames} frames, the benchmark sent {:?}",
                self.sent
            ));
        }
        Ok((served, drain))
    }
}

/// One request awaiting its response.
struct Pending {
    req: u32,
    key: u32,
    /// Due time (open loop) or issue time (closed loop), phase clock.
    t0_ns: u64,
    /// The id a write must be acknowledged under; 0 for a read.
    write_id: u64,
    /// Ids a read must at least return: what this connection's replica
    /// held for the key when the read was queued behind its own writes.
    min_ids: u32,
}

/// A non-blocking pipelined generator connection.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    outpos: usize,
    inb: Vec<u8>,
    inpos: usize,
    inflight: VecDeque<Pending>,
    next_req: u32,
    author: u32,
    next_seq: u32,
    written: Vec<u32>,
    floor: u32,
}

/// What the checker needs besides the connection.
struct Check<'a> {
    /// Exact id bytes per key, for a read-only corpus.
    served: Option<&'a [Vec<u8>]>,
    /// Set-up only: where to keep the id bytes each key's read returned.
    capture: Option<&'a mut Vec<Vec<u8>>>,
    acked: &'a mut [Vec<u64>],
    sent: &'a mut Sent,
    body: &'a str,
    /// Responses that arrived in order but with the wrong content.
    wrong: u64,
}

/// One request of the seeding pipeline.
enum Request {
    Write { key: u32, id: PostId, client_ts: i64 },
    Read { key: u32 },
}

impl Conn {
    /// Dials front door `addr` as generator connection `index`.
    fn dial(addr: SocketAddr, index: u32, floor: u32) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .and_then(|s| s.set_nodelay(true).and(s.set_nonblocking(true)).map(|()| s))
            .map_err(|e| format!("connect generator connection {index}: {e}"))?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(64 * 1024),
            outpos: 0,
            inb: Vec::with_capacity(256 * 1024),
            inpos: 0,
            inflight: VecDeque::with_capacity(4096),
            next_req: 0,
            author: 100 + index,
            next_seq: 0,
            written: vec![0; KEYS as usize],
            floor,
        })
    }

    fn enqueue_write(
        &mut self,
        key: u32,
        id: PostId,
        client_ts: i64,
        t0_ns: u64,
        check: &mut Check<'_>,
    ) {
        let req = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        append_write_q(&mut self.out, req, key, id.author.0, id.seq, client_ts, check.body);
        self.written[key as usize] += 1;
        check.sent.writes += 1;
        self.inflight.push_back(Pending { req, key, t0_ns, write_id: id.as_u64(), min_ids: 0 });
    }

    fn enqueue_read(&mut self, key: u32, t0_ns: u64, check: &mut Check<'_>) {
        let req = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        append_read_q(&mut self.out, req, key);
        check.sent.reads += 1;
        let min_ids = self.floor + self.written[key as usize];
        self.inflight.push_back(Pending { req, key, t0_ns, write_id: 0, min_ids });
    }

    /// Queues a generated op: a write gets this connection's next id.
    fn enqueue(&mut self, op: Op, t0_ns: u64, check: &mut Check<'_>) {
        if op.write {
            self.next_seq += 1;
            let id = PostId::new(AuthorId(self.author), self.next_seq);
            self.enqueue_write(op.key, id, t0_ns as i64, t0_ns, check);
        } else {
            self.enqueue_read(op.key, t0_ns, check);
        }
    }

    /// Sends `requests` with up to [`DEPTH`] in flight and waits for every
    /// answer.
    fn pipeline(
        &mut self,
        check: &mut Check<'_>,
        requests: impl Iterator<Item = Request>,
    ) -> Result<(), String> {
        let mut requests = requests.peekable();
        let (mut scratch, mut done) = (vec![0u8; 64 * 1024], Vec::new());
        let mut last_progress = Instant::now();
        while requests.peek().is_some() || !self.inflight.is_empty() {
            while self.inflight.len() < DEPTH {
                match requests.next() {
                    Some(Request::Write { key, id, client_ts }) => {
                        self.enqueue_write(key, id, client_ts, 0, check)
                    }
                    Some(Request::Read { key }) => self.enqueue_read(key, 0, check),
                    None => break,
                }
            }
            if self.pump(&mut scratch, check, &mut done)? {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > IO_TIMEOUT {
                return Err("the server stopped answering during set-up".into());
            }
            done.clear();
        }
        Ok(())
    }

    /// Flushes queued requests, reads what the socket has, and moves every
    /// answered request to `done`. `Ok(true)` when bytes moved.
    fn pump(
        &mut self,
        scratch: &mut [u8],
        check: &mut Check<'_>,
        done: &mut Vec<Pending>,
    ) -> Result<bool, String> {
        let mut progressed = false;
        while self.outpos < self.out.len() {
            match self.stream.write(&self.out[self.outpos..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.outpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        if self.outpos == self.out.len() {
            self.out.clear();
            self.outpos = 0;
        }
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.inb.extend_from_slice(&scratch[..n]);
                    progressed = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        while let Some(raw) =
            decode_raw(&self.inb[self.inpos..]).map_err(|e| format!("response decode: {e}"))?
        {
            let payload = &self.inb[self.inpos + HEADER_LEN..self.inpos + raw.consumed];
            let head = self.inflight.pop_front().ok_or("a response nobody asked for")?;
            let echoed = payload.get(..4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
            if echoed != Some(head.req) {
                return Err(format!(
                    "FIFO order broken: expected req {}, got {echoed:?}",
                    head.req
                ));
            }
            let ok = if head.write_id != 0 {
                let ok =
                    raw.kind == KIND_WRITE_Q_ACK && payload[4..] == head.write_id.to_le_bytes();
                if ok {
                    check.acked[head.key as usize].push(head.write_id);
                }
                ok
            } else {
                let ids = &payload[4..];
                if let Some(capture) = check.capture.as_deref_mut() {
                    capture[head.key as usize] = ids.to_vec();
                }
                raw.kind == KIND_READ_Q_OK
                    && match check.served {
                        Some(served) => ids == served[head.key as usize].as_slice(),
                        None => ids.len() / 8 >= head.min_ids as usize,
                    }
            };
            check.wrong += u64::from(!ok);
            self.inpos += raw.consumed;
            done.push(head);
        }
        if self.inpos == self.inb.len() {
            self.inb.clear();
            self.inpos = 0;
        } else if self.inpos > 64 * 1024 {
            self.inb.drain(..self.inpos);
            self.inpos = 0;
        }
        Ok(progressed)
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops due (open loop) or answered (closed loop) inside the window.
    pub attempted: u64,
    /// Of those: wrong content, or never answered.
    pub failed: u64,
    /// Read latencies per slice, nanoseconds (closed loop: one in eight).
    pub read_lat: Vec<Vec<u32>>,
    /// Write latencies per slice, nanoseconds.
    pub write_lat: Vec<Vec<u32>>,
    /// Ops answered per slice (closed loop).
    pub answered: Vec<u64>,
    /// Issue time minus due time, nanoseconds (open loop).
    pub late: Vec<u32>,
    /// Nanoseconds the generator spent doing work, and in all.
    pub busy_ns: u64,
    /// Wall nanoseconds of the windows.
    pub wall_ns: u64,
    /// Why the phase stopped early, if it did.
    pub fault: Option<String>,
}

impl Phase {
    fn sized(slices: usize, per_slice: usize, late: usize) -> Phase {
        // Buffers are sized up front so the generator's own memory is the
        // same on every run.
        Phase {
            read_lat: (0..slices).map(|_| Vec::with_capacity(per_slice)).collect(),
            write_lat: (0..slices).map(|_| Vec::with_capacity(per_slice / 4)).collect(),
            answered: vec![0; slices],
            late: Vec::with_capacity(late),
            ..Phase::default()
        }
    }

    /// Appends another window of the same phase.
    fn absorb(&mut self, window: Phase) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        self.read_lat.extend(window.read_lat);
        self.write_lat.extend(window.write_lat);
        self.answered.extend(window.answered);
        self.late.extend(window.late);
        self.busy_ns += window.busy_ns;
        self.wall_ns += window.wall_ns;
        self.fault = self.fault.take().or(window.fault);
    }

    /// Share of the phase the generator spent doing work.
    pub fn busy_frac(&self) -> f64 {
        self.busy_ns as f64 / self.wall_ns.max(1) as f64
    }

    fn all(slices: &[Vec<u32>]) -> Vec<u32> {
        let mut all: Vec<u32> = slices.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Whole-window percentile of the read latencies, microseconds, with
    /// the sample count.
    pub fn read_us(&self, p: f64) -> (f64, usize) {
        let all = Phase::all(&self.read_lat);
        (f64::from(percentile(&all, p)) / 1e3, all.len())
    }

    /// Whole-window percentile of the write latencies, microseconds.
    pub fn write_us(&self, p: f64) -> (f64, usize) {
        let all = Phase::all(&self.write_lat);
        (f64::from(percentile(&all, p)) / 1e3, all.len())
    }

    /// Per-slice read percentile, median across slices, microseconds.
    pub fn read_tail_us(&self, p: f64) -> f64 {
        median(&per_slice(&self.read_lat, p)) / 1e3
    }

    /// p99 of how late the generator issued, microseconds.
    pub fn late_p99_us(&self) -> f64 {
        let mut late = self.late.clone();
        late.sort_unstable();
        f64::from(percentile(&late, 0.99)) / 1e3
    }

    /// The slowest op of the window, milliseconds.
    pub fn max_ms(&self) -> f64 {
        let max = self.read_lat.iter().chain(&self.write_lat).flatten().max().copied();
        f64::from(max.unwrap_or(0)) / 1e6
    }

    /// Ops per second in each slice (closed loop).
    pub fn slice_ops_per_s(&self) -> Vec<f64> {
        self.answered.iter().map(|n| *n as f64 / (SLICE_NS as f64 / 1e9)).collect()
    }

    /// The closed loop's capacity: the quiet quartile of the slice rates.
    pub fn ops_per_s(&self) -> f64 {
        quiet_quartile(&self.slice_ops_per_s(), Better::Higher)
    }
}

fn clock(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn record(phase: &mut Phase, p: &Pending, slice: usize, now: u64) {
    let lat = (now - p.t0_ns).min(u64::from(u32::MAX)) as u32;
    let into = if p.write_id != 0 { &mut phase.write_lat } else { &mut phase.read_lat };
    into[slice].push(lat);
}

/// Open loop: `ops` are issued when due, round-robin over the
/// connections; ops due before `warm_ns` are sent but not measured.
fn open_loop(
    conns: &mut [Conn],
    check: &mut Check<'_>,
    ops: &[Op],
    warm_ns: u64,
    slices: usize,
) -> Phase {
    let mut phase = Phase::sized(slices, ops.len() / slices + 1024, ops.len());
    let (mut scratch, mut done) = (vec![0u8; 256 * 1024], Vec::with_capacity(4096));
    let wrong_before = check.wrong;
    let (mut next, mut busy_ns) = (0usize, 0u64);
    let epoch = Instant::now();
    let fault = loop {
        let now = clock(epoch);
        let mut progressed = false;
        while next < ops.len() && ops[next].due_ns <= now {
            let op = ops[next];
            conns[next % conns.len()].enqueue(op, op.due_ns, check);
            if op.due_ns >= warm_ns {
                phase.late.push((now - op.due_ns).min(u64::from(u32::MAX)) as u32);
            }
            next += 1;
            progressed = true;
        }
        let mut fault = None;
        for conn in conns.iter_mut() {
            match conn.pump(&mut scratch, check, &mut done) {
                Ok(moved) => progressed |= moved,
                Err(e) => fault = Some(e),
            }
        }
        let after = clock(epoch);
        for p in done.drain(..) {
            if p.t0_ns >= warm_ns {
                let slice = (((p.t0_ns - warm_ns) / SLICE_NS) as usize).min(slices - 1);
                record(&mut phase, &p, slice, after);
            }
        }
        if progressed {
            busy_ns += after - now;
        }
        if fault.is_some() {
            break fault;
        }
        let oldest = conns.iter().filter_map(|c| c.inflight.front()).map(|p| p.t0_ns).min();
        match oldest {
            None if next == ops.len() => break None,
            Some(t0) if after > t0 + OP_TIMEOUT_NS => {
                break Some("an op went unanswered for 1 s after it was due".into())
            }
            _ => {}
        }
    };
    (phase.busy_ns, phase.wall_ns) = (busy_ns, clock(epoch));
    phase.attempted = ops.iter().filter(|op| op.due_ns >= warm_ns).count() as u64;
    let answered: usize = phase.read_lat.iter().chain(&phase.write_lat).map(Vec::len).sum();
    phase.failed = (check.wrong - wrong_before) + (phase.attempted - answered as u64);
    phase.fault = fault;
    phase
}

/// Closed loop: every connection keeps [`DEPTH`] requests in flight for
/// `warm_ns` plus `slices` slices; answers inside the slices are counted.
fn closed_loop(
    conns: &mut [Conn],
    check: &mut Check<'_>,
    stream: &mut OpStream,
    warm_ns: u64,
    slices: usize,
) -> Phase {
    let mut phase = Phase::sized(slices, 1 << 18, 0);
    let (mut scratch, mut done) = (vec![0u8; 256 * 1024], Vec::with_capacity(4096));
    let wrong_before = check.wrong;
    let end_ns = warm_ns + slices as u64 * SLICE_NS;
    let epoch = Instant::now();
    let fault = loop {
        let now = clock(epoch);
        let issuing = now < end_ns;
        let mut fault = None;
        for conn in conns.iter_mut() {
            while issuing && conn.inflight.len() < DEPTH {
                conn.enqueue(stream.next_op(0), now, check);
            }
            if let Err(e) = conn.pump(&mut scratch, check, &mut done) {
                fault = Some(e);
            }
        }
        let after = clock(epoch);
        for p in done.drain(..) {
            if (warm_ns..end_ns).contains(&after) {
                let slice = ((after - warm_ns) / SLICE_NS) as usize;
                phase.answered[slice] += 1;
                // One latency in eight: at millions of ops a second the
                // full set would be the process's largest allocation.
                if p.req % 8 == 0 {
                    record(&mut phase, &p, slice, after);
                }
            }
        }
        if fault.is_some() {
            break fault;
        }
        let oldest = conns.iter().filter_map(|c| c.inflight.front()).map(|p| p.t0_ns).min();
        match oldest {
            None if !issuing => break None,
            Some(t0) if after > t0 + OP_TIMEOUT_NS => {
                break Some("a request went unanswered for 1 s".into())
            }
            _ => {}
        }
    };
    let unanswered: usize = conns.iter().map(|c| c.inflight.len()).sum();
    phase.failed = (check.wrong - wrong_before) + unanswered as u64;
    phase.attempted = phase.answered.iter().sum::<u64>() + phase.failed;
    phase.fault = fault;
    phase
}

/// The phases of one run, in windows. A window is a short warm-up and
/// two slices; between windows the generator pauses and the machine-speed
/// reference is sampled, so the samples span the run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Windows of the low-rate open loop (0 = skipped).
    pub lo_windows: usize,
    /// Windows of the high-rate open loop.
    pub hi_windows: usize,
    /// Windows of the closed loop.
    pub sat_windows: usize,
}

/// Warm-up before each window's slices.
const WARM_NS: u64 = SLICE_NS / 2;
/// Measured slices per window.
const WINDOW_SLICES: usize = 2;
/// A window, warm-up included.
const WINDOW_NS: u64 = WARM_NS + WINDOW_SLICES as u64 * SLICE_NS;

impl Plan {
    /// The end-to-end plan for `seconds`: the high rate and the closed
    /// loop share the time; the low rate is left to the traced run.
    pub fn end_to_end(seconds: u64) -> Plan {
        let windows = (seconds * 1_000_000_000 / WINDOW_NS) as usize;
        let hi = (windows / 2).max(1);
        Plan { lo_windows: 0, hi_windows: hi, sat_windows: windows.saturating_sub(hi).max(1) }
    }

    /// The traced run's plan: all three phases in half of `seconds`.
    pub fn traced(seconds: u64) -> Plan {
        let each = ((seconds * 1_000_000_000 / 6 / WINDOW_NS) as usize).max(1);
        Plan { lo_windows: each, hi_windows: each, sat_windows: each }
    }
}

/// What the phases of one live run measured.
pub struct LiveRun {
    /// Low-rate open loop, when planned.
    pub lo: Option<Phase>,
    /// High-rate open loop.
    pub hi: Phase,
    /// Closed loop.
    pub sat: Phase,
    /// Worst generator lateness (p99) over the open-loop windows kept.
    pub late_p99_us: f64,
    /// Fingerprint of the high-rate schedule: two runs that print the
    /// same one sent the same ops at the same instants.
    pub schedule_hash: u64,
    /// Windows re-run because the generator itself stalled.
    pub reruns: u32,
    /// Why a window stopped early, if one did.
    pub fault: Option<String>,
}

impl LiveRun {
    /// Ops attempted and failed inside the measured slices.
    pub fn tally(&self) -> (u64, u64) {
        let phases = self.lo.iter().chain([&self.hi, &self.sat]);
        phases.fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    }
}

impl Bed {
    /// Runs `plan` on fresh generator connections, sampling `reference`
    /// before every window. The closed loop runs last: how many writes it
    /// makes depends on its speed, and that must not reach back into the
    /// fixed-rate phases.
    pub fn run(
        &mut self,
        plan: Plan,
        seed: u64,
        reference: &mut Reference,
    ) -> Result<LiveRun, String> {
        let mut conns = self.connect()?;
        let spec = self.spec;
        let mut check = self.check();
        let (mut reruns, mut late_p99_us, mut schedule_hash) = (0u32, 0f64, 0u64);
        let mut open =
            |label: &'static str, rate: f64, windows: usize, reference: &mut Reference| {
                let mut phase = Phase::default();
                for k in 0..windows as u64 {
                    reference.sample();
                    let stream = OpStream::new(seed.wrapping_add(k), label, KEYS, spec.write_pct);
                    let ops = poisson_schedule(stream, seed.wrapping_add(k), rate, WINDOW_NS);
                    schedule_hash = schedule_hash.rotate_left(1) ^ ops_hash(&ops);
                    let mut window =
                        open_loop(&mut conns, &mut check, &ops, WARM_NS, WINDOW_SLICES);
                    if window.fault.is_none() && window.late_p99_us() > LATE_LIMIT_US {
                        // The generator itself stalled: the window measured
                        // this process being descheduled, not the server.
                        eprintln!(
                        "{}: {label} window {k} invalid (generator late p99 {:.0} us), re-running",
                        spec.name,
                        window.late_p99_us()
                    );
                        reruns += 1;
                        window = open_loop(&mut conns, &mut check, &ops, WARM_NS, WINDOW_SLICES);
                    }
                    late_p99_us = late_p99_us.max(window.late_p99_us());
                    phase.absorb(window);
                    if phase.fault.is_some() {
                        break;
                    }
                }
                phase
            };
        let lo =
            (plan.lo_windows > 0).then(|| open("lo", spec.lo_rate, plan.lo_windows, reference));
        let hi = open("hi", spec.hi_rate, plan.hi_windows, reference);
        let mut stream = OpStream::new(seed, "sat", KEYS, spec.write_pct);
        let mut sat = Phase::default();
        for _ in 0..plan.sat_windows {
            reference.sample();
            sat.absorb(closed_loop(&mut conns, &mut check, &mut stream, WARM_NS, WINDOW_SLICES));
            if sat.fault.is_some() {
                break;
            }
        }
        reference.sample();
        let fault = lo.iter().chain([&hi, &sat]).find_map(|p| p.fault.clone());
        Ok(LiveRun { lo, hi, sat, late_p99_us, schedule_hash, reruns, fault })
    }

    /// Depth-1 closed loop on one connection for `nanos`: the round trip
    /// with nothing else in flight, p50 in microseconds.
    pub fn rtt1_p50_us(&mut self, seed: u64, nanos: u64) -> Result<f64, String> {
        let mut conns = self.connect()?;
        conns.truncate(1);
        let mut check = self.check();
        let mut keys = OpStream::new(seed, "rtt1", KEYS, 0);
        let (mut scratch, mut done) = (vec![0u8; 64 * 1024], Vec::new());
        let mut rtts: Vec<u32> = Vec::with_capacity(1 << 18);
        let epoch = Instant::now();
        while clock(epoch) < nanos {
            let t0 = clock(epoch);
            conns[0].enqueue(keys.next_op(0), t0, &mut check);
            while done.is_empty() {
                conns[0].pump(&mut scratch, &mut check, &mut done)?;
                if clock(epoch) > t0 + OP_TIMEOUT_NS {
                    return Err("depth-1 read went unanswered for 1 s".into());
                }
            }
            done.clear();
            rtts.push((clock(epoch) - t0) as u32);
        }
        if check.wrong > 0 {
            return Err(format!("{} depth-1 reads returned the wrong ids", check.wrong));
        }
        rtts.sort_unstable();
        Ok(f64::from(percentile(&rtts, 0.5)) / 1e3)
    }
}

/// One end-to-end run of a live workload: set-up (several times, the
/// last bed kept), the phases, the convergence check, the drain with its
/// frame-count check, and the remaining set-ups.
pub fn end_to_end(spec: LiveSpec, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = Reference::new(spec.name);
    let mut bed = None::<Bed>;
    for _ in 0..SET_UPS_BEFORE {
        let previous = bed.take().map(Bed::tear_down).transpose();
        match previous.and_then(|_| reference.set_up(|| Bed::set_up(spec, seed))) {
            Ok(fresh) => bed = Some(fresh),
            Err(e) => {
                out.errors.push(e);
                return out;
            }
        }
    }
    let mut bed = bed.expect("at least one set-up ran");
    let name = spec.name;
    let measured = match bed.run(Plan::end_to_end(seconds), seed, &mut reference) {
        Ok(run) => {
            (out.attempted, out.failed) = run.tally();
            out.errors.extend(run.fault.clone());
            let slice_p50: Vec<f64> =
                per_slice(&run.hi.read_lat, 0.5).iter().map(|ns| ns / 1e3).collect();
            let (whole, n) = run.hi.read_us(0.5);
            println!(
                "{name}: hi {:.0} ops/s open loop (schedule {:#018x}): read p50 {whole:.2} us over all \
                 slices (n={n}), per slice {}; generator late p99 {:.1} us busy {:.2}, {} re-run(s)",
                spec.hi_rate,
                run.schedule_hash,
                series(&slice_p50),
                run.late_p99_us,
                run.hi.busy_frac(),
                run.reruns
            );
            println!(
                "{name}: sat closed loop 2x{DEPTH}: ops/s per 0.5 s slice {}",
                series(&run.sat.slice_ops_per_s())
            );
            Some((run.sat.ops_per_s(), quiet_quartile(&slice_p50, Better::Lower)))
        }
        Err(e) => {
            out.errors.push(e);
            None
        }
    };
    out.errors.extend(bed.check_converged().err());
    record_peak_rss(&mut out);
    out.errors.extend(bed.tear_down().err());
    for _ in 0..SET_UPS_AFTER {
        let again = reference.set_up(|| Bed::set_up(spec, seed)).and_then(Bed::tear_down);
        out.errors.extend(again.err());
    }
    if let Some((throughput, lat_p50_us)) = measured {
        reference.report(throughput, lat_p50_us, &mut out.values);
    }
    out
}

/// The live part of a traced run: all three phases (short), the depth-1
/// round trip, the convergence check and the drain. Sets the `gen.*`,
/// `rate.*`, `tail.*` and `wire.server.*` metrics except the residual.
pub fn traced(spec: LiveSpec, seed: u64, seconds: u64, values: &mut Values) -> Result<(), String> {
    let mut bed = Bed::set_up(spec, seed)?;
    let mut run = bed.run(Plan::traced(seconds), seed, &mut Reference::new(spec.name))?;
    if let Some(fault) = &run.fault {
        return Err(format!("{}: {fault}", spec.name));
    }
    let (_, failed) = run.tally();
    if failed > 0 {
        return Err(format!("{}: {failed} op(s) failed in the traced run's phases", spec.name));
    }
    let lo = run.lo.take().expect("the traced plan has a low-rate phase");
    values.set("gen.late_p99_us", run.late_p99_us);
    values.set("gen.busy_frac", run.hi.busy_frac());
    values.set("rate.lat_lo_p50_us", lo.read_us(0.5).0);
    values.set("rate.lat_hi_p50_us", run.hi.read_us(0.5).0);
    // A read-only mix has no writes to time: its reads stand in, so the
    // metric is defined (and comparable run to run) on every workload.
    let wlat = if spec.write_pct > 0 { run.hi.write_us(0.5).0 } else { run.hi.read_us(0.5).0 };
    values.set("rate.wlat_hi_p50_us", wlat);
    values.set("tail.lat_lo_p90_us", lo.read_tail_us(0.90));
    values.set("tail.lat_lo_p99_us", lo.read_tail_us(0.99));
    values.set("tail.lat_hi_p90_us", run.hi.read_tail_us(0.90));
    values.set("tail.lat_hi_p99_us", run.hi.read_tail_us(0.99));
    values.set("tail.lat_hi_p999_us", run.hi.read_tail_us(0.999));
    values.set("tail.sat_p50_us", run.sat.read_tail_us(0.50));
    values.set("tail.sat_p99_us", run.sat.read_tail_us(0.99));
    values.set("tail.max_stall_ms", lo.max_ms().max(run.hi.max_ms()));
    values.set("wire.server.rtt1_p50_us", bed.rtt1_p50_us(seed, 1_000_000_000)?);
    bed.check_converged()?;
    let (served, drain) = bed.tear_down()?;
    values.set("wire.server.frames", (served.hellos + served.reads + served.writes) as f64);
    values.set("wire.server.reads", served.reads as f64);
    values.set("wire.server.writes", served.writes as f64);
    values.set("wire.server.drain_ms", drain.as_secs_f64() * 1e3);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_fit_their_budget_and_never_drop_a_phase() {
        for seconds in 1..=60 {
            let p = Plan::end_to_end(seconds);
            assert_eq!(p.lo_windows, 0);
            assert!(p.hi_windows >= 1 && p.sat_windows >= 1);
            if seconds >= 3 {
                let ns = (p.hi_windows + p.sat_windows) as u64 * WINDOW_NS;
                assert!(ns <= seconds * 1_000_000_000, "{seconds} s plan runs {ns} ns");
                assert!(ns + 2 * WINDOW_NS > seconds * 1_000_000_000, "{seconds} s plan is short");
            }
            let t = Plan::traced(seconds);
            assert!(
                t.lo_windows >= 1 && t.hi_windows == t.lo_windows && t.sat_windows == t.lo_windows
            );
        }
    }

    #[test]
    fn corpus_and_body_are_functions_of_the_seed() {
        let body = write_body(9);
        assert_eq!(body.len(), 64);
        assert_eq!(body, write_body(9));
        assert_ne!(body, write_body(10));
        let post = |seed| corpus_post(&mut Rng::new(seed, "corpus"), 5, 3, &body);
        assert_eq!(post(1), post(1));
        assert_eq!(post(1).id.seq, 5 * POSTS_PER_KEY + 4);
    }

    /// The whole live path at toy length: a fast wrong answer, a lost
    /// write or a miscounted frame would fail here before it fails a run.
    #[test]
    fn a_short_mixed_run_checks_out_end_to_end() {
        let mut bed = Bed::set_up(WIRE_MIXED, 11).expect("set-up");
        let plan = Plan { lo_windows: 0, hi_windows: 1, sat_windows: 1 };
        let run = bed.run(plan, 11, &mut Reference::new("wire-mixed")).expect("phases");
        assert_eq!(run.fault, None);
        let (attempted, failed) = run.tally();
        assert!(attempted > 10_000, "only {attempted} ops in a second of phases");
        assert_eq!(failed, 0);
        assert!(run.hi.read_us(0.5).0 > 0.0 && run.sat.ops_per_s() > 0.0);
        assert!(bed.acked.iter().any(|ids| !ids.is_empty()), "the mix must write");
        bed.check_converged().expect("no acknowledged write lost");
        let (served, _) = bed.tear_down().expect("frame counts match");
        assert!(served.writes > u64::from(KEYS * POSTS_PER_KEY));
    }

    #[test]
    fn a_corrupted_expectation_is_caught() {
        let mut bed = Bed::set_up(WIRE_READ, 12).expect("set-up");
        bed.served[7][0] ^= 1;
        let plan = Plan { lo_windows: 0, hi_windows: 1, sat_windows: 1 };
        let run = bed.run(plan, 12, &mut Reference::new("wire-read")).expect("phases");
        let (_, failed) = run.tally();
        assert!(failed > 0, "reads of key 7 no longer match and must count as failed");
        bed.tear_down().expect("frame counts still match");
    }
}
