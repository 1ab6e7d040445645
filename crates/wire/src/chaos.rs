//! `conprobe chaosd` — a deterministic fault-injecting TCP interposer.
//!
//! The sim executes a [`FaultPlan`] by perturbing virtual messages; this
//! module executes the *same plan* against real sockets, so the live
//! probe path can be characterized under the faults the paper's
//! measured outages imply. A [`ChaosProxy`] binds one listener per
//! [`ChaosTarget`] and forwards traffic to the real replica listener,
//! judging every complete `cpw1` frame against the plan's compiled
//! [`LinkEffect`] windows at the wall-clock offset since proxy start with
//! [`judge_link`] — the function the simulator judges its messages with,
//! so a frame is blocked, lost or delayed by exactly the sim's rules and
//! draws, and counted in the same [`FaultNetStats`]. Both directions are
//! judged, so a partition is symmetric; a delayed frame is released FIFO,
//! so delay never reorders a connection's stream.
//!
//! On top of the plan, an [`InjectProfile`] adds byte-level adversity
//! that no plan window models: seeded single-bit corruption (the
//! FNV-checksummed decoder must reject it with a typed error), abrupt
//! connection resets, and slow-loris trickle (a frame split into tiny
//! spaced chunks, exercising the server's stall budget).
//!
//! Everything random comes from [`SimRng`] streams split per target and
//! per accepted connection, so a sweep with the same seed injects the
//! same faults at the same frames — the property the repro workflow
//! depends on. Per frame, the connection's stream is drawn in this order:
//! the judge's loss draw, each delay window's jitter, then reset, corrupt
//! byte, corrupt bit and trickle.
//!
//! The interposer is one event loop on one thread, however many
//! connections it proxies: each pass accepts on every door, dials the
//! upstream for each new client, and sweeps every connection at the plan
//! clock into the [`ChaosLedger`] it owns. It may dial inline because
//! `serve` binds only loopback, where a dial is answered or refused at
//! once; a timeout bounds what a ready file naming another host costs.
//!
//! Bytes that do not parse as frames (a client speaking garbage) are
//! forwarded verbatim: the interposer degrades to a transparent pipe
//! rather than guessing at alignment, and the endpoint's own decoder
//! produces the typed rejection.
//!
//! [`drive_service_actions`] is the other half of plan execution: it
//! replays the plan's compiled [`ServiceAction`] timeline against a
//! running [`WireServer`] — crash, state-transfer rejoin, brownout —
//! narrating each transition for the CI greps.

use crate::client::dial_nonblocking;
use crate::conn::{idle_nap, FrameBuf, IdleBackoff, ACCEPT_EVERY, READ_BACKLOG_CAP};
use crate::frame::decode_raw;
use crate::server::{bind_listeners, WireServer};
use conprobe_sim::faults::{
    judge_link, FaultNetStats, FaultPlan, LinkEffect, LinkVerdict, ServiceAction, ServiceActionKind,
};
use conprobe_sim::net::Region;
use conprobe_sim::{SimRng, SimTime};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// One proxied listener: clients in `region` connect to the proxy's
/// listener and reach the replica listener at `addr` (whose replica
/// lives in `replica_region`). The plan's link windows are judged
/// against the `region ↔ replica_region` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTarget {
    /// The client-side region of the proxied link.
    pub region: Region,
    /// The region hosting the replica behind `addr`.
    pub replica_region: Region,
    /// The real replica listener to forward to.
    pub addr: SocketAddr,
}

/// Byte-level adversity injected on top of the plan's link windows.
///
/// The default profile is fully transparent (all probabilities zero);
/// each probability is sampled independently per forwarded frame from
/// the connection's seeded stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectProfile {
    /// Probability of flipping one random bit in a forwarded frame.
    pub corrupt_prob: f64,
    /// Probability of tearing the connection down (both directions)
    /// instead of forwarding the frame.
    pub reset_prob: f64,
    /// Probability of trickling the frame out in `trickle_chunk`-byte
    /// pieces spaced `trickle_gap` apart (slow-loris).
    pub trickle_prob: f64,
    /// Chunk size for trickled frames (clamped to ≥ 1).
    pub trickle_chunk: usize,
    /// Gap between consecutive trickled chunks.
    pub trickle_gap: Duration,
}

impl Default for InjectProfile {
    fn default() -> Self {
        InjectProfile {
            corrupt_prob: 0.0,
            reset_prob: 0.0,
            trickle_prob: 0.0,
            trickle_chunk: 5,
            trickle_gap: Duration::from_millis(1),
        }
    }
}

/// Configuration for [`ChaosProxy::start`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Root seed for every injection stream.
    pub seed: u64,
    /// The fault timeline; its clock starts when the proxy starts.
    pub plan: FaultPlan,
    /// Byte-level injection on top of the plan.
    pub inject: InjectProfile,
    /// Base TCP port; target `i` listens on `base_port + i`. `0` picks
    /// ephemeral ports.
    pub base_port: u16,
}

/// What the interposer did to the traffic, summed over all targets and
/// connections — the deterministic receipt of a chaos run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosLedger {
    /// Frames forwarded upstream/downstream (including corrupted and
    /// trickled ones).
    pub forwarded: u64,
    /// Frames the plan's link windows blocked, dropped or delayed, as
    /// [`judge_link`] counts them.
    pub net: FaultNetStats,
    /// Frames with an injected bit flip.
    pub corrupted: u64,
    /// Connections torn down by an injected reset.
    pub resets: u64,
    /// Frames released as slow-loris chunk trains.
    pub trickled: u64,
}

/// What the loop judges every frame by, and the ledger it counts into.
struct Plane {
    effects: Vec<LinkEffect>,
    inject: InjectProfile,
    ledger: ChaosLedger,
}

impl Plane {
    fn new(config: &ChaosConfig) -> Plane {
        let (effects, inject) = (config.plan.network_effects(), config.inject);
        Plane { effects, inject, ledger: ChaosLedger::default() }
    }
}

/// One proxy listener, the target behind it, its `chaos.region/i`
/// stream, and how many clients it has accepted (the next one's `seq`).
struct Door {
    listener: TcpListener,
    target: ChaosTarget,
    rng: SimRng,
    accepted: u64,
}

/// Most a dial of the upstream may hold the loop.
const DIAL_TIMEOUT: Duration = Duration::from_secs(1);

/// The running interposer: one proxy listener per target, one loop.
pub struct ChaosProxy {
    addrs: Vec<(Region, SocketAddr)>,
    stop: Arc<AtomicBool>,
    serving: JoinHandle<ChaosLedger>,
}

impl ChaosProxy {
    /// Binds one proxy listener per target and starts forwarding.
    ///
    /// The plan's timeline starts *now*: a window at `t+4s` opens four
    /// wall-clock seconds after this call returns.
    pub fn start(config: &ChaosConfig, targets: &[ChaosTarget]) -> io::Result<ChaosProxy> {
        let root = SimRng::new(config.seed);
        let regions: Vec<Region> = targets.iter().map(|t| t.region).collect();
        let (listeners, addrs): (Vec<_>, _) =
            bind_listeners(config.base_port, &regions)?.into_iter().unzip();
        let doors = (targets.iter().zip(listeners).enumerate())
            .map(|(i, (target, listener))| Door {
                listener,
                target: *target,
                rng: root.split_indexed("chaos.region", i as u64),
                accepted: 0,
            })
            .collect();
        let plane = Plane::new(config);
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let serving = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || proxy_loop(doors, plane, &stop, epoch))
        };
        Ok(ChaosProxy { addrs, stop, serving })
    }

    /// The proxy-side listener address for each target, in target order.
    pub fn addrs(&self) -> &[(Region, SocketAddr)] {
        &self.addrs
    }

    /// Asks the loop to wind down.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Stops the proxy (if not already stopping) and waits for its loop,
    /// returning the final fault ledger.
    pub fn join(self) -> ChaosLedger {
        self.request_stop();
        self.serving.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// The interposer's loop: per pass, admit every waiting client, then sweep
/// every connection at the plan clock (nanoseconds since `epoch`).
fn proxy_loop(
    mut doors: Vec<Door>,
    mut plane: Plane,
    stop: &AtomicBool,
    epoch: Instant,
) -> ChaosLedger {
    let hang_up = |a: &TcpStream, b: &TcpStream| {
        let _ = (a.shutdown(Shutdown::Both), b.shutdown(Shutdown::Both));
    };
    let mut conns: Vec<(TcpStream, TcpStream, Proxied)> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut backoff = IdleBackoff::default();
    while !stop.load(Ordering::Acquire) {
        let mut progress = false;
        for door in &mut doors {
            while let Ok((client, _)) = door.listener.accept() {
                progress = true;
                // A client takes its `seq` even if the dial fails, so the
                // streams of the ones after it do not move.
                let conn = Proxied::new(&door.target, &door.rng, door.accepted);
                door.accepted += 1;
                let upstream = dial_nonblocking(door.target.addr, DIAL_TIMEOUT);
                if let (Ok(upstream), Ok(())) = (upstream, client.set_nonblocking(true)) {
                    let _ = client.set_nodelay(true);
                    conns.push((client, upstream, conn));
                }
            }
        }
        let now = epoch.elapsed().as_nanos() as u64;
        conns.retain_mut(|(client, upstream, conn)| {
            // `Read`/`Write` are on `&TcpStream`: shared handles, mutable cursors.
            let swept = conn.sweep(&mut &*client, &mut &*upstream, &mut plane, &mut scratch, now);
            // Open until both directions have ended and half-closed.
            let open = swept.is_ok_and(|moved| {
                progress |= moved;
                for (dir, dst) in [(&mut conn.c2s, &*upstream), (&mut conn.s2c, &*client)] {
                    if dir.take_half_close() {
                        let _ = dst.shutdown(Shutdown::Write);
                        progress = true;
                    }
                }
                !(conn.c2s.write_shut && conn.s2c.write_shut)
            });
            if !open {
                hang_up(client, upstream);
            }
            open
        });
        // With no connection, the next duty is the next accept poll.
        match idle_nap(conns.len(), now + ACCEPT_EVERY, now) {
            Some(nap) => thread::sleep(nap),
            None => backoff.after_sweep(progress),
        }
    }
    conns.iter().for_each(|(client, upstream, _)| hang_up(client, upstream));
    plane.ledger
}

/// One direction of a proxied connection minus its sockets: judge →
/// release queue → due bytes. Frames move `buf` input → `queue` → `buf`
/// output; the queue holds judged frames until their release instant,
/// preserving FIFO order (`release = max(now + delay, last_release)`).
/// Time is an argument: nanoseconds on the plan clock.
#[derive(Default)]
struct Direction {
    buf: FrameBuf,
    queue: VecDeque<(u64, Vec<u8>)>,
    /// Bytes held in `queue`.
    queued: usize,
    last_release: u64,
    /// Once the front of the stream fails to parse, forward verbatim.
    raw: bool,
    write_shut: bool,
}

impl Direction {
    /// Bytes read from the source and not yet written to the destination.
    fn held(&self) -> usize {
        self.buf.unread().len() + self.queued + self.buf.unsent()
    }

    fn enqueue(&mut self, release: u64, bytes: Vec<u8>) {
        self.last_release = release;
        self.queued += bytes.len();
        self.queue.push_back((release, bytes));
    }

    /// Judges every complete frame at the front of the input against the
    /// plan windows and the injection profile at `now`, moves survivors
    /// to the release queue, and moves what is due to the output.
    /// `Ok(true)` when frames were consumed; `Err` is an injected reset,
    /// counted here: the connection is to be torn down.
    fn step(&mut self, judge: &mut Judge, plane: &mut Plane, now: u64) -> Result<bool, ()> {
        let mut progress = false;
        let Judge { link: (a, b), rng } = judge;
        let Plane { effects, inject, ledger } = plane;
        while !self.buf.unread().is_empty() {
            let consumed = match decode_raw(self.buf.unread()) {
                // Unparseable stream: degrade to a transparent pipe.
                _ if self.raw => self.buf.unread().len(),
                Ok(Some(raw)) => raw.consumed,
                Ok(None) => break,
                Err(_) => {
                    self.raw = true;
                    continue;
                }
            };
            let mut bytes = self.buf.unread()[..consumed].to_vec();
            self.buf.consume(consumed);
            progress = true;
            if self.raw {
                self.enqueue(now.max(self.last_release), bytes);
                break;
            }

            // Judge against the plan's link windows at the wall offset.
            let at = SimTime::from_nanos(now);
            let delay_nanos = match judge_link(effects, *a, *b, at, rng, &mut ledger.net) {
                LinkVerdict::Deliver(extra) => extra.as_nanos(),
                LinkVerdict::Blocked | LinkVerdict::Dropped => continue,
            };

            // Byte-level injections on the surviving frame.
            if inject.reset_prob > 0.0 && rng.gen_bool(inject.reset_prob) {
                ledger.resets += 1;
                return Err(());
            }
            if inject.corrupt_prob > 0.0 && rng.gen_bool(inject.corrupt_prob) {
                let byte = rng.gen_range(0..bytes.len());
                let bit = rng.gen_range(0..8u32);
                bytes[byte] ^= 1u8 << bit;
                ledger.corrupted += 1;
            }

            let release = (now + delay_nanos).max(self.last_release);
            let trickle =
                inject.trickle_prob > 0.0 && bytes.len() > 1 && rng.gen_bool(inject.trickle_prob);
            if trickle {
                ledger.trickled += 1;
                let gap = inject.trickle_gap.as_nanos() as u64;
                for (i, piece) in bytes.chunks(inject.trickle_chunk.max(1)).enumerate() {
                    self.enqueue(release + i as u64 * gap, piece.to_vec());
                }
            } else {
                self.enqueue(release, bytes);
            }
            ledger.forwarded += 1;
        }
        while let Some((_, bytes)) = self.queue.pop_front_if(|(release, _)| *release <= now) {
            self.queued -= bytes.len();
            self.buf.out().extend_from_slice(&bytes);
        }
        Ok(progress)
    }

    /// True exactly once: the source ended and everything it sent was
    /// delivered, so the destination's write half closes.
    fn take_half_close(&mut self) -> bool {
        let fire = self.buf.eof() && self.held() == 0 && !self.write_shut;
        self.write_shut |= fire;
        fire
    }

    /// One sweep over this direction's streams: read what `src` has —
    /// pausing while [`READ_BACKLOG_CAP`] bytes are held for a `dst` that
    /// is not taking them — step at `now`, write what `dst` accepts.
    /// `Ok(true)` when anything moved; `Err` when the connection is over
    /// (a stream failed, or a reset was injected).
    fn sweep<R: Read, W: Write>(
        &mut self,
        src: &mut R,
        dst: &mut W,
        judge: &mut Judge,
        plane: &mut Plane,
        scratch: &mut [u8],
        now: u64,
    ) -> Result<bool, ()> {
        let cap = READ_BACKLOG_CAP.saturating_sub(self.queued + self.buf.unsent());
        let read = self.buf.fill(src, scratch, cap).map_err(drop)?;
        let judged = self.step(judge, plane, now)?;
        Ok(read | judged | self.buf.flush(dst).map_err(drop)?)
    }
}

/// What a connection's frames are judged on: its door's link to the
/// replica, and the one seeded stream both directions draw from.
struct Judge {
    link: (Region, Region),
    rng: SimRng,
}

/// A proxied connection minus its sockets.
struct Proxied {
    c2s: Direction,
    s2c: Direction,
    judge: Judge,
}

impl Proxied {
    /// Connection `seq` of the door whose stream is `door_rng`.
    fn new(target: &ChaosTarget, door_rng: &SimRng, seq: u64) -> Proxied {
        let judge = Judge {
            link: (target.region, target.replica_region),
            rng: door_rng.split_indexed("conn", seq),
        };
        Proxied { c2s: Direction::default(), s2c: Direction::default(), judge }
    }

    /// One sweep of both directions at `now`.
    fn sweep<C: Read + Write, U: Read + Write>(
        &mut self,
        client: &mut C,
        upstream: &mut U,
        plane: &mut Plane,
        scratch: &mut [u8],
        now: u64,
    ) -> Result<bool, ()> {
        let up = self.c2s.sweep(client, upstream, &mut self.judge, plane, scratch, now)?;
        let down = self.s2c.sweep(upstream, client, &mut self.judge, plane, scratch, now)?;
        Ok(up | down)
    }
}

/// Replays a plan's compiled [`ServiceAction`] timeline against a live
/// [`WireServer`]: crashes and state-transfer rejoins via
/// [`WireServer::kill_replica`] / [`WireServer::restart_replica`],
/// brownouts via [`WireServer::set_brownout`]. The timeline's clock
/// starts on entry; each action is narrated through `log` (replica
/// indices render as node names `n{idx}`, matching the sim's quorum
/// narration so the same CI greps cover both paths). Targets outside
/// the deployed replica range are narrated and skipped. While it waits
/// (and once before it returns) it watches [`WireServer::pbft_status`] and
/// narrates a view change the ordered-log arm has installed, whenever the
/// protocol got there. Returns the number of actions executed; returns
/// early if the server begins stopping.
pub fn drive_service_actions(
    server: &WireServer,
    plan: &FaultPlan,
    mut log: impl FnMut(String),
) -> usize {
    let start = Instant::now();
    let replicas = server.replica_count();
    let mut executed = 0usize;
    let mut view = server.pbft_status().map(|(view, ..)| view);
    let mut narrate_view = |log: &mut dyn FnMut(String)| {
        if let Some((now, leader, _)) = server.pbft_status() {
            if view.replace(now) != Some(now) {
                log(format!("pbft view change: view {now}, new leader n{leader}"));
            }
        }
    };
    for ServiceAction { target, at, action } in plan.service_actions() {
        let due = Duration::from_nanos(at.as_nanos());
        while start.elapsed() < due {
            if server.stopping() {
                return executed;
            }
            narrate_view(&mut log);
            let remaining = due.saturating_sub(start.elapsed());
            thread::sleep(remaining.min(Duration::from_millis(20)));
        }
        if server.stopping() {
            return executed;
        }
        if target >= replicas {
            log(format!(
                "fault target {target} out of range ({replicas} replica(s)); {action} skipped"
            ));
            continue;
        }
        match action {
            ServiceActionKind::Crash => {
                if server.kill_replica(target).is_ok() {
                    log(format!("replica n{target} crashed"));
                    executed += 1;
                }
            }
            ServiceActionKind::Recover => {
                log(format!("replica n{target} recovered; state transfer begun"));
                if let Ok(report) = server.restart_replica(target) {
                    if report.cold {
                        log(format!("replica n{target} rejoined cold"));
                    } else if report.peers == 0 {
                        log(format!(
                            "replica n{target} hears no catch-up quorum; it stays read-fenced"
                        ));
                    } else {
                        log(format!(
                            "replica n{target} state transfer complete: {} frame(s) from {} \
                             peer(s), watermark {}, {} post(s) applied, stream hash {:016x}",
                            report.frames,
                            report.peers,
                            report.watermark,
                            report.applied,
                            report.stream_hash,
                        ));
                    }
                    executed += 1;
                }
            }
            ServiceActionKind::BrownoutStart(mode) => {
                if server.set_brownout(target, Some(mode)).is_ok() {
                    log(format!("replica n{target} {action}"));
                    executed += 1;
                }
            }
            ServiceActionKind::BrownoutEnd => {
                if server.set_brownout(target, None).is_ok() {
                    log(format!("replica n{target} {action}"));
                    executed += 1;
                }
            }
        }
    }
    narrate_view(&mut log);
    executed
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::conn::mem::Link;
    use crate::frame::{decode, Frame, PROTO_VERSION};
    use crate::server::ServeConfig;
    use conprobe_services::ServiceKind;
    use conprobe_sim::faults::{FaultEvent, LinkScope};
    use conprobe_sim::{SimDuration, SimTime};
    use std::sync::mpsc;

    const MS: u64 = 1_000_000;

    fn transparent_config(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            plan: FaultPlan::new(seed),
            inject: InjectProfile::default(),
            base_port: 0,
        }
    }

    fn target_for(addr: SocketAddr) -> ChaosTarget {
        ChaosTarget { region: Region::Oregon, replica_region: Region::Oregon, addr }
    }

    /// Target 0's first proxied connection with no sockets under it: the
    /// test (or a `PipeConn`) sits on `client.a()`, the server side on
    /// `upstream.b()`, and `sweep` is called with fabricated instants.
    pub(crate) struct Rig {
        plane: Plane,
        conn: Proxied,
        pub client: Link,
        pub upstream: Link,
        scratch: Vec<u8>,
    }

    impl Rig {
        pub(crate) fn new(config: &ChaosConfig) -> Rig {
            let target = target_for("127.0.0.1:0".parse().expect("addr"));
            let door_rng = SimRng::new(config.seed).split_indexed("chaos.region", 0);
            let conn = Proxied::new(&target, &door_rng, 0);
            let (client, upstream) = (Link::default(), Link::default());
            Rig { plane: Plane::new(config), conn, client, upstream, scratch: vec![0; 16 * 1024] }
        }

        /// One sweep at `now`; a finished direction closes its
        /// destination's pipe, as the socket loop shuts the write half.
        pub(crate) fn sweep(&mut self, now: u64) -> Result<bool, ()> {
            let (client, upstream) = (&mut self.client.b(), &mut self.upstream.a());
            let progress =
                self.conn.sweep(client, upstream, &mut self.plane, &mut self.scratch, now)?;
            if self.conn.c2s.take_half_close() {
                self.upstream.a_to_b.closed = true;
            }
            if self.conn.s2c.take_half_close() {
                self.client.b_to_a.closed = true;
            }
            Ok(progress)
        }

        pub(crate) fn ledger(&self) -> ChaosLedger {
            self.plane.ledger
        }

        /// Client → server: sends `bytes`, sweeps at `now`, and returns
        /// what reached the server side.
        fn forward(&mut self, bytes: &[u8], now: u64) -> Vec<u8> {
            self.client.a_to_b.bytes.extend(bytes);
            self.sweep(now).expect("no reset, nothing torn");
            self.upstream.a_to_b.take()
        }
    }

    /// A one-connection sink: accepts, optionally writes `reply` after
    /// the first read, then drains to EOF and sends the collected bytes.
    fn sink_listener(reply: Option<Vec<u8>>) -> (SocketAddr, mpsc::Receiver<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("sink addr");
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut collected = Vec::new();
            let mut buf = [0u8; 4096];
            let mut reply = reply;
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        collected.extend_from_slice(&buf[..n]);
                        if let Some(bytes) = reply.take() {
                            let _ = conn.write_all(&bytes);
                            let _ = conn.flush();
                        }
                    }
                }
            }
            let _ = tx.send(collected);
        });
        (addr, rx)
    }

    fn recv_bytes(rx: &mpsc::Receiver<Vec<u8>>) -> Vec<u8> {
        rx.recv_timeout(Duration::from_secs(10)).expect("sink result")
    }

    #[test]
    fn transparent_proxy_forwards_both_directions_unchanged() {
        let reply = Frame::HelloAck {
            proto: PROTO_VERSION,
            server_clock_nanos: 7,
            service: "blogger".into(),
        }
        .encode();
        let (addr, rx) = sink_listener(Some(reply.clone()));
        let proxy = ChaosProxy::start(&transparent_config(1), &[target_for(addr)]).expect("proxy");
        let (region, paddr) = proxy.addrs()[0];
        assert_eq!(region, Region::Oregon);

        let hello = Frame::Hello { proto: PROTO_VERSION }.encode();
        let mut conn = TcpStream::connect(paddr).expect("connect via proxy");
        conn.write_all(&hello).expect("send hello");
        let mut got = vec![0u8; reply.len()];
        conn.read_exact(&mut got).expect("read reply");
        assert_eq!(got, reply, "server→client bytes pass unchanged");
        drop(conn);

        assert_eq!(recv_bytes(&rx), hello, "client→server bytes pass unchanged");
        let ledger = proxy.join();
        assert_eq!(ledger.forwarded, 2);
        assert_eq!(
            ledger,
            ChaosLedger { forwarded: 2, ..ChaosLedger::default() },
            "a transparent run touches nothing else"
        );
    }

    #[test]
    fn block_window_blackholes_covered_frames() {
        let mut config = transparent_config(2);
        config.plan.push(FaultEvent::LinkFlap {
            scope: LinkScope::Touching(Region::Oregon),
            at: SimTime::ZERO,
            down_for: SimDuration::from_secs(600),
            up_for: SimDuration::ZERO,
            flaps: 1,
        });
        let mut rig = Rig::new(&config);
        let read = Frame::ReadQ { req: 0, key: 0 }.encode();
        let burst = [read.clone(), read.clone(), read.clone()].concat();
        assert!(rig.forward(&burst, 0).is_empty(), "nothing crosses a partition");
        assert!(rig.forward(&read, 600_000 * MS - 1).is_empty(), "its last nanosecond included");
        let ledger = rig.ledger();
        assert_eq!((ledger.net.blocked, ledger.forwarded), (4, 0));
        // The window is a window: the link heals at its end, in both directions.
        assert_eq!(rig.forward(&read, 600_000 * MS), read);
        rig.upstream.b_to_a.bytes.extend(&read);
        rig.sweep(600_000 * MS).unwrap();
        assert_eq!(rig.client.b_to_a.take(), read);
        assert_eq!(
            rig.ledger(),
            ChaosLedger {
                net: FaultNetStats { blocked: 4, ..FaultNetStats::default() },
                forwarded: 2,
                ..ChaosLedger::default()
            }
        );
    }

    #[test]
    fn corruption_is_typed_rejection_and_seed_deterministic() {
        let original = Frame::WriteQ {
            req: 0,
            key: 0,
            author: 1,
            seq: 2,
            client_ts_nanos: 3,
            content: "corrupt me".to_string(),
        }
        .encode();
        let run = |seed: u64| -> (Vec<u8>, ChaosLedger) {
            let mut config = transparent_config(seed);
            config.inject.corrupt_prob = 1.0;
            let mut rig = Rig::new(&config);
            let got = rig.forward(&original, 0);
            (got, rig.ledger())
        };
        let flipped = |bytes: &[u8]| -> Vec<(usize, u8)> {
            assert_eq!(bytes.len(), original.len());
            let diff = bytes.iter().zip(&original).enumerate();
            diff.filter(|(_, (a, b))| a != b).map(|(i, (a, b))| (i, a ^ b)).collect()
        };

        let (bytes_a, ledger_a) = run(7);
        let (bytes_b, ledger_b) = run(7);
        let (bytes_c, _) = run(9);
        // Read off the parent commit's binary (PR 24): the interposer
        // draws loss, reset, corrupt byte, corrupt bit, trickle per frame
        // from `chaos.region/0` → `conn/0`, so these are the draws of the
        // socket-only implementation too.
        assert_eq!(flipped(&bytes_a), [(10, 1 << 3)], "seed 7 flips bit 3 of byte 10");
        assert_eq!(flipped(&bytes_c), [(48, 1 << 4)], "seed 9 flips bit 4 of byte 48");
        assert_eq!(bytes_a, bytes_b, "same seed, same flipped bit");
        assert_eq!(ledger_a.corrupted, 1);
        assert_eq!(ledger_a, ledger_b);

        // The flip is never invisible: the checksum (payload flips), the
        // magic/length validation (header flips), or the kind byte
        // itself changes what decodes. A panic here would be the bug.
        // `Ok(None)` (starved) and `Err` (typed rejection) are both fine.
        for bytes in [&bytes_a, &bytes_c] {
            if let Ok(Some(decoded)) = decode(bytes) {
                let pristine = decode(&original).expect("original decodes").expect("complete");
                assert_ne!(decoded, pristine, "corruption must not decode to the original");
            }
        }
    }

    #[test]
    fn loss_window_drops_frames_by_the_connections_seeded_draws() {
        let mut config = transparent_config(9);
        config.plan.push(FaultEvent::LossBurst {
            scope: LinkScope::All,
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(600),
            loss: 0.3,
        });
        let mut rig = Rig::new(&config);
        let frames: Vec<Vec<u8>> =
            (0..200).map(|req| Frame::ReadQ { req, key: 0 }.encode()).collect();
        let got = rig.forward(&frames.concat(), MS);
        // One draw per frame, from the rig's connection stream.
        let mut rng = SimRng::new(9).split_indexed("chaos.region", 0).split_indexed("conn", 0);
        let kept: Vec<&[u8]> =
            frames.iter().filter(|_| !rng.gen_bool(0.3)).map(Vec::as_slice).collect();
        assert_eq!(got, kept.concat());
        let ledger = rig.ledger();
        assert_eq!(
            (ledger.net.dropped, ledger.forwarded),
            (200 - kept.len() as u64, kept.len() as u64)
        );
        assert!(ledger.net.dropped > 30 && ledger.net.dropped < 90, "~30 % of 200: {ledger:?}");
        // Past the window nothing is lost.
        assert_eq!(rig.forward(&frames[0], 600_000 * MS), frames[0]);
    }

    #[test]
    fn overlapping_loss_windows_drop_by_one_draw_like_the_simulator() {
        let mut config = transparent_config(9);
        for _ in 0..2 {
            config.plan.push(FaultEvent::LossBurst {
                scope: LinkScope::All,
                at: SimTime::ZERO,
                duration: SimDuration::from_secs(600),
                loss: 0.3,
            });
        }
        let mut rig = Rig::new(&config);
        let frames: Vec<Vec<u8>> =
            (0..200).map(|req| Frame::ReadQ { req, key: 0 }.encode()).collect();
        let got = rig.forward(&frames.concat(), MS);
        // The strongest window judges, with one draw a frame: two 30 %
        // windows lose 30 %, not the compound 51 %.
        let mut rng = SimRng::new(9).split_indexed("chaos.region", 0).split_indexed("conn", 0);
        let kept: Vec<&[u8]> =
            frames.iter().filter(|_| !rng.gen_bool(0.3)).map(Vec::as_slice).collect();
        assert_eq!(got, kept.concat());
        let ledger = rig.ledger();
        assert_eq!(
            (ledger.net.dropped, ledger.forwarded),
            (200 - kept.len() as u64, kept.len() as u64)
        );
    }

    #[test]
    fn extra_delay_holds_frames_but_preserves_order() {
        let mut config = transparent_config(3);
        config.plan.push(FaultEvent::DegradedLink {
            scope: LinkScope::All,
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(600),
            extra_base: SimDuration::from_millis(40),
            extra_jitter: SimDuration::ZERO,
        });
        let mut rig = Rig::new(&config);
        let first = Frame::ReadQ { req: 0, key: 0 }.encode();
        let second = Frame::Hello { proto: PROTO_VERSION }.encode();
        assert!(rig.forward(&first, 5 * MS).is_empty(), "held");
        assert!(rig.forward(&second, 6 * MS).is_empty(), "held");
        assert!(rig.forward(&[], 45 * MS - 1).is_empty(), "one nanosecond short");
        assert_eq!(
            rig.forward(&[], 45 * MS),
            first,
            "40 ms after it was judged, to the nanosecond"
        );
        assert_eq!(rig.forward(&[], 46 * MS), second, "FIFO order survives the delay window");
        let ledger = rig.ledger();
        assert_eq!((ledger.net.delayed, ledger.forwarded), (2, 2));
    }

    #[test]
    fn trickled_frames_arrive_whole_and_in_order() {
        let mut config = transparent_config(5);
        config.inject.trickle_prob = 1.0;
        config.inject.trickle_chunk = 3;
        config.inject.trickle_gap = Duration::from_millis(1);
        let mut rig = Rig::new(&config);
        let frame = Frame::WriteQ {
            req: 0,
            key: 0,
            author: 9,
            seq: 1,
            client_ts_nanos: 0,
            content: "slow loris says hello".to_string(),
        }
        .encode();
        // Three bytes at once, then three more each millisecond.
        let mut got = rig.forward(&frame, 10 * MS);
        assert_eq!(got, frame[..3]);
        for tick in 1..frame.len().div_ceil(3) as u64 {
            assert!(rig.forward(&[], (10 + tick) * MS - 1).is_empty(), "the gap is kept");
            got.extend(rig.forward(&[], (10 + tick) * MS));
            assert_eq!(got.len(), frame.len().min(3 * (tick as usize + 1)));
        }
        assert_eq!(got, frame, "chunks reassemble to the exact frame");
        // A frame behind a chunk train waits for the train's last chunk.
        let chunks = frame.len().div_ceil(3) as u64;
        let mut rig = Rig::new(&config);
        let mut got = rig.forward(&[frame.clone(), frame.clone()].concat(), 10 * MS);
        for at in (10 * MS + 1..10 * MS + (chunks - 1) * MS).step_by(MS as usize / 2) {
            got.extend(rig.forward(&[], at));
        }
        assert_eq!(got, frame[..3 * (chunks as usize - 1)], "all but the first train's last chunk");
        got.extend(rig.forward(&[], 10 * MS + 2 * chunks * MS));
        assert_eq!(got, [frame.clone(), frame].concat());
        let ledger = rig.ledger();
        assert_eq!((ledger.trickled, ledger.forwarded), (2, 2));
    }

    #[test]
    fn garbage_streams_pass_through_verbatim() {
        let mut rig = Rig::new(&transparent_config(6));
        let garbage = b"this is not a cpw1 frame at all".to_vec();
        assert_eq!(rig.forward(&garbage, 0), garbage, "unparseable bytes forward unshaped");
        // Once degraded, the direction never frames again — not even a
        // valid frame — while the other direction still does.
        let frame = Frame::ReadQ { req: 0, key: 0 }.encode();
        assert_eq!(rig.forward(&frame, MS), frame);
        assert_eq!(rig.ledger().forwarded, 0, "garbage is not counted as frames");
        rig.upstream.b_to_a.bytes.extend(&frame);
        rig.sweep(MS).unwrap();
        assert_eq!(rig.client.b_to_a.take(), frame);
        assert_eq!(rig.ledger().forwarded, 1);
        // The client hangs up: the server side sees the half-close.
        rig.client.a_to_b.closed = true;
        rig.sweep(2 * MS).unwrap();
        assert!(rig.upstream.a_to_b.closed);
    }

    #[test]
    fn a_destination_that_stops_reading_bounds_what_a_direction_holds() {
        let mut rig = Rig::new(&transparent_config(8));
        rig.upstream.a_to_b.room = 0; // the server stopped reading
        let mut sent = Vec::new();
        let mut req = 0u32;
        let mut peak = 0;
        for sweep in 0..400u64 {
            // A fire-hose client: 64 KiB of small frames before every sweep.
            while rig.client.a_to_b.bytes.len() < 64 * 1024 {
                let frame = Frame::ReadQ { req, key: req % 7 }.encode();
                rig.client.a_to_b.bytes.extend(&frame);
                sent.extend(frame);
                req += 1;
            }
            rig.sweep(sweep * MS).unwrap();
            peak = peak.max(rig.conn.c2s.held());
        }
        assert!(peak >= READ_BACKLOG_CAP, "the cap was reached: {peak}");
        assert!(peak <= READ_BACKLOG_CAP + rig.scratch.len(), "cap plus one read: {peak}");
        assert!(rig.upstream.a_to_b.bytes.is_empty());
        // The rest waits where backpressure belongs: unread, on the client's side.
        assert_eq!(rig.conn.c2s.held() + rig.client.a_to_b.bytes.len(), sent.len());
        assert!(rig.client.a_to_b.bytes.len() >= 64 * 1024);
        // The writer opens a little at a time (the sent prefix is compacted
        // as it goes), then fully: every frame arrives, in order.
        let mut got = Vec::new();
        let mut sweep = 400u64;
        while got.len() < sent.len() {
            rig.upstream.a_to_b.room = if sweep < 600 { 100_000 } else { usize::MAX };
            rig.sweep(sweep * MS).unwrap();
            assert!(rig.conn.c2s.held() <= READ_BACKLOG_CAP + rig.scratch.len());
            got.extend(rig.upstream.a_to_b.take());
            sweep += 1;
            assert!(sweep < 10_000, "stuck at {} of {}", got.len(), sent.len());
        }
        assert_eq!(got, sent);
        assert_eq!(rig.ledger().forwarded, u64::from(req));
    }

    #[test]
    fn injected_reset_tears_the_connection_down() {
        let (addr, _rx) = sink_listener(None);
        let mut config = transparent_config(4);
        config.inject.reset_prob = 1.0;
        let proxy = ChaosProxy::start(&config, &[target_for(addr)]).expect("proxy");
        let paddr = proxy.addrs()[0].1;

        let mut conn = TcpStream::connect(paddr).expect("connect");
        conn.write_all(&Frame::ReadQ { req: 0, key: 0 }.encode()).expect("send");
        conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let mut buf = [0u8; 64];
        // The proxy slams both sides: the client sees EOF or a reset
        // error, never a response and never a hang.
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("unexpected {n} bytes through a reset connection"),
        }
        let ledger = proxy.join();
        assert_eq!(ledger.resets, 1);
        assert_eq!(ledger.forwarded, 0);
    }

    #[test]
    fn drive_service_actions_narrates_crash_rejoin_and_brownout() {
        let server =
            WireServer::start(&ServeConfig::loopback(ServiceKind::Quorum, 11)).expect("server");
        let plan = FaultPlan::new(11)
            .with(FaultEvent::CrashCycle {
                target: 1,
                at: SimTime::ZERO,
                down_for: SimDuration::from_millis(30),
                up_for: SimDuration::ZERO,
                cycles: 1,
            })
            .with(FaultEvent::Brownout {
                target: 0,
                at: SimTime::from_millis(10),
                duration: SimDuration::from_millis(20),
                mode: conprobe_sim::BrownoutMode::ThrottleStorm,
            })
            .with(FaultEvent::CrashCycle {
                target: 9, // out of range: narrated and skipped
                at: SimTime::from_millis(5),
                down_for: SimDuration::from_millis(1),
                up_for: SimDuration::ZERO,
                cycles: 1,
            });
        let mut lines = Vec::new();
        let executed = drive_service_actions(&server, &plan, |line| lines.push(line));
        server.request_stop();
        server.join();

        assert_eq!(executed, 4, "crash + recover + brownout start/end");
        let all = lines.join("\n");
        assert!(all.contains("replica n1 crashed"), "{all}");
        assert!(all.contains("replica n1 recovered; state transfer begun"), "{all}");
        assert!(all.contains("replica n1 state transfer complete:"), "{all}");
        assert!(all.contains("replica n0 brownout(throttle-storm)"), "{all}");
        assert!(all.contains("replica n0 brownout-end"), "{all}");
        assert!(all.contains("fault target 9 out of range"), "{all}");
        let crashed = lines.iter().position(|l| l.contains("n1 crashed")).unwrap();
        let rejoined = lines.iter().position(|l| l.contains("state transfer complete")).unwrap();
        assert!(crashed < rejoined, "timeline order: {all}");
    }
}
