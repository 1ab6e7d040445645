//! `conprobe chaosd` — a deterministic fault-injecting TCP interposer.
//!
//! The sim executes a [`FaultPlan`] by perturbing virtual messages; this
//! module executes the *same plan* against real sockets, so the live
//! probe path can be characterized under the faults the paper's
//! measured outages imply. A [`ChaosProxy`] binds one listener per
//! [`ChaosTarget`] and forwards traffic to the real replica listener,
//! judging every complete `cpw1` frame against the plan's compiled
//! [`LinkEffect`] windows at the wall-clock offset since proxy start:
//!
//! * [`EffectKind::Block`] windows blackhole the frame (both directions
//!   are judged, so a partition is symmetric);
//! * [`EffectKind::Loss`] drops it with the window's probability;
//! * [`EffectKind::ExtraDelay`] holds it for `base + Exp(jitter)`,
//!   releasing FIFO so delay never reorders a connection's stream.
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
//! depends on.
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

use crate::frame::decode_raw;
use crate::server::WireServer;
use conprobe_sim::faults::{EffectKind, FaultPlan, LinkEffect, ServiceAction, ServiceActionKind};
use conprobe_sim::net::Region;
use conprobe_sim::{SimRng, SimTime};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    /// Frames blackholed by a [`EffectKind::Block`] window.
    pub blocked: u64,
    /// Frames dropped by a [`EffectKind::Loss`] sample.
    pub dropped: u64,
    /// Frames that picked up [`EffectKind::ExtraDelay`].
    pub delayed: u64,
    /// Frames with an injected bit flip.
    pub corrupted: u64,
    /// Connections torn down by an injected reset.
    pub resets: u64,
    /// Frames released as slow-loris chunk trains.
    pub trickled: u64,
}

#[derive(Default)]
struct LedgerCells {
    forwarded: AtomicU64,
    blocked: AtomicU64,
    dropped: AtomicU64,
    delayed: AtomicU64,
    corrupted: AtomicU64,
    resets: AtomicU64,
    trickled: AtomicU64,
}

impl LedgerCells {
    fn snapshot(&self) -> ChaosLedger {
        ChaosLedger {
            forwarded: self.forwarded.load(Ordering::Acquire),
            blocked: self.blocked.load(Ordering::Acquire),
            dropped: self.dropped.load(Ordering::Acquire),
            delayed: self.delayed.load(Ordering::Acquire),
            corrupted: self.corrupted.load(Ordering::Acquire),
            resets: self.resets.load(Ordering::Acquire),
            trickled: self.trickled.load(Ordering::Acquire),
        }
    }
}

/// Everything a pump thread needs, shared per target.
struct TargetCtx {
    target: ChaosTarget,
    target_rng: SimRng,
    conn_seq: AtomicU64,
    effects: Arc<Vec<LinkEffect>>,
    inject: InjectProfile,
    epoch: Instant,
    cells: Arc<LedgerCells>,
    stop: Arc<AtomicBool>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// The running interposer: one proxy listener per target, pump threads
/// per accepted connection, a shared fault ledger.
pub struct ChaosProxy {
    addrs: Vec<(Region, SocketAddr)>,
    stop: Arc<AtomicBool>,
    accepters: Vec<JoinHandle<()>>,
    cells: Arc<LedgerCells>,
}

impl ChaosProxy {
    /// Binds one proxy listener per target and starts forwarding.
    ///
    /// The plan's timeline starts *now*: a window at `t+4s` opens four
    /// wall-clock seconds after this call returns.
    pub fn start(config: &ChaosConfig, targets: &[ChaosTarget]) -> io::Result<ChaosProxy> {
        let effects = Arc::new(config.plan.network_effects());
        let cells = Arc::new(LedgerCells::default());
        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let root = SimRng::new(config.seed);
        let mut addrs = Vec::with_capacity(targets.len());
        let mut accepters = Vec::with_capacity(targets.len());
        for (i, target) in targets.iter().enumerate() {
            let port = if config.base_port == 0 { 0 } else { config.base_port + i as u16 };
            let listener = TcpListener::bind(("127.0.0.1", port))?;
            listener.set_nonblocking(true)?;
            addrs.push((target.region, listener.local_addr()?));
            let ctx = Arc::new(TargetCtx {
                target: *target,
                target_rng: root.split_indexed("chaos.region", i as u64),
                conn_seq: AtomicU64::new(0),
                effects: Arc::clone(&effects),
                inject: config.inject,
                epoch,
                cells: Arc::clone(&cells),
                stop: Arc::clone(&stop),
                pumps: Mutex::new(Vec::new()),
            });
            accepters.push(thread::spawn(move || accept_loop(listener, ctx)));
        }
        Ok(ChaosProxy { addrs, stop, accepters, cells })
    }

    /// The proxy-side listener address for each target, in target order.
    pub fn addrs(&self) -> &[(Region, SocketAddr)] {
        &self.addrs
    }

    /// A live snapshot of the fault ledger (final totals come from
    /// [`ChaosProxy::join`]).
    pub fn ledger(&self) -> ChaosLedger {
        self.cells.snapshot()
    }

    /// Asks every accept and pump thread to wind down.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Stops the proxy (if not already stopping) and waits for every
    /// thread, returning the final fault ledger.
    pub fn join(self) -> ChaosLedger {
        self.request_stop();
        for handle in self.accepters {
            let _ = handle.join();
        }
        self.cells.snapshot()
    }
}

fn accept_loop(listener: TcpListener, ctx: Arc<TargetCtx>) {
    while !ctx.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                let seq = ctx.conn_seq.fetch_add(1, Ordering::AcqRel);
                let conn_ctx = Arc::clone(&ctx);
                let handle = thread::spawn(move || pump_connection(client, conn_ctx, seq));
                ctx.pumps.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
    drop(listener);
    let pumps = std::mem::take(&mut *ctx.pumps.lock().unwrap());
    for handle in pumps {
        let _ = handle.join();
    }
}

/// Per-direction pump state. Frames move `inbuf → queue → outbuf`; the
/// queue holds judged frames until their release instant, preserving
/// FIFO order (`release = max(now + delay, last_release)`).
struct DirState {
    inbuf: Vec<u8>,
    queue: VecDeque<(Instant, Vec<u8>)>,
    outbuf: Vec<u8>,
    outpos: usize,
    last_release: Instant,
    /// Once the front of the stream fails to parse, forward verbatim.
    raw: bool,
    read_closed: bool,
    write_shut: bool,
}

impl DirState {
    fn new(epoch: Instant) -> DirState {
        DirState {
            inbuf: Vec::new(),
            queue: VecDeque::new(),
            outbuf: Vec::new(),
            outpos: 0,
            last_release: epoch,
            raw: false,
            read_closed: false,
            write_shut: false,
        }
    }

    fn drained(&self) -> bool {
        self.inbuf.is_empty() && self.queue.is_empty() && self.outpos == self.outbuf.len()
    }
}

/// Why a pump ended; `Reset` is the injected teardown.
enum PumpEnd {
    Eof,
    Reset,
    Torn,
}

fn pump_connection(client: TcpStream, ctx: Arc<TargetCtx>, seq: u64) {
    let upstream = match TcpStream::connect(ctx.target.addr) {
        Ok(s) => s,
        Err(_) => return,
    };
    if client.set_nonblocking(true).is_err() || upstream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    let mut rng = ctx.target_rng.split_indexed("conn", seq);
    let mut c2s = DirState::new(ctx.epoch);
    let mut s2c = DirState::new(ctx.epoch);
    let end = loop {
        if ctx.stop.load(Ordering::Acquire) {
            break PumpEnd::Torn;
        }
        let mut progress = false;
        let mut torn = false;
        let mut reset = false;
        for (src, dst, dir) in [(&client, &upstream, &mut c2s), (&upstream, &client, &mut s2c)] {
            match read_side(src, dir) {
                Ok(p) => progress |= p,
                Err(_) => torn = true,
            }
            match judge_frames(dir, &ctx, &mut rng) {
                Ok(p) => progress |= p,
                Err(()) => reset = true,
            }
            match flush_side(dst, dir) {
                Ok(p) => progress |= p,
                Err(_) => torn = true,
            }
        }
        if reset {
            break PumpEnd::Reset;
        }
        if torn {
            break PumpEnd::Torn;
        }
        if c2s.write_shut && s2c.write_shut {
            break PumpEnd::Eof;
        }
        if !progress {
            thread::sleep(Duration::from_micros(300));
        }
    };
    match end {
        PumpEnd::Reset => {
            ctx.cells.resets.fetch_add(1, Ordering::AcqRel);
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream.shutdown(Shutdown::Both);
        }
        PumpEnd::Eof | PumpEnd::Torn => {
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream.shutdown(Shutdown::Both);
        }
    }
}

/// Reads whatever the source socket has into the direction's input
/// buffer; `Ok(true)` when bytes arrived or EOF was newly observed.
fn read_side(src: &TcpStream, dir: &mut DirState) -> io::Result<bool> {
    if dir.read_closed {
        return Ok(false);
    }
    let mut progress = false;
    let mut chunk = [0u8; 16 * 1024];
    let mut src = src; // `Read` is on `&TcpStream`; shared handles, mutable cursor
    loop {
        match src.read(&mut chunk) {
            Ok(0) => {
                dir.read_closed = true;
                return Ok(true);
            }
            Ok(n) => {
                dir.inbuf.extend_from_slice(&chunk[..n]);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(progress),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Judges every complete frame at the front of `inbuf` against the plan
/// windows and the injection profile, moving survivors to the release
/// queue. `Err(())` requests an injected reset.
fn judge_frames(dir: &mut DirState, ctx: &TargetCtx, rng: &mut SimRng) -> Result<bool, ()> {
    let mut progress = false;
    loop {
        if dir.inbuf.is_empty() {
            return Ok(progress);
        }
        if dir.raw {
            // Unparseable stream: degrade to a transparent pipe.
            let bytes = std::mem::take(&mut dir.inbuf);
            let release = Instant::now().max(dir.last_release);
            dir.last_release = release;
            dir.queue.push_back((release, bytes));
            return Ok(true);
        }
        let raw = match decode_raw(&dir.inbuf) {
            Ok(Some(raw)) => raw,
            Ok(None) => return Ok(progress),
            Err(_) => {
                dir.raw = true;
                continue;
            }
        };
        let mut bytes: Vec<u8> = dir.inbuf.drain(..raw.consumed).collect();
        progress = true;

        // Judge against the plan's link windows at the wall offset.
        let at = SimTime::from_nanos(ctx.epoch.elapsed().as_nanos() as u64);
        let (a, b) = (ctx.target.region, ctx.target.replica_region);
        let mut blocked = false;
        let mut lost = false;
        let mut delay_nanos = 0u64;
        for effect in ctx.effects.iter().filter(|e| e.applies(a, b, at)) {
            match effect.kind {
                EffectKind::Block => blocked = true,
                EffectKind::Loss(p) => lost |= rng.gen_bool(p),
                EffectKind::ExtraDelay { base, jitter_mean } => {
                    delay_nanos +=
                        base.as_nanos() + rng.gen_exp(jitter_mean.as_nanos() as f64) as u64;
                }
            }
        }
        if blocked {
            ctx.cells.blocked.fetch_add(1, Ordering::AcqRel);
            continue;
        }
        if lost {
            ctx.cells.dropped.fetch_add(1, Ordering::AcqRel);
            continue;
        }

        // Byte-level injections on the surviving frame.
        let inject = &ctx.inject;
        if inject.reset_prob > 0.0 && rng.gen_bool(inject.reset_prob) {
            return Err(());
        }
        if inject.corrupt_prob > 0.0 && rng.gen_bool(inject.corrupt_prob) {
            let byte = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u32);
            bytes[byte] ^= 1u8 << bit;
            ctx.cells.corrupted.fetch_add(1, Ordering::AcqRel);
        }

        if delay_nanos > 0 {
            ctx.cells.delayed.fetch_add(1, Ordering::AcqRel);
        }
        let release = (Instant::now() + Duration::from_nanos(delay_nanos)).max(dir.last_release);
        let trickle =
            inject.trickle_prob > 0.0 && bytes.len() > 1 && rng.gen_bool(inject.trickle_prob);
        if trickle {
            ctx.cells.trickled.fetch_add(1, Ordering::AcqRel);
            let chunk = inject.trickle_chunk.max(1);
            let mut at = release;
            for piece in bytes.chunks(chunk) {
                dir.queue.push_back((at, piece.to_vec()));
                dir.last_release = at;
                at += inject.trickle_gap;
            }
        } else {
            dir.queue.push_back((release, bytes));
            dir.last_release = release;
        }
        ctx.cells.forwarded.fetch_add(1, Ordering::AcqRel);
    }
}

/// Moves due queue entries into the output buffer and writes as much as
/// the destination socket will take; shuts the destination's write half
/// once this direction is EOF and fully drained.
fn flush_side(dst: &TcpStream, dir: &mut DirState) -> io::Result<bool> {
    let mut progress = false;
    let now = Instant::now();
    while let Some((release, _)) = dir.queue.front() {
        if *release > now {
            break;
        }
        let (_, bytes) = dir.queue.pop_front().expect("front just observed");
        dir.outbuf.extend_from_slice(&bytes);
    }
    let mut sink = dst; // `Write` is on `&TcpStream`
    while dir.outpos < dir.outbuf.len() {
        match sink.write(&dir.outbuf[dir.outpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                dir.outpos += n;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if dir.outpos == dir.outbuf.len() && !dir.outbuf.is_empty() {
        dir.outbuf.clear();
        dir.outpos = 0;
    }
    if dir.read_closed && dir.drained() && !dir.write_shut {
        let _ = dst.shutdown(Shutdown::Write);
        dir.write_shut = true;
        progress = true;
    }
    Ok(progress)
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
mod tests {
    use super::*;
    use crate::frame::{decode, Frame, PROTO_VERSION};
    use crate::server::ServeConfig;
    use conprobe_services::ServiceKind;
    use conprobe_sim::faults::{FaultEvent, LinkScope};
    use conprobe_sim::{SimDuration, SimTime};
    use std::sync::mpsc;

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
        let (addr, rx) = sink_listener(None);
        let mut config = transparent_config(2);
        config.plan.push(FaultEvent::LinkFlap {
            scope: LinkScope::Touching(Region::Oregon),
            at: SimTime::ZERO,
            down_for: SimDuration::from_secs(600),
            up_for: SimDuration::ZERO,
            flaps: 1,
        });
        let proxy = ChaosProxy::start(&config, &[target_for(addr)]).expect("proxy");
        let paddr = proxy.addrs()[0].1;

        let mut conn = TcpStream::connect(paddr).expect("connect");
        for _ in 0..3 {
            conn.write_all(&Frame::ReadQ { req: 0, key: 0 }.encode()).expect("send");
        }
        drop(conn);

        assert!(recv_bytes(&rx).is_empty(), "nothing crosses a partition");
        let ledger = proxy.join();
        assert_eq!(ledger.blocked, 3);
        assert_eq!(ledger.forwarded, 0);
    }

    #[test]
    fn corruption_is_typed_rejection_and_seed_deterministic() {
        let run = |seed: u64| -> (Vec<u8>, ChaosLedger) {
            let (addr, rx) = sink_listener(None);
            let mut config = transparent_config(seed);
            config.inject.corrupt_prob = 1.0;
            let proxy = ChaosProxy::start(&config, &[target_for(addr)]).expect("proxy");
            let paddr = proxy.addrs()[0].1;
            let mut conn = TcpStream::connect(paddr).expect("connect");
            conn.write_all(
                &Frame::WriteQ {
                    req: 0,
                    key: 0,
                    author: 1,
                    seq: 2,
                    client_ts_nanos: 3,
                    content: "corrupt me".to_string(),
                }
                .encode(),
            )
            .expect("send");
            drop(conn);
            (recv_bytes(&rx), proxy.join())
        };

        let (bytes_a, ledger_a) = run(7);
        let (bytes_b, ledger_b) = run(7);
        let (bytes_c, _) = run(9);
        assert_eq!(bytes_a, bytes_b, "same seed, same flipped bit");
        assert_ne!(bytes_a, bytes_c, "different seed corrupts differently");
        assert_eq!(ledger_a.corrupted, 1);
        assert_eq!(ledger_a, ledger_b);

        let original = Frame::WriteQ {
            req: 0,
            key: 0,
            author: 1,
            seq: 2,
            client_ts_nanos: 3,
            content: "corrupt me".to_string(),
        }
        .encode();
        assert_ne!(bytes_a, original, "one bit differs");
        // The flip is never invisible: the checksum (payload flips), the
        // magic/length validation (header flips), or the kind byte
        // itself changes what decodes. A panic here would be the bug.
        // `Ok(None)` (starved) and `Err` (typed rejection) are both fine.
        if let Ok(Some(decoded)) = decode(&bytes_a) {
            let pristine = decode(&original).expect("original decodes").expect("complete");
            assert_ne!(decoded, pristine, "corruption must not decode to the original");
        }
    }

    #[test]
    fn extra_delay_holds_frames_but_preserves_order() {
        let (addr, rx) = sink_listener(None);
        let mut config = transparent_config(3);
        config.plan.push(FaultEvent::DegradedLink {
            scope: LinkScope::All,
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(600),
            extra_base: SimDuration::from_millis(40),
            extra_jitter: SimDuration::ZERO,
        });
        let proxy = ChaosProxy::start(&config, &[target_for(addr)]).expect("proxy");
        let paddr = proxy.addrs()[0].1;

        let first = Frame::ReadQ { req: 0, key: 0 }.encode();
        let second = Frame::Hello { proto: PROTO_VERSION }.encode();
        let sent_at = Instant::now();
        let mut conn = TcpStream::connect(paddr).expect("connect");
        conn.write_all(&first).expect("send first");
        conn.write_all(&second).expect("send second");
        drop(conn);

        let got = recv_bytes(&rx);
        assert!(sent_at.elapsed() >= Duration::from_millis(40), "frames were held");
        let expected: Vec<u8> = [first, second].concat();
        assert_eq!(got, expected, "FIFO order survives the delay window");
        let ledger = proxy.join();
        assert_eq!(ledger.delayed, 2);
        assert_eq!(ledger.forwarded, 2);
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
    fn trickled_frames_arrive_whole_and_in_order() {
        let (addr, rx) = sink_listener(None);
        let mut config = transparent_config(5);
        config.inject.trickle_prob = 1.0;
        config.inject.trickle_chunk = 3;
        config.inject.trickle_gap = Duration::from_millis(1);
        let proxy = ChaosProxy::start(&config, &[target_for(addr)]).expect("proxy");
        let paddr = proxy.addrs()[0].1;

        let frame = Frame::WriteQ {
            req: 0,
            key: 0,
            author: 9,
            seq: 1,
            client_ts_nanos: 0,
            content: "slow loris says hello".to_string(),
        }
        .encode();
        let mut conn = TcpStream::connect(paddr).expect("connect");
        conn.write_all(&frame).expect("send");
        drop(conn);

        assert_eq!(recv_bytes(&rx), frame, "chunks reassemble to the exact frame");
        let ledger = proxy.join();
        assert_eq!(ledger.trickled, 1);
        assert_eq!(ledger.forwarded, 1);
    }

    #[test]
    fn garbage_streams_pass_through_verbatim() {
        let (addr, rx) = sink_listener(None);
        let proxy = ChaosProxy::start(&transparent_config(6), &[target_for(addr)]).expect("proxy");
        let paddr = proxy.addrs()[0].1;

        let garbage = b"this is not a cpw1 frame at all".to_vec();
        let mut conn = TcpStream::connect(paddr).expect("connect");
        conn.write_all(&garbage).expect("send");
        drop(conn);

        assert_eq!(recv_bytes(&rx), garbage, "unparseable bytes forward unshaped");
        let ledger = proxy.join();
        assert_eq!(ledger.forwarded, 0, "garbage is not counted as frames");
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
