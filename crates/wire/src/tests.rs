//! The wire plane on fabricated time: the three per-connection state
//! machines (`server::Conn`, `chaos::Direction`, `pipeline::PipeConn`)
//! fuzzed with `SimRng`-mutated streams, and chained client → interposer
//! → server → interposer → client under one clock. No socket, no sleep.

use crate::chaos::tests::Rig as Proxy;
use crate::chaos::{ChaosConfig, ChaosLedger, InjectProfile};
use crate::conn::mem::FakeClock;
use crate::frame::{append_read_q, append_read_q_ok, decode, Frame, MAX_PAYLOAD, PROTO_VERSION};
use crate::pipeline::tests::Rig as Pipe;
use crate::pipeline::{PipeConn, PipeFault};
use crate::server::tests::Rig as Server;
use crate::server::{ServeConfig, Sweep};
use conprobe_services::ServiceKind;
use conprobe_sim::faults::{FaultEvent, FaultPlan, LinkScope};
use conprobe_sim::net::Region;
use conprobe_sim::{SimDuration, SimRng, SimTime};
use std::time::Duration;

const MS: u64 = 1_000_000;

/// How the intact front of a byte stream ends.
#[derive(Debug, PartialEq, Eq)]
enum Tail {
    /// On a frame boundary.
    Clean,
    /// Inside a so-far well-formed frame, this many bytes of it present.
    Starved(usize),
    /// At bytes that can never become a frame.
    Corrupt,
}

/// The oracle: the frames at the front of `bytes` that are intact, and
/// how the stream ends behind them.
fn intact_front(mut bytes: &[u8]) -> (Vec<Frame>, Tail) {
    let mut frames = Vec::new();
    loop {
        match decode(bytes) {
            Ok(Some((frame, used))) => {
                frames.push(frame);
                bytes = &bytes[used..];
            }
            Ok(None) if bytes.is_empty() => return (frames, Tail::Clean),
            Ok(None) => return (frames, Tail::Starved(bytes.len())),
            Err(_) => return (frames, Tail::Corrupt),
        }
    }
}

/// A well-formed stream cut into its frames.
fn frames_of(mut bytes: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    while let Ok(Some((_, used))) = decode(bytes) {
        frames.push(&bytes[..used]);
        bytes = &bytes[used..];
    }
    frames
}

/// One seeded mutation of a well-formed stream: a truncation, a length
/// lie, a bit flip, a retired or unknown kind number, or a whole frame
/// out of place (swapped with its successor; the last one, repeated).
fn mutate(stream: &[u8], rng: &mut SimRng) -> Vec<u8> {
    let mut frames = frames_of(stream);
    let pick = rng.gen_range(0..frames.len());
    let at: usize = frames[..pick].iter().map(|f| f.len()).sum();
    let mut bytes = stream.to_vec();
    match rng.gen_range(0..5u32) {
        0 => bytes.truncate(rng.gen_range(0..bytes.len())),
        1 => {
            let lie: u32 = match rng.gen_range(0..4u32) {
                0 => 0,
                1 => rng.gen_range(0..64u32),
                2 => MAX_PAYLOAD as u32 + rng.gen_range(0..2u32),
                _ => rng.gen_u64() as u32,
            };
            bytes[at + 5..at + 9].copy_from_slice(&lie.to_le_bytes());
        }
        2 => {
            let byte = rng.gen_range(0..bytes.len());
            bytes[byte] ^= 1 << rng.gen_range(0..8u32);
        }
        3 => {
            let retired = rng.gen_range(2..6u32) as u8;
            let unknown = rng.gen_range(19..256u32) as u8;
            bytes[at + 4] = if rng.gen_bool(0.5) { retired } else { unknown };
        }
        _ => {
            if pick + 1 < frames.len() {
                frames.swap(pick, pick + 1);
            } else {
                frames.push(frames[pick]);
            }
            bytes = frames.concat();
        }
    }
    bytes
}

/// The corpus itself, then `count` seeded mutations of it.
fn fuzzed(corpus: &[u8], label: &str, count: usize) -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(24).split(label);
    std::iter::once(corpus.to_vec()).chain((0..count).map(|_| mutate(corpus, &mut rng))).collect()
}

/// Where to cut stream `i` in two: at every byte offset for the corpus
/// itself (stream 0); whole, plus three seeded offsets, for a mutation.
fn cuts(bytes: &[u8], i: usize) -> Vec<usize> {
    if i == 0 {
        return (0..=bytes.len()).collect();
    }
    let mut rng = SimRng::new(24).split_indexed("cut", i as u64);
    let mut cuts = vec![bytes.len()];
    cuts.extend((0..3).map(|_| rng.gen_range(0..bytes.len() + 1)));
    cuts
}

fn client_corpus() -> Vec<u8> {
    let mut bytes = Frame::Hello { proto: PROTO_VERSION }.encode();
    for req in 0..6u32 {
        if req % 3 == 2 {
            let content = format!("post {req} — ünïcode");
            let write = Frame::WriteQ {
                req,
                key: req % 4,
                author: 7,
                seq: req,
                client_ts_nanos: 5,
                content,
            };
            write.encode_into(&mut bytes);
        } else {
            append_read_q(&mut bytes, req, req % 4);
        }
    }
    bytes
}

fn server_corpus(answers: u32) -> Vec<u8> {
    let mut bytes = Vec::new();
    for req in 0..answers {
        match req % 3 {
            0 => append_read_q_ok(&mut bytes, req, &[u64::from(req), 9]),
            1 => Frame::Throttled { req }.encode_into(&mut bytes),
            _ => Frame::WriteQAck { req, id: 77 }.encode_into(&mut bytes),
        }
    }
    bytes
}

/// What the server must make of `stream`: the answers it owes, and
/// whether it must have hung up.
fn server_owes(stream: &[u8]) -> (Vec<Option<u32>>, bool) {
    let (frames, tail) = intact_front(stream);
    let mut owed = Vec::new();
    for frame in frames {
        match frame {
            Frame::Hello { .. } | Frame::Stop => owed.push(None),
            Frame::ReadQ { req, .. } | Frame::WriteQ { req, .. } => owed.push(Some(req)),
            _ => return (owed, true), // not a client's frame
        }
    }
    (owed, tail == Tail::Corrupt)
}

#[test]
fn fuzzed_client_streams_never_get_an_answer_past_the_first_error() {
    for (i, stream) in fuzzed(&client_corpus(), "fuzz.server", 400).iter().enumerate() {
        let (owed, hangs_up) = server_owes(stream);
        for cut in cuts(stream, i) {
            let mut server =
                Server::new(&ServeConfig::loopback(ServiceKind::Blogger, 1), Region::Tokyo);
            let mut link = crate::conn::mem::Link::default();
            let mut closed = false;
            for (piece, at) in [(&stream[..cut], MS), (&stream[cut..], 2 * MS)] {
                link.a_to_b.bytes.extend(piece);
                closed = closed || server.sweep(&mut link.b(), at) == Sweep::Closed;
            }
            assert_eq!(closed, hangs_up, "stream {i} cut at {cut}: {stream:02x?}");
            // Everything it appended, flushed or not, against what it owed.
            let mut out = link.b_to_a.take();
            out.extend(server.unflushed());
            let (answers, tail) = intact_front(&out);
            assert_eq!(tail, Tail::Clean, "stream {i}: the server wrote a broken frame");
            let echoed: Vec<Option<u32>> = answers
                .iter()
                .map(|frame| match frame {
                    Frame::HelloAck { .. } | Frame::StopAck => None,
                    Frame::ReadQOk { req, .. } | Frame::WriteQAck { req, .. } => Some(*req),
                    other => panic!("stream {i}: the server said {other:?}"),
                })
                .collect();
            assert_eq!(echoed, owed, "stream {i} cut at {cut}: {stream:02x?}");
        }
    }
}

#[test]
fn fuzzed_streams_degrade_an_interposer_direction_to_verbatim_forwarding() {
    let transparent = ChaosConfig {
        seed: 3,
        plan: FaultPlan::new(3),
        inject: InjectProfile::default(),
        base_port: 0,
    };
    for corpus in [client_corpus(), server_corpus(9)] {
        for (i, stream) in fuzzed(&corpus, "fuzz.proxy", 300).iter().enumerate() {
            let (frames, tail) = intact_front(stream);
            // Only the start of a frame that may yet complete is held back.
            let kept_back = if let Tail::Starved(n) = tail { n } else { 0 };
            for cut in cuts(stream, i) {
                let mut proxy = Proxy::new(&transparent);
                let mut got = Vec::new();
                for (piece, at) in [(&stream[..cut], MS), (&stream[cut..], 2 * MS)] {
                    proxy.client.a_to_b.bytes.extend(piece);
                    proxy.sweep(at).expect("a transparent proxy never resets");
                    got.extend(proxy.upstream.a_to_b.take());
                }
                assert_eq!(got, stream[..stream.len() - kept_back], "stream {i} cut at {cut}");
                let framed =
                    ChaosLedger { forwarded: frames.len() as u64, ..ChaosLedger::default() };
                assert_eq!(proxy.ledger(), framed, "stream {i}: only intact frames are counted");
            }
        }
    }
}

#[test]
fn fuzzed_response_streams_surface_as_decode_or_ordering_faults() {
    const DEPTH: u32 = 9;
    let mut seen = std::collections::BTreeSet::new();
    for (i, stream) in fuzzed(&server_corpus(DEPTH), "fuzz.pipe", 400).iter().enumerate() {
        // The oracle: answers are owed in issue order, nothing else is.
        let (frames, tail) = intact_front(stream);
        let (mut done, mut refused, mut fault) = (0, 0, None);
        for (n, frame) in frames.iter().enumerate() {
            fault = match frame {
                Frame::ReadQOk { req, .. } | Frame::WriteQAck { req, .. } if *req == n as u32 => {
                    done += 1;
                    continue;
                }
                Frame::Throttled { req } if *req == n as u32 => {
                    refused += 1;
                    continue;
                }
                Frame::ReadQOk { .. } | Frame::WriteQAck { .. } | Frame::Throttled { .. } => {
                    Some(PipeFault::Ordering)
                }
                Frame::Busy { .. } => Some(PipeFault::Busy),
                _ => Some(PipeFault::Decode),
            };
            break;
        }
        if fault.is_none() && tail == Tail::Corrupt {
            fault = Some(PipeFault::Decode);
        }
        seen.extend(fault.map(|f| format!("{f:?}")));
        for cut in cuts(stream, i) {
            let mut pipe = Pipe::new();
            for _ in 0..DEPTH {
                pipe.conn.issue_read(0, 0);
            }
            let (mut completed, mut throttled, mut got) = (0, 0, None);
            for (piece, at) in [(&stream[..cut], MS), (&stream[cut..], 2 * MS)] {
                if got.is_none() {
                    pipe.answer(piece);
                    pipe.clock.set(at);
                    let r = pipe.pump(Duration::from_secs(1));
                    completed += r.completed;
                    throttled += r.throttled;
                    got = r.fault;
                }
            }
            assert_eq!((completed, throttled, got), (done, refused, fault), "stream {i} at {cut}");
        }
    }
    assert!(
        seen.contains("Decode") && seen.contains("Ordering"),
        "the corpus reached both: {seen:?}"
    );
}

/// Client → interposer → server → interposer → client, one thread, one
/// fabricated clock: a paced depth-4 pipelined reader through a trickling
/// link that degrades for 100 ms into a WAN-shaped server that browns
/// out for 30 ms of it.
/// Returns every byte the client received, each latency with the
/// instant it was reaped at, the interposer's ledger and the server's
/// frame count.
fn composed_run(seed: u64) -> (Vec<u8>, Vec<(u64, u64)>, ChaosLedger, u64) {
    const READS: u32 = 300;
    let mut plan = FaultPlan::new(seed);
    plan.push(FaultEvent::DegradedLink {
        scope: LinkScope::All,
        at: SimTime::from_millis(20),
        duration: SimDuration::from_millis(100),
        extra_base: SimDuration::from_millis(2),
        extra_jitter: SimDuration::from_millis(1),
    });
    let inject = InjectProfile {
        trickle_prob: 0.25,
        trickle_chunk: 7,
        trickle_gap: Duration::from_micros(150),
        ..InjectProfile::default()
    };
    let mut proxy = Proxy::new(&ChaosConfig { seed, plan, inject, base_port: 0 });
    let mut config = ServeConfig::loopback(ServiceKind::Blogger, seed);
    config.latency_scale = 0.002;
    let mut server = Server::new(&config, Region::Ireland);
    let clock = FakeClock::default();
    let mut client = PipeConn::new(0);
    let mut scratch = vec![0u8; 4096];

    let (mut heard, mut latencies) = (Vec::new(), Vec::new());
    let (mut issued, mut completed) = (0u32, 0usize);
    let mut now = 0;
    while completed < READS as usize {
        now += 50_000; // 50 µs a turn
        assert!(now < 5_000 * MS, "stuck at {completed}/{READS}");
        clock.set(now);
        // The fault window is an instant on the same clock as everything
        // else, so it cannot race the client's start.
        server.delay_brownout(if (60 * MS..90 * MS).contains(&now) { 3 * MS } else { 0 });
        // Paced at one read per 500 µs, at most four in flight.
        if client.inflight() < 4 && issued < READS && now >= client.next_issue_at {
            client.next_issue_at += 500_000;
            client.issue_read(issued % 5, now);
            issued += 1;
        }
        let arriving: Vec<u8> = proxy.client.b_to_a.bytes.iter().copied().collect();
        let r =
            client.pump(&mut proxy.client.a(), &mut scratch, Duration::from_secs(1), &clock.read());
        heard.extend(&arriving[..arriving.len() - proxy.client.b_to_a.bytes.len()]);
        assert_eq!((r.fault, r.throttled), (None, 0), "at {now}");
        completed += r.completed;
        latencies.extend(client.take_latencies().map(|nanos| (now, nanos)));
        proxy.sweep(now).expect("no reset is injected");
        assert_ne!(server.sweep(&mut proxy.upstream.b(), now), Sweep::Closed);
        proxy.sweep(now).expect("no reset is injected");
    }
    (heard, latencies, proxy.ledger(), server.counter("wire.server.frames"))
}

#[test]
fn one_fabricated_clock_drives_client_interposer_and_server_deterministically() {
    let (heard, latencies, ledger, served) = composed_run(42);
    // 300 reads and a hello went up, 300 answers and an ack came down.
    assert_eq!(served, 301);
    assert_eq!(ledger.forwarded, 602);
    assert!(ledger.net.delayed > 50 && ledger.trickled > 100, "{ledger:?}");
    assert_eq!(ledger.net.blocked + ledger.net.dropped + ledger.corrupted + ledger.resets, 0);
    let (answers, tail) = intact_front(&heard);
    assert_eq!((answers.len(), tail), (301, Tail::Clean));
    assert_eq!(latencies.len(), 300);
    // Outside the degraded window a round trip is the server's scaled WAN
    // delay and the odd chunk train; inside, it pays the 2 ms twice; and
    // while the replica is browned out, its 3 ms on top.
    let span = |from: u64, to: u64| {
        let inside = latencies.iter().filter(|(at, _)| (from * MS..to * MS).contains(at));
        let nanos: Vec<u64> = inside.map(|(_, nanos)| *nanos).collect();
        assert!(nanos.len() > 5, "reads complete in {from}..{to} ms: {}", nanos.len());
        (*nanos.iter().min().unwrap(), *nanos.iter().max().unwrap())
    };
    assert!(span(0, 20).1 < 2 * MS, "undisturbed: {:?}", span(0, 20));
    assert!(span(30, 60).0 >= 4 * MS, "degraded: {:?}", span(30, 60));
    assert!(span(70, 90).0 >= 7 * MS, "browned out: {:?}", span(70, 90));
    assert!(span(140, 160).1 < 2 * MS, "healed: {:?}", span(140, 160));
    // From one seed: the same bytes, the same instants, the same ledger.
    assert_eq!(composed_run(42), (heard, latencies, ledger, served));
    assert_ne!(composed_run(43).1, composed_run(42).1);
}
