//! The wire plane on fabricated time: the three per-connection state
//! machines (`server::Conn`, `chaos::Direction`, `pipeline::PipeConn`)
//! fuzzed with `testkit`-mutated streams, and chained client → interposer
//! → server → interposer → client under one clock. No socket, no sleep.

use crate::chaos::tests::Rig as Proxy;
use crate::chaos::{ChaosConfig, ChaosLedger, InjectProfile};
use crate::conn::mem::FakeClock;
use crate::frame::{
    append_read_q, append_read_q_ok, decode, fnv64, Frame, HEADER_LEN, MAX_PAYLOAD, PROTO_VERSION,
};
use crate::pipeline::tests::Rig as Pipe;
use crate::pipeline::{PipeConn, PipeFault};
use crate::server::tests::Rig as Server;
use crate::server::{ServeConfig, Sweep};
use conprobe_json::testkit::{self, Edit, Field, TestRng};
use conprobe_services::ServiceKind;
use conprobe_sim::faults::{FaultEvent, FaultPlan, LinkScope};
use conprobe_sim::net::Region;
use conprobe_sim::{SimDuration, SimTime};
use std::ops::Range;
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

/// Where each frame of a well-formed stream sits.
fn frames_of(bytes: &[u8]) -> Vec<Range<usize>> {
    let (mut frames, mut at) = (Vec::new(), 0);
    while let Ok(Some((_, used))) = decode(&bytes[at..]) {
        frames.push(at..at + used);
        at += used;
    }
    frames
}

/// The corpus split in two at every offset, then `count` seeded mutants —
/// a truncation, a length lie, a bit flip, a retired or unknown kind, or a
/// frame out of place — each whole and split at three seeded offsets.
fn fuzzed(corpus: &[u8], seed: u64, count: usize) -> Vec<(Vec<u8>, Vec<usize>)> {
    let frames = frames_of(corpus);
    let [kinds, lengths] = [4, 5].map(|at| frames.iter().map(|f| f.start + at).collect::<Vec<_>>());
    let edits = [
        Edit::Truncate,
        Edit::Lie(&lengths, MAX_PAYLOAD as u32),
        Edit::Flip(8),
        Edit::Replace(&[2, 3, 4, 5, 19, 64, 128, 255], &kinds),
        Edit::Reorder(&frames),
    ];
    let rng = &mut TestRng::new(seed);
    let mutants = (0..count).map(|_| {
        let stream = testkit::mutant(corpus, &edits, 1, rng);
        let len = stream.len();
        (stream, [len].into_iter().chain((0..3).map(|_| rng.range_usize(0, len + 1))).collect())
    });
    std::iter::once((corpus.to_vec(), (0..=corpus.len()).collect())).chain(mutants).collect()
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
    for (i, (stream, cuts)) in fuzzed(&client_corpus(), 0x5E12, 400).iter().enumerate() {
        let (owed, hangs_up) = server_owes(stream);
        for &cut in cuts {
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
        for (i, (stream, cuts)) in fuzzed(&corpus, 0x9203, 300).iter().enumerate() {
            let (frames, tail) = intact_front(stream);
            // Only the start of a frame that may yet complete is held back.
            let kept_back = if let Tail::Starved(n) = tail { n } else { 0 };
            for &cut in cuts {
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
    for (i, (stream, cuts)) in fuzzed(&server_corpus(DEPTH), 0x919E, 400).iter().enumerate() {
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
        for &cut in cuts {
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

/// Value mode on the keyed requests: each integer field of a `write_q`
/// and a `read_q` set to its edge values, singly and in pairs, under a
/// valid checksum, sent down one connection to every arm. Each is
/// answered, echoing its request id, or refused with `throttled`, within
/// a budget of sweeps; nothing panics (a panic under a shard's lock would
/// poison the shard for every later request).
#[test]
fn hostile_field_values_in_keyed_requests_are_answered_or_refused_by_every_arm() {
    const SWEEPS: usize = 4;
    let field = |at: usize, bits, signed| Field { at: HEADER_LEN + at, bits, signed };
    let word = |at| field(at, 32, false);
    let reframe = |bytes: &mut [u8]| {
        let sum = fnv64(&bytes[HEADER_LEN..]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    };
    let write = Frame::WriteQ {
        req: 1,
        key: 2,
        author: 3,
        seq: 4,
        client_ts_nanos: 5,
        content: "v".into(),
    };
    let fields = [word(0), word(4), word(8), word(12), field(16, 64, true)];
    let mut requests = testkit::field_values(&write.encode(), &fields, reframe);
    let read = Frame::ReadQ { req: 1, key: 2 }.encode();
    requests.extend(testkit::field_values(&read, &fields[..2], reframe));
    for kind in ServiceKind::CATALOG {
        let mut server = Server::new(&ServeConfig::loopback(kind, 1), Region::Tokyo);
        let mut link = crate::conn::mem::Link::default();
        let mut now = 0;
        for request in &requests {
            let req = match decode(request) {
                Ok(Some((Frame::WriteQ { req, .. } | Frame::ReadQ { req, .. }, _))) => req,
                other => panic!("{kind:?}: a well-formed request, not {other:?}"),
            };
            link.a_to_b.bytes.extend(request);
            let mut heard = Vec::new();
            for _ in 0..SWEEPS {
                now += MS;
                let swept = server.sweep(&mut link.b(), now);
                assert_ne!(swept, Sweep::Closed, "{kind:?}: {request:02x?}");
                heard.extend(link.b_to_a.take());
                if !heard.is_empty() {
                    break;
                }
            }
            match intact_front(&heard) {
                (answers, Tail::Clean) if answers.len() == 1 => match answers[0] {
                    Frame::ReadQOk { req: r, .. }
                    | Frame::WriteQAck { req: r, .. }
                    | Frame::Throttled { req: r } => assert_eq!(r, req, "{kind:?}"),
                    ref other => panic!("{kind:?}: {request:02x?} was answered {other:?}"),
                },
                other => panic!("{kind:?}: {request:02x?} got {other:?}"),
            }
        }
    }
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
