//! Live serve + probe over real loopback sockets (ISSUE 5 acceptance
//! bar).
//!
//! These tests run the whole wire stack end to end on `127.0.0.1`: a
//! [`WireServer`] hosting a catalog service on wall-clock time, real
//! probe-agent threads with skewed clocks synced over the wire, and the
//! *unmodified* `analyze()` / journal pipeline consuming the resulting
//! trace. A seeded staleness window must surface as a detected
//! read-your-writes anomaly; a clean single-replica service must analyze
//! clean; a draining server must never leave a client mid-frame.

use conprobe::core::anomaly::AnomalyKind;
use conprobe::harness::journal::{self, Journal, RecoveredEntry};
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::TestConfig;
use conprobe::services::live::StaleWindow;
use conprobe::services::ServiceKind;
use conprobe::wire::frame::{read_frame, write_frame, Frame};
use conprobe::wire::{
    run_load, run_probe, run_probe_with_live, LiveEvent, LoadConfig, ProbeConfig, ServeConfig,
    WireClient, WireServer,
};
use conprobe_obs::MetricsRegistry;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("conprobe-wire-{tag}-{}.jsonl", std::process::id()))
}

fn probe_endpoints(
    server: &WireServer,
    agents: usize,
) -> Vec<(conprobe::sim::net::Region, std::net::SocketAddr)> {
    server.addrs().iter().take(agents).copied().collect()
}

/// A seeded stale-read window on the served replica must flow through
/// sockets, clock sync, and trace merging into a *detected*
/// read-your-writes anomaly — the paper's core observable, measured
/// live.
#[test]
fn seeded_stale_window_is_detected_by_the_unmodified_checkers() {
    let server = WireServer::start(&ServeConfig {
        stale_window: Some(StaleWindow { replica: 0, lag_nanos: 3_000_000_000 }),
        ..ServeConfig::loopback(ServiceKind::Blogger, 11)
    })
    .expect("bind");
    let config = ProbeConfig::loopback(
        ServiceKind::Blogger,
        TestKind::Test2,
        probe_endpoints(&server, 2),
        11,
    );
    let result = run_probe(&config).expect("probe");
    server.request_stop();
    server.join();

    assert!(result.completed, "both agents should finish their read quota");
    assert!(
        result.analysis.has(AnomalyKind::ReadYourWrites),
        "the 3 s stale window must hide each agent's own write from its reads"
    );
    // The trace is a standard TestTrace: every agent logged its write
    // plus its full read quota.
    assert_eq!(result.writes_total, 2);
    assert!(result.reads_per_agent.iter().all(|&r| r >= config.cadence.reads_target));
}

/// The live tap sees every operation the merged trace contains, in an
/// order a per-agent merge can reconstruct: replaying the tapped events
/// through the streaming analyzer yields *exactly* the analysis the
/// batch pass computes — including the stale window's injected
/// anomalies — and the tap does not perturb the measurement itself.
#[test]
fn live_tap_replays_into_the_exact_batch_analysis() {
    let server = WireServer::start(&ServeConfig {
        stale_window: Some(StaleWindow { replica: 0, lag_nanos: 3_000_000_000 }),
        ..ServeConfig::loopback(ServiceKind::Blogger, 11)
    })
    .expect("bind");
    let config = ProbeConfig::loopback(
        ServiceKind::Blogger,
        TestKind::Test2,
        probe_endpoints(&server, 2),
        11,
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let result = run_probe_with_live(&config, Some(tx)).expect("probe");
    server.request_stop();
    server.join();

    // The channel is unbounded, so draining after the run sees the
    // complete feed; all senders are gone, so iteration terminates.
    let mut per_agent: Vec<Vec<conprobe::core::trace::OpRecord<conprobe::store::PostId>>> =
        vec![Vec::new(), Vec::new()];
    let mut dones = 0u32;
    for event in rx {
        match event {
            LiveEvent::Op(op) => per_agent[op.agent.0 as usize].push(op),
            LiveEvent::Done(_) => dones += 1,
        }
    }
    assert_eq!(dones, 2, "one Done per agent");
    for ops in &per_agent {
        assert!(
            ops.windows(2).all(|w| w[0].invoke <= w[1].invoke),
            "each agent's stream arrives invoke-ordered"
        );
    }

    // Concatenate agent-by-agent and stable-sort — precisely what
    // `TestTrace::new` does to the merged record logs.
    let mut ops: Vec<_> = per_agent.concat();
    ops.sort_by_key(|o| (o.invoke, o.response));
    assert_eq!(ops.len(), result.trace.len(), "the tap saw every merged operation");

    let mut analysis_config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test2);
    analysis_config.agent_regions = config.endpoints.iter().map(|(r, _)| *r).collect();
    let mut analyzer = conprobe::core::StreamingAnalyzer::new(
        &conprobe::harness::runner::checker_config_for(&analysis_config),
    );
    for op in &ops {
        analyzer.push_event(op);
    }
    let streamed = analyzer.finish();
    assert_eq!(
        streamed.observations, result.analysis.observations,
        "streamed replay of the tap equals the batch analysis"
    );
    assert!(streamed.has(AnomalyKind::ReadYourWrites), "the stale window still surfaces");
}

/// A clean single-replica service probed over loopback analyzes clean,
/// and the resulting `TestResult` journals and resumes exactly like a
/// simulated one.
#[test]
fn clean_blogger_probe_is_anomaly_free_and_journals_round_trip() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 7)).expect("bind");
    let config = ProbeConfig::loopback(
        ServiceKind::Blogger,
        TestKind::Test1,
        probe_endpoints(&server, 2),
        7,
    );
    let result = run_probe(&config).expect("probe");
    server.request_stop();
    server.join();

    assert!(result.completed, "test 1 chain should complete on loopback");
    assert!(
        result.analysis.is_clean(),
        "single fresh replica cannot show anomalies: {:?}",
        result.analysis.observations
    );
    // Clock sync over a real wire. The reported error folds in the real
    // epoch shift between server start and probe start (milliseconds,
    // correctly measured by the estimator), so compare against a loose
    // bound that still catches a dropped ±2 s seeded offset; the claimed
    // uncertainty is pure RTT/2 and must stay loopback-tiny.
    for (err, unc) in result.clock_error_nanos.iter().zip(&result.clock_uncertainty_nanos) {
        assert!(*err < 500_000_000, "clock error {err} ns is not loopback-plausible");
        assert!(*unc < 50_000_000, "claimed uncertainty {unc} ns is not loopback-plausible");
    }

    // Journal + resume: the probe-mode cell splices like any sim cell.
    let path = temp("journal");
    let _ = std::fs::remove_file(&path);
    let cell = format!("wire/{}", journal::cell_id(ServiceKind::Blogger, TestKind::Test1));
    {
        let j = Journal::create(&path).expect("create journal");
        j.append_completed(&cell, 0, config.seed, &result).expect("append");
    }
    let (_j, recovery) = Journal::resume(&path).expect("resume");
    let completed = recovery.completed_for(&cell);
    let (seed, payload) = completed.get(&0).expect("instance 0 recovered");
    assert_eq!(*seed, config.seed);
    let mut analysis_config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test1);
    analysis_config.agent_regions = result.agent_regions.clone();
    let restored = journal::result_from_json(&analysis_config, payload).expect("parse");
    assert_eq!(restored.trace.ops(), result.trace.ops(), "journaled trace is byte-faithful");
    assert_eq!(restored.analysis.observations.len(), result.analysis.observations.len());
    match recovery.records.first().map(|r| &r.entry) {
        Some(RecoveredEntry::Completed(_)) | None => {}
        other => panic!("unexpected journal entry {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Hammer the server from raw sockets while a drain is triggered
/// mid-flight: every byte stream a client observes must parse into whole
/// frames with nothing left over — the server never stops mid-frame.
#[test]
fn graceful_drain_never_splits_a_frame() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 3)).expect("bind");
    let addr = server.addrs()[0].1;

    let mut hammers = Vec::new();
    for _ in 0..4 {
        hammers.push(std::thread::spawn(move || -> (u64, usize) {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = Vec::new();
            let mut frames = 0u64;
            let read = Frame::ReadQ { req: 0, key: 0 };
            // Until the drain closes or resets the connection.
            while write_frame(&mut stream, &read).is_ok() {
                match read_frame(&mut stream, &mut buf) {
                    Ok(_) => frames += 1,
                    Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                        panic!("client never sees a corrupt stream: {e}")
                    }
                    Err(_) => break,
                }
            }
            (frames, buf.len())
        }));
    }

    std::thread::sleep(Duration::from_millis(150));
    // Drain via the wire itself: a client sends `stop`.
    let mut stopper = WireClient::connect(addr, Duration::from_secs(5)).expect("connect stopper");
    stopper.stop_server().expect("stop acked");
    let metrics = server.join();

    for h in hammers {
        let (frames, leftover) = h.join().expect("hammer thread");
        assert_eq!(leftover, 0, "a drained stream must end exactly on a frame boundary");
        assert!(frames > 0, "hammer made progress before the drain");
    }
    assert!(metrics.contains("wire.server.frames"), "final metrics dump present: {metrics}");
    assert!(metrics.contains("wire.server.stops"), "{metrics}");
}

/// The closed-loop load generator sustains traffic against a loopback
/// server and reports a coherent latency distribution.
#[test]
fn load_generator_reports_throughput_and_latency() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 9)).expect("bind");
    let metrics = MetricsRegistry::new();
    let report = run_load(
        &LoadConfig {
            connections: 4,
            duration: Duration::from_millis(500),
            seed_posts: 8,
            ..LoadConfig::loopback(server.addrs()[0].1)
        },
        &metrics,
    )
    .expect("load");
    server.request_stop();
    server.join();

    assert!(report.ops > 0, "load made progress");
    assert_eq!(report.errors, 0, "loopback run should be error-free");
    assert!(report.ops_per_sec > 0.0);
    assert!(report.p50_nanos <= report.p99_nanos);
    let json = metrics.to_json().to_pretty();
    assert!(json.contains("wire.load.latency_nanos"), "{json}");
}

/// A probe agent whose endpoint dies mid-cadence — connection dropped
/// *and* reconnects refused, so the client's backoff budget runs out —
/// is quarantined while the study still emits a salvaged trace from the
/// surviving agents (plus whatever the dead agent logged before the
/// failure).
#[test]
fn dead_agent_connection_is_quarantined_and_the_study_salvaged() {
    use conprobe::store::{AuthorId, PostId};
    use std::net::TcpListener;

    // A fake cpw1 endpoint: serves the handshake, the Cristian probes
    // and the first few measurement ops, then drops the connection and
    // stops listening entirely. Reconnect attempts get ECONNREFUSED.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake endpoint");
    let fake_addr = listener.local_addr().expect("fake addr");
    let dying = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept probe agent");
        drop(listener); // every reconnect from here on is refused
        let mut buf: Vec<u8> = Vec::new();
        let mut served = 0u32;
        // 1 handshake hello + 5 clock probes + the initial write + two
        // reads, then die with the next op in flight.
        while served < 9 {
            let Ok(frame) = read_frame(&mut stream, &mut buf) else { break };
            let reply = match frame {
                Frame::Hello { proto } => {
                    Frame::HelloAck { proto, server_clock_nanos: 0, service: "blogger".into() }
                }
                Frame::WriteQ { req, author, seq, .. } => {
                    Frame::WriteQAck { req, id: PostId::new(AuthorId(author), seq).as_u64() }
                }
                Frame::ReadQ { req, .. } => Frame::ReadQOk { req, ids: vec![] },
                _ => continue,
            };
            if write_frame(&mut stream, &reply).is_err() {
                break;
            }
            served += 1;
        }
        served
    });

    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 21)).expect("bind");
    let mut endpoints = probe_endpoints(&server, 2);
    endpoints[1].1 = fake_addr;
    let config = ProbeConfig::loopback(ServiceKind::Blogger, TestKind::Test2, endpoints, 21);
    let result = run_probe(&config).expect("a single dead agent must not abort the study");
    server.request_stop();
    server.join();
    let served = dying.join().expect("fake endpoint thread");
    assert!(served >= 7, "fake endpoint should survive past the initial write, served {served}");

    assert!(result.salvaged, "a quarantined agent marks the result salvaged");
    assert!(!result.completed, "the dead agent cannot have finished its quota");
    assert!(!result.agent_health[0].quarantined, "the healthy agent stays in");
    assert!(result.agent_health[1].quarantined, "the dead agent is quarantined");
    assert!(result.agent_health[1].log_collected, "records logged before the failure are salvaged");
    assert!(
        result.reads_per_agent[0] >= config.cadence.reads_target,
        "the healthy agent finishes its full read quota: {:?}",
        result.reads_per_agent
    );
    assert!(
        result.reads_per_agent[1] < config.cadence.reads_target,
        "the dead agent stops early: {:?}",
        result.reads_per_agent
    );
    assert_eq!(result.writes_total, 2, "both Test 2 initial writes are in the trace");
}

/// Keyed clients on a sharded server address isolated logical objects:
/// a write to one key is visible to readers of that key and invisible
/// to every other key, wherever the shard ring placed them.
#[test]
fn keyed_clients_are_isolated_per_key_across_shards() {
    use conprobe::harness::transport::ServiceEndpoint;
    use conprobe::services::{ClientOp, OpResult};
    use conprobe::store::{AuthorId, Post, PostId};
    use conprobe_sim::LocalTime;

    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 17)).expect("bind");
    assert!(server.shard_count() > 1, "loopback serve defaults to a sharded keyspace");
    let addr = server.addrs()[0].1;
    let mut client = WireClient::connect(addr, Duration::from_secs(5)).expect("connect");
    client.hello().expect("handshake");

    client.set_key(Some(7));
    let post = Post::new(PostId::new(AuthorId(1), 1), "keyed", LocalTime::from_nanos(1));
    let id = post.id;
    match client.call(ClientOp::Write(post)).expect("keyed write") {
        OpResult::WriteAck(acked) => assert_eq!(acked, id),
        other => panic!("expected write ack, got {other:?}"),
    }
    match client.call(ClientOp::Read).expect("keyed read") {
        OpResult::ReadOk(ids) => assert_eq!(ids, vec![id], "own-key read sees the write"),
        other => panic!("expected read ok, got {other:?}"),
    }
    // Sweep many other keys: none may leak the post, whether they land
    // on the same shard as key 7 or a different one.
    for other_key in (0..200u32).filter(|&k| k != 7) {
        client.set_key(Some(other_key));
        match client.call(ClientOp::Read).expect("other-key read") {
            OpResult::ReadOk(ids) => {
                assert!(ids.is_empty(), "key {other_key} must not see key 7's write: {ids:?}")
            }
            other => panic!("expected read ok, got {other:?}"),
        }
    }
    server.request_stop();
    server.join();
}

/// The key is an address, not a protocol: key 0 (what a probe without
/// `--key` addresses) and keys landing on other shards must analyze
/// identically — clean on a clean server, and a seeded stale window must
/// surface as a detected read-your-writes anomaly at every key.
#[test]
fn keyed_probe_analyzes_identically_to_the_unkeyed_path() {
    let clean = ServeConfig::loopback(ServiceKind::Blogger, 29);
    let stale = ServeConfig {
        stale_window: Some(StaleWindow { replica: 0, lag_nanos: 3_000_000_000 }),
        ..ServeConfig::loopback(ServiceKind::Blogger, 11)
    };
    let mut write_totals = Vec::new();
    for key in [0, 7, 0xDEAD_BEEF] {
        let server = WireServer::start(&clean).expect("bind");
        let mut config = ProbeConfig::loopback(
            ServiceKind::Blogger,
            TestKind::Test1,
            probe_endpoints(&server, 2),
            29,
        );
        assert_eq!(config.key, 0, "key 0 is the default address");
        config.key = key;
        let result = run_probe(&config).expect("probe");
        server.request_stop();
        server.join();
        assert!(result.completed, "key {key}: probe must complete");
        assert!(
            result.analysis.is_clean(),
            "key {key}: clean server must analyze clean: {:?}",
            result.analysis.observations
        );
        assert!(result.writes_total > 0, "key {key}");
        write_totals.push(result.writes_total);

        let server = WireServer::start(&stale).expect("bind");
        let mut config = ProbeConfig::loopback(
            ServiceKind::Blogger,
            TestKind::Test2,
            probe_endpoints(&server, 2),
            11,
        );
        config.key = key;
        let result = run_probe(&config).expect("probe");
        server.request_stop();
        server.join();
        assert!(result.completed, "key {key}");
        assert!(
            result.analysis.has(AnomalyKind::ReadYourWrites),
            "key {key}: the stale window must be detected"
        );
    }
    assert!(
        write_totals.windows(2).all(|w| w[0] == w[1]),
        "every key runs the identical cadence: {write_totals:?}"
    );
}

/// A throttle-storm brownout refuses every client alike: a blocking
/// client sees `Throttled` for key 0 and for a key on another shard, the
/// server counts the refused read as a read *and* as throttled, and
/// clearing the brownout restores the feed.
#[test]
fn throttle_storm_refuses_reads_at_every_key_and_clears() {
    use conprobe::harness::transport::ServiceEndpoint;
    use conprobe::services::{ClientOp, OpResult};
    use conprobe::sim::BrownoutMode;

    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 37)).expect("bind");
    let mut client =
        WireClient::connect(server.addrs()[0].1, Duration::from_secs(5)).expect("connect");
    for key in [0, 0xDEAD_BEEF] {
        client.set_key(Some(key));
        server.set_brownout(0, Some(BrownoutMode::ThrottleStorm)).expect("replica 0 exists");
        assert_eq!(
            client.call(ClientOp::Read).expect("a refusal is a response"),
            OpResult::Throttled
        );
        server.set_brownout(0, None).expect("replica 0 exists");
        assert_eq!(client.call(ClientOp::Read).expect("read"), OpResult::ReadOk(Vec::new().into()));
    }
    server.request_stop();
    let metrics = conprobe::json::parse(&server.join()).expect("metrics dump is JSON");
    let counter = |name| metrics.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64());
    assert_eq!(counter("wire.server.throttled"), Some(2), "one refusal per key");
    assert_eq!(counter("wire.server.reads"), Some(4), "a refused read still counts as a read");
}

/// A throttle storm that outlasts the synchronized start refuses agent
/// 0's opening write. The probe runs the sim agent's script, so the
/// refused write is backed off and retried — not counted as done — and
/// Test 1's trigger chain still runs to the last agent's second message.
#[test]
fn throttled_test1_write_is_retried_and_the_chain_completes() {
    use conprobe::sim::BrownoutMode;

    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 41)).expect("bind");
    let config = ProbeConfig::loopback(
        ServiceKind::Blogger,
        TestKind::Test1,
        probe_endpoints(&server, 3),
        41,
    );
    server.set_brownout(0, Some(BrownoutMode::ThrottleStorm)).expect("replica 0 exists");
    let result = std::thread::scope(|scope| {
        // Clock sync is not throttled, so the agents reach the start
        // (300 ms after sync) inside the storm; it clears ~300 ms later.
        scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(600));
            server.set_brownout(0, None).expect("replica 0 exists");
        });
        run_probe(&config).expect("probe")
    });
    server.request_stop();
    let metrics = conprobe::json::parse(&server.join()).expect("metrics dump is JSON");
    let throttled = metrics
        .get("counters")
        .and_then(|c| c.get("wire.server.throttled"))
        .and_then(|v| v.as_u64());
    assert!(throttled >= Some(1), "the storm must have refused something: {throttled:?}");

    assert!(result.completed, "every agent must see the last write once the storm clears");
    assert!(
        result.duration_secs < config.max_duration.as_secs_f64() / 2.0,
        "completion must come from the chain, not the deadline: {} s",
        result.duration_secs
    );
    assert_eq!(result.trace.write_count(), 6, "M1..M6 are all in the trace");
    assert_eq!(result.writes_total as usize, result.trace.write_count());
    assert!(result.analysis.is_clean(), "{:?}", result.analysis.observations);
}

/// The pipelined load generator: many in-flight requests per connection
/// over several sweeper threads and keys, with FIFO responses verified
/// per connection — a healthy loopback run reports zero transport,
/// ordering and decode errors and a coherent p50 ≤ p99 ≤ p999 ladder.
#[test]
fn pipelined_load_reports_clean_percentiles_and_error_counters() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 31)).expect("bind");
    let metrics = MetricsRegistry::new();
    let report = run_load(
        &LoadConfig {
            connections: 32,
            pipeline: 8,
            threads: 2,
            keys: 4,
            duration: Duration::from_millis(500),
            warmup: Duration::from_millis(100),
            seed_posts: 8,
            ..LoadConfig::loopback(server.addrs()[0].1)
        },
        &metrics,
    )
    .expect("load");
    server.request_stop();
    server.join();

    assert!(report.ops > 0, "pipelined load made progress");
    assert_eq!(report.errors, 0, "loopback run should be error-free");
    assert_eq!(report.ordering_errors, 0, "responses must come back FIFO per connection");
    assert_eq!(report.decode_errors, 0, "no corrupt frames on loopback");
    assert_eq!(report.conns_with_errors, 0);
    assert_eq!(report.max_conn_errors, 0);
    assert!(report.p50_nanos <= report.p99_nanos);
    assert!(report.p99_nanos <= report.p999_nanos);
    let json = metrics.to_json().to_pretty();
    assert!(json.contains("wire.load.ordering_errors"), "{json}");
    assert!(json.contains("wire.load.decode_errors"), "{json}");
}

/// Two event loops share the listeners: each adopts the clients it
/// accepts, and a pipelined load over many connections spread across
/// both comes back whole, in order, with no error of any kind.
#[test]
fn two_event_loops_carry_pipelined_load_without_faults() {
    let server = WireServer::start(&ServeConfig {
        event_loops: 2,
        ..ServeConfig::loopback(ServiceKind::Blogger, 37)
    })
    .expect("bind");
    let metrics = MetricsRegistry::new();
    let report = run_load(
        &LoadConfig {
            connections: 64,
            pipeline: 8,
            threads: 2,
            keys: 8,
            duration: Duration::from_millis(500),
            warmup: Duration::from_millis(100),
            seed_posts: 8,
            ..LoadConfig::loopback(server.addrs()[0].1)
        },
        &metrics,
    )
    .expect("load");
    server.request_stop();
    let dump = server.join();

    assert!(report.ops > 0, "pipelined load made progress");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!((report.ordering_errors, report.decode_errors), (0, 0), "{report:?}");
    assert_eq!((report.conns_with_errors, report.busy_sheds), (0, 0), "{report:?}");
    // The seeder plus the 64 load connections, every one adopted.
    assert!(dump.contains("\"wire.server.connections\": 65"), "{dump}");
    // The report is the registry's account of the run.
    let json = metrics.to_json().to_pretty();
    assert!(json.contains(&format!("\"wire.load.ops\": {}", report.ops)), "{json}");
}

/// The quorum control arm served over real sockets: `serve --service
/// quorum` hosts the sim's own `QuorumReplica` nodes on wall-clock time,
/// so a live probe must analyze clean on every checker: the wire-level
/// counterpart of the simulated control arm in
/// `tests/quorum_replica.rs`.
#[test]
fn live_quorum_probe_is_anomaly_free_over_the_wire() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Quorum, 13)).expect("bind");
    let config = ProbeConfig::loopback(
        ServiceKind::Quorum,
        TestKind::Test2,
        probe_endpoints(&server, 2),
        13,
    );
    let result = run_probe(&config).expect("probe");
    server.request_stop();
    server.join();

    assert!(result.completed, "both agents finish their read quota");
    assert!(!result.salvaged);
    assert!(
        result.analysis.is_clean(),
        "majority writes + majority reads must hide nothing from the checkers"
    );
    assert_eq!(result.writes_total, 2);
    assert!(result.reads_per_agent.iter().all(|&r| r >= config.cadence.reads_target));
}

/// C over A on the wire: with two of three quorum replicas killed, the
/// survivor's door refuses writes and reads with `throttled` (the frame
/// the probe already retries) instead of acking a write one node holds;
/// a replica restarted into that minority stays read-fenced, yet acks
/// pushes, so writes commit again while every door still refuses reads.
#[test]
fn lost_quorum_is_refused_over_the_wire_and_a_fenced_door_serves_no_read() {
    use conprobe::harness::transport::ServiceEndpoint;
    use conprobe::services::{ClientOp, OpResult};
    use conprobe::sim::net::Region;
    use conprobe::sim::LocalTime;
    use conprobe::store::{AuthorId, Post, PostId};

    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Quorum, 61)).expect("bind");
    let connect = |region| {
        let addr = server.addr_for(region).expect("a listener per agent region");
        WireClient::connect(addr, Duration::from_secs(5)).expect("connect")
    };
    let write = |seq| {
        let id = PostId::new(AuthorId(0), seq);
        (id, ClientOp::Write(Post::new(id, format!("post {id}"), LocalTime::from_nanos(0))))
    };
    let mut oregon = connect(Region::Oregon);
    let (first, op) = write(1);
    assert_eq!(oregon.call(op).expect("write"), OpResult::WriteAck(first));

    server.kill_replica(1).expect("replica 1 exists");
    server.kill_replica(2).expect("replica 2 exists");
    let (second, op) = write(2);
    assert_eq!(oregon.call(op.clone()).expect("a refusal is a response"), OpResult::Throttled);
    assert_eq!(oregon.call(ClientOp::Read).expect("a refusal is a response"), OpResult::Throttled);

    let report = server.restart_replica(1).expect("replica 1 exists");
    assert_eq!((report.peers, report.cold), (0, false), "one peer is no catch-up quorum");
    let mut tokyo = connect(Region::Tokyo);
    assert_eq!(tokyo.call(ClientOp::Read).expect("fenced door"), OpResult::Throttled);
    assert_eq!(oregon.call(ClientOp::Read).expect("nobody to vouch"), OpResult::Throttled);
    assert_eq!(oregon.call(op).expect("the retried write"), OpResult::WriteAck(second));

    server.request_stop();
    let metrics = conprobe::json::parse(&server.join()).expect("metrics dump is JSON");
    let counter = |name| metrics.get("counters").and_then(|c| c.get(name)).and_then(|v| v.as_u64());
    assert_eq!(counter("wire.server.throttled"), Some(4));
}
