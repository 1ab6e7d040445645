use super::args::{grammar, parse_endpoint, parse_service, region_token, synopses};
use super::chaos::ChaosArgs;
use super::live::{millis_3sf, ChaosdArgs, DispatchArgs, HostArgs, ReadyFile, WorkerArgs};
use super::study::{JournalArgs, TestSpec, TraceArgs};
use super::*;
use conprobe_core::AnomalyKind;
use conprobe_harness::proto::TestKind;
use conprobe_obs::Severity;
use conprobe_services::ServiceKind;
use conprobe_sim::net::Region;
use conprobe_sim::SimTime;
use conprobe_wire::ServeConfig;
use std::time::Duration;

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn parse_err(s: &str) -> String {
    parse(&args(s)).expect_err(s).to_string()
}

fn spec(service: ServiceKind, kind: TestKind, seed: u64) -> TestSpec {
    TestSpec { service, kind, seed }
}

const NO_JOURNAL: JournalArgs = JournalArgs { journal_out: None, resume: None };

#[test]
fn parses_run_with_flags() {
    let cmd = parse(&args("run --service gplus --test 2 --seed 7 --guard --timeline")).unwrap();
    match cmd {
        Command::Run(run) => {
            assert_eq!(run.spec, spec(ServiceKind::GooglePlus, TestKind::Test2, 7));
            assert!(run.guard && run.show_timeline && !run.whitebox);
            assert!(run.json_out.is_none());
            assert!(run.metrics_out.is_none());
        }
        other => panic!("wrong parse: {other:?}"),
    }
    // Unset, a run is Test 1 under seed 42.
    match parse(&args("run --service blogger")).unwrap() {
        Command::Run(run) => assert_eq!(run.spec, spec(ServiceKind::Blogger, TestKind::Test1, 42)),
        other => panic!("wrong parse: {other:?}"),
    }
}

#[test]
fn parses_trace_with_filters() {
    let cmd = parse(&args(
        "trace --service blogger --test 1 --seed 5 --level warn --target sim --cap 64",
    ))
    .unwrap();
    assert_eq!(
        cmd,
        Command::Trace(TraceArgs {
            spec: spec(ServiceKind::Blogger, TestKind::Test1, 5),
            level: Severity::Warn,
            target: Some("sim".into()),
            cap: 64,
        })
    );
    assert!(parse(&args("trace")).is_err(), "trace requires --service");
    assert!(parse(&args("trace --service blogger --level loud")).is_err());
}

#[test]
fn trace_replays_a_test_and_counts_events() {
    let out = execute(
        parse(&args("trace --service blogger --test 1 --seed 1 --level debug --cap 100000"))
            .unwrap(),
    )
    .unwrap();
    assert!(out.contains("completed"), "{out}");
    assert!(out.contains("event(s) at DEBUG or above"), "{out}");
    // A full run delivers thousands of messages; zero events would
    // mean the log never reached the world.
    assert!(!out.contains(" 0 event(s)"), "{out}");
}

#[test]
fn run_with_metrics_dumps_the_registry() {
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run-metrics.json").to_string_lossy().to_string();
    let out = execute(
        parse(&args(&format!("run --service gplus --test 2 --seed 2 --metrics {path}"))).unwrap(),
    )
    .unwrap();
    assert!(out.contains("metrics written to"), "{out}");
    let doc = conprobe_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let counters = doc.get("counters").expect("counters block");
    assert!(counters.get("sim.delivered").is_some(), "sim layer counted");
}

#[test]
fn repro_emits_metrics_covering_all_layers() {
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro-metrics.json").to_string_lossy().to_string();
    let line = format!("repro --tests 1 --seed 9 --metrics {path} fig3");
    let out = execute(parse(&args(&line)).unwrap()).unwrap();
    assert!(out.contains("== Figure 3: % of tests with observations of each anomaly =="), "{out}");
    assert!(out.contains("Blogger"), "{out}");
    assert!(!out.contains("Table I"), "only the requested artifact is rendered: {out}");
    assert!(out.ends_with(&format!("metrics written to {path}\n")), "{out}");
    let json = std::fs::read_to_string(&path).unwrap();
    let doc = conprobe_json::parse(&json).unwrap();
    // The acceptance bar: one registry dump spanning all four layers.
    let counters = doc.get("counters").expect("counters block");
    assert!(counters.get("sim.delivered").is_some(), "sim layer: {json}");
    assert!(counters.get("harness.tests.completed").is_some(), "harness layer: {json}");
    assert!(counters.get("campaign.tests.completed").is_some(), "campaign layer: {json}");
    let gauges = doc.get("gauges").expect("gauges block");
    assert!(gauges.get("campaign.tests_per_sec").is_some(), "campaign gauges: {json}");
    let has_replica = matches!(counters, conprobe_json::JsonValue::Object(kv)
            if kv.iter().any(|(k, _)| k.starts_with("services.replica.")));
    assert!(has_replica, "services layer: {json}");
    let has_hist = matches!(doc.get("histograms"), Some(conprobe_json::JsonValue::Object(kv))
            if kv.iter().any(|(k, _)| k.contains("propagation_lag_nanos")));
    assert!(has_hist, "propagation-lag histogram: {json}");
}

#[test]
fn parses_service_aliases() {
    for (alias, kind) in [
        ("blogger", ServiceKind::Blogger),
        ("GPLUS", ServiceKind::GooglePlus),
        ("feed", ServiceKind::FacebookFeed),
        ("fbgroup", ServiceKind::FacebookGroup),
    ] {
        assert_eq!(parse_service(alias).unwrap(), kind);
    }
    assert!(parse_service("myspace").is_err());
}

#[test]
fn rejects_missing_and_unknown_args() {
    assert!(parse(&args("run")).is_err(), "run requires --service");
    assert_eq!(parse_err("run --service blogger --frobnicate"), "unknown flag '--frobnicate'");
    assert_eq!(parse_err("run --service blogger --seed"), "--seed needs a value");
    assert!(parse_err("run --service blogger --seed x").starts_with("--seed: "));
    assert!(parse(&args("bogus")).is_err());
    assert!(parse(&args("analyze")).is_err(), "analyze requires a path");
    assert!(parse(&args("journal")).is_err(), "journal requires `inspect`");
    assert!(parse(&args("journal inspect")).is_err(), "journal inspect requires a path");
    for help in ["help", "--help", "-h", ""] {
        assert!(matches!(parse(&args(help)).unwrap(), Command::Help));
    }
    let both = parse_err("campaign --service blogger --journal a.jsonl --resume a.jsonl");
    assert!(both.contains("pass exactly one"), "{both}");
}

#[test]
fn flags_a_subcommand_does_not_read_are_errors() {
    for (line, flag, cmd) in [
        ("campaign --service blogger --fault-level 3", "--fault-level", "campaign"),
        ("campaign --service blogger --outage-trace t.json", "--outage-trace", "campaign"),
        ("load --addr 127.0.0.1:1 --guard", "--guard", "load"),
        ("services --service blogger", "--service", "services"),
    ] {
        let e = parse_err(line);
        assert!(e.contains(&format!("'{flag}'")) && e.contains(&format!("'{cmd}'")), "{line}: {e}");
    }
}

/// Every `(subcommand, flag, takes value)` triple the `USAGE` synopses
/// declare, one per line in synopsis order. The hash is of the same
/// rendering of the hand-written per-subcommand flag tables the
/// synopses replaced, plus `repro`'s `--csv` and `--report`, minus
/// `serve`'s retired `--drop`: 15 subcommands, 52 distinct flags.
#[test]
fn the_usage_grammar_is_pinned() {
    let mut rendering = String::new();
    let mut distinct = Vec::new();
    for (cmd, block) in synopses() {
        for (flag, takes_value) in grammar(block) {
            let arity = if takes_value { "value" } else { "switch" };
            let _ = writeln!(rendering, "{cmd} {flag} {arity}");
            distinct.push(flag);
        }
    }
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(synopses().count(), 15, "subcommands");
    assert_eq!(distinct.len(), 52, "distinct flags");
    let hash = conprobe_json::frame::fnv64(rendering.as_bytes());
    assert_eq!(hash, 0x441e_66ab_1a58_6b3c, "{rendering}");
}

/// Every parse-time refusal word for word, including the messages
/// `flags_a_subcommand_does_not_read_are_errors` and
/// `dependent_flags_fail_at_parse_time` match only in part.
#[test]
fn parse_errors_keep_their_exact_text() {
    for (line, error) in [
        (
            "campaign --service blogger --fault-level 3",
            "flag '--fault-level' does not apply to 'campaign'",
        ),
        ("load --addr 127.0.0.1:1 --guard", "flag '--guard' does not apply to 'load'"),
        ("services --service blogger", "flag '--service' does not apply to 'services'"),
        (
            "serve --service blogger --stale-lag-ms 500",
            "--stale-lag-ms sets the lag of the --stale-replica window; pass both",
        ),
        (
            "chaos --service blogger --wire --metrics m.json",
            "chaos --wire has no metrics registry to dump; drop --metrics",
        ),
        ("run --service blogger --frobnicate", "unknown flag '--frobnicate'"),
        ("run --service blogger --seed", "--seed needs a value"),
        ("probe --service blogger --endpoint", "--endpoint needs a value"),
        ("bogus", "unknown command 'bogus'"),
        ("serve", "serve requires --service"),
        (
            "campaign --service blogger --journal a --resume b",
            "--journal starts a fresh journal and --resume continues one; pass exactly one",
        ),
        (
            "probe --service blogger",
            "probe requires --endpoint region=host:port (repeatable) or --server-file",
        ),
        (
            "probe --service blogger --server-file s --read-ms 9223372036854775808",
            "--read-ms: 9223372036854775808 ms is too long to double for the slow phase",
        ),
        (
            "serve --service blogger --stale-replica 0 --stale-lag-ms 99999999999999999",
            "--stale-lag-ms: 99999999999999999 ms does not fit in nanoseconds",
        ),
        (
            "serve --service blogger --latency-scale -1",
            "--latency-scale: -1 is not a finite scale >= 0",
        ),
        (
            "serve --service blogger --latency-scale NaN",
            "--latency-scale: NaN is not a finite scale >= 0",
        ),
        ("load", "load requires --addr host:port or --server-file"),
        (
            "dispatch --service blogger",
            "dispatch requires --journal FILE or --resume FILE (the journal is the medium \
             workers' results merge through)",
        ),
        ("worker --service blogger", "worker requires --addr host:port or --server-file"),
        ("chaosd", "chaosd requires --server-file (a serve ready-file)"),
        ("chaosd --server-file x --port 70000", "--port: number too large to fit in target type"),
        ("campaign --service blogger --tests 0", "--tests must be at least 1"),
        ("repro --tests 0", "--tests must be at least 1"),
        ("dispatch --service blogger --tests 0 --resume j", "--tests must be at least 1"),
        ("worker --service blogger --tests 0 --addr 127.0.0.1:1", "--tests must be at least 1"),
        ("probe --service blogger --tests 0 --server-file s", "--tests must be at least 1"),
        (
            "repro fig11",
            "unknown artifact 'fig11' (use one of: table1 table2 fig3 fig4 fig5 fig6 fig7 fig8 \
             fig9 fig10 totals ablate-clock ablate-antientropy session-guard whitebox \
             visibility rotation all)",
        ),
    ] {
        assert_eq!(parse_err(line), error, "{line}");
    }
}

#[test]
fn services_listing_names_all_models() {
    let out = execute(Command::Services).unwrap();
    for name in ["Blogger", "Google+", "FB Feed", "FB Group"] {
        assert!(out.contains(name), "{out}");
    }
}

#[test]
fn run_and_analyze_round_trip() {
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json").to_string_lossy().to_string();
    let out = execute(
        parse(&args(&format!("run --service fbgroup --test 1 --seed 3 --json {path}"))).unwrap(),
    )
    .unwrap();
    assert!(out.contains("completed"), "{out}");
    assert!(out.contains("monotonic writes"), "{out}");
    assert!(out.contains("strongest compatible level"), "{out}");

    let out = execute(parse(&args(&format!("analyze {path} --test1"))).unwrap()).unwrap();
    assert!(out.contains("analyzed"), "{out}");
    assert!(out.contains("monotonic writes"), "{out}");
    assert!(out.contains("anomalous read"), "timeline shown: {out}");
}

/// `analyze --test1` chains every agent of the trace: with four agents,
/// a read showing agent 3's first post without agent 2's second is a WFR
/// observation.
#[test]
fn analyze_test1_takes_its_trigger_pairs_from_the_trace() {
    use conprobe_core::{AgentId, TestTraceBuilder, Timestamp};
    use conprobe_harness::proto::test1_post;
    use conprobe_json::ToJson;

    let t = Timestamp::from_millis;
    let mut b = TestTraceBuilder::new();
    let mut seen = Vec::new();
    for agent in 0..4u32 {
        let at = i64::from(agent) * 100;
        if agent > 0 {
            b.read(AgentId(agent), t(at), t(at + 10), seen.clone());
        }
        for seq in 1..=2 {
            let at = at + 20 * i64::from(seq);
            b.write(AgentId(agent), t(at), t(at + 10), test1_post(agent, seq));
            seen.push(test1_post(agent, seq));
        }
    }
    seen.retain(|&p| p != test1_post(2, 2));
    b.read(AgentId(0), t(500), t(510), seen);

    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("four-agents.json").to_string_lossy().to_string();
    std::fs::write(&path, b.build().to_pretty()).unwrap();
    let out = execute(parse(&args(&format!("analyze {path} --test1"))).unwrap()).unwrap();
    assert!(out.contains("operations: 8 writes, 4 reads"), "{out}");
    assert!(out.contains("writes follows reads: 1 observation(s)"), "{out}");

    // An agent id no Test 1 trace can hold does not size the chain.
    let mut b = TestTraceBuilder::new();
    b.read(AgentId(u32::MAX), t(0), t(10), vec![test1_post(0, 1)]);
    std::fs::write(&path, b.build().to_pretty()).unwrap();
    let err = execute(parse(&args(&format!("analyze {path} --test1"))).unwrap()).unwrap_err();
    assert!(err.0.contains("agent ids run past the trace's 1 operation(s)"), "{}", err.0);
}

/// A trace whose instants span more than an `i64` of nanoseconds is
/// refused by the decoder, before any window or visibility arithmetic.
#[test]
fn analyze_refuses_a_trace_whose_timestamps_span_more_than_an_i64() {
    use conprobe_core::{AgentId, TestTraceBuilder, Timestamp};
    use conprobe_harness::proto::test1_post;
    use conprobe_json::ToJson;

    let t = Timestamp::from_nanos;
    let (early, late) = (i64::MIN + 10, i64::MAX - 10);
    let mut b = TestTraceBuilder::new();
    b.write(AgentId(0), t(early), t(early + 5), test1_post(0, 1));
    b.read(AgentId(1), t(early), t(early + 5), vec![test1_post(0, 1)]);
    b.read(AgentId(0), t(late - 5), t(late), vec![test1_post(0, 1)]);
    b.read(AgentId(1), t(late - 5), t(late), vec![]);
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("far-apart.json").to_string_lossy().to_string();
    std::fs::write(&path, b.build().to_pretty()).unwrap();
    for flags in ["", " --test1"] {
        let err = execute(parse(&args(&format!("analyze {path}{flags}"))).unwrap()).unwrap_err();
        assert!(err.0.starts_with(&format!("parse {path}: ")), "{}", err.0);
        assert!(err.0.contains("outside ±2^62 ns"), "{}", err.0);
    }
}

#[test]
fn run_with_whitebox_reports_ground_truth() {
    let out = execute(parse(&args("run --service fbfeed --test 2 --seed 2 --whitebox")).unwrap())
        .unwrap();
    assert!(out.contains("white-box:"), "{out}");
    assert!(out.contains("true order divergence: false"), "{out}");
}

#[test]
fn chaos_sweep_reports_interference_per_level() {
    let cmd = parse(&args("chaos --service blogger --test 1 --seed 3 --levels 1")).unwrap();
    assert_eq!(
        cmd,
        Command::Chaos(ChaosArgs {
            spec: spec(ServiceKind::Blogger, TestKind::Test1, 3),
            levels: 1,
            metrics_out: None,
            journal: NO_JOURNAL,
            wire: false,
            outage_trace: None,
        })
    );
    let out = execute(cmd).unwrap();
    assert!(out.contains("chaos sweep"), "{out}");
    assert!(out.contains("level 0"), "{out}");
    assert!(out.contains("level 1"), "{out}");
    // Level 0 runs fault-free…
    assert!(out.contains("net 0/0/0"), "{out}");
    // …and the plan builder escalates monotonically.
    assert!(chaos_plan(0, 1).is_empty());
    assert!(chaos_plan(1, 1).events().len() < chaos_plan(4, 1).events().len());
}

#[test]
fn parses_wire_commands() {
    assert!(parse(&args("serve")).is_err(), "serve requires --service");
    assert!(parse(&args("probe --service blogger")).is_err(), "probe requires endpoints");
    assert!(parse(&args("load")).is_err(), "load requires a target");
    assert!(parse(&args("probe --service blogger --endpoint oregon=nonsense")).is_ok());
    let cmd = parse(&args(
        "serve --service gplus --seed 4 --port 9200 --latency-scale 1.0 \
             --stale-replica 1 --stale-lag-ms 500 --max-secs 30",
    ))
    .unwrap();
    match cmd {
        Command::Serve(serve) => {
            assert_eq!(serve.service, ServiceKind::GooglePlus);
            assert_eq!(serve.host.seed, 4);
            assert_eq!(serve.host.base_port, 9200);
            assert_eq!(serve.latency_scale, Some(1.0));
            assert_eq!(serve.stale, Some((1, 500_000_000)));
            assert_eq!(serve.host.max_secs, Some(30));
            assert_eq!((serve.shards, serve.event_loops), (None, None), "library defaults");
        }
        other => panic!("wrong parse: {other:?}"),
    }
    match parse(&args("serve --service gplus --stale-replica 2")).unwrap() {
        Command::Serve(serve) => assert_eq!(serve.stale, Some((2, 3_000_000_000)), "3 s lag"),
        other => panic!("wrong parse: {other:?}"),
    }
    let cmd = parse(&args(
        "probe --service blogger --test 2 --endpoint oregon=127.0.0.1:9200 \
             --endpoint JP=127.0.0.1:9201 --reads 10",
    ))
    .unwrap();
    match cmd {
        Command::Probe(probe) => {
            assert_eq!(probe.endpoints.len(), 2);
            assert_eq!(probe.tests, 1, "probe defaults to one instance");
            assert_eq!(probe.reads, Some(10));
            assert_eq!(probe.read_ms, None, "library cadence");
        }
        other => panic!("wrong parse: {other:?}"),
    }
    let cmd = parse(&args(
        "load --addr 127.0.0.1:9 --connections 256 --pipeline 16 --threads 2 --keys 16 \
             --secs 2 --warmup-secs 1 --target-ops 5000",
    ))
    .unwrap();
    match cmd {
        Command::Load(load) => {
            assert_eq!(load.addr, Some("127.0.0.1:9".parse().unwrap()));
            assert_eq!((load.connections, load.pipeline), (Some(256), Some(16)));
            assert_eq!((load.threads, load.keys, load.secs), (Some(2), Some(16), Some(2)));
            assert_eq!((load.warmup_secs, load.target_ops), (1, Some(5000)));
        }
        other => panic!("wrong parse: {other:?}"),
    }
    match parse(&args("load --server-file s.txt")).unwrap() {
        Command::Load(load) => assert_eq!(load.warmup_secs, 0, "the CLI measures from the start"),
        other => panic!("wrong parse: {other:?}"),
    }
    assert_eq!(
        parse_endpoint("tokyo=127.0.0.1:9201").unwrap(),
        (Region::Tokyo, "127.0.0.1:9201".parse().unwrap())
    );
    assert!(parse_endpoint("mars=127.0.0.1:9201").is_err());
    assert!(parse_endpoint("tokyo").is_err());
}

#[test]
fn arithmetic_on_flag_values_is_checked() {
    let huge = "99999999999999999";
    let e = parse_err(&format!("serve --service blogger --stale-replica 0 --stale-lag-ms {huge}"));
    assert!(e.starts_with("--stale-lag-ms: "), "{e}");
    let e = parse_err(&format!(
        "probe --service blogger --server-file s.txt --read-ms {}",
        u64::MAX / 2 + 1
    ));
    assert!(e.starts_with("--read-ms: "), "{e}");
    assert!(parse(&args("probe --service blogger --server-file s.txt --read-ms 10")).is_ok());
}

#[test]
fn dependent_flags_fail_at_parse_time() {
    let e = parse_err("serve --service blogger --stale-lag-ms 500");
    assert!(e.contains("--stale-lag-ms") && e.contains("--stale-replica"), "{e}");
    let e = parse_err("chaos --service blogger --wire --metrics m.json");
    assert!(e.contains("chaos --wire has no metrics registry"), "{e}");
    assert!(parse(&args("chaos --service blogger --metrics m.json")).is_ok());
}

#[test]
fn serve_refuses_a_stale_window_on_the_quorum_arm() {
    // The window pins a stored replica's snapshot; the quorum arm runs its
    // own replicas, and ignoring the flag would hand back a control arm
    // the caller believes is seeded with an anomaly.
    let e = execute(parse(&args("serve --service quorum --stale-replica 0 --max-secs 1")).unwrap())
        .unwrap_err();
    assert!(e.0.contains("--stale-replica") && e.0.contains("Quorum"), "{}", e.0);
}

#[test]
fn ready_file_round_trips_every_line_kind() {
    let serve = "oregon=127.0.0.1:9200\ntokyo=127.0.0.1:9201\nshards=16\nservice=fbgroup\n";
    let ready = ReadyFile::parse(serve).unwrap();
    assert_eq!(ready.endpoints.len(), 2);
    assert_eq!(ready.endpoints[1], (Region::Tokyo, "127.0.0.1:9201".parse().unwrap()));
    assert_eq!((ready.shards, ready.dispatch), (Some(16), None));
    assert_eq!(ready.service, Some(ServiceKind::FacebookGroup));
    assert_eq!(ready.render(), serve);
    // A ready-file from before the shard and service lines existed.
    let old = ReadyFile::parse("oregon=127.0.0.1:9200\n\n").unwrap();
    assert_eq!((old.endpoints.len(), old.shards, old.service), (1, None, None));
    assert!(ReadyFile::parse("service=mystery\n").is_err());
    let dispatch = ReadyFile::parse("dispatch=127.0.0.1:7000\n").unwrap();
    assert_eq!(dispatch.dispatch, Some("127.0.0.1:7000".parse().unwrap()));
    assert_eq!(dispatch.render(), "dispatch=127.0.0.1:7000\n");
    assert!(ReadyFile::parse("shards=many\n").is_err());
    assert!(ReadyFile::parse("mars=127.0.0.1:1\n").is_err());
    assert!(ReadyFile::read_serve("/nonexistent/ready.txt").is_err());
}

#[test]
fn serve_with_max_secs_zero_drains_immediately() {
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ready = dir.join(format!("ready-{}.txt", std::process::id()));
    let metrics = dir.join(format!("serve-metrics-{}.json", std::process::id()));
    let out = execute(
        parse(&args(&format!(
            "serve --service blogger --seed 1 --max-secs 0 --ready-file {} --metrics {}",
            ready.display(),
            metrics.display()
        )))
        .unwrap(),
    )
    .unwrap();
    assert!(out.contains("drained"), "{out}");
    let listing = std::fs::read_to_string(&ready).unwrap();
    // One listener per agent region, parseable as probe endpoints,
    // plus the shard-count and service metadata lines.
    assert_eq!(listing.lines().count(), Region::AGENTS.len() + 2, "{listing}");
    assert!(listing.lines().any(|l| l == "shards=16"), "{listing}");
    assert!(listing.lines().any(|l| l == "service=blogger"), "{listing}");
    let parsed = ReadyFile::read_serve(&ready.display().to_string()).unwrap();
    assert_eq!(parsed.endpoints.len(), Region::AGENTS.len(), "{listing}");
    assert_eq!((parsed.shards, parsed.service), (Some(16), Some(ServiceKind::Blogger)));
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("wire.server.connections"), "{json}");
    let _ = std::fs::remove_file(&ready);
    let _ = std::fs::remove_file(&metrics);
}

/// The stop file belongs to the CLI host: `HostArgs::wait_for_drain` sees
/// it appear and drains `chaosd` and `serve` long before `--max-secs`.
#[test]
fn a_stop_file_drains_serve_and_chaosd() {
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(format!("{name}-{}.txt", std::process::id()));
    let [serve_ready, serve_stop, proxy_ready, proxy_stop] =
        ["serve-ready", "serve-stop", "proxy-ready", "proxy-stop"].map(file);
    for f in [&serve_ready, &serve_stop, &proxy_ready, &proxy_stop] {
        let _ = std::fs::remove_file(f);
    }
    let wait_for = |ready: &std::path::Path| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !ready.exists() {
            assert!(std::time::Instant::now() < deadline, "{} never appeared", ready.display());
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    let serve = format!(
        "serve --service blogger --seed 5 --max-secs 60 --ready-file {} --stop-file {}",
        serve_ready.display(),
        serve_stop.display()
    );
    let chaosd = format!(
        "chaosd --server-file {} --seed 5 --max-secs 60 --ready-file {} --stop-file {}",
        serve_ready.display(),
        proxy_ready.display(),
        proxy_stop.display()
    );
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| execute(parse(&args(&serve)).unwrap()));
        wait_for(&serve_ready);
        let proxying = scope.spawn(|| execute(parse(&args(&chaosd)).unwrap()));
        wait_for(&proxy_ready);
        std::fs::write(&proxy_stop, "drain\n").unwrap();
        let out = proxying.join().unwrap().unwrap();
        assert!(out.contains("chaosd drained"), "{out}");
        std::fs::write(&serve_stop, "drain\n").unwrap();
        let out = serving.join().unwrap().unwrap();
        assert!(out.contains("Blogger drained"), "{out}");
    });
    assert!(started.elapsed() < Duration::from_secs(30), "the stop files drained both hosts");
    for f in [&serve_ready, &serve_stop, &proxy_ready, &proxy_stop] {
        let _ = std::fs::remove_file(f);
    }
}

/// Value mode over the ready file and `serve`'s flags: every edge value
/// as a `shards=` line, a listener port, `--shards` and `--port` is
/// answered or refused, never a panic. A shard count past `MAX_SHARDS`
/// is refused where it enters, before a ring or a cluster is sized by it.
#[test]
fn shard_counts_and_ports_at_every_edge_are_answered_or_refused() {
    use conprobe_json::testkit::edges;
    use conprobe_services::shard::MAX_SHARDS;
    let unsigned = [16, 32, 64].into_iter().flat_map(|bits| edges(bits, false));
    let mut values: Vec<String> = unsigned.map(|v| v.to_string()).collect();
    values.extend(edges(64, true).into_iter().map(|v| (v as i64).to_string()));
    values.extend([MAX_SHARDS, MAX_SHARDS + 1].map(|v| v.to_string()));
    for v in &values {
        let fits = |max: usize| v.parse::<usize>().ok().filter(|n| *n <= max);
        let shards = ReadyFile::parse(&format!("oregon=127.0.0.1:1\nshards={v}\n"));
        let answer = shards.as_ref().ok().and_then(|ready| ready.shards);
        assert_eq!(answer, fits(MAX_SHARDS), "shards={v}: {shards:?}");
        let port = ReadyFile::parse(&format!("oregon=127.0.0.1:{v}\n"));
        let answer = port.as_ref().ok().map(|ready| usize::from(ready.endpoints[0].1.port()));
        assert_eq!(answer, fits(usize::from(u16::MAX)), "port {v}: {port:?}");

        let serve = |flags: &str| match parse(&args(&format!("serve --service blogger {flags}"))) {
            Ok(Command::Serve(serve)) => Some(serve),
            Ok(other) => panic!("wrong parse: {other:?}"),
            Err(_) => None,
        };
        let answer = serve(&format!("--shards {v}")).and_then(|serve| serve.shards);
        assert_eq!(answer, fits(MAX_SHARDS), "--shards {v}");
        let answer = serve(&format!("--port {v}")).map(|serve| usize::from(serve.host.base_port));
        assert_eq!(answer, fits(usize::from(u16::MAX)), "--port {v}");
    }
    let err = parse_err("serve --service blogger --shards 1025");
    assert_eq!(err, "--shards: 1025 shards is more than 1024");
    let err = ReadyFile::parse("shards=4000000000\n").unwrap_err();
    assert_eq!(err.0, "bad shards line: 4000000000 shards is more than 1024");
}

/// A serve ready-file for `server`'s listeners, with or without the
/// shard-count and service lines (`service` names what it serves).
fn ready_listing(server: &conprobe_wire::WireServer, service: Option<ServiceKind>) -> String {
    let mut listing = String::new();
    for (region, addr) in server.addrs() {
        let _ = writeln!(listing, "{}={addr}", region_token(*region));
    }
    if let Some(service) = service {
        let _ = writeln!(listing, "shards={}", server.shard_count());
        let _ = writeln!(listing, "service={}", conprobe_harness::journal::service_token(service));
    }
    listing
}

#[test]
fn probe_cli_runs_against_a_live_server_and_journals() {
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let tag = std::process::id();
    let ready = dir.join(format!("probe-ready-{tag}.txt"));
    let journal_path = dir.join(format!("probe-journal-{tag}.jsonl"));
    let _ = std::fs::remove_file(&journal_path);

    let server =
        conprobe_wire::WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 21)).unwrap();
    crate::fsio::write_atomic(&ready, ready_listing(&server, None)).unwrap();

    // `--live` on the first run: the streaming readout must not
    // perturb stdout (the resumed run below has no tap and must
    // still compare byte-identical).
    let cmdline = format!(
        "probe --service blogger --test 2 --seed 21 --server-file {} --read-ms 10 \
             --reads 8 --live --journal {}",
        ready.display(),
        journal_path.display()
    );
    let out = execute(parse(&args(&cmdline)).unwrap()).unwrap();
    assert!(out.contains("instance 0: completed"), "{out}");
    assert!(out.contains("anomaly table:"), "{out}");
    // Clean loopback run: all six table rows report zero.
    let table: Vec<&str> = out.lines().skip_while(|l| *l != "anomaly table:").skip(1).collect();
    assert_eq!(table.len(), AnomalyKind::ALL.len(), "{out}");
    for row in table {
        assert!(row.ends_with("0/1 instance(s), 0 observation(s)"), "clean run: {out}");
    }

    // Resume splices instead of re-running (no live traffic needed,
    // but the server is still up so a re-run would also work — the
    // splice message proves it did not).
    let resumed = execute(
        parse(&args(&format!(
            "probe --service blogger --test 2 --seed 21 --server-file {} --read-ms 10 \
                 --reads 8 --resume {}",
            ready.display(),
            journal_path.display()
        )))
        .unwrap(),
    )
    .unwrap();
    assert_eq!(out, resumed, "resumed probe output is byte-identical");
    // No `--key`: the cell keeps the plain label, so journals written
    // before keys were always on the wire still resume.
    let journal = std::fs::read_to_string(&journal_path).unwrap();
    assert!(journal.contains(r#""cell":"wire/blogger/test2""#), "{journal}");

    server.request_stop();
    server.join();
    let _ = std::fs::remove_file(&ready);
    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn parses_chaosd_and_fault_flags() {
    assert!(parse(&args("chaosd")).is_err(), "chaosd requires --server-file");
    let cmd = parse(&args(
        "chaosd --server-file up.txt --seed 9 --fault-level 3 --fault-seed 11 \
             --corrupt 0.01 --reset 0.02 --trickle 0.03 --port 9400 --ready-file r.txt \
             --stop-file s.txt --max-secs 5",
    ))
    .unwrap();
    assert_eq!(
        cmd,
        Command::Chaosd(ChaosdArgs {
            server_file: "up.txt".into(),
            host: HostArgs {
                seed: 9,
                base_port: 9400,
                fault_level: 3,
                fault_seed: Some(11),
                outage_trace: None,
                ready_file: Some("r.txt".into()),
                stop_file: Some("s.txt".into()),
                max_secs: Some(5),
            },
            corrupt: 0.01,
            reset: 0.02,
            trickle: 0.03,
        })
    );
    let cmd = parse(&args(
        "serve --service blogger --max-conns 64 --stall-budget-ms 250 --fault-level 2 \
             --outage-trace incidents.json",
    ))
    .unwrap();
    match cmd {
        Command::Serve(serve) => {
            assert_eq!(serve.max_conns, Some(64));
            assert_eq!(serve.stall_budget_ms, Some(250));
            assert_eq!(serve.host.fault_level, 2);
            assert_eq!(serve.host.outage_trace.as_deref(), Some("incidents.json"));
        }
        other => panic!("wrong parse: {other:?}"),
    }
    let cmd = parse(&args("chaos --service gplus --test 1 --wire --outage-trace t.json")).unwrap();
    match cmd {
        Command::Chaos(chaos) => {
            assert!(chaos.wire);
            assert_eq!(chaos.outage_trace.as_deref(), Some("t.json"));
            assert_eq!(chaos.levels, 3, "default sweep height");
        }
        other => panic!("wrong parse: {other:?}"),
    }
}

#[test]
fn wire_chaos_plan_escalates_with_level() {
    assert!(wire_chaos_plan(0, 1).is_empty(), "level 0 is the control arm");
    assert!(wire_chaos_plan(1, 1).events().len() < wire_chaos_plan(4, 1).events().len());
    // The crash/rejoin cycle arrives at level 3 so lower levels stay
    // pure network interference.
    assert!(wire_chaos_plan(2, 1).service_actions().is_empty());
    assert!(wire_chaos_plan(3, 1)
        .service_actions()
        .iter()
        .any(|a| format!("{}", a.action) == "crash"));
    // Every fault window must land inside a loopback probe's
    // measured phase, so the whole plan stays under two seconds.
    for level in 0..=4 {
        assert!(wire_chaos_plan(level, 1).end_time() <= SimTime::from_secs(2));
    }
}

#[test]
fn chaosd_fronts_a_live_server_and_drains() {
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let tag = std::process::id();
    let upstream_file = dir.join(format!("chaosd-upstream-{tag}.txt"));
    let proxy_file = dir.join(format!("chaosd-ready-{tag}.txt"));

    let server =
        conprobe_wire::WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 7)).unwrap();
    // Without a service line chaosd cannot tell which replica a door
    // reaches, and refuses to start.
    crate::fsio::write_atomic(&upstream_file, ready_listing(&server, None)).unwrap();
    let chaosd = format!(
        "chaosd --server-file {} --seed 7 --max-secs 0 --ready-file {}",
        upstream_file.display(),
        proxy_file.display()
    );
    let err = execute(parse(&args(&chaosd)).unwrap()).unwrap_err();
    assert!(err.0.contains("has no service= line"), "{err:?}");
    crate::fsio::write_atomic(&upstream_file, ready_listing(&server, Some(ServiceKind::Blogger)))
        .unwrap();

    let out = execute(parse(&args(&chaosd)).unwrap()).unwrap();
    assert!(out.contains("chaosd drained"), "{out}");

    // The interposer listing is itself a valid serve ready-file:
    // probe endpoints per region plus the shard count and service passed
    // through from upstream.
    let proxied = std::fs::read_to_string(&proxy_file).unwrap();
    assert_eq!(proxied.lines().count(), Region::AGENTS.len() + 2, "{proxied}");
    let parsed = ReadyFile::read_serve(&proxy_file.display().to_string()).unwrap();
    assert_eq!(parsed.endpoints.len(), Region::AGENTS.len(), "{proxied}");
    assert_eq!(parsed.shards, Some(server.shard_count()), "{proxied}");
    assert_eq!(parsed.service, Some(ServiceKind::Blogger), "{proxied}");

    server.request_stop();
    server.join();
    let _ = std::fs::remove_file(&upstream_file);
    let _ = std::fs::remove_file(&proxy_file);
}

/// FB Group routes every agent region to its Virginia replica, so a
/// window on the Tokyo ↔ Virginia link cuts the Tokyo door and no other:
/// the link the simulator cuts for the Tokyo agent.
#[test]
fn the_interposer_judges_each_door_on_its_link_to_the_replica_behind_it() {
    use conprobe_sim::{FaultEvent, FaultPlan, LinkScope, SimDuration};
    use conprobe_wire::{ChaosConfig, ChaosProxy, InjectProfile, WireClient, WireServer};

    let service = ServiceKind::FacebookGroup;
    let server = WireServer::start(&ServeConfig::loopback(service, 7)).unwrap();
    let targets = super::chaos::interpose_on(service, server.addrs());
    assert!(targets.iter().all(|t| t.replica_region == Region::Virginia), "{targets:?}");
    let plan = FaultPlan::new(1).with(FaultEvent::LinkFlap {
        scope: LinkScope::Between(Region::Tokyo, Region::Virginia),
        at: SimTime::ZERO,
        down_for: SimDuration::from_secs(3600),
        up_for: SimDuration::ZERO,
        flaps: 1,
    });
    let config = ChaosConfig { seed: 1, plan, inject: InjectProfile::default(), base_port: 0 };
    let proxy = ChaosProxy::start(&config, &targets).unwrap();
    for &(region, addr) in proxy.addrs() {
        // The handshake is one frame each way: it completes unless the
        // door's link is cut.
        let reached = WireClient::connect(addr, Duration::from_millis(300)).is_ok();
        assert_eq!(reached, region != Region::Tokyo, "{region} door");
    }
    proxy.request_stop();
    let ledger = proxy.join();
    server.request_stop();
    server.join();
    assert!(ledger.net.blocked > 0, "{ledger:?}");
    assert_eq!(ledger.net.dropped + ledger.net.delayed, 0, "{ledger:?}");
}

#[test]
fn wire_chaos_sweep_level_zero_runs_clean() {
    let out = execute(
        parse(&args("chaos --service blogger --test 2 --seed 5 --levels 0 --wire")).unwrap(),
    )
    .unwrap();
    assert!(out.contains("wire chaos sweep"), "{out}");
    assert!(out.contains("level 0: completed"), "{out}");
    // Level 0 is fault-free: the interposer forwards everything and
    // the analysis must come back anomaly-free.
    assert!(out.contains("0 anomaly observation(s)"), "{out}");
}

#[test]
fn parses_dispatch_and_worker_commands() {
    assert!(parse(&args("dispatch --service blogger")).is_err(), "dispatch needs a journal");
    assert!(parse(&args("worker --service blogger")).is_err(), "worker needs an address");
    let cmd = parse(&args(
        "dispatch --service blogger --test 2 --tests 6 --seed 5 --journal j.jsonl \
             --lease-secs 7 --ready-file r.txt",
    ))
    .unwrap();
    assert_eq!(
        cmd,
        Command::Dispatch(DispatchArgs {
            spec: spec(ServiceKind::Blogger, TestKind::Test2, 5),
            tests: 6,
            addr: None,
            lease_secs: 7,
            ready_file: Some("r.txt".into()),
            journal: JournalArgs { journal_out: Some("j.jsonl".into()), resume: None },
        })
    );
    let cmd = parse(&args(
        "worker --service blogger --test 2 --tests 6 --seed 5 --server-file r.txt \
             --worker-id 3",
    ))
    .unwrap();
    assert_eq!(
        cmd,
        Command::Worker(WorkerArgs {
            spec: spec(ServiceKind::Blogger, TestKind::Test2, 5),
            tests: 6,
            addr: None,
            server_file: Some("r.txt".into()),
            worker_id: 3,
        })
    );
    assert!(parse(&args("worker --service blogger --addr nonsense")).is_err());
}

#[test]
fn campaign_shaped_commands_default_to_twenty_tests() {
    let parsed = |line: &str| parse(&args(line)).unwrap();
    assert!(matches!(parsed("campaign --service blogger"), Command::Campaign(c) if c.tests == 20));
    assert!(matches!(parsed("campaign --service blogger --tests 3"),
        Command::Campaign(c) if c.tests == 3));
    assert!(matches!(parsed("repro"),
        Command::Repro(r) if r.tests == 20 && r.seed == 42 && r.artifacts == ["all"]));
    assert!(matches!(parsed("dispatch --service blogger --resume j.jsonl"),
        Command::Dispatch(d) if d.tests == 20 && d.lease_secs == 30));
    assert!(matches!(parsed("worker --service blogger --addr 127.0.0.1:7000"),
        Command::Worker(w) if w.tests == 20 && w.worker_id == 0));
}

#[test]
fn repro_refuses_an_unknown_artifact_by_name() {
    let e = parse_err("repro table1 fig11 fig3");
    assert!(e.starts_with("unknown artifact 'fig11' "), "{e}");
    match parse(&args("repro fig3 table1")).unwrap() {
        Command::Repro(r) => assert_eq!(r.artifacts, ["fig3", "table1"]),
        other => panic!("wrong parse: {other:?}"),
    }
}

#[test]
fn repro_renders_every_artifact_by_default() {
    let out = execute(parse(&args("repro --tests 1 --seed 3")).unwrap()).unwrap();
    // One `== title ==` block per artifact, in the paper's order.
    let titles: Vec<&str> = out.lines().filter(|l| l.starts_with("== ")).collect();
    assert_eq!(titles.len(), 17, "{titles:#?}");
    assert!(titles[0].starts_with("== Table I:") && titles[16].contains("E2: agent rotation"));
}

#[test]
fn repro_reports_a_report_it_cannot_write_as_an_error() {
    let missing = std::env::temp_dir().join(format!("conprobe-missing-{}", std::process::id()));
    let report = missing.join("study.json");
    let e = execute(
        parse(&args(&format!("repro --tests 1 --report {} table1", report.display()))).unwrap(),
    )
    .unwrap_err();
    assert!(e.0.starts_with(&format!("write {}: ", report.display())), "{}", e.0);
    assert!(!missing.exists());
}

#[test]
fn dispatch_cli_matches_campaign_output_byte_for_byte() {
    let dir = std::env::temp_dir().join("conprobe-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let tag = std::process::id();
    let ready = dir.join(format!("dispatch-ready-{tag}.txt"));
    let journal_path = dir.join(format!("dispatch-journal-{tag}.jsonl"));
    let _ = std::fs::remove_file(&ready);
    let _ = std::fs::remove_file(&journal_path);

    let flags = "--service blogger --test 2 --tests 3 --seed 11";
    let dispatch_cmd = parse(&args(&format!(
        "dispatch {flags} --journal {} --ready-file {}",
        journal_path.display(),
        ready.display()
    )))
    .unwrap();
    let coordinator = std::thread::spawn(move || execute(dispatch_cmd));

    // The ready-file is the coordinator's address handoff.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !ready.exists() {
        assert!(std::time::Instant::now() < deadline, "coordinator never bound");
        std::thread::sleep(Duration::from_millis(10));
    }
    let worker_out = execute(
        parse(&args(&format!("worker {flags} --server-file {}", ready.display()))).unwrap(),
    )
    .unwrap();
    assert!(worker_out.contains("3 completed, 0 crashed"), "{worker_out}");

    let dispatched = coordinator.join().unwrap().unwrap();
    let local = execute(parse(&args(&format!("campaign {flags}"))).unwrap()).unwrap();
    assert_eq!(dispatched, local, "dispatched cell diverged from the local campaign");

    let _ = std::fs::remove_file(&ready);
    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn campaign_summarizes_prevalence() {
    let out =
        execute(parse(&args("campaign --service blogger --test 2 --tests 2 --seed 1")).unwrap())
            .unwrap();
    assert!(out.contains("2/2 completed"), "{out}");
    assert!(!out.contains("read your writes"), "Blogger clean: {out}");
}

#[test]
fn load_prints_latencies_to_three_significant_figures() {
    let cases = [
        (Some(52_345), "0.0523 ms"),
        (Some(1_200_000), "1.20 ms"),
        (Some(340_400_000), "340 ms"),
        (Some(0), "0 ms"),
        (None, "n/a"),
    ];
    for (nanos, text) in cases {
        assert_eq!(millis_3sf(nanos), text, "{nanos:?}");
    }
}
