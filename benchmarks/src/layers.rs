//! The traced pass (`--trace 1`): every layer's own numbers.
//!
//! End-to-end numbers are taken with tracing off. This pass then replays
//! each workload's operations *in process* around the public calls the
//! server or the harness makes, one span per call, so that a layer's
//! self time is its span minus its children. The live replays run on
//! virtual time — an op's `now_nanos` is its scheduled due time — so
//! tick, replication and anti-entropy counts repeat exactly from run to
//! run. Layers no replay can reach from outside (a single `ReplicaCore`,
//! the simulator's dispatch loop, the JSON codec, the metrics registry)
//! get a micro-probe each.
//!
//! The traced run prints every per-layer metric whatever workload it was
//! asked for; the workload decides whose replay is written to
//! `benchmarks/out/trace-<workload>.json`, whose replay is timed again
//! without spans for `trace.overhead_pct`, and which live workload's
//! phases supply the `gen.*`, `rate.*`, `tail.*` and `wire.server.*`
//! groups (`wire-read`'s, unless the workload is `wire-mixed`).

use crate::analyze;
use crate::gen::{fnv64, fnv64_fold, poisson_schedule, OpStream, Rng};
use crate::live::{
    self, corpus_post, write_body, LiveSpec, KEYS, POSTS_PER_KEY, WIRE_MIXED, WIRE_READ,
};
use crate::metrics::{Values, CELLS};
use crate::span::{clock_overhead_ns, spanned, Recorder, Tracing};
use crate::stats::{median, percentile};
use crate::study::{self, cell_config, run_instance, INSTANCES, MATRIX};
use crate::util::out_dir;
use conprobe::core::{CheckerConfig, TraceIndex};
use conprobe::harness::campaign::run_campaign_journaled;
use conprobe::harness::journal::{completed_record_json, parse_record_payload, result_to_json};
use conprobe::harness::{run_campaign, Journal};
use conprobe::services::{LiveCluster, LiveConfig};
use conprobe::sim::net::Region;
use conprobe::sim::{Context, LocalTime, Node, NodeId, SimTime, World, WorldConfig};
use conprobe::store::{AuthorId, OrderingPolicy, Post, PostId, ReplicaCore};
use conprobe::wire::frame::{
    append_read_q, append_read_q_ok_iter, append_write_q, append_write_q_ack, decode_raw,
    parse_payload, Frame,
};
use std::hint::black_box;
use std::time::Instant;

/// Spans kept verbatim in a trace file.
const KEEP_SPANS: usize = 24_000;
/// Virtual seconds of the high-rate schedule a live replay covers: two
/// anti-entropy periods of the weak arm.
const REPLAY_VIRTUAL_NS: u64 = 4_000_000_000;
/// Where the replay's virtual clock starts: long after the corpus's own
/// replication pushes and first anti-entropy rounds are done.
const REPLAY_T0_NS: u64 = 30_000_000_000;
/// Instances per cell the study replay times.
const PER_CELL: usize = 24;
/// Records the journaled replay appends and recovers.
const RECORDS: usize = 48;

const SPAN_ENC_REQ: &str = "wire.frame.enc_req";
const SPAN_DEC_REQ: &str = "wire.frame.dec_req";
const SPAN_LOOKUP: &str = "services.shard.lookup";
const SPAN_TICK: &str = "services.live.tick";
const SPAN_READ: &str = "services.live.read";
const SPAN_WRITE: &str = "services.live.write";
const SPAN_ENC_RESP: &str = "wire.frame.enc_resp";
const SPAN_DEC_RESP: &str = "wire.frame.dec_resp";
const SPAN_INDEX: &str = "core.index.build";

/// What a live replay saw.
struct LiveReplay {
    ops: u64,
    resp_bytes: u64,
    /// Explicit ticks that took more than 10 µs (they found work).
    busy_ticks: u64,
    /// FNV over every response frame: the replay's output.
    output_hash: u64,
    converge_virtual_ms: f64,
    rejoin_ms: f64,
    wall_s: f64,
}

/// Replays `spec`'s high-rate op sequence against a `LiveCluster` with no
/// sockets, making exactly the calls the server's sweep makes per frame —
/// `decode_raw` → `parse_payload` → shard lookup → `tick` →
/// `read_keyed`/`write_keyed` → `append_*` — bracketed by the client's
/// encode and decode.
fn live_replay(
    spec: LiveSpec,
    seed: u64,
    mut rec: Option<&mut Recorder>,
) -> Result<LiveReplay, String> {
    let cluster =
        LiveCluster::new(&LiveConfig { kind: spec.kind, seed, stale_window: None, shards: 16 });
    let body = write_body(seed);
    let mut ids = Rng::new(seed, "corpus");
    for key in 0..KEYS {
        for slot in 0..POSTS_PER_KEY {
            let now = u64::from(key * POSTS_PER_KEY + slot) * 1_000;
            cluster.write_keyed(Region::Oregon, key, corpus_post(&mut ids, key, slot, &body), now);
        }
    }
    cluster.tick(REPLAY_T0_NS - 1);
    let ops = poisson_schedule(
        OpStream::new(seed, "hi", KEYS, spec.write_pct),
        seed,
        spec.hi_rate,
        REPLAY_VIRTUAL_NS,
    );
    // Name indices resolved once, not `span::open` per call: these calls
    // take tens of nanoseconds and a name look-up would outweigh them.
    let n = rec.as_deref_mut().map(|r| {
        [
            r.name("replay.op"),
            r.name(SPAN_ENC_REQ),
            r.name(SPAN_DEC_REQ),
            r.name(SPAN_LOOKUP),
            r.name(SPAN_TICK),
            r.name(SPAN_READ),
            r.name(SPAN_WRITE),
            r.name(SPAN_ENC_RESP),
            r.name(SPAN_DEC_RESP),
        ]
    });
    macro_rules! begin {
        ($slot:expr, $op:expr) => {
            if let (Some(r), Some(n)) = (rec.as_deref_mut(), n) {
                r.begin(n[$slot], $op);
            }
        };
    }
    macro_rules! end {
        () => {
            match rec.as_deref_mut() {
                Some(r) => r.end(),
                None => 0,
            }
        };
    }
    let (mut req, mut resp) = (Vec::with_capacity(256), Vec::with_capacity(4096));
    let mut seqs = [0u32; 2];
    let mut out = LiveReplay {
        ops: ops.len() as u64,
        resp_bytes: 0,
        busy_ticks: 0,
        output_hash: fnv64(b"responses"),
        converge_virtual_ms: 0.0,
        rejoin_ms: 0.0,
        wall_s: 0.0,
    };
    let mut last_write_ns = None;
    let began = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let (id, door) = (i as u32, i % 2);
        let region = Region::AGENTS[door];
        let now = REPLAY_T0_NS + op.due_ns;
        begin!(0, id);

        begin!(1, id);
        req.clear();
        if op.write {
            seqs[door] += 1;
            append_write_q(&mut req, id, op.key, 100 + door as u32, seqs[door], now as i64, &body);
        } else {
            append_read_q(&mut req, id, op.key);
        }
        end!();

        begin!(2, id);
        let raw = decode_raw(&req).map_err(|e| e.to_string())?.ok_or("short request frame")?;
        let frame =
            parse_payload(raw.kind, &req[raw.payload.clone()]).map_err(|e| e.to_string())?;
        end!();

        begin!(3, id);
        black_box(cluster.shard_for_key(op.key));
        end!();

        // An explicit tick first, as the server's ticker thread would
        // have run it: the op's own inline tick is then the atomic-load
        // fast path, and replication work shows under its own name.
        begin!(4, id);
        cluster.tick(now);
        out.busy_ticks += u64::from(end!() > 10_000);

        resp.clear();
        match frame {
            Frame::ReadQ { req: echoed, key } => {
                begin!(5, id);
                let snapshot = cluster.read_keyed(region, key, now);
                end!();
                begin!(7, id);
                append_read_q_ok_iter(&mut resp, echoed, snapshot.iter().map(|p| p.as_u64()));
                end!();
            }
            Frame::WriteQ { req: echoed, key, author, seq, client_ts_nanos, content } => {
                begin!(6, id);
                let post = Post::new(
                    PostId::new(AuthorId(author), seq),
                    content,
                    LocalTime::from_nanos(client_ts_nanos),
                );
                let acked = cluster.write_keyed(region, key, post, now);
                end!();
                begin!(7, id);
                append_write_q_ack(&mut resp, echoed, acked.as_u64());
                end!();
                last_write_ns = Some(now);
            }
            other => return Err(format!("request parsed as {other:?}")),
        }

        begin!(8, id);
        let answer = decode_raw(&resp).map_err(|e| e.to_string())?.ok_or("short response frame")?;
        let echoed = u32::from_le_bytes(
            resp[answer.payload.start..answer.payload.start + 4].try_into().unwrap(),
        );
        end!();
        if echoed != id {
            return Err(format!("replayed op {id} was answered as {echoed}"));
        }
        out.resp_bytes += resp.len() as u64;
        out.output_hash = fnv64_fold(out.output_hash, &resp);
        end!();
    }
    out.wall_s = began.elapsed().as_secs_f64();

    // After the last write, step virtual time in 10 ms ticks until every
    // replica holds the same number of posts.
    let mut now = REPLAY_T0_NS + REPLAY_VIRTUAL_NS;
    let replicas = cluster.replica_count();
    while (1..replicas).any(|i| cluster.replica_len(i) != cluster.replica_len(0)) {
        now += 10_000_000;
        cluster.tick(now);
        if now > REPLAY_T0_NS + REPLAY_VIRTUAL_NS + 60_000_000_000 {
            return Err("replicas did not converge within 60 virtual seconds".into());
        }
    }
    out.converge_virtual_ms = last_write_ns.map_or(0.0, |at| now.saturating_sub(at) as f64 / 1e6);
    if replicas > 1 {
        let began = Instant::now();
        cluster.crash_replica(1);
        black_box(cluster.recover_replica(1));
        out.rejoin_ms = began.elapsed().as_secs_f64() * 1e3;
    }
    Ok(out)
}

/// The four `store.replica` figures on a core holding 150 posts.
fn store_probe(values: &mut Values) {
    const POSTS: u32 = 150;
    const REPS: u32 = 200;
    let policy = OrderingPolicy::exact_timestamp();
    let post = |seq: u32| {
        Post::new(PostId::new(AuthorId(seq % 3), seq), "store-probe-body", LocalTime::from_nanos(0))
    };
    let mut apply_new = Vec::new();
    let mut apply_replicated = Vec::new();
    let mut full = ReplicaCore::new(policy);
    for _ in 0..REPS {
        let mut core = ReplicaCore::new(policy);
        let posts: Vec<Post> = (1..=POSTS).map(post).collect();
        let began = Instant::now();
        for (i, p) in posts.into_iter().enumerate() {
            core.apply_new(p, SimTime::from_millis(i as u64 * 37));
        }
        apply_new.push(began.elapsed().as_nanos() as f64 / f64::from(POSTS));
        let stored = core.snapshot_posts();
        let mut peer = ReplicaCore::new(policy);
        let copies: Vec<_> = stored.iter().cloned().collect();
        let began = Instant::now();
        for s in copies {
            peer.apply_replicated(s);
        }
        apply_replicated.push(began.elapsed().as_nanos() as f64 / f64::from(POSTS));
        full = core;
    }
    values.set("store.replica.apply_new_ns", median(&apply_new));
    values.set("store.replica.apply_replicated_ns", median(&apply_replicated));

    let hits: Vec<f64> = (0..21)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..10_000 {
                black_box(full.snapshot().len());
            }
            began.elapsed().as_nanos() as f64 / 10_000.0
        })
        .collect();
    values.set("store.replica.snapshot_hit_ns", median(&hits));

    // Every write invalidates the cached view: the next read rebuilds it.
    let mut rebuilds = Vec::new();
    for rep in 0..REPS {
        full.apply_new(post(POSTS + 1 + rep), SimTime::from_millis(u64::from(rep)));
        let began = Instant::now();
        black_box(full.snapshot().len());
        rebuilds.push(began.elapsed().as_nanos() as f64);
    }
    values.set("store.replica.snapshot_rebuild_ns", median(&rebuilds));
    let digests: Vec<f64> = (0..REPS)
        .map(|_| {
            let began = Instant::now();
            black_box(full.digest().len());
            began.elapsed().as_nanos() as f64
        })
        .collect();
    values.set("store.replica.digest_ns", median(&digests));
}

/// A node that returns every message until its budget is spent: with a
/// handler this cheap, wall time per delivered event is the simulator's
/// own dispatch cost.
struct PingPong {
    left: u32,
    peer: Option<NodeId>,
}

impl Node<u32> for PingPong {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        if let Some(peer) = self.peer {
            ctx.send(peer, 0);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(from, msg + 1);
        }
    }

    fn on_timer(&mut self, _: &mut Context<'_, u32>, _: u64) {}
}

fn dispatch_probe(seed: u64, values: &mut Values) {
    const BOUNCES: u32 = 100_000;
    let per_event: Vec<f64> = (0..9)
        .map(|_| {
            let mut world: World<u32> = World::new(WorldConfig::default(), seed);
            let echo =
                world.add_node(Region::Tokyo, Box::new(PingPong { left: BOUNCES, peer: None }));
            world.add_node(Region::Oregon, Box::new(PingPong { left: BOUNCES, peer: Some(echo) }));
            let began = Instant::now();
            world.run_until_idle();
            began.elapsed().as_nanos() as f64 / world.delivered().max(1) as f64
        })
        .collect();
    values.set("sim.world.dispatch_ns_per_event", median(&per_event));
}

/// Encode and parse rates of the JSON codec on one journal record.
fn json_probe(seed: u64, values: &mut Values) {
    let result = run_instance(&cell_config(1, seed, INSTANCES), 0);
    let tree = result_to_json(&result);
    let text = tree.to_compact();
    let mb = text.len() as f64 / 1e6;
    let rate = |f: &mut dyn FnMut()| {
        let secs: Vec<f64> = (0..15)
            .map(|_| {
                let began = Instant::now();
                f();
                began.elapsed().as_secs_f64()
            })
            .collect();
        mb / median(&secs)
    };
    values.set("json.encode_mb_per_s", rate(&mut || drop(black_box(tree.to_compact()))));
    values.set("json.parse_mb_per_s", rate(&mut || drop(black_box(conprobe::json::parse(&text)))));
}

fn obs_probe(values: &mut Values) {
    let sink = conprobe::sim::ObsSink::new();
    let counter = sink.metrics.counter("bench.counter");
    let histogram =
        sink.metrics.histogram("bench.histogram", &conprobe::wire::wire_latency_bounds_nanos());
    let per_call = |f: &mut dyn FnMut(u64)| {
        let ns: Vec<f64> = (0..21)
            .map(|_| {
                let began = Instant::now();
                for i in 0..100_000u64 {
                    f(i);
                }
                began.elapsed().as_nanos() as f64 / 100_000.0
            })
            .collect();
        median(&ns)
    };
    values.set("obs.counter_inc_ns", per_call(&mut |_| counter.inc()));
    values.set("obs.histogram_record_ns", per_call(&mut |i| histogram.record(i * 37 % 1_000_000)));
    black_box((counter.get(), histogram.count()));
}

/// Four variants of one campaign cell, interleaved five times: the plain
/// two-thread run, one thread, journaled, and observed.
fn campaign_probe(seed: u64, values: &mut Values) -> Result<(), String> {
    const TESTS: u32 = 120;
    let base = cell_config(1, seed, TESTS);
    let path = out_dir().join(format!("journal-probe-{}.jsonl", std::process::id()));
    let timed = |f: &mut dyn FnMut() -> usize| {
        let began = Instant::now();
        let done = f();
        (done == TESTS as usize)
            .then(|| began.elapsed().as_secs_f64())
            .ok_or("campaign probe lost instances")
    };
    let (mut plain, mut single, mut journaled, mut observed) = (vec![], vec![], vec![], vec![]);
    for _ in 0..5 {
        plain.push(timed(&mut || run_campaign(&base).results.len())?);
        let mut one = base.clone();
        one.threads = 1;
        single.push(timed(&mut || run_campaign(&one).results.len())?);
        let journal = Journal::create(&path).map_err(|e| format!("journal: {e}"))?;
        journaled.push(timed(&mut || {
            run_campaign_journaled(&base, None, CELLS[1], Some(&journal), None).results.len()
        })?);
        let mut seen = base.clone();
        seen.test.obs = Some(conprobe::sim::ObsSink::new());
        observed.push(timed(&mut || run_campaign(&seen).results.len())?);
    }
    std::fs::remove_file(&path).ok();
    let (plain, single) = (median(&plain), median(&single));
    values.set("harness.campaign.parallel_eff", single / (study::THREADS as f64 * plain));
    values.set("harness.journal.overhead_pct", (median(&journaled) / plain - 1.0) * 100.0);
    values.set("obs.study_overhead_pct", (median(&observed) / plain - 1.0) * 100.0);
    Ok(())
}

/// The analyze replay: every pool trace through a traced pass, plus the
/// index build on its own.
fn analyze_replay(
    seed: u64,
    rounds: usize,
    mut rec: Tracing<'_>,
) -> Result<(u64, u64, usize), String> {
    let (traces, goldens, _) = analyze::set_up(seed)?;
    let config = CheckerConfig::default();
    let (mut ops, mut records, mut retained) = (0u64, 0u64, 0usize);
    for round in 0..rounds {
        for (i, trace) in traces.iter().enumerate() {
            let op = (round * traces.len() + i) as u32;
            let out = analyze::pass(trace, &config, Some(goldens[i]), op, &mut rec);
            if !out.correct {
                return Err(format!("replayed pool trace {i} produced wrong observations"));
            }
            spanned(&mut rec, SPAN_INDEX, op, || drop(black_box(TraceIndex::new(trace))));
            ops += trace.len() as u64;
            records += goldens[i].records as u64;
            retained = retained.max(out.retained_peak);
        }
    }
    Ok((ops, records, retained))
}

fn p50_us(nanos: &[u64]) -> f64 {
    let mut sorted = nanos.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 0.5) as f64 / 1e3
}

/// Runs the traced pass for `workload` and returns every per-layer metric.
pub fn run(workload: &str, seed: u64, seconds: u64) -> Result<Values, String> {
    let mut values = Values::default();
    let clock = clock_overhead_ns();
    let all_cells: Vec<usize> = (0..MATRIX.len()).collect();

    // Live plane: the phases over real sockets, then the replay without.
    let live_spec = if workload == WIRE_MIXED.name { WIRE_MIXED } else { WIRE_READ };
    live::traced(live_spec, seed, seconds, &mut values)?;
    let mut mixed_rec = Recorder::new(KEEP_SPANS);
    let mixed = live_replay(WIRE_MIXED, seed, Some(&mut mixed_rec))?;
    let mean = |name: &str| mixed_rec.mean_self_ns(name, clock);
    values.set("wire.frame.enc_req_ns", mean(SPAN_ENC_REQ));
    values.set("wire.frame.dec_req_ns", mean(SPAN_DEC_REQ));
    values.set("wire.frame.enc_resp_ns", mean(SPAN_ENC_RESP));
    values.set("wire.frame.dec_resp_ns", mean(SPAN_DEC_RESP));
    values.set("wire.frame.resp_bytes_per_op", mixed.resp_bytes as f64 / mixed.ops as f64);
    values.set("services.shard.lookup_ns", mean(SPAN_LOOKUP));
    values.set("services.live.read_ns", mean(SPAN_READ));
    values.set("services.live.write_ns", mean(SPAN_WRITE));
    values.set("services.live.tick_ns_per_op", mean(SPAN_TICK));
    let ticks = mixed_rec.totals(SPAN_TICK);
    values.set("services.live.tick_busy_frac", mixed.busy_ticks as f64 / ticks.count as f64);
    values.set("services.live.tick_max_ms", ticks.max_ns as f64 / 1e6);
    values.set("services.live.converge_virtual_ms", mixed.converge_virtual_ms);
    values.set("services.live.rejoin_ms", mixed.rejoin_ms);
    // What a depth-1 round trip costs beyond the calls the replay can
    // see: sockets, the sweep, the idle ladder, wake-ups.
    let in_process: f64 = [
        SPAN_ENC_REQ,
        SPAN_DEC_REQ,
        SPAN_LOOKUP,
        SPAN_TICK,
        SPAN_READ,
        SPAN_ENC_RESP,
        SPAN_DEC_RESP,
    ]
    .iter()
    .map(|name| mean(name))
    .sum();
    let rtt1 = values.get("wire.server.rtt1_p50_us").expect("the live phases set it");
    values.set("wire.server.residual_us", rtt1 - in_process / 1e3);

    // Study plane: one test at a time.
    let mut study_rec = Recorder::new(KEEP_SPANS);
    let began = Instant::now();
    let tests = study::replay(seed, &all_cells, PER_CELL, false, Some(&mut study_rec))?;
    let study_wall = began.elapsed().as_secs_f64();
    for (i, cell) in CELLS.iter().enumerate() {
        values.set(&format!("harness.runner.test_us.{cell}"), p50_us(&tests.test_ns[i]));
    }
    let per_event = |cells: std::ops::Range<usize>| {
        let wall: u64 = tests.wall_ns[cells.clone()].iter().sum();
        wall as f64 / tests.events[cells].iter().sum::<u64>() as f64
    };
    values.set("services.replica_node.ns_per_event", per_event(0..8));
    values.set("services.quorum.ns_per_event", per_event(8..9));
    values.set("services.pbft.ns_per_event", per_event(9..10));
    values.set("services.quorum.events_per_test", tests.events[8] as f64 / PER_CELL as f64);
    values.set("services.pbft.events_per_test", tests.events[9] as f64 / PER_CELL as f64);
    let events: u64 = tests.events.iter().sum();
    values.set(
        "sim.world.events_per_s",
        events as f64 / (tests.wall_ns.iter().sum::<u64>() as f64 / 1e9),
    );
    let reanalysis = study_rec.totals(study::SPAN_ANALYZE);
    values.set("core.analysis.ns_per_op_study", reanalysis.total_ns as f64 / tests.ops as f64);

    let mut journal_rec = Recorder::new(KEEP_SPANS);
    let began = Instant::now();
    let journaled = study::replay(seed, &[1], RECORDS, true, Some(&mut journal_rec))?;
    let journal_wall = began.elapsed().as_secs_f64();
    let per_record =
        |name: &str| journal_rec.totals(name).total_ns as f64 / 1e3 / journaled.records as f64;
    values.set("harness.journal.encode_us_per_record", per_record(study::SPAN_ENCODE));
    values.set("harness.journal.append_us_per_record", per_record(study::SPAN_APPEND));
    values.set("harness.journal.recover_us_per_record", per_record(study::SPAN_RECOVER));
    values.set(
        "harness.journal.bytes_per_record",
        journaled.journal_bytes as f64 / journaled.records as f64,
    );
    let config = cell_config(1, seed, INSTANCES);
    let payloads: Vec<String> = (0..8)
        .map(|i| {
            completed_record_json(
                CELLS[1],
                i as u32,
                study::instance_seed(&config, i),
                &run_instance(&config, i),
            )
        })
        .collect();
    let began = Instant::now();
    for payload in &payloads {
        black_box(parse_record_payload(payload).map_err(|e| format!("parse record: {e}"))?);
    }
    values.set(
        "harness.journal.parse_us_per_record",
        began.elapsed().as_secs_f64() * 1e6 / payloads.len() as f64,
    );

    // Analysis plane.
    let mut analyze_rec = Recorder::new(KEEP_SPANS);
    let began = Instant::now();
    let (ops, records, retained) = analyze_replay(seed, 4, Some(&mut analyze_rec))?;
    let analyze_wall = began.elapsed().as_secs_f64();
    let total = |name: &str| analyze_rec.totals(name).total_ns as f64;
    values.set("core.analysis.ns_per_op", total(analyze::SPAN_ANALYZE) / ops as f64);
    values.set("core.index.build_ns_per_op", total(SPAN_INDEX) / ops as f64);
    values.set("core.stream.push_ns_per_event", total(analyze::SPAN_PUSH) / ops as f64);
    values
        .set("core.stream.finish_us", analyze_rec.mean_self_ns(analyze::SPAN_FINISH, clock) / 1e3);
    values.set("core.stream.retained_bytes_peak", retained as f64);
    values.set("core.visibility.ns_per_record", total(analyze::SPAN_VISIBILITY) / records as f64);

    // Layers no replay reaches from outside.
    store_probe(&mut values);
    dispatch_probe(seed, &mut values);
    json_probe(seed, &mut values);
    obs_probe(&mut values);
    campaign_probe(seed, &mut values)?;

    // The asked-for workload's replay once more without spans: the
    // difference is what tracing costs. Outputs must not differ.
    let (rec, traced_wall, plain_wall) = match workload {
        "wire-read" => {
            let mut rec = Recorder::new(KEEP_SPANS);
            let traced = live_replay(WIRE_READ, seed, Some(&mut rec))?;
            let plain = live_replay(WIRE_READ, seed, None)?;
            if traced.output_hash != plain.output_hash {
                return Err("the traced and untraced wire-read replays answered differently".into());
            }
            (rec, traced.wall_s, plain.wall_s)
        }
        "wire-mixed" => {
            let plain = live_replay(WIRE_MIXED, seed, None)?;
            if mixed.output_hash != plain.output_hash {
                return Err(
                    "the traced and untraced wire-mixed replays answered differently".into()
                );
            }
            (mixed_rec, mixed.wall_s, plain.wall_s)
        }
        "study" => {
            let began = Instant::now();
            study::replay(seed, &all_cells, PER_CELL, false, None)?;
            (study_rec, study_wall, began.elapsed().as_secs_f64())
        }
        "study-journaled" => {
            let began = Instant::now();
            study::replay(seed, &[1], RECORDS, true, None)?;
            (journal_rec, journal_wall, began.elapsed().as_secs_f64())
        }
        "analyze" => {
            let began = Instant::now();
            analyze_replay(seed, 4, None)?;
            (analyze_rec, analyze_wall, began.elapsed().as_secs_f64())
        }
        other => return Err(format!("unknown workload {other}")),
    };
    values.set("trace.overhead_pct", (traced_wall / plain_wall - 1.0) * 100.0);
    let path = out_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&path, rec.to_json(workload, seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{workload}: traced replay {traced_wall:.3} s, untraced {plain_wall:.3} s, spans in {}",
        path.display()
    );
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_replay_repeats_exactly_and_tracing_does_not_change_its_output() {
        let mut rec = Recorder::new(64);
        let traced = live_replay(WIRE_MIXED, 21, Some(&mut rec)).expect("traced replay");
        let plain = live_replay(WIRE_MIXED, 21, None).expect("plain replay");
        assert_eq!(traced.output_hash, plain.output_hash);
        assert_eq!(traced.converge_virtual_ms, plain.converge_virtual_ms);
        assert_eq!((traced.ops, traced.resp_bytes), (plain.ops, plain.resp_bytes));
        assert!(traced.converge_virtual_ms > 0.0, "the weak arm replicates with a delay");
        let (reads, writes) = (rec.totals(SPAN_READ).count, rec.totals(SPAN_WRITE).count);
        assert_eq!(reads + writes, traced.ops);
        assert!(writes * 5 < reads, "one op in ten writes");
        assert_eq!(rec.totals(SPAN_TICK).count, traced.ops);
        assert_ne!(live_replay(WIRE_MIXED, 22, None).unwrap().output_hash, plain.output_hash);
    }

    #[test]
    fn read_only_replay_serves_the_whole_corpus_every_time() {
        let out = live_replay(WIRE_READ, 5, None).expect("replay");
        // header 17 + req id 4 + 8 posts × 8 bytes
        assert_eq!(out.resp_bytes, out.ops * (17 + 4 + 8 * 8));
        assert_eq!(out.converge_virtual_ms, 0.0);
    }

    #[test]
    fn micro_probes_set_their_metrics() {
        let mut values = Values::default();
        store_probe(&mut values);
        dispatch_probe(1, &mut values);
        obs_probe(&mut values);
        for name in [
            "store.replica.apply_new_ns",
            "store.replica.snapshot_hit_ns",
            "store.replica.snapshot_rebuild_ns",
            "sim.world.dispatch_ns_per_event",
            "obs.counter_inc_ns",
        ] {
            assert!(values.get(name).unwrap() > 0.0, "{name}");
        }
        let (hit, rebuild) = (
            values.get("store.replica.snapshot_hit_ns").unwrap(),
            values.get("store.replica.snapshot_rebuild_ns").unwrap(),
        );
        assert!(rebuild > hit, "a rebuild ({rebuild} ns) must cost more than a hit ({hit} ns)");
    }
}
