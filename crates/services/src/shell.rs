//! What every sim replica type shares, written once and held by
//! composition: the fault-driver [`FrontDoor`] and the fenced `cpj1`
//! [`Catchup`] round.
//!
//! [`ReplicaNode`](crate::replica_node::ReplicaNode),
//! [`QuorumReplica`](crate::quorum::QuorumReplica) and
//! [`PbftReplica`](crate::pbft::PbftReplica) each keep a protocol core of
//! their own; the shell in front of it — crash flag, brownout gate, held
//! requests, request counters, timer tokens, the per-replica metrics and
//! the `services` event log — is this one value. The two strong arms
//! recover through one state-transfer round, keep one record of it
//! ([`Transfers`]) and show the wall-clock driver one face ([`Hosted`]).

use crate::api::{ClientOp, ControlMsg, NetMsg, OpResult, ReplMsg};
use conprobe_json::{frame, FastMap, FastSet};
use conprobe_obs::{Counter, Gauge, ObsSink, Severity};
use conprobe_sim::{BrownoutMode, Context, NodeId, SimDuration, SimTime};

/// Timer-token kind: a brownout-held client request.
const TOKEN_KIND_DELAY: u64 = 3 << 62;
/// The two kind bits of a timer token (see [`FrontDoor::fresh_token`]).
pub(crate) const TOKEN_KIND_MASK: u64 = 3 << 62;
/// Fixed timer token: re-ask the peers that have not streamed state yet
/// (requests or responses may be lost to fault injection).
pub(crate) const TOKEN_CATCHUP_RETRY: u64 = 0;
/// How long a fenced replica waits before re-asking unanswered peers.
const CATCHUP_RETRY: SimDuration = SimDuration::from_millis(500);
/// Most client operations a door holds waiting (behind the fence, or for
/// a quorum or a leader that is not there). A sim agent keeps one
/// operation in flight, so no sim run comes near it; a live door that
/// cannot answer is retried with a fresh request each time and would
/// otherwise grow, and rescan, its queues for as long as it is probed.
pub(crate) const MAX_WAITING_OPS: usize = 1024;

/// A process-state change the owning replica must follow up on: wipe its
/// own volatile protocol state, or re-arm and start recovering.
pub(crate) enum Transition {
    /// The replica just crashed.
    Crashed,
    /// The replica just restarted (empty).
    Recovered,
}

/// The common per-replica metrics, under `services.replica.n<id>.`, and
/// the event log. Instrumentation only: it draws no randomness and sends
/// nothing, so behaviour is identical whether or not a sink is installed.
struct DoorObs {
    sink: ObsSink,
    applied: Gauge,
    brownout: Gauge,
    writes: Counter,
    reads: Counter,
    throttled: Counter,
}

/// The front door of one replica as the fault driver and its clients see
/// it. Every control transition is an idempotent no-op when the state
/// already holds: the driver retransmits controls over the (possibly
/// lossy) network, so a duplicate must neither re-fire nor re-log.
pub(crate) struct FrontDoor {
    /// True while crashed: every message except [`ControlMsg`] is ignored.
    crashed: bool,
    /// Active brownout. Survives a crash: it models an external overload
    /// condition, not volatile process state.
    brownout: Option<BrownoutMode>,
    /// Client requests held by a [`BrownoutMode::Delay`] brownout, keyed
    /// by the hold timer's token.
    delayed_requests: FastMap<u64, (NodeId, u64, ClientOp)>,
    /// `(writes, reads, throttled)` counters for tests/diagnostics.
    stats: (u64, u64, u64),
    next_token: u64,
    /// Answer clients over the FIFO link (the ordered-log arm pins a
    /// read's content at its slot, so answers must not overtake).
    ordered_replies: bool,
    /// Resolved in [`FrontDoor::start`]; `None` means telemetry is off.
    obs: Option<DoorObs>,
}

impl FrontDoor {
    /// A running, un-browned-out door whose token counter starts at
    /// `first_token`.
    pub(crate) fn new(first_token: u64, ordered_replies: bool) -> Self {
        FrontDoor {
            crashed: false,
            brownout: None,
            delayed_requests: FastMap::default(),
            stats: (0, 0, 0),
            next_token: first_token,
            ordered_replies,
            obs: None,
        }
    }

    /// Resolves the metric handles from the world's sink (`on_start`).
    pub(crate) fn start<A>(&mut self, ctx: &Context<'_, NetMsg<A>>) {
        self.obs = ctx.obs().map(|sink| {
            let prefix = metric_prefix(ctx.node_id());
            let m = &sink.metrics;
            DoorObs {
                applied: m.gauge(&format!("{prefix}.applied")),
                brownout: m.gauge(&format!("{prefix}.brownout")),
                writes: m.counter(&format!("{prefix}.writes")),
                reads: m.counter(&format!("{prefix}.reads")),
                throttled: m.counter(&format!("{prefix}.throttled")),
                sink: sink.clone(),
            }
        });
    }

    pub(crate) fn is_crashed(&self) -> bool {
        self.crashed
    }

    pub(crate) fn brownout(&self) -> Option<BrownoutMode> {
        self.brownout
    }

    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        self.stats
    }

    /// The next timer/correlation token, tagged with `kind` bits.
    pub(crate) fn fresh_token(&mut self, kind: u64) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        kind | t
    }

    /// Logs a structured `services` event; the message closure only runs
    /// when a sink is installed and its filters would accept it.
    pub(crate) fn event(&self, now: SimTime, severity: Severity, message: impl FnOnce() -> String) {
        if let Some(obs) = &self.obs {
            if obs.sink.log.enabled(severity, "services") {
                obs.sink.log.record(now.as_nanos(), severity, "services", message());
            }
        }
    }

    /// Publishes the replica's applied-post count.
    pub(crate) fn set_applied(&self, posts: usize) {
        if let Some(obs) = &self.obs {
            obs.applied.set(posts as f64);
        }
    }

    pub(crate) fn count_write(&mut self) {
        self.stats.0 += 1;
        if let Some(obs) = &self.obs {
            obs.writes.inc();
        }
    }

    pub(crate) fn count_read(&mut self) {
        self.stats.1 += 1;
        if let Some(obs) = &self.obs {
            obs.reads.inc();
        }
    }

    pub(crate) fn count_throttled(&mut self) {
        self.stats.2 += 1;
        if let Some(obs) = &self.obs {
            obs.throttled.inc();
        }
    }

    /// The bound on waiting operations: a door already holding
    /// [`MAX_WAITING_OPS`] takes no more and the client is told to retry.
    /// Returns whether the operation was refused.
    pub(crate) fn refuse_if_full<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        held: usize,
        client: NodeId,
        req_id: u64,
    ) -> bool {
        if held < MAX_WAITING_OPS {
            return false;
        }
        self.count_throttled();
        self.respond(ctx, client, req_id, OpResult::Throttled);
        true
    }

    /// Answers a client.
    pub(crate) fn respond<A>(
        &self,
        ctx: &mut Context<'_, NetMsg<A>>,
        client: NodeId,
        req_id: u64,
        result: OpResult,
    ) {
        let msg = NetMsg::Response { req_id, result };
        if self.ordered_replies {
            ctx.send_ordered(client, msg);
        } else {
            ctx.send(client, msg);
        }
    }

    /// Applies one fault-driver control. Crash and brownout bookkeeping
    /// (and their narration) happen here; the returned transition tells
    /// the replica to wipe, or to re-arm and recover, its *own* state.
    /// `recover_note` completes the restart line for arms that recover
    /// by state transfer.
    pub(crate) fn on_control<A>(
        &mut self,
        ctx: &Context<'_, NetMsg<A>>,
        msg: &ControlMsg,
        recover_note: &str,
    ) -> Option<Transition> {
        let (now, node) = (ctx.true_now(), ctx.node_id());
        match msg {
            ControlMsg::Crash if !self.crashed => {
                // Held client requests die with the process.
                self.crashed = true;
                self.delayed_requests.clear();
                self.set_applied(0);
                self.event(now, Severity::Warn, || format!("replica {node} crashed"));
                Some(Transition::Crashed)
            }
            ControlMsg::Recover if self.crashed => {
                self.crashed = false;
                self.event(now, Severity::Info, || {
                    format!("replica {node} recovered{recover_note}")
                });
                Some(Transition::Recovered)
            }
            ControlMsg::BrownoutStart(mode) if self.brownout != Some(*mode) => {
                self.brownout = Some(*mode);
                self.set_brownout_gauge(1.0);
                self.event(now, Severity::Warn, || {
                    format!("replica {node} brownout start: {mode:?}")
                });
                None
            }
            ControlMsg::BrownoutEnd if self.brownout.is_some() => {
                self.brownout = None;
                self.set_brownout_gauge(0.0);
                self.event(now, Severity::Info, || format!("replica {node} brownout end"));
                None
            }
            _ => None, // duplicate delivery of an already-applied transition
        }
    }

    fn set_brownout_gauge(&self, v: f64) {
        if let Some(obs) = &self.obs {
            obs.brownout.set(v);
        }
    }

    /// The brownout gate in front of `handle_request`: a browned-out door
    /// mistreats client traffic before any normal processing — a throttle
    /// storm rejects, delayed service holds the request on a timer (see
    /// [`FrontDoor::release`]). Returns the op when it is to be served
    /// now.
    pub(crate) fn admit<A>(
        &mut self,
        ctx: &mut Context<'_, NetMsg<A>>,
        from: NodeId,
        req_id: u64,
        op: ClientOp,
    ) -> Option<ClientOp> {
        match self.brownout {
            Some(BrownoutMode::ThrottleStorm) => {
                self.count_throttled();
                self.respond(ctx, from, req_id, OpResult::Throttled);
                None
            }
            Some(BrownoutMode::Delay(hold)) => {
                let token = self.fresh_token(TOKEN_KIND_DELAY);
                self.delayed_requests.insert(token, (from, req_id, op));
                ctx.set_timer(hold, token);
                None
            }
            None => Some(op),
        }
    }

    /// The held request whose delay `token` timed, if it is one: serve it
    /// now, whether or not the brownout has since ended.
    pub(crate) fn release(&mut self, token: u64) -> Option<(NodeId, u64, ClientOp)> {
        if token & TOKEN_KIND_MASK != TOKEN_KIND_DELAY {
            return None;
        }
        self.delayed_requests.remove(&token)
    }
}

/// `services.replica.n<id>` — the per-replica metric namespace.
pub(crate) fn metric_prefix(node: NodeId) -> String {
    format!("services.replica.{node}")
}

/// A replica's completed state transfers.
#[derive(Default)]
pub(crate) struct Transfers {
    /// `(frames, watermark, stream_hash)` each, in completion order — the
    /// byte-determinism witness.
    pub(crate) records: Vec<(u64, u64, u64)>,
    /// Peers that streamed the latest one.
    pub(crate) donors: usize,
}

impl Transfers {
    /// Records what [`Catchup::finish`] returned.
    pub(crate) fn push(&mut self, (record, donors): ((u64, u64, u64), usize)) {
        self.records.push(record);
        self.donors = donors;
    }
}

/// What the wall-clock driver ([`crate::hosted`]) reads off a replica it
/// hosts, whichever arm it is.
pub(crate) trait Hosted {
    /// Posts applied.
    fn applied(&self) -> usize;
    /// Completed state transfers.
    fn transfers(&self) -> &Transfers;
    /// `(view, leader, views entered)` at a running replica of an arm that
    /// has views.
    fn view_status(&self) -> Option<(u64, usize, u64)> {
        None
    }
}

/// One in-progress state transfer (this replica is the recovering side):
/// peers stream their state as `cpj1` frames plus a watermark, and the
/// replica stays fenced until enough of them have been verified and it
/// has caught up past the highest watermark heard. Parameterised by the
/// frame decoder; the owner supplies the quorum and its own progress.
pub(crate) struct Catchup<T> {
    /// Correlation token; responses carrying any other token are stale.
    token: u64,
    /// Peers whose stream has been verified.
    heard: FastSet<NodeId>,
    /// Highest watermark heard from any responder.
    watermark: u64,
    /// Total frames verified across responders.
    frames: u64,
    /// Running FNV-1a over every verified frame, in arrival order — the
    /// byte-determinism witness logged on completion.
    stream_hash: u64,
    decode: fn(&str) -> Result<T, String>,
    /// Checks each decoded item against the responder's watermark and
    /// its stream's frame count (see [`Catchup::admitting`]); an error
    /// refuses the stream whole.
    admit: fn(T, u64, u64) -> Result<T, String>,
}

impl<T> Catchup<T> {
    pub(crate) fn new(token: u64, decode: fn(&str) -> Result<T, String>) -> Self {
        Catchup {
            token,
            heard: FastSet::default(),
            watermark: 0,
            frames: 0,
            stream_hash: frame::FNV64_BASIS,
            decode,
            admit: |item, _, _| Ok(item),
        }
    }

    /// The round with `admit` as its per-item watermark check.
    pub(crate) fn admitting(self, admit: fn(T, u64, u64) -> Result<T, String>) -> Self {
        Catchup { admit, ..self }
    }

    /// Asks every peer that has not streamed state yet, and keeps the
    /// retry timer alive while the fence is up.
    pub(crate) fn solicit<A>(
        &self,
        ctx: &mut Context<'_, NetMsg<A>>,
        peers: impl IntoIterator<Item = NodeId>,
        request: impl Fn(u64) -> ReplMsg,
    ) {
        for peer in peers {
            if !self.heard.contains(&peer) {
                ctx.send(peer, NetMsg::Repl(request(self.token)));
            }
        }
        ctx.set_timer(CATCHUP_RETRY, TOKEN_CATCHUP_RETRY);
    }

    /// Verifies every frame before yielding any of it, then folds the
    /// stream into the frame count and hash: a corrupt or inadmissible
    /// stream is refused whole and leaves the round untouched.
    fn verify(&mut self, frames: &[String], watermark: u64) -> Result<Vec<T>, String> {
        let count = frames.len() as u64;
        let admit = |line: &String| (self.admit)((self.decode)(line)?, watermark, count);
        let items = frames.iter().map(admit).collect::<Result<Vec<T>, String>>()?;
        self.frames += frames.len() as u64;
        for line in frames {
            self.stream_hash = frame::fnv64_fold(self.stream_hash, line.as_bytes());
        }
        Ok(items)
    }

    /// One responder's stream: `None` for a stale round or a duplicate
    /// responder, an error for a refused stream (narrated; the retry
    /// re-requests).
    pub(crate) fn accept<A>(
        &mut self,
        door: &FrontDoor,
        ctx: &Context<'_, NetMsg<A>>,
        from: NodeId,
        token: u64,
        watermark: u64,
        frames: &[String],
    ) -> Option<Result<Vec<T>, String>> {
        if self.token != token || self.heard.contains(&from) {
            return None;
        }
        let verified = self.verify(frames, watermark);
        match &verified {
            Ok(_) => {
                self.heard.insert(from);
                self.watermark = self.watermark.max(watermark);
            }
            Err(reason) => {
                let node = ctx.node_id();
                door.event(ctx.true_now(), Severity::Warn, || {
                    format!("replica {node} refused catch-up stream from {from}: {reason}")
                });
            }
        }
        Some(verified)
    }

    /// Whether the fence may lift: `quorum` peers heard and local progress
    /// `local` at or past the highest watermark.
    pub(crate) fn caught_up(&self, quorum: usize, local: u64) -> bool {
        self.heard.len() >= quorum && local >= self.watermark
    }

    /// Narrates the completed transfer (`state` says what the replica now
    /// holds) and yields its `(frames, watermark, stream_hash)` record with
    /// the number of peers that streamed it.
    pub(crate) fn finish<A>(
        self,
        door: &FrontDoor,
        ctx: &Context<'_, NetMsg<A>>,
        state: impl FnOnce() -> String,
    ) -> ((u64, u64, u64), usize) {
        let node = ctx.node_id();
        door.event(ctx.true_now(), Severity::Info, || {
            format!(
                "replica {node} state transfer complete: {} frame(s) from {} peer(s), \
                 watermark {}, {}, stream hash {:016x}",
                self.frames,
                self.heard.len(),
                self.watermark,
                state(),
                self.stream_hash,
            )
        });
        ((self.frames, self.watermark, self.stream_hash), self.heard.len())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use conprobe_json::testkit;

    /// Mutation fuzz of a catch-up decoder, in the shape of `wire::frame`'s:
    /// each byte of each frame of `frames` — magic, length, checksum,
    /// separators, payload, newline — flipped four ways. Every damaged
    /// stream is refused whole and leaves the round untouched, nothing
    /// panics, and the undamaged stream is then accepted.
    pub(crate) fn damaged_streams_are_refused_whole<T>(
        decode: fn(&str) -> Result<T, String>,
        frames: &[String],
    ) {
        let mut round = Catchup::new(1, decode);
        for (i, line) in frames.iter().enumerate() {
            for (pos, flip, bytes) in testkit::flips(line.as_bytes()) {
                // Frames travel as `String`s: bytes that are not UTF-8
                // never reach a decoder.
                let Ok(damaged) = String::from_utf8(bytes) else { continue };
                let mut stream = frames.to_vec();
                stream[i] = damaged;
                let at = format!("frame {i}, byte {pos} ^ {flip:#04x}");
                assert!(round.verify(&stream, 0).is_err(), "{at}");
                assert_eq!((round.frames, round.stream_hash), (0, frame::FNV64_BASIS), "{at}");
            }
        }
        assert_eq!(round.verify(frames, 0).map(|items| items.len()), Ok(frames.len()));
    }

    /// Each hostile stream a round was handed, with what it made of it.
    pub(crate) type Verdicts<T> = Vec<(Vec<String>, Result<Vec<T>, String>)>;

    /// Value-mode fuzz of a catch-up round: each integer of each frame's
    /// record set to its edge values and re-framed under a valid checksum.
    /// Every hostile stream is refused whole, leaving the round untouched,
    /// or admitted whole; nothing panics. Returns each stream with its
    /// verdict, for the caller to carry further.
    pub(crate) fn hostile_values_are_refused_whole_or_admitted<T>(
        round: &mut Catchup<T>,
        frames: &[String],
    ) -> Verdicts<T> {
        let mut verdicts = Vec::new();
        for (i, line) in frames.iter().enumerate() {
            for hostile in testkit::record_values(line) {
                let mut stream = frames.to_vec();
                stream[i] = hostile;
                let before = (round.frames, round.stream_hash);
                let verdict = round.verify(&stream, 0);
                match &verdict {
                    Ok(items) => assert_eq!(items.len(), stream.len()),
                    Err(_) => assert_eq!((round.frames, round.stream_hash), before, "{stream:?}"),
                }
                verdicts.push((stream, verdict));
            }
        }
        let admitted = verdicts.iter().filter(|(_, verdict)| verdict.is_ok()).count();
        assert!(admitted > 0 && admitted < verdicts.len(), "{admitted} of {}", verdicts.len());
        verdicts
    }
}
