//! The wire protocol: client requests, service responses, replication
//! traffic, and an application slot for harness-level messages.
//!
//! [`NetMsg`] is generic over `A`, the application message type. Service
//! nodes only ever look at the `Request`/`Repl` variants and pass everything
//! else by; the harness instantiates `A` with its coordinator↔agent
//! protocol (clock-sync probes, test control) so that *all* traffic —
//! measurement and measured — flows over the same simulated WAN, exactly as
//! in the paper's deployment.

use conprobe_core::ReadView;
use conprobe_sim::BrownoutMode;
use conprobe_store::{Post, PostId, StoredPost};
use std::collections::HashSet;
use std::sync::Arc;

/// A client-visible operation, per the paper's model (§III): writes create
/// one event; reads return the current event sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientOp {
    /// Publish a post.
    Write(Post),
    /// Fetch the current sequence of posts.
    Read,
}

/// A service's reply to a [`ClientOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// The write was accepted (this is the service's *acknowledgement*; the
    /// write may become visible later).
    WriteAck(PostId),
    /// The read result, in the order the service presents it: the view
    /// the serving replica handed out, shared rather than copied.
    ReadOk(ReadView<PostId>),
    /// The service's rate limit rejected the operation.
    Throttled,
}

/// Service-internal replication traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// Asynchronous propagation of freshly applied posts.
    Push(Vec<StoredPost>),
    /// Synchronous propagation: like `Push`, but the sender is waiting for
    /// a [`ReplMsg::PushAck`] before acknowledging a client write
    /// (majority-synchronous write mode).
    SyncPush {
        /// Correlation token for the ack.
        token: u64,
        /// The posts to apply.
        posts: Vec<StoredPost>,
    },
    /// Acknowledgement of a [`ReplMsg::SyncPush`].
    PushAck {
        /// The echoed correlation token.
        token: u64,
    },
    /// Quorum-read request: send me your current snapshot.
    SnapshotReq {
        /// Correlation token for the response.
        token: u64,
    },
    /// Quorum-read response.
    SnapshotResp {
        /// The echoed correlation token.
        token: u64,
        /// The responder's full stored state: its shared snapshot.
        posts: Arc<[StoredPost]>,
    },
    /// Anti-entropy request carrying the requester's digest.
    DigestReq(HashSet<PostId>),
    /// Anti-entropy response: the posts the requester was missing.
    DigestResp(Vec<StoredPost>),
    /// State-transfer request from a recovering quorum replica: send me a
    /// checksummed snapshot of your state plus your commit watermark.
    CatchupReq {
        /// Correlation token identifying one state-transfer round.
        token: u64,
    },
    /// State-transfer response: the responder's full state as `cpj1`
    /// length-prefixed, checksummed records (one stored post per frame,
    /// the campaign journal's record format), plus its commit watermark.
    /// The recovering replica verifies every frame before applying it
    /// and serves no reads until caught up past the highest watermark
    /// heard from a majority (read fencing).
    CatchupResp {
        /// The echoed correlation token.
        token: u64,
        /// The responder's commit watermark (posts it has applied).
        watermark: u64,
        /// Framed stored-post records (`conprobe_json::frame` encoding).
        frames: Vec<String>,
    },
    /// Ordered-log consensus traffic for the PBFT-style arm
    /// (pre-prepare/prepare/commit, view changes, state transfer) —
    /// opaque to every other replica family.
    Pbft(crate::pbft::PbftMsg),
}

/// Fault-injection control messages (harness instrumentation, not part of
/// the black-box client surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Crash the replica: volatile state is lost, and every message is
    /// ignored until recovery.
    Crash,
    /// Restart the replica with empty state; periodic anti-entropy (if
    /// configured) re-fills it from the peers.
    Recover,
    /// Put the front door into a brownout: client requests are mistreated
    /// per the mode (throttle storm or delayed service) while replication
    /// and internal traffic continue normally.
    BrownoutStart(BrownoutMode),
    /// End the brownout; client requests are served normally again.
    BrownoutEnd,
}

/// Everything that flows over the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMsg<A> {
    /// Client → service front door.
    Request {
        /// Client-chosen correlation id, echoed in the response.
        req_id: u64,
        /// The operation.
        op: ClientOp,
    },
    /// Service → client.
    Response {
        /// The correlation id of the request this answers.
        req_id: u64,
        /// The outcome.
        result: OpResult,
    },
    /// Replica ↔ replica.
    Repl(ReplMsg),
    /// Fault injection (harness → replica).
    Control(ControlMsg),
    /// Application-level (harness) traffic; services ignore it.
    App(A),
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_sim::LocalTime;
    use conprobe_store::AuthorId;

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let post = Post::new(PostId::new(AuthorId(1), 1), "hi", LocalTime::from_nanos(0));
        let m: NetMsg<()> = NetMsg::Request { req_id: 7, op: ClientOp::Write(post) };
        assert_eq!(m.clone(), m);
        let r: NetMsg<()> =
            NetMsg::Response { req_id: 7, result: OpResult::WriteAck(PostId::new(AuthorId(1), 1)) };
        assert_ne!(format!("{r:?}"), "");
    }

    #[test]
    fn app_slot_carries_arbitrary_payloads() {
        let m: NetMsg<&str> = NetMsg::App("clock-probe");
        match m {
            NetMsg::App(p) => assert_eq!(p, "clock-probe"),
            _ => panic!("wrong variant"),
        }
    }
}
