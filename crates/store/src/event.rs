//! Posts — the write events of the paper's model.
//!
//! A *write request creates an event that is inserted into the service
//! state*; a *read request returns a sequence of events* (§III). A
//! [`PostId`] is globally unique and deterministic: the author id plus the
//! author's own sequence number. This mirrors how the paper's tests name
//! messages M1…M6 by writer and position.

use conprobe_json::{read_members, FromJson, JsonError, JsonReader, JsonWriter, ToJson};
use conprobe_sim::{LocalTime, SimTime};
use std::fmt;
use std::sync::Arc;

/// Identifies a writing client (an agent in the measurement study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AuthorId(pub u32);

impl fmt::Display for AuthorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Globally unique post identifier: `(author, author-local sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PostId {
    /// The writing client.
    pub author: AuthorId,
    /// 1-based sequence number within the author's session.
    pub seq: u32,
}

impl PostId {
    /// Creates a post id.
    pub const fn new(author: AuthorId, seq: u32) -> Self {
        PostId { author, seq }
    }

    /// Packs the id into a single `u64` (author in the high 32 bits).
    pub const fn as_u64(self) -> u64 {
        ((self.author.0 as u64) << 32) | self.seq as u64
    }

    /// Unpacks an id produced by [`PostId::as_u64`].
    pub const fn from_u64(raw: u64) -> Self {
        PostId { author: AuthorId((raw >> 32) as u32), seq: raw as u32 }
    }
}

impl fmt::Display for PostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.author, self.seq)
    }
}

impl ToJson for AuthorId {
    fn write_json(&self, w: &mut JsonWriter) {
        self.0.write_json(w);
    }
}

impl FromJson for AuthorId {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        u32::read_json(r).map(AuthorId)
    }
}

impl ToJson for PostId {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("author", &self.author);
        w.member("seq", &self.seq);
        w.end_object();
    }
}

impl FromJson for PostId {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        read_members!(r => author, seq);
        Ok(PostId { author, seq })
    }
}

/// A post as submitted by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Post {
    /// Unique identifier.
    pub id: PostId,
    /// Message body (opaque to the infrastructure). Shared, not copied:
    /// the origin replica, every replication push, every peer and every
    /// materialised view hold the one allocation the write arrived in.
    pub content: Arc<str>,
    /// The writer's local clock reading at submission time.
    pub client_ts: LocalTime,
}

impl Post {
    /// Creates a post.
    pub fn new(id: PostId, content: impl Into<Arc<str>>, client_ts: LocalTime) -> Self {
        Post { id, content: content.into(), client_ts }
    }
}

/// A post as held by a replica, annotated with server-side metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredPost {
    /// The post itself.
    pub post: Post,
    /// Server timestamp assigned by the replica that first accepted the
    /// write (used by timestamp-based ordering policies).
    pub server_ts: SimTime,
    /// Position in this replica's arrival order (used by arrival-based
    /// ordering policies; rewritten by canonical re-sequencing).
    pub arrival_index: u64,
}

impl StoredPost {
    /// Shorthand for the post id.
    pub fn id(&self) -> PostId {
        self.post.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_id_packs_and_unpacks() {
        let id = PostId::new(AuthorId(3), 7);
        assert_eq!(PostId::from_u64(id.as_u64()), id);
        assert_eq!(id.to_string(), "a3#7");
    }

    #[test]
    fn post_id_round_trip_extremes() {
        for (a, s) in [(0, 0), (u32::MAX, u32::MAX), (1, u32::MAX), (u32::MAX, 1)] {
            let id = PostId::new(AuthorId(a), s);
            assert_eq!(PostId::from_u64(id.as_u64()), id);
        }
    }

    #[test]
    fn post_id_orders_by_author_then_seq() {
        assert!(PostId::new(AuthorId(1), 9) < PostId::new(AuthorId(2), 1));
        assert!(PostId::new(AuthorId(1), 1) < PostId::new(AuthorId(1), 2));
    }

    #[test]
    fn post_id_json_round_trips_and_keeps_its_member_order() {
        let id = PostId::new(AuthorId(u32::MAX), 7);
        assert_eq!(id.to_compact(), r#"{"author":4294967295,"seq":7}"#);
        assert_eq!(PostId::from_json_str(r#"{"seq":7,"extra":[],"author":4294967295}"#), Ok(id));
        assert!(PostId::from_json_str(r#"{"author":4294967296,"seq":7}"#).is_err());
        assert!(PostId::from_json_str(r#"{"author":1}"#).is_err());
    }

    #[test]
    fn post_construction() {
        let p = Post::new(PostId::new(AuthorId(0), 1), "hello", LocalTime::from_nanos(5));
        assert_eq!(&*p.content, "hello");
        assert_eq!(p.client_ts.as_nanos(), 5);
    }
}
