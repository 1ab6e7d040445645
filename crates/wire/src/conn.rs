//! The one non-blocking framed buffer under `serve`, `chaosd` and `load`.
//!
//! A [`FrameBuf`] is the in/out buffer pair of one non-blocking `cpw1`
//! stream. [`FrameBuf::fill`] and [`FrameBuf::flush`] are the only place
//! in the crate where a `read`/`write` on a data stream is matched on
//! `WouldBlock`/`Interrupted`, and [`reclaim`] is the only consumed-prefix
//! compaction. Both are generic over `io::Read`/`io::Write`, so the
//! per-connection state machines built on them (`server::Conn`,
//! `chaos::Direction`, `pipeline::PipeConn`) run unchanged over a
//! `TcpStream` or an in-memory stream, and take *time as an argument*: a
//! `now` in nanoseconds on their loop's epoch, never a clock.

use crate::frame::{HEADER_LEN, MAX_PAYLOAD};
use std::io::{self, ErrorKind, Read, Write};
use std::time::Duration;

/// Soft cap on unconsumed inbound bytes: [`FrameBuf::fill`] stops reading
/// at it, so one fire-hose peer cannot starve its loop-mates or grow a
/// buffer without limit; frames already buffered are always served. One
/// maximum frame, so a partial head frame is below it and can complete.
pub(crate) const READ_BACKLOG_CAP: usize = HEADER_LEN + MAX_PAYLOAD;

/// A consumed prefix longer than this is compacted away.
const COMPACT_AT: usize = 64 * 1024;

/// Inbound and outbound bytes of one non-blocking stream; consuming or
/// sending advances a position instead of memmoving the buffer.
#[derive(Default)]
pub(crate) struct FrameBuf {
    inbuf: Vec<u8>,
    inpos: usize,
    outbuf: Vec<u8>,
    outpos: usize,
    eof: bool,
}

/// Drops the consumed prefix `..pos`: for free once everything is
/// consumed, by one memmove once the prefix is large.
fn reclaim(buf: &mut Vec<u8>, pos: &mut usize) {
    if *pos == buf.len() {
        buf.clear();
        *pos = 0;
    } else if *pos > COMPACT_AT {
        buf.drain(..*pos);
        *pos = 0;
    }
}

impl FrameBuf {
    /// Reads `src` until it would block, ends, returns a short read (the
    /// socket is drained; skip the syscall that would say so), or `cap`
    /// unconsumed bytes are held. `Ok(true)` when bytes arrived.
    pub(crate) fn fill<R: Read>(
        &mut self,
        src: &mut R,
        scratch: &mut [u8],
        cap: usize,
    ) -> io::Result<bool> {
        let mut progressed = false;
        while !self.eof && self.unread().len() < cap {
            match src.read(scratch) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    progressed = true;
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(progressed)
    }

    /// True once the source has reported end of stream.
    pub(crate) fn eof(&self) -> bool {
        self.eof
    }

    /// The unconsumed inbound bytes.
    pub(crate) fn unread(&self) -> &[u8] {
        &self.inbuf[self.inpos..]
    }

    /// The unconsumed inbound bytes beside the outbound buffer, for
    /// answering a request out of the bytes it arrived in.
    pub(crate) fn split(&mut self) -> (&[u8], &mut Vec<u8>) {
        (&self.inbuf[self.inpos..], &mut self.outbuf)
    }

    /// Marks the first `n` unread bytes consumed.
    pub(crate) fn consume(&mut self, n: usize) {
        self.inpos += n;
        reclaim(&mut self.inbuf, &mut self.inpos);
    }

    /// The outbound buffer, to append to.
    pub(crate) fn out(&mut self) -> &mut Vec<u8> {
        &mut self.outbuf
    }

    /// Outbound bytes not yet written.
    pub(crate) fn unsent(&self) -> usize {
        self.outbuf.len() - self.outpos
    }

    /// Writes as much of the outbound buffer as `dst` accepts; `Ok(true)`
    /// when bytes moved. On a blocking `dst` this is `write_all`.
    pub(crate) fn flush<W: Write>(&mut self, dst: &mut W) -> io::Result<bool> {
        let mut wrote = false;
        while self.outpos < self.outbuf.len() {
            match dst.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outpos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        reclaim(&mut self.outbuf, &mut self.outpos);
        Ok(wrote)
    }
}

/// Nanoseconds between a serving loop's accept polls, and the longest a
/// loop holding no connection sleeps between passes.
pub(crate) const ACCEPT_EVERY: u64 = 1_000_000;

/// How long a serving loop that holds `held` connections sleeps after a
/// pass, at `now`, when its next timed duty (accept poll, tick) falls at
/// `deadline`: a loop with no connection has nothing to sweep, so it
/// sleeps until that duty, and never longer than [`ACCEPT_EVERY`]; `None`
/// leaves a loop with connections to its [`IdleBackoff`] ladder.
pub(crate) fn idle_nap(held: usize, deadline: u64, now: u64) -> Option<Duration> {
    (held == 0).then(|| Duration::from_nanos(deadline.saturating_sub(now).min(ACCEPT_EVERY)))
}

/// What a sweep loop does between sweeps that moved nothing: yield first
/// — on a saturated core the peer's thread likely holds the next bytes,
/// and a yield hands it the CPU at context-switch cost instead of a 50 µs
/// timer wait — and sleep only once yields keep coming back with no work.
#[derive(Default)]
pub(crate) struct IdleBackoff(u32);

impl IdleBackoff {
    pub(crate) fn after_sweep(&mut self, progressed: bool) {
        self.0 = if progressed { 0 } else { self.0.saturating_add(1) };
        match self.0 {
            0 => {}
            1..=256 => std::thread::yield_now(),
            _ => std::thread::sleep(Duration::from_micros(50)),
        }
    }
}

/// In-memory streams for the state-machine tests: no socket, no clock.
#[cfg(test)]
pub(crate) mod mem {
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::io::{self, ErrorKind, Read, Write};

    /// One direction of an in-memory link: the bytes written and not yet
    /// read. Never blocks: an empty pipe reads `WouldBlock` (or end of
    /// stream once `closed`), one without `room` writes `WouldBlock`.
    pub(crate) struct Pipe {
        pub bytes: VecDeque<u8>,
        /// The writer hung up: reads end of stream once drained.
        pub closed: bool,
        /// Bytes the reader will still take before writes are refused
        /// (`0`: it stopped reading; `usize::MAX`: it never does).
        pub room: usize,
        /// Most bytes one `read`/`write` call moves.
        pub chunk: usize,
    }

    impl Default for Pipe {
        fn default() -> Pipe {
            Pipe { bytes: VecDeque::new(), closed: false, room: usize::MAX, chunk: usize::MAX }
        }
    }

    impl Pipe {
        pub(crate) fn holding(bytes: &[u8]) -> Pipe {
            Pipe { bytes: bytes.iter().copied().collect(), ..Pipe::default() }
        }

        pub(crate) fn take(&mut self) -> Vec<u8> {
            self.bytes.drain(..).collect()
        }
    }

    /// One end of a link: reads `rx`, writes `tx`.
    pub(crate) struct End<'a> {
        pub rx: &'a mut Pipe,
        pub tx: &'a mut Pipe,
    }

    impl Read for End<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.rx.chunk).min(self.rx.bytes.len());
            if n == 0 && !buf.is_empty() {
                return if self.rx.closed { Ok(0) } else { Err(ErrorKind::WouldBlock.into()) };
            }
            for (slot, byte) in buf.iter_mut().zip(self.rx.bytes.drain(..n)) {
                *slot = byte;
            }
            Ok(n)
        }
    }

    impl Write for End<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.tx.chunk).min(self.tx.room);
            if n == 0 && !buf.is_empty() {
                return Err(ErrorKind::WouldBlock.into());
            }
            if self.tx.room != usize::MAX {
                self.tx.room -= n;
            }
            self.tx.bytes.extend(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A two-way in-memory link between an `a` end and a `b` end.
    #[derive(Default)]
    pub(crate) struct Link {
        pub a_to_b: Pipe,
        pub b_to_a: Pipe,
    }

    impl Link {
        pub(crate) fn a(&mut self) -> End<'_> {
            End { rx: &mut self.b_to_a, tx: &mut self.a_to_b }
        }

        pub(crate) fn b(&mut self) -> End<'_> {
            End { rx: &mut self.a_to_b, tx: &mut self.b_to_a }
        }
    }

    /// Every frame of `bytes`, which must be whole `cpw1` frames and
    /// nothing else — what a peer has put on the wire behind a flush.
    pub(crate) fn frames(mut bytes: &[u8]) -> Vec<crate::frame::Frame> {
        let mut frames = Vec::new();
        while let Some((frame, used)) = crate::frame::decode(bytes).expect("the peer speaks cpw1") {
            frames.push(frame);
            bytes = &bytes[used..];
        }
        assert!(bytes.is_empty(), "a flushed stream never ends mid-frame");
        frames
    }

    /// A fabricated clock: nanoseconds the test sets, read through
    /// [`FakeClock::read`]'s closure where a socket loop would read
    /// `Instant::now`. It counts its reads, and can advance by a fixed
    /// step on each.
    #[derive(Default)]
    pub(crate) struct FakeClock {
        nanos: Cell<u64>,
        step: Cell<u64>,
        reads: Cell<u64>,
    }

    impl FakeClock {
        pub(crate) fn set(&self, nanos: u64) {
            self.nanos.set(nanos);
        }

        /// Every later read first advances the clock by `nanos`.
        pub(crate) fn tick_per_read(&self, nanos: u64) {
            self.step.set(nanos);
        }

        /// Reads made so far.
        pub(crate) fn reads(&self) -> u64 {
            self.reads.get()
        }

        pub(crate) fn read(&self) -> impl Fn() -> u64 + '_ {
            || {
                self.reads.set(self.reads.get() + 1);
                self.nanos.set(self.nanos.get() + self.step.get());
                self.nanos.get()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mem::{End, Pipe};
    use super::*;

    fn end<'a>(rx: &'a mut Pipe, tx: &'a mut Pipe) -> End<'a> {
        End { rx, tx }
    }

    #[test]
    fn fill_stops_at_the_cap_at_a_short_read_and_at_the_end_of_the_stream() {
        let mut buf = FrameBuf::default();
        let (mut rx, mut tx) = (Pipe::holding(&[7u8; 100]), Pipe::default());
        let mut scratch = [0u8; 16];
        // Full-scratch reads continue until the cap is held.
        assert!(buf.fill(&mut end(&mut rx, &mut tx), &mut scratch, 40).unwrap());
        assert_eq!(buf.unread().len(), 48, "three reads: 32 < 40 <= 48");
        // At the cap nothing is read at all.
        assert!(!buf.fill(&mut end(&mut rx, &mut tx), &mut scratch, 40).unwrap());
        // A short read ends the loop without the would-block round trip.
        buf.consume(48);
        rx.chunk = 5;
        buf.fill(&mut end(&mut rx, &mut tx), &mut scratch, 40).unwrap();
        assert_eq!(buf.unread().len(), 5);
        // End of stream is reported once the pipe is dry and closed.
        rx.chunk = usize::MAX;
        rx.closed = true;
        assert!(buf.fill(&mut end(&mut rx, &mut tx), &mut [0u8; 64], 1000).unwrap());
        assert!(!buf.eof(), "47 bytes, short of the scratch: the end is not looked for");
        assert!(!buf.fill(&mut end(&mut rx, &mut tx), &mut [0u8; 64], 1000).unwrap());
        assert!(buf.eof());
        assert_eq!(buf.unread().len(), 52);
        // A source that ended is not read again.
        rx.bytes.extend([1, 2, 3]);
        assert!(!buf.fill(&mut end(&mut rx, &mut tx), &mut [0u8; 64], 1000).unwrap());
        assert_eq!(rx.bytes.len(), 3);
    }

    #[test]
    fn flush_keeps_what_the_writer_refuses_and_compacts_a_long_sent_prefix() {
        let mut buf = FrameBuf::default();
        let (mut rx, mut tx) = (Pipe::default(), Pipe::default());
        buf.out().extend((0..3 * COMPACT_AT).map(|i| i as u8));
        tx.room = 0;
        assert!(!buf.flush(&mut end(&mut rx, &mut tx)).unwrap());
        assert_eq!(buf.unsent(), 3 * COMPACT_AT);
        // The writer takes two thirds: the sent prefix is compacted away.
        tx.room = 2 * COMPACT_AT;
        assert!(buf.flush(&mut end(&mut rx, &mut tx)).unwrap());
        assert_eq!((buf.outbuf.len(), buf.outpos), (COMPACT_AT, 0), "prefix gone, tail kept");
        // A short sent prefix is left in place until everything is out.
        buf.out().extend_from_slice(&[1, 2, 3]);
        tx.room = 10;
        buf.flush(&mut end(&mut rx, &mut tx)).unwrap();
        assert_eq!((buf.outbuf.len(), buf.outpos), (COMPACT_AT + 3, 10));
        tx.room = usize::MAX;
        buf.flush(&mut end(&mut rx, &mut tx)).unwrap();
        assert_eq!((buf.outbuf.len(), buf.unsent()), (0, 0));
        let expect: Vec<u8> = (0..3 * COMPACT_AT).map(|i| i as u8).chain([1, 2, 3]).collect();
        assert_eq!(tx.take(), expect, "every byte once, in order");
    }

    #[test]
    fn only_a_loop_without_connections_naps_and_never_past_its_next_duty_or_a_poll_period() {
        let ms = Duration::from_nanos(ACCEPT_EVERY);
        // Held connections keep the yield-then-sleep ladder, however far the deadline.
        assert_eq!(idle_nap(1, u64::MAX, 0), None);
        assert_eq!(idle_nap(1000, 5, 0), None);
        // No connection: sleep until the next duty ...
        assert_eq!(idle_nap(0, 10_400_250, 10_000_000), Some(Duration::from_nanos(400_250)));
        // ... capped at one accept period ...
        assert_eq!(idle_nap(0, 10_000_000 + 5 * ACCEPT_EVERY, 10_000_000), Some(ms));
        assert_eq!(idle_nap(0, u64::MAX, 0), Some(ms));
        // ... and not at all once the duty is due or past.
        assert_eq!(idle_nap(0, 7, 7), Some(Duration::ZERO));
        assert_eq!(idle_nap(0, 7, 9), Some(Duration::ZERO));
    }

    #[test]
    fn a_maximum_size_frame_always_fits_under_the_read_cap() {
        // The cap used to be 1 MiB flat: a frame of HEADER_LEN + 1 MiB
        // whose last bytes arrived after the cap was reached was never
        // read to its end.
        let mut buf = FrameBuf::default();
        let frame = vec![1u8; HEADER_LEN + MAX_PAYLOAD];
        let (mut rx, mut tx) = (Pipe::holding(&frame), Pipe::default());
        let mut scratch = vec![0u8; 256 * 1024];
        for _ in 0..8 {
            buf.fill(&mut end(&mut rx, &mut tx), &mut scratch, READ_BACKLOG_CAP).unwrap();
        }
        assert_eq!(buf.unread().len(), frame.len());
    }
}
