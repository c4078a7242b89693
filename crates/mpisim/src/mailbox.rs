//! Per-rank mailboxes: unordered message pools with tag/source matching.
//!
//! MPI receive semantics require matching on `(source, tag)` with wildcards,
//! and messages from the *same* (source, tag) pair must be delivered in send
//! order (non-overtaking). A simple FIFO channel cannot express the matching,
//! so each rank owns a pool of pending packets scanned under a mutex, with a
//! condvar to park blocked receivers.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::comm::{ANY_SOURCE, ANY_TAG};
use crate::error::MpiError;
use crate::fault::FaultBoard;
use crate::{Rank, Tag};

/// A message in flight: payload plus envelope and its modelled arrival time.
#[derive(Debug, PartialEq)]
pub struct Packet {
    /// Sending rank.
    pub src: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Raw payload bytes.
    pub data: Vec<u8>,
    /// Virtual time at which the message arrives at the receiver
    /// (sender clock at send + modelled transfer cost).
    pub arrival: f64,
}

struct Inner {
    queue: VecDeque<Packet>,
    down: bool,
}

/// One rank's incoming-message pool.
pub struct Mailbox {
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            inner: Mutex::new(Inner { queue: VecDeque::new(), down: false }),
            cond: Condvar::new(),
        }
    }

    /// Deposit a packet and wake any blocked receiver.
    pub fn push(&self, pkt: Packet) {
        let mut g = self.inner.lock();
        g.queue.push_back(pkt);
        drop(g);
        self.cond.notify_all();
    }

    /// Mark the mailbox dead (world teardown after a rank panic) and wake
    /// everyone so they can observe the failure.
    pub fn shutdown(&self) {
        self.inner.lock().down = true;
        self.cond.notify_all();
    }

    fn matches(pkt: &Packet, src: Rank, tag: Tag) -> bool {
        (src == ANY_SOURCE || pkt.src == src) && (tag == ANY_TAG || pkt.tag == tag)
    }

    /// Blocking receive of the earliest-queued packet matching `(src, tag)`
    /// on behalf of rank `me`.
    ///
    /// "Earliest queued" preserves MPI's non-overtaking guarantee for any
    /// fixed (source, tag) pair, because packets from one sender are pushed
    /// in its send order. Queued packets always win: a message sent before
    /// the sender died is still delivered. Otherwise the call fails instead
    /// of hanging:
    /// * [`MpiError::WorldDown`] once the world is torn down;
    /// * [`MpiError::RankDead`] when a *specific* source is dead, or, for a
    ///   wildcard, once no other rank is alive;
    /// * with a `deadline`, [`MpiError::Timeout`] when the wall clock passes
    ///   it, and [`MpiError::Interrupted`] as soon as *any* rank dies while
    ///   waiting (so a master reacts to a worker death promptly rather than
    ///   burning the full timeout). A deadline already in the past polls.
    pub fn recv(
        &self,
        me: Rank,
        src: Rank,
        tag: Tag,
        board: &FaultBoard,
        deadline: Option<Instant>,
    ) -> Result<Packet, MpiError> {
        let entry_epoch = board.epoch();
        let mut g = self.inner.lock();
        loop {
            if let Some(pos) = g.queue.iter().position(|p| Self::matches(p, src, tag)) {
                return Ok(g.queue.remove(pos).expect("position just found"));
            }
            if g.down {
                return Err(MpiError::WorldDown);
            }
            if src != ANY_SOURCE && !board.is_alive(src) {
                let at = board.death_time_of(src).unwrap_or(0.0);
                return Err(MpiError::RankDead { rank: src, at });
            }
            if src == ANY_SOURCE && !board.any_other_alive(me) {
                return Err(MpiError::RankDead { rank: ANY_SOURCE, at: 0.0 });
            }
            match deadline {
                Some(deadline) => {
                    if board.epoch() != entry_epoch {
                        return Err(MpiError::Interrupted);
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(MpiError::Timeout);
                    }
                    // Wake periodically so an epoch bump missed between the
                    // check above and parking is still noticed promptly.
                    let slice = (deadline - now).min(Duration::from_millis(10));
                    let _ = self.cond.wait_for(&mut g, slice);
                }
                None => self.cond.wait(&mut g),
            }
        }
    }

    /// Drop all queued packets (the owning rank died; its pending messages
    /// die with it).
    pub fn purge(&self) {
        self.inner.lock().queue.clear();
    }

    /// Wake all blocked receivers without changing state, so they can
    /// re-examine liveness after a death elsewhere.
    pub fn nudge(&self) {
        self.cond.notify_all();
    }

    /// Non-blocking receive. Returns [`MpiError::WouldBlock`] when nothing
    /// matches.
    pub fn try_recv(&self, src: Rank, tag: Tag) -> Result<Packet, MpiError> {
        let mut g = self.inner.lock();
        if let Some(pos) = g.queue.iter().position(|p| Self::matches(p, src, tag)) {
            return Ok(g.queue.remove(pos).expect("position just found"));
        }
        if g.down {
            return Err(MpiError::WorldDown);
        }
        Err(MpiError::WouldBlock)
    }

    /// Probe without consuming: envelope of the first matching packet.
    pub fn probe(&self, src: Rank, tag: Tag) -> Option<(Rank, Tag, usize)> {
        let g = self.inner.lock();
        g.queue
            .iter()
            .find(|p| Self::matches(p, src, tag))
            .map(|p| (p.src, p.tag, p.data.len()))
    }

    /// Number of queued packets (diagnostics only).
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// True when no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: Rank, tag: Tag, byte: u8) -> Packet {
        Packet { src, tag, data: vec![byte], arrival: 0.0 }
    }

    /// Blocking receive on behalf of rank 0 of a four-rank world in which
    /// everyone is alive.
    fn recv(mb: &Mailbox, src: Rank, tag: Tag) -> Result<Packet, MpiError> {
        mb.recv(0, src, tag, &FaultBoard::new(4), None)
    }

    /// Like `recv`, bounded by `timeout` of wall-clock waiting.
    fn recv_timeout(
        mb: &Mailbox,
        src: Rank,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Packet, MpiError> {
        mb.recv(0, src, tag, &FaultBoard::new(4), Some(Instant::now() + timeout))
    }

    #[test]
    fn recv_matches_source_and_tag() {
        let mb = Mailbox::new();
        mb.push(pkt(1, 7, 0xa));
        mb.push(pkt(2, 7, 0xb));
        let got = recv(&mb, 2, 7).unwrap();
        assert_eq!(got.data, vec![0xb]);
        let got = recv(&mb, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(got.src, 1);
    }

    #[test]
    fn non_overtaking_within_pair() {
        let mb = Mailbox::new();
        mb.push(pkt(3, 1, 1));
        mb.push(pkt(3, 1, 2));
        assert_eq!(recv(&mb, 3, 1).unwrap().data, vec![1]);
        assert_eq!(recv(&mb, 3, 1).unwrap().data, vec![2]);
    }

    #[test]
    fn try_recv_would_block_on_miss() {
        let mb = Mailbox::new();
        mb.push(pkt(0, 9, 0));
        assert_eq!(mb.try_recv(0, 8), Err(MpiError::WouldBlock));
        assert!(mb.try_recv(0, 9).is_ok());
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        mb.push(pkt(5, 2, 0));
        assert_eq!(mb.probe(ANY_SOURCE, ANY_TAG), Some((5, 2, 1)));
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn recv_timeout_returns_queued_packet_or_typed_timeout() {
        let mb = Mailbox::new();
        mb.push(pkt(1, 7, 0xa));
        let got = recv_timeout(&mb, 1, 7, Duration::from_millis(5)).unwrap();
        assert_eq!(got.data, vec![0xa]);
        let start = Instant::now();
        let err = recv_timeout(&mb, 1, 7, Duration::from_millis(20));
        assert_eq!(err, Err(MpiError::Timeout));
        assert!(start.elapsed() >= Duration::from_millis(20), "must wait the full bound");
    }

    #[test]
    fn recv_timeout_wakes_on_late_push() {
        let mb = std::sync::Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || recv_timeout(&mb2, 3, 1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(15));
        mb.push(pkt(3, 1, 9));
        assert_eq!(h.join().unwrap().unwrap().data, vec![9]);
    }

    #[test]
    fn shutdown_unblocks_with_world_down() {
        let mb = std::sync::Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || recv(&mb2, ANY_SOURCE, ANY_TAG));
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.shutdown();
        assert_eq!(h.join().unwrap(), Err(MpiError::WorldDown));
    }
}
