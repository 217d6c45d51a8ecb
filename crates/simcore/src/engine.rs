//! Deterministic discrete-event queue.
//!
//! The simulator's only source of ordering is this queue: events fire in
//! `(time, insertion sequence)` order, so two events scheduled for the same
//! instant fire in the order they were scheduled. That rule, plus integer
//! time and the self-contained PRNG, makes every run bit-reproducible.
//!
//! The queue is generic over the event payload; the network simulator in
//! `netsim` instantiates it with its own event enum. There is no trait-object
//! dispatch or async machinery — the main loop is a plain `while let`.
//!
//! Storage is a hierarchical timer wheel ([`crate::wheel::TimerWheel`]):
//! near-horizon schedule/pop are `O(1)` bitmap operations instead of
//! `O(log n)` heap sifts, with the exact same `(time, seq)` firing order the
//! original binary heap produced — golden-trace digests are bit-identical
//! across the swap.

use crate::units::{Dur, Time};
use crate::wheel::TimerWheel;

/// A deterministic future-event list.
///
/// Tracks the current simulated time: popping an event advances the clock to
/// the event's timestamp. Scheduling an event in the past is a bug and
/// panics.
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.wheel.now()
    }

    /// Schedule `ev` to fire at absolute time `at`.
    ///
    /// Panics if `at` is before the current time — the simulation can never
    /// act on the past.
    pub fn schedule_at(&mut self, at: Time, ev: E) {
        self.wheel.schedule_at(at, ev);
    }

    /// Take the next insertion sequence number without scheduling; see
    /// [`TimerWheel::reserve_seq`].
    pub fn reserve_seq(&mut self) -> u64 {
        self.wheel.reserve_seq()
    }

    /// Schedule `ev` at `at` under a seq from
    /// [`reserve_seq`](Self::reserve_seq): it fires where an event
    /// scheduled at the moment of reservation would have.
    pub fn schedule_at_seq(&mut self, at: Time, seq: u64, ev: E) {
        self.wheel.schedule_at_seq(at, seq, ev);
    }

    /// Schedule `ev` to fire `after` from now.
    pub fn schedule_after(&mut self, after: Dur, ev: E) {
        let at = self.now().saturating_add(after);
        self.schedule_at(at, ev);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.wheel.pop()
    }

    /// Pop the earliest event only if its timestamp is `<= limit`;
    /// otherwise leave the queue untouched and return `None`. The
    /// simulator's main loop uses this in place of `peek_time` + `pop` so
    /// the next-event search runs once per event.
    pub fn pop_at_or_before(&mut self, limit: Time) -> Option<(Time, E)> {
        self.wheel.pop_at_or_before(limit)
    }

    /// Pop *every* event sharing the earliest timestamp `<= limit` into
    /// `out` (in insertion order), advancing the clock once; returns that
    /// timestamp, or `None` if nothing is due by `limit`. The dispatch
    /// order across repeated calls is bit-identical to a
    /// [`pop_at_or_before`](Self::pop_at_or_before) loop — same-time
    /// events a handler schedules mid-batch simply arrive in the next
    /// batch. See [`TimerWheel::pop_batch_at_or_before`].
    pub fn pop_batch_at_or_before(&mut self, limit: Time, out: &mut Vec<E>) -> Option<Time> {
        self.wheel.pop_batch_at_or_before(limit, out)
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_millis(30), "c");
        q.schedule_at(Time::from_millis(10), "a");
        q.schedule_at(Time::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_millis(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_millis(7));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_millis(10), 0);
        q.pop();
        q.schedule_after(Dur::from_millis(5), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_millis(15));
    }

    #[test]
    #[should_panic]
    fn scheduling_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_millis(10), ());
        q.pop();
        q.schedule_at(Time::from_millis(5), ());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(Time::from_millis(3), ());
        q.schedule_at(Time::from_millis(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_millis(1)));
    }

    #[test]
    fn interleaved_same_time_across_pops() {
        // Events scheduled at the current instant during processing fire
        // before later events, preserving causal order.
        let mut q = EventQueue::new();
        q.schedule_at(Time::from_millis(1), "first");
        q.schedule_at(Time::from_millis(2), "later");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "first");
        q.schedule_at(t, "child-of-first");
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, "child-of-first");
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, "later");
    }
}
