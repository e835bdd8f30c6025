//! The threaded runtime's timer queue: one binary heap.

use o2pc_common::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue: a binary heap on `(time, seq)`. Events
/// scheduled for the same instant pop in FIFO order (a strictly increasing
/// sequence number breaks ties). A number taken early with
/// [`reserve`](Self::reserve) orders its event as if it had been scheduled
/// then: an arrival run keeps only its next arrival queued so.
///
/// It keeps the discipline of the simulator's [`o2pc_sim::EventQueue`],
/// whose timing wheel pays for its fixed slot arrays only when hundreds of
/// entries are pending; this queue holds a handful on a wall clock.
#[derive(Debug)]
pub(crate) struct EventHeap<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventHeap<E> {
    /// New empty queue at time zero, its heap pre-sized.
    pub fn new() -> Self {
        EventHeap {
            heap: BinaryHeap::with_capacity(1024),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The virtual time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error (events would appear to travel back in time).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.reserve(1);
        self.schedule_reserved(at, seq, event);
    }

    /// Take the next `n` sequence numbers; returns the first.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// [`schedule`](Self::schedule) under a number `reserve` handed out, once.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at:?} < {:?}",
            self.now
        );
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        self.heap.push(Reverse(Entry {
            time: at.max(self.now),
            seq,
            event,
        }));
    }

    /// Pop the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventHeap::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.now(), SimTime(20));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventHeap::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    /// A reserved number orders its event as if it had been scheduled when
    /// the number was reserved.
    #[test]
    fn reserved_numbers_order_as_if_scheduled_at_reservation() {
        let mut q = EventHeap::new();
        let first = q.reserve(2);
        q.schedule(SimTime(5), "after");
        q.schedule_reserved(SimTime(5), first + 1, "second");
        q.schedule_reserved(SimTime(5), first, "first");
        let earlier = q.reserve(1);
        q.schedule(SimTime::ZERO, "now");
        q.schedule_reserved(SimTime::ZERO, earlier, "reserved before it");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            ["reserved before it", "now", "first", "second", "after"]
        );
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventHeap::new();
        q.schedule(SimTime(10), ());
        q.pop();
        // Scheduling relative to `now`.
        let next = q.now() + Duration::micros(5);
        q.schedule(next, ());
        assert_eq!(q.pop(), Some((SimTime(15), ())));
    }

    #[test]
    fn peek_and_is_empty() {
        let mut q = EventHeap::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(7), 1);
        q.schedule(SimTime(3), 2);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventHeap::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }
}
