//! The discrete-event queue.

use o2pc_common::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A time-ordered event queue. Events scheduled for the same instant pop in
/// FIFO order (a strictly increasing sequence number breaks ties), which
/// keeps runs deterministic regardless of heap internals.
///
/// Entries live in one of two places. An entry whose time is not before the
/// *lane*'s back is appended to the lane, a FIFO; any other entry goes on
/// the heap. The lane is sorted by `(time, seq)` by construction — appends
/// are monotone in time and `seq` only grows — so the next event is the
/// smaller of the lane's front and the heap's top. Where an entry is stored
/// never decides the pop order; `(time, seq)` alone does. A workload's
/// arrival schedule, installed up front in time order, therefore costs O(1)
/// per arrival, and the heap holds only the timers and messages in flight.
#[derive(Debug)]
pub struct EventQueue<E> {
    lane: VecDeque<Entry<E>>,
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

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// New empty queue at time zero. Pre-sizes the heap: engine runs keep
    /// hundreds of timers and in-flight messages live, and growing the heap
    /// through the doubling sequence on every fresh run is pure overhead.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// New empty queue with an explicit initial heap capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::with_capacity(cap),
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
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry {
            time: at.max(self.now),
            seq,
            event,
        };
        if self.lane.back().is_none_or(|back| back.time <= entry.time) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Is the next event the lane's front (rather than the heap's top)?
    fn lane_is_next(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(lane), Some(Reverse(heap))) => lane < heap,
            (lane, _) => lane.is_some(),
        }
    }

    /// Pop the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = if self.lane_is_next() {
            self.lane.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        }?;
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.lane_is_next() {
            self.lane.front().map(|e| e.time)
        } else {
            self.heap.peek().map(|Reverse(e)| e.time)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        // Scheduling relative to `now`.
        let next = q.now() + Duration::micros(5);
        q.schedule(next, ());
        assert_eq!(q.pop(), Some((SimTime(15), ())));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(7), 1);
        q.schedule(SimTime(3), 2);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }
}
