//! The discrete-event queue.

use o2pc_common::{Duration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How far ahead of the clock the wheel reaches: an entry due before
/// `now + WINDOW` sits in a wheel slot, a later one in the overflow heap.
pub const WINDOW: Duration = Duration::micros(SLOTS as u64);

/// Wheel slots, one per microsecond of [`WINDOW`] (a power of two).
const SLOTS: usize = 4_096;
/// Occupancy words: one bit per slot.
const WORDS: usize = SLOTS / 64;
/// The end of a slot list and of the free list.
const NIL: u32 = u32::MAX;

/// A time-ordered event queue: entries pop in `(time, seq)` order, exactly
/// as from one binary heap on that pair. Events scheduled for the same
/// instant pop in FIFO order (a strictly increasing sequence number breaks
/// ties), which keeps runs deterministic. A number taken early with
/// [`reserve`](Self::reserve) orders its event as if it had been scheduled
/// then: an arrival run keeps only its next arrival queued so.
///
/// The near future is a hashed timing wheel (Varghese & Lauck, SOSP 1987):
/// [`WINDOW`] one-microsecond slots over `[now, now + WINDOW)`, so a slot
/// holds one instant and its list is kept in sequence order. A new entry
/// carries the largest number yet and is appended at its slot's tail; only
/// a reserved number walks the list. An occupancy bitmap with a summary
/// word finds the next non-empty slot, and a cursor always names the
/// earliest one, so [`peek_time`](Self::peek_time) is a field read and
/// [`pop`](Self::pop) scans only when it empties a slot. Entries due later
/// (timeouts, retransmits, crash plans) wait in a small overflow heap and
/// move into the wheel as soon as the clock brings them inside the window,
/// so every wheel entry is earlier than every overflow entry.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Entry storage for the wheel's slot lists; freed nodes are chained
    /// through `next` from `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// First and last node of each slot's list (`NIL` when empty).
    heads: Box<[u32]>,
    tails: Box<[u32]>,
    /// Bit `s % 64` of word `s / 64` is set when slot `s` is non-empty;
    /// bit `w` of `summary` when word `w` is non-zero.
    occupied: [u64; WORDS],
    summary: u64,
    /// Entries in the wheel.
    in_wheel: usize,
    /// The earliest wheel entry's time, while the wheel is non-empty.
    cursor: u64,
    /// Entries due at or after `now + WINDOW`.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Node<E> {
    seq: u64,
    next: u32,
    /// `None` only while the node is on the free list.
    event: Option<E>,
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

/// The slot of an instant.
fn slot(time: u64) -> usize {
    time as usize & (SLOTS - 1)
}

impl<E> EventQueue<E> {
    /// New empty queue at time zero. Pre-sizes the node slab: engine runs
    /// keep hundreds of timers and in-flight messages live, and growing it
    /// through the doubling sequence on every fresh run is pure overhead.
    pub fn new() -> Self {
        Self::with_capacity(1024)
    }

    /// New empty queue with room for `cap` wheel entries before growing.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(cap),
            free: NIL,
            heads: vec![NIL; SLOTS].into_boxed_slice(),
            tails: vec![NIL; SLOTS].into_boxed_slice(),
            occupied: [0; WORDS],
            summary: 0,
            in_wheel: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
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
        let time = at.max(self.now);
        if time.0 - self.now.0 < WINDOW.0 {
            self.insert(time.0, seq, event);
        } else {
            self.overflow.push(Reverse(Entry { time, seq, event }));
        }
    }

    /// Put an entry due inside the window into its slot's list, in
    /// sequence order.
    fn insert(&mut self, time: u64, seq: u64, event: E) {
        let node = self.alloc(seq, event);
        let s = slot(time);
        let tail = self.tails[s];
        if tail == NIL {
            self.heads[s] = node;
            self.tails[s] = node;
            self.occupied[s / 64] |= 1 << (s % 64);
            self.summary |= 1 << (s / 64);
        } else if self.nodes[tail as usize].seq < seq {
            self.nodes[tail as usize].next = node;
            self.tails[s] = node;
        } else {
            // A reserved number below the slot's last: find its place.
            let head = self.heads[s];
            if seq < self.nodes[head as usize].seq {
                self.nodes[node as usize].next = head;
                self.heads[s] = node;
            } else {
                let mut prev = head;
                loop {
                    let next = self.nodes[prev as usize].next;
                    if self.nodes[next as usize].seq > seq {
                        self.nodes[node as usize].next = next;
                        self.nodes[prev as usize].next = node;
                        break;
                    }
                    prev = next;
                }
            }
        }
        if self.in_wheel == 0 || time < self.cursor {
            self.cursor = time;
        }
        self.in_wheel += 1;
    }

    fn alloc(&mut self, seq: u64, event: E) -> u32 {
        let node = Node {
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = std::mem::replace(&mut self.nodes[i as usize], node).next;
            i
        }
    }

    /// The first non-empty slot at or after `from`, in wheel order (the
    /// wheel must hold an entry).
    fn next_occupied(&self, from: usize) -> usize {
        let w = from / 64;
        let here = self.occupied[w] & (u64::MAX << (from % 64));
        if here != 0 {
            return w * 64 + here.trailing_zeros() as usize;
        }
        // A later word, else wrap round to the lowest one (possibly `w`'s
        // bits below `from`).
        let later = self.summary & (u64::MAX << w << 1);
        let w = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
        w * 64 + self.occupied[w].trailing_zeros() as usize
    }

    /// Pop the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = if self.in_wheel == 0 {
            let Reverse(e) = self.overflow.pop()?;
            (e.time, e.event)
        } else {
            let s = slot(self.cursor);
            let i = self.heads[s];
            let node = &mut self.nodes[i as usize];
            let (next, event) = (node.next, node.event.take()?);
            node.next = self.free;
            self.free = i;
            self.heads[s] = next;
            self.in_wheel -= 1;
            let time = SimTime(self.cursor);
            if next == NIL {
                self.tails[s] = NIL;
                self.occupied[s / 64] &= !(1 << (s % 64));
                if self.occupied[s / 64] == 0 {
                    self.summary &= !(1 << (s / 64));
                }
                if self.in_wheel > 0 {
                    let to = self.next_occupied(s);
                    self.cursor += (to.wrapping_sub(s) & (SLOTS - 1)) as u64;
                }
            }
            (time, event)
        };
        self.now = time;
        self.migrate();
        Some((time, event))
    }

    /// Move the overflow entries the clock has brought inside the window
    /// into the wheel. The heap yields them in `(time, seq)` order.
    fn migrate(&mut self) {
        while let Some(Reverse(e)) = self.overflow.peek() {
            if e.time.0 - self.now.0 >= WINDOW.0 {
                return;
            }
            if let Some(Reverse(e)) = self.overflow.pop() {
                self.insert(e.time.0, e.seq, e.event);
            }
        }
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.in_wheel > 0 {
            Some(SimTime(self.cursor))
        } else {
            self.overflow.peek().map(|Reverse(e)| e.time)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A reserved number orders its event as if it had been scheduled when
    /// the number was reserved.
    #[test]
    fn reserved_numbers_order_as_if_scheduled_at_reservation() {
        let mut q = EventQueue::new();
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
        q.schedule(SimTime(WINDOW.0 * 3), 3);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 3);
    }

    /// The last instant inside the window shares no slot with the clock's
    /// own; the first instant outside it waits in the overflow heap, and
    /// both pop after everything due before them.
    #[test]
    fn window_edges() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "now");
        q.pop();
        let edge = 10 + WINDOW.0;
        q.schedule(SimTime(edge), "first outside");
        q.schedule(SimTime(edge - 1), "last inside");
        q.schedule(SimTime(10), "again now");
        q.schedule(SimTime(edge + 1), "after the edge");
        assert_eq!(q.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (SimTime(10), "again now"),
                (SimTime(edge - 1), "last inside"),
                (SimTime(edge), "first outside"),
                (SimTime(edge + 1), "after the edge"),
            ]
        );
    }

    /// Far entries come back through the overflow heap in `(time, seq)`
    /// order, across an empty stretch of many windows, and a reserved
    /// number still goes ahead of the larger ones it lands among.
    #[test]
    fn far_entries_migrate_in_order() {
        let mut q = EventQueue::new();
        let far = SimTime(WINDOW.0 * 5 + 3);
        let early = q.reserve(1);
        q.schedule(far, "b");
        q.schedule(SimTime(far.0 + 1), "c");
        q.schedule_reserved(far, early, "a");
        q.schedule(SimTime(2), "near");
        assert_eq!(q.pop(), Some((SimTime(2), "near")));
        assert_eq!(q.pop(), Some((far, "a")));
        let late = q.reserve(2);
        q.schedule_reserved(far, late + 1, "late second");
        q.schedule_reserved(far, late, "late first");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["b", "late first", "late second", "c"]);
    }

    /// The cursor follows the earliest entry round the wheel, across the
    /// wrap from its last slot to its first.
    #[test]
    fn cursor_wraps_round_the_wheel() {
        let mut q = EventQueue::new();
        let mut at = 0;
        for i in 0..3 * SLOTS as u64 / 1_000 {
            q.schedule(SimTime(at + 999), i);
            q.schedule(SimTime(at + 1), i);
            assert_eq!(q.pop(), Some((SimTime(at + 1), i)));
            assert_eq!(q.peek_time(), Some(SimTime(at + 999)));
            assert_eq!(q.pop(), Some((SimTime(at + 999), i)));
            at += 999;
        }
        assert!(q.is_empty());
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
