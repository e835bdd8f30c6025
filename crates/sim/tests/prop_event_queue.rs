//! Model equivalence of [`EventQueue`] with reserved sequence numbers: any
//! interleaving of `schedule`, `reserve`, `schedule_reserved` and `pop` —
//! with `peek_time`, `len`, `is_empty` and `now` read after every step —
//! must behave exactly like one plain binary heap ordered by `(time, seq)`
//! whose numbers are handed out in call order. The pop order of every
//! seeded run — and so every golden digest — rests on this.
//!
//! Times reach past the timing wheel's window: exactly at its edge, several
//! windows out (the overflow heap), and after long empty stretches, so
//! entries migrate back into the wheel among plain and reserved numbers.

use o2pc_common::SimTime;
use o2pc_sim::events::WINDOW;
use o2pc_sim::EventQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// When an entry is due, relative to the queue's clock.
#[derive(Clone, Copy, Debug)]
enum When {
    /// `offset` after the clock; 0 is the current instant, and the narrow
    /// range makes equal-time bursts of plain and reserved numbers.
    Near(u8),
    /// `offset` after the latest time scheduled so far: an ascending run
    /// (`offset` 0 repeats the time).
    Ascend(u8),
    /// `back` *before* the clock: clamped to the clock.
    Past(u8),
    /// One instant either side of the wheel's window edge, or on it:
    /// `now + WINDOW - 1 + k % 3`.
    Edge(u8),
    /// Several windows after the clock, a few distinct instants each.
    Far(u8),
    /// A long empty stretch after the latest time scheduled so far; the
    /// `Ascend` entries after it are a burst there.
    Gap(u8),
}

#[derive(Clone, Debug)]
enum Action {
    /// Schedule under a fresh sequence number.
    Schedule(When),
    /// Reserve `n` sequence numbers for later use.
    Reserve(u8),
    /// Schedule under the `pick`-th unused reserved number (if any): below
    /// fresh numbers, so it may pop before entries scheduled earlier.
    Reserved {
        pick: u8,
        when: When,
    },
    Pop,
}

fn when_strategy() -> impl Strategy<Value = When> {
    prop_oneof![
        4 => (0u8..6).prop_map(When::Near),
        2 => Just(When::Near(0)),
        3 => (0u8..4).prop_map(When::Ascend),
        1 => (1u8..50).prop_map(When::Past),
        2 => any::<u8>().prop_map(When::Edge),
        1 => any::<u8>().prop_map(When::Far),
        1 => (0u8..4).prop_map(When::Gap),
    ]
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => when_strategy().prop_map(Action::Schedule),
        1 => (1u8..5).prop_map(Action::Reserve),
        3 => (any::<u8>(), when_strategy()).prop_map(|(pick, when)| Action::Reserved { pick, when }),
        6 => Just(Action::Pop),
    ]
}

/// The reference: one heap of `(time, seq, payload)`, clamping like the queue.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    seq: u64,
    now: SimTime,
}

impl Model {
    fn reserve(&mut self, n: u64) -> u64 {
        self.seq += n;
        self.seq - n
    }

    fn schedule(&mut self, at: SimTime, seq: u64, payload: u32) {
        self.heap.push(Reverse((at.max(self.now), seq, payload)));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let Reverse((time, _, payload)) = self.heap.pop()?;
        self.now = time;
        Some((time, payload))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn behaves_like_one_heap(actions in prop::collection::vec(action_strategy(), 1..400)) {
        let mut q = EventQueue::with_capacity(4);
        let mut model = Model::default();
        let mut latest = SimTime::ZERO;
        let mut unused: Vec<u64> = Vec::new();
        for (payload, action) in actions.iter().enumerate() {
            let payload = payload as u32;
            let at = |when: When| match when {
                When::Near(offset) => SimTime(q.now().0 + offset as u64),
                When::Ascend(offset) => SimTime(latest.0 + offset as u64),
                When::Past(back) => SimTime(q.now().0.saturating_sub(back as u64)),
                When::Edge(k) => SimTime(q.now().0 + WINDOW.0 - 1 + (k % 3) as u64),
                When::Far(k) => {
                    let windows = 2 + (k % 4) as u64;
                    SimTime(q.now().0 + windows * WINDOW.0 + (k / 4 % 3) as u64)
                }
                When::Gap(offset) => SimTime(latest.0 + 3 * WINDOW.0 + offset as u64),
            };
            // Scheduling in the past trips a debug assertion; the clamp
            // behind it is what optimised builds rely on.
            let clamp = |at: SimTime, now: SimTime| if cfg!(debug_assertions) { at.max(now) } else { at };
            match *action {
                Action::Schedule(when) => {
                    let at = at(when);
                    let seq = model.reserve(1);
                    model.schedule(at, seq, payload);
                    q.schedule(clamp(at, q.now()), payload);
                    latest = latest.max(at);
                }
                Action::Reserve(n) => {
                    let first = q.reserve(n as u64);
                    prop_assert_eq!(first, model.reserve(n as u64));
                    unused.extend(first..first + n as u64);
                }
                Action::Reserved { pick, when } => {
                    if !unused.is_empty() {
                        let seq = unused.remove(pick as usize % unused.len());
                        let at = at(when);
                        model.schedule(at, seq, payload);
                        q.schedule_reserved(clamp(at, q.now()), seq, payload);
                        latest = latest.max(at);
                    }
                }
                Action::Pop => prop_assert_eq!(q.pop(), model.pop()),
            }
            prop_assert_eq!(q.peek_time(), model.heap.peek().map(|Reverse((t, _, _))| *t));
            prop_assert_eq!(q.len(), model.heap.len());
            prop_assert_eq!(q.is_empty(), model.heap.is_empty());
            prop_assert_eq!(q.now(), model.now);
        }
        // Drain: the tail pops in the reference order too.
        while let Some(expected) = model.pop() {
            prop_assert_eq!(q.pop(), Some(expected));
        }
        prop_assert_eq!(q.pop(), None);
    }
}
