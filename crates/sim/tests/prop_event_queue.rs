//! Model equivalence of the two-place [`EventQueue`] (FIFO lane + heap): any
//! interleaving of `schedule` and `pop` — with `peek_time`, `len`, `is_empty`
//! and `now` read after every step — must behave exactly like one plain
//! binary heap ordered by `(time, seq)`. The pop order of every
//! seeded run — and so every golden digest — rests on this.

use o2pc_common::SimTime;
use o2pc_sim::EventQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Debug)]
enum Action {
    /// Schedule `offset` after the current clock: lands below the lane's
    /// back (heap) whenever something later is already pending, and the
    /// narrow range makes equal-time bursts that straddle lane and heap.
    Near {
        offset: u8,
    },
    /// Schedule `offset` after the latest time scheduled so far: an
    /// ascending run (`offset` 0 repeats the time), appended to the lane.
    Ascend {
        offset: u8,
    },
    /// Schedule `back` *before* the current clock: clamped to the clock.
    Past {
        back: u8,
    },
    Pop,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u8..6).prop_map(|offset| Action::Near { offset }),
        4 => (0u8..4).prop_map(|offset| Action::Ascend { offset }),
        1 => (1u8..50).prop_map(|back| Action::Past { back }),
        5 => Just(Action::Pop),
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
    fn schedule(&mut self, at: SimTime, payload: u32) {
        self.heap
            .push(Reverse((at.max(self.now), self.seq, payload)));
        self.seq += 1;
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
        for (payload, action) in actions.iter().enumerate() {
            let payload = payload as u32;
            let at = match *action {
                Action::Near { offset } => Some(SimTime(q.now().0 + offset as u64)),
                Action::Ascend { offset } => Some(SimTime(latest.0 + offset as u64)),
                Action::Past { back } => Some(SimTime(q.now().0.saturating_sub(back as u64))),
                Action::Pop => {
                    prop_assert_eq!(q.pop(), model.pop());
                    None
                }
            };
            if let Some(at) = at {
                model.schedule(at, payload);
                // Scheduling in the past trips a debug assertion; the clamp
                // behind it is what optimised builds rely on.
                let at = if cfg!(debug_assertions) { at.max(q.now()) } else { at };
                q.schedule(at, payload);
                latest = latest.max(at);
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
