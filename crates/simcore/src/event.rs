//! The simulation event queue.
//!
//! Events are totally ordered by `(time, sequence)`. The sequence number is
//! assigned at scheduling time, so two events scheduled for the same instant
//! fire in scheduling order — this is what makes the simulation fully
//! deterministic regardless of hash-map iteration order elsewhere.
//!
//! The queue is a binary heap plus a *same-instant lane*: an event
//! scheduled for the instant of the event last popped — a zero-delay
//! `Context::send`, the commonest push there is — is appended to a FIFO and
//! never enters the heap. The lane only ever holds events of one instant
//! (the queue's clock) in sequence order, so it is itself sorted by
//! `(time, seq)`, and popping the smaller of lane front and heap top yields
//! the same total order a single heap would.
//!
//! The queue also keeps the boxes its messages travel in. A box whose
//! message was taken out with [`EventQueue::open`] goes on a free list of
//! its message type, and the next message of that type to be pushed is
//! written into it instead of into a fresh allocation. The lists hold no
//! addresses anyone reads and change neither what is pushed nor when, so
//! they are invisible to the simulation.

use std::any::{Any, TypeId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::actor::ActorId;
use crate::time::SimTime;

/// An opaque message payload delivered to an actor.
///
/// Actors downcast payloads to the concrete types they understand and take
/// the message out with [`crate::actor::Context::open`], which hands the
/// box back for reuse; see [`crate::actor::Actor::on_message`].
pub type Payload = Box<dyn Any>;

/// A scheduled delivery.
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Tie-break for events at the same instant (scheduling order).
    pub seq: u64,
    /// Destination actor.
    pub to: ActorId,
    /// Source actor (the scheduler itself uses [`ActorId::SYSTEM`]).
    pub from: ActorId,
    /// The message.
    pub payload: Payload,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped
        // first, with the lowest sequence number breaking ties.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of pending events.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    /// Events scheduled for `clock` after `clock` was reached, oldest
    /// first. Every entry has `time == clock`: the clock cannot advance
    /// while the lane is non-empty, because its front would pop first.
    lane: VecDeque<Event>,
    /// Latest firing time popped so far. This is the queue's own clock, not
    /// `Simulation::now`: the engine also moves `now` to a deadline without
    /// popping anything, and an event pushed for such an instant may still
    /// have heap events ahead of it.
    clock: SimTime,
    next_seq: u64,
    /// Spare message boxes, one list per message type, scanned linearly:
    /// a handful of types are ever opened.
    free: Vec<(TypeId, Vec<Payload>)>,
}

/// Most spare boxes the queue keeps for one message type. A list only
/// holds boxes that messages of its type once occupied at the same time,
/// so it never grows past the most of them ever in flight at once. The
/// commonest type is the fabric's wire record, whose peak,
/// `Net::in_flight_peak()`, reads 24 (`set-fanout`, `quorum-4k`), 48
/// (`get-zipf-cache`), 80 (`mixed-shards4`) and 156 (`recover-resync`, in
/// its full sync) on the benchmark workloads at seed 42, and 0 on
/// `tcp-baseline`, whose TCP deliveries are boxed directly. The cap keeps
/// every one of those bursts, and bounds what a larger one can leave
/// parked for the rest of a run to 256 boxes of a type.
const FREE_LIST_CAP: usize = 256;

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a delivery. Events at equal times fire in insertion order.
    pub fn push(&mut self, time: SimTime, to: ActorId, from: ActorId, payload: Payload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let event = Event {
            time,
            seq,
            to,
            from,
            payload,
        };
        if time == self.clock {
            self.lane.push_back(event);
        } else {
            self.heap.push(event);
        }
    }

    /// Box `msg` for [`EventQueue::push`], in a spare box of its type when
    /// there is one. A zero-sized message boxes nothing and skips the
    /// lists.
    pub(crate) fn boxed<M: Any>(&mut self, msg: M) -> Payload {
        if size_of::<M>() > 0 {
            let id = TypeId::of::<M>();
            let spare = self.free.iter_mut().find(|(t, _)| *t == id);
            if let Some(mut spare) = spare.and_then(|(_, list)| list.pop()) {
                if let Some(slot) = spare.downcast_mut::<M>() {
                    *slot = msg;
                    return spare;
                }
            }
        }
        Box::new(msg)
    }

    /// Move the message out of its box and keep the box for the next
    /// message of type `M`, up to `FREE_LIST_CAP` (256) per type; past
    /// that it is freed. What stays behind in the box is `M::default()`,
    /// which should own no heap memory.
    pub(crate) fn open<M: Any + Default>(&mut self, mut boxed: Box<M>) -> M {
        let msg = std::mem::take(&mut *boxed);
        if size_of::<M>() > 0 {
            let id = TypeId::of::<M>();
            match self.free.iter_mut().find(|(t, _)| *t == id) {
                Some((_, list)) if list.len() < FREE_LIST_CAP => list.push(boxed),
                Some(_) => {}
                None => self.free.push((id, vec![boxed as Payload])),
            }
        }
        msg
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => (l.time, l.seq) < (h.time, h.seq),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let event = if from_lane {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
        self.clock = self.clock.max(event.time);
        Some(event)
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane.front().map(|e| e.time);
        let heap = self.heap.peek().map(|e| e.time);
        match (lane, heap) {
            (Some(l), Some(h)) => Some(l.min(h)),
            (l, h) => l.or(h),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn id(n: u32) -> ActorId {
        ActorId::from_raw(n)
    }

    /// Pop everything, returning the `u32` payloads in firing order.
    fn drain_tags(q: &mut EventQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pop())
            .map(|e| *e.payload.downcast::<u32>().unwrap())
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), id(1), id(0), Box::new(3u32));
        q.push(SimTime::from_nanos(10), id(1), id(0), Box::new(1u32));
        q.push(SimTime::from_nanos(20), id(1), id(0), Box::new(2u32));
        assert_eq!(drain_tags(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100u32 {
            q.push(t, id(1), id(0), Box::new(i));
        }
        assert_eq!(drain_tags(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_push_waits_for_older_events_of_that_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        q.push(t, id(1), id(0), Box::new(0u32));
        q.push(t, id(1), id(0), Box::new(1u32));
        assert_eq!(*q.pop().unwrap().payload.downcast::<u32>().unwrap(), 0);
        // The clock now reads 10: this push takes the lane, yet event 1 was
        // scheduled first and must still fire first.
        q.push(t, id(1), id(0), Box::new(2u32));
        q.push(SimTime::from_nanos(5), id(1), id(0), Box::new(3u32)); // in the past
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(drain_tags(&mut q), vec![3, 1, 2]);
    }

    /// Where a payload's message lives.
    fn addr(payload: &Payload) -> *const u8 {
        (&**payload as *const dyn Any).cast()
    }

    /// Spare boxes the queue holds for `M`.
    fn spares<M: Any>(q: &EventQueue) -> usize {
        let id = TypeId::of::<M>();
        q.free
            .iter()
            .find(|(t, _)| *t == id)
            .map_or(0, |(_, l)| l.len())
    }

    #[test]
    fn an_opened_box_carries_the_next_message_of_its_own_type_only() {
        let mut q = EventQueue::new();
        let first = q.boxed(7u64);
        let at = addr(&first);
        assert_eq!(q.open(first.downcast::<u64>().unwrap()), 7);
        assert_eq!((spares::<u64>(&q), spares::<u32>(&q)), (1, 0));
        // Another type allocates afresh and leaves the u64 box alone.
        let other = q.boxed(9u32);
        assert_ne!(addr(&other), at);
        assert_eq!(spares::<u64>(&q), 1);
        // The next u64 moves into the box the first one left.
        let second = q.boxed(8u64);
        assert_eq!(addr(&second), at);
        assert_eq!(*second.downcast::<u64>().unwrap(), 8);
        assert_eq!(spares::<u64>(&q), 0);
        // The u32's box goes on a list of its own.
        assert_eq!(q.open(other.downcast::<u32>().unwrap()), 9);
        assert_eq!((spares::<u64>(&q), spares::<u32>(&q)), (0, 1));
    }

    #[test]
    fn a_free_list_keeps_at_most_its_cap() {
        let mut q = EventQueue::new();
        let boxes: Vec<Payload> = (0..FREE_LIST_CAP as u64 + 10).map(|i| q.boxed(i)).collect();
        for b in boxes {
            q.open(b.downcast::<u64>().unwrap());
        }
        assert_eq!(spares::<u64>(&q), FREE_LIST_CAP);
        // Zero-sized messages box nothing and are never kept.
        let unit = q.boxed(());
        q.open(unit.downcast::<()>().unwrap());
        assert_eq!(spares::<()>(&q), 0);
    }

    #[test]
    fn a_payload_nobody_opens_is_just_freed() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, id(1), id(0), Box::new(5u64));
        let spare = q.boxed(6u64);
        q.push(SimTime::ZERO, id(1), id(0), spare);
        // Both delivered and downcast, neither opened: no list appears.
        while let Some(e) = q.pop() {
            assert!(e.payload.downcast::<u64>().is_ok());
        }
        assert!(q.free.is_empty());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(42), id(1), id(0), Box::new(()));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// One step of the order-equivalence property.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at the time of the event last popped (the lane's case).
        AtClock,
        /// Push `0..` ns after the last popped time.
        Ahead(u64),
        /// Push before the last popped time — earlier than the lane's tail.
        Behind(u64),
        /// Move the caller's clock past the queue's without popping, as
        /// `Simulation::run_until(deadline)` does, and push there.
        AtDeadline(u64),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::AtClock),
            Just(Op::AtClock),
            (0u64..40).prop_map(Op::Ahead),
            (0u64..5_000).prop_map(Op::Ahead),
            (1u64..30).prop_map(Op::Behind),
            (1u64..200).prop_map(Op::AtDeadline),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Pop),
        ]
    }

    /// The queue beside a plain list of what is pending in it.
    #[derive(Default)]
    struct Pair {
        q: EventQueue,
        reference: Vec<(SimTime, u64)>,
        pushed: u64,
    }

    impl Pair {
        fn push(&mut self, t: SimTime) {
            // Sources differ per push so equal times come from several.
            let seq = self.pushed;
            self.q.push(t, id(1), id((seq % 3) as u32), Box::new(seq));
            self.reference.push((t, seq));
            self.pushed += 1;
        }
    }

    /// The queue against the list popped at its `(time, seq)` minimum: same
    /// pop sequence, `peek_time`, `len`, `is_empty`, `scheduled_total`.
    fn check_against_reference(backlog: u64, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut p = Pair::default();
        let mut clock = SimTime::ZERO; // time of the last popped event
        let mut now = SimTime::ZERO; // the engine's clock: never behind `clock`

        // A parked backlog: mostly one monotone far-future stream, with
        // every seventh timer landing earlier than its predecessor.
        for i in 0..backlog {
            let early = if i % 7 == 0 { 35 } else { 0 };
            p.push(SimTime::from_nanos(1_000_000 + i * 10 - early));
        }
        for op in ops {
            match op {
                Op::AtClock => p.push(clock),
                Op::Ahead(d) => p.push(clock + SimDuration::from_nanos(*d)),
                Op::Behind(d) => p.push(SimTime::from_nanos(clock.as_nanos().saturating_sub(*d))),
                Op::AtDeadline(d) => {
                    now = now.max(clock) + SimDuration::from_nanos(*d);
                    p.push(now);
                }
                Op::Pop => {
                    let min = p.reference.iter().copied().min();
                    let got = p.q.pop();
                    if let Some(e) = &got {
                        prop_assert_eq!(e.payload.downcast_ref::<u64>(), Some(&e.seq));
                        prop_assert_eq!(e.from, id((e.seq % 3) as u32));
                    }
                    prop_assert_eq!(got.map(|e| (e.time, e.seq)), min);
                    if let Some(min) = min {
                        p.reference.retain(|e| *e != min);
                        clock = clock.max(min.0);
                    }
                }
            }
            prop_assert_eq!(p.q.peek_time(), p.reference.iter().map(|e| e.0).min());
            prop_assert_eq!(p.q.len(), p.reference.len());
            prop_assert_eq!(p.q.is_empty(), p.reference.is_empty());
            prop_assert_eq!(p.q.scheduled_total(), p.pushed);
        }
        // Drain what is left against the stably sorted reference.
        p.reference.sort_by_key(|e| e.0);
        let rest: Vec<(SimTime, u64)> = std::iter::from_fn(|| p.q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        prop_assert_eq!(rest, p.reference);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_pops_in_reference_order(ops in prop::collection::vec(op(), 0..300)) {
            check_against_reference(0, &ops)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_pops_in_reference_order_over_a_deep_backlog(
            ops in prop::collection::vec(op(), 100..400),
        ) {
            check_against_reference(10_000, &ops)?;
        }
    }
}
