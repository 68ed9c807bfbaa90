//! The timed engine's pending-event queue. The §IV-D simulator is a
//! discrete-event loop that only asks for the pending event with the
//! smallest `(t, ord)`: [`EventQueue`] keeps every event in that one order,
//! the time by its bits. For the finite, non-negative times the engine
//! schedules (`build_shared` refuses inputs that would make one infinite or
//! NaN) bit order is numeric order, and an integer compare is cheaper.
//!
//! Two structures hold the order. Counter-keyed events (source emissions,
//! PE completions) go to a binary heap. Events under a caller's ordinal —
//! the delay model's channel arrivals and credit returns, each scheduled at
//! `now + latency` — are created almost in key order, so they go to a
//! sorted lane, appended at its back or placed a few entries before it,
//! and only a key that belongs further back goes to the heap. The next
//! event is the lesser of the lane's front and the heap's top.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// How many entries before the lane's back [`EventQueue::push_ord`] may
/// place a key; one that sorts further back goes to the heap. Comm events
/// created at one instant are keyed by channel, not by creation order, so
/// a few land a place or two early; a model whose latency depends on hops
/// or message size lands most keys further back, and should pay no more
/// than a few compares before the heap.
const TAIL: usize = 16;

/// One pending event: a timestamp, the ordinal that breaks ties on it, and
/// an engine-defined payload.
#[derive(Clone, Copy, Debug)]
pub struct Event<P> {
    /// Event time in simulated seconds.
    pub t: f64,
    /// Tie-breaking ordinal (the insertion counter, or the caller's key for
    /// [`push_ord`](EventQueue::push_ord)); ties on `t` pop in ascending `seq`.
    pub seq: u64,
    /// Engine payload (e.g. which PE finished).
    pub payload: P,
}

/// The one order of both structures: `(time bits, ordinal)` as one u128,
/// so a compare is branch-free where the heap picks a child.
#[inline]
fn key<P>(e: &Event<P>) -> u128 {
    (u128::from(e.t.to_bits()) << 64) | u128::from(e.seq)
}

/// A heap slot; [`key`] reversed, so the max-heap pops the least.
struct Entry<P>(Event<P>);

impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        key(&other.0).cmp(&key(&self.0))
    }
}
impl<P> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl<P> Eq for Entry<P> {}

/// Min-queue of [`Event`]s: ascending time, ties by ascending ordinal.
pub struct EventQueue<P> {
    heap: BinaryHeap<Entry<P>>,
    /// [`push_ord`](Self::push_ord)'s events, ascending by [`key`].
    lane: VecDeque<Event<P>>,
    seq: u64,
    /// [`push_ord`](Self::push_ord) calls that went to the lane and to the
    /// heap.
    #[cfg(test)]
    routed: [u64; 2],
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            seq: 0,
            #[cfg(test)]
            routed: [0; 2],
        }
    }
}

/// An event at `t`, which must be finite and non-negative.
#[inline]
fn event<P>(t: f64, seq: u64, payload: P) -> Event<P> {
    debug_assert!(
        t.is_finite() && t.is_sign_positive(),
        "event time {t} is not finite and non-negative"
    );
    Event { t, seq, payload }
}

impl<P> EventQueue<P> {
    /// Insert an event at time `t`; later insertions at the same `t` pop
    /// later. `t` must be finite and non-negative.
    pub fn push(&mut self, t: f64, payload: P) {
        self.seq += 1;
        self.heap.push(Entry(event(t, self.seq, payload)));
    }

    /// Insert an event under a caller-assigned ordinal `seq` instead of the
    /// insertion counter, which is not advanced. The delay model keys
    /// channel arrivals and credit returns this way, by
    /// `(1 << 63) | stream | sequence`: after every counter-keyed event at
    /// the same time, and a function of the channel's own history only.
    /// Such keys arrive almost sorted, so the event joins the lane when its
    /// key sorts within the last 16 entries of the lane, and the heap
    /// otherwise.
    pub fn push_ord(&mut self, t: f64, seq: u64, payload: P) {
        let e = event(t, seq, payload);
        let k = key(&e);
        let len = self.lane.len();
        // Entry `i` may precede the new key.
        let before = |i: usize| key(&self.lane[i]) <= k;
        // The key fits when the entry TAIL + 1 places back precedes it.
        let fits = len <= TAIL || before(len - 1 - TAIL);
        #[cfg(test)]
        {
            self.routed[usize::from(!fits)] += 1;
        }
        if !fits {
            self.heap.push(Entry(e));
            return;
        }
        let mut at = len;
        while at > 0 && !before(at - 1) {
            at -= 1;
        }
        if at == len {
            self.lane.push_back(e);
        } else {
            self.lane.insert(at, e);
        }
        debug_assert!(
            self.lane.get(at + 1).is_none_or(|next| k <= key(next))
                && (at == 0 || key(&self.lane[at - 1]) <= k),
            "lane out of order at {at} of {}",
            self.lane.len()
        );
    }

    /// Remove and return the earliest event (smallest `(t, seq)`): the
    /// lane's front or the heap's top, whichever is less.
    pub fn pop(&mut self) -> Option<Event<P>> {
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => key(l) < key(&h.0),
            (lane, _) => lane.is_some(),
        };
        if from_lane {
            self.lane.pop_front()
        } else {
            self.heap.pop().map(|e| e.0)
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

    /// [`push_ord`](Self::push_ord) calls so far that went to the lane and
    /// to the heap.
    #[cfg(test)]
    pub(crate) fn routed(&self) -> [u64; 2] {
        self.routed
    }
}

/// The repository benchmark's name for [`EventQueue`]: its queue probe
/// (`benchmark/src/stream.rs`) builds one with a bucket width, which the
/// heap ignores. It exists only for that caller; use [`EventQueue`].
pub struct BucketQueue<P>(EventQueue<P>);

impl<P> BucketQueue<P> {
    /// Empty queue; the width argument is ignored.
    pub fn new(_quantum: f64) -> Self {
        Self(EventQueue::default())
    }

    /// [`EventQueue::push`].
    pub fn push(&mut self, t: f64, payload: P) {
        self.0.push(t, payload);
    }

    /// [`EventQueue::pop`].
    pub fn pop(&mut self) -> Option<Event<P>> {
        self.0.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Rng64;

    /// The queue beside a model it must agree with: every pop is the
    /// model's minimum `(t bits, ordinal)`.
    #[derive(Default)]
    struct Checked {
        q: EventQueue<u32>,
        model: Vec<(u64, u64, u32)>,
        counter: u64,
        id: u32,
    }

    impl Checked {
        fn push(&mut self, t: f64, ord: Option<u64>) {
            self.id += 1;
            match ord {
                Some(ord) => self.q.push_ord(t, ord, self.id),
                None => self.q.push(t, self.id),
            }
            self.counter += u64::from(ord.is_none());
            self.model
                .push((t.to_bits(), ord.unwrap_or(self.counter), self.id));
        }

        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            let min = (0..self.model.len()).min_by_key(|&i| self.model[i]);
            let want = min.map(|i| self.model.swap_remove(i));
            let got = self.q.pop().map(|e| (e.t.to_bits(), e.seq, e.payload));
            assert_eq!((got, self.q.len()), (want, self.model.len()));
            got
        }
    }

    /// Band-0 counter events, band-1 `push_ord` keys, equal times and
    /// far-future deltas, with interleaved pops.
    #[test]
    fn pops_the_minimum_of_a_model() {
        let band1 = |stream: u64, seq: u64| 1 << 63 | stream << 32 | seq;
        // Counter events at t pop before band-1 keys at t, and band-1 keys
        // by (stream, sequence), whatever the push order.
        let mut c = Checked::default();
        assert_eq!(c.pop(), None);
        c.push(2e-6, Some(band1(7, 1)));
        c.push(2e-6, None);
        c.push(2e-6, Some(band1(3, 9)));
        c.push(1e-6, None);
        c.push(2e-6, None);
        let order: Vec<u32> = std::iter::from_fn(|| c.pop().map(|e| e.2)).collect();
        assert_eq!(order, [4, 2, 5, 3, 1]);
        const DELTAS: [f64; 6] = [0.0, 1e-6, 2.5e-6, 5.2083e-6, 3e-3, 2.0];
        for seed in 0..8u64 {
            let mut rng = Rng64::seed_from_u64(0x0e0e_5eed ^ seed);
            let (mut c, mut now) = (Checked::default(), 0.0);
            for i in 0..4000 {
                let t = now + DELTAS[rng.gen_index(DELTAS.len())];
                // Streams 0-3 are band-1, sequenced by `i`; 4 is the counter.
                let stream = rng.gen_index(5) as u64;
                c.push(t, (stream < 4).then(|| band1(stream, i)));
                for _ in 0..2 * usize::from(rng.gen_f64() < 0.4) {
                    now = c.pop().map_or(now, |e| f64::from_bits(e.0));
                }
            }
            while c.pop().is_some() {}
        }
    }

    /// Where `push_ord` puts a key: sorted keys are appended to the lane,
    /// keys up to [`TAIL`] entries early are placed within it, and a key
    /// further back goes to the heap — and every pop is still the model's
    /// minimum.
    #[test]
    fn the_lane_takes_keys_near_its_back() {
        let band1 = |stream: u64, seq: u64| 1 << 63 | stream << 32 | seq;
        let routed = |c: &Checked| c.q.routed();
        // Sorted keys: ascending times, then ascending ordinals at one time.
        let mut c = Checked::default();
        for i in 0..100u32 {
            c.push(1e-6 * f64::from(i / 4), Some(band1(u64::from(i % 4), 0)));
        }
        assert_eq!(routed(&c), [100, 0]);
        assert_eq!((c.q.lane.len(), c.q.heap.len()), (100, 0));
        while c.pop().is_some() {}
        // Equal times, descending ordinals: the `i`-th key sorts `i` places
        // before the back, so keys 1..=TAIL are placed within the tail and
        // the next one goes to the heap.
        let mut c = Checked::default();
        for stream in (0..=TAIL as u64 + 1).rev() {
            c.push(3e-6, Some(band1(stream, 0)));
        }
        assert_eq!(routed(&c), [TAIL as u64 + 1, 1]);
        assert_eq!((c.q.lane.len(), c.q.heap.len()), (TAIL + 1, 1));
        // Counter-keyed events never take the lane, even in order.
        c.push(3e-6, None);
        c.push(4e-6, None);
        assert_eq!((c.q.lane.len(), c.q.heap.len()), (TAIL + 1, 3));
        // Pops interleave the two structures in key order.
        c.pop();
        c.push(3e-6, Some(band1(TAIL as u64 + 2, 0)));
        assert_eq!(routed(&c), [TAIL as u64 + 2, 1]);
        while c.pop().is_some() {}
        assert!(c.q.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not finite and non-negative")]
    fn push_refuses_a_non_finite_time() {
        EventQueue::default().push(f64::INFINITY, ());
    }
}
