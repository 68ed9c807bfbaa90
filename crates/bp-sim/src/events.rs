//! The timed engine's pending-event queue. The §IV-D simulator is a
//! discrete-event loop that only asks for the pending event with the
//! smallest `(t, ord)`: [`EventQueue`] is a binary heap keyed on that, the
//! time by its bits. For the finite, non-negative times the engine
//! schedules (`build_shared` refuses inputs that would make one infinite or
//! NaN) bit order is numeric order, and an integer compare is cheaper.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// A heap slot; `(time bits, ordinal)` reversed, so the max-heap pops the least.
struct Entry<P>(Event<P>);

impl<P> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // One u128 compare, branch-free where the heap picks a child.
        let key = |e: &Self| (u128::from(e.0.t.to_bits()) << 64) | u128::from(e.0.seq);
        key(other).cmp(&key(self))
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
    seq: u64,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        let heap = BinaryHeap::new();
        Self { heap, seq: 0 }
    }
}

impl<P> EventQueue<P> {
    /// Insert an event at time `t`; later insertions at the same `t` pop
    /// later. `t` must be finite and non-negative.
    pub fn push(&mut self, t: f64, payload: P) {
        self.seq += 1;
        self.push_ord(t, self.seq, payload);
    }

    /// Insert an event under a caller-assigned ordinal `seq` instead of the
    /// insertion counter, which is not advanced. The delay model keys
    /// channel arrivals and credit returns this way, by
    /// `(1 << 63) | stream | sequence`: after every counter-keyed event at
    /// the same time, and a function of the channel's own history only.
    pub fn push_ord(&mut self, t: f64, seq: u64, payload: P) {
        debug_assert!(
            t.is_finite() && t.is_sign_positive(),
            "event time {t} is not finite and non-negative"
        );
        self.heap.push(Entry(Event { t, seq, payload }));
    }

    /// Remove and return the earliest event (smallest `(t, seq)`).
    pub fn pop(&mut self) -> Option<Event<P>> {
        self.heap.pop().map(|e| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not finite and non-negative")]
    fn push_refuses_a_non_finite_time() {
        EventQueue::default().push(f64::INFINITY, ());
    }
}
