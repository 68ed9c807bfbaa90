//! Event queues for the discrete-event simulators.
//!
//! The timed simulator's pending-event set is dominated by periodic
//! `SourceEmit` ticks and `PeDone` completions drawn from a handful of
//! distinct deltas, so event times cluster tightly. [`BucketQueue`] exploits
//! that with an index-min calendar queue: events are hashed into a ring of
//! buckets by quantized time, the cursor walks the ring, and each pop scans
//! one small bucket for the true minimum. Ordering is **exactly** the
//! ordering of the previous `BinaryHeap` implementation — ascending time,
//! ties broken by insertion order (`seq`) — because quantization only picks
//! the bucket to scan, never the winner within it. [`HeapQueue`] keeps the
//! binary-heap implementation for differential testing and benchmarking
//! (`bp-bench/benches/event_queue.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending event: a timestamp, an insertion sequence number for
/// deterministic tie-breaking, and an engine-defined payload.
#[derive(Clone, Copy, Debug)]
pub struct Event<P> {
    /// Event time in simulated seconds.
    pub t: f64,
    /// Insertion order, assigned by the queue; ties on `t` pop in
    /// ascending `seq`.
    pub seq: u64,
    /// Engine payload (e.g. which PE finished).
    pub payload: P,
}

/// Common interface of the two queue implementations, so benchmarks and
/// differential tests can drive either.
pub trait EventQueue<P> {
    /// Insert an event at time `t`; later insertions at the same `t` pop
    /// later.
    fn push(&mut self, t: f64, payload: P);
    /// Insert an event with an explicit, caller-assigned ordering key
    /// instead of the internal insertion counter. The queue's counter is
    /// not advanced, so `push` ordering among counter-keyed events is
    /// unaffected. The delay model keys channel arrivals and credit
    /// returns this way, by `(1 << 63) | stream | sequence`, which sorts
    /// after every counter-keyed event at the same time and depends only
    /// on the channel's own history.
    fn push_ord(&mut self, t: f64, ord: u64, payload: P);
    /// Remove and return the earliest event (smallest `(t, seq)`).
    fn pop(&mut self) -> Option<Event<P>>;
    /// Timestamp of the event [`pop`](Self::pop) would return, without
    /// removing it or changing the queue in any way.
    fn peek_time(&self) -> Option<f64>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Binary-heap reference implementation.
// ---------------------------------------------------------------------------

struct HeapEntry<P> {
    t: f64,
    seq: u64,
    payload: P,
}

impl<P> PartialEq for HeapEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl<P> Eq for HeapEntry<P> {}
impl<P> PartialOrd for HeapEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for HeapEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: smaller time first; ties resolved by insertion order.
        other
            .t
            .partial_cmp(&self.t)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// The pre-optimization `BinaryHeap` event queue, kept as the ordering
/// reference for tests and the comparison microbenchmark.
pub struct HeapQueue<P> {
    heap: BinaryHeap<HeapEntry<P>>,
    seq: u64,
}

impl<P> Default for HeapQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> HeapQueue<P> {
    /// Empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<P> EventQueue<P> for HeapQueue<P> {
    fn push(&mut self, t: f64, payload: P) {
        self.seq += 1;
        self.heap.push(HeapEntry {
            t,
            seq: self.seq,
            payload,
        });
    }

    fn push_ord(&mut self, t: f64, ord: u64, payload: P) {
        self.heap.push(HeapEntry {
            t,
            seq: ord,
            payload,
        });
    }

    fn pop(&mut self) -> Option<Event<P>> {
        self.heap.pop().map(|e| Event {
            t: e.t,
            seq: e.seq,
            payload: e.payload,
        })
    }

    fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.t)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Calendar / bucket queue.
// ---------------------------------------------------------------------------

/// Ring size; a power of two so bucket indexing is a mask.
const RING: usize = 1024;

/// Pops between bucket-width retuning checkpoints. Large enough that the
/// measured mean inter-pop delta is stable and the O(pending) rebuild
/// amortizes to noise, small enough to catch a workload shift (e.g. the
/// engine leaving its dense startup transient) within a few thousand
/// events.
const RETUNE_PERIOD: u32 = 4096;

struct BucketEntry<P> {
    t: f64,
    seq: u64,
    /// Quantized absolute key, cached so pops never re-derive it.
    key: u64,
    payload: P,
}

/// An index-min bucket (calendar) queue keyed on quantized time.
///
/// `quantum` is the bucket width in simulated seconds; the constructor
/// argument seeds it, and the queue then **self-tunes** it to the observed
/// event spacing (see below). Events within the ring horizon (`RING`
/// quanta ahead of the cursor) go into their bucket; further events wait
/// in an overflow list that is drained ring-wise as the cursor crosses
/// into each new "day" (one full ring revolution). A pop scans the
/// cursor's bucket for the minimum `(t, seq)` among entries of the
/// current key, so same-bucket events of different days or sub-quantum
/// time offsets are still popped in exact order.
///
/// # Self-tuning bucket width
///
/// A calendar queue is only fast when the bucket width matches the event
/// spacing: too narrow and typical deltas overshoot the ring horizon, so
/// every push lands in the overflow list and every ring drain pays an
/// O(overflow) migration scan; too wide and the pending set collapses
/// into a few buckets whose linear min-scans recreate the heap's cost.
/// The engine cannot pick a good width up front — it depends on the
/// application's firing durations and source rates. So every
/// [`RETUNE_PERIOD`] pops the queue measures the mean inter-pop time
/// delta over the elapsed window (the classic calendar-queue rule:
/// width ≈ mean gap ⇒ the cursor advances about one bucket per pop) and,
/// when the current width is off by more than 2× either way, rebuilds the
/// ring with the new width in O(pending). The checkpoint rule alone is
/// blind to one regime: a large pending set entirely *beyond* the ring
/// horizon (sparse far-future mixes) thrashes the O(overflow) day-jump
/// scan on every pop without moving the measured pop spacing, so the pop
/// path additionally widens on demand — when the ring is empty and the
/// overflow is large, the width is rebuilt so the pending span fits
/// within one day (same 2× hysteresis). Retuning never changes pop
/// order: the quantum only selects which bucket an entry waits in, and
/// the pop scan always resolves exact `(t, seq)` order within the
/// earliest occupied bucket, so any monotone re-bucketing pops the same
/// sequence ([`tests`] pin this differentially against [`HeapQueue`]).
pub struct BucketQueue<P> {
    buckets: Vec<Vec<BucketEntry<P>>>,
    /// One bit per ring bucket ("occupied"), so the cursor jumps straight
    /// to the next non-empty bucket instead of probing empties one by one —
    /// the "index" of index-min. Sparse queues with long deltas (a 5 ms
    /// source period is ~10^6 cycle-quanta) would otherwise walk the whole
    /// ring between pops.
    occupied: [u64; RING / 64],
    inv_quantum: f64,
    /// Quantized key the cursor is standing on.
    cur_key: u64,
    /// Entries with keys at or beyond the current day's horizon.
    overflow: Vec<BucketEntry<P>>,
    /// Entries currently stored in ring buckets.
    ring_len: usize,
    len: usize,
    seq: u64,
    /// Timestamp of the most recent pop (0 before the first), the anchor
    /// both for the next retune window and for the rebuilt cursor.
    last_pop_t: f64,
    /// Pops since the last retune checkpoint.
    tune_pops: u32,
    /// `last_pop_t` at the last checkpoint.
    tune_t0: f64,
    /// Completed bucket-width rebuilds (observability for tests/benches).
    retunes: u64,
    /// Consecutive day jumps that migrated almost nothing out of a large
    /// overflow — the "sparse band" signal (see [`pop`](Self::pop)).
    sparse_jumps: u32,
}

impl<P> BucketQueue<P> {
    /// Queue with the given bucket width in seconds (must be positive).
    pub fn new(quantum: f64) -> Self {
        assert!(quantum > 0.0, "bucket quantum must be positive");
        Self {
            buckets: (0..RING).map(|_| Vec::new()).collect(),
            occupied: [0; RING / 64],
            inv_quantum: 1.0 / quantum,
            cur_key: 0,
            overflow: Vec::new(),
            ring_len: 0,
            len: 0,
            seq: 0,
            last_pop_t: 0.0,
            tune_pops: 0,
            tune_t0: 0.0,
            retunes: 0,
            sparse_jumps: 0,
        }
    }

    /// The current bucket width in seconds (the constructor's seed until
    /// the first retune).
    pub fn quantum(&self) -> f64 {
        1.0 / self.inv_quantum
    }

    /// How many times the queue has rebuilt itself with a retuned width.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// Entries currently waiting beyond the ring horizon (observability
    /// for the sparse-mix tests and benches).
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    #[inline]
    fn quantize(&self, t: f64) -> u64 {
        (t * self.inv_quantum) as u64
    }

    /// End (exclusive) of the day the cursor is in: the horizon beyond
    /// which pushed entries go to the overflow list.
    #[inline]
    fn day_end(&self) -> u64 {
        (self.cur_key / RING as u64 + 1) * RING as u64
    }

    fn store(&mut self, e: BucketEntry<P>) {
        if e.key < self.day_end() {
            let idx = (e.key as usize) & (RING - 1);
            self.buckets[idx].push(e);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.ring_len += 1;
        } else {
            self.overflow.push(e);
        }
    }

    /// Move overflow entries that now fall inside the cursor's day into
    /// their ring buckets.
    fn migrate(&mut self) {
        let horizon = self.day_end();
        let mut i = 0;
        while i < self.overflow.len() {
            if self.overflow[i].key < horizon {
                let e = self.overflow.swap_remove(i);
                let idx = (e.key as usize) & (RING - 1);
                self.buckets[idx].push(e);
                self.occupied[idx / 64] |= 1 << (idx % 64);
                self.ring_len += 1;
            } else {
                i += 1;
            }
        }
    }

    /// Checkpoint the pop stream and, when the observed mean inter-pop
    /// delta says the bucket width is off by more than 2× in either
    /// direction, rebuild with the measured width. Called once per pop;
    /// everything but the counter bump is amortized behind the
    /// `RETUNE_PERIOD` gate.
    #[inline]
    fn maybe_retune(&mut self) {
        self.tune_pops += 1;
        if self.tune_pops < RETUNE_PERIOD {
            return;
        }
        let span = self.last_pop_t - self.tune_t0;
        self.tune_pops = 0;
        self.tune_t0 = self.last_pop_t;
        // An all-ties window (or a zero-span startup burst) measures no
        // spacing; keep the current width rather than dividing by zero.
        if span <= 0.0 {
            return;
        }
        let target = span / RETUNE_PERIOD as f64;
        let cur = 1.0 / self.inv_quantum;
        // 2× hysteresis: bucket occupancy degrades linearly with the
        // width ratio, so small drifts are not worth an O(pending)
        // rebuild (and re-quantization churn) every checkpoint.
        if target < 2.0 * cur && 2.0 * target > cur {
            return;
        }
        self.rebuild(target);
    }

    /// Re-bucket every pending entry under a new quantum. The cursor moves
    /// to the new quantization of the last popped time; entry keys clamp
    /// to it exactly as pushes do, so the store invariants (keys in
    /// `[cur_key, ∞)`, ring entries within the cursor's day) are restored
    /// and pop order — resolved by exact `(t, seq)` within a bucket — is
    /// untouched.
    fn rebuild(&mut self, quantum: f64) {
        self.retunes += 1;
        self.sparse_jumps = 0;
        self.inv_quantum = 1.0 / quantum;
        let mut pending: Vec<BucketEntry<P>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            pending.append(bucket);
        }
        pending.append(&mut self.overflow);
        self.occupied = [0; RING / 64];
        self.ring_len = 0;
        self.cur_key = self.quantize(self.last_pop_t);
        for mut e in pending {
            e.key = self.quantize(e.t).max(self.cur_key);
            self.store(e);
        }
    }

    /// First occupied bucket index at or after `from`, if any. Every ring
    /// entry's key lies in `[cur_key, day_end)`, so with `from` at the
    /// cursor's ring position there is never an occupied bucket behind it.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == RING / 64 {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

impl<P> EventQueue<P> for BucketQueue<P> {
    fn push(&mut self, t: f64, payload: P) {
        self.seq += 1;
        // Events are never scheduled before the cursor's time (discrete
        // event simulation only schedules at or after `now`), but clamp so
        // that a same-time push whose key would round below the cursor —
        // after the cursor already advanced within the quantum — is still
        // reachable.
        let key = self.quantize(t).max(self.cur_key);
        self.len += 1;
        self.store(BucketEntry {
            t,
            seq: self.seq,
            key,
            payload,
        });
    }

    fn push_ord(&mut self, t: f64, ord: u64, payload: P) {
        let key = self.quantize(t).max(self.cur_key);
        self.len += 1;
        self.store(BucketEntry {
            t,
            seq: ord,
            key,
            payload,
        });
    }

    fn pop(&mut self) -> Option<Event<P>> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            // Everything pending is in overflow. A *large* set sitting
            // entirely beyond the ring horizon is the sparse far-future
            // regime where the calendar loses to the heap: every pop pays
            // an O(overflow) day-jump scan, while the checkpoint retune —
            // which measures *pop* spacing — cannot see the problem until
            // thousands of such pops have drained. So widen immediately,
            // sized so the pending span fits in about half the ring (one
            // day with headroom for new pushes), under the same 2×
            // hysteresis the checkpoint uses. Narrowing stays checkpoint-
            // driven: a too-wide ring never thrashes, it just scans
            // fuller buckets. Retuning is order-preserving (see
            // [`rebuild`](Self::rebuild)), so this changes cost only.
            const WIDEN_MIN_OVERFLOW: usize = 64;
            if self.overflow.len() >= WIDEN_MIN_OVERFLOW {
                let (mut min_t, mut max_t) = (f64::INFINITY, f64::NEG_INFINITY);
                for e in &self.overflow {
                    min_t = min_t.min(e.t);
                    max_t = max_t.max(e.t);
                }
                let target = (max_t - min_t) / (RING as f64 / 2.0);
                if target >= 2.0 / self.inv_quantum {
                    self.rebuild(target);
                }
            }
            if self.ring_len == 0 {
                // Jump the cursor to the start of the earliest overflow
                // entry's day and migrate. The minimum key lands in that
                // day, so the ring is non-empty after.
                let min_key = self
                    .overflow
                    .iter()
                    .map(|e| e.key)
                    .min()
                    .expect("len > 0 but no entries");
                self.cur_key = min_key - min_key % RING as u64;
                self.migrate();
                // Sparse-band detector: the size gate above misses a
                // *small but spread* overflow — each day jump pays an
                // O(overflow) migration scan to move only a handful of
                // entries, so draining a band of n entries spread over n
                // days costs O(n²) while the heap pays O(n log n). Count
                // consecutive jumps that migrate almost nothing out of a
                // non-trivial overflow; a run of them means the band is
                // sparse at the current width, so widen until the
                // remaining span fits one day — same hysteresis, same
                // order-preserving rebuild.
                const SPARSE_MAX_MIGRATED: usize = 4;
                const SPARSE_MIN_OVERFLOW: usize = 8;
                const SPARSE_JUMP_LIMIT: u32 = 4;
                if self.ring_len <= SPARSE_MAX_MIGRATED
                    && self.overflow.len() >= SPARSE_MIN_OVERFLOW
                {
                    self.sparse_jumps += 1;
                    if self.sparse_jumps >= SPARSE_JUMP_LIMIT {
                        let (mut min_t, mut max_t) = (f64::INFINITY, f64::NEG_INFINITY);
                        for e in &self.overflow {
                            min_t = min_t.min(e.t);
                            max_t = max_t.max(e.t);
                        }
                        let target = (max_t - min_t) / (RING as f64 / 2.0);
                        if target >= 2.0 / self.inv_quantum {
                            self.rebuild(target);
                        }
                        self.sparse_jumps = 0;
                    }
                } else {
                    self.sparse_jumps = 0;
                }
            }
        }
        let day_start = self.cur_key - self.cur_key % RING as u64;
        let idx = self
            .next_occupied((self.cur_key - day_start) as usize)
            .expect("ring entries are always within the cursor's day");
        self.cur_key = day_start + idx as u64;
        let bucket = &mut self.buckets[idx];
        // Within one day the bucket index determines the key, so every
        // entry here is at `cur_key` exactly; scan for the min `(t, seq)`.
        let mut best = 0usize;
        for (i, e) in bucket.iter().enumerate().skip(1) {
            debug_assert_eq!(e.key, self.cur_key);
            let (bt, bs) = (bucket[best].t, bucket[best].seq);
            if e.t < bt || (e.t == bt && e.seq < bs) {
                best = i;
            }
        }
        let e = bucket.swap_remove(best);
        if bucket.is_empty() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        self.ring_len -= 1;
        self.len -= 1;
        self.last_pop_t = e.t;
        self.maybe_retune();
        Some(Event {
            t: e.t,
            seq: e.seq,
            payload: e.payload,
        })
    }

    fn peek_time(&self) -> Option<f64> {
        // The entries `pop` would scan: the cursor's next occupied bucket,
        // or — with the ring empty — the overflow entries of the smallest
        // key, which the day jump would migrate into that bucket (a widen
        // re-buckets monotonically, so it selects the same minimum).
        let min_t = |a: f64, e: &BucketEntry<P>| a.min(e.t);
        if self.ring_len > 0 {
            let day_start = self.cur_key - self.cur_key % RING as u64;
            let idx = self.next_occupied((self.cur_key - day_start) as usize)?;
            return Some(self.buckets[idx].iter().fold(f64::INFINITY, min_t));
        }
        let min_key = self.overflow.iter().map(|e| e.key).min()?;
        let earliest = self.overflow.iter().filter(|e| e.key == min_key);
        Some(earliest.fold(f64::INFINITY, min_t))
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::Rng64;

    /// Drive both queues with an identical randomized push/pop schedule and
    /// demand bit-identical pop sequences (times, payloads, and implied
    /// insertion order).
    fn differential(quantum: f64, deltas: &[f64], seed: u64, ops: usize) {
        let mut bucket: BucketQueue<u32> = BucketQueue::new(quantum);
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let mut rng = Rng64::seed_from_u64(seed);
        let mut now = 0.0f64;
        let mut id = 0u32;
        for _ in 0..ops {
            let burst = (rng.next_u64() % 4) as usize;
            for _ in 0..burst {
                let dt = deltas[(rng.next_u64() as usize) % deltas.len()];
                bucket.push(now + dt, id);
                heap.push(now + dt, id);
                id += 1;
            }
            assert_eq!(
                bucket.peek_time().map(f64::to_bits),
                heap.peek_time().map(f64::to_bits),
                "peek diverged"
            );
            if !rng.next_u64().is_multiple_of(3) {
                let a = bucket.pop();
                let b = heap.pop();
                match (a, b) {
                    (None, None) => {}
                    (Some(x), Some(y)) => {
                        assert_eq!(x.t.to_bits(), y.t.to_bits(), "pop time diverged");
                        assert_eq!(x.payload, y.payload, "pop order diverged");
                        now = x.t;
                    }
                    _ => panic!("queue lengths diverged"),
                }
            }
            assert_eq!(bucket.len(), heap.len());
        }
        // Drain both to the end; a peek always names the next pop.
        loop {
            let peeked = bucket.peek_time().map(f64::to_bits);
            assert_eq!(peeked, heap.peek_time().map(f64::to_bits));
            match (bucket.pop(), heap.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(peeked, Some(x.t.to_bits()));
                    assert_eq!(x.t.to_bits(), y.t.to_bits());
                    assert_eq!(x.payload, y.payload);
                }
                _ => panic!("drain lengths diverged"),
            }
        }
    }

    #[test]
    fn matches_heap_on_simulation_like_deltas() {
        // Deltas shaped like the timed simulator's: a few distinct firing
        // durations plus a periodic source tick, all near the quantum.
        let deltas = [1.0e-6, 2.5e-6, 5.2083e-6, 1.5625e-7, 9.7e-6];
        differential(1.0e-6, &deltas, 0x5eed, 4000);
    }

    #[test]
    fn matches_heap_with_identical_times() {
        // Heavy tie traffic: every event lands on one of two instants per
        // step, exercising seq-order tie-breaking inside one bucket.
        let deltas = [2.0e-6, 2.0e-6, 4.0e-6];
        differential(1.0e-6, &deltas, 42, 3000);
    }

    #[test]
    fn matches_heap_across_overflow_horizon() {
        // Deltas far beyond the ring horizon (1024 quanta) force the
        // overflow path and day migration.
        let deltas = [0.5e-6, 3.0e-3, 9.0e-3, 2.0e-2];
        differential(1.0e-6, &deltas, 7, 1500);
    }

    #[test]
    fn push_ord_orders_after_counter_events_at_same_time() {
        // Counter-keyed (band-0) events at time t pop before any explicitly
        // keyed (band-1) event at the same t, and band-1 events order by
        // their explicit keys — identically in both implementations.
        const BAND1: u64 = 1 << 63;
        let mut bucket: BucketQueue<u32> = BucketQueue::new(1e-6);
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        for q in [
            &mut bucket as &mut dyn EventQueue<u32>,
            &mut heap as &mut dyn EventQueue<u32>,
        ] {
            q.push_ord(2e-6, BAND1 | (7 << 32) | 1, 10);
            q.push(2e-6, 0);
            q.push_ord(2e-6, BAND1 | (3 << 32) | 9, 11);
            q.push(1e-6, 1);
            q.push(2e-6, 2);
        }
        let order = |q: &mut dyn EventQueue<u32>| {
            let mut v = Vec::new();
            while let Some(e) = q.pop() {
                v.push(e.payload);
            }
            v
        };
        let b = order(&mut bucket);
        assert_eq!(b, vec![1, 0, 2, 11, 10]);
        assert_eq!(b, order(&mut heap));
    }

    #[test]
    fn retunes_toward_observed_spacing_without_reordering() {
        // Seed the width three decades too narrow for the traffic (every
        // delta is 1000–5000 quanta, so pushes overshoot the ring horizon
        // constantly). The differential harness runs >> RETUNE_PERIOD ops,
        // so the queue must retune — and keep popping in heap order while
        // and after it does.
        let deltas = [1.0e-3, 2.5e-3, 5.0e-3];
        differential(1.0e-6, &deltas, 0xabcd, 9000);
        // Observability: the same traffic, driven directly.
        let mut q: BucketQueue<u32> = BucketQueue::new(1.0e-6);
        let mut now = 0.0;
        for i in 0..2 * RETUNE_PERIOD {
            q.push(now + 1.0e-3, i);
            now = q.pop().unwrap().t;
        }
        assert!(q.retunes() >= 1, "mis-seeded width was never retuned");
        let w = q.quantum();
        assert!(
            w > 0.25e-3 && w < 4.0e-3,
            "retuned width {w:e} is not near the 1e-3 observed spacing"
        );
    }

    #[test]
    fn widens_on_demand_for_far_future_overflow() {
        // A big batch of events far beyond the ring horizon, pushed before
        // any pop: the first pop finds the ring empty and a large overflow
        // and must widen immediately — long before RETUNE_PERIOD pops —
        // so subsequent pops serve from ring buckets, not day-jump scans.
        let mut q: BucketQueue<u32> = BucketQueue::new(1.0e-9);
        for i in 0..256u32 {
            q.push(1.0e-3 + i as f64 * 1.0e-5, i);
        }
        assert_eq!(q.overflow_len(), 256, "all pushes overshoot the horizon");
        let first = q.pop().unwrap();
        assert_eq!(first.payload, 0);
        assert!(q.retunes() >= 1, "far-future overflow did not widen");
        assert!(q.quantum() > 1.0e-9, "width {:e} did not grow", q.quantum());
        assert_eq!(
            q.overflow_len(),
            0,
            "pending span should fit the ring after the widen"
        );
        // Drain order stays exact.
        let mut prev = first.t;
        while let Some(e) = q.pop() {
            assert!(e.t >= prev);
            prev = e.t;
        }
    }

    #[test]
    fn width_stays_put_when_well_tuned() {
        // Spacing equal to the seeded width: the measured target sits
        // inside the 2x hysteresis band, so no rebuild should ever fire.
        let mut q: BucketQueue<u32> = BucketQueue::new(1.0e-6);
        let mut now = 0.0;
        for i in 0..4 * RETUNE_PERIOD {
            q.push(now + 1.0e-6, i);
            now = q.pop().unwrap().t;
        }
        assert_eq!(q.retunes(), 0);
        assert_eq!(q.quantum(), 1.0e-6);
    }

    #[test]
    fn empty_pops_none() {
        let mut q: BucketQueue<()> = BucketQueue::new(1e-6);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        q.push(0.0, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().t, 0.0);
        assert!(q.pop().is_none());
    }
}
