//! Differential regression tests for the calendar queue under *sparse,
//! far-future* event mixes — the workload shape the communication delay
//! model introduces. Channel latencies push arrivals hundreds to millions
//! of quanta past the cursor (overflow-list territory), and credit
//! returns land at explicitly keyed `push_ord` times; both must pop in
//! exactly the order the reference binary heap produces.

use bp_core::Rng64;
use bp_sim::{BucketQueue, EventQueue, HeapQueue};

/// Drain both queues and assert identical `(t, seq, payload)` pop streams.
fn assert_identical_drain(mut bucket: BucketQueue<u32>, mut heap: HeapQueue<u32>, what: &str) {
    assert_eq!(bucket.len(), heap.len(), "{what}: length mismatch");
    let mut popped = 0usize;
    loop {
        match (bucket.pop(), heap.pop()) {
            (Some(b), Some(h)) => {
                assert_eq!(
                    (b.t.to_bits(), b.seq, b.payload),
                    (h.t.to_bits(), h.seq, h.payload),
                    "{what}: divergence at pop {popped}"
                );
                popped += 1;
            }
            (None, None) => break,
            (b, h) => panic!("{what}: one queue drained early at pop {popped}: {b:?} vs {h:?}"),
        }
    }
}

/// Sparse mix across delay scales: events a few quanta out (in-ring), a
/// few thousand out (next-day), and millions out (deep overflow), pushed
/// in random interleaving with random pops in between.
#[test]
fn sparse_far_future_mix_matches_heap() {
    // Delay scales in quanta: same-bucket, in-ring, one day out, deep
    // overflow — roughly "neighbor hop", "uniform 64-cycle latency",
    // "frame period", "multi-frame latency" at a 1 ns quantum.
    const SCALES: [f64; 4] = [0.5, 100.0, 5_000.0, 3_000_000.0];
    for seed in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(0x5ba6_5eed ^ (seed * 0x9e37_79b9));
        let mut bucket = BucketQueue::new(1e-9);
        let mut heap = HeapQueue::new();
        let mut now = 0.0f64;
        let mut payload = 0u32;
        for _ in 0..600 {
            if rng.gen_f64() < 0.65 {
                let scale = SCALES[rng.gen_index(SCALES.len())];
                let t = now + rng.gen_range_f64(0.0, scale) * 1e-9;
                payload += 1;
                bucket.push(t, payload);
                heap.push(t, payload);
            } else {
                match (bucket.pop(), heap.pop()) {
                    (Some(b), Some(h)) => {
                        assert_eq!(
                            (b.t.to_bits(), b.seq, b.payload),
                            (h.t.to_bits(), h.seq, h.payload),
                            "seed {seed}: interleaved pop diverged"
                        );
                        now = b.t;
                    }
                    (None, None) => {}
                    (b, h) => panic!("seed {seed}: pops diverged: {b:?} vs {h:?}"),
                }
            }
        }
        assert_identical_drain(bucket, heap, &format!("seed {seed} final drain"));
    }
}

/// Explicitly keyed events (the comm model's band-1 arrival/credit keys)
/// mixed with counter-keyed events at *identical* times: the band-1 bit
/// must sort them after every counter event at that time, the stream and
/// sequence fields must order within the band, and the calendar queue
/// must agree with the heap on all of it.
#[test]
fn band1_push_ord_keys_sort_identically_across_queues() {
    const BAND1: u64 = 1 << 63;
    let band1 = |stream: u64, seq: u64| BAND1 | (stream << 32) | seq;
    for seed in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(0x0bd1_0000 + seed);
        let mut bucket = BucketQueue::new(1e-9);
        let mut heap = HeapQueue::new();
        let mut payload = 0u32;
        // A handful of distinct times, each receiving a random mix of
        // counter-keyed pushes and band-1 ordinal pushes (random stream ×
        // ascending per-stream sequence, pushed in shuffled order).
        let times: Vec<f64> = (0..6).map(|i| 1e-6 * (i as f64 + 1.0)).collect();
        let mut next_seq = [0u64; 4];
        for _ in 0..240 {
            let t = times[rng.gen_index(times.len())];
            payload += 1;
            if rng.gen_bool() {
                bucket.push(t, payload);
                heap.push(t, payload);
            } else {
                let stream = rng.gen_index(next_seq.len());
                let ord = band1(stream as u64, next_seq[stream]);
                next_seq[stream] += 1;
                bucket.push_ord(t, ord, payload);
                heap.push_ord(t, ord, payload);
            }
        }
        // Within each time, all counter-keyed events must precede all
        // band-1 events (checked on the heap's stream; equality with the
        // bucket queue is checked by the drain).
        let mut check_heap = HeapQueue::new();
        let mut probe = Vec::new();
        while let Some(e) = heap.pop() {
            probe.push((e.t, e.seq, e.payload));
            check_heap.push_ord(e.t, e.seq, e.payload);
        }
        for w in probe.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(
                    !(w[0].1 >= BAND1 && w[1].1 < BAND1),
                    "seed {seed}: band-1 key popped before a counter key at t={}",
                    w[0].0
                );
            }
        }
        assert_identical_drain(bucket, check_heap, &format!("seed {seed} ord drain"));
    }
}

/// Long sparse/far-future run crossing several self-tuning checkpoints:
/// the width must widen from the mis-seeded 1 ns toward the observed
/// multi-microsecond spacing, and every pop across every rebuild must
/// still match the heap bit-for-bit.
#[test]
fn self_tuning_retunes_on_sparse_mix_without_reordering() {
    const SCALES: [f64; 4] = [0.5, 100.0, 5_000.0, 3_000_000.0];
    let mut rng = Rng64::seed_from_u64(0x7e7e_5eed);
    let mut bucket = BucketQueue::new(1e-9);
    let mut heap = HeapQueue::new();
    let mut now = 0.0f64;
    let mut payload = 0u32;
    // Steady-state churn: one push and one pop per step, >> the 4096-pop
    // retune period, with deltas drawn across all four sparsity scales.
    for step in 0..20_000 {
        let scale = SCALES[rng.gen_index(SCALES.len())];
        let t = now + rng.gen_range_f64(0.0, scale) * 1e-9;
        payload += 1;
        bucket.push(t, payload);
        heap.push(t, payload);
        match (bucket.pop(), heap.pop()) {
            (Some(b), Some(h)) => {
                assert_eq!(
                    (b.t.to_bits(), b.seq, b.payload),
                    (h.t.to_bits(), h.seq, h.payload),
                    "pop diverged at step {step} (after {} retunes)",
                    bucket.retunes()
                );
                now = b.t;
            }
            (b, h) => panic!("pops diverged at step {step}: {b:?} vs {h:?}"),
        }
    }
    assert!(
        bucket.retunes() >= 1,
        "20k sparse pops at a 1 ns seed width never retuned"
    );
    assert!(
        bucket.quantum() > 1e-9,
        "width never widened from the mis-seeded 1 ns"
    );
    assert_identical_drain(bucket, heap, "post-retune drain");
}

/// The heap-vs-calendar crossover regime: a large pending set entirely
/// beyond the ring horizon. Before the on-demand widen, every pop in this
/// regime paid an O(overflow) day-jump scan and only the 4096-pop
/// checkpoint could fix the width — far too late for a burst this size.
/// Pin the crossover: the *first* pop must widen the buckets (retune
/// count moves immediately, not after RETUNE_PERIOD pops), the widened
/// ring must absorb the whole pending span (no residual overflow), and
/// the pop stream must stay bit-identical to the heap throughout.
#[test]
fn far_future_burst_widens_immediately_and_matches_heap() {
    for seed in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(0xc505_50e4_u64 ^ seed);
        let mut bucket = BucketQueue::new(1e-9);
        let mut heap = HeapQueue::new();
        // 512 events, all 1–4 ms out at a 1 ns quantum: a million quanta
        // past the 1024-bucket horizon, so every one lands in overflow.
        for p in 0..512u32 {
            let t = rng.gen_range_f64(1e-3, 4e-3);
            bucket.push(t, p);
            heap.push(t, p);
        }
        assert_eq!(
            bucket.overflow_len(),
            512,
            "seed {seed}: not all overflowed"
        );
        let (b, h) = (bucket.pop().unwrap(), heap.pop().unwrap());
        assert_eq!(
            (b.t.to_bits(), b.seq, b.payload),
            (h.t.to_bits(), h.seq, h.payload),
            "seed {seed}: first post-widen pop diverged"
        );
        assert!(
            bucket.retunes() >= 1,
            "seed {seed}: first pop did not widen on demand"
        );
        assert!(
            bucket.quantum() > 1e-9,
            "seed {seed}: width stayed at the mis-seeded 1 ns"
        );
        assert_eq!(
            bucket.overflow_len(),
            0,
            "seed {seed}: widened ring did not absorb the pending span"
        );
        assert_identical_drain(bucket, heap, &format!("seed {seed} post-widen drain"));
    }
}

/// Workload shift: a sparse phase stretches the width out by orders of
/// magnitude, then a dense phase must pull it back — with both
/// transitions popping identically to the heap.
#[test]
fn self_tuning_narrows_back_after_dense_shift() {
    let mut bucket = BucketQueue::new(1e-6);
    let mut heap = HeapQueue::new();
    let mut now = 0.0f64;
    let pump = |bucket: &mut BucketQueue<u32>,
                heap: &mut HeapQueue<u32>,
                now: &mut f64,
                dt: f64,
                steps: u32,
                what: &str| {
        for i in 0..steps {
            bucket.push(*now + dt, i);
            heap.push(*now + dt, i);
            let (b, h) = (bucket.pop().unwrap(), heap.pop().unwrap());
            assert_eq!(
                (b.t.to_bits(), b.seq, b.payload),
                (h.t.to_bits(), h.seq, h.payload),
                "{what}: pop diverged at step {i}"
            );
            *now = b.t;
        }
    };
    pump(
        &mut bucket,
        &mut heap,
        &mut now,
        4e-3,
        10_000,
        "sparse phase",
    );
    let widened = bucket.quantum();
    assert!(widened > 1e-4, "sparse phase did not widen the buckets");
    pump(
        &mut bucket,
        &mut heap,
        &mut now,
        2e-7,
        10_000,
        "dense phase",
    );
    assert!(
        bucket.quantum() < widened / 2.0,
        "dense phase did not narrow the width back (still {:e})",
        bucket.quantum()
    );
    assert_identical_drain(bucket, heap, "post-shift drain");
}

/// Windowed re-insertion (the parallel engine pops an event past the
/// window end and re-pushes it with `push_ord` under its original key)
/// must be loss- and order-preserving even when the re-pushed event sits
/// in deep overflow relative to the cursor.
#[test]
fn repush_after_windowed_pop_preserves_order() {
    for seed in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(0xeee0_0000 + seed);
        let mut bucket = BucketQueue::new(1e-9);
        let mut heap = HeapQueue::new();
        for p in 0..200u32 {
            // Bimodal: near-term cluster plus far-future stragglers.
            let t = if rng.gen_bool() {
                rng.gen_range_f64(0.0, 2e-6)
            } else {
                rng.gen_range_f64(1e-3, 2e-3)
            };
            bucket.push(t, p);
            heap.push(t, p);
        }
        // Simulate four window rounds: drain everything below the window
        // end; the first event at or past it goes back in under its
        // original (t, seq) via push_ord.
        for end in [5e-7, 1e-6, 1.5e-3, f64::INFINITY] {
            while let (Some(b), Some(h)) = (bucket.pop(), heap.pop()) {
                assert_eq!(
                    (b.t.to_bits(), b.seq, b.payload),
                    (h.t.to_bits(), h.seq, h.payload),
                    "seed {seed}: pop diverged in window ending {end}"
                );
                if b.t >= end {
                    bucket.push_ord(b.t, b.seq, b.payload);
                    heap.push_ord(h.t, h.seq, h.payload);
                    break;
                }
            }
        }
        assert!(
            bucket.is_empty() && heap.is_empty(),
            "seed {seed}: leftovers"
        );
    }
}
