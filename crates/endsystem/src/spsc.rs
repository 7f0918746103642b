//! Synchronization-free single-producer/single-consumer ring buffer.
//!
//! The paper's concurrency design (§4.2): "ShareStreams' per-stream queues
//! are circular buffers with separate read and write pointers for
//! concurrent access, without any synchronization needs. This allows a
//! producer to populate the per-stream queues, while the Transmission
//! Engine may concurrently transfer scheduled frames."
//!
//! This is the classic lock-free SPSC ring: the producer owns the write
//! pointer, the consumer owns the read pointer, and each observes the
//! other's pointer with acquire loads / publishes its own with release
//! stores. Slots use `MaybeUninit` so no default value is required; the
//! ring drops any remaining items when both endpoints are gone.
#![allow(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns a value to 128 bytes so the producer- and consumer-owned
/// pointers live on separate cache lines (no false sharing between the two
/// threads). Stands in for `crossbeam::utils::CachePadded`; 128 covers the
/// spatial-prefetcher pairing on x86_64 and the line size on aarch64.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// Point-in-time ring statistics. Rejections are the ring's *visible*
/// drop counter: every `push` the ring turned away (whether the producer
/// then retried or discarded the item). The occupancy high-water mark is
/// the producer's view (`write + 1 − cached_read`); a stale cached read
/// pointer can only over-estimate occupancy, so the mark is a safe upper
/// bound and saturates at `capacity` exactly when the ring filled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingStats {
    /// Successful enqueues.
    pub pushes: u64,
    /// Enqueue attempts rejected because the ring was full.
    pub rejections: u64,
    /// Highest producer-observed occupancy (≤ capacity).
    pub high_water: usize,
    /// Ring capacity.
    pub capacity: usize,
}

/// Stats mirror shared through the ring, published by the producer (on
/// drop or explicit read) so the consumer side can read final counts
/// after the producer thread is gone.
#[derive(Debug, Default)]
struct SharedStats {
    pushes: AtomicU64,
    rejections: AtomicU64,
    high_water: AtomicUsize,
}

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer will write (monotonic, wrapped by mask).
    write: CachePadded<AtomicUsize>,
    /// Next slot the consumer will read.
    read: CachePadded<AtomicUsize>,
    /// Published statistics (own cache line: written rarely, read rarely).
    stats: CachePadded<SharedStats>,
}

// SAFETY: `Ring` is only reached through `Producer`/`Consumer`, which the
// constructor hands out exactly once each, so at most two threads touch it.
// The protocol partitions the slots between them — the producer writes only
// slots in [write, read + cap), the consumer reads only [read, write) — and
// the Release/Acquire pointer handoff makes slot contents visible before a
// slot changes sides. `T: Send` because values cross from the producer's
// thread to the consumer's.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: shared `&Ring` access is the two endpoints reaching the atomics
// and their own slot partition concurrently; see the Send argument above —
// no slot is ever aliased across threads.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both endpoints are gone: drain remaining items. `&mut self` proves
        // exclusive access, so the pointer loads need no synchronization.
        let read = self.read.load(Ordering::Relaxed); // lint:allow(atomics-ordering) -- sole surviving thread (Arc dropped to zero); nothing to synchronize with
        let write = self.write.load(Ordering::Relaxed); // lint:allow(atomics-ordering) -- same: exclusive &mut access in Drop
        for i in read..write {
            let slot = &self.buf[i & self.mask];
            // SAFETY: slots in [read, write) hold initialized values (the
            // producer wrote them and the consumer never reclaimed them),
            // and `&mut self` in Drop rules out any concurrent access.
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// The one wait of every ring user: spin (a partner on another core answers
/// in microseconds), then yield (threads may outnumber cores), then sleep
/// 50 µs doubling to 1 ms (the partner is idle; yielding forever would burn
/// a core per waiter). The sleep needs no waker and no new atomic, and its
/// cap bounds the idle cost to about a thousand wake-ups per second; an
/// unpark-on-hand-off waker cost `cluster.sim.parallel2_speedup` more than
/// the late wakes it saves. The spin covers that metric's partition
/// imbalance, which 64 spins did not (EXPERIMENTS.md "One worker, one wait").
const SPIN_WAITS: u32 = 256;
const YIELD_WAITS: u32 = 2_048;
const SLEEP_MIN_US: u64 = 50;
const SLEEP_MAX_US: u64 = 1_000;

/// One failed ring operation, the `waits`-th in a row (see [`SPIN_WAITS`]).
#[inline]
pub(crate) fn back_off(waits: &mut u32) {
    let n = *waits;
    *waits = n.saturating_add(1);
    if n < SPIN_WAITS {
        std::hint::spin_loop();
    } else if n < YIELD_WAITS {
        std::thread::yield_now();
    } else {
        let us = (SLEEP_MIN_US << (n - YIELD_WAITS).min(5)).min(SLEEP_MAX_US);
        std::thread::sleep(std::time::Duration::from_micros(us));
    }
}

/// The producing endpoint.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Cached copy of the consumer's read pointer (refresh on apparent
    /// full).
    cached_read: usize,
    /// Producer-local statistics — plain integers on the hot path,
    /// published to the shared ring on drop / explicit read.
    pushes: u64,
    rejections: u64,
    high_water: usize,
}

/// The consuming endpoint.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Cached copy of the producer's write pointer (refresh on apparent
    /// empty).
    cached_write: usize,
}

/// Creates an SPSC ring with capacity `cap` (rounded up to a power of two).
///
/// # Panics
/// Panics if `cap == 0`.
pub fn spsc_ring<T: Send>(cap: usize) -> (Producer<T>, Consumer<T>) {
    assert!(cap > 0, "capacity must be positive");
    let cap = cap.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        buf,
        mask: cap - 1,
        write: CachePadded::new(AtomicUsize::new(0)),
        read: CachePadded::new(AtomicUsize::new(0)),
        stats: CachePadded::new(SharedStats::default()),
    });
    (
        Producer {
            ring: ring.clone(),
            cached_read: 0,
            pushes: 0,
            rejections: 0,
            high_water: 0,
        },
        Consumer {
            ring,
            cached_write: 0,
        },
    )
}

impl<T: Send> Producer<T> {
    /// Attempts to enqueue, returning the value back if the ring is full.
    // lint:hot-path
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let write = self.ring.write.load(Ordering::Relaxed); // lint:allow(atomics-ordering) -- producer-owned pointer: we are the only writer, so our own last store is always visible
        if write - self.cached_read > self.ring.mask {
            // Apparently full: refresh the read pointer.
            self.cached_read = self.ring.read.load(Ordering::Acquire);
            if write - self.cached_read > self.ring.mask {
                self.rejections += 1;
                return Err(value);
            }
        }
        let slot = &self.ring.buf[write & self.ring.mask];
        // SAFETY: slot `write & mask` is outside [read, write) — the
        // consumer never touches it until our Release store below publishes
        // it — and the Acquire load of `read` above proved the consumer is
        // done with it, so the write is exclusive and the old contents (if
        // any) were already moved out by `pop`.
        unsafe { (*slot.get()).write(value) };
        self.ring.write.store(write + 1, Ordering::Release);
        self.pushes += 1;
        let occupancy = write + 1 - self.cached_read;
        if occupancy > self.high_water {
            self.high_water = occupancy;
        }
        Ok(())
    }

    /// Waits until `value` is on the ring — the one backpressure wait of
    /// every ring user (see [`SPIN_WAITS`]). `give_up` is consulted once,
    /// on the first full-ring observation (one fault sample per full-ring
    /// episode, not per wait, so an injected count stays proportional to
    /// real backpressure events): `true` drops the value instead, and this
    /// returns `false` — as it does once the consumer is gone.
    // lint:hot-path
    #[inline]
    pub fn push_spinning(&mut self, mut value: T, give_up: impl FnOnce() -> bool) -> bool {
        let mut give_up = Some(give_up);
        let mut waits = 0u32;
        loop {
            match self.push(value) {
                Ok(()) => return true,
                Err(_) if give_up.take().is_some_and(|ask| ask()) => return false,
                Err(_) if self.is_disconnected() => return false,
                Err(back) => value = back,
            }
            back_off(&mut waits);
        }
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// `true` if the consumer endpoint has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.ring) == 1
    }

    /// This ring's statistics (exact — read from the producer's own
    /// counters) and publishes them for the consumer side.
    pub fn stats(&self) -> RingStats {
        self.publish_stats();
        RingStats {
            pushes: self.pushes,
            rejections: self.rejections,
            high_water: self.high_water,
            capacity: self.capacity(),
        }
    }
}

impl<T> Producer<T> {
    fn publish_stats(&self) {
        // All Relaxed: these are monotonic statistics mirrors, not part of
        // the slot-handoff protocol — nothing is published *through* them.
        // They are exact on the consumer side once the producer thread has
        // been joined (the join itself is the happens-before edge) and
        // merely fresh-ish before that, which RingStats documents.
        let s = &self.ring.stats;
        s.pushes.store(self.pushes, Ordering::Relaxed);
        s.rejections.store(self.rejections, Ordering::Relaxed);
        s.high_water.store(self.high_water, Ordering::Relaxed);
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Final publication so `Consumer::stats` is exact once the
        // producer thread is gone.
        self.publish_stats();
    }
}

impl<T: Send> Consumer<T> {
    /// Attempts to dequeue.
    // lint:hot-path
    pub fn pop(&mut self) -> Option<T> {
        let read = self.ring.read.load(Ordering::Relaxed); // lint:allow(atomics-ordering) -- consumer-owned pointer: we are the only writer, so our own last store is always visible
        if read == self.cached_write {
            // Apparently empty: refresh the write pointer.
            self.cached_write = self.ring.write.load(Ordering::Acquire);
            if read == self.cached_write {
                return None;
            }
        }
        let slot = &self.ring.buf[read & self.ring.mask];
        // SAFETY: slot `read & mask` is inside [read, write): the Acquire
        // load of `write` above synchronized with the producer's Release
        // store, so the slot's initialization is visible, and the producer
        // will not rewrite it until our Release store below reclaims it.
        // Moving the value out leaves the slot logically uninitialized,
        // which `read + 1` records.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.ring.read.store(read + 1, Ordering::Release);
        Some(value)
    }

    /// Number of items visible to the consumer right now.
    pub fn len(&self) -> usize {
        let write = self.ring.write.load(Ordering::Acquire);
        let read = self.ring.read.load(Ordering::Relaxed); // lint:allow(atomics-ordering) -- consumer-owned pointer; only the Acquire on `write` needs to synchronize (it makes every slot in [read, write) visible)
        write - read
    }

    /// `true` if no items are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if the producer endpoint has been dropped.
    pub fn is_disconnected(&self) -> bool {
        Arc::strong_count(&self.ring) == 1
    }

    /// `true` once the producer is gone **and** everything it pushed has
    /// been popped — the ring's termination condition. The disconnect is
    /// read first: a producer that pushes its last items and drops between
    /// a consumer's empty `pop` and this check leaves a non-empty ring,
    /// which the disconnect alone would hide.
    #[inline]
    pub fn finished(&self) -> bool {
        self.is_disconnected() && self.is_empty()
    }

    /// Pops, waiting (see [`SPIN_WAITS`]) while the ring is empty but its
    /// producer is still there; `None` only once the ring is
    /// [`finished`](Consumer::finished). `while let Some(x) =
    /// rx.pop_waiting()` therefore drains a ring to its end.
    #[inline]
    pub fn pop_waiting(&mut self) -> Option<T> {
        let mut waits = 0u32;
        loop {
            match self.pop() {
                Some(item) => return Some(item),
                None if self.finished() => return None,
                None => back_off(&mut waits),
            }
        }
    }

    /// The statistics as last published by the producer: exact once the
    /// producer has dropped and its thread was joined (or it lived on this
    /// thread); otherwise a recent snapshot.
    pub fn stats(&self) -> RingStats {
        // Relaxed mirrors of the producer's plain counters — see
        // `publish_stats` for why no Acquire is needed here.
        let s = &self.ring.stats;
        RingStats {
            pushes: s.pushes.load(Ordering::Relaxed),
            rejections: s.rejections.load(Ordering::Relaxed),
            high_water: s.high_water.load(Ordering::Relaxed),
            capacity: self.ring.mask + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn fifo_semantics() {
        let (mut p, mut c) = spsc_ring(4);
        assert_eq!(c.pop(), None);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(c.pop(), Some(1));
        p.push(3).unwrap();
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let (mut p, mut c) = spsc_ring(2);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.push(3), Err(3));
        c.pop().unwrap();
        p.push(3).unwrap();
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = spsc_ring::<u8>(5);
        assert_eq!(p.capacity(), 8);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut p, mut c) = spsc_ring(4);
        for i in 0..1000u32 {
            p.push(i).unwrap();
            assert_eq!(c.pop(), Some(i));
        }
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut p, mut c) = spsc_ring(8);
        assert!(c.is_empty());
        for i in 0..5 {
            p.push(i).unwrap();
        }
        assert_eq!(c.len(), 5);
        c.pop();
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn disconnect_detection() {
        let (p, c) = spsc_ring::<u8>(2);
        assert!(!p.is_disconnected());
        drop(c);
        assert!(p.is_disconnected());
        let (p2, c2) = spsc_ring::<u8>(2);
        drop(p2);
        assert!(c2.is_disconnected());
    }

    #[test]
    fn drops_remaining_items() {
        // Dropping both endpoints must drop queued Arcs exactly once.
        let tracker = Arc::new(());
        {
            let (mut p, _c) = spsc_ring(8);
            for _ in 0..5 {
                p.push(tracker.clone()).unwrap();
            }
            assert_eq!(Arc::strong_count(&tracker), 6);
        }
        assert_eq!(Arc::strong_count(&tracker), 1);
    }

    #[test]
    fn threaded_stress_transfers_everything_in_order() {
        // Scaled down under Miri: the interpreter runs ~1000x slower and
        // the protocol violations it can catch need few iterations.
        const N: u64 = if cfg!(miri) { 2_000 } else { 1_000_000 };
        let (mut p, mut c) = spsc_ring(1024);
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                if p.push(i).is_ok() {
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected, "order violated");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn threaded_stress_with_heap_payloads() {
        // Boxed payloads catch use-after-free / double-drop under ASAN-less
        // conditions via allocator poisoning heuristics.
        const N: u64 = if cfg!(miri) { 1_000 } else { 100_000 };
        let (mut p, mut c) = spsc_ring(64);
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                if p.push(Box::new(i)).is_ok() {
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut sum = 0u64;
        let mut got = 0u64;
        while got < N {
            if let Some(v) = c.pop() {
                sum += *v;
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
    }

    #[test]
    fn full_empty_boundary_at_exact_capacity() {
        // Repeatedly fill to exactly capacity and drain to exactly empty:
        // the full/empty disambiguation (monotonic counters, not wrapped
        // indices) must hold across many wraps of the index space.
        let (mut p, mut c) = spsc_ring(8);
        for round in 0..100u32 {
            for i in 0..8 {
                p.push(round * 8 + i).unwrap();
            }
            assert_eq!(p.push(u32::MAX), Err(u32::MAX), "round {round}: full");
            assert_eq!(c.len(), 8);
            for i in 0..8 {
                assert_eq!(c.pop(), Some(round * 8 + i));
            }
            assert_eq!(c.pop(), None, "round {round}: empty");
            assert!(c.is_empty());
        }
    }

    #[test]
    fn wraparound_with_partial_occupancy() {
        // Keep the ring partially full while the pointers wrap the usize
        // index space modulo capacity many times over.
        const N: u64 = if cfg!(miri) { 1_000 } else { 10_000 };
        let (mut p, mut c) = spsc_ring(4);
        p.push(0u64).unwrap();
        p.push(1).unwrap();
        for i in 0..N {
            p.push(i + 2).unwrap();
            assert_eq!(c.pop(), Some(i));
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn drop_producer_first_with_items_in_flight() {
        // Producer dies with items still queued: the consumer must drain
        // every queued item, observe the disconnect, and the queued heap
        // payloads must drop exactly once.
        let tracker = Arc::new(());
        let (mut p, mut c) = spsc_ring(8);
        for _ in 0..6 {
            p.push(tracker.clone()).unwrap();
        }
        drop(p);
        assert!(c.is_disconnected());
        let mut drained = 0;
        while c.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, 6);
        drop(c);
        assert_eq!(Arc::strong_count(&tracker), 1);
    }

    #[test]
    fn drop_consumer_first_with_items_in_flight() {
        // Consumer dies first: the producer sees the disconnect; items it
        // already queued (and any it keeps pushing into remaining space)
        // are dropped exactly once when the ring itself goes away.
        let tracker = Arc::new(());
        let (mut p, c) = spsc_ring(4);
        for _ in 0..3 {
            p.push(tracker.clone()).unwrap();
        }
        drop(c);
        assert!(p.is_disconnected());
        p.push(tracker.clone()).unwrap(); // last free slot still accepts
        assert!(p.push(tracker.clone()).is_err(), "ring full");
        drop(p);
        assert_eq!(Arc::strong_count(&tracker), 1);
    }

    #[test]
    fn threaded_stress_bursty_producer() {
        // Bursts against a tiny ring force constant full/empty boundary
        // crossings from both sides at once. Back off with yield_now, not
        // spin_loop: with a 2-slot ring on a single-core host a spinning
        // side would burn its whole timeslice making no progress.
        const N: u64 = if cfg!(miri) { 500 } else { 20_000 };
        let (mut p, mut c) = spsc_ring(2);
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                // Burst until the ring rejects, then back off.
                while i < N && p.push(i).is_ok() {
                    i += 1;
                }
                std::thread::yield_now();
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn push_spinning_gives_up_on_a_ring_nobody_drains() {
        let (mut p, c) = spsc_ring(1);
        assert!(p.push_spinning(1u8, || false));
        drop(c);
        assert!(
            !p.push_spinning(2, || false),
            "a full ring with no consumer"
        );
    }

    #[test]
    fn waits_outlast_the_sleep_stage() {
        // The consumer reaches the sleep stage long before the producer
        // pushes; it must still see the item, and then the end.
        let (mut p, mut c) = spsc_ring(2);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert!(p.push_spinning(7u32, || false));
        });
        assert_eq!(c.pop_waiting(), Some(7));
        assert_eq!(c.pop_waiting(), None);
        producer.join().unwrap();
    }

    #[test]
    fn stats_count_pushes_rejections_and_high_water() {
        let (mut p, mut c) = spsc_ring(4);
        for i in 0..3 {
            p.push(i).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.pushes, 3);
        assert_eq!(s.rejections, 0);
        assert_eq!(s.high_water, 3);
        assert_eq!(s.capacity, 4);
        p.push(3).unwrap();
        assert_eq!(p.push(4), Err(4), "full ring rejects");
        assert_eq!(p.push(5), Err(5));
        let s = p.stats();
        assert_eq!(s.pushes, 4);
        assert_eq!(s.rejections, 2);
        assert_eq!(s.high_water, 4, "saturates at capacity when full");
        // Drain and refill: high-water stays at its maximum.
        while c.pop().is_some() {}
        p.push(9).unwrap();
        assert_eq!(p.stats().high_water, 4);
        // The consumer sees the published numbers.
        assert_eq!(c.stats(), p.stats());
    }

    #[test]
    fn consumer_reads_final_stats_after_producer_drops() {
        let (mut p, mut c) = spsc_ring(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        drop(p);
        let s = c.stats();
        assert_eq!(s.pushes, 5);
        assert_eq!(s.high_water, 5);
        while c.pop().is_some() {}
        assert_eq!(c.stats().pushes, 5, "stats survive draining");
    }

    #[test]
    fn cross_thread_stats_are_exact_after_join() {
        const N: u64 = if cfg!(miri) { 1_000 } else { 50_000 };
        let (mut p, mut c) = spsc_ring(64);
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                if p.push(i).is_ok() {
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut got = 0u64;
        while got < N {
            if c.pop().is_some() {
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        let s = c.stats();
        assert_eq!(s.pushes, N);
        assert!(s.high_water <= 64);
        assert!(s.high_water >= 1);
    }

    proptest! {
        /// Sequential push/pop interleavings behave exactly like a VecDeque.
        #[test]
        fn matches_vecdeque_model(ops in proptest::collection::vec(any::<Option<u16>>(), 0..200)) {
            let (mut p, mut c) = spsc_ring(16);
            let mut model: VecDeque<u16> = VecDeque::new();
            for op in ops {
                match op {
                    Some(v) => {
                        let ours = p.push(v);
                        if model.len() < 16 {
                            prop_assert!(ours.is_ok());
                            model.push_back(v);
                        } else {
                            prop_assert_eq!(ours, Err(v));
                        }
                    }
                    None => {
                        prop_assert_eq!(c.pop(), model.pop_front());
                    }
                }
            }
        }
    }
}
