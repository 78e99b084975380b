//! Discrete-event scheduling primitives for the cycle engines.
//!
//! [`CalendarQueue`] replaces the classic `BinaryHeap<(cycle, seq, ev)>`
//! event queue in the simulator hot loops. Almost every event a cycle
//! engine schedules lands a small, bounded number of cycles in the future
//! (unit latencies, NoC hops, cache hit latencies), so a bucket-per-cycle
//! wheel makes both `schedule` and `pop` O(1); the rare far-future event
//! (a contended DRAM completion) overflows into a small heap that is
//! drained back into the wheel as time advances.
//!
//! The single most common arrival distance is exactly one cycle
//! (unit-latency ops on zero-hop edges, releases, sink retirements), so
//! events due at `now + 1` skip the wheel entirely and land in a flat
//! next-cycle lane — no slot hashing, no occupancy-bitmap updates, and a
//! straight `VecDeque` pop on the consuming side. The lane preserves the
//! ordering contract for free: the wheel bucket for cycle `t` can only
//! hold events scheduled at cycles `< t - 1` (a distance-1 schedule goes
//! to the lane), so bucket-before-lane *is* global FIFO order.
//!
//! # Ordering contract
//!
//! Events pop in ascending `(cycle, insertion order)` — exactly the order
//! a `BinaryHeap` keyed on `(cycle, monotonic seq)` would produce. Within
//! one cycle the queue is FIFO. This is the ordering the fabric engine's
//! determinism rests on, and the property tests in this module pit the
//! wheel against a reference heap to lock it in.
//!
//! # Caller invariants
//!
//! * `advance(now)` must be called with non-decreasing `now`.
//! * `schedule(at, ..)` requires `at > now` (the engines clamp to
//!   `now + 1`: nothing lands in the cycle that scheduled it).
//! * All events due at a cycle must be drained (via [`CalendarQueue::pop_due`])
//!   before time advances past it; the engines visit every cycle that has
//!   events, so this holds by construction.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Horizon of the bucket wheel, in cycles. Events scheduled further than
/// this ahead of `now` go to the overflow heap. The value covers the
/// common worst case of a cold L1+L2+DRAM miss chain with queueing slack,
/// so overflow is rare even in memory-bound phases.
const WHEEL_HORIZON: u64 = 1024;

/// A far-future event parked in the overflow heap; ordered by
/// `(time, seq)` so draining preserves the global ordering contract.
struct Overflow<T> {
    time: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Overflow<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for Overflow<T> {}
impl<T> PartialOrd for Overflow<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Overflow<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// An O(1) schedule/pop event queue for cycle-level simulation.
///
/// See the module docs for the ordering contract and caller invariants.
pub struct CalendarQueue<T> {
    /// One FIFO bucket per cycle in `[now + 1, now + WHEEL_HORIZON]`,
    /// indexed by `cycle & (WHEEL_HORIZON - 1)`.
    wheel: Box<[VecDeque<T>]>,
    /// Occupancy bitmap over wheel slots (one bit per slot) so
    /// [`CalendarQueue::next_time`] skips empty buckets a word at a time.
    occupied: Box<[u64]>,
    /// Events due exactly at `now + 1` — the dominant arrival distance —
    /// bypassing wheel indexing and occupancy bookkeeping. Swapped into
    /// `cur_lane` when time advances one cycle.
    next_lane: VecDeque<T>,
    /// The lane's events for the *current* cycle, served by
    /// [`CalendarQueue::pop_due`] after the wheel bucket.
    cur_lane: VecDeque<T>,
    /// Far-future events, drained into the wheel as `now` advances.
    overflow: BinaryHeap<Reverse<Overflow<T>>>,
    /// Buffers of drained wheel buckets, handed to the next bucket that
    /// fills. A bucket holds an allocation only while it holds events,
    /// so the wheel's memory follows the buckets in use rather than
    /// every slot's high-water mark — without this, a burst of N events
    /// per cycle leaves an N-entry buffer in each of the
    /// `WHEEL_HORIZON` slots as time sweeps the ring.
    spare: Vec<VecDeque<T>>,
    /// Monotonic insertion counter; makes overflow ordering total.
    seq: u64,
    /// The engine's current cycle, as last reported via
    /// [`CalendarQueue::advance`].
    now: u64,
    len: usize,
}

impl<T> std::fmt::Debug for CalendarQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("now", &self.now)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue positioned at cycle 0.
    #[must_use]
    pub fn new() -> CalendarQueue<T> {
        let mut wheel = Vec::with_capacity(WHEEL_HORIZON as usize);
        wheel.resize_with(WHEEL_HORIZON as usize, VecDeque::new);
        CalendarQueue {
            wheel: wheel.into_boxed_slice(),
            occupied: vec![0u64; (WHEEL_HORIZON / 64) as usize].into_boxed_slice(),
            next_lane: VecDeque::new(),
            cur_lane: VecDeque::new(),
            overflow: BinaryHeap::new(),
            spare: Vec::new(),
            seq: 0,
            now: 0,
            len: 0,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events scheduled over the queue's lifetime (the monotonic
    /// insertion counter; a throughput denominator for perf reporting).
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }

    #[inline]
    fn slot_of(at: u64) -> usize {
        (at & (WHEEL_HORIZON - 1)) as usize
    }

    /// Appends `item` to wheel bucket `slot`, marking it occupied and
    /// giving it a recycled buffer when it was empty.
    #[inline]
    fn push_wheel(&mut self, slot: usize, item: T) {
        let bit = 1u64 << (slot % 64);
        if self.occupied[slot / 64] & bit == 0 {
            self.occupied[slot / 64] |= bit;
            if let Some(buf) = self.spare.pop() {
                self.wheel[slot] = buf;
            }
        }
        self.wheel[slot].push_back(item);
    }

    /// Marks the drained bucket `slot` free and parks its buffer for
    /// reuse.
    #[inline]
    fn release(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        let buf = std::mem::take(&mut self.wheel[slot]);
        if buf.capacity() > 0 {
            self.spare.push(buf);
        }
    }

    /// Schedules `item` at cycle `at`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `at > now`: an event may never land in the cycle
    /// that schedules it (the engines clamp before calling).
    pub fn schedule(&mut self, at: u64, item: T) {
        debug_assert!(at > self.now, "event at {at} not after now {}", self.now);
        self.seq += 1;
        self.len += 1;
        if at == self.now + 1 {
            self.next_lane.push_back(item);
        } else if at.saturating_sub(self.now) < WHEEL_HORIZON {
            self.push_wheel(Self::slot_of(at), item);
        } else {
            self.overflow.push(Reverse(Overflow {
                time: at,
                seq: self.seq,
                item,
            }));
        }
    }

    /// Advances the queue's notion of the current cycle, pulling any
    /// overflow events that are now within the wheel horizon into their
    /// buckets. Must be called before popping or scheduling at `now`.
    pub fn advance(&mut self, now: u64) {
        debug_assert!(now >= self.now, "time went backwards");
        if now > self.now {
            debug_assert!(self.cur_lane.is_empty(), "undrained lane events");
            if now == self.now + 1 {
                std::mem::swap(&mut self.cur_lane, &mut self.next_lane);
            } else {
                // A multi-cycle jump can only happen when no event is due
                // in between — next_time() reports now + 1 whenever the
                // lane is non-empty, so nothing can be skipped here.
                debug_assert!(self.next_lane.is_empty(), "lane events skipped");
            }
        }
        self.now = now;
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.time.saturating_sub(now) >= WHEEL_HORIZON {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.push_wheel(Self::slot_of(ev.time), ev.item);
        }
    }

    /// Pops the next event due at the current cycle (set via
    /// [`CalendarQueue::advance`]), in FIFO order, or `None` when the
    /// current cycle is exhausted. The wheel bucket drains before the
    /// next-cycle lane: every bucket entry for this cycle was scheduled
    /// at least two cycles ago, before any lane entry, so that *is*
    /// schedule order.
    pub fn pop_due(&mut self) -> Option<T> {
        let slot = Self::slot_of(self.now);
        if self.occupied[slot / 64] & (1 << (slot % 64)) != 0 {
            if let Some(item) = self.wheel[slot].pop_front() {
                self.len -= 1;
                if self.wheel[slot].is_empty() {
                    self.release(slot);
                }
                return Some(item);
            }
            self.release(slot);
        }
        let item = self.cur_lane.pop_front();
        if item.is_some() {
            self.len -= 1;
        }
        item
    }

    /// Drains every event due at the current cycle (set via
    /// [`CalendarQueue::advance`]) into `out`, preserving FIFO order —
    /// equivalent to popping [`CalendarQueue::pop_due`] until `None`,
    /// but with one occupancy-bitmap update for the whole bucket.
    pub fn drain_due_into(&mut self, out: &mut Vec<T>) {
        let slot = Self::slot_of(self.now);
        if self.occupied[slot / 64] & (1 << (slot % 64)) != 0 {
            let bucket = &mut self.wheel[slot];
            self.len -= bucket.len();
            out.extend(bucket.drain(..));
            self.release(slot);
        }
        self.len -= self.cur_lane.len();
        out.extend(self.cur_lane.drain(..));
    }

    /// The cycle of the earliest pending event, or `None` when empty.
    /// Used by the engines to jump over idle gaps.
    #[must_use]
    pub fn next_time(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // Lane events bound the answer: current-cycle remnants are due
        // now, pending next-cycle events at now + 1. Only an occupied
        // bucket at `now` itself can beat the latter, and the ring scan
        // below starts there, so taking the scan's min stays exact.
        if !self.cur_lane.is_empty() {
            return Some(self.now);
        }
        let lane_next = if self.next_lane.is_empty() {
            None
        } else {
            Some(self.now + 1)
        };
        // Scan the occupancy bitmap a word at a time, in ring order from
        // `now`'s slot; every wheel event lies within
        // [now, now + WHEEL_HORIZON), so ring distance equals time order.
        let words = self.occupied.len();
        let start = Self::slot_of(self.now);
        let (sw, sb) = (start / 64, start % 64);
        let mut found = None;
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            found = Some(sw * 64 + first.trailing_zeros() as usize);
        } else {
            for k in 1..=words {
                let w = (sw + k) % words;
                let mut word = self.occupied[w];
                if w == sw {
                    // Wrapped all the way around: only the bits before
                    // the start slot remain unchecked.
                    word &= !(!0u64 << sb);
                }
                if word != 0 {
                    found = Some(w * 64 + word.trailing_zeros() as usize);
                    break;
                }
            }
        }
        let wheel_next = match found {
            Some(slot) => {
                let dist = (slot + WHEEL_HORIZON as usize - start) % WHEEL_HORIZON as usize;
                Some(self.now + dist as u64)
            }
            None => self.overflow.peek().map(|Reverse(o)| o.time),
        };
        match (wheel_next, lane_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the BinaryHeap ordering the engines used before.
    struct HeapRef {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapRef {
        fn new() -> HeapRef {
            HeapRef {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn schedule(&mut self, at: u64, v: u32) {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, v)));
        }
        fn pop_due(&mut self, now: u64) -> Option<u32> {
            match self.heap.peek() {
                Some(&Reverse((t, _, _))) if t <= now => {
                    self.heap.pop().map(|Reverse((_, _, v))| v)
                }
                _ => None,
            }
        }
        fn next_time(&self) -> Option<u64> {
            self.heap.peek().map(|&Reverse((t, _, _))| t)
        }
    }

    #[test]
    fn fifo_within_a_cycle() {
        let mut q = CalendarQueue::new();
        q.schedule(5, "a");
        q.schedule(3, "b");
        q.schedule(5, "c");
        q.advance(3);
        assert_eq!(q.pop_due(), Some("b"));
        assert_eq!(q.pop_due(), None);
        q.advance(5);
        assert_eq!(q.pop_due(), Some("a"));
        assert_eq!(q.pop_due(), Some("c"));
        assert_eq!(q.pop_due(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_survive_the_horizon() {
        let mut q = CalendarQueue::new();
        q.schedule(WHEEL_HORIZON * 3 + 17, 1u32);
        q.schedule(2, 2u32);
        assert_eq!(q.len(), 2);
        q.advance(2);
        assert_eq!(q.pop_due(), Some(2));
        assert_eq!(q.next_time(), Some(WHEEL_HORIZON * 3 + 17));
        q.advance(WHEEL_HORIZON * 3 + 17);
        assert_eq!(q.pop_due(), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_drains_before_later_wheel_pushes_at_same_cycle() {
        let mut q = CalendarQueue::new();
        let t = WHEEL_HORIZON + 100;
        // Scheduled first, from far away: overflows.
        q.schedule(t, 1u32);
        // Advance until t is inside the horizon, then schedule a second
        // event at the same cycle: it must pop *after* the first.
        q.advance(200);
        q.schedule(t, 2u32);
        q.advance(t);
        assert_eq!(q.pop_due(), Some(1));
        assert_eq!(q.pop_due(), Some(2));
    }

    #[test]
    fn lane_pops_after_the_bucket_and_drains_with_it() {
        let mut q = CalendarQueue::new();
        // Distance 2 from cycle 0: wheel bucket for cycle 2.
        q.schedule(2, 1u32);
        q.advance(1);
        // Distance 1 from cycle 1: the next-cycle lane. Scheduled later,
        // so it must pop after the bucket entry.
        q.schedule(2, 2u32);
        assert_eq!(q.next_time(), Some(2));
        q.advance(2);
        assert_eq!(q.pop_due(), Some(1));
        assert_eq!(q.next_time(), Some(2)); // lane remnant still due now
        assert_eq!(q.pop_due(), Some(2));
        assert_eq!(q.pop_due(), None);
        assert!(q.is_empty());
        // Same shape through the bulk drain path.
        q.schedule(4, 3u32);
        q.advance(3);
        q.schedule(4, 4u32);
        q.advance(4);
        let mut out = Vec::new();
        q.drain_due_into(&mut out);
        assert_eq!(out, vec![3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn next_time_scans_to_the_earliest_bucket() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(700, 1);
        q.schedule(900, 2);
        assert_eq!(q.next_time(), Some(700));
        q.advance(700);
        let _ = q.pop_due();
        assert_eq!(q.next_time(), Some(900));
    }

    #[test]
    fn drain_due_matches_repeated_pops() {
        let mut q = CalendarQueue::new();
        let t = WHEEL_HORIZON + 7;
        q.schedule(t, 1u32); // overflows, drains back first
        q.schedule(3, 2u32);
        q.schedule(3, 3u32);
        q.advance(3);
        let mut out = Vec::new();
        q.drain_due_into(&mut out);
        assert_eq!(out, vec![2, 3]);
        assert_eq!(q.len(), 1);
        q.drain_due_into(&mut out); // empty bucket: no-op
        assert_eq!(out.len(), 2);
        q.advance(t);
        q.schedule(t + 1, 4u32);
        q.drain_due_into(&mut out);
        assert_eq!(out, vec![2, 3, 1]);
        assert_eq!(q.next_time(), Some(t + 1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drained_buckets_recycle_their_buffers() {
        // A 64-event burst two cycles ahead, every cycle, sweeps the
        // whole ring several times; only the few buckets in flight may
        // hold buffers, not every slot the burst ever touched.
        let mut q = CalendarQueue::new();
        for now in 0..4 * WHEEL_HORIZON {
            q.advance(now);
            while q.pop_due().is_some() {}
            for v in 0..64u32 {
                q.schedule(now + 2, v);
            }
        }
        let held = q.wheel.iter().filter(|b| b.capacity() > 0).count();
        assert!(
            held + q.spare.len() <= 3,
            "{held} buckets + {} spares",
            q.spare.len()
        );
    }

    #[test]
    fn randomized_against_reference_heap() {
        // Deterministic LCG so the test needs no external crates.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut q = CalendarQueue::new();
        let mut r = HeapRef::new();
        let mut now = 0u64;
        let mut popped = 0u64;
        for i in 0..20_000u32 {
            // Mixed near/far schedule distances, including past-horizon.
            let burst = rng() % 4;
            for j in 0..burst {
                let delta = match rng() % 10 {
                    0 => 1 + rng() % 3,
                    1..=7 => 1 + rng() % 300,
                    8 => 1 + rng() % (WHEEL_HORIZON - 1),
                    _ => WHEEL_HORIZON + rng() % 5000,
                };
                let v = i * 8 + j as u32;
                q.schedule(now + delta, v);
                r.schedule(now + delta, v);
            }
            // Advance: usually +1, sometimes jump to the next event.
            now = match rng() % 5 {
                0 => match r.next_time() {
                    Some(t) => t.max(now),
                    None => now + 1,
                },
                _ => now + 1,
            };
            q.advance(now);
            assert_eq!(q.next_time(), r.next_time(), "next_time at {now}");
            loop {
                let a = q.pop_due();
                let b = r.pop_due(now);
                assert_eq!(a, b, "pop at {now}");
                if a.is_none() {
                    break;
                }
                popped += 1;
            }
            assert_eq!(q.len(), r.heap.len(), "len at {now}");
        }
        assert!(popped > 10_000, "exercised {popped} pops");
    }
}
