//! Cycle-accounted hardware resources: slot pools and occupancy windows.
//!
//! The out-of-order model is *one-pass*: micro-ops are processed in program
//! order and every pipeline event time is computed immediately from resource
//! constraints. Two resource shapes cover the whole core:
//!
//! * [`SlotPool`] — `n` interchangeable units each busy for some occupancy
//!   (fetch/dispatch/issue/commit ports, ALUs, memory ports, write buffer);
//! * [`FifoOccupancy`] / [`UnorderedOccupancy`] — bounded buffers whose
//!   entries release at known times (ROB, LQ, SQ, physical registers release
//!   in order; the issue queue releases out of order).
//!
//! # Event queries
//!
//! Every structure exposes its event horizon for the event-driven driver
//! (see `paradet-core`'s `ARCHITECTURE.md` section): the *next* cycle at
//! which its state changes ([`FifoOccupancy::next_event_cycle`],
//! [`UnorderedOccupancy::next_event_cycle`], [`SlotPool::next_event_after`])
//! and the cycle after which it is fully idle ([`SlotPool::idle_at`]). The
//! invariant these promise — and the unit tests below pin — is that an
//! acquisition strictly before `next_event_cycle()` observes no state
//! change: no entry releases, no unit frees. That is what lets the core
//! jump over stall-dominated regions in one step instead of re-walking
//! every structure per micro-op.
//!
//! The issue queue is the one structure whose naive implementation *was*
//! per-cycle-shaped: it re-scanned (and compacted) all recorded releases on
//! every acquisition. [`UnorderedOccupancy`] now keeps its releases in an
//! ascending sorted buffer and only pops entries that actually release —
//! identical results (pinned by a reference-model test below). Releases
//! arrive nearly in order, so the insertion scan from the back is short and
//! both ends are O(1) in the common case.

/// A pool of `n` identical units, each usable by one operation at a time.
#[derive(Debug, Clone)]
pub struct SlotPool {
    free_at: Vec<u64>,
}

impl SlotPool {
    /// Creates a pool of `n` units, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> SlotPool {
        assert!(n > 0, "a slot pool needs at least one unit");
        SlotPool { free_at: vec![0; n] }
    }

    /// Acquires the earliest-available unit no earlier than `earliest`,
    /// holding it for `occupancy` cycles. Returns `(unit_index, start)`.
    /// Ties go to the lowest unit index: a stuck-at fault names its unit,
    /// so unit identity is part of the model.
    #[inline]
    pub fn take(&mut self, earliest: u64, occupancy: u64) -> (usize, u64) {
        let mut best = 0;
        for i in 1..self.free_at.len() {
            if self.free_at[i] < self.free_at[best] {
                best = i;
            }
        }
        let start = earliest.max(self.free_at[best]);
        self.free_at[best] = start + occupancy;
        (best, start)
    }

    /// Overrides the busy-until time of one unit — used when the occupancy
    /// is not known until after acquisition (e.g. a write-buffer entry held
    /// until its store's cache write completes).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn set_busy(&mut self, unit: usize, until: u64) {
        self.free_at[unit] = self.free_at[unit].max(until);
    }

    /// The next cycle strictly after `now` at which a unit frees, or
    /// `None` if every unit is already free by `now`. No unit changes
    /// availability in the open interval between `now` and the returned
    /// cycle.
    pub fn next_event_after(&self, now: u64) -> Option<u64> {
        self.free_at.iter().copied().filter(|&t| t > now).min()
    }

    /// The cycle at (and after) which the whole pool is idle: a `take` at
    /// `earliest >= idle_at()` starts at `earliest`, unconditionally.
    pub fn idle_at(&self) -> u64 {
        self.free_at.iter().copied().max().unwrap_or(0)
    }

    /// Resets all units to free-at-zero.
    pub fn reset(&mut self) {
        self.free_at.fill(0);
    }
}

/// A bounded FIFO whose entries release in order (ROB, LQ, SQ, free lists).
///
/// `acquire` returns the earliest cycle at which a slot is available given
/// the desired start; the caller later records the release time with `push`.
///
/// Storage is a power-of-two ring indexed by mask rather than a `VecDeque`:
/// the core touches five of these windows per micro-op, and the handrolled
/// ring keeps front/push/pop free of capacity bookkeeping on the hot path
/// (the ring only grows in the rare transient over-capacity case below).
#[derive(Debug, Clone)]
pub struct FifoOccupancy {
    cap: usize,
    /// Ring storage; `buf.len()` is a power of two and `mask` its minus-one.
    buf: Vec<u64>,
    mask: usize,
    head: usize,
    len: usize,
}

impl FifoOccupancy {
    /// Creates an empty window with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> FifoOccupancy {
        assert!(cap > 0, "occupancy window needs at least one entry");
        // One slack slot so the common over-capacity transient (uops of one
        // macro-op pushed before the next acquire) rarely grows the ring.
        let n = (cap + 1).next_power_of_two();
        FifoOccupancy { cap, buf: vec![0; n], mask: n - 1, head: 0, len: 0 }
    }

    #[inline]
    fn pop_front(&mut self) -> u64 {
        debug_assert!(self.len > 0);
        let v = self.buf[self.head];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        v
    }

    /// Returns the earliest cycle ≥ `earliest` at which an entry is free,
    /// draining entries that have released by then.
    #[inline]
    pub fn acquire(&mut self, earliest: u64) -> u64 {
        let mut t = earliest;
        // Drain entries already released at t.
        while self.len > 0 && self.buf[self.head] <= t {
            self.head = (self.head + 1) & self.mask;
            self.len -= 1;
        }
        // If still full, wait for the oldest entry (in-order release).
        while self.len >= self.cap {
            let front = self.pop_front();
            t = t.max(front);
        }
        t
    }

    /// Records that the entry acquired for this operation releases at
    /// `release_cycle`.
    ///
    /// The window may transiently hold more recorded entries than its
    /// capacity when several acquisitions are in flight before their
    /// releases are recorded (e.g. the micro-ops of one macro-op);
    /// [`acquire`](Self::acquire) drains the excess by waiting on the
    /// oldest entries.
    #[inline]
    pub fn push(&mut self, release_cycle: u64) {
        if self.len == self.buf.len() {
            self.grow();
        }
        self.buf[(self.head + self.len) & self.mask] = release_cycle;
        self.len += 1;
    }

    /// Doubles the ring, re-linearizing entries from `head`.
    #[cold]
    fn grow(&mut self) {
        let n = self.buf.len() * 2;
        let mut buf = vec![0; n];
        for (i, slot) in buf.iter_mut().take(self.len).enumerate() {
            *slot = self.buf[(self.head + i) & self.mask];
        }
        self.buf = buf;
        self.mask = n - 1;
        self.head = 0;
    }

    /// The next cycle at which the oldest entry releases (entries release
    /// in FIFO order), or `None` if the window is empty. An acquisition
    /// strictly before this drains nothing.
    pub fn next_event_cycle(&self) -> Option<u64> {
        if self.len > 0 {
            Some(self.buf[self.head])
        } else {
            None
        }
    }

    /// The recorded, not-yet-drained release cycles in queue order.
    pub fn releases(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(|i| self.buf[(self.head + i) & self.mask])
    }

    /// Current number of unreleased entries recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window has no recorded entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears the window.
    ///
    /// Also the event-driven fast path for a quiescent window: when every
    /// recorded release is at or before the acquisition cycle, draining and
    /// clearing are the same state transition, and clearing is O(1).
    pub fn reset(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

/// A bounded buffer whose entries release out of order (the issue queue:
/// micro-ops leave when they issue, not in age order).
///
/// Releases live in an ascending sorted buffer: an acquisition pops only the
/// entries that actually release by its start cycle off the front, instead
/// of re-scanning and compacting the whole buffer per call (the old
/// `Vec::retain` shape, kept as the reference model in this module's
/// tests). A push inserts by scanning from the back, where nearly every
/// release lands.
#[derive(Debug, Clone)]
pub struct UnorderedOccupancy {
    cap: usize,
    /// The [`FifoOccupancy`] ring, with every insertion kept in ascending
    /// order so its front is always the earliest release.
    release: FifoOccupancy,
}

impl UnorderedOccupancy {
    /// Creates an empty buffer with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> UnorderedOccupancy {
        assert!(cap > 0, "occupancy buffer needs at least one entry");
        UnorderedOccupancy { cap, release: FifoOccupancy::new(cap) }
    }

    /// Returns the earliest cycle ≥ `earliest` at which an entry is free,
    /// removing whichever entry releases first if the buffer is full.
    #[inline]
    pub fn acquire(&mut self, earliest: u64) -> u64 {
        let mut t = earliest;
        while let Some(min) = self.release.next_event_cycle() {
            if min > t {
                if self.release.len < self.cap {
                    break;
                }
                // Full and nothing released yet: wait for the earliest
                // release.
                t = min;
            }
            self.release.pop_front();
        }
        t
    }

    /// Records the release time of the acquired entry (see
    /// [`FifoOccupancy::push`] on transient over-capacity).
    #[inline]
    pub fn push(&mut self, release_cycle: u64) {
        let r = &mut self.release;
        if r.len == r.buf.len() {
            r.grow();
        }
        // Shift every later release up one slot, scanning from the back.
        let mut i = r.len;
        while i > 0 {
            let prev = r.buf[(r.head + i - 1) & r.mask];
            if prev <= release_cycle {
                break;
            }
            r.buf[(r.head + i) & r.mask] = prev;
            i -= 1;
        }
        r.buf[(r.head + i) & r.mask] = release_cycle;
        r.len += 1;
    }

    /// The next cycle at which any entry releases, or `None` if the buffer
    /// is empty. An acquisition strictly before this drains nothing.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.release.next_event_cycle()
    }

    /// The recorded, not-yet-drained release cycles, in ascending order.
    pub fn releases(&self) -> impl Iterator<Item = u64> + '_ {
        self.release.releases()
    }

    /// Clears the buffer (see [`FifoOccupancy::reset`] on the quiescent
    /// fast path).
    pub fn reset(&mut self) {
        self.release.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_pool_width_limits_throughput() {
        let mut p = SlotPool::new(3);
        // Six ops all wanting cycle 10 with occupancy 1: three at 10, three
        // at 11.
        let starts: Vec<u64> = (0..6).map(|_| p.take(10, 1).1).collect();
        assert_eq!(starts, vec![10, 10, 10, 11, 11, 11]);
    }

    #[test]
    fn slot_pool_unpipelined_occupancy() {
        let mut p = SlotPool::new(1);
        let (_, a) = p.take(0, 12); // divider busy 12 cycles
        let (_, b) = p.take(1, 12);
        assert_eq!(a, 0);
        assert_eq!(b, 12);
    }

    #[test]
    fn slot_pool_returns_unit_index() {
        let mut p = SlotPool::new(2);
        let (u0, _) = p.take(0, 100);
        let (u1, _) = p.take(0, 100);
        assert_ne!(u0, u1);
    }

    #[test]
    fn slot_pool_event_queries() {
        let mut p = SlotPool::new(2);
        p.take(0, 100); // unit busy until 100
        p.take(0, 30); // unit busy until 30
        assert_eq!(p.next_event_after(0), Some(30));
        // Elapsed frees are not events: only strictly-future busy-untils.
        assert_eq!(p.next_event_after(30), Some(100));
        assert_eq!(p.next_event_after(100), None);
        assert_eq!(p.idle_at(), 100);
        // At or after idle_at, a take starts exactly at `earliest`.
        let (_, start) = p.take(150, 1);
        assert_eq!(start, 150);
    }

    #[test]
    fn fifo_occupancy_blocks_when_full() {
        let mut f = FifoOccupancy::new(2);
        let t = f.acquire(0);
        f.push(10);
        assert_eq!(t, 0);
        let t = f.acquire(1);
        f.push(20);
        assert_eq!(t, 1);
        // Full: the third acquire waits for the first release (cycle 10).
        let t = f.acquire(2);
        assert_eq!(t, 10);
        f.push(30);
    }

    #[test]
    fn fifo_occupancy_drains_released() {
        let mut f = FifoOccupancy::new(2);
        f.acquire(0);
        f.push(5);
        f.acquire(0);
        f.push(6);
        // At cycle 100 both have released; no waiting.
        assert_eq!(f.acquire(100), 100);
        assert!(f.is_empty());
    }

    #[test]
    fn unordered_occupancy_releases_min_first() {
        let mut u = UnorderedOccupancy::new(2);
        u.acquire(0);
        u.push(50); // op issuing late
        u.acquire(0);
        u.push(5); // op issuing early

        // Full at cycle 1: earliest release is 5, not 50.
        let t = u.acquire(1);
        assert_eq!(t, 5);
        u.push(7);
    }

    #[test]
    fn fifo_tolerates_transient_over_capacity() {
        let mut f = FifoOccupancy::new(1);
        f.push(10);
        f.push(20); // second in-flight entry before any acquire

        // Next acquire must wait for both recorded releases.
        assert_eq!(f.acquire(0), 20);
    }

    /// No event fires before `next_event_cycle()`: acquiring strictly
    /// earlier (with space available) changes nothing and starts on time.
    #[test]
    fn no_event_before_next_event_cycle() {
        let mut u = UnorderedOccupancy::new(4);
        u.push(100);
        u.push(40);
        u.push(70);
        assert_eq!(u.next_event_cycle(), Some(40));
        // Acquire before the first release: nothing drains, start unchanged.
        assert_eq!(u.acquire(39), 39);
        assert_eq!(u.next_event_cycle(), Some(40));
        assert_eq!(u.release.len(), 3);
        // Acquire at the event: exactly the released entry drains.
        assert_eq!(u.acquire(40), 40);
        assert_eq!(u.next_event_cycle(), Some(70));

        let mut f = FifoOccupancy::new(4);
        f.push(10);
        f.push(30);
        assert_eq!(f.next_event_cycle(), Some(10));
        assert_eq!(f.acquire(9), 9);
        assert_eq!(f.len(), 2, "no release before the advertised event");
        assert_eq!(f.acquire(10), 10);
        assert_eq!(f.next_event_cycle(), Some(30));
    }

    /// The reference model for `FifoOccupancy`: the original `VecDeque`
    /// implementation. The ring must agree on every acquisition, including
    /// through over-capacity transients that force it to grow.
    struct RefFifo {
        cap: usize,
        release: std::collections::VecDeque<u64>,
    }

    impl RefFifo {
        fn acquire(&mut self, earliest: u64) -> u64 {
            let mut t = earliest;
            while let Some(&front) = self.release.front() {
                if front <= t {
                    self.release.pop_front();
                } else {
                    break;
                }
            }
            while self.release.len() >= self.cap {
                let front = self.release.pop_front().expect("non-empty");
                t = t.max(front);
            }
            t
        }
    }

    #[test]
    fn ring_matches_reference_deque() {
        let mut z = 0xfeed_face_cafe_beefu64;
        let mut rng = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        for cap in [1usize, 2, 3, 7, 8, 60, 192] {
            let mut ring = FifoOccupancy::new(cap);
            let mut reference = RefFifo { cap, release: std::collections::VecDeque::new() };
            let mut t = 0u64;
            for step in 0..3000 {
                let r = rng();
                // Bursts of pushes without intervening acquires exercise the
                // transient over-capacity path (and ring growth).
                let burst = 1 + (r % 4) as usize * (step % 13 == 0) as usize * cap;
                t += r % 9;
                let a = ring.acquire(t);
                let b = reference.acquire(t);
                assert_eq!(a, b, "acquire({t}) diverged at cap {cap}");
                assert_eq!(ring.next_event_cycle(), reference.release.front().copied());
                assert_eq!(ring.len(), reference.release.len());
                for j in 0..burst {
                    let release = a + 1 + (r >> 16) % 50 + j as u64;
                    ring.push(release);
                    reference.release.push_back(release);
                }
                assert!(ring.releases().eq(reference.release.iter().copied()));
            }
        }
    }

    /// The reference model for `UnorderedOccupancy`: the original
    /// scan-and-compact implementation, bit-for-bit the pre-event-skip
    /// semantics. The sorted-buffer version must agree on every
    /// acquisition.
    struct RefUnordered {
        cap: usize,
        release: Vec<u64>,
    }

    impl RefUnordered {
        fn acquire(&mut self, earliest: u64) -> u64 {
            let mut t = earliest;
            self.release.retain(|&r| r > t);
            while self.release.len() >= self.cap {
                let (idx, &min) =
                    self.release.iter().enumerate().min_by_key(|(_, &r)| r).expect("non-empty");
                t = t.max(min);
                self.release.swap_remove(idx);
                self.release.retain(|&r| r > t);
            }
            t
        }
    }

    #[test]
    fn sorted_buffer_matches_reference_scan() {
        // Deterministic pseudo-random op streams over several geometries.
        let mut z = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        for cap in [1usize, 2, 3, 8, 32] {
            let mut sorted = UnorderedOccupancy::new(cap);
            let mut reference = RefUnordered { cap, release: Vec::new() };
            let mut t = 0u64;
            for _ in 0..2000 {
                let r = rng();
                // Mostly-monotone acquire times with occasional jumps back,
                // as the core's per-uop dispatch stream produces.
                t = (t + r % 7).saturating_sub((r >> 8) % 5 % 2 * 3);
                let a = sorted.acquire(t);
                let b = reference.acquire(t);
                assert_eq!(a, b, "acquire({t}) diverged at cap {cap}");
                let release = a + 1 + (r >> 16) % 40;
                sorted.push(release);
                reference.release.push(release);
            }
        }
    }
}
