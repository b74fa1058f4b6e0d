//! Future-event list.
//!
//! A vector kept sorted by descending `(time, sequence)`, so the earliest
//! event is the last element: a pop is `Vec::pop` and a push is a binary
//! search plus one insert. The monotonically increasing sequence number
//! guarantees FIFO order among events scheduled for the same instant,
//! which in turn makes the whole simulation deterministic.
//!
//! Why sorted and not a heap: the engine keeps only a handful of events
//! pending. Measured at each pop, the mean depth is 3.8 on the Fig. 6b
//! run, 4.3 on a failover-sweep cell and 3.0 on a 2000-VC fleet, and the
//! maximum is 6, 7 and 3. At that depth an insert moves a few entries,
//! where a binary heap sifts the engine's 64-byte entries on every push
//! and every pop.
//! A deep queue still costs only O(log n) compares per push, plus the
//! move of the entries that pop before the new one.

use crate::SimTime;

/// A deterministic future-event list.
///
/// Events of type `E` are scheduled at absolute [`SimTime`]s and popped in
/// non-decreasing time order; ties are broken by insertion order (FIFO).
///
/// # Example
///
/// ```
/// use evm_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(5), "b");
/// q.push(SimTime::from_millis(1), "a");
/// q.push(SimTime::from_millis(5), "c");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Pending events, sorted by descending `(at, seq)`: the next to pop
    /// is the last.
    entries: Vec<Entry<E>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// The new entry carries the largest sequence number yet, so it pops
    /// after every pending entry at the same instant: it goes in front of
    /// them, behind every later entry.
    pub fn push(&mut self, at: SimTime, event: E) {
        let entry = Entry {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let ix = self.entries.partition_point(|e| e.at > at);
        self.entries.insert(ix, entry);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.entries.pop().map(|e| (e.at, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.last().map(|e| e.at)
    }

    /// The `(time, sequence)` key of the earliest pending event, if any.
    ///
    /// Together with [`EventQueue::skip_seq`] this lets a caller maintain
    /// a *virtual* event outside the queue and still order it exactly as
    /// if it had been pushed: compare `(at, seq)` tuples.
    #[must_use]
    pub fn peek_entry(&self) -> Option<(SimTime, u64)> {
        self.entries.last().map(|e| (e.at, e.seq))
    }

    /// Consumes one sequence number without pushing an event, returning
    /// the number consumed — the seq a [`EventQueue::push`] at this point
    /// would have been assigned. Lets a caller keep a recurring event
    /// *virtual* (outside the queue) while preserving the exact tie-break
    /// order a pushed event would have had.
    pub fn skip_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Consumes `n` sequence numbers (n ≥ 1) without pushing events,
    /// returning the **last** one consumed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn skip_seqs(&mut self, n: u64) -> u64 {
        assert!(n >= 1, "must skip at least one sequence number");
        self.seq += n;
        self.seq - 1
    }

    /// Reserves capacity for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_millis(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        q.clear();
        assert!(q.is_empty());
    }

    /// Popping always yields a non-decreasing time sequence, and same-time
    /// events preserve insertion order — checked over many random insertion
    /// patterns drawn from a seeded generator.
    #[test]
    fn random_insertions_pop_time_then_fifo() {
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from(seed);
            let n = 1 + rng.index(199);
            let times: Vec<u64> = (0..n).map(|_| rng.index(1_000) as u64).collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    assert!(t >= lt, "seed {seed}: time went backwards");
                    if t == lt {
                        assert!(i > li, "seed {seed}: FIFO violated: {li} then {i}");
                    }
                }
                last = Some((t, i));
            }
        }
    }
}
