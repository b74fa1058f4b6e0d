//! Model test of [`EventQueue`]: seeded interleavings of `push`, `pop`,
//! `skip_seq` and `skip_seqs`, crowded with equal-time ties and taken
//! through a deep phase of more than 10,000 pending entries, must pop
//! exactly what a binary-heap reference over `(time, seq)` keys pops.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use evm_sim::{EventQueue, SimRng, SimTime};

/// The reference: a min-heap of `(time, seq)` keys and the same
/// sequence counter the queue keeps.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    seq: u64,
}

impl Model {
    fn push(&mut self, at: SimTime) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq)));
        seq
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse(k)| k)
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|&Reverse(k)| k)
    }
}

/// Drives the queue and the model through the same operations. Each
/// pushed event carries the seq the model assigned it, so a pop checks
/// the time, the FIFO order and the seq at once.
struct Pair {
    queue: EventQueue<u64>,
    model: Model,
    now: SimTime,
    pops: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            model: Model::default(),
            now: SimTime::ZERO,
            pops: 0,
        }
    }

    /// Pushes at a time drawn from a narrow window, so most pushes tie
    /// with pending entries. One push in four lands anywhere in the
    /// window, even before the last pop; the rest never schedule into
    /// the past, as a simulator does.
    fn push(&mut self, rng: &mut SimRng) {
        let at = if rng.chance(0.25) {
            SimTime::from_millis(rng.index(64) as u64)
        } else {
            self.now + evm_sim::SimDuration::from_millis(rng.index(8) as u64)
        };
        let seq = self.model.push(at);
        self.queue.push(at, seq);
    }

    fn pop(&mut self) {
        assert_eq!(
            self.queue.peek_entry(),
            self.model.peek(),
            "peek before pop {}",
            self.pops
        );
        let got = self.queue.pop();
        let want = self.model.pop();
        assert_eq!(got, want, "pop {}", self.pops);
        if let Some((at, _)) = got {
            self.now = self.now.max(at);
        }
        self.pops += 1;
    }

    fn skip(&mut self, rng: &mut SimRng) {
        if rng.chance(0.5) {
            let want = self.model.seq;
            self.model.seq += 1;
            assert_eq!(self.queue.skip_seq(), want, "skip_seq");
        } else {
            let n = 1 + rng.index(70) as u64;
            self.model.seq += n;
            assert_eq!(
                self.queue.skip_seqs(n),
                self.model.seq - 1,
                "skip_seqs({n})"
            );
        }
    }

    /// One operation, `push` with probability `p_push`, else a pop (or,
    /// one time in five, a sequence skip).
    fn step(&mut self, rng: &mut SimRng, p_push: f64) {
        if rng.chance(p_push) {
            self.push(rng);
        } else if rng.chance(0.2) {
            self.skip(rng);
        } else {
            self.pop();
        }
        assert_eq!(self.queue.len(), self.model.heap.len());
        assert_eq!(self.queue.peek_time(), self.model.peek().map(|(t, _)| t));
    }
}

#[test]
fn sorted_queue_matches_the_heap_model_through_a_deep_phase() {
    const DEEP: usize = 10_000;
    for seed in 0..3u64 {
        let mut rng = SimRng::seed_from(0xE0E0 ^ seed);
        let mut pair = Pair::new();
        // Shallow, as the engine runs: a handful pending.
        for _ in 0..5_000 {
            let p = if pair.queue.len() < 6 { 0.6 } else { 0.3 };
            pair.step(&mut rng, p);
        }
        // Grow past the deep mark, mixing pops and skips in.
        while pair.queue.len() <= DEEP {
            pair.step(&mut rng, 0.75);
        }
        // Churn at depth, then drain completely.
        for _ in 0..5_000 {
            pair.step(&mut rng, 0.5);
        }
        while !pair.queue.is_empty() {
            pair.step(&mut rng, 0.0);
        }
        assert_eq!(pair.queue.pop(), None);
        assert_eq!(pair.model.pop(), None);
        assert!(pair.pops > DEEP as u64, "seed {seed}: {} pops", pair.pops);
    }
}

/// Same-instant entries pop in push order even when sequence skips and
/// earlier entries interleave with them.
#[test]
fn equal_time_entries_stay_fifo_around_skips() {
    let mut q = EventQueue::new();
    let t = SimTime::from_millis(3);
    q.push(t, 0u64);
    assert_eq!(q.skip_seqs(5), 5);
    q.push(SimTime::from_millis(1), 6);
    q.push(t, 7);
    assert_eq!(q.skip_seq(), 8);
    q.push(t, 9);
    assert_eq!(q.peek_entry(), Some((SimTime::from_millis(1), 6)));
    let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
    assert_eq!(order, [6, 0, 7, 9]);
}
