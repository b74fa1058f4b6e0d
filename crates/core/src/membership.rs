//! Head election and liveness bookkeeping for the runtime's
//! reconfiguration plane (§3.1.1 op 6: "the membership of a Virtual
//! Component is not fixed").
//!
//! [`elect_head`] picks a replacement head deterministically (fittest
//! candidate, lowest id on ties — every observer of the same candidate
//! set elects the same head with no extra messages), and the
//! [`HeartbeatLedger`] tracks per-node transmission liveness in RT-Link
//! cycle counts — never wall-clock — so silence detection is exactly
//! reproducible across runs and thread counts. Admitting a capsule onto a
//! node is [`crate::migration::admit`]'s job.

use std::collections::{BTreeMap, BTreeSet};

use evm_netsim::NodeId;

/// One contender for a Virtual Component's head role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadCandidate {
    /// The candidate node.
    pub node: NodeId,
    /// `false` excludes the candidate outright (crashed, suspected, or
    /// carrying the Active task — the head must be free to supervise).
    pub eligible: bool,
    /// Fitness in `[0, 1]` (e.g. remaining battery). Compared first;
    /// non-finite values are treated as zero so a corrupt report can
    /// never win an election.
    pub fitness: f64,
}

/// Deterministic head election over a candidate set: the eligible
/// candidate with the highest fitness wins, and on equal fitness the
/// **lowest node id** wins. Order of the input slice is irrelevant, no
/// randomness, no wall-clock — every replica folding the same candidates
/// elects the same head.
#[must_use]
pub fn elect_head(candidates: &[HeadCandidate]) -> Option<NodeId> {
    let score = |c: &HeadCandidate| {
        if c.fitness.is_finite() {
            c.fitness.max(0.0)
        } else {
            0.0
        }
    };
    candidates
        .iter()
        .filter(|c| c.eligible)
        .fold(None::<&HeadCandidate>, |best, c| match best {
            None => Some(c),
            Some(b) => {
                let (sb, sc) = (score(b), score(c));
                if sc > sb || (sc == sb && c.node < b.node) {
                    Some(c)
                } else {
                    Some(b)
                }
            }
        })
        .map(|c| c.node)
}

/// Per-node transmission liveness in RT-Link cycle counts.
///
/// The runtime stamps the ledger whenever a node actually puts a frame
/// on the air; [`HeartbeatLedger::silent`] then answers "has this node
/// been quiet longer than the timeout?" purely from cycle arithmetic.
/// Staleness hardening: a node never heard from is *not* silent (the
/// same never-heard-≠-dead convention as
/// [`crate::health::HeartbeatMonitor`]), a stamp from a future cycle
/// (clock skew across an epoch swap) saturates instead of underflowing,
/// and marking a node down is sticky until it is explicitly revived.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatLedger {
    last_heard: BTreeMap<NodeId, u64>,
    down: BTreeSet<NodeId>,
}

impl HeartbeatLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        HeartbeatLedger::default()
    }

    /// Records a transmission by `node` in `cycle`. Later stamps win;
    /// an out-of-order earlier stamp never rolls liveness back.
    pub fn heard(&mut self, node: NodeId, cycle: u64) {
        let e = self.last_heard.entry(node).or_insert(cycle);
        *e = (*e).max(cycle);
    }

    /// `true` if `node` was heard at least once and has then been silent
    /// for strictly more than `timeout_cycles` cycles at `now_cycle`.
    #[must_use]
    pub fn silent(&self, node: NodeId, now_cycle: u64, timeout_cycles: u64) -> bool {
        match self.last_heard.get(&node) {
            Some(&last) => now_cycle.saturating_sub(last) > timeout_cycles,
            None => false,
        }
    }

    /// Marks `node` down (sticky). Returns `true` if it was newly marked.
    pub fn mark_down(&mut self, node: NodeId) -> bool {
        self.down.insert(node)
    }

    /// `true` if `node` has been marked down.
    #[must_use]
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// All nodes marked down, in id order.
    #[must_use]
    pub fn down_nodes(&self) -> Vec<NodeId> {
        self.down.iter().copied().collect()
    }

    /// The cycle `node` was last heard in, if ever.
    #[must_use]
    pub fn last_heard(&self, node: NodeId) -> Option<u64> {
        self.last_heard.get(&node).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: u16, eligible: bool, fitness: f64) -> HeadCandidate {
        HeadCandidate {
            node: NodeId(id),
            eligible,
            fitness,
        }
    }

    #[test]
    fn elect_head_prefers_fitness_then_lowest_id() {
        let got = elect_head(&[cand(5, true, 0.4), cand(3, true, 0.9), cand(7, true, 0.9)]);
        assert_eq!(got, Some(NodeId(3)), "equal fitness: lowest id wins");
        let got = elect_head(&[cand(2, true, 0.1), cand(9, true, 0.8)]);
        assert_eq!(got, Some(NodeId(9)), "fitness dominates id");
    }

    #[test]
    fn elect_head_is_input_order_independent() {
        let a = [cand(4, true, 0.5), cand(2, true, 0.5), cand(6, true, 0.5)];
        let mut b = a;
        b.reverse();
        assert_eq!(elect_head(&a), elect_head(&b));
        assert_eq!(elect_head(&a), Some(NodeId(2)));
    }

    #[test]
    fn elect_head_skips_ineligible_and_handles_empty() {
        assert_eq!(elect_head(&[]), None);
        assert_eq!(elect_head(&[cand(1, false, 1.0)]), None);
        let got = elect_head(&[cand(1, false, 1.0), cand(8, true, 0.2)]);
        assert_eq!(got, Some(NodeId(8)));
    }

    #[test]
    fn elect_head_treats_non_finite_fitness_as_zero() {
        let got = elect_head(&[
            cand(4, true, f64::NAN),
            cand(9, true, 0.1),
            cand(2, true, f64::INFINITY),
        ]);
        assert_eq!(got, Some(NodeId(9)), "corrupt fitness never wins");
        // All-corrupt set still elects deterministically by id.
        let got = elect_head(&[cand(7, true, f64::NAN), cand(3, true, -1.0)]);
        assert_eq!(got, Some(NodeId(3)));
    }

    #[test]
    fn ledger_silence_needs_a_first_stamp() {
        let ledger = HeartbeatLedger::new();
        assert!(
            !ledger.silent(NodeId(4), 1_000, 16),
            "never heard is not dead"
        );
    }

    #[test]
    fn ledger_silence_is_cycle_arithmetic() {
        let mut ledger = HeartbeatLedger::new();
        ledger.heard(NodeId(4), 10);
        assert!(!ledger.silent(NodeId(4), 26, 16), "exactly at timeout");
        assert!(ledger.silent(NodeId(4), 27, 16), "one past timeout");
        ledger.heard(NodeId(4), 27);
        assert!(!ledger.silent(NodeId(4), 40, 16));
    }

    #[test]
    fn ledger_stamps_never_roll_back_and_future_stamps_saturate() {
        let mut ledger = HeartbeatLedger::new();
        ledger.heard(NodeId(4), 50);
        ledger.heard(NodeId(4), 20); // out-of-order replay
        assert_eq!(ledger.last_heard(NodeId(4)), Some(50));
        // A stamp "from the future" (cycle counter ahead of the query)
        // saturates to not-silent instead of underflowing.
        assert!(!ledger.silent(NodeId(4), 40, 16));
    }

    #[test]
    fn ledger_down_marks_are_sticky() {
        let mut ledger = HeartbeatLedger::new();
        assert!(ledger.mark_down(NodeId(6)));
        assert!(!ledger.mark_down(NodeId(6)), "already down");
        assert!(ledger.is_down(NodeId(6)));
        ledger.mark_down(NodeId(2));
        assert_eq!(ledger.down_nodes(), vec![NodeId(2), NodeId(6)]);
        ledger.heard(NodeId(6), 99);
        assert!(ledger.is_down(NodeId(6)), "a stamp does not revive");
    }
}
