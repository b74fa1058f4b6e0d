//! Property suite for the RT-Link slot scheduler over randomized
//! multi-hop topologies.
//!
//! 200 SimRng-driven line / grid / clustered layouts (the shapes the
//! runtime's `TopologySpec` generators produce, with jittered spacing and
//! node counts) each get a randomized pipeline-chained flow set. For every
//! case the greedy spatial placer must
//!
//! 1. satisfy [`SlotSchedule::is_interference_free`] under the 2-hop rule,
//! 2. respect every `after` precedence edge, and
//! 3. never need more slots than the serialized upper bound
//!    ([`SlotSchedule::place_flows_serial`]) — spatial reuse only ever
//!    shortens the cycle.
//!
//! A differential check pins the placer to the rule as documented: a
//! naive greedy placer built on [`Topology::two_hop_set`] must pick the
//! very same slots over the same 200 cases plus a 49-node complete graph,
//! and a naive pairwise checker must agree with
//! [`SlotSchedule::is_interference_free`]. The fast placer's per-flow
//! conflict footprint relies on symmetric neighbor lists, so every
//! `Topology` constructor is checked for them here too.
//!
//! No external property-testing dependency: the loop is a plain
//! deterministic `SimRng` sweep, like the rest of the workspace.

use evm_mac::rtlink::{Flow, RtLinkConfig, SlotAssignment, SlotSchedule};
use evm_netsim::{Channel, ChannelConfig, NodeId, NodeInfo, NodeKind, Position, Topology};
use evm_sim::SimRng;

fn channel(seed: u64) -> Channel {
    Channel::new(ChannelConfig::default(), SimRng::seed_from(seed))
}

fn derive(positions: Vec<Position>, seed: u64) -> Topology {
    let infos = positions
        .into_iter()
        .enumerate()
        .map(|(i, p)| NodeInfo::new(NodeId(i as u16), NodeKind::Relay, p, format!("n{i}")))
        .collect();
    Topology::derive(infos, &mut channel(seed))
}

/// A chain of nodes with jittered spacing: adjacency only between close
/// neighbors, so 2-hop interference sets are small and slots can be
/// reused along the line.
fn random_line(rng: &mut SimRng) -> Topology {
    let n = 4 + rng.index(9); // 4..=12 nodes
    let spacing = rng.range(35.0, 45.0);
    let positions = (0..n)
        .map(|i| Position::new(i as f64 * spacing, rng.range(-2.0, 2.0)))
        .collect();
    derive(positions, 100 + n as u64)
}

/// A w x h lattice with jittered spacing (sometimes 8-connected when the
/// diagonal is in range, sometimes 4-connected).
fn random_grid(rng: &mut SimRng) -> Topology {
    let w = 2 + rng.index(3); // 2..=4
    let h = 2 + rng.index(3);
    let spacing = rng.range(38.0, 55.0);
    let positions = (0..w * h)
        .map(|i| Position::new((i % w) as f64 * spacing, (i / w) as f64 * spacing))
        .collect();
    derive(positions, 200 + (w * 10 + h) as u64)
}

/// k distant clusters around a central node, each behind a 2-relay chain:
/// intra-cluster traffic in different clusters can share slots.
fn random_clustered(rng: &mut SimRng) -> Topology {
    let k = 2 + rng.index(3); // 2..=4 clusters
    let members = 2 + rng.index(3); // 2..=4 nodes per cluster
    let hop = rng.range(36.0, 42.0);
    let mut positions = vec![Position::new(0.0, 0.0)];
    for c in 0..k {
        let angle = 2.0 * std::f64::consts::PI * c as f64 / k as f64;
        let (dx, dy) = (angle.cos(), angle.sin());
        positions.push(Position::new(hop * dx, hop * dy));
        positions.push(Position::new(2.0 * hop * dx, 2.0 * hop * dy));
        for m in 0..members {
            let theta = 2.0 * std::f64::consts::PI * m as f64 / members as f64;
            positions.push(Position::new(
                3.0 * hop * dx + 2.0 * theta.cos(),
                3.0 * hop * dy + 2.0 * theta.sin(),
            ));
        }
    }
    derive(positions, 300 + (k * 10 + members) as u64)
}

/// A randomized flow set: random (src, dst) pairs, random listener
/// subsets, and a sprinkling of backward `after` edges (always valid:
/// they reference earlier flows only).
fn random_flows(rng: &mut SimRng, topology: &Topology) -> Vec<Flow> {
    let n_flows = 2 + rng.index(topology.len().min(10));
    random_flows_of_len(rng, topology, n_flows)
}

/// [`random_flows`] with the flow count given.
fn random_flows_of_len(rng: &mut SimRng, topology: &Topology, n_flows: usize) -> Vec<Flow> {
    let ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
    (0..n_flows)
        .map(|i| {
            let src = ids[rng.index(ids.len())];
            let dst = loop {
                let d = ids[rng.index(ids.len())];
                if d != src {
                    break d;
                }
            };
            let mut listeners = Vec::new();
            for &l in &ids {
                if l != src && l != dst && rng.chance(0.2) {
                    listeners.push(l);
                }
            }
            let mut flow = Flow::new(src, dst).with_listeners(listeners);
            if i > 0 && rng.chance(0.5) {
                flow = flow.after(rng.index(i));
            }
            flow
        })
        .collect()
}

/// The 200 seeded layouts with their flow sets.
fn seeded_cases() -> Vec<(Topology, Vec<Flow>)> {
    let mut rng = SimRng::seed_from(0x70B0);
    (0..200)
        .map(|case| {
            let topology = match case % 3 {
                0 => random_line(&mut rng),
                1 => random_grid(&mut rng),
                _ => random_clustered(&mut rng),
            };
            let flows = random_flows(&mut rng, &topology);
            (topology, flows)
        })
        .collect()
}

/// A cycle long enough that the serialized bound always fits: placement
/// failures are scheduler bugs, not capacity limits.
fn roomy(flows: &[Flow]) -> RtLinkConfig {
    RtLinkConfig {
        slots_per_cycle: flows.len() + 2,
        ..RtLinkConfig::default()
    }
}

#[test]
fn randomized_multi_hop_schedules_hold_the_invariants() {
    let mut reused_strictly_shorter = 0usize;
    for (case, (topology, flows)) in seeded_cases().into_iter().enumerate() {
        let cfg = roomy(&flows);

        let (schedule, placed) = SlotSchedule::place_flows(&cfg, &topology, &flows)
            .unwrap_or_else(|e| panic!("case {case}: spatial placement failed: {e}"));
        assert!(
            schedule.is_interference_free(&topology),
            "case {case}: 2-hop interference violated"
        );
        for (i, flow) in flows.iter().enumerate() {
            if let Some(dep) = flow.after {
                assert!(
                    placed[dep] < placed[i],
                    "case {case}: flow {i} not after its dependency"
                );
            }
        }

        let (serial, serial_placed) = SlotSchedule::place_flows_serial(&cfg, &flows)
            .unwrap_or_else(|e| panic!("case {case}: serial placement failed: {e}"));
        assert!(serial.is_interference_free(&topology));
        assert_eq!(serial.max_slot(), Some(flows.len()));
        assert_eq!(serial_placed.len(), placed.len());
        let reused_len = schedule.max_slot().expect("non-empty");
        assert!(
            reused_len <= serial.max_slot().unwrap(),
            "case {case}: reuse needed {reused_len} slots, serialized bound {}",
            serial.max_slot().unwrap()
        );
        if reused_len < serial.max_slot().unwrap() {
            reused_strictly_shorter += 1;
        }
    }
    // The suite must actually exercise spatial reuse, not just degenerate
    // single-slot cases.
    assert!(
        reused_strictly_shorter > 40,
        "only {reused_strictly_shorter}/200 cases reused slots"
    );
}

/// The invariant checker itself is exercised against schedules that pack
/// unrelated transmitters into one slot: hand-building a colliding slot
/// must be caught.
#[test]
fn is_interference_free_rejects_hand_built_collisions() {
    let mut rng = SimRng::seed_from(0xBAD);
    let topology = random_line(&mut rng);
    let flows = vec![
        Flow::new(NodeId(0), NodeId(1)),
        Flow::new(NodeId(1), NodeId(2)),
    ];
    let cfg = RtLinkConfig::default();
    let (mut schedule, _) = SlotSchedule::place_flows(&cfg, &topology, &flows).unwrap();
    // Force the second flow into the first flow's slot: owners 0 and 1
    // are neighbors, a guaranteed 2-hop conflict.
    schedule.assign(evm_mac::rtlink::SlotAssignment {
        slot: 1,
        owner: NodeId(1),
        listeners: vec![NodeId(2)],
    });
    assert!(!schedule.is_interference_free(&topology));
}

/// The documented conflict rule, spelled out on `two_hop_set`: owners
/// within two hops of each other, or an owner next to one of the other
/// transmission's listeners.
fn naive_conflict(
    topology: &Topology,
    (owner, listeners): (NodeId, &[NodeId]),
    (other, other_listeners): (NodeId, &[NodeId]),
) -> bool {
    owner == other
        || topology.two_hop_set(owner).contains(&other)
        || listeners
            .iter()
            .any(|&l| topology.neighbors(l).contains(&other))
        || other_listeners
            .iter()
            .any(|&l| topology.neighbors(l).contains(&owner))
}

/// The greedy placer as documented: flows in order, each in the earliest
/// slot after its dependency that conflicts with nothing already there.
/// `None` when a flow finds no slot.
fn naive_place(cfg: &RtLinkConfig, topology: &Topology, flows: &[Flow]) -> Option<Vec<usize>> {
    let mut slots: Vec<Vec<(NodeId, Vec<NodeId>)>> = vec![Vec::new(); cfg.slots_per_cycle];
    let mut placed: Vec<usize> = Vec::new();
    for flow in flows {
        let mut listeners = vec![flow.dst];
        listeners.extend(&flow.extra_listeners);
        listeners.sort_unstable();
        listeners.dedup();
        let first = flow.after.map_or(1, |dep| placed[dep] + 1);
        let slot = (first..cfg.slots_per_cycle).find(|&s| {
            slots[s].iter().all(|(o, ls)| {
                !naive_conflict(topology, (flow.src, &listeners), (*o, ls.as_slice()))
            })
        })?;
        slots[slot].push((flow.src, listeners));
        placed.push(slot);
    }
    Some(placed)
}

/// The pairwise interference check as documented.
fn naive_interference_free(schedule: &SlotSchedule, topology: &Topology) -> bool {
    (1..schedule.slots_per_cycle()).all(|s| {
        let asgs = schedule.in_slot(s);
        asgs.iter().enumerate().all(|(i, a)| {
            asgs[i + 1..].iter().all(|b| {
                !naive_conflict(topology, (a.owner, &a.listeners), (b.owner, &b.listeners))
            })
        })
    })
}

/// Every neighbor list is sorted, free of duplicates and self-links, and
/// mirrored: `b ∈ N(a)` exactly when `a ∈ N(b)`.
fn assert_symmetric(topology: &Topology, what: &str) {
    for n in topology.nodes() {
        let nbs = topology.neighbors(n.id);
        assert!(
            nbs.windows(2).all(|w| w[0] < w[1]),
            "{what}: neighbors of {} not sorted and deduped: {nbs:?}",
            n.id
        );
        for &nb in nbs {
            assert!(nb != n.id, "{what}: {} links to itself", n.id);
            assert!(
                topology.neighbors(nb).contains(&n.id),
                "{what}: {} -> {nb} has no reverse link",
                n.id
            );
        }
    }
}

/// Places `flows` both ways, requires identical slots, and checks the
/// interference checker against the naive one on the placed schedule and
/// on `extra` assignments forced into it. Returns how many of the forced
/// schedules the checkers agreed were interference-free.
fn assert_matches_naive(
    case: &str,
    topology: &Topology,
    flows: &[Flow],
    cfg: &RtLinkConfig,
    extra: &[SlotAssignment],
) -> usize {
    let placed = SlotSchedule::place_flows(cfg, topology, flows);
    let naive = naive_place(cfg, topology, flows);
    let (schedule, slots) = match (placed, naive) {
        (Ok((schedule, slots)), Some(naive)) => {
            assert_eq!(slots, naive, "{case}: placer and naive reference disagree");
            (schedule, slots)
        }
        (Err(_), None) => return 0,
        (placed, naive) => panic!(
            "{case}: placer {:?} vs naive {naive:?}",
            placed.map(|(_, s)| s)
        ),
    };
    for (flow, &slot) in flows.iter().zip(&slots) {
        assert!(schedule.in_slot(slot).iter().any(|a| a.owner == flow.src));
    }
    assert!(schedule.is_interference_free(topology), "{case}");
    assert!(naive_interference_free(&schedule, topology), "{case}");
    let mut clean = 0;
    for asg in extra {
        let mut forced = schedule.clone();
        forced.assign(asg.clone());
        let fast = forced.is_interference_free(topology);
        assert_eq!(
            fast,
            naive_interference_free(&forced, topology),
            "{case}: checkers disagree on {asg:?}"
        );
        clean += usize::from(fast);
    }
    clean
}

/// Random single assignments to force into a placed schedule.
fn random_assignments(rng: &mut SimRng, topology: &Topology, slots: usize) -> Vec<SlotAssignment> {
    let ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
    (0..4)
        .map(|_| SlotAssignment {
            slot: 1 + rng.index(slots - 1),
            owner: ids[rng.index(ids.len())],
            listeners: ids.iter().copied().filter(|_| rng.chance(0.15)).collect(),
        })
        .collect()
}

#[test]
fn greedy_placement_matches_the_naive_reference() {
    let mut rng = SimRng::seed_from(0xD1FF);
    let (mut forced, mut clean) = (0, 0);
    for (case, (topology, flows)) in seeded_cases().into_iter().enumerate() {
        let case = format!("case {case}");
        let cfg = roomy(&flows);
        let extra = random_assignments(&mut rng, &topology, cfg.slots_per_cycle);
        clean += assert_matches_naive(&case, &topology, &flows, &cfg, &extra);
        forced += extra.len();
        // A cycle too short for every flow: both placers give up together.
        let tight = RtLinkConfig {
            slots_per_cycle: 3,
            ..cfg
        };
        assert_matches_naive(&case, &topology, &flows, &tight, &[]);
    }
    // The forced assignments exercise both verdicts.
    assert!(
        clean > 0 && clean < forced,
        "{clean}/{forced} forced schedules were clean"
    );

    // 49 mutually audible nodes: every two-hop set is the whole cell, the
    // case the per-flow footprint fills fastest.
    let mut ch = channel(49);
    let complete = Topology::star(
        48,
        15.0,
        &[NodeKind::Sensor, NodeKind::Controller, NodeKind::Actuator],
        &mut ch,
    );
    assert!(complete
        .nodes()
        .iter()
        .all(|n| complete.neighbors(n.id).len() == 48));
    let flows = random_flows_of_len(&mut rng, &complete, 90);
    let cfg = RtLinkConfig {
        slots_per_cycle: 2 * flows.len(),
        ..RtLinkConfig::default()
    };
    let extra = random_assignments(&mut rng, &complete, cfg.slots_per_cycle);
    assert_matches_naive("complete", &complete, &flows, &cfg, &extra);
}

#[test]
fn every_constructor_yields_symmetric_neighbor_lists() {
    let mut rng = SimRng::seed_from(0x5E7);
    for (case, (topology, _)) in seeded_cases().into_iter().enumerate() {
        assert_symmetric(&topology, &format!("case {case}: derive"));
        let ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
        let dead: Vec<NodeId> = ids.iter().copied().filter(|_| rng.chance(0.3)).collect();
        assert_symmetric(
            &topology.without_nodes(&dead),
            &format!("case {case}: without_nodes"),
        );
        // Random links, some repeated and some reversed.
        let mut links: Vec<(NodeId, NodeId)> = Vec::new();
        for _ in 0..2 * ids.len() {
            let (a, b) = (ids[rng.index(ids.len())], ids[rng.index(ids.len())]);
            if a != b {
                links.push((a, b));
                if rng.chance(0.3) {
                    links.push((b, a));
                }
            }
        }
        let linked = Topology::with_links(topology.nodes().to_vec(), &links);
        assert_symmetric(&linked, &format!("case {case}: with_links"));
    }
}
