//! Deployment topologies and connectivity.
//!
//! A [`Topology`] owns the set of deployed nodes and answers connectivity
//! questions against a [`Channel`]: who hears whom, hop distances and
//! 2-hop interference sets (which the RT-Link slot scheduler needs).

use std::collections::{HashSet, VecDeque};

use crate::channel::Channel;
use crate::node::{NodeId, NodeInfo, NodeKind, Position};

/// Marks a raw id with no deployed node in [`Topology`]'s id table, and
/// an undiscovered node in its BFS parent table.
const ABSENT: u32 = u32::MAX;

/// A static deployment of nodes plus its derived connectivity graph.
///
/// Node ids are small integers, so every per-node table is dense: `by_id`
/// maps a raw id straight to the node's index in `nodes`, and the
/// adjacency is one compressed-row table parallel to `nodes`. Nothing is
/// hashed, and a deployment's links take two allocations, not one per
/// node.
#[derive(Debug)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    /// Raw id → index into `nodes` ([`ABSENT`] for ids not deployed),
    /// grown to the highest deployed id.
    by_id: Vec<u32>,
    /// Adjacency (bidirectional usable links): node index `i`'s
    /// neighbors are `adjacency[row[i]..row[i + 1]]`, sorted and
    /// deduplicated.
    adjacency: Vec<NodeId>,
    /// Row offsets into `adjacency`, `nodes.len() + 1` of them.
    row: Vec<u32>,
}

/// The raw id → node index table of `nodes`.
///
/// # Panics
///
/// Panics if two nodes share a [`NodeId`].
fn index_ids(nodes: &[NodeInfo]) -> Vec<u32> {
    let len = nodes.iter().map(|n| n.id.index() + 1).max();
    let mut by_id = vec![ABSENT; len.unwrap_or(0)];
    for (i, n) in nodes.iter().enumerate() {
        let slot = &mut by_id[n.id.index()];
        assert!(*slot == ABSENT, "duplicate node id {}", n.id);
        *slot = u32::try_from(i).expect("node count fits u32");
    }
    by_id
}

/// The compressed adjacency rows of `nodes` joined by `edges` (node
/// index pairs, each one bidirectional link). Every row is sorted and
/// deduplicated. Dedup is defensive: a duplicate edge would double-count
/// a neighbor in BFS expansions and interference sets.
fn adjacency_rows(nodes: &[NodeInfo], edges: &[(usize, usize)]) -> (Vec<NodeId>, Vec<u32>) {
    let mut row = vec![0u32; nodes.len() + 1];
    for &(i, j) in edges {
        row[i + 1] += 1;
        row[j + 1] += 1;
    }
    for i in 0..nodes.len() {
        row[i + 1] += row[i];
    }
    let mut fill: Vec<u32> = row[..nodes.len()].to_vec();
    let mut adjacency = vec![NodeId(0); row[nodes.len()] as usize];
    for &(i, j) in edges {
        adjacency[fill[i] as usize] = nodes[j].id;
        fill[i] += 1;
        adjacency[fill[j] as usize] = nodes[i].id;
        fill[j] += 1;
    }
    // Sort each row, then compact out duplicates in place.
    let mut kept = 0;
    for i in 0..nodes.len() {
        let (lo, hi) = (row[i] as usize, row[i + 1] as usize);
        adjacency[lo..hi].sort_unstable();
        row[i] = u32::try_from(kept).expect("link count fits u32");
        for k in lo..hi {
            if k == lo || adjacency[k] != adjacency[k - 1] {
                adjacency[kept] = adjacency[k];
                kept += 1;
            }
        }
    }
    row[nodes.len()] = u32::try_from(kept).expect("link count fits u32");
    adjacency.truncate(kept);
    (adjacency, row)
}

impl Topology {
    /// Builds a topology from node descriptions, deriving links from the
    /// channel model (a link exists if it is usable in **both**
    /// directions).
    ///
    /// # Panics
    ///
    /// Panics if two nodes share a [`NodeId`].
    #[must_use]
    pub fn derive(nodes: Vec<NodeInfo>, channel: &mut Channel) -> Self {
        let by_id = index_ids(&nodes);
        // Unshadowed links are reciprocal and draw nothing, so the reverse
        // query would only repeat the forward answer.
        let reciprocal = !channel.is_shadowed();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, a) in nodes.iter().enumerate() {
            for (j, b) in nodes.iter().enumerate() {
                if a.id >= b.id {
                    continue;
                }
                let d = a.position.distance_to(&b.position);
                if channel.is_connected((a.id, b.id), d)
                    && (reciprocal || channel.is_connected((b.id, a.id), d))
                {
                    edges.push((i, j));
                }
            }
        }
        let (adjacency, row) = adjacency_rows(&nodes, &edges);
        Topology {
            nodes,
            by_id,
            adjacency,
            row,
        }
    }

    /// Builds a topology from node descriptions and an **explicit** link
    /// list, bypassing the channel-derived adjacency. Each `(a, b)` pair
    /// becomes one bidirectional link. Fleet-scale deployments use this:
    /// deriving adjacency is O(n²) channel queries and would mesh every
    /// co-located cell together, while the fleet schedule wants exactly
    /// the per-cell links.
    ///
    /// # Panics
    ///
    /// Panics if two nodes share a [`NodeId`] or a link references an
    /// unknown id.
    #[must_use]
    pub fn with_links(nodes: Vec<NodeInfo>, links: &[(NodeId, NodeId)]) -> Self {
        let by_id = index_ids(&nodes);
        let index = |id: NodeId| match by_id.get(id.index()) {
            Some(&i) if i != ABSENT => i as usize,
            _ => panic!("link references unknown id {id}"),
        };
        let edges: Vec<(usize, usize)> = links
            .iter()
            .map(|&(a, b)| {
                let edge = (index(a), index(b));
                assert!(a != b, "self-link on id {a}");
                edge
            })
            .collect();
        let (adjacency, row) = adjacency_rows(&nodes, &edges);
        Topology {
            nodes,
            by_id,
            adjacency,
            row,
        }
    }

    /// Builds the paper's Fig. 5 testbed shape: a gateway at the origin and
    /// `n` nodes on a circle of radius `radius_m` around it, all mutually
    /// in range for a reasonable channel.
    #[must_use]
    pub fn star(n: usize, radius_m: f64, kinds: &[NodeKind], channel: &mut Channel) -> Self {
        let mut nodes = vec![NodeInfo::new(
            NodeId::GATEWAY,
            NodeKind::Gateway,
            Position::new(0.0, 0.0),
            "GW",
        )];
        for i in 0..n {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            let kind = kinds[i % kinds.len()];
            nodes.push(NodeInfo::new(
                NodeId((i + 1) as u16),
                kind,
                Position::new(radius_m * angle.cos(), radius_m * angle.sin()),
                format!("{kind}-{}", i + 1),
            ));
        }
        Topology::derive(nodes, channel)
    }

    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Node count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the deployment is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of `id` in [`Topology::nodes`], if deployed: the dense
    /// index space per-node tables can share.
    #[inline]
    #[must_use]
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        match self.by_id.get(id.index()) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }

    /// Looks up a node by id.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&NodeInfo> {
        self.index_of(id).map(|i| &self.nodes[i])
    }

    /// Distance between two deployed nodes, meters.
    ///
    /// # Panics
    ///
    /// Panics if either id is unknown.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        let pa = self.node(a).expect("unknown node").position;
        let pb = self.node(b).expect("unknown node").position;
        pa.distance_to(&pb)
    }

    /// Direct neighbors of `id` (usable bidirectional links).
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.index_of(id).map_or(&[], |i| self.row_of(i))
    }

    /// The neighbors of the node at index `i`.
    fn row_of(&self, i: usize) -> &[NodeId] {
        &self.adjacency[self.row[i] as usize..self.row[i + 1] as usize]
    }

    /// Moves every node's label out, in [`Topology::nodes`] order, and
    /// leaves each node's label empty: how a deployment takes over the
    /// labels for a table it shares with its results, without copying
    /// them.
    #[must_use]
    pub fn take_labels(&mut self) -> Vec<String> {
        self.nodes
            .iter_mut()
            .map(|n| std::mem::take(&mut n.label))
            .collect()
    }

    /// `true` if `a` and `b` share a usable link. Binary search: every
    /// constructor leaves neighbor lists sorted and deduplicated, and at
    /// fleet scale a gateway's list holds tens of thousands of entries.
    #[must_use]
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Hop count of the shortest path from `from` to `to` (BFS), or `None`
    /// if unreachable or either endpoint is not deployed.
    #[must_use]
    pub fn hops(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.shortest_path(from, to).map(|p| p.len() - 1)
    }

    /// The shortest path from `from` to `to` as a node sequence (both
    /// endpoints included; `[from]` when they coincide), or `None` if
    /// unreachable or either endpoint is not deployed.
    ///
    /// Deterministic: BFS expands the sorted neighbor lists in order and a
    /// node's parent is its first discoverer, so equal-length ties always
    /// resolve the same way — multi-hop flow routing (and its golden
    /// traces) depend on this.
    #[must_use]
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let (src, dst) = (self.index_of(from)?, self.index_of(to)?);
        if src == dst {
            return Some(vec![from]);
        }
        // Parent node index per node index; the source is its own parent,
        // so `ABSENT` alone marks the undiscovered.
        let mut parent = vec![ABSENT; self.nodes.len()];
        parent[src] = src as u32;
        let mut queue = VecDeque::from([src]);
        'bfs: while let Some(cur) = queue.pop_front() {
            for &nb in self.row_of(cur) {
                let i = self.index_of(nb).expect("neighbors are deployed");
                if parent[i] == ABSENT {
                    parent[i] = cur as u32;
                    if i == dst {
                        break 'bfs;
                    }
                    queue.push_back(i);
                }
            }
        }
        if parent[dst] == ABSENT {
            return None;
        }
        let mut path = vec![to];
        let mut cur = dst;
        while cur != src {
            cur = parent[cur] as usize;
            path.push(self.nodes[cur].id);
        }
        path.reverse();
        Some(path)
    }

    /// `true` if every node can reach every other node.
    #[must_use]
    pub fn is_fully_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        seen[0] = true;
        let mut reached = 1;
        let mut queue = VecDeque::from([0]);
        while let Some(cur) = queue.pop_front() {
            for &nb in self.row_of(cur) {
                let i = self.index_of(nb).expect("neighbors are deployed");
                if !seen[i] {
                    seen[i] = true;
                    reached += 1;
                    queue.push_back(i);
                }
            }
        }
        reached == self.nodes.len()
    }

    /// The set of nodes within two hops of `id` (excluding `id` itself):
    /// the interference set the TDMA slot scheduler must keep
    /// collision-free.
    #[must_use]
    pub fn two_hop_set(&self, id: NodeId) -> HashSet<NodeId> {
        let mut out = HashSet::new();
        for &nb in self.neighbors(id) {
            out.insert(nb);
            for &nb2 in self.neighbors(nb) {
                if nb2 != id {
                    out.insert(nb2);
                }
            }
        }
        out
    }

    /// Ids of all nodes with the given kind.
    #[must_use]
    pub fn of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == kind)
            .map(|n| n.id)
            .collect()
    }

    /// The surviving sub-topology after removing `dead` nodes: same nodes
    /// and links minus everything touching a removed id. Derived from the
    /// already-sampled connectivity graph — no channel re-query, so a
    /// mid-run view of a deployment with crashed nodes never perturbs the
    /// channel's RNG stream (runtime re-routing depends on this).
    #[must_use]
    pub fn without_nodes(&self, dead: &[NodeId]) -> Topology {
        let alive = |id: &NodeId| !dead.contains(id);
        let nodes: Vec<NodeInfo> = self
            .nodes
            .iter()
            .filter(|n| alive(&n.id))
            .cloned()
            .collect();
        let mut adjacency = Vec::with_capacity(self.adjacency.len());
        let mut row = Vec::with_capacity(nodes.len() + 1);
        row.push(0);
        for i in (0..self.nodes.len()).filter(|&i| alive(&self.nodes[i].id)) {
            adjacency.extend(self.row_of(i).iter().copied().filter(alive));
            row.push(u32::try_from(adjacency.len()).expect("link count fits u32"));
        }
        Topology {
            by_id: index_ids(&nodes),
            nodes,
            adjacency,
            row,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelConfig};
    use evm_sim::SimRng;
    use std::collections::HashMap;

    fn channel() -> Channel {
        Channel::new(ChannelConfig::default(), SimRng::seed_from(1))
    }

    fn line(nodes: usize, spacing: f64) -> Topology {
        let mut ch = channel();
        let infos = (0..nodes)
            .map(|i| {
                NodeInfo::new(
                    NodeId(i as u16),
                    NodeKind::Controller,
                    Position::new(i as f64 * spacing, 0.0),
                    format!("c{i}"),
                )
            })
            .collect();
        Topology::derive(infos, &mut ch)
    }

    #[test]
    fn star_is_fully_connected() {
        let mut ch = channel();
        let topo = Topology::star(
            6,
            15.0,
            &[NodeKind::Sensor, NodeKind::Controller, NodeKind::Actuator],
            &mut ch,
        );
        assert_eq!(topo.len(), 7);
        assert!(topo.is_fully_connected());
        assert_eq!(topo.of_kind(NodeKind::Gateway), vec![NodeId::GATEWAY]);
        assert_eq!(topo.of_kind(NodeKind::Sensor).len(), 2);
    }

    #[test]
    fn line_topology_hops() {
        // 40 m spacing: neighbors only adjacent (80 m is out of range for
        // the default config).
        let topo = line(5, 40.0);
        assert!(topo.are_neighbors(NodeId(0), NodeId(1)));
        assert!(!topo.are_neighbors(NodeId(0), NodeId(2)));
        assert_eq!(topo.hops(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(topo.hops(NodeId(2), NodeId(2)), Some(0));
    }

    #[test]
    fn taken_labels_leave_the_links() {
        let mut topo = line(4, 40.0);
        let labels = topo.take_labels();
        assert_eq!(labels, ["c0", "c1", "c2", "c3"]);
        assert!(topo.nodes().iter().all(|n| n.label.is_empty()));
        assert_eq!(topo.hops(NodeId(0), NodeId(3)), Some(3));
    }

    #[test]
    fn disconnected_partition_detected() {
        let mut ch = channel();
        let infos = vec![
            NodeInfo::new(NodeId(0), NodeKind::Sensor, Position::new(0.0, 0.0), "a"),
            NodeInfo::new(NodeId(1), NodeKind::Sensor, Position::new(1000.0, 0.0), "b"),
        ];
        let topo = Topology::derive(infos, &mut ch);
        assert!(!topo.is_fully_connected());
        assert_eq!(topo.hops(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn two_hop_set_on_line() {
        let topo = line(5, 40.0);
        let set = topo.two_hop_set(NodeId(2));
        assert!(set.contains(&NodeId(0)));
        assert!(set.contains(&NodeId(1)));
        assert!(set.contains(&NodeId(3)));
        assert!(set.contains(&NodeId(4)));
        assert!(!set.contains(&NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_ids_panic() {
        let mut ch = channel();
        let infos = vec![
            NodeInfo::new(NodeId(0), NodeKind::Sensor, Position::new(0.0, 0.0), "a"),
            NodeInfo::new(NodeId(0), NodeKind::Sensor, Position::new(1.0, 0.0), "b"),
        ];
        let _ = Topology::derive(infos, &mut ch);
    }

    #[test]
    fn distance_lookup() {
        let topo = line(3, 10.0);
        assert!((topo.distance(NodeId(0), NodeId(2)) - 20.0).abs() < 1e-12);
    }

    /// Edge cases surfaced by the schedule property loop: an isolated
    /// node has an empty interference set (it can share any slot), and
    /// an undeployed id never aliases a deployed one.
    #[test]
    fn two_hop_set_of_isolated_and_unknown_nodes_is_empty() {
        let mut ch = channel();
        let infos = vec![
            NodeInfo::new(NodeId(0), NodeKind::Sensor, Position::new(0.0, 0.0), "a"),
            NodeInfo::new(NodeId(1), NodeKind::Sensor, Position::new(10.0, 0.0), "b"),
            NodeInfo::new(
                NodeId(9),
                NodeKind::Relay,
                Position::new(5000.0, 0.0),
                "lone",
            ),
        ];
        let topo = Topology::derive(infos, &mut ch);
        assert!(topo.two_hop_set(NodeId(9)).is_empty());
        assert!(topo.two_hop_set(NodeId(77)).is_empty());
        assert_eq!(topo.neighbors(NodeId(9)), &[]);
    }

    /// `hops`/`shortest_path` report `None` for undeployed endpoints —
    /// including the `from == to` case, which used to claim distance 0
    /// for ids the topology has never seen.
    #[test]
    fn hops_of_unknown_endpoints_is_none() {
        let topo = line(3, 10.0);
        assert_eq!(topo.hops(NodeId(42), NodeId(42)), None);
        assert_eq!(topo.hops(NodeId(0), NodeId(42)), None);
        assert_eq!(topo.hops(NodeId(42), NodeId(0)), None);
        assert_eq!(topo.shortest_path(NodeId(42), NodeId(0)), None);
        assert_eq!(topo.hops(NodeId(1), NodeId(1)), Some(0));
        assert_eq!(
            topo.shortest_path(NodeId(1), NodeId(1)),
            Some(vec![NodeId(1)])
        );
    }

    /// Two nodes at the same position (duplicate coordinates, distinct
    /// ids) form an ordinary 1 m-floored link, not a degenerate edge.
    #[test]
    fn co_located_nodes_link_once() {
        let mut ch = channel();
        let infos = vec![
            NodeInfo::new(NodeId(0), NodeKind::Sensor, Position::new(3.0, 4.0), "a"),
            NodeInfo::new(NodeId(1), NodeKind::Sensor, Position::new(3.0, 4.0), "b"),
        ];
        let topo = Topology::derive(infos, &mut ch);
        assert_eq!(topo.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(topo.neighbors(NodeId(1)), &[NodeId(0)]);
        assert_eq!(topo.two_hop_set(NodeId(0)), HashSet::from([NodeId(1)]));
    }

    #[test]
    fn shortest_path_is_deterministic_and_minimal() {
        // A 3x3 grid with 10 m spacing is densely connected; the path
        // must be minimal and identical across calls.
        let mut ch = channel();
        let infos = (0..9u16)
            .map(|i| {
                NodeInfo::new(
                    NodeId(i),
                    NodeKind::Relay,
                    Position::new(f64::from(i % 3) * 40.0, f64::from(i / 3) * 40.0),
                    format!("r{i}"),
                )
            })
            .collect();
        let topo = Topology::derive(infos, &mut ch);
        let p1 = topo.shortest_path(NodeId(0), NodeId(8)).expect("reachable");
        let p2 = topo.shortest_path(NodeId(0), NodeId(8)).expect("reachable");
        assert_eq!(p1, p2, "tie-breaks must be stable");
        assert_eq!(p1.len() - 1, topo.hops(NodeId(0), NodeId(8)).unwrap());
        assert_eq!(p1.first(), Some(&NodeId(0)));
        assert_eq!(p1.last(), Some(&NodeId(8)));
        for w in p1.windows(2) {
            assert!(topo.are_neighbors(w[0], w[1]), "{:?} not a link", w);
        }
    }

    /// `without_nodes` is the node-down view re-routing runs over: the
    /// dead node and every link touching it vanish, surviving links keep
    /// their order, and the original topology is untouched.
    #[test]
    fn without_nodes_removes_node_and_incident_links() {
        let topo = line(5, 40.0);
        let cut = topo.without_nodes(&[NodeId(1)]);
        assert_eq!(cut.len(), 4);
        assert!(cut.node(NodeId(1)).is_none());
        assert!(!cut.neighbors(NodeId(0)).contains(&NodeId(1)));
        assert!(!cut.neighbors(NodeId(2)).contains(&NodeId(1)));
        // The cut partitions the line: 0 is stranded, 2-3-4 survive.
        assert_eq!(cut.hops(NodeId(0), NodeId(4)), None);
        assert_eq!(cut.hops(NodeId(2), NodeId(4)), Some(2));
        // The original is untouched (the engine keeps the physical view).
        assert_eq!(topo.len(), 5);
        assert_eq!(topo.hops(NodeId(0), NodeId(4)), Some(4));
        // Removing nothing is an identity view.
        let same = topo.without_nodes(&[]);
        assert_eq!(same.len(), topo.len());
        for n in topo.nodes() {
            assert_eq!(same.neighbors(n.id), topo.neighbors(n.id));
        }
    }

    /// Explicit-adjacency construction: links come from the caller, not
    /// the channel, duplicates collapse, and far-apart nodes still link.
    #[test]
    fn with_links_uses_exactly_the_given_links() {
        let infos = vec![
            NodeInfo::new(NodeId(0), NodeKind::Gateway, Position::new(0.0, 0.0), "gw"),
            NodeInfo::new(NodeId(1), NodeKind::Sensor, Position::new(5000.0, 0.0), "s"),
            NodeInfo::new(
                NodeId(2),
                NodeKind::Controller,
                Position::new(0.0, 5000.0),
                "c",
            ),
        ];
        let topo = Topology::with_links(
            infos,
            &[
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(0)), // duplicate, reversed
                (NodeId(1), NodeId(2)),
            ],
        );
        assert_eq!(topo.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(topo.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert!(!topo.are_neighbors(NodeId(0), NodeId(2)));
        assert_eq!(topo.hops(NodeId(0), NodeId(2)), Some(2));
        assert!(topo.is_fully_connected());
    }

    /// `derive` asks the channel once per pair when links are unshadowed
    /// and in both directions when they are shadowed; either way it
    /// yields the same neighbor lists and leaves the channel RNG where the
    /// two-query form does.
    #[test]
    fn derive_matches_the_two_query_form() {
        let mut rng = SimRng::seed_from(0xD1CE);
        let infos: Vec<NodeInfo> = (0..24u16)
            .map(|i| {
                let p = Position::new(rng.range(0.0, 160.0), rng.range(0.0, 160.0));
                NodeInfo::new(NodeId(i), NodeKind::Relay, p, format!("n{i}"))
            })
            .collect();
        for config in [
            ChannelConfig::default(),
            ChannelConfig::industrial(),
            ChannelConfig {
                shadowing_sigma_db: 6.0,
                ..ChannelConfig::default()
            },
        ] {
            let mut derived_ch = Channel::new(config.clone(), SimRng::seed_from(17));
            let topo = Topology::derive(infos.clone(), &mut derived_ch);
            // The two-query loop, in `derive`'s pair order.
            let mut reference_ch = Channel::new(config, SimRng::seed_from(17));
            let mut expect: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
            for a in &infos {
                for b in &infos {
                    if a.id >= b.id {
                        continue;
                    }
                    let d = a.position.distance_to(&b.position);
                    if reference_ch.is_connected((a.id, b.id), d)
                        && reference_ch.is_connected((b.id, a.id), d)
                    {
                        expect.entry(a.id).or_default().push(b.id);
                        expect.entry(b.id).or_default().push(a.id);
                    }
                }
            }
            let links: usize = expect.values().map(Vec::len).sum();
            assert!(
                links > 0 && links < 24 * 23,
                "the layout must be partly connected"
            );
            for n in &infos {
                let mut want = expect.remove(&n.id).unwrap_or_default();
                want.sort_unstable();
                assert_eq!(
                    topo.neighbors(n.id),
                    want.as_slice(),
                    "neighbors of {}",
                    n.id
                );
            }
            // The RNG streams continue identically: probe both with a
            // coin-flip burst process on a fresh link.
            let probe = (NodeId(900), NodeId(901));
            let frame = crate::frame::Frame::new(probe.0, crate::frame::FrameKind::Broadcast, 8, 0);
            for ch in [&mut derived_ch, &mut reference_ch] {
                ch.set_link_burst(probe, crate::gilbert::GilbertElliott::bernoulli(0.5));
            }
            for i in 0..64 {
                assert_eq!(
                    derived_ch.sample_delivery(&frame, probe.1, 10.0),
                    reference_ch.sample_delivery(&frame, probe.1, 10.0),
                    "channel RNG diverged at draw {i}"
                );
            }
        }
    }

    #[test]
    fn relay_kind_is_first_class() {
        let mut ch = channel();
        let topo = Topology::derive(
            vec![NodeInfo::new(
                NodeId(4),
                NodeKind::Relay,
                Position::new(0.0, 0.0),
                "R1",
            )],
            &mut ch,
        );
        assert_eq!(topo.of_kind(NodeKind::Relay), vec![NodeId(4)]);
        assert_eq!(NodeKind::Relay.to_string(), "relay");
    }

    /// The reference neighbor list of `id`: a scan of an explicit link
    /// list, sorted and deduplicated.
    fn scan_neighbors(links: &[(NodeId, NodeId)], id: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = links
            .iter()
            .filter_map(|&(a, b)| match () {
                () if a == id => Some(b),
                () if b == id => Some(a),
                () => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The reference shortest path: a full BFS over `links` that keeps
    /// its discovered nodes in a scanned list. Parents are first
    /// discoverers over sorted neighbor lists, the documented tie-break.
    fn scan_path(
        nodes: &[NodeInfo],
        links: &[(NodeId, NodeId)],
        from: NodeId,
        to: NodeId,
    ) -> Option<Vec<NodeId>> {
        let deployed = |id: NodeId| nodes.iter().any(|n| n.id == id);
        if !deployed(from) || !deployed(to) {
            return None;
        }
        let mut parent: Vec<(NodeId, NodeId)> = vec![(from, from)];
        let mut queue = VecDeque::from([from]);
        while let Some(cur) = queue.pop_front() {
            for nb in scan_neighbors(links, cur) {
                if !parent.iter().any(|&(n, _)| n == nb) {
                    parent.push((nb, cur));
                    queue.push_back(nb);
                }
            }
        }
        let mut path = vec![to];
        while *path.last().unwrap() != from {
            let cur = *path.last().unwrap();
            path.push(parent.iter().find(|&&(n, _)| n == cur)?.1);
        }
        path.reverse();
        Some(path)
    }

    /// Compares every id-keyed query of `topo` with a scan of `nodes` and
    /// `links`, over the deployed ids plus absent ones (gaps, 0, one past
    /// the highest id, `u16::MAX`), then does the same for a random
    /// `without_nodes` cut (`depth` levels deep).
    fn check_against_scan(
        topo: &Topology,
        nodes: &[NodeInfo],
        links: &[(NodeId, NodeId)],
        rng: &mut SimRng,
        depth: usize,
    ) {
        let mut probes: Vec<NodeId> = nodes.iter().map(|n| n.id).collect();
        for n in nodes {
            probes.push(NodeId(n.id.0.wrapping_add(1)));
            probes.push(NodeId(n.id.0.wrapping_sub(1)));
        }
        probes.extend([NodeId(0), NodeId(u16::MAX)]);
        probes.sort_unstable();
        probes.dedup();
        assert_eq!(topo.len(), nodes.len());
        let ids: Vec<NodeId> = topo.nodes().iter().map(|n| n.id).collect();
        let want: Vec<NodeId> = nodes.iter().map(|n| n.id).collect();
        assert_eq!(ids, want, "node order");
        for &a in &probes {
            let info = nodes.iter().find(|n| n.id == a);
            assert_eq!(topo.node(a).map(|n| &n.label), info.map(|n| &n.label));
            let nbs = if info.is_some() {
                scan_neighbors(links, a)
            } else {
                Vec::new()
            };
            assert_eq!(topo.neighbors(a), nbs.as_slice(), "neighbors of {a}");
            for &b in &probes {
                assert_eq!(topo.are_neighbors(a, b), nbs.contains(&b), "{a}-{b}");
                let path = scan_path(nodes, links, a, b);
                assert_eq!(topo.hops(a, b), path.as_ref().map(|p| p.len() - 1));
                assert_eq!(topo.shortest_path(a, b), path, "path {a} -> {b}");
            }
        }
        let connected = nodes
            .iter()
            .all(|n| scan_path(nodes, links, nodes[0].id, n.id).is_some());
        assert_eq!(topo.is_fully_connected(), connected);
        if depth == 0 {
            return;
        }
        let mut dead: Vec<NodeId> = nodes
            .iter()
            .filter(|_| rng.chance(0.3))
            .map(|n| n.id)
            .collect();
        dead.push(NodeId(u16::MAX - 1)); // never deployed: ignored
        let alive: Vec<NodeInfo> = nodes
            .iter()
            .filter(|n| !dead.contains(&n.id))
            .cloned()
            .collect();
        let kept: Vec<(NodeId, NodeId)> = links
            .iter()
            .copied()
            .filter(|(a, b)| !dead.contains(a) && !dead.contains(b))
            .collect();
        if !alive.is_empty() {
            let cut = topo.without_nodes(&dead);
            check_against_scan(&cut, &alive, &kept, rng, depth - 1);
        }
    }

    /// The dense id and adjacency tables answer exactly what a scan of
    /// the node and link lists answers, on random deployments with
    /// non-contiguous ids (one near `u16::MAX`), built both from the
    /// channel and from explicit links.
    #[test]
    fn dense_tables_match_a_scan_of_the_node_list() {
        let mut rng = SimRng::seed_from(0x7AB1E);
        for _ in 0..40 {
            let n = 2 + rng.index(11);
            let mut raw: Vec<u16> = Vec::new();
            while raw.len() < n - 1 {
                let id = u16::try_from(1 + rng.index(300) * 3).unwrap();
                if !raw.contains(&id) {
                    raw.push(id);
                }
            }
            raw.push(u16::MAX - u16::try_from(rng.index(4)).unwrap());
            rng.shuffle(&mut raw);
            let nodes: Vec<NodeInfo> = raw
                .iter()
                .map(|&id| {
                    let p = Position::new(rng.range(0.0, 150.0), rng.range(0.0, 150.0));
                    NodeInfo::new(NodeId(id), NodeKind::Relay, p, format!("n{id}"))
                })
                .collect();

            // Channel-derived: the reference links are the unshadowed
            // channel's verdict per pair.
            let mut ch = channel();
            let derived = Topology::derive(nodes.clone(), &mut ch);
            let mut links = Vec::new();
            for a in &nodes {
                for b in &nodes {
                    let d = a.position.distance_to(&b.position);
                    if a.id < b.id && ch.is_connected((a.id, b.id), d) {
                        links.push((a.id, b.id));
                    }
                }
            }
            check_against_scan(&derived, &nodes, &links, &mut rng, 2);

            // Explicit links, with duplicates and reversed pairs.
            let mut links = Vec::new();
            for _ in 0..rng.index(2 * n) {
                let a = nodes[rng.index(n)].id;
                let b = nodes[rng.index(n)].id;
                if a != b {
                    links.push((a, b));
                    if rng.chance(0.2) {
                        links.push((b, a));
                    }
                }
            }
            let linked = Topology::with_links(nodes.clone(), &links);
            check_against_scan(&linked, &nodes, &links, &mut rng, 2);
        }
    }

    #[test]
    #[should_panic(expected = "link references unknown id n7")]
    fn links_to_unknown_ids_panic() {
        let infos = vec![NodeInfo::new(
            NodeId(3),
            NodeKind::Sensor,
            Position::new(0.0, 0.0),
            "a",
        )];
        let _ = Topology::with_links(infos, &[(NodeId(3), NodeId(7))]);
    }
}
