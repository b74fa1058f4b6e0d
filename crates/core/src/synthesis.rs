//! Runtime synthesis: logical-task → physical-node mapping.
//!
//! "At runtime, nodes determine (via centralized or distributed
//! algorithms) the task-set and operating points of different controllers
//! in the Virtual Component" (§1.1), and "we use Binary Quadratic
//! Programming for fixed-point optimization for functional and
//! para-functional requirements across controller nodes" (§3.1.1 op 7).
//!
//! The model: assign each control task to one controller node minimizing
//!
//! * **communication cost** — hop distance from the host to the task's
//!   sensor and actuator, and
//! * **load imbalance** — the sum of squared per-node utilizations (the
//!   quadratic term that makes this a BQP),
//!
//! subject to per-node CPU and slot capacity. Three solvers are provided
//! and compared by experiment E10: exact enumeration, greedy, and
//! simulated annealing on the one-hot BQP encoding.

use evm_netsim::NodeId;
use evm_sim::SimRng;

/// One logical control task to place.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskReq {
    /// Name, for reports.
    pub name: String,
    /// CPU utilization the task adds to its host.
    pub cpu_util: f64,
    /// TDMA slots per cycle the task needs.
    pub slots: u16,
    /// Index (into the node list) of the sensor this task reads, if any.
    pub sensor_node: Option<usize>,
    /// Index of the actuator this task drives, if any.
    pub actuator_node: Option<usize>,
}

/// One physical node that can host tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRes {
    /// The node.
    pub id: NodeId,
    /// CPU capacity available for EVM tasks.
    pub cpu_capacity: f64,
    /// Slot capacity per cycle.
    pub slot_capacity: u16,
}

/// A synthesis instance.
#[derive(Debug, Clone)]
pub struct SynthesisProblem {
    /// Tasks to place.
    pub tasks: Vec<TaskReq>,
    /// Candidate hosts.
    pub nodes: Vec<NodeRes>,
    /// `hops[i][j]`: hop distance between nodes `i` and `j`.
    pub hops: Vec<Vec<f64>>,
    /// Weight of the communication term.
    pub w_comm: f64,
    /// Weight of the load-balance (quadratic) term.
    pub w_balance: f64,
}

/// An assignment: `task_to_node[t]` is the index of the host of task `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Host node index per task.
    pub task_to_node: Vec<usize>,
}

/// Penalty added per unit of capacity violation (dominates real costs).
const INFEASIBLE_PENALTY: f64 = 1e6;

impl SynthesisProblem {
    /// Total cost of an assignment (lower is better); infeasible
    /// assignments carry a dominating penalty rather than being rejected,
    /// which keeps the annealer's search space connected.
    ///
    /// # Panics
    ///
    /// Panics if the instance is malformed (see [`Self::solve_greedy`]),
    /// if the assignment's length differs from the task count, or if it
    /// names a host index not below `nodes.len()`; the message names the
    /// problem.
    #[must_use]
    pub fn cost(&self, a: &Assignment) -> f64 {
        self.check();
        self.check_assignment(a);
        self.cost_unchecked(a)
    }

    /// [`Self::cost`] without the checks, for solvers that checked the
    /// instance once and build only in-range assignments.
    fn cost_unchecked(&self, a: &Assignment) -> f64 {
        let mut comm = 0.0;
        let mut node_util = vec![0.0f64; self.nodes.len()];
        let mut node_slots = vec![0u32; self.nodes.len()];
        for (t, &n) in a.task_to_node.iter().enumerate() {
            let task = &self.tasks[t];
            if let Some(s) = task.sensor_node {
                comm += self.hops[n][s];
            }
            if let Some(act) = task.actuator_node {
                comm += self.hops[n][act];
            }
            node_util[n] += task.cpu_util;
            node_slots[n] += u32::from(task.slots);
        }
        let balance: f64 = node_util.iter().map(|u| u * u).sum();
        let mut penalty = 0.0;
        for (i, node) in self.nodes.iter().enumerate() {
            if node_util[i] > node.cpu_capacity {
                penalty += INFEASIBLE_PENALTY * (node_util[i] - node.cpu_capacity);
            }
            if node_slots[i] > u32::from(node.slot_capacity) {
                penalty +=
                    INFEASIBLE_PENALTY * f64::from(node_slots[i] - u32::from(node.slot_capacity));
            }
        }
        self.w_comm * comm + self.w_balance * balance + penalty
    }

    /// Checks the instance is well-formed before a solver indexes it.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is not `nodes.len()` square, or if a task names a
    /// sensor or actuator node index that is not below `nodes.len()`; the
    /// message names the task.
    fn check(&self) {
        let n = self.nodes.len();
        assert!(
            self.hops.len() == n && self.hops.iter().all(|row| row.len() == n),
            "hops must be {n} x {n}, one row and column per node"
        );
        for task in &self.tasks {
            for (what, node) in [
                ("sensor", task.sensor_node),
                ("actuator", task.actuator_node),
            ] {
                if let Some(ix) = node {
                    assert!(
                        ix < n,
                        "task `{}`: {what} node index {ix} is out of range for {n} nodes",
                        task.name
                    );
                }
            }
        }
    }

    /// Checks that `a` places every task on a candidate host.
    ///
    /// # Panics
    ///
    /// Panics if `a` has a host count other than `tasks.len()`, or names
    /// a host index not below `nodes.len()` (the message names the task).
    fn check_assignment(&self, a: &Assignment) {
        assert_eq!(
            a.task_to_node.len(),
            self.tasks.len(),
            "assignment places {} tasks, the instance has {}",
            a.task_to_node.len(),
            self.tasks.len()
        );
        let n = self.nodes.len();
        for (task, &host) in self.tasks.iter().zip(&a.task_to_node) {
            assert!(
                host < n,
                "task `{}`: host index {host} is out of range for {n} nodes",
                task.name
            );
        }
    }

    /// Total capacity violation (zero for feasible assignments).
    ///
    /// # Panics
    ///
    /// Panics on a malformed instance or assignment, as [`Self::cost`]
    /// does.
    #[must_use]
    pub fn capacity_violation(&self, a: &Assignment) -> f64 {
        self.check();
        self.check_assignment(a);
        let mut node_util = vec![0.0f64; self.nodes.len()];
        let mut node_slots = vec![0u32; self.nodes.len()];
        for (t, &n) in a.task_to_node.iter().enumerate() {
            node_util[n] += self.tasks[t].cpu_util;
            node_slots[n] += u32::from(self.tasks[t].slots);
        }
        let mut v = 0.0;
        for (i, node) in self.nodes.iter().enumerate() {
            v += (node_util[i] - node.cpu_capacity - 1e-9).max(0.0);
            v += f64::from(node_slots[i].saturating_sub(u32::from(node.slot_capacity)));
        }
        v
    }

    /// `true` if the assignment respects all capacities.
    ///
    /// # Panics
    ///
    /// Panics on a malformed instance or assignment, as [`Self::cost`]
    /// does.
    #[must_use]
    pub fn is_feasible(&self, a: &Assignment) -> bool {
        self.capacity_violation(a) == 0.0
    }

    /// Exact solver: enumerates all `nodes^tasks` assignments.
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than 16 tasks × nodes combinations
    /// than fit a u64 enumeration (guard: `nodes.len().pow(tasks.len())`
    /// must stay below ~10⁸), or if it is malformed: `hops` not
    /// `nodes.len()` square, or a task's sensor or actuator node index not
    /// below `nodes.len()` (the message names the task).
    #[must_use]
    pub fn solve_exhaustive(&self) -> Assignment {
        self.check();
        let n = self.nodes.len();
        let t = self.tasks.len();
        let total = (n as u128).pow(t as u32);
        assert!(total <= 100_000_000, "instance too large for enumeration");
        let mut best = Assignment {
            task_to_node: vec![0; t],
        };
        let mut best_cost = self.cost_unchecked(&best);
        let mut current = vec![0usize; t];
        for code in 1..total {
            let mut c = code;
            for slot in current.iter_mut() {
                *slot = (c % n as u128) as usize;
                c /= n as u128;
            }
            let a = Assignment {
                task_to_node: current.clone(),
            };
            let cost = self.cost_unchecked(&a);
            if cost < best_cost {
                best_cost = cost;
                best = a;
            }
        }
        best
    }

    /// Greedy solver: places tasks in declaration order on the node that
    /// minimizes incremental cost.
    ///
    /// # Panics
    ///
    /// Panics if the instance is malformed: `hops` not `nodes.len()`
    /// square, or a task's sensor or actuator node index not below
    /// `nodes.len()` (the message names the task).
    #[must_use]
    pub fn solve_greedy(&self) -> Assignment {
        self.check();
        let mut assignment = Assignment {
            task_to_node: Vec::with_capacity(self.tasks.len()),
        };
        for t in 0..self.tasks.len() {
            let mut best_n = 0usize;
            let mut best_cost = f64::INFINITY;
            for n in 0..self.nodes.len() {
                let mut trial = assignment.task_to_node.clone();
                trial.push(n);
                // Cost of the partial assignment, using only placed tasks.
                let partial = SynthesisProblem {
                    tasks: self.tasks[..=t].to_vec(),
                    nodes: self.nodes.clone(),
                    hops: self.hops.clone(),
                    w_comm: self.w_comm,
                    w_balance: self.w_balance,
                };
                let cost = partial.cost_unchecked(&Assignment {
                    task_to_node: trial,
                });
                if cost < best_cost {
                    best_cost = cost;
                    best_n = n;
                }
            }
            assignment.task_to_node.push(best_n);
        }
        assignment
    }

    /// Simulated-annealing solver over reassignment moves.
    ///
    /// # Panics
    ///
    /// Panics if the instance is malformed: `hops` not `nodes.len()`
    /// square, or a task's sensor or actuator node index not below
    /// `nodes.len()` (the message names the task).
    #[must_use]
    pub fn solve_anneal(&self, rng: &mut SimRng, iterations: usize) -> Assignment {
        self.check();
        let t = self.tasks.len();
        let n = self.nodes.len();
        if t == 0 || n == 0 {
            return Assignment {
                task_to_node: vec![],
            };
        }
        let mut current = self.solve_greedy();
        let mut cur_cost = self.cost_unchecked(&current);
        let mut best = current.clone();
        let mut best_cost = cur_cost;

        let t0 = 10.0 * self.w_comm.max(self.w_balance).max(1.0);
        for k in 0..iterations {
            let temp = t0 * (0.995f64).powi(k as i32) + 1e-6;
            let task = rng.index(t);
            let new_node = rng.index(n);
            let old_node = current.task_to_node[task];
            if new_node == old_node {
                continue;
            }
            current.task_to_node[task] = new_node;
            let new_cost = self.cost_unchecked(&current);
            let accept = new_cost <= cur_cost
                || rng.chance(((cur_cost - new_cost) / temp).exp().clamp(0.0, 1.0));
            if accept {
                cur_cost = new_cost;
                if new_cost < best_cost {
                    best_cost = new_cost;
                    best = current.clone();
                }
            } else {
                current.task_to_node[task] = old_node;
            }
        }
        best
    }

    /// The explicit BQP encoding of this instance.
    ///
    /// # Panics
    ///
    /// Panics on a malformed instance, as [`BqpInstance::from_problem`]
    /// does.
    #[must_use]
    pub fn to_bqp(&self) -> BqpInstance {
        BqpInstance::from_problem(self)
    }
}

/// Explicit binary-quadratic-program form: minimize `xᵀQx + cᵀx` over
/// binary `x` indexed by `(task, node)` pairs, with the one-hot constraint
/// folded in as a quadratic penalty.
#[derive(Debug, Clone)]
pub struct BqpInstance {
    n_tasks: usize,
    n_nodes: usize,
    /// Linear coefficients, length `n_tasks * n_nodes`.
    pub linear: Vec<f64>,
    /// Quadratic coefficients (upper triangle including diagonal),
    /// `q[i][j]` for `i <= j`.
    pub quadratic: Vec<Vec<f64>>,
    /// One-hot penalty weight.
    pub onehot_penalty: f64,
}

impl BqpInstance {
    /// Index of variable `x_{task,node}`.
    #[must_use]
    pub fn var(&self, task: usize, node: usize) -> usize {
        task * self.n_nodes + node
    }

    /// Builds the BQP from a synthesis problem.
    ///
    /// # Panics
    ///
    /// Panics if the instance is malformed: `hops` not `nodes.len()`
    /// square, or a task's sensor or actuator node index not below
    /// `nodes.len()` (the message names the task).
    #[must_use]
    pub fn from_problem(p: &SynthesisProblem) -> Self {
        p.check();
        let nt = p.tasks.len();
        let nn = p.nodes.len();
        let nv = nt * nn;
        let mut linear = vec![0.0; nv];
        let mut quadratic = vec![vec![0.0; nv]; nv];
        let onehot_penalty = INFEASIBLE_PENALTY;

        for t in 0..nt {
            for n in 0..nn {
                let v = t * nn + n;
                // Communication cost is linear in x.
                if let Some(s) = p.tasks[t].sensor_node {
                    linear[v] += p.w_comm * p.hops[n][s];
                }
                if let Some(a) = p.tasks[t].actuator_node {
                    linear[v] += p.w_comm * p.hops[n][a];
                }
                // Balance term: (Σ_t u_t x_tn)² expands to pairwise
                // products of co-located tasks.
                for t2 in t..nt {
                    let v2 = t2 * nn + n;
                    let coeff = p.w_balance * p.tasks[t].cpu_util * p.tasks[t2].cpu_util;
                    if t2 == t {
                        quadratic[v][v] += coeff;
                    } else {
                        quadratic[v][v2] += 2.0 * coeff;
                    }
                }
            }
            // One-hot: penalty * (Σ_n x_tn − 1)² =
            //   penalty * (Σ x² + 2Σ_{n<m} x_n x_m − 2Σ x + 1).
            for n in 0..nn {
                let v = t * nn + n;
                quadratic[v][v] += onehot_penalty;
                linear[v] -= 2.0 * onehot_penalty;
                for m in (n + 1)..nn {
                    let v2 = t * nn + m;
                    quadratic[v][v2] += 2.0 * onehot_penalty;
                }
            }
        }
        BqpInstance {
            n_tasks: nt,
            n_nodes: nn,
            linear,
            quadratic,
            onehot_penalty,
        }
    }

    /// Objective value at a binary point (plus the constant `penalty·n_t`
    /// completing the squares, so one-hot feasible points line up with
    /// [`SynthesisProblem::cost`] minus capacity penalties).
    #[must_use]
    pub fn value(&self, x: &[bool]) -> f64 {
        assert_eq!(x.len(), self.n_tasks * self.n_nodes, "length mismatch");
        let mut v = self.onehot_penalty * self.n_tasks as f64;
        for (i, &xi) in x.iter().enumerate() {
            if !xi {
                continue;
            }
            v += self.linear[i];
            for (j, &xj) in x.iter().enumerate().skip(i) {
                if xj {
                    v += self.quadratic[i][j];
                }
            }
        }
        v
    }

    /// Encodes an assignment as a one-hot binary vector.
    #[must_use]
    pub fn encode(&self, a: &Assignment) -> Vec<bool> {
        let mut x = vec![false; self.n_tasks * self.n_nodes];
        for (t, &n) in a.task_to_node.iter().enumerate() {
            x[self.var(t, n)] = true;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 controllers in a line (hops 0-1-2), a sensor at node 0 and an
    /// actuator at node 2.
    fn line_problem() -> SynthesisProblem {
        SynthesisProblem {
            tasks: vec![
                TaskReq {
                    name: "pid-a".into(),
                    cpu_util: 0.3,
                    slots: 1,
                    sensor_node: Some(0),
                    actuator_node: Some(2),
                },
                TaskReq {
                    name: "pid-b".into(),
                    cpu_util: 0.3,
                    slots: 1,
                    sensor_node: Some(0),
                    actuator_node: Some(0),
                },
                TaskReq {
                    name: "log".into(),
                    cpu_util: 0.2,
                    slots: 1,
                    sensor_node: None,
                    actuator_node: None,
                },
            ],
            nodes: vec![
                NodeRes {
                    id: NodeId(10),
                    cpu_capacity: 0.7,
                    slot_capacity: 4,
                },
                NodeRes {
                    id: NodeId(11),
                    cpu_capacity: 0.7,
                    slot_capacity: 4,
                },
                NodeRes {
                    id: NodeId(12),
                    cpu_capacity: 0.7,
                    slot_capacity: 4,
                },
            ],
            hops: vec![
                vec![0.0, 1.0, 2.0],
                vec![1.0, 0.0, 1.0],
                vec![2.0, 1.0, 0.0],
            ],
            w_comm: 1.0,
            w_balance: 0.5,
        }
    }

    #[test]
    fn exhaustive_finds_feasible_optimum() {
        let p = line_problem();
        let best = p.solve_exhaustive();
        assert!(p.is_feasible(&best));
        // pid-b reads and writes node 0: optimum hosts it there.
        assert_eq!(best.task_to_node[1], 0);
    }

    #[test]
    fn greedy_never_beats_exhaustive() {
        let p = line_problem();
        let exact = p.cost(&p.solve_exhaustive());
        let greedy = p.cost(&p.solve_greedy());
        assert!(greedy >= exact - 1e-9);
    }

    #[test]
    fn annealing_matches_exhaustive_on_small_instance() {
        let p = line_problem();
        let exact = p.cost(&p.solve_exhaustive());
        let mut rng = SimRng::seed_from(7);
        let sa = p.cost(&p.solve_anneal(&mut rng, 5_000));
        assert!(
            sa <= exact * 1.05 + 1e-9,
            "SA {sa} should be within 5% of exact {exact}"
        );
    }

    #[test]
    fn capacity_violations_are_penalized() {
        let p = line_problem();
        // All three tasks (0.8 util) on one 0.7-capacity node.
        let bad = Assignment {
            task_to_node: vec![0, 0, 0],
        };
        assert!(!p.is_feasible(&bad));
        assert!(p.cost(&bad) > 1e5);
    }

    #[test]
    fn bqp_value_agrees_with_cost_on_feasible_points() {
        let p = line_problem();
        let bqp = p.to_bqp();
        for a in [
            Assignment {
                task_to_node: vec![0, 1, 2],
            },
            Assignment {
                task_to_node: vec![2, 0, 1],
            },
            p.solve_exhaustive(),
        ] {
            let direct = p.cost(&a);
            let via_bqp = bqp.value(&bqp.encode(&a));
            assert!(
                (direct - via_bqp).abs() < 1e-6,
                "cost {direct} vs bqp {via_bqp}"
            );
        }
    }

    #[test]
    fn bqp_punishes_non_onehot_points() {
        let p = line_problem();
        let bqp = p.to_bqp();
        // Task 0 assigned nowhere.
        let mut x = bqp.encode(&Assignment {
            task_to_node: vec![0, 1, 2],
        });
        x[bqp.var(0, 0)] = false;
        assert!(bqp.value(&x) > 1e5);
        // Task 0 assigned twice.
        x[bqp.var(0, 0)] = true;
        x[bqp.var(0, 1)] = true;
        assert!(bqp.value(&x) > 1e5);
    }

    #[test]
    fn balance_term_spreads_load() {
        let mut p = line_problem();
        // Make communication free so only balance matters.
        p.w_comm = 0.0;
        let best = p.solve_exhaustive();
        let mut hosts = best.task_to_node.clone();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 3, "optimum spreads tasks across all nodes");
    }

    #[test]
    #[should_panic(expected = "task `pid-b`: actuator node index 3 is out of range for 3 nodes")]
    fn solvers_name_the_task_with_an_out_of_range_node() {
        let mut p = line_problem();
        p.tasks[1].actuator_node = Some(3);
        let mut rng = SimRng::seed_from(1);
        let _ = p.solve_anneal(&mut rng, 10);
    }

    #[test]
    #[should_panic(expected = "hops must be 3 x 3, one row and column per node")]
    fn solvers_reject_a_hop_matrix_of_the_wrong_shape() {
        let mut p = line_problem();
        p.hops[2].pop();
        let _ = p.solve_greedy();
    }

    #[test]
    #[should_panic(expected = "task `pid-b`: sensor node index 7 is out of range for 3 nodes")]
    fn cost_names_the_task_with_an_out_of_range_node() {
        let mut p = line_problem();
        p.tasks[1].sensor_node = Some(7);
        let _ = p.cost(&Assignment {
            task_to_node: vec![0; p.tasks.len()],
        });
    }

    #[test]
    #[should_panic(expected = "task `pid-a`: host index 3 is out of range for 3 nodes")]
    fn cost_names_the_task_with_an_out_of_range_host() {
        let p = line_problem();
        let mut hosts = vec![0; p.tasks.len()];
        hosts[0] = 3;
        let _ = p.cost(&Assignment {
            task_to_node: hosts,
        });
    }

    #[test]
    #[should_panic(expected = "hops must be 3 x 3, one row and column per node")]
    fn capacity_violation_rejects_a_hop_matrix_of_the_wrong_shape() {
        let mut p = line_problem();
        p.hops.pop();
        let _ = p.capacity_violation(&Assignment {
            task_to_node: vec![0; p.tasks.len()],
        });
    }

    #[test]
    #[should_panic(expected = "assignment places 1 tasks, the instance has")]
    fn capacity_violation_rejects_an_assignment_of_the_wrong_length() {
        let p = line_problem();
        let _ = p.capacity_violation(&Assignment {
            task_to_node: vec![0],
        });
    }

    #[test]
    #[should_panic(expected = "task `pid-b`: actuator node index 3 is out of range for 3 nodes")]
    fn bqp_encoding_names_the_task_with_an_out_of_range_node() {
        let mut p = line_problem();
        p.tasks[1].actuator_node = Some(3);
        let _ = BqpInstance::from_problem(&p);
    }

    #[test]
    fn empty_problem_is_trivial() {
        let p = SynthesisProblem {
            tasks: vec![],
            nodes: vec![],
            hops: vec![],
            w_comm: 1.0,
            w_balance: 1.0,
        };
        let mut rng = SimRng::seed_from(1);
        assert_eq!(p.solve_anneal(&mut rng, 10).task_to_node.len(), 0);
    }
}
