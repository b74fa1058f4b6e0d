//! Deterministic sweep aggregation and report rendering.
//!
//! [`SweepReport::build`] consumes the cell list and the result vector
//! **in cell order** (the executor's contract) and reduces them twice:
//! per-cell [`CellStats`] for the raw dump, and per-config [`SweepRow`]s
//! pooling seed replicates (mean/p50/p99 failover latency, pooled
//! deadline hit ratio and end-to-end quantiles, mean control cost — the
//! loss-vs-regulation curve — and mean radio current). Every reduction
//! iterates in cell order with fixed-precision formatting, so the
//! rendered CSV and markdown are byte-identical across thread counts.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use evm_core::{RunAggregate, RunResult};
use evm_sim::SimTime;

use crate::grid::{CellConfig, SweepCell};

/// Derived metrics of one cell's run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Time the fault was confirmed (deviation or heartbeat timeout), s.
    pub detect_s: Option<f64>,
    /// Time the head committed the failover, s.
    pub commit_s: Option<f64>,
    /// Detection-to-commit latency, s.
    pub failover_s: Option<f64>,
    /// The run fell back to the fail-safe response.
    pub fail_safe: bool,
    /// Deadline hit ratio.
    pub hit_ratio: f64,
    /// Actuations delivered.
    pub actuations: usize,
    /// Deadline misses.
    pub deadline_misses: usize,
    /// Median end-to-end latency, ms.
    pub e2e_p50_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub e2e_p99_ms: f64,
    /// Integral squared error of the focus PV vs its setpoint from the
    /// fault instant (or t = 0) to the horizon — the regulation cost.
    pub ise: f64,
    /// Mean radio current across nodes, mA.
    pub mean_current_ma: f64,
    /// Deployed node count (relays included) — the topology axis's
    /// scale column.
    pub nodes: usize,
    /// Configuration epochs committed during the run (0 = static).
    pub epochs: u64,
    /// Detect → reroute → first-delivered-frame latency of the first
    /// runtime reconfiguration, in RT-Link cycles (NaN when none).
    pub reroute_cycles: f64,
    /// Per-VC stats, indexed by `VcId`: `(loop name, actuations,
    /// deadline hit ratio, regulation cost)`.
    pub per_vc: Vec<VcCellStats>,
}

/// One Virtual Component's share of a cell's run.
#[derive(Debug, Clone, PartialEq)]
pub struct VcCellStats {
    /// The loop the VC hosts (e.g. `"LC-LTS"`).
    pub loop_name: String,
    /// Actuations this VC delivered.
    pub actuations: usize,
    /// This VC's deadline hit ratio.
    pub hit_ratio: f64,
    /// Integral squared error of this VC's PV vs its setpoint over the
    /// cell's scoring window.
    pub ise: f64,
}

impl CellStats {
    /// Extracts the stats of one cell's run.
    #[must_use]
    pub fn from_run(cell: &SweepCell, r: &RunResult) -> Self {
        let s = &cell.scenario;
        let detect = [
            r.event_time("confirmed deviation"),
            r.event_time("heartbeat timeout"),
        ]
        .into_iter()
        .flatten()
        .min()
        .map(SimTime::as_secs_f64);
        let commit = r
            .event_time("head commits failover")
            .map(|t| t.as_secs_f64());
        let failover = match (detect, commit) {
            (Some(d), Some(c)) => Some(c - d),
            _ => None,
        };
        let from = s.fault.map_or(SimTime::ZERO, |(at, _)| at);
        let ise = r.series.get(&s.focus_loop.pv_tag).map_or(f64::NAN, |ts| {
            ts.window(from, SimTime::ZERO + s.duration)
                .integral_squared_error(s.focus_loop.setpoint)
        });
        let q = |p: f64| {
            r.e2e_quantile(p)
                .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3)
        };
        let per_vc = r
            .vc_stats
            .iter()
            .enumerate()
            .map(|(k, vs)| {
                let spec = s.vc_loop(k as evm_core::VcId);
                let vc_ise = r.series.get(&spec.pv_tag).map_or(f64::NAN, |ts| {
                    ts.window(from, SimTime::ZERO + s.duration)
                        .integral_squared_error(spec.setpoint)
                });
                VcCellStats {
                    loop_name: vs.loop_name.clone(),
                    actuations: vs.actuations,
                    hit_ratio: vs.deadline_hit_ratio(),
                    ise: vc_ise,
                }
            })
            .collect();
        CellStats {
            detect_s: detect,
            commit_s: commit,
            failover_s: failover,
            fail_safe: r.event_time("fail-safe").is_some(),
            hit_ratio: r.deadline_hit_ratio(),
            actuations: r.actuations,
            deadline_misses: r.deadline_misses,
            e2e_p50_ms: q(0.5),
            e2e_p99_ms: q(0.99),
            ise,
            mean_current_ma: r.mean_node_current_ma().unwrap_or(f64::NAN),
            nodes: r.meta.nodes,
            epochs: r.epochs,
            reroute_cycles: r.reroute_latency.map_or(f64::NAN, |d| {
                d.as_secs_f64() / s.rtlink.cycle_duration().as_secs_f64()
            }),
            per_vc,
        }
    }
}

/// One config point, pooled over its seed replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The config-point key ([`CellConfig::key`]).
    pub key: String,
    /// Axis values (of the first replicate; `rep`/`seed` vary per cell).
    pub config: CellConfig,
    /// Replicates pooled into this row.
    pub runs: usize,
    /// Replicates that confirmed a fault.
    pub detected_runs: usize,
    /// Replicates that fell back to fail-safe.
    pub fail_safe_runs: usize,
    /// Mean detection time, s.
    pub detect_mean_s: f64,
    /// Mean detection-to-commit latency, s.
    pub failover_mean_s: f64,
    /// Median detection-to-commit latency, s.
    pub failover_p50_s: f64,
    /// 99th-percentile detection-to-commit latency, s.
    pub failover_p99_s: f64,
    /// Pooled deadline hit ratio.
    pub hit_ratio: f64,
    /// Pooled median end-to-end latency, ms.
    pub e2e_p50_ms: f64,
    /// Pooled 99th-percentile end-to-end latency, ms.
    pub e2e_p99_ms: f64,
    /// Mean regulation cost (the loss-vs-regulation curve's ordinate).
    pub ise_mean: f64,
    /// Mean radio current across replicates, mA.
    pub mean_current_ma: f64,
    /// Mean configuration epochs committed per run (0 = static rows).
    pub epochs_mean: f64,
    /// Mean reroute latency over the replicates that rerouted, in
    /// RT-Link cycles (NaN when none did).
    pub reroute_cycles_mean: f64,
}

/// One (config point, Virtual Component) row: a config point's seed
/// replicates pooled per hosted VC — the loops-hosted-vs-QoS view the
/// multi-VC scaling story reads off.
#[derive(Debug, Clone, PartialEq)]
pub struct VcRow {
    /// The config-point key ([`CellConfig::key`]).
    pub key: String,
    /// The Virtual Component within the config point.
    pub vc: evm_core::VcId,
    /// The loop this VC hosts.
    pub loop_name: String,
    /// Replicates pooled into this row.
    pub runs: usize,
    /// Mean actuations this VC delivered per run.
    pub actuations_mean: f64,
    /// Pooled deadline hit ratio of this VC.
    pub hit_ratio: f64,
    /// Mean regulation cost of this VC's loop.
    pub ise_mean: f64,
}

/// The aggregated outcome of one grid run.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-cell stats, in cell order.
    pub cells: Vec<(CellConfig, CellStats)>,
    /// Per-config rows, in first-appearance (grid) order.
    pub rows: Vec<SweepRow>,
    /// Per-(config, VC) rows, in grid order then `VcId` order.
    pub vc_rows: Vec<VcRow>,
}

/// Mean of a slice (NaN when empty); summation in slice order.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank quantile of an unsorted sample (NaN when empty) — the
/// same convention as the latency quantiles in `evm-core`, so the
/// failover and e2e columns of a [`SweepRow`] are comparable.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx]
}

/// Fixed-precision cell for possibly-NaN values (renders `nan`).
fn f3(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        format!("{v:.3}")
    }
}

impl SweepReport {
    /// Builds the report from the work-list and its results, which must be
    /// aligned by index (the executor returns them that way).
    ///
    /// Aggregation is order-independent by construction: inputs arrive in
    /// cell order whatever the execution interleaving was, and replicate
    /// pools reduce with [`RunAggregate`] plus sorted-sample quantiles.
    ///
    /// # Panics
    ///
    /// Panics if `cells` and `results` have different lengths.
    #[must_use]
    pub fn build(cells: &[SweepCell], results: &[RunResult]) -> Self {
        assert_eq!(
            cells.len(),
            results.len(),
            "one result per cell, in cell order"
        );
        let cell_stats: Vec<(CellConfig, CellStats)> = cells
            .iter()
            .zip(results)
            .map(|(c, r)| (c.config.clone(), CellStats::from_run(c, r)))
            .collect();

        // Group replicates by config key, preserving grid order.
        let mut order: Vec<String> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, (config, _)) in cell_stats.iter().enumerate() {
            let key = config.key();
            match order.iter().position(|k| *k == key) {
                Some(g) => groups[g].push(i),
                None => {
                    order.push(key);
                    groups.push(vec![i]);
                }
            }
        }

        // Per-(config, VC) rows: pool each VC's share of the replicates.
        let mut vc_rows: Vec<VcRow> = Vec::new();
        for (key, members) in order.iter().zip(&groups) {
            let n_vcs = members
                .iter()
                .map(|&i| cell_stats[i].1.per_vc.len())
                .max()
                .unwrap_or(0);
            for vc in 0..n_vcs {
                let shares: Vec<&VcCellStats> = members
                    .iter()
                    .filter_map(|&i| cell_stats[i].1.per_vc.get(vc))
                    .collect();
                // Pool this VC's counters through a VcRunStats, so the
                // empty-sample convention lives in one place (metrics.rs).
                let pooled = members
                    .iter()
                    .filter_map(|&i| results[i].vc_stats.get(vc))
                    .fold(evm_core::VcRunStats::default(), |mut acc, s| {
                        acc.actuations += s.actuations;
                        acc.deadline_misses += s.deadline_misses;
                        acc
                    });
                let hit_ratio = pooled.deadline_hit_ratio();
                let ises: Vec<f64> = shares.iter().map(|s| s.ise).collect();
                vc_rows.push(VcRow {
                    key: key.clone(),
                    vc: vc as evm_core::VcId,
                    loop_name: shares
                        .first()
                        .map_or_else(String::new, |s| s.loop_name.clone()),
                    runs: shares.len(),
                    actuations_mean: mean(
                        &shares
                            .iter()
                            .map(|s| s.actuations as f64)
                            .collect::<Vec<_>>(),
                    ),
                    hit_ratio,
                    ise_mean: mean(&ises),
                });
            }
        }

        let rows = order
            .into_iter()
            .zip(groups)
            .map(|(key, members)| {
                let stats: Vec<&CellStats> = members.iter().map(|&i| &cell_stats[i].1).collect();
                let mut pooled = RunAggregate::new();
                for &i in &members {
                    pooled.absorb(&results[i]);
                }
                let detects: Vec<f64> = stats.iter().filter_map(|s| s.detect_s).collect();
                let failovers: Vec<f64> = stats.iter().filter_map(|s| s.failover_s).collect();
                let ises: Vec<f64> = stats.iter().map(|s| s.ise).collect();
                let currents: Vec<f64> = stats.iter().map(|s| s.mean_current_ma).collect();
                let epochs: Vec<f64> = stats.iter().map(|s| s.epochs as f64).collect();
                let reroutes: Vec<f64> = stats
                    .iter()
                    .map(|s| s.reroute_cycles)
                    .filter(|c| !c.is_nan())
                    .collect();
                let q = |p: f64| {
                    pooled
                        .e2e_quantile(p)
                        .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3)
                };
                SweepRow {
                    key,
                    config: cell_stats[members[0]].0.clone(),
                    runs: members.len(),
                    detected_runs: detects.len(),
                    fail_safe_runs: stats.iter().filter(|s| s.fail_safe).count(),
                    detect_mean_s: mean(&detects),
                    failover_mean_s: mean(&failovers),
                    failover_p50_s: quantile(&failovers, 0.5),
                    failover_p99_s: quantile(&failovers, 0.99),
                    hit_ratio: pooled.deadline_hit_ratio(),
                    e2e_p50_ms: q(0.5),
                    e2e_p99_ms: q(0.99),
                    ise_mean: mean(&ises),
                    mean_current_ma: mean(&currents),
                    epochs_mean: mean(&epochs),
                    reroute_cycles_mean: mean(&reroutes),
                }
            })
            .collect();

        SweepReport {
            cells: cell_stats,
            rows,
            vc_rows,
        }
    }

    /// The per-config CSV (one row per config point).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "key,topology,sensors,controllers,actuators,head,loss,detect_threshold,\
             detect_consecutive,reroute,runs,detected_runs,fail_safe_runs,detect_mean_s,\
             failover_mean_s,failover_p50_s,failover_p99_s,hit_ratio,e2e_p50_ms,\
             e2e_p99_ms,ise_mean,mean_current_ma,epochs_mean,reroute_cycles_mean\n",
        );
        for r in &self.rows {
            let c = &r.config;
            // Axis columns use round-trip `Display` (like the key), so
            // distinct config points never render identical axis cells.
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{},{}",
                r.key,
                c.topo.label(),
                c.star.sensors,
                c.star.controllers,
                c.star.actuators,
                c.star.head,
                c.loss,
                c.detect_threshold,
                c.detect_consecutive,
                c.reroute.label(),
                r.runs,
                r.detected_runs,
                r.fail_safe_runs,
                f3(r.detect_mean_s),
                f3(r.failover_mean_s),
                f3(r.failover_p50_s),
                f3(r.failover_p99_s),
                r.hit_ratio,
                f3(r.e2e_p50_ms),
                f3(r.e2e_p99_ms),
                f3(r.ise_mean),
                f3(r.mean_current_ma),
                f3(r.epochs_mean),
                f3(r.reroute_cycles_mean),
            );
        }
        out
    }

    /// The per-cell CSV (one row per run; the reproducibility suite diffs
    /// this across thread counts).
    #[must_use]
    pub fn cells_csv(&self) -> String {
        let mut out = String::from(
            "cell_id,key,rep,seed,detect_s,commit_s,failover_s,fail_safe,hit_ratio,\
             actuations,deadline_misses,e2e_p50_ms,e2e_p99_ms,ise,mean_current_ma,\
             epochs,reroute_cycles\n",
        );
        for (i, (config, s)) in self.cells.iter().enumerate() {
            let opt = |v: Option<f64>| v.map_or_else(|| "nan".to_string(), f3);
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{}",
                i,
                config.key(),
                config.rep,
                config.seed,
                opt(s.detect_s),
                opt(s.commit_s),
                opt(s.failover_s),
                s.fail_safe,
                s.hit_ratio,
                s.actuations,
                s.deadline_misses,
                f3(s.e2e_p50_ms),
                f3(s.e2e_p99_ms),
                f3(s.ise),
                f3(s.mean_current_ma),
                s.epochs,
                f3(s.reroute_cycles),
            );
        }
        out
    }

    /// The per-(config, VC) CSV: one row per hosted Virtual Component per
    /// config point — loops hosted vs per-loop QoS.
    #[must_use]
    pub fn vcs_csv(&self) -> String {
        let mut out = String::from("key,vc,loop,runs,actuations_mean,hit_ratio,ise_mean\n");
        for r in &self.vc_rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.6},{}",
                r.key,
                r.vc,
                r.loop_name,
                r.runs,
                f3(r.actuations_mean),
                r.hit_ratio,
                f3(r.ise_mean),
            );
        }
        out
    }

    /// The per-config topology CSV: the layout family, deployment scale
    /// and pooled QoS of each config point — the row set the multi-hop
    /// `over_topology` axis reads off (one row per config point, so a
    /// star-only grid still renders a well-formed single-shape table).
    #[must_use]
    pub fn topology_csv(&self) -> String {
        let mut out = String::from(
            "key,topology,vcs,nodes,runs,hit_ratio,e2e_p50_ms,e2e_p99_ms,\
             failover_mean_s,ise_mean,mean_current_ma\n",
        );
        // Node counts are identical within a config point (same layout,
        // same topology): one pass over the cells indexes them by key.
        let mut nodes_by_key: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        for (c, s) in &self.cells {
            nodes_by_key.entry(c.key()).or_insert(s.nodes);
        }
        for r in &self.rows {
            let nodes = nodes_by_key.get(&r.key).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.6},{},{},{},{},{}",
                r.key,
                r.config.topo.label(),
                r.config.vcs,
                nodes,
                r.runs,
                r.hit_ratio,
                f3(r.e2e_p50_ms),
                f3(r.e2e_p99_ms),
                f3(r.failover_mean_s),
                f3(r.ise_mean),
                f3(r.mean_current_ma),
            );
        }
        out
    }

    /// The per-config reconfiguration CSV: the reroute policy and the
    /// epoch/latency columns of each config point — the row set the
    /// `over_reroute` axis reads off (one row per config point, so a
    /// static-only grid still renders a well-formed table of zeros).
    #[must_use]
    pub fn reconfig_csv(&self) -> String {
        let mut out = String::from(
            "key,reroute,runs,epochs_mean,reroute_cycles_mean,detect_mean_s,\
             hit_ratio,ise_mean\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.6},{}",
                r.key,
                r.config.reroute.label(),
                r.runs,
                f3(r.epochs_mean),
                f3(r.reroute_cycles_mean),
                f3(r.detect_mean_s),
                r.hit_ratio,
                f3(r.ise_mean),
            );
        }
        out
    }

    /// A human-readable markdown summary with the per-config table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Sweep report\n\n");
        let _ = writeln!(
            out,
            "{} cells over {} config points (seed replicates pooled per row).\n",
            self.cells.len(),
            self.rows.len()
        );
        out.push_str(
            "| config | runs | detected | fail-safe | detect mean [s] | failover p50 [s] | \
             failover p99 [s] | hit ratio | e2e p99 [ms] | ISE | mean mA |\n\
             |---|---|---|---|---|---|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {:.4} | {} | {} | {} |",
                r.key,
                r.runs,
                r.detected_runs,
                r.fail_safe_runs,
                f3(r.detect_mean_s),
                f3(r.failover_p50_s),
                f3(r.failover_p99_s),
                r.hit_ratio,
                f3(r.e2e_p99_ms),
                f3(r.ise_mean),
                f3(r.mean_current_ma),
            );
        }
        // Per-VC table, only when some config hosts more than one VC.
        if self.vc_rows.iter().any(|r| r.vc > 0) {
            out.push_str(
                "\n## Per-VC rows\n\n\
                 | config | vc | loop | runs | actuations | hit ratio | ISE |\n\
                 |---|---|---|---|---|---|---|\n",
            );
            for r in &self.vc_rows {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {:.4} | {} |",
                    r.key,
                    r.vc,
                    r.loop_name,
                    r.runs,
                    f3(r.actuations_mean),
                    r.hit_ratio,
                    f3(r.ise_mean),
                );
            }
        }
        out.push_str(
            "\nAggregation is deterministic: the same grid renders these bytes \
             at any thread count.\n",
        );
        out
    }

    /// Writes `{stem}.csv`, `{stem}_cells.csv`, `{stem}_vcs.csv`,
    /// `{stem}_topology.csv`, `{stem}_reconfig.csv` and `{stem}.md`
    /// under `dir` (created if needed) and returns the paths.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — a sweep without its report is a failed sweep.
    pub fn write(&self, dir: &Path, stem: &str) -> Vec<PathBuf> {
        fs::create_dir_all(dir).expect("create report dir");
        let targets = [
            (format!("{stem}.csv"), self.to_csv()),
            (format!("{stem}_cells.csv"), self.cells_csv()),
            (format!("{stem}_vcs.csv"), self.vcs_csv()),
            (format!("{stem}_topology.csv"), self.topology_csv()),
            (format!("{stem}_reconfig.csv"), self.reconfig_csv()),
            (format!("{stem}.md"), self.to_markdown()),
        ];
        targets
            .into_iter()
            .map(|(name, content)| {
                let path = dir.join(name);
                fs::write(&path, content).expect("write report file");
                path
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_cells;
    use crate::grid::SweepGrid;
    use evm_core::runtime::{Scenario, ScenarioBuilder};
    use evm_sim::SimDuration;

    fn tiny_grid() -> SweepGrid {
        // The degenerate three-node loop keeps this unit test fast; the
        // integration suite covers failover-bearing grids.
        let template = ScenarioBuilder::minimal()
            .duration(SimDuration::from_secs(8))
            .build();
        SweepGrid::new(template)
            .over_loss(&[0.0, 0.2])
            .seeds_per_cell(2)
    }

    #[test]
    fn report_pools_replicates_per_config() {
        let cells = tiny_grid().expand();
        let results = run_cells(&cells, 1);
        let report = SweepReport::build(&cells, &results);
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.runs == 2));
        // No fault scripted: nothing detected, no failover, ISE defined.
        assert!(report.rows.iter().all(|r| r.detected_runs == 0));
        assert!(report.rows.iter().all(|r| r.failover_mean_s.is_nan()));
        assert!(report.rows.iter().all(|r| r.ise_mean.is_finite()));
        assert!(report.rows.iter().all(|r| r.mean_current_ma > 0.0));
    }

    #[test]
    fn rendering_is_deterministic_across_thread_counts() {
        let cells = tiny_grid().expand();
        let serial = SweepReport::build(&cells, &run_cells(&cells, 1));
        let parallel = SweepReport::build(&cells, &run_cells(&cells, 4));
        // Byte identity is the contract; struct equality would be defeated
        // by NaN placeholders in rows without failovers (NaN != NaN).
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.cells_csv(), parallel.cells_csv());
        assert_eq!(serial.to_markdown(), parallel.to_markdown());
        // Shape checks: headers + one line per row/cell.
        assert_eq!(serial.to_csv().lines().count(), 1 + serial.rows.len());
        assert_eq!(serial.cells_csv().lines().count(), 1 + serial.cells.len());
    }

    #[test]
    fn quantile_and_mean_helpers() {
        assert!(mean(&[]).is_nan());
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        // Nearest rank (round half up): idx round(1.5) = 2 -> 3.0.
        assert!((quantile(&xs, 0.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_quantile_convention_matches_core_latency_quantiles() {
        use evm_core::RunAggregate;
        use evm_sim::SimDuration;
        // The same sample through both paths lands on the same rank.
        let sample_ms = [60.0, 65.0, 70.0, 90.0];
        let mut agg = RunAggregate::new();
        agg.e2e_pooled = sample_ms
            .iter()
            .map(|&ms| SimDuration::from_millis(ms as u64))
            .collect();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let core_ms = agg.e2e_quantile(q).unwrap().as_secs_f64() * 1e3;
            assert!((quantile(&sample_ms, q) - core_ms).abs() < 1e-9, "q={q}");
        }
    }

    /// The reconfiguration columns through a real reroute: a relay-kill
    /// template over the `over_reroute` axis yields zero epochs on the
    /// static row and one epoch (with a finite cycle latency) on the
    /// heartbeat row — and the `_reconfig.csv` view carries both.
    #[test]
    fn reroute_axis_cells_report_epochs_and_latency() {
        use evm_core::runtime::{ReroutePolicy, ScenarioBuilder};
        use evm_netsim::NodeId;
        use evm_sim::SimTime;
        let template = ScenarioBuilder::star()
            .line(2)
            .sensors(1)
            .controllers(2)
            .actuators(1)
            .head(true)
            .backup_relays(1)
            .crash_node_at(NodeId(6), SimTime::from_secs(10))
            .duration(SimDuration::from_secs(40))
            .build();
        let cells = SweepGrid::new(template)
            .over_reroute(&[ReroutePolicy::Static, ReroutePolicy::Heartbeat])
            .expand();
        let results = run_cells(&cells, 1);
        let report = SweepReport::build(&cells, &results);
        assert_eq!(report.rows.len(), 2);
        let (stat, hb) = (&report.rows[0], &report.rows[1]);
        assert_eq!(stat.config.reroute, ReroutePolicy::Static);
        assert_eq!(stat.epochs_mean, 0.0);
        assert!(stat.reroute_cycles_mean.is_nan());
        assert_eq!(hb.config.reroute, ReroutePolicy::Heartbeat);
        assert_eq!(hb.epochs_mean, 1.0);
        assert!(
            hb.reroute_cycles_mean > 0.0 && hb.reroute_cycles_mean < 32.0,
            "reroute latency {} cycles",
            hb.reroute_cycles_mean
        );
        // The dedicated view renders one row per config point.
        let csv = report.reconfig_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains(",static,"));
        assert!(csv.contains(",heartbeat,"));
    }

    #[test]
    fn build_rejects_misaligned_inputs() {
        let cells = tiny_grid().expand();
        let results = run_cells(&cells[..2], 1);
        let r = std::panic::catch_unwind(|| SweepReport::build(&cells, &results));
        assert!(r.is_err());
    }

    #[test]
    fn fig5_fault_cells_report_failover_latency() {
        use evm_plant::ActuatorFault;
        use evm_sim::SimTime;
        let mut template = Scenario::builder()
            .duration(SimDuration::from_secs(40))
            .fault_at(SimTime::from_secs(10), ActuatorFault::paper_fault())
            .reconfig_epoch(SimDuration::ZERO)
            .build();
        template.seed = 77;
        let cells = SweepGrid::new(template).expand();
        let results = run_cells(&cells, 1);
        let report = SweepReport::build(&cells, &results);
        let row = &report.rows[0];
        assert_eq!(row.detected_runs, 1);
        assert_eq!(row.fail_safe_runs, 0);
        assert!(row.detect_mean_s > 10.0, "detected after the fault");
        assert!(
            row.failover_mean_s >= 0.0 && row.failover_mean_s < 1.0,
            "commit follows detection quickly at epoch zero: {}",
            row.failover_mean_s
        );
    }
}
