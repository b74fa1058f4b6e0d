//! The sweep-grid DSL: axes over scenario knobs, expanded to a work-list.
//!
//! A [`SweepGrid`] starts from a template [`Scenario`] (everything the
//! axes do not touch — duration, scripted faults, epoch, warm/cold
//! backups — comes from the template) and takes the cartesian product of
//! its axes and the seed replicates. The axes cover the layout family, the
//! VC count, star role counts, extra link loss, detection parameters, the
//! reroute policy, the capsule size and the transfer-slot budget.
//! [`SweepGrid::expand`] materializes one [`SweepCell`] per point, each
//! with a seed derived purely from the base seed and the cell index
//! ([`derive_seed`]) — never from shared mutable state — so the work-list
//! is identical no matter who expands it, and results are reproducible no
//! matter which thread runs which cell.

use std::fmt;
use std::sync::Arc;

use evm_core::runtime::{
    check_setup, Deployment, Layout, ReroutePolicy, Scenario, StarShape, TopologyShape,
};
use evm_sim::derive_seed;

/// Cell metadata: the knob values (and derived seed) behind one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// The layout family of the cell's topology (star unless the grid
    /// carries an `over_topology` axis).
    pub topo: Layout,
    /// Number of Virtual Components hosted on the shared cycle.
    pub vcs: usize,
    /// Star role counts of the cell's topology (per VC).
    pub star: StarShape,
    /// Extra per-link Bernoulli loss.
    pub loss: f64,
    /// Deviation-detector threshold.
    pub detect_threshold: f64,
    /// Consecutive anomalies to confirm a fault.
    pub detect_consecutive: u32,
    /// Runtime re-routing policy of the cell.
    pub reroute: ReroutePolicy,
    /// Synthetic padding (bytes) appended to the migrated capsule image —
    /// the Fig. 6(b) image-size axis.
    pub capsule_pad: usize,
    /// Per-cycle transfer-slot budget of the capsule-migration lane
    /// (0 disables migration).
    pub transfer_slots: usize,
    /// Seed-replicate index within the config point.
    pub rep: u32,
    /// The derived per-cell RNG seed.
    pub seed: u64,
}

impl CellConfig {
    /// Describes a built cell: the layout comes from the shape its
    /// topology was rebuilt from (star when no topology axis rebuilt it),
    /// every other knob from the scenario itself — so the key describes
    /// the cell whichever axes produced it.
    fn describe(scenario: &Scenario, shape: Option<&TopologyShape>, rep: u32) -> Self {
        CellConfig {
            topo: shape.map_or(Layout::Star, |s| s.layout),
            vcs: scenario.n_vcs(),
            star: StarShape::of_spec(&scenario.topology),
            loss: scenario.extra_loss,
            detect_threshold: scenario.detect_threshold,
            detect_consecutive: scenario.detect_consecutive,
            reroute: scenario.reroute,
            capsule_pad: scenario.capsule_pad_bytes,
            transfer_slots: scenario.transfer_slots,
            rep,
            seed: scenario.seed,
        }
    }

    /// The config-point key: every knob except the seed replicate. Cells
    /// sharing a key are pooled into one report row. Float knobs render
    /// with `f64`'s round-trip `Display` (never truncated), so distinct
    /// config points can never collide into one row.
    #[must_use]
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}v{}|loss{}|det{}x{}",
            self.star.label(),
            self.vcs,
            self.loss,
            self.detect_threshold,
            self.detect_consecutive,
        );
        // The remaining knobs add a suffix only off their default, so
        // keys from before their axes existed (and the goldens pinning
        // them) render unchanged.
        let suffixes = [
            (self.topo != Layout::Star).then(|| self.topo.label()),
            (self.reroute != ReroutePolicy::Static).then(|| self.reroute.label().to_string()),
            (self.capsule_pad != 0).then(|| format!("cap{}", self.capsule_pad)),
            (self.transfer_slots != 0).then(|| format!("xfer{}", self.transfer_slots)),
        ];
        for suffix in suffixes.into_iter().flatten() {
            key.push('|');
            key.push_str(&suffix);
        }
        key
    }
}

/// One unit of sweep work: a fully-built scenario plus its metadata.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the expanded work-list (also the seed stream).
    pub id: usize,
    /// The knob values behind the scenario.
    pub config: CellConfig,
    /// The ready-to-run scenario.
    pub scenario: Scenario,
}

/// A cell under construction: the template scenario plus, once a
/// topology axis has touched it, the shape its topology is rebuilt from.
struct Draft {
    scenario: Scenario,
    shape: Option<TopologyShape>,
}

impl Draft {
    /// The draft's topology shape, started on first use from the
    /// template's own: a star of its VC count and VC 0's role counts.
    fn shape(&mut self) -> &mut TopologyShape {
        let scenario = &self.scenario;
        self.shape.get_or_insert_with(|| TopologyShape {
            layout: Layout::Star,
            vcs: scenario.n_vcs(),
            roles: StarShape::of_spec(&scenario.topology),
            ..TopologyShape::fig5()
        })
    }
}

/// One axis value: an edit of a cell draft.
type Edit = Arc<dyn Fn(&mut Draft) + Send + Sync>;

/// One grid axis: its name (the setter that added it) and one edit per
/// value.
#[derive(Clone)]
struct Axis {
    name: &'static str,
    edits: Vec<Edit>,
}

/// A cartesian grid of scenarios over `ScenarioBuilder` knobs.
///
/// Knobs without an axis keep the template's own value, so the smallest
/// grid is the template itself repeated over seed replicates.
#[derive(Clone)]
pub struct SweepGrid {
    template: Scenario,
    axes: Vec<Axis>,
    seeds_per_cell: u32,
    base_seed: u64,
}

impl fmt::Debug for SweepGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axes: Vec<(&str, usize)> = self.axes.iter().map(|a| (a.name, a.edits.len())).collect();
        f.debug_struct("SweepGrid")
            .field("template", &self.template)
            .field("axes", &axes)
            .field("seeds_per_cell", &self.seeds_per_cell)
            .field("base_seed", &self.base_seed)
            .finish()
    }
}

impl SweepGrid {
    /// Starts a grid from a template scenario. The template's seed becomes
    /// the default base seed.
    #[must_use]
    pub fn new(template: Scenario) -> Self {
        let base_seed = template.seed;
        SweepGrid {
            template,
            axes: Vec::new(),
            seeds_per_cell: 1,
            base_seed,
        }
    }

    /// Adds the axis `name`, one draft edit per value (`apply` writes the
    /// value into the draft), or replaces it in place if the grid already
    /// has it. Private on purpose: an edit of a knob that [`CellConfig`]
    /// does not describe would pool different cells into one report row.
    fn axis<T: Copy + Send + Sync + 'static>(
        mut self,
        name: &'static str,
        values: &[T],
        apply: fn(&mut Draft, T),
    ) -> Self {
        assert!(!values.is_empty(), "empty axis");
        let edits = values
            .iter()
            .map(|&v| Arc::new(move |d: &mut Draft| apply(d, v)) as Edit)
            .collect();
        let axis = Axis { name, edits };
        match self.axes.iter_mut().find(|a| a.name == name) {
            Some(slot) => *slot = axis,
            None => self.axes.push(axis),
        }
        self
    }

    /// Sweeps the number of Virtual Components hosted on the shared cycle
    /// (each cell rebuilds its topology at that VC count and re-derives
    /// the hosting manifest via `Scenario::host_vcs`). A count the layout
    /// cannot host is rejected at expansion.
    #[must_use]
    pub fn over_vcs(self, vcs: &[usize]) -> Self {
        self.axis("vcs", vcs, |d, n| d.shape().vcs = n)
    }

    /// Sweeps the layout family (star / line / grid / clustered) at the
    /// grid's role counts — the multi-hop `over_topology` axis. Cells
    /// rebuild the topology with the layouts' calibrated default
    /// spacings; line and grid host a single VC, so combining them with a
    /// `vcs` value above 1 is rejected at expansion.
    #[must_use]
    pub fn over_topology(self, layouts: &[Layout]) -> Self {
        self.axis("topology", layouts, |d, layout| d.shape().layout = layout)
    }

    /// Sweeps star role counts. Cells rebuild the topology (a star on a
    /// 15 m ring unless a topology axis picks another layout); without a
    /// topology axis of any kind the template topology is used unchanged.
    #[must_use]
    pub fn over_stars(self, shapes: &[StarShape]) -> Self {
        self.axis("stars", shapes, |d, s| d.shape().roles = s)
    }

    /// Sweeps the extra per-link Bernoulli loss probability. A
    /// probability outside `[0, 1]` is rejected at expansion.
    #[must_use]
    pub fn over_loss(self, losses: &[f64]) -> Self {
        self.axis("loss", losses, |d, p| d.scenario.extra_loss = p)
    }

    /// Sweeps the deviation detector's `(threshold, consecutive)` pair. A
    /// negative threshold or zero count is rejected at expansion.
    #[must_use]
    pub fn over_detection(self, detection: &[(f64, u32)]) -> Self {
        self.axis("detection", detection, |d, (threshold, consecutive)| {
            d.scenario.detect_threshold = threshold;
            d.scenario.detect_consecutive = consecutive;
        })
    }

    /// Sweeps the runtime re-routing policy (static vs heartbeat) — the
    /// reconfiguration-plane axis: the same crash script runs frozen and
    /// self-healing side by side, and the report's reconfiguration
    /// columns (epochs, reroute latency) separate the two.
    #[must_use]
    pub fn over_reroute(self, policies: &[ReroutePolicy]) -> Self {
        self.axis("reroute", policies, |d, p| d.scenario.reroute = p)
    }

    /// Sweeps the synthetic padding appended to the migrated capsule
    /// image — the Fig. 6(b) image-size axis. Pads only matter in cells
    /// whose transfer lane is enabled and whose script triggers a
    /// migration.
    #[must_use]
    pub fn over_capsule_size(self, pads: &[usize]) -> Self {
        self.axis("capsule_size", pads, |d, b| {
            d.scenario.capsule_pad_bytes = b
        })
    }

    /// Sweeps the per-cycle transfer-slot budget of the capsule-migration
    /// lane (0 keeps migration disabled — the historical default).
    #[must_use]
    pub fn over_transfer_slots(self, budgets: &[usize]) -> Self {
        self.axis("transfer_slots", budgets, |d, n| {
            d.scenario.transfer_slots = n
        })
    }

    /// Number of seed replicates per config point (≥ 1).
    #[must_use]
    pub fn seeds_per_cell(mut self, n: u32) -> Self {
        assert!(n >= 1, "at least one seed per cell");
        self.seeds_per_cell = n;
        self
    }

    /// The base seed all cell seeds are derived from.
    #[must_use]
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Number of cells the grid expands to: the product of the axis
    /// lengths times the seed replicates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.edits.len()).product::<usize>() * self.seeds_per_cell as usize
    }

    /// `true` for a degenerate grid (never: axes reject empty inputs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product into the work-list. Cell ids count
    /// in mixed radix over the axes: the first axis added is outermost
    /// and the seed replicate innermost, so cell ids and seeds depend
    /// only on the grid definition.
    ///
    /// Each cell applies its axis edits to the template, rebuilds its
    /// topology and hosting manifest once if a topology axis touched it,
    /// and then passes the setup check. A malformed grid therefore fails
    /// fast at definition, with the cell id and the typed error, instead
    /// of panicking a worker hours into the batch.
    ///
    /// The check builds the cell's [`Deployment`], and cells share it:
    /// the first cell of each distinct deployment key runs the whole
    /// [`check_setup`], and every later cell of that key runs only the
    /// per-run stages ([`Deployment::check_run`]: knob rules, crash
    /// script, fault plan) and shares the first one's deployment. Cells
    /// that differ only in seed, loss, detection or capsule size have one
    /// key (unless the channel is shadowed: its key holds the seed). Each
    /// cell's scenario carries its deployment
    /// ([`Scenario::attach_deployment`]), so the workers' engines skip
    /// setup's shared half; a cell edited after expansion no longer fits
    /// it and is checked and built afresh. Either way a cell rejects
    /// exactly what `check_setup` would, with the same error.
    ///
    /// # Panics
    ///
    /// Panics with the cell id and the typed error of the first cell
    /// whose topology shape cannot be built or that fails the setup
    /// check.
    #[must_use]
    pub fn expand(&self) -> Vec<SweepCell> {
        let len = self.len();
        let reps = self.seeds_per_cell as usize;
        // The distinct deployments built so far, newest first in search
        // order: a grid's key-changing axes are its outer ones, so a cell
        // mostly shares the deployment of the cell before it.
        let mut built: Vec<Arc<Deployment>> = Vec::new();
        (0..len)
            .map(|id| {
                let mut draft = Draft {
                    scenario: self.template.clone(),
                    shape: None,
                };
                let mut stride = len;
                for axis in &self.axes {
                    stride /= axis.edits.len();
                    (axis.edits[id / stride % axis.edits.len()])(&mut draft);
                }
                let Draft {
                    mut scenario,
                    shape,
                } = draft;
                if let Some(shape) = &shape {
                    scenario.topology = shape
                        .materialize()
                        .unwrap_or_else(|e| panic!("sweep cell {id}: {e}"));
                    scenario.host_vcs(shape.vcs);
                }
                scenario.seed = derive_seed(self.base_seed, id as u64);
                let deployment = match built.iter().rev().find(|d| d.fits(&scenario)) {
                    Some(d) => d.check_run(&scenario).map(|()| Arc::clone(d)),
                    None => check_setup(&scenario).inspect(|d| built.push(Arc::clone(d))),
                };
                match deployment {
                    Ok(d) => scenario.attach_deployment(d),
                    Err(e) => panic!("sweep cell {id}: {e}"),
                }
                let rep = u32::try_from(id % reps).expect("replicate index fits u32");
                SweepCell {
                    id,
                    config: CellConfig::describe(&scenario, shape.as_ref(), rep),
                    scenario,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evm_core::runtime::{Role, ScenarioBuilder};
    use evm_sim::SimDuration;

    fn short_template() -> Scenario {
        let mut t = Scenario::baseline();
        t.duration = SimDuration::from_secs(5);
        t
    }

    #[test]
    fn expansion_is_the_cartesian_product_in_fixed_order() {
        let grid = SweepGrid::new(short_template())
            .over_stars(&[StarShape::fig5(), StarShape::with_controllers(3)])
            .over_loss(&[0.0, 0.1, 0.2])
            .over_detection(&[(5.0, 3), (2.0, 5)])
            .seeds_per_cell(4);
        assert_eq!(grid.len(), 2 * 3 * 2 * 4);
        let cells = grid.expand();
        assert_eq!(cells.len(), grid.len());
        // Innermost axis is the replicate; next is detection.
        assert_eq!(cells[0].config.rep, 0);
        assert_eq!(cells[1].config.rep, 1);
        assert_eq!(cells[4].config.detect_consecutive, 5);
        // Outermost axis is the star shape.
        assert_eq!(cells[0].config.star.controllers, 2);
        assert_eq!(cells[24].config.star.controllers, 3);
        // Ids are positional.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i);
        }
    }

    #[test]
    fn seeds_are_stable_and_distinct_across_cells() {
        let grid = SweepGrid::new(short_template())
            .over_loss(&[0.0, 0.3])
            .seeds_per_cell(8)
            .base_seed(1234);
        let a = grid.expand();
        let b = grid.expand();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.scenario.seed, y.scenario.seed);
        }
        let mut seeds: Vec<u64> = a.iter().map(|c| c.scenario.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "cell seeds must be distinct");
    }

    #[test]
    fn axes_rewrite_the_scenario_knobs() {
        let cells = SweepGrid::new(short_template())
            .over_stars(&[StarShape {
                sensors: 2,
                controllers: 3,
                actuators: 1,
                head: true,
            }])
            .over_loss(&[0.25])
            .over_detection(&[(3.5, 4)])
            .expand();
        assert_eq!(cells.len(), 1);
        let s = &cells[0].scenario;
        assert_eq!(s.topology.nodes.len(), 8); // GW + 2 + 3 + 1 + head
        assert_eq!(s.extra_loss, 0.25);
        assert_eq!(s.detect_threshold, 3.5);
        assert_eq!(s.detect_consecutive, 4);
    }

    #[test]
    fn unset_axes_keep_the_template() {
        let template = short_template();
        let cells = SweepGrid::new(template.clone()).expand();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].scenario.topology, template.topology);
        assert_eq!(cells[0].scenario.extra_loss, template.extra_loss);
        assert_eq!(cells[0].config.star, StarShape::fig5());
    }

    #[test]
    fn config_keys_pool_replicates_only() {
        let cells = SweepGrid::new(short_template())
            .over_loss(&[0.0, 0.1])
            .seeds_per_cell(3)
            .expand();
        let keys: Vec<String> = cells.iter().map(|c| c.config.key()).collect();
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[1], keys[2]);
        assert_ne!(keys[2], keys[3]);
    }

    #[test]
    fn nearby_float_axes_never_share_a_key() {
        // Keys carry full round-trip floats, not truncated decimals:
        // config points closer than any fixed precision stay distinct.
        let cells = SweepGrid::new(short_template())
            .over_detection(&[(0.124, 3), (0.1239, 3)])
            .expand();
        assert_ne!(cells[0].config.key(), cells[1].config.key());
        let cells = SweepGrid::new(short_template())
            .over_loss(&[0.1, 0.1001])
            .expand();
        assert_ne!(cells[0].config.key(), cells[1].config.key());
    }

    #[test]
    #[should_panic(expected = "sweep cell 0: scenario knob extra_loss out of [0, 1]")]
    fn bad_loss_axis_rejected() {
        let _ = SweepGrid::new(short_template()).over_loss(&[1.5]).expand();
    }

    #[test]
    fn vcs_axis_rebuilds_topology_and_hosting_manifest() {
        let cells = SweepGrid::new(short_template()).over_vcs(&[1, 2]).expand();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].config.vcs, 1);
        assert_eq!(cells[0].scenario.n_vcs(), 1);
        assert_eq!(cells[1].config.vcs, 2);
        assert_eq!(cells[1].scenario.n_vcs(), 2);
        // Fig. 5 shape per VC: GW + 2 × (2 sensors + 2 controllers +
        // 1 actuator + head).
        assert_eq!(cells[1].scenario.topology.nodes.len(), 13);
        // VC 1 hosts the next canonical loop, and its PV is sampled.
        assert_eq!(cells[1].scenario.vc_loop(1).name, "LC-InletSep");
        assert!(cells[1]
            .scenario
            .sampled_tags
            .contains(&"InletSep.LevelPct".to_string()));
        // The vcs value lands in the config key.
        assert!(cells[1].config.key().starts_with("s2c2a1hv2|"));
        assert!(cells[0].config.key().starts_with("s2c2a1hv1|"));
    }

    #[test]
    #[should_panic(expected = "sweep cell 0: vc count out of range: 0-VC star layout")]
    fn bad_vcs_axis_rejected() {
        let _ = SweepGrid::new(short_template()).over_vcs(&[0]).expand();
    }

    /// The `over_topology` axis rebuilds each cell's topology per layout
    /// family; keys grow a layout suffix only off the star family, so
    /// star-only grids keep their historical keys.
    #[test]
    fn topology_axis_rebuilds_layouts() {
        let shapes = [
            Layout::Star,
            Layout::Line { hops: 2 },
            Layout::Grid { w: 2, h: 3 },
            Layout::Clustered,
        ];
        let cells = SweepGrid::new(short_template())
            .over_topology(&shapes)
            .over_stars(&[StarShape {
                sensors: 1,
                controllers: 2,
                actuators: 1,
                head: false,
            }])
            .expand();
        assert_eq!(cells.len(), 4);
        // Star: GW + 4 role nodes. Line(2): + relay = 6. Grid 2x3: fills
        // the 6-cell lattice. Clustered: + 2 relays = 7.
        assert_eq!(cells[0].scenario.topology.nodes.len(), 5);
        assert_eq!(cells[1].scenario.topology.nodes.len(), 6);
        assert_eq!(cells[2].scenario.topology.nodes.len(), 6);
        assert_eq!(cells[3].scenario.topology.nodes.len(), 7);
        assert!(cells[0].config.key().ends_with("det5x3"));
        assert!(cells[1].config.key().ends_with("|line2"));
        assert!(cells[2].config.key().ends_with("|grid2x3"));
        assert!(cells[3].config.key().ends_with("|clustered"));
        // Every non-star cell hosts relay-capable routes: the line and
        // clustered layouts carry dedicated relay roles.
        assert!(cells[1]
            .scenario
            .topology
            .nodes
            .iter()
            .any(|n| matches!(n.role, Role::Relay(_))));
    }

    #[test]
    #[should_panic(expected = "line layouts host a single VC")]
    fn multi_vc_line_cells_rejected_at_expansion() {
        let _ = SweepGrid::new(short_template())
            .over_topology(&[Layout::Line { hops: 2 }])
            .over_vcs(&[2])
            .expand();
    }

    /// Clustered cells pair the layout with the vcs axis: one cluster
    /// per hosted VC.
    #[test]
    fn clustered_cells_follow_the_vcs_axis() {
        let cells = SweepGrid::new(short_template())
            .over_topology(&[Layout::Clustered])
            .over_vcs(&[1, 2])
            .over_stars(&[StarShape {
                sensors: 1,
                controllers: 2,
                actuators: 1,
                head: true,
            }])
            .expand();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scenario.n_vcs(), 1);
        assert_eq!(cells[1].scenario.n_vcs(), 2);
        // 1 + k * (5 members + 2 relays).
        assert_eq!(cells[0].scenario.topology.nodes.len(), 8);
        assert_eq!(cells[1].scenario.topology.nodes.len(), 15);
    }

    /// Every public axis, one row each: the off-default value lands on
    /// the scenario, replicates share a key, the two values get distinct
    /// keys, and the default value keys exactly like the bare template
    /// (no suffix).
    #[test]
    fn every_axis_sets_its_knob_and_keys_its_cells() {
        type Row = (&'static str, SweepGrid, fn(&Scenario) -> bool, &'static str);
        let base = || SweepGrid::new(short_template()).seeds_per_cell(2);
        let rows: [Row; 8] = [
            (
                "vcs",
                base().over_vcs(&[1, 2]),
                |s| s.n_vcs() == 2 && s.topology.n_vcs() == 2,
                "s2c2a1hv2|loss0|det5x3",
            ),
            (
                "topology",
                base().over_topology(&[Layout::Star, Layout::Line { hops: 2 }]),
                |s| {
                    s.topology
                        .nodes
                        .iter()
                        .any(|n| matches!(n.role, Role::Relay(_)))
                },
                "s2c2a1hv1|loss0|det5x3|line2",
            ),
            (
                "stars",
                base().over_stars(&[StarShape::fig5(), StarShape::with_controllers(3)]),
                |s| StarShape::of_spec(&s.topology).controllers == 3,
                "s2c3a1hv1|loss0|det5x3",
            ),
            (
                "loss",
                base().over_loss(&[0.0, 0.1]),
                |s| s.extra_loss == 0.1,
                "s2c2a1hv1|loss0.1|det5x3",
            ),
            (
                "detection",
                base().over_detection(&[(5.0, 3), (2.0, 5)]),
                |s| (s.detect_threshold, s.detect_consecutive) == (2.0, 5),
                "s2c2a1hv1|loss0|det2x5",
            ),
            (
                "reroute",
                base().over_reroute(&[ReroutePolicy::Static, ReroutePolicy::Heartbeat]),
                |s| s.reroute == ReroutePolicy::Heartbeat,
                "s2c2a1hv1|loss0|det5x3|heartbeat",
            ),
            (
                "capsule_size",
                base().over_capsule_size(&[0, 256]),
                |s| s.capsule_pad_bytes == 256,
                "s2c2a1hv1|loss0|det5x3|cap256",
            ),
            (
                "transfer_slots",
                base().over_transfer_slots(&[0, 2]),
                |s| s.transfer_slots == 2,
                "s2c2a1hv1|loss0|det5x3|xfer2",
            ),
        ];
        let bare = SweepGrid::new(short_template()).expand()[0].config.key();
        for (name, grid, knob_set, off_key) in rows {
            let cells = grid.expand();
            assert_eq!(cells.len(), 4, "{name}");
            let key = |i: usize| cells[i].config.key();
            assert!(!knob_set(&cells[0].scenario), "{name}: default cell");
            assert!(knob_set(&cells[2].scenario), "{name}: knob not set");
            assert_eq!(key(0), key(1), "{name}: replicates must share a key");
            assert_eq!(key(2), key(3), "{name}: replicates must share a key");
            assert_eq!(key(2), off_key, "{name}");
            assert_eq!(key(0), bare, "{name}: the default value adds no suffix");
        }
    }

    /// Calling a setter again replaces its axis in place: the axis keeps
    /// its position in the order, and its old values are gone.
    #[test]
    fn repeated_axis_replaces_in_place() {
        let cells = SweepGrid::new(short_template())
            .over_loss(&[0.0, 0.1])
            .over_detection(&[(5.0, 3), (2.0, 5)])
            .over_loss(&[0.2, 0.3, 0.4])
            .expand();
        assert_eq!(cells.len(), 6);
        let loss: Vec<f64> = cells.iter().map(|c| c.config.loss).collect();
        assert_eq!(loss, [0.2, 0.2, 0.3, 0.3, 0.4, 0.4]);
        assert_eq!(cells[1].config.detect_consecutive, 5);
    }

    /// A transfer budget that cannot fit after the pipeline fails at
    /// expansion with the cell id, exactly as engine setup would.
    #[test]
    #[should_panic(expected = "sweep cell 0: topology flows must schedule")]
    fn overflowing_transfer_budget_rejected_at_expansion() {
        let _ = SweepGrid::new(short_template())
            .over_transfer_slots(&[500])
            .expand();
    }

    /// A topology hosting more VCs than the manifest names loops fails
    /// at expansion, not in a worker.
    #[test]
    #[should_panic(expected = "sweep cell 0: topology hosts 2 VC(s)")]
    fn expand_rejects_manifest_mismatch() {
        let mut template = short_template();
        template.topology = ScenarioBuilder::star().vcs(2).build().topology;
        let _ = SweepGrid::new(template).over_loss(&[0.0, 0.1]).expand();
    }

    /// A malformed template fails at grid definition with the cell id,
    /// not hours later inside a worker thread.
    #[test]
    #[should_panic(expected = "sweep cell 0: topology needs a gateway")]
    fn expand_rejects_malformed_template() {
        let mut template = short_template();
        template.topology.nodes.retain(|n| n.role != Role::Gateway);
        let _ = SweepGrid::new(template).expand();
    }

    /// Routability is validated at expansion too: a role-complete
    /// topology whose flows cannot be carried by the physical
    /// connectivity (a stranded node) is rejected with the cell id
    /// instead of panicking a worker mid-batch.
    #[test]
    #[should_panic(expected = "sweep cell 0: topology flows must route")]
    fn expand_rejects_unroutable_template() {
        let mut template = short_template();
        // Strand the focus sensor far out of everyone's radio range.
        template.topology.nodes[1].position = evm_netsim::Position::new(5000.0, 0.0);
        let _ = SweepGrid::new(template).expand();
    }

    /// ...and so is schedulability: a pipeline that cannot fit the
    /// configured RT-Link cycle fails at expansion.
    #[test]
    #[should_panic(expected = "sweep cell 0: topology flows must schedule")]
    fn expand_rejects_unschedulable_template() {
        let mut template = short_template();
        template.rtlink.slots_per_cycle = 4; // 3 data slots for 8 flows
        let _ = SweepGrid::new(template).expand();
    }
}
