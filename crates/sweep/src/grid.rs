//! The sweep-grid DSL: axes over scenario knobs, expanded to a work-list.
//!
//! A [`SweepGrid`] starts from a template [`Scenario`] (everything the
//! axes do not touch — duration, scripted faults, epoch, warm/cold
//! backups — comes from the template) and takes the cartesian product of
//! up to five axes: star shape, extra link loss, burst process, detection
//! parameters and seed replicates. [`SweepGrid::expand`] materializes one
//! [`SweepCell`] per point, each with a seed derived purely from the base
//! seed and the cell index ([`derive_seed`]) — never from shared mutable
//! state — so the work-list is identical no matter who expands it, and
//! results are reproducible no matter which thread runs which cell.

use evm_core::runtime::{
    Layout, ReroutePolicy, Role, Scenario, Tier, TopologySpec, CLUSTER_HOP_M, CLUSTER_RING_M,
    GRID_SPACING_M, LINE_SPACING_M,
};
use evm_netsim::GilbertElliott;
use evm_sim::derive_seed;

/// Star-topology role counts for one grid axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarShape {
    /// Sensor nodes (≥ 1; sensor 0 carries the focus PV).
    pub sensors: usize,
    /// Controller replicas (≥ 1; the first is the initial primary).
    pub controllers: usize,
    /// Actuator nodes (0 routes actuation through the gateway).
    pub actuators: usize,
    /// Whether the Virtual Component head is deployed.
    pub head: bool,
}

impl StarShape {
    /// The paper's Fig. 5 testbed shape (2 sensors, 2 controllers,
    /// 1 actuator, head).
    #[must_use]
    pub fn fig5() -> Self {
        StarShape {
            sensors: 2,
            controllers: 2,
            actuators: 1,
            head: true,
        }
    }

    /// A shape with `n` controller replicas, otherwise Fig. 5.
    #[must_use]
    pub fn with_controllers(n: usize) -> Self {
        StarShape {
            controllers: n,
            ..StarShape::fig5()
        }
    }

    /// Reads the per-VC shape off an existing topology spec (for grids
    /// that keep the template's topology): VC 0's role counts, which for
    /// the symmetric multi-VC stars is every VC's shape.
    #[must_use]
    pub fn of_spec(spec: &TopologySpec) -> Self {
        let count = |pred: fn(&Role) -> bool| {
            spec.nodes
                .iter()
                .filter(|n| n.vc == 0 && pred(&n.role))
                .count()
        };
        StarShape {
            sensors: count(|r| matches!(r, Role::Sensor(_))),
            controllers: count(|r| matches!(r, Role::Controller(_))),
            actuators: count(|r| matches!(r, Role::Actuator(_))),
            head: spec.nodes.iter().any(|n| n.vc == 0 && n.role == Role::Head),
        }
    }

    /// Stable label, e.g. `s2c3a1h` (trailing `h` iff the head is present).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "s{}c{}a{}{}",
            self.sensors,
            self.controllers,
            self.actuators,
            if self.head { "h" } else { "" }
        )
    }
}

/// Gilbert–Elliott burst-process parameters for one grid axis value.
///
/// A plain-data mirror of [`GilbertElliott`] so axis values can be
/// compared, labeled and stored in cell metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// P(Good → Bad) per packet.
    pub p_gb: f64,
    /// P(Bad → Good) per packet.
    pub p_bg: f64,
    /// Loss probability while Good.
    pub loss_good: f64,
    /// Loss probability while Bad.
    pub loss_bad: f64,
}

impl BurstSpec {
    /// A loss-free link process.
    #[must_use]
    pub fn ideal() -> Self {
        BurstSpec {
            p_gb: 0.0,
            p_bg: 1.0,
            loss_good: 0.0,
            loss_bad: 0.0,
        }
    }

    /// The industrial-floor process used by the lossy channel preset.
    #[must_use]
    pub fn industrial() -> Self {
        BurstSpec {
            p_gb: 0.01,
            p_bg: 0.2,
            loss_good: 0.0,
            loss_bad: 0.6,
        }
    }

    /// Materializes the process for a scenario's channel config.
    #[must_use]
    pub fn to_process(self) -> GilbertElliott {
        GilbertElliott::new(self.p_gb, self.p_bg, self.loss_good, self.loss_bad)
    }

    /// Stable label, e.g. `ideal` or `gb0.01-bg0.2-lg0-lb0.6`. All four
    /// parameters render with `f64`'s round-trip `Display`, so distinct
    /// processes never share a label.
    #[must_use]
    pub fn label(&self) -> String {
        if *self == BurstSpec::ideal() {
            "ideal".to_string()
        } else {
            format!(
                "gb{}-bg{}-lg{}-lb{}",
                self.p_gb, self.p_bg, self.loss_good, self.loss_bad
            )
        }
    }
}

/// Cell metadata: the axis values (and derived seed) behind one scenario.
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
    /// Burst-process override; `None` keeps the template's channel.
    pub burst: Option<BurstSpec>,
    /// Deviation-detector threshold.
    pub detect_threshold: f64,
    /// Consecutive anomalies to confirm a fault.
    pub detect_consecutive: u32,
    /// Runtime re-routing policy of the cell.
    pub reroute: ReroutePolicy,
    /// VM execution tier every controller replica runs capsules on.
    pub tier: Tier,
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
    /// The config-point key: every axis except the seed replicate. Cells
    /// sharing a key are pooled into one report row. Float axes render
    /// with `f64`'s round-trip `Display` (never truncated), so distinct
    /// config points can never collide into one row.
    #[must_use]
    pub fn key(&self) -> String {
        // Star keys keep their pre-topology-axis format, so star-only
        // grids (and their pinned goldens) render unchanged.
        let topo = if self.topo == Layout::Star {
            String::new()
        } else {
            format!("|{}", self.topo.label())
        };
        // The reroute suffix appears only off the static default, for the
        // same reason.
        let reroute = if self.reroute == ReroutePolicy::Static {
            String::new()
        } else {
            format!("|{}", self.reroute.label())
        };
        // Likewise the tier suffix: interp cells (the default) keep
        // their historical keys, so tier axes never move goldens.
        let tier = if self.tier == Tier::Interp {
            String::new()
        } else {
            format!("|{}", self.tier.label())
        };
        // Migration suffixes appear only off the disabled defaults, so
        // pre-migration grids (and their goldens) render unchanged.
        let cap = if self.capsule_pad == 0 {
            String::new()
        } else {
            format!("|cap{}", self.capsule_pad)
        };
        let xfer = if self.transfer_slots == 0 {
            String::new()
        } else {
            format!("|xfer{}", self.transfer_slots)
        };
        format!(
            "{}v{}|loss{}|{}|det{}x{}{topo}{reroute}{tier}{cap}{xfer}",
            self.star.label(),
            self.vcs,
            self.loss,
            self.burst.map_or_else(|| "chan".to_string(), |b| b.label()),
            self.detect_threshold,
            self.detect_consecutive,
        )
    }
}

/// One unit of sweep work: a fully-built scenario plus its metadata.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Position in the expanded work-list (also the seed stream).
    pub id: usize,
    /// The axis values behind the scenario.
    pub config: CellConfig,
    /// The ready-to-run scenario.
    pub scenario: Scenario,
}

/// A cartesian grid of scenarios over `ScenarioBuilder` knobs.
///
/// Axes left unset collapse to the template's own value, so the smallest
/// grid is the template itself repeated over seed replicates.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    template: Scenario,
    topo: Option<Vec<Layout>>,
    vcs: Option<Vec<usize>>,
    stars: Option<Vec<StarShape>>,
    loss: Option<Vec<f64>>,
    burst: Option<Vec<BurstSpec>>,
    detection: Option<Vec<(f64, u32)>>,
    reroute: Option<Vec<ReroutePolicy>>,
    tier: Option<Vec<Tier>>,
    capsule_pad: Option<Vec<usize>>,
    transfer_slots: Option<Vec<usize>>,
    seeds_per_cell: u32,
    base_seed: u64,
    radius_m: f64,
    backup_relays: usize,
}

impl SweepGrid {
    /// Starts a grid from a template scenario. The template's seed becomes
    /// the default base seed.
    #[must_use]
    pub fn new(template: Scenario) -> Self {
        let base_seed = template.seed;
        SweepGrid {
            template,
            topo: None,
            vcs: None,
            stars: None,
            loss: None,
            burst: None,
            detection: None,
            reroute: None,
            tier: None,
            capsule_pad: None,
            transfer_slots: None,
            seeds_per_cell: 1,
            base_seed,
            radius_m: 15.0,
            backup_relays: 0,
        }
    }

    /// Sweeps the number of Virtual Components hosted on the shared cycle
    /// (each cell rebuilds the topology as a multi-VC star and re-derives
    /// the hosting manifest via `Scenario::host_vcs`).
    ///
    /// # Panics
    ///
    /// Panics if any count is outside `1..=MAX_VCS`.
    #[must_use]
    pub fn over_vcs(mut self, vcs: &[usize]) -> Self {
        assert!(!vcs.is_empty(), "empty axis");
        for &n in vcs {
            assert!(
                (1..=evm_core::runtime::MAX_VCS).contains(&n),
                "vc count out of range: {n}"
            );
        }
        self.vcs = Some(vcs.to_vec());
        self
    }

    /// Sweeps the layout family (star / line / grid / clustered) at the
    /// grid's role counts — the multi-hop `over_topology` axis. Cells
    /// rebuild the topology with the layouts' calibrated default
    /// spacings; line and grid host a single VC, so combining them with a
    /// `vcs` value above 1 is rejected at expansion.
    #[must_use]
    pub fn over_topology(mut self, layouts: &[Layout]) -> Self {
        assert!(!layouts.is_empty(), "empty axis");
        self.topo = Some(layouts.to_vec());
        self
    }

    /// Sweeps star topologies (role counts). Cells rebuild the topology at
    /// the grid's ring radius; without this axis the template topology is
    /// used unchanged.
    #[must_use]
    pub fn over_stars(mut self, shapes: &[StarShape]) -> Self {
        assert!(!shapes.is_empty(), "empty axis");
        self.stars = Some(shapes.to_vec());
        self
    }

    /// Sweeps the extra per-link Bernoulli loss probability.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    #[must_use]
    pub fn over_loss(mut self, losses: &[f64]) -> Self {
        assert!(!losses.is_empty(), "empty axis");
        for &p in losses {
            assert!((0.0..=1.0).contains(&p), "loss out of [0,1]: {p}");
        }
        self.loss = Some(losses.to_vec());
        self
    }

    /// Sweeps the Gilbert–Elliott burst process applied to every link.
    #[must_use]
    pub fn over_burst(mut self, bursts: &[BurstSpec]) -> Self {
        assert!(!bursts.is_empty(), "empty axis");
        self.burst = Some(bursts.to_vec());
        self
    }

    /// Sweeps the deviation detector's `(threshold, consecutive)` pair.
    #[must_use]
    pub fn over_detection(mut self, detection: &[(f64, u32)]) -> Self {
        assert!(!detection.is_empty(), "empty axis");
        self.detection = Some(detection.to_vec());
        self
    }

    /// Sweeps the runtime re-routing policy (static vs heartbeat) — the
    /// reconfiguration-plane axis: the same crash script runs frozen and
    /// self-healing side by side, and the report's reconfiguration
    /// columns (epochs, reroute latency) separate the two.
    #[must_use]
    pub fn over_reroute(mut self, policies: &[ReroutePolicy]) -> Self {
        assert!(!policies.is_empty(), "empty axis");
        self.reroute = Some(policies.to_vec());
        self
    }

    /// Sweeps the VM execution tier (interp / compiled) — the
    /// tiered-execution axis: the same scenario runs on the interpreter
    /// and the compiled tier side by side. Every metric must agree
    /// across tier rows (the tiers are bit-identical by contract); only
    /// wall-clock differs.
    #[must_use]
    pub fn over_tier(mut self, tiers: &[Tier]) -> Self {
        assert!(!tiers.is_empty(), "empty axis");
        self.tier = Some(tiers.to_vec());
        self
    }

    /// Sweeps the synthetic padding appended to the migrated capsule
    /// image — the Fig. 6(b) image-size axis. Pads only matter in cells
    /// whose transfer lane is enabled and whose script triggers a
    /// migration.
    #[must_use]
    pub fn over_capsule_size(mut self, pads: &[usize]) -> Self {
        assert!(!pads.is_empty(), "empty axis");
        self.capsule_pad = Some(pads.to_vec());
        self
    }

    /// Sweeps the per-cycle transfer-slot budget of the capsule-migration
    /// lane (0 keeps migration disabled — the historical default).
    #[must_use]
    pub fn over_transfer_slots(mut self, budgets: &[usize]) -> Self {
        assert!(!budgets.is_empty(), "empty axis");
        self.transfer_slots = Some(budgets.to_vec());
        self
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

    /// Ring radius used when the star axis rebuilds topologies.
    #[must_use]
    pub fn radius_m(mut self, radius: f64) -> Self {
        self.radius_m = radius;
        self
    }

    /// Redundant relay chains added when a topology axis rebuilds line or
    /// clustered cells (a rebuilt topology does not inherit the
    /// template's chains — `StarShape` carries role counts only, so a
    /// reroute-policy sweep over rebuilt multi-hop cells must ask for its
    /// redundancy here or the heartbeat rows would misreport as
    /// "reroute failed").
    #[must_use]
    pub fn backup_relays(mut self, n: usize) -> Self {
        self.backup_relays = n;
        self
    }

    /// Number of cells the grid expands to.
    #[must_use]
    pub fn len(&self) -> usize {
        let ax = |n: Option<usize>| n.unwrap_or(1);
        ax(self.topo.as_ref().map(Vec::len))
            * ax(self.vcs.as_ref().map(Vec::len))
            * ax(self.stars.as_ref().map(Vec::len))
            * ax(self.loss.as_ref().map(Vec::len))
            * ax(self.burst.as_ref().map(Vec::len))
            * ax(self.detection.as_ref().map(Vec::len))
            * ax(self.reroute.as_ref().map(Vec::len))
            * ax(self.tier.as_ref().map(Vec::len))
            * ax(self.capsule_pad.as_ref().map(Vec::len))
            * ax(self.transfer_slots.as_ref().map(Vec::len))
            * self.seeds_per_cell as usize
    }

    /// `true` for a degenerate grid (never: axes reject empty inputs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product into the work-list, in a fixed axis
    /// order (topology → vcs → stars → loss → burst → detection →
    /// reroute → tier → capsule size → transfer slots → replicate). Cell ids and seeds depend only on the grid
    /// definition.
    ///
    /// Every cell's topology is validated here, so a malformed template
    /// fails fast at grid definition (with the cell id and the typed
    /// `TopologyError`) instead of panicking a worker hours into the
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if any cell's topology spec is malformed.
    #[must_use]
    pub fn expand(&self) -> Vec<SweepCell> {
        // The backup-relay knob only acts when cells rebuild their
        // topology; silently dropping it would produce exactly the
        // "reroute failed" misreporting it exists to prevent.
        assert!(
            self.backup_relays == 0
                || self.topo.is_some()
                || self.vcs.is_some()
                || self.stars.is_some(),
            "backup_relays needs a topology-rebuilding axis (over_topology/over_vcs/\
             over_stars); without one, bake the chains into the template via \
             ScenarioBuilder::backup_relays"
        );
        let topo_axis: Vec<Option<Layout>> = match &self.topo {
            Some(v) => v.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let vcs_axis: Vec<Option<usize>> = match &self.vcs {
            Some(v) => v.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let stars: Vec<Option<StarShape>> = match &self.stars {
            Some(v) => v.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let losses = self
            .loss
            .clone()
            .unwrap_or_else(|| vec![self.template.extra_loss]);
        let bursts: Vec<Option<BurstSpec>> = match &self.burst {
            Some(v) => v.iter().copied().map(Some).collect(),
            None => vec![None],
        };
        let detection = self.detection.clone().unwrap_or_else(|| {
            vec![(
                self.template.detect_threshold,
                self.template.detect_consecutive,
            )]
        });
        let reroutes = self
            .reroute
            .clone()
            .unwrap_or_else(|| vec![self.template.reroute]);
        let tiers = self
            .tier
            .clone()
            .unwrap_or_else(|| vec![self.template.tier]);
        let pads = self
            .capsule_pad
            .clone()
            .unwrap_or_else(|| vec![self.template.capsule_pad_bytes]);
        let budgets = self
            .transfer_slots
            .clone()
            .unwrap_or_else(|| vec![self.template.transfer_slots]);

        let template_shape = StarShape::of_spec(&self.template.topology);
        let template_vcs = self.template.n_vcs();
        let mut cells = Vec::with_capacity(self.len());
        for &topo in &topo_axis {
            for &vcs in &vcs_axis {
                for star in &stars {
                    for &loss in &losses {
                        for burst in &bursts {
                            for &(threshold, consecutive) in &detection {
                                for &reroute in &reroutes {
                                    for &tier in &tiers {
                                        for &pad in &pads {
                                            for &budget in &budgets {
                                                for rep in 0..self.seeds_per_cell {
                                                    let id = cells.len();
                                                    let seed =
                                                        derive_seed(self.base_seed, id as u64);
                                                    let mut scenario = self.template.clone();
                                                    // Any varied topology axis rebuilds
                                                    // the topology (a vcs value also
                                                    // re-derives the hosting manifest).
                                                    if topo.is_some()
                                                        || vcs.is_some()
                                                        || star.is_some()
                                                    {
                                                        let s = star.unwrap_or(template_shape);
                                                        let n = vcs.unwrap_or(template_vcs);
                                                        scenario.topology = build_topology(
                                                            id,
                                                            topo.unwrap_or(Layout::Star),
                                                            n,
                                                            s,
                                                            self.radius_m,
                                                            self.backup_relays,
                                                        );
                                                        scenario.host_vcs(n);
                                                    }
                                                    scenario.extra_loss = loss;
                                                    if let Some(b) = burst {
                                                        scenario.channel.burst = b.to_process();
                                                    }
                                                    scenario.detect_threshold = threshold;
                                                    scenario.detect_consecutive = consecutive;
                                                    scenario.reroute = reroute;
                                                    scenario.tier = tier;
                                                    scenario.capsule_pad_bytes = pad;
                                                    scenario.transfer_slots = budget;
                                                    scenario.seed = seed;
                                                    validate_cell(id, &scenario);
                                                    cells.push(SweepCell {
                                                        id,
                                                        config: CellConfig {
                                                            topo: topo.unwrap_or(Layout::Star),
                                                            vcs: vcs.unwrap_or(template_vcs),
                                                            star: star.unwrap_or(template_shape),
                                                            loss,
                                                            burst: *burst,
                                                            detect_threshold: threshold,
                                                            detect_consecutive: consecutive,
                                                            reroute,
                                                            tier,
                                                            capsule_pad: pad,
                                                            transfer_slots: budget,
                                                            rep,
                                                            seed,
                                                        },
                                                        scenario,
                                                    });
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// Expansion-time validation of one cell: the topology must resolve
/// (roles), route (every flow's receivers reachable over the physical
/// connectivity — the multi-hop layouts make this a real failure mode)
/// and schedule (the pipeline fits the RT-Link cycle). Mirrors engine
/// construction exactly — same channel stream — so a cell that passes
/// here cannot panic a worker hours into the batch.
fn validate_cell(id: usize, scenario: &Scenario) {
    let mut rng = evm_sim::SimRng::seed_from(scenario.seed);
    let mut channel = evm_netsim::Channel::new(scenario.channel.clone(), rng.fork(1));
    let (topology, map) = match scenario.topology.try_resolve(&mut channel) {
        Ok(out) => out,
        Err(e) => panic!("sweep cell {id} has a malformed topology: {e}"),
    };
    let routed =
        match evm_core::runtime::route_flows(&topology, &evm_core::runtime::synth_flows(&map)) {
            Ok(routed) => routed,
            Err(e) => panic!("sweep cell {id} has an unroutable topology: {e}"),
        };
    let flows: Vec<_> = routed.flows.into_iter().map(|(f, _)| f).collect();
    let placed = if scenario.serial_schedule {
        evm_mac::rtlink::SlotSchedule::place_flows_serial(&scenario.rtlink, &flows)
    } else {
        evm_mac::rtlink::SlotSchedule::place_flows(&scenario.rtlink, &topology, &flows)
    };
    let mut schedule = match placed {
        Ok((s, _order)) => s,
        Err(e) => panic!("sweep cell {id} cannot schedule its flows: {e}"),
    };
    // The migration lane reserves its slots after the pipeline at engine
    // setup; mirror that reservation so an overflowing budget fails here
    // with the cell id, not inside a worker.
    if scenario.transfer_slots > 0 {
        for vc in 0..map.n_vcs() {
            let roles = map.vc(vc as evm_core::runtime::VcId);
            let Some(&src) = roles.controllers.first() else {
                continue;
            };
            let mut listeners: Vec<_> = roles
                .head
                .into_iter()
                .chain(roles.controllers.iter().copied())
                .filter(|&n| n != src)
                .collect();
            listeners.sort_unstable();
            listeners.dedup();
            if listeners.is_empty() {
                continue;
            }
            if let Err(e) =
                schedule.reserve_transfer_slots(src, &listeners, scenario.transfer_slots)
            {
                panic!("sweep cell {id} cannot reserve its transfer slots: {e}");
            }
        }
    }
}

/// Materializes one cell's topology for the given layout family. Line
/// and grid layouts host a single VC; pairing them with a multi-VC axis
/// value is a grid-definition error surfaced with the cell id.
fn build_topology(
    id: usize,
    layout: Layout,
    vcs: usize,
    s: StarShape,
    radius_m: f64,
    backup_relays: usize,
) -> TopologySpec {
    match layout {
        Layout::Star => {
            assert!(
                backup_relays == 0,
                "sweep cell {id}: backup relays apply to line/clustered layouts"
            );
            TopologySpec::multi_star(vcs, s.sensors, s.controllers, s.actuators, s.head, radius_m)
        }
        Layout::Line { hops } => {
            assert!(
                vcs == 1,
                "sweep cell {id}: line layouts host a single VC, got {vcs}"
            );
            TopologySpec::line_with_backups(
                hops,
                s.sensors,
                s.controllers,
                s.actuators,
                s.head,
                LINE_SPACING_M,
                backup_relays,
            )
        }
        Layout::Grid { w, h } => {
            assert!(
                vcs == 1,
                "sweep cell {id}: grid layouts host a single VC, got {vcs}"
            );
            assert!(
                backup_relays == 0,
                "sweep cell {id}: backup relays apply to line/clustered layouts"
            );
            TopologySpec::grid(
                w,
                h,
                s.sensors,
                s.controllers,
                s.actuators,
                s.head,
                GRID_SPACING_M,
            )
        }
        Layout::Clustered => TopologySpec::clustered_with_backups(
            vcs,
            s.sensors,
            s.controllers,
            s.actuators,
            s.head,
            CLUSTER_HOP_M,
            CLUSTER_RING_M,
            backup_relays,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .over_burst(&[BurstSpec::industrial()])
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
        assert_eq!(cells[0].config.burst, None);
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
        // Burst processes differing in any parameter stay distinct too.
        let a = BurstSpec::industrial();
        let b = BurstSpec {
            loss_good: 0.3,
            ..BurstSpec::industrial()
        };
        let cells = SweepGrid::new(short_template())
            .over_burst(&[a, b])
            .expand();
        assert_ne!(cells[0].config.key(), cells[1].config.key());
    }

    #[test]
    #[should_panic(expected = "loss out of [0,1]")]
    fn bad_loss_axis_rejected() {
        let _ = SweepGrid::new(short_template()).over_loss(&[1.5]);
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
    #[should_panic(expected = "vc count out of range")]
    fn bad_vcs_axis_rejected() {
        let _ = SweepGrid::new(short_template()).over_vcs(&[0]);
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

    /// The `over_reroute` axis rewrites the policy knob per cell; static
    /// cells keep their historical keys while heartbeat cells grow a
    /// suffix, so pre-existing star-grid goldens never move.
    #[test]
    fn reroute_axis_rewrites_policy_and_suffixes_keys() {
        let cells = SweepGrid::new(short_template())
            .over_reroute(&[ReroutePolicy::Static, ReroutePolicy::Heartbeat])
            .seeds_per_cell(2)
            .expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].scenario.reroute, ReroutePolicy::Static);
        assert_eq!(cells[2].scenario.reroute, ReroutePolicy::Heartbeat);
        assert!(!cells[0].config.key().contains("static"));
        assert!(cells[2].config.key().ends_with("|heartbeat"));
        // Replicates pool within a policy, never across.
        assert_eq!(cells[0].config.key(), cells[1].config.key());
        assert_ne!(cells[1].config.key(), cells[2].config.key());
    }

    /// The `over_tier` axis rewrites the VM tier knob per cell; interp
    /// cells (the default) keep their historical keys while compiled
    /// cells grow a suffix, so tier sweeps never move pre-existing
    /// goldens.
    #[test]
    fn tier_axis_rewrites_vm_tier_and_suffixes_keys() {
        let cells = SweepGrid::new(short_template())
            .over_tier(&[Tier::Interp, Tier::Compiled])
            .seeds_per_cell(2)
            .expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].scenario.tier, Tier::Interp);
        assert_eq!(cells[2].scenario.tier, Tier::Compiled);
        assert!(!cells[0].config.key().contains("interp"));
        assert!(cells[2].config.key().ends_with("|compiled"));
        // Replicates pool within a tier, never across.
        assert_eq!(cells[0].config.key(), cells[1].config.key());
        assert_ne!(cells[1].config.key(), cells[2].config.key());
        // Without the axis, cells inherit the template tier (interp).
        let bare = SweepGrid::new(short_template()).expand();
        assert_eq!(bare[0].config.tier, Tier::Interp);
    }

    /// The migration axes rewrite the capsule-pad and transfer-slot
    /// knobs per cell; disabled cells (pad 0, budget 0 — the historical
    /// defaults) keep their keys, so migration sweeps never move
    /// pre-existing goldens.
    #[test]
    fn migration_axes_rewrite_knobs_and_suffix_keys() {
        let cells = SweepGrid::new(short_template())
            .over_capsule_size(&[0, 256])
            .over_transfer_slots(&[0, 2])
            .seeds_per_cell(2)
            .expand();
        assert_eq!(cells.len(), 8);
        // Axis order: capsule size is outer, transfer slots inner.
        assert_eq!(cells[0].scenario.capsule_pad_bytes, 0);
        assert_eq!(cells[0].scenario.transfer_slots, 0);
        assert_eq!(cells[2].scenario.transfer_slots, 2);
        assert_eq!(cells[4].scenario.capsule_pad_bytes, 256);
        // Defaults keep the historical key; off-default cells grow
        // |cap{n} / |xfer{n} suffixes.
        assert!(!cells[0].config.key().contains("cap"));
        assert!(!cells[0].config.key().contains("xfer"));
        assert!(cells[2].config.key().ends_with("|xfer2"));
        assert!(cells[4].config.key().ends_with("|cap256"));
        assert!(cells[6].config.key().ends_with("|cap256|xfer2"));
        // Replicates pool within a config point, never across.
        assert_eq!(cells[0].config.key(), cells[1].config.key());
        assert_ne!(cells[1].config.key(), cells[2].config.key());
        // Without the axes, cells inherit the (disabled) template knobs.
        let bare = SweepGrid::new(short_template()).expand();
        assert_eq!(bare[0].config.capsule_pad, 0);
        assert_eq!(bare[0].config.transfer_slots, 0);
    }

    /// A transfer budget that cannot fit after the pipeline fails at
    /// expansion with the cell id, mirroring engine setup.
    #[test]
    #[should_panic(expected = "sweep cell 0 cannot reserve its transfer slots")]
    fn overflowing_transfer_budget_rejected_at_expansion() {
        let _ = SweepGrid::new(short_template())
            .over_transfer_slots(&[500])
            .expand();
    }

    /// Rebuilt multi-hop cells keep their redundancy when the grid asks
    /// for it: `backup_relays` threads through the topology axis, so a
    /// reroute sweep over rebuilt line cells still has a chain to fall
    /// back to.
    #[test]
    fn backup_relays_thread_through_topology_rebuilds() {
        let cells = SweepGrid::new(short_template())
            .over_topology(&[Layout::Line { hops: 2 }])
            .over_stars(&[StarShape {
                sensors: 1,
                controllers: 2,
                actuators: 1,
                head: true,
            }])
            .backup_relays(1)
            .expand();
        assert!(cells[0]
            .scenario
            .topology
            .nodes
            .iter()
            .any(|n| n.label == "RB1"));
        // Without the knob, rebuilt cells have no backup chain.
        let bare = SweepGrid::new(short_template())
            .over_topology(&[Layout::Line { hops: 2 }])
            .over_stars(&[StarShape {
                sensors: 1,
                controllers: 2,
                actuators: 1,
                head: true,
            }])
            .expand();
        assert!(!bare[0]
            .scenario
            .topology
            .nodes
            .iter()
            .any(|n| n.label.starts_with("RB")));
    }

    /// `backup_relays` without a rebuild axis would be silently dropped —
    /// rejected at expansion instead.
    #[test]
    #[should_panic(expected = "backup_relays needs a topology-rebuilding axis")]
    fn backup_relays_without_rebuild_axis_rejected() {
        let _ = SweepGrid::new(short_template()).backup_relays(1).expand();
    }

    /// A malformed template fails at grid definition with the cell id,
    /// not hours later inside a worker thread.
    #[test]
    #[should_panic(expected = "sweep cell 0 has a malformed topology")]
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
    #[should_panic(expected = "sweep cell 0 has an unroutable topology")]
    fn expand_rejects_unroutable_template() {
        let mut template = short_template();
        // Strand the focus sensor far out of everyone's radio range.
        template.topology.nodes[1].position = evm_netsim::Position::new(5000.0, 0.0);
        let _ = SweepGrid::new(template).expand();
    }

    /// ...and so is schedulability: a pipeline that cannot fit the
    /// configured RT-Link cycle fails at expansion.
    #[test]
    #[should_panic(expected = "sweep cell 0 cannot schedule its flows")]
    fn expand_rejects_unschedulable_template() {
        let mut template = short_template();
        template.rtlink.slots_per_cycle = 4; // 3 data slots for 8 flows
        let _ = SweepGrid::new(template).expand();
    }
}
