//! Run results and QoS metrics.
//!
//! A [`RunResult`] keeps its per-node and per-series data dense, in the
//! order the run made it, next to names it shares with its deployment:
//! a [`SeriesSet`] of time series named by `Arc<str>`s, and a
//! [`NodeEnergies`] table of closed-out radio meters beside the
//! deployment's node labels. Closing a run moves these tables; nothing
//! is hashed, copied or derived per node until a caller reads it.

use std::sync::Arc;

use evm_netsim::{Battery, EnergyMeter, NodeId};
use evm_sim::{SimDuration, SimTime, TimeSeries, Trace};

/// One completed live capsule migration: what moved, where, and what it
/// cost on the air. `latency` is the shipment clock — transfer start
/// (a head re-election, or a head's decision to promote a cold-standby
/// backup) to attested activation on the receiving host — i.e. the
/// measured Fig. 6b failover-latency contribution, a function of image
/// size × transfer-slot budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The migrating Virtual Component.
    pub vc: u16,
    /// Shipping node (the VC's primary replica).
    pub from: NodeId,
    /// Receiving node: the newly elected head, or the cold-standby
    /// backup being promoted.
    pub to: NodeId,
    /// Serialized image size, bytes (code + vars + metadata + padding).
    pub image_bytes: usize,
    /// Fragments the image split into.
    pub frames: usize,
    /// Frames actually put on the air, retransmissions included.
    pub frames_sent: usize,
    /// Retransmissions among those.
    pub retries: usize,
    /// Transfer start → attested activation (for a cold-standby
    /// promotion, the failover commits at that same instant).
    pub latency: SimDuration,
}

/// Per-node radio energy summary for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEnergy {
    /// Average current over the run, mA.
    pub avg_current_ma: f64,
    /// Radio duty cycle (TX + RX + listen fraction of the run).
    pub radio_duty: f64,
    /// Projected lifetime on 2×AA at this average current, years.
    pub lifetime_years: f64,
}

impl NodeEnergy {
    /// The summary of a closed-out meter (one that accounts the whole
    /// run).
    fn of(meter: &EnergyMeter) -> Self {
        let avg = meter.average_current_ma();
        NodeEnergy {
            avg_current_ma: avg,
            radio_duty: meter.radio_duty_cycle(),
            lifetime_years: Battery::two_aa().lifetime_years_at(avg.max(1e-9)),
        }
    }
}

/// Remaining fraction of a node's 2×AA battery, in `[0, 1]`, after the
/// charge `meter` has accounted: what master arbitration and head
/// election rank candidates by, and what a capsule's `ReadBattery`
/// reads.
#[must_use]
pub fn battery_fraction(meter: &EnergyMeter) -> f64 {
    (1.0 - meter.consumed_mah() / Battery::two_aa().capacity_mah()).max(0.0)
}

/// Every node's radio energy of one run, in deployment order: the
/// deployment's label table (shared, not copied) beside each node's
/// closed-out meter. A [`NodeEnergy`] is derived when it is read.
///
/// Lookups by label scan the table. [`NodeEnergies::iter`] walks
/// deployment order; [`NodeEnergies::by_label`] sorts, for callers whose
/// output depends on label order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeEnergies {
    labels: Arc<[String]>,
    meters: Vec<EnergyMeter>,
}

impl NodeEnergies {
    /// Pairs a label table with one meter per label, in the same order.
    /// Each meter must account the whole run.
    ///
    /// # Panics
    ///
    /// Panics if the two differ in length.
    #[must_use]
    pub fn new(labels: Arc<[String]>, meters: Vec<EnergyMeter>) -> Self {
        assert_eq!(labels.len(), meters.len(), "one meter per label");
        NodeEnergies { labels, meters }
    }

    /// Number of metered nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.meters.len()
    }

    /// `true` for a result without energy accounting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meters.is_empty()
    }

    /// The node labels, in deployment order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The energy summary of the node labelled `label`.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<NodeEnergy> {
        let ix = self.labels.iter().position(|l| l == label)?;
        Some(NodeEnergy::of(&self.meters[ix]))
    }

    /// `(label, energy)` per node, in deployment order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, NodeEnergy)> + '_ {
        self.labels
            .iter()
            .zip(&self.meters)
            .map(|(l, m)| (l.as_str(), NodeEnergy::of(m)))
    }

    /// `(label, energy)` per node, in label order.
    #[must_use]
    pub fn by_label(&self) -> Vec<(&str, NodeEnergy)> {
        let mut order: Vec<usize> = (0..self.labels.len()).collect();
        order.sort_unstable_by(|&a, &b| self.labels[a].cmp(&self.labels[b]));
        order
            .into_iter()
            .map(|ix| (self.labels[ix].as_str(), NodeEnergy::of(&self.meters[ix])))
            .collect()
    }
}

/// A run's sampled series, in the order the run made them: the sampled
/// plant tags first, then one `Mode.<label>` trace per controller
/// replica, then one `Err.<loop>` trace per VC. Each name is an
/// `Arc<str>` shared with the deployment, and no two series share one
/// (the setup check refuses a deployment whose names would collide).
///
/// Lookups by name scan; the sampled tags come first, so theirs are
/// short.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSet {
    series: Vec<TimeSeries>,
}

impl SeriesSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        SeriesSet::default()
    }

    /// A set of series whose names are distinct (the run's, checked at
    /// setup).
    pub(crate) fn from_distinct(series: Vec<TimeSeries>) -> Self {
        SeriesSet { series }
    }

    /// Appends a series.
    ///
    /// # Panics
    ///
    /// Panics if the set already holds a series of that name.
    pub fn push(&mut self, series: TimeSeries) {
        assert!(
            self.get(series.name()).is_none(),
            "series {} is already in the set",
            series.name()
        );
        self.series.push(series);
    }

    /// The series named `name`, if the run kept one.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// Number of series.
    #[must_use]
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` if the set holds no series.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The series in set order.
    pub fn iter(&self) -> std::slice::Iter<'_, TimeSeries> {
        self.series.iter()
    }

    /// The series in set order, for the run that fills them.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [TimeSeries] {
        &mut self.series
    }
}

/// Identifying metadata of the run that produced a [`RunResult`] — the
/// cell bookkeeping a batch sweep needs to label, compare and merge
/// results without holding onto the full [`crate::runtime::Scenario`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The scenario's RNG seed.
    pub seed: u64,
    /// Simulated horizon.
    pub duration: SimDuration,
    /// Number of nodes in the deployment.
    pub nodes: usize,
    /// Number of controller replicas across all VCs (1 + backups each).
    pub controllers: usize,
    /// Number of Virtual Components hosted on the shared cycle.
    pub vcs: usize,
}

impl RunMeta {
    /// A placeholder for hand-built results (tests, fixtures).
    #[must_use]
    pub fn unspecified() -> Self {
        RunMeta {
            seed: 0,
            duration: SimDuration::ZERO,
            nodes: 0,
            controllers: 0,
            vcs: 0,
        }
    }
}

/// Per-Virtual-Component QoS tallies of one run (index = `VcId`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VcRunStats {
    /// The hosted loop's name (e.g. `"LC-LTS"`).
    pub loop_name: String,
    /// Actuations this VC delivered to the plant.
    pub actuations: usize,
    /// This VC's control-cycle deadline misses.
    pub deadline_misses: usize,
    /// This VC's end-to-end sensor→actuator latencies.
    pub e2e_latencies: Vec<SimDuration>,
}

impl VcRunStats {
    /// Fraction of this VC's actuations that met the cycle deadline; 1.0
    /// when the VC never actuated (see [`RunResult::deadline_hit_ratio`]).
    #[must_use]
    pub fn deadline_hit_ratio(&self) -> f64 {
        hit_ratio(self.actuations, self.deadline_misses)
    }

    /// Nearest-rank quantile of this VC's end-to-end latencies.
    #[must_use]
    pub fn e2e_quantile(&self, q: f64) -> Option<SimDuration> {
        let mut v = self.e2e_latencies.clone();
        v.sort_unstable();
        quantile_sorted(&v, q)
    }
}

/// The deadline hit ratio of `actuations` with `misses` among them: 1.0
/// when nothing actuated, since nothing missed a deadline.
fn hit_ratio(actuations: usize, misses: usize) -> f64 {
    if actuations == 0 {
        return 1.0;
    }
    1.0 - misses as f64 / actuations as f64
}

/// Nearest-rank quantile of an ascending-sorted sample — the one
/// convention every latency quantile in this crate (and the sweep
/// reports built on it) uses.
fn quantile_sorted(v: &[SimDuration], q: f64) -> Option<SimDuration> {
    if v.is_empty() {
        return None;
    }
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    Some(v[idx])
}

/// Linear merge of `src` (ascending) into `dst` (ascending) — O(n + m),
/// versus re-sorting the concatenation.
fn merge_sorted(dst: &mut Vec<SimDuration>, src: &[SimDuration]) {
    debug_assert!(dst.is_sorted() && src.is_sorted());
    let mut out = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        if dst[i] <= src[j] {
            out.push(dst[i]);
            i += 1;
        } else {
            out.push(src[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&dst[i..]);
    out.extend_from_slice(&src[j..]);
    *dst = out;
}

/// Everything a co-simulation run produces: time series for the plotted
/// tags, the event trace, and derived QoS metrics.
///
/// Two results compare equal ([`PartialEq`]) exactly when every sampled
/// series, every trace entry and every derived metric agree — the
/// property the cross-thread reproducibility suite pins down.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Which run produced this result (cell metadata for sweeps).
    pub meta: RunMeta,
    /// Every series the run sampled: plant tags (the Fig. 6b series
    /// among them), controller modes and regulation errors. Look one up
    /// with [`RunResult::series`].
    pub series: SeriesSet,
    /// The structured event log.
    pub trace: Trace,
    /// End-to-end sensor→actuator latencies observed (per actuation).
    pub e2e_latencies: Vec<SimDuration>,
    /// Control-cycle deadline misses (actuation later than the cycle).
    pub deadline_misses: usize,
    /// Total actuations delivered.
    pub actuations: usize,
    /// Radio energy accounting per node, by label (e.g. `"Ctrl-A"`).
    pub node_energy: NodeEnergies,
    /// Per-VC QoS tallies, indexed by `VcId` (one entry per hosted VC;
    /// the global counters above are their sums).
    pub vc_stats: Vec<VcRunStats>,
    /// Configuration epochs committed during the run (0 = the static
    /// setup-time program ran unchanged).
    pub epochs: u64,
    /// Detection-to-recovery interval of the first runtime reconfiguration:
    /// from the first node marked down to the first actuation delivered
    /// after the recomputed epoch was committed. `None` when nothing was
    /// marked down (or delivery never resumed).
    pub reroute_latency: Option<SimDuration>,
    /// Live capsule migrations completed during the run, in completion
    /// order: capsules shipped to a re-elected head or to a promoted
    /// cold-standby backup (empty unless the scenario reserved transfer
    /// slots and one of the two happened).
    pub migrations: Vec<MigrationRecord>,
}

impl RunResult {
    /// A series by name.
    ///
    /// # Panics
    ///
    /// Panics if the tag was not sampled — the scenario must list it.
    #[must_use]
    pub fn series(&self, tag: &str) -> &TimeSeries {
        self.series
            .get(tag)
            .unwrap_or_else(|| panic!("tag {tag} was not sampled"))
    }

    /// Time of the first trace entry containing `needle`.
    #[must_use]
    pub fn event_time(&self, needle: &str) -> Option<SimTime> {
        self.trace.time_of(needle)
    }

    /// Nearest-rank quantile of the end-to-end latency distribution.
    #[must_use]
    pub fn e2e_quantile(&self, q: f64) -> Option<SimDuration> {
        let mut v = self.e2e_latencies.clone();
        v.sort_unstable();
        quantile_sorted(&v, q)
    }

    /// Fraction of actuations that met the cycle deadline.
    ///
    /// A run with no actuations reads 1.0: nothing missed its deadline
    /// because nothing arrived. A claim made on this ratio therefore needs
    /// an actuation floor beside it, or it holds for a loop that never
    /// closed.
    #[must_use]
    pub fn deadline_hit_ratio(&self) -> f64 {
        hit_ratio(self.actuations, self.deadline_misses)
    }

    /// Integral squared error of a tag against a reference over a window —
    /// the control-cost metric of experiment E14.
    #[must_use]
    pub fn control_cost(&self, tag: &str, reference: f64, from: SimTime, to: SimTime) -> f64 {
        self.series(tag)
            .window(from, to)
            .integral_squared_error(reference)
    }

    /// Mean radio current across nodes, summed in label order (so its
    /// bits do not depend on the deployment's node order), mA. `None` for
    /// results without energy accounting.
    #[must_use]
    pub fn mean_node_current_ma(&self) -> Option<f64> {
        if self.node_energy.is_empty() {
            return None;
        }
        let nodes = self.node_energy.by_label();
        let sum: f64 = nodes.iter().map(|(_, e)| e.avg_current_ma).sum();
        Some(sum / nodes.len() as f64)
    }

    /// Header matching [`RunResult::csv_row`] (serde-free CSV dumps for
    /// tests and sweep reports).
    #[must_use]
    pub fn csv_header() -> &'static str {
        "seed,nodes,controllers,vcs,actuations,deadline_misses,hit_ratio,e2e_p50_ms,e2e_p99_ms,mean_current_ma"
    }

    /// One fixed-precision CSV row of the derived metrics. Deterministic:
    /// the same result always renders the same bytes.
    #[must_use]
    pub fn csv_row(&self) -> String {
        let q = |p: f64| {
            self.e2e_quantile(p).map_or_else(
                || "nan".to_string(),
                |d| format!("{:.3}", d.as_secs_f64() * 1e3),
            )
        };
        format!(
            "{},{},{},{},{},{},{:.6},{},{},{}",
            self.meta.seed,
            self.meta.nodes,
            self.meta.controllers,
            self.meta.vcs,
            self.actuations,
            self.deadline_misses,
            self.deadline_hit_ratio(),
            q(0.5),
            q(0.99),
            self.mean_node_current_ma()
                .map_or_else(|| "nan".to_string(), |c| format!("{c:.4}")),
        )
    }
}

/// An order-independent, mergeable aggregate over many [`RunResult`]s.
///
/// Counts add; pooled latencies are kept as a multiset and sorted before
/// every quantile query — so `merge(a, b) == merge(b, a)` and absorbing
/// results in any order produces the same aggregate. This is what lets a
/// multi-threaded sweep reduce per-cell results without caring which
/// worker finished first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunAggregate {
    /// Number of runs absorbed.
    pub runs: usize,
    /// Total actuations across runs.
    pub actuations: usize,
    /// Total deadline misses across runs.
    pub deadline_misses: usize,
    /// Pooled end-to-end latencies (kept sorted).
    pub e2e_pooled: Vec<SimDuration>,
}

impl RunAggregate {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        RunAggregate::default()
    }

    /// Folds one run into the aggregate.
    pub fn absorb(&mut self, r: &RunResult) {
        self.runs += 1;
        self.actuations += r.actuations;
        self.deadline_misses += r.deadline_misses;
        let mut incoming = r.e2e_latencies.clone();
        incoming.sort_unstable();
        merge_sorted(&mut self.e2e_pooled, &incoming);
    }

    /// Merges two aggregates; commutative and associative.
    #[must_use]
    pub fn merge(mut self, other: RunAggregate) -> RunAggregate {
        self.runs += other.runs;
        self.actuations += other.actuations;
        self.deadline_misses += other.deadline_misses;
        merge_sorted(&mut self.e2e_pooled, &other.e2e_pooled);
        self
    }

    /// Pooled deadline hit ratio; 1.0 when no pooled run actuated (see
    /// [`RunResult::deadline_hit_ratio`]).
    #[must_use]
    pub fn deadline_hit_ratio(&self) -> f64 {
        hit_ratio(self.actuations, self.deadline_misses)
    }

    /// Nearest-rank quantile of the pooled end-to-end latencies.
    #[must_use]
    pub fn e2e_quantile(&self, q: f64) -> Option<SimDuration> {
        quantile_sorted(&self.e2e_pooled, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use evm_netsim::{RadioPowerModel, RadioState};

    fn result() -> RunResult {
        let mut series = SeriesSet::new();
        let mut s = TimeSeries::new("LTS.LiquidPct");
        for i in 0..10 {
            s.push(SimTime::from_secs(i), 50.0 + i as f64);
        }
        series.push(s);
        let mut trace = Trace::new();
        trace.log(SimTime::from_secs(300), "fault", "inject stuck-75");
        trace.log(SimTime::from_secs(600), "vc", "promote n3");
        RunResult {
            meta: RunMeta {
                seed: 9,
                duration: SimDuration::from_secs(10),
                nodes: 7,
                controllers: 2,
                vcs: 1,
            },
            series,
            trace,
            e2e_latencies: vec![
                SimDuration::from_millis(60),
                SimDuration::from_millis(70),
                SimDuration::from_millis(65),
                SimDuration::from_millis(90),
            ],
            deadline_misses: 1,
            actuations: 4,
            node_energy: NodeEnergies::default(),
            epochs: 0,
            reroute_latency: None,
            migrations: Vec::new(),
            vc_stats: vec![VcRunStats {
                loop_name: "LC-LTS".into(),
                actuations: 4,
                deadline_misses: 1,
                e2e_latencies: vec![
                    SimDuration::from_millis(60),
                    SimDuration::from_millis(70),
                    SimDuration::from_millis(65),
                    SimDuration::from_millis(90),
                ],
            }],
        }
    }

    #[test]
    fn event_lookup() {
        let r = result();
        assert_eq!(r.event_time("promote"), Some(SimTime::from_secs(600)));
        assert_eq!(r.event_time("nothing"), None);
    }

    #[test]
    fn latency_quantiles() {
        let r = result();
        assert_eq!(r.e2e_quantile(0.0), Some(SimDuration::from_millis(60)));
        assert_eq!(r.e2e_quantile(1.0), Some(SimDuration::from_millis(90)));
    }

    #[test]
    fn hit_ratio() {
        let r = result();
        assert!((r.deadline_hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn control_cost_windows() {
        let r = result();
        let full = r.control_cost("LTS.LiquidPct", 50.0, SimTime::ZERO, SimTime::from_secs(10));
        let early = r.control_cost("LTS.LiquidPct", 50.0, SimTime::ZERO, SimTime::from_secs(3));
        assert!(full > early);
    }

    #[test]
    #[should_panic(expected = "was not sampled")]
    fn missing_tag_panics() {
        let _ = result().series("nope");
    }

    #[test]
    fn results_compare_equal_only_when_identical() {
        let a = result();
        let b = result();
        assert_eq!(a, b);
        let mut c = result();
        c.actuations += 1;
        assert_ne!(a, c);
        let mut d = result();
        d.trace.log(SimTime::from_secs(700), "vc", "extra entry");
        assert_ne!(a, d);
    }

    #[test]
    fn csv_row_is_deterministic_and_matches_header() {
        let r = result();
        let row = r.csv_row();
        assert_eq!(row, r.clone().csv_row());
        assert_eq!(
            row.split(',').count(),
            RunResult::csv_header().split(',').count()
        );
        assert!(row.starts_with("9,7,2,1,4,1,0.750000,"));
    }

    #[test]
    fn aggregate_merge_is_order_independent() {
        let r1 = result();
        let mut r2 = result();
        r2.e2e_latencies = vec![SimDuration::from_millis(10), SimDuration::from_millis(200)];
        r2.actuations = 2;
        r2.deadline_misses = 0;

        let mut ab = RunAggregate::new();
        ab.absorb(&r1);
        ab.absorb(&r2);
        let mut ba = RunAggregate::new();
        ba.absorb(&r2);
        ba.absorb(&r1);
        assert_eq!(ab, ba);

        let mut a = RunAggregate::new();
        a.absorb(&r1);
        let mut b = RunAggregate::new();
        b.absorb(&r2);
        assert_eq!(a.clone().merge(b.clone()), b.merge(a));

        assert_eq!(ab.runs, 2);
        assert_eq!(ab.actuations, 6);
        assert_eq!(ab.e2e_quantile(0.0), Some(SimDuration::from_millis(10)));
        assert_eq!(ab.e2e_quantile(1.0), Some(SimDuration::from_millis(200)));
        assert!((ab.deadline_hit_ratio() - 5.0 / 6.0).abs() < 1e-12);
    }

    /// A meter that spent `tx_h` hours transmitting and the rest of a
    /// 10-hour run asleep.
    fn meter(tx_h: u64) -> EnergyMeter {
        let mut m = EnergyMeter::new(RadioPowerModel::cc2420());
        m.add(RadioState::Tx, SimDuration::from_secs(tx_h * 3600));
        m.add(
            RadioState::Sleep,
            SimDuration::from_secs((10 - tx_h) * 3600),
        );
        m
    }

    fn energies() -> NodeEnergies {
        let labels: Arc<[String]> = ["b", "a", "c"].map(String::from).into();
        NodeEnergies::new(labels, vec![meter(2), meter(1), meter(6)])
    }

    #[test]
    fn mean_current_uses_label_order() {
        let mut r = result();
        assert_eq!(r.mean_node_current_ma(), None);
        r.node_energy = energies();
        let ma = |tx_h: u64| meter(tx_h).average_current_ma();
        let in_label_order = (ma(1) + ma(2)) + ma(6);
        assert_eq!(
            r.mean_node_current_ma().unwrap().to_bits(),
            (in_label_order / 3.0).to_bits()
        );
    }

    #[test]
    fn node_energies_derive_on_read() {
        let e = energies();
        assert_eq!(e.len(), 3);
        assert_eq!(e.get("nope"), None);
        let a = e.get("a").expect("metered");
        let m = meter(1);
        assert_eq!(a.avg_current_ma.to_bits(), m.average_current_ma().to_bits());
        assert_eq!(a.radio_duty, 0.1);
        let order: Vec<&str> = e.iter().map(|(l, _)| l).collect();
        assert_eq!(order, ["b", "a", "c"]);
        let sorted: Vec<&str> = e.by_label().into_iter().map(|(l, _)| l).collect();
        assert_eq!(sorted, ["a", "b", "c"]);
        assert_eq!(e.by_label()[0].1, a);
    }

    #[test]
    fn series_set_keeps_one_series_per_name() {
        let r = result();
        assert_eq!(r.series.len(), 1);
        assert!(r.series.get("LTS.LiquidPct").is_some());
        assert!(r.series.get("nope").is_none());
        let caught = std::panic::catch_unwind(|| {
            let mut set = result().series;
            set.push(TimeSeries::new("LTS.LiquidPct"));
        });
        assert!(caught.is_err(), "a second series of one name is refused");
    }

    #[test]
    fn battery_fraction_drains_with_the_meter() {
        let mut m = EnergyMeter::new(RadioPowerModel::cc2420());
        assert_eq!(battery_fraction(&m), 1.0);
        // 2500 mAh at 17.4 mA: about 144 h of transmitting drains it.
        m.add(RadioState::Tx, SimDuration::from_secs(72 * 3600));
        let half = battery_fraction(&m);
        assert!(half > 0.49 && half < 0.51, "{half}");
        m.add(RadioState::Tx, SimDuration::from_secs(100 * 3600));
        assert_eq!(battery_fraction(&m), 0.0);
    }
}
