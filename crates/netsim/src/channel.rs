//! Radio channel: path loss, SNR → packet error rate, and per-link burst
//! loss.
//!
//! The propagation model is the standard log-distance model with optional
//! log-normal shadowing; bit errors follow the IEEE 802.15.4 O-QPSK DSSS
//! BER curve (the same closed form used by ns-2 and Castalia), and packet
//! error rate follows from frame length. On top of that, each directed link
//! runs a [`GilbertElliott`] process so that losses exhibit realistic
//! bursts.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use evm_sim::SimRng;

use crate::frame::Frame;
use crate::gilbert::GilbertElliott;
use crate::node::NodeId;

/// Channel and radio parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Transmit power in dBm (CC2420 maximum is 0 dBm).
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance of 1 m, in dB.
    pub path_loss_ref_db: f64,
    /// Path-loss exponent (2 = free space, 2.5–4 indoor/industrial).
    pub path_loss_exp: f64,
    /// Standard deviation of log-normal shadowing, in dB (0 disables).
    pub shadowing_sigma_db: f64,
    /// Noise floor in dBm.
    pub noise_floor_dbm: f64,
    /// Links with expected PER above this are considered disconnected for
    /// topology purposes.
    pub connect_per_threshold: f64,
    /// Default burst-loss process cloned onto each new link.
    pub burst: GilbertElliott,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            tx_power_dbm: 0.0,
            path_loss_ref_db: 40.0,
            path_loss_exp: 3.0,
            shadowing_sigma_db: 0.0,
            noise_floor_dbm: -95.0,
            connect_per_threshold: 0.1,
            burst: GilbertElliott::ideal(),
        }
    }
}

impl ChannelConfig {
    /// `true` if links draw a log-normal shadowing realization from the
    /// channel stream on first use (see [`Channel::is_shadowed`]).
    #[must_use]
    pub fn is_shadowed(&self) -> bool {
        self.shadowing_sigma_db > 0.0
    }

    /// An industrial-plant-like preset: stronger attenuation, mild
    /// shadowing, and bursty links.
    #[must_use]
    pub fn industrial() -> Self {
        ChannelConfig {
            path_loss_exp: 3.3,
            shadowing_sigma_db: 2.0,
            burst: GilbertElliott::new(0.01, 0.2, 0.0, 0.6),
            ..ChannelConfig::default()
        }
    }
}

/// The deterministic per-link half of [`Channel::sample_delivery`],
/// precomputed once per epoch: the bit error rate implied by the link's
/// SNR at its (fixed) distance. [`Channel::sample_delivery_budget`]
/// re-derives the frame-length-dependent PER from it with exactly the
/// arithmetic [`Channel::packet_error_rate`] uses, so a budgeted sample
/// is bit-identical to the unbudgeted one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    ber: f64,
}

/// The deterministic link model at one distance, for an unshadowed
/// channel: the bit error rate and the topology verdict of
/// [`Channel::is_connected`].
#[derive(Debug, Clone, Copy)]
struct LinkModel {
    ber: f64,
    connected: bool,
}

/// An interned handle to one directed link's burst-process state — a
/// dense index resolved once (per epoch, by the cycle-plan compiler)
/// so the delivery hot path reaches the state with an array read
/// instead of hashing the link pair on every sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSlot(u32);

/// The burst-pool slots of one source's outgoing links, sorted by
/// destination. Most nodes transmit to a single destination, so one link
/// is held inline and only fan-out sources (a gateway downlinking to
/// every sensor) allocate.
#[derive(Debug, Clone, Default)]
enum Fanout {
    #[default]
    None,
    One(NodeId, u32),
    Many(Vec<(NodeId, u32)>),
}

impl Fanout {
    /// The pool slot of the link to `dst`, if interned.
    fn find(&self, dst: NodeId) -> Option<u32> {
        match self {
            Fanout::None => None,
            Fanout::One(d, ix) => (*d == dst).then_some(*ix),
            Fanout::Many(links) => links
                .binary_search_by_key(&dst, |&(d, _)| d)
                .ok()
                .map(|i| links[i].1),
        }
    }

    /// The pool slot of the link to `dst`; `fresh` (recorded as that
    /// link's slot) if the link is new.
    fn slot(&mut self, dst: NodeId, fresh: u32) -> u32 {
        match self {
            Fanout::None => {
                *self = Fanout::One(dst, fresh);
                fresh
            }
            Fanout::One(d, ix) if *d == dst => *ix,
            Fanout::One(d, ix) => {
                let mut links = vec![(*d, *ix), (dst, fresh)];
                links.sort_unstable_by_key(|&(d, _)| d);
                *self = Fanout::Many(links);
                fresh
            }
            Fanout::Many(links) => match links.binary_search_by_key(&dst, |&(d, _)| d) {
                Ok(i) => links[i].1,
                Err(i) => {
                    links.insert(i, (dst, fresh));
                    fresh
                }
            },
        }
    }
}

/// The seed-free half of a channel: its configuration, the link-model
/// memo and the burst-pool interning table. Every entry is a pure
/// function of the configuration and of the order links were first
/// used, so channels that restart from one another share it
/// ([`Channel::restart`]) and copy it only when one of them meets a
/// distance or a link it does not hold yet.
#[derive(Debug, Clone)]
struct LinkTable {
    config: ChannelConfig,
    /// Link model per distance (`f64::to_bits`), unshadowed only.
    link_models: BTreeMap<u64, LinkModel>,
    /// Burst-state pool slots of each source's outgoing links, indexed
    /// by the source's raw id.
    burst_index: Vec<Fanout>,
    /// Links interned so far: the burst pool's length.
    interned: u32,
}

/// The shared radio medium.
///
/// Stateless with respect to node positions (those live in the topology);
/// stateful per directed link for shadowing realizations and burst
/// processes, so the same link keeps the same character over a run.
/// Burst states live in a dense pool, created in first-use order and
/// reached through a per-source table indexed by the source's raw id:
/// nothing is hashed. Interning a link ([`Channel::burst_slot`]) draws
/// no RNG and creates the same default state lazy first use would, so
/// eager interning never perturbs a run, and re-interning a link (a plan
/// rebuild) returns its existing state.
///
/// **The link-model memo.** Without shadowing, a link's BER and its
/// [`Channel::is_connected`] verdict are pure functions of distance, so
/// the channel evaluates the model once per distinct distance (keyed on
/// its bit pattern) and answers every later query on any link at that
/// distance from the memo, bit for bit. A shadowed channel never
/// touches the memo, so its RNG draw order is unchanged.
///
/// **Sharing.** The memo and the interning table sit behind an `Arc`:
/// a clone or a [`Channel::restart`] shares them, and the first new
/// entry either channel records copies them for that channel alone.
/// Shadowing realizations, burst states and the stream are per channel.
#[derive(Debug, Clone)]
pub struct Channel {
    links: Arc<LinkTable>,
    /// Frozen shadowing realization per (src, dst) pair.
    shadowing_db: HashMap<(NodeId, NodeId), f64>,
    /// The burst states, dense, in first-use order; reached via the
    /// link table's interning index or an interned [`BurstSlot`].
    burst_states: Vec<GilbertElliott>,
    rng: SimRng,
}

impl Channel {
    /// Creates a channel with its own random stream.
    #[must_use]
    pub fn new(config: ChannelConfig, rng: SimRng) -> Self {
        Channel {
            links: Arc::new(LinkTable {
                config,
                link_models: BTreeMap::new(),
                burst_index: Vec::new(),
                interned: 0,
            }),
            shadowing_db: HashMap::new(),
            burst_states: Vec::new(),
            rng,
        }
    }

    /// A fresh channel over this one's links, drawing from `rng`: the
    /// link-model memo and the interned burst slots are shared, not
    /// copied, and every burst process starts over from the configured
    /// one. The new channel samples exactly as a new channel that had
    /// been asked the same link questions would.
    ///
    /// # Panics
    ///
    /// Panics on a shadowed channel, whose realizations were drawn from
    /// its own stream and cannot be restarted on another.
    #[must_use]
    pub fn restart(&self, rng: SimRng) -> Channel {
        assert!(!self.is_shadowed(), "a shadowed channel cannot restart");
        Channel {
            links: Arc::clone(&self.links),
            shadowing_db: HashMap::new(),
            burst_states: vec![self.links.config.burst.clone(); self.links.interned as usize],
            rng,
        }
    }

    /// This channel's link tables without its burst states: a template
    /// that channels [`restart`](Channel::restart) from, holding nothing
    /// a restart rebuilds. The template itself must not sample.
    ///
    /// # Panics
    ///
    /// Panics on a shadowed channel, which cannot restart.
    #[must_use]
    pub fn into_template(self) -> Channel {
        assert!(!self.is_shadowed(), "a shadowed channel cannot restart");
        Channel {
            burst_states: Vec::new(),
            ..self
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ChannelConfig {
        &self.links.config
    }

    /// Received power in dBm at distance `d` meters (deterministic part +
    /// the link's frozen shadowing realization).
    pub fn received_power_dbm(&mut self, link: (NodeId, NodeId), d: f64) -> f64 {
        let sigma = self.links.config.shadowing_sigma_db;
        let shadow = if self.is_shadowed() {
            let rng = &mut self.rng;
            *self
                .shadowing_db
                .entry(link)
                .or_insert_with(|| rng.normal(0.0, sigma))
        } else {
            0.0
        };
        received_dbm(&self.links.config, d, shadow)
    }

    /// `true` if links draw a log-normal shadowing realization from the
    /// channel RNG on first use. Without shadowing a link's PER is a pure
    /// function of distance: both directions agree and no query draws.
    #[must_use]
    pub fn is_shadowed(&self) -> bool {
        self.links.config.is_shadowed()
    }

    /// Signal-to-noise ratio in dB on `link` at distance `d`.
    pub fn snr_db(&mut self, link: (NodeId, NodeId), d: f64) -> f64 {
        self.received_power_dbm(link, d) - self.links.config.noise_floor_dbm
    }

    /// Expected packet error rate for an `air_bytes`-byte frame on `link`
    /// at distance `d` (before burst losses).
    pub fn packet_error_rate(&mut self, link: (NodeId, NodeId), d: f64, air_bytes: usize) -> f64 {
        per_from_ber(oqpsk_ber(self.snr_db(link, d)), air_bytes)
    }

    /// `true` if the link would be considered usable by the topology layer.
    /// Unshadowed, answered from the link-model memo.
    pub fn is_connected(&mut self, link: (NodeId, NodeId), d: f64) -> bool {
        if self.is_shadowed() {
            self.packet_error_rate(link, d, CONNECT_FRAME_BYTES)
                <= self.links.config.connect_per_threshold
        } else {
            self.link_model(d).connected
        }
    }

    /// The memoized unshadowed link model at distance `d`, evaluated on
    /// first sight with exactly the arithmetic of the per-link path.
    fn link_model(&mut self, d: f64) -> LinkModel {
        if let Some(&model) = self.links.link_models.get(&d.to_bits()) {
            return model;
        }
        let links = Arc::make_mut(&mut self.links);
        let config = &links.config;
        let ber = oqpsk_ber(received_dbm(config, d, 0.0) - config.noise_floor_dbm);
        let model = LinkModel {
            ber,
            connected: per_from_ber(ber, CONNECT_FRAME_BYTES) <= config.connect_per_threshold,
        };
        links.link_models.insert(d.to_bits(), model);
        model
    }

    /// Samples whether a concrete transmission of `frame` from its source to
    /// `dst` (at distance `d`) is received.
    ///
    /// Combines the SNR-based PER with the link's burst process.
    pub fn sample_delivery(&mut self, frame: &Frame, dst: NodeId, d: f64) -> bool {
        let link = (frame.src, dst);
        let per = self.packet_error_rate(link, d, frame.air_bytes());
        if self.rng.chance(per) {
            return false;
        }
        let ix = self.burst_ix(link);
        !self.burst_states[ix].sample_loss(&mut self.rng)
    }

    /// The pool slot of `link`'s burst state, interning it (with the
    /// config's default process) on first sight. Creation draws no RNG,
    /// so interning early is indistinguishable from lazy first use.
    fn burst_ix(&mut self, (src, dst): (NodeId, NodeId)) -> usize {
        let known = self.links.burst_index.get(src.index());
        if let Some(ix) = known.and_then(|f| f.find(dst)) {
            return ix as usize;
        }
        let links = Arc::make_mut(&mut self.links);
        if src.index() >= links.burst_index.len() {
            links
                .burst_index
                .resize_with(src.index() + 1, Fanout::default);
        }
        let fresh = links.interned;
        let ix = links.burst_index[src.index()].slot(dst, fresh);
        debug_assert_eq!(ix, fresh, "a known link was looked up above");
        links.interned = fresh.checked_add(1).expect("burst pool fits u32");
        self.burst_states.push(links.config.burst.clone());
        debug_assert_eq!(
            self.burst_states.len(),
            links.interned as usize,
            "a template channel does not sample"
        );
        ix as usize
    }

    /// Interns `link`'s burst state and returns its dense handle, for
    /// hot paths that sample the same link every cycle
    /// ([`Channel::sample_delivery_budget`]).
    pub fn burst_slot(&mut self, link: (NodeId, NodeId)) -> BurstSlot {
        BurstSlot(u32::try_from(self.burst_ix(link)).expect("burst pool fits u32"))
    }

    /// Precomputes the deterministic half of [`sample_delivery`] for a link
    /// at a fixed distance, from the link-model memo. Unshadowed, the
    /// budget depends on the distance alone, not on which link it is.
    ///
    /// Returns `None` when shadowing is enabled: the shadowing realization
    /// is drawn lazily from the channel RNG on first use of a link, so
    /// resolving it eagerly here would reorder draws relative to the
    /// unbudgeted path. Callers must fall back to [`sample_delivery`] for
    /// those links.
    ///
    /// [`sample_delivery`]: Channel::sample_delivery
    pub fn link_budget(&mut self, _link: (NodeId, NodeId), d: f64) -> Option<LinkBudget> {
        if self.is_shadowed() {
            return None;
        }
        Some(LinkBudget {
            ber: self.link_model(d).ber,
        })
    }

    /// [`sample_delivery`] with the deterministic per-link terms taken from
    /// a precomputed [`LinkBudget`]: only the frame-length-dependent PER is
    /// derived here, then the identical RNG draw sequence runs (PER chance,
    /// then the link's burst process).
    ///
    /// [`sample_delivery`]: Channel::sample_delivery
    pub fn sample_delivery_budget(
        &mut self,
        slot: BurstSlot,
        budget: LinkBudget,
        air_bytes: usize,
    ) -> bool {
        if self.rng.chance(per_from_ber(budget.ber, air_bytes)) {
            return false;
        }
        !self.burst_states[slot.0 as usize].sample_loss(&mut self.rng)
    }

    /// Replaces the burst process of one directed link (used by fault
    /// injection to degrade a specific link mid-run).
    pub fn set_link_burst(&mut self, link: (NodeId, NodeId), process: GilbertElliott) {
        let ix = self.burst_ix(link);
        self.burst_states[ix] = process;
    }
}

/// The frame length [`Channel::is_connected`] judges a link on: a
/// full-size frame, the worst case.
const CONNECT_FRAME_BYTES: usize = crate::frame::MAX_FRAME_BYTES + crate::frame::PHY_HEADER_BYTES;

/// Received power in dBm at distance `d` meters under `config`, plus a
/// link's shadowing realization `shadow_db`.
fn received_dbm(config: &ChannelConfig, d: f64, shadow_db: f64) -> f64 {
    let d = d.max(1.0);
    let pl = config.path_loss_ref_db + 10.0 * config.path_loss_exp * d.log10();
    config.tx_power_dbm - pl + shadow_db
}

/// Packet error rate of an `air_bytes`-byte frame at bit error rate
/// `ber`: `1 - (1 - ber)^bits`.
///
/// A link whose BER rounds away against 1 (exactly 0, as on every short
/// link, or below 2⁻⁵³) has `1 - ber == 1`, whose every power is exactly
/// 1, so its PER is exactly 0 without the power. The lossy case stays a
/// call, so the compiler cannot if-convert the branch into an
/// unconditional power plus a select.
#[inline]
fn per_from_ber(ber: f64, air_bytes: usize) -> f64 {
    let keep = 1.0 - ber;
    if keep == 1.0 {
        0.0
    } else {
        lossy_per(keep, air_bytes)
    }
}

/// `1 - keep^bits` for a frame of `air_bytes` bytes.
#[inline(never)]
fn lossy_per(keep: f64, air_bytes: usize) -> f64 {
    1.0 - keep.powi((air_bytes * 8) as i32)
}

/// BER of IEEE 802.15.4 O-QPSK with DSSS as a function of SNR in dB.
///
/// Closed form from the 802.15.4 standard (also used by ns-2 / Castalia):
///
/// `BER = 8/15 · 1/16 · Σ_{k=2..16} (−1)^k C(16,k) exp(20·SNR·(1/k − 1))`
#[must_use]
pub fn oqpsk_ber(snr_db: f64) -> f64 {
    let snr = 10f64.powf(snr_db / 10.0);
    let mut sum = 0.0;
    for k in 2..=16u32 {
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        sum += sign * BINOMIAL_16[k as usize] * (20.0 * snr * (1.0 / k as f64 - 1.0)).exp();
    }
    ((8.0 / 15.0) * (1.0 / 16.0) * sum).clamp(0.0, 0.5)
}

/// `C(16, k)` for `k = 0..=16`, filled at compile time by [`binomial`]
/// itself, so every entry has the bits the loop produces at run time.
const BINOMIAL_16: [f64; 17] = {
    let mut row = [0.0; 17];
    let mut k = 0;
    while k <= 16 {
        row[k as usize] = binomial(16, k);
        k += 1;
    }
    row
};

const fn binomial(n: u32, k: u32) -> f64 {
    let mut r = 1.0;
    let mut i = 0;
    while i < k {
        r *= (n - i) as f64 / (i + 1) as f64;
        i += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    fn ch() -> Channel {
        Channel::new(ChannelConfig::default(), SimRng::seed_from(7))
    }

    #[test]
    fn ber_is_monotone_decreasing_in_snr() {
        let mut prev = oqpsk_ber(-10.0);
        for snr10 in -95..100 {
            let b = oqpsk_ber(snr10 as f64 / 10.0);
            assert!(b <= prev + 1e-15, "BER not monotone at {snr10}");
            prev = b;
        }
    }

    /// The table-driven BER has the bits of the closed form evaluated
    /// with the binomial loop, across the whole SNR range links see.
    #[test]
    fn ber_table_matches_the_loop_form_bit_for_bit() {
        let loop_form = |snr_db: f64| {
            let snr = 10f64.powf(snr_db / 10.0);
            let mut sum = 0.0;
            for k in 2..=16u32 {
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                sum += sign * binomial(16, k) * (20.0 * snr * (1.0 / k as f64 - 1.0)).exp();
            }
            ((8.0 / 15.0) * (1.0 / 16.0) * sum).clamp(0.0, 0.5)
        };
        for snr100 in -1000..=2000 {
            let snr_db = f64::from(snr100) / 100.0;
            assert_eq!(
                oqpsk_ber(snr_db).to_bits(),
                loop_form(snr_db).to_bits(),
                "BER differs at {snr_db} dB"
            );
        }
    }

    #[test]
    fn ber_extremes() {
        assert!(oqpsk_ber(10.0) < 1e-9, "high SNR should be error-free");
        assert!(oqpsk_ber(-10.0) > 0.1, "low SNR should be lossy");
    }

    #[test]
    fn per_increases_with_distance() {
        let mut c = ch();
        let link = (NodeId(1), NodeId(2));
        let near = c.packet_error_rate(link, 5.0, 50);
        let far = c.packet_error_rate(link, 80.0, 50);
        assert!(near < far, "near {near} far {far}");
    }

    #[test]
    fn per_increases_with_length() {
        let mut c = ch();
        let link = (NodeId(1), NodeId(2));
        let short = c.packet_error_rate(link, 45.0, 20);
        let long = c.packet_error_rate(link, 45.0, 120);
        assert!(short < long, "short {short} long {long}");
    }

    #[test]
    fn close_links_connect_far_links_do_not() {
        let mut c = ch();
        assert!(c.is_connected((NodeId(1), NodeId(2)), 10.0));
        assert!(!c.is_connected((NodeId(1), NodeId(3)), 500.0));
    }

    #[test]
    fn shadowing_is_frozen_per_link() {
        let mut c = Channel::new(
            ChannelConfig {
                shadowing_sigma_db: 6.0,
                ..ChannelConfig::default()
            },
            SimRng::seed_from(9),
        );
        let link = (NodeId(1), NodeId(2));
        let a = c.received_power_dbm(link, 20.0);
        let b = c.received_power_dbm(link, 20.0);
        assert_eq!(a, b, "same link must keep its shadowing realization");
        let other = c.received_power_dbm((NodeId(1), NodeId(3)), 20.0);
        assert_ne!(a, other, "different links get different realizations");
    }

    #[test]
    fn delivery_sampling_respects_ideal_close_link() {
        let mut c = ch();
        let f = Frame::new(NodeId(1), FrameKind::Unicast(NodeId(2)), 8, 0);
        let delivered = (0..1000)
            .filter(|_| c.sample_delivery(&f, NodeId(2), 5.0))
            .count();
        assert_eq!(delivered, 1000, "5 m ideal link should never drop");
    }

    #[test]
    fn degraded_link_drops() {
        let mut c = ch();
        c.set_link_burst((NodeId(1), NodeId(2)), GilbertElliott::bernoulli(1.0));
        let f = Frame::new(NodeId(1), FrameKind::Unicast(NodeId(2)), 8, 0);
        assert!(!c.sample_delivery(&f, NodeId(2), 5.0));
    }

    #[test]
    fn budgeted_delivery_matches_unbudgeted_draw_for_draw() {
        let mut direct = Channel::new(ChannelConfig::default(), SimRng::seed_from(31));
        let mut planned = Channel::new(ChannelConfig::default(), SimRng::seed_from(31));
        let link = (NodeId(1), NodeId(2));
        let budget = planned
            .link_budget(link, 42.0)
            .expect("no shadowing: budget must exist");
        let slot = planned.burst_slot(link);
        let f = Frame::new(NodeId(1), FrameKind::Broadcast, 8, 0);
        for i in 0..500 {
            let a = direct.sample_delivery(&f, NodeId(2), 42.0);
            let b = planned.sample_delivery_budget(slot, budget, f.air_bytes());
            assert_eq!(a, b, "draw {i} diverged");
        }
    }

    /// Burst states are created in first-use order, one per directed
    /// link, and re-interning a link (as every plan rebuild does) returns
    /// its existing state, including a degraded process installed since.
    #[test]
    fn burst_slots_are_stable_per_link_in_first_use_order() {
        let mut c = ch();
        let links = [(3, 1), (0, 5), (0, 2), (1, 3), (0, 9), (0, 4)];
        let slots: Vec<BurstSlot> = links
            .iter()
            .map(|&(a, b)| c.burst_slot((NodeId(a), NodeId(b))))
            .collect();
        assert_eq!(slots, (0..6).map(BurstSlot).collect::<Vec<_>>());
        for (&(a, b), &slot) in links.iter().zip(&slots).rev() {
            assert_eq!(c.burst_slot((NodeId(a), NodeId(b))), slot);
        }
        let link = (NodeId(0), NodeId(2));
        c.set_link_burst(link, GilbertElliott::bernoulli(1.0));
        let budget = c.link_budget(link, 5.0).expect("unshadowed");
        assert_eq!(c.burst_slot(link), slots[2], "degrading reuses the slot");
        assert!(!c.sample_delivery_budget(slots[2], budget, 20));
        assert_eq!(c.burst_slot((NodeId(0), NodeId(7))), BurstSlot(6));
    }

    /// A channel restarted from a template samples draw for draw like a
    /// fresh channel asked the same link questions, keeps the template's
    /// slots, and copies the shared tables only to intern a new link.
    #[test]
    fn restarts_sample_like_fresh_channels() {
        let config = ChannelConfig {
            burst: GilbertElliott::new(0.2, 0.3, 0.0, 0.9),
            ..ChannelConfig::default()
        };
        let links = [(0, 1), (0, 2), (2, 1), (1, 0)];
        let ask = |c: &mut Channel| -> Vec<(BurstSlot, LinkBudget)> {
            links
                .iter()
                .map(|&(a, b)| {
                    let link = (NodeId(a), NodeId(b));
                    (
                        c.burst_slot(link),
                        c.link_budget(link, 40.0).expect("unshadowed"),
                    )
                })
                .collect()
        };
        let mut built = Channel::new(config.clone(), SimRng::seed_from(1));
        let asked = ask(&mut built);
        let template = built.into_template();
        for seed in [3, 4] {
            let mut fresh = Channel::new(config.clone(), SimRng::seed_from(seed));
            assert_eq!(ask(&mut fresh), asked);
            let mut restarted = template.restart(SimRng::seed_from(seed));
            for _ in 0..200 {
                for &(slot, budget) in &asked {
                    assert_eq!(
                        restarted.sample_delivery_budget(slot, budget, 60),
                        fresh.sample_delivery_budget(slot, budget, 60)
                    );
                }
            }
            assert!(Arc::ptr_eq(&restarted.links, &template.links));
            assert_eq!(restarted.burst_slot((NodeId(5), NodeId(6))), BurstSlot(4));
            assert!(!Arc::ptr_eq(&restarted.links, &template.links));
        }
    }

    /// The link-model memo is keyed on distance: queried at distances
    /// that recur after a different one, on links that differ each time,
    /// every budget and connectivity verdict equals a fresh channel's.
    /// Under shadowing every budget is `None`.
    #[test]
    fn memoized_budgets_match_fresh_link_budgets() {
        let distances = [10.0, 42.0, 10.0, 90.0, 42.0, 0.5, 90.0, 1.0, 500.0, 10.0];
        for config in [
            ChannelConfig::default(),
            ChannelConfig {
                shadowing_sigma_db: 4.0,
                ..ChannelConfig::default()
            },
        ] {
            let mut memo = Channel::new(config.clone(), SimRng::seed_from(3));
            for (i, &d) in distances.iter().enumerate() {
                let link = (NodeId(1), NodeId(2 + i as u16));
                let mut fresh = Channel::new(config.clone(), SimRng::seed_from(99));
                let want = fresh.link_budget(link, d);
                assert_eq!(memo.link_budget(link, d), want, "budget at {d} m");
                assert_eq!(want.is_some(), !fresh.is_shadowed());
                if !memo.is_shadowed() {
                    assert_eq!(
                        memo.is_connected(link, d),
                        fresh.is_connected(link, d),
                        "verdict at {d} m"
                    );
                }
            }
        }
    }

    #[test]
    fn shadowed_links_have_no_budget() {
        let mut c = Channel::new(ChannelConfig::industrial(), SimRng::seed_from(5));
        assert!(c.link_budget((NodeId(1), NodeId(2)), 10.0).is_none());
    }

    #[test]
    fn per_in_unit_interval_over_random_links() {
        let mut rng = SimRng::seed_from(0xCAB1E);
        for _ in 0..512 {
            let d = rng.range(1.0, 1000.0);
            let bytes = 1 + rng.index(133);
            let mut c = ch();
            let per = c.packet_error_rate((NodeId(1), NodeId(2)), d, bytes);
            assert!(
                (0.0..=1.0).contains(&per),
                "PER {per} at d={d} bytes={bytes}"
            );
        }
    }

    /// The lossless shortcut of `per_from_ber` has the closed form's
    /// bits: on BERs that vanish against 1, at the edge (2⁻⁵⁴ rounds
    /// away, 2⁻⁵³ does not) and above it, for every frame length the
    /// radio sends.
    #[test]
    fn per_shortcut_is_bit_identical_to_the_closed_form() {
        let bers = [
            0.0,
            1e-300,
            2f64.powi(-54),
            2f64.powi(-53),
            1e-16,
            1e-9,
            1e-3,
        ];
        for ber in bers {
            for bytes in 5..=133usize {
                let closed = 1.0 - (1.0 - ber).powi((bytes * 8) as i32);
                let got = per_from_ber(ber, bytes);
                assert_eq!(got.to_bits(), closed.to_bits(), "BER {ber:e}, {bytes} B");
            }
        }
        assert_eq!(per_from_ber(2f64.powi(-54), 133).to_bits(), 0);
        assert!(per_from_ber(2f64.powi(-53), 5) > 0.0);
    }
}
