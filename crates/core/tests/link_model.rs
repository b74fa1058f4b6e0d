//! The link model on a real deployment: the 8-VC failover star the
//! sweep benchmark runs (49 nodes, 1,176 node pairs at 206 distinct
//! distances). A channel queried over the whole deployment must answer
//! every link exactly as a fresh channel answers it alone, and a
//! shadowed channel must draw its realizations in first-use order.

use evm_core::runtime::{Engine, ReroutePolicy, ScenarioBuilder};
use evm_netsim::{Channel, ChannelConfig, NodeId};
use evm_sim::{SimDuration, SimRng, SimTime};

/// Every ordered node pair of the failover star with its distance, in
/// topology order.
fn failover_star_links() -> Vec<((NodeId, NodeId), f64)> {
    let scenario = ScenarioBuilder::star()
        .vcs(8)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .slots_per_cycle(96)
        .reroute(ReroutePolicy::Heartbeat)
        .transfer_slots(1)
        .capsule_pad_bytes(1024)
        .duration(SimDuration::from_secs(300))
        .crash_vc_primary_at(3, SimTime::from_secs(110))
        .build();
    let engine = Engine::new(scenario);
    let nodes = engine.topology().nodes();
    let mut links = Vec::new();
    for a in nodes {
        for b in nodes {
            if a.id != b.id {
                links.push(((a.id, b.id), a.position.distance_to(&b.position)));
            }
        }
    }
    links
}

#[test]
fn queried_channel_answers_every_link_like_a_fresh_one() {
    let links = failover_star_links();
    let mut distinct: Vec<u64> = links.iter().map(|(_, d)| d.to_bits()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(links.len(), 49 * 48, "both directions of every pair");
    assert_eq!(distinct.len(), 206, "distinct distances of the star");

    let config = ChannelConfig::default();
    let mut queried = Channel::new(config.clone(), SimRng::seed_from(1));
    for &(link, d) in &links {
        let fresh = || Channel::new(config.clone(), SimRng::seed_from(1));
        assert_eq!(
            queried.is_connected(link, d),
            fresh().is_connected(link, d),
            "{link:?} at {d} m"
        );
        let (got, want) = (queried.link_budget(link, d), fresh().link_budget(link, d));
        assert!(got.is_some(), "unshadowed links have a budget");
        assert_eq!(got, want, "{link:?} at {d} m");
    }
}

#[test]
fn shadowed_channel_draws_each_link_once_in_first_use_order() {
    let links = failover_star_links();
    let config = ChannelConfig {
        shadowing_sigma_db: 4.0,
        ..ChannelConfig::default()
    };
    let mut channel = Channel::new(config.clone(), SimRng::seed_from(7));
    let mut draws = SimRng::seed_from(7);
    // Two passes: the first draws one realization per link in query
    // order, the second must reuse every one of them and draw nothing.
    let mut realized = Vec::with_capacity(links.len());
    for &(link, d) in &links {
        channel.is_connected(link, d);
        assert!(
            channel.link_budget(link, d).is_none(),
            "no budget under shadowing"
        );
        realized.push(draws.normal(0.0, config.shadowing_sigma_db));
    }
    for (&(link, d), shadow) in links.iter().zip(realized) {
        let path_loss = config.path_loss_ref_db + 10.0 * config.path_loss_exp * d.max(1.0).log10();
        let want = config.tx_power_dbm - path_loss + shadow;
        let got = channel.received_power_dbm(link, d);
        assert_eq!(got.to_bits(), want.to_bits(), "{link:?} at {d} m");
    }
}
