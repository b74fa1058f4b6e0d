//! Batch sweep over the failover scenario grid.
//!
//! Expands a (loss × detection × topology × seeds) grid, fans it across
//! all cores with the work-stealing executor, and writes the aggregated
//! report (CSV + markdown) under `target/paper_results/`. The report is
//! byte-identical at any thread count.
//!
//! ```text
//! cargo run --release --example sweep            # the full grid
//! cargo run --release --example sweep -- --smoke # tiny CI-sized grids
//! cargo run --release --example sweep -- --threads 2
//! ```

use std::path::PathBuf;
use std::time::Instant;

use evm::core::runtime::{Layout, ReroutePolicy, Scenario, ScenarioBuilder};
use evm::netsim::NodeId;
use evm::plant::ActuatorFault;
use evm::prelude::*;
use evm::sweep::{available_threads, run_cells, StarShape, SweepGrid, SweepReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map_or_else(available_threads, |v| {
            v.parse().expect("--threads takes a number")
        });

    let grids: Vec<(SweepGrid, &str)> = if smoke {
        // CI-sized: the vcs grid (2 vcs × 2 loss × 2 seeds) exercises
        // the multi-VC scheduler + per-VC report rows; the topology grid
        // (4 layouts × 2 seeds) the multi-hop routing pass + topology
        // rows — line / grid / clustered relay flows on every push.
        let template = Scenario::builder()
            .duration(SimDuration::from_secs(60))
            .fault_at(SimTime::from_secs(15), ActuatorFault::paper_fault())
            .reconfig_epoch(SimDuration::ZERO)
            .build();
        vec![
            (
                SweepGrid::new(template.clone())
                    .over_vcs(&[1, 2])
                    .over_loss(&[0.0, 0.2])
                    .seeds_per_cell(2),
                "sweep_smoke",
            ),
            (
                SweepGrid::new(template)
                    .over_topology(&[
                        Layout::Star,
                        Layout::Line { hops: 2 },
                        Layout::Grid { w: 2, h: 3 },
                        Layout::Clustered,
                    ])
                    .over_stars(&[StarShape {
                        sensors: 1,
                        controllers: 2,
                        actuators: 1,
                        head: true,
                    }])
                    .seeds_per_cell(2),
                "sweep_smoke_topo",
            ),
            // Reconfiguration-plane smoke: a forwarder-kill and a
            // head-kill on the redundant 2-hop line, each swept over the
            // reroute-policy axis — static starves (or loses the control
            // plane) while heartbeat reroutes/re-elects; the epochs and
            // reroute-latency columns land in the _reconfig.csv artifact.
            (
                SweepGrid::new(
                    // Ids: GW=0, S1=1, Ctrl-A=2, Ctrl-B=3, A1=4, Head=5,
                    // R1=6, RB1=7. Kill the primary forwarder R1.
                    ScenarioBuilder::star()
                        .line(2)
                        .sensors(1)
                        .controllers(2)
                        .actuators(1)
                        .head(true)
                        .backup_relays(1)
                        .crash_node_at(NodeId(6), SimTime::from_secs(15))
                        .duration(SimDuration::from_secs(60))
                        .build(),
                )
                .over_reroute(&[ReroutePolicy::Static, ReroutePolicy::Heartbeat])
                .seeds_per_cell(2),
                "sweep_smoke_fwdkill",
            ),
            (
                SweepGrid::new(
                    // Three replicas so a backup survives re-election;
                    // ids: GW=0, S1=1, Ctrl-A..C=2..4, A1=5, Head=6,
                    // R1=7, RB1=8. Kill the head, then fault the primary.
                    ScenarioBuilder::star()
                        .line(2)
                        .sensors(1)
                        .controllers(3)
                        .actuators(1)
                        .head(true)
                        .backup_relays(1)
                        .crash_node_at(NodeId(6), SimTime::from_secs(10))
                        .fault_at(SimTime::from_secs(30), ActuatorFault::paper_fault())
                        .reconfig_epoch(SimDuration::ZERO)
                        .duration(SimDuration::from_secs(60))
                        .build(),
                )
                .over_reroute(&[ReroutePolicy::Static, ReroutePolicy::Heartbeat])
                .seeds_per_cell(2),
                "sweep_smoke_headkill",
            ),
            // Capsule-migration smoke: the head-kill with the transfer
            // lane enabled, swept over image size × slot budget — the
            // Fig. 6(b) axes. Every cell must complete one attested
            // migration, and the measured transfer latency must scale
            // with image size and shrink with slot budget (asserted
            // below); the records land in the report artifacts.
            (
                SweepGrid::new(
                    ScenarioBuilder::star()
                        .line(2)
                        .sensors(1)
                        .controllers(3)
                        .actuators(1)
                        .head(true)
                        .backup_relays(1)
                        .reroute(ReroutePolicy::Heartbeat)
                        .crash_node_at(NodeId(6), SimTime::from_secs(10))
                        .reconfig_epoch(SimDuration::ZERO)
                        .duration(SimDuration::from_secs(60))
                        .build(),
                )
                .over_capsule_size(&[0, 512])
                .over_transfer_slots(&[1, 2])
                .seeds_per_cell(2),
                "sweep_smoke_migration",
            ),
        ]
    } else {
        // The statistics grid: 2 topologies × 3 loss × 2 detection × 8
        // seeds = 96 failover runs over a 300 s horizon.
        let template = Scenario::builder()
            .duration(SimDuration::from_secs(300))
            .fault_at(SimTime::from_secs(60), ActuatorFault::paper_fault())
            .reconfig_epoch(SimDuration::ZERO)
            .build();
        vec![(
            SweepGrid::new(template)
                .over_stars(&[StarShape::fig5(), StarShape::with_controllers(3)])
                .over_loss(&[0.0, 0.1, 0.2])
                .over_detection(&[(5.0, 3), (3.0, 4)])
                .seeds_per_cell(8),
            "sweep",
        )]
    };

    for (grid, stem) in grids {
        let cells = grid.expand();
        println!(
            "{stem}: {} cells on {threads} thread(s){}",
            cells.len(),
            if smoke { " [smoke]" } else { "" }
        );
        let start = Instant::now();
        let results = run_cells(&cells, threads);
        let wall = start.elapsed().as_secs_f64();
        let report = SweepReport::build(&cells, &results);

        println!(
            "{:<40} {:>5} {:>9} {:>13} {:>10} {:>10}",
            "config", "runs", "failsafe", "failover p99", "hit ratio", "ISE"
        );
        for r in &report.rows {
            println!(
                "{:<40} {:>5} {:>9} {:>13.3} {:>10.4} {:>10.1}",
                r.key, r.runs, r.fail_safe_runs, r.failover_p99_s, r.hit_ratio, r.ise_mean
            );
        }

        if stem == "sweep_smoke" {
            // The report must be byte-identical serial vs parallel.
            let serial = SweepReport::build(&cells, &run_cells(&cells, 1));
            assert_eq!(
                serial.to_csv(),
                report.to_csv(),
                "sweep report depends on thread count"
            );
            println!("serial/parallel reports byte-identical");
        }

        if stem == "sweep_smoke_migration" {
            // Every heartbeat head-kill cell ships exactly one capsule,
            // and the measured latency is a function of image size ×
            // slot budget: bigger images cost more, wider lanes cost
            // less.
            let mean_latency = |pad: usize, slots: usize| -> f64 {
                let runs: Vec<f64> = cells
                    .iter()
                    .zip(&results)
                    .filter(|(c, _)| {
                        c.config.capsule_pad == pad && c.config.transfer_slots == slots
                    })
                    .map(|(c, r)| {
                        assert_eq!(
                            r.migrations.len(),
                            1,
                            "cell {} completed no migration",
                            c.id
                        );
                        r.migrations[0].latency.as_secs_f64()
                    })
                    .collect();
                assert!(!runs.is_empty(), "no cells at cap{pad}/xfer{slots}");
                runs.iter().sum::<f64>() / runs.len() as f64
            };
            let (small, big) = (mean_latency(0, 1), mean_latency(512, 1));
            let wide = mean_latency(512, 2);
            assert!(big > small, "512 B image not slower: {big} vs {small}");
            assert!(wide < big, "2 slots not faster: {wide} vs {big}");
            println!(
                "migration latency: {small:.3} s (0 B x1) -> {big:.3} s (512 B x1) \
                 -> {wide:.3} s (512 B x2)"
            );
        }

        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/paper_results");
        for path in report.write(&dir, stem) {
            println!("-> wrote {}", path.display());
        }
        println!(
            "done: {} runs in {wall:.2} s ({:.0} simulated seconds per wall second)",
            cells.len(),
            cells
                .iter()
                .map(|c| c.scenario.duration.as_secs_f64())
                .sum::<f64>()
                / wall
        );
    }
}
