//! E5 — §2.1 claim: battery lifetime vs duty cycle for RT-Link, B-MAC and
//! S-MAC.
//!
//! "RT-Link outperforms asynchronous protocols such as B-MAC and loosely
//! synchronous protocols such as S-MAC across all duty cycles and event
//! rates", with "an effective battery lifetime of 1.8 years with a 5 %
//! duty cycle". Absolute years depend on battery assumptions; the *shape*
//! — RT-Link above both baselines at every duty cycle — is the claim.
//! The absolute number does not match: this model reads 2.21 y for
//! RT-Link at 5 % duty, against the paper's ~1.8 y.

use evm_bench::{banner, f, row, write_result};
use evm_mac::{BMac, DutyCycledMac, RtLink, SMac, Workload};
use evm_netsim::Battery;

fn main() {
    banner("E5", "lifetime vs duty cycle (2 pkt/min, 16 B payload)");
    let wl = Workload::periodic(2.0, 16, 6);
    let battery = Battery::two_aa();
    let protocols: Vec<Box<dyn DutyCycledMac>> = vec![
        Box::new(RtLink::default()),
        Box::new(BMac::default()),
        Box::new(SMac::default()),
    ];

    println!(
        "{}",
        row(&[
            "duty [%]".into(),
            "rt-link [y]".into(),
            "b-mac [y]".into(),
            "s-mac [y]".into(),
        ])
    );
    let duties = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];
    let mut csv = String::from("duty_pct,rtlink_years,bmac_years,smac_years\n");
    let mut rtlink_always_wins = true;
    for duty_pct in duties {
        let d = duty_pct / 100.0;
        let lifetimes: Vec<f64> = protocols
            .iter()
            .map(|p| p.metrics(d, &wl, &battery).lifetime_years)
            .collect();
        println!(
            "{}",
            row(&[
                format!("{duty_pct}"),
                f(lifetimes[0]),
                f(lifetimes[1]),
                f(lifetimes[2]),
            ])
        );
        csv.push_str(&format!(
            "{duty_pct},{:.4},{:.4},{:.4}\n",
            lifetimes[0], lifetimes[1], lifetimes[2]
        ));
        if lifetimes[0] <= lifetimes[1] || lifetimes[0] <= lifetimes[2] {
            rtlink_always_wins = false;
        }
    }
    write_result("mac_lifetime_duty.csv", &csv);

    let at5 = RtLink::default().metrics(0.05, &wl, &battery);
    println!(
        "\n  paper:    RT-Link ~1.8 y at 5% duty\n  measured: RT-Link {:.2} y at 5% duty ({:.3} mA avg)",
        at5.lifetime_years, at5.avg_current_ma
    );
    assert!(
        rtlink_always_wins,
        "RT-Link must win across all duty cycles"
    );
    assert!(at5.lifetime_years > 1.0 && at5.lifetime_years < 4.0);
    println!(
        "\nOK: RT-Link dominates at every duty cycle; 5% operating point in the paper's range"
    );
}
