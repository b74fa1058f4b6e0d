//! Pins the node set every topology layout builds, bit for bit.
//!
//! Each row renders a deployment one node per line (id, VC tag, role,
//! label, register and the bits of both coordinates), then its explicit
//! links, and pins the FNV-1a digest of that rendering. The expected
//! rendering of every row is kept in `topology_shapes.txt`, so a
//! mismatch names the first node that differs instead of only a digest.

use evm_core::runtime::{ScenarioBuilder, TopologySpec};

/// FNV-1a over the rendered lines.
fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One line per node in spec order, then one per explicit link.
fn render(spec: &TopologySpec) -> Vec<String> {
    let mut lines: Vec<String> = spec
        .nodes
        .iter()
        .map(|n| {
            format!(
                "{} vc{} {:?} {:?} {:?} {:016x} {:016x}",
                n.id,
                n.vc,
                n.role,
                n.label,
                n.register,
                n.position.x.to_bits(),
                n.position.y.to_bits()
            )
        })
        .collect();
    for (a, b) in spec.links.iter().flatten() {
        lines.push(format!("link {a} {b}"));
    }
    lines
}

/// The topology a builder materializes.
fn built(b: ScenarioBuilder) -> TopologySpec {
    b.try_build().expect("the row's shape builds").topology
}

fn star() -> ScenarioBuilder {
    ScenarioBuilder::star()
}

/// The pinned rows: a name, the deployment and the digest of its
/// rendering.
fn rows() -> Vec<(&'static str, TopologySpec, u64)> {
    vec![
        ("fig5", TopologySpec::fig5(), 0xfaf4c212b7fd1ccc),
        (
            "star v1 r10",
            built(star().radius_m(10.0)),
            0xb1046d29f5b6c0b9,
        ),
        ("star v2 r15", built(star().vcs(2)), 0x9cd35a27e61fe41e),
        (
            "star v8 r22",
            built(star().vcs(8).radius_m(22.0)),
            0x374920ce5b0438ea,
        ),
        (
            "star v2 r10",
            built(star().vcs(2).radius_m(10.0)),
            0x15cc5ac8b5cead9b,
        ),
        (
            "star c27",
            built(star().controllers(27)),
            0xc1ef64cc1113fb6a,
        ),
        ("star s13", built(star().sensors(13)), 0x564286b08da088c1),
        (
            "star v2 s3 c3 a0",
            built(star().vcs(2).sensors(3).controllers(3).actuators(0)),
            0xb69ef86800857b77,
        ),
        (
            "star v3 headless",
            built(star().vcs(3).head(false)),
            0x13b8d782f7b07363,
        ),
        (
            "star minimal",
            built(ScenarioBuilder::minimal()),
            0xafbc35582667a414,
        ),
        ("line h1", built(star().line(1)), 0x44bcb26b4be32b29),
        (
            "line h1 b1",
            built(star().line(1).backup_relays(1)),
            0x44bcb26b4be32b29,
        ),
        (
            "line h1 b2",
            built(star().line(1).backup_relays(2)),
            0x44bcb26b4be32b29,
        ),
        ("line h2", built(star().line(2)), 0x0005dacde3a07441),
        (
            "line h2 b1",
            built(star().line(2).backup_relays(1)),
            0xc173385fee1f3157,
        ),
        (
            "line h2 b2",
            built(star().line(2).backup_relays(2)),
            0xf3bd9e0a04b76ab8,
        ),
        ("line h4", built(star().line(4)), 0xd6ad0f4844196e23),
        (
            "line h4 b1",
            built(star().line(4).backup_relays(1)),
            0xb0d18986d89b2e52,
        ),
        (
            "line h4 b2",
            built(star().line(4).backup_relays(2)),
            0xb33f98b7c10118ce,
        ),
        (
            "line h3 s3 c3 headless b1",
            built(
                star()
                    .line(3)
                    .sensors(3)
                    .controllers(3)
                    .head(false)
                    .backup_relays(1),
            ),
            0xc1d617aea2ffd9d4,
        ),
        ("grid 3x3", built(star().grid(3, 3)), 0x92cb5ea9ebead132),
        ("grid 4x4", built(star().grid(4, 4)), 0x2e00f9148e633996),
        (
            "grid 7x1 exact",
            built(star().grid(7, 1)),
            0x439c05ee5d7e35eb,
        ),
        (
            "grid 2x3 s1 c2 a1 headless",
            built(star().grid(2, 3).sensors(1).head(false)),
            0x7dd54bcc29a48f42,
        ),
        (
            "grid 3x3 s0",
            built(star().grid(3, 3).sensors(0)),
            0x67a92ed9a5e10384,
        ),
        (
            "clustered 1",
            built(star().clustered(1)),
            0xeeaf6ec3c6963600,
        ),
        (
            "clustered 1 b1",
            built(star().clustered(1).backup_relays(1)),
            0x450aa1c331a08217,
        ),
        (
            "clustered 1 b2",
            built(star().clustered(1).backup_relays(2)),
            0xda569ab78bd78ad7,
        ),
        (
            "clustered 2",
            built(star().clustered(2)),
            0xcb3a18006a112258,
        ),
        (
            "clustered 2 b1",
            built(star().clustered(2).backup_relays(1)),
            0x82966c70ee754f3a,
        ),
        (
            "clustered 2 b2",
            built(star().clustered(2).backup_relays(2)),
            0x2ef10b9f1a34d3ad,
        ),
        (
            "clustered 8",
            built(star().clustered(8)),
            0x1c4ee02607f7e69a,
        ),
        (
            "clustered 8 b1",
            built(star().clustered(8).backup_relays(1)),
            0x618ecf5ef5073707,
        ),
        (
            "clustered 8 b2",
            built(star().clustered(8).backup_relays(2)),
            0x4b3f18786805e193,
        ),
        ("fleet 1", TopologySpec::fleet(1), 0x3089d643d64b3254),
        ("fleet 3", TopologySpec::fleet(3), 0x964206c51f4fe549),
    ]
}

/// The expected rendering of row `name`, from `topology_shapes.txt`.
fn expected(name: &str) -> Vec<&'static str> {
    let header = format!("== {name}");
    include_str!("topology_shapes.txt")
        .lines()
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with("== "))
        .collect()
}

#[test]
fn every_layout_builds_its_pinned_nodes() {
    for (name, spec, pinned) in rows() {
        let got = render(&spec);
        let want = expected(name);
        // The kept rendering is the one the digest pins.
        let kept: Vec<String> = want.iter().map(|l| (*l).to_string()).collect();
        assert_eq!(digest(&kept), pinned, "{name}: topology_shapes.txt drifted");
        if digest(&got) == pinned {
            continue;
        }
        match got.iter().zip(&want).position(|(g, w)| g != w) {
            Some(i) => panic!(
                "{name}: line {i} differs\n  want {}\n  got  {}",
                want[i], got[i]
            ),
            None => panic!(
                "{name}: {} lines, want {}\n{}",
                got.len(),
                want.len(),
                got.join("\n")
            ),
        }
    }
}
