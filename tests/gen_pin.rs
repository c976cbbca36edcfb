//! Bit-identity pins of the synthetic generator.
//!
//! Every preset and every point a sweep axis configures is generated
//! from three seeds, and the structural fingerprint of the result
//! (platform, graphs, activities, edges and cluster topology, see
//! `Workload::fingerprint`) is compared with the recorded value. Any
//! change to the random draws, their order or the arithmetic applied to
//! them shows up here.

use flexray::gen::{generate, GeneratorConfig};
use flexray_bench::sweep::SweepAxis;
use flexray_bench::workload::Workload;

/// Seeds of every pinned configuration.
const SEEDS: [u64; 3] = [0, 1, 7];

/// `(label, fingerprints for SEEDS)`.
#[rustfmt::skip]
const PINS: [(&str, [&str; 3]); 27] = [
    ("paper(2)", ["ded1780aea51a87c", "ac723cece98b24e5", "e248a4d36663b77e"]),
    ("paper(3)", ["198386fe55d6b920", "b49a3f801c2cb2d1", "abe85a682cbf0cf5"]),
    ("paper(4)", ["0dc9f553164956ec", "786804fe8cd3bc20", "0729d3a46ebf2a15"]),
    ("paper(5)", ["8b49d831d94714d5", "bdda23f0481d4e05", "c9d1419127fb4074"]),
    ("small(2)", ["4c0d3940a9174ab9", "4a0db82c9aa2fa57", "bf769fa80a13e393"]),
    ("small(3)", ["949817f68d785485", "e1febd29ad15fdd6", "54fe54d40b73f602"]),
    ("deep(4, 8)", ["24c27591a3449639", "10bd7299396f6d68", "319c53350e96b825"]),
    ("gateway(5, 0.5)", ["5fae850af061b294", "fa718318c7ffb187", "be45cc6c7c5d518f"]),
    ("clustered(5, 2)", ["ebf2f88ce4c35624", "1f0d0dafe5108719", "066dbc23ec604a65"]),
    ("paper(3) tt_fraction=0", ["8864d4e6d26379da", "2e88ec70aaf1c9be", "97a67eb742ad7dd3"]),
    ("nodes=2", ["ded1780aea51a87c", "ac723cece98b24e5", "e248a4d36663b77e"]),
    ("nodes=3", ["198386fe55d6b920", "b49a3f801c2cb2d1", "abe85a682cbf0cf5"]),
    ("nodes=8", ["76ac7699e3e40920", "5cc094c1087b7ac8", "37ea3a8dafa5d43c"]),
    ("depth=1", ["555825c329507414", "ea58f6f2fe051cd7", "9b4de1ad31fe1298"]),
    ("depth=3", ["96d6be575ecb448f", "f08caca5e1244953", "41d8b461624d8698"]),
    ("depth=7", ["ef2370924570b664", "f1f203f01c8d42be", "8463cbfbe1c220a6"]),
    ("gateway=0.00", ["8b49d831d94714d5", "bdda23f0481d4e05", "c9d1419127fb4074"]),
    ("gateway=0.25", ["4f8903fcf3b3e1ec", "7ed9458b3f215ad2", "2539b65281303344"]),
    ("gateway=1.00", ["ccd7dc3fb1a4ebdd", "deabf7255b05720f", "c2859292108d56a2"]),
    ("busutil=0.10", ["ec66580943b95a7f", "7cffa2c865471b31", "098bf2392828e5d4"]),
    ("busutil=0.40", ["b31402cd10e5b934", "ef096ae8559a7bd0", "1697afccdb2805a9"]),
    ("busutil=0.70", ["f7bbb0317e9f3841", "070677170f8173d4", "84b0de5e9c86d8b1"]),
    ("clusters=1", ["8b49d831d94714d5", "bdda23f0481d4e05", "c9d1419127fb4074"]),
    ("clusters=2", ["ebf2f88ce4c35624", "1f0d0dafe5108719", "066dbc23ec604a65"]),
    ("clusters=3", ["3afe9b1090930a20", "3451258551f80c64", "bfeb2a87b3886297"]),
    ("small(3) nodes=4", ["b17b990e915ed6dd", "1483881ef3ade0f3", "edbcf9ee98b78086"]),
    ("small(3) depth=3", ["5fab482e430ae155", "58bfd98986beb434", "aff0507aee4b310a"]),
];

/// Every pinned configuration, in `PINS` order.
fn configs() -> Vec<(String, GeneratorConfig)> {
    let presets = [
        ("paper(2)", GeneratorConfig::paper(2)),
        ("paper(3)", GeneratorConfig::paper(3)),
        ("paper(4)", GeneratorConfig::paper(4)),
        ("paper(5)", GeneratorConfig::paper(5)),
        ("small(2)", GeneratorConfig::small(2)),
        ("small(3)", GeneratorConfig::small(3)),
        ("deep(4, 8)", GeneratorConfig::deep(4, 8)),
        ("gateway(5, 0.5)", GeneratorConfig::gateway(5, 0.5)),
        ("clustered(5, 2)", GeneratorConfig::clustered(5, 2)),
        (
            "paper(3) tt_fraction=0",
            GeneratorConfig {
                tt_fraction: 0.0,
                ..GeneratorConfig::paper(3)
            },
        ),
    ];
    let mut out: Vec<(String, GeneratorConfig)> = presets
        .into_iter()
        .map(|(label, cfg)| (label.to_owned(), cfg))
        .collect();
    let axes = [
        SweepAxis::NodeCount(vec![2, 3, 8]),
        SweepAxis::GraphDepth(vec![1, 3, 7]),
        SweepAxis::GatewayFraction(vec![0.0, 0.25, 1.0]),
        SweepAxis::BusUtil(vec![0.1, 0.4, 0.7]),
        SweepAxis::Clusters(vec![1, 2, 3]),
    ];
    let base = GeneratorConfig::paper(5);
    for axis in &axes {
        out.extend((0..axis.len()).map(|i| axis.configure(&base, i)));
    }
    let small = GeneratorConfig::small(3);
    for axis in [
        SweepAxis::NodeCount(vec![4]),
        SweepAxis::GraphDepth(vec![3]),
    ] {
        let (label, cfg) = axis.configure(&small, 0);
        out.push((format!("small(3) {label}"), cfg));
    }
    out
}

#[test]
fn generated_workloads_are_pinned() {
    let configs = configs();
    assert_eq!(configs.len(), PINS.len());
    let mut mismatches = Vec::new();
    for ((label, cfg), (pin_label, pins)) in configs.iter().zip(PINS) {
        assert_eq!(label, pin_label, "configuration order");
        let got: Vec<String> = SEEDS
            .iter()
            .map(|&seed| {
                let generated = generate(cfg, seed).expect("pinned configuration generates");
                Workload::of_generated(&generated).fingerprint()
            })
            .collect();
        if got != pins {
            mismatches.push(format!("    (\"{label}\", {got:?}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated workloads changed:\n{}",
        mismatches.join("\n")
    );
}
