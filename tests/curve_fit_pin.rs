//! Bit-identity pins of the optimisers.
//!
//! The curve-fit values were recorded before the curve fit's inner loop
//! was rewritten (column-wise Newton evaluation, in-place polynomial
//! rebuilds, seed-bounded pruning). The BBC, OBCEE, SA and network
//! values were recorded before the optimisers were moved onto one bus
//! skeleton and one DYN-length sweep. Both rewrites perform the same
//! analyses in the same order, so evaluation counts, chosen lengths,
//! cost bits and buses must match exactly.

use flexray::gen::{generate, GeneratorConfig};
use flexray::opt::{
    bbc, bbc_skeleton, determine_dyn_length, optimise_network, simulated_annealing, Evaluator,
    NetworkTopology, OptResult, SaParams, CF_INITIAL_POINTS,
};
use flexray::*;
use flexray_bench::sweep::search_mode;

/// `(nodes, seed, evaluations, Some((n_minislots, f1 bits, f2 bits)))` of
/// `determine_dyn_length(…, DynSearch::CurveFit)` on the BBC skeleton
/// (criticality frame ids, minimal static segment) of `paper(nodes)`
/// generated from `seed`, under `OptParams::default()`.
type DynPin = (usize, u64, usize, Option<(u32, u64, u64)>);

#[rustfmt::skip]
const DYN_PINS: [DynPin; 24] = [
    (2, 0, 5, Some((134, 0x0000000000000000, 0xc13198d5bd2f1aa1))),
    (2, 1, 5, Some((135, 0x0000000000000000, 0xc12a99f366666665))),
    (2, 2, 22, Some((1093, 0x40a6e793f7ced910, 0xc1272154b9db22d0))),
    (2, 3, 5, Some((134, 0x0000000000000000, 0xc1348c53e1cac084))),
    (2, 4, 5, Some((133, 0x0000000000000000, 0xc13387878624dd2e))),
    (2, 5, 24, Some((1063, 0x409ffe89374bc6a0, 0xc11ed3be0d4fdf3c))),
    (2, 6, 5, Some((135, 0x0000000000000000, 0xc13f2c8d0a7ef9dd))),
    (2, 7, 25, Some((222, 0x40d4ca3178d4fdf4, 0xc12a8f1a73333334))),
    (3, 0, 5, Some((87, 0x0000000000000000, 0xc1219a4080831270))),
    (3, 1, 6, Some((542, 0x0000000000000000, 0xc13dd687d645a1ca))),
    (3, 2, 5, Some((137, 0x0000000000000000, 0xc137687edcac0831))),
    (3, 3, 5, Some((136, 0x0000000000000000, 0xc138f58342d0e560))),
    (3, 4, 25, Some((1358, 0x40ee781449ba5e35, 0xc1309573f9581064))),
    (3, 5, 5, Some((135, 0x0000000000000000, 0xc134f43e90a3d70c))),
    (3, 6, 5, Some((105, 0x0000000000000000, 0xc138a0ad5f7ced91))),
    (3, 7, 5, Some((137, 0x0000000000000000, 0xc139d7cd16872b03))),
    (4, 0, 19, Some((480, 0x40d202efbe76c8b4, 0xc146e332dac0830f))),
    (4, 1, 25, Some((2031, 0x40da68e25e353f7c, 0xc132bff470e56043))),
    (4, 2, 6, Some((101, 0x0000000000000000, 0xc143d16fec083126))),
    (4, 3, 5, Some((129, 0x0000000000000000, 0xc14320964bc6a7f2))),
    (4, 4, 27, Some((914, 0x40b6e5d126e978d8, 0xc139670461cac083))),
    (4, 5, 7, Some((1039, 0x0000000000000000, 0xc14501f5851eb855))),
    (4, 6, 25, Some((840, 0x40df473ab020c49c, 0xc1377302cd4fdf3b))),
    (4, 7, 20, Some((1420, 0x40fcc4a1b645a1ca, 0xc1337505fe76c8b3))),
];

/// `(nodes, seed, evaluations, f1 bits, f2 bits, n_minislots, FNV-1a of
/// the bus's Debug text)` of the full `obc(…, DynSearch::CurveFit)` on
/// the four applications of the `design` benchmark workload.
type ObcPin = (usize, u64, usize, u64, u64, u32, u64);

#[rustfmt::skip]
const OBC_PINS: [ObcPin; 4] = [
    (2, 0, 5, 0x0000000000000000, 0xc13198d5bd2f1aa1, 134, 0x3c4e7ea7f470ac5c),
    (3, 1, 6, 0x0000000000000000, 0xc13dd687d645a1ca, 542, 0xfbe5a86a661e3932),
    (4, 3, 5, 0x0000000000000000, 0xc14320964bc6a7f2, 129, 0x397be83eca20794c),
    (2, 7, 2687, 0x40d4ca3178d4fdf4, 0xc12a8f1a73333334, 222, 0xfe9d647d2f2eb169),
];

/// `(nodes, seed, evaluations, f1 bits, f2 bits, n_minislots, FNV-1a of
/// the bus's Debug text)` of BBC (default parameters), OBCEE and SA
/// (`mode=smoke` parameters, SA at 300 iterations) on the four `design`
/// applications.
#[rustfmt::skip]
const BBC_PINS: [ObcPin; 4] = [
    (2, 0, 264, 0x0000000000000000, 0xc131c6918d0e5605, 453, 0x58914e0ebe5f7738),
    (3, 1, 259, 0x0000000000000000, 0xc13deb39249ba5e4, 513, 0xd8d2fbe5534e80b8),
    (4, 3, 266, 0x0000000000000000, 0xc145d39fb0c49ba7, 241, 0x836668799949d8d1),
    (2, 7, 264, 0x40d4ca3178d4fdf4, 0xc12a8f1a73333334, 222, 0xfe9d647d2f2eb169),
];

#[rustfmt::skip]
const OBCEE_PINS: [ObcPin; 4] = [
    (2, 0, 26, 0x0000000000000000, 0xc131b8328c8b4396, 450, 0x2f767fd915df3f4f),
    (3, 1, 26, 0x0000000000000000, 0xc13dc68919999999, 447, 0x2e510677a3a531b6),
    (4, 3, 26, 0x0000000000000000, 0xc14320964bc6a7f2, 129, 0x397be83eca20794c),
    (2, 7, 234, 0x40d5af3178d4fdf4, 0xc12a90fa73333334, 451, 0x0b045be1c8ed12f9),
];

#[rustfmt::skip]
const SA_PINS: [ObcPin; 4] = [
    (2, 0, 301, 0x0000000000000000, 0xc13200f6c3958107, 226, 0xe4d99d6800ebd297),
    (3, 1, 301, 0x0000000000000000, 0xc13e42ef8c49ba5c, 351, 0x9ce6e2b3d793651a),
    (4, 3, 301, 0x0000000000000000, 0xc14623d12d0e5607, 257, 0xe5b7465d660db425),
    (2, 7, 301, 0x40d565919999999a, 0xc12aa6891a1cac09, 369, 0x4aec04fcb3c3208d),
];

/// One cluster of a network result: `(n_minislots, (message id, frame
/// id) pairs, static slot owners)`.
type ClusterPin = (u32, &'static [(usize, u16)], &'static [usize]);

/// `((nodes, clusters, tasks_per_node, graph_size, seed, max_rounds),
/// evaluations, f1 bits, f2 bits, clusters)` of `optimise_network` under
/// `mode=smoke` parameters on `GeneratorConfig::clustered` scenarios.
type NetPin = (
    (usize, usize, usize, usize, u64, usize),
    usize,
    u64,
    u64,
    &'static [ClusterPin],
);

#[rustfmt::skip]
const NET_PINS: [NetPin; 6] = [
    ((5, 2, 4, 5, 0, 1), 52, 0x4070a6c8b4395820, 0xc13ea4fda28f5c29, &[(81, &[(40, 6), (42, 5), (45, 4), (51, 2), (52, 1), (55, 3)], &[0, 1, 4]), (80, &[(39, 7), (43, 6), (46, 5), (47, 4), (48, 2), (50, 1), (54, 3)], &[2, 3, 4])]),
    ((5, 2, 4, 5, 1, 8), 104, 0x0000000000000000, 0xc12fb4e0d999999b, &[(425, &[(33, 7), (35, 3), (39, 1), (40, 4), (41, 5), (43, 2), (46, 6)], &[4]), (434, &[(32, 6), (36, 4), (38, 1), (44, 3), (47, 5), (48, 2)], &[3, 4])]),
    ((7, 3, 4, 5, 2, 8), 234, 0x40e9c978c49ba5e3, 0xc142c23d7a1cac08, &[(2930, &[(58, 2), (66, 1)], &[0, 1, 6]), (454, &[(63, 8), (64, 7), (70, 4), (72, 3), (73, 2), (74, 1), (75, 5), (77, 6)], &[2, 6]), (448, &[(59, 6), (60, 4), (62, 5), (67, 7), (69, 2), (71, 1), (78, 3)], &[4, 5, 6])]),
    ((7, 3, 4, 4, 2, 8), 106, 0x40b3ef1333333334, 0xc14591358d2f1aa2, &[(0, &[], &[0, 1, 6]), (63, &[(59, 5), (63, 6), (65, 4), (66, 3), (67, 2), (69, 1)], &[3, 6]), (65, &[(58, 3), (60, 2), (62, 5), (64, 4), (70, 1)], &[4, 5])]),
    ((7, 3, 6, 5, 6, 8), 234, 0x40d7858978d4fdf4, 0xc15106d5326e9790, &[(134, &[(86, 7), (90, 5), (93, 6), (94, 4), (95, 3), (98, 2), (107, 1)], &[6]), (27, &[(96, 3), (99, 2), (101, 1)], &[2, 3, 6]), (448, &[(85, 9), (87, 7), (89, 6), (92, 8), (102, 4), (103, 3), (104, 2), (106, 1), (108, 5)], &[4, 5, 6])]),
    ((7, 3, 8, 5, 1, 8), 234, 0x40aa43ccccccccc8, 0xc14c6381d9374bc8, &[(405, &[(102, 8), (105, 6), (108, 9), (110, 3), (112, 4), (124, 7), (127, 5), (129, 10), (133, 2), (134, 1)], &[0, 6]), (65, &[(107, 2), (115, 6), (118, 7), (120, 5), (122, 4), (130, 3), (132, 1)], &[2, 3, 6]), (1027, &[(103, 5), (106, 3), (111, 1), (114, 7), (117, 8), (121, 6), (125, 4), (128, 2)], &[4, 5, 6])]),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn dyn_length_curve_fit_matches_the_recorded_bits() {
    // The pin must exercise the refinement loop, not just the initial
    // points: each round analyses one more length.
    let params = OptParams::default();
    let long_runs = DYN_PINS
        .iter()
        .filter(|p| p.2 >= CF_INITIAL_POINTS + 10)
        .count();
    assert!(long_runs >= 5, "only {long_runs} cases refine 10+ rounds");

    for &(nodes, seed, evaluations, choice) in &DYN_PINS {
        let g = generate(&GeneratorConfig::paper(nodes), seed).expect("generator");
        let skeleton = bbc_skeleton(&g.platform, &g.app, PhyParams::bmw_like());
        let mut ev = Evaluator::new(g.platform, g.app, AnalysisConfig::default());
        let got = determine_dyn_length(&mut ev, &skeleton, &params, DynSearch::CurveFit)
            .map(|c| (c.n_minislots, c.cost.f1.to_bits(), c.cost.f2.to_bits()));
        assert_eq!(
            (ev.evaluations(), got),
            (evaluations, choice),
            "paper({nodes}) seed {seed}"
        );
    }
}

/// Runs `optimise` on every `design` application and compares each
/// result with its pin.
fn check_design_pins(
    label: &str,
    pins: &[ObcPin],
    optimise: impl Fn(&Platform, &Application) -> OptResult,
) {
    for &(nodes, seed, evaluations, f1, f2, n_minislots, bus_hash) in pins {
        let g = generate(&GeneratorConfig::paper(nodes), seed).expect("generator");
        let r = optimise(&g.platform, &g.app);
        assert_eq!(
            (
                r.evaluations,
                r.cost.f1.to_bits(),
                r.cost.f2.to_bits(),
                r.bus.n_minislots,
                fnv1a(&format!("{:?}", r.bus)),
            ),
            (evaluations, f1, f2, n_minislots, bus_hash),
            "{label} on paper({nodes}) seed {seed}"
        );
    }
}

#[test]
fn obc_curve_fit_matches_the_recorded_bits_on_the_design_apps() {
    check_design_pins("OBCCF", &OBC_PINS, |p, a| {
        obc(
            p,
            a,
            PhyParams::bmw_like(),
            &OptParams::default(),
            DynSearch::CurveFit,
        )
    });
}

#[test]
fn bbc_obcee_and_sa_match_the_recorded_bits_on_the_design_apps() {
    let phy = PhyParams::bmw_like();
    let (smoke, smoke_sa) = search_mode("smoke").expect("known mode");
    let sa = SaParams {
        iterations: 300,
        ..smoke_sa
    };
    check_design_pins("BBC", &BBC_PINS, |p, a| {
        bbc(p, a, phy, &OptParams::default())
    });
    check_design_pins("OBCEE", &OBCEE_PINS, |p, a| {
        obc(p, a, phy, &smoke, DynSearch::Exhaustive)
    });
    check_design_pins("SA", &SA_PINS, |p, a| {
        simulated_annealing(p, a, phy, &smoke, &sa)
    });
}

#[test]
fn network_optimisation_matches_the_recorded_buses() {
    let (smoke, _) = search_mode("smoke").expect("known mode");
    for &(scenario, evaluations, f1, f2, clusters) in &NET_PINS {
        let (nodes, n_clusters, tasks_per_node, graph_size, seed, max_rounds) = scenario;
        let cfg = GeneratorConfig {
            tasks_per_node,
            graph_size,
            ..GeneratorConfig::clustered(nodes, n_clusters)
        };
        let g = generate(&cfg, seed).expect("generator");
        let topo = NetworkTopology {
            clusters: g.clusters,
            node_cluster: g.node_cluster.clone(),
            gateways: g.gateways.clone(),
        };
        let r = optimise_network(&g.platform, &g.app, &topo, cfg.phy, &smoke, max_rounds)
            .expect("analysable network");
        assert_eq!(
            (
                r.evaluations,
                r.cost.f1.to_bits(),
                r.cost.f2.to_bits(),
                r.clusters.len()
            ),
            (evaluations, f1, f2, clusters.len()),
            "scenario {scenario:?}"
        );
        for (c, (bus, &(n_minislots, fids, owners))) in r.clusters.iter().zip(clusters).enumerate()
        {
            let got_fids: Vec<(usize, u16)> = bus
                .frame_ids
                .iter()
                .map(|(m, f)| (m.index(), f.number()))
                .collect();
            let got_owners: Vec<usize> = bus.static_slot_owners.iter().map(|n| n.index()).collect();
            assert_eq!(
                (bus.n_minislots, got_fids.as_slice(), got_owners.as_slice()),
                (n_minislots, fids, owners),
                "scenario {scenario:?} cluster {c}"
            );
        }
    }
}
