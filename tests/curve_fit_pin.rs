//! Bit-identity pin of the curve-fitting DYN-length search (OBCCF).
//!
//! The values below were recorded before the curve fit's inner loop was
//! rewritten (column-wise Newton evaluation, in-place polynomial
//! rebuilds, seed-bounded pruning). The rewrite performs the same
//! floating-point operations in the same order for every candidate it
//! costs, so evaluation counts, chosen lengths, cost bits and buses must
//! match exactly.

use flexray::gen::{generate, GeneratorConfig};
use flexray::opt::{bbc_skeleton, determine_dyn_length, Evaluator};
use flexray::*;

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
        .filter(|p| p.2 >= params.cf_initial_points + 10)
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

#[test]
fn obc_curve_fit_matches_the_recorded_bits_on_the_design_apps() {
    for &(nodes, seed, evaluations, f1, f2, n_minislots, bus_hash) in &OBC_PINS {
        let g = generate(&GeneratorConfig::paper(nodes), seed).expect("generator");
        let r = obc(
            &g.platform,
            &g.app,
            PhyParams::bmw_like(),
            &OptParams::default(),
            DynSearch::CurveFit,
        );
        assert_eq!(
            (
                r.evaluations,
                r.cost.f1.to_bits(),
                r.cost.f2.to_bits(),
                r.bus.n_minislots,
                fnv1a(&format!("{:?}", r.bus)),
            ),
            (evaluations, f1, f2, n_minislots, bus_hash),
            "paper({nodes}) seed {seed}"
        );
    }
}
