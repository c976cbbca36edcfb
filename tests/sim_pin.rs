//! Bit-identity pins of the simulator.
//!
//! The values were recorded before the wake-up queue was rebuilt around
//! a pre-sorted hyperperiod template of the table-driven wake-ups. The
//! rebuild keeps the canonical service order, so every report, and the
//! number of wake-ups serviced to produce it, must match exactly (see
//! `NET_PINS` for the one tie the old queue left open).

use flexray::analysis::{build_schedule, MessageEntry, ScheduleTable};
use flexray::gen::{generate, GeneratorConfig};
use flexray::opt::{bbc, optimise_network, NetworkTopology};
use flexray::*;
use flexray_bench::sweep::search_mode;

/// Hyperperiods per simulation: long enough for compression to find a
/// cycle and skip part of the run.
const REPS: i64 = 12;

/// The execution orders of every pinned system.
const ORDERS: [ExecutionOrder; 3] = [
    ExecutionOrder::Canonical,
    ExecutionOrder::Fuzzed { seed: 0x5EED_0001 },
    ExecutionOrder::Fuzzed { seed: 0x5EED_0002 },
];

/// `(nodes, seed, mode, late, digest, wakeups)` of a `paper(nodes)`
/// system generated from `seed` and configured by BBC with the
/// parameters of search `mode`. `late` delays every ST delivery of the
/// static table by a third of the hyperperiod, which breaks precedence
/// (violations) and carries deliveries across the hyperperiod boundary.
/// `digest` is FNV-1a over the six reports (each order, compression off
/// then on) without their `wakeups`, which are listed in the same
/// order. The `full` entry was re-recorded once the engine sent the DYN
/// frames a run leaves buffered past its last hyperperiod: 2,686 of its
/// 2,688 jobs finished before, all of them since, with 20 more wake-ups.
type SimPin = (usize, u64, &'static str, bool, u64, [u64; 6]);

#[rustfmt::skip]
const SIM_PINS: [SimPin; 21] = [
    (2, 0, "smoke", false, 0xb8c76f84eabc0725, [2952, 492, 2952, 492, 2952, 492]),
    (2, 1, "smoke", false, 0xe7d5122bdd614fbd, [1692, 282, 1692, 282, 1692, 282]),
    (2, 2, "smoke", false, 0x45e2ecf9187bd85d, [2892, 482, 2892, 482, 2892, 482]),
    (2, 2, "smoke", true , 0xd4585fd29d84e9ad, [2892, 482, 2892, 482, 2892, 482]),
    (2, 3, "smoke", false, 0xaf21d79eb6639391, [2400, 400, 2400, 400, 2400, 400]),
    (3, 0, "smoke", false, 0x170c934974305a99, [1656, 276, 1656, 276, 1656, 276]),
    (3, 1, "smoke", false, 0xc82d68d458355ded, [4140, 690, 4140, 690, 4140, 690]),
    (3, 2, "smoke", false, 0x2578ae56c36d35d5, [3852, 642, 3852, 642, 3852, 642]),
    (3, 3, "smoke", false, 0xaab0ee8ff7508295, [3384, 564, 3384, 564, 3384, 564]),
    (3, 3, "smoke", true , 0x234dbf5e37dfe5a9, [3384, 564, 3384, 564, 3384, 564]),
    (4, 0, "smoke", false, 0x671ee2b43eaac245, [4764, 794, 4764, 794, 4764, 794]),
    (4, 0, "smoke", true , 0x4437e63937dcd4cd, [4764, 794, 4764, 794, 4764, 794]),
    (4, 1, "smoke", false, 0x23ce9b27ca849d55, [5628, 938, 5628, 938, 5628, 938]),
    (4, 2, "smoke", false, 0x8ff325620c62b773, [6000, 1000, 6000, 1000, 6000, 1000]),
    (4, 3, "smoke", false, 0xcb994a9d812d2945, [5184, 864, 5184, 864, 5184, 864]),
    (5, 0, "smoke", false, 0x5a2a8b8fa305ff3d, [7596, 1266, 7596, 1266, 7596, 1266]),
    (5, 1, "smoke", false, 0x5db4a2b29406055d, [8268, 1378, 8268, 1378, 8268, 1378]),
    (5, 1, "smoke", true , 0x77b1e2ef948e441d, [8268, 1378, 8268, 1378, 8268, 1378]),
    (5, 2, "smoke", false, 0x1033caba3a7aedd1, [7608, 1268, 7608, 1268, 7608, 1268]),
    (5, 3, "smoke", false, 0xf560ce908b107579, [8292, 1382, 8292, 1382, 8292, 1382]),
    (5, 2, "full", false, 0x083753b2e5477de5, [7540, 1270, 7540, 1270, 7540, 1270]),
];

/// `((nodes, clusters, seed), digest, wakeups)` of a network optimised
/// by `optimise_network` (`mode=smoke`, one round) on a light
/// `GeneratorConfig::clustered` scenario. The digests were recorded
/// with the pre-template queue; so were the wake-ups except the
/// canonical 3-cluster pair. The old heap broke the tie between two
/// clusters' simultaneous dynamic slots arbitrarily and needed 4771 and
/// 791 wake-ups there. The total order (cluster last) serves the
/// lower cluster first and needs 4783 and 793 for identical reports.
/// The 3-cluster entry was re-recorded once the engine sent the DYN
/// frames that trailing completions make ready past the last
/// hyperperiod: 1,376 of its 1,380 jobs finished before, all of them
/// since, with equal responses and 36 to 94 more wake-ups.
type NetPin = ((usize, usize, u64), u64, [u64; 6]);

#[rustfmt::skip]
const NET_PINS: [NetPin; 3] = [
    ((6, 2, 1), 0xd2cba450e09ec527, [3072, 512, 3000, 500, 3000, 500]),
    ((6, 3, 2), 0xce45d34a95e9021d, [4877, 887, 4838, 878, 4838, 878]),
    ((4, 2, 3), 0x8f397e13fd46b7d9, [2004, 334, 2004, 334, 2004, 334]),
];

fn fnv1a(h: u64, text: &str) -> u64 {
    text.bytes()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What the pinned runs covered: reports with violations, with
/// unfinished jobs, and with skipped hyperperiods.
#[derive(Default)]
struct Coverage {
    violating: usize,
    unfinished: usize,
    compressed: usize,
}

/// Simulates `sys` against `table` in every order, compression off then
/// on, and returns the digest of the reports and their wake-up counts.
fn pin_runs<'a>(
    sys: impl Into<SystemView<'a>>,
    table: &'a ScheduleTable,
    coverage: &mut Coverage,
) -> (u64, [u64; 6]) {
    let sys = sys.into();
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut wakeups = [0; 6];
    for (i, &order) in ORDERS.iter().enumerate() {
        for (j, compress) in [false, true].into_iter().enumerate() {
            let cfg = SimConfig {
                reps: REPS,
                order,
                compress,
            };
            let r = simulate(sys, table, &cfg).expect("simulation");
            digest = fnv1a(
                digest,
                &format!(
                    "{:?}|{}|{}|{:?}|{}|{}",
                    r.responses,
                    r.completed_jobs,
                    r.total_jobs,
                    r.violations,
                    r.hyperperiods_simulated,
                    r.hyperperiods_skipped
                ),
            );
            wakeups[2 * i + j] = r.wakeups;
            coverage.violating += usize::from(!r.violations.is_empty());
            coverage.unfinished += usize::from(r.completed_jobs < r.total_jobs);
            coverage.compressed += usize::from(r.hyperperiods_skipped > 0);
        }
    }
    (digest, wakeups)
}

/// The static table `simulate_configured` follows.
fn table_of(sys: SystemView<'_>) -> ScheduleTable {
    let bounds: Vec<Time> = sys.app.ids().map(|id| sys.duration_of(id)).collect();
    build_schedule(sys, &bounds).expect("static schedule")
}

/// `table` with every ST delivery a third of the hyperperiod late.
fn delay_deliveries(table: &ScheduleTable) -> ScheduleTable {
    let late = table.horizon() / 3;
    let mut out = ScheduleTable::new(table.horizon());
    for &e in table.tasks() {
        out.push_task(e);
    }
    for &e in table.messages() {
        out.push_message(MessageEntry {
            tx_start: e.tx_start + late,
            tx_end: e.tx_end + late,
            slot_end: e.slot_end + late,
            ..e
        });
    }
    out
}

#[test]
fn single_bus_simulations_match_the_recorded_reports() {
    // BBC's smoke-scale search on paper(2..=5) seeds 0–3, plus a system
    // whose full-scale BBC bus leaves DYN frames buffered at the last
    // hyperperiod boundary (the drain sends them).
    let systems = (2..=5usize)
        .flat_map(|n| (0..4u64).map(move |s| (n, s, "smoke")))
        .chain([(5, 2, "full")]);
    let mut coverage = Coverage::default();
    let mut got = Vec::new();
    for (nodes, seed, mode) in systems {
        let (params, _) = search_mode(mode).expect("known mode");
        let cfg = GeneratorConfig::paper(nodes);
        let g = generate(&cfg, seed).expect("generator");
        let bus = bbc(&g.platform, &g.app, cfg.phy, &params).bus;
        let sys = System::validated(g.platform, g.app, bus).expect("valid system");
        let table = table_of(sys.view());
        let (digest, wakeups) = pin_runs(&sys, &table, &mut coverage);
        got.push((nodes, seed, mode, false, digest, wakeups));
        if seed == nodes as u64 % 4 {
            let late = delay_deliveries(&table);
            let (digest, wakeups) = pin_runs(&sys, &late, &mut coverage);
            got.push((nodes, seed, mode, true, digest, wakeups));
        }
    }
    assert_eq!(got.as_slice(), SIM_PINS.as_slice());
    assert!(coverage.violating > 0, "no pinned run reports a violation");
    assert!(coverage.compressed > 0, "no pinned run skips a hyperperiod");
}

#[test]
fn network_simulations_match_the_recorded_reports() {
    let (smoke, _) = search_mode("smoke").expect("known mode");
    let mut coverage = Coverage::default();
    let mut got = Vec::new();
    for (nodes, clusters, seed) in [(6, 2, 1), (6, 3, 2), (4, 2, 3)] {
        let cfg = GeneratorConfig {
            tasks_per_node: 4,
            ..GeneratorConfig::clustered(nodes, clusters)
        };
        let g = generate(&cfg, seed).expect("generator");
        let topo = NetworkTopology {
            clusters: g.clusters,
            node_cluster: g.node_cluster.clone(),
            gateways: g.gateways.clone(),
        };
        let r = optimise_network(&g.platform, &g.app, &topo, cfg.phy, &smoke, 1)
            .expect("analysable network");
        let net = r
            .into_network(g.platform, g.app, &topo)
            .expect("network validates");
        let table = table_of(net.view());
        let (digest, wakeups) = pin_runs(net.view(), &table, &mut coverage);
        got.push(((nodes, clusters, seed), digest, wakeups));
    }
    assert_eq!(got.as_slice(), NET_PINS.as_slice());
    assert!(coverage.compressed > 0, "no pinned run skips a hyperperiod");
}

/// `(digest, wakeups)`, as in `SIM_PINS`, of `paper(3)` seed 0 with every
/// node loaded five to six times over, configured by BBC's smoke search.
/// Its CPUs starve, so no run can finish every job.
const OVERLOADED_PIN: (u64, [u64; 6]) = (0xf172e65f03bb1bd9, [2241; 6]);

#[test]
fn an_overloaded_simulation_matches_its_recorded_report() {
    let (params, _) = search_mode("smoke").expect("known mode");
    let cfg = GeneratorConfig {
        node_util: (5.0, 6.0),
        ..GeneratorConfig::paper(3)
    };
    let g = generate(&cfg, 0).expect("generator");
    let bus = bbc(&g.platform, &g.app, cfg.phy, &params).bus;
    let sys = System::validated(g.platform, g.app, bus).expect("valid system");
    let mut coverage = Coverage::default();
    let got = pin_runs(&sys, &table_of(sys.view()), &mut coverage);
    assert_eq!(got, OVERLOADED_PIN);
    assert_eq!(coverage.unfinished, 6, "a run finished every job");
}
