//! End-to-end pipeline tests: generator → optimiser → analysis →
//! simulator, spanning all five crates.

use flexray::gen::{generate, GeneratorConfig};
use flexray::*;

/// Fast-but-meaningful optimiser parameters for test budgets.
fn test_params() -> OptParams {
    OptParams {
        max_extra_slots: 3,
        max_slot_len_steps: 4,
        max_dyn_candidates: 48,
        dyn_step: 8,
        ..OptParams::default()
    }
}

#[test]
fn generated_systems_round_trip_through_the_whole_stack() {
    for seed in [1u64, 2, 3] {
        let generated = generate(&GeneratorConfig::small(2), seed).expect("generator");
        let result = obc(
            &generated.platform,
            &generated.app,
            PhyParams::bmw_like(),
            &test_params(),
            DynSearch::CurveFit,
        );
        // The optimiser must always return a protocol-valid configuration.
        result
            .bus
            .validate_for(&generated.app, generated.platform.len())
            .expect("optimiser emitted a valid bus configuration");

        let sys = System::validated(
            generated.platform.clone(),
            generated.app.clone(),
            result.bus.clone(),
        )
        .expect("system validates");
        let analysis = analyse(&sys, &AnalysisConfig::default()).expect("analysis runs");
        let report = simulate_default(&sys).expect("simulation runs");

        if result.is_schedulable() {
            // Analysis says schedulable: the simulator must agree on
            // every instance.
            let findings = report.audit(&sys, &analysis).describe(&sys.app);
            assert!(findings.is_empty(), "seed {seed}: {findings:?}");
        }
    }
}

/// Lightens a scenario configuration so the optimisers find schedulable
/// configurations on big/deep/gateway systems within test budgets: the
/// point of the cross-validation suite is exercising schedulable
/// non-paper scenarios, not stressing the optimisers.
fn lighten(cfg: GeneratorConfig) -> GeneratorConfig {
    GeneratorConfig {
        node_util: (0.10, 0.20),
        bus_util: (0.05, 0.15),
        et_deadline_factor: 4.0,
        tt_fraction: 0.25,
        ..cfg
    }
}

/// Simulation cross-validation over seeded scenarios: wherever the
/// analysis declares the optimised system schedulable, the independent
/// discrete-event simulator must agree: every job finishes, and every
/// activity is observed within its WCRT and its deadline. Returns the
/// number of schedulable instances checked.
fn cross_validate(label: &str, cfg: &GeneratorConfig, seeds: &[u64]) -> usize {
    let mut checked = 0;
    for &seed in seeds {
        let generated = generate(cfg, seed).expect("generator");
        let result = obc(
            &generated.platform,
            &generated.app,
            cfg.phy,
            &test_params(),
            DynSearch::CurveFit,
        );
        result
            .bus
            .validate_for(&generated.app, generated.platform.len())
            .expect("optimiser emitted a valid bus configuration");
        if !result.is_schedulable() {
            continue;
        }
        let sys = System::validated(
            generated.platform.clone(),
            generated.app.clone(),
            result.bus.clone(),
        )
        .expect("system validates");
        let analysis = analyse(&sys, &AnalysisConfig::default()).expect("analysis runs");
        checked += 1;
        let report = simulate_default(&sys).expect("simulation runs");
        let findings = report.audit(&sys, &analysis).describe(&sys.app);
        assert!(findings.is_empty(), "{label} seed {seed}: {findings:?}");
    }
    checked
}

#[test]
fn simulation_cross_validates_large_node_counts() {
    // 10 and 20 nodes: far beyond the paper's 2–7-node envelope.
    let ten = lighten(GeneratorConfig::small(10));
    let twenty = lighten(GeneratorConfig::small(20));
    let checked =
        cross_validate("nodes=10", &ten, &[1, 2, 3]) + cross_validate("nodes=20", &twenty, &[1, 2]);
    assert!(checked > 0, "no schedulable large instance sampled");
}

#[test]
fn simulation_cross_validates_deep_chains() {
    // depth-10 chains: twice as deep as any paper graph.
    let cfg = lighten(GeneratorConfig::deep(4, 10));
    let checked = cross_validate("depth=10", &cfg, &[1, 2, 3]);
    assert!(checked > 0, "no schedulable deep instance sampled");
}

#[test]
fn simulation_cross_validates_gateway_traffic() {
    // 60 % of cross-node dependencies relayed through node 7 (small
    // task census: scale is covered by the large-node-count test).
    let cfg = lighten(GeneratorConfig {
        gateway_fraction: 0.6,
        gateways: vec![7],
        ..GeneratorConfig::small(8)
    });
    let generated = generate(&cfg, 1).expect("generator");
    assert!(
        generated
            .app
            .ids()
            .any(|id| generated.app.activity(id).name.contains("_gw")),
        "gateway scenario produced no relays"
    );
    let checked = cross_validate("gateway=0.6", &cfg, &[1, 2, 3]);
    assert!(checked > 0, "no schedulable gateway instance sampled");
}

#[test]
fn simulation_cross_validates_the_grid_corner_points() {
    // The extreme corner of the factorial grid envelope: maximum node
    // count × maximum chain depth × nonzero gateway traffic, derived
    // through the same axis chaining the grid engine uses.
    use flexray_bench::grid::{GridConfig, SeedPolicy};
    use flexray_bench::sweep::{Algo, SweepAxis};

    let grid = GridConfig {
        base: lighten(GeneratorConfig {
            tasks_per_node: 4,
            graph_size: 4,
            ..GeneratorConfig::paper(2)
        }),
        axes: vec![
            SweepAxis::NodeCount(vec![4, 10]),
            SweepAxis::GraphDepth(vec![4, 8]),
            SweepAxis::GatewayFraction(vec![0.0, 0.5]),
        ],
        apps_per_point: 1,
        algos: vec![Algo::ObcCf],
        params: test_params(),
        sa: SaParams::default(),
        seed0: 1,
        seed_policy: SeedPolicy::PointIndex,
        threads: 1,
        workload: None,
    };
    grid.validate().expect("grid validates");
    let corner = grid.point(grid.total_points() - 1);
    assert_eq!(corner.label, "nodes=10,depth=8,gateway=0.50");
    assert_eq!(corner.config.n_nodes, 10);
    assert_eq!(corner.config.graph_size, 8);
    assert_eq!(corner.config.gateway_fraction, 0.5);

    let checked = cross_validate(&corner.label, &corner.config, &[1, 2, 3, 4]);
    assert!(checked > 0, "no schedulable corner instance sampled");
}

#[test]
fn simulation_cross_validates_two_cluster_networks() {
    // A generated two-cluster scenario crosses the whole multi-cluster
    // stack: joint network optimisation, holistic analysis with relayed
    // traffic, and the component simulator routing frames across both
    // buses — wherever the analysis declares the network schedulable,
    // the simulator must agree.
    use flexray::opt::{optimise_network, NetworkTopology};

    let cfg = lighten(GeneratorConfig::clustered(6, 2));
    let mut checked = 0;
    for seed in [1u64, 2, 3, 4] {
        let generated = generate(&cfg, seed).expect("generator");
        assert_eq!(generated.clusters, 2, "seed {seed}");
        let topo = NetworkTopology {
            clusters: generated.clusters,
            node_cluster: generated.node_cluster.clone(),
            gateways: generated.gateways.clone(),
        };
        let result = optimise_network(
            &generated.platform,
            &generated.app,
            &topo,
            cfg.phy,
            &test_params(),
            4,
        )
        .expect("network optimisation runs");
        if !result.is_schedulable() {
            continue;
        }
        let net = result
            .into_network(generated.platform.clone(), generated.app.clone(), &topo)
            .expect("network validates");
        let analysis = analyse(net.view(), &AnalysisConfig::default()).expect("analysis runs");
        let report = simulate_default(net.view()).expect("simulation runs");
        checked += 1;
        let findings = report.audit(net.view(), &analysis).describe(&net.app);
        assert!(findings.is_empty(), "seed {seed}: {findings:?}");
    }
    assert!(checked > 0, "no schedulable two-cluster instance sampled");
}

#[test]
fn generator_stats_match_the_validated_system_ground_truth() {
    // The per-point generator statistics the grid report carries must
    // agree with quantities recomputed independently on the validated,
    // optimised and simulated system — not just with the generator's
    // own bookkeeping.
    let cfg = lighten(GeneratorConfig {
        gateway_fraction: 0.6,
        gateways: vec![7],
        ..GeneratorConfig::small(8)
    });
    let mut validated_schedulable = 0;
    for seed in [1u64, 2, 3] {
        let generated = generate(&cfg, seed).expect("generator");
        let stats = generated.stats(&cfg.phy).expect("stats");

        // relay count == the relays visible in the emitted application
        let named_relays = generated
            .app
            .ids()
            .filter(|&id| generated.app.activity(id).name.contains("_gw"))
            .count();
        assert_eq!(stats.relay_tasks, named_relays, "seed {seed}");

        // census and depth histogram against the application structure
        let tasks = generated
            .app
            .ids()
            .filter(|&id| generated.app.activity(id).as_task().is_some())
            .count();
        let c = &stats.workload.census;
        assert_eq!(c.scs_tasks + c.fps_tasks, tasks, "seed {seed}");
        assert_eq!(
            stats.workload.depth_histogram.iter().sum::<usize>(),
            generated.app.graphs().len(),
            "seed {seed}: every graph in exactly one depth bucket"
        );
        let max_depth = (0..generated.app.graphs().len())
            .map(|gi| {
                generated
                    .app
                    .task_depth(flexray::model::GraphId::new(gi))
                    .expect("acyclic")
            })
            .max()
            .expect("graphs exist");
        assert_eq!(
            stats.workload.depth_histogram.len(),
            max_depth + 1,
            "seed {seed}"
        );

        // node utilisation summary against an independent recomputation
        let util = generated.app.node_utilisation();
        let per_node: Vec<f64> = generated
            .platform
            .nodes()
            .map(|n| util.get(&n).copied().unwrap_or(0.0))
            .collect();
        let max = per_node.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (stats.workload.node_util.max - max).abs() < 1e-12,
            "seed {seed}"
        );

        // optimise, validate, simulate: the achieved bus utilisation
        // must equal the one the validated system reports (payload
        // sizes are untouched by the optimisers)
        let result = obc(
            &generated.platform,
            &generated.app,
            cfg.phy,
            &test_params(),
            DynSearch::CurveFit,
        );
        let sys = System::validated(
            generated.platform.clone(),
            generated.app.clone(),
            result.bus.clone(),
        )
        .expect("system validates");
        let sys_util = sys.bus_utilisation().expect("bus utilisation");
        assert!(
            (stats.workload.bus_util - sys_util).abs() < 1e-12,
            "seed {seed}: generator-reported {} vs system {sys_util}",
            stats.workload.bus_util
        );
        let sys_stats = sys.workload_stats().expect("system stats");
        assert_eq!(sys_stats.census, stats.workload.census, "seed {seed}");
        assert_eq!(
            sys_stats.depth_histogram, stats.workload.depth_histogram,
            "seed {seed}"
        );

        // and the simulator accepts the same system the stats describe
        if result.is_schedulable() {
            let report = simulate_default(&sys).expect("simulation runs");
            assert!(report.violations.is_empty(), "seed {seed}");
            validated_schedulable += 1;
        }
    }
    assert!(
        validated_schedulable > 0,
        "no schedulable instance reached the simulator"
    );
}

#[test]
fn optimiser_ranking_is_consistent() {
    // On any input: OBCEE >= OBCCF is not guaranteed, but SA and OBCEE
    // must both be at least as good as BBC (they explore supersets /
    // start from its result).
    let generated = generate(&GeneratorConfig::small(3), 11).expect("generator");
    let phy = PhyParams::bmw_like();
    let params = test_params();
    let bbc_r = bbc(&generated.platform, &generated.app, phy, &params);
    let ee = obc(
        &generated.platform,
        &generated.app,
        phy,
        &params,
        DynSearch::Exhaustive,
    );
    let sa = simulated_annealing(
        &generated.platform,
        &generated.app,
        phy,
        &params,
        &SaParams {
            iterations: 50,
            ..SaParams::default()
        },
    );
    assert!(
        !bbc_r.cost.better_than(&ee.cost),
        "BBC {:?} beat OBCEE {:?}",
        bbc_r.cost,
        ee.cost
    );
    assert!(
        !bbc_r.cost.better_than(&sa.cost),
        "BBC {:?} beat SA {:?}",
        bbc_r.cost,
        sa.cost
    );
}

#[test]
fn analysis_is_deterministic() {
    let generated = generate(&GeneratorConfig::small(2), 5).expect("generator");
    let result = bbc(
        &generated.platform,
        &generated.app,
        PhyParams::bmw_like(),
        &test_params(),
    );
    let sys =
        System::validated(generated.platform, generated.app, result.bus).expect("system validates");
    let a1 = analyse(&sys, &AnalysisConfig::default()).expect("first run");
    let a2 = analyse(&sys, &AnalysisConfig::default()).expect("second run");
    assert_eq!(a1.responses, a2.responses);
    assert_eq!(a1.cost, a2.cost);
}

#[test]
fn exact_dyn_mode_also_bounds_the_simulation() {
    use flexray::analysis::DynAnalysisMode;
    let generated = generate(&GeneratorConfig::small(3), 9).expect("generator");
    let result = bbc(
        &generated.platform,
        &generated.app,
        PhyParams::bmw_like(),
        &test_params(),
    );
    let sys =
        System::validated(generated.platform, generated.app, result.bus).expect("system validates");
    let exact = analyse(
        &sys,
        &AnalysisConfig {
            dyn_mode: DynAnalysisMode::Exact,
            ..AnalysisConfig::default()
        },
    )
    .expect("exact");
    // The system is schedulable under Exact too: the full judge holds.
    assert!(exact.is_schedulable());
    let report = simulate_default(&sys).expect("simulation");
    let findings = report.audit(&sys, &exact).describe(&sys.app);
    assert!(findings.is_empty(), "{findings:?}");
}

/// Million-cycle soak on the cruise-controller case study: with
/// hyperperiod compression on, the simulator event-steps only until the
/// boundary state repeats and fast-forwards over the rest of a horizon
/// of at least 10^6 bus cycles.
#[test]
fn compression_covers_a_million_cruise_cycles_in_two_hyperperiods() {
    let (platform, app) = gen::cruise_controller(120.0).expect("cruise model");
    let result = obc(
        &platform,
        &app,
        PhyParams::bmw_like(),
        &OptParams::default(),
        DynSearch::CurveFit,
    );
    let sys = System {
        platform,
        app,
        bus: result.bus,
    };
    let bounds: Vec<_> = sys.app.ids().map(|id| sys.duration_of(id)).collect();
    let table = analysis::build_schedule(&sys, &bounds).expect("schedule");

    let horizon = sys.app.hyperperiod().expect("hyperperiod");
    let cycles_per_rep = horizon.div_ceil(sys.bus.gd_cycle()).max(1);
    let reps = (1_000_000 + cycles_per_rep - 1) / cycles_per_rep;
    assert!(cycles_per_rep * reps >= 1_000_000);

    let cfg = SimConfig {
        reps,
        compress: true,
        order: ExecutionOrder::Canonical,
    };
    let report = simulate(&sys, &table, &cfg).expect("simulation");
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(
        report.hyperperiods_simulated + report.hyperperiods_skipped,
        reps
    );
    assert_eq!(report.hyperperiods_simulated, 2, "over {reps} hyperperiods");
}
