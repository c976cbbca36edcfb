//! Seeded synthetic application generator.
//!
//! Follows the recipe of Section 7: tasks are grouped into DAGs, mapped
//! evenly onto the nodes, cross-node edges become messages (static for
//! time-triggered graphs, dynamic for event-triggered ones), and
//! execution/transmission times are scaled to hit per-node and bus
//! utilisation targets drawn from the configured ranges.
//!
//! Beyond the paper's envelope, three scenario axes are opt-in; each
//! draws nothing from the random stream at its paper value, so a paper
//! configuration's output does not depend on the others:
//!
//! * **shape** — random DAGs (paper) or chains
//!   ([`GraphShape`](crate::GraphShape));
//! * **gateway traffic** — a configurable fraction of cross-node
//!   dependencies is relayed through designated gateway nodes as
//!   `sender → msg → relay task → msg → receiver`, so the analysis and
//!   the simulator apply unchanged;
//! * **clusters** — the non-gateway nodes are split over several buses,
//!   and every cross-cluster dependency is relayed through a gateway.
//!
//! When the graph size does not tile the task count, the leftover tasks
//! form a final, smaller graph; no task is dropped.

use crate::{GenStats, GeneratorConfig, GraphShape};
use flexray_model::{
    ActivityId, Application, GraphId, MessageClass, ModelError, NodeId, PhyParams, Platform,
    SchedPolicy, Time, WorkloadStats,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A generated benchmark instance: platform and application (the bus
/// configurations are left to the optimisers).
#[derive(Debug, Clone)]
pub struct Generated {
    /// The processing nodes.
    pub platform: Platform,
    /// The task graphs.
    pub app: Application,
    /// The seed it was generated from (for reporting).
    pub seed: u64,
    /// Gateway relay tasks inserted during generation (on top of the
    /// configured task count).
    pub relay_tasks: usize,
    /// Number of FlexRay clusters the scenario targets (1 = single
    /// bus, the paper's setting).
    pub clusters: usize,
    /// Home cluster of each node. Gateway nodes are homed on cluster 0
    /// but attach to every cluster.
    pub node_cluster: Vec<u16>,
    /// Designated gateway nodes (sorted, deduplicated).
    pub gateways: Vec<NodeId>,
}

impl Generated {
    /// Achieved statistics of this instance, measuring message payloads
    /// against `phy` (usually [`GeneratorConfig::phy`]).
    ///
    /// # Errors
    ///
    /// See [`WorkloadStats::collect`].
    pub fn stats(&self, phy: &PhyParams) -> Result<GenStats, ModelError> {
        Ok(GenStats {
            seed: self.seed,
            relay_tasks: self.relay_tasks,
            workload: WorkloadStats::collect(&self.platform, &self.app, phy)?,
        })
    }
}

/// Graph periods are drawn from this harmonic pool (µs), which keeps
/// the hyperperiod small.
const PERIOD_POOL_US: [f64; 3] = [10_000.0, 20_000.0, 40_000.0];

/// Probability that a non-root task of a [`GraphShape::Random`] DAG
/// gets a second predecessor (fan-in).
const FAN_IN_PROB: f64 = 0.3;

/// Generates one synthetic application.
///
/// The output is deterministic in `(cfg, seed)`.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] when the configuration fails
/// [`GeneratorConfig::validate`], and any validation error of the
/// generated application (a generator bug — surfaced rather than
/// hidden).
pub fn generate(cfg: &GeneratorConfig, seed: u64) -> Result<Generated, ModelError> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut app = Application::new();
    let node_cluster = assign_clusters(cfg);

    let plan = cfg.graph_plan();
    let n_graphs = plan.len();
    let n_tt = (n_graphs as f64 * cfg.tt_fraction).round() as usize;

    // Balanced mapping pool: each node appears `tasks_per_node` times.
    let mut node_pool: Vec<NodeId> = (0..cfg.n_nodes)
        .flat_map(|n| std::iter::repeat_n(NodeId::new(n), cfg.tasks_per_node))
        .collect();
    node_pool.shuffle(&mut rng);

    // Per-graph periods and kinds; the plan assigns every task to
    // exactly one graph (sum(plan) == total_tasks).
    let mut task_ids: Vec<Vec<ActivityId>> = Vec::with_capacity(n_graphs);
    let mut graph_is_tt: Vec<bool> = Vec::with_capacity(n_graphs);
    let mut pool_cursor = 0usize;
    for (gi, &size) in plan.iter().enumerate() {
        let period_us = PERIOD_POOL_US[rng.gen_range(0..PERIOD_POOL_US.len())];
        let period = Time::from_us(period_us);
        let is_tt = gi < n_tt;
        let deadline = if is_tt {
            period
        } else {
            Time::from_us(period_us * cfg.et_deadline_factor)
        };
        let g = app.add_graph(
            &format!("{}{gi}", if is_tt { "tt" } else { "et" }),
            period,
            deadline,
        );
        graph_is_tt.push(is_tt);
        let policy = if is_tt {
            SchedPolicy::Scs
        } else {
            SchedPolicy::Fps
        };
        let mut ids = Vec::with_capacity(size);
        for ti in 0..size {
            let node = node_pool[pool_cursor];
            pool_cursor += 1;
            // Raw WCET, rescaled later per node.
            let raw = rng.gen_range(10..100);
            let prio = rng.gen_range(1..1000);
            let id = app.add_task(
                g,
                &format!("g{gi}_t{ti}"),
                node,
                Time::from_us(f64::from(raw)),
                policy,
                prio,
            );
            ids.push(id);
        }
        task_ids.push(ids);
    }
    debug_assert_eq!(pool_cursor, cfg.total_tasks(), "plan assigns every task");

    // Shape-dependent DAG edges within each graph; cross-node edges get
    // messages, a configured fraction of them relayed through a gateway.
    let mut relay_tasks = 0usize;
    for (gi, ids) in task_ids.iter().enumerate() {
        let g = app.activity(ids[0]).graph;
        let is_tt = graph_is_tt[gi];
        for ti in 1..ids.len() {
            let preds = draw_preds(cfg, &mut rng, ti);
            for &pi in &preds {
                relay_tasks += usize::from(emit_dependency(
                    &mut app,
                    cfg,
                    &node_cluster,
                    &mut rng,
                    g,
                    gi,
                    is_tt,
                    ids[pi],
                    ids[ti],
                    pi,
                    ti,
                )?);
            }
        }
    }

    scale_node_utilisation(&mut app, cfg, &mut rng);
    scale_bus_utilisation(&mut app, cfg, &mut rng);

    app.validate()?;
    let mut gateways: Vec<NodeId> = cfg.gateways.iter().map(|&n| NodeId::new(n)).collect();
    gateways.sort_unstable();
    gateways.dedup();
    Ok(Generated {
        platform: Platform::with_nodes(cfg.n_nodes),
        app,
        seed,
        relay_tasks,
        clusters: cfg.clusters,
        node_cluster,
        gateways,
    })
}

/// Deterministic home clusters: gateway nodes are homed on cluster 0,
/// the remaining nodes are split into `clusters` contiguous,
/// near-equal groups in node order. No RNG is consumed, so the
/// clustering never perturbs the generation stream.
fn assign_clusters(cfg: &GeneratorConfig) -> Vec<u16> {
    let mut node_cluster = vec![0u16; cfg.n_nodes];
    if cfg.clusters <= 1 {
        return node_cluster;
    }
    let members: Vec<usize> = (0..cfg.n_nodes)
        .filter(|n| !cfg.gateways.contains(n))
        .collect();
    for (i, &n) in members.iter().enumerate() {
        node_cluster[n] =
            u16::try_from(i * cfg.clusters / members.len()).expect("clusters fit in u16");
    }
    node_cluster
}

/// Predecessor indices of task `ti` under the configured shape. A
/// chain draws nothing from the random stream.
fn draw_preds(cfg: &GeneratorConfig, rng: &mut StdRng, ti: usize) -> Vec<usize> {
    match cfg.shape {
        GraphShape::Random => {
            let mut preds = vec![rng.gen_range(0..ti)];
            if ti >= 2 && rng.gen_bool(FAN_IN_PROB) {
                let second = rng.gen_range(0..ti);
                if !preds.contains(&second) {
                    preds.push(second);
                }
            }
            preds
        }
        GraphShape::Chain => vec![ti - 1],
    }
}

/// Realises one precedence `from → to`: a plain edge when both tasks
/// share a node, otherwise a message — direct, or relayed through a
/// gateway node for a [`GeneratorConfig::gateway_fraction`] of the
/// cross-node dependencies. With [`GeneratorConfig::clusters`] > 1 a
/// dependency between two non-gateway nodes homed on different
/// clusters is *always* relayed (a single frame cannot span two
/// buses). Returns `true` when a relay task was inserted, so
/// [`generate`] can report the achieved relay count.
#[allow(clippy::too_many_arguments)]
fn emit_dependency(
    app: &mut Application,
    cfg: &GeneratorConfig,
    node_cluster: &[u16],
    rng: &mut StdRng,
    g: GraphId,
    gi: usize,
    is_tt: bool,
    from: ActivityId,
    to: ActivityId,
    pi: usize,
    ti: usize,
) -> Result<bool, ModelError> {
    let class = if is_tt {
        MessageClass::Static
    } else {
        MessageClass::Dynamic
    };
    let node_from = app.activity(from).as_task().expect("task").node;
    let node_to = app.activity(to).as_task().expect("task").node;
    if node_from == node_to {
        app.add_edge(from, to)?;
        return Ok(false);
    }
    // Gateway routing: only consulted (and only consuming random draws)
    // when a multi-cluster or relay mode is on, keeping paper streams
    // bit-identical.
    let is_gw = |n: NodeId| cfg.gateways.contains(&n.index());
    let forced = cfg.clusters > 1
        && !is_gw(node_from)
        && !is_gw(node_to)
        && node_cluster[node_from.index()] != node_cluster[node_to.index()];
    let gateway = if forced {
        // Any gateway bridges the two clusters (gateways attach to
        // every bus); neither endpoint is one, so no filtering needed.
        let eligible: Vec<NodeId> = cfg.gateways.iter().map(|&n| NodeId::new(n)).collect();
        match eligible.len() {
            1 => Some(eligible[0]),
            n => Some(eligible[rng.gen_range(0..n)]),
        }
    } else if cfg.gateway_fraction > 0.0 && rng.gen_bool(cfg.gateway_fraction) {
        let eligible: Vec<NodeId> = cfg
            .gateways
            .iter()
            .map(|&n| NodeId::new(n))
            .filter(|&n| n != node_from && n != node_to)
            .collect();
        match eligible.len() {
            0 => None, // both endpoints are gateways: send directly
            1 => Some(eligible[0]),
            n => Some(eligible[rng.gen_range(0..n)]),
        }
    } else {
        None
    };
    let raw_bytes = 2 * rng.gen_range(1..=8u32);
    let prio = rng.gen_range(1..1000);
    match gateway {
        None => {
            let m = app.add_message(g, &format!("g{gi}_m{pi}_{ti}"), raw_bytes, class, prio);
            app.connect(from, m, to)?;
            Ok(false)
        }
        Some(gw) => {
            // Store-and-forward: both hops carry the same payload; the
            // relay is an ordinary task on the gateway node, rescaled to
            // the node utilisation target like every other task.
            let relay_wcet = rng.gen_range(5..25);
            let relay_prio = rng.gen_range(1..1000);
            let out_prio = rng.gen_range(1..1000);
            let policy = if is_tt {
                SchedPolicy::Scs
            } else {
                SchedPolicy::Fps
            };
            let relay = app.add_task(
                g,
                &format!("g{gi}_gw{pi}_{ti}"),
                gw,
                Time::from_us(f64::from(relay_wcet)),
                policy,
                relay_prio,
            );
            let m_in = app.add_message(g, &format!("g{gi}_m{pi}_{ti}i"), raw_bytes, class, prio);
            let m_out =
                app.add_message(g, &format!("g{gi}_m{pi}_{ti}o"), raw_bytes, class, out_prio);
            app.connect_relayed(from, m_in, relay, m_out, to)?;
            Ok(true)
        }
    }
}

/// Rescales task WCETs so each node's utilisation lands at a target
/// drawn from `cfg.node_util`.
fn scale_node_utilisation(app: &mut Application, cfg: &GeneratorConfig, rng: &mut StdRng) {
    for n in 0..cfg.n_nodes {
        let node = NodeId::new(n);
        let target = rng.gen_range(cfg.node_util.0..=cfg.node_util.1);
        let current: f64 = app
            .tasks_on(node)
            .map(|id| {
                let wcet = app.activity(id).as_task().expect("task").wcet;
                wcet.as_ns() as f64 / app.period_of(id).as_ns() as f64
            })
            .sum();
        if current <= 0.0 {
            continue;
        }
        let factor = target / current;
        let ids: Vec<ActivityId> = app.tasks_on(node).collect();
        for id in ids {
            let old = app.activity(id).as_task().expect("task").wcet;
            let scaled = Time::from_ns(((old.as_ns() as f64 * factor) as i64).max(1_000));
            set_wcet(app, id, scaled);
        }
    }
}

/// Rescales message sizes so total bus demand lands at a target drawn
/// from `cfg.bus_util` (sizes stay even and within the 2–254-byte
/// payload range, so extreme targets are matched best-effort).
fn scale_bus_utilisation(app: &mut Application, cfg: &GeneratorConfig, rng: &mut StdRng) {
    let Ok(h) = app.hyperperiod() else { return };
    let target = rng.gen_range(cfg.bus_util.0..=cfg.bus_util.1);
    let demand_of = |app: &Application| -> f64 {
        let mut demand = 0.0;
        for id in app.ids() {
            if let Some(m) = app.activity(id).as_message() {
                let c = cfg.phy.frame_duration(m.size_bytes);
                let inst = h / app.period_of(id);
                demand += c.as_ns() as f64 * inst as f64;
            }
        }
        demand / h.as_ns() as f64
    };
    let current = demand_of(app);
    if current <= 0.0 {
        return;
    }
    let factor = target / current;
    let ids: Vec<ActivityId> = app
        .ids()
        .filter(|&id| app.activity(id).as_message().is_some())
        .collect();
    for id in ids {
        let old = app.activity(id).as_message().expect("message").size_bytes;
        let scaled = ((old as f64 * factor) as u32).clamp(2, 254);
        let scaled = (scaled / 2) * 2; // keep the 2-byte granularity
        set_size(app, id, scaled.max(2));
    }
}

/// Replaces the WCET of a task (generator-internal mutation).
fn set_wcet(app: &mut Application, id: ActivityId, wcet: Time) {
    let spec = app.activity(id).as_task().expect("task").clone();
    app.replace_task_spec(id, flexray_model::TaskSpec { wcet, ..spec });
}

/// Replaces the payload size of a message (generator-internal mutation).
fn set_size(app: &mut Application, id: ActivityId, size_bytes: u32) {
    let spec = app.activity(id).as_message().expect("message").clone();
    app.replace_message_spec(id, flexray_model::MessageSpec { size_bytes, ..spec });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = GeneratorConfig::small(3);
        let a = generate(&cfg, 7).expect("generate");
        let b = generate(&cfg, 7).expect("generate");
        assert_eq!(a.app, b.app);
        let c = generate(&cfg, 8).expect("generate");
        assert_ne!(a.app, c.app);
    }

    #[test]
    fn census_matches_config() {
        let cfg = GeneratorConfig::paper(4);
        let g = generate(&cfg, 1).expect("generate");
        let tasks = g
            .app
            .ids()
            .filter(|&id| g.app.activity(id).as_task().is_some())
            .count();
        assert_eq!(tasks, 40);
        assert_eq!(g.platform.len(), 4);
        assert_eq!(g.app.graphs().len(), 8);
        // per-node task balance
        for n in 0..4 {
            assert_eq!(g.app.tasks_on(NodeId::new(n)).count(), 10);
        }
    }

    #[test]
    fn half_the_graphs_are_time_triggered() {
        let cfg = GeneratorConfig::paper(4);
        let g = generate(&cfg, 2).expect("generate");
        let tt = g
            .app
            .graphs()
            .iter()
            .filter(|gr| gr.name.starts_with("tt"))
            .count();
        assert_eq!(tt, 4);
        // TT graphs contain SCS tasks and static messages only
        for id in g.app.ids() {
            let a = g.app.activity(id);
            let is_tt_graph = g.app.graphs()[a.graph.index()].name.starts_with("tt");
            assert_eq!(a.is_time_triggered(), is_tt_graph, "{}", a.name);
        }
    }

    #[test]
    fn node_utilisation_within_range() {
        let cfg = GeneratorConfig::paper(3);
        let g = generate(&cfg, 3).expect("generate");
        for (_, u) in g.app.node_utilisation() {
            assert!(u > 0.25 && u < 0.65, "utilisation {u}");
        }
    }

    #[test]
    fn applications_validate() {
        for seed in 0..10 {
            let cfg = GeneratorConfig::paper(2 + (seed as usize % 5));
            let g = generate(&cfg, seed).expect("generate");
            g.app.validate().expect("valid application");
        }
    }

    #[test]
    fn messages_only_on_cross_node_edges() {
        let cfg = GeneratorConfig::paper(5);
        let g = generate(&cfg, 11).expect("generate");
        for id in g.app.ids() {
            if g.app.activity(id).as_message().is_some() {
                let sender = g.app.sender_of(id).expect("sender");
                for r in g.app.receivers_of(id) {
                    assert_ne!(sender, r);
                }
            }
        }
    }

    #[test]
    fn remainder_tasks_form_a_tail_graph_instead_of_vanishing() {
        // 21 tasks in graphs of 5: the 21st task forms a fifth,
        // single-task graph.
        let cfg = GeneratorConfig {
            tasks_per_node: 7,
            ..GeneratorConfig::paper(3)
        };
        let g = generate(&cfg, 5).expect("generate");
        let tasks = g
            .app
            .ids()
            .filter(|&id| g.app.activity(id).as_task().is_some())
            .count();
        assert_eq!(tasks, 21, "no task is dropped");
        assert_eq!(g.app.graphs().len(), 5);
        for n in 0..3 {
            assert_eq!(g.app.tasks_on(NodeId::new(n)).count(), 7);
        }
    }

    #[test]
    fn chains_are_as_deep_as_they_are_long() {
        let deep = GeneratorConfig::deep(4, 8);
        let g = generate(&deep, 13).expect("generate");
        for (gi, graph) in g.app.graphs().iter().enumerate() {
            let tasks = graph
                .members
                .iter()
                .filter(|&&id| g.app.activity(id).as_task().is_some())
                .count();
            let depth = g
                .app
                .task_depth(flexray_model::GraphId::new(gi))
                .expect("acyclic");
            assert_eq!(depth, tasks, "chain depth == task count");
        }
    }

    #[test]
    fn gateway_mode_relays_through_the_designated_node() {
        let cfg = GeneratorConfig::gateway(5, 1.0); // relay everything via node 4
        let g = generate(&cfg, 23).expect("generate");
        g.app.validate().expect("valid");
        let gw = NodeId::new(4);
        let relays: Vec<ActivityId> = g
            .app
            .ids()
            .filter(|&id| g.app.activity(id).name.contains("_gw"))
            .collect();
        assert!(!relays.is_empty(), "full gateway fraction inserts relays");
        for &r in &relays {
            let t = g.app.activity(r).as_task().expect("relay is a task");
            assert_eq!(t.node, gw, "relay '{}' off-gateway", g.app.activity(r).name);
            // exactly one inbound and one outbound message
            assert_eq!(g.app.preds(r).len(), 1);
            assert_eq!(g.app.succs(r).len(), 1);
        }
        // every message either ends or starts at the gateway, except
        // direct fallbacks where an endpoint already is the gateway
        for id in g.app.ids() {
            if g.app.activity(id).as_message().is_some() {
                let sender = g.app.sender_of(id).expect("sender");
                let receivers = g.app.receivers_of(id);
                assert!(
                    sender == gw || receivers.contains(&gw),
                    "message '{}' bypasses the gateway",
                    g.app.activity(id).name
                );
            }
        }
    }

    #[test]
    fn stats_report_achieved_figures() {
        let cfg = GeneratorConfig::gateway(5, 1.0);
        let g = generate(&cfg, 23).expect("generate");
        let stats = g.stats(&cfg.phy).expect("stats");
        let named_relays = g
            .app
            .ids()
            .filter(|&id| g.app.activity(id).name.contains("_gw"))
            .count();
        assert_eq!(stats.relay_tasks, named_relays);
        assert!(
            stats.relay_tasks > 0,
            "full gateway fraction inserts relays"
        );
        let c = &stats.workload.census;
        assert_eq!(
            c.scs_tasks + c.fps_tasks,
            cfg.total_tasks() + stats.relay_tasks,
            "relay tasks come on top of the configured census"
        );
        assert!(stats.workload.bus_util > 0.0);
        assert_eq!(
            stats.workload.depth_histogram.iter().sum::<usize>(),
            g.app.graphs().len(),
            "every graph lands in exactly one histogram bucket"
        );

        let plain = generate(&GeneratorConfig::paper(3), 7).expect("generate");
        assert_eq!(plain.relay_tasks, 0, "paper configs never insert relays");
    }

    #[test]
    fn designated_gateways_without_relays_leave_the_paper_stream_alone() {
        // gateway_fraction = 0 consumes no random draws: designating a
        // gateway without relaying through it generates the paper
        // application.
        let paper = GeneratorConfig::paper(4);
        let off = GeneratorConfig {
            gateways: vec![3],
            ..GeneratorConfig::paper(4)
        };
        let a = generate(&paper, 31).expect("generate");
        let b = generate(&off, 31).expect("generate");
        assert_eq!(a.app, b.app);
    }

    #[test]
    fn clustered_scenarios_keep_every_message_on_one_bus() {
        use flexray_model::derive_msg_clusters;
        let cfg = GeneratorConfig::clustered(7, 3);
        let g = generate(&cfg, 29).expect("generate");
        assert_eq!(g.clusters, 3);
        assert_eq!(g.gateways, vec![NodeId::new(6)]);
        // contiguous near-equal partition of the 6 non-gateway nodes
        assert_eq!(g.node_cluster, vec![0, 0, 1, 1, 2, 2, 0]);
        // the relay invariant: every message's endpoints are attached
        // to the message's home cluster (home match or gateway)
        let msg_cluster = derive_msg_clusters(&g.app, &g.node_cluster, &g.gateways);
        let attached = |n: NodeId, c: u16| g.node_cluster[n.index()] == c || n == NodeId::new(6);
        let mut cross = 0usize;
        for id in g.app.ids() {
            if g.app.activity(id).as_message().is_none() {
                continue;
            }
            let c = msg_cluster[id.index()];
            let sender = g.app.sender_of(id).expect("sender");
            assert!(
                attached(sender, c),
                "sender of '{}'",
                g.app.activity(id).name
            );
            for r in g.app.receivers_of(id) {
                assert!(attached(r, c), "receiver of '{}'", g.app.activity(id).name);
            }
            if g.node_cluster[sender.index()] != c || sender == NodeId::new(6) {
                cross += 1;
            }
        }
        assert!(g.relay_tasks > 0, "cross-cluster deps force relays");
        assert!(cross > 0, "some traffic crosses clusters");
        g.app.validate().expect("valid application");
    }

    #[test]
    fn single_cluster_configs_are_unchanged_by_the_cluster_axis() {
        // clusters = 1 consumes no extra draws and homes every node on
        // cluster 0 — the paper stream stays bit-identical.
        let paper = generate(&GeneratorConfig::paper(4), 31).expect("generate");
        assert_eq!(paper.clusters, 1);
        assert_eq!(paper.node_cluster, vec![0; 4]);
        assert!(paper.gateways.is_empty());
        let one = GeneratorConfig {
            clusters: 1,
            gateways: vec![3],
            ..GeneratorConfig::paper(4)
        };
        let b = generate(&one, 31).expect("generate");
        assert_eq!(paper.app, b.app);
        assert_eq!(b.gateways, vec![NodeId::new(3)]);
    }

    #[test]
    fn twenty_node_systems_generate_and_validate() {
        let cfg = GeneratorConfig::paper(20);
        let g = generate(&cfg, 41).expect("generate");
        assert_eq!(g.platform.len(), 20);
        let tasks = g
            .app
            .ids()
            .filter(|&id| g.app.activity(id).as_task().is_some())
            .count();
        assert_eq!(tasks, 200);
        g.app.validate().expect("valid application");
    }
}
