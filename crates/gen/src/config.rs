//! Generator parameters: the paper's Section 7 envelope plus the
//! scenario axes beyond it (chain-shaped graphs, gateway traffic,
//! multiple clusters).

use flexray_model::{ModelError, PhyParams};

/// Shape of the generated task DAGs.
///
/// The paper only uses [`GraphShape::Random`]; [`GraphShape::Chain`]
/// builds the deep scenarios swept by the `depth=` axis of the
/// `flexray-bench` harnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphShape {
    /// The paper's recipe: every non-root task draws one random
    /// predecessor among the earlier tasks, plus a second one with
    /// probability 0.3.
    Random,
    /// A linear chain `t0 → t1 → …`; the graph depth equals its size.
    Chain,
}

/// Parameters of the synthetic benchmark generator.
///
/// The defaults reproduce the envelope of the paper's experiments:
/// 10 tasks per node grouped in graphs of 5, half the graphs
/// time-triggered, periods drawn from the harmonic pool 10/20/40 ms,
/// node utilisation drawn in 30–60 % and bus utilisation in 10–70 %.
/// The axes beyond the paper (chain shape, gateway traffic, clusters)
/// draw nothing from the random stream when left at their paper
/// values, so a paper configuration's output does not depend on them.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of processing nodes (the paper sweeps 2–7; the generator
    /// accepts any count — the `sweep` harness goes to 20 and beyond).
    pub n_nodes: usize,
    /// Tasks mapped on each node (paper: 10).
    pub tasks_per_node: usize,
    /// Tasks per task graph (paper: 5). When the graphs do not tile
    /// [`GeneratorConfig::total_tasks`], the leftover tasks form a
    /// final, smaller graph (see [`GeneratorConfig::graph_plan`]).
    pub graph_size: usize,
    /// Shape of each task DAG (paper: [`GraphShape::Random`]).
    pub shape: GraphShape,
    /// Fraction of graphs that are time-triggered (paper: 0.5).
    pub tt_fraction: f64,
    /// Per-node utilisation range (paper: 0.30–0.60).
    pub node_util: (f64, f64),
    /// Bus utilisation range (paper: 0.10–0.70).
    pub bus_util: (f64, f64),
    /// Event-triggered graphs: deadline = `et_deadline_factor · period`
    /// (time-triggered graphs are due at the end of their period).
    /// Defaults to 3.0: the paper leaves graph deadlines unspecified, and
    /// this value lets the SA reference solve most 2–5-node instances
    /// (mirroring the paper's reported solvability) while the basic
    /// configuration increasingly fails on larger systems.
    pub et_deadline_factor: f64,
    /// Fraction of cross-node dependencies that are relayed through a
    /// gateway node instead of being sent directly (0.0 = off, the
    /// paper's setting). A relayed dependency becomes
    /// `sender → msg → relay task on the gateway → msg → receiver`, so
    /// the existing analysis and simulator apply unchanged.
    pub gateway_fraction: f64,
    /// Indices of the designated gateway nodes. Indices must be unique
    /// and in range; the list must be non-empty when
    /// [`GeneratorConfig::gateway_fraction`] is positive or
    /// [`GeneratorConfig::clusters`] exceeds one.
    pub gateways: Vec<usize>,
    /// Number of FlexRay clusters in the generated network (default 1 —
    /// the paper's single bus). With more than one cluster the
    /// non-gateway nodes are partitioned into `clusters` contiguous
    /// groups, gateway nodes attach to every cluster, and each
    /// cross-cluster dependency is forced through a gateway relay so no
    /// single message ever needs to span two buses.
    pub clusters: usize,
    /// Physical layer of the generated cluster.
    pub phy: PhyParams,
}

impl GeneratorConfig {
    /// The paper's setup for a given node count.
    #[must_use]
    pub fn paper(n_nodes: usize) -> Self {
        GeneratorConfig {
            n_nodes,
            tasks_per_node: 10,
            graph_size: 5,
            shape: GraphShape::Random,
            tt_fraction: 0.5,
            node_util: (0.30, 0.60),
            bus_util: (0.10, 0.70),
            et_deadline_factor: 3.0,
            gateway_fraction: 0.0,
            gateways: Vec::new(),
            clusters: 1,
            phy: PhyParams::bmw_like(),
        }
    }

    /// A reduced setup for fast unit tests: fewer, smaller graphs.
    #[must_use]
    pub fn small(n_nodes: usize) -> Self {
        GeneratorConfig {
            tasks_per_node: 4,
            graph_size: 4,
            ..GeneratorConfig::paper(n_nodes)
        }
    }

    /// Deep scenarios outside the paper envelope: chain-shaped graphs of
    /// `depth` tasks each (the paper's random DAGs of 5 have depth ≤ 5).
    #[must_use]
    pub fn deep(n_nodes: usize, depth: usize) -> Self {
        GeneratorConfig {
            graph_size: depth,
            shape: GraphShape::Chain,
            ..GeneratorConfig::paper(n_nodes)
        }
    }

    /// Gateway-traffic scenarios: the paper setup with `fraction` of the
    /// cross-node dependencies relayed through the last node.
    #[must_use]
    pub fn gateway(n_nodes: usize, fraction: f64) -> Self {
        GeneratorConfig {
            gateway_fraction: fraction,
            gateways: vec![n_nodes.saturating_sub(1)],
            ..GeneratorConfig::paper(n_nodes)
        }
    }

    /// Multi-cluster scenarios: `clusters` buses joined by the last
    /// node acting as the gateway. Cross-cluster dependencies are
    /// relayed through it automatically; `gateway_fraction` stays at
    /// the paper's 0.0 and only adds *extra* same-cluster relays when
    /// raised.
    #[must_use]
    pub fn clustered(n_nodes: usize, clusters: usize) -> Self {
        GeneratorConfig {
            clusters,
            gateways: vec![n_nodes.saturating_sub(1)],
            ..GeneratorConfig::paper(n_nodes)
        }
    }

    /// Total number of tasks the generator will emit (gateway relay
    /// tasks come on top).
    #[must_use]
    pub fn total_tasks(&self) -> usize {
        self.n_nodes * self.tasks_per_node
    }

    /// Per-graph task counts: graphs of [`GeneratorConfig::graph_size`]
    /// tasks until [`GeneratorConfig::total_tasks`] are assigned, the
    /// leftover tasks forming a final, smaller graph, so every task is
    /// accounted for.
    #[must_use]
    pub fn graph_plan(&self) -> Vec<usize> {
        let total = self.total_tasks();
        let size = self.graph_size.max(1);
        let mut plan = vec![size; total / size];
        let tail = total % size;
        if tail > 0 {
            plan.push(tail);
        }
        plan
    }

    /// Number of task graphs the generator will emit (see
    /// [`GeneratorConfig::graph_plan`]).
    #[must_use]
    pub fn n_graphs(&self) -> usize {
        self.graph_plan().len()
    }

    /// Checks the configuration for internal consistency; called by
    /// [`generate`](crate::generate) before drawing anything.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] on an empty task set, a
    /// zero graph size, out-of-range utilisation bounds or fractions, or an invalid
    /// gateway or cluster setup.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |msg: String| Err(ModelError::InvalidConfig(msg));
        if self.total_tasks() == 0 {
            return fail("total_tasks is zero (n_nodes or tasks_per_node is 0)".into());
        }
        if self.graph_size == 0 {
            return fail("graph_size is zero (a task graph has at least one task)".into());
        }
        for (name, (lo, hi)) in [("node_util", self.node_util), ("bus_util", self.bus_util)] {
            if !(0.0 < lo && lo <= hi) {
                return fail(format!("{name} range ({lo}, {hi}) is not 0 < lo <= hi"));
            }
        }
        if !(0.0..=1.0).contains(&self.tt_fraction) {
            return fail(format!("tt_fraction {} not in [0, 1]", self.tt_fraction));
        }
        if !(0.0..=1.0).contains(&self.gateway_fraction) {
            return fail(format!(
                "gateway_fraction {} not in [0, 1]",
                self.gateway_fraction
            ));
        }
        if !self.gateways.is_empty() {
            if let Some(&bad) = self.gateways.iter().find(|&&g| g >= self.n_nodes) {
                return fail(format!(
                    "gateway node {bad} out of range for {} nodes",
                    self.n_nodes
                ));
            }
            // Duplicates would give the repeated node extra weight in
            // the uniform gateway draw — reject instead of skewing.
            let mut sorted = self.gateways.clone();
            sorted.sort_unstable();
            if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
                return fail(format!("gateway node {} listed more than once", w[0]));
            }
        }
        if self.gateway_fraction > 0.0 && self.gateways.is_empty() {
            return fail("gateway_fraction > 0 but no gateway nodes designated".into());
        }
        if self.clusters == 0 {
            return fail("clusters must be >= 1".into());
        }
        if self.clusters > 1 {
            if self.clusters > usize::from(u16::MAX) {
                return fail(format!("clusters {} exceeds u16 range", self.clusters));
            }
            if self.gateways.is_empty() {
                return fail(format!(
                    "{} clusters need at least one gateway node to join them",
                    self.clusters
                ));
            }
            let plain = self.n_nodes - self.gateways.len();
            if plain < self.clusters {
                return fail(format!(
                    "{} clusters need {} non-gateway nodes, only {plain} available",
                    self.clusters, self.clusters
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = GeneratorConfig::paper(5);
        assert_eq!(cfg.total_tasks(), 50);
        assert_eq!(cfg.n_graphs(), 10);
        assert_eq!(cfg.tt_fraction, 0.5);
        assert_eq!(cfg.node_util, (0.30, 0.60));
        assert_eq!(cfg.bus_util, (0.10, 0.70));
        assert_eq!(cfg.et_deadline_factor, 3.0);
        assert_eq!(cfg.shape, GraphShape::Random);
        assert_eq!(cfg.gateway_fraction, 0.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn small_is_smaller() {
        let cfg = GeneratorConfig::small(2);
        assert!(cfg.total_tasks() < GeneratorConfig::paper(2).total_tasks());
        assert!(cfg.n_graphs() >= 1);
    }

    #[test]
    fn tail_graph_plan_accounts_for_every_task() {
        // 3 * 7 = 21 tasks in graphs of 5: 4 full graphs + a tail of 1.
        let cfg = GeneratorConfig {
            tasks_per_node: 7,
            ..GeneratorConfig::paper(3)
        };
        let plan = cfg.graph_plan();
        assert_eq!(plan, vec![5, 5, 5, 5, 1]);
        assert_eq!(plan.iter().sum::<usize>(), cfg.total_tasks());
        assert_eq!(cfg.n_graphs(), 5);
    }

    #[test]
    fn presets_cover_the_v2_axes() {
        let deep = GeneratorConfig::deep(10, 12);
        assert_eq!(deep.shape, GraphShape::Chain);
        assert_eq!(deep.graph_size, 12);
        assert!(deep.validate().is_ok());

        let gw = GeneratorConfig::gateway(8, 0.5);
        assert_eq!(gw.gateways, vec![7]);
        assert!(gw.validate().is_ok());

        // ≥ 20 nodes are in envelope now
        assert!(GeneratorConfig::paper(20).validate().is_ok());
    }

    #[test]
    fn validate_rejects_inconsistent_configs() {
        let mut cfg = GeneratorConfig::paper(3);
        cfg.gateway_fraction = 0.5; // no gateways designated
        assert!(cfg.validate().is_err());
        cfg.gateways = vec![3]; // out of range for 3 nodes
        assert!(cfg.validate().is_err());
        cfg.gateways = vec![2];
        assert!(cfg.validate().is_ok());

        let mut cfg = GeneratorConfig::paper(3);
        cfg.node_util = (0.6, 0.3);
        assert!(cfg.validate().is_err());

        let err = GeneratorConfig::deep(3, 0).validate().expect_err("depth 0");
        assert!(err.to_string().contains("graph_size"), "{err}");
    }

    #[test]
    fn validate_rejects_duplicate_gateways() {
        let mut cfg = GeneratorConfig::paper(4);
        cfg.gateway_fraction = 0.5;
        cfg.gateways = vec![2, 3, 2];
        let err = cfg.validate().expect_err("duplicate gateway");
        let msg = err.to_string();
        assert!(
            msg.contains("gateway node 2") && msg.contains("more than once"),
            "error names the duplicated index: {msg}"
        );
        cfg.gateways = vec![2, 3];
        assert!(cfg.validate().is_ok());
        // duplicates are rejected even with the relay fraction off:
        // the list also drives the multi-cluster topology
        cfg.gateway_fraction = 0.0;
        cfg.gateways = vec![1, 1];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_checks_cluster_counts() {
        let mut cfg = GeneratorConfig::clustered(5, 2);
        assert!(cfg.validate().is_ok());
        cfg.clusters = 0;
        assert!(cfg.validate().is_err());
        cfg.clusters = 2;
        cfg.gateways.clear(); // clusters need a gateway to join them
        assert!(cfg.validate().is_err());
        // 3 nodes, 1 gateway -> 2 plain nodes: not enough for 3 clusters
        let cfg = GeneratorConfig::clustered(3, 3);
        assert!(cfg.validate().is_err());
        assert!(GeneratorConfig::clustered(4, 3).validate().is_ok());
    }
}
