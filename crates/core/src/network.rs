//! Joint bus access optimisation for multi-cluster FlexRay networks.
//!
//! The paper optimises a single FlexRay cluster. Real vehicle networks
//! couple several clusters through gateway nodes; this module extends
//! the bus access optimisation to such networks: every cluster gets
//! BBC's own skeleton, restricted to the cluster's messages
//! (criticality frame identifiers, one static slot per static-sender
//! node sized for the cluster's largest ST frame), and the
//! dynamic-segment lengths are then optimised by coordinate descent —
//! each cluster's length is swept in turn against the *network-wide*
//! cost of Eq. (5) while the other clusters are held fixed, repeating
//! until a full round no longer improves the cost. Each sweep is the
//! [`Evaluator`]'s DYN-length sweep over a network session in which the
//! swept cluster sits at position 0.
//!
//! This is deliberately the BBC/OBCEE treatment of the DYN axis lifted
//! to N clusters, not the full OBC slot-count/slot-length exploration:
//! the static skeleton stays at its minimal-bandwidth shape while the
//! dynamic lengths are searched jointly.

use crate::bbc::skeleton;
use crate::dyn_search::dyn_sweep_grid;
use crate::evaluator::Evaluator;
use crate::params::{OptParams, OptResult};
use flexray_analysis::{AnalysisSession, Cost};
use flexray_model::{
    derive_msg_clusters, Application, BusConfig, ModelError, Network, NodeId, PhyParams, Platform,
};
use std::time::Instant;

/// Where each node lives in a multi-cluster network — the topology the
/// optimiser works against (the bus configurations are its output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkTopology {
    /// Number of clusters (≥ 1).
    pub clusters: usize,
    /// Home cluster of each node (gateway nodes keep a nominal home but
    /// attach to every cluster).
    pub node_cluster: Vec<u16>,
    /// Gateway nodes bridging the clusters.
    pub gateways: Vec<NodeId>,
}

impl NetworkTopology {
    /// The trivial single-cluster topology of the paper's experiments.
    #[must_use]
    pub fn single(n_nodes: usize) -> Self {
        NetworkTopology {
            clusters: 1,
            node_cluster: vec![0; n_nodes],
            gateways: Vec::new(),
        }
    }
}

/// Outcome of one multi-cluster optimisation run.
#[derive(Debug, Clone)]
pub struct NetworkOptResult {
    /// Best per-cluster bus configurations found (index = cluster).
    pub clusters: Vec<BusConfig>,
    /// Network-wide cost of that configuration (Eq. (5) over every
    /// activity of every cluster).
    pub cost: Cost,
    /// Number of full scheduling + schedulability evaluations performed.
    pub evaluations: usize,
    /// Wall-clock time of the run.
    pub elapsed: std::time::Duration,
}

impl NetworkOptResult {
    /// `true` if the best configuration meets all deadlines.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.cost.is_schedulable()
    }

    /// Packages the result as a validated [`Network`].
    ///
    /// # Errors
    ///
    /// Propagates [`Network::new`] validation errors (an optimiser bug —
    /// surfaced rather than hidden).
    pub fn into_network(
        self,
        platform: Platform,
        app: Application,
        topo: &NetworkTopology,
    ) -> Result<Network, ModelError> {
        Network::new(
            platform,
            app,
            self.clusters,
            topo.node_cluster.clone(),
            topo.gateways.clone(),
        )
    }

    /// The single-cluster view of the result: cluster 0's bus with the
    /// network-wide cost (what the grid harness records as the
    /// representative [`OptResult`]).
    #[must_use]
    pub fn representative(&self) -> OptResult {
        OptResult {
            bus: self.clusters[0].clone(),
            cost: self.cost,
            evaluations: self.evaluations,
            elapsed: self.elapsed,
        }
    }
}

/// Remaps an original cluster index so that `candidate` becomes
/// cluster 0 (the analysis session's candidate slot) and every other
/// cluster keeps a stable position among the fixed extras.
fn rotate(x: u16, candidate: u16) -> u16 {
    match x.cmp(&candidate) {
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Less => x + 1,
        std::cmp::Ordering::Greater => x,
    }
}

/// The original cluster index sitting at rotated position `p ≥ 1`.
fn unrotate_extra(p: usize, candidate: usize) -> usize {
    if p <= candidate {
        p - 1
    } else {
        p
    }
}

/// Optimises the bus access of a multi-cluster FlexRay network.
///
/// Builds BBC's skeleton per cluster, then runs up to
/// `max_rounds` rounds of coordinate descent on the dynamic-segment
/// lengths: each round sweeps every cluster's length in turn against
/// the network-wide cost (all other clusters held fixed), stopping
/// early once a full round brings no improvement. `max_rounds = 1` is
/// the BBC treatment; larger budgets approach a joint optimum.
///
/// With `topo.clusters == 1` this degenerates to the single-cluster
/// BBC sweep (same skeleton, same grid, same cost).
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] on an inconsistent topology
/// (wrong `node_cluster` length, out-of-range entries, no analysable
/// configuration at all).
pub fn optimise_network(
    platform: &Platform,
    app: &Application,
    topo: &NetworkTopology,
    phy: PhyParams,
    params: &OptParams,
    max_rounds: usize,
) -> Result<NetworkOptResult, ModelError> {
    let start = Instant::now();
    let k = topo.clusters.max(1);
    if topo.node_cluster.len() != platform.len() {
        return Err(ModelError::InvalidConfig(format!(
            "node_cluster length {} does not match {} nodes",
            topo.node_cluster.len(),
            platform.len()
        )));
    }
    if let Some(&bad) = topo.node_cluster.iter().find(|&&c| usize::from(c) >= k) {
        return Err(ModelError::InvalidConfig(format!(
            "node homed on cluster {bad}, network has {k} clusters"
        )));
    }
    let mut gateways = topo.gateways.clone();
    gateways.sort_unstable();
    gateways.dedup();
    let msg_cluster = derive_msg_clusters(app, &topo.node_cluster, &gateways);

    // Per-cluster skeletons, seeded at each cluster's minimal feasible
    // dynamic length.
    let mut buses: Vec<BusConfig> = (0..k)
        .map(|c| {
            let c = u16::try_from(c).expect("validated cluster count");
            let mut bus = skeleton(platform, app, phy, &msg_cluster, c);
            if !bus.frame_ids.is_empty() {
                bus.n_minislots = bus.min_minislots(app).max(1);
            }
            bus
        })
        .collect();

    let mut evaluations = 0usize;
    let mut best_cost: Option<Cost> = None;
    for _round in 0..max_rounds.max(1) {
        let mut improved = false;
        for c in 0..k {
            // Rotate cluster c into the candidate slot of a fresh
            // session; the other clusters ride along as fixed extras.
            let cu = u16::try_from(c).expect("validated cluster count");
            let extra: Vec<BusConfig> = (1..k)
                .map(|p| buses[unrotate_extra(p, c)].clone())
                .collect();
            let map: Vec<u16> = msg_cluster.iter().map(|&x| rotate(x, cu)).collect();
            let mut ev = Evaluator::over_session(AnalysisSession::with_network(
                platform.clone(),
                app.clone(),
                extra,
                map,
                params.analysis,
            ));

            // The current length first, then the cluster's grid without
            // it (empty when the cluster has no dynamic messages).
            let current = buses[c].n_minislots;
            let mut lengths = vec![current];
            if let Some((min, max)) = ev.dyn_bounds(&buses[c]) {
                lengths.extend(
                    dyn_sweep_grid(min, max, params)
                        .into_iter()
                        .filter(|&n| n != current),
                );
            }
            let costs = ev.evaluate_valid_dyn_lengths(&buses[c], &lengths);
            evaluations += ev.evaluations();
            let mut local_best: Option<(u32, Cost)> = None;
            for (&n, cost) in lengths.iter().zip(costs) {
                let Some(cost) = cost else { continue };
                if local_best.is_none_or(|(_, b)| cost.better_than(&b)) {
                    local_best = Some((n, cost));
                }
            }
            if let Some((n, cost)) = local_best {
                buses[c].n_minislots = n;
                if best_cost.is_none_or(|b| cost.better_than(&b)) {
                    improved = true;
                }
                best_cost = Some(cost);
            }
        }
        if !improved {
            break;
        }
    }

    let cost = best_cost.ok_or_else(|| {
        ModelError::InvalidConfig("no analysable bus configuration for any cluster".into())
    })?;
    Ok(NetworkOptResult {
        clusters: buses,
        cost,
        evaluations,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::{MessageClass, SchedPolicy, Time};

    /// Two clusters bridged by node 4: an ST pipeline on cluster 0 and
    /// a DYN pipeline on cluster 1, linked through a gateway relay, plus
    /// intra-cluster traffic on both buses.
    fn two_cluster_app() -> (Platform, Application, NetworkTopology) {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(10_000.0), Time::from_us(9_000.0));
        let t0 = app.add_task(
            g,
            "t0",
            NodeId::new(0),
            Time::from_us(40.0),
            SchedPolicy::Scs,
            0,
        );
        let relay = app.add_task(
            g,
            "relay",
            NodeId::new(4),
            Time::from_us(20.0),
            SchedPolicy::Scs,
            0,
        );
        let t1 = app.add_task(
            g,
            "t1",
            NodeId::new(2),
            Time::from_us(40.0),
            SchedPolicy::Scs,
            0,
        );
        let st0 = app.add_message(g, "st0", 8, MessageClass::Static, 0);
        let st1 = app.add_message(g, "st1", 8, MessageClass::Static, 0);
        app.connect_relayed(t0, st0, relay, st1, t1).expect("chain");

        let h = app.add_graph("h", Time::from_us(10_000.0), Time::from_us(9_000.0));
        let a = app.add_task(
            h,
            "a",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Fps,
            3,
        );
        let b = app.add_task(
            h,
            "b",
            NodeId::new(1),
            Time::from_us(10.0),
            SchedPolicy::Fps,
            3,
        );
        let dy0 = app.add_message(h, "dy0", 8, MessageClass::Dynamic, 1);
        app.connect(a, dy0, b).expect("edge");
        let c = app.add_task(
            h,
            "c",
            NodeId::new(2),
            Time::from_us(10.0),
            SchedPolicy::Fps,
            3,
        );
        let d = app.add_task(
            h,
            "d",
            NodeId::new(3),
            Time::from_us(10.0),
            SchedPolicy::Fps,
            3,
        );
        let dy1 = app.add_message(h, "dy1", 8, MessageClass::Dynamic, 1);
        app.connect(c, dy1, d).expect("edge");

        let topo = NetworkTopology {
            clusters: 2,
            node_cluster: vec![0, 0, 1, 1, 0],
            gateways: vec![NodeId::new(4)],
        };
        (Platform::with_nodes(5), app, topo)
    }

    #[test]
    fn two_cluster_network_is_jointly_schedulable() {
        let (platform, app, topo) = two_cluster_app();
        let params = OptParams::default();
        let result = optimise_network(
            &platform,
            &app,
            &topo,
            flexray_model::PhyParams::bmw_like(),
            &params,
            3,
        )
        .expect("optimise");
        assert!(result.is_schedulable(), "cost {:?}", result.cost);
        assert_eq!(result.clusters.len(), 2);
        assert!(result.evaluations > 0);
        // both clusters carry traffic: cluster 0 static, both dynamic
        assert!(!result.clusters[0].static_slot_owners.is_empty());
        assert_eq!(result.clusters[0].frame_ids.len(), 1);
        assert_eq!(result.clusters[1].frame_ids.len(), 1);
        assert!(result.clusters[1].n_minislots > 0);
        // the result packages into a fully validated Network
        let net = result
            .into_network(platform, app, &topo)
            .expect("valid network");
        assert_eq!(net.n_clusters(), 2);
    }

    #[test]
    fn single_cluster_degenerates_to_bbc() {
        let (platform, app, _) = two_cluster_app();
        let topo = NetworkTopology::single(platform.len());
        let params = OptParams::default();
        let phy = flexray_model::PhyParams::bmw_like();
        let net = optimise_network(&platform, &app, &topo, phy, &params, 1).expect("optimise");
        let bbc = crate::bbc(&platform, &app, phy, &params);
        assert_eq!(net.clusters.len(), 1);
        assert_eq!(net.cost, bbc.cost);
        assert_eq!(net.clusters[0].n_minislots, bbc.bus.n_minislots);
        assert_eq!(net.clusters[0].frame_ids, bbc.bus.frame_ids);
        assert_eq!(
            net.clusters[0].static_slot_owners,
            bbc.bus.static_slot_owners
        );
    }

    #[test]
    fn reanalysing_the_result_reproduces_its_cost() {
        // The reported cost must be exact for the *final* configuration
        // (not a stale intermediate from the descent).
        let (platform, app, topo) = two_cluster_app();
        let params = OptParams::default();
        let result = optimise_network(
            &platform,
            &app,
            &topo,
            flexray_model::PhyParams::bmw_like(),
            &params,
            3,
        )
        .expect("optimise");
        let extra: Vec<BusConfig> = result.clusters[1..].to_vec();
        let msg_cluster = derive_msg_clusters(&app, &topo.node_cluster, &topo.gateways);
        let mut session = AnalysisSession::with_network(
            platform.clone(),
            app.clone(),
            extra,
            msg_cluster,
            params.analysis,
        );
        let cost = session.analyse_into(&result.clusters[0]).expect("analyse");
        assert_eq!(cost, result.cost);
    }

    #[test]
    fn topology_mismatches_are_rejected() {
        let (platform, app, mut topo) = two_cluster_app();
        topo.node_cluster.pop();
        let phy = flexray_model::PhyParams::bmw_like();
        assert!(optimise_network(&platform, &app, &topo, phy, &OptParams::default(), 1).is_err());
        let (platform, app, mut topo) = two_cluster_app();
        topo.node_cluster[0] = 7; // out of range for 2 clusters
        assert!(optimise_network(&platform, &app, &topo, phy, &OptParams::default(), 1).is_err());
    }
}
