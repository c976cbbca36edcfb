//! Workgraph interchange: a line-oriented format for hand-written
//! benchmarks.
//!
//! Every scenario the harnesses run so far is produced by the seeded
//! generator; this module adds the missing ingestion path. A
//! *workgraph* file is JSON-lines text — one record per line, blank
//! lines and `#` comments ignored — that describes an application
//! directly:
//!
//! ```text
//! {"kind":"workgraph","version":1,"nodes":3}
//! {"kind":"graph","id":"g","period_ns":10000000,"deadline_ns":9000000}
//! {"kind":"task","id":"t0","graph":"g","node":0,"wcet_ns":20000,"policy":"scs","prio":0,"deps":[]}
//! {"kind":"msg","id":"m0","graph":"g","bytes":8,"class":"st","prio":0,"deps":["t0"]}
//! {"kind":"task","id":"t1","graph":"g","node":1,"wcet_ns":30000,"policy":"fps","prio":2,"deps":["m0"]}
//! ```
//!
//! * the first record is the **header** — node count plus, for
//!   multi-cluster networks, `clusters`, `node_cluster` (home cluster
//!   per node) and `gateways`;
//! * a **graph** record declares a task graph with its period and
//!   end-to-end deadline (`*_ns` integers, or `*_us` floats);
//! * **task** and **msg** records declare activities; `deps` lists the
//!   ids of the record's predecessors (a message's deps name its
//!   sender task; a task listing a message among its deps is that
//!   message's receiver). Records may reference ids defined on later
//!   lines.
//!
//! [`Workload::import`] parses strictly — every rejection names the
//! offending line and token, following the `parse_algo_set` /
//! `flexray-serve` spec convention — and loads straight into
//! [`Platform`] / [`Application`]. [`Workload::export`] writes any
//! in-memory workload (e.g. a generated scenario) in the same format,
//! and the two compose into a bit-identical round trip: re-importing
//! an export reproduces the activity specs, the edge set and the
//! [`WorkloadStats`] exactly.

use flexray_gen::Generated;
use flexray_model::{
    mix_bytes, ActivityKind, Application, MessageClass, ModelError, NodeId, PhyParams, Platform,
    SchedPolicy, Time, WorkloadStats,
};
use flexray_opt::NetworkTopology;

use crate::report::{as_count, Json};

/// Version of the workgraph record layout; bump on any schema change.
pub const WORKGRAPH_VERSION: u32 = 1;

/// A self-contained benchmark scenario: platform, application and
/// cluster topology (trivial for single-bus scenarios).
#[derive(Debug, Clone)]
pub struct Workload {
    /// The processing nodes.
    pub platform: Platform,
    /// The task graphs.
    pub app: Application,
    /// Number of FlexRay clusters (1 = single bus).
    pub clusters: usize,
    /// Home cluster of each node.
    pub node_cluster: Vec<u16>,
    /// Gateway nodes bridging the clusters (sorted, deduplicated).
    pub gateways: Vec<NodeId>,
}

impl Workload {
    /// Packages a generated scenario for export.
    #[must_use]
    pub fn of_generated(generated: &Generated) -> Workload {
        Workload {
            platform: generated.platform.clone(),
            app: generated.app.clone(),
            clusters: generated.clusters,
            node_cluster: generated.node_cluster.clone(),
            gateways: generated.gateways.clone(),
        }
    }

    /// The cluster topology, for [`flexray_opt::optimise_network`].
    #[must_use]
    pub fn topology(&self) -> NetworkTopology {
        NetworkTopology {
            clusters: self.clusters,
            node_cluster: self.node_cluster.clone(),
            gateways: self.gateways.clone(),
        }
    }

    /// Achieved workload statistics, measuring payloads against `phy`.
    ///
    /// # Errors
    ///
    /// See [`WorkloadStats::collect`].
    pub fn stats(&self, phy: &PhyParams) -> Result<WorkloadStats, ModelError> {
        WorkloadStats::collect(&self.platform, &self.app, phy)
    }

    /// A 16-hex-digit structural fingerprint, carried in grid report
    /// headers so a report names the workload that wrote it. The edge
    /// set is hashed in sorted order, so a round trip through the
    /// interchange format (which may reorder edge insertion) keeps the
    /// fingerprint stable.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut edges: Vec<(usize, usize)> = self
            .app
            .edges()
            .iter()
            .map(|&(a, b)| (a.index(), b.index()))
            .collect();
        edges.sort_unstable();
        let text = format!(
            "{}|{:?}|{:?}|{edges:?}|{}|{:?}|{:?}",
            self.platform.len(),
            self.app.graphs(),
            self.app.activities(),
            self.clusters,
            self.node_cluster,
            self.gateways
        );
        format!("{:016x}", mix_bytes(text.as_bytes()))
    }

    /// Serialises the workload as workgraph lines (newline-terminated).
    ///
    /// Times are written as exact nanosecond integers, activities in
    /// id order, so export → import → export is byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when activity or graph
    /// names are not unique (the interchange format addresses records
    /// by name) or a name is empty.
    pub fn export(&self) -> Result<String, ModelError> {
        let dup = |what: &str, name: &str| {
            ModelError::InvalidConfig(format!(
                "cannot export workgraph: duplicate {what} name '{name}'"
            ))
        };
        let mut seen = std::collections::HashSet::new();
        for g in self.app.graphs() {
            if g.name.is_empty() {
                return Err(ModelError::InvalidConfig(
                    "cannot export workgraph: empty graph name".into(),
                ));
            }
            if !seen.insert(g.name.as_str()) {
                return Err(dup("graph", &g.name));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for a in self.app.activities() {
            if a.name.is_empty() {
                return Err(ModelError::InvalidConfig(
                    "cannot export workgraph: empty activity name".into(),
                ));
            }
            if !seen.insert(a.name.as_str()) {
                return Err(dup("activity", &a.name));
            }
        }

        let num = |n: i64| Json::Num(n as f64);
        let mut out = String::new();
        let mut header = vec![
            ("kind".into(), Json::Str("workgraph".into())),
            ("version".into(), Json::Num(f64::from(WORKGRAPH_VERSION))),
            ("nodes".into(), num(self.platform.len() as i64)),
        ];
        if self.clusters > 1 {
            header.push(("clusters".into(), num(self.clusters as i64)));
            header.push((
                "node_cluster".into(),
                Json::Arr(
                    self.node_cluster
                        .iter()
                        .map(|&c| num(i64::from(c)))
                        .collect(),
                ),
            ));
            header.push((
                "gateways".into(),
                Json::Arr(
                    self.gateways
                        .iter()
                        .map(|g| num(g.index() as i64))
                        .collect(),
                ),
            ));
        }
        let writable = "workgraph numbers are integers, which are always finite";
        out.push_str(&Json::Obj(header).write().expect(writable));
        out.push('\n');

        for g in self.app.graphs() {
            let line = Json::Obj(vec![
                ("kind".into(), Json::Str("graph".into())),
                ("id".into(), Json::Str(g.name.clone())),
                ("period_ns".into(), num(g.period.as_ns())),
                ("deadline_ns".into(), num(g.deadline.as_ns())),
            ]);
            out.push_str(&line.write().expect(writable));
            out.push('\n');
        }

        for (id, a) in self.app.ids().zip(self.app.activities()) {
            let deps = Json::Arr(
                self.app
                    .preds(id)
                    .iter()
                    .map(|p| Json::Str(self.app.activity(*p).name.clone()))
                    .collect(),
            );
            let graph = Json::Str(self.app.graph_of(id).name.clone());
            let mut members = match &a.kind {
                ActivityKind::Task(t) => vec![
                    ("kind".into(), Json::Str("task".into())),
                    ("id".into(), Json::Str(a.name.clone())),
                    ("graph".into(), graph),
                    ("node".into(), num(t.node.index() as i64)),
                    ("wcet_ns".into(), num(t.wcet.as_ns())),
                    (
                        "policy".into(),
                        Json::Str(
                            match t.policy {
                                SchedPolicy::Scs => "scs",
                                SchedPolicy::Fps => "fps",
                            }
                            .into(),
                        ),
                    ),
                    ("prio".into(), num(i64::from(t.priority))),
                ],
                ActivityKind::Message(m) => vec![
                    ("kind".into(), Json::Str("msg".into())),
                    ("id".into(), Json::Str(a.name.clone())),
                    ("graph".into(), graph),
                    ("bytes".into(), num(i64::from(m.size_bytes))),
                    (
                        "class".into(),
                        Json::Str(
                            match m.class {
                                MessageClass::Static => "st",
                                MessageClass::Dynamic => "dyn",
                            }
                            .into(),
                        ),
                    ),
                    ("prio".into(), num(i64::from(m.priority))),
                ],
            };
            if a.release != Time::ZERO {
                members.push(("release_ns".into(), num(a.release.as_ns())));
            }
            if let Some(d) = a.deadline {
                members.push(("deadline_ns".into(), num(d.as_ns())));
            }
            members.push(("deps".into(), deps));
            out.push_str(&Json::Obj(members).write().expect(writable));
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses workgraph text into a validated workload.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] naming the offending line
    /// and token: malformed JSON, a missing or misplaced header, an
    /// unknown record kind or key, a duplicate or dangling id, an
    /// out-of-range node or cluster, a dependency cycle (naming a
    /// member), and any structural violation caught by
    /// [`Application::validate`].
    pub fn import(text: &str) -> Result<Workload, ModelError> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            records.push(parse_record(i + 1, trimmed)?);
        }
        build(records)
    }
}

/// A "line N: …" import error.
fn at(line: usize, msg: &str) -> ModelError {
    ModelError::InvalidConfig(format!("workgraph line {line}: {msg}"))
}

/// One parsed workgraph record, tagged with its 1-based line number.
enum Record {
    Header {
        line: usize,
        nodes: usize,
        clusters: usize,
        node_cluster: Option<Vec<u16>>,
        gateways: Vec<usize>,
    },
    Graph {
        line: usize,
        id: String,
        period: Time,
        deadline: Time,
    },
    Activity {
        line: usize,
        id: String,
        graph: String,
        kind: ActivityKind,
        release: Time,
        deadline: Option<Time>,
        deps: Vec<String>,
    },
}

/// The object members of `json`, or a "not an object" error.
fn members(line: usize, json: &Json) -> Result<Vec<(String, Json)>, ModelError> {
    match json {
        Json::Obj(members) => Ok(members.clone()),
        _ => Err(at(line, "record is not a JSON object")),
    }
}

/// Takes member `key` out of `found`, or errors.
fn take(
    line: usize,
    kind: &str,
    found: &mut Vec<(String, Json)>,
    key: &str,
) -> Result<Json, ModelError> {
    match found.iter().position(|(k, _)| k == key) {
        Some(i) => Ok(found.remove(i).1),
        None => Err(at(line, &format!("'{kind}' record lacks key '{key}'"))),
    }
}

/// Takes optional member `key` out of `found`.
fn take_opt(found: &mut Vec<(String, Json)>, key: &str) -> Option<Json> {
    found
        .iter()
        .position(|(k, _)| k == key)
        .map(|i| found.remove(i).1)
}

/// Errors on any member left in `found` after the known keys were
/// taken — the strictness that catches misspelled keys.
fn reject_unknown(line: usize, kind: &str, found: &[(String, Json)]) -> Result<(), ModelError> {
    if let Some((key, _)) = found.first() {
        return Err(at(line, &format!("unknown key '{key}' in '{kind}' record")));
    }
    Ok(())
}

/// A count member (see [`as_count`]).
fn count_at(line: usize, key: &str, json: &Json) -> Result<i64, ModelError> {
    as_count(json)
        .and_then(|n| i64::try_from(n).ok())
        .ok_or_else(|| at(line, &format!("key '{key}' is not a non-negative integer")))
}

/// A string member.
fn as_str(line: usize, key: &str, json: &Json) -> Result<String, ModelError> {
    json.as_str()
        .map(str::to_owned)
        .ok_or_else(|| at(line, &format!("key '{key}' is not a string")))
}

/// A duration: `<key>_ns` integer or `<key>_us` float, exactly one.
fn take_duration(
    line: usize,
    kind: &str,
    found: &mut Vec<(String, Json)>,
    key: &str,
) -> Result<Time, ModelError> {
    let ns_key = format!("{key}_ns");
    let us_key = format!("{key}_us");
    let ns = take_opt(found, &ns_key);
    let us = take_opt(found, &us_key);
    match (ns, us) {
        (Some(_), Some(_)) => Err(at(
            line,
            &format!("record has both '{ns_key}' and '{us_key}'; use one"),
        )),
        (Some(v), None) => Ok(Time::from_ns(count_at(line, &ns_key, &v)?)),
        (None, Some(v)) => {
            let us = v
                .as_f64()
                .ok_or_else(|| at(line, &format!("key '{us_key}' is not a number")))?;
            Ok(Time::from_us(us))
        }
        (None, None) => Err(at(
            line,
            &format!("'{kind}' record lacks key '{ns_key}' (or '{us_key}')"),
        )),
    }
}

/// An optional duration: `<key>_ns` / `<key>_us`, or `None`.
fn take_opt_duration(
    line: usize,
    kind: &str,
    found: &mut Vec<(String, Json)>,
    key: &str,
) -> Result<Option<Time>, ModelError> {
    if found
        .iter()
        .any(|(k, _)| k == &format!("{key}_ns") || k == &format!("{key}_us"))
    {
        return take_duration(line, kind, found, key).map(Some);
    }
    Ok(None)
}

#[allow(clippy::too_many_lines)]
fn parse_record(line: usize, text: &str) -> Result<Record, ModelError> {
    let json = Json::parse(text).map_err(|e| at(line, &e.to_string()))?;
    let mut found = members(line, &json)?;
    let kind_json = take(line, "workgraph", &mut found, "kind")?;
    let kind = as_str(line, "kind", &kind_json)?;
    match kind.as_str() {
        "workgraph" => {
            let version = count_at(line, "version", &take(line, &kind, &mut found, "version")?)?;
            if version != i64::from(WORKGRAPH_VERSION) {
                return Err(at(
                    line,
                    &format!(
                        "workgraph version {version} unsupported (this build reads \
                         {WORKGRAPH_VERSION})"
                    ),
                ));
            }
            let nodes = count_at(line, "nodes", &take(line, &kind, &mut found, "nodes")?)?;
            let clusters = match take_opt(&mut found, "clusters") {
                Some(v) => count_at(line, "clusters", &v)?,
                None => 1,
            };
            let node_cluster = match take_opt(&mut found, "node_cluster") {
                Some(Json::Arr(values)) => Some(
                    values
                        .iter()
                        .map(|v| {
                            let c = count_at(line, "node_cluster", v)?;
                            u16::try_from(c).map_err(|_| {
                                at(line, &format!("home cluster {c} does not fit in u16"))
                            })
                        })
                        .collect::<Result<Vec<u16>, _>>()?,
                ),
                Some(_) => return Err(at(line, "key 'node_cluster' is not an array")),
                None => None,
            };
            let gateways = match take_opt(&mut found, "gateways") {
                Some(Json::Arr(values)) => values
                    .iter()
                    .map(|v| {
                        count_at(line, "gateways", v).and_then(|g| {
                            usize::try_from(g)
                                .map_err(|_| at(line, &format!("gateway {g} out of range")))
                        })
                    })
                    .collect::<Result<Vec<usize>, _>>()?,
                Some(_) => return Err(at(line, "key 'gateways' is not an array")),
                None => Vec::new(),
            };
            reject_unknown(line, &kind, &found)?;
            let nodes = usize::try_from(nodes)
                .map_err(|_| at(line, &format!("node count {nodes} out of range")))?;
            let clusters = usize::try_from(clusters.max(1))
                .map_err(|_| at(line, &format!("cluster count {clusters} out of range")))?;
            Ok(Record::Header {
                line,
                nodes,
                clusters,
                node_cluster,
                gateways,
            })
        }
        "graph" => {
            let id = as_str(line, "id", &take(line, &kind, &mut found, "id")?)?;
            let period = take_duration(line, &kind, &mut found, "period")?;
            let deadline = take_duration(line, &kind, &mut found, "deadline")?;
            reject_unknown(line, &kind, &found)?;
            Ok(Record::Graph {
                line,
                id,
                period,
                deadline,
            })
        }
        "task" | "msg" => {
            let id = as_str(line, "id", &take(line, &kind, &mut found, "id")?)?;
            let graph = as_str(line, "graph", &take(line, &kind, &mut found, "graph")?)?;
            let prio = count_at(line, "prio", &take(line, &kind, &mut found, "prio")?)?;
            let prio = u32::try_from(prio)
                .map_err(|_| at(line, &format!("priority {prio} out of range")))?;
            let activity_kind = if kind == "task" {
                let node = count_at(line, "node", &take(line, &kind, &mut found, "node")?)?;
                let wcet = take_duration(line, &kind, &mut found, "wcet")?;
                let policy = as_str(line, "policy", &take(line, &kind, &mut found, "policy")?)?;
                let policy = match policy.as_str() {
                    "scs" => SchedPolicy::Scs,
                    "fps" => SchedPolicy::Fps,
                    other => {
                        return Err(at(
                            line,
                            &format!("unknown policy '{other}' (expected 'scs' or 'fps')"),
                        ))
                    }
                };
                ActivityKind::Task(flexray_model::TaskSpec {
                    node: NodeId::new(
                        usize::try_from(node)
                            .map_err(|_| at(line, &format!("node index {node} out of range")))?,
                    ),
                    wcet,
                    policy,
                    priority: prio,
                })
            } else {
                let bytes = count_at(line, "bytes", &take(line, &kind, &mut found, "bytes")?)?;
                let class = as_str(line, "class", &take(line, &kind, &mut found, "class")?)?;
                let class = match class.as_str() {
                    "st" => MessageClass::Static,
                    "dyn" => MessageClass::Dynamic,
                    other => {
                        return Err(at(
                            line,
                            &format!("unknown class '{other}' (expected 'st' or 'dyn')"),
                        ))
                    }
                };
                ActivityKind::Message(flexray_model::MessageSpec {
                    size_bytes: u32::try_from(bytes)
                        .map_err(|_| at(line, &format!("payload of {bytes} bytes out of range")))?,
                    class,
                    priority: prio,
                })
            };
            let release =
                take_opt_duration(line, &kind, &mut found, "release")?.unwrap_or(Time::ZERO);
            let deadline = take_opt_duration(line, &kind, &mut found, "deadline")?;
            let deps = match take(line, &kind, &mut found, "deps")? {
                Json::Arr(values) => values
                    .iter()
                    .map(|v| as_str(line, "deps", v))
                    .collect::<Result<Vec<String>, _>>()?,
                _ => return Err(at(line, "key 'deps' is not an array")),
            };
            reject_unknown(line, &kind, &found)?;
            Ok(Record::Activity {
                line,
                id,
                graph,
                kind: activity_kind,
                release,
                deadline,
                deps,
            })
        }
        other => Err(at(line, &format!("unknown record kind '{other}'"))),
    }
}

/// Assembles parsed records into a validated workload.
#[allow(clippy::too_many_lines)]
fn build(records: Vec<Record>) -> Result<Workload, ModelError> {
    use std::collections::HashMap;

    let mut records = records.into_iter();
    let (header_line, nodes, clusters, node_cluster, gateway_indices) = match records.next() {
        Some(Record::Header {
            line,
            nodes,
            clusters,
            node_cluster,
            gateways,
        }) => (line, nodes, clusters, node_cluster, gateways),
        Some(Record::Graph { line, .. } | Record::Activity { line, .. }) => {
            return Err(at(line, "the first record must be the 'workgraph' header"))
        }
        None => {
            return Err(ModelError::InvalidConfig(
                "workgraph is empty: expected a 'workgraph' header record".into(),
            ))
        }
    };

    let node_cluster = node_cluster.unwrap_or_else(|| vec![0u16; nodes]);
    if node_cluster.len() != nodes {
        return Err(at(
            header_line,
            &format!(
                "'node_cluster' lists {} homes for {nodes} nodes",
                node_cluster.len()
            ),
        ));
    }
    for (n, &c) in node_cluster.iter().enumerate() {
        if usize::from(c) >= clusters {
            return Err(at(
                header_line,
                &format!(
                    "node {n} homed on cluster {c} but the workgraph declares \
                     {clusters} cluster(s)"
                ),
            ));
        }
    }
    let mut gateways: Vec<NodeId> = Vec::with_capacity(gateway_indices.len());
    for g in gateway_indices {
        if g >= nodes {
            return Err(at(
                header_line,
                &format!("gateway node {g} out of range for {nodes} nodes"),
            ));
        }
        gateways.push(NodeId::new(g));
    }
    gateways.sort_unstable();
    gateways.dedup();
    if clusters > 1 && gateways.is_empty() {
        return Err(at(
            header_line,
            &format!("{clusters} clusters but no 'gateways' to join them"),
        ));
    }

    let mut app = Application::new();
    let mut graph_ids = HashMap::new();
    let mut activity_ids = HashMap::new();
    let mut activity_records = Vec::new();
    for record in records {
        match record {
            Record::Header { line, .. } => {
                return Err(at(line, "duplicate 'workgraph' header record"))
            }
            Record::Graph {
                line,
                id,
                period,
                deadline,
            } => {
                if graph_ids.contains_key(&id) {
                    return Err(at(line, &format!("duplicate graph id '{id}'")));
                }
                let gid = app.add_graph(&id, period, deadline);
                graph_ids.insert(id, gid);
            }
            Record::Activity {
                line,
                id,
                graph,
                kind,
                release,
                deadline,
                deps,
            } => {
                if activity_ids.contains_key(&id) {
                    return Err(at(line, &format!("duplicate id '{id}'")));
                }
                let Some(&gid) = graph_ids.get(&graph) else {
                    return Err(at(
                        line,
                        &format!("unknown graph '{graph}' in record '{id}'"),
                    ));
                };
                let aid = match kind {
                    ActivityKind::Task(t) => {
                        if t.node.index() >= nodes {
                            return Err(at(
                                line,
                                &format!(
                                    "task '{id}' mapped to node {} but the workgraph \
                                     declares {nodes} nodes",
                                    t.node.index()
                                ),
                            ));
                        }
                        app.add_task(gid, &id, t.node, t.wcet, t.policy, t.priority)
                    }
                    ActivityKind::Message(m) => {
                        app.add_message(gid, &id, m.size_bytes, m.class, m.priority)
                    }
                };
                if release != Time::ZERO {
                    app.set_release(aid, release);
                }
                if let Some(d) = deadline {
                    app.set_deadline(aid, d);
                }
                activity_ids.insert(id.clone(), aid);
                activity_records.push((line, id, deps));
            }
        }
    }

    // Second pass: deps may reference ids defined on later lines.
    for (line, id, deps) in &activity_records {
        for dep in deps {
            let Some(&from) = activity_ids.get(dep) else {
                return Err(at(*line, &format!("unknown dep '{dep}' of '{id}'")));
            };
            let to = activity_ids[id];
            app.add_edge(from, to)
                .map_err(|e| at(*line, &format!("dep '{dep}' of '{id}': {e}")))?;
        }
    }

    // Own cycle pass so the error names a member (the model's check
    // only states that a cycle exists).
    let n = app.activities().len();
    let mut indegree: Vec<usize> = app.ids().map(|id| app.preds(id).len()).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut visited = 0usize;
    while let Some(i) = queue.pop() {
        visited += 1;
        for s in app.succs(flexray_model::ActivityId::new(i)) {
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push(s.index());
            }
        }
    }
    if visited != n {
        let member = app
            .ids()
            .find(|id| indegree[id.index()] > 0)
            .map(|id| app.activity(id).name.clone())
            .expect("a cycle has members");
        return Err(ModelError::InvalidConfig(format!(
            "workgraph has a dependency cycle through '{member}'"
        )));
    }

    app.validate()
        .map_err(|e| ModelError::InvalidConfig(format!("invalid workgraph: {e}")))?;

    Ok(Workload {
        platform: Platform::with_nodes(nodes),
        app,
        clusters,
        node_cluster,
        gateways,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_gen::{generate, GeneratorConfig};

    fn two_cluster_text() -> String {
        let generated =
            generate(&GeneratorConfig::clustered(7, 2), 11).expect("clustered scenario");
        Workload::of_generated(&generated)
            .export()
            .expect("exports")
    }

    #[test]
    fn export_import_round_trips_bit_identically() {
        let text = two_cluster_text();
        let back = Workload::import(&text).expect("imports");
        assert_eq!(back.export().expect("re-exports"), text);
        let generated =
            generate(&GeneratorConfig::clustered(7, 2), 11).expect("clustered scenario");
        let phy = GeneratorConfig::clustered(7, 2).phy;
        let original = Workload::of_generated(&generated);
        // specs, topology and achieved stats survive the round trip
        assert_eq!(back.platform.len(), original.platform.len());
        assert_eq!(back.clusters, original.clusters);
        assert_eq!(back.node_cluster, original.node_cluster);
        assert_eq!(back.gateways, original.gateways);
        assert_eq!(back.app.activities(), original.app.activities());
        let edges = |app: &Application| {
            let mut e: Vec<(String, String)> = app
                .edges()
                .iter()
                .map(|&(a, b)| (app.activity(a).name.clone(), app.activity(b).name.clone()))
                .collect();
            e.sort();
            e
        };
        assert_eq!(edges(&back.app), edges(&original.app));
        assert_eq!(
            back.stats(&phy).expect("stats"),
            original.stats(&phy).expect("stats"),
            "round trip changed the workload statistics"
        );
        assert_eq!(back.fingerprint(), original.fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned() {
        // The value grid reports carry as `workload=hand:<fp>` for the
        // scenario `workload export nodes=5 clusters=2 seed=3` writes.
        let generated = generate(&GeneratorConfig::clustered(5, 2), 3).expect("scenario");
        let workload = Workload::of_generated(&generated);
        assert_eq!(workload.fingerprint(), "442f7e1f85ec0b48");
        let back = Workload::import(&workload.export().expect("exports")).expect("imports");
        assert_eq!(back.fingerprint(), "442f7e1f85ec0b48");
    }

    #[test]
    fn import_loads_a_hand_written_scenario() {
        let text = r#"
# a two-node hand-written benchmark
{"kind":"workgraph","version":1,"nodes":2}
{"kind":"graph","id":"g","period_us":4000.0,"deadline_us":3000.0}
{"kind":"task","id":"a","graph":"g","node":0,"wcet_us":20.0,"policy":"scs","prio":0,"deps":[]}
{"kind":"msg","id":"m","graph":"g","bytes":8,"class":"st","prio":0,"deps":["a"]}
{"kind":"task","id":"b","graph":"g","node":1,"wcet_us":20.0,"policy":"scs","prio":0,"deps":["m"]}
"#;
        let w = Workload::import(text).expect("imports");
        assert_eq!(w.platform.len(), 2);
        assert_eq!(w.clusters, 1);
        assert_eq!(w.app.activities().len(), 3);
        let result = flexray_opt::bbc(
            &w.platform,
            &w.app,
            flexray_model::PhyParams::bmw_like(),
            &flexray_opt::OptParams::default(),
        );
        assert!(result.is_schedulable(), "hand-written scenario solves");
    }

    #[test]
    fn forward_references_are_resolved() {
        let text = r#"
{"kind":"workgraph","version":1,"nodes":2}
{"kind":"graph","id":"g","period_us":4000.0,"deadline_us":3000.0}
{"kind":"task","id":"b","graph":"g","node":1,"wcet_us":20.0,"policy":"scs","prio":0,"deps":["m"]}
{"kind":"msg","id":"m","graph":"g","bytes":8,"class":"st","prio":0,"deps":["a"]}
{"kind":"task","id":"a","graph":"g","node":0,"wcet_us":20.0,"policy":"scs","prio":0,"deps":[]}
"#;
        let w = Workload::import(text).expect("forward refs import");
        assert_eq!(w.app.activities().len(), 3);
    }

    fn assert_rejects(text: &str, token: &str) {
        let err = Workload::import(text).expect_err("must reject");
        let msg = err.to_string();
        assert!(msg.contains(token), "error must name '{token}', got: {msg}");
    }

    #[test]
    fn malformed_inputs_are_rejected_with_the_offending_token() {
        let header = r#"{"kind":"workgraph","version":1,"nodes":2}"#;
        let graph = r#"{"kind":"graph","id":"g","period_us":4000.0,"deadline_us":3000.0}"#;
        // unknown key
        assert_rejects(
            &format!(
                "{header}\n{graph}\n{}",
                r#"{"kind":"task","id":"a","graph":"g","node":0,"wcet_us":1.0,"policy":"scs","prio":0,"threads":4,"deps":[]}"#
            ),
            "'threads'",
        );
        // unknown kind
        assert_rejects(
            &format!("{header}\n{}", r#"{"kind":"job","id":"x"}"#),
            "'job'",
        );
        // dangling dep
        assert_rejects(
            &format!(
                "{header}\n{graph}\n{}",
                r#"{"kind":"task","id":"a","graph":"g","node":0,"wcet_us":1.0,"policy":"scs","prio":0,"deps":["ghost"]}"#
            ),
            "'ghost'",
        );
        // dependency cycle, naming a member
        assert_rejects(
            &format!(
                "{header}\n{graph}\n{}\n{}",
                r#"{"kind":"task","id":"a","graph":"g","node":0,"wcet_us":1.0,"policy":"scs","prio":0,"deps":["b"]}"#,
                r#"{"kind":"task","id":"b","graph":"g","node":0,"wcet_us":1.0,"policy":"scs","prio":0,"deps":["a"]}"#
            ),
            "cycle",
        );
        // bad home cluster
        assert_rejects(
            r#"{"kind":"workgraph","version":1,"nodes":2,"clusters":2,"node_cluster":[0,7],"gateways":[1]}"#,
            "cluster 7",
        );
        // unknown graph
        assert_rejects(
            &format!(
                "{header}\n{}",
                r#"{"kind":"task","id":"a","graph":"h","node":0,"wcet_us":1.0,"policy":"scs","prio":0,"deps":[]}"#
            ),
            "'h'",
        );
        // bad policy token
        assert_rejects(
            &format!(
                "{header}\n{graph}\n{}",
                r#"{"kind":"task","id":"a","graph":"g","node":0,"wcet_us":1.0,"policy":"rr","prio":0,"deps":[]}"#
            ),
            "'rr'",
        );
        // missing header
        assert_rejects(graph, "header");
        // clusters without gateways
        assert_rejects(
            r#"{"kind":"workgraph","version":1,"nodes":4,"clusters":2,"node_cluster":[0,0,1,1]}"#,
            "gateways",
        );
    }

    #[test]
    fn errors_carry_the_line_number() {
        let text = format!(
            "{}\n\n# comment\n{}",
            r#"{"kind":"workgraph","version":1,"nodes":2}"#,
            r#"{"kind":"graph","id":"g","period_us":4000.0}"#
        );
        let err = Workload::import(&text).expect_err("missing deadline");
        assert!(
            err.to_string().contains("line 4"),
            "blank and comment lines still count: {err}"
        );
    }
}
