//! The `flexray-serve-job` JSONL job-spec schema (v1).
//!
//! One job per queue line:
//!
//! ```json
//! {"schema":"flexray-serve-job","version":1,"id":"g1","kind":"grid","args":["nodes=2,3","apps=1","mode=smoke"]}
//! ```
//!
//! `kind` selects the harness and `args` is parsed by the same strict
//! `key=value` grammar as the corresponding `flexray-bench` binary
//! (`grid`, `sweep`, `fig9`, `fuzz`): [`flexray_bench::args`]. Every
//! malformed token is rejected with an error *naming the token*, and
//! the daemon journals the rejection instead of crashing. A grid job's
//! `workload=FILE` is read when the spec line is parsed, and the report
//! header pins the workload's fingerprint.
//!
//! Keys the daemon owns — `threads` (unit dispatch is the daemon's) and
//! `out`/`csv` (reports live under the daemon's report directory) — are
//! rejected. A killed job needs no key to recover: the journal replays
//! its finished points on restart.
//! `eval_threads` *is* allowed: it sizes the warm multi-session
//! `Evaluator` pool each unit's candidate evaluations fan out across,
//! and is bit-identical for any value.
//!
//! `sweep` and `fig9` describe grids, so all four kinds reduce to two
//! execution plans: [`JobKind::Grid`] and [`JobKind::Fuzz`].

use flexray_bench::args::{self, Kind};
use flexray_bench::report::{arr_field, count_field, malformed, str_field, Json};
use flexray_model::ModelError;

/// Schema identifier carried by every job-spec line.
pub const JOB_SCHEMA: &str = "flexray-serve-job";
/// Version of the job-spec layout; bump on any schema change (the
/// golden test enforces the pairing).
pub const JOB_SCHEMA_VERSION: u32 = 1;

/// The execution plan a job desugars to.
pub use flexray_bench::args::Plan as JobKind;

/// One parsed job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job identifier (also the report file stem); restricted
    /// to `[A-Za-z0-9._-]`.
    pub id: String,
    /// The `kind` token as spelled in the spec
    /// (`grid`/`sweep`/`fig9`/`fuzz`).
    pub kind_name: String,
    /// The raw `key=value` argument tokens, in spec order.
    pub args: Vec<String>,
    /// The desugared execution plan.
    pub kind: JobKind,
}

impl JobSpec {
    /// Serialises the spec as one canonical queue line (no newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::Str(JOB_SCHEMA.into())),
            ("version".into(), Json::Num(f64::from(JOB_SCHEMA_VERSION))),
            ("id".into(), Json::Str(self.id.clone())),
            ("kind".into(), Json::Str(self.kind_name.clone())),
            (
                "args".into(),
                Json::Arr(self.args.iter().map(|a| Json::Str(a.clone())).collect()),
            ),
        ])
        .write()
        .expect("spec lines hold only strings and a small integer version")
    }

    /// Number of points the job will journal.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.kind.grid().total_points()
    }
}

/// Parses and desugars one job-spec line.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] naming the offending token on
/// malformed JSON, a wrong schema or version, a missing or invalid
/// `id`, an unknown top-level member, an unknown `kind`, or any bad
/// `args` token (unknown key, bad value, daemon-managed key,
/// inconsistent resulting configuration).
pub fn parse_job(line: &str) -> Result<JobSpec, ModelError> {
    let json = Json::parse(line)?;
    let Json::Obj(members) = &json else {
        return Err(malformed("job spec is not a JSON object"));
    };
    for (key, _) in members {
        if !matches!(key.as_str(), "schema" | "version" | "id" | "kind" | "args") {
            return Err(malformed(&format!("unknown job-spec key '{key}'")));
        }
    }
    let schema = str_field(&json, "schema")?;
    if schema != JOB_SCHEMA {
        return Err(malformed(&format!(
            "job schema is '{schema}', expected '{JOB_SCHEMA}'"
        )));
    }
    let version: u32 = count_field(&json, "version")?;
    if version != JOB_SCHEMA_VERSION {
        return Err(malformed(&format!(
            "job schema version {version} unsupported (this build reads {JOB_SCHEMA_VERSION})"
        )));
    }
    let id = str_field(&json, "id")?.to_owned();
    if id.is_empty()
        || !id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(malformed(&format!(
            "job id '{id}' is not a non-empty [A-Za-z0-9._-] name"
        )));
    }
    let kind_name = str_field(&json, "kind")?.to_owned();
    let args: Vec<String> = arr_field(&json, "args")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(str::to_owned)
                .ok_or_else(|| malformed("job arg is not a string"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let Some(harness) = Kind::from_name(&kind_name) else {
        return Err(malformed(&format!(
            "unknown job kind '{kind_name}' (expected grid, sweep, fig9 or fuzz)"
        )));
    };
    for arg in &args {
        let key = arg.split_once('=').map_or(arg.as_str(), |(key, _)| key);
        if matches!(key, "threads" | "out" | "csv") {
            return Err(malformed(&format!(
                "daemon-managed key '{key}' is not allowed in a job spec"
            )));
        }
    }
    let mut kind = args::parse(harness, &args)?.plan;
    match &mut kind {
        JobKind::Grid(cfg) => cfg.threads = 1,
        JobKind::Fuzz(cfg) => cfg.grid.threads = 1,
    }
    kind.validate()?;
    Ok(JobSpec {
        id,
        kind_name,
        args,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_bench::grid::SeedPolicy;
    use flexray_bench::sweep::SweepAxis;
    use flexray_bench::workload::Workload;
    use flexray_gen::GeneratorConfig;

    fn line(id: &str, kind: &str, args: &[&str]) -> String {
        let args = args
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"{JOB_SCHEMA}\",\"version\":{JOB_SCHEMA_VERSION},\
             \"id\":\"{id}\",\"kind\":\"{kind}\",\"args\":[{args}]}}"
        )
    }

    #[test]
    fn grid_job_round_trips_through_the_canonical_line() {
        let spec =
            parse_job(&line("g1", "grid", &["nodes=2,3", "apps=1", "mode=smoke"])).expect("parses");
        assert_eq!(spec.id, "g1");
        assert_eq!(spec.total_points(), 2);
        let JobKind::Grid(cfg) = &spec.kind else {
            panic!("grid plan expected")
        };
        assert_eq!(cfg.apps_per_point, 1);
        assert_eq!(cfg.threads, 1, "unit dispatch belongs to the daemon");
        let reparsed = parse_job(&spec.to_line()).expect("canonical line parses");
        assert_eq!(reparsed.to_line(), spec.to_line());
    }

    #[test]
    fn sweep_and_fig9_desugar_to_grids() {
        let sweep = parse_job(&line("s1", "sweep", &["depth=3,5", "mode=smoke"])).expect("parses");
        assert!(matches!(&sweep.kind, JobKind::Grid(cfg) if cfg.axes.len() == 1));
        assert!(parse_job(&line("s2", "sweep", &["depth=3", "nodes=2", "mode=smoke"])).is_err());

        let fig9 =
            parse_job(&line("f1", "fig9", &["nodes=2,3", "apps=1", "mode=smoke"])).expect("parses");
        let JobKind::Grid(cfg) = &fig9.kind else {
            panic!("grid plan expected")
        };
        assert_eq!(cfg.algos.len(), 4);
        assert_eq!(
            cfg.seed_policy,
            SeedPolicy::PointOffsets(vec![2000, 3000]),
            "fig9 keeps its historical node-count seed schedule"
        );
    }

    #[test]
    fn grid_jobs_take_the_clusters_axis_and_workload_files() {
        let spec = parse_job(&line(
            "c1",
            "grid",
            &["clusters=1,2", "apps=1", "mode=smoke"],
        ))
        .expect("parses");
        assert_eq!(spec.total_points(), 2);
        let JobKind::Grid(cfg) = &spec.kind else {
            panic!("grid plan expected")
        };
        assert!(matches!(cfg.axes[0], SweepAxis::Clusters(_)));

        let generated = flexray_gen::generate(&GeneratorConfig::clustered(5, 2), 3)
            .expect("clustered scenario");
        let dir = std::env::temp_dir().join("flexray-serve-spec-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("hand.jsonl");
        std::fs::write(
            &path,
            Workload::of_generated(&generated).export().expect("export"),
        )
        .expect("write workgraph");
        let arg = format!("workload={}", path.display());
        let spec = parse_job(&line("w1", "grid", &[&arg, "apps=1", "mode=smoke"])).expect("parses");
        assert_eq!(spec.total_points(), 1, "a workload job is one fixed point");
        let JobKind::Grid(cfg) = &spec.kind else {
            panic!("grid plan expected")
        };
        assert_eq!(cfg.workload.as_ref().expect("workload source").name, "hand");

        let err = parse_job(&line("w2", "grid", &["workload=/no/such/file.jsonl"]))
            .expect_err("missing file rejected");
        assert!(
            err.to_string().contains("/no/such/file.jsonl"),
            "error must name the file: {err}"
        );
    }

    #[test]
    fn fuzz_jobs_parse_their_own_grammar() {
        let spec = parse_job(&line(
            "z1",
            "fuzz",
            &[
                "nodes=2",
                "orders=1,2",
                "reps=2",
                "compress=off",
                "mode=smoke",
            ],
        ))
        .expect("parses");
        let JobKind::Fuzz(cfg) = &spec.kind else {
            panic!("fuzz plan expected")
        };
        assert_eq!(cfg.order_seeds, vec![1, 2]);
        assert!(!cfg.compress);
    }

    #[test]
    fn rejections_name_the_offending_token() {
        let cases: Vec<(String, &str)> = vec![
            ("not json".into(), "JSON"),
            (
                line("g", "grid", &["nodes=2"]).replace("flexray-serve-job", "mystery"),
                "'mystery'",
            ),
            (
                line("g", "grid", &["nodes=2"]).replace(":1,", ":9,"),
                "version 9",
            ),
            (
                line("g", "grid", &["nodes=2"]).replace(":1,", ":1.5,"),
                "field 'version' is not a non-negative integer",
            ),
            (
                line("g", "grid", &["nodes=2"]).replace(":1,", ":-1,"),
                "field 'version' is not a non-negative integer",
            ),
            (
                line("g", "grid", &["nodes=2"]).replace(":1,", ":1e16,"),
                "field 'version' is not a non-negative integer",
            ),
            (line("bad id!", "grid", &["nodes=2"]), "'bad id!'"),
            (line("g", "mystery", &["nodes=2"]), "'mystery'"),
            (line("g", "grid", &["nodes=2", "bogus=1"]), "'bogus'"),
            (line("g", "grid", &["nodes=zero"]), "'zero'"),
            (line("g", "grid", &["nodes=2", "mode=warp"]), "'warp'"),
            (line("g", "grid", &["nodes=2", "threads=4"]), "'threads'"),
            (line("g", "grid", &["nodes=2", "out=x"]), "'out'"),
            (line("g", "grid", &["nodes=2", "resume=x"]), "'resume'"),
            (line("g", "grid", &["apps=1"]), "axis"),
            (line("g", "grid", &["nodes=2", "algos=bbc,warp"]), "warp"),
            (
                line("z", "fuzz", &["nodes=2", "orders=1,1"]),
                "order seed 1",
            ),
            (line("z", "fuzz", &["nodes=2", "csv=x"]), "'csv'"),
            (line("s", "sweep", &["nodes=2", "bogus=1"]), "'bogus'"),
            (line("s", "sweep", &["nodes=2", "workload=x"]), "'workload'"),
            (line("s", "sweep", &["depth=3", "nodes=2"]), "got 2"),
            (line("s", "sweep", &["nodes=2", "out=x"]), "'out'"),
            (line("f", "fig9", &["apps=one"]), "'one'"),
            (line("f", "fig9", &["nodes=2", "algos=bbc"]), "'algos'"),
            (line("f", "fig9", &["nodes=2", "threads=2"]), "'threads'"),
            (
                line("g", "grid", &["nodes=2"]).replace("\"args\"", "\"junk\""),
                "'junk'",
            ),
        ];
        for (bad, token) in cases {
            let err = parse_job(&bad).expect_err(&format!("accepted {bad:?}"));
            assert!(
                err.to_string().contains(token),
                "error for {bad:?} does not name {token:?}: {err}"
            );
        }
    }
}
