//! Schema-versioned grid report codec: JSON lines and CSV.
//!
//! The `grid` binary streams one JSON object per line — a header line
//! describing the grid (schema version, axes, algorithm set, seeds)
//! followed by one line per completed [`GridPoint`] in point order — so
//! a killed run leaves a well-formed prefix that
//! [`from_jsonl`] can recover and
//! [`run_grid_resumed`](crate::grid::run_grid_resumed) can complete.
//! The CSV rendering is a flat, spreadsheet-friendly projection of the
//! same records (one row per point × algorithm). The `grid` and `fuzz`
//! binaries stream their reports through one [`ReportWriter`].
//!
//! The build environment has no crates.io access (the workspace links a
//! no-op `serde` shim, see `vendor/README.md`), so the codec is a small
//! hand-rolled JSON value type with a writer and a recursive-descent
//! parser — swap it for `serde_json` if registry access appears.
//!
//! # Schema stability
//!
//! [`GRID_SCHEMA_VERSION`] names the wire format. Any change to the
//! record layout must bump it, and the golden-file test in
//! `tests/grid.rs` breaks on purpose when that happens — update the
//! golden file together with the version.

use crate::args::Kind;
use crate::grid::{GridConfig, GridPoint};
use crate::sweep::AlgoStats;
use flexray_gen::AggregatedGenStats;
use flexray_model::{ModelError, UtilSummary};
use std::io::Write;

/// Schema identifier carried by every report header.
pub const GRID_SCHEMA: &str = "flexray-grid";
/// Version of the record layout; bump on any schema change (the golden
/// test enforces the pairing).
pub const GRID_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Minimal JSON value type
// ---------------------------------------------------------------------

/// A JSON value. Object member order is preserved (insertion order), so
/// writing is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; written via the shortest
    /// round-tripping form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value on one line (no insignificant whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the value contains a
    /// non-finite number: JSON has no NaN/Infinity literal, and writing
    /// `null` in its place would silently break the parse→write
    /// round-trip invariant. Producers must keep their numbers finite.
    pub fn write(&self) -> Result<String, ModelError> {
        let mut out = String::new();
        self.write_into(&mut out)?;
        Ok(out)
    }

    fn write_into(&self, out: &mut String) -> Result<(), ModelError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(ModelError::InvalidConfig(format!(
                        "non-finite number {n} cannot be written as JSON"
                    )));
                }
                // `{}` prints the shortest string that parses back
                // to the same f64, so parse→write round-trips.
                out.push_str(&format!("{n}"));
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out)?;
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone())
                        .write_into(out)
                        .expect("strings are always writable");
                    out.push(':');
                    value.write_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] describing the first
    /// syntax error.
    pub fn parse(text: &str) -> Result<Json, ModelError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(syntax(pos, "trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn syntax(pos: usize, msg: &str) -> ModelError {
    ModelError::InvalidConfig(format!("report JSON at byte {pos}: {msg}"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), ModelError> {
    if *pos < bytes.len() && bytes[*pos] == what {
        *pos += 1;
        Ok(())
    } else {
        Err(syntax(*pos, &format!("expected '{}'", what as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ModelError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(syntax(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(syntax(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(syntax(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ModelError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(syntax(*pos, &format!("expected '{lit}'")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ModelError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number chars");
    let n: f64 = text
        .parse()
        .map_err(|_| syntax(start, &format!("invalid number '{text}'")))?;
    // Overflowing literals like `1e999` parse to infinity, which the
    // writer (rightly) refuses — reject them at the door instead.
    if !n.is_finite() {
        return Err(syntax(start, &format!("number '{text}' overflows f64")));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ModelError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let start = *pos;
    loop {
        match bytes.get(*pos) {
            None => return Err(syntax(start, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| syntax(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| syntax(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| syntax(*pos, "invalid \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| syntax(*pos, "invalid \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(syntax(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // copy the full UTF-8 scalar starting here
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| syntax(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

/// The grid description carried by the first report line. Resume
/// compares the recovered header against the current configuration's,
/// so a partial report can only be completed by the grid that wrote it
/// (worker-thread count excepted — it does not affect the output).
#[derive(Debug, Clone, PartialEq)]
pub struct GridReportHeader {
    /// Record-layout version ([`GRID_SCHEMA_VERSION`]).
    pub version: u32,
    /// `(axis name, point values)` in axis order.
    pub axes: Vec<(String, Vec<String>)>,
    /// Applications (seeds) per grid point.
    pub apps_per_point: usize,
    /// Algorithm reporting names, in run order.
    pub algos: Vec<String>,
    /// Base RNG seed.
    pub seed0: u64,
    /// Fingerprint of everything else that shapes the output — the
    /// optimiser/SA parameters, the seed policy and the base generator
    /// configuration (their debug rendering; equality is all resume
    /// needs).
    pub params: String,
    /// Number of grid points.
    pub total_points: usize,
}

impl GridReportHeader {
    /// The header describing a grid configuration.
    #[must_use]
    pub fn of(cfg: &GridConfig) -> Self {
        let axes = cfg
            .axes
            .iter()
            .map(|axis| {
                let name = axis.name().to_owned();
                let values = (0..axis.len()).map(|i| axis.value(i)).collect();
                (name, values)
            })
            .collect();
        GridReportHeader {
            version: GRID_SCHEMA_VERSION,
            axes,
            apps_per_point: cfg.apps_per_point,
            algos: cfg.algos.iter().map(|a| a.name().to_owned()).collect(),
            seed0: cfg.seed0,
            params: {
                let mut params = format!(
                    "{:?} | {:?} | {:?} | base={:?}",
                    cfg.params, cfg.sa, cfg.seed_policy, cfg.base
                );
                if let Some(source) = &cfg.workload {
                    // fingerprint, not content: resume only needs to
                    // detect that the workload changed
                    params.push_str(&format!(
                        " | workload={}:{}",
                        source.name,
                        source.workload.fingerprint()
                    ));
                }
                params
            },
            total_points: cfg.total_points(),
        }
    }

    /// Serialises the header as the first report line (no newline).
    ///
    /// # Errors
    ///
    /// Propagates the non-finite-number error of [`Json::write`] (the
    /// header's numeric fields are all counts, so in practice this is
    /// infallible).
    pub fn to_line(&self) -> Result<String, ModelError> {
        Json::Obj(vec![
            ("schema".into(), Json::Str(GRID_SCHEMA.into())),
            ("version".into(), Json::Num(f64::from(self.version))),
            (
                "axes".into(),
                Json::Arr(
                    self.axes
                        .iter()
                        .map(|(name, values)| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(name.clone())),
                                (
                                    "values".into(),
                                    Json::Arr(
                                        values.iter().map(|v| Json::Str(v.clone())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "apps_per_point".into(),
                Json::Num(self.apps_per_point as f64),
            ),
            (
                "algos".into(),
                Json::Arr(self.algos.iter().map(|a| Json::Str(a.clone())).collect()),
            ),
            // as a string: u64 seeds beyond 2^53 would round through
            // the f64 number type and break resume header equality
            ("seed0".into(), Json::Str(self.seed0.to_string())),
            ("params".into(), Json::Str(self.params.clone())),
            ("total_points".into(), Json::Num(self.total_points as f64)),
        ])
        .write()
    }

    /// Parses a header line.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] on malformed JSON, a
    /// wrong schema identifier, or an unsupported version.
    pub fn parse(line: &str) -> Result<Self, ModelError> {
        let json = Json::parse(line)?;
        let schema = str_field(&json, "schema")?;
        if schema != GRID_SCHEMA {
            return Err(ModelError::InvalidConfig(format!(
                "report schema is '{schema}', expected '{GRID_SCHEMA}'"
            )));
        }
        let version = num_field(&json, "version")? as u32;
        if version != GRID_SCHEMA_VERSION {
            return Err(ModelError::InvalidConfig(format!(
                "report schema version {version} unsupported (this build writes \
                 {GRID_SCHEMA_VERSION})"
            )));
        }
        let axes = arr_field(&json, "axes")?
            .iter()
            .map(|axis| {
                let name = str_field(axis, "name")?.to_owned();
                let values = arr_field(axis, "values")?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| malformed("axis value is not a string"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((name, values))
            })
            .collect::<Result<Vec<_>, ModelError>>()?;
        Ok(GridReportHeader {
            version,
            axes,
            apps_per_point: num_field(&json, "apps_per_point")? as usize,
            algos: arr_field(&json, "algos")?
                .iter()
                .map(|a| {
                    a.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| malformed("algorithm name is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            seed0: str_field(&json, "seed0")?
                .parse()
                .map_err(|_| malformed("field 'seed0' is not an integer string"))?,
            params: str_field(&json, "params")?.to_owned(),
            total_points: num_field(&json, "total_points")? as usize,
        })
    }
}

/// A "malformed record" error — shared by every JSONL schema built on
/// this codec (`flexray-grid`, `flexray-fuzz`, the `flexray-serve` job
/// and journal schemas).
#[must_use]
pub fn malformed(msg: &str) -> ModelError {
    ModelError::InvalidConfig(format!("malformed report record: {msg}"))
}

/// Member `key` of an object, or a "missing field" error.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] when `json` is not an object
/// or lacks the field.
pub fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, ModelError> {
    json.get(key)
        .ok_or_else(|| malformed(&format!("missing field '{key}'")))
}

/// Number member `key` of an object.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] when the field is missing or
/// not a number.
pub fn num_field(json: &Json, key: &str) -> Result<f64, ModelError> {
    field(json, key)?
        .as_f64()
        .ok_or_else(|| malformed(&format!("field '{key}' is not a number")))
}

/// String member `key` of an object.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] when the field is missing or
/// not a string.
pub fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, ModelError> {
    field(json, key)?
        .as_str()
        .ok_or_else(|| malformed(&format!("field '{key}' is not a string")))
}

/// Array member `key` of an object.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] when the field is missing or
/// not an array.
pub fn arr_field<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], ModelError> {
    field(json, key)?
        .as_arr()
        .ok_or_else(|| malformed(&format!("field '{key}' is not an array")))
}

// ---------------------------------------------------------------------
// Point records
// ---------------------------------------------------------------------

/// Serialises one grid point as a report line (no newline).
///
/// # Errors
///
/// Propagates the non-finite-number error of [`Json::write`]: a NaN or
/// infinite statistic (e.g. an average over zero samples) is a producer
/// bug surfaced here rather than silently written as `null`.
pub fn point_to_line(point: &GridPoint) -> Result<String, ModelError> {
    point_to_json(point).write()
}

/// The JSON value behind [`point_to_line`] — the form the
/// `flexray-serve` journal embeds as the `data` member of its point
/// records.
#[must_use]
pub fn point_to_json(point: &GridPoint) -> Json {
    let gen = &point.gen;
    Json::Obj(vec![
        ("point".into(), Json::Num(point.index as f64)),
        ("label".into(), Json::Str(point.label.clone())),
        (
            "coords".into(),
            Json::Obj(
                point
                    .coords
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::Str(value.clone())))
                    .collect(),
            ),
        ),
        (
            "gen".into(),
            Json::Obj(vec![
                ("apps".into(), Json::Num(gen.apps as f64)),
                ("avg_tasks".into(), Json::Num(gen.avg_tasks)),
                ("avg_relay_tasks".into(), Json::Num(gen.avg_relay_tasks)),
                ("avg_st_messages".into(), Json::Num(gen.avg_st_messages)),
                ("avg_dyn_messages".into(), Json::Num(gen.avg_dyn_messages)),
                ("avg_graphs".into(), Json::Num(gen.avg_graphs)),
                (
                    "node_util".into(),
                    Json::Obj(vec![
                        ("min".into(), Json::Num(gen.node_util.min)),
                        ("mean".into(), Json::Num(gen.node_util.mean)),
                        ("max".into(), Json::Num(gen.node_util.max)),
                    ]),
                ),
                ("avg_bus_util".into(), Json::Num(gen.avg_bus_util)),
                (
                    "depth_histogram".into(),
                    Json::Arr(
                        gen.depth_histogram
                            .iter()
                            .map(|&n| Json::Num(n as f64))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "algos".into(),
            Json::Arr(
                point
                    .algos
                    .iter()
                    .map(|(name, s)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(name.clone())),
                            ("schedulable".into(), Json::Num(s.schedulable as f64)),
                            ("total".into(), Json::Num(s.total as f64)),
                            ("avg_deviation_pct".into(), Json::Num(s.avg_deviation_pct)),
                            ("avg_time_s".into(), Json::Num(s.avg_time_s)),
                            ("avg_evaluations".into(), Json::Num(s.avg_evaluations)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses one grid-point report line.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] on malformed JSON or a missing
/// or mistyped field.
pub fn point_from_line(line: &str) -> Result<GridPoint, ModelError> {
    let json = &Json::parse(line)?;
    let coords = match field(json, "coords")? {
        Json::Obj(members) => members
            .iter()
            .map(|(name, value)| {
                value
                    .as_str()
                    .map(|v| (name.clone(), v.to_owned()))
                    .ok_or_else(|| malformed("coordinate value is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(malformed("field 'coords' is not an object")),
    };
    let gen_json = field(json, "gen")?;
    let node_util = field(gen_json, "node_util")?;
    let gen = AggregatedGenStats {
        apps: num_field(gen_json, "apps")? as usize,
        avg_tasks: num_field(gen_json, "avg_tasks")?,
        avg_relay_tasks: num_field(gen_json, "avg_relay_tasks")?,
        avg_st_messages: num_field(gen_json, "avg_st_messages")?,
        avg_dyn_messages: num_field(gen_json, "avg_dyn_messages")?,
        avg_graphs: num_field(gen_json, "avg_graphs")?,
        node_util: UtilSummary {
            min: num_field(node_util, "min")?,
            mean: num_field(node_util, "mean")?,
            max: num_field(node_util, "max")?,
        },
        avg_bus_util: num_field(gen_json, "avg_bus_util")?,
        depth_histogram: arr_field(gen_json, "depth_histogram")?
            .iter()
            .map(|n| {
                n.as_f64()
                    .map(|n| n as usize)
                    .ok_or_else(|| malformed("histogram entry is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let algos = arr_field(json, "algos")?
        .iter()
        .map(|algo| {
            Ok((
                str_field(algo, "name")?.to_owned(),
                AlgoStats {
                    schedulable: num_field(algo, "schedulable")? as usize,
                    total: num_field(algo, "total")? as usize,
                    avg_deviation_pct: num_field(algo, "avg_deviation_pct")?,
                    avg_time_s: num_field(algo, "avg_time_s")?,
                    avg_evaluations: num_field(algo, "avg_evaluations")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, ModelError>>()?;
    Ok(GridPoint {
        index: num_field(json, "point")? as usize,
        label: str_field(json, "label")?.to_owned(),
        coords,
        algos,
        gen,
    })
}

// ---------------------------------------------------------------------
// Whole reports
// ---------------------------------------------------------------------

/// Renders a complete report: header line plus one line per point,
/// each newline-terminated.
///
/// # Errors
///
/// Propagates the non-finite-number error of [`Json::write`].
pub fn to_jsonl(header: &GridReportHeader, points: &[GridPoint]) -> Result<String, ModelError> {
    let mut out = header.to_line()?;
    out.push('\n');
    for point in points {
        out.push_str(&point_to_line(point)?);
        out.push('\n');
    }
    Ok(out)
}

/// Recovers `(header, completed points)` from a (possibly truncated)
/// JSON-lines report. A torn final line — the signature of a killed
/// run — is ignored; malformed lines elsewhere are errors.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] on an empty report, a header
/// mismatch (see [`GridReportHeader::parse`]) or a malformed
/// non-final record.
pub fn from_jsonl(content: &str) -> Result<(GridReportHeader, Vec<GridPoint>), ModelError> {
    let mut lines = content.lines().enumerate();
    let Some((_, first)) = lines.next() else {
        return Err(ModelError::InvalidConfig("report is empty".into()));
    };
    let header = GridReportHeader::parse(first)?;
    let mut points = Vec::new();
    let mut rest = lines.peekable();
    while let Some((lineno, line)) = rest.next() {
        if line.trim().is_empty() {
            continue;
        }
        match point_from_line(line) {
            Ok(point) => points.push(point),
            // only a torn *final* line is recoverable
            Err(_) if rest.peek().is_none() && !content.ends_with('\n') => break,
            Err(e) => {
                return Err(ModelError::InvalidConfig(format!(
                    "report line {}: {e}",
                    lineno + 1
                )))
            }
        }
    }
    Ok((header, points))
}

/// Renders the CSV projection: one row per point × algorithm, with one
/// column per grid axis and the per-point generator statistics repeated
/// on each of the point's rows. The depth histogram is packed as
/// `depth:count` pairs joined by `|`.
#[must_use]
pub fn to_csv(header: &GridReportHeader, points: &[GridPoint]) -> String {
    let mut out = String::from("point,label");
    for (name, _) in &header.axes {
        out.push(',');
        out.push_str(name);
    }
    out.push_str(
        ",apps,avg_tasks,avg_relay_tasks,avg_st_messages,avg_dyn_messages,avg_graphs,\
         node_util_min,node_util_mean,node_util_max,avg_bus_util,depth_histogram,\
         algo,schedulable,total,avg_deviation_pct,avg_time_s,avg_evaluations\n",
    );
    for point in points {
        let hist = point
            .gen
            .depth_histogram
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(d, &n)| format!("{d}:{n}"))
            .collect::<Vec<_>>()
            .join("|");
        for (name, s) in &point.algos {
            out.push_str(&format!("{},{}", point.index, csv_cell(&point.label)));
            for (axis, _) in &header.axes {
                let value = point
                    .coords
                    .iter()
                    .find(|(n, _)| n == axis)
                    .map_or("", |(_, v)| v.as_str());
                out.push(',');
                out.push_str(&csv_cell(value));
            }
            let g = &point.gen;
            out.push_str(&format!(
                ",{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                g.apps,
                g.avg_tasks,
                g.avg_relay_tasks,
                g.avg_st_messages,
                g.avg_dyn_messages,
                g.avg_graphs,
                g.node_util.min,
                g.node_util.mean,
                g.node_util.max,
                g.avg_bus_util,
                csv_cell(&hist),
                csv_cell(name),
                s.schedulable,
                s.total,
                s.avg_deviation_pct,
                s.avg_time_s,
                s.avg_evaluations,
            ));
        }
    }
    out
}

/// Quotes a CSV cell when it contains a separator, quote or newline.
fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Ends a harness binary on a run error: prints `<kind>: <msg>` to
/// stderr and exits with status 1.
pub fn fail(kind: Kind, msg: &str) -> ! {
    eprintln!("{}: {msg}", kind.name());
    std::process::exit(1);
}

/// The JSON-lines report a harness binary streams, to a file or to
/// stdout: every line is flushed as it is written, so a killed run
/// leaves a well-formed prefix. Any IO or encoding failure ends the
/// process through [`fail`].
pub struct ReportWriter {
    kind: Kind,
    sink: Box<dyn Write>,
}

impl ReportWriter {
    /// Creates the report at `path`, or streams to stdout without one.
    #[must_use]
    pub fn create(kind: Kind, path: Option<&str>) -> Self {
        let sink: Box<dyn Write> = match path {
            Some(path) => match std::fs::File::create(path) {
                Ok(file) => Box::new(std::io::BufWriter::new(file)),
                Err(e) => fail(kind, &format!("cannot write report '{path}': {e}")),
            },
            None => Box::new(std::io::stdout().lock()),
        };
        ReportWriter { kind, sink }
    }

    /// Writes and flushes one encoded line.
    pub fn line(&mut self, line: Result<String, ModelError>) {
        let line = match line {
            Ok(line) => line,
            Err(e) => fail(self.kind, &format!("report encode failed: {e}")),
        };
        if let Err(e) = writeln!(self.sink, "{line}").and_then(|()| self.sink.flush()) {
            fail(self.kind, &format!("report write failed: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_values_round_trip() {
        let value = Json::Obj(vec![
            ("s".into(), Json::Str("a \"quoted\"\nline\t\\".into())),
            (
                "a".into(),
                Json::Arr(vec![
                    Json::Num(1.0),
                    Json::Num(-0.25),
                    Json::Num(1e-9),
                    Json::Bool(true),
                    Json::Null,
                ]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("unicode".into(), Json::Str("µs — grüße".into())),
        ]);
        let text = value.write().expect("finite values");
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, value);
        // and the rendering is stable through a second cycle
        assert_eq!(back.write().expect("finite values"), text);
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let json = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\n\" ] } ").expect("parses");
        assert_eq!(
            json.get("k").and_then(|v| v.as_arr()).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            json.get("k")
                .and_then(|v| v.as_arr())
                .and_then(|a| a[1].as_str()),
            Some("A\n")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn float_display_round_trips_through_parse() {
        for v in [0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 123_456.789, 1e-12] {
            let text = Json::Num(v).write().expect("finite values");
            let back = Json::parse(&text).expect("parses").as_f64().expect("num");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} → {text}");
        }
    }

    #[test]
    fn non_finite_numbers_are_write_errors_not_null() {
        // Regression: these used to serialise as `null`, silently
        // breaking the parse→write round-trip invariant.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Json::Num(v).write().expect_err("non-finite must fail");
            assert!(
                err.to_string().contains("non-finite"),
                "error names the cause: {err}"
            );
            // nested occurrences are caught too
            let nested = Json::Obj(vec![("a".into(), Json::Arr(vec![Json::Num(v)]))]);
            assert!(nested.write().is_err());
        }
    }

    #[test]
    fn parser_cannot_produce_non_finite_numbers() {
        // The write-time guard is sufficient because no parsed document
        // can contain a non-finite number: the lexer only consumes
        // number characters, and `NaN`/`Infinity` literals are rejected.
        for bad in ["NaN", "Infinity", "-Infinity", "[nan]", "{\"a\":inf}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // `1e999` overflows f64 to +inf in from_str — the one lexable
        // spelling of an infinite value — and must not slip through.
        assert!(
            Json::parse("1e999").is_err(),
            "overflowing literal must not parse to infinity"
        );
    }
}
