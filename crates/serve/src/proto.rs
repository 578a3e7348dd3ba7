//! The wire protocol: JSON shapes for requests, responses, and the
//! typed error envelope.
//!
//! This module owns the solve-config wire format whole: a request's
//! `config` object parses straight into an [`lmds_api::SolveConfig`]
//! (field names, JSON types and value rules in one place), and
//! [`config_fingerprint`] renders a config back into that object for
//! the result-cache key.
//!
//! Every error response body is the envelope
//! `{"code": <stable-slug>, "message": <human text>}`, extended with
//! `"valid_keys"` on unknown-solver/unknown-graph rejections so a
//! client (like the `reproduce` CLI before it) is always steered to a
//! valid alternative.

use crate::json::Value;
use lmds_api::{FaultReport, IdPolicy, Problem, SolutionView, SolveConfig, SolveError};
use lmds_core::Radii;
use lmds_graph::dynamic::GraphUpdate;
use lmds_localsim::ParseFaultError;

/// A wire error: HTTP status plus the JSON envelope.
#[derive(Debug, Clone)]
pub struct WireError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable code (the envelope's `code` field).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Valid alternatives for not-found style errors.
    pub valid_keys: Option<Vec<String>>,
}

impl WireError {
    /// A plain envelope without alternatives.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        WireError { status, code, message: message.into(), valid_keys: None }
    }

    /// An envelope listing the valid keys the caller could have used.
    pub fn with_keys(
        status: u16,
        code: &'static str,
        message: impl Into<String>,
        keys: impl IntoIterator<Item = String>,
    ) -> Self {
        WireError {
            status,
            code,
            message: message.into(),
            valid_keys: Some(keys.into_iter().collect()),
        }
    }

    /// 400 with `code: "bad-request"`.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "bad-request", message)
    }

    /// The JSON envelope body.
    pub fn render(&self) -> Value {
        let mut pairs =
            vec![("code", Value::from(self.code)), ("message", Value::from(self.message.clone()))];
        if let Some(keys) = &self.valid_keys {
            pairs.push((
                "valid_keys",
                Value::Arr(keys.iter().map(|k| Value::from(k.as_str())).collect()),
            ));
        }
        Value::obj(pairs)
    }
}

/// Maps a [`SolveError`] onto the wire taxonomy: unknown solver → 404
/// (with the valid keys), config/instance rejections and runtime
/// failures → 422.
pub fn solve_error_to_wire(err: &SolveError) -> WireError {
    match err {
        SolveError::UnknownSolver { key, known } => WireError::with_keys(
            404,
            "unknown-solver",
            format!("no solver registered as {key:?}"),
            known.iter().map(|k| k.to_string()),
        ),
        SolveError::UnsupportedProblem { .. }
        | SolveError::UnsupportedMode { .. }
        | SolveError::UnsupportedOptions { .. } => {
            WireError::new(422, "unsupported-config", err.to_string())
        }
        SolveError::BudgetExhausted { .. } => {
            WireError::new(422, "budget-exhausted", err.to_string())
        }
        SolveError::Runtime(..) => WireError::new(422, "solve-error", err.to_string()),
    }
}

/// A parsed `POST /solve` / `POST /jobs` body.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Corpus graph name.
    pub graph: String,
    /// Registry solver key.
    pub solver: String,
    /// The config's `problem`, when the body names one; `None` ⟹ the
    /// solver's own, which the server fills into `config` once it has
    /// resolved the solver.
    pub problem: Option<Problem>,
    /// The config (defaults when the body has no `config`), validated.
    pub config: SolveConfig,
    /// Per-job timeout in milliseconds, if requested.
    pub timeout_ms: Option<u64>,
}

fn str_field(body: &Value, field: &'static str) -> Result<String, WireError> {
    body.get(field)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError::bad_request(format!("body needs a string field {field:?}")))
}

/// Parses and validates a solve-request body.
///
/// # Errors
///
/// A 400 [`WireError`] naming the missing or ill-typed field, or a 422
/// `invalid-config` one for a well-typed config value that means
/// nothing (the config rules are on `parse_config`).
pub fn parse_solve_request(body: &[u8]) -> Result<SolveRequest, WireError> {
    let text =
        std::str::from_utf8(body).map_err(|_| WireError::bad_request("body is not UTF-8"))?;
    let doc = crate::json::parse(text).map_err(|e| WireError::bad_request(e.to_string()))?;
    let graph = str_field(&doc, "graph")?;
    let solver = str_field(&doc, "solver")?;
    let timeout_ms =
        match doc.get("timeout_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                WireError::bad_request("timeout_ms must be a non-negative integer")
            })?),
        };
    let (problem, config) = match doc.get("config") {
        None | Some(Value::Null) => (None, SolveConfig::mds()),
        Some(cfg) => parse_config(cfg)?,
    };
    Ok(SolveRequest { graph, solver, problem, config, timeout_ms })
}

/// The fields of the wire config, in the order errors list them.
const CONFIG_FIELDS: &[&str] = &[
    "problem",
    "mode",
    "id_policy",
    "id_seed",
    "round_cap",
    "radii",
    "opt_budget",
    "measure_ratio",
    "fault",
];

/// Parses the `config` object of a solve request straight into a
/// [`SolveConfig`], with its `problem` returned apart (absent ⟹ the
/// solver's, so `config.problem` holds MDS until the caller sets it).
/// Every field is optional and `null` means absent. `problem` and `mode`
/// take their `Display` forms (`"mds"`, `"local-oracle"`), `id_policy`
/// is `"sequential"`, `"shuffled"` or `"adversarial"` (seeded by
/// `id_seed`, default 0), `radii` is `[one_cut, two_cut]` and `fault`
/// the [`FaultConfig`](lmds_api::FaultConfig) grammar (e.g.
/// `"seed=7;drop=bernoulli:150"`).
///
/// # Errors
///
/// First every field's JSON type is checked: an unknown field (a typo
/// must not silently run under defaults), a wrong type or an
/// out-of-range integer is a 400 `bad-request`. Then the values: an
/// unknown name, `id_seed` without `id_policy`, radii below `(1, 2)` or
/// a fault plan that does not parse is a 422 `invalid-config` whose
/// message reads `invalid <field>: <reason>`.
fn parse_config(cfg: &Value) -> Result<(Option<Problem>, SolveConfig), WireError> {
    let Value::Obj(map) = cfg else {
        return Err(WireError::bad_request("config must be an object"));
    };
    if let Some(unknown) = map.keys().find(|k| !CONFIG_FIELDS.contains(&k.as_str())) {
        return Err(WireError::bad_request(format!(
            "unknown config field {unknown:?} (known: {})",
            CONFIG_FIELDS.join(", ")
        )));
    }
    let field = |name: &str| map.get(name).filter(|v| !matches!(v, Value::Null));
    let string = |name: &str| {
        field(name)
            .map(|v| {
                v.as_str().ok_or_else(|| {
                    WireError::bad_request(format!("config.{name} must be a string"))
                })
            })
            .transpose()
    };
    let integer = |name: &str| {
        field(name)
            .map(|v| {
                v.as_u64().ok_or_else(|| {
                    WireError::bad_request(format!("config.{name} must be a non-negative integer"))
                })
            })
            .transpose()
    };
    let radii = match field("radii") {
        None => None,
        Some(v) => {
            let items = v.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                WireError::bad_request(
                    "config.radii must be a two-element array [one_cut, two_cut]",
                )
            })?;
            let radius = |item: &Value| {
                item.as_u64()
                    .and_then(|x| u32::try_from(x).ok())
                    .ok_or_else(|| WireError::bad_request("config.radii entries must be u32"))
            };
            Some((radius(&items[0])?, radius(&items[1])?))
        }
    };
    let measure_ratio = field("measure_ratio")
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| WireError::bad_request("config.measure_ratio must be a boolean"))
        })
        .transpose()?;
    let (problem, mode, id_policy, id_seed) =
        (string("problem")?, string("mode")?, string("id_policy")?, integer("id_seed")?);
    let round_cap = integer("round_cap")?
        .map(|x| u32::try_from(x).map_err(|_| WireError::bad_request("round_cap too large")))
        .transpose()?;
    let (opt_budget, fault) = (integer("opt_budget")?, string("fault")?);

    let invalid = |name: &str, reason: String| {
        WireError::new(422, "invalid-config", format!("invalid {name}: {reason}"))
    };
    let problem = problem.map(|s| s.parse().map_err(|e| invalid("problem", e))).transpose()?;
    let mut cfg = SolveConfig::new(problem.unwrap_or(Problem::MinDominatingSet));
    if let Some(mode) = mode {
        cfg.mode = mode.parse().map_err(|e| invalid("mode", e))?;
    }
    let seed = id_seed.unwrap_or(0);
    cfg.id_policy = match id_policy {
        None if id_seed.is_some() => {
            return Err(invalid("id_seed", "id_seed given without an id_policy".into()))
        }
        None => None,
        Some("sequential") => Some(IdPolicy::Sequential),
        Some("shuffled") => Some(IdPolicy::Shuffled { seed }),
        Some("adversarial") => Some(IdPolicy::Adversarial { seed }),
        Some(other) => {
            return Err(invalid(
                "id_policy",
                format!(
                    "unknown policy {other:?} (expected \"sequential\", \"shuffled\", or \
                     \"adversarial\")"
                ),
            ))
        }
    };
    cfg.round_cap = round_cap;
    if let Some((one_cut, two_cut)) = radii {
        if one_cut < 1 || two_cut < 2 {
            return Err(invalid(
                "radii",
                format!(
                    "radii ({one_cut}, {two_cut}) out of range (need one_cut ≥ 1, two_cut ≥ 2)"
                ),
            ));
        }
        cfg.radii = Radii::practical(one_cut, two_cut);
    }
    cfg.opt_budget = opt_budget.unwrap_or(cfg.opt_budget);
    cfg.measure_ratio = measure_ratio.unwrap_or(false);
    if let Some(fault) = fault {
        cfg.fault = fault.parse().map_err(|e: ParseFaultError| invalid("fault", e.to_string()))?;
    }
    Ok((problem, cfg))
}

/// The canonical configuration fingerprint used in result-cache keys:
/// the config as the compact JSON object a request's `config` takes,
/// with every field present in key order (absent options and an inert
/// fault plan as `null`). It renders the *materialized* config, so two
/// requests that spell the same effective configuration differently
/// (omitting a field or passing its default, a seed on the sequential
/// policy) share one fingerprint. The server renders
/// `cfg.restricted_to(solver.reads(cfg))`, so fields a solver does not
/// read (`round_cap` in the centralized mode, `radii` for
/// `mds/theorem44`, …) render at their defaults.
pub fn config_fingerprint(cfg: &SolveConfig) -> String {
    let (id_policy, id_seed) = match cfg.id_policy {
        None => (Value::Null, Value::Null),
        Some(IdPolicy::Sequential) => (Value::from("sequential"), Value::Null),
        Some(IdPolicy::Shuffled { seed }) => (Value::from("shuffled"), Value::from(seed)),
        Some(IdPolicy::Adversarial { seed }) => (Value::from("adversarial"), Value::from(seed)),
    };
    Value::obj([
        ("problem", Value::from(cfg.problem.key_prefix())),
        ("mode", Value::from(cfg.mode.to_string())),
        ("id_policy", id_policy),
        ("id_seed", id_seed),
        ("round_cap", cfg.round_cap.map_or(Value::Null, Value::from)),
        ("radii", Value::Arr(vec![cfg.radii.one_cut.into(), cfg.radii.two_cut.into()])),
        ("opt_budget", Value::from(cfg.opt_budget)),
        ("measure_ratio", Value::from(cfg.measure_ratio)),
        ("fault", if cfg.fault.is_active() { cfg.fault.to_string().into() } else { Value::Null }),
    ])
    .render()
}

/// Renders a [`SolutionView`] as its wire object.
pub fn render_solution(view: &SolutionView) -> Value {
    Value::obj([
        ("solver", Value::from(view.solver.as_str())),
        ("problem", Value::from(view.problem.as_str())),
        ("mode", Value::from(view.mode.as_str())),
        ("size", Value::from(view.size)),
        ("vertices", Value::Arr(view.vertices.iter().map(|&v| Value::from(v)).collect())),
        ("valid", Value::from(view.valid)),
        ("rounds", view.rounds.map_or(Value::Null, Value::from)),
        ("total_message_bits", view.total_message_bits.map_or(Value::Null, Value::from)),
        ("max_message_bits", view.max_message_bits.map_or(Value::Null, Value::from)),
        ("wall_micros", Value::from(view.wall_micros)),
        ("ratio", view.ratio.map_or(Value::Null, Value::from)),
        (
            "optimum",
            view.optimum.map_or(Value::Null, |(value, exact)| {
                Value::obj([("value", Value::from(value)), ("exact", Value::from(exact))])
            }),
        ),
        (
            "fault",
            view.fault.as_ref().map_or(Value::Null, |r| {
                Value::obj([
                    ("messages_dropped", Value::from(r.messages_dropped)),
                    ("crashed", Value::Arr(r.crashed.iter().map(|&v| Value::from(v)).collect())),
                    ("silent", Value::Arr(r.silent.iter().map(|&v| Value::from(v)).collect())),
                    ("max_staleness", Value::from(r.max_staleness)),
                ])
            }),
        ),
    ])
}

/// Parses the wire object produced by [`render_solution`] back into a
/// [`SolutionView`] — the decode half the persistent result cache
/// needs to reload solutions on restart.
///
/// # Errors
///
/// A human-readable description of the first missing or ill-typed
/// field.
pub fn parse_solution(doc: &Value) -> Result<SolutionView, String> {
    let str_field = |f: &str| -> Result<String, String> {
        doc.get(f)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("solution needs a string field {f:?}"))
    };
    let u64_field = |f: &str| -> Result<u64, String> {
        doc.get(f)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("solution field {f:?} must be a non-negative integer"))
    };
    let opt_u64 = |f: &str| -> Result<Option<u64>, String> {
        match doc.get(f) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("solution field {f:?} must be a non-negative integer")),
        }
    };
    let vertices = doc
        .get("vertices")
        .and_then(Value::as_arr)
        .ok_or("solution needs a \"vertices\" array")?
        .iter()
        .map(|v| {
            v.as_u64().map(|x| x as usize).ok_or_else(|| "vertex ids must be integers".to_string())
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let valid = doc
        .get("valid")
        .and_then(Value::as_bool)
        .ok_or("solution needs a boolean \"valid\" field")?;
    let ratio = match doc.get("ratio") {
        None | Some(Value::Null) => None,
        Some(v) => Some(v.as_f64().ok_or("solution field \"ratio\" must be a number")?),
    };
    let optimum = match doc.get("optimum") {
        None | Some(Value::Null) => None,
        Some(o) => {
            let value = o
                .get("value")
                .and_then(Value::as_u64)
                .ok_or("optimum needs an integer \"value\"")? as usize;
            let exact =
                o.get("exact").and_then(Value::as_bool).ok_or("optimum needs a bool \"exact\"")?;
            Some((value, exact))
        }
    };
    let fault = match doc.get("fault") {
        None | Some(Value::Null) => None,
        Some(fr) => {
            let field = |f: &str| fr.get(f).ok_or_else(|| format!("fault needs a {f:?} field"));
            let count = |f: &str| -> Result<u64, String> {
                field(f)?
                    .as_u64()
                    .ok_or_else(|| format!("fault field {f:?} must be a non-negative integer"))
            };
            let vertex_list = |f: &str| -> Result<Vec<usize>, String> {
                field(f)?
                    .as_arr()
                    .ok_or_else(|| format!("fault field {f:?} must be an array"))?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .map(|x| x as usize)
                            .ok_or_else(|| format!("fault {f} entries must be integers"))
                    })
                    .collect()
            };
            Some(FaultReport {
                messages_dropped: count("messages_dropped")?,
                crashed: vertex_list("crashed")?,
                silent: vertex_list("silent")?,
                // Saturate rather than truncate: a forged 2³²+5 must not
                // silently parse as staleness 5.
                max_staleness: u32::try_from(count("max_staleness")?).unwrap_or(u32::MAX),
            })
        }
    };
    Ok(SolutionView {
        solver: str_field("solver")?,
        problem: str_field("problem")?,
        mode: str_field("mode")?,
        size: u64_field("size")? as usize,
        vertices,
        valid,
        rounds: opt_u64("rounds")?
            .map(|x| u32::try_from(x).map_err(|_| "rounds too large".to_string()))
            .transpose()?,
        total_message_bits: opt_u64("total_message_bits")?,
        max_message_bits: opt_u64("max_message_bits")?,
        wall_micros: u64_field("wall_micros")?,
        ratio,
        optimum,
        fault,
    })
}

/// Parses a `PATCH /graphs/{name}` body into a [`GraphUpdate`] batch.
///
/// Wire shape: `{"updates": [<op>, ...]}` where each op is one of
///
/// * `{"op": "insert", "u": 0, "v": 1}` — insert edge `{u, v}`,
/// * `{"op": "delete", "u": 0, "v": 1}` — remove edge `{u, v}`,
/// * `{"op": "add_vertex"}` — append one isolated vertex.
///
/// The batch is applied atomically server-side
/// ([`lmds_graph::dynamic::DynamicGraph::apply`]), so a rejected op
/// means nothing was applied. An empty batch is rejected here — a PATCH
/// that changes nothing is almost certainly a client bug.
///
/// # Errors
///
/// A 400 [`WireError`] naming the malformed op or field.
pub fn parse_update_batch(body: &[u8]) -> Result<Vec<GraphUpdate>, WireError> {
    let text =
        std::str::from_utf8(body).map_err(|_| WireError::bad_request("body is not UTF-8"))?;
    let doc = crate::json::parse(text).map_err(|e| WireError::bad_request(e.to_string()))?;
    let items = doc
        .get("updates")
        .and_then(Value::as_arr)
        .ok_or_else(|| WireError::bad_request("body needs an \"updates\" array"))?;
    if items.is_empty() {
        return Err(WireError::bad_request("\"updates\" must not be empty"));
    }
    let mut batch = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let op = item
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| WireError::bad_request(format!("update #{i} needs a string \"op\"")))?;
        let endpoint = |field: &'static str| -> Result<usize, WireError> {
            item.get(field).and_then(Value::as_u64).map(|x| x as usize).ok_or_else(|| {
                WireError::bad_request(format!(
                    "update #{i} ({op}) needs a non-negative integer {field:?}"
                ))
            })
        };
        batch.push(match op {
            "insert" => GraphUpdate::InsertEdge(endpoint("u")?, endpoint("v")?),
            "delete" => GraphUpdate::RemoveEdge(endpoint("u")?, endpoint("v")?),
            "add_vertex" => GraphUpdate::AddVertex,
            other => {
                return Err(WireError::bad_request(format!(
                    "update #{i}: unknown op {other:?} (known: insert, delete, add_vertex)"
                )))
            }
        });
    }
    Ok(batch)
}

/// Renders a graph-entry summary (`PUT /graphs/{name}` response and
/// `GET /graphs` rows). The 64-bit checksum travels as a hex string —
/// JSON numbers are f64 and would corrupt it.
pub fn render_graph_entry(entry: &crate::corpus::GraphEntry) -> Value {
    Value::obj([
        ("name", Value::from(entry.name())),
        ("n", Value::from(entry.graph().n())),
        ("m", Value::from(entry.graph().m())),
        ("checksum", Value::from(format!("{:#018x}", entry.checksum))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmds_api::ExecutionMode;

    #[test]
    fn parses_a_full_solve_request() {
        let body = br#"{
            "graph": "demo",
            "solver": "mds/algorithm1",
            "timeout_ms": 2500,
            "config": {
                "mode": "local-oracle",
                "id_policy": "shuffled",
                "id_seed": 7,
                "round_cap": 99,
                "radii": [2, 3],
                "measure_ratio": true
            }
        }"#;
        let req = parse_solve_request(body).unwrap();
        assert_eq!(req.graph, "demo");
        assert_eq!(req.solver, "mds/algorithm1");
        assert_eq!(req.timeout_ms, Some(2500));
        assert_eq!(req.problem, None, "the server fills in the solver's problem");
        assert_eq!(req.config.mode, ExecutionMode::LOCAL_ORACLE);
        assert_eq!(req.config.id_policy, Some(IdPolicy::Shuffled { seed: 7 }));
        assert_eq!(req.config.round_cap, Some(99));
        assert!(req.config.measure_ratio);
    }

    #[test]
    fn missing_fields_and_typos_are_400s() {
        let err = parse_solve_request(b"{}").unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad-request"));
        assert!(err.message.contains("graph"), "{}", err.message);

        let err = parse_solve_request(br#"{"graph":"g","solver":"s","config":{"mdoe":"x"}}"#)
            .unwrap_err();
        assert!(err.message.contains("mdoe"), "typos are named: {}", err.message);

        let err = parse_solve_request(b"not json").unwrap_err();
        assert_eq!(err.status, 400);

        let err =
            parse_solve_request(br#"{"graph":"g","solver":"s","timeout_ms":-3}"#).unwrap_err();
        assert!(err.message.contains("timeout_ms"));
    }

    #[test]
    fn unknown_solver_envelope_carries_valid_keys() {
        let registry = lmds_api::SolverRegistry::with_defaults();
        let err = SolveError::UnknownSolver { key: "mds/nope".into(), known: registry.keys() };
        let wire = solve_error_to_wire(&err);
        assert_eq!((wire.status, wire.code), (404, "unknown-solver"));
        let doc = wire.render();
        let keys = doc.get("valid_keys").unwrap().as_arr().unwrap();
        assert_eq!(keys.len(), registry.keys().len());
        assert!(keys.iter().any(|k| k.as_str() == Some("mds/algorithm1")));
    }

    #[test]
    fn solution_views_round_trip_through_the_wire_object() {
        let registry = lmds_api::SolverRegistry::with_defaults();
        let inst =
            lmds_api::Instance::sequential("p8", lmds_gen::basic::path(8)).with_mds_optimum(3);
        let cfg = lmds_api::SolveConfig::mds()
            .mode(ExecutionMode::LOCAL_MESSAGE_PASSING)
            .measure_ratio(true);
        let sol = registry.solve("mds/theorem44", &inst, &cfg).unwrap();
        let view = SolutionView::from(&sol);
        let parsed = parse_solution(&render_solution(&view)).unwrap();
        assert_eq!(parsed, view, "render → parse is the identity");

        // A fault run's report, with drops, silent vertices and stale
        // deliveries, round-trips, and its wire object stays as pinned.
        let plan = "seed=3;drop=bernoulli:100;crash=random:2@1;skew=2".parse().unwrap();
        let sol = registry.solve("mds/theorem44", &inst, &cfg.clone().fault(plan)).unwrap();
        let view = SolutionView::from(&sol);
        let report = view.fault.as_ref().expect("an active plan reports");
        assert!(report.messages_dropped > 0 && report.max_staleness > 0, "{report:?}");
        assert!(!report.silent.is_empty(), "{report:?}");
        let doc = render_solution(&view);
        assert_eq!(
            doc.get("fault").unwrap().render(),
            r#"{"crashed":[4,5],"max_staleness":2,"messages_dropped":9,"silent":[4,5]}"#
        );
        assert_eq!(parse_solution(&doc).unwrap(), view);
        // A fault object without one of its fields is refused.
        let text = doc.render().replace(r#""messages_dropped":9,"#, "");
        let err = parse_solution(&crate::json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("messages_dropped"), "{err}");

        // A centralized run with no distributed fields round-trips too.
        let sol = registry.solve("mds/exact", &inst, &lmds_api::SolveConfig::mds()).unwrap();
        let view = SolutionView::from(&sol);
        assert_eq!(parse_solution(&render_solution(&view)).unwrap(), view);

        assert!(parse_solution(&Value::obj([])).is_err(), "missing fields are named");
    }

    /// The cache fingerprint `solver` keys `cfg` on: the fields it does
    /// not read at their defaults, as the server renders it.
    fn keyed(solver: &str, cfg: &SolveConfig) -> String {
        let solver = lmds_api::SolverRegistry::with_defaults().get(solver).unwrap();
        config_fingerprint(&cfg.restricted_to(solver.reads(cfg)))
    }

    #[test]
    fn config_fingerprints_canonicalize_equivalent_configs() {
        let fingerprint = |config: &str| {
            let body = format!(r#"{{"graph": "g", "solver": "s", "config": {config}}}"#);
            keyed("mds/algorithm1", &parse_solve_request(body.as_bytes()).unwrap().config)
        };
        // Spelled-out defaults and omitted defaults materialize to the
        // same config, so they share a fingerprint.
        let implicit = fingerprint("{}");
        assert_eq!(fingerprint("null"), implicit);
        assert_eq!(fingerprint(r#"{"mode": "centralized", "fault": "seed=42"}"#), implicit);
        // Centralized solves ignore the LOCAL-only fields.
        let ignored = r#"{"id_policy": "shuffled", "id_seed": 3, "round_cap": 2}"#;
        assert_eq!(fingerprint(ignored), implicit);

        // A real knob change separates the keys.
        let local = fingerprint(r#"{"mode": "local-oracle"}"#);
        assert_ne!(local, implicit);
        assert!(local.contains("local-oracle"));
        let capped = r#"{"mode": "local-oracle", "id_policy": "shuffled", "round_cap": 2}"#;
        assert_ne!(fingerprint(capped), local);

        // A fingerprint is a wire config that parses back to itself.
        let full = fingerprint(
            r#"{"problem": "mvc", "mode": "local-message-passing", "id_policy": "adversarial",
                "id_seed": 9, "round_cap": 32, "radii": [3, 4], "opt_budget": 1234,
                "measure_ratio": true, "fault": "seed=9;drop=bernoulli:150;skew=1"}"#,
        );
        assert!(full.contains(r#""problem":"mvc""#), "{full}");
        assert_eq!(fingerprint(&full), full);
        assert_eq!(fingerprint(&implicit), implicit);
    }

    /// The fingerprint strings are result-cache keys, and a persisted
    /// cache reloads them, so they are pinned byte for byte.
    #[test]
    fn config_fingerprints_are_pinned() {
        use lmds_api::{FaultConfig, IdPolicy, DEFAULT_OPT_BUDGET};
        use lmds_core::Radii;
        let defaults = r#"{"fault":null,"id_policy":null,"id_seed":null,"measure_ratio":false,"mode":"centralized","opt_budget":3000000,"problem":"mds","radii":[2,3],"round_cap":null}"#;
        assert_eq!(config_fingerprint(&SolveConfig::mds()), defaults);
        // Spelled-out defaults and an inert fault plan render as absent.
        let inert: FaultConfig = "seed=42".parse().unwrap();
        let spelled = SolveConfig::mds()
            .mode(ExecutionMode::Centralized)
            .radii(Radii::practical(2, 3))
            .opt_budget(DEFAULT_OPT_BUDGET)
            .measure_ratio(false)
            .fault(inert);
        assert_eq!(config_fingerprint(&spelled), defaults);

        let active: FaultConfig = "seed=9;drop=bernoulli:150;skew=1".parse().unwrap();
        let cases = [
            (
                SolveConfig::mvc(),
                r#"{"fault":null,"id_policy":null,"id_seed":null,"measure_ratio":false,"mode":"centralized","opt_budget":3000000,"problem":"mvc","radii":[2,3],"round_cap":null}"#,
            ),
            (
                SolveConfig::mds()
                    .mode(ExecutionMode::LOCAL_ORACLE)
                    .id_policy(IdPolicy::Sequential),
                r#"{"fault":null,"id_policy":"sequential","id_seed":null,"measure_ratio":false,"mode":"local-oracle","opt_budget":3000000,"problem":"mds","radii":[2,3],"round_cap":null}"#,
            ),
            (
                SolveConfig::mds()
                    .mode(ExecutionMode::LOCAL_ORACLE)
                    .id_policy(IdPolicy::Shuffled { seed: 0 })
                    .round_cap(0),
                r#"{"fault":null,"id_policy":"shuffled","id_seed":0,"measure_ratio":false,"mode":"local-oracle","opt_budget":3000000,"problem":"mds","radii":[2,3],"round_cap":0}"#,
            ),
            (
                SolveConfig::mds()
                    .mode(ExecutionMode::LOCAL_MESSAGE_PASSING)
                    .id_policy(IdPolicy::Adversarial { seed: 9 })
                    .round_cap(32)
                    .radii(Radii::practical(3, 4))
                    .opt_budget(1234)
                    .measure_ratio(true)
                    .fault(active),
                r#"{"fault":"seed=9;drop=bernoulli:150;skew=1","id_policy":"adversarial","id_seed":9,"measure_ratio":true,"mode":"local-message-passing","opt_budget":1234,"problem":"mds","radii":[3,4],"round_cap":32}"#,
            ),
            (
                SolveConfig::mds().mode(ExecutionMode::LOCAL_MESSAGE_PASSING).opt_budget(u64::MAX),
                r#"{"fault":null,"id_policy":null,"id_seed":null,"measure_ratio":false,"mode":"local-message-passing","opt_budget":18446744073709552000,"problem":"mds","radii":[2,3],"round_cap":null}"#,
            ),
        ];
        for (cfg, expected) in cases {
            assert_eq!(config_fingerprint(&cfg), expected);
        }

        // Keyed through a solver, the fields it does not read render at
        // their defaults.
        let keyed_cases = [
            // Centralized solves ignore the LOCAL-only fields.
            (
                "mds/algorithm1",
                SolveConfig::mds().id_policy(IdPolicy::Adversarial { seed: 9 }).round_cap(32),
            ),
            // The explicit-round solvers ignore the radii, and every
            // solver but the exact ones ignores the budget unless it
            // measures the ratio.
            ("mds/theorem44", SolveConfig::mds().radii(Radii::practical(3, 4))),
            ("mds/theorem44", SolveConfig::mds().opt_budget(1000)),
            ("mds/algorithm1", SolveConfig::mds().opt_budget(1000)),
            // The exact solvers attach the optimum whatever `measure_ratio` says.
            ("mds/exact", SolveConfig::mds().measure_ratio(true).radii(Radii::practical(3, 4))),
        ];
        for (solver, cfg) in keyed_cases {
            assert_eq!(keyed(solver, &cfg), defaults, "{solver} {cfg:?}");
        }
        let read = [
            (
                "mds/algorithm1",
                SolveConfig::mds().radii(Radii::practical(3, 4)),
                r#""radii":[3,4]"#,
            ),
            ("mds/exact", SolveConfig::mds().opt_budget(1000), r#""opt_budget":1000"#),
            (
                "mds/theorem44",
                SolveConfig::mds().measure_ratio(true).opt_budget(1000),
                r#""measure_ratio":true,"mode":"centralized","opt_budget":1000"#,
            ),
        ];
        for (solver, cfg, needle) in read {
            assert!(keyed(solver, &cfg).contains(needle), "{solver} {cfg:?}");
        }
    }

    /// For every built-in row and every mode it supports, a field the
    /// row does not read changes neither its answer nor its cache
    /// fingerprint, except the fault plan, which such a row rejects.
    #[test]
    fn unread_config_fields_change_neither_answer_nor_fingerprint() {
        use lmds_api::{ConfigFields, FaultConfig, Instance};
        let registry = lmds_api::SolverRegistry::with_defaults();
        let inst =
            Instance::shuffled("outer", lmds_gen::outerplanar::random_outerplanar(30, 25, 2), 4);
        let active: FaultConfig = "seed=7;drop=bernoulli:100".parse().unwrap();
        let answer = |key: &str, cfg: &SolveConfig| {
            registry.solve(key, &inst, cfg).map(|sol| {
                let mut view = SolutionView::from(&sol);
                view.wall_micros = 0;
                view
            })
        };
        type Change = fn(SolveConfig) -> SolveConfig;
        let changes: [(ConfigFields, Change); 5] = [
            (ConfigFields::ID_POLICY, |c| c.id_policy(IdPolicy::Shuffled { seed: 3 })),
            (ConfigFields::ROUND_CAP, |c| c.round_cap(2)),
            (ConfigFields::RADII, |c| c.radii(Radii::practical(3, 4))),
            (ConfigFields::MEASURE_RATIO, |c| c.measure_ratio(true)),
            (ConfigFields::OPT_BUDGET, |c| c.opt_budget(1000)),
        ];
        let mut checked = 0;
        for descriptor in registry.descriptors() {
            let key = descriptor.key;
            let solver = registry.get(key).unwrap();
            for &mode in descriptor.modes {
                let base = SolveConfig::new(descriptor.problem).mode(mode);
                let reads = solver.reads(&base);
                let expected = answer(key, &base).unwrap();
                for (field, change) in changes.iter().filter(|(f, _)| !reads.contains(*f)) {
                    let (ctx, changed) = (format!("{key} {mode} {field:?}"), change(base.clone()));
                    assert_eq!(answer(key, &changed).unwrap(), expected, "{ctx}");
                    assert_eq!(keyed(key, &changed), keyed(key, &base), "{ctx}");
                    checked += 1;
                }
                if !reads.contains(ConfigFields::FAULT) {
                    let rejected = answer(key, &base.clone().fault(active));
                    let ctx = format!("{key} {mode}: an unread fault plan is rejected");
                    assert!(
                        matches!(rejected, Err(SolveError::UnsupportedOptions { .. })),
                        "{ctx}"
                    );
                }
            }
        }
        assert!(checked >= 40, "{checked} unread fields checked");
    }

    #[test]
    fn update_batches_parse_and_malformed_ops_are_named() {
        let batch = parse_update_batch(
            br#"{"updates": [
                {"op": "insert", "u": 0, "v": 1},
                {"op": "delete", "u": 2, "v": 3},
                {"op": "add_vertex"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            batch,
            vec![
                GraphUpdate::InsertEdge(0, 1),
                GraphUpdate::RemoveEdge(2, 3),
                GraphUpdate::AddVertex
            ]
        );

        for (body, needle) in [
            (br#"{}"# as &[u8], "updates"),
            (br#"{"updates": []}"#, "must not be empty"),
            (br#"{"updates": [{"op": "explode"}]}"#, "explode"),
            (br#"{"updates": [{"op": "insert", "u": 0}]}"#, "\"v\""),
            (br#"{"updates": [{"op": "delete", "u": -1, "v": 2}]}"#, "\"u\""),
            (br#"{"updates": [{"u": 0, "v": 1}]}"#, "\"op\""),
        ] {
            let err = parse_update_batch(body).unwrap_err();
            assert_eq!((err.status, err.code), (400, "bad-request"));
            assert!(err.message.contains(needle), "{:?} → {}", body, err.message);
        }
    }

    #[test]
    fn envelope_shape_is_stable() {
        let doc = WireError::new(429, "queue-full", "later").render();
        assert_eq!(doc.get("code").unwrap().as_str(), Some("queue-full"));
        assert_eq!(doc.get("message").unwrap().as_str(), Some("later"));
        assert!(doc.get("valid_keys").is_none(), "no alternatives, no field");
    }
}
