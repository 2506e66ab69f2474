//! `/admin/*`: snapshot swap, incremental mutation, checkpoint and the
//! runtime SLO set.

use std::time::Instant;

use banks_core::json as corejson;
use banks_graph::{GraphMutation, MutationBatch, NodeId, OpEffect};
use banks_service::{parse_slo_specs, GraphSnapshot, ReplicationRole};

use super::{json_body, reply_json, respond_error, Conn, HttpError, ServerContext};
use crate::http::Request;
use crate::json::{self, JsonValue};

/// `POST /admin/checkpoint`: write a durable snapshot of the serving
/// version and truncate the WAL.  409 when the service has no data
/// directory; 500 (with the typed message) when the write fails.  Returns
/// whether the connection stays open — error responses close it.
pub(super) fn respond_checkpoint(
    ctx: &ServerContext,
    _: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    let started = Instant::now();
    match ctx.service.checkpoint() {
        Ok(epoch) => {
            let body = format!(
                "{{\"checkpointed\":true,\"epoch\":{epoch},\"checkpoint_us\":{}}}",
                started.elapsed().as_micros(),
            );
            reply_json(w, &body, keep_alive)
        }
        Err(e) => respond_error(w, HttpError::persist(e, "checkpoint_failed")),
    }
}

/// `POST /admin/slo`: reconfigure the SLO set at runtime.
///
/// A body with a `"slos"` array (or a bare array) **replaces** the whole
/// set; a single spec object **upserts** that one spec, keeping the other
/// objectives' burn-rate history.  Specs use the same JSON shape as
/// [`banks_service::parse_slo_specs`].
pub(super) fn respond_slo_update(
    ctx: &ServerContext,
    request: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    let (body, value) = match json_body(request, "SLO spec JSON") {
        Ok(parsed) => parsed,
        Err(error) => return respond_error(w, error),
    };
    let replace = matches!(value, JsonValue::Array(_)) || value.get("slos").is_some();
    let text = if replace {
        body.to_string()
    } else {
        format!("[{body}]")
    };
    let specs = match parse_slo_specs(&text) {
        Ok(specs) => specs,
        Err(e) => return respond_error(w, HttpError::new(400, "invalid_slo_spec", e)),
    };
    let body = if replace {
        let count = specs.len();
        ctx.service.replace_slos(specs);
        format!("{{\"replaced\":{count},\"specs\":{count}}}")
    } else {
        let name = corejson::string(&specs[0].name);
        for spec in specs {
            ctx.service.upsert_slo(spec);
        }
        format!(
            "{{\"upserted\":{name},\"specs\":{}}}",
            ctx.service.slo_specs().len()
        )
    };
    reply_json(w, &body, keep_alive)
}

pub(super) fn respond_swap(ctx: &ServerContext, _: &Request, w: &Conn, keep_alive: bool) -> bool {
    let started = Instant::now();
    let previous_epoch = ctx.service.epoch();
    // Build the new snapshot *before* touching the serving lock: queries
    // keep flowing on the old version during the (potentially long)
    // prestige/index derivation.
    let snapshot = match &ctx.graph_source {
        Some(source) => source(),
        // No source configured: reindex the currently-served graph (a
        // clone-swap still gets a fresh epoch, per the swap contract).
        None => GraphSnapshot::with_defaults(ctx.service.snapshot().graph().clone()),
    };
    let epoch = ctx.service.swap_snapshot(snapshot);
    let body = format!(
        "{{\"swapped\":true,\"epoch\":{epoch},\"previous_epoch\":{previous_epoch},\
         \"rebuild_us\":{}}}",
        started.elapsed().as_micros(),
    );
    reply_json(w, &body, keep_alive)
}

/// `POST /admin/mutate`: apply a JSON mutation batch incrementally.
///
/// Body shape:
///
/// ```json
/// {"ops": [
///   {"op": "add_node", "kind": "paper", "label": "Recovery"},
///   {"op": "add_edge", "from": 7, "to": 12, "weight": 1.5},
///   {"op": "remove_edge", "from": 3, "to": 4},
///   {"op": "set_label", "node": 9, "label": "renamed"},
///   {"op": "set_weight", "from": 1, "to": 2, "weight": 2.0},
///   {"op": "remove_node", "node": 6}
/// ]}
/// ```
///
/// The response reports the epoch transition plus per-op accept/reject
/// results; a malformed *body* is a 400 before anything is applied, while
/// a semantically invalid *op* (unknown node, missing edge) is applied
/// batch semantics: it is rejected individually and the rest proceed.
pub(super) fn respond_mutate(
    ctx: &ServerContext,
    request: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    // A follower's graph is the leader's graph: accepting a local write
    // would fork the replicated history.  Redirect the writer instead.
    if ctx.service.replication_status().role == ReplicationRole::Follower {
        let mut error = HttpError::new(
            409,
            "not_leader",
            "this process is a read replica; apply mutations on the leader",
        );
        if let Some(leader) = &ctx.leader_url {
            let base = leader.trim_end_matches('/');
            // `request.path` is this route's own path.
            error
                .headers
                .push(("Location", format!("{base}{}", request.path)));
            error.extras.push(("leader", corejson::string(leader)));
        }
        return respond_error(w, error);
    }
    let started = Instant::now();
    let batch = match parse_mutation_body(request) {
        Ok(batch) => batch,
        Err(error) => return respond_error(w, error),
    };
    let report = ctx.service.apply_mutations(&batch);
    let results = json::array(
        report.outcome.results.iter().enumerate(),
        |(i, result)| match result {
            Ok(effect) => format!(
                "{{\"index\":{i},\"status\":\"accepted\",{}}}",
                op_effect_json(effect)
            ),
            Err(error) => format!(
                "{{\"index\":{i},\"status\":\"rejected\",\"error\":{}}}",
                corejson::string(&error.to_string())
            ),
        },
    );
    let body = format!(
        "{{\"swapped\":{},\"epoch\":{},\"previous_epoch\":{},\"accepted\":{},\
         \"rejected\":{},\"apply_us\":{},\"results\":{results}}}",
        report.swapped,
        report.epoch,
        report.previous_epoch,
        report.outcome.accepted(),
        report.outcome.rejected(),
        started.elapsed().as_micros(),
    );
    reply_json(w, &body, keep_alive)
}

fn op_effect_json(effect: &OpEffect) -> String {
    match effect {
        OpEffect::NodeAdded(node) => format!("\"effect\":\"node_added\",\"node\":{node}"),
        OpEffect::EdgeAdded { from, to } => {
            format!("\"effect\":\"edge_added\",\"from\":{from},\"to\":{to}")
        }
        OpEffect::EdgesRemoved { from, to, count } => {
            format!("\"effect\":\"edges_removed\",\"from\":{from},\"to\":{to},\"count\":{count}")
        }
        OpEffect::LabelSet(node) => format!("\"effect\":\"label_set\",\"node\":{node}"),
        OpEffect::WeightSet { from, to, count } => {
            format!("\"effect\":\"weight_set\",\"from\":{from},\"to\":{to},\"count\":{count}")
        }
        OpEffect::NodeRemoved {
            node,
            edges_removed,
        } => {
            format!("\"effect\":\"node_removed\",\"node\":{node},\"edges_removed\":{edges_removed}")
        }
    }
}

/// Parses the `POST /admin/mutate` body into a [`MutationBatch`].
fn parse_mutation_body(request: &Request) -> Result<MutationBatch, HttpError> {
    let (_, value) = json_body(request, "a JSON object with an \"ops\" array")?;
    let ops = match value.get("ops") {
        Some(JsonValue::Array(items)) => items,
        Some(_) => return Err(HttpError::bad_request("\"ops\" must be an array")),
        None => {
            return Err(HttpError::bad_request(
                "body must contain \"ops\" (an array of mutation objects)",
            ))
        }
    };
    let mut batch = MutationBatch::new();
    for (i, item) in ops.iter().enumerate() {
        batch.push(parse_mutation_op(i, item)?);
    }
    Ok(batch)
}

fn parse_mutation_op(i: usize, item: &JsonValue) -> Result<GraphMutation, HttpError> {
    let op = item.get("op").and_then(JsonValue::as_str).ok_or_else(|| {
        HttpError::bad_request(format!("ops[{i}] must be an object with an \"op\" string"))
    })?;
    let string_field = |field: &str| -> Result<String, HttpError> {
        item.get(field)
            .and_then(JsonValue::as_str)
            .map(|s| s.to_string())
            .ok_or_else(|| {
                HttpError::bad_request(format!("ops[{i}] ({op}): \"{field}\" must be a string"))
            })
    };
    let node_field = |field: &str| -> Result<NodeId, HttpError> {
        item.get(field)
            .and_then(JsonValue::as_usize)
            .filter(|v| *v <= u32::MAX as usize)
            .map(|v| NodeId(v as u32))
            .ok_or_else(|| {
                HttpError::bad_request(format!(
                    "ops[{i}] ({op}): \"{field}\" must be a node id (non-negative integer)"
                ))
            })
    };
    let weight_field = |field: &str| -> Result<f64, HttpError> {
        item.get(field).and_then(JsonValue::as_f64).ok_or_else(|| {
            HttpError::bad_request(format!("ops[{i}] ({op}): \"{field}\" must be a number"))
        })
    };
    match op {
        "add_node" => Ok(GraphMutation::AddNode {
            kind: string_field("kind")?,
            label: string_field("label")?,
        }),
        "add_edge" => Ok(GraphMutation::AddEdge {
            from: node_field("from")?,
            to: node_field("to")?,
            weight: match item.get("weight") {
                Some(_) => Some(weight_field("weight")?),
                None => None,
            },
        }),
        "remove_edge" => Ok(GraphMutation::RemoveEdge {
            from: node_field("from")?,
            to: node_field("to")?,
        }),
        "set_label" => Ok(GraphMutation::SetLabel {
            node: node_field("node")?,
            label: string_field("label")?,
        }),
        "set_weight" => Ok(GraphMutation::SetWeight {
            from: node_field("from")?,
            to: node_field("to")?,
            weight: weight_field("weight")?,
        }),
        "remove_node" => Ok(GraphMutation::RemoveNode {
            node: node_field("node")?,
        }),
        other => Err(HttpError::bad_request(format!(
            "ops[{i}]: unknown op {other:?} (expected add_node, add_edge, remove_edge, \
             set_label, set_weight or remove_node)"
        ))),
    }
}
