//! `/replication/*`: the WAL stream and the snapshot a follower bootstraps
//! from.

use std::sync::atomic::Ordering;

use banks_core::sse::to_hex;
use banks_service::{encode_record, EventLevel, WalPosition};

use super::{
    open_stream, peer_disconnected, respond_error, Conn, HttpError, ServerContext, STREAM_KEEPALIVE,
};
use crate::http::Request;

/// The `head` event payload: where the leader is, where its truncation
/// horizon is, and how many WAL records lie beyond the follower's cursor.
fn replication_head_json(ctx: &ServerContext, checkpoint_epoch: u64, pending: usize) -> String {
    format!(
        "{{\"leader_epoch\":{},\"checkpoint_epoch\":{checkpoint_epoch},\"pending\":{pending}}}",
        ctx.service.epoch(),
    )
}

/// `GET /replication/stream`: SSE tail of the leader's mutation WAL.
///
/// The cursor (epoch of the last record the follower holds) comes from
/// `Last-Event-ID` (the header wins) or `?from_epoch=`.  Each WAL record
/// past the cursor is a `record` event whose SSE `id:` is the record's
/// epoch and whose payload carries the exact WAL record bytes hex-encoded.
/// A cursor behind the WAL truncation horizon gets a terminal `bootstrap`
/// event, at any point: the follower must re-seed from
/// `GET /replication/snapshot` before resuming.  Otherwise the first frame
/// is a `head` — the first batch's own when records are pending, an idle
/// one if not — so a follower whose state cannot descend from this leader
/// learns it at once; after that a `head` precedes every batch and fires
/// once a second while idle (keep-alive + lag signal).  409 when the leader
/// runs without persistence (there is no WAL to stream).
///
/// The handler wakes on publish: it blocks in
/// [`Service::wait_for_publish`](banks_service::Service::wait_for_publish)
/// and reads the WAL — only the bytes appended since its last read — when
/// an epoch was published or a checkpoint moved the horizon, so an idle
/// stream reads no file and takes no `persistence` lock.  A failed read closes the stream after a
/// `replication-error` event; server shutdown closes it at once.
pub(super) fn respond_replication_stream(
    ctx: &ServerContext,
    request: &Request,
    conn: &Conn,
    _: bool,
) -> bool {
    if !ctx.service.durability().enabled {
        return respond_error(
            conn,
            HttpError::new(
                409,
                "persistence_disabled",
                "replication requires the leader to run with a data directory",
            ),
        );
    }
    let Some((mut cursor, mut sse)) = open_stream(request, conn.stream, Some("from_epoch")) else {
        return false;
    };
    let mut position = WalPosition::default();
    let mut greeted = false;
    // Read before the records are looked for: a publish that the read
    // below misses has then advanced the generation past `seen`, and the
    // wait returns at once.
    let mut seen = ctx.service.publish_generation();
    while !ctx.shutdown.load(Ordering::SeqCst) {
        let tail = match ctx.service.replication_records_after(cursor, &mut position) {
            Ok(tail) => tail,
            Err(e) => {
                ctx.service.events().emit(
                    EventLevel::Error,
                    "replication-error",
                    format!("closing a replication stream at epoch {cursor}: WAL read failed: {e}"),
                );
                return false;
            }
        };
        // A checkpoint can truncate the WAL at any moment, turning
        // "caught up" into "unreachable".
        let checkpoint_epoch = tail.checkpoint_epoch;
        if cursor < checkpoint_epoch {
            let _ = sse.event(
                "bootstrap",
                &format!(
                    "{{\"checkpoint_epoch\":{checkpoint_epoch},\"leader_epoch\":{}}}",
                    ctx.service.epoch()
                ),
            );
            return false;
        }
        if (!greeted || !tail.records.is_empty())
            && sse
                .event(
                    "head",
                    &replication_head_json(ctx, checkpoint_epoch, tail.records.len()),
                )
                .is_err()
        {
            return false;
        }
        greeted = true;
        for record in tail.records {
            let payload = to_hex(&encode_record(
                record.seq,
                record.parent_epoch,
                record.epoch,
                &record.batch,
            ));
            let data = format!(
                "{{\"seq\":{},\"parent_epoch\":{},\"epoch\":{},\"payload\":\"{payload}\"}}",
                record.seq, record.parent_epoch, record.epoch,
            );
            if sse.event_with_id("record", record.epoch, &data).is_err() {
                return false;
            }
            cursor = record.epoch;
        }
        // Idle until the next publish; each keep-alive interval without
        // one, probe the peer and tell it where the leader stands (neither
        // epoch can have moved: both moves signal).
        loop {
            let now = ctx.service.wait_for_publish(seen, STREAM_KEEPALIVE);
            if now != seen {
                seen = now;
                break;
            }
            if peer_disconnected(conn.stream)
                || sse
                    .event("head", &replication_head_json(ctx, checkpoint_epoch, 0))
                    .is_err()
            {
                return false;
            }
        }
    }
    false
}

/// `GET /replication/snapshot`: the newest on-disk snapshot, verbatim —
/// what a bootstrapping follower decodes and installs.  The snapshot's
/// epoch rides in `X-Banks-Snapshot-Epoch`.  409 without persistence, 404
/// before the first checkpoint has been written.
pub(super) fn respond_snapshot(
    ctx: &ServerContext,
    _: &Request,
    w: &Conn,
    keep_alive: bool,
) -> bool {
    match ctx.service.newest_snapshot_file() {
        Ok(Some((epoch, path))) => match std::fs::read(&path) {
            Ok(bytes) => {
                let epoch_header = epoch.to_string();
                w.respond(
                    200,
                    &[("X-Banks-Snapshot-Epoch", epoch_header.as_str())],
                    "application/octet-stream",
                    &bytes,
                    keep_alive,
                )
            }
            Err(e) => respond_error(
                w,
                HttpError::new(500, "snapshot_read_failed", e.to_string()),
            ),
        },
        Ok(None) => respond_error(
            w,
            HttpError::new(404, "no_snapshot", "no snapshot has been written yet"),
        ),
        Err(e) => respond_error(w, HttpError::persist(e, "snapshot_list_failed")),
    }
}
