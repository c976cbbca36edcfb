//! The line-oriented JSONL TCP front-end of the serving daemon.
//!
//! One request per line, one reply per line. Requests are JSON
//! objects dispatched on their `req` field:
//!
//! * `{"req":"submit","spec":{…}}` — validate a job spec (the full
//!   `flexray-serve-job` object) and append its *canonical* line to
//!   the queue file. The append preserves the journal's
//!   append-only-or-refused fingerprint invariant: existing queue
//!   lines are never touched, the new line is written with a single
//!   `write_all` on an `O_APPEND` handle (a kill mid-`submit` leaves
//!   the queue whole or without the line, never torn).
//! * `{"req":"status","id":ID}` — the job's live view (`queued`,
//!   `running`, `done`, `failed`) from the status board, falling back
//!   to a queue scan for not-yet-drained jobs.
//! * `{"req":"cancel","id":ID}` — request cancellation; idempotent
//!   (`already_cancelled` tells a repeat from a first cancel). The
//!   job's unclaimed units short-circuit and it ends `failed
//!   (cancelled by request)`.
//! * `{"req":"drain"}` — block until every job submitted before this
//!   request has been covered by a completed drain pass.
//! * `{"req":"shutdown"}` — request a graceful shutdown: the drain
//!   finishes journaling in-flight points, writes a `stopped` record
//!   if work remains, and the daemon exits.
//!
//! Replies are `{"ok":true,…}` or `{"ok":false,"error":"…"}` with the
//! error naming the offending token. Malformed requests never kill
//! the connection — every line gets a reply. At most
//! [`MAX_CONNECTIONS`] connections are served concurrently; excess
//! connections get one `busy` error line and are closed.

use std::fs::{self, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use flexray_bench::report::{str_field, Json};

use crate::control::ServeControl;
use crate::spec::parse_job;

/// Concurrent connection cap; the accept loop answers excess
/// connections with a single `busy` error line.
pub const MAX_CONNECTIONS: usize = 16;

/// Pass/submit bookkeeping behind the `drain` request and the poll
/// loop's wakeup.
#[derive(Debug, Default)]
struct WakeState {
    /// Total submits acknowledged.
    submits: u64,
    /// Submits visible to the pass currently running.
    covering: u64,
    /// Submits covered by the last *completed* pass.
    drained_submits: u64,
    /// Completed drain passes.
    passes: u64,
    /// Work arrived; the poll loop should wake.
    kick: bool,
}

/// State shared between the socket listener threads and the daemon's
/// drain loop.
#[derive(Debug)]
pub struct SocketShared {
    queue: PathBuf,
    control: Arc<ServeControl>,
    /// Serialises queue-file read-check-append sequences.
    queue_lock: Mutex<()>,
    wake: Mutex<WakeState>,
    cond: Condvar,
}

impl SocketShared {
    /// Creates the shared block for a daemon serving `queue`.
    #[must_use]
    pub fn new(queue: PathBuf, control: Arc<ServeControl>) -> SocketShared {
        SocketShared {
            queue,
            control,
            queue_lock: Mutex::new(()),
            wake: Mutex::new(WakeState::default()),
            cond: Condvar::new(),
        }
    }

    /// Marks a drain pass started: submits acknowledged so far are
    /// covered by it; the wakeup kick is consumed.
    pub fn begin_pass(&self) {
        let mut wake = self.wake.lock().expect("wake lock");
        wake.covering = wake.submits;
        wake.kick = false;
    }

    /// Marks the running drain pass completed and wakes `drain`
    /// waiters and the poll loop.
    pub fn end_pass(&self) {
        let mut wake = self.wake.lock().expect("wake lock");
        wake.passes += 1;
        wake.drained_submits = wake.covering;
        drop(wake);
        self.cond.notify_all();
    }

    /// Blocks up to `max` waiting for new work or a shutdown request;
    /// returns `true` when woken by either (rather than the timeout).
    pub fn wait_for_work(&self, max: Duration) -> bool {
        let deadline = Instant::now() + max;
        let mut wake = self.wake.lock().expect("wake lock");
        loop {
            if wake.kick || self.control.is_shutdown() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .cond
                .wait_timeout(wake, deadline - now)
                .expect("wake lock");
            wake = next;
        }
    }
}

fn reply_ok(extra: Vec<(String, Json)>) -> String {
    let mut members = vec![("ok".to_owned(), Json::Bool(true))];
    members.extend(extra);
    // Only finite counts and strings go into replies; write cannot
    // fail on them.
    Json::Obj(members).write().expect("finite reply")
}

fn reply_err(error: &str) -> String {
    Json::Obj(vec![
        ("ok".to_owned(), Json::Bool(false)),
        ("error".to_owned(), Json::Str(error.to_owned())),
    ])
    .write()
    .expect("finite reply")
}

/// Whether the queue file holds a (parseable) job with this id.
fn queued_id(shared: &SocketShared, id: &str) -> Result<bool, String> {
    let _guard = shared.queue_lock.lock().expect("queue lock");
    let content = fs::read_to_string(&shared.queue)
        .map_err(|e| format!("read queue {}: {e}", shared.queue.display()))?;
    Ok(content.lines().any(|line| {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return false;
        }
        parse_job(line).is_ok_and(|spec| spec.id == id)
    }))
}

fn submit(shared: &SocketShared, json: &Json) -> Result<String, String> {
    let spec_json = json.get("spec").ok_or("missing field 'spec'")?;
    let raw = spec_json
        .write()
        .map_err(|e| format!("unwritable spec: {e}"))?;
    let spec = parse_job(&raw).map_err(|e| format!("invalid spec: {e}"))?;
    let canonical = spec.to_line();
    {
        let _guard = shared.queue_lock.lock().expect("queue lock");
        let existing = fs::read_to_string(&shared.queue)
            .map_err(|e| format!("read queue {}: {e}", shared.queue.display()))?;
        for line in existing.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if parse_job(line).is_ok_and(|prior| prior.id == spec.id) {
                return Err(format!("duplicate job id '{}'", spec.id));
            }
        }
        // One write_all of one whole line on an O_APPEND handle: the
        // queue gains the complete line or nothing — never a torn
        // line. A missing final newline on the existing content (a
        // hand-edited queue) is healed by prefixing one, which leaves
        // every existing *line* — and so every journaled fingerprint —
        // unchanged.
        let mut payload = String::new();
        if !existing.is_empty() && !existing.ends_with('\n') {
            payload.push('\n');
        }
        payload.push_str(&canonical);
        payload.push('\n');
        let mut file = OpenOptions::new()
            .append(true)
            .open(&shared.queue)
            .map_err(|e| format!("open queue {}: {e}", shared.queue.display()))?;
        file.write_all(payload.as_bytes())
            .map_err(|e| format!("append to queue {}: {e}", shared.queue.display()))?;
    }
    {
        let mut wake = shared.wake.lock().expect("wake lock");
        wake.submits += 1;
        wake.kick = true;
    }
    shared.cond.notify_all();
    Ok(reply_ok(vec![
        ("id".to_owned(), Json::Str(spec.id)),
        ("queued".to_owned(), Json::Bool(true)),
    ]))
}

#[allow(clippy::cast_precision_loss)]
fn status(shared: &SocketShared, json: &Json) -> Result<String, String> {
    let id = str_field(json, "id").map_err(|e| e.to_string())?;
    if let Some(view) = shared.control.view(id) {
        let mut extra = vec![
            ("id".to_owned(), Json::Str(id.to_owned())),
            ("state".to_owned(), Json::Str(view.state)),
            ("kind".to_owned(), Json::Str(view.kind)),
            ("points".to_owned(), Json::Num(view.points as f64)),
            (
                "total_points".to_owned(),
                Json::Num(view.total_points as f64),
            ),
        ];
        if let Some(error) = view.error {
            extra.push(("error".to_owned(), Json::Str(error)));
        }
        return Ok(reply_ok(extra));
    }
    if queued_id(shared, id)? {
        return Ok(reply_ok(vec![
            ("id".to_owned(), Json::Str(id.to_owned())),
            ("state".to_owned(), Json::Str("queued".to_owned())),
        ]));
    }
    Err(format!("unknown job id '{id}'"))
}

fn cancel(shared: &SocketShared, json: &Json) -> Result<String, String> {
    let id = str_field(json, "id").map_err(|e| e.to_string())?;
    if shared.control.view(id).is_none() && !queued_id(shared, id)? {
        return Err(format!("unknown job id '{id}'"));
    }
    let newly = shared.control.cancel(id);
    Ok(reply_ok(vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("cancelled".to_owned(), Json::Bool(true)),
        ("already_cancelled".to_owned(), Json::Bool(!newly)),
    ]))
}

#[allow(clippy::cast_precision_loss)]
fn drain(shared: &SocketShared) -> Result<String, String> {
    let submitted = shared.wake.lock().expect("wake lock").submits;
    let mut wake = shared.wake.lock().expect("wake lock");
    loop {
        if shared.control.is_shutdown() {
            return Err("daemon is shutting down".to_owned());
        }
        if wake.passes >= 1 && wake.drained_submits >= submitted {
            let passes = wake.passes;
            return Ok(reply_ok(vec![
                ("drained".to_owned(), Json::Bool(true)),
                ("passes".to_owned(), Json::Num(passes as f64)),
            ]));
        }
        let (next, _) = shared
            .cond
            .wait_timeout(wake, Duration::from_millis(200))
            .expect("wake lock");
        wake = next;
    }
}

fn shutdown(shared: &SocketShared) -> String {
    shared.control.request_shutdown();
    {
        let mut wake = shared.wake.lock().expect("wake lock");
        wake.kick = true;
    }
    shared.cond.notify_all();
    reply_ok(vec![("shutdown".to_owned(), Json::Bool(true))])
}

fn process(shared: &SocketShared, line: &str) -> Result<String, String> {
    let json = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let Json::Obj(members) = &json else {
        return Err("request is not a JSON object".to_owned());
    };
    let req = str_field(&json, "req").map_err(|e| e.to_string())?;
    let allowed: &[&str] = match req {
        "submit" => &["req", "spec"],
        "status" | "cancel" => &["req", "id"],
        "drain" | "shutdown" => &["req"],
        other => return Err(format!("unknown request '{other}'")),
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown key '{key}' for request '{req}'"));
        }
    }
    match req {
        "submit" => submit(shared, &json),
        "status" => status(shared, &json),
        "cancel" => cancel(shared, &json),
        "drain" => drain(shared),
        _ => Ok(shutdown(shared)),
    }
}

/// Handles one request line and returns the reply line (no trailing
/// newline). Never panics on malformed input: every error becomes an
/// `{"ok":false,"error":…}` reply naming the offending token.
#[must_use]
pub fn handle_request(shared: &SocketShared, line: &str) -> String {
    match process(shared, line) {
        Ok(reply) => reply,
        Err(error) => reply_err(&error),
    }
}

fn serve_connection(shared: &SocketShared, stream: TcpStream) {
    // A reply line is a whole message its client waits for: send it at
    // once rather than hold it for the client's delayed ACK (Nagle).
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // Reply and newline in one write: one segment per reply.
        let mut reply = handle_request(shared, &line);
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() {
            break;
        }
    }
}

/// Spawns the accept loop on its own thread: every connection gets a
/// serving thread (up to [`MAX_CONNECTIONS`] concurrently; excess
/// connections receive one `busy` error line and are closed). The
/// loop runs until the process exits.
pub fn spawn_listener(listener: TcpListener, shared: Arc<SocketShared>) {
    std::thread::spawn(move || {
        let live = Arc::new(AtomicUsize::new(0));
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                let _ = stream
                    .write_all(b"{\"ok\":false,\"error\":\"busy: connection limit reached\"}\n");
                continue;
            }
            live.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&shared);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                serve_connection(&shared, stream);
                live.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_single_json_lines() {
        assert_eq!(
            reply_ok(vec![("id".to_owned(), Json::Str("g1".to_owned()))]),
            r#"{"ok":true,"id":"g1"}"#
        );
        assert_eq!(
            reply_err("unknown request 'frob'"),
            r#"{"ok":false,"error":"unknown request 'frob'"}"#
        );
    }
}
