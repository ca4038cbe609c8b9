//! Wire protocol shared by server and client.
//!
//! Framing: every message is a 4-byte big-endian length followed by that
//! many bytes of UTF-8 text, capped at [`MAX_FRAME`] (oversized frames
//! are a protocol error, not an allocation). Requests are single-line
//! commands; responses start with `OK` or `ERR`:
//!
//! | request                     | response                          |
//! |-----------------------------|-----------------------------------|
//! | `HELLO <proto> <codec>`     | `OK <proto> <codec>`              |
//! | `PING`                      | `OK pong`                         |
//! | `QUERY [@opts] <formula>`   | `OK {json query output}`          |
//! | `EXPLAIN [@opts] <formula>` | `OK {json plan tree}`             |
//! | `CREATE <name> <arity>`     | `OK <seq>`                        |
//! | `DROP <name>`               | `OK <seq>`                        |
//! | `INSERT <name> <json rel>`  | `OK <seq>`                        |
//! | `REMOVE <name> <json rel>`  | `OK <seq>`                        |
//! | `REPLACE <name> <json rel>` | `OK <seq>`                        |
//! | `SNAPSHOT`                  | `OK <bytes>`                      |
//! | `STATS`                     | `OK {json counters}`              |
//! | `METRICS`                   | `OK <prometheus text exposition>` |
//! | `VERSION`                   | `OK {json build info}`            |
//! | `SLOWLOG`                   | `OK [json slow-query entries]`    |
//! | `REPL <last_seq>`           | `OK repl <seq>`, then streaming   |
//! | `CLOSE`                     | `OK bye`, then the peer hangs up  |
//!
//! Relations travel as `dco-encoding` JSON (exact rationals as strings);
//! the query output object is `{"generation":n,"cached":0|1,`
//! `"columns":[...],"relation":{...}}`. The `STATS` counters object
//! carries `generation`, `relations`, `shards`, `commits`, `batches`,
//! `fsyncs`, `commit_batch_max` (group-commit observability: under
//! concurrent writers `fsyncs/commits` drops toward `1/batch`),
//! the prepared-cache counters `cache_hits`/`cache_misses`/
//! `cache_entries`, and the serving/replication counters `conns_open`,
//! `conns_total`, `queued_requests`, `backpressure_stalls`,
//! `shed_overload`, `expired_deadline`, `served_late`, `repl_streams`,
//! `repl_lag`, `repl_bytes`.
//!
//! ## Request deadlines and budgets
//!
//! `QUERY` and `EXPLAIN` accept an optional *option token* right after
//! the verb: a single `@`-prefixed word of comma-separated `key=value`
//! pairs, e.g. `QUERY @deadline_ms=200,max_tuples=100000 R(x, y)`.
//! Recognized keys (all `u64`):
//!
//! * `deadline_ms` — the client's end-to-end deadline. The server
//!   subtracts the time the request waited in its queue, clamps by its
//!   own cap, and hands the remainder to the evaluation guard; a
//!   request whose deadline already elapsed while queued is answered
//!   `ERR DEADLINE_EXCEEDED …` without being evaluated, and one whose
//!   projected completion exceeds the remainder is shed with
//!   `ERR OVERLOADED retry_after_ms=<n> …`.
//! * `max_tuples` / `max_atoms` — materialization budgets, intersected
//!   with (never loosening) the server's statistics-derived limits.
//!
//! Formulas never start with `@`, so the token is unambiguous; a bare
//! `QUERY <formula>` keeps its protocol-2 meaning.
//!
//! ## Version handshake
//!
//! A well-behaved peer's *first* frame is `HELLO <proto> <codec>`:
//! the wire [`PROTOCOL_VERSION`] plus the WAL codec
//! [`FORMAT_VERSION`](crate::codec::FORMAT_VERSION) it was built
//! against. A mismatch on either is answered with a typed
//! `ERR version mismatch …` (see `StoreError::VersionMismatch`) and the
//! connection is closed — *before* any replication bytes flow, so an
//! incompatible replica fails the handshake instead of dying on a CRC
//! error mid-stream. Servers still accept peers that skip the handshake
//! (the pre-handshake dialect is a strict subset).
//!
//! ## Replication stream
//!
//! `REPL <last_seq>` upgrades the connection: after the `OK repl <seq>`
//! acknowledgement (carrying the primary's current generation), the
//! server pushes *binary* frames (same 4-byte length framing) whose
//! first payload byte is a tag:
//!
//! * [`REPL_FRAME_BATCH`] (`'B'`) — concatenated sealed WAL records,
//!   byte-identical to the primary's log, in seq order (group-commit
//!   batches forwarded as-is);
//! * [`REPL_FRAME_CHECKPOINT`] (`'S'`) — a full catalog checkpoint as
//!   one snapshot slice (shard 0 of 1), sent when the requested seq has
//!   already left the primary's retained backlog window.
//!
//! The replica applies each frame and answers with a text frame
//! `ACK <seq>`; the primary folds those into its `repl_lag` gauge.

use crate::store::QueryOutput;
use dco_analysis::explain::{PlanNode, QueryPlan};
use dco_encoding::{relation_from_json, relation_to_json, Json};
use std::io::{self, Read, Write};

/// Hard cap on a single frame (64 MiB) — bounds allocation per peer.
pub const MAX_FRAME: usize = 64 << 20;

/// Wire protocol version announced in the `HELLO` handshake. Version 1
/// is the pre-handshake dialect (no `HELLO`, no `REPL`); version 2
/// added both; version 3 added the optional `@deadline_ms=…` option
/// token on `QUERY`/`EXPLAIN` and the typed `DEADLINE_EXCEEDED` /
/// `OVERLOADED` error replies; version 4 added the observability verbs
/// `METRICS`/`VERSION`/`SLOWLOG` and switched an unmeasured `act` in
/// EXPLAIN output from the `-1` sentinel to JSON `null` (readers should
/// use [`plan_actual_from_json`], which accepts both encodings). Bump
/// on any framing or verb-semantics change.
pub const PROTOCOL_VERSION: u32 = 4;

/// Tag byte of a binary replication frame carrying concatenated sealed
/// WAL records (a forwarded group-commit batch).
pub const REPL_FRAME_BATCH: u8 = b'B';

/// Tag byte of a binary replication frame carrying a full catalog
/// checkpoint (one snapshot slice, shard 0 of 1).
pub const REPL_FRAME_CHECKPOINT: u8 = b'S';

/// Write one length-prefixed text frame.
pub fn write_frame(w: &mut impl Write, msg: &str) -> io::Result<()> {
    write_frame_bytes(w, msg.as_bytes())
}

/// Write one length-prefixed frame of raw bytes (replication frames).
pub fn write_frame_bytes(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds 64 MiB cap",
        ));
    }
    // One write per frame: header+body split across packets would
    // otherwise trip Nagle/delayed-ACK stalls on loopback.
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Frame a payload for hand-off to a buffered writer (the reactor's
/// per-connection write buffer): header + body, no I/O.
pub fn frame_bytes(bytes: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    frame
}

/// Read one text frame. `Ok(None)` means the peer closed the connection
/// cleanly (EOF at a frame boundary).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    match read_frame_bytes(r)? {
        None => Ok(None),
        Some(buf) => String::from_utf8(buf)
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8")),
    }
}

/// Read one frame as raw bytes (replication frames are not UTF-8).
/// `Ok(None)` means the peer closed cleanly at a frame boundary.
pub fn read_frame_bytes(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds 64 MiB cap",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Pop one complete frame off an accumulation buffer (the reactor's
/// nonblocking read path). `Ok(None)` = not enough bytes yet; errors
/// are protocol violations (oversized frame) that must close the
/// connection.
pub fn take_frame(buf: &mut Vec<u8>) -> io::Result<Option<Vec<u8>>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds 64 MiB cap",
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let frame = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(frame))
}

/// Per-request evaluation limits carried on the wire: the client's
/// end-to-end deadline and materialization budgets. All fields are
/// optional; [`QueryOpts::default`] (everything `None`) renders as the
/// empty string and round-trips to itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOpts {
    /// End-to-end deadline in milliseconds, measured from the moment
    /// the client sent the request.
    pub deadline_ms: Option<u64>,
    /// Cap on generalized tuples (disjuncts) materialized.
    pub max_tuples: Option<u64>,
    /// Cap on atoms (constraints) materialized.
    pub max_atoms: Option<u64>,
}

impl QueryOpts {
    /// No limits requested.
    pub fn none() -> QueryOpts {
        QueryOpts::default()
    }

    /// Request a deadline.
    pub fn with_deadline_ms(mut self, ms: u64) -> QueryOpts {
        self.deadline_ms = Some(ms);
        self
    }

    /// Request a tuple budget.
    pub fn with_max_tuples(mut self, n: u64) -> QueryOpts {
        self.max_tuples = Some(n);
        self
    }

    /// Request an atom budget.
    pub fn with_max_atoms(mut self, n: u64) -> QueryOpts {
        self.max_atoms = Some(n);
        self
    }

    /// True when no option is set (renders as no token at all).
    pub fn is_none(&self) -> bool {
        self.deadline_ms.is_none() && self.max_tuples.is_none() && self.max_atoms.is_none()
    }

    /// Render as the wire's `@k=v,…` token followed by a space, or the
    /// empty string when nothing is set — so
    /// `format!("QUERY {}{formula}", opts.render())` is valid either way.
    pub fn render(&self) -> String {
        if self.is_none() {
            return String::new();
        }
        let mut parts = Vec::new();
        if let Some(ms) = self.deadline_ms {
            parts.push(format!("deadline_ms={ms}"));
        }
        if let Some(n) = self.max_tuples {
            parts.push(format!("max_tuples={n}"));
        }
        if let Some(n) = self.max_atoms {
            parts.push(format!("max_atoms={n}"));
        }
        format!("@{} ", parts.join(","))
    }

    /// Parse the body of an option token (everything after the `@`).
    pub fn parse(body: &str) -> Result<QueryOpts, String> {
        let mut opts = QueryOpts::default();
        for pair in body.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("option `{pair}` is not `key=value`"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("option `{key}`: bad value `{value}`"))?;
            match key {
                "deadline_ms" => opts.deadline_ms = Some(value),
                "max_tuples" => opts.max_tuples = Some(value),
                "max_atoms" => opts.max_atoms = Some(value),
                other => return Err(format!("unknown query option `{other}`")),
            }
        }
        Ok(opts)
    }
}

/// Split an optional leading `@opts` token off a `QUERY`/`EXPLAIN` body.
fn split_opts(rest: &str) -> Result<(QueryOpts, &str), String> {
    let Some(tail) = rest.strip_prefix('@') else {
        return Ok((QueryOpts::default(), rest));
    };
    let (token, formula) = match tail.split_once(char::is_whitespace) {
        Some((t, f)) => (t, f.trim()),
        None => (tail, ""),
    };
    Ok((QueryOpts::parse(token)?, formula))
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake: wire protocol version + WAL codec version the
    /// peer was built against.
    Hello(u32, u8),
    /// Liveness check.
    Ping,
    /// Evaluate a formula against the current generation, under the
    /// request's deadline/budget options.
    Query(QueryOpts, String),
    /// Plan and evaluate a formula, returning the measured plan tree
    /// (estimated and actual cardinality per node) instead of the
    /// relation. Options bound admission the same way as `Query`.
    Explain(QueryOpts, String),
    /// Declare a relation.
    Create(String, u32),
    /// Drop a relation.
    Drop(String),
    /// Union tuples (JSON relation) into a relation.
    Insert(String, String),
    /// Remove subsumed tuples (JSON relation) from a relation.
    Remove(String, String),
    /// Replace a relation's instance (JSON relation).
    Replace(String, String),
    /// Force a snapshot.
    Snapshot,
    /// Fetch store counters.
    Stats,
    /// Fetch the Prometheus-style text exposition of every metric the
    /// store and its serving stack registered.
    Metrics,
    /// Fetch build information: crate version, wire protocol version,
    /// WAL codec version, server uptime.
    Version,
    /// Fetch the slow-query log (JSON array, oldest first).
    Slowlog,
    /// Upgrade this connection to a replication stream, resuming after
    /// the given last-applied seq.
    Repl(u64),
    /// End the session.
    Close,
}

/// Parse one request line. Errors are human-readable fragments suitable
/// for an `ERR` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let name_and_body = |rest: &str| -> Result<(String, String), String> {
        match rest.split_once(char::is_whitespace) {
            Some((name, body)) => Ok((name.to_string(), body.trim().to_string())),
            None => Err(format!("`{verb}` needs a relation name and a body")),
        }
    };
    match verb.to_ascii_uppercase().as_str() {
        "HELLO" => {
            let (proto, codec) = rest
                .split_once(char::is_whitespace)
                .ok_or("`HELLO` needs a protocol and a codec version")?;
            let proto: u32 = proto
                .trim()
                .parse()
                .map_err(|_| format!("`HELLO`: bad protocol version `{proto}`"))?;
            let codec: u8 = codec
                .trim()
                .parse()
                .map_err(|_| format!("`HELLO`: bad codec version `{codec}`"))?;
            Ok(Request::Hello(proto, codec))
        }
        "PING" => Ok(Request::Ping),
        "QUERY" | "EXPLAIN" => {
            let (opts, formula) = split_opts(rest)?;
            if formula.is_empty() {
                return Err(format!("`{}` needs a formula", verb.to_ascii_uppercase()));
            }
            if verb.eq_ignore_ascii_case("QUERY") {
                Ok(Request::Query(opts, formula.to_string()))
            } else {
                Ok(Request::Explain(opts, formula.to_string()))
            }
        }
        "CREATE" => {
            let (name, arity) = name_and_body(rest)?;
            let arity: u32 = arity
                .parse()
                .map_err(|_| format!("`CREATE {name}`: bad arity `{arity}`"))?;
            Ok(Request::Create(name, arity))
        }
        "DROP" if !rest.is_empty() => Ok(Request::Drop(rest.to_string())),
        "DROP" => Err("`DROP` needs a relation name".into()),
        "INSERT" => name_and_body(rest).map(|(n, b)| Request::Insert(n, b)),
        "REMOVE" => name_and_body(rest).map(|(n, b)| Request::Remove(n, b)),
        "REPLACE" => name_and_body(rest).map(|(n, b)| Request::Replace(n, b)),
        "SNAPSHOT" => Ok(Request::Snapshot),
        "STATS" => Ok(Request::Stats),
        "METRICS" => Ok(Request::Metrics),
        "VERSION" => Ok(Request::Version),
        "SLOWLOG" => Ok(Request::Slowlog),
        "REPL" => {
            let seq: u64 = rest
                .parse()
                .map_err(|_| format!("`REPL`: bad last-applied seq `{rest}`"))?;
            Ok(Request::Repl(seq))
        }
        "CLOSE" => Ok(Request::Close),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Render a query output as the wire's JSON object.
pub fn query_output_to_json(out: &QueryOutput) -> String {
    Json::Obj(vec![
        ("generation".into(), Json::Num(out.generation as f64)),
        (
            "cached".into(),
            Json::Num(if out.cached { 1.0 } else { 0.0 }),
        ),
        (
            "columns".into(),
            Json::Arr(out.columns.iter().map(|c| Json::Str(c.clone())).collect()),
        ),
        ("relation".into(), relation_to_json(&out.relation)),
    ])
    .compact()
}

/// Render an explained query's output as the wire's EXPLAIN JSON
/// object: generation, the planned formula text, output columns, and the
/// recursive plan tree. Every node carries `est` and `act`; an unmeasured
/// `act` encodes as JSON `null` (before protocol 4 it was the sentinel
/// `-1`).
pub fn explain_output_to_json(out: &QueryOutput, plan: &QueryPlan) -> String {
    Json::Obj(vec![
        ("generation".into(), Json::Num(out.generation as f64)),
        ("planned".into(), Json::Str(plan.planned.clone())),
        (
            "columns".into(),
            Json::Arr(out.columns.iter().map(|c| Json::Str(c.clone())).collect()),
        ),
        ("plan".into(), plan_node_to_json(&plan.root)),
    ])
    .compact()
}

fn plan_node_to_json(n: &PlanNode) -> Json {
    Json::Obj(vec![
        ("label".into(), Json::Str(n.label.clone())),
        ("detail".into(), Json::Str(n.detail.clone())),
        ("est".into(), Json::Num(n.estimated)),
        (
            "act".into(),
            n.actual.map_or(Json::Null, |a| Json::Num(a as f64)),
        ),
        (
            "children".into(),
            Json::Arr(n.children.iter().map(plan_node_to_json).collect()),
        ),
    ])
}

/// Decode a plan node's measured cardinality from its wire JSON object
/// — the compatibility shim across the protocol-4 `act` change. Every
/// historical encoding of "unmeasured" maps to `None`: JSON `null`
/// (protocol ≥ 4), a missing field, and any negative number (the old
/// `-1` sentinel). A non-negative number is the measurement.
pub fn plan_actual_from_json(node: &Json) -> Option<u64> {
    match node.get("act") {
        None | Some(Json::Null) => None,
        Some(v) => v.as_num().filter(|n| *n >= 0.0).map(|n| n as u64),
    }
}

/// Parse the wire's JSON object back into a [`QueryOutput`] (with
/// `stats` absent — the wire does not carry guard statistics).
pub fn query_output_from_json(src: &str) -> Result<QueryOutput, String> {
    let v = dco_encoding::parse_json(src).map_err(|e| e.to_string())?;
    let num = |k: &str| -> Result<f64, String> {
        v.get(k)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("query output missing numeric `{k}`"))
    };
    let columns = v
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or("query output missing `columns` array")?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or_else(|| "column must be a string".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rel_json = v.get("relation").ok_or("query output missing `relation`")?;
    let relation = relation_from_json(rel_json).map_err(|e| e.to_string())?;
    Ok(QueryOutput {
        generation: num("generation")? as u64,
        cached: num("cached")? != 0.0,
        columns,
        relation,
        stats: None,
        plan: None,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "QUERY R(x, y)").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "QUERY R(x, y)");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "");
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "PING").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_frame_is_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn request_grammar() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(
            parse_request("query exists y . R(x, y)").unwrap(),
            Request::Query(QueryOpts::none(), "exists y . R(x, y)".into())
        );
        assert_eq!(
            parse_request("CREATE r 2").unwrap(),
            Request::Create("r".into(), 2)
        );
        assert_eq!(parse_request("DROP r").unwrap(), Request::Drop("r".into()));
        assert!(parse_request("INSERT r").is_err());
        assert!(parse_request("CREATE r two").is_err());
        assert!(parse_request("FROB").is_err());
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("CLOSE").unwrap(), Request::Close);
        assert_eq!(parse_request("HELLO 2 1").unwrap(), Request::Hello(2, 1));
        assert_eq!(parse_request("hello 2 1").unwrap(), Request::Hello(2, 1));
        assert!(parse_request("HELLO 2").is_err());
        assert!(parse_request("HELLO x y").is_err());
        assert_eq!(parse_request("REPL 42").unwrap(), Request::Repl(42));
        assert!(parse_request("REPL").is_err());
        assert!(parse_request("REPL -1").is_err());
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse_request("version").unwrap(), Request::Version);
        assert_eq!(parse_request("SLOWLOG").unwrap(), Request::Slowlog);
    }

    #[test]
    fn plan_actual_accepts_null_absent_and_legacy_sentinel() {
        let parse = |s: &str| dco_encoding::parse_json(s).unwrap();
        // Protocol 4: unmeasured is null, measured is a number.
        assert_eq!(plan_actual_from_json(&parse("{\"act\":null}")), None);
        assert_eq!(plan_actual_from_json(&parse("{\"act\":7}")), Some(7));
        // Compat: pre-4 peers sent -1, and some omit the field.
        assert_eq!(plan_actual_from_json(&parse("{\"act\":-1}")), None);
        assert_eq!(plan_actual_from_json(&parse("{\"est\":2}")), None);
    }

    #[test]
    fn query_options_parse_render_and_reject_garbage() {
        let opts = QueryOpts::none()
            .with_deadline_ms(200)
            .with_max_tuples(1000)
            .with_max_atoms(16000);
        assert_eq!(
            opts.render(),
            "@deadline_ms=200,max_tuples=1000,max_atoms=16000 "
        );
        assert_eq!(
            parse_request(&format!("QUERY {}R(x, y)", opts.render())).unwrap(),
            Request::Query(opts, "R(x, y)".into())
        );
        assert_eq!(QueryOpts::none().render(), "");
        assert_eq!(
            parse_request("EXPLAIN @deadline_ms=50 R(x)").unwrap(),
            Request::Explain(QueryOpts::none().with_deadline_ms(50), "R(x)".into())
        );
        // An option token with no formula is an error, as is a bare verb.
        assert!(parse_request("QUERY @deadline_ms=50").is_err());
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("EXPLAIN").is_err());
        // Unknown keys, malformed pairs, and non-numeric values.
        assert!(parse_request("QUERY @frobnicate=1 R(x)").is_err());
        assert!(parse_request("QUERY @deadline_ms R(x)").is_err());
        assert!(parse_request("QUERY @deadline_ms=abc R(x)").is_err());
        assert!(parse_request("QUERY @deadline_ms=-5 R(x)").is_err());
        // Formulas themselves never start with `@`, so no ambiguity.
        assert_eq!(
            parse_request("QUERY R(x, y) & x < y").unwrap(),
            Request::Query(QueryOpts::none(), "R(x, y) & x < y".into())
        );
    }

    #[test]
    fn take_frame_handles_partial_and_pipelined_input() {
        let mut buf = Vec::new();
        assert_eq!(take_frame(&mut buf).unwrap(), None, "empty");
        // Two pipelined frames plus a partial third.
        buf.extend_from_slice(&frame_bytes(b"PING"));
        buf.extend_from_slice(&frame_bytes(b"STATS"));
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.push(b'x');
        assert_eq!(take_frame(&mut buf).unwrap().unwrap(), b"PING");
        assert_eq!(take_frame(&mut buf).unwrap().unwrap(), b"STATS");
        assert_eq!(take_frame(&mut buf).unwrap(), None, "incomplete body");
        buf.extend_from_slice(b"yz");
        assert_eq!(take_frame(&mut buf).unwrap().unwrap(), b"xyz");
        assert!(buf.is_empty());
        // Oversized declared length is a protocol error, not an alloc.
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(take_frame(&mut buf).is_err());
    }

    #[test]
    fn byte_frames_roundtrip_binary_payloads() {
        let payload = [REPL_FRAME_BATCH, 0x00, 0xff, 0x80];
        let mut buf = Vec::new();
        write_frame_bytes(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame_bytes(&mut r).unwrap().unwrap(), payload);
        assert_eq!(read_frame_bytes(&mut r).unwrap(), None);
        // The same bytes are not a valid *text* frame.
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    mod adversarial {
        //! Property tests for [`take_frame`] against adversarial input:
        //! the exact byte streams the netfault proxy manufactures —
        //! frames torn at arbitrary boundaries, oversized length
        //! prefixes, zero-length frames, and raw garbage. The invariant
        //! is total: for *any* byte string, `take_frame` returns a
        //! frame, asks for more input, or errors — it never panics,
        //! never allocates the declared length up front, and a stream
        //! of well-formed frames is reassembled exactly no matter how
        //! it is split.

        use super::super::*;
        use proptest::prelude::*;

        /// Frames of assorted sizes, including empty (zero-length
        /// frames are legal on the wire: 4 header bytes, no body).
        fn frames() -> impl Strategy<Value = Vec<Vec<u8>>> {
            prop::collection::vec(prop::collection::vec(0u8..=255, 0..200), 0..8)
        }

        proptest! {
            /// Well-formed frames survive any split schedule: feed the
            /// concatenated stream in arbitrary chunks and exactly the
            /// original frames come back out, in order.
            #[test]
            fn reassembles_frames_across_arbitrary_splits(
                frames in frames(),
                splits in prop::collection::vec(1usize..64, 0..32),
            ) {
                let mut stream = Vec::new();
                for f in &frames {
                    stream.extend_from_slice(&frame_bytes(f));
                }
                let mut buf = Vec::new();
                let mut out: Vec<Vec<u8>> = Vec::new();
                let mut cursor = 0;
                let mut split_iter = splits.iter().copied().chain(std::iter::repeat(17));
                while cursor < stream.len() {
                    let n = split_iter.next().unwrap_or(17).min(stream.len() - cursor);
                    buf.extend_from_slice(&stream[cursor..cursor + n]);
                    cursor += n;
                    while let Some(frame) = take_frame(&mut buf).unwrap() {
                        out.push(frame);
                    }
                }
                prop_assert_eq!(out, frames);
                prop_assert!(buf.is_empty(), "no residue after the last frame");
            }

            /// Total on arbitrary garbage: any byte string yields a
            /// frame, a need-more-input, or a typed error — never a
            /// panic. An error must come from an oversized declared
            /// length, and a need-more-input only when the declared
            /// length genuinely exceeds the buffered body.
            #[test]
            fn never_panics_on_garbage(bytes in prop::collection::vec(0u8..=255, 0..512)) {
                let mut buf = bytes.clone();
                match take_frame(&mut buf) {
                    Ok(Some(frame)) => {
                        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
                        prop_assert_eq!(frame.len(), len);
                        prop_assert_eq!(buf.len(), bytes.len() - 4 - len, "drains header + body exactly");
                    }
                    Ok(None) => {
                        if bytes.len() >= 4 {
                            let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
                            prop_assert!(len <= MAX_FRAME, "in-bounds length or it must error");
                            prop_assert!(bytes.len() - 4 < len, "asked for more only mid-frame");
                        }
                        prop_assert_eq!(&buf, &bytes, "needs-more-input must not consume");
                    }
                    Err(_) => {
                        prop_assert!(bytes.len() >= 4);
                        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
                        prop_assert!(len > MAX_FRAME, "errors are oversized lengths only");
                    }
                }
            }

            /// An oversized length prefix errors immediately — before
            /// the body arrives — and zero-length frames round-trip.
            #[test]
            fn oversized_prefix_rejected_early(extra in 1u32..(u32::MAX - MAX_FRAME as u32)) {
                let bad = MAX_FRAME as u32 + extra;
                let mut buf = bad.to_be_bytes().to_vec();
                prop_assert!(take_frame(&mut buf).is_err());

                let mut empty = frame_bytes(b"");
                prop_assert_eq!(take_frame(&mut empty).unwrap().unwrap(), Vec::<u8>::new());
                prop_assert!(empty.is_empty());
            }
        }
    }
}
