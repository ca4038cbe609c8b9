//! The one file through which the benchmark calls into `dco`.
//!
//! Every other module sees only the plain functions and re-exported
//! types below, so a change to the engine's entry points needs a change
//! here and nowhere else in the benchmark.

use dco::analysis::{self, AnalysisOptions};
use dco::core::guard::{GuardLimits, GuardStats};
use dco::core::prelude::{rat, GeneralizedTuple, RawAtom, RawOp, Schema, Term};
use dco::datalog::{EngineConfig, Program};
use dco::store::{ClientOptions, RetryPolicy, StoreOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub use dco::analysis::DbStats;
pub use dco::core::prelude::{Database, GeneralizedRelation};
pub use dco::logic::Formula;
pub use dco::store::{Client, Generation, ReplicaHandle, ServerHandle, Store};

/// The guard probe sites the traced run reports, by their names in
/// `dco::obs::PROBE_SITES`.
pub const PROBES: [&str; 4] = [
    "dnf_insert",
    "quantifier_elim",
    "cell_split",
    "fixpoint_stage",
];

// ---------------------------------------------------------------- inputs

/// A unary relation of closed intervals `[lo, hi]` with integer ends.
pub fn intervals(spans: &[Span]) -> GeneralizedRelation {
    let tuples = spans.iter().map(|&(lo, hi)| interval_tuple(lo, hi, 0, 1));
    GeneralizedRelation::from_tuples(1, tuples)
}

fn interval_tuple(lo: i64, hi: i64, var: u32, arity: u32) -> GeneralizedTuple {
    GeneralizedTuple::from_raw(
        arity,
        vec![
            RawAtom::new(Term::cst(rat(lo.into(), 1)), RawOp::Le, Term::var(var)),
            RawAtom::new(Term::var(var), RawOp::Le, Term::cst(rat(hi.into(), 1))),
        ],
    )
    .pop()
    .expect("a closed interval with lo <= hi is satisfiable")
}

/// A closed interval `[lo, hi]` with integer ends.
pub type Span = (i64, i64);

/// A binary relation of boxes `[a.0, a.1] × [b.0, b.1]`.
pub fn boxes(spans: &[(Span, Span)]) -> GeneralizedRelation {
    let tuples = spans.iter().map(|&((a0, a1), (b0, b1))| {
        let raws = vec![
            RawAtom::new(Term::cst(rat(a0.into(), 1)), RawOp::Le, Term::var(0)),
            RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(a1.into(), 1))),
            RawAtom::new(Term::cst(rat(b0.into(), 1)), RawOp::Le, Term::var(1)),
            RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(b1.into(), 1))),
        ];
        GeneralizedTuple::from_raw(2, raws)
            .pop()
            .expect("a box with ordered ends is satisfiable")
    });
    GeneralizedRelation::from_tuples(2, tuples)
}

/// A binary relation of strips: `[lo, hi]` on column `axis`, unbounded
/// on the other.
pub fn strips(axis: u32, spans: &[Span]) -> GeneralizedRelation {
    let tuples = spans
        .iter()
        .map(|&(lo, hi)| interval_tuple(lo, hi, axis, 2));
    GeneralizedRelation::from_tuples(2, tuples)
}

/// A database over the given relations, each declared with its arity.
pub fn database(rels: Vec<(&str, GeneralizedRelation)>) -> Database {
    let schema = rels
        .iter()
        .fold(Schema::new(), |s, (name, rel)| s.with(name, rel.arity()));
    rels.into_iter()
        .fold(Database::new(schema), |db, (name, rel)| db.with(name, rel))
}

/// The wire text of a relation, as `INSERT` sends it.
pub fn wire_text(rel: &GeneralizedRelation) -> String {
    dco::encoding::relation_to_json_str(rel)
}

// ------------------------------------------------------- logic/analysis/fo

/// Parse an FO formula.
pub fn parse_formula(src: &str) -> Result<Formula, String> {
    dco::logic::parse_formula(src).map_err(|e| e.to_string())
}

/// Per-relation statistics of a database, as the store keeps them.
pub fn db_stats(db: &Database) -> DbStats {
    DbStats::of_database(db)
}

/// The store's static preflight of a formula.
pub fn preflight_formula(formula: &Formula, db: &Database) -> Result<(), String> {
    analysis::preflight_formula(formula, Some(db.schema()), &AnalysisOptions::default())
        .map(drop)
        .map_err(|d| format!("{} diagnostic(s), first {}", d.len(), d[0].code))
}

/// The store's planning step: statistics-derived guard limits and the
/// reordered formula.
pub fn plan_formula(formula: &Formula, db: &Database, stats: &DbStats) -> (Formula, GuardLimits) {
    let limits = analysis::cost::suggested_limits_with_stats(formula, stats, db.constants());
    (analysis::plan_formula(formula, stats), limits)
}

/// What a guarded evaluation returns to the benchmark.
pub struct Evaluated {
    /// The answer.
    pub relation: GeneralizedRelation,
    /// The guard's work counters.
    pub stats: GuardStats,
}

/// Guarded FO evaluation, as the store runs it.
pub fn eval_formula(
    db: &Database,
    planned: &Formula,
    limits: GuardLimits,
) -> Result<Evaluated, String> {
    dco::fo::try_eval_with(db, planned, limits)
        .map(|g| Evaluated {
            relation: g.value.relation,
            stats: g.stats,
        })
        .map_err(|e| e.to_string())
}

/// Plain (unplanned, unguarded) FO evaluation: the reference answer.
pub fn eval_reference(db: &Database, formula: &Formula) -> Result<GeneralizedRelation, String> {
    dco::fo::eval(db, formula)
        .map(|r| r.relation)
        .map_err(|e| e.to_string())
}

/// Number of generalized tuples in a relation.
pub fn tuples(rel: &GeneralizedRelation) -> usize {
    rel.len()
}

/// Whether two relations denote the same point set.
pub fn equivalent(a: &GeneralizedRelation, b: &GeneralizedRelation) -> bool {
    a.equivalent(b)
}

// ---------------------------------------------------------------- datalog

/// Parse a Datalog¬ program.
pub fn parse_program(src: &str) -> Result<Program, String> {
    dco::datalog::parse_program(src).map_err(|e| e.to_string())
}

/// Static analysis of a program; `stratified` selects the strict options.
pub fn preflight_program(program: &Program, db: &Database, stratified: bool) -> Result<(), String> {
    let opts = if stratified {
        AnalysisOptions::default()
    } else {
        AnalysisOptions::inflationary()
    };
    let diags = analysis::analyze_program(program, Some(db.schema()), &opts);
    if analysis::has_errors(&diags) {
        return Err(format!("program rejected: {}", diags[0].code));
    }
    Ok(())
}

/// Plan every rule body against the input's statistics and derive the
/// analyzer's default budgets.
pub fn plan_program(program: &Program, db: &Database, stats: &DbStats) -> (Program, GuardLimits) {
    let rules = program
        .rules
        .iter()
        .map(|r| analysis::plan_rule(r, stats))
        .collect();
    let planned = Program::new(rules).unwrap_or_else(|_| program.clone());
    let limits = dco::datalog::guarded::default_limits(&planned, db);
    (planned, limits)
}

/// Guarded fixpoint; returns the relation `output` at the fixpoint.
pub fn run_program(
    program: &Program,
    db: &Database,
    limits: GuardLimits,
    stratified: bool,
    output: &str,
) -> Result<Evaluated, String> {
    let config = EngineConfig::default();
    let (database, stats) = if stratified {
        let g = dco::datalog::try_run_stratified_with(program, db, &config, limits)
            .map_err(|e| e.to_string())?;
        (g.value.database, g.stats)
    } else {
        let g =
            dco::datalog::try_run_with(program, db, &config, limits).map_err(|e| e.to_string())?;
        (g.value.database, g.stats)
    };
    let relation = database
        .get(output)
        .cloned()
        .ok_or_else(|| format!("fixpoint has no relation `{output}`"))?;
    Ok(Evaluated { relation, stats })
}

// ------------------------------------------------------------------- core

/// Hits and misses of the global satisfiability cache.
pub fn sat_cache_counts() -> (u64, u64) {
    let s = dco::core::cache::sat_cache_stats();
    (s.hits, s.misses)
}

/// Empty the global satisfiability cache.
pub fn reset_sat_cache() {
    dco::core::cache::reset_sat_cache();
}

/// Start collecting probe-site counts on this thread.
pub fn probe_begin() -> bool {
    dco::obs::trace::begin("perfbench")
}

/// Stop collecting; counts per entry of [`PROBES`].
pub fn probe_finish() -> [u64; 4] {
    let mut out = [0u64; 4];
    if let Some(rec) = dco::obs::trace::finish() {
        for p in rec.probes {
            if let Some(i) = PROBES.iter().position(|s| *s == p.site) {
                out[i] = p.count;
            }
        }
    }
    out
}

// ------------------------------------------------------------------ store

/// The flush policy every store in the benchmark runs with: the defaults.
pub fn flush_policy() -> String {
    let o = StoreOptions::default();
    format!(
        "fsync={} snapshot_every={} prepared_cache_cap={} shards={}",
        if o.fsync { "on" } else { "off" },
        o.snapshot_every,
        o.prepared_cache_cap,
        o.shards
    )
}

/// Open a store with default options.
pub fn open_store(dir: &Path) -> Result<Store, String> {
    Store::open(dir, StoreOptions::default()).map_err(|e| e.to_string())
}

/// Create a relation and fill it in one commit.
pub fn load_relation(store: &Store, name: &str, rel: &GeneralizedRelation) -> Result<(), String> {
    store.create(name, rel.arity()).map_err(|e| e.to_string())?;
    store
        .insert(name, rel.clone())
        .map(drop)
        .map_err(|e| e.to_string())
}

/// In-process query through the prepared cache.
pub fn store_query(store: &Store, src: &str) -> Result<(GeneralizedRelation, bool), String> {
    store
        .query(src)
        .map(|o| (o.relation, o.cached))
        .map_err(|e| e.to_string())
}

/// Whether the prepared cache holds a valid answer for `formula`.
pub fn store_has_prepared(store: &Store, formula: &Formula) -> bool {
    store.has_prepared(formula)
}

/// In-process commits.
pub fn store_insert(store: &Store, name: &str, rel: &GeneralizedRelation) -> Result<u64, String> {
    store.insert(name, rel.clone()).map_err(|e| e.to_string())
}

/// In-process removal of the tuples `rel` subsumes.
pub fn store_remove(store: &Store, name: &str, rel: &GeneralizedRelation) -> Result<u64, String> {
    store
        .remove_subsumed(name, rel.clone())
        .map_err(|e| e.to_string())
}

/// The current generation: its seq, database and statistics.
pub fn store_generation(store: &Store) -> Arc<Generation> {
    store.read()
}

/// Tuples of relation `name` in a generation (0 when absent).
pub fn relation_len(generation: &Generation, name: &str) -> usize {
    generation.db.get(name).map_or(0, GeneralizedRelation::len)
}

/// Wire bytes of the live tuples of `names` in a generation.
pub fn wire_bytes(generation: &Generation, names: &[String]) -> u64 {
    names
        .iter()
        .filter_map(|n| generation.db.get(n))
        .map(|r| wire_text(r).len() as u64)
        .sum()
}

/// Current length of the store's write-ahead log; a snapshot cycle
/// truncates it.
pub fn wal_len(store: &Store) -> u64 {
    std::fs::metadata(store.dir().join("wal.log")).map_or(0, |m| m.len())
}

/// Take a snapshot cycle (slices written, WAL truncated).
pub fn store_snapshot(store: &Store) -> Result<(), String> {
    store.snapshot().map(drop).map_err(|e| e.to_string())
}

/// Store counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    pub commits: u64,
    pub batches: u64,
    pub fsyncs: u64,
}

/// Current store counters.
pub fn store_counters(store: &Store) -> StoreCounters {
    let s = store.stats();
    StoreCounters {
        commits: s.commits,
        batches: s.batches,
        fsyncs: s.fsyncs,
    }
}

/// `(count, sum)` of a histogram in the store's metrics registry.
pub fn histogram_totals(store: &Store, name: &str) -> (u64, u64) {
    let s = store.registry().histogram(name).snapshot();
    (s.count(), s.sum())
}

/// Bytes of the sealed WAL records for seqs `from..=to`, when they are
/// still in the store's replication window.
pub fn wal_record_bytes(store: &Store, from: u64, to: u64) -> Option<(u64, u64)> {
    if to < from {
        return None;
    }
    let n = usize::try_from(to - from + 1).ok()?;
    match store.repl_backlog(from, n) {
        Ok(dco::store::ReplBacklog::Records { records, .. }) => {
            let bytes = records.iter().map(|r| r.len() as u64).sum();
            Some((records.len() as u64, bytes))
        }
        _ => None,
    }
}

/// Call `watcher(seq)` after each commit this store applies.
pub fn on_commit(store: &Store, watcher: impl Fn(u64) + Send + Sync + 'static) {
    store.on_commit(watcher);
}

// ----------------------------------------------------- server/client/repl

/// Serve `store` on an ephemeral loopback port.
pub fn serve(store: &Store) -> Result<ServerHandle, String> {
    dco::store::serve(store.clone(), "127.0.0.1:0").map_err(|e| e.to_string())
}

/// The in-process reply to one request line.
pub fn respond(store: &Store, line: &str) -> String {
    dco::store::server::respond(store, line).0
}

/// A client that makes one attempt per request, so every typed error is
/// reported instead of retried.
pub fn connect(server: &ServerHandle) -> Result<Client, String> {
    let opts = ClientOptions {
        read_timeout: Some(Duration::from_secs(20)),
        retry: RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    };
    Client::connect_with(&server.addr().to_string(), opts).map_err(|e| e.to_string())
}

/// A served query: `(generation, relation, cached)`.
pub fn client_query(
    client: &mut Client,
    src: &str,
) -> Result<(u64, GeneralizedRelation, bool), String> {
    client
        .query(src)
        .map(|o| (o.generation, o.relation, o.cached))
        .map_err(|e| e.to_string())
}

/// One raw request; the `OK` payload.
pub fn client_call(client: &mut Client, line: &str) -> Result<String, String> {
    client.call(line).map_err(|e| e.to_string())
}

/// Decode a `QUERY` payload: `(generation, relation, cached)`.
pub fn decode_query_reply(payload: &str) -> Result<(u64, GeneralizedRelation, bool), String> {
    dco::store::wire::query_output_from_json(payload).map(|o| (o.generation, o.relation, o.cached))
}

/// Served commits; each returns its WAL seq.
pub fn client_insert(
    client: &mut Client,
    name: &str,
    rel: &GeneralizedRelation,
) -> Result<u64, String> {
    client.insert(name, rel).map_err(|e| e.to_string())
}

/// Served removal of the tuples `rel` subsumes.
pub fn client_remove(
    client: &mut Client,
    name: &str,
    rel: &GeneralizedRelation,
) -> Result<u64, String> {
    client.remove_subsumed(name, rel).map_err(|e| e.to_string())
}

/// The server's `STATS` counter `key` (serving counters included).
pub fn client_stat(client: &mut Client, key: &str) -> Result<u64, String> {
    let body = client.stats().map_err(|e| e.to_string())?;
    let json = dco::encoding::parse_json(&body).map_err(|e| e.to_string())?;
    json.get(key)
        .and_then(dco::encoding::Json::as_num)
        .map(|v| v as u64)
        .ok_or_else(|| format!("STATS has no `{key}`"))
}

/// Stream `primary`'s WAL into `replica`.
pub fn replicate(replica: &Store, primary: &ServerHandle) -> ReplicaHandle {
    dco::store::replicate(replica.clone(), primary.addr().to_string())
}

/// Wait until the replica has applied `seq`.
pub fn replica_wait(handle: &ReplicaHandle, seq: u64, timeout: Duration) -> bool {
    handle.wait_for_seq(seq, timeout)
}
