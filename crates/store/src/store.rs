//! The durable, snapshot-isolated constraint database — sharded write
//! path with group-commit WAL batching.
//!
//! ## Write path
//!
//! The catalog is partitioned into `N` *shards* by relation-name
//! fingerprint ([`shard_of`]). Every [`LogOp`] targets exactly one
//! relation, so validation and successor-state computation are entirely
//! shard-local: concurrent writers to different shards do the expensive
//! work (DNF union, incremental stats recompute) in parallel, each under
//! its own shard mutex. A global *commit queue* then assigns monotone
//! WAL sequence numbers and batches the pre-sealed records: the first
//! committer to find the queue leaderless becomes the **leader**, drains
//! the batch, performs one write pass + one fsync for all of it
//! ([`Wal::append_records`]), publishes each shard's new state in seq
//! order, and only then acknowledges every waiter. Under contention the
//! fsync cost is amortized over the whole batch (fsyncs/commit → 1/batch
//! size); a lone writer degenerates to the classic one-fsync-per-commit
//! discipline.
//!
//! ## Recovery invariant
//!
//! `Store::open(dir)` ≡ per-relation newest snapshot slice + in-order
//! WAL replay of every entry past that relation's covered seq, with any
//! torn WAL tail truncated. Acknowledged writes are always recovered:
//! an ack happens only after the batch fsync, and because records are
//! written in seq order a crash mid-batch leaves a seq-*prefix* on disk
//! — never a gap — so recovery is always a prefix of issued commits that
//! contains every acknowledged one.
//!
//! ## Isolation argument
//!
//! Readers never lock out writers and vice versa: the entire catalog
//! lives in an immutable [`Generation`] behind an `Arc`, and the leader
//! installs a *new* generation with an atomic pointer swap after each
//! batch. Cross-shard consistency comes from the commit sequencer:
//! shard states are published in global seq order by a single leader at
//! a time, so every published generation is the catalog after a
//! *prefix* of the commit order — a reader holding a generation at seq
//! `s` sees exactly commits `1..=s`, regardless of which shards they
//! touched. The per-shard watermarks ride along in
//! [`Generation::shard_marks`] and key the prepared-query cache.
//!
//! ## Fault containment
//!
//! The WAL batch write, batch fsync, shard publication, and snapshot
//! slice writes carry [`dco_core::guard`] probes. When a chaos test
//! injects a panic there, the unwinding leader's drop guard fails every
//! waiting committer's ticket, clears the `healthy` flag, and releases
//! leadership; every later write is refused with
//! [`StoreError::Unhealthy`] until the store is reopened (which
//! truncates the torn tail). Readers are unaffected — their generation
//! is immutable, and nothing is published before it is durable.

use crate::codec::CodecError;
use crate::snapshot;
use crate::wal::{apply_op, LogOp, Wal};
use dco_analysis::explain::QueryPlan;
use dco_analysis::stats::DbStats;
use dco_analysis::{cost, plan_formula, preflight_formula, AnalysisOptions, Diagnostic};
use dco_core::guard::{self, EvalErrorKind, GuardLimits, GuardStats, Guarded, ProbeSite};
use dco_core::intern::{fold, mix64};
use dco_core::prelude::{Database, GeneralizedRelation, Schema};
use dco_fo::{eval, explain_planned, QueryResult};
use dco_logic::{parse_formula, Formula};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Tuning knobs for a store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Take an automatic snapshot cycle (re-slice every dirty shard and
    /// truncate the WAL) once any single shard has accumulated this many
    /// logged operations. `0` disables automatic snapshots.
    pub snapshot_every: u64,
    /// Fsync WAL batches after every append and snapshot slices before
    /// publishing. Turning this off trades the durability guarantee for
    /// speed (benchmarks, throwaway stores).
    pub fsync: bool,
    /// Maximum number of prepared-query results kept per store.
    pub prepared_cache_cap: usize,
    /// Number of write shards the catalog is partitioned into. Writers
    /// to different shards validate and compute successor states in
    /// parallel; `0` is treated as `1`.
    pub shards: usize,
    /// Number of committed WAL records retained in memory for
    /// replication catch-up ([`Store::repl_backlog`]). A replica whose
    /// last-applied seq has fallen out of this window is resynced with a
    /// full checkpoint instead of a record stream. `0` disables the
    /// backlog (every resume becomes a checkpoint).
    pub repl_backlog: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            snapshot_every: 256,
            fsync: true,
            prepared_cache_cap: 256,
            shards: 8,
            repl_backlog: 1024,
        }
    }
}

/// One immutable catalog version. Readers hold an `Arc<Generation>` and
/// see a frozen database regardless of concurrent writes.
#[derive(Debug)]
pub struct Generation {
    /// WAL sequence number of the last operation applied (0 = empty).
    /// The catalog is the state after exactly commits `1..=seq` — a
    /// prefix of the global commit order, never a partial batch.
    pub seq: u64,
    /// The catalog at that point.
    pub db: Database,
    /// Per-relation statistics of the catalog, maintained incrementally
    /// per shard: each write recomputes only the relation it touched. A
    /// pure function of the catalog content, so recovery (slices + WAL
    /// replay) reproduces it byte-identically.
    pub stats: DbStats,
    /// Per-shard watermarks: `shard_marks[i]` is the seq of the last
    /// commit that touched shard `i` (or the recovery seq right after
    /// open). Two generations with equal marks for a set of shards have
    /// byte-identical state on those shards — the fact the prepared-
    /// query cache keys on.
    pub shard_marks: Vec<u64>,
}

/// A query answer, tagged with the generation it was computed against.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Generation the answer is valid for.
    pub generation: u64,
    /// Output columns (free variables, sorted).
    pub columns: Vec<String>,
    /// The denoted relation.
    pub relation: GeneralizedRelation,
    /// Whether the answer came from the prepared-query cache.
    pub cached: bool,
    /// Guard statistics of the evaluation (`None` on cache hits — no
    /// evaluation happened).
    pub stats: Option<GuardStats>,
    /// The measured plan, for an explained query (`None` otherwise).
    pub plan: Option<QueryPlan>,
}

/// Observable store counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Current generation seq.
    pub generation: u64,
    /// Number of relations in the catalog.
    pub relations: usize,
    /// Number of write shards.
    pub shards: usize,
    /// Acknowledged commits since open.
    pub commits: u64,
    /// Group-commit batches written since open (= WAL write passes).
    pub batches: u64,
    /// WAL fsyncs since open (0 with `fsync: false`). Under contention
    /// `fsyncs / commits` drops toward `1 / batch size`.
    pub fsyncs: u64,
    /// Largest group-commit batch observed.
    pub commit_batch_max: u64,
    /// Prepared-query cache hits.
    pub cache_hits: u64,
    /// Prepared-query cache misses (cold evaluations).
    pub cache_misses: u64,
    /// Live entries in the prepared-query cache.
    pub cache_entries: usize,
}

/// What a primary has for a replica resuming from some seq: either the
/// exact sealed records it missed, or — when that seq has fallen out of
/// the retained window — a full checkpoint to reset from.
#[derive(Debug)]
pub enum ReplBacklog {
    /// Contiguous sealed WAL records starting exactly at the requested
    /// seq, byte-identical to the primary's log. Empty means the replica
    /// is caught up.
    Records {
        /// Seq of the last record included (`from_seq - 1` when empty).
        last_seq: u64,
        /// The records, in seq order.
        records: Vec<Arc<Vec<u8>>>,
    },
    /// The requested seq left the retained window: a full catalog
    /// checkpoint, encoded as one snapshot slice (shard 0 of 1), cut
    /// under commit leadership so it is a true commit-order prefix.
    Checkpoint {
        /// Generation the checkpoint freezes.
        seq: u64,
        /// [`snapshot::encode_slice`] bytes.
        bytes: Vec<u8>,
    },
}

/// Everything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A stored record failed to decode.
    Codec(CodecError),
    /// The operation is invalid against the current catalog (unknown
    /// relation, arity mismatch, duplicate create, ...).
    Invalid(String),
    /// The query text did not parse.
    Parse(String),
    /// Static analysis rejected the query before evaluation.
    Rejected(Vec<Diagnostic>),
    /// The guarded evaluation tripped a budget, deadline, or contained
    /// fault.
    Fault(String),
    /// The request's deadline elapsed — either while it sat in the
    /// server queue (never evaluated) or during the guarded evaluation.
    /// The wire form starts with the `DEADLINE_EXCEEDED` token so
    /// clients can match it without parsing prose.
    DeadlineExceeded {
        /// Milliseconds elapsed when the request was abandoned.
        elapsed_ms: u64,
        /// The propagated deadline, in milliseconds.
        limit_ms: u64,
    },
    /// The server shed this request before evaluating it: projected
    /// completion exceeded the deadline, or the server is past its
    /// high-water mark. The wire form starts with the `OVERLOADED`
    /// token and carries a machine-readable retry hint.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A network operation timed out (client-side connect/read
    /// timeouts surface this instead of hanging on a dead peer).
    Timeout(String),
    /// A previous write crashed mid-commit; the store refuses further
    /// writes until reopened (which truncates the torn WAL tail).
    Unhealthy,
    /// The peer announced an incompatible wire-protocol or WAL-codec
    /// version in the `HELLO` handshake. Caught *before* any replication
    /// bytes flow — the alternative is a CRC failure mid-stream.
    VersionMismatch {
        /// `(protocol, codec)` this build speaks.
        ours: (u32, u8),
        /// `(protocol, codec)` the peer announced.
        theirs: (u32, u8),
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Invalid(m) => write!(f, "invalid operation: {m}"),
            StoreError::Parse(m) => write!(f, "parse error: {m}"),
            StoreError::Rejected(diags) => {
                write!(f, "query rejected by analysis:")?;
                for d in diags {
                    write!(f, " [{} {}] {};", d.severity, d.code, d.message)?;
                }
                Ok(())
            }
            StoreError::Fault(m) => write!(f, "evaluation fault: {m}"),
            StoreError::DeadlineExceeded {
                elapsed_ms,
                limit_ms,
            } => write!(
                f,
                "DEADLINE_EXCEEDED {elapsed_ms} ms elapsed of {limit_ms} ms allowed"
            ),
            StoreError::Overloaded { retry_after_ms } => write!(
                f,
                "OVERLOADED retry_after_ms={retry_after_ms} server shed this request"
            ),
            StoreError::Timeout(m) => write!(f, "timeout: {m}"),
            StoreError::Unhealthy => {
                f.write_str("store is unhealthy after a failed write; reopen to recover")
            }
            StoreError::VersionMismatch { ours, theirs } => write!(
                f,
                "version mismatch: this build speaks protocol {} / codec {}, \
                 peer announced protocol {} / codec {}",
                ours.0, ours.1, theirs.0, theirs.1
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        StoreError::Codec(e)
    }
}

/// Fingerprint of a formula's canonical (display) form, via the same
/// deterministic mixer tuple fingerprints use — stable across processes, so
/// prepared-query keys survive server restarts.
pub fn formula_fingerprint(formula: &Formula) -> u64 {
    let text = formula.to_string();
    fingerprint_bytes(0x5353_4f52_4551_5546, text.as_bytes())
}

/// Deterministic fingerprint of a relation name — the shard key. Same
/// mixer family as [`formula_fingerprint`] with a distinct seed, so the
/// two key spaces cannot alias.
pub fn relation_fingerprint(name: &str) -> u64 {
    fingerprint_bytes(0x5348_4152_444b_4559, name.as_bytes())
}

fn fingerprint_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = mix64(seed ^ bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = fold(h, u64::from_le_bytes(word));
    }
    h
}

/// The shard owning relation `name` in an `nshards`-way partition.
/// Deterministic across processes — snapshot slices record the shard
/// count they were written under, so recovery resolves ownership even
/// when the configured count changes between opens.
pub fn shard_of(name: &str, nshards: usize) -> usize {
    (relation_fingerprint(name) % nshards.max(1) as u64) as usize
}

/// A cached query answer: output columns plus the canonical relation.
type CachedAnswer = Arc<(Vec<String>, GeneralizedRelation)>;

struct PreparedCache {
    results: HashMap<(u64, u64), CachedAnswer>,
    order: VecDeque<(u64, u64)>,
    cap: usize,
}

impl PreparedCache {
    fn get(&self, key: (u64, u64)) -> Option<CachedAnswer> {
        self.results.get(&key).cloned()
    }

    fn put(&mut self, key: (u64, u64), value: CachedAnswer) {
        if self.cap == 0 || self.results.contains_key(&key) {
            return;
        }
        while self.results.len() >= self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.results.remove(&old);
                }
                None => break,
            }
        }
        self.order.push_back(key);
        self.results.insert(key, value);
    }
}

/// One shard's immutable state: its slice of the catalog plus its slice
/// of the statistics, stamped with the seq of the last commit that
/// produced it. Successor states share untouched relations by `Arc`.
#[derive(Debug)]
struct ShardState {
    watermark: u64,
    relations: BTreeMap<String, Arc<GeneralizedRelation>>,
    stats: DbStats,
}

/// A shard: the pending head (latest *assigned* state, serialized by
/// the writer mutex), the published head (latest *durable* state,
/// swapped by the commit leader), and the count of published ops since
/// this shard was last folded into a snapshot slice.
struct Shard {
    writer: Mutex<Arc<ShardState>>,
    published: RwLock<Arc<ShardState>>,
    since_snapshot: AtomicU64,
}

/// A committer's wait handle: completed (with its seq) only after the
/// whole batch is durable, failed if the batch or the leader died.
struct Ticket {
    state: Mutex<TicketState>,
    cv: Condvar,
}

#[derive(Clone, Copy)]
enum TicketState {
    Pending,
    Durable(u64),
    Failed,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket {
            state: Mutex::new(TicketState::Pending),
            cv: Condvar::new(),
        }
    }

    fn finish(&self, outcome: TicketState) {
        *plock(&self.state) = outcome;
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<u64, StoreError> {
        let mut s = plock(&self.state);
        loop {
            match *s {
                TicketState::Pending => {
                    s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
                }
                TicketState::Durable(seq) => return Ok(seq),
                TicketState::Failed => return Err(StoreError::Unhealthy),
            }
        }
    }
}

/// One enqueued commit: its sealed WAL record and the shard state to
/// publish once the record is durable. The record is `Arc`d because it
/// outlives the commit: the replication backlog retains it verbatim so
/// replicas receive the exact bytes the primary's WAL holds.
struct BatchEntry {
    seq: u64,
    record: Arc<Vec<u8>>,
    shard: usize,
    state: Arc<ShardState>,
    ticket: Arc<Ticket>,
}

/// The global commit sequencer. `leader_active == false` implies
/// `batch.is_empty()`: an enqueuer finding no leader claims leadership
/// in the same critical section as its push, and a leader only steps
/// down after observing an empty batch under this lock.
struct CommitQueue {
    batch: Vec<BatchEntry>,
    next_seq: u64,
    leader_active: bool,
}

/// Bounded in-memory window of the most recent committed WAL records,
/// kept verbatim (sealed bytes) for replica catch-up. `floor()` is the
/// oldest seq still servable from memory; a replica resuming below it
/// gets a checkpoint instead.
struct ReplRing {
    /// Seq the *next* committed record will carry (so an empty ring
    /// means "everything up to `next - 1` is already applied").
    next: u64,
    records: VecDeque<(u64, Arc<Vec<u8>>)>,
    cap: usize,
}

impl ReplRing {
    fn floor(&self) -> u64 {
        self.records.front().map_or(self.next, |(s, _)| *s)
    }

    fn push(&mut self, seq: u64, record: Arc<Vec<u8>>) {
        self.next = seq + 1;
        if self.cap == 0 {
            return;
        }
        self.records.push_back((seq, record));
        while self.records.len() > self.cap {
            self.records.pop_front();
        }
    }

    fn reset(&mut self, next: u64) {
        self.next = next;
        self.records.clear();
    }
}

/// A commit subscriber: invoked (under the watcher lock, so keep it
/// cheap — flip a flag, write a wake byte) with the last seq of every
/// successfully published batch.
type CommitWatcher = Box<dyn Fn(u64) + Send + Sync>;

/// Per-shard successor state staged during a replicated apply:
/// (watermark, relations, stats, ops applied to this shard).
type StagedShard = (
    u64,
    BTreeMap<String, Arc<GeneralizedRelation>>,
    DbStats,
    u64,
);

/// Per-store observability state: the metrics registry every layer of
/// this store (WAL, query path, and the serving stack via
/// [`Store::registry`]) records into, plus the per-query tracing ring
/// and the slow-query log. Per-store — not global — so concurrent
/// stores in one process never mix counters.
struct StoreObs {
    registry: Arc<dco_obs::Registry>,
    /// Per-store tracing switch (on by default; independent of the
    /// global `dco_obs` kill switch, which gates everything).
    tracing: AtomicBool,
    slowlog: dco_obs::SlowLog,
    traces: dco_obs::TraceRing,
    /// `store.query.total` — whole query-path latency, ns.
    h_total: Arc<dco_obs::Histogram>,
    /// `store.query.eval` — guarded evaluation latency, ns.
    h_eval: Arc<dco_obs::Histogram>,
    /// `store.query.slow` — queries that crossed the slow threshold.
    c_slow: Arc<dco_obs::Counter>,
}

impl StoreObs {
    fn new() -> StoreObs {
        let registry = Arc::new(dco_obs::Registry::new());
        StoreObs {
            tracing: AtomicBool::new(true),
            slowlog: dco_obs::SlowLog::new(128),
            traces: dco_obs::TraceRing::new(256),
            h_total: registry.histogram("store.query.total"),
            h_eval: registry.histogram("store.query.eval"),
            c_slow: registry.counter("store.query.slow"),
            registry,
        }
    }
}

struct Inner {
    dir: PathBuf,
    opts: StoreOptions,
    shards: Vec<Shard>,
    current: RwLock<Arc<Generation>>,
    queue: Mutex<CommitQueue>,
    /// Signaled whenever leadership is released (manual snapshots wait
    /// here to take over the commit pipeline).
    leader_idle: Condvar,
    wal: Mutex<Wal>,
    healthy: AtomicBool,
    repl: Mutex<ReplRing>,
    watchers: Mutex<Vec<(u64, CommitWatcher)>>,
    watcher_seq: AtomicU64,
    prepared: Mutex<PreparedCache>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    commits: AtomicU64,
    batches: AtomicU64,
    fsyncs: AtomicU64,
    batch_max: AtomicU64,
    obs: StoreObs,
}

/// Handle to an open store. Cheap to clone; all clones share the same
/// WAL, shard set, generation chain, and prepared-query cache.
#[derive(Clone)]
pub struct Store {
    inner: Arc<Inner>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.inner.dir)
            .field("generation", &self.read().seq)
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

/// Poison-tolerant mutex lock: a panic while holding a lock (e.g. an
/// injected fault at a WAL probe) must not wedge the store — the
/// `healthy` flag, not lock poison, is the source of truth.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Releases leadership and fails every pending committer if the leader
/// unwinds (injected fault, I/O error) between claiming the batch and
/// acknowledging it. Disarmed on the success path. This is what keeps
/// "acknowledged" honest: a ticket can only ever complete after the
/// fsync, and any leader death converts every in-flight ticket into
/// [`StoreError::Unhealthy`] instead of leaving threads parked forever.
struct LeaderGuard<'a> {
    inner: &'a Inner,
    tickets: Vec<Arc<Ticket>>,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.inner.healthy.store(false, Ordering::SeqCst);
        for t in &self.tickets {
            t.finish(TicketState::Failed);
        }
        let drained = {
            let mut q = plock(&self.inner.queue);
            q.leader_active = false;
            std::mem::take(&mut q.batch)
        };
        self.inner.leader_idle.notify_all();
        for e in drained {
            e.ticket.finish(TicketState::Failed);
        }
    }
}

impl Store {
    /// Open (creating if needed) the store in directory `dir`.
    ///
    /// Recovery: load every valid snapshot slice, resolve each relation
    /// from the newest slice *owning* it (under the slice's own recorded
    /// shard count), replay every WAL entry past that relation's covered
    /// seq, truncate any torn tail. A fault-free reopen is always an
    /// identity: `open` after clean writes reproduces the exact
    /// pre-close catalog (the chaos suite asserts this).
    pub fn open(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let nshards = opts.shards.max(1);

        let slices = snapshot::load_slices(&dir)?;
        let (mut wal, scan) = Wal::open(&dir.join("wal.log"), opts.fsync)?;
        let obs = StoreObs::new();
        wal.set_fsync_histogram(obs.registry.histogram("store.wal.fsync"));

        // Per-relation resolution: newest owning slice wins; a newer
        // owning slice that omits the relation records a drop.
        let mut resolved: BTreeMap<String, (u64, Arc<GeneralizedRelation>)> = BTreeMap::new();
        for slice in &slices {
            for (name, rel) in &slice.relations {
                match resolved.get(name) {
                    Some((at, _)) if *at >= slice.seq => {}
                    _ => {
                        resolved.insert(name.clone(), (slice.seq, rel.clone()));
                    }
                }
            }
        }
        let mut relations: BTreeMap<String, Arc<GeneralizedRelation>> = resolved
            .into_iter()
            .filter(|(name, (at, _))| snapshot::covered_seq(&slices, name) <= *at)
            .map(|(name, (_, rel))| (name, rel))
            .collect();

        let mut seq = slices.iter().map(|s| s.seq).max().unwrap_or(0);
        let mut replayed = vec![0u64; nshards];
        for entry in &scan.entries {
            seq = seq.max(entry.seq);
            if entry.seq <= snapshot::covered_seq(&slices, entry.op.target()) {
                continue; // already folded into an owning slice
            }
            apply_op(&mut relations, &entry.op).map_err(StoreError::Invalid)?;
            replayed[shard_of(entry.op.target(), nshards)] += 1;
        }
        wal.set_next_seq(seq + 1);

        // Partition the recovered catalog into shard states. Every shard
        // is current as of `seq` (all entries <= seq were applied), so
        // each legitimately claims `seq` as its initial watermark.
        let mut per_shard: Vec<BTreeMap<String, Arc<GeneralizedRelation>>> =
            vec![BTreeMap::new(); nshards];
        for (name, rel) in relations {
            let s = shard_of(&name, nshards);
            per_shard[s].insert(name, rel);
        }
        let mut states = Vec::with_capacity(nshards);
        for rels in per_shard {
            let mut stats = DbStats::default();
            for (name, rel) in &rels {
                stats.update(name, rel);
            }
            states.push(Arc::new(ShardState {
                watermark: seq,
                relations: rels,
                stats,
            }));
        }
        let shards = states
            .iter()
            .enumerate()
            .map(|(i, st)| Shard {
                writer: Mutex::new(st.clone()),
                published: RwLock::new(st.clone()),
                since_snapshot: AtomicU64::new(replayed[i]),
            })
            .collect();

        let generation = Arc::new(compose_generation(seq, &states));
        let repl_backlog_cap = opts.repl_backlog;
        let inner = Inner {
            dir,
            prepared: Mutex::new(PreparedCache {
                results: HashMap::new(),
                order: VecDeque::new(),
                cap: opts.prepared_cache_cap,
            }),
            opts,
            shards,
            current: RwLock::new(generation),
            queue: Mutex::new(CommitQueue {
                batch: Vec::new(),
                next_seq: seq + 1,
                leader_active: false,
            }),
            leader_idle: Condvar::new(),
            wal: Mutex::new(wal),
            healthy: AtomicBool::new(true),
            repl: Mutex::new(ReplRing {
                next: seq + 1,
                records: VecDeque::new(),
                cap: repl_backlog_cap,
            }),
            watchers: Mutex::new(Vec::new()),
            watcher_seq: AtomicU64::new(1),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            batch_max: AtomicU64::new(0),
            obs,
        };
        Ok(Store {
            inner: Arc::new(inner),
        })
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The current generation — a frozen catalog plus its seq. Hold the
    /// returned `Arc` to read at a stable snapshot while writes proceed.
    pub fn read(&self) -> Arc<Generation> {
        self.inner
            .current
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Declare a new empty relation.
    pub fn create(&self, name: &str, arity: u32) -> Result<u64, StoreError> {
        self.apply(LogOp::Create {
            name: name.to_string(),
            arity,
        })
    }

    /// Remove a relation from the catalog.
    pub fn drop_relation(&self, name: &str) -> Result<u64, StoreError> {
        self.apply(LogOp::Drop {
            name: name.to_string(),
        })
    }

    /// Union tuples into a relation.
    pub fn insert(&self, name: &str, rel: GeneralizedRelation) -> Result<u64, StoreError> {
        self.apply(LogOp::InsertTuples {
            name: name.to_string(),
            rel,
        })
    }

    /// Delete every stored tuple subsumed by a tuple of `rel`.
    pub fn remove_subsumed(&self, name: &str, rel: GeneralizedRelation) -> Result<u64, StoreError> {
        self.apply(LogOp::RemoveSubsumed {
            name: name.to_string(),
            rel,
        })
    }

    /// Replace a relation's instance wholesale.
    pub fn replace(&self, name: &str, rel: GeneralizedRelation) -> Result<u64, StoreError> {
        self.apply(LogOp::Replace {
            name: name.to_string(),
            rel,
        })
    }

    /// Log and apply one operation; returns its WAL seq. The caller is
    /// acknowledged only after its record's group-commit batch is
    /// durable and published — so an acknowledged seq is on disk and
    /// visible to readers by the time the caller sees it.
    ///
    /// Concurrency: validation and successor-state computation run under
    /// the target relation's *shard* mutex (parallel across shards); seq
    /// assignment and batching under the global queue mutex (cheap); the
    /// WAL write + fsync is done once per batch by whichever committer
    /// is leading.
    pub fn apply(&self, op: LogOp) -> Result<u64, StoreError> {
        if !self.inner.healthy.load(Ordering::SeqCst) {
            return Err(StoreError::Unhealthy);
        }
        let shard_idx = shard_of(op.target(), self.inner.shards.len());
        // Expensive, shard-independent work first: payload encoding.
        let payload = crate::wal::encode_op(&op);

        let shard = &self.inner.shards[shard_idx];
        let mut head = plock(&shard.writer);

        // Validate and compute the successor shard state against the
        // pending head *before* enqueueing, so the WAL never contains an
        // inapplicable op and invalid ops consume no seq (the assigned
        // seq sequence must stay gap-free — recovery treats a seq break
        // as a torn tail).
        let mut relations = head.relations.clone();
        apply_op(&mut relations, &op).map_err(StoreError::Invalid)?;
        let mut stats = head.stats.clone();
        match relations.get(op.target()) {
            Some(rel) => stats.update(op.target(), rel),
            None => stats.remove(op.target()),
        }

        let ticket = Arc::new(Ticket::new());
        let lead = {
            let mut q = plock(&self.inner.queue);
            if !self.inner.healthy.load(Ordering::SeqCst) {
                // A leader died while we were computing: our base state
                // may include never-durable pending writes. Refuse
                // before taking a seq.
                return Err(StoreError::Unhealthy);
            }
            let seq = q.next_seq;
            q.next_seq += 1;
            let state = Arc::new(ShardState {
                watermark: seq,
                relations,
                stats,
            });
            *head = state.clone();
            q.batch.push(BatchEntry {
                seq,
                record: Arc::new(crate::wal::seal_entry(seq, &payload)),
                shard: shard_idx,
                state,
                ticket: ticket.clone(),
            });
            if q.leader_active {
                false
            } else {
                q.leader_active = true;
                true
            }
        };
        drop(head); // writers to this shard may now stack on our pending state

        if lead {
            self.lead();
        }
        ticket.wait()
    }

    /// The leader loop: drain batches until the queue is empty, then
    /// step down. At most one thread runs this at a time.
    fn lead(&self) {
        loop {
            let batch = {
                let mut q = plock(&self.inner.queue);
                if q.batch.is_empty() {
                    q.leader_active = false;
                    self.inner.leader_idle.notify_all();
                    return;
                }
                std::mem::take(&mut q.batch)
            };
            if !self.commit_batch(batch) {
                return; // guard already failed tickets + released leadership
            }
            if self.auto_snapshot_due() {
                let mut guard = LeaderGuard {
                    inner: &self.inner,
                    tickets: Vec::new(),
                    armed: true,
                };
                if self.snapshot_cycle(false).is_err() {
                    return; // guard cleans up on drop
                }
                guard.armed = false;
            }
        }
    }

    /// Commit one batch: single WAL write pass + fsync, then publish
    /// each shard state in seq order, swap the global generation, and
    /// acknowledge every ticket. Returns false (after guard cleanup) on
    /// any failure.
    fn commit_batch(&self, batch: Vec<BatchEntry>) -> bool {
        let mut guard = LeaderGuard {
            inner: &self.inner,
            tickets: batch.iter().map(|e| e.ticket.clone()).collect(),
            armed: true,
        };
        if !self.inner.healthy.load(Ordering::SeqCst) {
            return false;
        }
        let last_seq = match batch.last() {
            Some(e) => e.seq,
            None => return false,
        };

        // Durability point: one write pass, one fsync, for the whole
        // batch. Probes inside may unwind (chaos); the guard converts
        // that into failed tickets + an unhealthy store.
        {
            let mut wal = plock(&self.inner.wal);
            if wal
                .append_records(batch.iter().map(|e| e.record.as_slice()))
                .is_err()
            {
                return false;
            }
            wal.set_next_seq(last_seq + 1);
        }
        if self.inner.opts.fsync {
            self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
        }

        // Publish in seq order: a fault between swaps leaves a seq-
        // prefix of the batch visible — never a torn interleaving — and
        // everything visible is already durable.
        for e in &batch {
            guard::probe(ProbeSite::ShardPublish);
            let shard = &self.inner.shards[e.shard];
            *shard.published.write().unwrap_or_else(|p| p.into_inner()) = e.state.clone();
            shard.since_snapshot.fetch_add(1, Ordering::Relaxed);
        }
        let generation = Arc::new(self.compose(last_seq));
        *self
            .inner
            .current
            .write()
            .unwrap_or_else(|p| p.into_inner()) = generation;

        self.inner
            .commits
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.inner.batches.fetch_add(1, Ordering::Relaxed);
        self.inner
            .batch_max
            .fetch_max(batch.len() as u64, Ordering::Relaxed);

        // Retain the batch's records (verbatim sealed bytes) for replica
        // catch-up *before* acknowledging: once a committer sees its
        // seq, that seq must be streamable.
        {
            let mut ring = plock(&self.inner.repl);
            for e in &batch {
                ring.push(e.seq, e.record.clone());
            }
        }

        guard.armed = false;
        for e in &batch {
            e.ticket.finish(TicketState::Durable(e.seq));
        }
        self.notify_watchers(last_seq);
        true
    }

    /// Run every commit watcher with the just-published seq. Called by
    /// the leader after acknowledging a batch; watchers run under the
    /// registration lock, so they must be cheap and non-reentrant (the
    /// server's watcher just pokes a wake token).
    fn notify_watchers(&self, seq: u64) {
        for (_, w) in plock(&self.inner.watchers).iter() {
            w(seq);
        }
    }

    /// Compose the global generation from the published shard states.
    fn compose(&self, seq: u64) -> Generation {
        let states: Vec<Arc<ShardState>> = self
            .inner
            .shards
            .iter()
            .map(|s| {
                s.published
                    .read()
                    .unwrap_or_else(|p| p.into_inner())
                    .clone()
            })
            .collect();
        compose_generation(seq, &states)
    }

    fn auto_snapshot_due(&self) -> bool {
        let every = self.inner.opts.snapshot_every;
        every > 0
            && self
                .inner
                .shards
                .iter()
                .any(|s| s.since_snapshot.load(Ordering::Relaxed) >= every)
    }

    /// Force a snapshot cycle over every shard and truncate the WAL.
    /// Returns the slices' total on-disk size in bytes — the standard-
    /// encoding measure of the catalog (§3) plus envelope overhead.
    pub fn snapshot(&self) -> Result<u64, StoreError> {
        self.claim_leadership()?;
        let mut guard = LeaderGuard {
            inner: &self.inner,
            tickets: Vec::new(),
            armed: true,
        };
        let bytes = self.snapshot_cycle(true)?;
        guard.armed = false;
        // Commits may have queued behind us while we were slicing; they
        // have no leader (they saw `leader_active`), so drain them now.
        self.lead();
        Ok(bytes)
    }

    /// Take over the commit pipeline: wait for the current leader (if
    /// any) to drain and step down, then claim leadership so nothing can
    /// interleave with the caller's critical section. The caller *must*
    /// hand leadership back by calling [`Store::lead`] (which drains any
    /// commits that queued behind it and steps down) — unless its
    /// `LeaderGuard` fired, which already released leadership while
    /// wounding the store.
    fn claim_leadership(&self) -> Result<(), StoreError> {
        if !self.inner.healthy.load(Ordering::SeqCst) {
            return Err(StoreError::Unhealthy);
        }
        let mut q = plock(&self.inner.queue);
        while q.leader_active {
            q = self
                .inner
                .leader_idle
                .wait(q)
                .unwrap_or_else(|p| p.into_inner());
        }
        if !self.inner.healthy.load(Ordering::SeqCst) {
            return Err(StoreError::Unhealthy);
        }
        q.leader_active = true;
        Ok(())
    }

    /// Re-slice shards and truncate the WAL. With `force_all` every
    /// shard holding data is written; otherwise only *dirty* shards
    /// (published ops since their last slice). Truncation is safe either
    /// way: the caller holds leadership (no concurrent WAL writes), and
    /// every WAL entry's target shard is by definition dirty, so each
    /// entry is covered by the fresh slice of its shard — while clean
    /// shards stay covered by their existing slices. This is what makes
    /// the trigger per-shard: a hot relation forcing frequent cycles
    /// only rewrites its own shard's slice, and cold shards' coverage
    /// never goes stale.
    fn snapshot_cycle(&self, force_all: bool) -> Result<u64, StoreError> {
        let nshards = self.inner.shards.len();
        let mut bytes = 0;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            let dirty = shard.since_snapshot.load(Ordering::Relaxed) > 0;
            if !dirty && !force_all {
                continue;
            }
            let state = shard
                .published
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
            if !dirty && state.relations.is_empty() && state.watermark == 0 {
                continue; // nothing was ever recorded for this shard
            }
            bytes += snapshot::write_slice(
                &self.inner.dir,
                state.watermark,
                i,
                nshards,
                &state.relations,
                self.inner.opts.fsync,
            )?;
            shard.since_snapshot.store(0, Ordering::Relaxed);
        }
        plock(&self.inner.wal).truncate()?;
        Ok(bytes)
    }

    /// Subscribe to commit publications: `watcher` runs with the last
    /// seq of every successfully published batch (local commits,
    /// replicated batches, and installed checkpoints alike). Returns an
    /// id for [`Store::remove_commit_watcher`]. Watchers run on the
    /// committing leader's thread under the registration lock — keep
    /// them to a flag flip or a wake-token poke.
    pub fn on_commit(&self, watcher: impl Fn(u64) + Send + Sync + 'static) -> u64 {
        let id = self.inner.watcher_seq.fetch_add(1, Ordering::Relaxed);
        plock(&self.inner.watchers).push((id, Box::new(watcher)));
        id
    }

    /// Unsubscribe a watcher registered with [`Store::on_commit`].
    pub fn remove_commit_watcher(&self, id: u64) {
        plock(&self.inner.watchers).retain(|(wid, _)| *wid != id);
    }

    /// What a replica that has applied everything up to `from_seq - 1`
    /// should receive next: at most `max_records` sealed records from
    /// the in-memory backlog, or a full checkpoint when `from_seq` has
    /// fallen out of the retained window. A `from_seq` *ahead* of this
    /// store's history is refused — it means the replica was paired with
    /// a different primary (or a wiped one).
    pub fn repl_backlog(
        &self,
        from_seq: u64,
        max_records: usize,
    ) -> Result<ReplBacklog, StoreError> {
        {
            let ring = plock(&self.inner.repl);
            if from_seq > ring.next {
                return Err(StoreError::Invalid(format!(
                    "replica resumes from seq {from_seq} but this primary's history \
                     ends at {}",
                    ring.next - 1
                )));
            }
            if from_seq >= ring.floor() {
                let mut records = Vec::new();
                let mut last_seq = from_seq.saturating_sub(1);
                for (seq, rec) in ring.records.iter() {
                    if *seq < from_seq {
                        continue;
                    }
                    if records.len() >= max_records {
                        break;
                    }
                    records.push(rec.clone());
                    last_seq = *seq;
                }
                return Ok(ReplBacklog::Records { last_seq, records });
            }
        }
        // Too far behind: cut a checkpoint. Claim commit leadership so
        // the published shard states are quiescent — the checkpoint must
        // be the catalog after a *prefix* of the commit order, never a
        // torn interleaving of a batch mid-publication.
        self.claim_leadership()?;
        let seq = self.read().seq;
        let mut relations: BTreeMap<String, Arc<GeneralizedRelation>> = BTreeMap::new();
        for shard in &self.inner.shards {
            let st = shard
                .published
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
            for (name, rel) in &st.relations {
                relations.insert(name.clone(), rel.clone());
            }
        }
        let bytes = snapshot::encode_slice(seq, 0, 1, &relations);
        self.lead();
        Ok(ReplBacklog::Checkpoint { seq, bytes })
    }

    /// Apply a batch of sealed WAL records streamed from a primary,
    /// through the same validate → append → fsync → publish path a
    /// local commit takes. Returns the last applied seq.
    ///
    /// The records must be byte-identical primary WAL records forming a
    /// contiguous run starting at this store's `seq + 1`; they are fully
    /// decoded, CRC-checked, and validated against the catalog *before*
    /// anything is written, so a torn or gapped stream is refused with a
    /// typed error while the replica stays healthy and untouched. Once
    /// the mutation starts it is guarded exactly like a primary commit:
    /// a crash mid-apply wounds the store, and reopening recovers the
    /// acknowledged prefix (the WAL bytes are the primary's own, so the
    /// recovery machinery — torn-tail truncation included — is shared).
    ///
    /// A store applying replicated records must not take local writes
    /// (the routing layer pins writes to the primary); local commits
    /// interleaved with replication would fork the seq history.
    pub fn apply_replicated(&self, records: Vec<Vec<u8>>) -> Result<u64, StoreError> {
        if !self.inner.healthy.load(Ordering::SeqCst) {
            return Err(StoreError::Unhealthy);
        }
        if records.is_empty() {
            return Ok(self.read().seq);
        }
        self.claim_leadership()?;
        let out = self.apply_replicated_as_leader(records);
        // On success or a pre-mutation refusal we still hold leadership;
        // hand it back (draining any queued commits). If the guard fired
        // it already released leadership and wounded the store.
        if self.inner.healthy.load(Ordering::SeqCst) {
            self.lead();
        }
        out
    }

    fn apply_replicated_as_leader(&self, records: Vec<Vec<u8>>) -> Result<u64, StoreError> {
        // Phase 1 — decode + validate, no mutation: a bad stream must
        // leave the replica healthy and byte-identical to before.
        let base = self.read().seq;
        let mut entries = Vec::with_capacity(records.len());
        for (i, rec) in records.iter().enumerate() {
            let (entry, consumed) = crate::wal::decode_entry(rec)?;
            if consumed != rec.len() {
                return Err(StoreError::Invalid(format!(
                    "replication record {i} carries {} trailing bytes",
                    rec.len() - consumed
                )));
            }
            let expected = base + 1 + i as u64;
            if entry.seq != expected {
                return Err(StoreError::Invalid(format!(
                    "replication stream gap: expected seq {expected}, got {}",
                    entry.seq
                )));
            }
            entries.push(entry);
        }
        let nshards = self.inner.shards.len();
        // Successor state per touched shard, staged off the published
        // heads (we hold leadership, so published == latest).
        let mut staged: BTreeMap<usize, StagedShard> = BTreeMap::new();
        for entry in &entries {
            let sh = shard_of(entry.op.target(), nshards);
            let slot = staged.entry(sh).or_insert_with(|| {
                let st = self.inner.shards[sh]
                    .published
                    .read()
                    .unwrap_or_else(|p| p.into_inner())
                    .clone();
                (st.watermark, st.relations.clone(), st.stats.clone(), 0)
            });
            apply_op(&mut slot.1, &entry.op).map_err(|e| {
                StoreError::Invalid(format!("replicated op at seq {}: {e}", entry.seq))
            })?;
            match slot.1.get(entry.op.target()) {
                Some(rel) => slot.2.update(entry.op.target(), rel),
                None => slot.2.remove(entry.op.target()),
            }
            slot.0 = entry.seq;
            slot.3 += 1;
        }
        let last_seq = base + entries.len() as u64;

        // Phase 2 — mutate, guarded exactly like a primary commit: the
        // primary's record bytes go into our WAL verbatim (one write
        // pass + one fsync, same probe sites), then each staged shard
        // publishes and the generation swaps.
        let mut guard = LeaderGuard {
            inner: &self.inner,
            tickets: Vec::new(),
            armed: true,
        };
        {
            let mut wal = plock(&self.inner.wal);
            wal.append_records(records.iter().map(|r| r.as_slice()))?;
            wal.set_next_seq(last_seq + 1);
        }
        if self.inner.opts.fsync {
            self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        for (sh, (watermark, relations, stats, count)) in staged {
            guard::probe(ProbeSite::ShardPublish);
            let state = Arc::new(ShardState {
                watermark,
                relations,
                stats,
            });
            let shard = &self.inner.shards[sh];
            *plock(&shard.writer) = state.clone();
            *shard.published.write().unwrap_or_else(|p| p.into_inner()) = state;
            shard.since_snapshot.fetch_add(count, Ordering::Relaxed);
        }
        {
            let mut q = plock(&self.inner.queue);
            q.next_seq = q.next_seq.max(last_seq + 1);
        }
        let generation = Arc::new(self.compose(last_seq));
        *self
            .inner
            .current
            .write()
            .unwrap_or_else(|p| p.into_inner()) = generation;
        self.inner
            .commits
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        self.inner.batches.fetch_add(1, Ordering::Relaxed);
        self.inner
            .batch_max
            .fetch_max(entries.len() as u64, Ordering::Relaxed);
        // Feed our own backlog so replicas can chain off this store.
        {
            let mut ring = plock(&self.inner.repl);
            for (entry, rec) in entries.iter().zip(records) {
                ring.push(entry.seq, Arc::new(rec));
            }
        }
        if self.auto_snapshot_due() {
            self.snapshot_cycle(false)?;
        }
        guard.armed = false;
        self.notify_watchers(last_seq);
        Ok(last_seq)
    }

    /// Replace this store's entire catalog with a checkpoint at `seq`
    /// (a replica resync after falling out of the primary's backlog
    /// window). The checkpoint is written as a single snapshot slice
    /// under 1-way sharding — its atomic rename is the cut-over point,
    /// so a crash leaves either the old state or the complete new one —
    /// then the WAL is truncated and every shard republished.
    pub fn install_checkpoint(
        &self,
        seq: u64,
        relations: BTreeMap<String, Arc<GeneralizedRelation>>,
    ) -> Result<(), StoreError> {
        if !self.inner.healthy.load(Ordering::SeqCst) {
            return Err(StoreError::Unhealthy);
        }
        self.claim_leadership()?;
        let out = self.install_checkpoint_as_leader(seq, relations);
        if self.inner.healthy.load(Ordering::SeqCst) {
            self.lead();
        }
        out
    }

    fn install_checkpoint_as_leader(
        &self,
        seq: u64,
        relations: BTreeMap<String, Arc<GeneralizedRelation>>,
    ) -> Result<(), StoreError> {
        let current = self.read().seq;
        if seq < current {
            return Err(StoreError::Invalid(format!(
                "checkpoint at seq {seq} is behind current generation {current}"
            )));
        }
        let mut guard = LeaderGuard {
            inner: &self.inner,
            tickets: Vec::new(),
            armed: true,
        };
        // One slice, nshards = 1: it owns every relation name, so the
        // newest-owning-slice resolution on recovery sees exactly this
        // catalog once the rename lands (and the old state before it).
        // Stale WAL entries all have seq <= checkpoint seq and are
        // dropped by the covered-seq filter even before truncation.
        snapshot::write_slice(
            &self.inner.dir,
            seq,
            0,
            1,
            &relations,
            self.inner.opts.fsync,
        )?;
        {
            let mut wal = plock(&self.inner.wal);
            wal.truncate()?;
            wal.set_next_seq(seq + 1);
        }
        let nshards = self.inner.shards.len();
        let mut per_shard: Vec<BTreeMap<String, Arc<GeneralizedRelation>>> =
            vec![BTreeMap::new(); nshards];
        for (name, rel) in relations {
            let sh = shard_of(&name, nshards);
            per_shard[sh].insert(name, rel);
        }
        let mut states = Vec::with_capacity(nshards);
        for rels in per_shard {
            let mut stats = DbStats::default();
            for (name, rel) in &rels {
                stats.update(name, rel);
            }
            states.push(Arc::new(ShardState {
                watermark: seq,
                relations: rels,
                stats,
            }));
        }
        for (shard, st) in self.inner.shards.iter().zip(&states) {
            *plock(&shard.writer) = st.clone();
            *shard.published.write().unwrap_or_else(|p| p.into_inner()) = st.clone();
            shard.since_snapshot.store(0, Ordering::Relaxed);
        }
        {
            let mut q = plock(&self.inner.queue);
            q.next_seq = q.next_seq.max(seq + 1);
        }
        *self
            .inner
            .current
            .write()
            .unwrap_or_else(|p| p.into_inner()) = Arc::new(compose_generation(seq, &states));
        plock(&self.inner.repl).reset(seq + 1);
        guard.armed = false;
        self.notify_watchers(seq);
        Ok(())
    }

    /// Parse, preflight, and evaluate a query against the current
    /// generation, consulting the prepared-query cache first.
    pub fn query(&self, src: &str) -> Result<QueryOutput, StoreError> {
        let formula = parse_formula(src).map_err(|e| StoreError::Parse(e.to_string()))?;
        self.query_formula(&formula)
    }

    /// Cache epoch of a formula under a generation: a fold over the
    /// shard watermarks of every relation the formula touches. Writes to
    /// other shards leave the epoch — and thus the cached entry — valid;
    /// a formula touching no relation at all (pure order constraints)
    /// has the constant epoch 0 and caches forever.
    fn cache_epoch(&self, formula: &Formula, generation: &Generation) -> u64 {
        let preds = formula.predicates();
        if preds.is_empty() {
            return 0;
        }
        let nshards = generation.shard_marks.len();
        let mut h = mix64(0x4550_4f43_4856_4543 ^ preds.len() as u64);
        for name in preds.keys() {
            h = fold(h, relation_fingerprint(name));
            h = fold(h, generation.shard_marks[shard_of(name, nshards)]);
        }
        h
    }

    /// [`Store::query`] for an already-parsed formula.
    pub fn query_formula(&self, formula: &Formula) -> Result<QueryOutput, StoreError> {
        self.query_formula_limited(formula, GuardLimits::none(), false)
    }

    /// The planner's cost estimate for `formula` against the current
    /// generation's statistics, in the planner's abstract cost units.
    /// This is the admission-control signal: the server multiplies it
    /// by a calibrated ms-per-unit rate to project completion time
    /// before committing a worker to the evaluation.
    pub fn estimate_query_cost(&self, formula: &Formula) -> f64 {
        let generation = self.read();
        dco_analysis::planner::estimate_formula(formula, &generation.stats)
    }

    /// Whether the prepared-query cache holds a still-valid answer for
    /// `formula` under the current generation. Admission control uses
    /// this to avoid shedding a query whose answer is already sitting
    /// in memory — a cache hit costs microseconds regardless of the
    /// planner's estimate.
    pub fn has_prepared(&self, formula: &Formula) -> bool {
        let generation = self.read();
        let key = (
            formula_fingerprint(formula),
            self.cache_epoch(formula, &generation),
        );
        plock(&self.inner.prepared).get(key).is_some()
    }

    /// The one query pipeline, behind both `QUERY` and `EXPLAIN`:
    /// prepared cache → preflight → statistics-derived guard limits
    /// tightened by `extra` (the wire's `@deadline_ms=…`/`@max_*`
    /// options) → plan → guarded evaluation. A client can tighten the
    /// budgets the server would enforce, never loosen them. A deadline
    /// trip surfaces as the typed [`StoreError::DeadlineExceeded`], not a
    /// generic fault.
    ///
    /// With `explain`, the evaluation also records the measured plan
    /// ([`QueryOutput::plan`]): every node carries the planner's
    /// estimated cardinality and the width the evaluator produced. An
    /// explained query neither consults nor fills the prepared cache
    /// (EXPLAIN is for inspection, not serving).
    pub fn query_formula_limited(
        &self,
        formula: &Formula,
        extra: GuardLimits,
        explain: bool,
    ) -> Result<QueryOutput, StoreError> {
        let obs = &self.inner.obs;
        // The store owns the per-query trace; the serving layer hands
        // over the request's queue wait via `trace::note_queue_wait`
        // just before calling in, and `begin` turns it into the leading
        // span. `traced` is false when tracing is off or an enclosing
        // trace is active — every exit below must then skip `finish`.
        let traced =
            obs.tracing.load(Ordering::Relaxed) && dco_obs::trace::begin(&formula.to_string());
        let started = Instant::now();

        let generation = self.read();
        let fp = formula_fingerprint(formula);
        let key = (fp, self.cache_epoch(formula, &generation));

        let hit = if explain {
            None
        } else {
            plock(&self.inner.prepared).get(key)
        };
        if let Some(hit) = hit {
            self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
            if traced {
                dco_obs::trace::child("cache_hit", started.elapsed());
            }
            self.finish_query_trace(traced, started, None);
            return Ok(QueryOutput {
                generation: generation.seq,
                columns: hit.0.clone(),
                relation: hit.1.clone(),
                cached: true,
                stats: None,
                plan: None,
            });
        }
        // Static preflight: reject before spending evaluation budget.
        let phase = Instant::now();
        let preflight = preflight_formula(
            formula,
            Some(generation.db.schema()),
            &AnalysisOptions::default(),
        );
        if traced {
            dco_obs::trace::child("preflight", phase.elapsed());
        }
        if let Err(d) = preflight {
            self.finish_query_trace(traced, started, None);
            return Err(StoreError::Rejected(d));
        }

        // Guarded evaluation under estimate-derived budgets, of the
        // statistics-planned formula (an equivalence-preserving reorder,
        // so the cache key — the *original* formula's fingerprint — still
        // identifies the answer). Only queries that reach evaluation
        // count as cache misses.
        if !explain {
            self.inner.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        let phase = Instant::now();
        let limits = cost::suggested_limits_with_stats(
            formula,
            &generation.stats,
            generation.db.constants(),
        )
        .tightened(&extra);
        let planned = plan_formula(formula, &generation.stats);
        if traced {
            dco_obs::trace::child("plan", phase.elapsed());
        }
        let phase = Instant::now();
        let guarded = guard::run_guarded(limits, || {
            if explain {
                explain_planned(&generation.db, &planned, &generation.stats)
                    .map(|e| (e.result, Some(e.plan)))
            } else {
                eval(&generation.db, &planned).map(|r| (r, None))
            }
        });
        let eval_elapsed = phase.elapsed();
        obs.h_eval.record_duration(eval_elapsed);
        if traced {
            dco_obs::trace::child("eval", eval_elapsed);
        }
        let outcome = match guarded {
            Ok(Guarded {
                value: Ok(value),
                stats,
            }) => Ok((value, stats)),
            Ok(Guarded { value: Err(e), .. }) => Err(StoreError::Invalid(e.to_string())),
            Err(f) => Err(match f.kind {
                EvalErrorKind::DeadlineExceeded {
                    elapsed_ms,
                    limit_ms,
                } => StoreError::DeadlineExceeded {
                    elapsed_ms,
                    limit_ms,
                },
                _ => StoreError::Fault(f.to_string()),
            }),
        };
        let ((result, plan), stats) = match outcome {
            Ok(done) => done,
            Err(e) => {
                // A failed evaluation is still worth a slow-log entry
                // (deadline trips are the classic slow query).
                self.finish_query_trace(traced, started, Some((&planned, &generation, None)));
                return Err(e);
            }
        };

        let QueryResult { columns, relation } = result;
        if !explain {
            plock(&self.inner.prepared).put(key, Arc::new((columns.clone(), relation.clone())));
        }
        self.finish_query_trace(
            traced,
            started,
            Some((&planned, &generation, Some(relation.len() as u64))),
        );
        Ok(QueryOutput {
            generation: generation.seq,
            columns,
            relation,
            cached: false,
            stats: Some(stats),
            plan,
        })
    }

    /// Close out one instrumented query: record the total latency,
    /// finish the trace (if this call began one), archive it, and — when
    /// the total (queue wait included) crosses the slow threshold —
    /// write a slow-log entry carrying the rendered span tree plus the
    /// estimates-side EXPLAIN plan with the measured root cardinality.
    /// The plan is rebuilt from [`explain_formula`] against the same
    /// stats snapshot the planner used — a static analysis, so a slow
    /// query is never re-evaluated just to explain itself.
    fn finish_query_trace(
        &self,
        traced: bool,
        started: Instant,
        planned: Option<(&Formula, &Generation, Option<u64>)>,
    ) {
        let obs = &self.inner.obs;
        obs.h_total.record_duration(started.elapsed());
        if !traced {
            return;
        }
        let Some(record) = dco_obs::trace::finish() else {
            return;
        };
        if obs.slowlog.is_slow(record.total_ns) {
            obs.c_slow.inc();
            let plan = planned
                .map(|(f, generation, actual)| {
                    let mut plan = dco_analysis::explain::explain_formula(f, &generation.stats);
                    if let Some(n) = actual {
                        plan.set_root_actual(n);
                    }
                    plan.render()
                })
                .unwrap_or_default();
            obs.slowlog.record(dco_obs::SlowQueryEntry {
                query: record.label.clone(),
                total_ns: record.total_ns,
                trace: record.render(),
                plan,
            });
        }
        obs.traces.push(record);
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let generation = self.read();
        StoreStats {
            generation: generation.seq,
            relations: generation.db.schema().relations().count(),
            shards: self.inner.shards.len(),
            commits: self.inner.commits.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
            commit_batch_max: self.inner.batch_max.load(Ordering::Relaxed),
            cache_hits: self.inner.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.inner.cache_misses.load(Ordering::Relaxed),
            cache_entries: plock(&self.inner.prepared).results.len(),
        }
    }

    /// Whether the writer is healthy (false after a crashed write until
    /// the store is reopened).
    pub fn is_healthy(&self) -> bool {
        self.inner.healthy.load(Ordering::SeqCst)
    }

    /// The metrics registry every layer of this store records into.
    /// The serving layer registers its instruments here too, so one
    /// `METRICS` scrape covers the whole stack.
    pub fn registry(&self) -> Arc<dco_obs::Registry> {
        self.inner.obs.registry.clone()
    }

    /// Enable or disable per-query tracing (on by default). With
    /// tracing off the query path's observability cost drops to two
    /// histogram updates per query.
    pub fn set_tracing(&self, on: bool) {
        self.inner.obs.tracing.store(on, Ordering::Relaxed);
    }

    /// Change the slow-query threshold
    /// ([`dco_obs::SlowLog::DEFAULT_THRESHOLD`] initially;
    /// `Duration::ZERO` logs every query, `Duration::MAX` disables).
    pub fn set_slow_query_threshold(&self, d: Duration) {
        self.inner.obs.slowlog.set_threshold(d);
    }

    /// Contents of the slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<dco_obs::SlowQueryEntry> {
        self.inner.obs.slowlog.entries()
    }

    /// Recent per-query traces, oldest first.
    pub fn recent_traces(&self) -> Vec<dco_obs::TraceRecord> {
        self.inner.obs.traces.snapshot()
    }

    /// Prometheus-style text exposition of this store's registry. The
    /// point-in-time [`Store::stats`] counters are mirrored into gauges
    /// first, so a scrape sees the write path, the query path, and the
    /// serving layer under one consistent `dco_` namespace.
    pub fn metrics_text(&self) -> String {
        let s = self.stats();
        let r = &self.inner.obs.registry;
        r.set_gauge("store.generation", s.generation);
        r.set_gauge("store.relations", s.relations as u64);
        r.set_gauge("store.shards", s.shards as u64);
        r.set_gauge("store.commits", s.commits);
        r.set_gauge("store.batches", s.batches);
        r.set_gauge("store.fsyncs", s.fsyncs);
        r.set_gauge("store.commit.batch_max", s.commit_batch_max);
        r.set_gauge("store.cache.hits", s.cache_hits);
        r.set_gauge("store.cache.misses", s.cache_misses);
        r.set_gauge("store.cache.entries", s.cache_entries as u64);
        r.render()
    }
}

/// Assemble the global catalog + stats + watermark vector from per-shard
/// states. Relations are shared by `Arc`, so this is O(#relations)
/// pointer work, not a copy of any DNF.
fn compose_generation(seq: u64, states: &[Arc<ShardState>]) -> Generation {
    let mut schema = Schema::new();
    for st in states {
        for (name, rel) in &st.relations {
            schema = schema.with(name, rel.arity());
        }
    }
    let mut db = Database::new(schema);
    let mut stats = DbStats::default();
    for st in states {
        for (name, rel) in &st.relations {
            db.set_shared(name, rel.clone())
                .expect("composed relation matches its own declared arity");
        }
        stats.merge(&st.stats);
    }
    Generation {
        seq,
        db,
        stats,
        shard_marks: states.iter().map(|s| s.watermark).collect(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_core::prelude::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dco-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn triangle() -> GeneralizedRelation {
        GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        )
    }

    fn interval(lo: i64, hi: i64) -> GeneralizedRelation {
        GeneralizedRelation::from_raw(
            1,
            vec![
                RawAtom::new(Term::cst(rat(lo as i128, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(hi as i128, 1))),
            ],
        )
    }

    #[test]
    fn write_reopen_identity() {
        let dir = tmpdir("reopen");
        {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            store.create("R", 2).unwrap();
            store.insert("R", triangle()).unwrap();
        }
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let generation = store.read();
        assert_eq!(generation.seq, 2);
        assert_eq!(generation.db.get("R"), Some(&triangle()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_replay_equals_pure_replay() {
        let dir = tmpdir("snapeq");
        let expected = {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            store.create("R", 2).unwrap();
            store.insert("R", triangle()).unwrap();
            store.snapshot().unwrap();
            // More writes after the snapshot: recovery must replay them
            // on top of it.
            store.create("S", 1).unwrap();
            store
                .insert(
                    "S",
                    GeneralizedRelation::from_raw(
                        1,
                        vec![RawAtom::new(Term::var(0), RawOp::Gt, Term::cst(rat(1, 2)))],
                    ),
                )
                .unwrap();
            store.read().db.clone()
        };
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.read().db, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_isolation_reader_sees_frozen_generation() {
        let dir = tmpdir("isolation");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.create("R", 2).unwrap();
        store.insert("R", triangle()).unwrap();
        let frozen = store.read();
        store.replace("R", GeneralizedRelation::empty(2)).unwrap();
        // The old generation is untouched; the new one sees the write.
        assert_eq!(frozen.db.get("R"), Some(&triangle()));
        assert!(store.read().db.get("R").unwrap().is_empty());
        assert!(frozen.seq < store.read().seq);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prepared_cache_hits_match_cold_evaluation() {
        let dir = tmpdir("cache");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.create("R", 2).unwrap();
        store.insert("R", triangle()).unwrap();
        let src = "exists y . (R(x, y) & x < y)";
        let cold = store.query(src).unwrap();
        assert!(!cold.cached);
        let warm = store.query(src).unwrap();
        assert!(warm.cached);
        assert_eq!(warm.columns, cold.columns);
        assert_eq!(warm.relation, cold.relation);
        assert_eq!(warm.generation, cold.generation);
        // A write to R invalidates by key (R's shard mark changes), not
        // by flush.
        store.insert("R", GeneralizedRelation::empty(2)).unwrap();
        let after = store.query(src).unwrap();
        assert!(!after.cached);
        assert_eq!(after.relation, cold.relation, "empty union is a no-op");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_survives_writes_to_other_shards() {
        let dir = tmpdir("cacheshard");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let nshards = store.stats().shards;
        // Pick two relations that live in different shards (the
        // fingerprint is deterministic, so this search is too).
        let names: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
        let a = names[0].clone();
        let b = names
            .iter()
            .find(|n| shard_of(n, nshards) != shard_of(&a, nshards))
            .expect("32 names cannot all collide into one shard")
            .clone();
        store.create(&a, 1).unwrap();
        store.create(&b, 1).unwrap();
        store.insert(&b, interval(0, 5)).unwrap();

        let src = format!("{b}(x) & x < 3");
        let cold = store.query(&src).unwrap();
        assert!(!cold.cached);
        // A write to relation `a` (a different shard) must not evict
        // queries touching only `b`.
        store.insert(&a, interval(7, 9)).unwrap();
        let warm = store.query(&src).unwrap();
        assert!(
            warm.cached,
            "write to {a} (shard {}) evicted a query on {b} (shard {})",
            shard_of(&a, nshards),
            shard_of(&b, nshards)
        );
        assert_eq!(warm.relation, cold.relation);
        // A write to `b` itself does invalidate.
        store.insert(&b, interval(100, 101)).unwrap();
        assert!(!store.query(&src).unwrap().cached);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_stats_track_writes_incrementally() {
        let dir = tmpdir("genstats");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.create("R", 2).unwrap();
        store.insert("R", triangle()).unwrap();
        store.create("S", 1).unwrap();
        store
            .insert(
                "S",
                GeneralizedRelation::from_raw(
                    1,
                    vec![RawAtom::new(Term::var(0), RawOp::Gt, Term::cst(rat(1, 2)))],
                ),
            )
            .unwrap();
        store.drop_relation("S").unwrap();
        let generation = store.read();
        let full = DbStats::of_database(&generation.db);
        assert_eq!(generation.stats, full);
        assert_eq!(generation.stats.canonical_string(), full.canonical_string());
        assert!(generation.stats.get("S").is_none(), "dropped relation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_survive_wal_replay_byte_identically() {
        let dir = tmpdir("statsreplay");
        let before = {
            let store = Store::open(&dir, StoreOptions::default()).unwrap();
            store.create("R", 2).unwrap();
            store.insert("R", triangle()).unwrap();
            store.snapshot().unwrap();
            // Post-snapshot writes force real WAL replay on reopen.
            store.create("S", 1).unwrap();
            store
                .insert(
                    "S",
                    GeneralizedRelation::from_raw(
                        1,
                        vec![RawAtom::new(Term::var(0), RawOp::Lt, Term::cst(rat(3, 7)))],
                    ),
                )
                .unwrap();
            store.read().stats.canonical_string()
        };
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let after = store.read().stats.canonical_string();
        assert_eq!(before, after, "stats must be a pure function of content");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_shard_catalog_survives_slices_plus_replay() {
        let dir = tmpdir("multishard");
        let opts = StoreOptions {
            shards: 4,
            ..StoreOptions::default()
        };
        let (expected_db, expected_stats, expected_seq) = {
            let store = Store::open(&dir, opts.clone()).unwrap();
            // Spread relations over all shards; mix covered (sliced) and
            // replayed (post-snapshot) history.
            for i in 0..8 {
                store.create(&format!("m{i}"), 1).unwrap();
                store.insert(&format!("m{i}"), interval(i, i + 2)).unwrap();
            }
            store.snapshot().unwrap();
            for i in 0..8 {
                store
                    .insert(&format!("m{i}"), interval(50 + i, 51 + i))
                    .unwrap();
            }
            store.drop_relation("m3").unwrap();
            let g = store.read();
            (g.db.clone(), g.stats.canonical_string(), g.seq)
        };
        let store = Store::open(&dir, opts).unwrap();
        let g = store.read();
        assert_eq!(g.db, expected_db);
        assert_eq!(g.stats.canonical_string(), expected_stats);
        assert_eq!(g.seq, expected_seq);
        assert!(g.db.get("m3").is_none(), "drop must survive recovery");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_reports_estimates_and_actuals_for_every_node() {
        let dir = tmpdir("explain");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.create("R", 2).unwrap();
        store.insert("R", triangle()).unwrap();
        let formula = parse_formula("exists y . (R(x, y) & x < 5 & !R(y, x))").unwrap();
        let out = store
            .query_formula_limited(&formula, GuardLimits::none(), true)
            .unwrap();
        assert_eq!(out.generation, store.read().seq);
        let plan = out.plan.unwrap();
        assert!(
            plan.root.fully_measured(),
            "unmeasured node:\n{}",
            plan.render()
        );
        for line in plan.render().lines().skip(1) {
            assert!(line.contains("est=") && line.contains("act="), "{line}");
        }
        // EXPLAIN result matches the serving path's relation width.
        let q = store
            .query("exists y . (R(x, y) & x < 5 & !R(y, x))")
            .unwrap();
        assert_eq!(plan.root.actual, Some(q.relation.len() as u64));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analysis_preflight_rejects_bad_queries() {
        let dir = tmpdir("preflight");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.create("R", 2).unwrap();
        // Arity mismatch: caught statically, not at evaluation.
        match store.query("R(x, y, z)") {
            Err(StoreError::Rejected(diags)) => assert!(!diags.is_empty()),
            other => panic!("expected rejection, got {other:?}"),
        }
        match store.query("R(x y") {
            Err(StoreError::Parse(_)) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_ops_are_refused_and_not_logged() {
        let dir = tmpdir("invalid");
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        store.create("R", 2).unwrap();
        assert!(matches!(store.create("R", 3), Err(StoreError::Invalid(_))));
        assert!(matches!(
            store.insert("R", GeneralizedRelation::empty(5)),
            Err(StoreError::Invalid(_))
        ));
        assert!(matches!(
            store.drop_relation("nope"),
            Err(StoreError::Invalid(_))
        ));
        // Seq only advanced for the one valid op.
        assert_eq!(store.read().seq, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_snapshot_truncates_wal() {
        let dir = tmpdir("autosnap");
        let opts = StoreOptions {
            snapshot_every: 4,
            ..StoreOptions::default()
        };
        let store = Store::open(&dir, opts.clone()).unwrap();
        store.create("R", 2).unwrap();
        for _ in 0..6 {
            store.insert("R", triangle()).unwrap();
        }
        drop(store);
        // After ≥4 ops on R's shard an automatic cycle ran; the WAL
        // holds only the suffix. Recovery must still see everything.
        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert!(
            wal_len < 200,
            "wal should have been truncated, still {wal_len} bytes"
        );
        let store = Store::open(&dir, opts).unwrap();
        assert_eq!(store.read().seq, 7);
        assert_eq!(store.read().db.get("R"), Some(&triangle()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hot_shard_auto_snapshots_do_not_starve_cold_shards() {
        let dir = tmpdir("hotcold");
        let opts = StoreOptions {
            snapshot_every: 4,
            shards: 8,
            ..StoreOptions::default()
        };
        let store = Store::open(&dir, opts.clone()).unwrap();
        // Find a "cold" name in a different shard than the hot one.
        let hot = "hot".to_string();
        let cold = (0..32)
            .map(|i| format!("cold{i}"))
            .find(|n| shard_of(n, 8) != shard_of(&hot, 8))
            .unwrap();
        store.create(&cold, 1).unwrap();
        store.insert(&cold, interval(-5, -1)).unwrap();
        store.create(&hot, 1).unwrap();
        // Hammer the hot relation: several auto cycles fire, but after
        // the first one the cold shard is clean and must not be
        // re-sliced — nor may truncation orphan its data.
        for i in 0..16 {
            store.insert(&hot, interval(i, i + 1)).unwrap();
        }
        let expected = store.read().db.clone();
        let expected_seq = store.read().seq;
        drop(store);

        let cold_shard = shard_of(&cold, 8);
        let hot_shard = shard_of(&hot, 8);
        let mut cold_slices = Vec::new();
        let mut hot_slices = Vec::new();
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(&format!("-s{cold_shard}of8.dcs")) {
                cold_slices.push(name.clone());
            }
            if name.ends_with(&format!("-s{hot_shard}of8.dcs")) {
                hot_slices.push(name.clone());
            }
        }
        assert_eq!(
            cold_slices.len(),
            1,
            "cold shard should be sliced exactly once: {cold_slices:?}"
        );
        assert_eq!(hot_slices.len(), 1, "stale hot slices must be deleted");
        // The cold slice froze at the cold shard's own watermark, far
        // behind the hot shard's — per-shard triggers, per-shard seqs.
        assert!(
            cold_slices[0] < hot_slices[0],
            "{cold_slices:?} {hot_slices:?}"
        );

        let store = Store::open(&dir, opts).unwrap();
        assert_eq!(store.read().db, expected, "cold data lost by hot cycles");
        assert_eq!(store.read().seq, expected_seq);
        assert_eq!(store.read().db.get(&cold), Some(&interval(-5, -1)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for n in [1usize, 2, 8, 13] {
            for i in 0..64 {
                let name = format!("rel{i}");
                let s = shard_of(&name, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&name, n), "must be deterministic");
            }
        }
        // The partition actually spreads: 64 names over 8 shards must
        // hit more than one shard (fingerprint quality sanity check).
        let hit: std::collections::BTreeSet<usize> =
            (0..64).map(|i| shard_of(&format!("rel{i}"), 8)).collect();
        assert!(hit.len() > 4, "degenerate shard distribution: {hit:?}");
    }
}
