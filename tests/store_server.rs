//! Concurrent-server suite: N writers and M readers against one served
//! store, over real TCP.
//!
//! The isolation argument under test: every response is computed against
//! one immutable generation, so a reader can never observe a torn state.
//! The writers insert pairwise-disjoint unit intervals, which makes the
//! invariant *countable* — at generation `g` the relation holds exactly
//! `g - 1` disjoint tuples (seq 1 is the CREATE) — so any torn read or
//! lost write shows up as an off-by-one, not a heisenbug.

use dco::prelude::*;
use dco::store::{serve, Client, Store, StoreOptions};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dco-store-server-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The size of the served store's worker pool: one per available CPU,
/// at least two.
fn server_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2)
}

/// The pairwise-disjoint unit interval `[3k, 3k+1]` — gaps of width 1
/// between intervals keep subsumption pruning from ever merging two.
fn unit(k: i128) -> GeneralizedRelation {
    GeneralizedRelation::from_raw(
        1,
        vec![
            RawAtom::new(Term::cst(rat(3 * k, 1)), RawOp::Le, Term::var(0)),
            RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(3 * k + 1, 1))),
        ],
    )
}

#[test]
fn concurrent_writers_and_readers_are_snapshot_isolated() {
    const WRITERS: usize = 3;
    const WRITES_EACH: i128 = 8;
    const READERS: usize = 4;
    const READS_EACH: usize = 12;

    let dir = tmpdir("isolation");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    store.create("r", 1).unwrap();
    let handle = serve(store.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut threads = Vec::new();
    for w in 0..WRITERS {
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connect");
            for i in 0..WRITES_EACH {
                let k = w as i128 * WRITES_EACH + i;
                let seq = client.insert("r", &unit(k)).expect("insert");
                assert!(seq >= 2, "writer acks carry the WAL seq");
            }
            client.close().expect("close");
        }));
    }
    for _ in 0..READERS {
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("reader connect");
            let mut last_generation = 0;
            for _ in 0..READS_EACH {
                let out = client.query("r(x)").expect("query");
                // Countable snapshot invariant: generation g ⇔ g−1 tuples.
                assert_eq!(
                    out.relation.tuples().len() as u64,
                    out.generation - 1,
                    "torn read: generation {} with {} tuples",
                    out.generation,
                    out.relation.tuples().len()
                );
                // Per-connection monotonicity: time never goes backwards.
                assert!(
                    out.generation >= last_generation,
                    "generation regressed {last_generation} -> {}",
                    out.generation
                );
                last_generation = out.generation;
            }
            client.close().expect("close");
        }));
    }
    for t in threads {
        t.join().expect("worker thread");
    }

    // Every write landed exactly once: 1 create + WRITERS×WRITES_EACH.
    let total = WRITERS as u64 * WRITES_EACH as u64;
    let generation = store.read();
    assert_eq!(generation.seq, 1 + total);
    assert_eq!(generation.db.get("r").unwrap().tuples().len() as u64, total);

    handle.shutdown();
    // The catalog survives a cold reopen with all concurrent writes.
    drop(store);
    let reopened = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(reopened.read().seq, 1 + total);
    assert_eq!(
        reopened.read().db.get("r").unwrap().tuples().len() as u64,
        total
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cross-shard snapshot consistency: K writers each hammer their *own*
/// relation, deliberately chosen to live in K different shards, while
/// readers evaluate a union query spanning all of them. Shard states
/// are published in global commit order by a single leader at a time,
/// so every generation a reader observes is the catalog after a prefix
/// of the commit order — making the invariant countable across shards:
/// at generation `g` (after the K creates) the union holds exactly
/// `g - K` disjoint unit tuples. Any torn cross-shard publication shows
/// up as an off-by-one.
#[test]
fn disjoint_relation_writers_preserve_cross_shard_snapshots() {
    const WRITERS: usize = 4;
    const WRITES_EACH: i128 = 6;
    const READERS: usize = 3;
    const READS_EACH: usize = 10;
    const NSHARDS: usize = 8;

    let dir = tmpdir("crossshard");
    let store = Store::open(
        &dir,
        StoreOptions {
            shards: NSHARDS,
            ..StoreOptions::default()
        },
    )
    .unwrap();

    // Pick WRITERS relation names in pairwise-distinct shards (the
    // fingerprint is deterministic, so this search is too).
    let mut names: Vec<String> = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    for i in 0..64 {
        let cand = format!("s{i}");
        if used.insert(dco::store::shard_of(&cand, NSHARDS)) {
            names.push(cand);
            if names.len() == WRITERS {
                break;
            }
        }
    }
    assert_eq!(names.len(), WRITERS, "could not spread names over shards");
    for name in &names {
        store.create(name, 1).unwrap();
    }
    let union_query = names
        .iter()
        .map(|n| format!("{n}(x)"))
        .collect::<Vec<_>>()
        .join(" | ");

    let handle = serve(store.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut threads = Vec::new();
    for (w, name) in names.iter().enumerate() {
        let name = name.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connect");
            for i in 0..WRITES_EACH {
                // Globally disjoint units across all writers.
                let k = w as i128 * WRITES_EACH + i;
                let seq = client.insert(&name, &unit(k)).expect("insert");
                assert!(seq > WRITERS as u64, "acks carry the WAL seq");
            }
            client.close().expect("close");
        }));
    }
    for _ in 0..READERS {
        let union_query = union_query.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("reader connect");
            let mut last_generation = 0;
            for _ in 0..READS_EACH {
                let out = client.query(&union_query).expect("query");
                // Countable cross-shard invariant: generation g ⇔ g − K
                // tuples, summed over K relations in K shards.
                assert_eq!(
                    out.relation.tuples().len() as u64,
                    out.generation - WRITERS as u64,
                    "torn cross-shard read at generation {}",
                    out.generation
                );
                assert!(out.generation >= last_generation, "time went backwards");
                last_generation = out.generation;
            }
            client.close().expect("close");
        }));
    }
    for t in threads {
        t.join().expect("worker thread");
    }

    let total = WRITERS as u64 * WRITES_EACH as u64;
    let generation = store.read();
    assert_eq!(generation.seq, WRITERS as u64 + total);
    for name in &names {
        assert_eq!(
            generation.db.get(name).unwrap().tuples().len() as u64,
            WRITES_EACH as u64,
            "lost writes on {name}"
        );
    }
    let stats = store.stats();
    assert_eq!(stats.commits, WRITERS as u64 + total);
    assert!(stats.commit_batch_max >= 1);
    assert!(
        stats.fsyncs <= stats.commits,
        "group commit may never fsync more than once per commit: {stats:?}"
    );

    handle.shutdown();
    drop(store);
    // Cold reopen: every acknowledged write on every shard survives.
    let reopened = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(reopened.read().seq, WRITERS as u64 + total);
    for name in &names {
        assert_eq!(
            reopened.read().db.get(name).unwrap().tuples().len() as u64,
            WRITES_EACH as u64
        );
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prepared_cache_hits_are_structurally_identical_across_clients() {
    let dir = tmpdir("cache");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    store.create("r", 1).unwrap();
    for k in 0..4 {
        store.insert("r", unit(k)).unwrap();
    }
    let handle = serve(store.clone(), "127.0.0.1:0").unwrap();

    let query = "exists y . (r(x) & r(y) & x < y)";
    // Cold evaluation straight through the in-process path.
    let direct = store.query(query).unwrap();
    assert!(!direct.cached);

    // Two independent TCP clients: the first hit is served from the cache
    // warmed by the in-process query (same fingerprint, same generation);
    // both must be byte-for-byte the cold result.
    for _ in 0..2 {
        let mut client = Client::connect(handle.addr()).unwrap();
        let out = client.query(query).unwrap();
        assert!(out.cached, "expected a prepared-query cache hit");
        assert_eq!(out.generation, direct.generation);
        assert_eq!(out.columns, direct.columns);
        assert_eq!(
            out.relation, direct.relation,
            "cache hit diverged from cold eval"
        );
        client.close().unwrap();
    }

    // A write moves the generation: the same text becomes a cold query
    // again and the new cold result is again structurally cached.
    store.insert("r", unit(50)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let cold = client.query(query).unwrap();
    assert!(!cold.cached);
    let warm = client.query(query).unwrap();
    assert!(warm.cached);
    assert_eq!(warm.relation, cold.relation);
    client.close().unwrap();

    let stats = store.stats();
    assert!(stats.cache_hits >= 3, "stats lost hits: {stats:?}");
    handle.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reactor soak: 1k simultaneous connections, several pipelined rounds,
/// every request answered exactly once, in order, well-framed. This is
/// the scale the thread-per-connection server could not hold open (it
/// gated admissions at the evaluator thread budget); the reactor keeps
/// all 1k established while the same small worker pool evaluates.
///
/// The soak doubles as the observability acceptance run: a probe client
/// scrapes `METRICS` between rounds and asserts the exposition parses,
/// counters only ever move forward, and the queue-wait histogram counts
/// exactly one sample per served request. A live replica rides along so
/// the replication-lag histogram fills too.
#[test]
fn soak_one_thousand_connections_each_request_gets_exactly_one_reply() {
    use dco::store::wire;

    const CONNS: usize = 1000;
    const ROUNDS: usize = 3;

    let dir = tmpdir("soak");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    store.create("r", 1).unwrap();
    store.insert("r", unit(0)).unwrap();
    let handle = serve(store.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // A real replica keeps a replication stream attached for the whole
    // soak, so the reactor has a lag series to sample.
    let replica_dir = tmpdir("soak-replica");
    let replica_store = Store::open(&replica_dir, StoreOptions::default()).unwrap();
    let replica = dco::store::replicate(replica_store, addr.to_string());

    let mut socks: Vec<std::net::TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let s = std::net::TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("connect #{i} refused: {e}"));
        s.set_read_timeout(Some(std::time::Duration::from_secs(60)))
            .unwrap();
        s.set_nodelay(true).unwrap();
        socks.push(s);
    }

    let line_for = |i: usize, round: usize| match (i + round) % 3 {
        0 => "PING",
        1 => "QUERY r(x)",
        _ => "STATS",
    };
    let mut probe = Client::connect(addr).unwrap();
    let mut last_requests = 0.0f64;
    for round in 0..ROUNDS {
        // Write phase: every connection sends before any reply is read,
        // so the server is holding ~1k outstanding requests at once.
        for (i, s) in socks.iter_mut().enumerate() {
            wire::write_frame(s, line_for(i, round)).expect("request write");
        }
        // Read phase: exactly one well-framed reply each, matching the
        // request that connection sent.
        for (i, s) in socks.iter_mut().enumerate() {
            let reply = wire::read_frame(s)
                .unwrap_or_else(|e| panic!("conn {i} round {round}: bad frame: {e}"))
                .unwrap_or_else(|| panic!("conn {i} round {round}: server hung up"));
            match (i + round) % 3 {
                0 => assert_eq!(reply, "OK pong", "conn {i} round {round}"),
                1 => {
                    assert!(reply.starts_with("OK {"), "conn {i}: {reply}");
                    let out = wire::query_output_from_json(&reply[3..]).expect("query json");
                    assert_eq!(out.relation.tuples().len(), 1);
                }
                _ => {
                    assert!(reply.starts_with("OK {"), "conn {i}: {reply}");
                    // Served STATS sees the whole herd connected.
                    let open = json_u64(&reply, "conns_open")
                        .unwrap_or_else(|| panic!("no conns_open in {reply}"));
                    assert!(open >= CONNS as u64, "only {open} connections open");
                }
            }
        }

        // Mid-run scrape: the exposition parses, the request counter is
        // monotone across rounds, and the queue-wait histogram counted
        // exactly one sample per request the workers dequeued — the two
        // are recorded at the same dequeue site, so any drift means a
        // request was dropped or double-counted.
        let text = probe
            .metrics()
            .unwrap_or_else(|e| panic!("round {round}: METRICS: {e}"));
        let requests = metric(&text, "dco_server_requests_total")
            .unwrap_or_else(|| panic!("round {round}: no dco_server_requests_total in scrape"));
        let waited = metric(&text, "dco_server_queue_wait_count").expect("queue_wait count");
        assert_eq!(
            requests, waited,
            "round {round}: queue-wait samples must equal served requests"
        );
        assert!(
            requests > last_requests,
            "round {round}: request counter regressed: {last_requests} -> {requests}"
        );
        // The herd's QUERY third of the round landed in the eval and
        // store-side query histograms too. The eval histogram records
        // *after* a request completes, so the in-flight scrape itself is
        // the one sample it may trail the request counter by.
        assert!(metric(&text, "dco_server_eval_count").unwrap_or(0.0) >= requests - 1.0);
        assert!(metric(&text, "dco_store_query_total_count").unwrap_or(0.0) > 0.0);
        last_requests = requests;
    }

    // No request was dropped or double-answered: an extra probe client
    // still gets a clean, in-sync connection.
    let stats = probe.stats().unwrap();
    let open = json_u64(&format!("OK {stats}"), "conns_open").expect("conns_open");
    assert!(open > CONNS as u64, "probe sees the herd: {open}");
    let total = json_u64(&format!("OK {stats}"), "conns_total").expect("conns_total");
    assert!(total > CONNS as u64);

    // The replica has been streaming all along: wait for it to catch up
    // to the primary's committed seq, then check the lag histogram saw
    // at least one sample (the reactor records it every tick a stream
    // is attached).
    let committed = store.read().seq;
    assert!(
        replica.wait_for_seq(committed, std::time::Duration::from_secs(30)),
        "replica never caught up to seq {committed}"
    );
    let text = probe.metrics().expect("final scrape");
    assert!(
        metric(&text, "dco_server_repl_lag_count").unwrap_or(0.0) > 0.0,
        "replication-lag histogram stayed empty with a live replica:\n{text}"
    );
    // Durability instrumentation: the WAL fsync histogram is non-empty
    // (the pre-soak CREATE/INSERT commits fsync with default options).
    assert!(
        metric(&text, "dco_store_wal_fsync_count").unwrap_or(0.0) > 0.0,
        "fsync histogram stayed empty under default (fsync on) options"
    );
    probe.close().unwrap();

    drop(socks);
    replica.shutdown();
    handle.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

/// Pull one sample value out of a Prometheus text exposition: the line
/// `"<name> <value>"` with an exact name match (so `foo` never matches
/// `foo_count` or `foo_bucket{...}`).
fn metric(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Pull an integer counter out of a compact-JSON reply.
fn json_u64(reply: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = reply.find(&pat)? + pat.len();
    let digits: String = reply[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[test]
fn more_clients_than_the_connection_cap_all_complete() {
    let dir = tmpdir("overcap");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    store.create("r", 1).unwrap();
    store.insert("r", unit(0)).unwrap();
    let handle = serve(store.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Far more simultaneous connections than the server has workers:
    // excess connections queue on the gate and must all eventually be
    // served.
    let clients = server_workers() * 3;
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.ping().expect("ping");
                let out = c.query("r(x)").expect("query");
                assert_eq!(out.relation.tuples().len(), 1);
                c.close().expect("close");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    handle.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lifecycle-hardening acceptance: at ~4× sustainable load with
/// propagated deadlines, the server sheds with typed `OVERLOADED` /
/// `DEADLINE_EXCEEDED` instead of queueing doomed work, never answers
/// an accepted request meaningfully after its deadline, and the
/// requests it does accept keep flowing — goodput under overload stays
/// at or above 80% of the single-client baseline.
#[test]
fn overload_sheds_typed_and_keeps_goodput() {
    use dco::store::wire::QueryOpts;
    use dco::store::{ClientError, ClientOptions, RetryPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // Needs genuinely parallel workers for "sustainable load" to mean
    // anything; on a 1-CPU host everything serializes (same skip as the
    // store_conc bench family).
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    if host < 2 {
        eprintln!("skipping overload acceptance on a 1-CPU host");
        return;
    }

    let dir = tmpdir("overload");
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    store.create("r", 1).unwrap();
    let handle = serve(store.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr().to_string();

    // One attempt per request: retries would hide the typed sheds this
    // test exists to observe.
    let one_shot = ClientOptions {
        retry: RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        },
        ..ClientOptions::default()
    };

    // Every query is made unique by a vacuous upper bound (all data
    // lives far below it), defeating the prepared-query cache so each
    // request costs real evaluator time.
    let query_line = |n: u64| format!("r(x) & r(y) & x < y & x < {}", 1_000_000 + n);

    // Calibrate: grow the relation until one uncached self-join costs
    // at least ~8 ms, so a worker pool can actually saturate.
    let mut cal = Client::connect_with(&addr, one_shot).unwrap();
    let mut tuples = 24i128;
    let mut uniq = 0u64;
    for k in 0..tuples {
        store.insert("r", unit(k)).unwrap();
    }
    loop {
        let t0 = Instant::now();
        cal.query_with(&query_line(uniq), QueryOpts::none())
            .unwrap();
        uniq += 1;
        if t0.elapsed() >= Duration::from_millis(8) || tuples >= 768 {
            break;
        }
        for k in tuples..tuples * 2 {
            store.insert("r", unit(k)).unwrap();
        }
        tuples *= 2;
    }

    // Single-client baseline: sequential uncached queries, no deadline,
    // no contention. This also calibrates the server's EWMAs (job time
    // and ns-per-cost-unit), which the admission control projects from.
    const BASELINE_N: u64 = 20;
    let t0 = Instant::now();
    for _ in 0..BASELINE_N {
        cal.query_with(&query_line(uniq), QueryOpts::none())
            .unwrap();
        uniq += 1;
    }
    let baseline_elapsed = t0.elapsed();
    let baseline_qps = BASELINE_N as f64 / baseline_elapsed.as_secs_f64();
    let per_query_ms = (baseline_elapsed.as_millis() as u64 / BASELINE_N).max(1);
    cal.close().unwrap();

    // 4× sustainable load: four closed-loop clients per worker, each
    // request carrying a deadline of ~2 service times — tight enough
    // that queueing behind 2+ workers' worth of jobs is already fatal,
    // so the server must shed rather than serve everyone late.
    let workers = server_workers();
    let clients = (4 * workers).min(24);
    let deadline_ms = (2 * per_query_ms).max(15);
    const RUN: Duration = Duration::from_secs(3);
    // Grace on the client-observed latency of successful replies: the
    // guard aborts evaluation at the deadline, but what the client
    // clocks also includes reply serialization, transit, and its own
    // thread getting scheduled — so the grace scales with service time.
    // What it must still catch is the failure this test exists for: a
    // request quietly served seconds late instead of being shed.
    let late_cap = Duration::from_millis(deadline_ms + 500.max(4 * per_query_ms));

    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let expired = Arc::new(AtomicU64::new(0));
    let late = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let (ok, shed, expired, late) =
                (ok.clone(), shed.clone(), expired.clone(), late.clone());
            let line_base = 1_000_000u64 * (c as u64 + 1);
            std::thread::spawn(move || {
                let mut client = Client::connect_with(&addr, one_shot).expect("connect");
                let start = Instant::now();
                let mut i = 0u64;
                while start.elapsed() < RUN {
                    let line = format!("r(x) & r(y) & x < y & x < {}", 2_000_000 + line_base + i);
                    i += 1;
                    let sent = Instant::now();
                    match client.query_with(&line, QueryOpts::none().with_deadline_ms(deadline_ms))
                    {
                        Ok(_) => {
                            if sent.elapsed() > late_cap {
                                late.fetch_add(1, Ordering::Relaxed);
                            }
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Overloaded { retry_after_ms }) => {
                            assert!(retry_after_ms >= 1, "hint must be actionable");
                            shed.fetch_add(1, Ordering::Relaxed);
                            // A well-behaved client honors the hint
                            // (capped so the closed loop keeps pressure
                            // on the server for the whole run).
                            std::thread::sleep(Duration::from_millis(retry_after_ms.min(50)));
                        }
                        Err(ClientError::DeadlineExceeded(_)) => {
                            expired.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("untyped failure under overload: {e}"),
                    }
                }
                client.close().expect("close");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("overload client");
    }

    let (ok, shed, expired, late) = (
        ok.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
        expired.load(Ordering::Relaxed),
        late.load(Ordering::Relaxed),
    );
    let goodput_qps = ok as f64 / RUN.as_secs_f64();
    eprintln!(
        "overload: workers={workers} clients={clients} deadline={deadline_ms}ms \
         baseline={baseline_qps:.1}qps goodput={goodput_qps:.1}qps ok={ok} shed={shed} expired={expired}"
    );

    assert!(
        shed > 0,
        "4x load never triggered a typed OVERLOADED shed (ok={ok} expired={expired})"
    );
    assert_eq!(
        late, 0,
        "{late} accepted requests answered after deadline + grace"
    );
    assert!(
        goodput_qps >= 0.8 * baseline_qps,
        "goodput collapsed under overload: {goodput_qps:.1} qps vs baseline {baseline_qps:.1} qps"
    );

    // The server's own ledger agrees: sheds and expiries are counted.
    let mut c = Client::connect(handle.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert!(
        stats.contains("\"shed_overload\""),
        "STATS must expose shed counters: {stats}"
    );
    c.close().unwrap();

    handle.shutdown();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
