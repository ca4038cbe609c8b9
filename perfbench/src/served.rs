//! `hot_reads` and `read_write`: a store served over loopback by an
//! in-process server and driven through `Client`, one connection per
//! load thread.

use crate::adapter::{
    self as dco, Client, GeneralizedRelation, ReplicaHandle, ServerHandle, Store,
};
use crate::gen::{Reservoir, Rng, Zipf};
use crate::measure::{self, Layers, Samples};
use crate::{Ctx, Outcome, SETUPS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Width of one slot of the number line; each relation holds one
/// interval strictly inside each of its slots.
const SLOT: i64 = 16;
/// Slots (and so tuples) per relation.
const SLOTS: usize = 256;
/// Zipf exponent of the read draws.
const ZIPF_S: f64 = 1.0;
/// A cache-hit reply slower than this is a stall.
const STALL_MS: f64 = 50.0;
/// Replies per reader, sampled uniformly over the run, that are compared
/// with the unplanned evaluation on the same generation.
const KEEP: usize = 16;
/// `hot_reads`: selections, over 4, 8, …, 256 slots.
const HOT_QUERIES: usize = 64;
/// `read_write`: relations, each with one selection per slot boundary.
const RW_RELATIONS: usize = 4;
/// `read_write` open-loop rates: reads per second, and commits (an
/// INSERT plus a REMOVE) per second. On a 2-CPU host one connection
/// sustained 60–90 reads/s beside 20 commits/s, and 80–115 commits/s
/// beside 40 reads/s; the commit rate stays below half of that because
/// at 40 commits/s the reactor stall (README) hit one run in three.
/// Recorded in `BENCHMARK.json`.
const READ_RATE: f64 = 30.0;
const WRITE_RATE: f64 = 20.0;
/// `read_write`: how long one server instance serves before the next
/// takes over on the same store.
const RW_LIFETIME_S: f64 = 3.0;

/// Per-lifetime figures of one `read_write` phase.
#[derive(Default)]
struct Lives {
    ops_per_s: Vec<f64>,
    read_p50: Vec<f64>,
    read_p90: Vec<f64>,
    write_p50: Vec<f64>,
    write_p90: Vec<f64>,
    gen_late: Vec<f64>,
    /// Lifetimes with a stall.
    stalled: usize,
    /// OVERLOADED sheds, summed over the lifetimes' servers.
    shed: u64,
}

/// Where a slot's interval sits: in the slot's lower or upper half, at
/// an offset, with a length. Spans never leave their slot, so a
/// selection `x < SLOT·m` matches exactly the intervals of slots `< m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Place {
    half: i64,
    off: i64,
    len: i64,
}

impl Place {
    fn seeded(rng: &mut Rng, half: i64) -> Place {
        Place {
            half,
            off: rng.below(3) as i64,
            len: 1 + rng.below(3) as i64,
        }
    }

    fn span(self, slot: usize) -> (i64, i64) {
        let lo = SLOT * slot as i64 + 1 + 8 * self.half + self.off;
        (lo, lo + self.len)
    }
}

fn seeded_places(rng: &mut Rng) -> Vec<Place> {
    (0..SLOTS)
        .map(|_| {
            let half = rng.below(2) as i64;
            Place::seeded(rng, half)
        })
        .collect()
}

fn relation_of(slots: &[Vec<Place>]) -> GeneralizedRelation {
    let spans: Vec<_> = slots
        .iter()
        .enumerate()
        .flat_map(|(k, ps)| ps.iter().map(move |p| p.span(k)))
        .collect();
    dco::intervals(&spans)
}

/// A selection `name(x) & x < SLOT·m`: `m` tuples when every slot holds
/// one interval.
struct Query {
    rel: usize,
    m: usize,
    src: String,
}

fn selection(name: &str, rel: usize, m: usize) -> Query {
    Query {
        rel,
        m,
        src: format!("{name}(x) & x < {}", SLOT * m as i64),
    }
}

/// A primary store with its server, client connections and, for
/// `read_write`, a streaming replica.
struct Fixture {
    dir: PathBuf,
    store: Store,
    server: ServerHandle,
    clients: Vec<Client>,
    replica: Option<Replica>,
}

struct Replica {
    store: Store,
    handle: ReplicaHandle,
    /// `(seq, instant)` of every replica apply, in order.
    applied: Arc<Mutex<Vec<(u64, Instant)>>>,
}

impl Fixture {
    fn open(
        dir: PathBuf,
        rels: &[(String, GeneralizedRelation)],
        conns: usize,
        with_replica: bool,
    ) -> Result<Fixture, String> {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let store = dco::open_store(&dir.join("primary"))?;
        for (name, rel) in rels {
            dco::load_relation(&store, name, rel)?;
        }
        let server = dco::serve(&store)?;
        let clients = (0..conns)
            .map(|_| dco::connect(&server))
            .collect::<Result<Vec<_>, _>>()?;
        let replica = if with_replica {
            let rstore = dco::open_store(&dir.join("replica"))?;
            let applied = Arc::new(Mutex::new(Vec::new()));
            let sink = applied.clone();
            dco::on_commit(&rstore, move |seq| {
                sink.lock()
                    .expect("apply log lock poisoned")
                    .push((seq, Instant::now()))
            });
            let handle = dco::replicate(&rstore, &server);
            let seq = dco::store_generation(&store).seq;
            if !dco::replica_wait(&handle, seq, Duration::from_secs(30)) {
                return Err(format!("replica did not reach seq {seq}"));
            }
            Some(Replica {
                store: rstore,
                handle,
                applied,
            })
        } else {
            None
        };
        Ok(Fixture {
            dir,
            store,
            server,
            clients,
            replica,
        })
    }

    /// Replace the server with a fresh one on the same store: reconnect
    /// every client and re-attach the replica, caught up.
    fn restart(&mut self) -> Result<(), String> {
        let conns = self.clients.len();
        self.clients.clear();
        let replica = self.replica.take().map(|r| {
            r.handle.shutdown();
            (r.store, r.applied)
        });
        let fresh = dco::serve(&self.store)?;
        std::mem::replace(&mut self.server, fresh).shutdown();
        self.clients = (0..conns)
            .map(|_| dco::connect(&self.server))
            .collect::<Result<_, _>>()?;
        if let Some((store, applied)) = replica {
            let handle = dco::replicate(&store, &self.server);
            let seq = dco::store_generation(&self.store).seq;
            if !dco::replica_wait(&handle, seq, Duration::from_secs(30)) {
                return Err(format!("replica did not reach seq {seq}"));
            }
            self.replica = Some(Replica {
                store,
                handle,
                applied,
            });
        }
        Ok(())
    }

    fn close(self) {
        drop(self.clients);
        if let Some(r) = self.replica {
            r.handle.shutdown();
            drop(r.store);
        }
        self.server.shutdown();
        drop(self.store);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set up `SETUPS` times (open, load, serve, connect, warm) and keep
/// the last fixture; returns it with the median set-up time.
fn set_up(
    ctx: &Ctx,
    rels: &[(String, GeneralizedRelation)],
    conns: usize,
    with_replica: bool,
    warm: impl Fn(&mut Fixture) -> Result<(), String>,
) -> Result<(Fixture, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        if let Some(old) = kept.take() {
            Fixture::close(old);
        }
        let t = Instant::now();
        let mut f = Fixture::open(
            ctx.work.join(format!("setup{i}")),
            rels,
            conns,
            with_replica,
        )?;
        warm(&mut f)?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(f);
    }
    Ok((kept.expect("at least one set-up"), measure::median(&times)))
}

/// What one reader thread saw.
#[derive(Default)]
struct ReadLog {
    lat: Samples,
    /// Send-to-reply times.
    service: Samples,
    late: Samples,
    ops: u64,
    failed: u64,
    hits: u64,
    stalls: u64,
    /// Reads due before the end of the run but never sent.
    backlog: u64,
    /// `(query, generation, tuples)` of every reply.
    seen: Vec<(usize, u64, usize)>,
    /// Sampled replies, for the equivalence check.
    kept: Vec<(usize, u64, GeneralizedRelation)>,
    layers: Layers,
}

/// A reader: closed loop, or open loop at `rate` reads per second with
/// latency timed from each read's due time.
struct Reader<'a> {
    store: &'a Store,
    queries: &'a [Query],
    zipf: &'a Zipf,
    rate: Option<f64>,
    traced: bool,
}

impl Reader<'_> {
    fn run(&self, client: &mut Client, rng: &mut Rng, until: Instant) -> ReadLog {
        let mut log = ReadLog::default();
        let mut kept = Reservoir::new(KEEP, Rng::new(rng.next_u64(), 3));
        let start = Instant::now();
        let mut n = 0u64;
        loop {
            let due = match self.rate {
                Some(r) => start + Duration::from_secs_f64(n as f64 / r),
                None => Instant::now(),
            };
            if due >= until || Instant::now() >= until {
                break;
            }
            n += 1;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            log.late.push(Instant::now().saturating_duration_since(due));
            let q = self.zipf.sample(rng);
            let src = &self.queries[q].src;
            let sent = Instant::now();
            let reply = if self.traced {
                traced_read(self.store, client, src, &mut log.layers)
            } else {
                dco::client_query(client, src)
            };
            let service = sent.elapsed();
            let took = due.elapsed();
            log.service.push(service);
            log.ops += 1;
            match reply {
                Ok((generation, relation, cached)) => {
                    log.lat.push(took);
                    if cached {
                        log.hits += 1;
                        if service.as_secs_f64() * 1e3 > STALL_MS {
                            log.stalls += 1;
                        }
                    }
                    log.seen.push((q, generation, dco::tuples(&relation)));
                    kept.offer((q, generation, relation));
                }
                Err(e) => {
                    log.failed += 1;
                    eprintln!("read `{src}` failed: {e}");
                }
            }
        }
        log.kept = kept.into_items();
        if let Some(r) = self.rate {
            log.backlog = (until.duration_since(start).as_secs_f64() * r).ceil() as u64 - n;
        }
        log
    }
}

/// One served read in the traced run. The layer calls run in process
/// around the served request: parse, and for a prepared-cache miss the
/// preflight, plan and guarded evaluation the store will run; then the
/// served request, the client's decode, and — now that the store has
/// the answer — `Store::query` and `server::respond`, which hit the
/// prepared cache and leave it as it was. When a commit landed while
/// the served request was in flight, `Store::query` misses and evaluates
/// again; such calls count toward reconciliation but not toward
/// `store.query_us` or `store.reply_encode_us`.
fn traced_read(
    store: &Store,
    client: &mut Client,
    src: &str,
    layers: &mut Layers,
) -> Result<(u64, GeneralizedRelation, bool), String> {
    let op = Instant::now();
    let t = Instant::now();
    let formula = dco::parse_formula(src)?;
    let parse = t.elapsed();
    let mut evaluated = Duration::ZERO;
    if !dco::store_has_prepared(store, &formula) {
        let generation = dco::store_generation(store);
        let t = Instant::now();
        dco::preflight_formula(&formula, &generation.db)?;
        let preflight = t.elapsed();
        let t = Instant::now();
        let (planned, limits) = dco::plan_formula(&formula, &generation.db, &generation.stats);
        let plan = t.elapsed();
        let t = Instant::now();
        let traced = dco::probe_begin();
        let out = dco::eval_formula(&generation.db, &planned, limits)?;
        let probes = if traced { dco::probe_finish() } else { [0; 4] };
        let eval = t.elapsed();
        layers.add_us("analysis.preflight_us", preflight);
        layers.add_us("analysis.plan_us", plan);
        layers.add_us("fo.eval_us", eval);
        layers.add("fo.result_tuples", dco::tuples(&out.relation) as f64);
        layers.record_eval(&out, probes);
        evaluated = preflight + plan + eval;
    }
    let line = format!("QUERY {src}");
    let t = Instant::now();
    let payload = dco::client_call(client, &line)?;
    let rtt = t.elapsed();
    let t = Instant::now();
    let reply = dco::decode_query_reply(&payload)?;
    let decode = t.elapsed();
    let t = Instant::now();
    let (_, hit) = dco::store_query(store, src)?;
    let query = t.elapsed();
    let t = Instant::now();
    dco::respond(store, &line);
    let respond = t.elapsed();
    let total = op.elapsed();

    layers.add_us("logic.parse_us", parse);
    layers.add_us("client.decode_us", decode);
    if hit {
        layers.add_us("store.query_us", query);
        layers.add_us("store.reply_encode_us", respond.saturating_sub(query));
    }
    // What the server spent on this request: the reply path, plus the
    // evaluation a miss ran.
    let server = respond + if reply.2 { Duration::ZERO } else { evaluated };
    layers.add_us("server.transport_us", rtt.saturating_sub(server));
    layers.add("store.cache.hit_ratio", if reply.2 { 1.0 } else { 0.0 });
    let covered = parse + evaluated + rtt + decode + query + respond;
    layers.reconcile("served_read", covered, total);
    Ok(reply)
}

/// Mean of a store histogram (ns) over a phase, in µs.
fn histogram_mean_us(store: &Store, name: &str, before: (u64, u64)) -> f64 {
    let (n, sum) = dco::histogram_totals(store, name);
    let dn = n - before.0;
    if dn == 0 {
        0.0
    } else {
        (sum - before.1) as f64 / dn as f64 / 1e3
    }
}

/// Merge per-thread read logs; a traced phase's latencies are dropped,
/// since end-to-end figures come from untraced phases only.
fn merge(logs: Vec<ReadLog>, traced: bool, into: &mut ReadLog, layers: &mut Layers) {
    for l in logs {
        if !traced {
            into.lat.extend(l.lat);
        }
        into.service.extend(l.service);
        into.late.extend(l.late);
        into.ops += l.ops;
        into.failed += l.failed;
        into.hits += l.hits;
        into.stalls += l.stalls;
        into.backlog += l.backlog;
        into.seen.extend(l.seen);
        into.kept.extend(l.kept);
        layers.merge(l.layers);
    }
}

// --------------------------------------------------------------- hot_reads

pub fn hot_reads(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed, 10);
    let places = seeded_places(&mut rng);
    let slots: Vec<Vec<Place>> = places.iter().map(|p| vec![*p]).collect();
    let rels = vec![("s".to_string(), relation_of(&slots))];
    // Popularity rank r reads selection (37·r mod 64): reply sizes spread
    // evenly over the ranks, the same for every seed.
    let queries: Vec<Query> = (0..HOT_QUERIES)
        .map(|r| (37 * r) % HOT_QUERIES + 1)
        .map(|j| selection("s", 0, j * SLOTS / HOT_QUERIES))
        .collect();
    let zipf = Zipf::new(HOT_QUERIES, ZIPF_S);

    let (mut fx, setup_s) = set_up(ctx, &rels, 2, false, |f| {
        // Every formula once on each connection, then a Zipf warm-up.
        let mut warm = Rng::new(ctx.seed, 11);
        for client in &mut f.clients {
            for q in &queries {
                dco::client_query(client, &q.src)?;
            }
            for _ in 0..256 {
                dco::client_query(client, &queries[zipf.sample(&mut warm)].src)?;
            }
        }
        Ok(())
    })?;
    let generation = dco::store_generation(&fx.store);
    println!(
        "relation sizes: s={} tuples",
        dco::relation_len(&generation, "s")
    );

    let mut out = Outcome {
        correct: true,
        setup_s,
        ..Outcome::default()
    };
    let mut all = ReadLog::default();
    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    // One phase: closed-loop readers, one per connection. Returns
    // (ops/s, OVERLOADED sheds counted by the server so far).
    let phase =
        |fx: &mut Fixture, traced: bool, seconds: f64, all: &mut ReadLog, layers: &mut Layers| {
            let reader = Reader {
                store: &fx.store,
                queries: &queries,
                zipf: &zipf,
                rate: None,
                traced,
            };
            let started = Instant::now();
            let until = started + Duration::from_secs_f64(seconds);
            let logs: Vec<ReadLog> = std::thread::scope(|s| {
                let handles: Vec<_> = fx
                    .clients
                    .iter_mut()
                    .enumerate()
                    .map(|(t, client)| {
                        let reader = &reader;
                        let mut rng = Rng::new(ctx.seed, 20 + t as u64 + 2 * u64::from(traced));
                        s.spawn(move || reader.run(client, &mut rng, until))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reader thread panicked"))
                    .collect()
            });
            let elapsed = started.elapsed().as_secs_f64();
            let shed = dco::client_stat(&mut fx.clients[0], "shed_overload")?;
            let ops: u64 = logs.iter().map(|l| l.ops).sum();
            merge(logs, traced, all, layers);
            Ok::<_, String>((ops as f64 / elapsed, shed))
        };

    let mut layers = Layers::default();
    let (untraced_ops, shed0) = phase(&mut fx, false, untraced_s, &mut all, &mut layers)?;
    out.ops_per_s = untraced_ops;
    let untraced_stalls = all.stalls;
    if ctx.trace {
        let sat0 = dco::sat_cache_counts();
        let qw0 = dco::histogram_totals(&fx.store, "server.queue_wait");
        let (traced_ops, shed1) = phase(
            &mut fx,
            true,
            ctx.seconds - untraced_s,
            &mut all,
            &mut layers,
        )?;
        layers.finish_kernel(sat0);
        layers.set(
            "server.queue_wait_us",
            histogram_mean_us(&fx.store, "server.queue_wait", qw0),
        );
        layers.set("server.shed", (shed1 - shed0) as f64);
        layers.set("server.stalls", all.stalls as f64);
        layers.set(
            "bench.trace_overhead",
            untraced_ops / traced_ops.max(1e-9) - 1.0,
        );
        println!("trace overhead: untraced {untraced_ops:.1} ops/s, traced {traced_ops:.1} ops/s");
    }
    out.layers = layers;

    // Answers: every reply has its closed-form count on the one
    // generation there is; sampled replies equal the unplanned answer.
    let mut wrong = 0u64;
    for &(q, g, n) in &all.seen {
        if g != generation.seq || n != queries[q].m {
            wrong += 1;
        }
    }
    let checking = Instant::now();
    let mut reference: HashMap<usize, GeneralizedRelation> = HashMap::new();
    for (q, _, rel) in &all.kept {
        if !reference.contains_key(q) {
            let formula = dco::parse_formula(&queries[*q].src)?;
            reference.insert(*q, dco::eval_reference(&generation.db, &formula)?);
        }
        if !dco::equivalent(rel, &reference[q]) {
            wrong += 1;
        }
    }
    println!(
        "checked {} replies by count and {} by equivalence in {:.2} s, {wrong} wrong",
        all.seen.len(),
        all.kept.len(),
        checking.elapsed().as_secs_f64()
    );
    let lat_n = all.lat.len();
    println!(
        "served: hits {} of {} replies; stalls (cache-hit replies over {STALL_MS} ms): {} untraced, {} in all",
        all.hits, all.ops, untraced_stalls, all.stalls
    );
    measure::report("server.stalls", untraced_stalls as f64, "count", lat_n);
    out.query_p50_ms = all.lat.quantile(0.5);
    out.query_p90_ms = all.lat.quantile(0.9);
    out.query_n = all.lat.len();
    out.attempted = all.ops;
    out.failed = all.failed + wrong;
    out.correct = wrong == 0;
    fx.close();
    Ok(out)
}

// -------------------------------------------------------------- read_write

/// One commit of the writer: slot `slot` of relation `rel` moves from
/// `old` to `new`, INSERT at seq `ins`, REMOVE at seq `rem`.
#[derive(Debug, Clone, Copy)]
struct Move {
    rel: usize,
    slot: usize,
    old: Place,
    new: Place,
    ins: u64,
    rem: u64,
}

#[derive(Default)]
struct WriteLog {
    lat: Samples,
    late: Samples,
    ops: u64,
    failed: u64,
    moves: Vec<Move>,
    /// Commits due before the end of the run but never sent.
    backlog: u64,
    /// `(seq, ack instant)` of every acknowledged commit request.
    acks: Vec<(u64, Instant)>,
    /// Snapshot cycles seen as WAL truncations between commits.
    snapshots: u64,
    layers: Layers,
}

struct Writer<'a> {
    store: &'a Store,
    names: &'a [String],
    rate: f64,
    traced: bool,
}

impl Writer<'_> {
    fn run(
        &self,
        client: &mut Client,
        model: &mut [Vec<Place>],
        rng: &mut Rng,
        until: Instant,
    ) -> WriteLog {
        let mut log = WriteLog::default();
        let mut wal = dco::wal_len(self.store);
        let start = Instant::now();
        let mut n = 0u64;
        loop {
            let due = start + Duration::from_secs_f64(n as f64 / self.rate);
            if due >= until || Instant::now() >= until {
                break;
            }
            n += 1;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            log.late.push(Instant::now().saturating_duration_since(due));
            let rel = rng.below(model.len() as u64) as usize;
            let slot = rng.below(SLOTS as u64) as usize;
            let old = model[rel][slot];
            let new = Place::seeded(rng, 1 - old.half);
            let name = &self.names[rel];
            let add = dco::intervals(&[new.span(slot)]);
            let drop = dco::intervals(&[old.span(slot)]);
            log.ops += 1;
            let op = Instant::now();
            let res = if self.traced {
                let t = Instant::now();
                let ins = dco::store_insert(self.store, name, &add);
                let a = t.elapsed();
                let t = Instant::now();
                let rem = ins.and_then(|ins| {
                    dco::store_remove(self.store, name, &drop).map(|rem| (ins, rem))
                });
                let b = t.elapsed();
                log.layers.add_us("store.commit_us", a);
                log.layers.add_us("store.commit_us", b);
                log.layers.reconcile("commit", a + b, op.elapsed());
                rem
            } else {
                dco::client_insert(client, name, &add)
                    .and_then(|ins| dco::client_remove(client, name, &drop).map(|rem| (ins, rem)))
            };
            match res {
                Ok((ins, rem)) => {
                    let acked = Instant::now();
                    log.lat.push(due.elapsed());
                    log.acks.push((ins, acked));
                    log.acks.push((rem, acked));
                    model[rel][slot] = new;
                    let len = dco::wal_len(self.store);
                    log.snapshots += u64::from(len < wal);
                    wal = len;
                    log.moves.push(Move {
                        rel,
                        slot,
                        old,
                        new,
                        ins,
                        rem,
                    });
                }
                Err(e) => {
                    log.failed += 1;
                    eprintln!("commit on {name} failed: {e}");
                }
            }
        }
        log.backlog = (until.duration_since(start).as_secs_f64() * self.rate).ceil() as u64 - n;
        log
    }
}

pub fn read_write(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed, 30);
    let names: Vec<String> = (0..RW_RELATIONS).map(|j| format!("s{j}")).collect();
    let initial: Vec<Vec<Place>> = (0..RW_RELATIONS).map(|_| seeded_places(&mut rng)).collect();
    let rels: Vec<(String, GeneralizedRelation)> = names
        .iter()
        .zip(&initial)
        .map(|(n, ps)| {
            (
                n.clone(),
                relation_of(&ps.iter().map(|p| vec![*p]).collect::<Vec<_>>()),
            )
        })
        .collect();
    // Popularity rank r reads `s_j(x) & x < SLOT·m` with m − 1 = 167·r
    // mod 256 and j = r + ⌊r / 256⌋ + (a seeded shift) mod 4: sizes and
    // relations spread evenly over the ranks, so every seed gives a load
    // of the same size, and the four ranks that share an m read four
    // different relations.
    let shift = rng.below(RW_RELATIONS as u64) as usize;
    let queries: Vec<Query> = (0..RW_RELATIONS * SLOTS)
        .map(|r| {
            let m = (167 * r) % SLOTS + 1;
            let j = (r + r / SLOTS + shift) % RW_RELATIONS;
            selection(&names[j], j, m)
        })
        .collect();
    let zipf = Zipf::new(queries.len(), ZIPF_S);

    let (mut fx, setup_s) = set_up(ctx, &rels, 2, true, |f| {
        // Fill the prepared cache with the 256 most popular formulas
        // (ranks 0..256): the same work for every seed.
        for q in &queries[..256] {
            dco::client_query(&mut f.clients[0], &q.src)?;
        }
        Ok(())
    })?;
    let sizes = |fx: &Fixture| -> Vec<usize> {
        let g = dco::store_generation(&fx.store);
        names.iter().map(|n| dco::relation_len(&g, n)).collect()
    };
    let sizes_start = sizes(&fx);
    let mut model = initial.clone();

    let mut out = Outcome {
        correct: true,
        setup_s,
        ..Outcome::default()
    };
    let mut reads = ReadLog::default();
    let mut writes = WriteLog::default();
    let mut layers = Layers::default();
    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut wrng = Rng::new(ctx.seed, 32);
    let mut lifetime = 0u64;
    // One phase: the open-loop reader and writer over server lifetimes of
    // about `RW_LIFETIME_S`, each a fresh server (and replica stream) on
    // the same store, so that one lost reactor wakeup stalls one lifetime
    // rather than the run. Returns per-lifetime figures.
    let mut phase = |fx: &mut Fixture,
                     traced: bool,
                     seconds: f64,
                     reads: &mut ReadLog,
                     writes: &mut WriteLog,
                     layers: &mut Layers| {
        let lives = (seconds / RW_LIFETIME_S).round().max(1.0) as usize;
        let mut per = Lives::default();
        for _ in 0..lives {
            if lifetime > 0 {
                fx.restart()?;
            }
            lifetime += 1;
            let reader = Reader {
                store: &fx.store,
                queries: &queries,
                zipf: &zipf,
                rate: Some(READ_RATE),
                traced,
            };
            let writer = Writer {
                store: &fx.store,
                names: &names,
                rate: WRITE_RATE,
                traced,
            };
            let started = Instant::now();
            let until = started + Duration::from_secs_f64(seconds / lives as f64);
            let (rclient, wclient) = fx.clients.split_at_mut(1);
            let mut rrng = Rng::new(ctx.seed, 100 * lifetime);
            let model = &mut model;
            let wrng = &mut wrng;
            let (rlog, mut wlog) = std::thread::scope(|s| {
                let r = s.spawn(|| reader.run(&mut rclient[0], &mut rrng, until));
                let w = s.spawn(|| writer.run(&mut wclient[0], model, wrng, until));
                (
                    r.join().expect("reader thread panicked"),
                    w.join().expect("writer thread panicked"),
                )
            });
            let elapsed = started.elapsed().as_secs_f64();
            per.shed += dco::client_stat(&mut fx.clients[0], "shed_overload")?;
            per.ops_per_s.push((rlog.ops + wlog.ops) as f64 / elapsed);
            per.read_p50.push(rlog.lat.quantile(0.5));
            per.read_p90.push(rlog.lat.quantile(0.9));
            per.write_p50.push(wlog.lat.quantile(0.5));
            per.write_p90.push(wlog.lat.quantile(0.9));
            per.stalled += usize::from(rlog.stalls > 0);
            let mut late = rlog.late.clone();
            late.extend(wlog.late.clone());
            per.gen_late.push(late.mean());
            merge(vec![rlog], traced, reads, layers);
            layers.merge(std::mem::take(&mut wlog.layers));
            if !traced {
                writes.lat.extend(wlog.lat);
            }
            writes.late.extend(wlog.late);
            writes.ops += wlog.ops;
            writes.failed += wlog.failed;
            writes.backlog += wlog.backlog;
            writes.snapshots += wlog.snapshots;
            writes.moves.extend(wlog.moves);
            writes.acks.extend(wlog.acks);
        }
        println!(
            "{} phase: {} of {lives} server lifetimes had stalls",
            if traced { "traced" } else { "untraced" },
            per.stalled
        );
        Ok::<_, String>(per)
    };

    let untraced = phase(
        &mut fx,
        false,
        untraced_s,
        &mut reads,
        &mut writes,
        &mut layers,
    )?;
    out.ops_per_s = measure::median(&untraced.ops_per_s);
    out.query_p50_ms = measure::median(&untraced.read_p50);
    out.query_p90_ms = measure::median(&untraced.read_p90);
    out.query_n = reads.lat.len();
    let gen_late = measure::median(&untraced.gen_late);
    if ctx.trace {
        let sat0 = dco::sat_cache_counts();
        let qw0 = dco::histogram_totals(&fx.store, "server.queue_wait");
        let fs0 = dco::histogram_totals(&fx.store, "store.wal.fsync");
        let c0 = dco::store_counters(&fx.store);
        let seq0 = dco::store_generation(&fx.store).seq;
        let traced = phase(
            &mut fx,
            true,
            ctx.seconds - untraced_s,
            &mut reads,
            &mut writes,
            &mut layers,
        )?;
        layers.finish_kernel(sat0);
        let c1 = dco::store_counters(&fx.store);
        let seq1 = dco::store_generation(&fx.store).seq;
        let commits = (c1.commits - c0.commits) as f64;
        let batches = (c1.batches - c0.batches) as f64;
        layers.set(
            "server.queue_wait_us",
            histogram_mean_us(&fx.store, "server.queue_wait", qw0),
        );
        layers.set(
            "wal.fsync_us",
            histogram_mean_us(&fx.store, "store.wal.fsync", fs0),
        );
        let fsyncs = (c1.fsyncs - c0.fsyncs) as f64;
        layers.set("store.fsyncs_per_commit", fsyncs / commits.max(1.0));
        layers.set("store.commit_batch_mean", commits / batches.max(1.0));
        // The replication window holds the last 1024 sealed records.
        let from = (seq0 + 1).max(seq1.saturating_sub(1023));
        if let Some((n, bytes)) = dco::wal_record_bytes(&fx.store, from, seq1) {
            layers.set("wal.bytes_per_commit", bytes as f64 / n.max(1) as f64);
        }
        layers.set("server.shed", traced.shed as f64);
        layers.set("server.stalls", reads.stalls as f64);
        layers.set("bench.gen_late_ms", gen_late);
        let traced_ops = measure::median(&traced.ops_per_s);
        layers.set(
            "bench.trace_overhead",
            out.ops_per_s / traced_ops.max(1e-9) - 1.0,
        );
        println!(
            "trace overhead: untraced {:.1} ops/s, traced {traced_ops:.1} ops/s",
            out.ops_per_s
        );
    } else {
        let n = writes.lat.len();
        measure::report(
            "write_p50_ms",
            measure::median(&untraced.write_p50),
            "ms",
            n,
        );
        measure::report(
            "write_p90_ms",
            measure::median(&untraced.write_p90),
            "ms",
            n,
        );
        measure::report(
            "bench.gen_late_ms",
            gen_late,
            "ms",
            (reads.ops + writes.ops) as usize,
        );
    }

    // Replication lag: from each commit's ack to the replica's apply.
    let replica = fx.replica.as_ref().expect("read_write runs a replica");
    let last = dco::store_generation(&fx.store).seq;
    if !dco::replica_wait(&replica.handle, last, Duration::from_secs(30)) {
        return Err(format!("replica did not reach seq {last}"));
    }
    let mut lag = Samples::default();
    {
        let applied = replica.applied.lock().expect("apply log lock poisoned");
        for &(seq, acked) in &writes.acks {
            let i = applied.partition_point(|&(s, _)| s < seq);
            if let Some(&(_, at)) = applied.get(i) {
                lag.push(at.saturating_duration_since(acked));
            }
        }
    }
    if ctx.trace {
        layers.set("repl.lag_ms", lag.mean());
    }

    // Steady state: every relation keeps its size.
    let sizes_end = sizes(&fx);
    println!("relation sizes: start {sizes_start:?}, end {sizes_end:?}");
    let mut wrong = u64::from(sizes_start != sizes_end);

    // Answers. Counts: a selection over slots `< m` has `m` tuples, plus
    // one on the generation between a commit's INSERT and its REMOVE
    // when that commit's slot is below `m`.
    let mut between: HashMap<u64, (usize, usize)> = HashMap::new();
    for mv in &writes.moves {
        for g in mv.ins..mv.rem {
            between.insert(g, (mv.rel, mv.slot));
        }
    }
    for &(q, g, n) in &reads.seen {
        let qy = &queries[q];
        let extra = matches!(between.get(&g), Some(&(rel, slot)) if rel == qy.rel && slot < qy.m);
        if n != qy.m + usize::from(extra) {
            wrong += 1;
        }
    }
    // Equivalence: replay the commits up to each sampled reply's
    // generation and evaluate the formula, unplanned, on that state.
    let checking = Instant::now();
    let mut kept = std::mem::take(&mut reads.kept);
    kept.sort_by_key(|k| k.1);
    let mut events: Vec<(u64, usize, usize, Place, bool)> = Vec::new();
    for mv in &writes.moves {
        events.push((mv.ins, mv.rel, mv.slot, mv.new, true));
        events.push((mv.rem, mv.rel, mv.slot, mv.old, false));
    }
    events.sort_by_key(|e| e.0);
    let mut state: Vec<Vec<Vec<Place>>> = initial
        .iter()
        .map(|ps| ps.iter().map(|p| vec![*p]).collect())
        .collect();
    let mut next = 0;
    for (q, g, rel) in &kept {
        while next < events.len() && events[next].0 <= *g {
            let (_, r, slot, place, add) = events[next];
            if add {
                state[r][slot].push(place);
            } else {
                state[r][slot].retain(|p| *p != place);
            }
            next += 1;
        }
        let qy = &queries[*q];
        let db = dco::database(vec![(names[qy.rel].as_str(), relation_of(&state[qy.rel]))]);
        let expected = dco::eval_reference(&db, &dco::parse_formula(&qy.src)?)?;
        if !dco::equivalent(rel, &expected) {
            wrong += 1;
        }
    }
    println!(
        "checked {} replies by count and {} by equivalence in {:.2} s, {wrong} wrong",
        reads.seen.len(),
        kept.len(),
        checking.elapsed().as_secs_f64()
    );

    // Space: store bytes after a final snapshot per wire byte of the
    // live tuples.
    dco::store_snapshot(&fx.store)?;
    let stored = dir_bytes(&fx.dir.join("primary"));
    let user = dco::wire_bytes(&dco::store_generation(&fx.store), &names);
    let hit_ratio = reads.hits as f64 / reads.ops.max(1) as f64;
    if !ctx.trace {
        measure::report(
            "stored_bytes_per_user_byte",
            stored as f64 / user.max(1) as f64,
            "ratio",
            1,
        );
        measure::report("repl.lag_ms", lag.mean(), "ms", lag.len());
    }
    println!(
        "served: cache hit ratio {hit_ratio:.3} over {} reads; stalls {}; backlog {} reads, {} commits; \
         {} auto-snapshot cycles; store {stored} B for {user} B of tuples",
        reads.ops, reads.stalls, reads.backlog, writes.backlog, writes.snapshots
    );
    println!(
        "read service p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; over 90 ms: {}",
        reads.service.quantile(0.5),
        reads.service.quantile(0.9),
        reads.service.quantile(0.99),
        reads.service.count_over(90.0)
    );
    out.layers = layers;
    out.attempted = reads.ops + writes.ops;
    out.failed = reads.failed + writes.failed + wrong;
    out.correct = wrong == 0;
    fx.close();
    Ok(out)
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
