//! `eval_mix`: the embedded engine with no server. One caller thread
//! runs a closed loop over a seeded stream of FO queries and Datalog¬
//! programs; each task goes through the calls the store makes: parse →
//! preflight → plan → guarded evaluation.

use crate::adapter::{self as dco, Database, Evaluated, GeneralizedRelation};
use crate::gen::{Reservoir, Rng};
use crate::measure::{self, Samples};
use crate::{Ctx, Outcome, SETUPS};
use std::time::{Duration, Instant};

/// Unary intervals in the complement query's relation.
const COMPLEMENT_N: i64 = 16;
/// Strips per relation of the star join.
const STAR_N: i64 = 24;
/// Boxes in the projection and disjunction relation.
const BOXES_N: i64 = 64;
/// Edges of the transitive-closure chain.
const TC_N: i64 = 12;
/// Edges of the chain the stratified program runs over.
const STRAT_N: i64 = 24;
/// Seeded constant choices per task kind.
const VARIANTS: usize = 8;
/// Task kinds, with how many of each one stream cycle holds.
const CYCLE: [(Kind, usize); 6] = [
    (Kind::Complement, 3),
    (Kind::StarJoin, 3),
    (Kind::Project, 3),
    (Kind::Disjunction, 3),
    (Kind::Tc, 1),
    (Kind::Stratified, 1),
];
/// Answers per run, sampled uniformly, that are checked.
const CHECKED: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Complement,
    StarJoin,
    Project,
    Disjunction,
    Tc,
    Stratified,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Complement => "fo_complement",
            Kind::StarJoin => "fo_star_join",
            Kind::Project => "fo_project",
            Kind::Disjunction => "fo_disjunction",
            Kind::Tc => "dl_tc",
            Kind::Stratified => "dl_stratified",
        }
    }

    fn is_fixpoint(self) -> bool {
        matches!(self, Kind::Tc | Kind::Stratified)
    }
}

/// How a task's answer is checked.
enum Check {
    /// Against the unplanned evaluation of the same formula.
    Reference,
    /// Closed-form tuple count.
    Count(usize),
    /// Closed-form answer.
    Equal(GeneralizedRelation),
}

struct Task {
    kind: Kind,
    db: usize,
    src: String,
    /// Output relation of a program.
    output: &'static str,
    check: Check,
}

/// The generated inputs: databases (with the statistics the store would
/// keep for them), the distinct tasks, and the task stream.
struct Inputs {
    dbs: Vec<(Database, dco::DbStats)>,
    tasks: Vec<Task>,
    stream: Vec<usize>,
}

/// Node `j` of a chain: the interval `[4j, 4j + 1]`.
fn chain_node(j: i64) -> (i64, i64) {
    (4 * j, 4 * j + 1)
}

/// A chain `e` of `n` edges `node(i) × node(i + 1)`.
fn chain_db(n: i64) -> Database {
    let edges: Vec<_> = (0..n).map(|i| (chain_node(i), chain_node(i + 1))).collect();
    dco::database(vec![("e", dco::boxes(&edges))])
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let spread = |n: i64| -> Vec<(i64, i64)> { (0..n).map(|i| (3 * i, 3 * i + 1)).collect() };
    // Box i spans row i and column 37·i mod n: a fixed scatter, so the
    // projection's and disjunction's answers keep their size per seed.
    let boxes: Vec<_> = (0..BOXES_N)
        .map(|i| {
            let j = (37 * i) % BOXES_N;
            ((3 * i, 3 * i + 1), (3 * j, 3 * j + 1))
        })
        .collect();
    let star = |axis: u32, n: i64, step: i64, width: i64| {
        dco::strips(
            axis,
            &(0..n)
                .map(|i| (step * i, step * i + width))
                .collect::<Vec<_>>(),
        )
    };
    let pin = dco::boxes(&[((0, 1), (0, 1))]);
    let dbs = vec![
        dco::database(vec![("S", dco::intervals(&spread(COMPLEMENT_N)))]),
        dco::database(vec![
            ("hub", star(0, STAR_N, 3, 1)),
            ("wing1", star(1, STAR_N, 3, 1)),
            ("wing2", star(0, (STAR_N + 1) / 2, 6, 2)),
            ("pin", pin),
        ]),
        dco::database(vec![
            ("S", dco::intervals(&spread(BOXES_N))),
            ("R", dco::boxes(&boxes)),
        ]),
        chain_db(TC_N),
        chain_db(STRAT_N),
    ];
    let dbs = dbs
        .into_iter()
        .map(|db| {
            let stats = dco::db_stats(&db);
            (db, stats)
        })
        .collect();

    let mut tasks = Vec::new();
    let mut first = [0usize; CYCLE.len()];
    for (k, &(kind, _)) in CYCLE.iter().enumerate() {
        first[k] = tasks.len();
        for _ in 0..VARIANTS {
            tasks.push(make_task(kind, &mut rng));
        }
    }
    // One stream cycle holds each kind its fixed number of times, in a
    // seeded order, with a seeded variant each time.
    let mut stream = Vec::new();
    for _ in 0..64 {
        let mut cycle = Vec::new();
        for (k, &(_, count)) in CYCLE.iter().enumerate() {
            for _ in 0..count {
                cycle.push(first[k] + rng.below(VARIANTS as u64) as usize);
            }
        }
        let order = rng.permutation(cycle.len());
        stream.extend(order.into_iter().map(|i| cycle[i]));
    }
    Inputs { dbs, tasks, stream }
}

fn make_task(kind: Kind, rng: &mut Rng) -> Task {
    let fo = |db: usize, src: String| Task {
        kind,
        db,
        src,
        output: "",
        check: Check::Reference,
    };
    // A constant just above `3j + 2`, in the gap before the next
    // interval: a seeded eighth keeps the answer's shape (and so the
    // load's size) while the inputs change with the seed.
    let mut gap = |j: i64| format!("{}/8", 8 * (3 * j + 2) + 1 + rng.below(7) as i64);
    match kind {
        Kind::Complement => {
            let c = gap(COMPLEMENT_N - 2);
            fo(0, format!("S(x) & !S(y) & x < y & y < {c}"))
        }
        Kind::StarJoin => {
            let c = gap(0);
            fo(
                1,
                format!("hub(x, y) & wing1(x, y) & wing2(x, y) & pin(x, y) & x <= {c}"),
            )
        }
        Kind::Project => {
            let c = gap(BOXES_N / 2);
            fo(2, format!("exists y . (R(x, y) & x < y & y < {c})"))
        }
        Kind::Disjunction => {
            let (c1, c2) = (gap(BOXES_N / 4), gap(BOXES_N / 2));
            fo(
                2,
                format!("(S(x) & x < {c1}) | exists y . (R(x, y) & y > {c2})"),
            )
        }
        Kind::Tc => Task {
            kind,
            db: 3,
            src: "tc(x, y) :- e(x, y).\ntc(x, y) :- tc(x, z), e(z, y).\n".into(),
            output: "tc",
            check: Check::Count((TC_N * (TC_N + 1) / 2) as usize),
        },
        Kind::Stratified => {
            // Start at node k = n/2, bounded by seeded eighths inside the
            // gaps around it.
            let k = STRAT_N / 2;
            let (lo, hi) = chain_node(k);
            let lo = format!("{}/8", 8 * lo - 1 - rng.below(7) as i64);
            let hi = format!("{}/8", 8 * hi + 1 + rng.below(7) as i64);
            let unreached: Vec<_> = (0..k).map(chain_node).collect();
            Task {
                kind,
                db: 4,
                src: format!(
                    "reach(x) :- e(x, y), {lo} <= x, x <= {hi}.\n\
                     reach(y) :- reach(x), e(x, y).\n\
                     node(x) :- e(x, y).\n\
                     node(y) :- e(x, y).\n\
                     unreached(x) :- node(x), !reach(x).\n"
                ),
                output: "unreached",
                check: Check::Equal(dco::intervals(&unreached)),
            }
        }
    }
}

/// The timings of one task run.
#[derive(Default)]
struct Timed {
    parse: Duration,
    preflight: Duration,
    plan: Duration,
    eval: Duration,
    probes: [u64; 4],
}

/// Run one task through parse → preflight → plan → guarded evaluation,
/// timing each call. With `probe`, the evaluation collects probe-site
/// counts.
fn run_task(inputs: &Inputs, idx: usize, probe: bool) -> Result<(Evaluated, Timed), String> {
    let task = &inputs.tasks[idx];
    let (db, stats) = &inputs.dbs[task.db];
    let mut t = Timed::default();
    let clock = Instant::now();
    let out = if task.kind.is_fixpoint() {
        let stratified = task.kind == Kind::Stratified;
        let program = dco::parse_program(&task.src)?;
        let a = clock.elapsed();
        dco::preflight_program(&program, db, stratified)?;
        let b = clock.elapsed();
        let (planned, limits) = dco::plan_program(&program, db, stats);
        let c = clock.elapsed();
        let traced = probe && dco::probe_begin();
        let out = dco::run_program(&planned, db, limits, stratified, task.output);
        if traced {
            t.probes = dco::probe_finish();
        }
        (t.parse, t.preflight, t.plan, t.eval) = (a, b - a, c - b, clock.elapsed() - c);
        out?
    } else {
        let formula = dco::parse_formula(&task.src)?;
        let a = clock.elapsed();
        dco::preflight_formula(&formula, db)?;
        let b = clock.elapsed();
        let (planned, limits) = dco::plan_formula(&formula, db, stats);
        let c = clock.elapsed();
        let traced = probe && dco::probe_begin();
        let out = dco::eval_formula(db, &planned, limits);
        if traced {
            t.probes = dco::probe_finish();
        }
        (t.parse, t.preflight, t.plan, t.eval) = (a, b - a, c - b, clock.elapsed() - c);
        out?
    };
    Ok((out, t))
}

/// Check a task's answer; FO answers against `reference` (computed once
/// per task, lazily).
fn check(
    inputs: &Inputs,
    idx: usize,
    answer: &GeneralizedRelation,
    reference: &mut [Option<GeneralizedRelation>],
) -> Result<bool, String> {
    let task = &inputs.tasks[idx];
    Ok(match &task.check {
        Check::Count(n) => dco::tuples(answer) == *n,
        Check::Equal(expected) => dco::equivalent(answer, expected),
        Check::Reference => {
            if reference[idx].is_none() {
                let formula = dco::parse_formula(&task.src)?;
                reference[idx] = Some(dco::eval_reference(&inputs.dbs[task.db].0, &formula)?);
            }
            let expected = reference[idx].as_ref().expect("reference computed above");
            dco::equivalent(answer, expected)
        }
    })
}

/// Build inputs and warm every cache: each distinct task runs twice.
fn setup(seed: u64) -> Result<Inputs, String> {
    dco::reset_sat_cache();
    let inputs = generate(seed);
    for _ in 0..2 {
        for idx in 0..inputs.tasks.len() {
            run_task(&inputs, idx, false)?;
        }
    }
    Ok(inputs)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = Some(setup(ctx.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let mut out = Outcome {
        correct: true,
        setup_s: measure::median(&setups),
        ..Outcome::default()
    };
    let mut reference = vec![None; inputs.tasks.len()];
    let mut wrong = 0u64;

    // Untraced phase: the whole run, or its first half before tracing.
    let untraced_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut fixpoint = Samples::default();
    let mut query = Samples::default();
    let mut per_kind: Vec<Samples> = vec![Samples::default(); CYCLE.len()];
    let mut kept = Reservoir::new(CHECKED, Rng::new(ctx.seed, 2));
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(untraced_s);
    let mut pos = 0usize;
    let mut ops = 0u64;
    while Instant::now() < deadline {
        let idx = inputs.stream[pos % inputs.stream.len()];
        pos += 1;
        let t = Instant::now();
        let res = run_task(&inputs, idx, false);
        let took = t.elapsed();
        ops += 1;
        match res {
            Ok((answer, _)) => {
                per_kind[idx / VARIANTS].push(took);
                if inputs.tasks[idx].kind.is_fixpoint() {
                    fixpoint.push(took);
                } else {
                    query.push(took);
                }
                kept.offer((idx, answer.relation));
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("eval_mix: {}: {e}", inputs.tasks[idx].kind.name());
            }
        }
    }
    let untraced_ops_per_s = ops as f64 / started.elapsed().as_secs_f64();
    for (k, samples) in per_kind.iter().enumerate() {
        println!(
            "kind {}: p50 {:.3} ms, p99 {:.3} ms (n={})",
            CYCLE[k].0.name(),
            samples.quantile(0.5),
            samples.quantile(0.99),
            samples.len()
        );
    }
    out.attempted = ops;
    out.ops_per_s = untraced_ops_per_s;
    out.query_p50_ms = query.quantile(0.5);
    out.query_p90_ms = query.quantile(0.9);
    out.query_n = query.len();

    if ctx.trace {
        let layers = &mut out.layers;
        let sat0 = dco::sat_cache_counts();
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(ctx.seconds - untraced_s);
        let mut traced_ops = 0u64;
        while Instant::now() < deadline {
            let idx = inputs.stream[pos % inputs.stream.len()];
            pos += 1;
            let kind = inputs.tasks[idx].kind;
            let t = Instant::now();
            let res = run_task(&inputs, idx, true);
            let total = t.elapsed();
            traced_ops += 1;
            out.attempted += 1;
            let (answer, timed) = match res {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("eval_mix: {}: {e}", kind.name());
                    continue;
                }
            };
            layers.add_us("logic.parse_us", timed.parse);
            layers.add_us("analysis.preflight_us", timed.preflight);
            layers.add_us("analysis.plan_us", timed.plan);
            if kind.is_fixpoint() {
                layers.add_us("datalog.eval_us", timed.eval);
                layers.add("datalog.stages", answer.stats.stages_completed as f64);
            } else {
                layers.add_us("fo.eval_us", timed.eval);
                layers.add("fo.result_tuples", dco::tuples(&answer.relation) as f64);
            }
            layers.record_eval(&answer, timed.probes);
            let covered = timed.parse + timed.preflight + timed.plan + timed.eval;
            layers.reconcile(kind.name(), covered, total);
            kept.offer((idx, answer.relation));
        }
        layers.finish_kernel(sat0);
        let traced_ops_per_s = traced_ops as f64 / started.elapsed().as_secs_f64();
        layers.set(
            "bench.trace_overhead",
            untraced_ops_per_s / traced_ops_per_s.max(1e-9) - 1.0,
        );
        println!(
            "trace overhead: untraced {untraced_ops_per_s:.1} ops/s, traced {traced_ops_per_s:.1} ops/s"
        );
    }

    let checking = Instant::now();
    let kept = kept.into_items();
    for (idx, answer) in &kept {
        if !check(&inputs, *idx, answer, &mut reference)? {
            wrong += 1;
            let task = &inputs.tasks[*idx];
            eprintln!(
                "eval_mix: wrong answer for {}: {}",
                task.kind.name(),
                task.src
            );
        }
    }
    println!(
        "checked {} answers in {:.2} s, {wrong} wrong",
        kept.len(),
        checking.elapsed().as_secs_f64()
    );
    out.failed += wrong;
    out.correct = wrong == 0;
    if !ctx.trace {
        measure::report(
            "fixpoint_p50_ms",
            fixpoint.quantile(0.5),
            "ms",
            fixpoint.len(),
        );
        measure::report(
            "fixpoint_p90_ms",
            fixpoint.quantile(0.9),
            "ms",
            fixpoint.len(),
        );
    }
    Ok(out)
}
