//! The inflationary fixpoint engine.
//!
//! Semantics (§4 of the paper): starting from the input database and empty
//! IDB relations, every stage evaluates *all* rule bodies against the
//! current store and **adds** the derived facts (inflationary semantics —
//! negation is evaluated against the current stage, nothing is retracted).
//! The computation stops when a stage adds nothing new.
//!
//! Two facts make this a decision procedure rather than a heuristic:
//!
//! 1. **Closure** — rule bodies are FO formulas over constraint relations,
//!    so each stage's derived facts are again finitely representable
//!    (\[KKR90\]; we reuse the closed-form FO evaluator of `dco-fo`).
//! 2. **Termination** — dense-order QE never invents constants, so every
//!    derivable relation is a union of cells over the fixed constant set of
//!    the input + program; the cell lattice is finite and stages are
//!    monotone in it, so a fixpoint is reached in at most `#cells` stages —
//!    polynomially many in the input size for a fixed program, which is the
//!    easy half of Theorem 4.4 (Datalog¬ ⊆ PTIME).

use crate::ast::{Literal, Program, Rule};
use dco_core::guard::{probe, stage_completed, ProbeSite};
use dco_core::par::par_map_coarse;
use dco_core::prelude::*;
use dco_fo::eval_in_ctx;
use dco_logic::Formula;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Errors during fixpoint evaluation.
#[derive(Debug)]
pub enum EngineError {
    /// A rule body failed FO evaluation.
    Body {
        /// Display form of the offending rule.
        rule: String,
        /// The underlying evaluator error.
        source: dco_fo::EvalError,
    },
    /// Input database is missing an EDB relation or has a wrong arity.
    BadInput(String),
    /// Stage limit exceeded (a safety valve; cannot happen for valid
    /// dense-order programs unless the limit is set too low).
    StageLimit(usize),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Body { rule, source } => write!(f, "in rule `{rule}`: {source}"),
            EngineError::BadInput(m) => write!(f, "bad input database: {m}"),
            EngineError::StageLimit(n) => write!(f, "no fixpoint after {n} stages"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Evaluation statistics, reported alongside the fixpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of stages until the fixpoint (last stage derives nothing).
    pub stages: usize,
    /// Total rule-body evaluations.
    pub body_evals: usize,
    /// Final representation size (atoms across all IDB relations).
    pub final_size: usize,
}

/// Configuration for the engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hard cap on stages (safety valve; default 10 000).
    pub max_stages: usize,
    /// Restrict rule evaluation to the previous stage's deltas
    /// (semi-naive, default true). Applied only when the program is
    /// negation-free: the inflationary same-stage semantics of §4 makes
    /// deltas unsound under negation (a negated literal can newly *fail*),
    /// so programs with negation silently use full naive stages and keep
    /// the exact paper semantics.
    pub use_deltas: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_stages: 10_000,
            use_deltas: true,
        }
    }
}

/// The result of running a program: the full store (EDB + IDB) at fixpoint.
#[derive(Debug, Clone)]
pub struct FixpointResult {
    /// Fixpoint database over EDB ∪ IDB schema.
    pub database: Database,
    /// Statistics.
    pub stats: EngineStats,
}

/// Run a program on an input database to its inflationary fixpoint.
pub fn run(program: &Program, input: &Database) -> Result<FixpointResult, EngineError> {
    run_with(program, input, &EngineConfig::default())
}

/// Run with explicit configuration.
pub fn run_with(
    program: &Program,
    input: &Database,
    config: &EngineConfig,
) -> Result<FixpointResult, EngineError> {
    let arities = program
        .arities()
        .map_err(|e| EngineError::BadInput(e.to_string()))?;
    // Build the working schema: all EDB relations from the input (checked)
    // plus IDB relations initialized empty.
    let mut schema = Schema::new();
    for p in program.edb_predicates() {
        let declared = arities[&p];
        match input.get(&p) {
            None => {
                return Err(EngineError::BadInput(format!("missing EDB relation {p}")));
            }
            Some(r) if r.arity() != declared => {
                return Err(EngineError::BadInput(format!(
                    "EDB relation {p}: input arity {} but program uses {declared}",
                    r.arity()
                )));
            }
            Some(_) => schema = schema.with(&p, declared),
        }
    }
    let idb = program.idb_predicates();
    // Delta restriction is sound only without negation (see
    // [`EngineConfig::use_deltas`]).
    let has_negation = program
        .rules
        .iter()
        .any(|r| r.body.iter().any(|l| matches!(l, Literal::Neg(..))));
    let use_deltas = config.use_deltas && !has_negation;
    for p in &idb {
        if input.get(p).is_some() {
            return Err(EngineError::BadInput(format!(
                "IDB relation {p} must not be present in the input"
            )));
        }
        schema = schema.with(p, arities[p]);
        if use_deltas {
            schema = schema.with(&delta_name(p), arities[p]);
        }
    }
    let mut store = Database::new(schema);
    for p in program.edb_predicates() {
        // INVARIANT: `input.get(&p)` was verified non-None (with the right
        // arity) in the EDB validation loop above, and the schema entry was
        // added in the same pass — both expects are unreachable.
        store
            .set(&p, input.get(&p).expect("checked above").clone())
            .expect("schema matches");
    }

    let compiled: Vec<Compiled> = program.rules.iter().map(compile_rule).collect();
    // Delta-restricted variants: one per positive IDB body literal, with
    // that literal redirected to the predicate's shadow delta relation. A
    // fact new at stage n must use at least one fact that was new at stage
    // n-1, so the union over variants derives everything the full rule
    // would — the classical semi-naive argument, unchanged by constraint
    // relations.
    let delta_compiled: Vec<Compiled> = if use_deltas {
        let mut variants = Vec::new();
        for r in &program.rules {
            for (i, lit) in r.body.iter().enumerate() {
                let Literal::Pos(name, _) = lit else { continue };
                if !idb.contains(name) {
                    continue;
                }
                let mut variant = r.clone();
                if let Literal::Pos(n, _) = &mut variant.body[i] {
                    *n = delta_name(name);
                }
                variants.push(compile_rule(&variant));
            }
        }
        variants
    } else {
        Vec::new()
    };

    let mut stats = EngineStats::default();
    // Per-predicate set of delta tuples already folded into (or found
    // covered by) the store in an earlier stage. Tuples hash by their
    // fingerprint, so membership costs one fingerprint probe — the store is
    // inflationary, so a tuple seen once is covered forever and never needs
    // the O(|store|) subsumption scan again. The set lives only as long as
    // this evaluation.
    let mut seen: BTreeMap<String, HashSet<GeneralizedTuple>> = BTreeMap::new();
    loop {
        // Guard probe: one hit per fixpoint stage boundary — the natural
        // cancellation point of the engine (deadlines and external
        // cancellation take effect between stages even if no algebra
        // probe fires inside one).
        probe(ProbeSite::FixpointStage);
        if stats.stages >= config.max_stages {
            return Err(EngineError::StageLimit(config.max_stages));
        }
        stats.stages += 1;
        // Stage 1 always evaluates the full rules (IDBs are empty, so all
        // facts are "new"); later delta stages evaluate only the restricted
        // variants. A rule with no positive IDB literal has no variant —
        // correctly so, as its derivations cannot change after stage 1.
        let stage_rules: &[Compiled] = if use_deltas && stats.stages > 1 {
            &delta_compiled
        } else {
            &compiled
        };
        // Deltas are computed against the *current* stage store (inflationary
        // semantics evaluates all rules on the same stage), then merged.
        // Rules are independent given the store, so they evaluate in
        // parallel; the merge below is sequential in rule order, keeping
        // the result identical to a single-threaded run.
        stats.body_evals += stage_rules.len();
        let derived = par_map_coarse(stage_rules, |rule| eval_compiled(&store, rule));
        let mut deltas: BTreeMap<String, GeneralizedRelation> = BTreeMap::new();
        for (rule, result) in stage_rules.iter().zip(derived) {
            let expanded = result?;
            deltas
                .entry(rule.head.clone())
                .and_modify(|d| *d = d.union(&expanded))
                .or_insert(expanded);
        }
        let mut changed = false;
        if use_deltas {
            // Fold the genuinely-new part of each delta into the store and
            // publish it as the predicate's shadow relation for the next
            // stage's restricted variants.
            // INVARIANT for the expects below: every IDB predicate and its
            // shadow delta were added to the schema before the loop, and
            // relations written here keep their declared arity — `get` and
            // `set` cannot fail for them.
            for p in &idb {
                let old = store.get(p).expect("idb in schema").clone();
                let delta = deltas
                    .remove(p)
                    .unwrap_or_else(|| GeneralizedRelation::empty(arities[p]));
                // The "new part" is over-approximated by a per-tuple
                // subsumption filter rather than the exact complement-based
                // difference: difference splinters boxes into fragments that
                // bloat both the shadow and the store, while a delta tuple
                // covered only by a *union* of old tuples is merely wasted
                // work next stage (it is re-filtered once it is in the store,
                // so the loop still reaches the same fixpoint).
                let fresh = match delta.as_points() {
                    Some(points) => GeneralizedRelation::from_points(
                        delta.arity(),
                        points
                            .into_iter()
                            .filter(|pt| !old.contains_point(pt))
                            .collect::<Vec<_>>(),
                    ),
                    None => {
                        let covered = seen.entry(p.clone()).or_default();
                        let fresh = GeneralizedRelation::from_tuples(
                            delta.arity(),
                            delta
                                .tuples()
                                .iter()
                                .filter(|t| {
                                    if covered.contains(t) {
                                        return false;
                                    }
                                    // A store tuple whose bounding box is
                                    // disjoint from `t`'s cannot contain it;
                                    // skip the subsumption test for such
                                    // pairs.
                                    !old.tuples()
                                        .iter()
                                        .any(|u| !u.box_disjoint(t) && u.subsumes(t))
                                })
                                .cloned(),
                        );
                        // Every delta tuple is covered from here on: the
                        // subsumed ones already were, the fresh ones are
                        // merged into the store below.
                        for t in delta.tuples() {
                            if !covered.contains(t) {
                                covered.insert(t.clone());
                            }
                        }
                        fresh
                    }
                };
                if fresh.is_empty() {
                    store.set(&delta_name(p), fresh).expect("schema matches");
                    continue;
                }
                changed = true;
                // Simplify only the fresh part before merging: every store
                // tuple was simplified when it was first folded in, so
                // re-simplifying the whole accumulated store each stage is
                // O(|store|) work per stage for no semantic gain — on chain
                // workloads it dominates the fixpoint wall clock. Union's
                // insert still prunes syntactic subsumption between old and
                // fresh in both directions.
                let fresh = if fresh.as_points().is_none() {
                    fresh.simplify()
                } else {
                    fresh
                };
                let merged = old.union(&fresh);
                store.set(p, merged).expect("schema matches");
                store.set(&delta_name(p), fresh).expect("schema matches");
            }
        } else {
            for (pred, delta) in deltas {
                // INVARIANT: `deltas` keys are rule heads, all IDB
                // predicates declared in the schema above.
                let old = store.get(&pred).expect("idb in schema").clone();
                // Point-set fast path for the inclusion test, generic otherwise.
                let included = match delta.as_points() {
                    Some(points) => points.iter().all(|p| old.contains_point(p)),
                    None => delta.is_subset(&old),
                };
                if included {
                    continue;
                }
                changed = true;
                let merged = old.union(&delta);
                let merged = if merged.as_points().is_none() {
                    merged.simplify()
                } else {
                    merged
                };
                store.set(&pred, merged).expect("schema matches");
            }
        }
        stage_completed();
        if !changed {
            break;
        }
    }
    // INVARIANT: same schema argument as above — IDB lookups cannot fail.
    stats.final_size = idb
        .iter()
        .map(|p| store.get(p).expect("idb in schema").size())
        .sum();
    // Absorb the run into the process-global metrics registry: the
    // engine has no owner carrying a per-store registry, so fixpoint
    // counters aggregate globally under `dco_datalog_*`.
    let global = dco_obs::global();
    global.counter("datalog.runs").inc();
    global.counter("datalog.stages").add(stats.stages as u64);
    global
        .counter("datalog.body_evals")
        .add(stats.body_evals as u64);
    let database = if use_deltas {
        strip_shadows(&store, program, &arities)
    } else {
        store
    };
    Ok(FixpointResult { database, stats })
}

/// Shadow relation carrying the facts a predicate gained at the previous
/// stage (delta mode only).
fn delta_name(p: &str) -> String {
    format!("__delta_{p}")
}

/// Rebuild the fixpoint database without the shadow delta relations.
fn strip_shadows(store: &Database, program: &Program, arities: &BTreeMap<String, u32>) -> Database {
    let mut schema = Schema::new();
    for p in program.edb_predicates() {
        schema = schema.with(&p, arities[&p]);
    }
    for p in program.idb_predicates() {
        schema = schema.with(&p, arities[&p]);
    }
    let mut out = Database::new(schema);
    for p in program
        .edb_predicates()
        .into_iter()
        .chain(program.idb_predicates())
    {
        // INVARIANT: the working store declares every EDB and IDB predicate
        // (built in `run_with`), and the output schema mirrors it minus the
        // shadows — both expects are unreachable.
        out.set(&p, store.get(&p).expect("in store").clone())
            .expect("schema matches");
    }
    out
}

/// A rule precompiled for stage evaluation: body formula, evaluation
/// context (head vars first), head arity and the column layout mapping
/// head positions to context columns (repeated head variables share one).
struct Compiled {
    head: String,
    ctx: Vec<String>,
    head_arity: u32,
    body: Formula,
    literals: Vec<Literal>,
    head_vars: Vec<String>,
    layout: Vec<usize>,
    display: String,
}

fn compile_rule(r: &Rule) -> Compiled {
    let body = Formula::And(r.body.iter().map(Literal::to_formula).collect());
    // Context: head vars first (in head order), then remaining body
    // vars sorted. Head vars may repeat — deduplicate keeping first
    // occurrence; the duplicate column is reconstructed by
    // `expand_columns` when widening the projection to the head arity.
    let mut ctx: Vec<String> = Vec::new();
    for v in &r.head_vars {
        if !ctx.contains(v) {
            ctx.push(v.clone());
        }
    }
    let mut body_vars: Vec<String> = body
        .free_vars()
        .into_iter()
        .filter(|v| !ctx.contains(v))
        .collect();
    body_vars.sort();
    ctx.extend(body_vars);
    let mut firsts: Vec<&String> = Vec::new();
    let layout: Vec<usize> = r
        .head_vars
        .iter()
        .map(|v| {
            if let Some(i) = firsts.iter().position(|f| *f == v) {
                i
            } else {
                firsts.push(v);
                firsts.len() - 1
            }
        })
        .collect();
    Compiled {
        head: r.head.clone(),
        ctx,
        head_arity: r.head_vars.len() as u32,
        body,
        literals: r.body.clone(),
        head_vars: r.head_vars.clone(),
        layout,
        display: r.to_string(),
    }
}

/// Evaluate one compiled rule against the store, returning the derived
/// head relation (full head arity). Read-only with respect to the store,
/// so stage rules may run concurrently.
fn eval_compiled(store: &Database, rule: &Compiled) -> Result<GeneralizedRelation, EngineError> {
    // Fast path: when every positive body relation is a finite point set,
    // evaluate the rule by enumeration (classical Datalog hash join)
    // instead of symbolic algebra.
    if let Some(expanded) = eval_rule_points(store, &rule.literals, &rule.head_vars) {
        return Ok(expanded);
    }
    let mut rel =
        eval_in_ctx(store, &rule.body, &rule.ctx).map_err(|source| EngineError::Body {
            rule: rule.display.clone(),
            source,
        })?;
    // Project away non-head columns.
    let distinct_head = rule
        .layout
        .iter()
        .copied()
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    for i in (distinct_head..rule.ctx.len()).rev() {
        rel = rel.project_out(Var(i as u32));
    }
    let rel = rel.narrow(distinct_head as u32);
    // Expand to the full head arity honoring repeated variables.
    Ok(expand_columns(&rel, &rule.layout, rule.head_arity))
}

/// Enumerative rule evaluation for the finite fragment: succeeds when every
/// positive predicate literal's relation is a point set and the rule is
/// fully "bound" (all constraint and head variables bound by positives;
/// negated literals ground at check time). Returns `None` to signal the
/// caller to use the generic symbolic path.
/// A positive literal resolved to points: `(predicate, args, point rows)`.
type BoundPositive<'a> = (&'a str, &'a [dco_logic::ArgTerm], Vec<Vec<Rational>>);

fn eval_rule_points(
    store: &Database,
    literals: &[Literal],
    head_vars: &[String],
) -> Option<GeneralizedRelation> {
    use dco_logic::ArgTerm;
    use std::collections::BTreeMap;
    let mut positives: Vec<BoundPositive> = Vec::new();
    let mut negatives: Vec<(&str, &[dco_logic::ArgTerm])> = Vec::new();
    let mut constraints: Vec<&Literal> = Vec::new();
    for lit in literals {
        match lit {
            Literal::Pos(name, args) => {
                let rel = store.get(name)?;
                positives.push((name, args, rel.as_points()?));
            }
            Literal::Neg(name, args) => {
                store.get(name)?;
                negatives.push((name, args));
            }
            Literal::Constraint(..) => constraints.push(lit),
        }
    }
    // Join positives by nested-loop unification.
    let mut bindings: Vec<BTreeMap<String, Rational>> = vec![BTreeMap::new()];
    for (_, args, points) in &positives {
        let mut next = Vec::new();
        for b in &bindings {
            'point: for p in points {
                let mut b2 = b.clone();
                for (arg, val) in args.iter().zip(p) {
                    match arg {
                        ArgTerm::Const(c) => {
                            if c != val {
                                continue 'point;
                            }
                        }
                        ArgTerm::Var(v) => match b2.get(v) {
                            Some(bound) if bound != val => continue 'point,
                            Some(_) => {}
                            None => {
                                b2.insert(v.clone(), *val);
                            }
                        },
                    }
                }
                next.push(b2);
            }
        }
        bindings = next;
        if bindings.is_empty() {
            break;
        }
    }
    // Constraints: all mentioned variables must be bound.
    let eval_expr = |e: &dco_logic::LinExpr, b: &BTreeMap<String, Rational>| -> Option<Rational> {
        let mut acc = e.constant;
        for (v, c) in &e.coeffs {
            acc = acc + (c * b.get(v)?);
        }
        Some(acc)
    };
    for lit in &constraints {
        let Literal::Constraint(l, op, r) = lit else {
            unreachable!()
        };
        // Verify boundness on one binding template (vars are uniform);
        // when no bindings survive the join the rule derives nothing.
        if let Some(b) = bindings.first() {
            if eval_expr(l, b).is_none() || eval_expr(r, b).is_none() {
                return None; // constraint on unbound variable: generic path
            }
        }
        // INVARIANT: the template check above verified every variable of
        // this constraint is bound, and the join binds a *uniform* variable
        // set across bindings (each positive literal extends all of them
        // identically) — so the expects cannot fire on later bindings.
        bindings.retain(|b| {
            let lv = eval_expr(l, b).expect("checked bound");
            let rv = eval_expr(r, b).expect("checked bound");
            op.eval(&lv, &rv)
        });
    }
    // Negations: ground membership tests against arbitrary relations.
    for (name, args) in &negatives {
        // INVARIANT: membership of `name` in the store was verified when the
        // literal was collected into `negatives`; the boundness template
        // below plus uniform binding domains make the `b[v]` index safe.
        let rel = store.get(name).expect("checked above");
        // boundness check
        if let Some(b) = bindings.first() {
            for arg in args.iter() {
                if let ArgTerm::Var(v) = arg {
                    if !b.contains_key(v) {
                        return None;
                    }
                }
            }
        }
        bindings.retain(|b| {
            let point: Vec<Rational> = args
                .iter()
                .map(|arg| match arg {
                    ArgTerm::Const(c) => *c,
                    ArgTerm::Var(v) => b[v],
                })
                .collect();
            !rel.contains_point(&point)
        });
    }
    // Head projection: all head vars must be bound.
    if let Some(b) = bindings.first() {
        for v in head_vars {
            if !b.contains_key(v) {
                return None;
            }
        }
    }
    let points: Vec<Vec<Rational>> = bindings
        .into_iter()
        .map(|b| head_vars.iter().map(|v| b[v]).collect())
        .collect();
    // dedup
    let mut seen = std::collections::BTreeSet::new();
    let points: Vec<Vec<Rational>> = points
        .into_iter()
        .filter(|p| seen.insert(p.clone()))
        .collect();
    Some(GeneralizedRelation::from_points(
        head_vars.len() as u32,
        points,
    ))
}

/// Expand an n-column relation to the head arity by duplicating columns
/// according to `layout` (layout[i] = source column for head position i).
fn expand_columns(
    rel: &GeneralizedRelation,
    layout: &[usize],
    head_arity: u32,
) -> GeneralizedRelation {
    if layout.iter().enumerate().all(|(i, &s)| i == s) && layout.len() == head_arity as usize {
        return rel.clone();
    }
    // widen, then constrain head col i = source col layout[i], then drop the
    // source block by projecting.
    let src = rel.arity();
    let total = head_arity + src;
    // place source at columns head_arity..head_arity+src
    let mut r = rel.rename(total, |v| Var(v.0 + head_arity));
    for (i, &s) in layout.iter().enumerate() {
        r = r.select(RawAtom::new(
            Term::var(i as u32),
            RawOp::Eq,
            Term::var(head_arity + s as u32),
        ));
    }
    for j in (head_arity..total).rev() {
        r = r.project_out(Var(j));
    }
    r.narrow(head_arity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn points(pairs: &[(i64, i64)]) -> GeneralizedRelation {
        GeneralizedRelation::from_points(
            2,
            pairs
                .iter()
                .map(|&(a, b)| vec![rat(a as i128, 1), rat(b as i128, 1)]),
        )
    }

    fn tc_fixpoint(pairs: &[(i64, i64)]) -> GeneralizedRelation {
        let p = parse_program(
            "tc(x, y) :- e(x, y).\n\
             tc(x, y) :- tc(x, z), e(z, y).\n",
        )
        .unwrap();
        let db = Database::new(Schema::new().with("e", 2)).with("e", points(pairs));
        run(&p, &db).unwrap().database.get("tc").unwrap().clone()
    }

    #[test]
    fn transitive_closure_of_path() {
        let tc = tc_fixpoint(&[(1, 2), (2, 3), (3, 4)]);
        for (a, b) in [(1, 2), (1, 3), (1, 4), (2, 4)] {
            assert!(
                tc.contains_point(&[rat(a, 1), rat(b, 1)]),
                "({a},{b}) missing"
            );
        }
        assert!(!tc.contains_point(&[rat(2, 1), rat(1, 1)]));
        assert!(!tc.contains_point(&[rat(4, 1), rat(1, 1)]));
    }

    #[test]
    fn transitive_closure_of_cycle() {
        let tc = tc_fixpoint(&[(1, 2), (2, 3), (3, 1)]);
        for a in 1..=3i128 {
            for b in 1..=3i128 {
                assert!(tc.contains_point(&[rat(a, 1), rat(b, 1)]));
            }
        }
    }

    #[test]
    fn fixpoint_over_infinite_relation() {
        // e = { (x, y) | 0 <= x < y <= 1 } — an infinite dense edge set; the
        // transitive closure equals e itself (it is already transitive).
        let e = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(1, 1))),
            ],
        );
        let p = parse_program(
            "tc(x, y) :- e(x, y).\n\
             tc(x, y) :- tc(x, z), e(z, y).\n",
        )
        .unwrap();
        let db = Database::new(Schema::new().with("e", 2)).with("e", e.clone());
        let result = run(&p, &db).unwrap();
        let tc = result.database.get("tc").unwrap();
        assert!(tc.equivalent(&e), "TC of a transitive relation is itself");
        assert!(
            result.stats.stages <= 4,
            "should converge fast, took {}",
            result.stats.stages
        );
    }

    #[test]
    fn negation_inflationary() {
        // sink(x): has no outgoing edge.
        let p = parse_program("sink(x) :- e(y, x), not e2(x).\ne2(x) :- e(x, y).\n").unwrap();
        let db = Database::new(Schema::new().with("e", 2)).with("e", points(&[(1, 2), (2, 3)]));
        let result = run(&p, &db).unwrap();
        let sink = result.database.get("sink").unwrap();
        // NOTE inflationary semantics: stage 1 derives e2 = {1,2} and also
        // evaluates sink against the then-empty e2, deriving sink = {2, 3};
        // stage 2 adds 3 (now e2 = {1,2} so "not e2(3)" holds)… facts are
        // never retracted, so sink = {2, 3}. This differs from stratified
        // semantics ({3} only) and is exactly the paper's semantics.
        assert!(sink.contains_point(&[rat(3, 1)]));
        assert!(sink.contains_point(&[rat(2, 1)]));
        assert!(!sink.contains_point(&[rat(1, 1)]));
    }

    #[test]
    fn constraints_in_bodies() {
        // keep only edge pairs within [0, 2.5]
        let p = parse_program("low(x, y) :- e(x, y), y <= 5/2.\n").unwrap();
        let db = Database::new(Schema::new().with("e", 2)).with("e", points(&[(1, 2), (2, 3)]));
        let low = run(&p, &db).unwrap().database.get("low").unwrap().clone();
        assert!(low.contains_point(&[rat(1, 1), rat(2, 1)]));
        assert!(!low.contains_point(&[rat(2, 1), rat(3, 1)]));
    }

    #[test]
    fn repeated_head_vars() {
        // diag(x, x) :- v(x).
        let p = parse_program("diag(x, x) :- v(x).\n").unwrap();
        let v = GeneralizedRelation::from_points(1, vec![vec![rat(1, 1)], vec![rat(2, 1)]]);
        let db = Database::new(Schema::new().with("v", 1)).with("v", v);
        let diag = run(&p, &db).unwrap().database.get("diag").unwrap().clone();
        assert!(diag.contains_point(&[rat(1, 1), rat(1, 1)]));
        assert!(!diag.contains_point(&[rat(1, 1), rat(2, 1)]));
    }

    #[test]
    fn missing_edb_is_error() {
        let p = parse_program("q(x) :- e(x, x).\n").unwrap();
        let db = Database::new(Schema::new());
        assert!(matches!(run(&p, &db), Err(EngineError::BadInput(_))));
    }

    #[test]
    fn stage_count_grows_with_path_length() {
        // naive TC of a path of n edges needs ~n stages: the polynomial
        // fixpoint behaviour Theorem 4.4's easy direction describes.
        let short = {
            let p = parse_program("tc(x,y) :- e(x,y).\ntc(x,y) :- tc(x,z), e(z,y).\n").unwrap();
            let db = Database::new(Schema::new().with("e", 2)).with("e", points(&[(1, 2), (2, 3)]));
            run(&p, &db).unwrap().stats.stages
        };
        let long = {
            let p = parse_program("tc(x,y) :- e(x,y).\ntc(x,y) :- tc(x,z), e(z,y).\n").unwrap();
            let edges: Vec<(i64, i64)> = (1..8).map(|i| (i, i + 1)).collect();
            let db = Database::new(Schema::new().with("e", 2)).with("e", points(&edges));
            run(&p, &db).unwrap().stats.stages
        };
        assert!(long > short);
    }
}
