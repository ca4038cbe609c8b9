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
//!
//! The stage loop is the paper's `R_{i+1} = R_i ∪ Δ(R_i)` as one fold:
//! every rule body runs through [`eval_in_ctx`] and
//! [`Relation::project_onto`], and [`Relation::absorb`] folds each head's
//! facts into the store in place, returning what they added. A stage
//! changed the store iff some `absorb` returned something. Semi-naive
//! stages (see [`EngineConfig::use_deltas`]) read those returns as delta
//! relations, named outside the program's predicates.

use crate::ast::{Literal, Program, Rule};
use dco_core::guard::{probe, stage_completed, ProbeSite};
use dco_core::prelude::*;
use dco_fo::eval_in_ctx;
use dco_logic::Formula;
use std::collections::BTreeMap;
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
    /// (semi-naive, default true). Applied only when no rule negates an
    /// IDB predicate: the inflationary same-stage semantics of §4 makes
    /// deltas unsound under such negation (a negated literal can newly
    /// *fail*), so those programs silently use full naive stages and keep
    /// the exact paper semantics. Negated EDB predicates never change
    /// during a run, so the rule bodies stay monotone in the IDB and
    /// deltas stay sound — which always holds inside one stratum of a
    /// stratified run.
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
    // Delta restriction is sound only while no IDB predicate is negated
    // (see [`EngineConfig::use_deltas`]).
    let negates_idb = program.rules.iter().any(|r| {
        r.body
            .iter()
            .any(|l| matches!(l, Literal::Neg(name, _) if idb.contains(name)))
    });
    let use_deltas = config.use_deltas && !negates_idb;
    for p in &idb {
        if input.get(p).is_some() {
            return Err(EngineError::BadInput(format!(
                "IDB relation {p} must not be present in the input"
            )));
        }
        schema = schema.with(p, arities[p]);
    }
    // The program's predicates are the whole schema so far, so delta names
    // chosen outside that set cannot shadow an input relation.
    let deltas = if use_deltas {
        delta_names(&idb, arities.keys())
    } else {
        BTreeMap::new()
    };
    let output_schema = schema.clone();
    for (p, d) in &deltas {
        schema = schema.with(d, arities[p]);
    }
    let mut store = Database::new(schema);
    for p in program.edb_predicates() {
        // INVARIANT: `input.get(&p)` was verified non-None (with the right
        // arity) in the EDB validation loop above, and the schema entry was
        // added in the same pass — both expects are unreachable.
        store
            .set_shared(&p, input.get_shared(&p).expect("checked above"))
            .expect("schema matches");
    }

    let compiled: Vec<Compiled> = program.rules.iter().map(compile_rule).collect();
    // Delta-restricted variants: one per positive IDB body literal, with
    // that literal redirected to the predicate's delta relation. A fact
    // new at stage n must use at least one fact that was new at stage
    // n-1, so the union over variants derives everything the full rule
    // would — the classical semi-naive argument, unchanged by constraint
    // relations. Without deltas, `deltas` is empty and so is this.
    let mut delta_compiled = Vec::new();
    for r in &program.rules {
        for (i, lit) in r.body.iter().enumerate() {
            let Literal::Pos(name, _) = lit else { continue };
            let Some(delta) = deltas.get(name) else {
                continue;
            };
            let mut variant = r.clone();
            if let Literal::Pos(n, _) = &mut variant.body[i] {
                n.clone_from(delta);
            }
            delta_compiled.push(Compiled {
                display: r.to_string(),
                ..compile_rule(&variant)
            });
        }
    }

    let mut stats = EngineStats::default();
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
        // Every rule reads the same stage store (inflationary semantics);
        // their facts are folded in below, after the whole stage.
        stats.body_evals += stage_rules.len();
        let mut heads: BTreeMap<&str, GeneralizedRelation> = BTreeMap::new();
        for rule in stage_rules {
            let expanded = eval_compiled(&store, rule)?;
            heads
                .entry(rule.head.as_str())
                .and_modify(|d| *d = d.union(&expanded))
                .or_insert(expanded);
        }
        // Fold each head's facts into the store; what they added is the
        // predicate's delta for the next stage's restricted variants.
        // INVARIANT for the expects below: every IDB predicate and its
        // delta relation are in the schema, and `absorb` keeps the
        // declared arity — `update` and `set` cannot fail for them.
        let mut changed = false;
        for p in &idb {
            let facts = heads
                .remove(p.as_str())
                .unwrap_or_else(|| GeneralizedRelation::empty(arities[p]));
            let added = store
                .update(p, |rel| rel.absorb(&facts))
                .expect("idb in schema");
            changed |= !added.is_empty();
            if let Some(delta) = deltas.get(p) {
                store.set(delta, added).expect("schema matches");
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
    // The fixpoint database shares every relation with the working store.
    let mut database = Database::new(output_schema.clone());
    for (p, _) in output_schema.relations() {
        database
            .set_shared(p, store.get_shared(p).expect("in store"))
            .expect("schema matches");
    }
    Ok(FixpointResult { database, stats })
}

/// The relation names that hold each IDB predicate's facts of the last
/// stage: the predicate with one more trailing `'` than any predicate of
/// the program ends in, so no delta name is a predicate and distinct
/// predicates get distinct names.
fn delta_names<'a>(
    idb: &[String],
    predicates: impl Iterator<Item = &'a String>,
) -> BTreeMap<String, String> {
    let primes = predicates
        .map(|p| p.len() - p.trim_end_matches('\'').len())
        .max()
        .unwrap_or(0);
    let suffix = "'".repeat(primes + 1);
    idb.iter()
        .map(|p| (p.clone(), format!("{p}{suffix}")))
        .collect()
}

/// A rule precompiled for stage evaluation: body formula, evaluation
/// context (head vars first) and the column layout mapping
/// head positions to context columns (repeated head variables share one).
struct Compiled {
    head: String,
    ctx: Vec<String>,
    body: Formula,
    layout: Vec<u32>,
    display: String,
}

fn compile_rule(r: &Rule) -> Compiled {
    let body = Formula::And(r.body.iter().map(Literal::to_formula).collect());
    // Context: head vars first (in head order), then remaining body
    // vars sorted. Head vars may repeat — deduplicate keeping first
    // occurrence; `layout` maps each head position to its column.
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
    let layout: Vec<u32> = r
        .head_vars
        .iter()
        .map(|v| {
            ctx.iter()
                .position(|c| c == v)
                .expect("head var in context") as u32
        })
        .collect();
    Compiled {
        head: r.head.clone(),
        ctx,
        body,
        layout,
        display: r.to_string(),
    }
}

/// Evaluate one compiled rule against the store, returning the derived
/// head relation (full head arity). Read-only with respect to the store,
/// so stage rules may run concurrently.
fn eval_compiled(store: &Database, rule: &Compiled) -> Result<GeneralizedRelation, EngineError> {
    let rel = eval_in_ctx(store, &rule.body, &rule.ctx).map_err(|source| EngineError::Body {
        rule: rule.display.clone(),
        source,
    })?;
    // Project away the non-head columns and lay the rest out in head
    // order; a repeated head variable reads its first column again.
    Ok(rel.project_onto(&rule.layout))
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
    fn edb_negation_keeps_deltas() {
        // Paths that avoid the blocked nodes of `b`: only an EDB predicate
        // is negated, so the recursive rule runs on deltas (one variant per
        // later stage instead of both rules) and agrees with naive stages.
        let p = parse_program(
            "ok(x, y) :- e(x, y), not b(x).\n\
             ok(x, y) :- ok(x, z), e(z, y), not b(y).\n",
        )
        .unwrap();
        let edges: Vec<(i64, i64)> = (1..8).map(|i| (i, i + 1)).collect();
        let b = GeneralizedRelation::from_points(1, vec![vec![rat(5, 1)]]);
        let db = Database::new(Schema::new().with("e", 2).with("b", 1))
            .with("e", points(&edges))
            .with("b", b);
        let naive = EngineConfig {
            use_deltas: false,
            ..EngineConfig::default()
        };
        let delta = run(&p, &db).unwrap();
        let full = run_with(&p, &db, &naive).unwrap();
        let ok = delta.database.get("ok").unwrap();
        assert!(ok.equivalent(full.database.get("ok").unwrap()));
        assert!(ok.contains_point(&[rat(1, 1), rat(4, 1)]));
        assert!(!ok.contains_point(&[rat(1, 1), rat(6, 1)]));
        assert!(
            delta.stats.body_evals < full.stats.body_evals,
            "deltas off: {} vs {} body evaluations",
            delta.stats.body_evals,
            full.stats.body_evals
        );
    }

    #[test]
    fn delta_relations_never_shadow_input() {
        // An input relation may carry any name a delta relation could
        // get; the deltas must not overwrite it. `tc'` (a name the parser
        // cannot produce) is a second recursive predicate named like a
        // delta relation of `tc`.
        let parsed = parse_program(
            "tc(x, y) :- __delta_tc(x, y).\n\
             tc(x, y) :- tc(x, z), __delta_tc(z, y).\n\
             primed(x, y) :- __delta_tc(x, y).\n\
             primed(x, y) :- primed(x, z), __delta_tc(z, y).\n",
        )
        .unwrap();
        let prime = |name: &mut String| {
            if name == "primed" {
                *name = "tc'".into();
            }
        };
        let mut rules = parsed.rules;
        for r in &mut rules {
            prime(&mut r.head);
            for lit in &mut r.body {
                if let Literal::Pos(name, _) = lit {
                    prime(name);
                }
            }
        }
        let p = Program::new(rules).unwrap();
        let db = Database::new(Schema::new().with("__delta_tc", 2))
            .with("__delta_tc", points(&[(1, 2), (2, 3), (3, 4)]));
        let naive = EngineConfig {
            use_deltas: false,
            ..EngineConfig::default()
        };
        let delta = run(&p, &db).unwrap().database;
        let full = run_with(&p, &db, &naive).unwrap().database;
        assert!(delta.equivalent(&full));
        assert_eq!(delta.schema(), full.schema());
        for name in ["tc", "tc'"] {
            let tc = delta.get(name).unwrap();
            assert!(tc.contains_point(&[rat(1, 1), rat(4, 1)]), "{name}: {tc}");
        }
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
    fn symbolic_head_and_body_shapes() {
        // Interval and box relations, so no rule takes the point-set path:
        // a repeated head variable, a repeated body variable and a
        // constant body argument, checked at a sample point of every cell.
        let p = parse_program(
            "diag(x, x) :- v(x).\n\
             self(x) :- e(x, x).\n\
             from(y) :- e(2, y).\n",
        )
        .unwrap();
        let rel = |src: &str, vars: &[&str]| {
            let ctx: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
            let f = dco_logic::parse_formula(src).unwrap();
            eval_in_ctx(&Database::new(Schema::new()), &f, &ctx).unwrap()
        };
        let v = rel("0 <= x & x < 4", &["x"]);
        let e = rel(
            "(0 <= x & x <= 3 & 1 <= y & y < 5) | (1 < x & x < y & y <= 7)",
            &["x", "y"],
        );
        let db = Database::new(Schema::new().with("v", 1).with("e", 2))
            .with("v", v.clone())
            .with("e", e.clone());
        let out = run(&p, &db).unwrap().database;
        let holds = |name: &str, pt: &[Rational]| out.get(name).unwrap().contains_point(pt);
        let space = CellSpace::new(2, [0, 1, 2, 3, 4, 5, 7].map(|n| rat(n, 1)));
        for cell in space.enumerate() {
            let pt = space.sample(&cell);
            let (a, b) = (pt[0], pt[1]);
            let diag = a == b && v.contains_point(&[a]);
            assert_eq!(holds("diag", &pt), diag, "diag at {pt:?}");
            let slf = e.contains_point(&[a, a]);
            assert_eq!(holds("self", &[a]), slf, "self at {a}");
            let from = e.contains_point(&[rat(2, 1), a]);
            assert_eq!(holds("from", &[a]), from, "from at {a}");
        }
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
