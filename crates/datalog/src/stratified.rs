//! Stratified evaluation.
//!
//! The paper's semantics is inflationary (negation read against the
//! current stage); the more common *stratified* semantics — evaluate each
//! negation only after its target predicate is fully computed — is what the
//! library programs (connectivity, parity) naturally want, and §6 of the
//! paper contrasts the two (e.g. \[Rev93\]: stratified Datalog¬ over discrete
//! gap-orders is Turing-complete, while Theorem 4.4 pins the inflationary
//! dense-order case at PTIME).
//!
//! We implement stratification on top of the inflationary engine: split
//! the program into strata along its predicate dependency graph (rejecting
//! negative cycles), then run each stratum to its fixpoint with all earlier
//! strata's results as extensional input. For stratifiable programs over
//! dense-order databases this computes the standard stratified model, and
//! each stratum inherits the engine's closure and termination guarantees.

use crate::ast::{Program, Rule};
use crate::engine::{run_with, EngineConfig, FixpointResult};
use crate::guarded::TryRunError;
use dco_analysis::DepGraph;
use dco_core::prelude::Database;
use std::fmt;

/// Why a program has no stratification.
#[derive(Debug)]
pub enum StratifyError {
    /// A dependency cycle passes through negation. The payload is the full
    /// cycle path, first and last predicate equal (`[p, q, …, p]`).
    NegativeCycle(Vec<String>),
}

impl fmt::Display for StratifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StratifyError::NegativeCycle(path) => {
                write!(
                    f,
                    "program is not stratifiable: negative cycle {}",
                    path.join(" -> ")
                )
            }
        }
    }
}

impl std::error::Error for StratifyError {}

/// Split a program into an ordered list of sub-programs, one per stratum
/// of its predicate dependency graph ([`dco_analysis::DepGraph`]).
pub fn stratify(program: &Program) -> Result<Vec<Program>, StratifyError> {
    let stratum = DepGraph::of_program(program)
        .strata()
        .map_err(StratifyError::NegativeCycle)?;
    let max = stratum.values().copied().max().unwrap_or(0);
    let mut layers: Vec<Vec<Rule>> = vec![Vec::new(); max + 1];
    for rule in &program.rules {
        layers[stratum[&rule.head]].push(rule.clone());
    }
    // INVARIANT: every subset of a valid program's rules is itself a valid
    // program (validity is per-rule: range-restriction and arity agreement),
    // so the expect below is unreachable.
    Ok(layers
        .into_iter()
        .filter(|rules| !rules.is_empty())
        .map(|rules| Program::new(rules).expect("stratum of a valid program is valid"))
        .collect())
}

/// Run a program under stratified semantics: each stratum to its
/// fixpoint, with all earlier strata's results as its input.
pub(crate) fn run_stratified(
    program: &Program,
    input: &Database,
    config: &EngineConfig,
) -> Result<FixpointResult, TryRunError> {
    let strata = stratify(program).map_err(TryRunError::Unstratifiable)?;
    let mut store = input.clone();
    let mut stats = Vec::with_capacity(strata.len());
    for stratum in &strata {
        // Guard probe: one hit per stratum boundary (each stratum's inner
        // stages probe again inside `run_with`).
        dco_core::guard::probe(dco_core::guard::ProbeSite::FixpointStage);
        let fix = run_with(stratum, &store, config).map_err(TryRunError::Invalid)?;
        stats.extend(fix.stats);
        // Fold the stratum's IDB results into the store as new EDB facts,
        // sharing every relation with `store` and the stratum's result.
        // INVARIANT for the expects below: the engine's output database
        // always contains every IDB predicate of the program it ran, and
        // `next`'s schema is built right here from those same relations —
        // neither `get_shared` nor `set_shared` can fail.
        let idb = stratum.idb_predicates();
        let mut schema = store.schema().clone();
        for p in &idb {
            let rel = fix.database.get(p).expect("stratum IDB");
            schema = schema.with(p, rel.arity());
        }
        let mut next = Database::new(schema);
        for (name, _) in store.relations() {
            next.set_shared(name, store.get_shared(name).expect("in store"))
                .expect("schema matches");
        }
        for p in &idb {
            next.set_shared(p, fix.database.get_shared(p).expect("stratum IDB"))
                .expect("schema matches");
        }
        store = next;
        dco_core::guard::stage_completed();
    }
    Ok(FixpointResult {
        database: store,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use dco_core::prelude::*;

    fn run_stratified(p: &Program, db: &Database) -> Result<FixpointResult, TryRunError> {
        super::run_stratified(p, db, &EngineConfig::default())
    }

    fn points(pairs: &[(i64, i64)]) -> GeneralizedRelation {
        GeneralizedRelation::from_points(
            2,
            pairs
                .iter()
                .map(|&(a, b)| vec![rat(a as i128, 1), rat(b as i128, 1)]),
        )
    }

    #[test]
    fn strata_ordering() {
        let p = parse_program(
            "r(x, y) :- e(x, y).\n\
             r(x, y) :- r(x, z), e(z, y).\n\
             unreach(x, y) :- v(x), v(y), not r(x, y).\n",
        )
        .unwrap();
        let strata = stratify(&p).unwrap();
        assert_eq!(strata.len(), 2);
        assert_eq!(strata[0].idb_predicates(), vec!["r"]);
        assert_eq!(strata[1].idb_predicates(), vec!["unreach"]);
    }

    #[test]
    fn negative_cycle_rejected_with_path() {
        let p = parse_program(
            "a(x) :- v(x), not b(x).\n\
             b(x) :- v(x), not a(x).\n",
        )
        .unwrap();
        let StratifyError::NegativeCycle(path) = stratify(&p).unwrap_err();
        assert_eq!(path.first(), path.last());
        assert_eq!(path.len(), 3, "a -> b -> a, got {path:?}");
        assert!(path.contains(&"a".to_string()) && path.contains(&"b".to_string()));
        let shown = StratifyError::NegativeCycle(path).to_string();
        assert!(shown.contains(" -> "), "rendered path: {shown}");
    }

    #[test]
    fn stratified_negation_reads_fixpoint() {
        // unreach must be computed against the FULL transitive closure —
        // the case where inflationary same-stage negation differs.
        let p = parse_program(
            "r(x, y) :- e(x, y).\n\
             r(x, y) :- r(x, z), e(z, y).\n\
             unreach(x, y) :- v(x), v(y), not r(x, y).\n",
        )
        .unwrap();
        let v = GeneralizedRelation::from_points(
            1,
            (1..=3).map(|i| vec![rat(i, 1)]).collect::<Vec<_>>(),
        );
        let db = Database::new(Schema::new().with("e", 2).with("v", 1))
            .with("e", points(&[(1, 2), (2, 3)]))
            .with("v", v);
        let out = run_stratified(&p, &db).unwrap();
        let unreach = out.database.get("unreach").unwrap();
        // 1 reaches 2 and 3 (transitively) — only (2,1),(3,1),(3,2),(2,2)...
        assert!(!unreach.contains_point(&[rat(1, 1), rat(3, 1)])); // reachable!
        assert!(unreach.contains_point(&[rat(3, 1), rat(1, 1)]));
        assert!(unreach.contains_point(&[rat(2, 1), rat(1, 1)]));
    }

    #[test]
    fn positive_recursion_single_stratum() {
        let p = parse_program(
            "tc(x, y) :- e(x, y).\n\
             tc(x, y) :- tc(x, z), e(z, y).\n",
        )
        .unwrap();
        assert_eq!(stratify(&p).unwrap().len(), 1);
        let db = Database::new(Schema::new().with("e", 2)).with("e", points(&[(1, 2), (2, 3)]));
        let out = run_stratified(&p, &db).unwrap();
        assert!(out
            .database
            .get("tc")
            .unwrap()
            .contains_point(&[rat(1, 1), rat(3, 1)]));
    }

    #[test]
    fn three_strata_chain() {
        let p = parse_program(
            "a(x) :- v(x).\n\
             b(x) :- v(x), not a(x).\n\
             c(x) :- v(x), not b(x).\n",
        )
        .unwrap();
        let strata = stratify(&p).unwrap();
        assert_eq!(strata.len(), 3);
        let v = GeneralizedRelation::from_points(1, vec![vec![rat(1, 1)]]);
        let db = Database::new(Schema::new().with("v", 1)).with("v", v);
        let out = run_stratified(&p, &db).unwrap();
        assert!(!out.database.get("b").unwrap().contains_point(&[rat(1, 1)]));
        assert!(out.database.get("c").unwrap().contains_point(&[rat(1, 1)]));
    }
}
