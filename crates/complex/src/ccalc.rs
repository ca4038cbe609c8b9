//! C-CALC: the calculus for constraint complex objects (§5).
//!
//! Syntax: first-order logic extended with typed set variables and set
//! terms `{(x̄) | φ}`. Semantics: the paper's **active-domain semantics** —
//! "the range of each set variable consists of a finite number of
//! c-objects \[which\] depend on the input database". Concretely, a set
//! variable of type `{Q^k}` ranges over the unions of k-cells of the input
//! database's constant set (quantifying over "cells" in the spirit of
//! \[Col75, KY85\], as the paper notes), and a height-2 variable over finite
//! sets of those.
//!
//! Rational (atomic) quantifiers are evaluated by *cell sampling*: `∃x φ`
//! holds iff `φ` holds at the sample point of some 1-cell over the current
//! constant set (input constants plus previously sampled witnesses) — sound
//! and complete for generic formulas because truth is invariant under
//! automorphisms fixing those constants. For finite (equality-constraint)
//! inputs like the experiment graphs, this semantics is exact.
//!
//! The enumeration of set ranges is `2^#cells` — the hyper-exponential
//! blow-up with set-height that Theorems 5.2–5.5 are about; experiments E5
//! and E6 measure it directly on this evaluator.

use crate::types::CanonicalSet;
use dco_core::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A rational-valued term.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RatTerm {
    /// A rational variable.
    Var(String),
    /// A constant.
    Const(Rational),
}

impl RatTerm {
    /// Variable shorthand.
    pub fn var(name: &str) -> RatTerm {
        RatTerm::Var(name.to_string())
    }

    /// Constant shorthand.
    pub fn cst(c: impl Into<Rational>) -> RatTerm {
        RatTerm::Const(c.into())
    }
}

/// A reference to a set: a variable or a comprehension `{(x̄) | φ}`.
#[derive(Clone, PartialEq, Debug)]
pub enum SetRef {
    /// A set variable (height 1).
    Var(String),
    /// A set comprehension over rational variables.
    Comprehension(Vec<String>, Box<CFormula>),
}

/// A C-CALC formula.
#[derive(Clone, PartialEq, Debug)]
pub enum CFormula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// Dense-order comparison of rational terms.
    Compare(RatTerm, RawOp, RatTerm),
    /// Input predicate over rational terms.
    Pred(String, Vec<RatTerm>),
    /// Tuple membership `(t̄) ∈ S`.
    MemTuple(Vec<RatTerm>, SetRef),
    /// Set membership `S ∈ T` (height-1 variable in height-2 variable).
    MemSet(SetRef, String),
    /// Set equality of two height-1 sets.
    SetEq(SetRef, SetRef),
    /// Negation.
    Not(Box<CFormula>),
    /// Conjunction.
    And(Vec<CFormula>),
    /// Disjunction.
    Or(Vec<CFormula>),
    /// `∃x : Q`.
    ExistsRat(String, Box<CFormula>),
    /// `∀x : Q`.
    ForallRat(String, Box<CFormula>),
    /// `∃S : {Q^k}`.
    ExistsSet(String, u32, Box<CFormula>),
    /// `∀S : {Q^k}`.
    ForallSet(String, u32, Box<CFormula>),
    /// `∃T : {{Q^k}}`.
    ExistsSetSet(String, u32, Box<CFormula>),
    /// `∀T : {{Q^k}}`.
    ForallSetSet(String, u32, Box<CFormula>),
}

impl CFormula {
    /// Convenience: implication.
    pub fn implies(a: CFormula, b: CFormula) -> CFormula {
        CFormula::Or(vec![CFormula::Not(Box::new(a)), b])
    }

    /// The set-height of the formula: the maximum set-nesting of any
    /// quantified variable (0 = plain FO; Theorem 5.1: C-CALC₀ = FO).
    pub fn set_height(&self) -> usize {
        match self {
            CFormula::True
            | CFormula::False
            | CFormula::Compare(..)
            | CFormula::Pred(..)
            | CFormula::MemTuple(..)
            | CFormula::MemSet(..)
            | CFormula::SetEq(..) => 0,
            CFormula::Not(f) => f.set_height(),
            CFormula::And(fs) | CFormula::Or(fs) => {
                fs.iter().map(|f| f.set_height()).max().unwrap_or(0)
            }
            CFormula::ExistsRat(_, f) | CFormula::ForallRat(_, f) => f.set_height(),
            CFormula::ExistsSet(_, _, f) | CFormula::ForallSet(_, _, f) => f.set_height().max(1),
            CFormula::ExistsSetSet(_, _, f) | CFormula::ForallSetSet(_, _, f) => {
                f.set_height().max(2)
            }
        }
    }
}

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CCalcError {
    /// Unbound variable.
    Unbound(String),
    /// Unknown input predicate.
    UnknownPredicate(String),
    /// Active domain exceeds the configured enumeration cap.
    ActiveDomainTooLarge {
        /// What was being enumerated.
        what: String,
        /// Required count (log₂ for set ranges).
        log2_size: u32,
        /// Configured cap (log₂).
        log2_cap: u32,
    },
    /// Arity mismatch in membership or predicate.
    Arity(String),
}

impl fmt::Display for CCalcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CCalcError::Unbound(v) => write!(f, "unbound variable {v}"),
            CCalcError::UnknownPredicate(p) => write!(f, "unknown predicate {p}"),
            CCalcError::ActiveDomainTooLarge {
                what,
                log2_size,
                log2_cap,
            } => write!(
                f,
                "active domain of {what} has 2^{log2_size} elements (cap 2^{log2_cap})"
            ),
            CCalcError::Arity(m) => write!(f, "arity mismatch: {m}"),
        }
    }
}

impl std::error::Error for CCalcError {}

/// Evaluator configuration.
#[derive(Debug, Clone)]
pub struct CCalcConfig {
    /// log₂ cap on enumerated set ranges (default 20 → ≤ ~1M candidates).
    pub log2_max_range: u32,
}

impl Default for CCalcConfig {
    fn default() -> CCalcConfig {
        CCalcConfig { log2_max_range: 20 }
    }
}

/// Statistics from an evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CCalcStats {
    /// Set candidates enumerated across all set quantifiers.
    pub set_candidates: u64,
    /// Rational samples tried across all rational quantifiers.
    pub rat_samples: u64,
}

/// The C-CALC evaluator over a database of flat constraint relations.
pub struct CCalc<'db> {
    db: &'db Database,
    base_consts: Vec<Rational>,
    config: CCalcConfig,
    /// Mutated during evaluation.
    stats: CCalcStats,
}

#[derive(Clone, Default)]
struct Env {
    rat: BTreeMap<String, Rational>,
    set: BTreeMap<String, CanonicalSet>,
    setset: BTreeMap<String, BTreeSet<CanonicalSet>>,
}

impl<'db> CCalc<'db> {
    /// Create an evaluator for a database.
    pub fn new(db: &'db Database) -> CCalc<'db> {
        CCalc::with_config(db, CCalcConfig::default())
    }

    /// Create with explicit configuration.
    pub fn with_config(db: &'db Database, config: CCalcConfig) -> CCalc<'db> {
        let base_consts: Vec<Rational> = db.constants().into_iter().collect();
        CCalc {
            db,
            base_consts,
            config,
            stats: CCalcStats::default(),
        }
    }

    /// The cell space set variables of arity `k` range over.
    pub fn base_space(&self, k: u32) -> CellSpace {
        CellSpace::new(k, self.base_consts.iter().copied())
    }

    /// Number of k-cells — the active domain of a `{Q^k}` variable has
    /// `2^cells(k)` elements (Theorem 5.2's PSPACE side in the flesh).
    pub fn cells(&self, k: u32) -> usize {
        self.base_space(k).enumerate().len()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CCalcStats {
        &self.stats
    }

    /// Extend the constant pool with constants mentioned in a formula.
    /// Rational quantifiers sample one point per 1-cell of the pool, so
    /// completeness requires covering every constant the formula compares
    /// against; the `eval_*` entry points call this automatically.
    fn absorb_formula_consts(&mut self, f: &CFormula) {
        let mut pool: std::collections::BTreeSet<Rational> =
            self.base_consts.iter().copied().collect();
        collect_consts(f, &mut pool);
        self.base_consts = pool.into_iter().collect();
    }

    /// Evaluate a sentence (no free variables).
    pub fn eval_sentence(&mut self, f: &CFormula) -> Result<bool, CCalcError> {
        self.absorb_formula_consts(f);
        let env = Env::default();
        self.eval(f, &env)
    }

    /// Evaluate a set term `{(x̄) | φ}` with one set variable pre-bound —
    /// the iteration step of the fixpoint/while constructs (Theorem 5.6,
    /// see [`crate::fixpoint`]).
    pub fn comprehend_with_set(
        &mut self,
        set_var: &str,
        value: &CanonicalSet,
        vars: &[String],
        body: &CFormula,
    ) -> Result<CanonicalSet, CCalcError> {
        self.absorb_formula_consts(body);
        let mut env = Env::default();
        env.set.insert(set_var.to_string(), value.clone());
        self.comprehend(vars, body, &env)
    }

    /// Evaluate a set term `{(x̄) | φ}` (φ closed except for x̄) into a
    /// generalized relation — the non-boolean query output.
    pub fn eval_set_term(
        &mut self,
        vars: &[String],
        body: &CFormula,
    ) -> Result<GeneralizedRelation, CCalcError> {
        self.absorb_formula_consts(body);
        let env = Env::default();
        let set = self.comprehend(vars, body, &env)?;
        Ok(set.to_relation(&self.base_space(vars.len() as u32)))
    }

    fn eval(&mut self, f: &CFormula, env: &Env) -> Result<bool, CCalcError> {
        match f {
            CFormula::True => Ok(true),
            CFormula::False => Ok(false),
            CFormula::Compare(l, op, r) => {
                let lv = self.rat_value(l, env)?;
                let rv = self.rat_value(r, env)?;
                Ok(op.eval(&lv, &rv))
            }
            CFormula::Pred(name, args) => {
                let rel = self
                    .db
                    .get(name)
                    .ok_or_else(|| CCalcError::UnknownPredicate(name.clone()))?;
                if rel.arity() as usize != args.len() {
                    return Err(CCalcError::Arity(format!(
                        "{name} used at {} (declared {})",
                        args.len(),
                        rel.arity()
                    )));
                }
                let point = args
                    .iter()
                    .map(|a| self.rat_value(a, env))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(rel.contains_point(&point))
            }
            CFormula::MemTuple(terms, set_ref) => {
                let point = terms
                    .iter()
                    .map(|t| self.rat_value(t, env))
                    .collect::<Result<Vec<_>, _>>()?;
                let set = self.resolve_set(set_ref, env)?;
                if set.arity() as usize != point.len() {
                    return Err(CCalcError::Arity(format!(
                        "tuple of arity {} in set of arity {}",
                        point.len(),
                        set.arity()
                    )));
                }
                Ok(set.contains_point(&self.base_space(set.arity()), &point))
            }
            CFormula::MemSet(set_ref, t) => {
                let s = self.resolve_set(set_ref, env)?;
                let family = env
                    .setset
                    .get(t)
                    .ok_or_else(|| CCalcError::Unbound(t.clone()))?;
                Ok(family.contains(&s))
            }
            CFormula::SetEq(a, b) => {
                let sa = self.resolve_set(a, env)?;
                let sb = self.resolve_set(b, env)?;
                Ok(sa == sb)
            }
            CFormula::Not(g) => Ok(!self.eval(g, env)?),
            CFormula::And(gs) => {
                for g in gs {
                    if !self.eval(g, env)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            CFormula::Or(gs) => {
                for g in gs {
                    if self.eval(g, env)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            CFormula::ExistsRat(x, g) => self.quant_rat(x, g, env, true),
            CFormula::ForallRat(x, g) => self.quant_rat(x, g, env, false),
            CFormula::ExistsSet(s, k, g) => self.quant_set(s, *k, g, env, true),
            CFormula::ForallSet(s, k, g) => self.quant_set(s, *k, g, env, false),
            CFormula::ExistsSetSet(t, k, g) => self.quant_setset(t, *k, g, env, true),
            CFormula::ForallSetSet(t, k, g) => self.quant_setset(t, *k, g, env, false),
        }
    }

    fn rat_value(&self, t: &RatTerm, env: &Env) -> Result<Rational, CCalcError> {
        match t {
            RatTerm::Const(c) => Ok(*c),
            RatTerm::Var(v) => env
                .rat
                .get(v)
                .copied()
                .ok_or_else(|| CCalcError::Unbound(v.clone())),
        }
    }

    fn resolve_set(&mut self, r: &SetRef, env: &Env) -> Result<CanonicalSet, CCalcError> {
        match r {
            SetRef::Var(v) => env
                .set
                .get(v)
                .cloned()
                .ok_or_else(|| CCalcError::Unbound(v.clone())),
            SetRef::Comprehension(vars, body) => self.comprehend(vars, body, env),
        }
    }

    /// `{(x̄) | φ}` as a union of base cells: include a cell iff φ holds at
    /// its sample point.
    fn comprehend(
        &mut self,
        vars: &[String],
        body: &CFormula,
        env: &Env,
    ) -> Result<CanonicalSet, CCalcError> {
        let k = vars.len() as u32;
        let space = self.base_space(k);
        let cells = space.enumerate();
        let mut members = BTreeSet::new();
        for (i, cell) in cells.iter().enumerate() {
            let sample = space.sample(cell);
            let mut env2 = env.clone();
            for (v, val) in vars.iter().zip(&sample) {
                env2.rat.insert(v.clone(), *val);
            }
            if self.eval(body, &env2)? {
                members.insert(i);
            }
        }
        Ok(CanonicalSet::from_cells(k, members))
    }

    /// Rational quantification by 1-cell sampling over the input constants
    /// extended with the rationals already pinned in the environment.
    fn quant_rat(
        &mut self,
        x: &str,
        body: &CFormula,
        env: &Env,
        existential: bool,
    ) -> Result<bool, CCalcError> {
        let consts: BTreeSet<Rational> = self
            .base_consts
            .iter()
            .copied()
            .chain(env.rat.values().copied())
            .collect();
        let space = CellSpace::new(1, consts);
        for cell in space.enumerate() {
            self.stats.rat_samples += 1;
            let sample = space.sample(&cell)[0];
            let mut env2 = env.clone();
            env2.rat.insert(x.to_string(), sample);
            let v = self.eval(body, &env2)?;
            if v == existential {
                return Ok(existential);
            }
        }
        Ok(!existential)
    }

    /// Set quantification: enumerate all unions of k-cells (2^cells).
    fn quant_set(
        &mut self,
        s: &str,
        k: u32,
        body: &CFormula,
        env: &Env,
        existential: bool,
    ) -> Result<bool, CCalcError> {
        let n = self.cells(k);
        self.check_range(n, &format!("set variable {s} : {{Q^{k}}}"))?;
        for mask in 0u64..(1u64 << n) {
            self.stats.set_candidates += 1;
            let cells: BTreeSet<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let mut env2 = env.clone();
            env2.set
                .insert(s.to_string(), CanonicalSet::from_cells(k, cells));
            let v = self.eval(body, &env2)?;
            if v == existential {
                return Ok(existential);
            }
        }
        Ok(!existential)
    }

    /// Height-2 quantification: all finite families of height-1 sets —
    /// 2^(2^cells) candidates; only tiny inputs are feasible, which is the
    /// hierarchy theorem made tangible.
    fn quant_setset(
        &mut self,
        t: &str,
        k: u32,
        body: &CFormula,
        env: &Env,
        existential: bool,
    ) -> Result<bool, CCalcError> {
        let n = self.cells(k);
        self.check_range(n, &format!("inner sets of {t}"))?;
        let inner: u64 = 1u64 << n;
        if inner > 20 {
            return Err(CCalcError::ActiveDomainTooLarge {
                what: format!("set-of-sets variable {t} : {{{{Q^{k}}}}}"),
                log2_size: inner.min(u32::MAX as u64) as u32,
                log2_cap: 20,
            });
        }
        for family_mask in 0u64..(1u64 << inner) {
            self.stats.set_candidates += 1;
            let family: BTreeSet<CanonicalSet> = (0..inner)
                .filter(|i| family_mask & (1u64 << i) != 0)
                .map(|mask| {
                    let cells: BTreeSet<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
                    CanonicalSet::from_cells(k, cells)
                })
                .collect();
            let mut env2 = env.clone();
            env2.setset.insert(t.to_string(), family);
            let v = self.eval(body, &env2)?;
            if v == existential {
                return Ok(existential);
            }
        }
        Ok(!existential)
    }

    fn check_range(&self, n_cells: usize, what: &str) -> Result<(), CCalcError> {
        if n_cells as u32 > self.config.log2_max_range {
            return Err(CCalcError::ActiveDomainTooLarge {
                what: what.to_string(),
                log2_size: n_cells as u32,
                log2_cap: self.config.log2_max_range,
            });
        }
        Ok(())
    }
}

/// Collect the rational constants mentioned anywhere in a formula.
fn collect_consts(f: &CFormula, out: &mut std::collections::BTreeSet<Rational>) {
    let mut terms = |ts: &[RatTerm]| {
        for t in ts {
            if let RatTerm::Const(c) = t {
                out.insert(*c);
            }
        }
    };
    match f {
        CFormula::True | CFormula::False => {}
        CFormula::Compare(l, _, r) => terms(&[l.clone(), r.clone()]),
        CFormula::Pred(_, args) | CFormula::MemTuple(args, _) => {
            terms(args);
            if let CFormula::MemTuple(_, SetRef::Comprehension(_, body)) = f {
                collect_consts(body, out);
            }
        }
        CFormula::MemSet(s, _) => {
            if let SetRef::Comprehension(_, body) = s {
                collect_consts(body, out);
            }
        }
        CFormula::SetEq(a, b) => {
            for r in [a, b] {
                if let SetRef::Comprehension(_, body) = r {
                    collect_consts(body, out);
                }
            }
        }
        CFormula::Not(g) => collect_consts(g, out),
        CFormula::And(gs) | CFormula::Or(gs) => {
            for g in gs {
                collect_consts(g, out);
            }
        }
        CFormula::ExistsRat(_, g)
        | CFormula::ForallRat(_, g)
        | CFormula::ExistsSet(_, _, g)
        | CFormula::ForallSet(_, _, g)
        | CFormula::ExistsSetSet(_, _, g)
        | CFormula::ForallSetSet(_, _, g) => collect_consts(g, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CFormula as F;

    fn finite_graph(edges: &[(i64, i64)]) -> Database {
        let e = GeneralizedRelation::from_points(
            2,
            edges
                .iter()
                .map(|&(a, b)| vec![rat(a as i128, 1), rat(b as i128, 1)]),
        );
        Database::new(Schema::new().with("e", 2)).with("e", e)
    }

    /// reach(a, b) := ∀S [ a∈S ∧ ∀u∀v (u∈S ∧ e(u,v) → v∈S) → b∈S ]
    /// — transitive reachability in C-CALC₁ (the Theorem 5.2 lower-bound
    /// construction: PTIME queries via one level of set nesting).
    fn reach(a: i64, b: i64) -> CFormula {
        let s_closed = F::ForallRat(
            "u".into(),
            Box::new(F::ForallRat(
                "v".into(),
                Box::new(CFormula::implies(
                    F::And(vec![
                        F::MemTuple(vec![RatTerm::var("u")], SetRef::Var("S".into())),
                        F::Pred("e".into(), vec![RatTerm::var("u"), RatTerm::var("v")]),
                    ]),
                    F::MemTuple(vec![RatTerm::var("v")], SetRef::Var("S".into())),
                )),
            )),
        );
        F::ForallSet(
            "S".into(),
            1,
            Box::new(CFormula::implies(
                F::And(vec![
                    F::MemTuple(
                        vec![RatTerm::cst(rat(a as i128, 1))],
                        SetRef::Var("S".into()),
                    ),
                    s_closed,
                ]),
                F::MemTuple(
                    vec![RatTerm::cst(rat(b as i128, 1))],
                    SetRef::Var("S".into()),
                ),
            )),
        )
    }

    #[test]
    fn set_heights_of_formulas() {
        assert_eq!(reach(1, 2).set_height(), 1);
        let fo = F::ExistsRat(
            "x".into(),
            Box::new(F::Compare(
                RatTerm::var("x"),
                RawOp::Lt,
                RatTerm::cst(rat(1, 1)),
            )),
        );
        assert_eq!(fo.set_height(), 0);
    }

    #[test]
    fn reachability_positive() {
        let db = finite_graph(&[(1, 2), (2, 3)]);
        let mut ev = CCalc::new(&db);
        assert!(ev.eval_sentence(&reach(1, 3)).unwrap());
        assert!(ev.eval_sentence(&reach(1, 2)).unwrap());
        assert!(ev.eval_sentence(&reach(2, 3)).unwrap());
    }

    #[test]
    fn reachability_negative() {
        let db = finite_graph(&[(1, 2), (3, 2)]);
        let mut ev = CCalc::new(&db);
        assert!(!ev.eval_sentence(&reach(1, 3)).unwrap());
        assert!(!ev.eval_sentence(&reach(2, 1)).unwrap());
    }

    #[test]
    fn fo_fragment_sentences() {
        let db = finite_graph(&[(1, 2)]);
        let mut ev = CCalc::new(&db);
        // ∃x∃y e(x,y)
        let f = F::ExistsRat(
            "x".into(),
            Box::new(F::ExistsRat(
                "y".into(),
                Box::new(F::Pred(
                    "e".into(),
                    vec![RatTerm::var("x"), RatTerm::var("y")],
                )),
            )),
        );
        assert!(ev.eval_sentence(&f).unwrap());
        // ∀x∀y (e(x,y) → x < y)
        let g = F::ForallRat(
            "x".into(),
            Box::new(F::ForallRat(
                "y".into(),
                Box::new(CFormula::implies(
                    F::Pred("e".into(), vec![RatTerm::var("x"), RatTerm::var("y")]),
                    F::Compare(RatTerm::var("x"), RawOp::Lt, RatTerm::var("y")),
                )),
            )),
        );
        assert!(ev.eval_sentence(&g).unwrap());
    }

    #[test]
    fn rational_quantifier_uses_gap_witnesses() {
        // density: between the two constants of the db there is a point
        let db = finite_graph(&[(0, 10)]);
        let mut ev = CCalc::new(&db);
        let f = F::ExistsRat(
            "x".into(),
            Box::new(F::And(vec![
                F::Compare(RatTerm::cst(rat(0, 1)), RawOp::Lt, RatTerm::var("x")),
                F::Compare(RatTerm::var("x"), RawOp::Lt, RatTerm::cst(rat(10, 1))),
            ])),
        );
        assert!(ev.eval_sentence(&f).unwrap());
        // nested: ∃x∃y 0 < x < y < 10 — needs the env-extended constant set
        let g = F::ExistsRat(
            "x".into(),
            Box::new(F::And(vec![
                F::Compare(RatTerm::cst(rat(0, 1)), RawOp::Lt, RatTerm::var("x")),
                F::ExistsRat(
                    "y".into(),
                    Box::new(F::And(vec![
                        F::Compare(RatTerm::var("x"), RawOp::Lt, RatTerm::var("y")),
                        F::Compare(RatTerm::var("y"), RawOp::Lt, RatTerm::cst(rat(10, 1))),
                    ])),
                ),
            ])),
        );
        assert!(ev.eval_sentence(&g).unwrap());
    }

    #[test]
    fn set_term_output() {
        // {x | ∃y e(x,y)} — the domain of e
        let db = finite_graph(&[(1, 2), (3, 4)]);
        let mut ev = CCalc::new(&db);
        let body = F::ExistsRat(
            "y".into(),
            Box::new(F::Pred(
                "e".into(),
                vec![RatTerm::var("x"), RatTerm::var("y")],
            )),
        );
        let rel = ev.eval_set_term(&["x".to_string()], &body).unwrap();
        assert!(rel.contains_point(&[rat(1, 1)]));
        assert!(rel.contains_point(&[rat(3, 1)]));
        assert!(!rel.contains_point(&[rat(2, 1)]));
        assert!(!rel.contains_point(&[rat(99, 1)]));
    }

    #[test]
    fn setset_quantifier_tiny() {
        // Over a db with a single constant (3 one-cells): ∃T ∃S (S ∈ T)
        let db = finite_graph(&[(1, 1)]);
        let mut ev = CCalc::new(&db);
        let f = F::ExistsSetSet(
            "T".into(),
            1,
            Box::new(F::ExistsSet(
                "S".into(),
                1,
                Box::new(F::MemSet(SetRef::Var("S".into()), "T".into())),
            )),
        );
        assert!(ev.eval_sentence(&f).unwrap());
        // ∀T ∀S (S ∈ T) is false (empty family)
        let g = F::ForallSetSet(
            "T".into(),
            1,
            Box::new(F::ForallSet(
                "S".into(),
                1,
                Box::new(F::MemSet(SetRef::Var("S".into()), "T".into())),
            )),
        );
        assert!(!ev.eval_sentence(&g).unwrap());
    }

    #[test]
    fn active_domain_cap_enforced() {
        let db = finite_graph(&[(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]);
        let mut ev = CCalc::with_config(&db, CCalcConfig { log2_max_range: 4 });
        // 12 constants → 25 one-cells > 2^4 cap
        let f = F::ExistsSet("S".into(), 1, Box::new(F::True));
        assert!(matches!(
            ev.eval_sentence(&f),
            Err(CCalcError::ActiveDomainTooLarge { .. })
        ));
    }

    #[test]
    fn formula_constants_extend_the_sample_pool() {
        // db constants {1}; the formula compares against 5, which must be
        // in the quantifier sample pool for ∃x (x > 5) to be decided
        // correctly (regression: pool used to be db-only).
        let db = finite_graph(&[(1, 1)]);
        let mut ev = CCalc::new(&db);
        let f = F::ExistsRat(
            "x".into(),
            Box::new(F::Compare(
                RatTerm::var("x"),
                RawOp::Gt,
                RatTerm::cst(rat(5, 1)),
            )),
        );
        assert!(ev.eval_sentence(&f).unwrap());
        // and the dual: ∀x (x <= 5) must be false
        let g = F::ForallRat(
            "x".into(),
            Box::new(F::Compare(
                RatTerm::var("x"),
                RawOp::Le,
                RatTerm::cst(rat(5, 1)),
            )),
        );
        let mut ev2 = CCalc::new(&db);
        assert!(!ev2.eval_sentence(&g).unwrap());
    }

    #[test]
    fn stats_accumulate() {
        let db = finite_graph(&[(1, 2)]);
        let mut ev = CCalc::new(&db);
        let _ = ev.eval_sentence(&reach(1, 2)).unwrap();
        assert!(ev.stats().set_candidates > 0);
        assert!(ev.stats().rat_samples > 0);
    }
}
