//! Relation statistics by abstract interpretation of stored constraints.
//!
//! The planner needs to know, *before* evaluation, roughly how wide each
//! stored relation's DNF is and where its tuples live on each axis. This
//! module abstract-interprets a [`GeneralizedRelation`] into a [`RelStats`]
//! summary built entirely from information the kernel already maintains
//! incrementally at insert time:
//!
//! * each tuple's per-variable interval bounding box
//!   ([`dco_core::sat::VarBox`], the implied constant bounds kept
//!   atom-by-atom by the tuple's `SatState`) feeds a per-column
//!   **interval-bound histogram**;
//! * tuple, atom and distinct-constant counts come from the tuple kernel's
//!   own accessors.
//!
//! A [`DbStats`] aggregates one [`RelStats`] per relation and supports
//! relation-granular incremental update — `dco-store` snapshots one per
//! generation, recomputing only the relation a write touched. Everything
//! here is a pure function of relation *content*, so stats computed after
//! a WAL replay are identical (to the byte, under the canonical rendering)
//! to the stats computed before the crash.
//!
//! The histogram is comparison-only: bucket boundaries are chosen from the
//! distinct bound constants actually mentioned, and counting is done by
//! interval overlap — no rational arithmetic, hence no overflow and full
//! determinism.

use dco_core::prelude::{Database, GeneralizedRelation, Rational, VarBox};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Maximum number of histogram buckets per column (boundaries are one
/// fewer). Small on purpose: the planner needs shape, not precision, and
/// store generations snapshot one histogram set per relation.
pub const HISTOGRAM_BUCKETS: usize = 8;

/// Interval-bound histogram for one column of a relation.
///
/// `boundaries` splits Q into `boundaries.len() + 1` cells
/// `(-∞, b₀), [b₀, b₁), …, [b_last, +∞)`; `counts[i]` is the number of
/// stored tuples whose bounding box *overlaps* cell `i` (a tuple with no
/// direct bound on the column overlaps every cell, so counts sum to more
/// than the tuple count in general — they are overlap counters, which is
/// exactly the shape selectivity estimation needs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ColumnStats {
    /// Sorted bucket split points, at most [`HISTOGRAM_BUCKETS`]` - 1`.
    pub boundaries: Vec<Rational>,
    /// Per-bucket overlap counts, length `boundaries.len() + 1`.
    pub counts: Vec<u64>,
    /// Tuples with a direct lower bound on this column.
    pub lo_bounded: u64,
    /// Tuples with a direct upper bound on this column.
    pub hi_bounded: u64,
}

impl ColumnStats {
    /// Fraction of tuples estimated to intersect the half-line `x < c`
    /// (or `x ≤ c`; strictness is below histogram resolution). In `[0, 1]`.
    pub fn selectivity_below(&self, c: &Rational, tuples: u64) -> f64 {
        self.selectivity_interval(None, Some(c), tuples)
    }

    /// Fraction of tuples estimated to intersect the half-line `x > c`.
    pub fn selectivity_above(&self, c: &Rational, tuples: u64) -> f64 {
        self.selectivity_interval(Some(c), None, tuples)
    }

    /// Fraction of tuples estimated to intersect `x = c` — the overlap
    /// share of the single cell containing `c`, damped by the cell's
    /// width being a point's worth of it.
    pub fn selectivity_at(&self, c: &Rational, tuples: u64) -> f64 {
        if tuples == 0 {
            return 0.0;
        }
        let cell = match self.boundaries.binary_search(c) {
            Ok(i) => i + 1, // boundary values open the cell to their right
            Err(i) => i,
        };
        let overlap = self.counts.get(cell).copied().unwrap_or(tuples) as f64;
        ((overlap / tuples as f64) * 0.5).clamp(0.01, 1.0)
    }

    /// Fraction of tuples estimated to intersect `(lo, hi)` (either side
    /// may be unbounded). Cells fully inside count fully; the two fringe
    /// cells count half.
    pub fn selectivity_interval(
        &self,
        lo: Option<&Rational>,
        hi: Option<&Rational>,
        tuples: u64,
    ) -> f64 {
        if tuples == 0 {
            return 0.0;
        }
        if self.counts.is_empty() {
            return 1.0;
        }
        let first = lo.map_or(0, |c| match self.boundaries.binary_search(c) {
            Ok(i) => i + 1,
            Err(i) => i,
        });
        let last = hi.map_or(self.counts.len() - 1, |c| {
            match self.boundaries.binary_search(c) {
                Ok(i) => i + 1,
                Err(i) => i,
            }
        });
        let mut mass = 0.0;
        for (i, &n) in self.counts.iter().enumerate() {
            if i < first || i > last {
                continue;
            }
            let fringe = (i == first && lo.is_some()) || (i == last && hi.is_some());
            mass += n as f64 * if fringe { 0.5 } else { 1.0 };
        }
        (mass / tuples as f64).clamp(0.0, 1.0)
    }

    /// Estimated fraction of tuple *pairs* (one from each side) whose
    /// boxes overlap on this column — the box-intersection-volume measure
    /// the planner uses for join cardinality. Evaluates `other`'s overlap
    /// share over each of `self`'s cells, weighted by `self`'s own
    /// distribution.
    pub fn overlap_fraction(&self, tuples: u64, other: &ColumnStats, other_tuples: u64) -> f64 {
        if tuples == 0 || other_tuples == 0 {
            return 0.0;
        }
        if self.counts.is_empty() || other.counts.is_empty() {
            return 1.0;
        }
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mut acc = 0.0;
        for (i, &n) in self.counts.iter().enumerate() {
            let lo = if i == 0 {
                None
            } else {
                self.boundaries.get(i - 1)
            };
            let hi = self.boundaries.get(i);
            let share = n as f64 / total as f64;
            acc += share * other.selectivity_interval(lo, hi, other_tuples);
        }
        acc.clamp(0.0, 1.0)
    }
}

/// Abstract summary of one stored relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelStats {
    /// Relation arity.
    pub arity: u32,
    /// Number of generalized tuples (DNF disjuncts).
    pub tuples: u64,
    /// Total atom count across all tuples.
    pub atoms: u64,
    /// Distinct rational constants mentioned.
    pub distinct_constants: u64,
    /// One histogram per column.
    pub columns: Vec<ColumnStats>,
}

impl RelStats {
    /// Summarize a relation. Pure in its content: two relations with equal
    /// tuple lists produce byte-identical stats.
    pub fn of_relation(rel: &GeneralizedRelation) -> RelStats {
        let arity = rel.arity() as usize;
        let mut endpoints: Vec<BTreeSet<Rational>> = vec![BTreeSet::new(); arity];
        let mut atoms = 0u64;
        for t in rel.tuples() {
            atoms += t.len() as u64;
            for (col, b) in t.bounding_box().iter().enumerate() {
                if let Some((c, _)) = b.lo {
                    endpoints[col].insert(c);
                }
                if let Some((c, _)) = b.hi {
                    endpoints[col].insert(c);
                }
            }
        }
        let mut columns: Vec<ColumnStats> = endpoints
            .iter()
            .map(|set| {
                let all: Vec<Rational> = set.iter().copied().collect();
                let boundaries = thin_boundaries(&all);
                let counts = vec![0u64; boundaries.len() + 1];
                ColumnStats {
                    boundaries,
                    counts,
                    lo_bounded: 0,
                    hi_bounded: 0,
                }
            })
            .collect();
        for t in rel.tuples() {
            let boxes = t.bounding_box();
            for (col, stats) in columns.iter_mut().enumerate() {
                let b = boxes.get(col).copied().unwrap_or_default();
                if b.lo.is_some() {
                    stats.lo_bounded += 1;
                }
                if b.hi.is_some() {
                    stats.hi_bounded += 1;
                }
                bump_overlaps(stats, &b);
            }
        }
        RelStats {
            arity: rel.arity(),
            tuples: rel.len() as u64,
            atoms,
            distinct_constants: rel.constants().len() as u64,
            columns,
        }
    }
}

/// Reduce a sorted endpoint list to at most `HISTOGRAM_BUCKETS - 1`
/// boundaries by even-stride quantile picking (deterministic in content).
fn thin_boundaries(all: &[Rational]) -> Vec<Rational> {
    let max = HISTOGRAM_BUCKETS - 1;
    if all.len() <= max {
        return all.to_vec();
    }
    (1..=max)
        .map(|i| all[i * all.len() / (max + 1)])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Increment every bucket the box `[lo, hi]` overlaps.
fn bump_overlaps(stats: &mut ColumnStats, b: &VarBox) {
    let first = match b.lo {
        None => 0,
        Some((c, _)) => match stats.boundaries.binary_search(&c) {
            Ok(i) => i + 1,
            Err(i) => i,
        },
    };
    let last = match b.hi {
        None => stats.counts.len() - 1,
        Some((c, _)) => match stats.boundaries.binary_search(&c) {
            // An upper bound exactly on a boundary still touches the cell
            // opening at that boundary only when weak; below resolution,
            // count it.
            Ok(i) => i + 1,
            Err(i) => i,
        },
    };
    for i in first..=last.min(stats.counts.len() - 1) {
        stats.counts[i] += 1;
    }
}

/// Per-database statistics: one [`RelStats`] per relation, updatable at
/// relation granularity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DbStats {
    /// Per-relation summaries, keyed by relation name.
    pub relations: BTreeMap<String, RelStats>,
}

impl DbStats {
    /// Summarize every relation of a database.
    pub fn of_database(db: &Database) -> DbStats {
        let mut out = DbStats::default();
        for (name, rel) in db.relations() {
            out.relations
                .insert(name.to_string(), RelStats::of_relation(rel));
        }
        out
    }

    /// Recompute the summary of one relation (the incremental path: a
    /// store write touches one relation, so only that summary changes).
    pub fn update(&mut self, name: &str, rel: &GeneralizedRelation) {
        self.relations
            .insert(name.to_string(), RelStats::of_relation(rel));
    }

    /// Drop the summary of a removed relation.
    pub fn remove(&mut self, name: &str) {
        self.relations.remove(name);
    }

    /// Absorb another stats map (on overlap, `other` wins). The sharded
    /// store maintains one `DbStats` per shard — recomputed at relation
    /// granularity by that shard's writers — and composes the global
    /// view by merging the per-shard maps; since the maps are summaries
    /// keyed by relation name, the merge is pure bookkeeping and the
    /// composite stays a pure function of the catalog content.
    pub fn merge(&mut self, other: &DbStats) {
        for (name, rs) in &other.relations {
            self.relations.insert(name.clone(), rs.clone());
        }
    }

    /// The summary for a relation, if known.
    pub fn get(&self, name: &str) -> Option<&RelStats> {
        self.relations.get(name)
    }

    /// A canonical, line-oriented rendering: relations sorted by name,
    /// exact rationals, fixed field order. Two `DbStats` are equal iff
    /// their canonical strings are byte-identical — the form the store's
    /// replay-identity test compares.
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        for (name, r) in &self.relations {
            let _ = write!(
                out,
                "{name} arity={} tuples={} atoms={} consts={}",
                r.arity, r.tuples, r.atoms, r.distinct_constants
            );
            for (i, c) in r.columns.iter().enumerate() {
                let bounds: Vec<String> = c.boundaries.iter().map(|b| b.to_string()).collect();
                let counts: Vec<String> = c.counts.iter().map(|n| n.to_string()).collect();
                let _ = write!(
                    out,
                    " col{i}[lo={} hi={} b={} n={}]",
                    c.lo_bounded,
                    c.hi_bounded,
                    bounds.join(","),
                    counts.join(",")
                );
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_core::prelude::*;

    fn interval(lo: i64, hi: i64) -> GeneralizedRelation {
        GeneralizedRelation::from_raw(
            1,
            vec![
                RawAtom::new(Term::cst(rat(lo as i128, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(hi as i128, 1))),
            ],
        )
    }

    fn union_of_intervals(spans: &[(i64, i64)]) -> GeneralizedRelation {
        let mut acc = GeneralizedRelation::empty(1);
        for &(lo, hi) in spans {
            acc = acc.union(&interval(lo, hi));
        }
        acc
    }

    #[test]
    fn counts_and_histogram_reflect_content() {
        let rel = union_of_intervals(&[(0, 1), (2, 3), (4, 5)]);
        let s = RelStats::of_relation(&rel);
        assert_eq!(s.tuples, 3);
        assert_eq!(s.atoms, 6);
        assert_eq!(s.distinct_constants, 6);
        assert_eq!(s.columns.len(), 1);
        let c = &s.columns[0];
        assert_eq!(c.lo_bounded, 3);
        assert_eq!(c.hi_bounded, 3);
        // Every tuple overlaps at least one cell.
        assert!(c.counts.iter().sum::<u64>() >= 3);
    }

    #[test]
    fn selectivity_orders_narrow_below_wide() {
        let rel = union_of_intervals(&[(0, 1), (2, 3), (4, 5), (6, 7)]);
        let s = RelStats::of_relation(&rel);
        let c = &s.columns[0];
        let low = c.selectivity_below(&rat(1, 1), s.tuples);
        let all = c.selectivity_below(&rat(100, 1), s.tuples);
        assert!(low < all, "narrow half-line must be more selective");
        assert!(all <= 1.0 && low > 0.0);
    }

    #[test]
    fn overlap_fraction_separated_vs_nested() {
        let a = RelStats::of_relation(&union_of_intervals(&[(0, 1), (0, 2), (1, 2)]));
        let far = RelStats::of_relation(&union_of_intervals(&[(100, 101), (102, 103)]));
        let near = RelStats::of_relation(&union_of_intervals(&[(0, 1), (1, 2)]));
        let f_far = a.columns[0].overlap_fraction(a.tuples, &far.columns[0], far.tuples);
        let f_near = a.columns[0].overlap_fraction(a.tuples, &near.columns[0], near.tuples);
        assert!(
            f_far < f_near,
            "separated boxes must score lower overlap ({f_far} vs {f_near})"
        );
    }

    #[test]
    fn boundaries_thin_deterministically() {
        let spans: Vec<(i64, i64)> = (0..40).map(|i| (3 * i, 3 * i + 1)).collect();
        let rel = union_of_intervals(&spans);
        let s = RelStats::of_relation(&rel);
        assert!(s.columns[0].boundaries.len() < HISTOGRAM_BUCKETS);
        let again = RelStats::of_relation(&rel);
        assert_eq!(s, again);
    }

    #[test]
    fn db_stats_incremental_update_matches_full_recompute() {
        let mut db = Database::new(Schema::new().with("a", 1).with("b", 1));
        db.set("a", union_of_intervals(&[(0, 1)])).unwrap();
        db.set("b", union_of_intervals(&[(2, 3), (4, 5)])).unwrap();
        let mut inc = DbStats::of_database(&db);
        db.set("b", union_of_intervals(&[(9, 10)])).unwrap();
        inc.update("b", db.get("b").unwrap());
        let full = DbStats::of_database(&db);
        assert_eq!(inc, full);
        assert_eq!(inc.canonical_string(), full.canonical_string());
    }

    #[test]
    fn canonical_string_distinguishes_content() {
        let a = DbStats::of_database(
            &Database::new(Schema::new().with("r", 1)).with("r", union_of_intervals(&[(0, 1)])),
        );
        let b = DbStats::of_database(
            &Database::new(Schema::new().with("r", 1)).with("r", union_of_intervals(&[(0, 2)])),
        );
        assert_ne!(a.canonical_string(), b.canonical_string());
    }
}
