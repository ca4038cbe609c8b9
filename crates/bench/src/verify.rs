//! Parallel-vs-sequential verification, driven by
//! `experiments --verify-parallel`.
//!
//! [`verify_parallel`] recomputes every workload under 1 thread and
//! under a forced multi-thread configuration and demands *structurally
//! identical* results (`==` on the canonical DNF), the determinism
//! guarantee the parallel layer promises.

use dco::datalog::{parse_program, run_with, EngineConfig, Program};
use dco::prelude::*;

/// `n` constraint edges `[i, i+1/2] × [i+1, i+3/2]`: genuine boxes, so
/// every stage of transitive closure works on intervals, not points
/// (intersect, project, and `absorb`'s subsumption tests).
fn chain_db(n: usize) -> Database {
    let tuples = (0..n).map(|i| {
        let lo = 2 * i as i128;
        GeneralizedTuple::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(lo, 2)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::cst(rat(lo + 1, 2))),
                RawAtom::new(Term::cst(rat(lo + 2, 2)), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(lo + 3, 2))),
            ],
        )
        .pop()
        .expect("chain edge is satisfiable")
    });
    Database::new(Schema::new().with("e", 2)).with("e", GeneralizedRelation::from_tuples(2, tuples))
}

fn tc_program() -> Program {
    parse_program(
        "tc(x, y) :- e(x, y).\n\
         tc(x, y) :- tc(x, z), e(z, y).\n",
    )
    .expect("tc program parses")
}

/// A multi-thread configuration with the fork threshold floored so the
/// parallel code paths run even on small instances.
fn forced_parallel(threads: usize) -> EvalConfig {
    EvalConfig {
        threads,
        parallel_threshold: 1,
    }
}

/// Recompute every workload single-threaded and with `threads` forced
/// workers and require structurally identical canonical results. Returns
/// a description of the first divergence, if any.
pub fn verify_parallel(threads: usize) -> Result<(), String> {
    let program = tc_program();

    for n in [3, 5, 7] {
        let db = chain_db(n);
        let seq = with_eval_config(EvalConfig::sequential(), || {
            run_with(&program, &db, &EngineConfig::default())
        })
        .map_err(|e| format!("tc_chain({n}) sequential run failed: {e}"))?;
        let par = with_eval_config(forced_parallel(threads), || {
            run_with(&program, &db, &EngineConfig::default())
        })
        .map_err(|e| format!("tc_chain({n}) parallel run failed: {e}"))?;
        if seq.database != par.database {
            return Err(format!(
                "tc_chain({n}): parallel fixpoint diverges from sequential"
            ));
        }
        let naive = with_eval_config(EvalConfig::sequential(), || {
            run_with(
                &program,
                &db,
                &EngineConfig {
                    use_deltas: false,
                    ..EngineConfig::default()
                },
            )
        })
        .map_err(|e| format!("tc_chain({n}) naive run failed: {e}"))?;
        if !seq.database.equivalent(&naive.database) {
            return Err(format!(
                "tc_chain({n}): semi-naive fixpoint not equivalent to naive"
            ));
        }
    }

    for n in [4, 9] {
        let db = crate::workloads::interval_db(n);
        for query in ["S(x) and not S(y)", "exists y . S(y) and S(x) and x < y"] {
            let seq = with_eval_config(EvalConfig::sequential(), || eval_fo_str(&db, query))
                .map_err(|e| format!("fo({n}) sequential eval failed: {e}"))?;
            let par = with_eval_config(forced_parallel(threads), || eval_fo_str(&db, query))
                .map_err(|e| format!("fo({n}) parallel eval failed: {e}"))?;
            if seq.relation != par.relation {
                return Err(format!(
                    "fo({n}) {query:?}: parallel result diverges from sequential"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_parallel_passes_on_this_host() {
        verify_parallel(4).unwrap();
    }
}
