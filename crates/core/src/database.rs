//! Databases: named generalized relations over a schema.
//!
//! A *dense-order constraint database* (Definition 2.x of the paper) is a
//! finitely representable expansion of `Q = (Q, ≤)` by finitely many
//! relations, each given as a generalized relation. The schema assigns each
//! relation name an arity; instances are checked against it.

use crate::automorphism::Automorphism;
use crate::rational::Rational;
use crate::relation::GeneralizedRelation;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A database schema: relation names with arities.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schema {
    arities: BTreeMap<String, u32>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Declare a relation.
    pub fn with(mut self, name: &str, arity: u32) -> Schema {
        self.arities.insert(name.to_string(), arity);
        self
    }

    /// Arity of a relation, if declared.
    pub fn arity(&self, name: &str) -> Option<u32> {
        self.arities.get(name).copied()
    }

    /// Iterate declared relations.
    pub fn relations(&self) -> impl Iterator<Item = (&str, u32)> {
        self.arities.iter().map(|(n, a)| (n.as_str(), *a))
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.arities.len()
    }

    /// Whether the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.arities.is_empty()
    }
}

/// Errors raised by database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatabaseError {
    /// Relation name not declared in the schema.
    UnknownRelation(String),
    /// Instance arity differs from the declared arity.
    ArityMismatch {
        /// Relation name.
        name: String,
        /// Declared arity.
        declared: u32,
        /// Arity of the offending instance.
        got: u32,
    },
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            DatabaseError::ArityMismatch {
                name,
                declared,
                got,
            } => {
                write!(
                    f,
                    "relation {name} declared with arity {declared}, instance has {got}"
                )
            }
        }
    }
}

impl std::error::Error for DatabaseError {}

/// A dense-order constraint database instance.
///
/// Relation instances are stored behind `Arc`s, so cloning a database —
/// or building a successor catalog that differs in one relation — is a
/// handful of pointer bumps, not a deep copy of every DNF. This is the
/// representation-level sharing that keeps MVCC generations cheap.
#[derive(Clone, Debug, PartialEq)]
pub struct Database {
    schema: Schema,
    relations: BTreeMap<String, Arc<GeneralizedRelation>>,
}

impl Database {
    /// Empty instance of a schema: every declared relation is empty.
    pub fn new(schema: Schema) -> Database {
        let relations = schema
            .relations()
            .map(|(n, a)| (n.to_string(), Arc::new(GeneralizedRelation::empty(a))))
            .collect();
        Database { schema, relations }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Set a relation instance.
    pub fn set(&mut self, name: &str, rel: GeneralizedRelation) -> Result<(), DatabaseError> {
        self.set_shared(name, Arc::new(rel))
    }

    /// Set a relation instance from an existing shared handle without
    /// copying its representation (the MVCC store composes catalogs from
    /// per-shard relation maps this way).
    pub fn set_shared(
        &mut self,
        name: &str,
        rel: Arc<GeneralizedRelation>,
    ) -> Result<(), DatabaseError> {
        match self.schema.arity(name) {
            None => Err(DatabaseError::UnknownRelation(name.to_string())),
            Some(a) if a != rel.arity() => Err(DatabaseError::ArityMismatch {
                name: name.to_string(),
                declared: a,
                got: rel.arity(),
            }),
            Some(_) => {
                self.relations.insert(name.to_string(), rel);
                Ok(())
            }
        }
    }

    /// Shared handle to a relation instance (cheap: bumps the refcount).
    pub fn get_shared(&self, name: &str) -> Option<Arc<GeneralizedRelation>> {
        self.relations.get(name).cloned()
    }

    /// Change a relation instance in place with `f`, which must keep its
    /// arity; `None` if the relation is not declared. Copy-on-write: the
    /// representation is copied only while another handle shares it.
    pub fn update<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut GeneralizedRelation) -> R,
    ) -> Option<R> {
        let rel = Arc::make_mut(self.relations.get_mut(name)?);
        let arity = rel.arity();
        let out = f(rel);
        assert_eq!(rel.arity(), arity, "update changed the arity of {name}");
        Some(out)
    }

    /// Builder-style `set` that panics on schema violations (tests/examples).
    pub fn with(mut self, name: &str, rel: GeneralizedRelation) -> Database {
        self.set(name, rel).expect("schema violation");
        self
    }

    /// Get a relation instance.
    pub fn get(&self, name: &str) -> Option<&GeneralizedRelation> {
        self.relations.get(name).map(|r| r.as_ref())
    }

    /// Iterate relation instances.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &GeneralizedRelation)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r.as_ref()))
    }

    /// All constants appearing anywhere in the instance — the finite data
    /// the paper's *standard encoding* serializes, and the anchor set for
    /// cell decompositions and automorphism tests.
    pub fn constants(&self) -> BTreeSet<Rational> {
        self.relations
            .values()
            .flat_map(|r| r.constants())
            .collect()
    }

    /// Total representation size (number of atoms), the data-complexity
    /// input measure.
    pub fn size(&self) -> usize {
        self.relations.values().map(|r| r.size()).sum()
    }

    /// Image of the database under an automorphism of Q.
    pub fn apply_automorphism(&self, f: &Automorphism) -> Database {
        Database {
            schema: self.schema.clone(),
            relations: self
                .relations
                .iter()
                .map(|(n, r)| (n.clone(), Arc::new(f.apply_relation(r))))
                .collect(),
        }
    }

    /// Semantic equivalence of two instances over the same schema.
    pub fn equivalent(&self, other: &Database) -> bool {
        if self.schema != other.schema {
            return false;
        }
        self.relations.iter().all(|(n, r)| {
            other
                .relations
                .get(n)
                .map(|r2| r.equivalent(r2))
                .unwrap_or(false)
        })
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            writeln!(f, "{name}/{} = {rel}", rel.arity())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{RawAtom, RawOp, Term};
    use crate::rational::rat;

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
    fn schema_enforced() {
        let schema = Schema::new().with("R", 1);
        let mut db = Database::new(schema);
        assert!(db.set("R", interval(0, 1)).is_ok());
        assert!(matches!(
            db.set("S", interval(0, 1)),
            Err(DatabaseError::UnknownRelation(_))
        ));
        assert!(matches!(
            db.set("R", GeneralizedRelation::empty(2)),
            Err(DatabaseError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn constants_and_size() {
        let db = Database::new(Schema::new().with("R", 1).with("S", 1))
            .with("R", interval(0, 1))
            .with("S", interval(5, 9));
        let cs = db.constants();
        assert_eq!(cs.len(), 4);
        assert!(db.size() >= 4);
    }

    #[test]
    fn automorphism_image_and_equivalence() {
        let db = Database::new(Schema::new().with("R", 1)).with("R", interval(0, 10));
        let f = Automorphism::translation(rat(100, 1));
        let img = db.apply_automorphism(&f);
        assert!(img.get("R").unwrap().contains_point(&[rat(105, 1)]));
        assert!(!img.get("R").unwrap().contains_point(&[rat(5, 1)]));
        assert!(!db.equivalent(&img));
        let back = img.apply_automorphism(&f.inverse());
        assert!(db.equivalent(&back));
    }

    #[test]
    fn empty_instance_has_empty_relations() {
        let db = Database::new(Schema::new().with("R", 2));
        assert!(db.get("R").unwrap().is_empty());
        assert_eq!(db.size(), 0);
    }
}
