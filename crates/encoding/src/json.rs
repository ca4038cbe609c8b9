//! JSON interchange for databases and experiment output.
//!
//! Not part of the paper — an engineering convenience: databases, relations
//! and experiment tables serialize to JSON for inspection and for the
//! experiment harness's machine-readable output.
//!
//! The writer and reader are self-contained: the grammar needed here is
//! tiny and fixed — objects, arrays, strings, numbers — and keeping it
//! in-tree lets the engine build in hermetic environments where no
//! package registry is reachable.

use dco_core::prelude::{
    Atom, CompOp, Conjunction, Database, GeneralizedRelation, GeneralizedTuple, Rational, Schema,
    Term,
};
use dco_linear::{LinAtom, LinRelation, LinTuple, NormalizedAtom};
use std::fmt;

/// Errors while reading or writing the JSON interchange format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the problem was found (writing: 0).
    pub position: usize,
}

impl JsonError {
    fn new(message: impl Into<String>, position: usize) -> JsonError {
        JsonError {
            message: message.into(),
            position,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for JSON interchange operations.
pub type Result<T> = std::result::Result<T, JsonError>;

// ---------------------------------------------------------------------
// A minimal JSON value tree.
// ---------------------------------------------------------------------

/// An in-memory JSON value (the subset this module emits and accepts).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// A string.
    Str(String),
    /// A number (stored as f64; integers round-trip exactly up to 2^53).
    Num(f64),
    /// An ordered list.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object (`None` for other variants).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True if this is the `null` literal.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad1 = "  ".repeat(indent + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Str(s) => write_json_string(out, s),
            Json::Num(n) => write_number(out, *n),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Pretty-printed string form (two-space indentation).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Str(s) => write_json_string(out, s),
            Json::Num(n) => write_number(out, *n),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Single-line string form with no insignificant whitespace — the wire
    /// form used by `dco-store`'s line-oriented server protocol.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

/// Parse a JSON document (strings, numbers, arrays, objects).
pub fn parse_json(src: &str) -> Result<Json> {
    let mut p = JsonParser {
        src: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(JsonError::new("trailing input after document", p.pos));
    }
    Ok(v)
}

struct JsonParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(JsonError::new(msg, self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => {
                for b in *b"null" {
                    self.expect(b)?;
                }
                Ok(Json::Null)
            }
            _ => self.err("expected a JSON value"),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.src.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.src[self.pos + 1..self.pos + 5])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => out.push(c),
                                None => return self.err("bad \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; continuation bytes follow the
                    // leading byte, and the input came from a &str so the
                    // sequence is valid.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.src.len() && (self.src[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    match std::str::from_utf8(&self.src[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid UTF-8 in string"),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| JsonError::new("invalid number bytes", start))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("bad number {text:?}"), start))
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Database <-> JSON.
// ---------------------------------------------------------------------

fn term_to_string(t: &Term) -> String {
    match t.as_var() {
        Some(v) => format!("v{}", v.0),
        None => t.as_const().expect("term is var or const").to_string(),
    }
}

fn term_from_string(s: &str) -> Result<Term> {
    if let Some(idx) = s.strip_prefix('v') {
        if let Ok(i) = idx.parse::<u32>() {
            return Ok(Term::var(i));
        }
    }
    s.parse::<Rational>()
        .map(Term::cst)
        .map_err(|e| JsonError::new(format!("bad term {s:?}: {e}"), 0))
}

fn op_to_str(op: CompOp) -> &'static str {
    match op {
        CompOp::Lt => "<",
        CompOp::Le => "<=",
        CompOp::Eq => "=",
    }
}

fn op_from_str(s: &str) -> Result<CompOp> {
    match s {
        "<" => Ok(CompOp::Lt),
        "<=" => Ok(CompOp::Le),
        "=" => Ok(CompOp::Eq),
        other => Err(JsonError::new(format!("bad operator {other:?}"), 0)),
    }
}

fn atom_to_json(a: &Atom) -> Json {
    Json::Arr(vec![
        Json::Str(term_to_string(&a.lhs())),
        Json::Str(op_to_str(a.op()).to_string()),
        Json::Str(term_to_string(&a.rhs())),
    ])
}

fn atom_from_json(v: &Json) -> Result<Vec<Atom>> {
    let items = v
        .as_arr()
        .filter(|a| a.len() == 3)
        .ok_or_else(|| JsonError::new("atom must be a [lhs, op, rhs] triple", 0))?;
    let get = |i: usize| -> Result<&str> {
        items[i]
            .as_str()
            .ok_or_else(|| JsonError::new("atom component must be a string", 0))
    };
    let lhs = term_from_string(get(0)?)?;
    let op = op_from_str(get(1)?)?;
    let rhs = term_from_string(get(2)?)?;
    // Already-normalized atoms written by `atom_to_json` re-normalize to
    // themselves, so a write/read cycle is the identity.
    Atom::normalized(lhs, op, rhs).ok_or_else(|| JsonError::new("atom is trivially false", 0))
}

/// Serialize one generalized relation to a [`Json`] value (for embedding
/// inside larger documents — e.g. the store server's query responses).
pub fn relation_to_json(rel: &GeneralizedRelation) -> Json {
    Json::Obj(vec![
        ("arity".to_string(), Json::Num(rel.arity() as f64)),
        (
            "tuples".to_string(),
            Json::Arr(
                rel.tuples()
                    .iter()
                    .map(|t| Json::Arr(t.atoms().iter().map(atom_to_json).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Inverse of [`relation_to_json`].
pub fn relation_from_json(v: &Json) -> Result<GeneralizedRelation> {
    let arity = v
        .get("arity")
        .and_then(Json::as_num)
        .ok_or_else(|| JsonError::new("relation missing numeric arity", 0))? as u32;
    let tuples = v
        .get("tuples")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError::new("relation missing tuples array", 0))?;
    let mut parsed = Vec::with_capacity(tuples.len());
    for t in tuples {
        let atoms = t
            .as_arr()
            .ok_or_else(|| JsonError::new("tuple must be an array of atoms", 0))?;
        let mut flat = Vec::new();
        for a in atoms {
            flat.extend(atom_from_json(a)?);
        }
        parsed.push(GeneralizedTuple::from_atoms(arity, flat));
    }
    Ok(GeneralizedRelation::from_tuples(arity, parsed))
}

/// Serialize one generalized relation to JSON (compact form).
pub fn relation_to_json_str(rel: &GeneralizedRelation) -> String {
    relation_to_json(rel).compact()
}

/// Deserialize one generalized relation from JSON.
pub fn relation_from_json_str(src: &str) -> Result<GeneralizedRelation> {
    relation_from_json(&parse_json(src)?)
}

/// Serialize a database to pretty JSON.
pub fn to_json(db: &Database) -> Result<String> {
    let schema = Json::Obj(
        db.schema()
            .relations()
            .map(|(n, a)| (n.to_string(), Json::Num(a as f64)))
            .collect(),
    );
    let relations = Json::Obj(
        db.relations()
            .map(|(n, r)| (n.to_string(), relation_to_json(r)))
            .collect(),
    );
    let doc = Json::Obj(vec![
        ("schema".to_string(), schema),
        ("relations".to_string(), relations),
    ]);
    Ok(doc.pretty())
}

/// Deserialize a database from JSON.
pub fn from_json(src: &str) -> Result<Database> {
    let doc = parse_json(src)?;
    let schema_obj = doc
        .get("schema")
        .ok_or_else(|| JsonError::new("document missing schema", 0))?;
    let Json::Obj(schema_fields) = schema_obj else {
        return Err(JsonError::new("schema must be an object", 0));
    };
    let mut schema = Schema::new();
    for (name, arity) in schema_fields {
        let a = arity
            .as_num()
            .ok_or_else(|| JsonError::new(format!("arity of {name} must be a number"), 0))?;
        schema = schema.with(name, a as u32);
    }
    let mut db = Database::new(schema);
    if let Some(Json::Obj(rels)) = doc.get("relations") {
        for (name, rel_json) in rels {
            let rel = relation_from_json(rel_json)?;
            db.set(name, rel)
                .map_err(|e| JsonError::new(e.to_string(), 0))?;
        }
    }
    Ok(db)
}

// ---------------------------------------------------------------------
// Linear (FO+) tuples and relations <-> JSON.
// ---------------------------------------------------------------------

fn lin_atom_to_json(a: &LinAtom) -> Json {
    Json::Obj(vec![
        (
            "coeffs".to_string(),
            Json::Arr(
                a.coeffs()
                    .iter()
                    .map(|c| Json::Str(c.to_string()))
                    .collect(),
            ),
        ),
        ("constant".to_string(), Json::Str(a.constant().to_string())),
        ("op".to_string(), Json::Str(op_to_str(a.op()).to_string())),
    ])
}

fn rational_from_json(v: &Json) -> Result<Rational> {
    let s = v
        .as_str()
        .ok_or_else(|| JsonError::new("rational must be a string", 0))?;
    s.parse::<Rational>()
        .map_err(|e| JsonError::new(format!("bad rational {s:?}: {e}"), 0))
}

fn lin_atom_from_json(v: &Json) -> Result<LinAtom> {
    let coeffs = v
        .get("coeffs")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError::new("linear atom missing coeffs array", 0))?
        .iter()
        .map(rational_from_json)
        .collect::<Result<Vec<_>>>()?;
    let constant = rational_from_json(
        v.get("constant")
            .ok_or_else(|| JsonError::new("linear atom missing constant", 0))?,
    )?;
    let op = op_from_str(
        v.get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::new("linear atom missing op", 0))?,
    )?;
    // Atoms written by `lin_atom_to_json` are already normalized (genuine
    // constraints, canonical scaling), so normalization is the identity on
    // a write/read cycle; trivially true/false atoms are rejected because
    // the writer can never produce them.
    match LinAtom::normalize(coeffs, constant, op) {
        NormalizedAtom::Atom(a) => Ok(a),
        _ => Err(JsonError::new("linear atom is trivially true/false", 0)),
    }
}

/// Serialize a linear tuple (conjunction of linear atoms) to a JSON value.
pub fn lin_tuple_to_json(t: &LinTuple) -> Json {
    Json::Obj(vec![
        ("arity".to_string(), Json::Num(t.arity() as f64)),
        (
            "atoms".to_string(),
            Json::Arr(t.atoms().iter().map(lin_atom_to_json).collect()),
        ),
    ])
}

/// Deserialize a linear tuple from a JSON value.
pub fn lin_tuple_from_json(v: &Json) -> Result<LinTuple> {
    let arity =
        v.get("arity")
            .and_then(Json::as_num)
            .ok_or_else(|| JsonError::new("linear tuple missing numeric arity", 0))? as u32;
    let atoms = v
        .get("atoms")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError::new("linear tuple missing atoms array", 0))?
        .iter()
        .map(lin_atom_from_json)
        .collect::<Result<Vec<_>>>()?;
    Ok(LinTuple::from_atoms(arity, atoms))
}

/// Serialize a linear relation (union of linear tuples) to JSON text.
pub fn lin_relation_to_json(rel: &LinRelation) -> String {
    Json::Obj(vec![
        ("arity".to_string(), Json::Num(rel.arity() as f64)),
        (
            "tuples".to_string(),
            Json::Arr(rel.tuples().iter().map(lin_tuple_to_json).collect()),
        ),
    ])
    .pretty()
}

/// Deserialize a linear relation from JSON text.
pub fn lin_relation_from_json(src: &str) -> Result<LinRelation> {
    let doc = parse_json(src)?;
    let arity = doc
        .get("arity")
        .and_then(Json::as_num)
        .ok_or_else(|| JsonError::new("linear relation missing numeric arity", 0))?
        as u32;
    let tuples = doc
        .get("tuples")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError::new("linear relation missing tuples array", 0))?
        .iter()
        .map(lin_tuple_from_json)
        .collect::<Result<Vec<_>>>()?;
    Ok(LinRelation::from_tuples(arity, tuples))
}

// ---------------------------------------------------------------------
// Experiment rows.
// ---------------------------------------------------------------------

/// One row of an experiment table (used by `dco-bench`'s `experiments`
/// binary to emit machine-readable results next to the printed tables).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRow {
    /// Experiment id, e.g. "E4".
    pub experiment: String,
    /// Row label (instance description).
    pub label: String,
    /// Named measurements.
    pub values: Vec<(String, f64)>,
}

/// Serialize experiment rows.
pub fn rows_to_json(rows: &[ExperimentRow]) -> Result<String> {
    let doc = Json::Arr(
        rows.iter()
            .map(|r| {
                Json::Obj(vec![
                    ("experiment".to_string(), Json::Str(r.experiment.clone())),
                    ("label".to_string(), Json::Str(r.label.clone())),
                    (
                        "values".to_string(),
                        Json::Arr(
                            r.values
                                .iter()
                                .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Num(*v)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    Ok(doc.pretty())
}

/// Deserialize experiment rows.
pub fn rows_from_json(src: &str) -> Result<Vec<ExperimentRow>> {
    let doc = parse_json(src)?;
    let rows = doc
        .as_arr()
        .ok_or_else(|| JsonError::new("expected an array of rows", 0))?;
    rows.iter()
        .map(|r| {
            let experiment = r
                .get("experiment")
                .and_then(Json::as_str)
                .ok_or_else(|| JsonError::new("row missing experiment", 0))?
                .to_string();
            let label = r
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| JsonError::new("row missing label", 0))?
                .to_string();
            let mut values = Vec::new();
            if let Some(items) = r.get("values").and_then(Json::as_arr) {
                for item in items {
                    let pair = item
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| JsonError::new("value must be a [name, num] pair", 0))?;
                    let k = pair[0]
                        .as_str()
                        .ok_or_else(|| JsonError::new("value name must be a string", 0))?;
                    let v = pair[1]
                        .as_num()
                        .ok_or_else(|| JsonError::new("value must be numeric", 0))?;
                    values.push((k.to_string(), v));
                }
            }
            Ok(ExperimentRow {
                experiment,
                label,
                values,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dco_core::prelude::*;

    #[test]
    fn database_json_roundtrip() {
        let tri = GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::cst(rat(0, 1)), RawOp::Le, Term::var(0)),
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
            ],
        );
        let db = Database::new(Schema::new().with("R", 2)).with("R", tri);
        let json = to_json(&db).unwrap();
        let back = from_json(&json).unwrap();
        assert!(back.equivalent(&db));
    }

    #[test]
    fn rational_constants_survive() {
        let pts = GeneralizedRelation::from_points(1, vec![vec![rat(-7, 3)]]);
        let db = Database::new(Schema::new().with("S", 1)).with("S", pts);
        let back = from_json(&to_json(&db).unwrap()).unwrap();
        assert!(back.get("S").unwrap().contains_point(&[rat(-7, 3)]));
    }

    #[test]
    fn experiment_rows_serialize() {
        let rows = vec![ExperimentRow {
            experiment: "E4".into(),
            label: "path n=8".into(),
            values: vec![("stages".into(), 8.0), ("size".into(), 120.0)],
        }];
        let json = rows_to_json(&rows).unwrap();
        assert!(json.contains("E4"));
        let back = rows_from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].values[0], ("stages".to_string(), 8.0));
    }

    #[test]
    fn parser_reports_errors_with_position() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
        let err = parse_json("[1, #]").unwrap_err();
        assert!(err.position > 0);
    }

    #[test]
    fn null_roundtrips_in_both_writers() {
        let doc = Json::Obj(vec![
            ("a".to_string(), Json::Null),
            ("b".to_string(), Json::Arr(vec![Json::Null, Json::Num(1.0)])),
        ]);
        assert_eq!(doc.compact(), "{\"a\":null,\"b\":[null,1]}");
        assert_eq!(parse_json(&doc.compact()).unwrap(), doc);
        assert_eq!(parse_json(&doc.pretty()).unwrap(), doc);
        assert!(parse_json("nul").is_err());
        assert!(parse_json("nullx").is_err());
    }

    #[test]
    fn strings_escape_roundtrip() {
        let doc = Json::Obj(vec![(
            "k\"ey".to_string(),
            Json::Str("line1\nline2\tqu\"ote\\ λ".to_string()),
        )]);
        let back = parse_json(&doc.pretty()).unwrap();
        assert_eq!(back, doc);
    }
}
