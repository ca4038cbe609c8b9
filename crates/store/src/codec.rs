//! Binary codec: length-prefixed, versioned, checksummed records.
//!
//! §3 of the paper makes the *standard encoding* of a database — the byte
//! string of its quantifier-free representation — the data-complexity
//! input measure. This module turns that measure into an actual on-disk
//! format. The bit-level layer is `dco-encoding`'s self-delimiting prefix
//! code ([`dco_encoding::bits`]); this module wraps it in what a durable
//! store additionally needs:
//!
//! * a **record envelope** — magic, format version, record kind, payload
//!   length, and a CRC-32 trailer — so torn or corrupted records are
//!   *detected*, never silently decoded;
//! * **exact rationals** throughout (zigzag-varint numerator, varint
//!   denominator — never floats);
//! * payload codecs for [`GeneralizedRelation`] (delegated to the
//!   standard bit encoding), [`LinTuple`] (the FO+ fragment, which the bit
//!   encoding does not cover), and whole [`Database`] catalogs.
//!
//! Every `decode_*` is a strict inverse of its `encode_*`: the store's
//! property suite round-trips 128 seeded instances per type and demands
//! structural equality, not mere equivalence.

use dco_core::prelude::{Conjunction, Database, GeneralizedRelation, Rational, Schema};
use dco_encoding::bits::{decode_relation, encode_relation, BitVec};
use dco_linear::{LinAtom, LinTuple, NormalizedAtom};
use std::fmt;

/// Codec format version; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u8 = 1;

/// Record-envelope magic (`b"DCO\x01"` little-endian).
pub const RECORD_MAGIC: u32 = 0x01_4F_43_44;

/// What a record envelope carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// One serialized [`GeneralizedRelation`].
    Relation,
    /// One serialized [`LinTuple`].
    LinTuple,
    /// A whole catalog ([`Database`]) — the snapshot payload.
    Catalog,
    /// One write-ahead-log operation ([`crate::wal::LogOp`]).
    WalOp,
}

impl RecordKind {
    fn to_u8(self) -> u8 {
        match self {
            RecordKind::Relation => 1,
            RecordKind::LinTuple => 2,
            RecordKind::Catalog => 3,
            RecordKind::WalOp => 4,
        }
    }

    fn from_u8(b: u8) -> Option<RecordKind> {
        match b {
            1 => Some(RecordKind::Relation),
            2 => Some(RecordKind::LinTuple),
            3 => Some(RecordKind::Catalog),
            4 => Some(RecordKind::WalOp),
            _ => None,
        }
    }
}

/// Why a decode failed. [`CodecError::Torn`] is special: it means the
/// input *ends* mid-record (a crashed append), which recovery treats as
/// "discard the tail", while every other variant is genuine corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends before the declared record length — a torn append.
    Torn,
    /// The envelope magic or version did not match.
    BadEnvelope(&'static str),
    /// The CRC-32 trailer did not match the payload.
    ChecksumMismatch,
    /// The payload bytes did not decode as the declared kind.
    BadPayload(String),
    /// The record kind differs from what the caller expected.
    WrongKind {
        /// Kind the caller asked for.
        expected: RecordKind,
        /// Kind found in the envelope.
        found: RecordKind,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Torn => f.write_str("record truncated (torn append)"),
            CodecError::BadEnvelope(what) => write!(f, "bad record envelope: {what}"),
            CodecError::ChecksumMismatch => f.write_str("record checksum mismatch"),
            CodecError::BadPayload(what) => write!(f, "bad record payload: {what}"),
            CodecError::WrongKind { expected, found } => {
                write!(f, "expected {expected:?} record, found {found:?}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected).
// ---------------------------------------------------------------------

/// CRC-32 of `bytes` (IEEE polynomial — the zlib/ethernet checksum).
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Byte-level primitives.
// ---------------------------------------------------------------------

/// Append-only byte buffer with the codec's primitive writers.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty buffer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Fixed-width little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Fixed-width little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LEB128 varint.
    pub fn put_varint(&mut self, mut v: u128) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn put_signed(&mut self, v: i128) {
        // Zigzag: interleave negatives so small magnitudes stay short.
        let zig = ((v << 1) ^ (v >> 127)) as u128;
        self.put_varint(zig);
    }

    /// Exact rational: zigzag numerator, varint denominator.
    pub fn put_rational(&mut self, r: &Rational) {
        self.put_signed(r.numer());
        self.put_varint(r.denom() as u128);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u128);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a byte slice with the codec's primitive readers.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Raw bytes, verbatim.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Torn);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Fixed-width little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let mut w = [0u8; 4];
        w.copy_from_slice(self.get_bytes(4)?);
        Ok(u32::from_le_bytes(w))
    }

    /// Fixed-width little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.get_bytes(8)?);
        Ok(u64::from_le_bytes(w))
    }

    /// LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u128> {
        let mut v = 0u128;
        let mut shift = 0u32;
        loop {
            let byte = self.get_bytes(1)?[0];
            if shift >= 128 {
                return Err(CodecError::BadPayload("varint overlong".into()));
            }
            v |= ((byte & 0x7F) as u128) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn get_signed(&mut self) -> Result<i128> {
        let zig = self.get_varint()?;
        Ok(((zig >> 1) as i128) ^ -((zig & 1) as i128))
    }

    /// Exact rational.
    pub fn get_rational(&mut self) -> Result<Rational> {
        let numer = self.get_signed()?;
        let denom = self.get_varint()?;
        let denom = i128::try_from(denom)
            .map_err(|_| CodecError::BadPayload("rational denominator overflow".into()))?;
        Rational::new(numer, denom)
            .map_err(|e| CodecError::BadPayload(format!("invalid rational: {e}")))
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_varint()? as usize;
        let bytes = self.get_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::BadPayload("invalid UTF-8 in string".into()))
    }
}

// ---------------------------------------------------------------------
// Record envelope.
// ---------------------------------------------------------------------

/// Wrap `payload` in the record envelope:
/// `magic ‖ version ‖ kind ‖ len(payload) ‖ payload ‖ crc32`.
///
/// The CRC covers version, kind, length, and payload, so a bit flip
/// anywhere inside the record (headers included) is detected.
pub fn seal_record(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(RECORD_MAGIC);
    w.put_bytes(&[FORMAT_VERSION, kind.to_u8()]);
    w.put_u32(payload.len() as u32);
    w.put_bytes(payload);
    let body = w.into_bytes();
    let crc = crc32(&body[4..]);
    let mut w = ByteWriter { buf: body };
    w.put_u32(crc);
    w.into_bytes()
}

/// Inverse of [`seal_record`]: verify the envelope and checksum, return
/// the payload and the total number of bytes the record occupied.
pub fn open_record(bytes: &[u8], expected: RecordKind) -> Result<(&[u8], usize)> {
    let mut r = ByteReader::new(bytes);
    let magic = r.get_u32()?;
    if magic != RECORD_MAGIC {
        return Err(CodecError::BadEnvelope("magic mismatch"));
    }
    let head = r.get_bytes(2)?;
    if head[0] != FORMAT_VERSION {
        return Err(CodecError::BadEnvelope("unsupported format version"));
    }
    let kind =
        RecordKind::from_u8(head[1]).ok_or(CodecError::BadEnvelope("unknown record kind"))?;
    let len = r.get_u32()? as usize;
    let payload = r.get_bytes(len)?;
    let crc = r.get_u32()?;
    let covered = &bytes[4..10 + len];
    if crc32(covered) != crc {
        return Err(CodecError::ChecksumMismatch);
    }
    if kind != expected {
        return Err(CodecError::WrongKind {
            expected,
            found: kind,
        });
    }
    Ok((payload, 14 + len))
}

// ---------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------

/// Relation payload: bit length, then the standard bit encoding's bytes.
pub fn put_relation(w: &mut ByteWriter, rel: &GeneralizedRelation) {
    let bits = encode_relation(rel);
    w.put_varint(bits.len() as u128);
    w.put_bytes(&bits.to_bytes());
}

/// Inverse of [`put_relation`].
pub fn get_relation(r: &mut ByteReader) -> Result<GeneralizedRelation> {
    let bit_len = r.get_varint()? as usize;
    let bytes = r.get_bytes(bit_len.div_ceil(8))?;
    let bits = BitVec::from_bytes(bytes, bit_len)
        .ok_or_else(|| CodecError::BadPayload("bit length exceeds payload".into()))?;
    decode_relation(&bits).map_err(|e| CodecError::BadPayload(e.to_string()))
}

/// Encode one relation as a standalone sealed record.
pub fn encode_relation_record(rel: &GeneralizedRelation) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_relation(&mut w, rel);
    seal_record(RecordKind::Relation, &w.into_bytes())
}

/// Decode a standalone relation record.
pub fn decode_relation_record(bytes: &[u8]) -> Result<GeneralizedRelation> {
    let (payload, _) = open_record(bytes, RecordKind::Relation)?;
    let mut r = ByteReader::new(payload);
    let rel = get_relation(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::BadPayload(
            "trailing bytes after relation".into(),
        ));
    }
    Ok(rel)
}

/// Linear-tuple payload: arity, atom count, then per atom the operator,
/// dense coefficient vector, and constant — all rationals exact.
pub fn put_lin_tuple(w: &mut ByteWriter, t: &LinTuple) {
    use dco_core::prelude::CompOp;
    w.put_varint(t.arity() as u128);
    w.put_varint(t.atoms().len() as u128);
    for a in t.atoms() {
        w.put_bytes(&[match a.op() {
            CompOp::Lt => 0,
            CompOp::Le => 1,
            CompOp::Eq => 2,
        }]);
        for c in a.coeffs() {
            w.put_rational(c);
        }
        w.put_rational(a.constant());
    }
}

/// Inverse of [`put_lin_tuple`].
pub fn get_lin_tuple(r: &mut ByteReader) -> Result<LinTuple> {
    use dco_core::prelude::CompOp;
    let arity = r.get_varint()? as u32;
    let natoms = r.get_varint()? as usize;
    let mut atoms = Vec::with_capacity(natoms);
    for _ in 0..natoms {
        let op = match r.get_bytes(1)?[0] {
            0 => CompOp::Lt,
            1 => CompOp::Le,
            2 => CompOp::Eq,
            _ => return Err(CodecError::BadPayload("unknown comparison op".into())),
        };
        let coeffs = (0..arity)
            .map(|_| r.get_rational())
            .collect::<Result<Vec<_>>>()?;
        let constant = r.get_rational()?;
        // Atoms written by `put_lin_tuple` come out of a `LinTuple`, so
        // they are already in canonical normalized form and re-normalize
        // to themselves; a trivial outcome means corrupted input.
        match LinAtom::normalize(coeffs, constant, op) {
            NormalizedAtom::Atom(a) => atoms.push(a),
            _ => return Err(CodecError::BadPayload("trivial linear atom".into())),
        }
    }
    Ok(LinTuple::from_atoms(arity, atoms))
}

/// Encode one linear tuple as a standalone sealed record.
pub fn encode_lin_tuple_record(t: &LinTuple) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_lin_tuple(&mut w, t);
    seal_record(RecordKind::LinTuple, &w.into_bytes())
}

/// Decode a standalone linear-tuple record.
pub fn decode_lin_tuple_record(bytes: &[u8]) -> Result<LinTuple> {
    let (payload, _) = open_record(bytes, RecordKind::LinTuple)?;
    let mut r = ByteReader::new(payload);
    let t = get_lin_tuple(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::BadPayload("trailing bytes after tuple".into()));
    }
    Ok(t)
}

/// Catalog payload: relation count, then per relation its name and the
/// standard-encoded instance. The schema is implied (name ↦ arity), which
/// keeps the snapshot exactly the paper's "byte string of the
/// quantifier-free representation" plus names.
pub fn put_database(w: &mut ByteWriter, db: &Database) {
    let rels: Vec<_> = db.relations().collect();
    w.put_varint(rels.len() as u128);
    for (name, rel) in rels {
        w.put_str(name);
        put_relation(w, rel);
    }
}

/// Inverse of [`put_database`].
pub fn get_database(r: &mut ByteReader) -> Result<Database> {
    let n = r.get_varint()? as usize;
    let mut entries = Vec::with_capacity(n);
    let mut schema = Schema::new();
    for _ in 0..n {
        let name = r.get_str()?;
        let rel = get_relation(r)?;
        schema = schema.with(&name, rel.arity());
        entries.push((name, rel));
    }
    let mut db = Database::new(schema);
    for (name, rel) in entries {
        db.set(&name, rel)
            .map_err(|e| CodecError::BadPayload(e.to_string()))?;
    }
    Ok(db)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_core::prelude::*;

    fn triangle() -> GeneralizedRelation {
        GeneralizedRelation::from_raw(
            2,
            vec![
                RawAtom::new(Term::var(0), RawOp::Le, Term::var(1)),
                RawAtom::new(Term::var(0), RawOp::Ge, Term::cst(rat(0, 1))),
                RawAtom::new(Term::var(1), RawOp::Le, Term::cst(rat(10, 1))),
            ],
        )
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_varint(0);
        w.put_varint(127);
        w.put_varint(128);
        w.put_varint(u64::MAX as u128);
        w.put_signed(0);
        w.put_signed(-1);
        w.put_signed(i64::MIN as i128);
        w.put_rational(&rat(-7, 3));
        w.put_str("héllo wörld");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_varint().unwrap(), 0);
        assert_eq!(r.get_varint().unwrap(), 127);
        assert_eq!(r.get_varint().unwrap(), 128);
        assert_eq!(r.get_varint().unwrap(), u64::MAX as u128);
        assert_eq!(r.get_signed().unwrap(), 0);
        assert_eq!(r.get_signed().unwrap(), -1);
        assert_eq!(r.get_signed().unwrap(), i64::MIN as i128);
        assert_eq!(r.get_rational().unwrap(), rat(-7, 3));
        assert_eq!(r.get_str().unwrap(), "héllo wörld");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn relation_record_roundtrips_structurally() {
        let rel = triangle();
        let bytes = encode_relation_record(&rel);
        let back = decode_relation_record(&bytes).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn corrupted_record_is_rejected() {
        let mut bytes = encode_relation_record(&triangle());
        // Flip one payload bit: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            decode_relation_record(&bytes),
            Err(CodecError::ChecksumMismatch) | Err(CodecError::BadEnvelope(_))
        ));
    }

    #[test]
    fn truncated_record_is_torn() {
        let bytes = encode_relation_record(&triangle());
        for cut in [0, 3, 9, bytes.len() - 1] {
            assert_eq!(
                decode_relation_record(&bytes[..cut]).unwrap_err(),
                CodecError::Torn,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn lin_tuple_record_roundtrips_structurally() {
        let t = LinTuple::from_atoms(
            2,
            vec![
                LinAtom::new(vec![rat(1, 1), rat(1, 1)], rat(-5, 2), CompOp::Le),
                LinAtom::new(vec![rat(2, 3), rat(-1, 1)], rat(0, 1), CompOp::Lt),
            ],
        );
        let back = decode_lin_tuple_record(&encode_lin_tuple_record(&t)).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.fingerprint(), t.fingerprint());
    }

    #[test]
    fn database_roundtrips_with_empty_relations() {
        let db = Database::new(Schema::new().with("R", 2).with("Empty", 3)).with("R", triangle());
        let mut w = ByteWriter::new();
        put_database(&mut w, &db);
        let bytes = w.into_bytes();
        let back = get_database(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn wrong_kind_is_reported() {
        let bytes = encode_relation_record(&triangle());
        assert!(matches!(
            open_record(&bytes, RecordKind::Catalog),
            Err(CodecError::WrongKind { .. })
        ));
    }
}
