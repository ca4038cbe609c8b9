//! Append-only write-ahead log of catalog updates.
//!
//! Durability protocol: every mutation is first appended to `wal.log` as
//! a sealed [`codec`](crate::codec) record (so each entry carries its own
//! CRC), *then* fsynced, and only then applied to the in-memory catalog.
//! On open, the log is replayed in order on top of the latest snapshot;
//! replay stops at the first record that is torn, corrupt, or breaks the
//! sequence-number chain, and the torn tail is truncated — a crashed
//! append can never resurrect as data.
//!
//! Group commit: [`Wal::append_records`] writes a whole *batch* of
//! pre-sealed records with one write pass and one fsync. The store's
//! commit leader drains the shared commit queue into it, so under
//! contention the fsync cost is amortized over every committer in the
//! batch, while a single writer degenerates to the classic one-fsync-
//! per-commit discipline. Replay needs no batch awareness: records are
//! self-delimiting and written in seq order, so a crash mid-batch leaves
//! a (possibly torn) seq-prefix exactly like a crash mid-record.
//!
//! The durability-critical instants carry [`guard`] probes so the chaos
//! suite can crash the process *exactly there*:
//!
//! * [`ProbeSite::WalAppend`] — after part of the first record of the
//!   batch is on disk but before the rest (produces a torn record);
//! * [`ProbeSite::GroupCommitFsync`] — after every record of the batch
//!   is written but before the single batch fsync;
//! * [`ProbeSite::WalFsync`] — immediately before the durability point
//!   (kept distinct from the batch probe for single-writer chaos cases).

use crate::codec::{open_record, seal_record, ByteReader, ByteWriter, CodecError, RecordKind};
use dco_core::guard::{self, ProbeSite};
use dco_core::prelude::{Conjunction, GeneralizedRelation};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File-header magic for `wal.log` — identifies the file and its layout
/// revision independently of the per-record envelopes.
pub const WAL_MAGIC: &[u8; 8] = b"DCOWAL01";

/// One logged catalog update. This is the store's *entire* write
/// vocabulary: anything not expressible here is not durable.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// Declare a new empty relation.
    Create {
        /// Relation name.
        name: String,
        /// Declared arity.
        arity: u32,
    },
    /// Remove a relation and its instance from the catalog.
    Drop {
        /// Relation name.
        name: String,
    },
    /// Union the given generalized tuples into an existing relation.
    InsertTuples {
        /// Relation name.
        name: String,
        /// Tuples to add, as a relation of the same arity.
        rel: GeneralizedRelation,
    },
    /// Delete every stored tuple subsumed by some tuple of `rel`
    /// (constraint-level deletion: "remove everything inside this region").
    RemoveSubsumed {
        /// Relation name.
        name: String,
        /// Deletion regions, as a relation of the same arity.
        rel: GeneralizedRelation,
    },
    /// Replace a relation's instance wholesale.
    Replace {
        /// Relation name.
        name: String,
        /// The new instance.
        rel: GeneralizedRelation,
    },
}

impl LogOp {
    fn tag(&self) -> u8 {
        match self {
            LogOp::Create { .. } => 1,
            LogOp::Drop { .. } => 2,
            LogOp::InsertTuples { .. } => 3,
            LogOp::RemoveSubsumed { .. } => 4,
            LogOp::Replace { .. } => 5,
        }
    }

    /// Name of the relation this op targets.
    pub fn target(&self) -> &str {
        match self {
            LogOp::Create { name, .. }
            | LogOp::Drop { name }
            | LogOp::InsertTuples { name, .. }
            | LogOp::RemoveSubsumed { name, .. }
            | LogOp::Replace { name, .. } => name,
        }
    }

    /// Serialize into `w` (payload only; no envelope, no seq).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_bytes(&[self.tag()]);
        match self {
            LogOp::Create { name, arity } => {
                w.put_str(name);
                w.put_varint(*arity as u128);
            }
            LogOp::Drop { name } => w.put_str(name),
            LogOp::InsertTuples { name, rel }
            | LogOp::RemoveSubsumed { name, rel }
            | LogOp::Replace { name, rel } => {
                w.put_str(name);
                crate::codec::put_relation(w, rel);
            }
        }
    }

    /// Inverse of [`LogOp::encode`].
    pub fn decode(r: &mut ByteReader) -> Result<LogOp, CodecError> {
        let tag = r.get_bytes(1)?[0];
        Ok(match tag {
            1 => LogOp::Create {
                name: r.get_str()?,
                arity: r.get_varint()? as u32,
            },
            2 => LogOp::Drop { name: r.get_str()? },
            3 => LogOp::InsertTuples {
                name: r.get_str()?,
                rel: crate::codec::get_relation(r)?,
            },
            4 => LogOp::RemoveSubsumed {
                name: r.get_str()?,
                rel: crate::codec::get_relation(r)?,
            },
            5 => LogOp::Replace {
                name: r.get_str()?,
                rel: crate::codec::get_relation(r)?,
            },
            _ => return Err(CodecError::BadPayload(format!("unknown log op tag {tag}"))),
        })
    }
}

/// A sequenced log entry as stored on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Monotone sequence number (1-based; snapshot covers `..= seq`).
    pub seq: u64,
    /// The operation.
    pub op: LogOp,
}

fn encode_entry(entry: &LogEntry) -> Vec<u8> {
    let mut w = ByteWriter::new();
    entry.op.encode(&mut w);
    seal_entry(entry.seq, &w.into_bytes())
}

/// Encode an op's payload bytes (no seq, no envelope). Committers do
/// this expensive part outside the commit queue lock; sealing with the
/// assigned seq ([`seal_entry`]) happens once the seq is known.
pub fn encode_op(op: &LogOp) -> Vec<u8> {
    let mut w = ByteWriter::new();
    op.encode(&mut w);
    w.into_bytes()
}

/// Seal a pre-encoded op payload (from [`encode_op`]) with its assigned
/// seq into a complete on-disk WAL record.
pub fn seal_entry(seq: u64, op_payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(seq);
    w.put_bytes(op_payload);
    seal_record(RecordKind::WalOp, &w.into_bytes())
}

/// Decode one sealed WAL record from the front of `bytes`, returning
/// the entry and the number of bytes it occupied. Also the unit the
/// replication path validates records with before applying them.
pub(crate) fn decode_entry(bytes: &[u8]) -> Result<(LogEntry, usize), CodecError> {
    let (payload, consumed) = open_record(bytes, RecordKind::WalOp)?;
    let mut r = ByteReader::new(payload);
    let seq = r.get_u64()?;
    let op = LogOp::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::BadPayload("trailing bytes after log op".into()));
    }
    Ok((LogEntry { seq, op }, consumed))
}

/// Split a byte stream of concatenated sealed WAL records — the payload
/// of a replication batch frame — into individual records, validating
/// each envelope (magic, version, CRC) along the way. A torn or corrupt
/// record surfaces as the codec error it is, *before* anything is
/// applied.
pub fn split_records(bytes: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let (_, consumed) = decode_entry(rest)?;
        out.push(rest[..consumed].to_vec());
        rest = &rest[consumed..];
    }
    Ok(out)
}

/// Apply one op to a map of shared relation instances, as both replay
/// and the live per-shard write path do. The map is self-describing — a
/// created relation is present (possibly empty) until dropped, and its
/// handle carries its arity — so no separate schema is threaded through.
/// Untouched relations are shared by `Arc`, not copied. Returns an error
/// string for ops invalid against the current map (replay treats these
/// as corruption; the live path validates before logging).
pub fn apply_op(
    relations: &mut BTreeMap<String, Arc<GeneralizedRelation>>,
    op: &LogOp,
) -> Result<(), String> {
    match op {
        LogOp::Create { name, arity } => {
            if relations.contains_key(name) {
                return Err(format!("create: relation `{name}` already exists"));
            }
            relations.insert(name.clone(), Arc::new(GeneralizedRelation::empty(*arity)));
            Ok(())
        }
        LogOp::Drop { name } => {
            if relations.remove(name).is_none() {
                return Err(format!("drop: unknown relation `{name}`"));
            }
            Ok(())
        }
        LogOp::InsertTuples { name, rel }
        | LogOp::RemoveSubsumed { name, rel }
        | LogOp::Replace { name, rel } => {
            let current = relations
                .get(name)
                .ok_or_else(|| format!("update: unknown relation `{name}`"))?;
            let declared = current.arity();
            if declared != rel.arity() {
                return Err(format!(
                    "update: relation `{name}` has arity {declared}, got {}",
                    rel.arity()
                ));
            }
            let next = match op {
                LogOp::InsertTuples { .. } => current.union(rel),
                LogOp::RemoveSubsumed { .. } => GeneralizedRelation::from_tuples(
                    declared,
                    current
                        .tuples()
                        .iter()
                        .filter(|t| !rel.tuples().iter().any(|d| d.subsumes(t)))
                        .cloned(),
                ),
                LogOp::Replace { .. } => rel.clone(),
                _ => unreachable!(),
            };
            relations.insert(name.clone(), Arc::new(next));
            Ok(())
        }
    }
}

/// The append side of the log: an open file handle plus the next seq.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    next_seq: u64,
    fsync: bool,
    /// When set, every batch fsync's wall time is recorded here
    /// (`store.wal.fsync`, nanoseconds). Optional so the WAL stays
    /// usable in contexts with no metrics registry (recovery tools).
    fsync_hist: Option<Arc<dco_obs::Histogram>>,
}

/// Outcome of scanning a log file on open.
#[derive(Debug)]
pub struct WalScan {
    /// Every valid entry, in order.
    pub entries: Vec<LogEntry>,
    /// Byte offset of the end of the last valid record — anything past
    /// this is a torn tail to truncate.
    pub valid_len: u64,
    /// Whether a torn/corrupt tail was found (and must be truncated).
    pub torn: bool,
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending.
    /// Scans existing content, truncates any torn tail, and returns the
    /// handle together with the surviving entries.
    pub fn open(path: &Path, fsync: bool) -> std::io::Result<(Wal, WalScan)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let scan = if bytes.is_empty() {
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            WalScan {
                entries: Vec::new(),
                valid_len: WAL_MAGIC.len() as u64,
                torn: false,
            }
        } else if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "wal.log: bad file magic",
            ));
        } else {
            Self::scan(&bytes[WAL_MAGIC.len()..], WAL_MAGIC.len() as u64)
        };

        if scan.torn {
            file.set_len(scan.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;

        let next_seq = scan.entries.last().map_or(1, |e| e.seq + 1);
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                next_seq,
                fsync,
                fsync_hist: None,
            },
            scan,
        ))
    }

    fn scan(mut bytes: &[u8], mut offset: u64) -> WalScan {
        let mut entries: Vec<LogEntry> = Vec::new();
        let mut torn = false;
        while !bytes.is_empty() {
            match decode_entry(bytes) {
                Ok((entry, consumed)) => {
                    let expected = entries.last().map_or(entry.seq, |e| e.seq + 1);
                    if entry.seq != expected && !entries.is_empty() {
                        // A seq break means the tail was written against a
                        // different history (e.g. partial truncation): stop.
                        torn = true;
                        break;
                    }
                    offset += consumed as u64;
                    entries.push(entry);
                    bytes = &bytes[consumed..];
                }
                Err(_) => {
                    // Torn, corrupt, or foreign record: the valid prefix
                    // ends here. Recovery keeps everything before it.
                    torn = true;
                    break;
                }
            }
        }
        WalScan {
            entries,
            valid_len: offset,
            torn,
        }
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Route batch-fsync latencies into `hist` (nanoseconds per fsync).
    pub fn set_fsync_histogram(&mut self, hist: Arc<dco_obs::Histogram>) {
        self.fsync_hist = Some(hist);
    }

    /// Force the next append to use `seq` (used after snapshot-only
    /// recovery so seq numbers stay monotone across truncations).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Append one op, returning its sequence number: a group-commit
    /// batch of one (see [`Wal::append_records`] for the probe layout).
    ///
    /// On any error the log file state is unspecified; the caller must
    /// mark the store unhealthy and force a reopen (which truncates).
    pub fn append(&mut self, op: &LogOp) -> std::io::Result<u64> {
        let seq = self.next_seq;
        let record = encode_entry(&LogEntry {
            seq,
            op: op.clone(),
        });
        self.append_records(std::iter::once(record.as_slice()))?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Append a batch of pre-sealed records (from [`seal_entry`], in seq
    /// order) with one write pass and one fsync — the group-commit
    /// durability primitive. Probe layout, in order:
    ///
    /// 1. [`ProbeSite::WalAppend`] fires after the first half of the
    ///    first record is on disk (a fault leaves a *torn* record,
    ///    exactly like a crash mid-write);
    /// 2. [`ProbeSite::GroupCommitFsync`] fires after every record of
    ///    the batch is written, before the batch fsync;
    /// 3. [`ProbeSite::WalFsync`] fires immediately before the fsync
    ///    itself (the single-writer chaos site, kept for batch-of-one
    ///    compatibility).
    ///
    /// On any error the log file state is unspecified; the caller must
    /// mark the store unhealthy and force a reopen (which truncates).
    pub fn append_records<'a>(
        &mut self,
        records: impl Iterator<Item = &'a [u8]>,
    ) -> std::io::Result<()> {
        let mut first = true;
        for record in records {
            if first {
                // Two-phase write with a probe in the gap.
                let split = record.len() / 2;
                self.file.write_all(&record[..split])?;
                guard::probe(ProbeSite::WalAppend);
                self.file.write_all(&record[split..])?;
                first = false;
            } else {
                self.file.write_all(record)?;
            }
        }
        guard::probe(ProbeSite::GroupCommitFsync);
        guard::probe(ProbeSite::WalFsync);
        if self.fsync {
            let t0 = std::time::Instant::now();
            self.file.sync_data()?;
            if let Some(h) = &self.fsync_hist {
                h.record_duration(t0.elapsed());
            }
        }
        Ok(())
    }

    /// Truncate the log to empty (after a snapshot has made it
    /// redundant). Sequence numbering continues from where it was.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dco_core::prelude::*;
    use std::collections::BTreeMap;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dco-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn halfplane() -> GeneralizedRelation {
        GeneralizedRelation::from_raw(2, vec![RawAtom::new(Term::var(0), RawOp::Lt, Term::var(1))])
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.log");
        let ops = vec![
            LogOp::Create {
                name: "r".into(),
                arity: 2,
            },
            LogOp::InsertTuples {
                name: "r".into(),
                rel: halfplane(),
            },
            LogOp::Drop { name: "r".into() },
        ];
        {
            let (mut wal, scan) = Wal::open(&path, true).unwrap();
            assert!(scan.entries.is_empty());
            for op in &ops {
                wal.append(op).unwrap();
            }
        }
        let (_, scan) = Wal::open(&path, true).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.entries.len(), 3);
        assert_eq!(
            scan.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(
            scan.entries
                .iter()
                .map(|e| e.op.clone())
                .collect::<Vec<_>>(),
            ops
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = Wal::open(&path, true).unwrap();
            wal.append(&LogOp::Create {
                name: "r".into(),
                arity: 2,
            })
            .unwrap();
            wal.append(&LogOp::InsertTuples {
                name: "r".into(),
                rel: halfplane(),
            })
            .unwrap();
        }
        // Tear the final record by chopping off its last 5 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (mut wal, scan) = Wal::open(&path, true).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.entries.len(), 1, "only the intact record survives");
        // The file was truncated to the valid prefix; appending works.
        let seq = wal.append(&LogOp::Drop { name: "r".into() }).unwrap();
        assert_eq!(seq, 2);
        let (_, rescan) = Wal::open(&path, true).unwrap();
        assert!(!rescan.torn);
        assert_eq!(rescan.entries.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apply_op_full_vocabulary() {
        let mut rels = BTreeMap::new();
        apply_op(
            &mut rels,
            &LogOp::Create {
                name: "r".into(),
                arity: 2,
            },
        )
        .unwrap();
        apply_op(
            &mut rels,
            &LogOp::InsertTuples {
                name: "r".into(),
                rel: halfplane(),
            },
        )
        .unwrap();
        assert!(!rels["r"].is_empty());
        // Arity mismatches are rejected against the live instance.
        assert!(apply_op(
            &mut rels,
            &LogOp::InsertTuples {
                name: "r".into(),
                rel: GeneralizedRelation::empty(3),
            },
        )
        .is_err());
        // Removing the exact same region empties the relation.
        apply_op(
            &mut rels,
            &LogOp::RemoveSubsumed {
                name: "r".into(),
                rel: halfplane(),
            },
        )
        .unwrap();
        assert!(rels["r"].is_empty());
        apply_op(&mut rels, &LogOp::Drop { name: "r".into() }).unwrap();
        assert!(!rels.contains_key("r"));
        assert!(apply_op(&mut rels, &LogOp::Drop { name: "r".into() }).is_err());
    }

    #[test]
    fn batch_append_scans_like_sequential_appends() {
        let dir = tmpdir("batch");
        let path = dir.join("wal.log");
        let ops = vec![
            LogOp::Create {
                name: "r".into(),
                arity: 2,
            },
            LogOp::InsertTuples {
                name: "r".into(),
                rel: halfplane(),
            },
            LogOp::Drop { name: "r".into() },
        ];
        {
            let (mut wal, _) = Wal::open(&path, true).unwrap();
            let records: Vec<Vec<u8>> = ops
                .iter()
                .enumerate()
                .map(|(i, op)| seal_entry(1 + i as u64, &encode_op(op)))
                .collect();
            wal.append_records(records.iter().map(|r| r.as_slice()))
                .unwrap();
        }
        let (_, scan) = Wal::open(&path, true).unwrap();
        assert!(!scan.torn);
        assert_eq!(
            scan.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(
            scan.entries
                .iter()
                .map(|e| e.op.clone())
                .collect::<Vec<_>>(),
            ops
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_batch_tail_recovers_the_record_prefix() {
        let dir = tmpdir("tornbatch");
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = Wal::open(&path, true).unwrap();
            let records: Vec<Vec<u8>> = (0..3)
                .map(|i| {
                    seal_entry(
                        1 + i as u64,
                        &encode_op(&LogOp::Create {
                            name: format!("r{i}"),
                            arity: 1,
                        }),
                    )
                })
                .collect();
            wal.append_records(records.iter().map(|r| r.as_slice()))
                .unwrap();
        }
        // Tear the last record of the batch: the first two must survive.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 4).unwrap();
        drop(f);
        let (_, scan) = Wal::open(&path, true).unwrap();
        assert!(scan.torn);
        assert_eq!(
            scan.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2],
            "a torn batch must recover as a seq-prefix"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
