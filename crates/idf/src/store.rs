//! The persistent incremental verdict store (`--cache-dir`).
//!
//! The store maps method keys to the [`Fingerprint`] they were last
//! verified under and the resulting [`Verdict`]. Only *definite*
//! verdicts are persisted — `Verified` (with
//! [`VerifyStats::normalized`] statistics) and `Failed` — never
//! `Unknown` or `CrashedInternal`: an indefinite answer must be
//! retried on the next run, not replayed from disk.
//!
//! The on-disk encoding is **`DAES1`**: one append-only file,
//! [`VerdictStore::FILE_NAME`] in the cache directory. It is a
//! checksummed fixed-layout header followed by length-prefixed records
//! with fixed-width little-endian integer fields and a per-record
//! checksum; loading streams the file once, skips corrupt records with
//! a count, and treats a cut-off tail (crash mid-append) as truncation,
//! never poison. Saving rewrites the file compacted (tombstones and
//! superseded records dropped) through a temp-file rename. Any other
//! file in the directory (such as the `verdicts-*.daes` shards or the
//! verdict and dependency-graph `.jsonl` files left by retired
//! encodings) is ignored and never touched: its methods simply
//! re-verify.
//! [`VerdictStore::dump`] is the one-way export, one JSON object per
//! live entry.
//!
//! [`crate::session::SessionHost`] is the one owner of an open store,
//! and [`VerdictStore::commit`] is its one write path: each
//! verification pass commits its verdicts and its dependency-graph
//! nodes once, as at most one verdict append and one node append, and
//! [`VerdictStore::save`] is the graceful-shutdown compaction. The
//! store is a cache of facts that can be recomputed, so the contract is
//! **process-crash safe, not power-loss safe**: a killed process loses
//! at most the pass in flight (its methods re-verify on the next pass),
//! and nothing is ever fsynced — an append is done once it reaches the
//! page cache. Appends accumulate *dead weight* — superseded records
//! and evict tombstones that replay discards. The store tracks that
//! debt (including debt inherited from disk at open) and compacts once
//! it exceeds the live records (verdicts plus graph nodes), so a
//! long-lived daemon's store file stops growing without bound between
//! explicit saves. A file whose scan at open did not end clean (damaged
//! header, rotten record, torn tail), or whose last append failed, is
//! never appended to: the next commit rewrites it from memory, so the
//! damage heals instead of swallowing every later append.
//!
//! The same file carries the method → callee-spec dependency graph
//! ([`crate::depgraph::DepGraph`]) used for transitive spec-dirtiness:
//! one node record per method, replayed last-wins and never tombstoned
//! (the graph never forgets a node). A commit writes node records only
//! after every verdict record of the pass has landed, so a failed or
//! killed commit leaves the previous interfaces on disk and can only
//! widen the next pass's cone.

use crate::depgraph::{DepGraph, DepNode};
use crate::diag::FailureReport;
use crate::exec::{Obligation, Verdict, VerifyStats};
use crate::fingerprint::Fingerprint;
use crate::smt::Answer;
use daenerys_obs::Json;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One stored method verdict.
#[derive(Clone, PartialEq, Debug)]
pub struct StoredVerdict {
    /// The fingerprint the verdict was computed under.
    pub fingerprint: Fingerprint,
    /// The verdict (`Verified` with normalized stats, or `Failed`).
    pub verdict: Verdict,
}

/// The persistent verdict store backing `--cache-dir`.
#[derive(Clone, PartialEq, Debug)]
pub struct VerdictStore {
    dir: PathBuf,
    entries: BTreeMap<String, StoredVerdict>,
    /// Undecodable records skipped during the last
    /// [`VerdictStore::open`] (surfaced as the `store.corrupt_lines`
    /// obs counter and in the daemon's metrics snapshot). A truncated
    /// final record — the signature of a crash mid-append — counts
    /// here too, but is additionally flagged by `truncated_tail`.
    corrupt_lines: usize,
    /// True when the file's final record was cut off mid-write: the
    /// expected wreckage of a SIGKILL between `write` and completion,
    /// worth a warning but never grounds to poison the rest of the
    /// store.
    truncated_tail: bool,
    /// Dead weight in the on-disk log: records replay discarded at
    /// open plus committed records that superseded an entry or a graph
    /// node since, and every committed tombstone with the entry it
    /// evicted. Once this exceeds the live verdicts plus live nodes,
    /// the next commit that writes compacts.
    dead_records: usize,
    /// The persisted dependency graph, loaded from the node records
    /// (see [`crate::depgraph`]).
    graph: DepGraph,
    /// True when the file's scan at open did not end clean or an
    /// append to it failed. An append there would land after the
    /// damage, where the next open drops it, so the next
    /// [`VerdictStore::commit`] that writes rewrites the file whole.
    damaged: bool,
}

/// Minimum dead-weight before auto-compaction triggers, so tiny stores
/// are not rewritten on every other append.
const COMPACT_MIN_DEAD: usize = 64;

impl VerdictStore {
    /// The `DAES1` store file's name in the cache directory.
    pub const FILE_NAME: &'static str = "verdicts.daes";

    /// Opens (or initializes) the store under `dir`. A missing file
    /// and unreadable/corrupt records load as absent entries — a
    /// damaged store costs re-verification, never a wrong verdict.
    pub fn open(dir: &Path) -> VerdictStore {
        let mut replay = Replay::default();
        let (corrupt_lines, truncated_tail) = match fs::read(dir.join(Self::FILE_NAME)) {
            Ok(bytes) => decode(&bytes, &mut replay),
            Err(_) => (0, false),
        };
        let mut store = VerdictStore {
            dir: dir.to_path_buf(),
            entries: replay.entries,
            corrupt_lines,
            truncated_tail,
            dead_records: 0,
            graph: DepGraph::from_nodes(replay.nodes),
            damaged: corrupt_lines > 0,
        };
        store.dead_records = replay.records.saturating_sub(store.live());
        store
    }

    /// The cache directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Undecodable records skipped by the last [`VerdictStore::open`].
    pub fn corrupt_lines(&self) -> usize {
        self.corrupt_lines
    }

    /// True when the file ended in a record cut off mid-write (crash
    /// mid-append) that was skipped on load.
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }

    /// Dead records currently sitting in the on-disk log (superseded
    /// or tombstoned); the auto-compaction pressure gauge.
    pub fn dead_records(&self) -> usize {
        self.dead_records
    }

    /// The stored verdict for `method`, iff it was recorded under
    /// exactly this fingerprint.
    pub fn lookup(&self, method: &str, fingerprint: Fingerprint) -> Option<&Verdict> {
        let stored = self.entries.get(method)?;
        (stored.fingerprint == fingerprint).then_some(&stored.verdict)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The persisted dependency graph (empty when the directory has
    /// none yet).
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Commits one verification pass: the verdicts it computed, as
    /// `(store key, fingerprint, verdict)`, and the pass's dependency
    /// graph. This is the store's one write path, and the pass's one
    /// store write.
    ///
    /// The verdicts are applied in memory first. Definite verdicts
    /// (`Verified`, with [`VerifyStats::normalized`] stats, and
    /// `Failed`) replace the key's entry; `Unknown` and
    /// `CrashedInternal` *remove* it (its fingerprint can no longer be
    /// trusted to describe the outcome). Their put and evict-tombstone
    /// frames then go out as one append. Only after every verdict frame
    /// has landed is `graph` absorbed (see [`DepGraph::absorb`]) and a
    /// node frame appended for each node it changed, as one more
    /// append, so a failed or killed commit leaves the previous
    /// interfaces on disk and can only widen the next pass's cone.
    ///
    /// Each of the two writes rewrites the whole file from memory
    /// ([`VerdictStore::save`]) instead of appending when the file is
    /// damaged (at open, or by a failed append) or when the dead weight
    /// has outgrown the live records, so a commit rewrites at most
    /// once. A commit with no verdicts and no changed node writes
    /// nothing.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from creating the directory or
    /// writing the file. The in-memory verdicts are updated regardless;
    /// when a verdict write fails the graph is left unabsorbed, in
    /// memory as on disk. What did not land re-verifies on a later
    /// pass, and [`VerdictStore::save`] writes out what memory holds.
    pub fn commit<'v>(
        &mut self,
        verdicts: impl IntoIterator<Item = (&'v str, Fingerprint, &'v Verdict)>,
        graph: &DepGraph,
    ) -> io::Result<()> {
        let mut frames = Vec::new();
        for (key, fingerprint, verdict) in verdicts {
            let frame = if matches!(verdict, Verdict::Verified(_) | Verdict::Failed { .. }) {
                let stored = StoredVerdict {
                    fingerprint,
                    verdict: verdict.normalized(),
                };
                let frame = encode_frame(RECORD_PUT, &encode_put_payload(key, &stored));
                // A put that supersedes an entry buries its record.
                if self.entries.insert(key.to_string(), stored).is_some() {
                    self.dead_records += 1;
                }
                frame
            } else {
                // A tombstone is dead weight itself, and buries the
                // record of any entry it evicts.
                self.dead_records += 1 + usize::from(self.entries.remove(key).is_some());
                encode_frame(RECORD_TOMBSTONE, &encode_tombstone_payload(key))
            };
            frames.extend(frame);
        }
        self.write(&frames)?;

        let known = self.graph.len();
        let changed = self.graph.absorb(graph);
        // Every changed node that was already known buries its record.
        self.dead_records += changed.len() - (self.graph.len() - known);
        let mut frames = Vec::new();
        for name in &changed {
            let node = self.graph.node(name).expect("absorbed nodes stay");
            frames.extend(encode_frame(RECORD_NODE, &encode_dep_payload(name, node)));
        }
        self.write(&frames)
    }

    /// Appends `frames` to the file, or, when it is damaged or the dead
    /// weight has outgrown the live records, rewrites it from memory.
    fn write(&mut self, frames: &[u8]) -> io::Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        if self.damaged || self.over_debt() {
            return self.save();
        }
        fs::create_dir_all(&self.dir)?;
        // A failed append may leave a torn frame at the end of the file.
        append(&self.dir.join(Self::FILE_NAME), frames).inspect_err(|_| self.damaged = true)
    }

    /// Live records: stored verdicts plus graph nodes.
    fn live(&self) -> usize {
        self.entries.len() + self.graph.len()
    }

    /// True once the dead weight on disk outgrows the live records.
    fn over_debt(&self) -> bool {
        self.dead_records > COMPACT_MIN_DEAD.max(self.live())
    }

    /// Writes the store back to disk, compacted (one record per live
    /// method and one per graph node, tombstones and superseded records
    /// dropped), atomically via a temp-file rename. The frames stream
    /// to the temp file, so the rewrite never holds the whole file in
    /// memory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or writing
    /// the file.
    pub fn save(&mut self) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(Self::FILE_NAME);
        let tmp = path.with_extension("daes.tmp");
        let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
        out.write_all(&header())?;
        for (name, stored) in &self.entries {
            out.write_all(&encode_frame(RECORD_PUT, &encode_put_payload(name, stored)))?;
        }
        for (name, node) in self.graph.nodes() {
            out.write_all(&encode_frame(RECORD_NODE, &encode_dep_payload(name, node)))?;
        }
        out.into_inner()?;
        fs::rename(&tmp, &path)?;
        self.damaged = false;
        self.dead_records = 0;
        Ok(())
    }

    /// The live entries as JSON text, one object per entry in key
    /// order. An object holds `method`, `fp` and `verdict`
    /// (`verified`/`failed`), plus the normalized `stats` of a verified
    /// entry or the `failures` and `report` of a failed one; fields are
    /// rendered in alphabetical order. This is a one-way export for reading
    /// and tooling; the store never reads it back.
    pub fn dump(&self) -> impl Iterator<Item = String> + '_ {
        self.entries
            .iter()
            .map(|(name, stored)| dump_entry(name, stored).render())
    }
}

/// Locks a shared store, tolerating poisoning: every record on disk
/// is self-contained and the map is updated one entry at a time, so a
/// panic mid-commit cannot leave a store worth refusing.
pub(crate) fn lock(m: &Mutex<VerdictStore>) -> MutexGuard<'_, VerdictStore> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The [`VerdictStore::dump`] object of one entry.
fn dump_entry(name: &str, stored: &StoredVerdict) -> Json {
    let strs = |items: &[String]| Json::Arr(items.iter().map(|s| s.as_str().into()).collect());
    let mut fields = vec![
        ("method", name.into()),
        ("fp", stored.fingerprint.to_string().into()),
    ];
    match &stored.verdict {
        Verdict::Verified(stats) => {
            fields.push(("verdict", "verified".into()));
            let values = stats.counters().map(|(k, v)| (k, v.into()));
            fields.push(("stats", Json::obj(values)));
        }
        Verdict::Failed { failures, report } => {
            fields.push(("verdict", "failed".into()));
            let failures = failures.iter().map(|o| {
                Json::obj([
                    ("description", o.description.as_str().into()),
                    ("outcome", answer_name(o.outcome).into()),
                ])
            });
            fields.push(("failures", Json::Arr(failures.collect())));
            let hot_queries = report.hot_queries.iter().map(|q| {
                Json::obj([
                    ("description", q.description.as_str().into()),
                    ("fuel", q.fuel.into()),
                    ("cache_hit", q.cache_hit.into()),
                    ("learned", q.learned.into()),
                    ("pc_hash", format!("{:016x}", q.pc_hash).into()),
                    ("answer", answer_name(q.answer).into()),
                ])
            });
            fields.push((
                "report",
                Json::obj([
                    ("first_failure", report.first_failure.as_str().into()),
                    ("chunks", strs(&report.chunks)),
                    ("path_condition", strs(&report.path_condition)),
                    ("hot_queries", Json::Arr(hot_queries.collect())),
                ]),
            ));
        }
        // `commit` never stores these.
        Verdict::Unknown { .. } | Verdict::CrashedInternal { .. } => {
            fields.push(("verdict", "unpersistable".into()));
        }
    }
    Json::obj(fields)
}

/// Appends `frames` to `path` in one write; the `DAES1` header goes
/// first when the file is new or empty. The write reaches the page
/// cache, not the disk: no fsync.
fn append(path: &Path, frames: &[u8]) -> io::Result<()> {
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if file.metadata()?.len() == 0 {
        let mut bytes = header().to_vec();
        bytes.extend_from_slice(frames);
        return file.write_all(&bytes);
    }
    file.write_all(frames)
}

// ---------------------------------------------------------------------
// DAES1 binary codec.
//
// File header (24 bytes):
//   0..6   magic  "DAES1\0"
//   6..8   version u16 LE (currently 1)
//   8..16  reserved (0)
//   16..24 FNV-1a-64 checksum of bytes 0..16, u64 LE
//
// Record frame (16 bytes + payload):
//   0..4   payload length u32 LE
//   4      record kind (1 = put, 2 = tombstone, 3 = graph node)
//   5..8   padding (0)
//   8..16  FNV-1a-64 checksum of the payload, u64 LE
//
// Put payload: key string (u32 LE length + UTF-8 bytes), fingerprint
// hi/lo u64 LE, verdict tag u8 (0 = verified, 1 = failed), then either
// the 17 normalized stat counters (u64 LE each, in
// `VerifyStats::counters` order) or
// the failure obligations + report with every integer fixed-width LE
// and every string length-prefixed. Tombstone payload: the key string.
// Node payload: the method name string, the interface fingerprint
// hi/lo u64 LE, then the callee names (u32 LE count + strings). The
// record kind keeps node names apart from verdict keys
// (`{name}@{config}`): each kind replays into its own map.
// ---------------------------------------------------------------------

const DAES_MAGIC: &[u8; 6] = b"DAES1\0";
const DAES_VERSION: u16 = 1;
const HEADER_LEN: usize = 24;
const FRAME_HEADER_LEN: usize = 16;
const RECORD_PUT: u8 = 1;
const RECORD_TOMBSTONE: u8 = 2;
const RECORD_NODE: u8 = 3;
const VERDICT_VERIFIED: u8 = 0;
const VERDICT_FAILED: u8 = 1;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..6].copy_from_slice(DAES_MAGIC);
    h[6..8].copy_from_slice(&DAES_VERSION.to_le_bytes());
    // 8..16 reserved, already zero.
    let sum = fnv64(&h[..16]);
    h[16..24].copy_from_slice(&sum.to_le_bytes());
    h
}

fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn answer_code(a: Answer) -> u8 {
    match a {
        Answer::Valid => 0,
        Answer::Invalid => 1,
        Answer::Unknown => 2,
    }
}

fn decode_answer_code(c: u8) -> Option<Answer> {
    match c {
        0 => Some(Answer::Valid),
        1 => Some(Answer::Invalid),
        2 => Some(Answer::Unknown),
        _ => None,
    }
}

fn encode_tombstone_payload(key: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + key.len());
    put_str(&mut out, key);
    out
}

fn encode_put_payload(key: &str, stored: &StoredVerdict) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, key);
    put_u64(&mut out, stored.fingerprint.hi);
    put_u64(&mut out, stored.fingerprint.lo);
    match &stored.verdict {
        Verdict::Verified(stats) => {
            out.push(VERDICT_VERIFIED);
            for (_, v) in stats.counters() {
                put_u64(&mut out, v as u64);
            }
        }
        Verdict::Failed { failures, report } => {
            out.push(VERDICT_FAILED);
            put_u32(&mut out, failures.len() as u32);
            for o in failures {
                put_str(&mut out, &o.description);
                out.push(answer_code(o.outcome));
            }
            put_str(&mut out, &report.first_failure);
            put_str_list(&mut out, &report.chunks);
            put_str_list(&mut out, &report.path_condition);
            put_u32(&mut out, report.hot_queries.len() as u32);
            for q in &report.hot_queries {
                put_str(&mut out, &q.description);
                put_u64(&mut out, q.fuel);
                out.push(u8::from(q.cache_hit));
                put_u64(&mut out, q.learned);
                put_u64(&mut out, q.pc_hash);
                out.push(answer_code(q.answer));
            }
        }
        // `commit` never stores these; encode defensively as a record
        // the decoder will reject.
        Verdict::Unknown { .. } | Verdict::CrashedInternal { .. } => {
            out.push(u8::MAX);
        }
    }
    out
}

/// A bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let b = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(std::str::from_utf8(b).ok()?.to_string())
    }

    fn str_list(&mut self) -> Option<Vec<String>> {
        let n = self.u32()? as usize;
        // Each element costs at least its 4-byte length prefix: a
        // garbage count cannot allocate past the payload.
        if n > self.buf.len().saturating_sub(self.pos) / 4 {
            return None;
        }
        (0..n).map(|_| self.str()).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_dep_payload(name: &str, node: &DepNode) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, name);
    put_u64(&mut out, node.interface.hi);
    put_u64(&mut out, node.interface.lo);
    put_str_list(&mut out, &node.callees);
    out
}

fn decode_dep_payload(payload: &[u8]) -> Option<(String, DepNode)> {
    let mut r = Reader::new(payload);
    let name = r.str()?;
    let interface = Fingerprint {
        hi: r.u64()?,
        lo: r.u64()?,
    };
    let callees = r.str_list()?;
    r.done().then_some((name, DepNode { interface, callees }))
}

fn decode_put_payload(payload: &[u8]) -> Option<(String, StoredVerdict)> {
    let mut r = Reader::new(payload);
    let key = r.str()?;
    let fingerprint = Fingerprint {
        hi: r.u64()?,
        lo: r.u64()?,
    };
    let verdict = match r.u8()? {
        VERDICT_VERIFIED => {
            let mut values = [0usize; 17];
            for v in &mut values {
                *v = usize::try_from(r.u64()?).ok()?;
            }
            Verdict::Verified(VerifyStats::from_counters(values))
        }
        VERDICT_FAILED => {
            let n = r.u32()? as usize;
            if n > payload.len() / 5 {
                return None;
            }
            let failures = (0..n)
                .map(|_| {
                    Some(Obligation {
                        description: r.str()?,
                        outcome: decode_answer_code(r.u8()?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            let first_failure = r.str()?;
            let chunks = r.str_list()?;
            let path_condition = r.str_list()?;
            let hq = r.u32()? as usize;
            if hq > payload.len() / 30 {
                return None;
            }
            let hot_queries = (0..hq)
                .map(|_| {
                    Some(crate::diag::QueryCost {
                        description: r.str()?,
                        fuel: r.u64()?,
                        cache_hit: r.u8()? != 0,
                        learned: r.u64()?,
                        pc_hash: r.u64()?,
                        answer: decode_answer_code(r.u8()?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Verdict::Failed {
                failures,
                report: FailureReport {
                    method: key.clone(),
                    first_failure,
                    chunks,
                    path_condition,
                    hot_queries,
                },
            }
        }
        _ => return None,
    };
    r.done().then_some((
        key,
        StoredVerdict {
            fingerprint,
            verdict,
        },
    ))
}

/// What replaying the file has built.
#[derive(Default)]
struct Replay {
    entries: BTreeMap<String, StoredVerdict>,
    nodes: BTreeMap<String, DepNode>,
    /// Records replayed, live or superseded.
    records: usize,
}

/// Replays the records of `bytes` into `replay`, returning the
/// corrupt records skipped and whether the scan ended in a truncated
/// tail (crash mid-append; the cut-off record counts as corrupt).
fn decode(bytes: &[u8], replay: &mut Replay) -> (usize, bool) {
    if bytes.len() < HEADER_LEN || bytes[..HEADER_LEN] != header() {
        // A file whose very header is damaged contributes nothing: one
        // counted skip for the file.
        return (usize::from(!bytes.is_empty()), false);
    }
    let mut corrupt = 0usize;
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER_LEN {
            // A frame header cut off mid-write.
            return (corrupt + 1, true);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let kind = bytes[pos + 4];
        let sum = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8 bytes"));
        let start = pos + FRAME_HEADER_LEN;
        if len > bytes.len() - start {
            // The frame declares more payload than the file holds: the
            // classic crash-mid-append tail. Nothing after it can be
            // re-framed, so the scan stops here.
            return (corrupt + 1, true);
        }
        let payload = &bytes[start..start + len];
        pos = start + len;
        if fnv64(payload) != sum {
            // Framing is intact, the payload is rotten: skip exactly
            // this record and keep scanning.
            corrupt += 1;
            continue;
        }
        let replayed = match kind {
            RECORD_PUT => decode_put_payload(payload).map(|(key, stored)| {
                replay.entries.insert(key, stored);
            }),
            RECORD_TOMBSTONE => Reader::new(payload).str().map(|key| {
                replay.entries.remove(&key);
            }),
            RECORD_NODE => decode_dep_payload(payload).map(|(name, node)| {
                replay.nodes.insert(name, node);
            }),
            _ => None,
        };
        match replayed {
            Some(()) => replay.records += 1,
            None => corrupt += 1,
        }
    }
    (corrupt, false)
}

// ---------------------------------------------------------------------
// Shared by the DAES1 codec and the JSON dump.
// ---------------------------------------------------------------------

fn answer_name(a: Answer) -> &'static str {
    match a {
        Answer::Valid => "valid",
        Answer::Invalid => "invalid",
        Answer::Unknown => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::QueryCost;
    use crate::exec::UnknownReason;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint { hi: n, lo: !n }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("daenerys-store-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Commits one pass of `verdicts` that brings no graph nodes.
    fn commit(store: &mut VerdictStore, verdicts: &[(&str, Fingerprint, Verdict)]) {
        store
            .commit(
                verdicts.iter().map(|(k, f, v)| (*k, *f, v)),
                &DepGraph::new(),
            )
            .unwrap();
    }

    fn verified() -> Verdict {
        Verdict::Verified(VerifyStats::default())
    }

    fn sample_failed() -> Verdict {
        Verdict::Failed {
            failures: vec![Obligation {
                description: "postcondition: \"tricky\\path\"\n".to_string(),
                outcome: Answer::Invalid,
            }],
            report: FailureReport {
                // Matches the key the test stores the verdict under:
                // the codec rebuilds `report.method` from the entry's
                // key rather than persisting it twice.
                method: "bad".to_string(),
                first_failure: "[Invalid] postcondition".to_string(),
                chunks: vec!["acc(c.val, 1) ↦ $v0".to_string()],
                path_condition: vec!["0 < $n".to_string()],
                hot_queries: vec![QueryCost {
                    description: "postcondition".to_string(),
                    fuel: 3,
                    cache_hit: false,
                    learned: 1,
                    pc_hash: u64::MAX,
                    answer: Answer::Invalid,
                }],
            },
        }
    }

    #[test]
    fn roundtrips_verified_and_failed() {
        let dir = temp_dir("roundtrip");
        let mut store = VerdictStore::open(&dir);
        let stats = VerifyStats {
            obligations: 2,
            solver_queries: 5,
            learned_clauses: 1,
            wall_nanos: 999,
            ..VerifyStats::default()
        };
        commit(
            &mut store,
            &[
                ("ok", fp(1), Verdict::Verified(stats.clone())),
                ("bad", fp(2), sample_failed()),
            ],
        );
        assert!(store.lookup("ok", fp(1)).is_some());
        assert!(store.lookup("bad", fp(2)).is_some());
        store.save().unwrap();

        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(
            reloaded.lookup("ok", fp(1)),
            Some(&Verdict::Verified(stats.normalized())),
            "stats are persisted normalized"
        );
        assert_eq!(reloaded.lookup("bad", fp(2)), Some(&sample_failed()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_misses() {
        let dir = temp_dir("mismatch");
        let mut store = VerdictStore::open(&dir);
        commit(&mut store, &[("m", fp(1), verified())]);
        assert!(store.lookup("m", fp(1)).is_some());
        assert!(store.lookup("m", fp(9)).is_none());
        assert!(store.lookup("other", fp(1)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn indefinite_verdicts_are_never_persisted_and_evict() {
        let dir = temp_dir("indefinite");
        let mut store = VerdictStore::open(&dir);
        commit(&mut store, &[("m", fp(1), verified())]);
        let unknown = Verdict::Unknown {
            reason: UnknownReason::OutOfFragment {
                detail: "x".to_string(),
            },
            failures: Vec::new(),
            report: FailureReport::default(),
        };
        commit(&mut store, &[("m", fp(1), unknown)]);
        assert!(
            store.lookup("m", fp(1)).is_none(),
            "an indefinite outcome evicts the stale definite entry"
        );
        let crashed = Verdict::CrashedInternal {
            message: "boom".to_string(),
        };
        commit(&mut store, &[("m", fp(1), crashed)]);
        assert!(store.is_empty());
        assert!(VerdictStore::open(&dir).is_empty(), "nor does a reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_payload_corruption_is_skipped_and_counted() {
        let dir = temp_dir("shard-corrupt");
        let mut store = VerdictStore::open(&dir);
        commit(
            &mut store,
            &[("keep", fp(7), verified()), ("bad", fp(2), sample_failed())],
        );
        drop(store);
        // Flip one byte inside the *last* record's payload: framing
        // stays intact, the checksum catches the rot, and only that
        // record is lost.
        let path = dir.join(VerdictStore::FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.corrupt_lines(), 1);
        assert!(
            !reloaded.truncated_tail(),
            "mid-record rot is corruption, not truncation"
        );
        assert!(
            reloaded.lookup("keep", fp(7)).is_some() && reloaded.len() == 1,
            "the file lost exactly its damaged record"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_truncated_tail_is_skipped_and_counted() {
        let dir = temp_dir("shard-truncate");
        let mut store = VerdictStore::open(&dir);
        commit(&mut store, &[("keep", fp(7), verified())]);
        drop(store);
        let path = dir.join(VerdictStore::FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        // Append a frame whose declared payload never arrives — a
        // crash between the frame header and the payload write.
        let frame = encode_frame(RECORD_PUT, b"payload that will be cut");
        bytes.extend_from_slice(&frame[..frame.len() - 10]);
        fs::write(&path, &bytes).unwrap();
        let reloaded = VerdictStore::open(&dir);
        assert!(
            reloaded.lookup("keep", fp(7)).is_some(),
            "records before the cut survive"
        );
        assert_eq!(reloaded.corrupt_lines(), 1);
        assert!(reloaded.truncated_tail());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_damage_loses_the_whole_file() {
        let dir = temp_dir("header");
        let mut store = VerdictStore::open(&dir);
        commit(
            &mut store,
            &[("a", fp(1), verified()), ("b", fp(2), verified())],
        );
        store.save().unwrap();
        let path = dir.join(VerdictStore::FILE_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff; // break the magic
        fs::write(&path, &bytes).unwrap();
        let mut reloaded = VerdictStore::open(&dir);
        assert!(reloaded.is_empty());
        assert_eq!(reloaded.corrupt_lines(), 1, "one skip for the file");
        assert!(!reloaded.truncated_tail());
        // The next commit rewrites the file instead of appending after
        // the damaged header.
        commit(&mut reloaded, &[("b", fp(2), verified())]);
        let healed = VerdictStore::open(&dir);
        assert_eq!((healed.len(), healed.corrupt_lines()), (1, 0));
        assert!(healed.lookup("b", fp(2)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_appends_survive_reopen_without_save() {
        let dir = temp_dir("durable");
        let mut store = VerdictStore::open(&dir);
        commit(
            &mut store,
            &[("ok", fp(1), verified()), ("bad", fp(2), sample_failed())],
        );
        assert!(store.lookup("ok", fp(1)).is_some());
        assert!(store.lookup("bad", fp(2)).is_some());
        drop(store); // no save(): the commit alone must persist
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.lookup("ok", fp(1)).is_some());
        assert_eq!(reloaded.lookup("bad", fp(2)), Some(&sample_failed()));
        assert_eq!(reloaded.corrupt_lines(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_evict_tombstones_replay_last_wins() {
        let dir = temp_dir("tombstone");
        let mut store = VerdictStore::open(&dir);
        commit(&mut store, &[("m", fp(1), verified())]);
        let crashed = Verdict::CrashedInternal {
            message: "boom".to_string(),
        };
        commit(&mut store, &[("m", fp(1), crashed)]);
        assert!(store.lookup("m", fp(1)).is_none());
        assert_eq!(store.dead_records(), 2, "counted as a reopen counts it");
        drop(store);
        let reloaded = VerdictStore::open(&dir);
        assert!(
            reloaded.lookup("m", fp(1)).is_none(),
            "the appended tombstone evicts the earlier entry on replay"
        );
        assert_eq!(
            reloaded.corrupt_lines(),
            0,
            "a tombstone is a decodable record, not corruption"
        );
        assert_eq!(
            reloaded.dead_records(),
            2,
            "the put and its tombstone are both dead weight on disk"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_stores_open_empty_and_save_daes1_shards() {
        let dir = temp_dir("fresh");
        let mut store = VerdictStore::open(&dir);
        assert!(store.is_empty());
        assert_eq!(store.corrupt_lines(), 0);
        assert!(!store.truncated_tail());
        assert_eq!(store.dead_records(), 0);
        assert!(!dir.exists(), "opening a fresh store writes nothing");

        commit(&mut store, &[("m", fp(1), verified())]);
        store.save().unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, [VerdictStore::FILE_NAME], "one file, no temp file");
        let bytes = fs::read(dir.join(VerdictStore::FILE_NAME)).unwrap();
        assert_eq!(&bytes[..HEADER_LEN], &header()[..]);
        assert_eq!(frame_kinds(&dir), [RECORD_PUT]);
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.len(), 1);
        assert!(reloaded.lookup("m", fp(1)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_records_win() {
        let dir = temp_dir("lastwins");
        let mut store = VerdictStore::open(&dir);
        for n in [1, 2] {
            commit(&mut store, &[("m", fp(n), verified())]);
        }
        drop(store);
        let store = VerdictStore::open(&dir);
        assert!(store.lookup("m", fp(1)).is_none());
        assert!(store.lookup("m", fp(2)).is_some());
        assert_eq!(store.dead_records(), 1, "the buried record counts as dead");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_debt_triggers_auto_compaction() {
        let dir = temp_dir("compact");
        let mut store = VerdictStore::open(&dir);
        // Re-record one method far past the compaction threshold:
        // without compaction the log would hold every version.
        for round in 0..(COMPACT_MIN_DEAD * 3) as u64 {
            commit(&mut store, &[("m", fp(round), verified())]);
        }
        assert!(
            store.dead_records() <= COMPACT_MIN_DEAD + 1,
            "debt was reclaimed (left: {})",
            store.dead_records()
        );
        drop(store);
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.len(), 1);
        assert!(
            reloaded.dead_records() <= COMPACT_MIN_DEAD + 1,
            "the on-disk log was compacted (dead: {})",
            reloaded.dead_records()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The graph of one method `m` whose precondition is `n >= bound`:
    /// each bound gives `m` a different interface.
    fn graph_of_m(bound: u64) -> DepGraph {
        let src = format!(
            "method m(n: Int) returns (r: Int) requires n >= {} ensures r >= 0 {{ r := n }}",
            bound
        );
        DepGraph::of_program(&crate::parser::parse_program(&src).unwrap())
    }

    #[test]
    fn graph_dead_weight_matches_what_a_reopen_counts() {
        let dir = temp_dir("graph-dead");
        let mut store = VerdictStore::open(&dir);
        // New: one record, nothing buried.
        store.commit([], &graph_of_m(0)).unwrap();
        assert_eq!(store.dead_records(), 0);
        // Changed: the new record buries the old one.
        store.commit([], &graph_of_m(3)).unwrap();
        assert_eq!(store.dead_records(), 1);
        // Unchanged: nothing is appended.
        store.commit([], &graph_of_m(3)).unwrap();
        assert_eq!(store.dead_records(), 1);
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.dead_records(), store.dead_records());
        assert_eq!(reloaded.graph(), &graph_of_m(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn graph_debt_triggers_auto_compaction() {
        let dir = temp_dir("graph-compact");
        let mut store = VerdictStore::open(&dir);
        // Re-append one node far past the compaction threshold, each
        // time with a new interface: only the last record is live.
        for round in 0..(COMPACT_MIN_DEAD * 3) as u64 {
            store.commit([], &graph_of_m(round)).unwrap();
        }
        assert!(
            store.dead_records() <= COMPACT_MIN_DEAD + 1,
            "debt was reclaimed (left: {})",
            store.dead_records()
        );
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(
            reloaded.graph(),
            &graph_of_m((COMPACT_MIN_DEAD * 3 - 1) as u64)
        );
        assert!(
            reloaded.dead_records() <= COMPACT_MIN_DEAD + 1,
            "the on-disk log was compacted (dead: {})",
            reloaded.dead_records()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_prints_one_object_per_live_entry() {
        let dir = temp_dir("dump");
        let mut store = VerdictStore::open(&dir);
        let stats = VerifyStats {
            obligations: 3,
            ..VerifyStats::default()
        };
        commit(
            &mut store,
            &[
                ("ok", fp(1), Verdict::Verified(stats)),
                ("bad", fp(2), sample_failed()),
                ("gone", fp(3), verified()),
            ],
        );
        let crashed = Verdict::CrashedInternal {
            message: "boom".to_string(),
        };
        commit(&mut store, &[("gone", fp(3), crashed)]);
        let lines: Vec<String> = store.dump().collect();
        assert_eq!(lines.len(), store.len());
        let objects: Vec<BTreeMap<String, Json>> = lines
            .iter()
            .map(|l| {
                daenerys_obs::parse_json(l)
                    .expect("every dump line parses")
                    .as_obj()
                    .expect("every dump line is an object")
                    .clone()
            })
            .collect();
        let field = |o: &BTreeMap<String, Json>, k: &str| o[k].as_str().unwrap().to_string();
        let methods: Vec<String> = objects.iter().map(|o| field(o, "method")).collect();
        assert_eq!(methods, ["bad", "ok"], "key order, evicted entry absent");
        assert_eq!(field(&objects[0], "verdict"), "failed");
        assert_eq!(field(&objects[0], "fp"), fp(2).to_string());
        let report = objects[0]["report"].as_obj().unwrap();
        assert_eq!(
            report["hot_queries"].as_arr().unwrap()[0].as_obj().unwrap()["pc_hash"],
            Json::Str("ffffffffffffffff".to_string())
        );
        assert_eq!(field(&objects[1], "verdict"), "verified");
        assert_eq!(
            objects[1]["stats"].as_obj().unwrap()["obligations"],
            Json::Num(3.0)
        );
    }

    #[test]
    fn graph_rides_along_with_the_store() {
        let dir = temp_dir("graph");
        let src = "method leaf(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0 { r := n }
             method mid(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0
             { call r := leaf(n) }
             method top(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0
             { call r := mid(n) }";
        let graph = DepGraph::of_program(&crate::parser::parse_program(src).unwrap());
        let mut store = VerdictStore::open(&dir);
        assert!(store.graph().is_empty());
        store.commit([], &graph).unwrap();
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.graph(), &graph, "nodes reload, callees included");
        assert_eq!(reloaded.graph().node("top").unwrap().callees, ["mid"]);
        assert_eq!((reloaded.corrupt_lines(), reloaded.dead_records()), (0, 0));
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert_eq!(
                name,
                VerdictStore::FILE_NAME,
                "the graph lives in the store file"
            );
        }

        // A spec edit re-appends exactly the edited node, burying its
        // old record.
        let edited = src.replace(
            "{ call r := leaf(n) }",
            "ensures r >= n { call r := leaf(n) }",
        );
        let mut store = reloaded;
        let edited = DepGraph::of_program(&crate::parser::parse_program(&edited).unwrap());
        store.commit([], &edited).unwrap();
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.graph(), store.graph());
        assert_eq!(
            reloaded.dead_records(),
            1,
            "the superseded node is dead weight"
        );

        // A torn node record drops only that record. The cut lands in
        // the edited `mid`'s new record, so `mid` falls back to the
        // record it buried.
        let path = dir.join(VerdictStore::FILE_NAME);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let torn = VerdictStore::open(&dir);
        assert!(torn.truncated_tail());
        assert_eq!(torn.corrupt_lines(), 1);
        assert_eq!(torn.graph().node("mid"), graph.node("mid"));
        assert_ne!(torn.graph().node("mid"), store.graph().node("mid"));
        assert_eq!(torn.graph().node("leaf"), store.graph().node("leaf"));
        assert_eq!(torn.graph().node("top"), store.graph().node("top"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The record kinds in the store file under `dir`, in file order.
    fn frame_kinds(dir: &Path) -> Vec<u8> {
        let bytes = fs::read(dir.join(VerdictStore::FILE_NAME)).unwrap();
        let mut kinds = Vec::new();
        let mut pos = HEADER_LEN;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            kinds.push(bytes[pos + 4]);
            pos += FRAME_HEADER_LEN + len;
        }
        kinds
    }

    /// `count` methods, each with precondition `n >= bound`.
    fn graph_of_many(count: usize, bound: u64) -> DepGraph {
        let src: String = (0..count)
            .map(|i| {
                format!(
                    "method m{}(n: Int) returns (r: Int) requires n >= {} ensures r >= 0 {{ r := n }}\n",
                    i, bound
                )
            })
            .collect();
        DepGraph::of_program(&crate::parser::parse_program(&src).unwrap())
    }

    #[test]
    fn a_commit_appends_one_put_run_then_one_node_run() {
        let dir = temp_dir("one-append");
        let mut store = VerdictStore::open(&dir);
        let keys: Vec<String> = (0..40).map(|i| format!("m{}@cfg", i)).collect();
        let verdict = verified();
        for bound in [0, 1] {
            let verdicts = keys.iter().map(|k| (k.as_str(), fp(bound), &verdict));
            store.commit(verdicts, &graph_of_many(40, bound)).unwrap();
        }
        // The file holds, per commit, one run of put frames (the
        // verdict append) followed by one run of node frames (the node
        // append): never a frame of one pass interleaved with another.
        let pass = [[RECORD_PUT; 40], [RECORD_NODE; 40]].concat();
        assert_eq!(frame_kinds(&dir), pass.repeat(2));
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.graph(), &graph_of_many(40, 1));
        assert_eq!(reloaded.dead_records(), store.dead_records());
        assert_eq!(reloaded.dead_records(), 80, "the first pass is buried");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_verdict_write_lands_no_node_record() {
        let graph = |ensures: &str| {
            let src = format!(
                "method leaf(n: Int) returns (r: Int) requires n >= 0 ensures {} {{ r := n }}
                 method mid(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0
                 {{ call r := leaf(n) }}
                 method top(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0
                 {{ call r := mid(n) }}",
                ensures
            );
            DepGraph::of_program(&crate::parser::parse_program(&src).unwrap())
        };
        let keys = ["leaf@c", "mid@c", "top@c"];
        let verdict = verified();
        let pass = |store: &mut VerdictStore, n: u64, graph: &DepGraph| {
            let verdicts = keys.iter().map(|k| (*k, fp(n), &verdict));
            store.commit(verdicts, graph)
        };

        let dir = temp_dir("commit-order");
        let mut store = VerdictStore::open(&dir);
        let before = graph("r >= 0");
        pass(&mut store, 1, &before).unwrap();
        let path = dir.join(VerdictStore::FILE_NAME);
        let saved = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        fs::create_dir(&path).unwrap();

        // A spec edit of `leaf` re-verifies the whole cone; its
        // verdicts cannot be written, so no node record may follow.
        let edited = graph("r >= n");
        assert_ne!(edited, before);
        assert!(pass(&mut store, 2, &edited).is_err());
        assert_eq!(store.graph(), &before, "the graph is left unabsorbed");
        assert!(
            store.lookup(keys[2], fp(2)).is_some(),
            "memory holds the verdicts"
        );
        fs::remove_dir(&path).unwrap();
        fs::write(&path, saved).unwrap();
        let reloaded = VerdictStore::open(&dir);
        assert_eq!(reloaded.graph(), &before, "no node record landed");
        assert!(reloaded.lookup(keys[2], fp(2)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_append_makes_the_next_commit_rewrite_the_file() {
        let dir = temp_dir("failed-append");
        let mut store = VerdictStore::open(&dir);
        let path = dir.join(VerdictStore::FILE_NAME);
        fs::create_dir_all(&path).unwrap();
        let a = [("a", fp(1), verified())];
        assert!(store
            .commit(a.iter().map(|(k, f, v)| (*k, *f, v)), &DepGraph::new())
            .is_err());
        // An append after a failed one could land behind a torn frame,
        // where the next open drops it: the next commit rewrites the
        // file from memory instead, `a` included.
        fs::remove_dir(&path).unwrap();
        commit(&mut store, &[("b", fp(2), verified())]);
        let reloaded = VerdictStore::open(&dir);
        assert!(reloaded.lookup("a", fp(1)).is_some(), "a's verdict landed");
        assert!(reloaded.lookup("b", fp(2)).is_some());
        assert_eq!(reloaded.corrupt_lines(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
