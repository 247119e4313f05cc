//! The one way into the verifier and its store.
//!
//! Every front end — the `daenerys` CLI and its watch mode, the
//! `daenerysd` daemon, the `tables` harness, the edit-replay tests and the
//! benchmark — verifies through a [`SessionHost`]. The host is the
//! warm core: the base [`VerifierConfig`] and, when
//! [`VerifierConfig::cache_dir`] is set, the persistent
//! [`VerdictStore`], which only [`SessionHost::new`] opens. A
//! [`Session`] is one client's view of it: every request verified
//! under the base budget (or the request's own) against the host's
//! store, so concurrent sessions reuse each other's definite verdicts
//! without reopening the files.
//!
//! [`Session::verify`] is the source-level entry: a capped recovery
//! parse, the well-formedness check, then verification, so a
//! `Verified` means the same on every route.
//! [`Session::verify_program_with`] is the entry for front ends that
//! have already parsed and checked the program themselves.
//!
//! The host is `Sync`: sessions on different threads verify
//! concurrently, serializing only each pass's brief store lookups and
//! its one commit.

use crate::budget::Budget;
use crate::exec::{run_pass, Backend, Verdict, VerifierConfig, VerifyStats};
use crate::parser::{parse_program_with_recovery_capped, ParseError, DEFAULT_MAX_ERRORS};
use crate::store::{lock, VerdictStore};
use crate::wf::{check_program, WfError};
use std::collections::BTreeMap;
use std::io;
use std::sync::Mutex;

/// Warm, process-wide verification state shared by every [`Session`].
#[derive(Debug)]
pub struct SessionHost {
    backend: Backend,
    base: VerifierConfig,
    store: Option<Mutex<VerdictStore>>,
}

impl SessionHost {
    /// Builds a host for `backend` over `base`. When
    /// [`VerifierConfig::cache_dir`] is set, the persistent store is
    /// opened once here and shared (warm) across every session; the
    /// per-request config never reopens it. Damage found at open is
    /// reported by [`SessionHost::store_corrupt_lines`] and
    /// [`SessionHost::store_truncated_tail`]: a damaged store costs
    /// re-verification, never a wrong verdict.
    pub fn new(backend: Backend, base: VerifierConfig) -> SessionHost {
        let store = base.cache_dir.as_deref().map(VerdictStore::open);
        SessionHost {
            backend,
            base,
            store: store.map(Mutex::new),
        }
    }

    /// The backend every session verifies under.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The warm shared store, when the host persists verdicts.
    pub fn store(&self) -> Option<&Mutex<VerdictStore>> {
        self.store.as_ref()
    }

    /// Undecodable records skipped when the store was opened (0 without
    /// a store).
    pub fn store_corrupt_lines(&self) -> usize {
        self.store.as_ref().map_or(0, |m| lock(m).corrupt_lines())
    }

    /// True when the store file ended in a record cut off mid-append
    /// when it was opened (false without a store).
    pub fn store_truncated_tail(&self) -> bool {
        self.store
            .as_ref()
            .is_some_and(|m| lock(m).truncated_tail())
    }

    /// Entries currently in the warm store (0 without a store).
    pub fn store_len(&self) -> usize {
        self.store.as_ref().map_or(0, |m| lock(m).len())
    }

    /// Compacts the store to disk (see [`VerdictStore::save`]); a no-op
    /// without a store. No front end calls it: every pass's commit
    /// already persists its verdicts. It stays public for the
    /// `perfbench` harness, which times a compaction as its own layer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from [`VerdictStore::save`].
    pub fn flush_store(&self) -> io::Result<()> {
        match &self.store {
            None => Ok(()),
            Some(m) => lock(m).save(),
        }
    }

    /// A session over the host's base configuration.
    pub fn session(&self) -> Session<'_> {
        Session { host: self }
    }
}

/// One client's verification context over a [`SessionHost`].
#[derive(Debug)]
pub struct Session<'h> {
    host: &'h SessionHost,
}

/// One verification request's knobs, beyond the program source.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// The IDF program to verify.
    pub source: String,
    /// Overrides the host's base budget for this request (intersected by
    /// the daemon's admission layer before it gets here).
    pub budget: Option<Budget>,
    /// Diagnostic cap for recovery parsing (see
    /// [`parse_program_with_recovery_capped`]).
    pub max_errors: usize,
    /// Overrides the host's trace handle for this request — the
    /// daemon passes a context-stamped derivation
    /// ([`daenerys_obs::TraceHandle::with_context`]) so every event
    /// carries tenant/session/request attribution.
    pub trace: Option<daenerys_obs::TraceHandle>,
}

impl VerifyRequest {
    /// A request with the default diagnostic cap and no budget
    /// override.
    pub fn new(source: impl Into<String>) -> VerifyRequest {
        VerifyRequest {
            source: source.into(),
            budget: None,
            max_errors: DEFAULT_MAX_ERRORS,
            trace: None,
        }
    }
}

/// The outcome of one verification request.
#[derive(Clone, PartialEq, Debug)]
pub struct VerifyOutcome {
    /// Per-method verdicts, in method-name order.
    pub verdicts: BTreeMap<String, Verdict>,
    /// Methods actually re-verified (not restored from the warm
    /// store); `None` when the host has no store.
    pub reverified: Option<usize>,
    /// Names of the re-verified methods (the dirty cone), in program
    /// order; `None` when the host has no store. Watch-mode front ends
    /// print exactly this set.
    pub reverified_methods: Option<Vec<String>>,
    /// Methods served straight from the warm store (fingerprint
    /// matched and the dependency graph had no objection); `None`
    /// without a store.
    pub store_hits: Option<usize>,
    /// Methods with no matching store entry (first sight, an edit, or
    /// an answer-affecting config change); `None` without a store.
    pub store_misses: Option<usize>,
    /// Methods whose stored verdict *matched* but was discarded
    /// because a transitive callee's spec changed — the dependency
    /// graph's conservative dirtiness cone beyond what direct-callee
    /// fingerprints already catch; `None` without a store.
    pub store_dirty_transitive: Option<usize>,
    /// Request-wide aggregate of the per-method statistics (only
    /// [`Verdict::Verified`] carries stats, so failed/unknown methods
    /// contribute nothing) — the daemon's telemetry plane attributes
    /// fuel/cache/solver rates per tenant from this without reaching
    /// into individual verdicts.
    pub stats: VerifyStats,
    /// Why the pass's verdict-store commit failed; `None` when it was
    /// written or the host has no store. The verdicts stand either
    /// way: a failed commit costs later re-verification only.
    pub store_write_error: Option<String>,
}

/// Why a request produced no verdicts at all.
#[derive(Clone, PartialEq, Debug)]
pub enum SessionError {
    /// The source did not parse; every diagnostic collected (capped at
    /// the request's `max_errors` plus a sentinel).
    Parse(Vec<ParseError>),
    /// The source parsed but is not well-formed (see
    /// [`check_program`]); every diagnosis, in check order.
    Wf(Vec<WfError>),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Parse(errs) => {
                write!(f, "{} parse error(s); first: {}", errs.len(), errs[0])
            }
            SessionError::Wf(errs) => {
                write!(
                    f,
                    "{} well-formedness error(s); first: {}",
                    errs.len(),
                    errs[0]
                )
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl Session<'_> {
    /// Verifies `source` with the host's base budget and default knobs.
    ///
    /// # Errors
    ///
    /// As [`Session::verify`].
    pub fn verify_source(&self, source: &str) -> Result<VerifyOutcome, SessionError> {
        self.verify(&VerifyRequest::new(source))
    }

    /// Verifies one request: capped recovery parse, the
    /// well-formedness check, then every method through the host's
    /// warm store. Per-method faults degrade that method's verdict
    /// (the `Verifier`'s isolation), never the session.
    ///
    /// # Errors
    ///
    /// [`SessionError::Parse`] when the source does not parse, and
    /// [`SessionError::Wf`] when it is not well-formed.
    ///
    /// # Examples
    ///
    /// ```
    /// use daenerys_idf::{Backend, SessionHost, VerifierConfig};
    ///
    /// let host = SessionHost::new(Backend::Destabilized, VerifierConfig::default());
    /// let outcome = host.session().verify_source(
    ///     "field v: Int
    ///      method zero(c: Ref) requires acc(c.v) ensures acc(c.v) && c.v == 0
    ///      { c.v := 0 }",
    /// )?;
    /// assert!(outcome.verdicts["zero"].is_verified());
    /// # Ok::<(), daenerys_idf::SessionError>(())
    /// ```
    pub fn verify(&self, req: &VerifyRequest) -> Result<VerifyOutcome, SessionError> {
        let program = parse_program_with_recovery_capped(&req.source, req.max_errors)
            .map_err(SessionError::Parse)?;
        check_program(&program).map_err(SessionError::Wf)?;
        Ok(self.verify_program_with(&program, req.budget, req.trace.clone()))
    }

    /// Verifies an already-parsed program with the host's base budget and
    /// default knobs — the parse- and wf-free entry point for clients
    /// that own the front end and have run [`check_program`]
    /// themselves (the `daenerys` CLI re-rendering diagnostics itself,
    /// the bench harness keeping parsing out of timed regions).
    ///
    /// Every method still flows through the host's warm store, so
    /// incremental counts ([`VerifyOutcome::reverified`] and friends)
    /// behave exactly as for [`Session::verify`].
    pub fn verify_program(&self, program: &crate::ast::Program) -> VerifyOutcome {
        self.verify_program_with(program, None, None)
    }

    /// [`Session::verify_program`] with an explicit budget override
    /// and/or a request-scoped trace handle (see
    /// [`VerifyRequest::budget`] and [`VerifyRequest::trace`]).
    pub fn verify_program_with(
        &self,
        program: &crate::ast::Program,
        budget: Option<Budget>,
        trace: Option<daenerys_obs::TraceHandle>,
    ) -> VerifyOutcome {
        let config = VerifierConfig {
            budget: budget.unwrap_or(self.host.base.budget),
            trace: trace.unwrap_or_else(|| self.host.base.trace.clone()),
            ..self.host.base.clone()
        };
        let (verdicts, pass) = run_pass(program, self.host.backend, &config, self.host.store());
        let verdicts: BTreeMap<String, Verdict> = verdicts.into_iter().collect();
        let mut stats = VerifyStats::default();
        for v in verdicts.values() {
            if let Verdict::Verified(s) = v {
                stats.merge(s);
            }
        }
        VerifyOutcome {
            verdicts,
            reverified: pass.as_ref().map(|p| p.reverified.len()),
            store_hits: pass.as_ref().map(|p| p.hits),
            store_misses: pass.as_ref().map(|p| p.misses),
            store_dirty_transitive: pass.as_ref().map(|p| p.dirty_transitive),
            store_write_error: pass.as_ref().and_then(|p| p.write_error.clone()),
            reverified_methods: pass.map(|p| p.reverified),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const GOOD: &str = "field val: Int
method set(c: Ref) requires acc(c.val) ensures acc(c.val) && c.val == 1 { c.val := 1 }";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("daenerys-session-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn storeless_host_verifies() {
        let host = SessionHost::new(Backend::Destabilized, VerifierConfig::default());
        let out = host.session().verify_source(GOOD).unwrap();
        assert_eq!(out.verdicts.len(), 1);
        assert!(out.verdicts["set"].is_verified());
        assert_eq!(out.reverified, None);
        assert!(
            out.stats.obligations > 0,
            "the aggregate carries the verified method's stats"
        );
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        let host = SessionHost::new(Backend::Destabilized, VerifierConfig::default());
        let err = host.session().verify_source("method oops {").unwrap_err();
        let SessionError::Parse(errs) = err else {
            panic!("expected parse errors, got {:?}", err);
        };
        assert!(!errs.is_empty());
    }

    #[test]
    fn ill_formed_sources_are_refused_before_verification() {
        // The first `m` verifies on its own; the program as a whole is
        // not well-formed, so no verdict may come back for it.
        let host = SessionHost::new(Backend::Destabilized, VerifierConfig::default());
        let err = host
            .session()
            .verify_source(
                "method m() returns (r: Int) ensures r == 1 { r := 1 }
                 method m() returns (r: Int) ensures r == 2 { r := 1 }",
            )
            .unwrap_err();
        let SessionError::Wf(errs) = &err else {
            panic!("expected wf errors, got {:?}", err);
        };
        assert!(errs.iter().any(|e| e.message == "duplicate method m"));
        assert!(err.to_string().contains("well-formedness"));
    }

    #[test]
    fn warm_store_is_shared_across_sessions() {
        let dir = temp_dir("warm");
        let config = VerifierConfig {
            cache_dir: Some(dir.clone()),
            ..VerifierConfig::default()
        };
        let host = SessionHost::new(Backend::Destabilized, config);
        let first = host.session().verify_source(GOOD).unwrap();
        assert_eq!(first.reverified, Some(1), "cold store: everything runs");
        let second = host.session().verify_source(GOOD).unwrap();
        assert_eq!(
            second.reverified,
            Some(0),
            "warm store: the sibling session restores the verdict"
        );
        assert_eq!(first.store_misses, Some(1), "cold run misses everything");
        assert_eq!(second.store_hits, Some(1), "warm run is served from store");
        assert_eq!(second.store_misses, Some(0));
        assert_eq!(second.store_dirty_transitive, Some(0), "nothing was edited");
        assert_eq!(
            first.verdicts["set"].normalized(),
            second.verdicts["set"].normalized(),
            "restored verdicts match modulo environment-dependent stats"
        );
        assert_eq!(host.store_len(), 1);

        // Each pass's commit reached disk: a fresh host restores without
        // any flush having happened.
        drop(host);
        let host2 = SessionHost::new(
            Backend::Destabilized,
            VerifierConfig {
                cache_dir: Some(dir.clone()),
                ..VerifierConfig::default()
            },
        );
        assert_eq!(host2.store_corrupt_lines(), 0);
        let third = host2.session().verify_source(GOOD).unwrap();
        assert_eq!(third.reverified, Some(0));
        host2.flush_store().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn callers_before_callees_report_in_program_order() {
        // `top` calls `leaf`, declared after it, and `a`/`b` recurse
        // into each other: every method still gets a verdict, and the
        // cone and the trace list them in declaration order.
        let src = "method top(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0
             { var t: Int := 0; call t := leaf(n); r := t }
             method a(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0
             { var t: Int := 0; call t := b(n); r := t }
             method b(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0
             { var t: Int := 0; call t := a(n); r := t }
             method leaf(n: Int) returns (r: Int) requires n >= 0 ensures r >= 0
             { r := n }";
        let dir = temp_dir("order");
        let sink = std::sync::Arc::new(daenerys_obs::MemorySink::new(1 << 14));
        let host = SessionHost::new(
            Backend::Destabilized,
            VerifierConfig {
                cache_dir: Some(dir.clone()),
                threads: 2,
                trace: daenerys_obs::TraceHandle::new(
                    sink.clone(),
                    daenerys_obs::ClockKind::Logical,
                ),
                ..VerifierConfig::default()
            },
        );
        let out = host.session().verify_source(src).unwrap();
        let order: Vec<String> = ["top", "a", "b", "leaf"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(out.verdicts.len(), 4);
        assert!(out.verdicts.values().all(Verdict::is_verified));
        assert_eq!(out.reverified_methods, Some(order.clone()));
        let spans: Vec<String> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, daenerys_obs::EventKind::SpanStart))
            .filter_map(|e| e.name.strip_prefix("exec:").map(str::to_string))
            .collect();
        assert_eq!(spans, order);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_store_writes_are_counted_not_fatal() {
        // The store file's path is a directory: the pass's commit fails.
        let dir = temp_dir("write-errors");
        std::fs::create_dir_all(dir.join(VerdictStore::FILE_NAME)).unwrap();
        let write_error = |dir: &std::path::Path| {
            let host = SessionHost::new(
                Backend::Destabilized,
                VerifierConfig {
                    cache_dir: Some(dir.to_path_buf()),
                    ..VerifierConfig::default()
                },
            );
            let out = host.session().verify_source(GOOD).unwrap();
            assert!(out.verdicts["set"].is_verified(), "the verdict stands");
            assert_eq!(out.store_misses, Some(1), "the pass used the store");
            out.store_write_error
        };
        assert!(
            write_error(&dir).is_some(),
            "the failed commit is reported on the outcome"
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(write_error(&dir), None, "a written store reports nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
