//! # Daenerys — an executable reproduction of *Destabilizing Iris* (PLDI 2025)
//!
//! This facade crate re-exports the full toolkit:
//!
//! * [`algebra`] — resource algebras (cameras), fractions, step-indexing;
//! * [`heaplang`] — the HeapLang language: syntax, semantics, schedulers;
//! * [`logic`] — the destabilized base logic: worlds, assertions with
//!   heap-dependent expressions and permission introspection, the
//!   stabilization modalities, the semantic model, and the proof kernel;
//! * [`proglog`] — Hoare triples, the WP rule kernel with the
//!   destabilized side conditions, and adequacy-by-monitored-execution;
//! * [`idf`] — the Viper-style implicit-dynamic-frames verifier with the
//!   `Destabilized` and `StableBaseline` backends, its mini decision
//!   procedure, and compilation to HeapLang.
//!
//! See `README.md` for a tour and `DESIGN.md`/`EXPERIMENTS.md` for the
//! reproduction methodology.
//!
//! ## Quickstart
//!
//! ```
//! use daenerys::idf::{Backend, SessionHost, VerifierConfig};
//!
//! let host = SessionHost::new(Backend::Destabilized, VerifierConfig::default());
//! let outcome = host.session().verify_source(
//!     "field val: Int
//!      method inc(c: Ref)
//!        requires acc(c.val)
//!        ensures acc(c.val) && c.val == old(c.val) + 1
//!      { c.val := c.val + 1 }",
//! )?;
//! assert!(outcome.verdicts["inc"].is_verified());
//! # Ok::<(), daenerys::idf::SessionError>(())
//! ```

#![warn(missing_docs)]

/// Resource algebras and step-indexing (`daenerys-algebra`).
pub use daenerys_algebra as algebra;
/// The destabilized base logic (`daenerys-core`).
pub use daenerys_core as logic;
/// The HeapLang programming language (`daenerys-heaplang`).
pub use daenerys_heaplang as heaplang;
/// The IDF automated verifier (`daenerys-idf`).
pub use daenerys_idf as idf;
/// The program logic over HeapLang (`daenerys-proglog`).
pub use daenerys_proglog as proglog;
