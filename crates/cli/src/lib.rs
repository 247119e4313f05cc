//! # `daenerys-cli` — the developer front door
//!
//! Ships the `daenerys` binary: `check`, `verify`, `explain`, `watch`,
//! and `cost` over IDF sources, implemented entirely against the
//! [`daenerys_idf::Session`]/[`daenerys_idf::SessionHost`] API — the
//! CLI never reaches into verifier internals, so it exercises exactly
//! the surface the daemon and the bench harness share.
//!
//! The library half holds everything the binary does that tests want
//! to drive directly: diagnostic rendering ([`diagnostics`]) and the
//! watch engine's deterministic debounce ([`watch`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diagnostics;
pub mod watch;

pub use diagnostics::{Renderer, SourceFile};
pub use watch::{content_hash, Debounce};
