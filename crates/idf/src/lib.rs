//! # `daenerys-idf` — a Viper-style implicit-dynamic-frames verifier
//!
//! The automated-verifier side of the paper's bridge.
//!
//! Front ends verify through a [`SessionHost`] and its [`Session`]s:
//! [`Session::verify`] takes source text through parsing, the
//! well-formedness check and verification against the host's verdict
//! store. [`Session::verify_program`] and
//! [`Session::verify_program_with`] take a program already parsed and
//! checked. These are the only ways to verify a program; [`Verifier`]
//! verifies one method at a time, inside a session's pass.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod budget;
pub mod cases;
pub mod compile;
pub mod depgraph;
pub mod diag;
pub mod exec;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod session;
pub mod smt;
pub mod stability;
pub mod store;
pub mod sym;
pub mod translate;
pub mod wf;

pub use ast::{Assertion, Expr, Method, Op, Program, Span, Stmt, Type};
pub use budget::{Budget, BudgetAxis, Fault, FaultKind, FaultPlan};
pub use cases::{
    all_cases, chain_program, diverging_program, flat_diverging_program, negative_cases,
    positive_cases, scaling_program, Case,
};
pub use compile::{
    alloc_object, compile_method, compile_program, run_and_check, spec_holds, ConcreteError,
    ConcreteObj, ConcreteVal,
};
pub use depgraph::{DepGraph, DepNode};
pub use diag::{pc_hash, FailureReport, QueryCost, HOT_QUERY_LIMIT};
pub use exec::{
    Backend, Chunk, Obligation, UnknownReason, Verdict, Verifier, VerifierConfig, VerifyStats,
};
pub use fingerprint::{
    config_fingerprint, direct_callees, interface_fingerprint, method_fingerprint,
    normalized_interface, Fingerprint,
};
pub use parser::{
    parse_assertion, parse_program, parse_program_with_recovery_capped, ParseError,
    DEFAULT_MAX_ERRORS, MAX_NESTING,
};
pub use session::{Session, SessionError, SessionHost, VerifyOutcome, VerifyRequest};
pub use smt::{Answer, Solver};
pub use stability::{
    agrees_with_oracle, analyze_method, analyze_program, classify, Classification, Finding,
    FindingKind, SpecSite, SpecVerdict, StabilityClass,
};
pub use store::{StoredVerdict, VerdictStore};
pub use sym::{Sort, Sym, SymExpr, SymSupply, Term, TermArena, TermId, Witness, MAX_TERM_DEPTH};
pub use translate::{
    env_of, full_ownership, obj_of, strip_old, translate_assertion, translate_expr, TEnv,
    TranslateError,
};
pub use wf::{check_program, WfError};
