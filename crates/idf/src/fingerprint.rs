//! Semantic fingerprints for incremental verification.
//!
//! A method's verdict is a pure function of (a) its own text — body and
//! contract, (b) the *contracts* of the methods it calls directly
//! (calls are verified against specs, never inlined, so callee bodies
//! are irrelevant), (c) the program's field declarations, and (d) the
//! answer-affecting [`VerifierConfig`]
//! knobs: backend, budget, the faults aimed at the method,
//! `retry_unknown`, `simplify`, and `learn`. The [`Fingerprint`] hashes
//! exactly those inputs, so a stored verdict may be reused iff the
//! fingerprint matches: editing one method's body invalidates that
//! method; editing a *spec* additionally invalidates the direct
//! callers; performance-only knobs (`threads`, `cache`, tracing,
//! `cache_dir` itself) are deliberately excluded.
//!
//! The hash is *structural*: the AST's derived [`Hash`] feeds each
//! node's variant tag and then its children in order, with strings
//! terminated and lists length-prefixed, so two different trees never
//! feed the same words. Spans hash to nothing, because
//! [`Span`](crate::ast::Span) equality ignores them: two methods get the
//! same fingerprint exactly when they are equal ASTs (up to a 128-bit
//! hash collision), and whitespace, comments and source positions never
//! move a fingerprint.
//!
//! Hashes compose by value. A method hashes its own and each callee's
//! [`interface_fingerprint`] rather than their trees; the field
//! declarations and the configuration are each hashed once per pass.
//! An incremental pass reads the interface fingerprints from the
//! [`DepGraph`] it builds anyway, so each interface is hashed once per
//! pass; [`method_fingerprint`] is the same core for one method on its
//! own.

use crate::ast::{Method, Program, Stmt};
use crate::budget::FaultPlan;
use crate::depgraph::DepGraph;
use crate::diag::splitmix64;
use crate::exec::{Backend, VerifierConfig};
use crate::pretty::Interface;
use std::fmt;
use std::hash::Hash;

/// A 128-bit semantic fingerprint (two independently keyed 64-bit hash
/// lanes, so an accidental collision must defeat both at once).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fingerprint {
    /// First hash lane.
    pub hi: u64,
    /// Second (differently keyed) hash lane.
    pub lo: u64,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl Fingerprint {
    /// Parses the form `Display` writes: exactly 32 lowercase hex
    /// digits. Anything else — other lengths, uppercase digits, signs,
    /// non-ASCII characters — is `None`.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        let digits = s.as_bytes();
        if digits.len() != 32
            || !digits
                .iter()
                .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        {
            return None;
        }
        // All ASCII, so both halves are on character boundaries.
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint { hi, lo })
    }
}

/// The first word of every fingerprint, naming what it is of, and the
/// markers inside a method's fingerprint.
#[derive(Clone, Copy)]
enum Tag {
    Method = 1,
    Interface,
    Fields,
    Config,
    ConfigPlan,
    Callee,
    MissingCallee,
    Fault,
}

const KEY_HI: u64 = 0x9e37_79b9_7f4a_7c15;
const KEY_LO: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Two 64-bit lanes absorbing one word at a time. Each step multiplies
/// by an odd key and folds the high half down, a bijection of the lane
/// for a fixed word (and of the word for a fixed lane), so two streams
/// that differ in one word never collide.
///
/// AST nodes feed it through their derived [`Hash`]: a discriminant per
/// enum variant, then the fields in order, with strings terminated and
/// sequences length-prefixed by `std`, so the stream is prefix-free.
struct Hasher {
    hi: u64,
    lo: u64,
}

impl Hasher {
    fn new(tag: Tag) -> Hasher {
        let mut h = Hasher {
            hi: 0xcbf2_9ce4_8422_2325,
            lo: 0x6c62_272e_07bb_0142,
        };
        h.tag(tag);
        h
    }

    fn word(&mut self, w: u64) {
        let hi = (self.hi ^ w).wrapping_mul(KEY_HI);
        self.hi = hi ^ (hi >> 29);
        let lo = (self.lo ^ w.rotate_left(32)).wrapping_mul(KEY_LO);
        self.lo = lo ^ (lo >> 31);
    }

    fn tag(&mut self, tag: Tag) {
        self.word(tag as u64);
    }

    fn absorb(&mut self, fp: Fingerprint) {
        self.word(fp.hi);
        self.word(fp.lo);
    }

    fn into_fingerprint(self) -> Fingerprint {
        Fingerprint {
            hi: splitmix64(self.hi),
            lo: splitmix64(self.lo ^ 0x9e37_79b9),
        }
    }
}

impl std::hash::Hasher for Hasher {
    /// Length, then the bytes in little-endian 8-byte words (the last
    /// zero-padded; the length keeps the padding unambiguous).
    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    // Integers are one word each (two for 128 bits), independent of
    // the host's byte order and pointer width. The signed forms
    // delegate to these.
    fn write_u8(&mut self, n: u8) {
        self.word(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.word(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.word(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_u128(&mut self, n: u128) {
        self.word(n as u64);
        self.word((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// The first lane of the fingerprint so far; fingerprints use both.
    fn finish(&self) -> u64 {
        splitmix64(self.hi)
    }
}

/// The names of the methods `method`'s body calls directly, sorted and
/// deduplicated (the call graph edge set that makes caller verdicts
/// spec-dependent).
pub fn direct_callees(method: &Method) -> Vec<String> {
    fn walk(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Call(_, callee, _) => out.push(callee.clone()),
                Stmt::If(_, t, e) => {
                    walk(t, out);
                    walk(e, out);
                }
                Stmt::While(_, _, body) => walk(body, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    if let Some(body) = &method.body {
        walk(body, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The canonical, *normalized* interface of a method: its signature and
/// contract pretty-printed from the AST with the body dropped. Parsing
/// already discards whitespace and comments, so two spec texts that
/// differ only in formatting normalize to the same string. This is the
/// text form of what [`interface_fingerprint`] hashes.
pub fn normalized_interface(method: &Method) -> String {
    Interface(method).to_string()
}

/// Fingerprint of a method's interface alone — name, parameters,
/// returns, `requires` and `ensures`, never the body. The dependency
/// graph ([`crate::depgraph`]) persists it per node so a later run can
/// tell *which* specs changed (and dirty their transitive callers), and
/// a caller's [`method_fingerprint`] hashes it in place of the callee's
/// spec: callers are invalidated by what a spec *means*, never by how it
/// was typed.
pub fn interface_fingerprint(method: &Method) -> Fingerprint {
    let mut h = Hasher::new(Tag::Interface);
    method.name.hash(&mut h);
    method.params.hash(&mut h);
    method.returns.hash(&mut h);
    method.requires.hash(&mut h);
    method.ensures.hash(&mut h);
    h.into_fingerprint()
}

/// The solver's answer epoch, hashed into every store key. Bump it when
/// a fix changes what the solver may answer for some formula, so that
/// verdicts stored by the older solver are re-verified once instead of
/// restored. Epoch 2 began when cross-query lemmas had to be theory
/// lemmas (DESIGN.md §12.2); keys from before it ended in `solver=Cdcl`.
pub const SOLVER_EPOCH: u32 = 2;

/// The canonical text of the configuration knobs that can change a
/// verdict, apart from the fault plan: a method's fingerprint adds the
/// faults aimed at it, and [`config_fingerprint`] the whole plan.
/// Cost-only knobs (`threads`, tracing, `cache_dir`,
/// `explain_stability`) are excluded: they are property-tested to be
/// answer-transparent, so a verdict cached under one setting is valid
/// under any other. The trailing [`SOLVER_EPOCH`] moves every key when
/// the solver's answers change.
pub fn config_text(backend: Backend, config: &VerifierConfig) -> String {
    format!(
        "backend={:?};budget={:?};retry_unknown={};deny_unstable={};epoch={}",
        backend, config.budget, config.retry_unknown, config.deny_unstable, SOLVER_EPOCH,
    )
}

/// Fingerprint of the whole answer-affecting configuration for a run
/// (every knob in [`config_text`], plus the full fault plan). Two daemon tenants whose configs agree here can
/// share one verdict-store read side; two that disagree must not
/// thrash each other's entries.
pub fn config_fingerprint(backend: Backend, config: &VerifierConfig) -> Fingerprint {
    let mut h = Hasher::new(Tag::ConfigPlan);
    config_text(backend, config).hash(&mut h);
    config.faults.hash(&mut h);
    h.into_fingerprint()
}

/// The fingerprint inputs every method of one pass shares: the field
/// declarations and the [`config_text`], each hashed once. A method adds the faults aimed at it
/// itself, and only when there are any.
pub(crate) struct PassInputs<'c> {
    fields: Fingerprint,
    config: Fingerprint,
    faults: &'c FaultPlan,
}

impl<'c> PassInputs<'c> {
    /// Hashes the shared inputs of a pass over `program`.
    pub(crate) fn new(
        program: &Program,
        backend: Backend,
        config: &'c VerifierConfig,
    ) -> PassInputs<'c> {
        let mut fields = Hasher::new(Tag::Fields);
        program.fields.hash(&mut fields);
        let mut knobs = Hasher::new(Tag::Config);
        config_text(backend, config).hash(&mut knobs);
        PassInputs {
            fields: fields.into_fingerprint(),
            config: knobs.into_fingerprint(),
            faults: &config.faults,
        }
    }

    /// `method`'s fingerprint, reading its own interface fingerprint,
    /// its callee edges and its callees' interface fingerprints from
    /// `graph`, which must be the [`DepGraph::of_program`] of the
    /// program `method` was looked up in by name.
    pub(crate) fn method_in(&self, method: &Method, graph: &DepGraph) -> Fingerprint {
        let node = graph
            .node(&method.name)
            .expect("the graph holds every method of its program");
        self.method(method, node.interface, &node.callees, |callee| {
            graph.node(callee).map(|n| n.interface)
        })
    }

    /// The core: `method`'s body, its own `interface` fingerprint, each
    /// of its sorted, deduplicated `callees` (its interface fingerprint,
    /// or the missing marker and its name), the shared inputs, and the
    /// faults aimed at it.
    fn method(
        &self,
        method: &Method,
        interface: Fingerprint,
        callees: &[String],
        callee_interface: impl Fn(&str) -> Option<Fingerprint>,
    ) -> Fingerprint {
        let mut h = Hasher::new(Tag::Method);
        h.absorb(interface);
        method.body.hash(&mut h);
        h.absorb(self.fields);
        callees.len().hash(&mut h);
        for callee in callees {
            // A callee contributes its interface, never its body (calls
            // are verified against specs). An undeclared one is hashed
            // by name, so *adding* the declaration later changes the
            // fingerprint.
            match callee_interface(callee) {
                Some(fp) => {
                    h.tag(Tag::Callee);
                    h.absorb(fp);
                }
                None => {
                    h.tag(Tag::MissingCallee);
                    callee.hash(&mut h);
                }
            }
        }
        h.absorb(self.config);
        for kind in self.faults.for_method(&method.name) {
            h.tag(Tag::Fault);
            kind.hash(&mut h);
        }
        h.into_fingerprint()
    }
}

/// Computes `method`'s semantic fingerprint within `program`: the same
/// core an incremental pass runs per method, with the shared inputs and
/// the interface fingerprints computed for this one call.
///
/// A callee with no declaration in `program` is hashed by name with an
/// explicit "missing" marker, so *adding* the declaration later changes
/// the fingerprint.
pub fn method_fingerprint(
    program: &Program,
    method: &Method,
    backend: Backend,
    config: &VerifierConfig,
) -> Fingerprint {
    PassInputs::new(program, backend, config).method(
        method,
        interface_fingerprint(method),
        &direct_callees(method),
        |callee| program.method(callee).map(interface_fingerprint),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const SRC: &str = "field val: Int
         method get(c: Ref) returns (r: Int)
           requires acc(c.val, 1/2)
           ensures acc(c.val, 1/2) && r == c.val
         { r := c.val }
         method double(c: Ref) returns (r: Int)
           requires acc(c.val, 1/2)
           ensures acc(c.val, 1/2)
         { var t: Int := 0; call t := get(c); r := t + t }
         method free(n: Int) returns (r: Int)
           requires n >= 0
           ensures r >= 0
         { r := n }";

    fn fp(src: &str, name: &str, config: &VerifierConfig) -> Fingerprint {
        let p = parse_program(src).unwrap();
        let m = p.method(name).unwrap();
        method_fingerprint(&p, m, Backend::Destabilized, config)
    }

    #[test]
    fn parse_accepts_only_what_display_writes() {
        let a = Fingerprint {
            hi: 0x0123_4567_89ab_cdef,
            lo: 0xfedc_ba98_7654_3210,
        };
        assert_eq!(Fingerprint::parse(&a.to_string()), Some(a));
        for bad in [
            // 32 bytes with a two-byte character across byte 16.
            "000000000000000é000000000000000",
            // `from_str_radix` alone would accept a sign.
            "+000000000000000+000000000000000",
            "0123456789ABCDEF0123456789abcdef",
            "0123456789abcdef0123456789abcde",
            "",
        ] {
            assert_eq!(Fingerprint::parse(bad), None, "{:?}", bad);
        }
    }

    #[test]
    fn pass_fingerprints_match_method_fingerprint() {
        // `ghost` is called but never declared: the missing marker.
        let src = SRC.replace("{ r := n }", "{ call r := ghost(n) }");
        let p = parse_program(&src).unwrap();
        let graph = DepGraph::of_program(&p);
        let faulted = VerifierConfig {
            faults: FaultPlan::none().inject("double", crate::budget::FaultKind::PanicAtState(2)),
            ..VerifierConfig::default()
        };
        for cfg in [VerifierConfig::default(), faulted] {
            let pass = PassInputs::new(&p, Backend::Destabilized, &cfg);
            for m in &p.methods {
                assert_eq!(
                    pass.method_in(m, &graph),
                    method_fingerprint(&p, m, Backend::Destabilized, &cfg),
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn faults_move_only_the_targeted_method() {
        let base = VerifierConfig::default();
        let faulted = VerifierConfig {
            faults: FaultPlan::none().inject("get", crate::budget::FaultKind::PanicAtState(2)),
            ..base.clone()
        };
        assert_ne!(fp(SRC, "get", &base), fp(SRC, "get", &faulted));
        assert_eq!(fp(SRC, "free", &base), fp(SRC, "free", &faulted));
    }

    #[test]
    fn callee_extraction_is_sorted_and_deduped() {
        let p = parse_program(SRC).unwrap();
        assert_eq!(
            direct_callees(p.method("double").unwrap()),
            vec!["get".to_string()]
        );
        assert!(direct_callees(p.method("get").unwrap()).is_empty());
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let cfg = VerifierConfig::default();
        let a = fp(SRC, "double", &cfg);
        assert_eq!(a, fp(SRC, "double", &cfg), "same inputs, same fingerprint");
        assert_ne!(a, fp(SRC, "get", &cfg), "different methods differ");
        assert_eq!(a.to_string().len(), 32);
        assert_eq!(Fingerprint::parse(&a.to_string()), Some(a));
        assert_eq!(Fingerprint::parse("zz"), None);
    }

    #[test]
    fn body_edit_invalidates_only_that_method() {
        let cfg = VerifierConfig::default();
        let edited = SRC.replace("{ r := n }", "{ r := n + 0 }");
        assert_ne!(fp(SRC, "free", &cfg), fp(&edited, "free", &cfg));
        assert_eq!(fp(SRC, "get", &cfg), fp(&edited, "get", &cfg));
        assert_eq!(fp(SRC, "double", &cfg), fp(&edited, "double", &cfg));
    }

    #[test]
    fn callee_spec_edit_invalidates_the_caller() {
        let cfg = VerifierConfig::default();
        // Strengthen get's postcondition: double (its caller) must be
        // re-verified; free (unrelated) must not.
        let edited = SRC.replace("r == c.val", "r == c.val && r >= 0");
        assert_ne!(fp(SRC, "get", &cfg), fp(&edited, "get", &cfg));
        assert_ne!(fp(SRC, "double", &cfg), fp(&edited, "double", &cfg));
        assert_eq!(fp(SRC, "free", &cfg), fp(&edited, "free", &cfg));
        // A callee *body* edit does not touch the caller.
        let body_only = SRC.replace("{ r := c.val }", "{ r := c.val + 0 }");
        assert_eq!(fp(SRC, "double", &cfg), fp(&body_only, "double", &cfg));
    }

    #[test]
    fn formatting_only_spec_edits_do_not_invalidate_anyone() {
        let cfg = VerifierConfig::default();
        // Same program with gratuitous whitespace and comments inside
        // the specs: parses to the same AST, so every fingerprint —
        // interface and full — is identical.
        let noisy = SRC
            .replace(
                "requires acc(c.val, 1/2)",
                "requires /* half */ acc( c.val ,\n 1/2 ) // read share",
            )
            .replace("ensures r >= 0", "ensures\n// comment\n   r  >=  0");
        let p = parse_program(SRC).unwrap();
        let q = parse_program(&noisy).unwrap();
        for name in ["get", "double", "free"] {
            assert_eq!(
                normalized_interface(p.method(name).unwrap()),
                normalized_interface(q.method(name).unwrap()),
                "normalized interface of {} ignores formatting",
                name
            );
            assert_eq!(
                interface_fingerprint(p.method(name).unwrap()),
                interface_fingerprint(q.method(name).unwrap()),
            );
            assert_eq!(fp(SRC, name, &cfg), fp(&noisy, name, &cfg));
        }
    }

    #[test]
    fn interface_fingerprint_tracks_specs_not_bodies() {
        let spec_edit = SRC.replace("r == c.val", "r == c.val && r >= 0");
        let body_edit = SRC.replace("{ r := c.val }", "{ r := c.val + 0 }");
        let p = parse_program(SRC).unwrap();
        let s = parse_program(&spec_edit).unwrap();
        let b = parse_program(&body_edit).unwrap();
        assert_ne!(
            interface_fingerprint(p.method("get").unwrap()),
            interface_fingerprint(s.method("get").unwrap()),
            "a contract edit changes the interface fingerprint"
        );
        assert_eq!(
            interface_fingerprint(p.method("get").unwrap()),
            interface_fingerprint(b.method("get").unwrap()),
            "a body edit leaves the interface fingerprint alone"
        );
    }

    #[test]
    fn default_config_text_is_pinned() {
        // Store keys hash this text: any byte change re-verifies every
        // stored method.
        assert_eq!(
            config_text(Backend::Destabilized, &VerifierConfig::default()),
            "backend=Destabilized;budget=Budget { deadline_ms: None, solver_fuel: None, \
             max_states: None, max_terms: None };retry_unknown=true;\
             deny_unstable=false;epoch=2"
        );
    }

    #[test]
    fn config_fingerprint_covers_answer_affecting_knobs_only() {
        let base = VerifierConfig::default();
        let a = config_fingerprint(Backend::Destabilized, &base);
        assert_eq!(a, config_fingerprint(Backend::Destabilized, &base));
        assert_ne!(a, config_fingerprint(Backend::StableBaseline, &base));
        assert_ne!(
            a,
            config_fingerprint(
                Backend::Destabilized,
                &VerifierConfig {
                    budget: crate::budget::Budget::unlimited().with_solver_fuel(7),
                    ..base.clone()
                }
            )
        );
        assert_eq!(
            a,
            config_fingerprint(
                Backend::Destabilized,
                &VerifierConfig {
                    threads: 8,
                    ..base.clone()
                }
            ),
            "cost-only knobs do not split the shared store"
        );
    }

    #[test]
    fn answer_affecting_knobs_are_in_the_fingerprint() {
        let base = VerifierConfig::default();
        let a = fp(SRC, "get", &base);
        for cfg in [
            VerifierConfig {
                retry_unknown: false,
                ..base.clone()
            },
            VerifierConfig {
                budget: crate::budget::Budget::unlimited().with_solver_fuel(7),
                ..base.clone()
            },
            VerifierConfig {
                deny_unstable: true,
                ..base.clone()
            },
        ] {
            assert_ne!(a, fp(SRC, "get", &cfg));
        }
        // Cost-only knobs leave it unchanged.
        for cfg in [
            VerifierConfig {
                explain_stability: true,
                ..base.clone()
            },
            VerifierConfig {
                threads: 8,
                ..base.clone()
            },
            VerifierConfig {
                cache_dir: Some(std::path::PathBuf::from("/tmp/x")),
                ..base.clone()
            },
        ] {
            assert_eq!(a, fp(SRC, "get", &cfg));
        }
    }
}
