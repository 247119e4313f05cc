//! The case-study suite of the evaluation (experiment T1) and the
//! scaling-workload generator (experiment F1).
//!
//! Each case is a small but representative IDF program of the kind the
//! paper's motivation section draws on: heap-dependent contracts,
//! fractional sharing, permission introspection, loops and calls. All
//! positive cases verify on *both* backends; the negative cases must be
//! rejected by both.

use crate::ast::Program;
use crate::parser::parse_program;

/// A named case study.
#[derive(Clone, Debug)]
pub struct Case {
    /// Short identifier (used in the tables).
    pub name: &'static str,
    /// IDF source text.
    pub source: &'static str,
    /// Whether the program should verify.
    pub should_verify: bool,
    /// Whether the dynamic oracle can synthesize inputs for it (flat
    /// object graphs only; linked structures are static-only).
    pub dynamic: bool,
}

impl Case {
    /// Parses the case's program.
    ///
    /// # Panics
    ///
    /// Panics if the bundled source does not parse (a bug in the suite).
    pub fn program(&self) -> Program {
        parse_program(self.source)
            .unwrap_or_else(|e| panic!("case {} does not parse: {}", self.name, e))
    }
}

/// The positive case studies.
pub fn positive_cases() -> Vec<Case> {
    vec![
        Case {
            name: "counter_inc",
            should_verify: true,
            dynamic: true,
            source: r#"
                field val: Int
                method inc(c: Ref)
                  requires acc(c.val)
                  ensures acc(c.val) && c.val == old(c.val) + 1
                { c.val := c.val + 1 }
            "#,
        },
        Case {
            name: "bank_transfer",
            should_verify: true,
            dynamic: true,
            source: r#"
                field bal: Int
                method transfer(a: Ref, b: Ref, amt: Int)
                  requires acc(a.bal) && acc(b.bal) && 0 <= amt && amt <= a.bal
                  ensures acc(a.bal) && acc(b.bal)
                  ensures a.bal == old(a.bal) - amt && b.bal == old(b.bal) + amt
                  ensures a.bal >= 0
                {
                  a.bal := a.bal - amt;
                  b.bal := b.bal + amt
                }
            "#,
        },
        Case {
            name: "cell_swap",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method swap(a: Ref, b: Ref)
                  requires acc(a.v) && acc(b.v)
                  ensures acc(a.v) && acc(b.v)
                  ensures a.v == old(b.v) && b.v == old(a.v)
                {
                  var t: Int := a.v;
                  a.v := b.v;
                  b.v := t
                }
            "#,
        },
        Case {
            name: "shared_read",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method both(a: Ref, b: Ref) returns (s: Int)
                  requires acc(a.v, 1/2) && acc(b.v, 1/2)
                  ensures acc(a.v, 1/2) && acc(b.v, 1/2)
                  ensures s == a.v + b.v
                { s := a.v + b.v }
            "#,
        },
        Case {
            name: "perm_introspect",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method introspect(c: Ref)
                  requires acc(c.v, 1/2)
                  ensures acc(c.v, 1/2)
                {
                  assert perm(c.v) >= 1/2;
                  assert perm(c.v) < 1;
                  inhale acc(c.v, 1/2);
                  assert perm(c.v) == 1;
                  c.v := c.v + 1;
                  exhale acc(c.v, 1/2)
                }
            "#,
        },
        Case {
            name: "abs_branch",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method absval(c: Ref)
                  requires acc(c.v)
                  ensures acc(c.v) && c.v >= 0
                  ensures old(c.v) >= 0 ==> c.v == old(c.v)
                {
                  if (c.v < 0) { c.v := 0 - c.v } else { }
                }
            "#,
        },
        Case {
            // A quadratic sum invariant would be nonlinear and out of
            // our solver's fragment (it verifies only dynamically; see
            // `compile::tests`), so the static loop case is linear.
            name: "scale_loop",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method scale(n: Int) returns (s: Int)
                  requires n >= 0
                  ensures s == 3 * n
                {
                  var i: Int := 0;
                  s := 0;
                  while (i < n)
                    invariant 0 <= i && i <= n && s == 3 * i
                  { s := s + 3; i := i + 1 }
                }
            "#,
        },
        Case {
            name: "call_chain",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method add(c: Ref, n: Int)
                  requires acc(c.v)
                  ensures acc(c.v) && c.v == old(c.v) + n
                { c.v := c.v + n }
                method add4(c: Ref)
                  requires acc(c.v)
                  ensures acc(c.v) && c.v == old(c.v) + 4
                {
                  call add(c, 1);
                  call add(c, 3)
                }
            "#,
        },
        Case {
            name: "fresh_cells",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method mk(init: Int) returns (x: Ref)
                  ensures acc(x.v) && x.v == init
                { x := new(v: init) }
                method mk_pair() returns (x: Ref, y: Ref)
                  ensures acc(x.v) && acc(y.v) && x.v == 1 && y.v == 2
                {
                  x := new(v: 1);
                  y := new(v: 2)
                }
            "#,
        },
        Case {
            name: "max_field",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method maxv(a: Ref, b: Ref) returns (m: Int)
                  requires acc(a.v, 1/2) && acc(b.v, 1/2)
                  ensures acc(a.v, 1/2) && acc(b.v, 1/2)
                  ensures m >= a.v && m >= b.v && (m == a.v || m == b.v)
                {
                  m := a.v > b.v ? a.v : b.v
                }
            "#,
        },
        Case {
            name: "counter_loop",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method pump(c: Ref, n: Int)
                  requires acc(c.v) && n >= 0 && c.v == 0
                  ensures acc(c.v) && c.v == n
                {
                  var i: Int := 0;
                  while (i < n)
                    invariant acc(c.v) && 0 <= i && i <= n && c.v == i
                  {
                    c.v := c.v + 1;
                    i := i + 1
                  }
                }
            "#,
        },
        Case {
            name: "nested_refs",
            should_verify: true,
            dynamic: false,
            source: r#"
                field val: Int
                field next: Ref
                method follow(x: Ref) returns (r: Int)
                  requires acc(x.next) && acc(x.next.val)
                  ensures acc(x.next) && acc(x.next.val)
                  ensures r == x.next.val && x.next == old(x.next)
                {
                  var y: Ref := x.next;
                  r := y.val
                }
            "#,
        },
        Case {
            name: "conditional_acc",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method maybe_zero(c: Ref, go: Bool)
                  requires go ==> acc(c.v)
                  ensures go ==> (acc(c.v) && c.v == 0)
                {
                  if (go) { c.v := 0 } else { }
                }
            "#,
        },
        Case {
            name: "constructor_call",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method mk(init: Int) returns (x: Ref)
                  ensures acc(x.v) && x.v == init
                { x := new(v: init) }
                method client() returns (r: Int)
                  ensures r == 42
                {
                  var c: Ref := null;
                  call c := mk(42);
                  r := c.v
                }
            "#,
        },
        Case {
            name: "ghost_inhale_exhale",
            should_verify: true,
            dynamic: true,
            source: r#"
                field v: Int
                method lend(c: Ref)
                  requires acc(c.v)
                  ensures acc(c.v) && c.v == old(c.v)
                {
                  exhale acc(c.v, 1/2);
                  assert perm(c.v) == 1/2;
                  inhale acc(c.v, 1/2)
                }
            "#,
        },
    ]
}

/// The negative cases: must be rejected by both backends.
pub fn negative_cases() -> Vec<Case> {
    vec![
        Case {
            name: "neg_write_no_perm",
            should_verify: false,
            dynamic: true,
            source: r#"
                field v: Int
                method bad(c: Ref)
                { c.v := 1 }
            "#,
        },
        Case {
            name: "neg_wrong_post",
            should_verify: false,
            dynamic: true,
            source: r#"
                field v: Int
                method bad(c: Ref)
                  requires acc(c.v)
                  ensures acc(c.v) && c.v == old(c.v) + 2
                { c.v := c.v + 1 }
            "#,
        },
        Case {
            name: "neg_leaked_permission",
            should_verify: false,
            dynamic: true,
            source: r#"
                field v: Int
                method bad(c: Ref)
                  requires acc(c.v, 1/2)
                  ensures acc(c.v)
                { }
            "#,
        },
        Case {
            name: "neg_write_half",
            should_verify: false,
            dynamic: true,
            source: r#"
                field v: Int
                method bad(c: Ref)
                  requires acc(c.v, 1/2)
                  ensures acc(c.v, 1/2)
                { c.v := 0 }
            "#,
        },
        Case {
            name: "neg_bad_invariant",
            should_verify: false,
            dynamic: true,
            source: r#"
                field v: Int
                method bad(n: Int) returns (i: Int)
                  requires n >= 0
                  ensures i == n
                {
                  i := 0;
                  while (i < n)
                    invariant i <= n + 1
                  { i := i + 2 }
                }
            "#,
        },
    ]
}

/// All cases (positive then negative).
pub fn all_cases() -> Vec<Case> {
    let mut v = positive_cases();
    v.extend(negative_cases());
    v
}

/// The F1 scaling workload: a method that reads and updates `n` distinct
/// objects, with a contract mentioning every field — the destabilized
/// backend handles each read once; the stable baseline mints a witness
/// per read and rescans them at every write.
pub fn scaling_program(n: usize) -> String {
    let mut params = Vec::new();
    let mut req = vec![];
    let mut ens = vec![];
    let mut body = vec![];
    for i in 0..n {
        params.push(format!("c{}: Ref", i));
        req.push(format!("acc(c{}.v)", i));
        ens.push(format!("acc(c{}.v)", i));
        ens.push(format!("c{i}.v == old(c{i}.v) + 1", i = i));
        body.push(format!("c{i}.v := c{i}.v + 1", i = i));
    }
    format!(
        "field v: Int\nmethod bump_all({params})\n  requires {req}\n  ensures {ens}\n{{\n  {body}\n}}\n",
        params = params.join(", "),
        req = req.join(" && "),
        ens = ens.join(" && "),
        body = body.join(";\n  "),
    )
}

/// The F1 chain workload: `n` sequential branches on the *same*
/// transitive-chain condition. Every branch re-poses the same two
/// path-consistency questions — whose answers need a Fourier–Motzkin
/// pass over the whole `x0 < … < x7` chain — so the memoizing solver
/// answers all but the first pair from cache instead of paying the
/// full theory cost `2n` times.
pub fn chain_program(n: usize) -> String {
    const VARS: usize = 8;
    let params: Vec<String> = (0..VARS).map(|i| format!("x{}: Int", i)).collect();
    let mut req = vec!["acc(c.v)".to_string(), "c.v == 0".to_string()];
    for i in 0..VARS - 1 {
        req.push(format!("x{} < x{}", i, i + 1));
    }
    let block = format!(
        "if (x0 < x{last}) {{ c.v := c.v + 1 }} else {{ c.v := 0 - 1 }}",
        last = VARS - 1
    );
    let body = vec![block; n.max(1)];
    format!(
        "field v: Int\nmethod chain(c: Ref, {params})\n  requires {req}\n  ensures acc(c.v) && c.v == {n}\n{{\n  {body}\n}}\n",
        params = params.join(", "),
        req = req.join(" && "),
        n = n.max(1),
        body = body.join(";\n  "),
    )
}

/// The chaos-suite demo workload: a three-method program whose middle
/// method `diverge` poses one intentionally diverging solver query,
/// flanked by two well-behaved siblings (`before`, `after`).
///
/// `diverge`'s single obligation asks whether `x0 + … + x{k-1} >= 0`
/// follows from `xi == 0 || xi == 1` for each `i`. Refuting the
/// negation forces a case-splitting search to close all `2^k`
/// disjunction branches (every leaf is a distinct theory query, so the
/// caches cannot collapse them): without clause learning the decision
/// count grows exponentially in `k`.
/// Under a finite [`crate::Budget::solver_fuel`] smaller than `2^k`
/// the method degrades to a deterministic `Unknown` while `before` and
/// `after` verify bit-identically to a fault-free run — at any thread
/// count.
pub fn diverging_program(k: usize) -> String {
    let k = k.max(1);
    let params: Vec<String> = (0..k).map(|i| format!("x{}: Int", i)).collect();
    let req: Vec<String> = (0..k)
        .map(|i| format!("(x{i} == 0 || x{i} == 1)", i = i))
        .collect();
    let sum: Vec<String> = (0..k).map(|i| format!("x{}", i)).collect();
    format!(
        "field val: Int\n\
         method before(c: Ref)\n  requires acc(c.val)\n  ensures acc(c.val) && c.val == old(c.val) + 1\n{{\n  c.val := c.val + 1\n}}\n\
         method diverge({params})\n  requires {req}\n{{\n  assert {sum} >= 0\n}}\n\
         method after(c: Ref)\n  requires acc(c.val)\n  ensures acc(c.val) && c.val == 0\n{{\n  c.val := 0\n}}\n",
        params = params.join(", "),
        req = req.join(" && "),
        sum = sum.join(" + "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Backend, Verifier};

    #[test]
    fn all_cases_parse() {
        for c in all_cases() {
            let _ = c.program();
        }
    }

    #[test]
    fn positive_cases_verify_on_both_backends() {
        for c in positive_cases() {
            let p = c.program();
            for backend in [Backend::Destabilized, Backend::StableBaseline] {
                let mut v = Verifier::new(&p, backend);
                let r = v.verify_all();
                assert!(
                    r.is_ok(),
                    "case {} failed on {:?}:\n{}",
                    c.name,
                    backend,
                    r.unwrap_err()
                );
            }
        }
    }

    #[test]
    fn negative_cases_fail_on_both_backends() {
        for c in negative_cases() {
            let p = c.program();
            for backend in [Backend::Destabilized, Backend::StableBaseline] {
                let mut v = Verifier::new(&p, backend);
                assert!(
                    v.verify_all().is_err(),
                    "case {} wrongly verified on {:?}",
                    c.name,
                    backend
                );
            }
        }
    }

    #[test]
    fn scaling_program_parses_and_verifies() {
        for n in [1, 2, 4] {
            let src = scaling_program(n);
            let p = parse_program(&src).unwrap();
            let mut v = Verifier::new(&p, Backend::Destabilized);
            assert!(v.verify_all().is_ok(), "scaling n={} failed", n);
            let mut v = Verifier::new(&p, Backend::StableBaseline);
            assert!(v.verify_all().is_ok(), "scaling n={} failed (baseline)", n);
        }
    }

    #[test]
    fn chain_program_parses_and_verifies() {
        use crate::exec::VerifierConfig;
        for n in [1, 2, 8] {
            let src = chain_program(n);
            let p = parse_program(&src).unwrap();
            let mut v = Verifier::new(&p, Backend::Destabilized);
            assert!(v.verify_all().is_ok(), "chain n={} failed", n);
            let mut v = Verifier::new(&p, Backend::StableBaseline);
            assert!(v.verify_all().is_ok(), "chain n={} failed (baseline)", n);
        }
        // The chain re-asks the same branch questions, so the cache
        // should absorb almost all of them.
        let src = chain_program(16);
        let p = parse_program(&src).unwrap();
        let mut v = Verifier::with_config(
            &p,
            Backend::Destabilized,
            VerifierConfig {
                threads: 1,
                ..VerifierConfig::default()
            },
        );
        let stats = v.verify_all().unwrap();
        let s = &stats["chain"];
        assert!(
            s.cache_hits > s.cache_misses,
            "chain should be cache-dominated: {} hits / {} misses",
            s.cache_hits,
            s.cache_misses
        );
    }

    #[test]
    fn baseline_cost_grows_faster() {
        let src = scaling_program(6);
        let p = parse_program(&src).unwrap();
        let mut vd = Verifier::new(&p, Backend::Destabilized);
        let d = vd.verify_all().unwrap();
        let mut vb = Verifier::new(&p, Backend::StableBaseline);
        let b = vb.verify_all().unwrap();
        let ds = &d["bump_all"];
        let bs = &b["bump_all"];
        assert!(bs.witnesses >= 6, "baseline witnesses: {}", bs.witnesses);
        assert!(bs.rebinds > ds.rebinds);
        assert!(bs.obligations > ds.obligations);
    }
}
