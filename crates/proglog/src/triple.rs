//! Hoare triples of the destabilized program logic.

use daenerys_core::Assert;
use daenerys_heaplang::Expr;
use std::fmt;

/// A Hoare triple `{pre} expr {binder. post}`.
///
/// `post` may mention the result through the logic variable `binder`,
/// and — this being the destabilized logic — may use heap-dependent
/// expressions and permission introspection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Triple {
    /// The precondition.
    pub pre: Assert,
    /// The program.
    pub expr: Expr,
    /// The result binder.
    pub binder: String,
    /// The postcondition (mentions `binder`).
    pub post: Assert,
}

impl Triple {
    /// Creates a triple.
    pub fn new(pre: Assert, expr: Expr, binder: &str, post: Assert) -> Triple {
        Triple {
            pre,
            expr,
            binder: binder.to_string(),
            post,
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{ {} }} {} {{ {}. {} }}",
            self.pre, self.expr, self.binder, self.post
        )
    }
}

/// A certified triple: only constructible through the rules in
/// [`crate::rules`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TripleProof {
    triple: Triple,
    rule: &'static str,
    steps: usize,
}

impl TripleProof {
    pub(crate) fn make(triple: Triple, rule: &'static str, steps: usize) -> TripleProof {
        TripleProof {
            triple,
            rule,
            steps,
        }
    }

    /// The certified triple statement.
    pub fn triple(&self) -> &Triple {
        &self.triple
    }

    /// The outermost rule used.
    pub fn rule(&self) -> &'static str {
        self.rule
    }

    /// Number of rule applications in the derivation.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

impl fmt::Display for TripleProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}   [{} rule(s)]", self.triple, self.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daenerys_core::Term;

    #[test]
    fn display_mentions_all_parts() {
        let t = Triple::new(
            Assert::Emp,
            Expr::int(1),
            "v",
            Assert::eq(Term::var("v"), Term::int(1)),
        );
        let s = t.to_string();
        assert!(s.contains("emp") && s.contains("v"));
    }

    #[test]
    fn proofs_display_their_triple_and_rule_count() {
        let post = Assert::eq(Term::var("v"), Term::int(1));
        let value = crate::rules::wp_value(daenerys_heaplang::Val::int(1), "v", post.clone());
        assert_eq!(value.rule(), "wp-value");
        assert_eq!(value.steps(), 1);
        assert_eq!(value.triple().post, post);
        assert_eq!(
            value.to_string(),
            format!("{}   [1 rule(s)]", value.triple())
        );

        let framed = crate::rules::wp_frame(&value, Assert::Emp).unwrap();
        assert_eq!((framed.rule(), framed.steps()), ("wp-frame", 2));
        assert!(framed.to_string().ends_with("   [2 rule(s)]"));
    }
}
