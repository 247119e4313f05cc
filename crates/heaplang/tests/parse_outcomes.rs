//! What the parser makes of short token strings, pinned.
//!
//! Seeded strings of up to about a dozen tokens over every binary
//! operator, `not`, unary `-`, `!`, `ref`, parentheses, pairs, `<-`,
//! `;`, application, literals and identifiers are parsed. Each line
//! records the input and either the tree's `Debug` and its printed
//! form, or the diagnostic as `at token: message`. The table must match
//! `fixtures/parse_outcomes.golden` line for line, so a change to the
//! parser or the printer that moves any outcome shows here.

use daenerys_heaplang::parse;

/// Inputs in the table.
const INPUTS: usize = 2000;

/// Tokens that start an operand.
const OPERANDS: [&str; 12] = [
    "x", "f", "1", "0", "true", "(", "(", "not", "-", "!", "ref", "()",
];

/// Tokens that follow an operand; an operand there is an application.
const OPERATORS: [&str; 22] = [
    "||", "&&", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", ")", ")", "<-", ";", ",",
    "x", "1", "(", "!",
];

/// A SplitMix64 stream: the inputs depend on nothing but the seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Input `seed`: operands and operators mostly alternate, one token in
/// sixteen is drawn from either list, and what is left open when the
/// tokens run out (an operand, parentheses) is mostly completed.
fn input(seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut toks = Vec::new();
    let mut want_operand = true;
    let mut open = 0usize;
    for _ in 0..1 + rng.below(12) {
        let from_operands = if rng.below(16) == 0 {
            rng.below(2) == 0
        } else {
            want_operand
        };
        let tok = if from_operands {
            OPERANDS[rng.below(OPERANDS.len())]
        } else {
            OPERATORS[rng.below(OPERATORS.len())]
        };
        match tok {
            "(" => open += 1,
            ")" => open = open.saturating_sub(1),
            _ => {}
        }
        want_operand = !matches!(tok, "x" | "f" | "1" | "0" | "true" | ")" | "()");
        toks.push(tok);
    }
    if rng.below(4) != 0 {
        if want_operand {
            toks.push("x");
        }
        toks.extend(std::iter::repeat_n(")", open));
    }
    toks.join(" ")
}

/// One line per input.
fn table() -> String {
    let mut out = String::new();
    for seed in 0..INPUTS as u64 {
        let src = input(seed);
        let outcome = match parse(&src) {
            Ok(e) => format!("{:?}\t{}", e, e),
            Err(e) => format!("at {}: {}", e.at, e.message),
        };
        out.push_str(&format!("{}\t{}\n", src, outcome));
    }
    out
}

#[test]
fn parse_outcomes_match_the_golden_table() {
    let expected = include_str!("fixtures/parse_outcomes.golden");
    let actual = table();
    if actual != expected {
        let path = format!(
            "{}/heaplang_parse_outcomes.actual",
            env!("CARGO_TARGET_TMPDIR")
        );
        std::fs::write(&path, &actual).expect("write the actual table");
        let (exp, act): (Vec<&str>, Vec<&str>) =
            (expected.lines().collect(), actual.lines().collect());
        let first = (0..exp.len().max(act.len()))
            .find(|&i| exp.get(i) != act.get(i))
            .expect("the tables differ");
        panic!(
            "parse outcomes differ from fixtures/parse_outcomes.golden (actual table in {}); first at line {}\n  expected: {}\n  actual:   {}",
            path,
            first + 1,
            exp.get(first).unwrap_or(&"<missing>"),
            act.get(first).unwrap_or(&"<missing>"),
        );
    }
    // The inputs often parse and often do not, and reach every kind
    // of node.
    let parsed = actual
        .lines()
        .filter(|l| l.split('\t').count() == 3)
        .count();
    let refused = actual.lines().count() - parsed;
    assert!(
        parsed > INPUTS / 3 && refused > INPUTS / 3,
        "{} parsed, {} refused",
        parsed,
        refused
    );
    for needle in [
        "BinOp(Or",
        "BinOp(And",
        "BinOp(Le",
        "BinOp(Rem",
        "UnOp(Not",
        "UnOp(Neg",
        "Store(",
        "Load(",
        "Alloc(",
        "App(",
        "Pair(",
        "Let(Anon",
    ] {
        assert!(actual.contains(needle), "no outcome has {}", needle);
    }
}
