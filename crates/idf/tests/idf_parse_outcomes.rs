//! What the parser makes of short token strings, pinned.
//!
//! Seeded strings of up to about a dozen tokens over every binary
//! operator, `!`, unary `-`, parentheses, `?:`, `==>`, literals,
//! identifiers, `.f`, `old(` and `perm(` are parsed in an expression
//! slot (`x := …`) and in an assertion slot (`requires …`), where `&&`
//! is read at the assertion level. Each line records the slot, the
//! input and either the tree's `Debug` (spans included) and its printed
//! form, or the diagnostic as `line:col: message`. The table must match
//! `fixtures/parse_outcomes.golden` line for line, so a change to the
//! parser or the printer that moves any outcome shows here.

use daenerys_idf::{parse_program, Stmt};

/// Inputs in the table.
const INPUTS: usize = 2000;

/// Tokens that start an operand (and one whole `perm` operand).
const OPERANDS: [&str; 13] = [
    "x",
    "y",
    "1",
    "0",
    "true",
    "null",
    "(",
    "(",
    "!",
    "-",
    "old(",
    "perm(",
    "perm( y .f )",
];

/// Tokens that follow an operand.
const OPERATORS: [&str; 19] = [
    "||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", ")", ")", "?", ":", ".f",
    ".f", "==>",
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
/// tokens run out (an operand, parentheses, a `?` without its `:`) is
/// mostly completed.
fn input(seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut toks = Vec::new();
    let mut want_operand = true;
    let (mut open, mut questions) = (0usize, 0usize);
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
            "(" | "old(" | "perm(" => open += 1,
            ")" => open = open.saturating_sub(1),
            "?" => questions += 1,
            ":" => questions = questions.saturating_sub(1),
            _ => {}
        }
        want_operand = !matches!(
            tok,
            "x" | "y" | "1" | "0" | "true" | "null" | ")" | ".f" | "perm( y .f )"
        );
        toks.push(tok);
    }
    if rng.below(4) != 0 {
        if want_operand {
            toks.push("y");
        }
        toks.extend(std::iter::repeat_n(")", open));
        for _ in 0..questions {
            toks.extend([":", "0"]);
        }
    }
    toks.join(" ")
}

/// One line per (input, slot).
fn table() -> String {
    let mut out = String::new();
    for seed in 0..INPUTS as u64 {
        let src = input(seed);
        let outcome = match parse_program(&format!("method m() {{ x := {} }}", src)) {
            Ok(p) => match &p.methods[0].body.as_ref().expect("a body")[..] {
                [Stmt::Assign(_, e)] => format!("{:?}\t{}", e, e),
                other => format!("{:?}", other),
            },
            Err(e) => format!("{}:{}: {}", e.line, e.col, e.message),
        };
        out.push_str(&format!("expr\t{}\t{}\n", src, outcome));
        let outcome = match parse_program(&format!("method m() requires {} {{ }}", src)) {
            Ok(p) => format!("{:?}\t{}", p.methods[0].requires, p.methods[0].requires),
            Err(e) => format!("{}:{}: {}", e.line, e.col, e.message),
        };
        out.push_str(&format!("spec\t{}\t{}\n", src, outcome));
    }
    out
}

#[test]
fn parse_outcomes_match_the_golden_table() {
    let expected = include_str!("fixtures/parse_outcomes.golden");
    let actual = table();
    if actual != expected {
        let path = format!("{}/parse_outcomes.actual", env!("CARGO_TARGET_TMPDIR"));
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
        .filter(|l| l.split('\t').count() == 4)
        .count();
    let refused = actual.lines().count() - parsed;
    assert!(
        parsed > INPUTS / 2 && refused > INPUTS / 2,
        "{} parsed, {} refused",
        parsed,
        refused
    );
    for needle in [
        "Bin(Or", "Bin(And", "Bin(Le", "Bin(Div", "Cond(", "Not(", "Neg(", "Old(", "Perm(",
        "Field(", "Implies(",
    ] {
        assert!(actual.contains(needle), "no outcome has {}", needle);
    }
}
