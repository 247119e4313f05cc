//! Equivalence tests for the linear whole-program passes: the indexed
//! [`Program::method`] answers exactly as the linear scan it replaced,
//! the clone-free normalized interface prints the same bytes as the
//! old body-stripped clone (so stored fingerprints keep hitting), and
//! the set-based duplicate checks report the same errors in the same
//! order as the old prefix scans.

use daenerys_idf::{
    all_cases, chain_program, check_program, diverging_program, normalized_interface,
    parse_program, scaling_program, Assertion, Method, Program, Stmt, Type,
};
use proptest::prelude::*;

/// Names drawn from a small alphabet so duplicates are common.
const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

/// A method whose identity survives renames: `tag` is its parameter
/// count, so two methods with the same name are still told apart.
fn method(name: &str, tag: usize) -> Method {
    Method {
        name: name.to_string(),
        params: (0..tag).map(|i| (format!("p{}", i), Type::Int)).collect(),
        returns: Vec::new(),
        requires: Assertion::truth(),
        ensures: Assertion::truth(),
        body: Some(vec![Stmt::Assert(Assertion::truth())]),
    }
}

/// An edit of the public `methods` vector after the index was built.
#[derive(Clone, Debug)]
enum Edit {
    Push(usize),
    Insert(usize, usize),
    Remove(usize),
    Pop,
    Swap(usize, usize),
    Rename(usize, usize),
    RenameFresh(usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..NAMES.len()).prop_map(Edit::Push),
        (0usize..16, 0usize..NAMES.len()).prop_map(|(i, n)| Edit::Insert(i, n)),
        (0usize..16).prop_map(Edit::Remove),
        Just(Edit::Pop),
        (0usize..16, 0usize..16).prop_map(|(i, j)| Edit::Swap(i, j)),
        (0usize..16, 0usize..NAMES.len()).prop_map(|(i, n)| Edit::Rename(i, n)),
        (0usize..16).prop_map(Edit::RenameFresh),
    ]
}

fn apply(methods: &mut Vec<Method>, edit: &Edit, step: usize) {
    let tag = 100 + step;
    let len = methods.len();
    match *edit {
        Edit::Push(n) => methods.push(method(NAMES[n], tag)),
        Edit::Insert(i, n) => methods.insert(i.min(len), method(NAMES[n], tag)),
        Edit::Remove(i) if i < len => {
            methods.remove(i);
        }
        Edit::Pop => {
            methods.pop();
        }
        Edit::Swap(i, j) if i < len && j < len => methods.swap(i, j),
        Edit::Rename(i, n) if i < len => methods[i].name = NAMES[n].to_string(),
        Edit::RenameFresh(i) if i < len => methods[i].name = format!("fresh{}", step),
        Edit::Remove(_) | Edit::Swap(..) | Edit::Rename(..) | Edit::RenameFresh(_) => {}
    }
}

fn position(program: &Program, m: &Method) -> usize {
    let at = program.methods.iter().position(|x| std::ptr::eq(x, m));
    at.expect("lookups return methods of the program")
}

/// Checks every probe name against the linear scan. `exact` demands
/// the scan's answer by identity; otherwise (an index built before the
/// latest edits) the documented contract: same presence, the requested
/// name, and the scan's answer unless that is an earlier duplicate.
fn agrees_with_scan(program: &Program, step: usize, exact: bool) -> Result<(), String> {
    let fresh: Vec<String> = (0..=step).map(|s| format!("fresh{}", s)).collect();
    let probes = NAMES
        .iter()
        .copied()
        .chain(fresh.iter().map(String::as_str))
        .chain(["absent", ""]);
    for name in probes {
        let indexed = program.method(name);
        let scanned = program.methods.iter().find(|m| m.name == name);
        let ok = match (indexed, scanned) {
            (None, None) => true,
            (Some(i), Some(s)) if std::ptr::eq(i, s) => true,
            (Some(i), Some(s)) => {
                !exact && i.name == name && position(program, s) < position(program, i)
            }
            _ => false,
        };
        if !ok {
            return Err(format!("lookup of {:?} after {} edit(s)", name, step));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_lookup_matches_linear_find(
        names in proptest::collection::vec(0usize..NAMES.len(), 0..12),
        edits in proptest::collection::vec(arb_edit(), 0..6),
    ) {
        let methods = names
            .iter()
            .enumerate()
            .map(|(tag, &n)| method(NAMES[n], tag))
            .collect();
        let mut program = Program::new(Vec::new(), methods);
        let checked = agrees_with_scan(&program, 0, true);
        prop_assert!(checked.is_ok(), "{:?} on a fresh program", checked);
        for (step, edit) in edits.iter().enumerate() {
            apply(&mut program.methods, edit, step);
            let checked = agrees_with_scan(&program, step, false);
            prop_assert!(checked.is_ok(), "{:?} in {:?}", checked, edits);
            // A clone is equal, starts with an empty index, and builds
            // its own from the edited methods.
            let copy = program.clone();
            prop_assert_eq!(&copy, &program);
            let checked = agrees_with_scan(&copy, step, true);
            prop_assert!(checked.is_ok(), "{:?} on a clone in {:?}", checked, edits);
        }
    }
}

/// The interface text the fingerprints hashed before the clone-free
/// printer: the whole method cloned with its body dropped.
fn old_interface(m: &Method) -> String {
    Method {
        body: None,
        ..m.clone()
    }
    .to_string()
}

#[test]
fn normalized_interface_is_byte_identical_on_f1() {
    let mut programs: Vec<Program> = all_cases().iter().map(|c| c.program()).collect();
    for src in [scaling_program(4), chain_program(8), diverging_program(4)] {
        programs.push(parse_program(&src).unwrap());
    }
    let mut seen = 0;
    for p in &programs {
        for m in &p.methods {
            assert_eq!(normalized_interface(m), old_interface(m), "{}", m.name);
            seen += 1;
        }
    }
    assert!(seen >= 20, "only {} methods checked", seen);
}

const DUP_FIELDS: &str = "field v: Int
field w: Int
field v: Int
field w: Bool
field v: Ref
method m(c: Ref)
  requires acc(c.u)
{ c.v := true }";

const DUP_METHODS: &str = "field v: Int
method a(n: Int)
method b(x: Int) { y := 1 }
method a()
method b() { call a(1, 2) }
method c(c: Ref) { call d() }
method a(n: Int) returns (r: Int) { r := n }";

fn wf_errors(src: &str) -> Vec<String> {
    check_program(&parse_program(src).unwrap())
        .unwrap_err()
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn duplicate_field_errors_keep_their_order() {
    assert_eq!(
        wf_errors(DUP_FIELDS),
        [
            "duplicate field v",
            "duplicate field w",
            "duplicate field v",
            "in method m: unknown field u",
            "in method m: expected Int but true has type Bool",
        ]
    );
}

#[test]
fn duplicate_method_errors_keep_their_order() {
    // Each repeat is reported where it is declared, interleaved with
    // the per-method errors; calls resolve to the first declaration.
    assert_eq!(
        wf_errors(DUP_METHODS),
        [
            "in method b: assignment to undeclared variable y",
            "duplicate method a",
            "duplicate method b",
            "in method b: a expects 1 argument(s), got 2",
            "in method c: call to unknown method d",
            "duplicate method a",
        ]
    );
}
