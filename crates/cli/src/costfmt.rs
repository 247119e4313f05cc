//! Rendering for the static cost report (`daenerys cost`): a text
//! table sorted by predicted fuel, and a JSON form for machine
//! consumers, built as a [`Json`] value and written by
//! [`Json::render`] like every other JSON document in the workspace.

use daenerys_idf::{MethodCost, StabilityClass};
use daenerys_obs::{fmt_count, ColorMode, Json, Style, TextTable};
use std::fmt::Write as _;

/// Renders the cost report as an aligned table plus a hot-spec
/// summary. Deterministic: the input is already sorted (fuel desc,
/// name asc) and no wall-clock figures appear.
pub fn render_table(costs: &[MethodCost], color: ColorMode) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        Style::HEAD.paint(color, "predicted static cost (fuel desc)")
    );
    let mut table = TextTable::new(&[
        "method",
        "fuel",
        "queries",
        "paths",
        "splits",
        "scans",
        "stability",
    ]);
    for c in costs {
        table.row(&[
            c.method.clone(),
            fmt_count(c.fuel),
            fmt_count(c.queries),
            fmt_count(c.paths),
            fmt_count(c.splits),
            fmt_count(c.invalidation_scans),
            c.worst_class.to_string(),
        ]);
    }
    out.push_str(&table.to_string());
    let hot: Vec<&MethodCost> = costs.iter().filter(|c| c.is_hot_unstable()).collect();
    if hot.is_empty() {
        let _ = writeln!(
            out,
            "{}",
            Style::OK.paint(color, "no hot unstable specs predicted")
        );
    } else {
        let _ = writeln!(
            out,
            "{} {} method(s) predict baseline invalidation traffic:",
            Style::WARN.paint(color, "hot:"),
            hot.len()
        );
        for c in &hot {
            let _ = writeln!(
                out,
                "  {} ({} predicted scans) — destabilize or stabilize its spec",
                Style::BOLD.paint(color, &c.method),
                fmt_count(c.invalidation_scans)
            );
        }
    }
    out
}

/// Renders the cost report as one line of JSON (one object per
/// method, report order preserved).
pub fn render_json(file: &str, costs: &[MethodCost]) -> String {
    let methods = costs.iter().map(|c| {
        Json::obj([
            ("method", c.method.as_str().into()),
            ("fuel", c.fuel.into()),
            ("queries", c.queries.into()),
            ("paths", c.paths.into()),
            ("splits", c.splits.into()),
            ("invalidation_scans", c.invalidation_scans.into()),
            ("branches", c.branches.into()),
            ("loops", c.loops.into()),
            ("calls", c.calls.into()),
            ("writes", c.writes.into()),
            ("spec_reads", c.spec_reads.into()),
            ("accs", c.accs.into()),
            ("stability", c.worst_class.to_string().into()),
            ("hot_unstable", c.is_hot_unstable().into()),
        ])
    });
    let hot = costs.iter().filter(|c| c.is_hot_unstable()).count();
    let unstable = costs
        .iter()
        .filter(|c| c.worst_class == StabilityClass::Unstable)
        .count();
    let total_fuel = costs.iter().map(|c| c.fuel).fold(0u64, u64::saturating_add);
    Json::obj([
        ("file", file.into()),
        ("methods", Json::Arr(methods.collect())),
        (
            "summary",
            Json::obj([
                ("methods", costs.len().into()),
                ("unstable", unstable.into()),
                ("hot_unstable", hot.into()),
                ("total_fuel", total_fuel.into()),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use daenerys_idf::{estimate_program, parse_program};

    #[test]
    fn table_and_json_are_deterministic_and_sorted() {
        let src = "field val: Int
method hot(c: Ref, d: Ref) requires acc(c.val) && d.val > 0 ensures acc(c.val) { c.val := 1; c.val := 2 }
method calm(c: Ref) requires acc(c.val) ensures acc(c.val) { }";
        let prog = parse_program(src).unwrap();
        let costs = estimate_program(&prog);
        let t1 = render_table(&costs, ColorMode::Never);
        let t2 = render_table(&costs, ColorMode::Never);
        assert_eq!(t1, t2);
        assert!(t1.contains("hot"), "{t1}");
        assert!(t1.contains("destabilize"), "hot spec flagged: {t1}");
        let j = render_json("x.idf", &costs);
        assert!(j.contains("\"hot_unstable\":true"), "{j}");
        assert!(j.contains("\"summary\""));
        daenerys_obs::parse_json(&j).expect("cost JSON parses");
    }
}
