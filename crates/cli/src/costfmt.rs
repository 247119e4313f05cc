//! Rendering for the static cost report (`daenerys cost`): a text
//! table sorted by predicted fuel, and a hand-rendered JSON form for
//! machine consumers (the repo carries no serde).

use daenerys_idf::{MethodCost, StabilityClass};
use daenerys_obs::{escape_json, fmt_count, ColorMode, Style, TextTable};
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

/// Renders the cost report as JSON (one object per method, report
/// order preserved).
pub fn render_json(file: &str, costs: &[MethodCost]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"file\": {},", escape_json(file));
    let _ = writeln!(out, "  \"methods\": [");
    for (i, c) in costs.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"method\": {}, \"fuel\": {}, \"queries\": {}, \"paths\": {}, \
             \"splits\": {}, \"invalidation_scans\": {}, \"branches\": {}, \"loops\": {}, \
             \"calls\": {}, \"writes\": {}, \"spec_reads\": {}, \"accs\": {}, \
             \"stability\": \"{}\", \"hot_unstable\": {}}}{}",
            escape_json(&c.method),
            c.fuel,
            c.queries,
            c.paths,
            c.splits,
            c.invalidation_scans,
            c.branches,
            c.loops,
            c.calls,
            c.writes,
            c.spec_reads,
            c.accs,
            c.worst_class,
            c.is_hot_unstable(),
            if i + 1 < costs.len() { "," } else { "" },
        );
    }
    let hot = costs.iter().filter(|c| c.is_hot_unstable()).count();
    let unstable = costs
        .iter()
        .filter(|c| c.worst_class == StabilityClass::Unstable)
        .count();
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"summary\": {{\"methods\": {}, \"unstable\": {}, \"hot_unstable\": {}, \"total_fuel\": {}}}",
        costs.len(),
        unstable,
        hot,
        costs.iter().map(|c| c.fuel).fold(0u64, u64::saturating_add),
    );
    out.push_str("}\n");
    out
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
        assert!(j.contains("\"hot_unstable\": true"), "{j}");
        assert!(j.contains("\"summary\""));
        daenerys_obs::parse_json(&j).expect("cost JSON parses");
    }
}
