//! Terminal rendering primitives — ANSI styling shared by every
//! Daenerys front-end (the `daenerys` CLI, `daenerys-top`, bench
//! summaries).
//!
//! Rendering follows the same determinism contract as the rest of the
//! crate: the *text* of a diagnostic never depends on whether color is
//! enabled, only the escape sequences wrapped around it do. Golden
//! tests therefore compare `ColorMode::Never` output byte-for-byte
//! while interactive runs get the styled variant for free.

use std::fmt;

/// Whether [`Style::paint`] emits ANSI escape sequences.
///
/// There is deliberately no `Auto` variant here: TTY sniffing belongs
/// to the binary (which owns the process environment), not to a
/// library whose output must be reproducible in tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColorMode {
    /// Emit ANSI escapes around styled spans.
    Always,
    /// Emit plain text only — byte-stable for golden tests and pipes.
    Never,
}

impl ColorMode {
    /// True when escapes are emitted.
    pub fn enabled(self) -> bool {
        self == ColorMode::Always
    }
}

/// A terminal text style: one SGR color plus an optional bold flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Style {
    /// SGR color code (e.g. 31 = red); 0 means "no color".
    code: u8,
    bold: bool,
}

impl Style {
    /// Bold red — errors and failed verdicts.
    pub const ERROR: Style = Style {
        code: 31,
        bold: true,
    };
    /// Bold yellow — warnings and unstable findings.
    pub const WARN: Style = Style {
        code: 33,
        bold: true,
    };
    /// Bold green — verified / passing.
    pub const OK: Style = Style {
        code: 32,
        bold: true,
    };
    /// Bold cyan — section headings and method names.
    pub const HEAD: Style = Style {
        code: 36,
        bold: true,
    };
    /// Bold blue — gutter rules and line numbers.
    pub const GUTTER: Style = Style {
        code: 34,
        bold: true,
    };
    /// Dim-ish plain bold — emphasis without color.
    pub const BOLD: Style = Style {
        code: 0,
        bold: true,
    };

    /// Wraps `text` in this style under the given mode. Under
    /// [`ColorMode::Never`] the text is returned verbatim.
    pub fn paint(self, mode: ColorMode, text: &str) -> String {
        if !mode.enabled() {
            return text.to_string();
        }
        let mut out = String::with_capacity(text.len() + 12);
        out.push_str("\x1b[");
        if self.bold {
            out.push('1');
        }
        if self.code != 0 {
            if self.bold {
                out.push(';');
            }
            out.push_str(&self.code.to_string());
        }
        out.push('m');
        out.push_str(text);
        out.push_str("\x1b[0m");
        out
    }
}

/// A caret underline for a 1-based source column: `col - 1` spaces of
/// padding followed by `width.max(1)` carets. Columns ≤ 1 pad zero.
///
/// The result is the raw underline text; style it with
/// [`Style::paint`] if desired.
pub fn caret_line(col: u32, width: usize) -> String {
    let pad = (col.max(1) - 1) as usize;
    let mut s = " ".repeat(pad);
    s.push_str(&"^".repeat(width.max(1)));
    s
}

/// Right-aligns a line number into a fixed-width gutter, e.g.
/// `gutter(7, 4)` → `"   7"`.
pub fn gutter(line: u32, width: usize) -> String {
    format!("{line:>width$}")
}

/// Formats a nanosecond duration as a short human figure
/// (`"873ns"`, `"14.2µs"`, `"3.07ms"`, `"1.25s"`), deterministic for
/// a given input.
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Formats a count with thousands separators (`1234567` → `1_234_567`)
/// so big fuel numbers stay readable in the cost report.
pub fn fmt_count(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// A minimal left-aligned text table with a header row and a dashed
/// rule, used by the cost report. Column widths fit the widest cell;
/// a row's trailing empty cells print nothing.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: &[String]) {
        let mut r: Vec<String> = cells.to_vec();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            // Trailing empty cells print nothing, not padding.
            let shown = cells
                .iter()
                .rposition(|c| !c.is_empty())
                .map_or(0, |i| i + 1);
            let cells = &cells[..shown];
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if i + 1 == cells.len() {
                    write!(f, "{cell}")?;
                } else {
                    write!(f, "{cell:<width$}", width = widths[i])?;
                }
            }
            writeln!(f)
        };
        render_row(f, &self.header)?;
        let rule_len = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(rule_len))?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paint_respects_mode() {
        assert_eq!(Style::ERROR.paint(ColorMode::Never, "boom"), "boom");
        assert_eq!(
            Style::ERROR.paint(ColorMode::Always, "boom"),
            "\x1b[1;31mboom\x1b[0m"
        );
        assert_eq!(Style::BOLD.paint(ColorMode::Always, "x"), "\x1b[1mx\x1b[0m");
    }

    #[test]
    fn caret_line_pads_and_clamps() {
        assert_eq!(caret_line(1, 3), "^^^");
        assert_eq!(caret_line(4, 2), "   ^^");
        assert_eq!(caret_line(0, 0), "^", "degenerate spans still point");
    }

    #[test]
    fn human_figures() {
        assert_eq!(fmt_nanos(873), "873ns");
        assert_eq!(fmt_nanos(14_200), "14.2µs");
        assert_eq!(fmt_nanos(3_070_000), "3.07ms");
        assert_eq!(fmt_nanos(1_250_000_000), "1.25s");
        assert_eq!(fmt_count(7), "7");
        assert_eq!(fmt_count(1_234_567), "1_234_567");
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = TextTable::new(&["method", "fuel"]);
        t.row(&["a".to_string(), "10".to_string()]);
        t.row(&["longer".to_string(), "7".to_string()]);
        let s = t.to_string();
        assert_eq!(s, "method  fuel\n------------\na       10\nlonger  7\n");
    }

    #[test]
    fn table_prints_no_padding_for_trailing_empty_cells() {
        let mut t = TextTable::new(&["method", "fuel", "queries"]);
        t.row(&["a".to_string(), "10".to_string(), "3".to_string()]);
        t.row(&["b".to_string(), "failed".to_string()]);
        t.row(&["c".to_string(), String::new(), "4".to_string()]);
        assert_eq!(
            t.to_string(),
            "method  fuel    queries\n-----------------------\n\
             a       10      3\nb       failed\nc               4\n"
        );
    }
}
