//! Table rendering for the bench binaries: columns are declared once
//! and both the markdown a binary prints and the JSON rows it exports
//! are derived from them.

use issr_trace::Json;

pub use issr_trace::ratio;

/// Renders a markdown table from a header and rows of cells.
#[must_use]
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// How a float cell prints in the markdown form (the JSON form keeps
/// the value). Strings and integers print as they are and `null` as
/// `-`, whatever the column's format.
#[derive(Clone, Copy, Debug)]
pub enum Fmt {
    /// The shortest text that round-trips.
    Plain,
    /// `{:.n}`.
    Fixed(usize),
    /// `{:.n}x` — a ratio.
    Times(usize),
    /// A fraction as `{:.n}%`.
    Percent(usize),
    /// `n` significant digits — a column that mixes magnitudes.
    Sig(usize),
}

impl Fmt {
    fn cell(self, value: &Json) -> String {
        match (value, self) {
            (Json::Null, _) => "-".to_owned(),
            (Json::Str(s), _) => s.clone(),
            (Json::Float(v), Fmt::Fixed(n)) => format!("{v:.n$}"),
            (Json::Float(v), Fmt::Times(n)) => format!("{v:.n$}x"),
            (Json::Float(v), Fmt::Percent(n)) => format!("{:.n$}%", 100.0 * v),
            (Json::Float(v), Fmt::Sig(n)) if *v != 0.0 && v.is_finite() => {
                let magnitude = v.abs().log10().floor() as i64;
                let decimals = usize::try_from(n as i64 - 1 - magnitude).unwrap_or(0);
                format!("{v:.decimals$}")
            }
            (other, _) => other.to_string(),
        }
    }
}

/// One column: JSON key, markdown heading, markdown cell format.
pub type Column = (&'static str, &'static str, Fmt);

/// Rows under once-declared columns, with both output forms derived.
#[derive(Clone, Debug)]
pub struct Table {
    columns: Vec<Column>,
    rows: Vec<Vec<Json>>,
}

impl Table {
    /// An empty table over `columns`.
    #[must_use]
    pub fn new(columns: &[Column]) -> Self {
        Self { columns: columns.to_vec(), rows: Vec::new() }
    }

    /// Appends one row, cells in column order.
    ///
    /// # Panics
    /// Panics if `cells` does not have one cell per column.
    pub fn push(&mut self, cells: Vec<Json>) {
        assert_eq!(cells.len(), self.columns.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cell of `row` under the column keyed `key`.
    ///
    /// # Panics
    /// Panics if there is no such row or column.
    #[must_use]
    pub fn cell(&self, row: usize, key: &str) -> &Json {
        let col = self.columns.iter().position(|c| c.0 == key);
        &self.rows[row][col.unwrap_or_else(|| panic!("no column `{key}`"))]
    }

    /// [`Self::cell`] as a number.
    ///
    /// # Panics
    /// Panics if the cell is not numeric.
    #[must_use]
    pub fn f64(&self, row: usize, key: &str) -> f64 {
        self.cell(row, key).as_f64().unwrap_or_else(|| panic!("`{key}` is not numeric"))
    }

    /// How `row` names itself: its first column's heading and cell.
    #[must_use]
    pub fn label(&self, row: usize) -> String {
        let (_, heading, fmt) = self.columns[0];
        format!("{heading} {}", fmt.cell(&self.rows[row][0]))
    }

    /// The markdown form: one heading per column, one line per row.
    #[must_use]
    pub fn markdown(&self) -> String {
        let header: Vec<&str> = self.columns.iter().map(|c| c.1).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|cells| self.columns.iter().zip(cells).map(|(c, v)| c.2.cell(v)).collect())
            .collect();
        markdown_table(&header, &rows)
    }

    /// The JSON form: an array of objects keyed by column.
    #[must_use]
    pub fn json(&self) -> Json {
        let row = |cells: &Vec<Json>| {
            Json::Obj(
                self.columns.iter().zip(cells).map(|(c, v)| (c.0.to_owned(), v.clone())).collect(),
            )
        };
        Json::Arr(self.rows.iter().map(row).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    /// Both forms come from the one column list: every markdown line
    /// has as many cells as every JSON row has keys, in the same order,
    /// and each format prints what it says.
    #[test]
    fn table_forms_share_their_columns() {
        let mut t = Table::new(&[
            ("name", "matrix", Fmt::Plain),
            ("cycles", "cycles", Fmt::Plain),
            ("util", "util", Fmt::Fixed(3)),
            ("speedup", "speedup", Fmt::Times(2)),
            ("share", "share", Fmt::Percent(1)),
            ("sig", "sig", Fmt::Sig(3)),
            ("rel_err", "rel. error", Fmt::Percent(1)),
        ]);
        let row = |name: &str, sig: f64, err: Json| {
            vec![
                name.into(),
                42u64.into(),
                0.77751.into(),
                6.98.into(),
                0.5.into(),
                sig.into(),
                err,
            ]
        };
        t.push(row("g7", 194.4, Json::Float(-0.031)));
        t.push(row("g11", 0.0012, Json::Null));
        let md = t.markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| matrix | cycles | util | speedup | share | sig | rel. error |");
        assert_eq!(lines[2], "| g7 | 42 | 0.778 | 6.98x | 50.0% | 194 | -3.1% |");
        assert_eq!(lines[3], "| g11 | 42 | 0.778 | 6.98x | 50.0% | 0.00120 | - |");
        let Json::Arr(rows) = t.json() else { panic!("an array of rows") };
        assert_eq!(rows.len(), t.len());
        for (line, row) in lines[2..].iter().zip(&rows) {
            let Json::Obj(fields) = row else { panic!("a row object") };
            assert_eq!(line.matches(" | ").count() + 1, fields.len());
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "cycles", "util", "speedup", "share", "sig", "rel_err"]);
        }
        assert_eq!(t.label(1), "matrix g11");
        assert_eq!(t.f64(0, "cycles"), 42.0);
        assert_eq!(t.cell(1, "rel_err"), &Json::Null);
    }

    /// The joiner binary's `spvv` section, built through [`Table`], is
    /// the one the committed baseline holds — adopting the table moved
    /// no byte of it.
    #[test]
    fn spvv_section_matches_the_committed_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/BENCH_joiner.json");
        let text = std::fs::read_to_string(path).expect("committed joiner baseline");
        let doc = Json::parse(&text).expect("baseline parses");
        let committed = doc.get("results").and_then(|r| r.get("spvv")).expect("spvv section");
        let built = crate::figures::joiner_spvv(&[0.0, 0.5, 1.0], 0.5).table.json();
        assert_eq!(&built, committed);
    }
}
