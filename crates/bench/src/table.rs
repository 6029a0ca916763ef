//! What every figure and ablation returns, and its one renderer.
//!
//! A [`Table`] is a title, typed columns, rows of numeric or text cells and
//! free-form footer lines. Columns carry the formatting (width, alignment,
//! precision, explicit sign), cells carry only values, so an experiment
//! states its numbers once and `Display` lays them out the way
//! `experiments_output.txt` records them.

use std::fmt;

/// One value in a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count, printed in full.
    Int(u64),
    /// A measurement, printed with its column's precision and sign.
    Num(f64),
    /// A label, printed as is (also a number with a unit, such as `"2m"`).
    Text(String),
}

impl From<u64> for Cell {
    fn from(v: u64) -> Cell {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Cell {
        Cell::Int(u64::from(v))
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::Num(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Text(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Text(v)
    }
}

/// One table row from values of mixed types: `cells![8, 263.7, "ok"]`.
#[macro_export]
macro_rules! cells {
    ($($v:expr),+ $(,)?) => {
        vec![$($crate::table::Cell::from($v)),+]
    };
}

/// A column: its header and how its cells are laid out.
#[derive(Debug, Clone)]
pub struct Column {
    header: String,
    width: usize,
    left: bool,
    precision: usize,
    signed: bool,
}

impl Column {
    /// A right-aligned column of counts or labels.
    pub fn new(header: impl Into<String>, width: usize) -> Column {
        Column {
            header: header.into(),
            width,
            left: false,
            precision: 0,
            signed: false,
        }
    }

    /// A left-aligned column, padded to `width` (0: no padding, for the
    /// last column of a line).
    pub fn left(header: impl Into<String>, width: usize) -> Column {
        Column {
            left: true,
            ..Column::new(header, width)
        }
    }

    /// A right-aligned column of measurements with `precision` decimals.
    pub fn num(header: impl Into<String>, width: usize, precision: usize) -> Column {
        Column {
            precision,
            ..Column::new(header, width)
        }
    }

    /// [`Column::num`] with the sign always shown (deltas and gains).
    pub fn signed(header: impl Into<String>, width: usize, precision: usize) -> Column {
        Column {
            signed: true,
            ..Column::num(header, width, precision)
        }
    }

    fn pad(&self, f: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
        let width = self.width;
        if self.left {
            write!(f, "{text:<width$}")
        } else {
            write!(f, "{text:>width$}")
        }
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, cell: &Cell) -> fmt::Result {
        let precision = self.precision;
        match cell {
            Cell::Int(v) => self.pad(f, &v.to_string()),
            Cell::Num(v) if self.signed => self.pad(f, &format!("{v:+.precision$}")),
            Cell::Num(v) => self.pad(f, &format!("{v:.precision$}")),
            Cell::Text(s) => self.pad(f, s),
        }
    }
}

/// One figure or ablation.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
    footer: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, columns: Vec<Column>) -> Table {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
            footer: Vec::new(),
        }
    }

    /// Append a row (see [`cells!`]); it must have one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width differs from the header of {:?}",
            self.title
        );
        self.rows.push(cells);
    }

    /// Append a line printed after the rows.
    pub fn footer(&mut self, line: impl Into<String>) {
        self.footer.push(line.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        for (i, col) in self.columns.iter().enumerate() {
            f.write_str(if i == 0 { "" } else { " " })?;
            col.pad(f, &col.header)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (i, (col, cell)) in self.columns.iter().zip(row).enumerate() {
                f.write_str(if i == 0 { "" } else { " " })?;
                col.render(f, cell)?;
            }
            writeln!(f)?;
        }
        for line in &self.footer {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align_and_pad_like_format_specs() {
        let mut t = Table::new(
            "T",
            vec![
                Column::left("knob", 6),
                Column::new("ops", 5),
                Column::left("phase", 0),
            ],
        );
        t.row(cells!["a", 12u64, "x"]);
        t.row(cells!["toolong", 123_456u64, ""]);
        assert_eq!(
            t.to_string(),
            "T\nknob     ops phase\na         12 x\ntoolong 123456 \n"
        );
    }

    #[test]
    fn precision_and_sign_belong_to_the_column() {
        let mut t = Table::new(
            "T",
            vec![
                Column::num("us", 6, 2),
                Column::num("ms", 4, 0),
                Column::signed("gain%", 7, 1),
            ],
        );
        t.row(cells![2.499, 1000.4, 17.96]);
        t.row(cells![0.0, f64::NAN, -0.04]);
        t.row(cells![10.0, 2.5, 0.0]);
        assert_eq!(
            t.to_string(),
            "T\n    us   ms   gain%\n  2.50 1000   +18.0\n  0.00  NaN    -0.0\n 10.00    2    +0.0\n"
        );
    }

    #[test]
    fn suffixed_cells_are_right_aligned_text() {
        let mut t = Table::new("T", vec![Column::new("base", 8), Column::new("n", 3)]);
        t.row(cells![format!("{}m", 2), 7usize]);
        t.row(cells![format!("{}m", 2_000), 16u32]);
        assert_eq!(
            t.to_string(),
            "T\n    base   n\n      2m   7\n   2000m  16\n"
        );
    }

    #[test]
    fn footer_lines_follow_the_rows() {
        let mut t = Table::new("T", vec![Column::new("t(s)", 4)]);
        t.row(cells![1.0]);
        t.footer("min: 1");
        t.footer("converged: true");
        assert_eq!(t.to_string(), "T\nt(s)\n   1\nmin: 1\nconverged: true\n");
    }

    #[test]
    #[should_panic(expected = "row width differs")]
    fn short_rows_are_rejected() {
        let mut t = Table::new("T", vec![Column::new("a", 1), Column::new("b", 1)]);
        t.row(cells![1u64]);
    }
}
