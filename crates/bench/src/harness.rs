//! Shared experiment plumbing: the section list and its arguments, timing,
//! and text-table rendering.

use std::time::{Duration, Instant};

use crate::experiments as e;

/// One section of the paper's evaluation: (command-line name, heading,
/// default scale, experiment). 1.0 approximates the paper's scaled-down
/// laptop setting; the defaults are chosen so all ten finish in minutes.
pub type Section = (&'static str, &'static str, f64, fn(f64) -> String);

/// The ten sections, in the paper's order. Table IV evaluates 25 plans per
/// seeker family, Table V 40 queries, and Fig. 5 four queries per size.
pub static SECTIONS: [Section; 10] = [
    ("table2", "Table II", 0.1, e::table2::run),
    ("table3", "Table III", 0.1, e::table3::run),
    ("table4", "Table IV", 0.08, |s| e::table4::run(s, 25)),
    ("table5", "Table V", 0.05, |s| e::table5::run(s, 40)),
    ("table6", "Table VI", 0.25, e::table6::run),
    ("table7", "Table VII", 0.3, e::table7::run),
    ("table8", "Table VIII", 0.08, e::table8::run),
    ("fig5", "Fig. 5", 0.15, |s| e::fig5::run(s, 4)),
    ("fig6", "Fig. 6", 0.3, e::fig6::run),
    ("fig7", "Fig. 7", 0.15, e::fig7::run),
];

/// Parse `repro_all [--scale S] [SECTION…]` into the sections to run, in
/// the paper's order, each with its scale: `S` when given, its default
/// otherwise. Naming no section runs all ten.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<Vec<(&'static Section, f64)>, String> {
    let mut scale = None;
    let mut chosen: Vec<&str> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            let v = args.next().ok_or("--scale needs a value")?;
            match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => scale = Some(s),
                _ => return Err(format!("--scale must be a positive number, not `{v}`")),
            }
        } else if let Some(section) = SECTIONS.iter().find(|s| s.0 == arg) {
            chosen.push(section.0);
        } else {
            let valid: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
            return Err(format!(
                "unknown section `{arg}`; valid: {}",
                valid.join(", ")
            ));
        }
    }
    Ok(SECTIONS
        .iter()
        .filter(|s| chosen.is_empty() || chosen.contains(&s.0))
        .map(|s| (s, scale.unwrap_or(s.2)))
        .collect())
}

/// Accumulates durations and reports mean/total.
#[derive(Debug, Default, Clone)]
pub struct Timer {
    total: Duration,
    n: usize,
}

impl Timer {
    /// New empty timer.
    pub fn new() -> Self {
        Timer::default()
    }

    /// Time one closure invocation, accumulating.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.total += t0.elapsed();
        self.n += 1;
        r
    }

    /// Add an externally measured duration.
    pub fn add(&mut self, d: Duration) {
        self.total += d;
        self.n += 1;
    }

    /// Mean duration per measurement.
    pub fn mean(&self) -> Duration {
        if self.n == 0 {
            Duration::ZERO
        } else {
            self.total / self.n as u32
        }
    }

    /// Total accumulated duration.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Number of measurements.
    pub fn count(&self) -> usize {
        self.n
    }
}

/// Fixed-width text-table renderer for experiment output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with a header row.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; n_cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a duration in adaptive units, compactly.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_accumulates() {
        let mut t = Timer::new();
        t.add(Duration::from_millis(10));
        t.add(Duration::from_millis(30));
        assert_eq!(t.count(), 2);
        assert_eq!(t.mean(), Duration::from_millis(20));
        assert_eq!(t.total(), Duration::from_millis(40));
    }

    #[test]
    fn empty_timer_mean_is_zero() {
        assert_eq!(Timer::new().mean(), Duration::ZERO);
    }

    #[test]
    fn text_table_alignment() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "2".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
        assert_eq!(pct(0.614), "61.4%");
    }

    fn parse(args: &[&str]) -> Result<Vec<(&'static str, f64)>, String> {
        let picked = parse_args(args.iter().map(|a| a.to_string()))?;
        Ok(picked.into_iter().map(|(s, scale)| (s.0, scale)).collect())
    }

    #[test]
    fn no_arguments_run_every_section_at_its_default() {
        let want: Vec<(&str, f64)> = SECTIONS.iter().map(|s| (s.0, s.2)).collect();
        assert_eq!(want.len(), 10);
        assert_eq!(parse(&[]).unwrap(), want);
    }

    #[test]
    fn scale_applies_to_the_named_sections_in_paper_order() {
        let picked = parse(&["--scale", "0.02", "fig5", "table4"]).unwrap();
        assert_eq!(picked, vec![("table4", 0.02), ("fig5", 0.02)]);
    }

    #[test]
    fn unknown_section_lists_the_valid_names() {
        let err = parse(&["table9"]).unwrap_err();
        assert!(err.contains("table9"), "{err}");
        for (name, ..) in &SECTIONS {
            assert!(err.contains(name), "{err} lacks {name}");
        }
    }

    #[test]
    fn scale_must_be_a_positive_number() {
        for bad in ["0", "-1", "abc"] {
            let err = parse(&["--scale", bad]).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
        assert!(parse(&["--scale"]).is_err());
    }
}
