//! Shared experiment plumbing: scaling, timing, and text-table rendering.

use std::time::{Duration, Instant};

/// Experiment scale factor from `BLEND_SCALE` (default `default`).
///
/// 1.0 approximates the paper's scaled-down laptop setting; the defaults
/// per experiment are chosen so `repro_all` finishes in minutes.
pub fn scale_from_env(default: f64) -> f64 {
    std::env::var("BLEND_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(default)
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

    #[test]
    fn scale_default_when_unset() {
        std::env::remove_var("BLEND_SCALE");
        assert_eq!(scale_from_env(0.25), 0.25);
    }
}
