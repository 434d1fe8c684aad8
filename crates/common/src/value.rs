//! The dynamically typed cell value stored in lake tables.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A single table cell.
///
/// Lake tables are schemaless in practice (web tables, open-data CSVs), so a
/// cell can be missing, textual, numeric, or boolean. The unified index
/// stores the *normalized textual form* of every non-null cell (see
/// [`Value::normalized`]), plus a quadrant bit for numeric cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL / missing cell.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Free text.
    Text(String),
}

impl Value {
    /// Parse a raw string (e.g. a CSV field) into the most specific value.
    ///
    /// Empty strings and common null markers become [`Value::Null`].
    pub fn parse(raw: &str) -> Value {
        let t = raw.trim();
        if t.is_empty() {
            return Value::Null;
        }
        match t.to_ascii_lowercase().as_str() {
            "null" | "nan" | "n/a" | "na" | "none" | "-" => return Value::Null,
            "true" => return Value::Bool(true),
            "false" => return Value::Bool(false),
            _ => {}
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            if f.is_finite() {
                return Value::Float(f);
            }
        }
        Value::Text(t.to_string())
    }

    /// True if the value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one.
    ///
    /// Text that parses as a number is treated as numeric: lake tables
    /// routinely store numbers as strings, and both the quadrant computation
    /// and the correlation ground truth must see through that.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(*b as i64 as f64),
            Value::Text(s) => {
                let t = s.trim();
                if t.is_empty() {
                    None
                } else {
                    t.parse::<f64>().ok().filter(|f| f.is_finite())
                }
            }
            Value::Null => None,
        }
    }

    /// The normalized textual form indexed in `AllTables.CellValue`.
    ///
    /// Normalization follows the DataXFormer-style inverted index: trim,
    /// lowercase, collapse internal whitespace. Integers and floats render in
    /// a canonical form so `"42"`, `42` and `42.0` share a postings list.
    /// Returns `None` for NULLs, which are never indexed.
    pub fn normalized(&self) -> Option<Cow<'_, str>> {
        match self {
            Value::Null => None,
            Value::Int(_) | Value::Float(_) => Some(Cow::Owned(self.to_string())),
            Value::Bool(b) => Some(Cow::Borrowed(if *b { "true" } else { "false" })),
            Value::Text(s) => Some(crate::text::normalize_cow(s)),
        }
    }

    /// [`normalized`](Self::normalized) with no allocation of its own: a
    /// form not borrowed from the value is written into `buf` (cleared
    /// first), so a caller that reuses `buf` allocates only as it grows.
    pub fn normalized_in<'a>(&'a self, buf: &'a mut String) -> Option<&'a str> {
        use fmt::Write;
        buf.clear();
        match self {
            Value::Null => return None,
            Value::Bool(b) => return Some(if *b { "true" } else { "false" }),
            Value::Text(s) => return Some(crate::text::normalize_in(s, buf)),
            // Writing into a `String` cannot fail.
            Value::Int(_) | Value::Float(_) => _ = write!(buf, "{self}"),
        }
        Some(buf)
    }

    /// Total ordering used by ORDER BY and sorting ground truths: NULLs
    /// first, then numerics by value, then booleans, then text.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Bool(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            // Canonical float form: integral floats render without the
            // fraction (matching how `42.0` appears as `"42"` in a lake CSV).
            Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{}", *x as i64),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_detects_types() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse(" 42 "), Value::Int(42));
        assert_eq!(Value::parse("4.5"), Value::Float(4.5));
        assert_eq!(Value::parse("true"), Value::Bool(true));
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("N/A"), Value::Null);
        assert_eq!(Value::parse("Berlin"), Value::Text("Berlin".into()));
    }

    #[test]
    fn infinity_is_text_not_float() {
        // "inf" parses as f64::INFINITY but we refuse non-finite numerics.
        assert!(matches!(Value::parse("inf"), Value::Text(_)));
    }

    #[test]
    fn as_f64_sees_through_text() {
        assert_eq!(Value::Text("3.5".into()).as_f64(), Some(3.5));
        assert_eq!(Value::Text("abc".into()).as_f64(), None);
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn normalized_is_canonical_across_numeric_forms() {
        assert_eq!(Value::Int(42).normalized().unwrap(), "42");
        assert_eq!(Value::Float(42.0).normalized().unwrap(), "42");
        assert_eq!(Value::Text(" 42".into()).normalized().unwrap(), "42");
        assert_eq!(
            Value::Text("  Tom   Riddle ".into()).normalized().unwrap(),
            "tom riddle"
        );
        assert!(Value::Null.normalized().is_none());
    }

    #[test]
    fn normalized_in_equals_normalized_with_one_reused_buffer() {
        let values = [
            Value::Text("  Tom   Riddle ".into()),
            Value::Int(-42),
            Value::Text("clean".into()),
            Value::Float(42.0),
            Value::Float(2.5),
            Value::Null,
            Value::Bool(true),
            Value::Text("Universität\tHannover".into()),
            Value::Float(1e20),
        ];
        let mut buf = String::new();
        for v in &values {
            assert_eq!(
                v.normalized_in(&mut buf),
                v.normalized().as_deref(),
                "{v:?}"
            );
        }
    }

    #[test]
    fn total_cmp_orders_across_types() {
        let mut vs = vec![
            Value::Text("b".into()),
            Value::Int(3),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Float(1.5),
                Value::Int(3),
                Value::Bool(true),
                Value::Text("b".into()),
            ]
        );
    }

    #[test]
    fn display_roundtrips_ints() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Float(2.0).to_string(), "2");
    }
}
