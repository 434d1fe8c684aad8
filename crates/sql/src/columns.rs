//! Columnar query results: what the positional executor hands the engine,
//! and what the engine's columnar entry hands its caller.
//!
//! A query's output is a list of labels and one flat [`ResultColumn`] per
//! label. Integer fact columns stay `u32`, super keys `u128`, and
//! `CellValue` is dictionary-coded — a `u32` per row, every distinct string
//! once — so a caller that works on ids (the MC seeker's application phase)
//! never sees a `SqlValue`. Callers that want rows ask for them:
//! [`ResultColumns::to_result_set`] is the one place a positional result
//! turns into `Vec<Tuple>`, and it borrows, so one set of columns can be
//! shared and read as rows by many. The tuple executor's rows reach a row
//! entry as they are, and wrap into typed columns only for the columnar one.

use std::cmp::Ordering;
use std::sync::Arc;

use blend_common::{BlendError, FxHashMap, Result};
use blend_storage::FactTable;

use crate::exec::{ResultSet, Tuple};
use crate::value::SqlValue;

/// Where a [`TextColumn`]'s strings live.
#[derive(Clone)]
enum TextDict {
    /// The column store's own dictionary; ids are its codes.
    Store(Arc<dyn FactTable>),
    /// Every distinct string once; ids are dense, in first-seen order.
    Dense {
        strs: Vec<Arc<str>>,
        ids: FxHashMap<Arc<str>, u32>,
    },
}

impl std::fmt::Debug for TextDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextDict::Store(_) => write!(f, "Store"),
            TextDict::Dense { strs, .. } => write!(f, "Dense({} strings)", strs.len()),
        }
    }
}

/// A dictionary-coded text column: equal ids are equal strings. Every id
/// resolves in the column's dictionary (dense ids by construction, store
/// codes because the store handed them out).
#[derive(Debug, Clone)]
pub struct TextColumn {
    ids: Vec<u32>,
    dict: TextDict,
}

impl TextColumn {
    /// Dictionary-code `cells`, assigning dense ids in first-seen order.
    pub(crate) fn dense<'a>(cells: impl Iterator<Item = &'a str>) -> TextColumn {
        let mut ids: FxHashMap<Arc<str>, u32> = FxHashMap::default();
        let mut strs: Vec<Arc<str>> = Vec::new();
        let coded = cells
            .map(|s| {
                ids.get(s).copied().unwrap_or_else(|| {
                    strs.push(Arc::from(s));
                    ids.insert(strs[strs.len() - 1].clone(), strs.len() as u32 - 1);
                    strs.len() as u32 - 1
                })
            })
            .collect();
        TextColumn {
            ids: coded,
            dict: TextDict::Dense { strs, ids },
        }
    }

    /// Codes gathered from a dictionary-encoded `table`.
    pub(crate) fn store(codes: Vec<u32>, table: Arc<dyn FactTable>) -> TextColumn {
        TextColumn {
            ids: codes,
            dict: TextDict::Store(table),
        }
    }

    /// Re-home store codes in a dense dictionary of the distinct strings, so
    /// the column holds no handle on the table it was gathered from.
    fn detach(&mut self) {
        if let TextDict::Store(_) = self.dict {
            *self = TextColumn::dense(self.ids.iter().map(|&id| self.str_of(id)));
        }
    }

    /// One id per row.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The string behind an id of this column.
    pub fn str_of(&self, id: u32) -> &str {
        match &self.dict {
            TextDict::Store(table) => table.value_of_code(id).unwrap_or_default(),
            TextDict::Dense { strs, .. } => strs.get(id as usize).map_or("", |s| s),
        }
    }

    /// The id `s` has in this column's dictionary, one hash lookup on
    /// either kind. `None` means no row of the column holds `s`.
    pub fn id_of(&self, s: &str) -> Option<u32> {
        match &self.dict {
            TextDict::Store(table) => table.code_of_value(s),
            TextDict::Dense { ids, .. } => ids.get(s).copied(),
        }
    }

    /// One `SqlValue::Text` per row; rows that share an id share one
    /// `Arc<str>`.
    fn values(&self) -> impl Iterator<Item = SqlValue> + '_ {
        let mut shared: FxHashMap<u32, Arc<str>> = FxHashMap::default();
        self.ids.iter().map(move |&id| {
            SqlValue::Text(match &self.dict {
                TextDict::Dense { strs, .. } => strs[id as usize].clone(),
                TextDict::Store(_) => shared
                    .entry(id)
                    .or_insert_with(|| Arc::from(self.str_of(id)))
                    .clone(),
            })
        })
    }
}

/// One flat output column: a value per output row. The grouped and the
/// non-grouped tail of the positional executor both end in these.
#[derive(Debug, Clone)]
pub enum ResultColumn {
    /// An integer fact column (`TableId`, `ColumnId`, `RowId`), or a group
    /// key over one.
    Key(Vec<u32>),
    /// `COUNT(*)`, `COUNT(DISTINCT CellValue)`, `MIN`/`MAX` of an integer
    /// fact column: row counts and u32 values, all far below 2^53, so
    /// integer comparison agrees with [`SqlValue::order_cmp`] (which
    /// compares numerics as `f64`). Also an all-integer column of the tuple
    /// executor.
    Int(Vec<i64>),
    /// `SuperKey`.
    U128(Vec<u128>),
    /// `CellValue`.
    Text(TextColumn),
    /// Anything computed or NULL-able: generic aggregates, expressions,
    /// `Quadrant`.
    Val(Vec<SqlValue>),
}

impl ResultColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ResultColumn::Key(c) => c.len(),
            ResultColumn::Int(c) => c.len(),
            ResultColumn::U128(c) => c.len(),
            ResultColumn::Text(c) => c.ids.len(),
            ResultColumn::Val(c) => c.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i`, as the row-building path would emit it. A text
    /// value allocates its string: read text in bulk through [`Self::as_text`].
    pub fn value(&self, i: usize) -> SqlValue {
        match self {
            ResultColumn::Key(c) => SqlValue::Int(c[i] as i64),
            ResultColumn::Int(c) => SqlValue::Int(c[i]),
            ResultColumn::U128(c) => SqlValue::U128(c[i]),
            ResultColumn::Text(c) => SqlValue::Text(Arc::from(c.str_of(c.ids[i]))),
            ResultColumn::Val(c) => c[i].clone(),
        }
    }

    /// An integer column as `u32` ids (lossy on purpose, like
    /// [`ResultSet::column_u32`]: ids are u32 everywhere).
    pub fn as_u32s(&self) -> Option<std::borrow::Cow<'_, [u32]>> {
        match self {
            ResultColumn::Key(c) => Some(c.into()),
            ResultColumn::Int(c) => Some(c.iter().map(|&v| v as u32).collect()),
            _ => None,
        }
    }

    /// A super-key column.
    pub fn as_u128s(&self) -> Option<&[u128]> {
        match self {
            ResultColumn::U128(c) => Some(c),
            _ => None,
        }
    }

    /// A dictionary-coded text column.
    pub fn as_text(&self) -> Option<&TextColumn> {
        match self {
            ResultColumn::Text(c) => Some(c),
            _ => None,
        }
    }

    /// `ORDER BY` comparison of rows `a` and `b`: what
    /// [`SqlValue::order_cmp`] says about their values.
    #[inline]
    pub(crate) fn cmp(&self, a: usize, b: usize) -> Ordering {
        match self {
            ResultColumn::Key(c) => c[a].cmp(&c[b]),
            ResultColumn::Int(c) => c[a].cmp(&c[b]),
            ResultColumn::U128(c) => c[a].cmp(&c[b]),
            ResultColumn::Text(c) if c.ids[a] == c.ids[b] => Ordering::Equal,
            ResultColumn::Text(c) => c.str_of(c.ids[a]).cmp(c.str_of(c.ids[b])),
            ResultColumn::Val(c) => c[a].order_cmp(&c[b]),
        }
    }

    /// Heap bytes, by capacity: what the allocator holds for the column.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            ResultColumn::Key(c) => c.capacity() * 4,
            ResultColumn::Int(c) => c.capacity() * 8,
            ResultColumn::U128(c) => c.capacity() * 16,
            ResultColumn::Text(c) => {
                let dict = match &c.dict {
                    TextDict::Store(_) => 0,
                    // Every string once behind its Arc's two counts, a fat
                    // pointer in `strs`, and the map's table: 8/7 of its
                    // capacity in buckets of a (pointer, id) pair and a
                    // control byte, and one more group of control bytes.
                    TextDict::Dense { strs, ids } => {
                        let buckets = match ids.capacity() {
                            cap if cap < 8 => cap + 1,
                            cap => cap / 7 * 8,
                        };
                        strs.iter().map(|s| 16 + s.len()).sum::<usize>()
                            + strs.capacity() * size_of::<Arc<str>>()
                            + buckets * (size_of::<(Arc<str>, u32)>() + 1)
                            + 16
                    }
                };
                c.ids.capacity() * 4 + dict
            }
            ResultColumn::Val(c) => {
                let text = c.iter().filter_map(SqlValue::as_str);
                c.capacity() * size_of::<SqlValue>() + text.map(|s| 16 + s.len()).sum::<usize>()
            }
        }
    }

    /// The entries at `ords`, in that order.
    pub(crate) fn gather(&self, ords: &[u32]) -> ResultColumn {
        fn pick<T: Clone>(col: &[T], ords: &[u32]) -> Vec<T> {
            ords.iter().map(|&g| col[g as usize].clone()).collect()
        }
        match self {
            ResultColumn::Key(c) => ResultColumn::Key(pick(c, ords)),
            ResultColumn::Int(c) => ResultColumn::Int(pick(c, ords)),
            ResultColumn::U128(c) => ResultColumn::U128(pick(c, ords)),
            ResultColumn::Text(c) => ResultColumn::Text(TextColumn {
                ids: pick(&c.ids, ords),
                dict: c.dict.clone(),
            }),
            ResultColumn::Val(c) => ResultColumn::Val(pick(c, ords)),
        }
    }

    /// Append a radix partition's column of the same plan. Partitions run
    /// one plan, so their columns agree; a pair that does not is an error,
    /// never a silent drop — and so is text, which no partitioned phase
    /// puts out and which would need its dictionaries reconciled.
    pub(crate) fn append(&mut self, other: ResultColumn) -> Result<()> {
        match (self, other) {
            (ResultColumn::Key(d), ResultColumn::Key(s)) => d.extend(s),
            (ResultColumn::Int(d), ResultColumn::Int(s)) => d.extend(s),
            (ResultColumn::U128(d), ResultColumn::U128(s)) => d.extend(s),
            (ResultColumn::Val(d), ResultColumn::Val(s)) => d.extend(s),
            _ => {
                let what = "partitions disagree on an output column's type, or it is text";
                return Err(BlendError::SqlExec(what.to_string()));
            }
        }
        Ok(())
    }

    /// A column of the tuple executor, typed where every value agrees.
    fn typed(vals: Vec<SqlValue>) -> ResultColumn {
        fn all<'v, T>(
            vals: &'v [SqlValue],
            pick: impl Fn(&'v SqlValue) -> Option<T>,
        ) -> Option<Vec<T>> {
            vals.iter().map(pick).collect()
        }
        let typed = match vals.first() {
            Some(SqlValue::Int(_)) => all(&vals, |v| match v {
                SqlValue::Int(i) => Some(*i),
                _ => None,
            })
            .map(ResultColumn::Int),
            Some(SqlValue::U128(_)) => all(&vals, |v| match v {
                SqlValue::U128(u) => Some(*u),
                _ => None,
            })
            .map(ResultColumn::U128),
            Some(SqlValue::Text(_)) => all(&vals, SqlValue::as_str)
                .map(|strs| ResultColumn::Text(TextColumn::dense(strs.into_iter()))),
            _ => None,
        };
        typed.unwrap_or(ResultColumn::Val(vals))
    }
}

/// A query result as flat columns.
#[derive(Debug, Clone)]
pub struct ResultColumns {
    /// Output column labels, in select-list order.
    pub labels: Vec<String>,
    /// One column per label, all of one length.
    pub columns: Vec<ResultColumn>,
}

impl ResultColumns {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, ResultColumn::len)
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column under a label.
    pub fn col(&self, label: &str) -> Option<&ResultColumn> {
        let i = self.labels.iter().position(|l| l == label)?;
        self.columns.get(i)
    }

    /// Heap bytes of the result: the flat columns, every dictionary string
    /// once, and the labels. What the memory governor reserves for a result
    /// nobody has asked rows of, and what a memoized copy costs a cache.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.labels.capacity() * size_of::<String>()
            + self.labels.iter().map(String::capacity).sum::<usize>()
            + self.columns.capacity() * size_of::<ResultColumn>()
            + self.columns.iter().map(ResultColumn::bytes).sum::<usize>()
    }

    /// Re-home store-coded text in dictionaries of the result's own, so the
    /// columns keep no fact table alive: a result that outlives its query
    /// (a memoized one) must not pin an index a rebuild has replaced.
    pub fn detach(&mut self) {
        for col in &mut self.columns {
            if let ResultColumn::Text(text) = col {
                text.detach();
            }
        }
    }

    /// Build the rows. Text values clone one `Arc<str>` per distinct id, so
    /// a result repeats no string.
    pub fn to_result_set(&self) -> ResultSet {
        let width = self.columns.len();
        let mut rows: Vec<Tuple> = (0..self.len()).map(|_| Vec::with_capacity(width)).collect();
        fn fill(rows: &mut [Tuple], vals: impl Iterator<Item = SqlValue>) {
            rows.iter_mut().zip(vals).for_each(|(row, v)| row.push(v));
        }
        for col in &self.columns {
            match col {
                ResultColumn::Key(c) => fill(&mut rows, c.iter().map(|&v| SqlValue::Int(v as i64))),
                ResultColumn::Int(c) => fill(&mut rows, c.iter().copied().map(SqlValue::Int)),
                ResultColumn::U128(c) => fill(&mut rows, c.iter().copied().map(SqlValue::U128)),
                ResultColumn::Text(c) => fill(&mut rows, c.values()),
                ResultColumn::Val(c) => fill(&mut rows, c.iter().cloned()),
            }
        }
        ResultSet {
            columns: self.labels.clone(),
            rows,
        }
    }
}

/// The tuple executor's rows as typed columns, so every caller of the
/// columnar entry sees one shape whichever executor ran.
impl From<ResultSet> for ResultColumns {
    fn from(rs: ResultSet) -> ResultColumns {
        let mut cols: Vec<Vec<SqlValue>> = rs
            .columns
            .iter()
            .map(|_| Vec::with_capacity(rs.rows.len()))
            .collect();
        for row in rs.rows {
            cols.iter_mut().zip(row).for_each(|(col, v)| col.push(v));
        }
        ResultColumns {
            labels: rs.columns,
            columns: cols.into_iter().map(ResultColumn::typed).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_dictionary_looks_ids_up_by_string() {
        let col = TextColumn::dense(["b", "a", "b", "c", "a"].into_iter());
        assert_eq!(col.ids(), &[0, 1, 0, 2, 1]);
        for (id, s) in ["b", "a", "c"].into_iter().enumerate() {
            assert_eq!(col.id_of(s), Some(id as u32));
            assert_eq!(col.str_of(id as u32), s);
        }
        assert_eq!(col.id_of("d"), None);
    }

    #[test]
    fn append_extends_like_columns_and_rejects_the_rest() {
        let mut sk = ResultColumn::U128(vec![1, 2]);
        sk.append(ResultColumn::U128(vec![3])).unwrap();
        assert_eq!(sk.as_u128s(), Some(&[1, 2, 3][..]));

        // Another type, and text: typed errors that
        // leave the column as it was.
        let mut key = ResultColumn::Key(vec![7]);
        let err = key.append(ResultColumn::Int(vec![8])).unwrap_err();
        assert!(matches!(err, BlendError::SqlExec(_)), "{err}");
        let text = |s| ResultColumn::Text(TextColumn::dense([s].into_iter()));
        let mut col = text("a");
        assert!(col.append(text("b")).is_err());
        assert_eq!((key.len(), col.len()), (1, 1));
    }
}
