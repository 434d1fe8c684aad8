//! Columnar query results: what the positional executor hands the engine,
//! and what the engine's columnar entry hands its caller.
//!
//! A query's output is a list of labels and one flat [`ResultColumn`] per
//! label. Integer fact columns stay `u32`, super keys `u128`, and
//! `CellValue` is dictionary-coded — a `u32` per row, every distinct string
//! once — so a caller that works on ids (the MC seeker's application phase)
//! never sees a `SqlValue`. Callers that want rows ask for them:
//! [`ResultColumns::to_result_set`] is the one builder — a row at a time at
//! exact width, one `Arc<str>` per distinct text id — and it borrows, so
//! one set of columns can be shared and read as rows by many;
//! [`ResultColumns::rows_bytes`] prices the rows before they exist:
//! `ResultSet` + labels + `len × (Tuple + width × SqlValue)` + an `Arc`
//! header and the bytes of each distinct string.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::mem::size_of;
use std::sync::Arc;

use blend_common::{FxHashSet, Result};
use blend_storage::{FactTable, GroupIndex};

use crate::exec::{ResultSet, Tuple};
use crate::value::SqlValue;

/// Where a [`TextColumn`]'s strings live.
#[derive(Clone)]
enum TextDict {
    /// The column store's own dictionary; ids are its codes.
    Store(Arc<dyn FactTable>),
    /// Every distinct string once; ids are dense, in first-seen order.
    Dense(GroupIndex<Arc<str>>),
}

impl std::fmt::Debug for TextDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextDict::Store(_) => write!(f, "Store"),
            TextDict::Dense(strs) => write!(f, "Dense({} strings)", strs.len()),
        }
    }
}

/// Why numbering a result's own strings cannot fail short of the heap.
const DICT_FITS: &str = "a result's text dictionary fits in memory";

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
    pub(crate) fn dense<'a>(cells: impl Iterator<Item = &'a str>) -> Result<TextColumn> {
        let mut strs = GroupIndex::with_capacity(0)?;
        let ids = cells
            .map(|s| {
                strs.get(s)
                    .map_or_else(|| strs.insert_or_get(Arc::from(s)), Ok)
            })
            .collect::<Result<_>>()?;
        Ok(TextColumn {
            ids,
            dict: TextDict::Dense(strs),
        })
    }

    /// Codes gathered from a dictionary-encoded `table`.
    pub(crate) fn store(codes: Vec<u32>, table: Arc<dyn FactTable>) -> TextColumn {
        TextColumn {
            ids: codes,
            dict: TextDict::Store(table),
        }
    }

    /// Re-home store codes in a dense dictionary of the distinct strings, so
    /// the column holds no handle on the table it was gathered from: a
    /// `u32` hash a row, one copy and string hash per distinct code.
    fn detach(&mut self) {
        if let TextDict::Store(_) = self.dict {
            let (ids, strs) = self.shared();
            let (ids, strs) = (ids.into_owned(), strs.into_owned());
            let mut dict = GroupIndex::with_capacity(strs.len()).expect(DICT_FITS);
            for s in strs {
                dict.insert_or_get(s).expect(DICT_FITS);
            }
            self.dict = TextDict::Dense(dict);
            self.ids = ids;
        }
    }

    /// The rows as indexes into one `Arc<str>` per distinct id: dense ids
    /// index the dictionary's keys; store codes are numbered once, in
    /// first-seen order.
    fn shared(&self) -> (Cow<'_, [u32]>, Cow<'_, [Arc<str>]>) {
        let table = match &self.dict {
            TextDict::Dense(strs) => return (self.ids[..].into(), strs.keys().into()),
            TextDict::Store(table) => table,
        };
        let mut codes = GroupIndex::with_capacity(0).expect(DICT_FITS);
        let ids: Vec<u32> = (self.ids.iter())
            .map(|&code| codes.insert_or_get(code).expect(DICT_FITS))
            .collect();
        let strs = (codes.keys().iter())
            .map(|&code| Arc::from(table.value_of_code(code).unwrap_or_default()))
            .collect::<Vec<_>>();
        (ids.into(), strs.into())
    }

    /// One id per row.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The string behind an id of this column.
    pub fn str_of(&self, id: u32) -> &str {
        match &self.dict {
            TextDict::Store(table) => table.value_of_code(id).unwrap_or_default(),
            TextDict::Dense(strs) => strs.keys().get(id as usize).map_or("", |s| s),
        }
    }
}

/// One flat output column: a value per output row. The grouped and the
/// non-grouped tail of the positional executor both end in these.
#[derive(Debug, Clone)]
pub enum ResultColumn {
    /// An integer fact column (`TableId`, `ColumnId`, `RowId`), or a group
    /// key over one.
    Key(Vec<u32>),
    /// `COUNT(*)`, `COUNT(DISTINCT CellValue)`: row counts, far below 2^53,
    /// so integer comparison agrees with [`SqlValue::order_cmp`] (which
    /// compares numerics as `f64`).
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
        match self {
            ResultColumn::Key(c) => c.capacity() * 4,
            ResultColumn::Int(c) => c.capacity() * 8,
            ResultColumn::U128(c) => c.capacity() * 16,
            ResultColumn::Text(c) => {
                let dict = match &c.dict {
                    TextDict::Store(_) => 0,
                    // Every string once behind its Arc's two counts, and
                    // the index's fat pointers and slots.
                    TextDict::Dense(strs) => {
                        strs.keys().iter().map(|s| 16 + s.len()).sum::<usize>() + strs.heap_bytes()
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

    /// Build the rows. Rows that share a text id share one `Arc<str>`, so
    /// [`ResultSet::approx_bytes`] counts each string once, as the cache does.
    pub fn to_result_set(&self) -> ResultSet {
        let texts: Vec<_> = (self.columns.iter())
            .map(|col| col.as_text().map(TextColumn::shared).unwrap_or_default())
            .collect();
        let rows = (0..self.len())
            .map(|i| {
                let row = self.columns.iter().zip(&texts);
                row.map(|(col, (ids, strs))| match col {
                    ResultColumn::Text(_) => SqlValue::Text(strs[ids[i] as usize].clone()),
                    col => col.value(i),
                })
                .collect()
            })
            .collect();
        ResultSet {
            columns: self.labels.clone(),
            rows,
        }
    }

    /// `self.to_result_set().approx_bytes()` without building the rows: dense
    /// and `Val` text may share `Arc`s, store text is copied per column.
    pub fn rows_bytes(&self) -> usize {
        let mut seen: FxHashSet<*const u8> = FxHashSet::default();
        let mut count = |s: &str, shared: bool| {
            (!shared || seen.insert(s.as_ptr())) as usize * (2 * size_of::<usize>() + s.len())
        };
        let mut bytes = size_of::<ResultSet>() + self.labels.len() * size_of::<String>();
        bytes += self.labels.iter().map(String::len).sum::<usize>();
        bytes += self.len() * (size_of::<Tuple>() + self.columns.len() * size_of::<SqlValue>());
        for col in &self.columns {
            bytes += match col {
                ResultColumn::Text(c) => (c.ids.iter().copied().collect::<FxHashSet<u32>>())
                    .into_iter()
                    .map(|id| count(c.str_of(id), matches!(c.dict, TextDict::Dense(_))))
                    .sum(),
                ResultColumn::Val(c) => c
                    .iter()
                    .filter_map(SqlValue::as_str)
                    .map(|s| count(s, true))
                    .sum(),
                _ => 0,
            };
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_storage::{build_engine, EngineKind, FactRow};
    use proptest::prelude::*;

    /// Strings of several lengths, the empty one and a multi-byte one.
    const WORDS: [&str; 7] = ["", "a", "bb", "ccc", "héllo", "a longer cell value", "z"];

    /// A column store whose dictionary holds `WORDS`.
    fn store() -> Arc<dyn FactTable> {
        let rows = (0..WORDS.len() as u32)
            .map(|r| FactRow::new(WORDS[r as usize], 0, 0, r, 0, None))
            .collect();
        build_engine(EngineKind::Column, rows)
    }

    /// `n` store codes of `WORDS`, drawn from `pick`.
    fn store_text(table: &Arc<dyn FactTable>, pick: &[u32], n: usize) -> TextColumn {
        let words: Vec<&str> = (0..n)
            .map(|i| WORDS[pick[i] as usize % WORDS.len()])
            .collect();
        let mut found = Vec::new();
        table.resolve(&words, false, &mut found);
        TextColumn::store(
            found.iter().map(|v| v.code.unwrap()).collect(),
            table.clone(),
        )
    }

    /// What a case's columns are cut from: `n` rows drawn from `pick`, one
    /// store-coded and one dense text column, and one `Arc` per word.
    /// Columns of a kind clone the same source, so dense `Arc`s, `Val` text
    /// and store codes repeat across columns as well as rows.
    struct Source {
        n: usize,
        pick: Vec<u32>,
        store: TextColumn,
        dense: TextColumn,
        shared: Vec<Arc<str>>,
    }

    impl Source {
        fn new(n: usize, pick: &[u32], table: &Arc<dyn FactTable>) -> Source {
            let word = |i: usize| WORDS[pick[i] as usize % WORDS.len()];
            Source {
                n,
                pick: pick[..n].to_vec(),
                store: store_text(table, pick, n),
                dense: TextColumn::dense((0..n).map(word)).unwrap(),
                shared: WORDS.iter().map(|&w| Arc::from(w)).collect(),
            }
        }

        /// One column of `kind`. Kinds 6 and 7 gather a text column in
        /// reverse: same dictionary, other row order.
        fn column(&self, kind: u32) -> ResultColumn {
            let (n, pick) = (self.n, &self.pick);
            let reversed: Vec<u32> = (0..n as u32).rev().collect();
            let word = |i: usize| WORDS[pick[i] as usize % WORDS.len()];
            match kind {
                0 => ResultColumn::Key(pick.clone()),
                1 => ResultColumn::Int(pick.iter().map(|&p| p as i64 - 3).collect()),
                2 => ResultColumn::U128(pick.iter().map(|&p| (p as u128) << 70).collect()),
                3 => ResultColumn::Text(self.store.clone()),
                4 => ResultColumn::Text(self.dense.clone()),
                5 => ResultColumn::Val(
                    (0..n)
                        .map(|i| match pick[i] % 5 {
                            0 => SqlValue::Null,
                            1 => SqlValue::Float(pick[i] as f64 / 7.0),
                            2 => {
                                SqlValue::Text(self.shared[pick[i] as usize % WORDS.len()].clone())
                            }
                            3 => SqlValue::Text(Arc::from(word(i))),
                            _ => SqlValue::Int(pick[i] as i64),
                        })
                        .collect(),
                ),
                6 => self.column(3).gather(&reversed),
                _ => self.column(4).gather(&reversed),
            }
        }
    }

    /// Every cell is `ResultColumn::value`, every row is exactly `width`
    /// wide, rows that share an id in a text column share its `Arc`, and
    /// `rows_bytes` is the built rows' `approx_bytes` to the byte.
    fn check_rows(cols: &ResultColumns) {
        let rs = cols.to_result_set();
        assert_eq!(rs.columns, cols.labels);
        assert_eq!(rs.rows.len(), cols.len());
        for (i, row) in rs.rows.iter().enumerate() {
            assert_eq!(row.capacity(), cols.columns.len());
            for (c, col) in cols.columns.iter().enumerate() {
                assert_eq!(row[c], col.value(i), "row {i}, column {c}");
            }
        }
        for (c, col) in cols.columns.iter().enumerate() {
            let Some(text) = col.as_text() else { continue };
            for (i, j) in (0..rs.len()).flat_map(|i| (0..rs.len()).map(move |j| (i, j))) {
                let (SqlValue::Text(a), SqlValue::Text(b)) = (&rs.rows[i][c], &rs.rows[j][c])
                else {
                    panic!("text column {c} built a non-text value");
                };
                assert_eq!(
                    Arc::ptr_eq(a, b),
                    text.ids()[i] == text.ids()[j],
                    "rows {i}, {j}"
                );
            }
        }
        assert_eq!(cols.rows_bytes(), rs.approx_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn rows_are_the_columns_cells_sharing_strings_and_priced_exactly(
            kinds in proptest::collection::vec(0u32..8, 0..7),
            pick in proptest::collection::vec(0u32..64, 40),
            many in 2usize..40,
        ) {
            let table = store();
            for n in [0, 1, many] {
                let source = Source::new(n, &pick, &table);
                let columns: Vec<ResultColumn> = kinds.iter().map(|&k| source.column(k)).collect();
                let labels = (0..columns.len()).map(|c| format!("c{c}")).collect();
                let mut cols = ResultColumns { labels, columns };
                check_rows(&cols);
                // Detached, the columns build the same rows.
                let before = cols.to_result_set();
                cols.detach();
                prop_assert_eq!(&cols.to_result_set(), &before);
                check_rows(&cols);
            }
        }

        #[test]
        fn detached_text_resolves_every_row_and_string_as_before(
            pick in proptest::collection::vec(0u32..64, 40),
            n in 0usize..40,
        ) {
            let table = store();
            let col = store_text(&table, &pick, n);
            let mut detached = ResultColumns {
                labels: vec!["v".into()],
                columns: vec![ResultColumn::Text(col.clone())],
            };
            detached.detach();
            let Some(d) = detached.columns[0].as_text() else { panic!("detach keeps text") };
            prop_assert!(matches!(d.dict, TextDict::Dense(_)));
            // Dense ids in first-seen order, as `dense` assigns them.
            let strs: Vec<&str> = col.ids().iter().map(|&id| col.str_of(id)).collect();
            prop_assert_eq!(d.ids(), TextColumn::dense(strs.iter().copied()).unwrap().ids());
            for (i, s) in strs.iter().enumerate() {
                prop_assert_eq!(d.str_of(d.ids()[i]), *s);
            }
        }
    }

    #[test]
    fn dense_dictionary_numbers_strings_in_first_seen_order() {
        let col = TextColumn::dense(["b", "a", "b", "c", "a"].into_iter()).unwrap();
        assert_eq!(col.ids(), &[0, 1, 0, 2, 1]);
        for (id, s) in ["b", "a", "c"].into_iter().enumerate() {
            assert_eq!(col.str_of(id as u32), s);
        }
    }
}
