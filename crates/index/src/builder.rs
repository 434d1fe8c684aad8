//! The `AllTables` builder: lake tables → dictionary-coded parts, one per
//! range of tables, coded in parallel ([`CodedPart`]) → storage engine,
//! which merges the parts' dictionaries ([`build_parts`]). Fact rows, as
//! [`IndexBuilder::index_lake`] hands out and persisted files hold, are
//! the parts' codes expanded ([`fact_rows`]).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use blend_common::{mix64, FxHashMap, Table, Value};
use blend_obs::SpanGuard;
use blend_parallel::{fork_join, ParallelCtx};
use blend_storage::{
    build_parts, encode_quadrant, fact_rows, CodedCell, CodedPart, EngineKind, FactRow, FactTable,
};

use crate::quadrant::column_quadrants;
use crate::xash::xash_value;

/// Index-build metric cells (`blend_index_*`), resolved once per process.
struct IndexMetrics {
    /// Lake tables indexed (cumulative across builds).
    tables: Arc<blend_obs::Counter>,
    /// Fact rows (cells) indexed (cumulative across builds).
    rows: Arc<blend_obs::Counter>,
    /// Wall time of coding whole lakes, the parallel phase of
    /// [`IndexBuilder::index_lake`] and [`IndexBuilder::build`].
    build_nanos: Arc<blend_obs::Histogram>,
}

fn index_metrics() -> &'static IndexMetrics {
    static METRICS: OnceLock<IndexMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = blend_obs::registry();
        IndexMetrics {
            tables: r.counter("blend_index_tables_total"),
            rows: r.counter("blend_index_fact_rows_total"),
            build_nanos: r.histogram("blend_index_build_nanos"),
        }
    })
}

/// Indexing configuration.
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// Shuffle each table's rows before assigning `RowId`s. This is the
    /// "BLEND (rand)" configuration (Table VII): the correlation seeker's
    /// `RowId < h` convenience sample becomes a uniform random sample
    /// without any query-time machinery.
    pub shuffle_rows: bool,
    /// Seed for the shuffle.
    pub seed: u64,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            shuffle_rows: false,
            seed: 0x51ED,
        }
    }
}

/// Builds `AllTables` from lake tables at a [`ParallelCtx`]'s thread width,
/// by default the process-wide one's ([`ParallelCtx::shared_from_env`]).
pub struct IndexBuilder {
    options: IndexOptions,
    parallel: Arc<ParallelCtx>,
}

impl IndexBuilder {
    /// Builder with default options.
    pub fn new() -> Self {
        IndexBuilder::with_options(IndexOptions::default())
    }

    /// Builder with explicit options.
    pub fn with_options(options: IndexOptions) -> Self {
        IndexBuilder {
            options,
            parallel: ParallelCtx::shared_from_env(),
        }
    }

    /// Build at `parallel`'s width instead of the process-wide one's.
    pub fn with_parallel(mut self, parallel: Arc<ParallelCtx>) -> Self {
        self.parallel = parallel;
        self
    }

    /// Index one table into fact rows, in canonical order: column by
    /// column, each column in `RowId` order (with `shuffle_rows`, the order
    /// of the shuffled rows' new ids).
    ///
    /// Per row: the XASH super key over all non-null normalized values;
    /// per cell: `(value, tid, cid, rid, superkey, quadrant)`.
    pub fn index_table(&self, table: &Table) -> Vec<FactRow> {
        fact_rows(&[self.code(&[table])]).0
    }

    /// Dictionary-code `tables`, in ascending `TableId` order, into one
    /// part in canonical order: each value normalized into one reused
    /// buffer and interned in the part's dictionary (only its first sight
    /// allocates), each cell written as its code, and each distinct value's
    /// XASH pattern computed once and ORed into its rows' super keys.
    ///
    /// Numbers repeat far more than they differ (the benchmark's lake holds
    /// 470 k numeric cells and 17 k distinct numbers), so they are also
    /// keyed by value: only a number's first sight in the part is
    /// formatted and looked up as text.
    fn code(&self, tables: &[&Table]) -> CodedPart {
        let mut part = CodedPart {
            cells: Vec::with_capacity(tables.iter().map(|t| cells(t)).sum()),
            ..CodedPart::default()
        };
        let (mut patterns, mut keys, mut buf) = (Vec::new(), Vec::new(), String::new());
        let mut numbers: FxHashMap<u128, u32> = FxHashMap::default();
        for &table in tables {
            // New `RowId` → row: identity or shuffled (per-table deterministic seed).
            let mut order: Vec<usize> = (0..table.n_rows()).collect();
            if self.options.shuffle_rows {
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    self.options.seed ^ (table.id.0 as u64).wrapping_mul(0x9E37_79B9),
                );
                order.shuffle(&mut rng);
            }
            keys.clear();
            keys.resize(order.len(), 0u128);
            for (c, col) in table.columns.iter().enumerate() {
                let quadrants = column_quadrants(col);
                for (rid, &r) in order.iter().enumerate() {
                    let value = &col.values[r];
                    // Exact keys, well mixed: `mix64` is a bijection.
                    let number = match *value {
                        Value::Int(i) => Some(mix64(i as u64) as u128),
                        Value::Float(f) => Some(1 << 64 | mix64(f.to_bits()) as u128),
                        _ => None,
                    };
                    let code = match number.and_then(|n| numbers.get(&n)) {
                        Some(&code) => code,
                        None => {
                            let Some(text) = value.normalized_in(&mut buf) else {
                                continue;
                            };
                            let code = part.values.intern(text);
                            if code as usize == patterns.len() {
                                patterns.push(xash_value(text));
                            }
                            number.map(|n| numbers.insert(n, code));
                            code
                        }
                    };
                    keys[rid] |= patterns[code as usize];
                    part.cells.push(CodedCell {
                        table: table.id.0,
                        column: c as u32,
                        row: rid as u32,
                        code,
                        quadrant: encode_quadrant(quadrants[r]),
                    });
                }
            }
            // Every pattern sets a length bit, so a key is 0 only on a row
            // that holds no cell, which has no super key.
            part.superkeys.extend(keys.iter().filter(|&&k| k != 0));
        }
        part
    }

    /// Index a whole lake into fact rows, in canonical order: the coded
    /// parts of [`build`](Self::build), expanded. The same at every width.
    pub fn index_lake(&self, tables: &[Table]) -> Vec<FactRow> {
        let span = blend_obs::span("index.build");
        fact_rows(&self.lake_parts(tables, &span)).0
    }

    /// The lake's coded parts, under `span`, metered: the tables, in
    /// `TableId` order (a lake's ids are unique), cut into contiguous
    /// ranges of about equal cell count, four per worker, each coded
    /// ([`code`](Self::code)) in one parallel phase (span `index.emit`,
    /// attributes `cells` and `distinct`, summed over the parts).
    fn lake_parts(&self, tables: &[Table], span: &SpanGuard) -> Vec<CodedPart> {
        span.attr_u64("tables", tables.len() as u64);
        let t0 = Instant::now();
        let threads = self.parallel.threads();
        let mut sorted: Vec<&Table> = tables.iter().collect();
        sorted.sort_by_key(|t| t.id);
        let ranges = weighted_ranges(&sorted, threads * 4);
        let phase = blend_obs::span("index.emit");
        let parts = fork_join(threads, ranges, |range| self.code(&sorted[range]));
        let n = parts.iter().map(|p| p.cells.len()).sum::<usize>() as u64;
        phase.attr_u64("cells", n);
        let distinct = parts.iter().map(|p| p.values.len() as u64).sum();
        phase.attr_u64("distinct", distinct);
        drop(phase);
        let m = index_metrics();
        m.tables.add(tables.len() as u64);
        m.rows.add(n);
        m.build_nanos.record(t0.elapsed().as_nanos() as u64);
        span.attr_u64("rows", n);
        parts
    }

    /// Index a lake directly into a storage engine, all under the
    /// `index.build` span: its coded parts, then the store's build from
    /// them ([`build_parts`]). Installing the result in a catalog
    /// (`SqlEngine::replace_table`) advances that catalog's generation; the
    /// build itself does not.
    pub fn build(&self, tables: &[Table], kind: EngineKind) -> Arc<dyn FactTable> {
        let span = blend_obs::span("index.build");
        build_parts(kind, self.lake_parts(tables, &span))
    }
}

/// A table's cells, nulls included.
fn cells(table: &Table) -> usize {
    table.n_rows() * table.n_cols()
}

/// `tables` cut into contiguous ranges of about equal [`cells`], about
/// `parts` of them; a table larger than a share is a range of its own.
fn weighted_ranges(tables: &[&Table], parts: usize) -> Vec<Range<usize>> {
    let total: usize = tables.iter().map(|t| cells(t)).sum();
    let share = total.div_ceil(parts);
    let (mut ranges, mut start, mut held) = (Vec::new(), 0, 0);
    for (i, t) in tables.iter().enumerate() {
        held += cells(t);
        if held >= share || i + 1 == tables.len() {
            ranges.push(start..i + 1);
            (start, held) = (i + 1, 0);
        }
    }
    ranges
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{load_rows, save_rows};
    use crate::xash::Xash;
    use blend_common::{Column, TableId};
    use blend_storage::build_engine;
    use std::collections::HashMap;

    fn staff_table(id: u32) -> Table {
        Table::new(
            TableId(id),
            format!("staff-{id}"),
            vec![
                Column::new(
                    "lead",
                    vec![
                        Value::Text("Tom Riddle".into()),
                        Value::Text("Firenze".into()),
                        Value::Null,
                    ],
                ),
                Column::new(
                    "year",
                    vec![Value::Int(2022), Value::Int(2024), Value::Int(2023)],
                ),
                Column::new(
                    "team",
                    vec![
                        Value::Text("IT".into()),
                        Value::Text("HR".into()),
                        Value::Text("Sales".into()),
                    ],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn emits_one_row_per_non_null_cell() {
        let t = staff_table(0);
        let rows = IndexBuilder::new().index_table(&t);
        assert_eq!(rows.len(), t.non_null_cells());
        // Values are normalized.
        assert!(rows.iter().any(|r| &*r.value == "tom riddle"));
        assert!(!rows.iter().any(|r| &*r.value == "Tom Riddle"));
    }

    #[test]
    fn superkey_consistent_within_row_and_contains_values() {
        let t = staff_table(0);
        let rows = IndexBuilder::new().index_table(&t);
        // All cells of row 0 share one superkey.
        let row0: Vec<&FactRow> = rows.iter().filter(|r| r.row == 0).collect();
        assert!(row0.len() >= 2);
        let sk = row0[0].superkey;
        assert!(row0.iter().all(|r| r.superkey == sk));
        for r in &row0 {
            assert!(Xash::may_contain(sk, &r.value));
        }
    }

    #[test]
    fn quadrants_only_on_numeric_columns() {
        let t = staff_table(0);
        let rows = IndexBuilder::new().index_table(&t);
        for r in &rows {
            let numeric = r.column == 1; // "year"
            assert_eq!(r.quadrant.is_some(), numeric, "{r:?}");
        }
        // year mean = 2023: 2022 -> 0, 2024 -> 1, 2023 -> 1 (>=).
        let year_bits: Vec<Option<bool>> = rows
            .iter()
            .filter(|r| r.column == 1)
            .map(|r| r.quadrant)
            .collect();
        assert_eq!(year_bits.iter().filter(|b| **b == Some(true)).count(), 2);
    }

    #[test]
    fn shuffle_permutes_rowids_but_preserves_alignment() {
        let t = staff_table(0);
        let opts = IndexOptions {
            shuffle_rows: true,
            seed: 7,
        };
        let rows = IndexBuilder::with_options(opts).index_table(&t);
        assert_eq!(rows.len(), t.non_null_cells());
        // Alignment: for each RowId, lead/team values must come from the
        // same original row (checked through the superkey).
        for rid in 0..3u32 {
            let cells: Vec<&FactRow> = rows.iter().filter(|r| r.row == rid).collect();
            if cells.len() < 2 {
                continue;
            }
            let sk = cells[0].superkey;
            assert!(cells.iter().all(|c| c.superkey == sk));
            for c in &cells {
                assert!(Xash::may_contain(sk, &c.value));
            }
        }
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        let t = staff_table(0);
        let mk = |seed| {
            IndexBuilder::with_options(IndexOptions {
                shuffle_rows: true,
                seed,
            })
            .index_table(&t)
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Output is reassembled in input-table order, so raw fact rows —
        // not just the canonical-sorted engines — must be identical at
        // every thread count.
        let tables: Vec<Table> = (0..9).map(staff_table).collect();
        let build = |threads| {
            IndexBuilder::new()
                .with_parallel(Arc::new(ParallelCtx::new(threads)))
                .index_lake(&tables)
        };
        let seq = build(1);
        for threads in [2, 4, 8, 16] {
            assert_eq!(seq, build(threads), "threads={threads}");
        }
    }

    /// One giant table, then many small ones.
    fn skewed_lake() -> Vec<Table> {
        let mut big_cols = Vec::new();
        for c in 0..4 {
            let vals: Vec<Value> = (0..200)
                .map(|r| Value::Int((c * 1000 + r) as i64))
                .collect();
            big_cols.push(Column::new(format!("c{c}"), vals));
        }
        let mut tables = vec![Table::new(TableId(0), "giant", big_cols).unwrap()];
        tables.extend((1..8).map(staff_table));
        tables
    }

    #[test]
    fn skewed_lakes_build_identically() {
        // One giant table plus many small ones: the weighted table ranges
        // must still cover every table exactly once, in input order.
        let mut big_cols = Vec::new();
        for c in 0..4 {
            let vals: Vec<Value> = (0..200)
                .map(|r| Value::Int((c * 1000 + r) as i64))
                .collect();
            big_cols.push(Column::new(format!("c{c}"), vals));
        }
        let mut tables = vec![Table::new(TableId(0), "giant", big_cols).unwrap()];
        tables.extend((1..8).map(staff_table));
        let build = |threads| {
            IndexBuilder::new()
                .with_parallel(Arc::new(ParallelCtx::new(threads)))
                .index_lake(&tables)
        };
        let seq = build(1);
        assert_eq!(
            seq.len(),
            tables.iter().map(|t| t.non_null_cells()).sum::<usize>()
        );
        for threads in [2, 4] {
            assert_eq!(seq, build(threads), "threads={threads}");
        }
    }

    /// The lake's rows strictly ascend in (`TableId`, `ColumnId`, `RowId`)
    /// at every thread count, shuffled or not, on the skewed lake too.
    #[test]
    fn lake_rows_come_in_canonical_order() {
        let staff: Vec<Table> = (0..9).map(staff_table).collect();
        for tables in [staff, skewed_lake()] {
            for (threads, shuffle_rows) in
                [1, 2, 4].into_iter().flat_map(|t| [(t, false), (t, true)])
            {
                let options = IndexOptions {
                    shuffle_rows,
                    seed: 3,
                };
                let rows = IndexBuilder::with_options(options)
                    .with_parallel(Arc::new(ParallelCtx::new(threads)))
                    .index_lake(&tables);
                assert_eq!(
                    rows.len(),
                    tables.iter().map(Table::non_null_cells).sum::<usize>()
                );
                let key = |r: &FactRow| (r.table, r.column, r.row);
                assert!(
                    rows.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                    "threads {threads}, shuffle {shuffle_rows}"
                );
            }
        }
    }

    /// Both stores built from the builder's order equal the stores built
    /// from a shuffled copy of its rows, which they sort: the directory,
    /// every cell's dictionary code and value, and every value's postings.
    #[test]
    fn stores_from_canonical_rows_equal_stores_from_shuffled_rows() {
        let options = IndexOptions {
            shuffle_rows: true,
            seed: 11,
        };
        let rows = IndexBuilder::with_options(options).index_lake(&skewed_lake());
        let mut shuffled = rows.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(5));
        assert_ne!(rows, shuffled);
        let positions: Vec<u32> = (0..rows.len() as u32).collect();
        for kind in [EngineKind::Row, EngineKind::Column] {
            let (a, b) = (
                build_engine(kind, rows.clone()),
                build_engine(kind, shuffled.clone()),
            );
            assert_eq!(a.directory(), b.directory(), "{kind:?}");
            let (mut codes_a, mut codes_b) = (Vec::new(), Vec::new());
            a.gather_value_codes(&positions, &mut codes_a);
            b.gather_value_codes(&positions, &mut codes_b);
            assert_eq!(codes_a, codes_b, "{kind:?}");
            for (p, r) in rows.iter().enumerate() {
                assert_eq!((a.value_at(p), b.value_at(p)), (&*r.value, &*r.value));
                assert_eq!(a.postings(&r.value), b.postings(&r.value), "{kind:?}");
            }
        }
    }

    /// A traced build records each phase under `index.build`: the lake's
    /// coding, then the store's dictionary merge, directory pass and
    /// postings; `index.emit` counts the cells and the parts' distinct
    /// values, `index.merge` the lake's.
    #[test]
    fn build_phases_are_spans_under_index_build() {
        let tables: Vec<Table> = (0..3).map(staff_table).collect();
        let trace = blend_obs::trace_begin("setup");
        IndexBuilder::new()
            .with_parallel(Arc::new(ParallelCtx::new(1)))
            .build(&tables, EngineKind::Column);
        let profile = trace.finish().expect("instrumentation is on");
        let build = profile.find("index.build").expect("index.build span");
        let names: Vec<&str> = build.children.iter().map(|c| c.name.as_str()).collect();
        let lake = ["index.emit"];
        let store = ["index.merge", "index.directory", "index.postings"];
        assert_eq!(names, [&lake[..], &store[..]].concat());
        let attr = |span: &str, name: &str| {
            let node = profile.find(span).expect("span");
            node.attr(name).map(ToString::to_string)
        };
        assert_eq!(attr("index.build", "rows"), Some("24".into()));
        assert_eq!(attr("index.emit", "cells"), Some("24".into()));
        // One table per part, each holding the same 8 distinct values.
        assert_eq!(attr("index.emit", "distinct"), Some("24".into()));
        assert_eq!(attr("index.merge", "distinct"), Some("8".into()));
    }

    /// Eight tables of three rows, each its own range at width 4: "every
    /// where" in every table, "late value" first seen in table 5, one text
    /// spelled by an integer, an integral float (0.0 and -0.0 in table 0)
    /// and a text in each, row 2 of every table all null, and table 0's
    /// last column all null.
    fn ranged_lake() -> Vec<Table> {
        (0..8u32)
            .map(|t| {
                let late = match t {
                    5.. => Value::Text("Late  Value".into()),
                    _ => Value::Int(t as i64),
                };
                let mut columns = vec![
                    Column::new(
                        "every",
                        vec![
                            Value::Text("Every Where".into()),
                            Value::Text(format!("t{t}")),
                            Value::Null,
                        ],
                    ),
                    Column::new(
                        "late",
                        vec![late, Value::Float(t as f64 + 0.5), Value::Null],
                    ),
                    Column::new(
                        "num",
                        vec![
                            Value::Float(-(t as f64)),
                            Value::Text(format!("{t}")),
                            Value::Null,
                        ],
                    ),
                ];
                if t == 0 {
                    columns.push(Column::new("empty", vec![Value::Null; 3]));
                }
                Table::new(TableId(t), format!("ranged-{t}"), columns).unwrap()
            })
            .collect()
    }

    /// The lakes the build-equality tests cover, named.
    fn lakes() -> Vec<(&'static str, Vec<Table>)> {
        vec![
            ("staff", (0..9).map(staff_table).collect()),
            ("skewed", skewed_lake()),
            ("single", vec![staff_table(0)]),
            ("ranged", ranged_lake()),
        ]
    }

    /// Each lake's builder at widths 1, 2 and 4, shuffled and not.
    fn builders() -> impl Iterator<Item = (String, IndexBuilder)> {
        [1, 2, 4].into_iter().flat_map(|threads| {
            [false, true].map(|shuffle_rows| {
                let options = IndexOptions {
                    shuffle_rows,
                    seed: 3,
                };
                let builder = IndexBuilder::with_options(options)
                    .with_parallel(Arc::new(ParallelCtx::new(threads)));
                (format!("threads {threads} shuffle {shuffle_rows}"), builder)
            })
        })
    }

    /// `a` and `b` are the same store: the directory, every cell (code,
    /// value, super key, quadrant), the dictionary in code order, every
    /// value's postings and column-index list, and the memory charged,
    /// component by component.
    fn assert_same_store(a: &dyn FactTable, b: &dyn FactTable, case: &str) {
        fn cells(t: &dyn FactTable) -> impl PartialEq + std::fmt::Debug + '_ {
            let all: Vec<u32> = (0..t.len() as u32).collect();
            let (mut codes, mut superkeys, mut quadrants) = (Vec::new(), Vec::new(), Vec::new());
            t.gather_value_codes(&all, &mut codes);
            t.gather_superkeys(&all, &mut superkeys);
            t.gather_quadrants(&all, &mut quadrants);
            let values: Vec<&str> = (0..t.len()).map(|p| t.value_at(p)).collect();
            let dict: Vec<&str> = (0..).map_while(|c| t.value_of_code(c)).collect();
            (codes, values, superkeys, quadrants, dict)
        }
        assert_eq!(a.directory(), b.directory(), "{case}");
        assert_eq!(cells(a), cells(b), "{case}");
        for p in 0..a.len() {
            let value = a.value_at(p);
            assert_eq!(a.postings(value), b.postings(value), "{case} {value}");
        }
        match (a.column_index(), b.column_index()) {
            (Some(x), Some(y)) => {
                let codes = (0..).take_while(|&c| a.value_of_code(c).is_some());
                for code in codes.chain([u32::MAX]) {
                    assert_eq!(x.ordinals(code), y.ordinals(code), "{case} code {code}");
                }
            }
            (x, y) => assert!(x.is_none() && y.is_none(), "{case}"),
        }
        let (ma, mb) = (a.memory_breakdown(), b.memory_breakdown());
        assert_eq!(ma.components, mb.components, "{case}");
        assert_eq!(a.size_bytes(), b.size_bytes(), "{case}");
    }

    /// The store [`IndexBuilder::build`] makes from its coded parts equals
    /// the one `build_engine` makes from the builder's fact rows, and from
    /// those rows saved and loaded, on both engines, every lake, width and
    /// shuffle.
    #[test]
    fn built_stores_equal_stores_built_from_the_lake_rows() {
        let dir = std::env::temp_dir().join("blend-builder-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("lake-{}.blnd", std::process::id()));
        for (name, tables) in lakes() {
            for (config, builder) in builders() {
                let rows = builder.index_lake(&tables);
                save_rows(&path, &rows).unwrap();
                let loaded = load_rows(&path).unwrap();
                assert_eq!(rows, loaded, "{name} {config}");
                for kind in [EngineKind::Row, EngineKind::Column] {
                    let built = builder.build(&tables, kind);
                    let case = format!("{name} {config} {kind:?}");
                    assert_same_store(&*built, &*build_engine(kind, rows.clone()), &case);
                    assert_same_store(&*built, &*build_engine(kind, loaded.clone()), &case);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A super key built from per-value patterns is the OR of the patterns
    /// of its row's cells, each hashed on its own, over `index_table`'s
    /// cells; the lake's rows are each table's `index_table` rows, each
    /// column's values are its cells' `Value::normalized`, and the column
    /// store serves the same keys.
    #[test]
    fn superkeys_are_the_or_of_each_cells_pattern() {
        for (name, tables) in lakes() {
            for (config, builder) in builders() {
                let lake = builder.index_lake(&tables);
                let mut at = 0;
                for t in &tables {
                    let rows = builder.index_table(t);
                    assert_eq!(rows[..], lake[at..at + rows.len()], "{name} {config}");
                    at += rows.len();
                    let mut want: HashMap<u32, u128> = HashMap::new();
                    for r in &rows {
                        *want.entry(r.row).or_default() |= xash_value(&r.value);
                    }
                    for r in &rows {
                        assert_eq!(r.superkey, want[&r.row], "{name} {config} {r:?}");
                    }
                    for (c, col) in t.columns.iter().enumerate() {
                        let mut got: Vec<&str> = (rows.iter())
                            .filter(|r| r.column == c as u32)
                            .map(|r| &*r.value)
                            .collect();
                        let mut want: Vec<_> =
                            col.values.iter().flat_map(Value::normalized).collect();
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "{name} {config} table {} column {c}", t.id.0);
                    }
                }
                assert_eq!(at, lake.len());
                let store = builder.build(&tables, EngineKind::Column);
                for (p, r) in lake.iter().enumerate() {
                    assert_eq!(store.superkey_at(p), r.superkey, "{name} {config}");
                }
            }
        }
    }

    #[test]
    fn build_into_engine_registers_all_tables() {
        let tables: Vec<Table> = (0..3).map(staff_table).collect();
        let ft = IndexBuilder::new().build(&tables, EngineKind::Row);
        assert_eq!(ft.n_tables(), 3);
        assert_eq!(ft.postings("firenze").len(), 3);
    }
}
