//! The `AllTables` builder: lake tables → fact rows → storage engine.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use blend_common::Table;
use blend_obs::SpanGuard;
use blend_parallel::{fork_join, ParallelCtx};
use blend_storage::{build_engine, EngineKind, FactRow, FactTable};

use crate::quadrant::column_quadrants;
use crate::xash::xash_value;

/// Index-build metric cells (`blend_index_*`), resolved once per process.
struct IndexMetrics {
    /// Lake tables indexed (cumulative across builds).
    tables: Arc<blend_obs::Counter>,
    /// Fact rows emitted (cumulative across builds).
    rows: Arc<blend_obs::Counter>,
    /// Wall time of whole-lake builds ([`IndexBuilder::index_lake`]).
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
        let mut rows = Vec::new();
        self.emit(table, &mut rows);
        fill_superkeys(&mut rows, &mut Vec::new());
        rows
    }

    /// Append `table`'s cells to `out` in canonical order, each value
    /// normalized straight into its row, whose super key is left 0 for
    /// [`fill_superkeys`].
    fn emit(&self, table: &Table, out: &mut Vec<FactRow>) {
        // New `RowId` → row: identity or shuffled (per-table deterministic seed).
        let mut order: Vec<usize> = (0..table.n_rows()).collect();
        if self.options.shuffle_rows {
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                self.options.seed ^ (table.id.0 as u64).wrapping_mul(0x9E37_79B9),
            );
            order.shuffle(&mut rng);
        }
        for (c, col) in table.columns.iter().enumerate() {
            let quadrants = column_quadrants(col);
            for (rid, &r) in order.iter().enumerate() {
                if let Some(value) = col.values[r].normalized() {
                    out.push(FactRow {
                        value: value.into_owned().into_boxed_str(),
                        table: table.id.0,
                        column: c as u32,
                        row: rid as u32,
                        superkey: 0,
                        quadrant: quadrants[r],
                    });
                }
            }
        }
    }

    /// Index a whole lake into fact rows at the builder's width: in
    /// canonical order when the tables come in ascending `TableId` order,
    /// as a lake holds them.
    ///
    /// The tables are cut into contiguous ranges of about equal cell count,
    /// four per worker, claimed dynamically. One pass over each range emits
    /// its rows with their values normalized (span `index.emit`), a second
    /// gives each table's rows their super keys (`index.xash`); then the
    /// ranges' rows are concatenated in range order (`index.concat`) onto
    /// the first range's `Vec`, each freed as it is moved, so the rows are
    /// never held twice and the output is the same at every thread count.
    pub fn index_lake(&self, tables: &[Table]) -> Vec<FactRow> {
        let span = blend_obs::span("index.build");
        self.lake_rows(tables, &span)
    }

    /// [`index_lake`](Self::index_lake) under `span`, metered.
    fn lake_rows(&self, tables: &[Table], span: &SpanGuard) -> Vec<FactRow> {
        span.attr_u64("tables", tables.len() as u64);
        let t0 = Instant::now();
        let threads = self.parallel.threads();
        let ranges = weighted_ranges(tables, threads * 4);
        let phase = blend_obs::span("index.emit");
        let mut parts = fork_join(threads, ranges, |range| {
            let tables = &tables[range];
            let mut rows = Vec::with_capacity(tables.iter().map(cells).sum());
            tables.iter().for_each(|t| self.emit(t, &mut rows));
            rows
        });
        drop(phase);
        let phase = blend_obs::span("index.xash");
        fork_join(threads, parts.iter_mut(), |rows| {
            let mut keys = Vec::new();
            (rows.chunk_by_mut(|a, b| a.table == b.table))
                .for_each(|t| fill_superkeys(t, &mut keys));
        });
        drop(phase);
        let _phase = blend_obs::span("index.concat");
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap_or_default();
        let rest: Vec<Vec<FactRow>> = parts.collect();
        all.reserve_exact(rest.iter().map(Vec::len).sum());
        rest.into_iter().for_each(|mut part| all.append(&mut part));
        let m = index_metrics();
        m.tables.add(tables.len() as u64);
        m.rows.add(all.len() as u64);
        m.build_nanos.record(t0.elapsed().as_nanos() as u64);
        span.attr_u64("rows", all.len() as u64);
        all
    }

    /// Index a lake directly into a storage engine, all under the
    /// `index.build` span. Installing the result in a catalog
    /// (`SqlEngine::replace_table`) advances that catalog's generation; the
    /// build itself does not.
    pub fn build(&self, tables: &[Table], kind: EngineKind) -> Arc<dyn FactTable> {
        let span = blend_obs::span("index.build");
        build_engine(kind, self.lake_rows(tables, &span))
    }
}

/// Give each of one table's `cells` its row's XASH super key: the OR of
/// the patterns of the row's values, gathered by `RowId` in `keys`.
fn fill_superkeys(cells: &mut [FactRow], keys: &mut Vec<u128>) {
    let rows = cells.iter().map(|c| c.row as usize + 1).max();
    keys.clear();
    keys.resize(rows.unwrap_or(0), 0);
    for c in cells.iter() {
        keys[c.row as usize] |= xash_value(&c.value);
    }
    for c in cells.iter_mut() {
        c.superkey = keys[c.row as usize];
    }
}

/// A table's cells, nulls included.
fn cells(table: &Table) -> usize {
    table.n_rows() * table.n_cols()
}

/// `tables` cut into contiguous ranges of about equal [`cells`], about
/// `parts` of them; a table larger than a share is a range of its own.
fn weighted_ranges(tables: &[Table], parts: usize) -> Vec<Range<usize>> {
    let share = tables.iter().map(cells).sum::<usize>().div_ceil(parts);
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
    use crate::xash::Xash;
    use blend_common::{Column, TableId, Value};

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
    /// three, then the store's directory pass and postings.
    #[test]
    fn build_phases_are_spans_under_index_build() {
        let tables: Vec<Table> = (0..3).map(staff_table).collect();
        let trace = blend_obs::trace_begin("setup");
        IndexBuilder::new().build(&tables, EngineKind::Column);
        let profile = trace.finish().expect("instrumentation is on");
        let build = profile.find("index.build").expect("index.build span");
        let names: Vec<&str> = build.children.iter().map(|c| c.name.as_str()).collect();
        let lake = ["index.emit", "index.xash", "index.concat"];
        let store = ["index.directory", "index.postings"];
        assert_eq!(names, [&lake[..], &store[..]].concat());
        assert_eq!(
            build.attr("rows").map(ToString::to_string),
            Some("24".into())
        );
    }

    #[test]
    fn build_into_engine_registers_all_tables() {
        let tables: Vec<Table> = (0..3).map(staff_table).collect();
        let ft = IndexBuilder::new().build(&tables, EngineKind::Row);
        assert_eq!(ft.n_tables(), 3);
        assert_eq!(ft.postings("firenze").len(), 3);
    }
}
