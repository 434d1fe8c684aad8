//! The `AllTables` builder: lake tables → fact rows → storage engine.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use blend_common::{Table, Value};
use blend_parallel::ParallelCtx;
use blend_storage::{build_engine, EngineKind, FactRow, FactTable};

use crate::quadrant::column_quadrants;
use crate::xash::Xash;

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

/// Builds `AllTables` from lake tables on a [`ParallelCtx`]'s pool, by
/// default the process-wide one ([`ParallelCtx::shared_from_env`]).
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

    /// Build on `parallel`'s pool instead of the process-wide one.
    pub fn with_parallel(mut self, parallel: Arc<ParallelCtx>) -> Self {
        self.parallel = parallel;
        self
    }

    /// Index one table into fact rows.
    ///
    /// Per row: compute the XASH super key over all non-null normalized
    /// values; per cell: emit `(value, tid, cid, rid, superkey, quadrant)`.
    pub fn index_table(&self, table: &Table) -> Vec<FactRow> {
        let n_rows = table.n_rows();
        let n_cols = table.n_cols();

        // Row order: identity or shuffled (per-table deterministic seed).
        let mut order: Vec<usize> = (0..n_rows).collect();
        if self.options.shuffle_rows {
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                self.options.seed ^ (table.id.0 as u64).wrapping_mul(0x9E37_79B9),
            );
            order.shuffle(&mut rng);
        }

        // Pre-normalize cells column-major and compute quadrant bits.
        let mut normalized: Vec<Vec<Option<String>>> = Vec::with_capacity(n_cols);
        let mut quadrants = Vec::with_capacity(n_cols);
        for col in &table.columns {
            normalized.push(
                col.values
                    .iter()
                    .map(|v: &Value| v.normalized().map(|c| c.into_owned()))
                    .collect(),
            );
            quadrants.push(column_quadrants(col));
        }

        // Super keys per physical row.
        let mut superkeys = vec![0u128; n_rows];
        for (r, sk) in superkeys.iter_mut().enumerate() {
            let mut x = Xash::new();
            for col in normalized.iter() {
                if let Some(v) = &col[r] {
                    x.add(v);
                }
            }
            *sk = x.finish();
        }

        let mut rows = Vec::with_capacity(n_rows * n_cols);
        for (new_rid, &orig_r) in order.iter().enumerate() {
            for c in 0..n_cols {
                if let Some(v) = &normalized[c][orig_r] {
                    rows.push(FactRow::new(
                        v,
                        table.id.0,
                        c as u32,
                        new_rid as u32,
                        superkeys[orig_r],
                        quadrants[c].bits[orig_r],
                    ));
                }
            }
        }
        rows
    }

    /// Index a whole lake into fact rows, in parallel across tables.
    ///
    /// Tables are assigned to workers by greedy size-aware chunking
    /// ([`blend_parallel::balanced_chunks`], weighted by cell count), so
    /// one huge table no longer serializes the build the way the old
    /// static `i % threads` striping did — the giant gets a bin of its
    /// own while the remaining workers share everything else. Output is
    /// reassembled in input-table order, making the result identical at
    /// every thread count.
    pub fn index_lake(&self, tables: &[Table]) -> Vec<FactRow> {
        let span = blend_obs::span("index.build");
        span.attr_u64("tables", tables.len() as u64);
        let t0 = Instant::now();
        let all = self.index_lake_inner(tables);
        let m = index_metrics();
        m.tables.add(tables.len() as u64);
        m.rows.add(all.len() as u64);
        m.build_nanos.record(t0.elapsed().as_nanos() as u64);
        span.attr_u64("rows", all.len() as u64);
        all
    }

    fn index_lake_inner(&self, tables: &[Table]) -> Vec<FactRow> {
        let pool = self.parallel.pool();
        let threads = pool.threads();
        if threads == 1 || tables.len() < 2 {
            let mut all = Vec::new();
            for t in tables {
                all.extend(self.index_table(t));
            }
            return all;
        }

        let weights: Vec<usize> = tables.iter().map(|t| t.n_rows() * t.n_cols()).collect();
        let bins: Vec<Vec<usize>> = blend_parallel::balanced_chunks(&weights, threads)
            .into_iter()
            .filter(|bin| !bin.is_empty())
            .collect();

        let run = pool.run(bins.len(), |b| {
            bins[b]
                .iter()
                .map(|&ti| (ti, self.index_table(&tables[ti])))
                .collect::<Vec<(usize, Vec<FactRow>)>>()
        });

        let mut per_table: Vec<Vec<FactRow>> = vec![Vec::new(); tables.len()];
        for bin in run.results {
            for (ti, rows) in bin {
                per_table[ti] = rows;
            }
        }
        let total: usize = per_table.iter().map(Vec::len).sum();
        let mut all = Vec::with_capacity(total);
        for rows in per_table {
            all.extend(rows);
        }
        all
    }

    /// Index a lake directly into a storage engine. Installing the result
    /// in a catalog (`SqlEngine::replace_table`) advances that catalog's
    /// generation; the build itself does not.
    pub fn build(&self, tables: &[Table], kind: EngineKind) -> Arc<dyn FactTable> {
        build_engine(kind, self.index_lake(tables))
    }
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_common::{Column, TableId};

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

    #[test]
    fn skewed_lakes_build_identically() {
        // One giant table plus many small ones: greedy size-aware chunking
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

    #[test]
    fn build_into_engine_registers_all_tables() {
        let tables: Vec<Table> = (0..3).map(staff_table).collect();
        let ft = IndexBuilder::new().build(&tables, EngineKind::Row);
        assert_eq!(ft.n_tables(), 3);
        assert_eq!(ft.postings("firenze").len(), 3);
    }
}
