//! Seeker implementations (paper Section VI): SQL generation over
//! `AllTables` plus the application-level phases of MC and C.
//!
//! Every seeker reads its SQL result as flat columns
//! (`SqlEngine::execute_columns_interruptible`); no `SqlValue` row is built
//! for any of them. The MC application phase runs in *code space*: table,
//! row and column ids are `u32` slices, super keys a `u128` slice, and each
//! `v{c}` cell value is its id in the column's dictionary, so the super-key
//! filter is one mask test per query row and exact validation is id-tuple
//! equality — no string is hashed, compared or allocated per joined row.

use blend_common::{stats::mean, text, FxHashMap, FxHashSet, Result, TableId};
use blend_index::xash_value;
use blend_parallel::Interrupt;
use blend_sql::{ResultColumn, ResultColumns, TextColumn};

use crate::combiners::TableHit;
use crate::plan::Seeker;
use crate::Blend;

/// Placeholder the rewriter replaces with an injected TableId predicate
/// (paper §VII-B "query rewriting"). Present in every seeker template.
pub const TID_PLACEHOLDER: &str = "/*$TID$*/";

/// A predicate injected by the optimizer from intermediate results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Injected {
    /// `AND TableId IN (...)` — intersection rewriting.
    In(Vec<u32>),
    /// `AND TableId NOT IN (...)` — difference rewriting.
    NotIn(Vec<u32>),
}

impl Injected {
    /// Render the SQL fragment replacing [`TID_PLACEHOLDER`].
    pub fn fragment(&self) -> String {
        match self {
            // An empty intersection can never match; `run()` short-circuits
            // before rendering, but the fragment must still be valid SQL
            // (`IN ()` is not), so render a never-true predicate.
            Injected::In(ids) if ids.is_empty() => "AND 1 = 0".to_string(),
            Injected::In(ids) => format!("AND TableId IN ({})", join_ids(ids)),
            Injected::NotIn(ids) if ids.is_empty() => String::new(),
            Injected::NotIn(ids) => format!("AND TableId NOT IN ({})", join_ids(ids)),
        }
    }
}

fn join_ids(ids: &[u32]) -> String {
    let mut s = String::with_capacity(ids.len() * 4);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&id.to_string());
    }
    s
}

/// Append an already-normalized value as a SQL string literal with `'`
/// escaping (normalization matches the indexer's cell normalization).
fn push_quoted(out: &mut String, norm: &str) {
    out.reserve(norm.len() + 2);
    out.push('\'');
    for c in norm.chars() {
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out.push('\'');
}

fn join_values(values: &[String]) -> String {
    // Deduplicate on the normalized value and render the quoted literal
    // straight into the output — one allocation per distinct value instead
    // of a rendered literal plus a seen-set clone per input.
    let mut s = String::new();
    let mut seen: FxHashSet<String> = FxHashSet::default();
    for v in values {
        let norm = text::normalize(v);
        if seen.contains(&norm) {
            continue;
        }
        if !s.is_empty() {
            s.push(',');
        }
        push_quoted(&mut s, &norm);
        seen.insert(norm);
    }
    s
}

/// One executed seeker: its SQL, hits, and MC bookkeeping.
#[derive(Debug, Clone)]
pub struct SeekerRun {
    /// The SQL sent to the engine (post-rewriting).
    pub sql: String,
    /// Ranked results.
    pub hits: Vec<TableHit>,
    /// MC filter-phase statistics (None for other seekers): candidate rows
    /// after the super-key filter and rows surviving exact validation —
    /// the TP/FP numbers of paper Table V.
    pub mc_stats: Option<McStats>,
}

/// MC candidate bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McStats {
    /// Candidate rows emitted by the SQL phase + super-key filter.
    pub candidates: usize,
    /// Candidates passing exact alignment validation (true positives).
    pub validated: usize,
}

impl McStats {
    /// Filter precision (Table V definition).
    pub fn precision(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.validated as f64 / self.candidates as f64
        }
    }
}

/// Render the SQL template(s) of a seeker (pre-injection). Exposed for the
/// documentation tests and the LOC experiment.
pub fn seeker_sql(seeker: &Seeker, k: usize, h: usize) -> String {
    match seeker {
        Seeker::Sc { values } => sc_sql(values, k, false),
        Seeker::Kw { keywords } => sc_sql(keywords, k, true),
        Seeker::Mc { rows } => mc_sql(rows),
        Seeker::C { keys, target } => c_sql(keys, target, h),
    }
}

/// Listing 1 (extended with an explicit score column and table-granularity
/// over-fetch; see module docs). `table_wide` drops ColumnId from GROUP BY,
/// turning SC into KW.
fn sc_sql(values: &[String], k: usize, table_wide: bool) -> String {
    let group = if table_wide {
        "TableId"
    } else {
        "TableId, ColumnId"
    };
    // Over-fetch: several (table, column) groups may share a table.
    let fetch = k.saturating_mul(4).saturating_add(8);
    format!(
        "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
         WHERE CellValue IN ({vals}) {TID_PLACEHOLDER} \
         GROUP BY {group} \
         ORDER BY score DESC \
         LIMIT {fetch}",
        vals = join_values(values),
    )
}

/// Listing 2, generalized to any arity, with explicit projection so the
/// application phase can read values/columns/super keys by label.
fn mc_sql(rows: &[Vec<String>]) -> String {
    let arity = rows.first().map_or(0, Vec::len);
    // Per-column value lists. The first row sets the arity; `run` rejects
    // anything else (`Seeker::validate`), and rendering it must not panic.
    let mut col_values: Vec<Vec<String>> = vec![Vec::new(); arity];
    for row in rows {
        for (vals, v) in col_values.iter_mut().zip(row) {
            vals.push(v.clone());
        }
    }
    let mut proj = vec![
        "q0.TableId AS tid".to_string(),
        "q0.RowId AS rid".to_string(),
        "q0.SuperKey AS sk".to_string(),
    ];
    for c in 0..arity {
        proj.push(format!("q{c}.CellValue AS v{c}"));
        proj.push(format!("q{c}.ColumnId AS c{c}"));
    }
    let q0_values = col_values.first().map(|v| join_values(v));
    let mut sql = format!(
        "SELECT {} FROM (SELECT * FROM AllTables WHERE CellValue IN ({}) {TID_PLACEHOLDER}) AS q0",
        proj.join(", "),
        q0_values.unwrap_or_default(),
    );
    for (c, vals) in col_values.iter().enumerate().skip(1) {
        sql.push_str(&format!(
            " INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ({})) AS q{c} \
             ON q0.TableId = q{c}.TableId AND q0.RowId = q{c}.RowId",
            join_values(vals),
        ));
    }
    sql
}

/// Listing 3: the correlation seeker with the in-SQL QCR score
/// `ABS((2*SUM(concordant)-COUNT(*))/COUNT(*))`. The `k0`/`k1` key split
/// happens here, before query generation, exactly as the paper describes.
fn c_sql(keys: &[String], target: &[f64], h: usize) -> String {
    let m = mean(target).unwrap_or(0.0);
    let mut k0 = Vec::new();
    let mut k1 = Vec::new();
    for (k, t) in keys.iter().zip(target) {
        if *t < m {
            k0.push(k.clone());
        } else {
            k1.push(k.clone());
        }
    }
    format!(
        "SELECT keys.TableId AS t, keys.ColumnId AS kc, nums.ColumnId AS nc, \
         ABS((2 * SUM(((keys.CellValue IN ({k0}) AND nums.Quadrant = 0) OR \
         (keys.CellValue IN ({k1}) AND nums.Quadrant = 1))::int) - COUNT(*)) / COUNT(*)) AS score, \
         COUNT(*) AS n \
         FROM (SELECT * FROM AllTables WHERE RowId < {h} AND CellValue IN ({all}) {TID_PLACEHOLDER}) keys \
         INNER JOIN (SELECT * FROM AllTables WHERE RowId < {h} AND Quadrant IS NOT NULL) nums \
         ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId \
         AND keys.ColumnId <> nums.ColumnId \
         GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId \
         ORDER BY score DESC",
        k0 = join_values(&k0),
        k1 = join_values(&k1),
        all = join_values(keys),
    )
}

/// Execute a seeker against the BLEND engine.
pub fn run(
    blend: &Blend,
    seeker: &Seeker,
    k: usize,
    injected: Option<&Injected>,
    interrupt: &Interrupt,
) -> Result<SeekerRun> {
    seeker.validate()?;
    // Short-circuit: an empty intersection filter can never match.
    if let Some(Injected::In(ids)) = injected {
        if ids.is_empty() {
            return Ok(SeekerRun {
                sql: String::new(),
                hits: Vec::new(),
                mc_stats: matches!(seeker, Seeker::Mc { .. }).then(McStats::default),
            });
        }
    }
    let template = seeker_sql(seeker, k, blend.options().h);
    let fragment = injected.map(Injected::fragment).unwrap_or_default();
    let sql = template.replace(TID_PLACEHOLDER, &fragment);

    let (cols, _) = blend
        .engine()
        .execute_columns_interruptible(&sql, interrupt.clone())?;
    let (hits, mc_stats) = match seeker {
        Seeker::Sc { .. } | Seeker::Kw { .. } => (dedup_table_scores(&cols, k), None),
        Seeker::Mc { rows } => {
            let (hits, stats) = postprocess(&cols, || mc_postprocess(&cols, rows, k));
            (hits, Some(stats))
        }
        Seeker::C { .. } => {
            let min_matches = blend.options().corr_min_matches;
            (
                postprocess(&cols, || c_postprocess(&cols, k, min_matches)).0,
                None,
            )
        }
    };
    Ok(SeekerRun {
        sql,
        hits,
        mc_stats,
    })
}

/// Run an application phase under its `postprocess` span: the SQL rows it
/// read, the candidates its filter kept, and those that validated.
fn postprocess(
    cols: &ResultColumns,
    phase: impl FnOnce() -> (Vec<TableHit>, McStats),
) -> (Vec<TableHit>, McStats) {
    let span = blend_obs::span("postprocess");
    span.attr_u64("rows_in", cols.len() as u64);
    let (hits, stats) = phase();
    span.attr_u64("candidates", stats.candidates as u64);
    span.attr_u64("validated", stats.validated as u64);
    (hits, stats)
}

/// Keep the best score per table, preserving descending order; cut to `k`.
fn dedup_table_scores(cols: &ResultColumns, k: usize) -> Vec<TableHit> {
    let (Some(t), Some(s)) = (cols.col("t"), cols.col("score")) else {
        return Vec::new();
    };
    let mut seen: FxHashSet<u32> = FxHashSet::default();
    let mut out = Vec::new();
    for i in 0..t.len().min(s.len()) {
        let (Some(table), Some(score)) = (t.value(i).as_i64(), s.value(i).as_f64()) else {
            continue;
        };
        if seen.insert(table as u32) {
            out.push(TableHit {
                table: TableId(table as u32),
                score,
            });
            if out.len() >= k {
                break;
            }
        }
    }
    out
}

/// MC application phase, per the paper's two steps: (1) the super key of
/// each candidate row prunes rows that cannot hold any full query row
/// (bloom subset test, no value comparisons); (2) exact match validation
/// checks that a matched value combination is an actual query row
/// (alignment). TP/FP are counted per candidate row (Table V).
///
/// Both steps run on integers. A query row becomes one xash mask (the OR
/// of its values' hashes: a super key may hold the row iff it has every
/// bit) and the tuple of its values' ids in the `v{c}` columns'
/// dictionaries; one pass over the result's flat columns then tests ids
/// only. A malformed result (a missing label, a column of another type or
/// length) yields no hits rather than a panic.
fn mc_postprocess(
    cols: &ResultColumns,
    rows: &[Vec<String>],
    k: usize,
) -> (Vec<TableHit>, McStats) {
    let arity = rows.first().map_or(0, Vec::len);
    let n = cols.len();
    let ids = |label: &str| {
        let col = cols.col(label).and_then(ResultColumn::as_u32s);
        col.filter(|c| c.len() == n)
    };
    let texts = |c: usize| -> Option<&TextColumn> {
        let col = cols.col(&format!("v{c}")).and_then(ResultColumn::as_text);
        col.filter(|t| t.ids().len() == n)
    };
    let sk = cols.col("sk").and_then(ResultColumn::as_u128s);
    let sk = sk.filter(|s| s.len() == n);
    let ccols: Option<Vec<_>> = (0..arity).map(|c| ids(&format!("c{c}"))).collect();
    let vcols: Option<Vec<&TextColumn>> = (0..arity).map(texts).collect();
    let (Some(tid), Some(rid), Some(sk), Some(ccols), Some(vcols)) =
        (ids("tid"), ids("rid"), sk, ccols, vcols)
    else {
        return (Vec::new(), McStats::default());
    };

    // Per query row: its mask, and its id tuple unless some value is in no
    // row of its column — such a row can never validate.
    let mut masks: Vec<u128> = Vec::with_capacity(rows.len());
    let mut query_ids: FxHashSet<Vec<u32>> = FxHashSet::default();
    for row in rows.iter().filter(|r| r.len() == arity) {
        let norm: Vec<String> = row.iter().map(|v| text::normalize(v)).collect();
        masks.push(norm.iter().fold(0, |m, v| m | xash_value(v)));
        let tuple: Option<Vec<u32>> = norm
            .iter()
            .zip(&vcols)
            .map(|(v, col)| col.id_of(v))
            .collect();
        query_ids.extend(tuple);
    }

    // One pass over the joined rows, keyed by (TableId, RowId): the candidate
    // row's first joined row (its super key is read there), and whether any
    // of its matched value combinations is a query row. The key stays a
    // pair: `FxHasher` has no final mix, so one packed `u64` would pick its
    // bucket from the low bits of `RowId` alone (measured 3x slower here).
    let mut candidates: FxHashMap<(u32, u32), (u32, bool)> = FxHashMap::default();
    let ccols: Vec<&[u32]> = ccols.iter().map(|c| &**c).collect();
    let vids: Vec<&[u32]> = vcols.iter().map(|v| v.ids()).collect();
    let mut combo = vec![0u32; arity];
    'rows: for i in 0..n {
        // Alignment needs the values to come from distinct columns.
        for (a, ca) in ccols.iter().enumerate() {
            if ccols[..a].iter().any(|cb| cb[i] == ca[i]) {
                continue 'rows;
            }
        }
        let key = (tid[i], rid[i]);
        let (_, valid) = candidates.entry(key).or_insert((i as u32, false));
        if !*valid {
            combo.iter_mut().zip(&vids).for_each(|(id, v)| *id = v[i]);
            *valid = query_ids.contains(combo.as_slice());
        }
    }

    let mut stats = McStats::default();
    let mut joinable: FxHashMap<u32, usize> = FxHashMap::default();
    for ((table, _), (first, valid)) in candidates {
        // Super-key bloom filter: some full query row may be present.
        let superkey = sk[first as usize];
        if !masks.iter().any(|m| superkey & m == *m) {
            continue;
        }
        stats.candidates += 1;
        // Exact match validation on the aligned combinations.
        if valid {
            stats.validated += 1;
            *joinable.entry(table).or_default() += 1;
        }
    }

    let mut topk = blend_common::topk::TopK::new(k);
    for (t, rows) in joinable {
        topk.push(
            rows as f64,
            t as u64,
            TableHit {
                table: TableId(t),
                score: rows as f64,
            },
        );
    }
    (
        topk.into_sorted().into_iter().map(|(_, h)| h).collect(),
        stats,
    )
}

/// C application phase: drop under-supported triplets, keep the best
/// |QCR| per table, cut to `k`. The stats count the supported triplets
/// (candidates) and the tables they leave (validated).
fn c_postprocess(cols: &ResultColumns, k: usize, min_matches: usize) -> (Vec<TableHit>, McStats) {
    let (Some(t), Some(s), Some(n)) = (cols.col("t"), cols.col("score"), cols.col("n")) else {
        return (Vec::new(), McStats::default());
    };
    let mut stats = McStats::default();
    let mut best: FxHashMap<u32, f64> = FxHashMap::default();
    for i in 0..t.len().min(s.len()).min(n.len()) {
        let (Some(table), Some(score), Some(support)) = (
            t.value(i).as_i64(),
            s.value(i).as_f64(),
            n.value(i).as_i64(),
        ) else {
            continue;
        };
        if (support as usize) < min_matches {
            continue;
        }
        stats.candidates += 1;
        let e = best.entry(table as u32).or_insert(f64::MIN);
        if score > *e {
            *e = score;
        }
    }
    stats.validated = best.len();
    let mut topk = blend_common::topk::TopK::new(k);
    for (table, score) in best {
        topk.push(
            score,
            table as u64,
            TableHit {
                table: TableId(table),
                score,
            },
        );
    }
    (
        topk.into_sorted().into_iter().map(|(_, h)| h).collect(),
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_index::Xash;
    use blend_lake::web::{generate, WebLakeConfig};
    use blend_lake::DataLake;
    use blend_sql::{ResultSet, SqlValue};
    use blend_storage::EngineKind;

    #[test]
    fn sql_templates_contain_placeholder() {
        let seekers = [
            Seeker::sc(vec!["a".into()]),
            Seeker::kw(vec!["a".into()]),
            Seeker::mc(vec![vec!["a".into(), "b".into()]]),
            Seeker::c(vec!["k1".into(), "k2".into()], vec![1.0, 2.0]),
        ];
        for s in seekers {
            let sql = seeker_sql(&s, 10, 64);
            assert!(sql.contains(TID_PLACEHOLDER), "{sql}");
        }
    }

    #[test]
    fn injected_fragments() {
        assert_eq!(
            Injected::In(vec![1, 2, 3]).fragment(),
            "AND TableId IN (1,2,3)"
        );
        assert_eq!(
            Injected::NotIn(vec![7]).fragment(),
            "AND TableId NOT IN (7)"
        );
        // Empty NOT IN is a no-op (filters nothing out).
        assert_eq!(Injected::NotIn(vec![]).fragment(), "");
        // Empty IN is usually short-circuited in `run()`, but the fragment
        // must still be valid SQL on its own: a never-true predicate.
        assert_eq!(Injected::In(vec![]).fragment(), "AND 1 = 0");
    }

    /// The row-based MC application phase this module had before the
    /// columnar one, kept as its oracle: per joined row a column set, a
    /// `Vec<String>` of values and a hash-map entry; per candidate a
    /// re-hash of every query value.
    fn mc_postprocess_rows(
        rs: &ResultSet,
        rows: &[Vec<String>],
        k: usize,
    ) -> (Vec<TableHit>, McStats) {
        let arity = rows.first().map_or(0, Vec::len);
        let query_rows: Vec<Vec<String>> = rows
            .iter()
            .map(|r| r.iter().map(|v| text::normalize(v)).collect())
            .collect();
        let query_row_set: FxHashSet<&[String]> = query_rows.iter().map(Vec::as_slice).collect();
        let (Some(tid), Some(rid), Some(sk)) = (rs.col("tid"), rs.col("rid"), rs.col("sk")) else {
            return (Vec::new(), McStats::default());
        };
        let vcols: Option<Vec<usize>> = (0..arity).map(|c| rs.col(&format!("v{c}"))).collect();
        let ccols: Option<Vec<usize>> = (0..arity).map(|c| rs.col(&format!("c{c}"))).collect();
        let (Some(vcols), Some(ccols)) = (vcols, ccols) else {
            return (Vec::new(), McStats::default());
        };
        struct Candidate {
            superkey: u128,
            combos: Vec<Vec<String>>,
        }
        let mut candidates: FxHashMap<(u32, u32), Candidate> = FxHashMap::default();
        'tuples: for row in &rs.rows {
            let (Some(t), Some(r)) = (row[tid].as_i64(), row[rid].as_i64()) else {
                continue;
            };
            let mut cset = FxHashSet::default();
            for &c in &ccols {
                let Some(cid) = row[c].as_i64() else {
                    continue 'tuples;
                };
                if !cset.insert(cid) {
                    continue 'tuples;
                }
            }
            let values: Vec<String> = vcols.iter().map(|&c| row[c].to_string()).collect();
            let SqlValue::U128(superkey) = row[sk] else {
                continue;
            };
            candidates
                .entry((t as u32, r as u32))
                .or_insert_with(|| Candidate {
                    superkey,
                    combos: Vec::new(),
                })
                .combos
                .push(values);
        }
        let mut stats = McStats::default();
        let mut joinable: FxHashMap<u32, FxHashSet<u32>> = FxHashMap::default();
        for ((t, r), cand) in candidates {
            let passes = query_rows
                .iter()
                .any(|qr| Xash::may_contain_all(cand.superkey, qr.iter().map(String::as_str)));
            if !passes {
                continue;
            }
            stats.candidates += 1;
            if cand
                .combos
                .iter()
                .any(|combo| query_row_set.contains(combo.as_slice()))
            {
                stats.validated += 1;
                joinable.entry(t).or_default().insert(r);
            }
        }
        let mut topk = blend_common::topk::TopK::new(k);
        for (t, rows) in joinable {
            let hit = TableHit {
                table: TableId(t),
                score: rows.len() as f64,
            };
            topk.push(hit.score, t as u64, hit);
        }
        (
            topk.into_sorted().into_iter().map(|(_, h)| h).collect(),
            stats,
        )
    }

    /// Lakes with a small vocabulary, so values repeat across the columns
    /// of a row and across tables.
    fn repetitive_lake(seed: u64) -> DataLake {
        generate(&WebLakeConfig {
            name: "mc-oracle".into(),
            n_tables: 24,
            rows: (4, 12),
            cols: (2, 4),
            vocab: 14,
            zipf_s: 0.8,
            numeric_col_ratio: 0.2,
            null_ratio: 0.05,
            seed,
        })
    }

    /// Query rows of `arity` read off the lake's own rows (planted
    /// overlaps), one row that repeats a value (only the distinct-column
    /// check keeps a cell from matching itself) and one no table holds.
    fn planted_rows(lake: &DataLake, arity: usize, seed: u64) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = Vec::new();
        for t in lake.tables.iter().skip(seed as usize % 3).step_by(3) {
            let cells: Vec<String> = t
                .row(seed as usize % t.n_rows().max(1))
                .filter_map(|v| v.normalized().map(|n| n.into_owned()))
                .collect();
            if cells.len() >= arity {
                rows.push(cells[..arity].to_vec());
            }
        }
        if let Some(first) = rows.first().cloned() {
            rows.push(vec![first[0].clone(); arity]);
        }
        rows.push((0..arity).map(|c| format!("absent-{c}")).collect());
        rows
    }

    #[test]
    fn columnar_mc_phase_matches_the_row_oracle_on_every_path() {
        for seed in 0..6u64 {
            let lake = repetitive_lake(seed);
            for kind in [EngineKind::Row, EngineKind::Column] {
                let blend = Blend::from_lake(&lake, kind);
                for arity in [2usize, 3] {
                    let rows = planted_rows(&lake, arity, seed);
                    let sql = mc_sql(&rows).replace(TID_PLACEHOLDER, "");
                    let (cols, _) = blend
                        .engine()
                        .execute_columns_interruptible(&sql, Interrupt::never())
                        .unwrap();
                    let got = mc_postprocess(&cols, &rows, 10);
                    let want = mc_postprocess_rows(&cols.to_result_set(), &rows, 10);
                    assert_eq!(got, want, "seed {seed} {kind:?} arity {arity}");
                    let (reference, _) = blend.engine().execute_reference(&sql).unwrap();
                    let want = mc_postprocess_rows(&reference, &rows, 10);
                    assert_eq!(got, want, "seed {seed} {kind:?} arity {arity}: reference");
                    assert!(
                        arity > 2 || got.1.validated > 0,
                        "seed {seed}: planted rows must validate"
                    );
                }
            }
        }
    }

    #[test]
    fn mc_postprocess_tolerates_malformed_results() {
        let rows = vec![vec!["a".to_string(), "b".to_string()]];
        let ids = || ResultColumn::Key(vec![1]);
        // A one-row text column, as the engine hands one out.
        let text = |s: &str| {
            let fact = vec![blend_storage::FactRow::new(s, 0, 0, 0, 0, None)];
            let engine = blend_sql::SqlEngine::with_alltables(blend_storage::build_engine(
                EngineKind::Row,
                fact,
            ));
            let sql = "SELECT CellValue FROM AllTables";
            let (mut cols, _) = engine
                .execute_columns_interruptible(sql, Interrupt::never())
                .unwrap();
            cols.columns.remove(0)
        };
        let labels = ["tid", "rid", "sk", "v0", "c0", "v1", "c1"];
        let well_formed = || {
            vec![
                ids(),
                ids(),
                ResultColumn::U128(vec![u128::MAX]),
                text("a"),
                ResultColumn::Key(vec![0]),
                text("b"),
                ids(),
            ]
        };
        let run = |labels: &[&str], columns: Vec<ResultColumn>| {
            let cols = ResultColumns {
                labels: labels.iter().map(|l| l.to_string()).collect(),
                columns,
            };
            mc_postprocess(&cols, &rows, 10)
        };
        let (hits, stats) = run(&labels, well_formed());
        assert_eq!((hits.len(), stats.validated), (1, 1));

        let empty = (Vec::new(), McStats::default());
        // Missing the v/c projections, then missing the id columns.
        assert_eq!(run(&labels[..3], well_formed()[..3].to_vec()), empty);
        assert_eq!(run(&labels[3..], well_formed()[3..].to_vec()), empty);
        // A column of the wrong type under each label in turn.
        for i in 0..labels.len() {
            let mut columns = well_formed();
            columns[i] = ResultColumn::Val(vec![SqlValue::Null]);
            assert_eq!(
                run(&labels, columns),
                empty,
                "wrong type under {}",
                labels[i]
            );
        }
        // A column of the wrong length.
        let mut columns = well_formed();
        columns[4] = ResultColumn::Key(vec![]);
        assert_eq!(run(&labels, columns), empty);
    }

    #[test]
    fn invalid_mc_seekers_are_typed_errors_and_never_panic() {
        use blend_common::BlendError;
        let lake = repetitive_lake(1);
        let blend = Blend::from_lake(&lake, EngineKind::Column);
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<String>>();
        let invalid = [
            vec![],
            vec![s(&["a"])],
            vec![s(&["a", "b"]), s(&["c", "d", "e"])],
            vec![s(&["a", "b", "c"]), s(&["d", "e"])],
        ];
        for rows in invalid {
            let seeker = Seeker::Mc { rows };
            // Rendering is total; `run` rejects before it renders.
            let _ = seeker_sql(&seeker, 10, 64);
            let err = run(&blend, &seeker, 10, None, &Interrupt::never()).unwrap_err();
            assert!(
                matches!(err, BlendError::InvalidInput(_)),
                "{seeker:?}: {err}"
            );
        }
        for seeker in [
            Seeker::Sc { values: vec![] },
            Seeker::Kw { keywords: vec![] },
        ] {
            let _ = seeker_sql(&seeker, 10, 64);
            let err = run(&blend, &seeker, 10, None, &Interrupt::never()).unwrap_err();
            assert!(
                matches!(err, BlendError::InvalidInput(_)),
                "{seeker:?}: {err}"
            );
        }
    }

    /// A C target with nothing to correlate — a NaN, an infinity, or one
    /// value throughout — is a typed error, not a hit with a meaningless
    /// score. On this three-row lake each of them used to score a table
    /// (`[5, 5, 5]` and `[NaN, 1, 2]` at 1/3, `[∞, 1, 2]` at 1).
    #[test]
    fn c_targets_without_correlation_are_typed_errors() {
        use blend_common::{BlendError, Column, Table, TableId};
        let table = Table::new(
            TableId(0),
            "t",
            vec![
                Column::new("k", vec!["a", "b", "c"]),
                Column::new("x", vec!["1", "2", "3"]),
            ],
        )
        .unwrap();
        let blend = Blend::from_lake(
            &DataLake::new("three-rows", vec![table]),
            EngineKind::Column,
        );
        let keys: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
        let c = |target: Vec<f64>| Seeker::C {
            keys: keys.clone(),
            target,
        };
        for target in [
            vec![5.0, 5.0, 5.0],
            vec![f64::NAN, 1.0, 2.0],
            vec![f64::INFINITY, 1.0, 2.0],
            vec![1.0, f64::NEG_INFINITY, 2.0],
        ] {
            let seeker = c(target);
            let err = run(&blend, &seeker, 10, None, &Interrupt::never()).unwrap_err();
            assert!(
                matches!(err, BlendError::InvalidInput(_)),
                "{seeker:?}: {err}"
            );
        }
        let hits = run(
            &blend,
            &c(vec![1.0, 2.0, 3.0]),
            10,
            None,
            &Interrupt::never(),
        )
        .unwrap()
        .hits;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].score, 1.0);
    }

    #[test]
    fn values_are_normalized_escaped_and_deduped() {
        let sql = sc_sql(
            &["O'Brien".into(), "  O'BRIEN ".into(), "x".into()],
            5,
            false,
        );
        assert!(sql.contains("'o''brien'"), "{sql}");
        // Deduplicated after normalization.
        assert_eq!(sql.matches("o''brien").count(), 1);
    }

    #[test]
    fn kw_groups_table_wide() {
        let sc = sc_sql(&["a".into()], 5, false);
        let kw = sc_sql(&["a".into()], 5, true);
        assert!(sc.contains("GROUP BY TableId, ColumnId"));
        assert!(kw.contains("GROUP BY TableId "));
        assert!(!kw.contains("ColumnId"));
    }

    #[test]
    fn mc_sql_joins_per_column() {
        let sql = mc_sql(&[
            vec!["hr".into(), "firenze".into()],
            vec!["it".into(), "riddle".into()],
        ]);
        assert!(sql.contains("AS q0"));
        assert!(sql.contains("AS q1"));
        assert!(sql.contains("q0.RowId = q1.RowId"));
        assert!(sql.contains("'hr'") && sql.contains("'it'"));
        // First column list holds first components, second the second.
        let q0_part = &sql[..sql.find("INNER JOIN").unwrap()];
        assert!(q0_part.contains("'hr'") && q0_part.contains("'it'"));
        assert!(!q0_part.contains("'firenze'"));
    }

    #[test]
    fn c_sql_splits_keys_by_target_mean() {
        // mean = 2.0: k below -> k0, k at/above -> k1.
        let sql = c_sql(&["low".into(), "high".into()], &[1.0, 3.0], 128);
        let k0_pos = sql.find("'low'").unwrap();
        let k1_pos = sql.find("'high'").unwrap();
        let q0 = sql.find("Quadrant = 0").unwrap();
        let q1 = sql.find("Quadrant = 1").unwrap();
        assert!(k0_pos < q0 && q0 < k1_pos && k1_pos < q1, "{sql}");
        assert!(sql.contains("RowId < 128"));
        assert!(sql.contains("keys.ColumnId <> nums.ColumnId"));
    }
}
