//! Seeker implementations (paper Section VI): each seeker's SQL over
//! `AllTables` (Listings 1–3), and the four operators that answer it.
//!
//! **Four operators, one model.** No seeker runs SQL: each listing is a
//! question one operator over the `FactTable` snapshot answers directly,
//! returning what the SQL and its application phase return. [`run`]
//! normalizes each value list once and deduplicates it on the normalized
//! `&str`s; an injection cuts what the operator reads to the allowed
//! tables (`crate::postings`). The SQL text ([`seeker_sql`] with the
//! injected fragment) is rendered only for a report (`OpExecution::sql`),
//! and runs, unchanged, wherever it is submitted as text (the served path).
//!
//! * **SC and KW** (`crate::sc`) count each (table, column) group's
//!   distinct query values (KW: each table's) off each value's run list —
//!   the column index's, or its postings mapped to their runs — through the
//!   walk the SQL executor's column-index grouping also runs, and rank by
//!   score, then `TableId`.
//! * **MC** (`crate::mc`) reads the lists' postings, numbers the lake rows
//!   by their row ordinals in the store's directory, from the rarest
//!   column in MATE's order (the Table V baseline,
//!   `blend_baselines::mate`) and validates each row's (position, list
//!   index) pairs against per-value bitsets of query rows, reading each
//!   pair row's super key once: Listing 2's join and the paper's two
//!   filter steps ([`McStats`]). It cuts every query column's postings,
//!   not only `q0`'s as the SQL does: a joined row lies in one table.
//! * **C** (`crate::c`) reads the keys' postings (cut to `RowId < h`),
//!   finds each key cell's row partners with the directory's `locate` and
//!   scores each (table, key column, numeric column) group's quadrant
//!   concordance with the engine's arithmetic (Listing 3).
//!
//! `tests/bound_parity.rs` holds every kind to its SQL text through the
//! reference interpreter, with the replaced application phases as oracles
//! (`tests/common/`).

use std::borrow::Cow;

use blend_common::{stats::mean, text, FxHashMap, Result};
use blend_obs::SpanGuard;
use blend_parallel::Interrupt;

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
        let list = |ids: &[u32]| ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
        match self {
            // An empty intersection can never match; `run()` short-circuits
            // before rendering, but the fragment must still be valid SQL
            // (`IN ()` is not), so render a never-true predicate.
            Injected::In(ids) if ids.is_empty() => "AND 1 = 0".to_string(),
            Injected::In(ids) => format!("AND TableId IN ({})", list(ids)),
            Injected::NotIn(ids) if ids.is_empty() => String::new(),
            Injected::NotIn(ids) => format!("AND TableId NOT IN ({})", list(ids)),
        }
    }
}

/// A list as SQL string literals: quoted with `''` escaping and
/// comma-separated.
fn join_values(values: &[&str]) -> String {
    let mut s = String::with_capacity(values.iter().map(|v| v.len() + 3).sum());
    for v in values {
        s.push_str(if s.is_empty() { "'" } else { ",'" });
        for (i, part) in v.split('\'').enumerate() {
            s.push_str(if i > 0 { "''" } else { "" });
            s.push_str(part);
        }
        s.push('\'');
    }
    s
}

/// A seeker's value lists in the order its operator reads them, each
/// value normalized as the indexer normalizes cells: SC/KW's one list,
/// MC's one per query column, C's keys (split by [`in_k0`]).
fn normalized_lists(seeker: &Seeker) -> Vec<Vec<Cow<'_, str>>> {
    fn norm<'s>(vs: impl Iterator<Item = &'s String>) -> Vec<Cow<'s, str>> {
        vs.map(|v| text::normalize_cow(v)).collect()
    }
    match seeker {
        Seeker::Sc { values } => vec![norm(values.iter())],
        Seeker::Kw { keywords } => vec![norm(keywords.iter())],
        // The first row sets the arity; `run` rejects anything else
        // (`Seeker::validate`), and rendering it must not panic.
        Seeker::Mc { rows } => (0..rows.first().map_or(0, Vec::len))
            .map(|c| norm(rows.iter().filter_map(|r| r.get(c))))
            .collect(),
        Seeker::C { keys, .. } => vec![norm(keys.iter())],
    }
}

/// Per C key, whether it is in `k0` (its target below the targets' mean)
/// rather than `k1`: the split happens before query generation, exactly as
/// the paper describes.
fn in_k0(target: &[f64]) -> impl Iterator<Item = bool> + '_ {
    let m = mean(target).unwrap_or(0.0);
    target.iter().map(move |t| *t < m)
}

/// The distinct values of a list, first occurrence kept, and each entry's
/// index among them.
fn distinct<'v>(list: &'v [Cow<'_, str>]) -> (Vec<&'v str>, Vec<u32>) {
    let mut seen: FxHashMap<&str, u32> = FxHashMap::default();
    seen.reserve(list.len());
    let (mut values, mut ids) = (Vec::new(), Vec::with_capacity(list.len()));
    for v in list {
        ids.push(*seen.entry(v).or_insert_with(|| {
            values.push(&**v);
            values.len() as u32 - 1
        }));
    }
    (values, ids)
}

/// One executed seeker: its hits and MC bookkeeping.
#[derive(Debug, Clone)]
pub struct SeekerRun {
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
    /// Candidate rows the postings join and the super-key filter emit.
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
    render(seeker, k, h, TID_PLACEHOLDER)
}

/// The SQL text a [`run`] with `injected` answers: [`seeker_sql`] with the
/// injected fragment, or `""` for a run an empty `In` short-circuits.
pub(crate) fn executed_sql(
    seeker: &Seeker,
    k: usize,
    h: usize,
    injected: Option<&Injected>,
) -> String {
    let fragment = injected.map_or(String::new(), Injected::fragment);
    match injected {
        Some(Injected::In(ids)) if ids.is_empty() => String::new(),
        _ => render(seeker, k, h, &fragment),
    }
}

/// A seeker's SQL with each of its lists ([`normalized_lists`]; C's keys
/// also split into `k0` and `k1`) spelled distinct, and `tid` in place of
/// [`TID_PLACEHOLDER`].
fn render(seeker: &Seeker, k: usize, h: usize, tid: &str) -> String {
    let norm = normalized_lists(seeker);
    let spell = |list: &[Cow<'_, str>]| join_values(&distinct(list).0);
    let lists: Vec<String> = norm.iter().map(|l| spell(l)).collect();
    match seeker {
        Seeker::Sc { .. } => sc_sql(&lists[0], tid, k, false),
        Seeker::Kw { .. } => sc_sql(&lists[0], tid, k, true),
        Seeker::Mc { .. } => mc_sql(&lists, tid),
        Seeker::C { target, .. } => {
            let split = |k0: bool| {
                let keys = norm[0].iter().zip(in_k0(target)).filter(|k| k.1 == k0);
                spell(&keys.map(|k| k.0.clone()).collect::<Vec<_>>())
            };
            c_sql(&split(true), &split(false), &lists[0], tid, h)
        }
    }
}

/// Listing 1 (extended with an explicit score column and table-granularity
/// over-fetch; see module docs). `table_wide` drops ColumnId from GROUP BY,
/// turning SC into KW.
fn sc_sql(vals: &str, tid: &str, k: usize, table_wide: bool) -> String {
    let group = if table_wide {
        "TableId"
    } else {
        "TableId, ColumnId"
    };
    // Over-fetch: several (table, column) groups may share a table.
    let fetch = k.saturating_mul(4).saturating_add(8);
    format!(
        "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS score FROM AllTables \
         WHERE CellValue IN ({vals}) {tid} \
         GROUP BY {group} \
         ORDER BY score DESC \
         LIMIT {fetch}",
    )
}

/// Listing 2, generalized to any arity, with explicit projection so the
/// application phase can read values/columns/super keys by label.
fn mc_sql(lists: &[String], tid: &str) -> String {
    let arity = lists.len();
    let mut proj = vec![
        "q0.TableId AS tid".to_string(),
        "q0.RowId AS rid".to_string(),
        "q0.SuperKey AS sk".to_string(),
    ];
    for c in 0..arity {
        proj.push(format!("q{c}.CellValue AS v{c}"));
        proj.push(format!("q{c}.ColumnId AS c{c}"));
    }
    let mut sql = format!(
        "SELECT {} FROM (SELECT * FROM AllTables WHERE CellValue IN ({}) {tid}) AS q0",
        proj.join(", "),
        lists.first().map_or("", String::as_str),
    );
    for (c, vals) in lists.iter().enumerate().skip(1) {
        sql.push_str(&format!(
            " INNER JOIN (SELECT * FROM AllTables WHERE CellValue IN ({vals})) AS q{c} \
             ON q0.TableId = q{c}.TableId AND q0.RowId = q{c}.RowId",
        ));
    }
    sql
}

/// Listing 3: the correlation seeker with the in-SQL QCR score
/// `ABS((2*SUM(concordant)-COUNT(*))/COUNT(*))` ([`normalized_lists`]).
fn c_sql(k0: &str, k1: &str, all: &str, tid: &str, h: usize) -> String {
    format!(
        "SELECT keys.TableId AS t, keys.ColumnId AS kc, nums.ColumnId AS nc, \
         ABS((2 * SUM(((keys.CellValue IN ({k0}) AND nums.Quadrant = 0) OR \
         (keys.CellValue IN ({k1}) AND nums.Quadrant = 1))::int) - COUNT(*)) / COUNT(*)) AS score, \
         COUNT(*) AS n \
         FROM (SELECT * FROM AllTables WHERE RowId < {h} AND CellValue IN ({all}) {tid}) keys \
         INNER JOIN (SELECT * FROM AllTables WHERE RowId < {h} AND Quadrant IS NOT NULL) nums \
         ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId \
         AND keys.ColumnId <> nums.ColumnId \
         GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId \
         ORDER BY score DESC",
    )
}

/// Execute a seeker against the BLEND engine (module docs).
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
                hits: Vec::new(),
                mc_stats: matches!(seeker, Seeker::Mc { .. }).then(McStats::default),
            });
        }
    }
    let options = blend.options();
    let bind = blend_obs::span("bind");
    let norm = normalized_lists(seeker);
    let (lists, ids): (Vec<Vec<&str>>, Vec<Vec<u32>>) = norm.iter().map(|l| distinct(l)).unzip();
    // Per distinct C key, the lists that hold it: bit 0 `k0`, bit 1 `k1`.
    let mut tags = Vec::new();
    if let Seeker::C { target, .. } = seeker {
        tags.resize(lists[0].len(), 0);
        for (&i, k0) in ids[0].iter().zip(in_k0(target)) {
            tags[i as usize] |= if k0 { 1 } else { 2 };
        }
    }
    drop(bind);
    let (fact, governor) = (&*blend.fact, blend.parallel.governor());
    let sc =
        |per_table| crate::sc::run(fact, &lists[0], per_table, injected, k, interrupt, governor);
    let (hits, mc_stats) = match seeker {
        Seeker::Sc { .. } => (sc(false)?, None),
        Seeker::Kw { .. } => (sc(true)?, None),
        Seeker::Mc { .. } => {
            let run = crate::mc::run(fact, &norm, &lists, injected, k, interrupt, governor)?;
            (run.0, Some(run.1))
        }
        Seeker::C { .. } => {
            let keys = crate::c::Keys {
                values: &lists[0],
                tags: &tags,
            };
            let hits = crate::c::run(fact, keys, injected, k, options, interrupt, governor)?;
            (hits, None)
        }
    };
    Ok(SeekerRun { hits, mc_stats })
}

/// Record what an application phase's filter kept on its `postprocess`
/// span: the candidates, and those that validated.
pub(crate) fn note_filter(span: &SpanGuard, stats: McStats) {
    span.attr_u64("candidates", stats.candidates as u64);
    span.attr_u64("validated", stats.validated as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use blend_lake::web::{generate, WebLakeConfig};
    use blend_lake::DataLake;
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
            // Rendering is total, and `run` rejects the seeker.
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
        let seeker = Seeker::sc(vec!["O'Brien".into(), "  O'BRIEN ".into(), "x".into()]);
        let sql = seeker_sql(&seeker, 5, 64);
        assert!(sql.contains("'o''brien'"), "{sql}");
        // Deduplicated after normalization.
        assert_eq!(sql.matches("o''brien").count(), 1);
    }

    #[test]
    fn kw_groups_table_wide() {
        let sc = seeker_sql(&Seeker::sc(vec!["a".into()]), 5, 64);
        let kw = seeker_sql(&Seeker::kw(vec!["a".into()]), 5, 64);
        assert!(sc.contains("GROUP BY TableId, ColumnId"));
        assert!(kw.contains("GROUP BY TableId "));
        assert!(!kw.contains("ColumnId"));
    }

    #[test]
    fn mc_sql_joins_per_column() {
        let seeker = Seeker::mc(vec![
            vec!["hr".into(), "firenze".into()],
            vec!["it".into(), "riddle".into()],
        ]);
        let sql = seeker_sql(&seeker, 10, 64);
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
        let seeker = Seeker::c(vec!["low".into(), "high".into()], vec![1.0, 3.0]);
        let sql = seeker_sql(&seeker, 10, 128);
        let k0_pos = sql.find("'low'").unwrap();
        let k1_pos = sql.find("'high'").unwrap();
        let q0 = sql.find("Quadrant = 0").unwrap();
        let q1 = sql.find("Quadrant = 1").unwrap();
        assert!(k0_pos < q0 && q0 < k1_pos && k1_pos < q1, "{sql}");
        assert!(sql.contains("RowId < 128"));
        assert!(sql.contains("keys.ColumnId <> nums.ColumnId"));
    }
}
