//! Context parity: every query runs on its caller's thread, so a context's
//! width and chunk length must not show in the output. A four-thread
//! context with five-row chunks produces **byte-identical results and
//! logical telemetry** to the sequential context — for both storage
//! engines and all four seeker SQL shapes — and records no parallel phase.

use std::sync::Arc;

use blend::plan::Seeker;
use blend::seekers::{self, Injected, TID_PLACEHOLDER};
use blend_parallel::ParallelCtx;
use blend_sql::SqlEngine;
use blend_storage::{build_engine, EngineKind, FactRow};
use proptest::prelude::*;

/// Deterministic random-ish fact rows: `n_tables` tables, each with one
/// text key column, one numeric column with quadrant bits, and one extra
/// text column, sharing a `w{i}` vocabulary so seekers hit many tables.
fn fact_rows(n_tables: u32, rows_per: u32, vocab: u32, seed: u64) -> Vec<FactRow> {
    let mut rows = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64* — cheap, deterministic, good enough for test data.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for t in 0..n_tables {
        for r in 0..rows_per {
            let sk = ((t as u128) << 64) | ((next() as u128) & 0xFFFF_FFFF);
            let key = format!("w{}", next() % vocab as u64);
            rows.push(FactRow::new(&key, t, 0, r, sk, None));
            let num = next() % 100;
            rows.push(FactRow::new(&num.to_string(), t, 1, r, sk, Some(num >= 50)));
            let extra = format!("w{}", next() % vocab as u64);
            rows.push(FactRow::new(&extra, t, 2, r, sk, None));
        }
    }
    rows
}

/// The four seeker templates over a shared vocabulary sample, rendered to
/// SQL with the rewriter placeholder dropped — and SC/KW once more with an
/// injected `TableId NOT IN` filter, which keeps the value-index drive.
/// Each comes with whether it is SC/KW: on the column store those count
/// off the column index and reported as such; on the row store they scan
/// and group by hash, like MC and C.
fn seeker_sqls(vocab: u32) -> Vec<(&'static str, String, bool)> {
    let w = |i: u32| format!("w{}", i % vocab);
    let vals: Vec<String> = (0..6).map(w).collect();
    let not_t0 = Injected::NotIn(vec![0]).fragment();
    let shapes = vec![
        ("sc", Seeker::sc(vals.clone()), "", true),
        ("kw", Seeker::kw(vals.clone()), "", true),
        ("sc+tid", Seeker::sc(vals.clone()), not_t0.as_str(), true),
        ("kw+tid", Seeker::kw(vals.clone()), not_t0.as_str(), true),
        (
            "mc",
            Seeker::mc(vec![vec![w(0), w(1)], vec![w(2), w(3)]]),
            "",
            false,
        ),
        (
            "c",
            Seeker::c(vals, vec![3.0, 17.0, 5.0, 29.0, 11.0, 23.0]),
            "",
            false,
        ),
    ];
    shapes
        .into_iter()
        .map(|(label, s, tid, sc_kw)| {
            let sql = seekers::seeker_sql(&s, 10, 8).replace(TID_PLACEHOLDER, tid);
            (label, sql, sc_kw)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn all_shapes_are_thread_count_invariant(
        n_tables in 2u32..6,
        rows_per in 4u32..24,
        vocab in 3u32..10,
        seed in any::<u64>(),
    ) {
        let rows = fact_rows(n_tables, rows_per, vocab, seed);
        for kind in [EngineKind::Row, EngineKind::Column] {
            let fact = build_engine(kind, rows.clone());
            for (label, sql, sc_kw) in seeker_sqls(vocab) {
                let by_columns = sc_kw && kind == EngineKind::Column;
                // Reference: sequential positional execution.
                let reference = SqlEngine::with_alltables(fact.clone())
                    .with_parallel(Arc::new(ParallelCtx::sequential()));
                let (want, want_rep) = reference
                    .execute_with_report(&sql)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                prop_assert_eq!(&want_rep.path, "positional", "{} must route positionally", label);
                prop_assert!(want_rep.parallel.is_empty());

                // The reference agrees (cross-executor anchor).
                let (tuple, tuple_rep) = reference.execute_reference(&sql).unwrap();
                prop_assert_eq!(&want, &tuple, "{}/{:?}: reference parity", label, kind);
                if by_columns {
                    prop_assert_eq!(&want_rep.scans[0].access, "column-index");
                } else {
                    prop_assert_eq!(&want_rep.scans, &tuple_rep.scans);
                }
                prop_assert_eq!(&want_rep.joins, &tuple_rep.joins);

                // A wide context with chunks of 5 rows, so every loop of
                // even property-sized inputs crosses chunk boundaries.
                let eng = SqlEngine::with_alltables(fact.clone())
                    .with_parallel(Arc::new(ParallelCtx::with_tuning(4, 5)));
                let (got, rep) = eng
                    .execute_with_report(&sql)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                prop_assert_eq!(
                    &got, &want,
                    "{}/{:?}: results must be byte-identical", label, kind
                );
                prop_assert!(
                    rep.logical_eq(&want_rep),
                    "{}/{:?}: logical telemetry must match", label, kind
                );
                prop_assert!(rep.parallel.is_empty());
            }
        }
    }
}

/// Full seeker runs (SQL generation + application phases) through a `Blend`
/// system agree between the sequential and a four-thread, five-row-chunk
/// context — the end-to-end view of the same invariant.
#[test]
fn end_to_end_seeker_hits_are_thread_count_invariant() {
    let rows = fact_rows(5, 30, 8, 0xB1EBD);
    let fact = build_engine(EngineKind::Column, rows);
    let vals: Vec<String> = (0..5).map(|i| format!("w{i}")).collect();
    let seekers_under_test = vec![
        ("sc", Seeker::sc(vals.clone())),
        ("kw", Seeker::kw(vals.clone())),
        (
            "mc",
            Seeker::mc(vec![
                vec!["w0".into(), "w1".into()],
                vec!["w2".into(), "w3".into()],
            ]),
        ),
        ("c", Seeker::c(vals, vec![1.0, 9.0, 2.0, 8.0, 3.0])),
    ];

    let mut reference = blend::Blend::new(fact.clone());
    reference.set_parallel(Arc::new(ParallelCtx::sequential()));
    for (label, seeker) in seekers_under_test {
        let want = seekers::run(&reference, &seeker, 10, None, &blend::Interrupt::never()).unwrap();
        let mut blend = blend::Blend::new(fact.clone());
        blend.set_parallel(Arc::new(ParallelCtx::with_tuning(4, 5)));
        let got = seekers::run(&blend, &seeker, 10, None, &blend::Interrupt::never()).unwrap();
        let text = |b: &blend::Blend| seekers::seeker_sql(&seeker, 10, b.options().h);
        assert_eq!(text(&blend), text(&reference), "{label}");
        assert_eq!(got.mc_stats, want.mc_stats, "{label}");
        let hits = |run: &seekers::SeekerRun| -> Vec<(u32, f64)> {
            run.hits.iter().map(|h| (h.table.0, h.score)).collect()
        };
        assert_eq!(hits(&got), hits(&want), "{label}");
    }
}
