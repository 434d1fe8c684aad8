//! Flat join/group parity: the positional executor's keyed operators —
//! grouping through `blend_storage::hashtable::GroupIndex`, and the join on
//! dense key ids (build keys numbered by a `GroupIndex`, each id's build
//! rows listed by `blend_storage::radix_partition`, probe keys looked up with
//! `GroupIndex::get_hashed`) — must reproduce map-based references
//! **byte-for-byte** — at the operator level against this file's
//! `oracle::{join_pairs, group_ids}` over random key arrays, and
//! end-to-end against the reference executor across both storage engines ×
//! join/group key widths {1, 2, 4}, float aggregates included, in five-row
//! chunks.

use blend_sql::{ParallelCtx, SqlEngine};
use blend_storage::{build_engine, radix_partition, DenseKey, EngineKind, FactRow, GroupIndex};
use proptest::prelude::*;
use std::sync::Arc;

// ---- operator-level parity -------------------------------------------------

/// Map-based references sharing no code with the flat operators: per-key
/// `Vec` match lists in ascending build order, dense group ids in
/// first-seen order.
mod oracle {
    use std::collections::HashMap;
    use std::hash::Hash;

    /// `(probe row, build row)` pairs in probe-row order, each probe row's
    /// matches ascending.
    pub fn join_pairs<K: Copy + Eq + Hash>(build: &[K], probe: &[K]) -> Vec<(u32, u32)> {
        let mut table: HashMap<K, Vec<u32>> = HashMap::new();
        for (i, &k) in build.iter().enumerate() {
            table.entry(k).or_default().push(i as u32);
        }
        let mut out = Vec::new();
        for (i, k) in probe.iter().enumerate() {
            for &b in table.get(k).into_iter().flatten() {
                out.push((i as u32, b));
            }
        }
        out
    }

    /// `(group id per row, first row per group)`.
    pub fn group_ids<K: Copy + Eq + Hash>(keys: &[K]) -> (Vec<u32>, Vec<u32>) {
        let mut index: HashMap<K, u32> = HashMap::new();
        let mut first_rows: Vec<u32> = Vec::new();
        let gids = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                *index.entry(k).or_insert_with(|| {
                    first_rows.push(i as u32);
                    first_rows.len() as u32 - 1
                })
            })
            .collect();
        (gids, first_rows)
    }
}

/// Join on dense key ids, as the executor runs it on packed keys: the
/// build keys numbered by a [`GroupIndex`], each id's build rows listed
/// ascending by `radix_partition`, and each probe key looked up with
/// `get_hashed`. (probe row, build row) pairs in probe order.
fn flat_pairs<K: DenseKey + Copy>(build: &[K], probe: &[K]) -> Vec<(u32, u32)> {
    let mut index: GroupIndex<K> = GroupIndex::with_capacity(build.len()).unwrap();
    let ids: Vec<u32> = (build.iter())
        .map(|&k| index.insert_or_get(k).unwrap())
        .collect();
    let lists = radix_partition(&ids, index.len()).unwrap();
    let mut out = Vec::new();
    for (i, &k) in probe.iter().enumerate() {
        if let Some(id) = index.get_hashed(&k, k.hash64()) {
            out.extend(lists.part(id as usize).iter().map(|&b| (i as u32, b)));
        }
    }
    out
}

/// Flat group index: (gid per row, first row per group) like the oracle.
fn flat_group_ids<K: DenseKey + Copy>(keys: &[K]) -> (Vec<u32>, Vec<u32>) {
    let mut index: GroupIndex<K> = GroupIndex::with_capacity(8).unwrap();
    let mut first_rows = Vec::new();
    let gids = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let before = index.len();
            let gid = index.insert_or_get(k).unwrap();
            if index.len() != before {
                first_rows.push(i as u32);
            }
            gid
        })
        .collect();
    (gids, first_rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flat_join_matches_map_oracle_u64(
        build in proptest::collection::vec(0u64..40, 0..200),
        probe in proptest::collection::vec(0u64..40, 0..200),
    ) {
        prop_assert_eq!(flat_pairs(&build, &probe), oracle::join_pairs(&build, &probe));
    }

    #[test]
    fn flat_join_matches_map_oracle_u128(
        // Wide keys with entropy in both halves of the u128.
        build in proptest::collection::vec((0u64..12, 0u64..5), 0..150),
        probe in proptest::collection::vec((0u64..12, 0u64..5), 0..150),
    ) {
        let widen = |v: &[(u64, u64)]| -> Vec<u128> {
            v.iter().map(|&(hi, lo)| ((hi as u128) << 96) | lo as u128).collect()
        };
        let (build, probe) = (widen(&build), widen(&probe));
        prop_assert_eq!(flat_pairs(&build, &probe), oracle::join_pairs(&build, &probe));
    }

    #[test]
    fn flat_group_index_matches_map_oracle(
        keys in proptest::collection::vec(any::<u64>(), 0..400),
        narrow in proptest::collection::vec(0u64..7, 0..400),
    ) {
        // Wide-spread and heavily-colliding key distributions.
        prop_assert_eq!(flat_group_ids(&keys), oracle::group_ids(&keys));
        prop_assert_eq!(flat_group_ids(&narrow), oracle::group_ids(&narrow));
    }
}

// ---- end-to-end parity -----------------------------------------------------

/// Deterministic fact rows: 3 columns per row (text key, numeric with
/// quadrant bits, extra text) so joins have fan-out and distinct counting
/// sees repeats.
fn fact_rows(n_tables: u32, rows_per: u32, vocab: u32, seed: u64) -> Vec<FactRow> {
    let mut rows = Vec::new();
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for t in 0..n_tables {
        for r in 0..rows_per {
            let sk = ((t as u128) << 64) | ((next() as u128) & 0xFFFF_FFFF);
            rows.push(FactRow::new(
                &format!("w{}", next() % vocab as u64),
                t,
                0,
                r,
                sk,
                None,
            ));
            let num = next() % 100;
            rows.push(FactRow::new(&num.to_string(), t, 1, r, sk, Some(num >= 50)));
            rows.push(FactRow::new(
                &format!("w{}", next() % vocab as u64),
                t,
                2,
                r,
                sk,
                None,
            ));
        }
    }
    rows
}

/// The query matrix: join key widths {1, 2, 4} (width 4 via a repeated
/// equality — the planner keeps duplicates, and the packed key stays
/// injective regardless) and group key widths {1, 2, 4}, plus a float AVG
/// that only the radix-partitioned group path can parallelize exactly.
fn queries() -> Vec<(&'static str, String)> {
    let join = |on: &str| {
        format!(
            "SELECT q0.TableId AS t, q0.ColumnId AS c0, q1.ColumnId AS c1, \
             q0.RowId AS r, COUNT(*) AS n, COUNT(DISTINCT q1.CellValue) AS s \
             FROM (SELECT * FROM AllTables WHERE RowId < 9) AS q0 INNER JOIN \
             (SELECT * FROM AllTables WHERE RowId < 9) AS q1 ON {on} \
             GROUP BY q0.TableId, q0.ColumnId, q1.ColumnId, q0.RowId \
             ORDER BY n DESC, t, c0, c1, r LIMIT 64"
        )
    };
    vec![
        ("join-w1", join("q0.RowId = q1.RowId")),
        (
            "join-w2",
            join("q0.TableId = q1.TableId AND q0.RowId = q1.RowId"),
        ),
        (
            "join-w4",
            join(
                "q0.TableId = q1.TableId AND q0.ColumnId = q1.ColumnId AND \
                 q0.RowId = q1.RowId AND q0.TableId = q1.TableId",
            ),
        ),
        (
            "group-w1",
            "SELECT TableId AS t, COUNT(DISTINCT CellValue) AS s, COUNT(*) AS n, \
             MIN(RowId) AS lo, MAX(RowId) AS hi FROM AllTables GROUP BY TableId \
             ORDER BY s DESC, t"
                .to_string(),
        ),
        (
            "group-w2",
            "SELECT TableId AS t, ColumnId AS c, COUNT(DISTINCT CellValue) AS s \
             FROM AllTables WHERE RowId < 14 GROUP BY TableId, ColumnId \
             ORDER BY s DESC, t, c"
                .to_string(),
        ),
        (
            "group-w4",
            "SELECT TableId AS t, COUNT(*) AS n FROM AllTables \
             GROUP BY TableId, ColumnId, RowId, TableId ORDER BY n DESC, t LIMIT 40"
                .to_string(),
        ),
        (
            "group-float-avg",
            "SELECT TableId AS t, AVG(RowId) AS a, SUM(RowId / 2) AS s FROM AllTables \
             GROUP BY TableId ORDER BY t"
                .to_string(),
        ),
    ]
}

#[test]
fn flat_executor_is_byte_identical_across_stores_widths_and_threads() {
    let rows = fact_rows(7, 23, 9, 0xF1A7);
    for kind in [EngineKind::Row, EngineKind::Column] {
        // Reference: the tuple-at-a-time reference executor (the retained
        // map-based oracle for whole queries).
        let reference = SqlEngine::with_alltables(build_engine(kind, rows.clone()))
            .with_parallel(Arc::new(ParallelCtx::sequential()));
        for (label, sql) in queries() {
            let (want, _) = reference.execute_reference(&sql).unwrap();
            // Logical telemetry does not depend on the chunk length.
            let (_, logical_ref) = reference.execute_with_report(&sql).unwrap();
            // Five-row chunks, so every loop crosses chunk boundaries.
            let eng = SqlEngine::with_alltables(build_engine(kind, rows.clone()))
                .with_parallel(Arc::new(ParallelCtx::with_tuning(1, 5)));
            let (got, rep) = eng.execute_with_report(&sql).unwrap();
            assert_eq!(rep.path, "positional", "{kind:?}/{label}");
            assert_eq!(got, want, "{kind:?}/{label} vs the reference");
            assert!(
                rep.logical_eq(&logical_ref),
                "{kind:?}/{label} telemetry drift"
            );
            // Flat-table telemetry was recorded for every hash join and
            // keyed group phase, with sane shapes. `join-w2` is row-keyed on
            // either store: it matches row ordinals and builds no hash
            // table.
            let join_path = match label {
                "join-w2" => Some("rows"),
                _ if label.starts_with("join") => Some("hash"),
                _ => None,
            };
            let profile = rep.profile.as_ref().expect("profile collected");
            let build_path = profile
                .find("join.build")
                .and_then(|b| b.attr("path"))
                .map(ToString::to_string);
            assert_eq!(
                build_path.as_deref(),
                join_path,
                "{kind:?}/{label} join path"
            );
            assert_eq!(
                rep.hash_tables.iter().any(|h| h.phase == "join"),
                join_path == Some("hash"),
                "{kind:?}/{label} join stats"
            );
            assert!(
                rep.hash_tables.iter().any(|h| h.phase == "group"),
                "{kind:?}/{label} group stats"
            );
            for h in &rep.hash_tables {
                assert_eq!(h.partitions, 1);
                assert!(h.buckets >= 1);
            }
        }
    }
}

/// Key packing must stay injective for the widths the executor admits:
/// distinct (TableId, ColumnId, RowId) triples joined on 3 keys match only
/// themselves — a packing collision would produce cross matches and break
/// the COUNT below.
#[test]
fn wide_key_self_join_counts_every_row_exactly_once() {
    let rows = fact_rows(5, 11, 6, 0xBEE);
    let n = rows.len();
    for kind in [EngineKind::Row, EngineKind::Column] {
        let eng = SqlEngine::with_alltables(build_engine(kind, rows.clone()));
        let (rs, rep) = eng
            .execute_with_report(
                "SELECT COUNT(*) AS n FROM \
                 (SELECT * FROM AllTables) AS q0 INNER JOIN (SELECT * FROM AllTables) AS q1 \
                 ON q0.TableId = q1.TableId AND q0.ColumnId = q1.ColumnId AND \
                 q0.RowId = q1.RowId",
            )
            .unwrap();
        assert_eq!(rep.path, "positional", "{kind:?}");
        // Each (table, column, row) cell is unique in this lake, so the
        // 3-key self join is exactly the identity.
        assert_eq!(rs.i64(0, "n"), Some(n as i64), "{kind:?}");
    }
}
