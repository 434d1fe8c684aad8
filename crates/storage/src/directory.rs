//! The canonical-order directory both stores own: where a table's cells,
//! column runs and rows lie is a property of the (`TableId`, `ColumnId`,
//! `RowId`) order both engines hold ([`canonical_sort`](crate::fact::canonical_sort)),
//! not of a layout.

use std::ops::Range;

use blend_common::{try_vec_with_capacity, try_zeroed_vec, BlendError, Result};

use crate::coded::{CodedCell, CodedPart};
use crate::fact::cut_to_ranges;
use crate::filter::IdSet;

/// The canonical-order directory of a store's `n` cells.
///
/// * **Tables**: per `TableId`, its contiguous position range (empty for
///   an id that holds no cell).
/// * **Runs**: the maximal stretches of positions sharing (`TableId`,
///   `ColumnId`), numbered `0..R` in order, so run ordinals ascend with
///   (table, column) and a table's are contiguous; per run its key and its
///   first position, then `n`.
/// * **Rows**: the lake's rows — distinct (`TableId`, `RowId`) pairs —
///   numbered densely: table `t` owns the row ordinals `row_base[t] ..
///   row_base[t + 1]`, one per distinct `RowId` of its cells, in `RowId`
///   order. So ordinals ascend with (`TableId`, `RowId`), and the ordinal
///   space `r` is at most one per cell.
/// * **Cells**: per position, its run ordinal and its row ordinal.
///
/// Every vector is held at exact capacity; [`components`](Self::components)
/// charges them — `T` table ids:
///
/// | component       | contents                                                  | bytes              |
/// |-----------------|-----------------------------------------------------------|--------------------|
/// | `table-ranges`  | per table id, its position range                          | `8 T`              |
/// | `runs`          | per run: (`TableId`, `ColumnId`) and first position, then `n` | `12 R + 4`     |
/// | `row-directory` | per table id its first row ordinal, then `r`; per row its `RowId` | `4 (T + 1) + 4 r` |
/// | `cell-ordinals` | per cell: run ordinal, row ordinal (`u32`)                | `8 n`              |
#[derive(Debug, PartialEq, Eq)]
pub struct Directory {
    /// Per table id, its position range.
    ranges: Vec<(u32, u32)>,
    /// Per run ordinal: (`TableId`, `ColumnId`), and its first position
    /// (then `n`).
    keys: Vec<(u32, u32)>,
    starts: Vec<u32>,
    /// Per table id, its first row ordinal (then `r`); per row ordinal, its
    /// `RowId`.
    row_base: Vec<u32>,
    row_ids: Vec<u32>,
    /// Per position: run ordinal and row ordinal.
    runs: Vec<u32>,
    ords: Vec<u32>,
}

impl Directory {
    /// Build the directory of the parts' cells, in canonical order end to
    /// end, in one pass over them, handing each cell to `each` with its
    /// part's index and its row ordinal — where a store fills what it keeps
    /// per cell or per row. The whole pass is the span `index.directory`.
    ///
    /// A table's row ordinals are its sorted distinct `RowId`s, read off its
    /// cells before they are visited (marked in a bitmap where every one is
    /// below the cell count, sorted otherwise); a cell's is the rank of its
    /// `RowId` among them — the `RowId` itself when they are `0..rows`.
    pub fn build(parts: &[CodedPart], mut each: impl FnMut(usize, &CodedCell, u32)) -> Self {
        let _span = blend_obs::span("index.directory");
        let n = parts.iter().map(|p| p.cells.len()).sum();
        let last = parts.iter().rev().find_map(|p| p.cells.last());
        let n_tables = last.map_or(0, |c| c.table as usize + 1);
        let mut ranges = vec![(0, 0); n_tables];
        let (mut keys, mut starts, mut row_ids) = (Vec::new(), Vec::new(), Vec::new());
        let mut row_base = Vec::with_capacity(n_tables + 1);
        let (mut runs, mut ords) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut table_rows, mut seen, mut s) = (Vec::new(), Vec::new(), 0);
        let tables = parts.iter().enumerate().flat_map(|(p, part)| {
            (part.cells.chunk_by(|a, b| a.table == b.table)).map(move |cells| (p, cells))
        });
        for (p, cells) in tables {
            let t = cells[0].table as usize;
            ranges[t] = (s, s + cells.len() as u32);
            table_rows.clear();
            let max = cells.iter().map(|r| r.row as usize).max().unwrap_or(0);
            if max < cells.len() {
                seen.clear();
                seen.resize(max + 1, false);
                cells.iter().for_each(|r| seen[r.row as usize] = true);
                table_rows.extend((0..=max as u32).filter(|&r| seen[r as usize]));
            } else {
                table_rows.extend(cells.iter().map(|r| r.row));
                table_rows.sort_unstable();
                table_rows.dedup();
            }
            // This table's first row ordinal, and that of the ids before it
            // that hold no cell.
            let base = row_ids.len();
            row_base.resize(t + 1, base as u32);
            row_ids.extend_from_slice(&table_rows);
            let dense = table_rows
                .last()
                .is_some_and(|&r| r as usize + 1 == table_rows.len());
            for r in cells {
                if keys.last() != Some(&(r.table, r.column)) {
                    keys.push((r.table, r.column));
                    starts.push(s);
                }
                s += 1;
                runs.push(keys.len() as u32 - 1);
                let rank = match dense {
                    true => r.row as usize,
                    false => table_rows.partition_point(|&x| x < r.row),
                };
                let ord = (base + rank) as u32;
                ords.push(ord);
                each(p, r, ord);
            }
        }
        row_base.push(row_ids.len() as u32);
        starts.push(n as u32);
        keys.shrink_to_fit();
        starts.shrink_to_fit();
        row_ids.shrink_to_fit();
        Directory {
            ranges,
            keys,
            starts,
            row_base,
            row_ids,
            runs,
            ords,
        }
    }

    /// Number of cells, `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when the store holds no cell.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of table ids, `T`: one past the largest that holds a cell.
    pub fn n_tables(&self) -> u32 {
        self.ranges.len() as u32
    }

    /// Number of tables that hold a cell.
    pub fn present_tables(&self) -> usize {
        self.ranges.iter().filter(|(s, e)| e > s).count()
    }

    /// Number of (`TableId`, `ColumnId`) runs, `R`.
    pub fn runs(&self) -> usize {
        self.keys.len()
    }

    /// Number of rows, `r`: the row-ordinal space.
    pub fn rows(&self) -> usize {
        self.row_ids.len()
    }

    /// (`TableId`, `ColumnId`) of run `ordinal` (`ordinal < runs()`).
    #[inline]
    pub fn key(&self, ordinal: u32) -> (u32, u32) {
        self.keys[ordinal as usize]
    }

    /// (`TableId`, `ColumnId`) of the cell at `pos`.
    #[inline]
    pub fn key_at(&self, pos: usize) -> (u32, u32) {
        self.keys[self.runs[pos] as usize]
    }

    /// Row ordinal of the cell at `pos`.
    #[inline]
    pub fn row_ordinal_at(&self, pos: usize) -> u32 {
        self.ords[pos]
    }

    /// Run ordinal of every cell, by position.
    pub(crate) fn cell_run_ordinals(&self) -> &[u32] {
        &self.runs
    }

    /// `RowId` of the cell at `pos`.
    #[inline]
    pub fn row_at(&self, pos: usize) -> u32 {
        self.row_ids[self.ords[pos] as usize]
    }

    /// The in-DB table index: the contiguous position range of `table`
    /// (empty for an id that holds no cell).
    pub fn table_postings(&self, table: u32) -> Range<usize> {
        match self.ranges.get(table as usize) {
            Some(&(s, e)) => s as usize..e as usize,
            None => 0..0,
        }
    }

    /// The run ordinals of `table`: from its first cell's run to its last
    /// cell's (empty for a table without cells).
    fn table_runs(&self, table: u32) -> Range<usize> {
        let cells = self.table_postings(table);
        match cells.is_empty() {
            true => 0..0,
            false => self.runs[cells.start] as usize..self.runs[cells.end - 1] as usize + 1,
        }
    }

    /// The column runs of `table` in canonical order, appended to `out`:
    /// per run its `ColumnId` and its end position.
    pub fn column_runs(&self, table: u32, out: &mut Vec<(u32, u32)>) {
        out.extend(
            self.table_runs(table)
                .map(|run| (self.keys[run].1, self.starts[run + 1])),
        );
    }

    /// Batch lookup: for each of `rows`, append to `out` the position of
    /// the cell at (`table`, `column`, row), or `None` where the table holds
    /// no such cell (a null cell is not indexed). The run is found among the
    /// table's keys; a row is its rank among the table's `RowId`s (the
    /// `RowId` itself when they are `0..rows`), and its cell in the run is
    /// at that rank when the run holds every row, or searched by row
    /// ordinal.
    pub fn locate(&self, table: u32, column: u32, rows: &[u32], out: &mut Vec<Option<u32>>) {
        let runs = self.table_runs(table);
        let Ok(i) = self.keys[runs.clone()].binary_search_by_key(&column, |k| k.1) else {
            return out.extend(rows.iter().map(|_| None));
        };
        let (lo, hi) = (self.starts[runs.start + i], self.starts[runs.start + i + 1]);
        let base = self.row_base[table as usize];
        let table_rows = &self.row_ids[base as usize..self.row_base[table as usize + 1] as usize];
        let dense = table_rows
            .last()
            .is_some_and(|&r| r as usize + 1 == table_rows.len());
        let run = &self.ords[lo as usize..hi as usize];
        let full = run.len() == table_rows.len();
        out.extend(rows.iter().map(|&r| {
            let rank = match dense {
                true => (r < table_rows.len() as u32).then_some(r),
                false => table_rows.binary_search(&r).ok().map(|i| i as u32),
            }?;
            let at = match full {
                true => Some(rank as usize),
                false => run.binary_search(&(base + rank)).ok(),
            }?;
            Some(lo + at as u32)
        }));
    }

    /// Append the row ordinal of each of `positions` to `out`, so two
    /// positions share an ordinal exactly when they share (`TableId`,
    /// `RowId`). Returns the ordinal space, [`rows`](Self::rows): every
    /// ordinal is below it.
    pub fn row_ordinals(&self, positions: &[u32], out: &mut Vec<u32>) -> usize {
        out.extend(positions.iter().map(|&p| self.ords[p as usize]));
        self.rows()
    }

    /// Append the run ordinals of the ascending `positions` to `out`, each
    /// run once: for one value's postings, the ascending runs that hold the
    /// value — its list in the column store's
    /// [`ColumnIndex`](crate::ColumnIndex).
    pub fn cell_runs(&self, positions: &[u32], out: &mut Vec<u32>) {
        let mut last = None;
        for &p in positions {
            let run = self.runs[p as usize];
            if last.replace(run) != Some(run) {
                out.push(run);
            }
        }
    }

    /// Count, per run ordinal (`per_table`: per `TableId`), the values whose
    /// ascending run `lists` (one per value) its group holds: the one walk
    /// of the SC/KW operator and the SQL executor's column-index grouping.
    /// A list 32 times as long as the `allowed` tables is cut to their runs
    /// by binary search, a shorter one tests each entry's table; an entry of
    /// a table `rejected` holds is skipped; each other is *kept* and counts
    /// once per (value, group) pair: each entry adds its 0 or 1 and marks a
    /// bitmap of touched slots, with no branch, and the bitmap then lists
    /// them ascending. A run's key is read only where the walk needs its
    /// table. `poll` runs every 4,096 entries or so. Allocates `4 n_slots +
    /// 8 ⌈n_slots / 64⌉ + 4 min(entries, n_slots)` bytes, which callers
    /// reserve first; an entry whose slot is past `n_slots` is a `SqlExec`
    /// error.
    pub fn walk(
        &self,
        lists: &[&[u32]],
        per_table: bool,
        allowed: Option<&IdSet>,
        rejected: Option<&IdSet>,
        n_slots: usize,
        mut poll: impl FnMut() -> Result<()>,
    ) -> Result<Walk> {
        let ranges: Option<Vec<Range<u32>>> = allowed.map(|set| {
            let runs =
                |t: u32, last: bool| self.keys.partition_point(|k| k.0 < t || last && k.0 == t);
            set.ids()
                .map(|t| runs(t, false) as u32..runs(t, true) as u32)
                .collect()
        });
        let rejected = rejected.filter(|set| !set.is_empty());
        let site = "run list walk";
        let mut counts = try_zeroed_vec::<u32>(n_slots, site)?;
        let mut touched = try_zeroed_vec::<u64>(n_slots.div_ceil(64), site)?;
        let (mut kept, mut walked, mut polled, mut parts) = (0, 0, 0, Vec::new());
        let keys_unread = !per_table && rejected.is_none() && allowed.is_none();
        for &list in lists {
            parts.clear();
            let cut = ranges.as_ref().filter(|r| r.len() * 32 <= list.len());
            match cut {
                Some(r) => cut_to_ranges(list, r, |part| parts.push(part)),
                None => parts.push(list),
            }
            let test = if cut.is_some() { None } else { allowed };
            // A value's entries of one table are adjacent: KW counts the
            // first of them.
            let mut prev_table = u32::MAX;
            for chunk in parts.iter().flat_map(|part| part.chunks(4096)) {
                if walked >= polled {
                    poll()?;
                    polled = walked + 4096;
                }
                walked += chunk.len();
                for &ordinal in chunk {
                    let (slot, keep, add) = if keys_unread {
                        (ordinal, true, true)
                    } else {
                        let t = self.keys[ordinal as usize].0;
                        let keep = test.is_none_or(|set| set.contains(t))
                            & !rejected.is_some_and(|set| set.contains(t));
                        let first = prev_table != t;
                        prev_table = t;
                        match per_table {
                            true => (t, keep, keep & first),
                            false => (ordinal, keep, keep),
                        }
                    };
                    let count = counts.get_mut(slot as usize).ok_or_else(|| {
                        BlendError::SqlExec(format!("run list walk: slot {slot} of {n_slots}"))
                    })?;
                    *count += add as u32;
                    touched[slot as usize / 64] |= (add as u64) << (slot % 64);
                    kept += keep as usize;
                }
            }
        }
        let groups = touched.iter().map(|w| w.count_ones() as usize).sum();
        let mut slots = try_vec_with_capacity(groups, site)?;
        for (w, &word) in touched.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                slots.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        Ok(Walk {
            counts,
            slots,
            kept,
        })
    }

    /// The capacities held, per component of the layout table on
    /// [`Directory`] — the part of either store's
    /// [`memory_breakdown`](crate::FactTable::memory_breakdown) it owns.
    pub fn components(&self) -> [(&'static str, usize); 4] {
        [
            ("table-ranges", self.ranges.capacity() * 8),
            (
                "runs",
                self.keys.capacity() * 8 + self.starts.capacity() * 4,
            ),
            (
                "row-directory",
                (self.row_base.capacity() + self.row_ids.capacity()) * 4,
            ),
            (
                "cell-ordinals",
                (self.runs.capacity() + self.ords.capacity()) * 4,
            ),
        ]
    }
}

/// What [`Directory::walk`] counted: per slot its count, the touched slots
/// in ascending order, and the entries kept.
#[derive(Debug)]
pub struct Walk {
    pub counts: Vec<u32>,
    pub slots: Vec<u32>,
    pub kept: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactRow;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The directory of fact rows, as the stores build theirs.
    fn directory(rows: Vec<FactRow>) -> Directory {
        Directory::build(&[CodedPart::from_rows(rows)], |_, _, _| {})
    }

    /// A directory with `cols[t]` columns in table `t` (none: a table id
    /// that holds no cell), `ColumnId`s spaced two apart.
    fn tables(cols: &[u32]) -> Directory {
        let rows: Vec<FactRow> = (cols.iter().enumerate())
            .flat_map(|(t, &n)| (0..n).map(move |c| FactRow::new("v", t as u32, 2 * c, 0, 0, None)))
            .collect();
        directory(rows)
    }

    /// [`Directory::walk`] against a count that visits every entry of every
    /// list and tests its table against `allowed` and `rejected` as plain
    /// id lists: the counts, the touched slots, the entries kept, and how
    /// the order in which entries first touch the groups is read back.
    fn check_walk(
        dir: &Directory,
        lists: &[&[u32]],
        per_table: bool,
        allowed: Option<&[u32]>,
        rejected: Option<&[u32]>,
    ) {
        let n_slots = match per_table {
            true => dir.n_tables() as usize,
            false => dir.runs(),
        };
        let (mut counts, mut seen, mut order, mut kept) =
            (vec![0u32; n_slots], HashSet::new(), Vec::new(), 0);
        let (mut first_list, mut skipped) = (vec![u32::MAX; n_slots], Vec::new());
        for (i, list) in lists.iter().enumerate() {
            for &ordinal in *list {
                let t = dir.key(ordinal).0;
                let slot = if per_table { t } else { ordinal };
                if !allowed.is_none_or(|ids| ids.contains(&t))
                    || rejected.is_some_and(|ids| ids.contains(&t))
                {
                    skipped.push(slot);
                    continue;
                }
                kept += 1;
                if seen.insert((i, slot)) {
                    if counts[slot as usize] == 0 {
                        order.push(slot);
                        first_list[slot as usize] = i as u32;
                    }
                    counts[slot as usize] += 1;
                }
            }
        }
        let set = |ids: &[u32]| IdSet::build(ids.iter().copied());
        let (keep, skip) = (allowed.map(set), rejected.map(set));
        let case = format!("per_table {per_table}, in {allowed:?}, not in {rejected:?}");
        let walk = dir.walk(
            lists,
            per_table,
            keep.as_ref(),
            skip.as_ref(),
            n_slots,
            || Ok(()),
        );
        let walk = walk.expect("every slot is in range");
        assert_eq!(walk.counts, counts, "{case}");
        assert_eq!(walk.kept, kept, "{case}");
        let mut touched = order.clone();
        touched.sort_unstable();
        assert_eq!(walk.slots, touched, "{case}");
        // What the SQL executor's column-index grouping relies on to recover
        // first-touch order from the walk: no skipped entry's slot is
        // touched, and the touched slots ordered by (first list holding
        // them, slot) are in first-touch order.
        assert!(skipped.iter().all(|s| counts[*s as usize] == 0), "{case}");
        let mut by_first = walk.slots.clone();
        by_first.sort_by_key(|&s| (first_list[s as usize], s));
        assert_eq!(by_first, order, "{case}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random directories, ascending run lists up to every run, and
        /// `TableId` sets (ids with no cell and past the last included):
        /// long lists against small `In` sets take the range cut, the
        /// rest test each entry.
        #[test]
        fn walk_matches_a_brute_force_count(
            cols in proptest::collection::vec(0u32..10, 1..12),
            raw in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..160), 0..6),
            allowed in proptest::option::of(proptest::collection::vec(0u32..14, 0..4)),
            rejected in proptest::option::of(proptest::collection::vec(0u32..14, 0..4)),
            per_table in any::<bool>(),
        ) {
            let dir = tables(&cols);
            let runs = dir.runs() as u32;
            let lists: Vec<Vec<u32>> = (raw.into_iter())
                .map(|l| {
                    let mut l: Vec<u32> = l.into_iter().filter_map(|o| o.checked_rem(runs)).collect();
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            let lists: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
            check_walk(&dir, &lists, per_table, allowed.as_deref(), rejected.as_deref());
        }
    }

    /// Each branch of the walk at least once: the range cut (a list 32
    /// times as long as the `In` set) and the per-entry test of `In`, and
    /// `NotIn` beside each, with `per_table` on and off; then an entry past
    /// `n_slots` and a failing poll, each typed.
    #[test]
    fn walk_branches_and_errors() {
        let dir = tables(&[8, 0, 8, 8, 8, 8]);
        let all: Vec<u32> = (0..dir.runs() as u32).collect();
        let short: Vec<u32> = all.iter().copied().step_by(3).collect();
        let lists: [&[u32]; 3] = [&all, &short, &all[4..20]];
        for per_table in [false, true] {
            for (allowed, rejected) in [
                (Some(&[2][..]), None),
                (Some(&[0, 2, 3, 4, 5][..]), None),
                (Some(&[2][..]), Some(&[2, 3][..])),
                (None, Some(&[0, 4][..])),
                (Some(&[][..]), Some(&[][..])),
                (None, None),
            ] {
                check_walk(&dir, &lists, per_table, allowed, rejected);
            }
        }
        let last = [dir.runs() as u32 - 1];
        for (per_table, n_slots) in [(false, dir.runs() - 1), (true, dir.n_tables() as usize - 1)] {
            let err = dir.walk(&[&last], per_table, None, None, n_slots, || Ok(()));
            assert!(matches!(err, Err(BlendError::SqlExec(_))), "{err:?}");
        }
        let cancelled = || Err(BlendError::Cancelled("poll".into()));
        let err = dir.walk(&[&all], false, None, None, dir.runs(), cancelled);
        assert!(matches!(err, Err(BlendError::Cancelled(_))), "{err:?}");
    }

    #[test]
    fn table_ranges_cover_and_handle_gaps() {
        let rows = vec![
            FactRow::new("a", 0, 0, 0, 0, None),
            FactRow::new("b", 2, 0, 0, 0, None),
            FactRow::new("c", 2, 0, 1, 0, None),
        ];
        let dir = directory(rows);
        assert_eq!(dir.ranges, vec![(0, 1), (0, 0), (1, 3)]);
        assert_eq!(dir.table_postings(1), 0..0);
        assert_eq!(dir.table_postings(2), 1..3);
        assert_eq!(dir.table_postings(99), 0..0);
    }

    #[test]
    fn empty_rows_have_no_ranges() {
        let dir = directory(Vec::new());
        assert!(dir.is_empty() && dir.ranges.is_empty());
        assert_eq!((dir.runs(), dir.rows(), dir.n_tables()), (0, 0, 0));
    }

    #[test]
    fn cell_runs_list_each_run_once() {
        // Table 0: column 0 rows 0–2, column 1 rows 0–1; table 1: column 0.
        let rows: Vec<FactRow> = [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1)]
            .into_iter()
            .chain([(1, 0, 0)])
            .map(|(t, c, r)| FactRow::new("v", t, c, r, 0, None))
            .collect();
        let dir = directory(rows);
        let mut out = vec![9, 0];
        dir.cell_runs(&[0, 2, 3, 4, 5], &mut out);
        assert_eq!(out, [9, 0, 0, 1, 2]);
        dir.cell_runs(&[], &mut out);
        assert_eq!(out.len(), 5);
    }
}
