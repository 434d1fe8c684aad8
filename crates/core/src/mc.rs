//! The MC seeker's operator: Listing 2's join and the paper's two filter
//! steps in one pass over the index (`seekers` module docs).
//!
//! 1. **Cells** (span `mc.cells`): per query column, its distinct values'
//!    postings, tagged with each value's list index and cut by binary
//!    search to the tables an injection allows.
//! 2. **Rows, in MATE's order** (span `mc.rows`): the column with the
//!    fewest cells drives. Its rows are numbered — the ranks of their row
//!    ordinals in the store's [`Directory`], through an [`OrdinalRank`] —
//!    and its cells listed per row as (position, list index) pairs. Each
//!    further column but the last keeps the cells of rows every column
//!    before it holds, listed the same way.
//! 3. **Validation** (span `postprocess`): each surviving cell of the last
//!    column joins one cell per other column from its row's lists; each
//!    such combination is one row of the SQL join. With pairwise-distinct
//!    cells it makes its row a *pair row*; it validates when the query rows
//!    holding each of its values (a bitset per column and list index)
//!    intersect, and a row stops at its first valid combination. Each pair
//!    row's super key is then read once, in row order: a pair row that may
//!    hold a query row's XASH mask is a candidate, and a valid candidate is
//!    validated.
//!
//! The SQL keeps joined rows whose `ColumnId`s are pairwise distinct. Cells
//! of one row differ in `ColumnId` exactly when they differ in position
//! (`AllTables` holds one entry per `TableId`, `ColumnId`, `RowId`), so the
//! operator compares the positions it holds and gathers no `ColumnId`. It
//! runs on the query's thread under one reservation and polls the
//! interrupt every [`POLL`] cells, rows and enumeration steps.

use std::borrow::Cow;
use std::sync::Arc;

use blend_common::topk::TopK;
use blend_common::{FxHashMap, Result, TableId};
use blend_index::xash_value;
use blend_parallel::{Interrupt, MemoryGovernor, QueryMemory};
use blend_storage::{
    radix_partition, radix_scratch_bytes, Directory, FactTable, OrdinalRank, RadixPartitions,
};

use crate::combiners::TableHit;
use crate::postings::{allowed_ranges, fetch};
use crate::seekers::{Injected, McStats};

/// Cells, rows or enumeration steps between two polls of the interrupt.
const POLL: usize = 4096;

/// Row flags: some combination has pairwise-distinct cells, and some such
/// combination is a query row.
const PAIR: u8 = 1;
const VALID: u8 = 2;

/// One MC seeker over `fact`: `norm[c][r]` is query row `r`'s normalized
/// value in column `c`, and `lists[c]` column `c`'s distinct values (the
/// SQL's `$c` list). The hits are the top `k` tables by validated rows.
pub(crate) fn run(
    fact: &dyn FactTable,
    norm: &[Vec<Cow<'_, str>>],
    lists: &[Vec<&str>],
    injected: Option<&Injected>,
    k: usize,
    interrupt: &Interrupt,
    governor: &Arc<MemoryGovernor>,
) -> Result<(Vec<TableHit>, McStats)> {
    interrupt.check()?;
    let query = QueryRows::new(norm, lists);

    let span = blend_obs::span("mc.cells");
    let allowed = injected.and_then(|inj| allowed_ranges(fact, inj));
    let cells: Vec<Vec<(u32, &[u32])>> = (lists.iter())
        .map(|list| fetch(fact, list, allowed.as_deref(), "mc.resolve", interrupt))
        .collect::<Result<_>>()?;
    let counts: Vec<usize> = (cells.iter())
        .map(|c| c.iter().map(|(_, p)| p.len()).sum())
        .collect();
    span.attr_u64("cells", counts.iter().sum::<usize>() as u64);
    drop(span);

    // MATE's order: the rarest column drives, the most frequent comes last.
    let mut order: Vec<usize> = (0..lists.len()).collect();
    order.sort_by_key(|&c| counts[c]);
    let (listed, last) = order.split_at(order.len() - 1);
    let n_driving = counts[order[0]];
    let dir = fact.directory();
    // Priced before any is allocated: the rank; per listed cell its
    // position or row id, its pair, its CSR slot and its pair in CSR order;
    // per row its position, flags and list offsets; the query bitsets and
    // block buffers.
    let bytes = OrdinalRank::estimate_bytes(dir.rows())
        + listed.iter().map(|&c| counts[c] * 28).sum::<usize>()
        + n_driving * 9
        + listed.len() * radix_scratch_bytes(0, n_driving)
        + query.heap_bytes()
        + POLL * 64;
    let _mem = Arc::new(QueryMemory::new(Arc::clone(governor))).try_reserve("mc", bytes)?;

    let span = blend_obs::span("mc.rows");
    let (mut rows, driving) = Rows::number(dir, &cells[order[0]], interrupt)?;
    let mut lists = vec![driving];
    for &c in &listed[1..] {
        let (mut ids, mut pairs) = (Vec::new(), Vec::new());
        let live = |row: u32| lists[1..].iter().all(|l| !l.of(row).is_empty());
        rows.stream(&cells[c], live, &mut |row, pair| {
            ids.push(row);
            pairs.push(pair);
            Ok(())
        })?;
        lists.push(RowLists::new(&ids, &pairs, rows.rep.len())?);
    }
    span.attr_u64("rows", rows.rep.len() as u64);
    span.attr_u64("cells", lists.iter().map(|l| l.pairs.len() as u64).sum());
    drop(span);

    let span = blend_obs::span("postprocess");
    let mut flags = vec![0u8; rows.rep.len()];
    let mut walk = Walk::new(&query, listed);
    let mut rows_in = 0u64;
    // Every numbered row holds a driving cell.
    let live = |row: u32| lists[1..].iter().all(|l| !l.of(row).is_empty());
    rows.stream(&cells[last[0]], live, &mut |row, [pos, idx]| {
        let flag = &mut flags[row as usize];
        walk.lists.clear();
        walk.lists.extend(lists.iter().map(|l| l.of(row)));
        // This cell's rows of the SQL join: one per choice of a cell of
        // each other column.
        let joined = (walk.lists.iter()).fold(1u64, |n, l| n.saturating_mul(l.len() as u64));
        rows_in = rows_in.saturating_add(joined);
        if *flag & VALID == 0 {
            walk.pair = *flag & PAIR != 0;
            walk.chosen[0] = pos;
            walk.acc[..query.words].copy_from_slice(query.set(last[0], idx));
            *flag |= if walk.walk(1, interrupt)? { VALID } else { 0 };
            *flag |= if walk.pair { PAIR } else { 0 };
        }
        Ok(())
    })?;

    // The pair rows' super keys, gathered a block at a time in row order.
    let mut stats = McStats::default();
    let (mut validated, mut positions, mut superkeys) = (Vec::new(), Vec::new(), Vec::new());
    for (flags, rep) in flags.chunks(POLL).zip(rows.rep.chunks(POLL)) {
        interrupt.check()?;
        let pairs = || flags.iter().zip(rep).filter(|(&f, _)| f & PAIR != 0);
        positions.clear();
        positions.extend(pairs().map(|(_, &p)| p));
        superkeys.clear();
        fact.gather_superkeys(&positions, &mut superkeys);
        for ((&flag, &pos), &superkey) in pairs().zip(&superkeys) {
            if query.may_hold(superkey) {
                stats.candidates += 1;
                if flag & VALID != 0 {
                    stats.validated += 1;
                    validated.push(fact.table_at(pos as usize));
                }
            }
        }
    }
    span.attr_u64("rows_in", rows_in);
    crate::seekers::note_filter(&span, stats);

    validated.sort_unstable();
    let mut topk = TopK::new(k);
    for rows in validated.chunk_by(|a, b| a == b) {
        let (table, score) = (TableId(rows[0]), rows.len() as f64);
        topk.push(score, table.0 as u64, TableHit { table, score });
    }
    let hits = topk.into_sorted().into_iter().map(|(_, h)| h).collect();
    Ok((hits, stats))
}

/// The query rows as the operator tests them: per query column and list
/// index, the bitset of the query rows holding that value in that column
/// (`words` `u64`s from `bits[starts[column] + idx * words]`), and the
/// rows' XASH masks, deduplicated.
struct QueryRows {
    words: usize,
    starts: Vec<usize>,
    bits: Vec<u64>,
    masks: Vec<u128>,
}

impl QueryRows {
    fn new(norm: &[Vec<Cow<'_, str>>], lists: &[Vec<&str>]) -> Self {
        let n_rows = norm.first().map_or(0, Vec::len);
        let words = n_rows.div_ceil(64).max(1);
        let (mut starts, mut bits) = (Vec::with_capacity(lists.len()), Vec::new());
        for (column, list) in norm.iter().zip(lists) {
            let index: FxHashMap<&str, usize> =
                list.iter().enumerate().map(|(i, v)| (*v, i)).collect();
            let start = bits.len();
            starts.push(start);
            bits.resize(start + list.len() * words, 0);
            for (r, v) in column.iter().enumerate() {
                bits[start + index[&**v] * words + r / 64] |= 1 << (r % 64);
            }
        }
        let mut masks: Vec<u128> = (0..n_rows)
            .map(|r| norm.iter().fold(0, |m, column| m | xash_value(&column[r])))
            .collect();
        masks.sort_unstable();
        masks.dedup();
        QueryRows {
            words,
            starts,
            bits,
            masks,
        }
    }

    /// The query rows holding list value `idx` in query column `column`.
    #[inline]
    fn set(&self, column: usize, idx: u32) -> &[u64] {
        &self.bits[self.starts[column] + idx as usize * self.words..][..self.words]
    }

    /// Whether a row with `superkey` may hold some query row: the super
    /// key has every bit of its mask.
    fn may_hold(&self, superkey: u128) -> bool {
        self.masks.iter().any(|&m| m & !superkey == 0)
    }

    fn heap_bytes(&self) -> usize {
        self.bits.len() * 8 + self.masks.len() * 16 + self.starts.len() * 8
    }
}

/// The lake rows the driving column holds, numbered `0..rep.len()` by the
/// ranks of their row ordinals. `rep[id]` is one position of the row, where
/// its super key and table are read; `ords` is a gather buffer.
struct Rows<'f> {
    dir: &'f Directory,
    interrupt: &'f Interrupt,
    rank: OrdinalRank,
    rep: Vec<u32>,
    ords: Vec<u32>,
}

impl<'f> Rows<'f> {
    /// Number the driving column's rows and list its `cells` per row.
    fn number(
        dir: &'f Directory,
        cells: &[(u32, &[u32])],
        interrupt: &'f Interrupt,
    ) -> Result<(Self, RowLists)> {
        let positions: Vec<u32> = cells.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        let mut ids = Vec::with_capacity(positions.len());
        let space = dir.row_ordinals(&positions, &mut ids);
        let rank = OrdinalRank::build(space, &ids);
        rank.rank_members(&mut ids);
        let mut rep = vec![0; rank.len()];
        for (&id, &p) in ids.iter().zip(&positions) {
            rep[id as usize] = p;
        }
        let idx = (cells.iter()).flat_map(|&(i, p)| std::iter::repeat_n(i, p.len()));
        let pairs: Vec<[u32; 2]> = positions.iter().zip(idx).map(|(&p, i)| [p, i]).collect();
        let lists = RowLists::new(&ids, &pairs, rank.len())?;
        let rows = Rows {
            dir,
            interrupt,
            rank,
            rep,
            ords: Vec::new(),
        };
        Ok((rows, lists))
    }

    /// Number a column's `cells` a block at a time and hand each cell whose
    /// row is numbered and `live` to `each` as (row id, [position, list
    /// index]).
    fn stream(
        &mut self,
        cells: &[(u32, &[u32])],
        live: impl Fn(u32) -> bool,
        each: &mut impl FnMut(u32, [u32; 2]) -> Result<()>,
    ) -> Result<()> {
        for &(idx, postings) in cells {
            for block in postings.chunks(POLL) {
                self.interrupt.check()?;
                self.ords.clear();
                self.dir.row_ordinals(block, &mut self.ords);
                for (&pos, &ord) in block.iter().zip(&self.ords) {
                    match self.rank.rank(ord) {
                        Some(row) if live(row) => each(row, [pos, idx])?,
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }
}

/// One query column's cells listed by row id: row `r`'s (position, list
/// index) pairs are `pairs[offsets[r]..offsets[r + 1]]`.
struct RowLists {
    csr: RadixPartitions,
    pairs: Vec<[u32; 2]>,
}

impl RowLists {
    /// List `pairs` by their `rows` (ids below `n_rows`).
    fn new(rows: &[u32], pairs: &[[u32; 2]], n_rows: usize) -> Result<Self> {
        let csr = radix_partition(rows, n_rows)?;
        let pairs = csr.items().iter().map(|&i| pairs[i as usize]).collect();
        Ok(RowLists { csr, pairs })
    }

    #[inline]
    fn of(&self, row: u32) -> &[[u32; 2]] {
        let offsets = self.csr.offsets();
        &self.pairs[offsets[row as usize] as usize..offsets[row as usize + 1] as usize]
    }
}

/// The enumeration of one row's combinations through one cell of the last
/// column (depth 0): depth `d ≥ 1` picks a pair of `lists[d - 1]`, the
/// row's list of query column `columns[d - 1]`. `chosen[d]` is the
/// position picked at depth `d`, and `acc` holds per depth the query rows
/// every value picked so far belongs to. Nothing is allocated per row.
struct Walk<'q> {
    query: &'q QueryRows,
    columns: &'q [usize],
    lists: Vec<&'q [[u32; 2]]>,
    chosen: Vec<u32>,
    acc: Vec<u64>,
    /// Some combination of the row had pairwise-distinct cells.
    pair: bool,
    steps: usize,
}

impl<'q> Walk<'q> {
    fn new(query: &'q QueryRows, columns: &'q [usize]) -> Self {
        Walk {
            query,
            columns,
            lists: Vec::with_capacity(columns.len()),
            chosen: vec![0; columns.len()],
            acc: vec![0; columns.len() * query.words],
            pair: false,
            steps: 0,
        }
    }

    /// Whether some completion of the combination picked up to depth
    /// `d - 1` has distinct cells and is a query row; sets `pair` where a
    /// completion has distinct cells. Once `pair` is known, a branch whose
    /// values no query row shares is not walked.
    fn walk(&mut self, d: usize, interrupt: &Interrupt) -> Result<bool> {
        let words = self.query.words;
        let leaf = d == self.lists.len();
        for &[pos, idx] in self.lists[d - 1] {
            self.steps += 1;
            if self.steps.is_multiple_of(POLL) {
                interrupt.check()?;
            }
            if self.chosen[..d].contains(&pos) {
                continue;
            }
            let set = self.query.set(self.columns[d - 1], idx);
            let (before, at) = self.acc.split_at_mut(d * words);
            let prev = &before[(d - 1) * words..];
            if leaf {
                self.pair = true;
                if prev.iter().zip(set).any(|(&a, &s)| a & s != 0) {
                    return Ok(true);
                }
                continue;
            }
            self.chosen[d] = pos;
            let mut any = 0;
            for ((a, &b), &s) in at[..words].iter_mut().zip(prev).zip(set) {
                *a = b & s;
                any |= *a;
            }
            if (any != 0 || !self.pair) && self.walk(d + 1, interrupt)? {
                return Ok(true);
            }
        }
        Ok(false)
    }
}
