//! The lake dictionary-coded: the one input both stores build from.

use crate::directory::Directory;
use crate::fact::{canonical_sort, decode_quadrant, encode_quadrant, FactRow};
use crate::hashtable::GroupIndex;

/// One cell of a [`CodedPart`]: its place, its value's code in the part's
/// dictionary, and its quadrant code ([`encode_quadrant`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodedCell {
    pub table: u32,
    pub column: u32,
    pub row: u32,
    pub code: u32,
    pub quadrant: u8,
}

/// Whole tables of the lake, dictionary-coded: what an index builder's
/// worker makes of its range of tables. The stores build from a list of
/// parts whose cells, end to end, are in canonical order
/// ([`canonical_sort`]).
#[derive(Debug, Default)]
pub struct CodedPart {
    /// The part's distinct values, numbered in first-seen order.
    pub values: GroupIndex<Box<str>>,
    pub cells: Vec<CodedCell>,
    /// The super key of each of the part's rows that holds a cell, in
    /// (`TableId`, `RowId`) order: the order of the rows' ordinals in the
    /// store's [`Directory`].
    pub superkeys: Vec<u128>,
}

impl CodedPart {
    /// Fact rows as one part: put in canonical order, then their values
    /// interned in that order (each string moved, not copied); a row's
    /// super key is its last cell's.
    pub fn from_rows(mut rows: Vec<FactRow>) -> Self {
        canonical_sort(&mut rows);
        let (mut part, mut keys) = (CodedPart::default(), Vec::with_capacity(rows.len()));
        for r in rows {
            keys.push(((r.table, r.row), r.superkey));
            part.cells.push(CodedCell {
                table: r.table,
                column: r.column,
                row: r.row,
                quadrant: encode_quadrant(r.quadrant),
                code: part.values.intern(r.value),
            });
        }
        keys.sort_by_key(|k| k.0);
        let rows = keys.chunk_by(|a, b| a.0 == b.0);
        part.superkeys = rows.map(|k| k[k.len() - 1].1).collect();
        part
    }
}

/// The parts' dictionaries merged into one (span `index.merge`): the first
/// part's, with each later part's keys moved in, in code order. A value's
/// code is so its first sight in canonical order. Returns the dictionary,
/// at exact capacity, and per part its local → merged codes.
pub(crate) fn merge(parts: &mut [CodedPart]) -> (GroupIndex<Box<str>>, Vec<Vec<u32>>) {
    let span = blend_obs::span("index.merge");
    let mut parts = parts.iter_mut().map(|p| std::mem::take(&mut p.values));
    let mut dict = parts.next().unwrap_or_default();
    let mut maps = vec![(0..dict.len() as u32).collect()];
    maps.extend(parts.map(|p| p.into_keys().into_iter().map(|v| dict.intern(v)).collect()));
    dict.shrink_to_fit();
    span.attr_u64("distinct", dict.len() as u64);
    (dict, maps)
}

/// The parts' super keys end to end — per row ordinal of their
/// [`Directory`] — at exact capacity.
pub(crate) fn superkeys(parts: &[CodedPart]) -> Vec<u128> {
    let lists: Vec<&[u128]> = parts.iter().map(|p| &p.superkeys[..]).collect();
    lists.concat()
}

/// The parts' cells as fact rows, in canonical order, each with its row's
/// super key, and their [`Directory`].
pub fn fact_rows(parts: &[CodedPart]) -> (Vec<FactRow>, Directory) {
    let superkeys = superkeys(parts);
    let mut rows = Vec::with_capacity(parts.iter().map(|p| p.cells.len()).sum());
    let dir = Directory::build(parts, |p, c, ord| {
        rows.push(FactRow {
            value: parts[p].values.keys()[c.code as usize].clone(),
            table: c.table,
            column: c.column,
            row: c.row,
            superkey: superkeys[ord as usize],
            quadrant: decode_quadrant(c.quadrant),
        })
    });
    (rows, dir)
}
