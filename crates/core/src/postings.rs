//! The index reads the MC and C operators share: a value list's postings,
//! cut by binary search to the tables an injection allows.

use std::ops::Range;

use blend_storage::FactTable;

use crate::seekers::Injected;

/// The position ranges an injection leaves, ascending and disjoint: the
/// injected tables' for `In`, the gaps between them for `NotIn`, `None`
/// for an empty `NotIn`. Tables are contiguous and in id order.
pub(crate) fn allowed_ranges(fact: &dyn FactTable, injected: &Injected) -> Option<Vec<Range<u32>>> {
    let (Injected::In(ids) | Injected::NotIn(ids)) = injected;
    let mut ids = ids.clone();
    ids.sort_unstable();
    ids.dedup();
    let tables = (ids.iter().map(|&t| fact.table_postings(t)))
        .filter(|r| !r.is_empty())
        .map(|r| r.start as u32..r.end as u32);
    match injected {
        Injected::In(_) => Some(tables.collect()),
        Injected::NotIn(_) if ids.is_empty() => None,
        Injected::NotIn(_) => {
            let (mut gaps, mut at) = (Vec::new(), 0);
            let end = fact.len() as u32;
            for t in tables.chain(std::iter::once(end..end)) {
                gaps.extend((at < t.start).then_some(at..t.start));
                at = t.end;
            }
            Some(gaps)
        }
    }
}

/// A value list's cells: each value's postings tagged with its list index,
/// cut to `allowed`.
pub(crate) fn fetch<'f>(
    fact: &'f dyn FactTable,
    list: &[&str],
    allowed: Option<&[Range<u32>]>,
) -> Vec<(u32, &'f [u32])> {
    let mut out = Vec::new();
    for (i, v) in list.iter().enumerate() {
        let postings = fact.postings(v);
        match allowed {
            None => out.extend((!postings.is_empty()).then_some((i as u32, postings))),
            Some(ranges) => cut(postings, ranges, |part| out.push((i as u32, part))),
        }
    }
    out
}

/// Emit the runs of the ascending `postings` that lie in the ascending,
/// disjoint `ranges`, each bound found by binary search. Every round
/// consumes a range, and one that holds no posting moves the postings
/// past it, so the rounds are at most about twice the smaller input.
fn cut<'p>(postings: &'p [u32], ranges: &[Range<u32>], mut emit: impl FnMut(&'p [u32])) {
    let (mut p, mut r) = (postings, ranges);
    while let Some(&first) = p.first() {
        r = &r[r.partition_point(|x| x.end <= first)..];
        let Some(range) = r.first() else {
            break;
        };
        let lo = p.partition_point(|&x| x < range.start);
        let hi = lo + p[lo..].partition_point(|&x| x < range.end);
        if hi > lo {
            emit(&p[lo..hi]);
        }
        (p, r) = (&p[hi..], &r[1..]);
    }
}
