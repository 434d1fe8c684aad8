//! The index reads the seekers' operators share: a value list resolved in
//! one batch, its postings cut by binary search to the tables an injection
//! allows, and buffers that grow inside the operator's memory reservation.

use std::ops::Range;

use blend_common::Result;
use blend_parallel::{Interrupt, MemoryReservation};
use blend_storage::{cut_to_ranges, FactTable, Resolved};

use crate::seekers::Injected;

/// The position ranges an injection leaves, ascending and disjoint: the
/// injected tables' for `In`, the gaps between them for `NotIn`, `None`
/// for an empty `NotIn`. Tables are contiguous and in id order.
pub(crate) fn allowed_ranges(fact: &dyn FactTable, injected: &Injected) -> Option<Vec<Range<u32>>> {
    let (Injected::In(ids) | Injected::NotIn(ids)) = injected;
    let mut ids = ids.clone();
    ids.sort_unstable();
    ids.dedup();
    let tables = (ids.iter().map(|&t| fact.directory().table_postings(t)))
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

/// `values` looked up in `fact` in one batch ([`FactTable::resolve`]; with
/// their postings or, on a store with a dictionary, without), in order,
/// under the operator's span `span` (attr `values`), polling the interrupt
/// every 4,096 values.
pub(crate) fn resolve<'f>(
    fact: &'f dyn FactTable,
    values: &[&str],
    postings: bool,
    span: &'static str,
    interrupt: &Interrupt,
) -> Result<Vec<Resolved<'f>>> {
    let span = blend_obs::span(span);
    span.attr_u64("values", values.len() as u64);
    let mut out = Vec::with_capacity(values.len());
    for chunk in values.chunks(4096) {
        interrupt.check()?;
        fact.resolve(chunk, postings, &mut out);
    }
    Ok(out)
}

/// A value list's cells: each value's postings tagged with its list index,
/// cut to `allowed`; the list is resolved under span `span`.
pub(crate) fn fetch<'f>(
    fact: &'f dyn FactTable,
    list: &[&str],
    allowed: Option<&[Range<u32>]>,
    span: &'static str,
    interrupt: &Interrupt,
) -> Result<Vec<(u32, &'f [u32])>> {
    let mut out = Vec::new();
    let resolved = resolve(fact, list, true, span, interrupt)?;
    for (i, postings) in resolved.into_iter().map(|v| v.postings).enumerate() {
        match allowed {
            None => out.extend((!postings.is_empty()).then_some((i as u32, postings))),
            Some(ranges) => cut_to_ranges(postings, ranges, |part| out.push((i as u32, part))),
        }
    }
    Ok(out)
}

/// Make room for `additional` more items in `v`, reserving their bytes
/// first; capacity at least doubles, so the reservation grows rarely.
pub(crate) fn room<T>(
    mem: &mut MemoryReservation,
    v: &mut Vec<T>,
    additional: usize,
) -> Result<()> {
    let need = v.len() + additional;
    if need > v.capacity() {
        let cap = need.max(2 * v.capacity());
        mem.grow((cap - v.capacity()) * std::mem::size_of::<T>())?;
        v.reserve_exact(cap - v.len());
    }
    Ok(())
}
