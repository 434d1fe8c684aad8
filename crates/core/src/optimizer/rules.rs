//! Rule-based seeker ranking (paper §VII-B):
//!
//! * **Rule 1** — the keyword operator always executes first: one index
//!   scan, tiny `|Q|` (`O(n·|Q|)` with the smallest `|Q|`).
//! * **Rule 2** — the MC seeker always executes last: `x` postings reads
//!   plus per-row validation of cell combinations (the MC operator).
//! * **Rule 3** — SC is prioritized over C: C reads, besides its keys'
//!   postings, one cell per key cell and other column of its table (the C
//!   operator), against SC's one walk of the value → column index.

use crate::plan::Seeker;

/// Rule priority: lower executes earlier.
pub fn type_priority(seeker: &Seeker) -> u8 {
    match seeker {
        Seeker::Kw { .. } => 0, // Rule 1
        Seeker::Sc { .. } => 1, // Rule 3: SC before C
        Seeker::C { .. } => 2,
        Seeker::Mc { .. } => 3, // Rule 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_encode_the_three_rules() {
        let kw = type_priority(&Seeker::kw(vec!["k".into()]));
        let sc = type_priority(&Seeker::sc(vec!["v".into()]));
        let c = type_priority(&Seeker::c(vec!["a".into(), "b".into()], vec![1.0, 2.0]));
        let mc = type_priority(&Seeker::mc(vec![vec!["a".into(), "b".into()]]));
        assert!(kw < sc, "Rule 1: KW first");
        assert!(sc < c, "Rule 3: SC before C");
        assert!(c < mc && sc < mc && kw < mc, "Rule 2: MC last");
    }
}
