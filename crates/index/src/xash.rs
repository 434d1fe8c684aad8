//! XASH — the super-key hash of MATE (Esmailoghli et al., VLDB 2022).
//!
//! XASH maps a cell value to a sparse 128-bit pattern and aggregates a row
//! by OR-ing its cells' patterns into one *super key*. The super key acts as
//! a bloom filter over the row: if value `v` occurs in row `r` then
//! `xash(v) & superkey(r) == xash(v)`. The MC seeker uses this to discard
//! candidate rows whose super key cannot contain the queried composite key,
//! without fetching the raw table.
//!
//! Like MATE, the pattern encodes the value's *least frequent characters*
//! (rare characters discriminate better than common ones), their rough
//! position inside the value, and the value length. This implementation is a
//! faithful re-parameterization rather than a bit-exact port: 96 bits carry
//! (character, position-bucket) features of the `N_CHARS` rarest characters
//! and 32 bits one-hot the length modulo 32. What the rest of the system
//! relies on — the subset property and a low false-positive rate — is
//! preserved and tested (including by property tests).

/// Number of rarest characters that contribute feature bits.
const N_CHARS: usize = 3;
/// Number of position buckets per character.
const POS_BUCKETS: u32 = 4;
/// Bits reserved for character features.
const CHAR_BITS: u32 = 96;
/// Bits reserved for the length one-hot.
const LEN_BITS: u32 = 32;

/// English-like character frequency ranking (most frequent first). Characters
/// outside the table rank as maximally rare. Mirrors MATE's frequency-driven
/// character selection.
const FREQ_ORDER: &[u8] = b"etaoinsrhldcumfpgwybvkxjqz0123456789";

/// Per byte, its rarity: its position in `FREQ_ORDER` (either case), or
/// past the table's end by its lowercased value.
const RARITY: [u32; 256] = {
    let (mut table, mut b) = ([0; 256], 0);
    while b < 256 {
        table[b] = (FREQ_ORDER.len() + (b as u8).to_ascii_lowercase() as usize) as u32;
        b += 1;
    }
    let mut i = 0;
    while i < FREQ_ORDER.len() {
        table[FREQ_ORDER[i] as usize] = i as u32;
        table[FREQ_ORDER[i].to_ascii_uppercase() as usize] = i as u32;
        i += 1;
    }
    table
};

/// Compute the XASH bit pattern of one (normalized) cell value.
///
/// Deterministic, allocation-free. Empty strings hash to a single length
/// bit so they still participate in the subset property.
pub fn xash_value(value: &str) -> u128 {
    let bytes = value.as_bytes();
    let len = bytes.len();
    let mut hash: u128 = 0;

    // Length feature.
    hash |= 1u128 << (CHAR_BITS + (len as u32 % LEN_BITS));
    if len == 0 {
        return hash;
    }

    // Select the N_CHARS rarest characters (by the fixed ranking, ties by
    // first occurrence) together with their positions.
    let mut picked: [(u32, usize, u8); N_CHARS] = [(0, 0, 0); N_CHARS];
    let mut n_picked = 0usize;
    for (pos, &b) in bytes.iter().enumerate() {
        // Skip spaces: multi-token values should hash by their content.
        if b == b' ' {
            continue;
        }
        let rarity = RARITY[b as usize];
        if n_picked < N_CHARS {
            picked[n_picked] = (rarity, pos, b);
            n_picked += 1;
            picked[..n_picked].sort_unstable_by_key(|p| std::cmp::Reverse(p.0));
        } else if rarity > picked[N_CHARS - 1].0 {
            picked[N_CHARS - 1] = (rarity, pos, b);
            picked.sort_unstable_by_key(|p| std::cmp::Reverse(p.0));
        }
    }

    for &(_, pos, b) in picked.iter().take(n_picked) {
        let bucket = (pos as u32 * POS_BUCKETS) / len as u32;
        let slot = (b.to_ascii_lowercase() as u32)
            .wrapping_mul(31)
            .wrapping_add(bucket)
            % CHAR_BITS;
        hash |= 1u128 << slot;
    }
    hash
}

/// Incremental super-key builder for one table row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Xash {
    key: u128,
}

impl Xash {
    /// Empty super key.
    pub fn new() -> Self {
        Xash::default()
    }

    /// Fold one cell value into the super key.
    pub fn add(&mut self, value: &str) {
        self.key |= xash_value(value);
    }

    /// The aggregated super key.
    pub fn finish(&self) -> u128 {
        self.key
    }

    /// Bloom-filter subset test: could a row with this super key contain
    /// `value`? False positives possible, false negatives impossible.
    pub fn may_contain(superkey: u128, value: &str) -> bool {
        let h = xash_value(value);
        superkey & h == h
    }

    /// Subset test for a whole composite key.
    pub fn may_contain_all<'a>(superkey: u128, values: impl IntoIterator<Item = &'a str>) -> bool {
        values.into_iter().all(|v| Xash::may_contain(superkey, v))
    }
}

/// Build the super key of a row given its normalized cell values.
pub fn row_superkey<'a>(values: impl IntoIterator<Item = &'a str>) -> u128 {
    let mut x = Xash::new();
    for v in values {
        x.add(v);
    }
    x.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_nonzero() {
        assert_eq!(xash_value("berlin"), xash_value("berlin"));
        assert_ne!(xash_value("berlin"), 0);
        assert_ne!(xash_value(""), 0); // length bit only
    }

    #[test]
    fn subset_property_exact() {
        let row = ["tom riddle", "2022", "it"];
        let sk = row_superkey(row);
        for v in row {
            assert!(Xash::may_contain(sk, v), "row value `{v}` must pass");
        }
        assert!(Xash::may_contain_all(sk, row));
    }

    #[test]
    fn discriminates_unrelated_values() {
        // A super key of a small row should reject most foreign values.
        let sk = row_superkey(["alpha", "beta", "gamma"]);
        let foreign = [
            "zürich",
            "quixotic",
            "w8xk",
            "jjjj",
            "0423-zz",
            "verylongvaluewithmanychars",
        ];
        let fp = foreign.iter().filter(|v| Xash::may_contain(sk, v)).count();
        assert!(fp <= 1, "too many false positives: {fp}");
    }

    #[test]
    fn length_bit_distinguishes_lengths() {
        // Same rare chars, different length -> different pattern.
        assert_ne!(xash_value("xy"), xash_value("xyy"));
    }

    #[test]
    fn spaces_do_not_contribute_bits() {
        let a = xash_value("ab");
        // Same chars with a space: length differs but char bits match.
        let b = xash_value("a b");
        let char_mask: u128 = (1u128 << CHAR_BITS) - 1;
        assert_eq!(a & char_mask, b & char_mask);
    }

    #[test]
    fn false_positive_rate_is_low_on_synthetic_rows() {
        // Empirical FP sanity check guarding against a degenerate hash.
        let vocab: Vec<String> = (0..500).map(|i| format!("value-{i:03}")).collect();
        let mut fps = 0usize;
        let mut tests = 0usize;
        for chunk in vocab.chunks(5).take(50) {
            let sk = row_superkey(chunk.iter().map(String::as_str));
            for probe in vocab.iter().step_by(7) {
                if chunk.iter().any(|c| c == probe) {
                    continue;
                }
                tests += 1;
                if Xash::may_contain(sk, probe) {
                    fps += 1;
                }
            }
        }
        let rate = fps as f64 / tests as f64;
        assert!(rate < 0.35, "XASH FP rate degenerate: {rate}");
    }

    /// The rarity table against the linear scan of `FREQ_ORDER` it
    /// replaced, for every byte.
    #[test]
    fn rarity_table_equals_the_linear_scan() {
        for b in 0..=255u8 {
            let lower = b.to_ascii_lowercase();
            let scan = match FREQ_ORDER.iter().position(|&f| f == lower) {
                Some(i) => i as u32,
                None => FREQ_ORDER.len() as u32 + lower as u32,
            };
            assert_eq!(RARITY[b as usize], scan, "byte {b}");
        }
    }

    /// Patterns and a super key pinned from the linear-scan version: empty,
    /// upper case, digits, punctuation, spaces, multi-byte UTF-8 and a
    /// value longer than `LEN_BITS`.
    #[test]
    fn patterns_are_pinned() {
        let golden: [(&str, u128); 12] = [
            ("", 0x00000001000000000000000000000000),
            ("berlin", 0x00000040004080004000000000000000),
            ("Tom Riddle", 0x00000400000000000000000040080000),
            ("tom riddle", 0x00000400000000000000000040080000),
            ("2022", 0x00000010000000000000000000034000),
            ("universität 42", 0x00008000c00080000000000000000000),
            ("zebra", 0x00000020000100008000004000000000),
            ("a b", 0x00000008000000010000000080000000),
            ("-3.25", 0x00000020000800000008000000004000),
            ("QUIXOTIC w8xk", 0x00002000000001000000800000000800),
            ("\u{7f}~!@#", 0x00000020000000040000000000000002),
            (
                "verylongvaluewithmanychars-0423zz",
                0x00000002000080000041000000000000,
            ),
        ];
        for (v, want) in golden {
            assert_eq!(xash_value(v), want, "{v:?}");
        }
        let row = row_superkey(["tom riddle", "2022", "it"]);
        assert_eq!(row, 0x000004140080000000004000400b4000);
    }

    #[test]
    fn rare_chars_dominate_selection() {
        // 'z' and 'q' are rarest and must set bits regardless of the common
        // characters around them.
        let with = xash_value("zebra");
        let without = xash_value("aerba");
        assert_ne!(with, without);
    }
}
