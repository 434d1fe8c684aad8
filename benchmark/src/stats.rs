//! Order statistics and the result digest.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The value at the highest percentile not above `want` that still has at
/// least ten samples beyond it (choosing-metrics §1), with the percentile
/// actually used. With too few samples for any tail this is the median.
pub fn tail_percentile(sorted: &[f64], want: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, want);
    }
    let wanted_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted_rank.min(n.saturating_sub(10)).max(n.div_ceil(2));
    (sorted[rank - 1], rank as f64 / n as f64)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method) — the rule the driver applies.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// A 64-bit digest of byte strings, FNV-1a taken eight bytes at a step
/// (served results run to megabytes): the served workloads' result
/// references and the informational `result_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn step(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
        self.0 ^= self.0 >> 29;
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.step(u64::from_le_bytes(w.try_into().expect("eight bytes")));
        }
        for &b in words.remainder() {
            self.step(b as u64);
        }
        // Length-delimit so ("ab","c") and ("a","bc") differ.
        self.step(bytes.len() as u64);
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64 step: derives independent generator seeds from `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let s = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        // 200 samples: p95 leaves exactly ten beyond it.
        assert_eq!(tail_percentile(&s(200), 0.95), (190.0, 0.95));
        // 100 samples: only p90 does.
        assert_eq!(tail_percentile(&s(100), 0.95), (90.0, 0.9));
        // 1000 samples: the requested percentile stands.
        assert_eq!(tail_percentile(&s(1000), 0.95), (950.0, 0.95));
        // Too few for any tail: the median.
        assert_eq!(tail_percentile(&s(15), 0.95).0, 8.0);
        for n in [20usize, 57, 100, 199, 200, 5000] {
            let (v, p) = tail_percentile(&s(n), 0.95);
            assert!(n - v as usize >= 10, "n={n} p={p} value={v}");
            assert!(p <= 0.95 + 1e-12);
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_is_length_delimited_and_stable() {
        let mut a = Digest::default();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Digest::default();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.update(b"ab");
        c.update(b"c");
        assert_eq!(a.hex(), c.hex());
    }

    #[test]
    fn derived_seeds_differ_by_stream() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
