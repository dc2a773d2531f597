//! Order statistics and the streaming 64-bit hash the correctness checks use.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile (0..=1) of `sorted` by nearest rank; `sorted` must be
/// ascending and non-empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of ascending nanosecond samples in µs; NaN for none.
pub fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        f64::NAN
    } else {
        quantile_sorted(sorted_ns, q) as f64 / 1e3
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Streaming 64-bit hash: the result depends on the bytes and their order,
/// not on how the stream was cut into `update` calls.
#[derive(Debug, Clone)]
pub struct Hash64 {
    state: u64,
    carry: [u8; 8],
    carried: usize,
    len: u64,
}

const HASH_SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const HASH_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;

impl Default for Hash64 {
    fn default() -> Self {
        Self {
            state: HASH_SEED,
            carry: [0; 8],
            carried: 0,
            len: 0,
        }
    }
}

impl Hash64 {
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(HASH_MUL).rotate_left(29);
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.carried > 0 {
            let take = (8 - self.carried).min(bytes.len());
            self.carry[self.carried..self.carried + take].copy_from_slice(&bytes[..take]);
            self.carried += take;
            bytes = &bytes[take..];
            if self.carried < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.carry));
            self.carried = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carried = rest.len();
    }

    /// `(length, hash)` of everything fed so far.
    pub fn finish(&self) -> (u64, u64) {
        let mut tail = self.clone();
        if tail.carried > 0 {
            tail.carry[tail.carried..].fill(0);
            tail.mix(u64::from_le_bytes(tail.carry));
        }
        tail.mix(tail.len);
        (self.len, tail.state ^ (tail.state >> 32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ignores_how_the_stream_is_cut() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut whole = Hash64::default();
        whole.update(&data);
        for cut in [1usize, 3, 8, 13, 64] {
            let mut pieces = Hash64::default();
            for piece in data.chunks(cut) {
                pieces.update(piece);
            }
            assert_eq!(pieces.finish(), whole.finish(), "cut {cut}");
        }
        let mut other = Hash64::default();
        other.update(&data[..999]);
        assert_ne!(other.finish(), whole.finish());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&values), 5.5);
    }
}
