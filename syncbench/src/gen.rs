//! Seeded input generation: every set, split and schedule a run uses is
//! derived from the `--seed` argument, so the same seed replays the same
//! inputs.

use std::collections::HashSet;

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` under the run seed `seed`.
    pub fn derive(seed: u64, label: u64) -> Rng {
        let mut rng = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `count` distinct nonzero elements of the 32-bit universe.
pub fn distinct_elements(count: usize, rng: &mut Rng) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let e = rng.next_u64() & 0xFFFF_FFFF;
        if e != 0 && seen.insert(e) {
            out.push(e);
        }
    }
    out
}

/// `k` distinct indices into `0..len`, ascending.
pub fn sample_indices(len: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    assert!(k <= len, "cannot sample {k} of {len}");
    let mut picked = HashSet::with_capacity(k);
    while picked.len() < k {
        picked.insert(rng.below(len));
    }
    let mut out: Vec<usize> = picked.into_iter().collect();
    out.sort_unstable();
    out
}

/// `set` without the elements at the ascending `skip` indices.
pub fn without(set: &[u64], skip: &[usize]) -> Vec<u64> {
    let mut out = Vec::with_capacity(set.len() - skip.len());
    let mut next = skip.iter().peekable();
    for (i, &e) in set.iter().enumerate() {
        if next.peek() == Some(&&i) {
            next.next();
        } else {
            out.push(e);
        }
    }
    out
}

/// Due times (seconds after the window start) of an open-loop schedule at
/// a fixed rate: one every `gap` seconds, the first half a gap in, up to
/// `seconds`. A fixed grid keeps every stall aligned the same way against
/// the schedule, so run-to-run spread reflects the system, not jitter.
pub fn grid(gap: f64, seconds: f64) -> Vec<f64> {
    (0..)
        .map(|k| (k as f64 + 0.5) * gap)
        .take_while(|&t| t < seconds)
        .collect()
}

/// `v` sorted ascending.
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = distinct_elements(1000, &mut Rng::derive(7, 1));
        let b = distinct_elements(1000, &mut Rng::derive(7, 1));
        let c = distinct_elements(1000, &mut Rng::derive(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&e| e != 0 && e <= 0xFFFF_FFFF));
    }

    #[test]
    fn without_skips_exactly_the_sampled_indices() {
        let set: Vec<u64> = (10..20).collect();
        let skip = sample_indices(set.len(), 3, &mut Rng::derive(1, 2));
        let kept = without(&set, &skip);
        assert_eq!(kept.len(), 7);
        assert!(skip.iter().all(|&i| !kept.contains(&set[i])));
    }
}
