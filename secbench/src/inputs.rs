//! Seeded input streams. Everything a timed phase consumes is drawn
//! here, before the phase starts, so random-number generation and zipf
//! sampling never fall inside a timed span and one seed always yields
//! the same inputs.

/// SplitMix64: a small, fast, seedable generator — statistical quality
/// is ample for drawing benchmark inputs, and it has no dependencies.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent generator for one input stream (`lane`) of a run, so
/// each thread's stream does not depend on how many others exist.
pub fn lane(seed: u64, lane: u64) -> Rng {
    let mut mix = Rng::new(seed ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03));
    Rng::new(mix.next_u64())
}

/// Zipf-distributed ranks `0..n` (rank 0 hottest), by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64
    }
}

/// One stack operation of a pre-drawn stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackOp {
    Push(u64),
    Pop,
}

/// Lane 0 holds the prefill values; thread `t` draws from lane `t + 1`.
pub fn stack_prefill(seed: u64, len: usize) -> Vec<u64> {
    let mut rng = lane(seed, 0);
    (0..len).map(|_| rng.next_u64()).collect()
}

/// Thread `thread`'s 50/50 push/pop stream of `len` ops.
pub fn stack_stream(seed: u64, thread: usize, len: usize) -> Vec<StackOp> {
    let mut rng = lane(seed, thread as u64 + 1);
    (0..len)
        .map(|_| {
            let v = rng.next_u64();
            if v & 1 == 0 {
                StackOp::Push(v)
            } else {
                StackOp::Pop
            }
        })
        .collect()
}

/// One kv-pipeline request, addressed by its counter-issued id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvRequest {
    pub insert: bool,
    pub key: u64,
    /// The value an insert stores: the key in the high half, so a read
    /// can check that it got a value written for its own key.
    pub value: u64,
}

/// Tags a map value with the key it was written for.
pub fn kv_value(key: u64, low: u64) -> u64 {
    (key << 32) | (low & 0xFFFF_FFFF)
}

/// The key a map value was written for.
pub fn kv_value_key(value: u64) -> u64 {
    value >> 32
}

/// The request table: request `id` is `table[id]`, whichever thread
/// happens to take `id` from the counter, so the applied inputs do not
/// depend on scheduling.
pub fn kv_table(seed: u64, len: usize, keys: usize, theta: f64, insert_pct: u64) -> Vec<KvRequest> {
    let zipf = Zipf::new(keys, theta);
    let mut rng = lane(seed, 0x4B56);
    (0..len)
        .map(|_| {
            let insert = rng.next_u64() % 100 < insert_pct;
            let key = zipf.sample(&mut rng);
            KvRequest {
                insert,
                key,
                value: kv_value(key, rng.next_u64()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_yields_identical_streams() {
        assert_eq!(stack_prefill(7, 1000), stack_prefill(7, 1000));
        assert_eq!(stack_stream(7, 1, 10_000), stack_stream(7, 1, 10_000));
        assert_eq!(
            kv_table(7, 10_000, 4096, 0.99, 20),
            kv_table(7, 10_000, 4096, 0.99, 20)
        );
    }

    #[test]
    fn different_seeds_and_threads_yield_different_streams() {
        assert_ne!(stack_prefill(7, 1000), stack_prefill(8, 1000));
        assert_ne!(stack_stream(7, 0, 10_000), stack_stream(8, 0, 10_000));
        assert_ne!(stack_stream(7, 0, 10_000), stack_stream(7, 1, 10_000));
        assert_ne!(
            kv_table(7, 10_000, 4096, 0.99, 20),
            kv_table(8, 10_000, 4096, 0.99, 20)
        );
    }

    #[test]
    fn stack_stream_is_balanced() {
        let s = stack_stream(3, 0, 100_000);
        let pushes = s.iter().filter(|op| matches!(op, StackOp::Push(_))).count();
        assert!((48_000..52_000).contains(&pushes), "{pushes} pushes");
    }

    #[test]
    fn kv_table_mix_and_skew() {
        let t = kv_table(5, 100_000, 4096, 0.99, 20);
        let inserts = t.iter().filter(|r| r.insert).count();
        assert!((18_000..22_000).contains(&inserts), "{inserts} inserts");
        assert!(t
            .iter()
            .all(|r| r.key < 4096 && kv_value_key(r.value) == r.key));
        // θ = 0.99 over 4096 keys puts roughly 11% of requests on key 0.
        let hot = t.iter().filter(|r| r.key == 0).count();
        assert!((8_000..15_000).contains(&hot), "{hot} requests on key 0");
    }
}
