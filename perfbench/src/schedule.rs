//! Open-loop arrival schedules: a pure function of the workload seed.
//!
//! The generator never decides *when* to send from what the server did;
//! every send time is fixed here before the first request goes out, so a
//! stall shows as latency of the requests scheduled behind it instead of
//! silently lowering the offered load.

/// SplitMix64: a tiny, fully specified generator, so a schedule depends
/// on the seed alone and not on any library's sampling algorithm.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole output stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Intended send time, nanoseconds after the phase starts.
    pub at_ns: u64,
    /// Index of the target registration.
    pub reg: usize,
    /// Index of the input image in the registration's model pool.
    pub image: usize,
}

/// Poisson arrivals at `rate_per_s` over `duration_s`, each aimed at a
/// uniformly drawn registration (of `regs`) and input image (of
/// `images`).
///
/// # Panics
///
/// If the rate or duration is not positive, or `regs`/`images` is 0.
pub fn poisson(
    seed: u64,
    rate_per_s: f64,
    duration_s: f64,
    regs: usize,
    images: usize,
) -> Vec<Arrival> {
    assert!(
        rate_per_s > 0.0 && duration_s > 0.0,
        "rate and duration must be positive"
    );
    assert!(
        regs > 0 && images > 0,
        "need at least one registration and image"
    );
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity((rate_per_s * duration_s * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.next_open01().ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(Arrival {
            at_ns: (t * 1e9) as u64,
            reg: rng.below(regs),
            image: rng.below(images),
        });
    }
}

/// Mixes a workload seed with a phase label into an independent stream
/// seed, so phases of one run never share arrival streams.
pub fn derive(seed: u64, label: u64) -> u64 {
    SplitMix64::new(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson(7, 300.0, 2.0, 4, 32);
        let b = poisson(7, 300.0, 2.0, 4, 32);
        assert_eq!(a, b);
        assert_ne!(a, poisson(8, 300.0, 2.0, 4, 32));
    }

    #[test]
    fn schedule_is_sorted_in_range_and_near_the_rate() {
        let a = poisson(1, 500.0, 20.0, 4, 32);
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a
            .iter()
            .all(|x| x.at_ns < 20_000_000_000 && x.reg < 4 && x.image < 32));
        // 10 000 expected arrivals; the Poisson sd is 100.
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        for r in 0..4 {
            let share = a.iter().filter(|x| x.reg == r).count() as f64 / a.len() as f64;
            assert!(
                (share - 0.25).abs() < 0.03,
                "registration {r} share {share}"
            );
        }
    }

    #[test]
    fn derived_phase_seeds_differ() {
        assert_ne!(derive(5, 1), derive(5, 2));
        assert_eq!(derive(5, 1), derive(5, 1));
    }
}
