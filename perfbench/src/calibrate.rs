//! Machine-speed calibration.
//!
//! On a shared host the same binary runs up to twice as slowly for
//! minutes at a time while neighbours load the same cores. A fixed kernel
//! is timed in short chunks interleaved with the measured work, and each
//! timing is divided by the slowdown the chunks saw over the same
//! stretch, so runs made in slow and quiet periods compare. The raw
//! timings are printed next to the calibrated ones.
//!
//! The kernel is a dependent chain of integer mixing through a 4 KiB
//! table. It warms up within a few hundred nanoseconds, so its speed does
//! not depend on what ran before it: kernels chasing pointers through
//! 1 MiB ran up to five times slower after a short verdict than back to
//! back, depending on how much of their array the verdict had evicted.
//! It tracks most, not all, of a slowdown: when the pipeline ran 2× slower
//! the kernel ran about 1.6× slower.

use std::time::Instant;

/// Wall time of one chunk on a quiet host, in ns: calibrated timings are
/// what the work would have taken at that speed.
pub const CHUNK_NOMINAL_NS: f64 = 50_000.0;

/// Share of each measured stretch spent on calibration chunks afterwards.
pub const SHARE: f64 = 0.1;

const TABLE: usize = 512;
const STEPS: u64 = 16_384;

/// The calibration kernel and its working set.
pub struct Calibrator {
    table: Vec<u64>,
    mix: u64,
}

/// Chunk wall time accumulated over one measured stretch.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    wall_ns: f64,
    chunks: u32,
}

impl Tally {
    /// How many times slower than nominal the chunks ran (1 before any).
    pub fn factor(&self) -> f64 {
        if self.chunks == 0 {
            1.0
        } else {
            self.wall_ns / (f64::from(self.chunks) * CHUNK_NOMINAL_NS)
        }
    }
}

impl Calibrator {
    /// A kernel with a fixed initial table.
    pub fn new() -> Calibrator {
        let mut rng = crate::workloads::Rng::new(0x00C0_FFEE);
        Calibrator {
            table: (0..TABLE).map(|_| rng.next_u64()).collect(),
            mix: 1,
        }
    }

    fn chunk(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.mix | 1;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) % TABLE;
            x = x.wrapping_add(self.table[slot]);
            self.table[slot] = x ^ i;
        }
        self.mix = std::hint::black_box(x);
        start.elapsed().as_nanos() as f64
    }

    /// Runs chunks for at least `budget_ns` (at least one chunk) and adds
    /// their wall time to `tally`.
    pub fn run(&mut self, budget_ns: f64, tally: &mut Tally) {
        let mut spent = 0.0;
        loop {
            spent += self.chunk();
            tally.chunks += 1;
            if spent >= budget_ns {
                break;
            }
        }
        tally.wall_ns += spent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_runs_at_least_the_budget() {
        let mut c = Calibrator::new();
        let mut t = Tally::default();
        assert_eq!(t.factor(), 1.0);
        c.run(0.0, &mut t);
        assert_eq!(t.chunks, 1);
        c.run(3.0 * CHUNK_NOMINAL_NS, &mut t);
        assert!(t.wall_ns >= 3.0 * CHUNK_NOMINAL_NS);
        assert!(t.factor() > 0.0);
    }
}
