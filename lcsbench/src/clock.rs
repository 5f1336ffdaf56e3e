//! The host-normalized clock.
//!
//! The host's speed drifts by up to 2.8× in phases of a few seconds, so
//! raw wall time cannot repeat within a tenth from run to run. The clock runs a
//! fixed reference kernel between workload batches (after every
//! operation of 40 ms or more, after every batch of shorter ones of at
//! most about 130 ms, and after every batch of set-up repetitions) and
//! rescales every duration to a nominal host
//! on which one kernel pass takes [`REF_NOMINAL_S`]:
//!
//! ```text
//! normalized = wall × REF_NOMINAL_S / ((ref_before + ref_after) / 2)
//! ```
//!
//! where `ref_before` and `ref_after` are the timed kernel passes that
//! bracket the interval the duration fell in.
//!
//! The kernel is a breadth-first search written here, never library
//! code, over a fixed random graph of [`KERNEL_NODES`] nodes whose
//! buffers are allocated once. Each tick runs it twice back to back and
//! times only the second pass, so the workload's cache and allocator
//! state cannot leak into the timing.
//!
//! The slow phases come from contention in the memory hierarchy: an
//! integer loop barely slows down while graph code slows by 1.4–1.8×.
//! A kernel whose working set (about 17 MB) is far larger than the
//! 2 MB per-core L2 slows down much like the workloads do; smaller
//! kernels track them worse. `lcsbench/NOTES.md` has the tuning data.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one timed kernel pass takes on the nominal host.
pub const REF_NOMINAL_S: f64 = 0.025;
/// Nodes of the reference kernel's graph.
pub const KERNEL_NODES: usize = 400_000;
/// Random out-edges drawn per node (the graph is then made symmetric).
pub const KERNEL_OUT_DEGREE: usize = 4;
/// Seed of the reference kernel's graph; independent of `--seed`.
pub const KERNEL_SEED: u64 = 0x5EF_C10C;
/// Output of one kernel pass: `reached << 32 | sum of BFS depths`.
pub const KERNEL_CHECKSUM: u64 = 0x0006_1A80_002A_0C6A;

/// SplitMix64: the benchmark's only source of pseudo-randomness.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The reference kernel: BFS from node 0 over a fixed CSR graph.
pub struct RefKernel {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    depth: Vec<u32>,
    queue: Vec<u32>,
}

impl RefKernel {
    /// Builds the fixed graph: every node draws [`KERNEL_OUT_DEGREE`]
    /// random neighbours, and each drawn edge is stored in both
    /// directions.
    pub fn new() -> Self {
        let n = KERNEL_NODES;
        // Edges are drawn twice (count, then fill) rather than stored,
        // so building the kernel does not raise the peak memory above
        // what the kernel keeps.
        let edges = || {
            (0..n).flat_map(|v| {
                (0..KERNEL_OUT_DEGREE).filter_map(move |j| {
                    let u = splitmix64(KERNEL_SEED ^ (v * KERNEL_OUT_DEGREE + j) as u64) % n as u64;
                    (u as usize != v).then_some((v, u as usize))
                })
            })
        };
        let mut offsets = vec![0u32; n + 1];
        for (a, b) in edges() {
            offsets[a + 1] += 1;
            offsets[b + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; offsets[n] as usize];
        for (a, b) in edges() {
            targets[fill[a] as usize] = b as u32;
            fill[a] += 1;
            targets[fill[b] as usize] = a as u32;
            fill[b] += 1;
        }
        RefKernel {
            offsets,
            targets,
            depth: vec![u32::MAX; n],
            queue: vec![0; n],
        }
    }

    /// One BFS pass from node 0; returns `reached << 32 | depth sum`.
    pub fn run(&mut self) -> u64 {
        self.depth.fill(u32::MAX);
        self.depth[0] = 0;
        self.queue[0] = 0;
        let (mut head, mut tail) = (0usize, 1usize);
        let mut depth_sum = 0u64;
        while head < tail {
            let v = self.queue[head] as usize;
            head += 1;
            let d = self.depth[v];
            depth_sum += u64::from(d);
            let arcs = self.offsets[v] as usize..self.offsets[v + 1] as usize;
            for &u in &self.targets[arcs] {
                if self.depth[u as usize] == u32::MAX {
                    self.depth[u as usize] = d + 1;
                    self.queue[tail] = u;
                    tail += 1;
                }
            }
        }
        ((tail as u64) << 32) | depth_sum
    }
}

/// The kernel plus the timings of every tick.
pub struct HostClock {
    kernel: RefKernel,
    refs: Vec<f64>,
    kernel_wall_s: f64,
    started: Instant,
}

impl HostClock {
    /// Builds the kernel and takes the first tick, which opens
    /// interval 0.
    pub fn new() -> Self {
        let mut clock = HostClock {
            kernel: RefKernel::new(),
            refs: Vec::new(),
            kernel_wall_s: 0.0,
            started: Instant::now(),
        };
        clock.tick();
        clock
    }

    /// Runs the kernel twice and times the second pass. Closes the
    /// current interval and opens the next one.
    ///
    /// # Panics
    ///
    /// If the kernel's output differs from [`KERNEL_CHECKSUM`].
    pub fn tick(&mut self) {
        let t0 = Instant::now();
        let warm = black_box(self.kernel.run());
        let t1 = Instant::now();
        let timed = black_box(self.kernel.run());
        let t2 = Instant::now();
        assert!(
            warm == KERNEL_CHECKSUM && timed == KERNEL_CHECKSUM,
            "reference kernel output changed: {warm:#x} / {timed:#x}"
        );
        self.kernel_wall_s += (t2 - t0).as_secs_f64();
        self.refs.push((t2 - t1).as_secs_f64());
    }

    /// The interval a duration measured now falls in.
    pub fn interval(&self) -> usize {
        self.refs.len() - 1
    }

    /// Timed kernel passes, one per tick.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }

    /// Share of the wall time since the clock started that went to the
    /// kernel (both passes of every tick).
    pub fn kernel_share(&self) -> f64 {
        self.kernel_wall_s / self.started.elapsed().as_secs_f64()
    }
}

/// Factor that rescales a wall duration measured in `interval` to the
/// nominal host: `REF_NOMINAL_S` over the mean of the two bracketing
/// kernel timings. An interval not yet closed by a tick uses its
/// opening timing alone.
pub fn scale(refs: &[f64], interval: usize) -> f64 {
    let before = refs[interval];
    let after = refs.get(interval + 1).copied().unwrap_or(before);
    REF_NOMINAL_S / ((before + after) / 2.0)
}

/// The `q`-th percentile (`0 ≤ q ≤ 100`) of `values` by linear
/// interpolation between order statistics; `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    (percentile(values, 75.0) - percentile(values, 25.0)) / median(values)
}

/// The highest of the reported percentiles (99.9, 99, 95, 90, 75, 50)
/// that has at least ten of `n` samples beyond it, or `None` when even
/// the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so the test `n·(1 − q) ≥ 10` stays exact.
    [999u32, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&q| n * (1000 - q as usize) >= 10 * 1000)
        .map(|q| f64::from(q) / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_output_is_pinned() {
        let mut k = RefKernel::new();
        assert_eq!(k.run(), KERNEL_CHECKSUM);
        assert_eq!(k.run(), KERNEL_CHECKSUM, "buffers are reset between passes");
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 75.0), 3.25);
        assert!(percentile(&[], 50.0).is_nan());
    }

    /// A synthetic host whose speed drops 1.6× halfway through a run:
    /// every duration and kernel pass after the step takes 1.6× longer.
    /// Every interval away from the step normalizes to the same value,
    /// the one straddling it lands between the two speeds, and the
    /// median is flat.
    #[test]
    fn bracketing_flattens_a_host_speed_step() {
        let (op, kernel, step) = (0.010, 0.004, 1.6);
        let intervals = 40;
        // The step falls inside interval 20: its op runs slow, the
        // kernel that opened it ran fast.
        let slow = |i: usize| if i > 20 { step } else { 1.0 };
        let refs: Vec<f64> = (0..=intervals).map(|i| kernel * slow(i)).collect();
        let normalized: Vec<f64> = (0..intervals)
            .map(|i| op * if i >= 20 { step } else { 1.0 } * scale(&refs, i))
            .collect();
        let flat = op * REF_NOMINAL_S / kernel;
        for (i, &x) in normalized.iter().enumerate() {
            if i == 20 {
                assert!(x > flat && x < flat * step, "straddling interval {x}");
            } else {
                assert!(
                    (x - flat).abs() < 1e-12 * flat,
                    "interval {i}: {x} vs {flat}"
                );
            }
        }
        assert!((median(&normalized) - flat).abs() < 1e-12 * flat);
        let raw: Vec<f64> = (0..intervals)
            .map(|i| op * if i >= 20 { step } else { 1.0 })
            .collect();
        assert!(iqr_share(&raw) > 0.4, "the raw series is not flat");
    }
}
