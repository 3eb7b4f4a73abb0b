//! Order statistics, the workload RNG and process probes.

use std::time::Duration;

/// Linear-interpolated percentile of `samples` (`p` in `[0, 1]`); sorts
/// in place. Returns 0 for an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

/// Median of `samples`; sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them, so a spread printed here matches the one a reader
/// recomputes from the raw values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Splits a timed window of length `span` into `windows` equal parts and
/// returns the median over parts of `stat` applied to the values that
/// completed in each part (`(completion offset, value)` pairs; parts
/// without samples are skipped). A burst of outside interference then
/// moves at most the parts it overlaps, not the reported figure.
pub fn windowed(
    samples: &[(Duration, f64)],
    span: Duration,
    windows: usize,
    stat: impl Fn(&mut [f64]) -> f64,
) -> f64 {
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); windows.max(1)];
    for &(at, v) in samples {
        let i = (at.as_secs_f64() / span.as_secs_f64() * windows as f64) as usize;
        parts[i.min(windows - 1)].push(v);
    }
    let mut per_part: Vec<f64> =
        parts.iter_mut().filter(|p| !p.is_empty()).map(|p| stat(p)).collect();
    median(&mut per_part)
}

/// The median over the same parts of each part's summed values per
/// second; a part without samples counts as zero.
pub fn windowed_rate(samples: &[(Duration, f64)], span: Duration, windows: usize) -> f64 {
    let part_s = span.as_secs_f64() / windows as f64;
    let mut sums = vec![0.0; windows.max(1)];
    for &(at, v) in samples {
        let i = (at.as_secs_f64() / part_s) as usize;
        sums[i.min(windows - 1)] += v;
    }
    let mut rates: Vec<f64> = sums.iter().map(|s| s / part_s).collect();
    median(&mut rates)
}

/// CPU time the whole process has used so far: every thread, including
/// threads that have exited (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall
/// time it does not grow while another tenant of the host holds the CPU.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a valid pointer; std links libc.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: the benchmark's own input generator. Everything a workload
/// sends is derived from `--seed` through it, so one seed always yields
/// the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one named stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Client threads and connections: one per core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn process_cpu_counts_work() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > before, "{x}");
    }

    #[test]
    fn percentile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
    }
}
