//! Small helpers: a seeded generator, order statistics, hashing, process
//! memory, and the metric record every workload reports.

use std::time::Duration;

/// SplitMix64: the benchmark's own deterministic generator, so inputs
/// depend only on `--seed` and not on any crate of the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            // lint: allow(atomic-ordering) — a slice swap, not an atomic.
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent seed for one named input from the run seed.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(tag.as_bytes());
    Rng::new(seed ^ h.finish()).next_u64()
}

/// FNV-1a, used to fingerprint node lists, paths and documents.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn hash_nodes(nodes: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.u32(nodes.len() as u32);
    for &v in nodes {
        h.u32(v);
    }
    h.finish()
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("index_bytes_per_xml_byte", "B/B"),
    ("peak_rss_mb", "MiB"),
];

/// Names the values of [`END_TO_END`], given in its order.
pub fn end_to_end(values: [f64; 7]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// `(steal, total)` CPU clock ticks of the machine so far (`/proc/stat`):
/// time the hypervisor gave to other guests, a diagnostic for noisy runs.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
pub struct Report {
    /// Every check made apart from the program passed.
    pub correct: bool,
    /// Caller operations attempted in the measured phase (reads and writes).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            out.push_str(&format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Records a failed check on stderr and clears `ok`.
pub fn check(ok: &mut bool, cond: bool, what: impl FnOnce() -> String) {
    if !cond {
        eprintln!("perfbench: CHECK FAILED: {}", what());
        *ok = false;
    }
}
