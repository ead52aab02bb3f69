//! Small measurement helpers: percentiles, an output digest, peak memory
//! and provenance.

use std::process::Command;
use std::time::Duration;

/// Nearest-rank percentile `q` (0..=1) of `values`, which it sorts.
/// Returns `f64::INFINITY` when any sample is infinite and lands at or
/// beyond the rank, which is how a failed request misses a limit.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values` (sorted in place), averaging the middle pair.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a-64 over whatever a workload feeds it: the output checksum that
/// shows two runs did the same work.
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The first line a command prints, or a note saying why there is none.
fn first_line(cmd: &mut Command) -> String {
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string(),
        Ok(_) => "none".into(),
        Err(e) => format!("unavailable ({e})"),
    }
}

/// What produced a result: host parallelism, source revision, compiler.
pub fn provenance(nproc: usize) -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    // Keep git from searching directories above the benchmark's checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    format!(
        "{{\"nproc\": {nproc}, \"git_rev\": \"{}\", \"rustc\": \"{}\"}}",
        first_line(&mut git),
        first_line(Command::new("rustc").arg("--version"))
    )
}
