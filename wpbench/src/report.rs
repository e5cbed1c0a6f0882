//! What a run reports: named metrics with units, operations attempted
//! and failed, and the statistics and digests the workloads share.

use std::collections::BTreeMap;
use std::time::Duration;

/// One run's result, printed as the benchmark's last stdout line.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Digests computed this run, by name (written out by
    /// `--record-digests`).
    pub digests: BTreeMap<String, String>,
}

impl Report {
    /// Records a metric. Names are unique; a repeat is a bug.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(!self.has(&name), "metric {name} reported twice");
        self.metrics.push((name, value, unit));
    }

    /// Whether `name` has been reported.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// Counts one operation; a failed one is also described on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Checks `digest` (computed under `key`) against `expected` and
    /// counts the check as one operation.
    pub fn expect_digest(&mut self, key: &str, digest: &str, expected: Option<&str>) {
        self.digests
            .entry(key.to_string())
            .or_insert_with(|| digest.to_string());
        self.op(expected == Some(digest), || {
            format!(
                "{key}: digest {digest}, expected {}",
                expected.unwrap_or("(none recorded)")
            )
        });
    }

    /// Human-readable metric lines, then the one-line JSON result.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<44} {value:>16.6} {unit}");
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

/// A finite f64 as JSON (all its digits); non-finite values become 0,
/// which no end-to-end metric can be, so they cannot pass unnoticed.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// Seconds of a duration.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs`, interpolating linearly between the
/// closest ranks (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The geometric mean of `xs`.
pub fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A 64-bit FNV-1a digest of `bytes`, as 16 hex digits. Not
/// cryptographic: it detects changed outputs, not forged ones.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn failed_ops_make_the_run_incorrect() {
        let mut r = Report::default();
        r.op(true, String::new);
        r.expect_digest("k", "00", Some("01"));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.digests["k"], "00");
    }
}
