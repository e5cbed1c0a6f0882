//! Exact and sampled LRU stack-distance profiling (Mattson's algorithm).

use crate::curve::MissCurve;
use crate::fxmap::FastMap;
use crate::histogram::StackDistanceHistogram;

/// A Fenwick (binary-indexed) tree over access timestamps, used to count the
/// number of distinct lines touched since a given time in `O(log n)`.
///
/// Keeps a shadow array of point values so the tree can be rebuilt exactly
/// when it grows (zero-extending a Fenwick array is incorrect once prefix
/// queries cross the old boundary).
#[derive(Debug, Clone, Default)]
struct Fenwick {
    tree: Vec<u32>,
    vals: Vec<u32>,
}

impl Fenwick {
    fn with_capacity(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
            vals: vec![0; n],
        }
    }

    /// Returns `true` when the tree had to reallocate (the caller counts
    /// these; a properly pre-sized profiler never grows).
    fn grow_to(&mut self, n: usize) -> bool {
        if n <= self.vals.len() {
            return false;
        }
        let new_len = (n + 1).next_power_of_two();
        self.vals.resize(new_len, 0);
        self.tree = vec![0; new_len + 1];
        self.build_tree();
        true
    }

    /// O(len) Fenwick build from `vals`: push each node's partial sum to
    /// its parent. `tree` must already be zeroed.
    fn build_tree(&mut self) {
        let len = self.vals.len();
        for i in 1..=len {
            self.tree[i] += self.vals[i - 1];
            let parent = i + (i & i.wrapping_neg());
            if parent <= len {
                let v = self.tree[i];
                self.tree[parent] += v;
            }
        }
    }

    /// Resets the tree *in place* to `1` at ranks `0..n` and `0` above —
    /// the shape timestamp compaction needs — growing only if `n` exceeds
    /// the current capacity. Returns `true` on a reallocation.
    fn rebuild_ones(&mut self, n: usize) -> bool {
        let grew = if n > self.vals.len() {
            let new_len = (n + 1).next_power_of_two();
            self.vals.resize(new_len, 0);
            self.tree.resize(new_len + 1, 0);
            true
        } else {
            false
        };
        self.vals[..n].fill(1);
        self.vals[n..].fill(0);
        self.tree.fill(0);
        self.build_tree();
        grew
    }

    fn add(&mut self, i: usize, delta: i32) {
        self.vals[i] = (self.vals[i] as i64 + delta as i64) as u32;
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of `[0, i]`.
    fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Exact LRU stack-distance profiler.
///
/// Feed it line addresses with [`access`](MattsonStack::access); it returns
/// the stack distance of each access (or `None` for a cold first touch) and
/// accumulates a [`StackDistanceHistogram`]. The implementation is the
/// classic timestamp + Fenwick-tree formulation: `O(log n)` per access,
/// with periodic timestamp compaction so memory stays proportional to the
/// number of *distinct* lines rather than total accesses.
///
/// # Example
///
/// ```
/// use wp_mrc::MattsonStack;
/// let mut s = MattsonStack::new();
/// assert_eq!(s.access(0xA), None);    // cold
/// assert_eq!(s.access(0xB), None);    // cold
/// assert_eq!(s.access(0xA), Some(2)); // B then A touched since last A
/// ```
#[derive(Debug, Clone)]
pub struct MattsonStack {
    last_time: FastMap<u64, usize>,
    present: Fenwick,
    /// Reused compaction buffer of `(timestamp, line)` pairs, so
    /// steady-state compaction allocates nothing.
    scratch: Vec<(usize, u64)>,
    time: usize,
    live: usize,
    reallocations: u64,
    hist: StackDistanceHistogram,
}

impl Default for MattsonStack {
    fn default() -> Self {
        Self::new()
    }
}

impl MattsonStack {
    /// Compaction slack: timestamps are compacted once the time axis
    /// exceeds this multiple of the live set.
    const SLACK: usize = 4;

    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self {
            last_time: FastMap::default(),
            present: Fenwick::with_capacity(1 << 12),
            scratch: Vec::new(),
            time: 0,
            live: 0,
            reallocations: 0,
            hist: StackDistanceHistogram::new(),
        }
    }

    /// Creates a profiler pre-sized for a stream expected to touch up to
    /// `expected_lines` distinct lines — e.g. a recorded trace's
    /// [`line_span`](wp_trace::StreamInfo::line_span). The Fenwick tree
    /// is sized for the worst pre-compaction time axis and the reuse map
    /// for the full line set, so steady-state profiling performs zero
    /// reallocations ([`reallocations`](Self::reallocations) stays 0) as
    /// long as the estimate holds.
    pub fn with_line_capacity(expected_lines: usize) -> Self {
        let lines = expected_lines.max(1);
        // Timestamps compact once time >= max(2^16, SLACK * live), so the
        // time axis never exceeds that bound while `live <= lines`.
        let time_cap = (Self::SLACK * lines).max(1 << 16);
        Self {
            last_time: FastMap::with_capacity_and_hasher(lines, Default::default()),
            present: Fenwick::with_capacity(time_cap),
            scratch: Vec::with_capacity(lines),
            time: 0,
            live: 0,
            reallocations: 0,
            hist: StackDistanceHistogram::new(),
        }
    }

    /// Processes one access to `line` and returns its stack distance
    /// (`None` for a cold miss), recording it in the histogram. Distances
    /// count distinct lines including the accessed line itself, so a hit
    /// immediately after the previous access to the same line has
    /// distance 1.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        let dist = self.distance(line);
        match dist {
            Some(d) => self.hist.record(d),
            None => self.hist.record_cold(),
        }
        dist
    }

    /// [`access`](Self::access) without recording: updates the LRU stack
    /// and returns the stack distance, leaving the histogram untouched.
    /// Sampled profilers that keep their own (scaled) histogram use this,
    /// so no second, unread histogram grows alongside theirs.
    pub fn distance(&mut self, line: u64) -> Option<u64> {
        self.maybe_compact();
        let t = self.time;
        self.reallocations += u64::from(self.present.grow_to(t + 1));
        let dist = match self.last_time.insert(line, t) {
            Some(t0) => {
                // Distinct lines touched strictly after t0, plus this line.
                // Every live line has exactly one present timestamp, all
                // before `t`, so the count in `(t0, t)` is `live` minus the
                // prefix through `t0`.
                debug_assert_eq!(self.present.prefix(t - 1), self.live as u64);
                let between = self.live as u64 - self.present.prefix(t0);
                self.present.add(t0, -1);
                Some(between + 1)
            }
            None => {
                self.live += 1;
                None
            }
        };
        self.present.add(t, 1);
        self.time += 1;
        dist
    }

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.live
    }

    /// Buffer reallocations performed so far (Fenwick growths). A stack
    /// built with [`with_line_capacity`](Self::with_line_capacity) whose
    /// estimate holds reports 0 after any number of accesses.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Forgets `line` entirely: its next access is a cold miss and it no
    /// longer counts towards other lines' stack distances. Sampled
    /// profilers use this to evict lines when their hash threshold drops
    /// (SHARDS-style rate adaptation). Returns whether the line was
    /// present.
    pub fn remove(&mut self, line: u64) -> bool {
        match self.last_time.remove(&line) {
            Some(t0) => {
                self.present.add(t0, -1);
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// The accumulated histogram.
    pub fn histogram(&self) -> &StackDistanceHistogram {
        &self.hist
    }

    /// Takes the histogram, leaving an empty one (the LRU stack itself is
    /// preserved, so reuse across interval boundaries is still seen).
    pub fn take_histogram(&mut self) -> StackDistanceHistogram {
        std::mem::take(&mut self.hist)
    }

    /// Compacts timestamps when the time axis is much larger than the live
    /// set, keeping the Fenwick tree small on long runs. Compaction reuses
    /// the existing buffers (the Fenwick capacity is the high-water mark),
    /// so a pre-sized stack compacts without allocating.
    fn maybe_compact(&mut self) {
        if self.time < (1 << 16) || self.time < Self::SLACK * self.live.max(1) {
            return;
        }
        self.scratch.clear();
        self.scratch
            .extend(self.last_time.iter().map(|(&a, &t)| (t, a)));
        self.scratch.sort_unstable();
        let n = self.scratch.len();
        for (rank, &(_, addr)) in self.scratch.iter().enumerate() {
            self.last_time.insert(addr, rank);
        }
        self.reallocations += u64::from(self.present.rebuild_ones(n));
        self.time = n;
    }
}

/// A spatially-sampled stack-distance profiler (SHARDS-style).
///
/// Only lines whose hash falls under a threshold are tracked; observed
/// distances and counts are scaled by the inverse sampling rate. This is the
/// model for Jigsaw/Whirlpool's GMON hardware monitors, which sample a
/// subset of sets/lines to keep overheads low (Sec. 2.4/3.2).
///
/// Distances are counted at *granule* resolution, in a dense array with
/// one bucket per `granule_lines` lines: a scaled distance `d` lands in
/// bucket `⌈d / granule_lines⌉`. That loses nothing a monitor needs —
/// [`MissCurve::from_histogram`](crate::MissCurve::from_histogram) with
/// the same granule only compares distances against multiples of
/// `granule_lines`, and `d ≤ g·granule_lines` exactly when
/// `⌈d / granule_lines⌉ ≤ g` — so its curves are bit-identical to those of
/// a line-resolution histogram. The buckets never leave this type: it
/// hands out [`MissCurve`]s at its own granule
/// ([`take_curve`](Self::take_curve)), so no caller can read the rounded
/// distances at another resolution.
#[derive(Debug, Clone)]
pub struct SampledStack {
    inner: MattsonStack,
    rate_log2: u32,
    granule_lines: u64,
    /// `buckets[g]`: scaled accesses with scaled distance in
    /// `((g - 1)·granule_lines, g·granule_lines]` (bucket 0 stays empty:
    /// distances are at least 1). Grows on demand.
    buckets: Vec<u64>,
    /// Scaled cold (first-touch) accesses.
    cold: u64,
}

impl SampledStack {
    /// Creates a profiler that samples one in `2^rate_log2` lines and
    /// counts distances in buckets of `granule_lines` lines (0 is treated
    /// as 1). `rate_log2 == 0` samples every line.
    pub fn new(rate_log2: u32, granule_lines: u64) -> Self {
        Self {
            inner: MattsonStack::new(),
            rate_log2,
            granule_lines: granule_lines.max(1),
            buckets: Vec::new(),
            cold: 0,
        }
    }

    fn sampled(&self, line: u64) -> bool {
        if self.rate_log2 == 0 {
            return true;
        }
        // Fibonacci hashing: cheap, well-mixed low bits.
        let h = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.rate_log2)) == 0
    }

    /// Processes one access; untracked lines are ignored.
    pub fn access(&mut self, line: u64) {
        if !self.sampled(line) {
            return;
        }
        let scale = 1u64 << self.rate_log2;
        match self.inner.distance(line) {
            Some(d) => {
                let g = (d * scale).div_ceil(self.granule_lines) as usize;
                if g >= self.buckets.len() {
                    self.buckets.resize(g + 1, 0);
                }
                self.buckets[g] += scale;
            }
            None => self.cold += scale,
        }
    }

    /// The accumulated (scaled) histogram, each bucket's count recorded at
    /// the bucket's upper distance `g · granule_lines` — exact only at
    /// multiples of `granule_lines`, hence private.
    fn histogram(&self) -> StackDistanceHistogram {
        let mut hist = StackDistanceHistogram::new();
        for (g, &count) in self.buckets.iter().enumerate() {
            if count > 0 {
                hist.record_weighted(g as u64 * self.granule_lines, count);
            }
        }
        hist.record_cold_weighted(self.cold);
        hist
    }

    /// The miss curve of the accesses counted so far, one point per
    /// granule and normalized by `instructions` (see
    /// [`MissCurve::from_histogram`]), or `None` if no sampled access was
    /// counted.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn curve(&self, instructions: u64) -> Option<MissCurve> {
        let hist = self.histogram();
        (hist.total() > 0)
            .then(|| MissCurve::from_histogram(&hist, instructions, self.granule_lines))
    }

    /// [`curve`](Self::curve), then resets the counts (the sampled LRU
    /// stack is preserved, so reuse across intervals is still seen).
    pub fn take_curve(&mut self, instructions: u64) -> Option<MissCurve> {
        let curve = self.curve(instructions);
        self.buckets.clear();
        self.cold = 0;
        curve
    }

    /// One in `2^rate_log2` lines are tracked.
    pub fn rate_log2(&self) -> u32 {
        self.rate_log2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force stack distance for cross-checking.
    fn brute_distances(trace: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        for (i, &a) in trace.iter().enumerate() {
            let mut prev = None;
            for j in (0..i).rev() {
                if trace[j] == a {
                    prev = Some(j);
                    break;
                }
            }
            match prev {
                None => out.push(None),
                Some(j) => {
                    let mut distinct = std::collections::HashSet::new();
                    for &b in &trace[j + 1..=i] {
                        distinct.insert(b);
                    }
                    out.push(Some(distinct.len() as u64));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_small() {
        let trace = [1u64, 2, 3, 1, 2, 2, 4, 3, 1];
        let mut s = MattsonStack::new();
        let got: Vec<_> = trace.iter().map(|&a| s.access(a)).collect();
        assert_eq!(got, brute_distances(&trace));
    }

    #[test]
    fn matches_brute_force_random() {
        // Deterministic xorshift trace over a small address set.
        let mut x = 0x1234_5678u64;
        let mut trace = Vec::new();
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            trace.push(x % 23);
        }
        let mut s = MattsonStack::new();
        let got: Vec<_> = trace.iter().map(|&a| s.access(a)).collect();
        assert_eq!(got, brute_distances(&trace));
    }

    #[test]
    fn compaction_preserves_distances() {
        // Long trace over few lines forces compaction; distances must stay
        // correct afterwards.
        let mut s = MattsonStack::new();
        for i in 0..200_000u64 {
            s.access(i % 8);
        }
        // Steady state: every access is distance 8.
        assert_eq!(s.access(0), Some(8));
        assert_eq!(s.distinct_lines(), 8);
    }

    #[test]
    fn sequential_scan_is_all_cold_then_cyclic() {
        let mut s = MattsonStack::new();
        for i in 0..64u64 {
            assert_eq!(s.access(i), None);
        }
        for i in 0..64u64 {
            assert_eq!(s.access(i), Some(64));
        }
    }

    #[test]
    fn sampled_rate_zero_is_exact() {
        let mut exact = MattsonStack::new();
        let mut sampled = SampledStack::new(0, 1);
        for i in 0..100u64 {
            exact.access(i % 10);
            sampled.access(i % 10);
        }
        assert_eq!(exact.histogram(), &sampled.histogram());
    }

    #[test]
    fn sampled_total_is_close_to_exact() {
        // With rate 1/4 over many uniformly-hashed lines, totals should be
        // within a reasonable factor.
        let mut sampled = SampledStack::new(2, 1);
        let n = 40_000u64;
        for i in 0..n {
            sampled.access(i.wrapping_mul(2654435761) % 4096);
        }
        let total = sampled.histogram().total();
        assert!(
            total > n / 2 && total < n * 2,
            "scaled total {total} too far from {n}"
        );
    }

    #[test]
    fn take_histogram_resets_counts_not_stack() {
        let mut s = MattsonStack::new();
        s.access(1);
        s.access(2);
        let h = s.take_histogram();
        assert_eq!(h.total(), 2);
        assert_eq!(s.histogram().total(), 0);
        // Stack survives: this is a hit at distance 2, not a cold miss.
        assert_eq!(s.access(1), Some(2));
    }

    #[test]
    fn sampled_stack_leaves_the_inner_histogram_empty() {
        let mut s = SampledStack::new(1, 4);
        for i in 0..50_000u64 {
            s.access(i % 3000);
        }
        assert!(s.histogram().total() > 0);
        assert_eq!(s.inner.histogram().total(), 0, "shadow histogram grew");
    }

    #[test]
    fn distance_matches_access_without_recording() {
        let mut recording = MattsonStack::new();
        let mut silent = MattsonStack::new();
        for i in 0..10_000u64 {
            let line = (i * 7919) % 613;
            assert_eq!(recording.access(line), silent.distance(line));
        }
        assert_eq!(silent.histogram().total(), 0);
        assert_eq!(recording.histogram().total(), 10_000);
    }
}
