//! Exact and sampled LRU stack-distance profiling (Mattson's algorithm).

use crate::curve::MissCurve;
use crate::histogram::StackDistanceHistogram;
use crate::table::U64Map;

/// The set of live access timestamps: one presence bit per timestamp plus
/// a Fenwick (binary-indexed) tree over the popcounts of the 64-bit words,
/// so counting the live timestamps up to `t` costs one `O(log(n / 64))`
/// walk and one popcount.
///
/// The bitmap is the source of truth: growth and compaction rebuild the
/// tree from word popcounts in `O(n / 64)` (zero-extending a Fenwick array
/// is incorrect once prefix queries cross the old boundary).
#[derive(Debug, Clone)]
struct PresenceSet {
    /// Bit `t % 64` of word `t / 64` is set iff timestamp `t` is live.
    bits: Vec<u64>,
    /// 1-based Fenwick tree over `bits[w].count_ones()`, one entry longer
    /// than `bits`.
    tree: Vec<u32>,
}

impl PresenceSet {
    /// An empty set with room for timestamps `0..n`.
    fn with_capacity(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        Self {
            bits: vec![0; words],
            tree: vec![0; words + 1],
        }
    }

    /// Makes room for timestamps `0..n`. Returns `true` when it had to
    /// reallocate (the caller counts these; a properly pre-sized profiler
    /// never grows).
    fn grow_to(&mut self, n: usize) -> bool {
        if n <= self.bits.len() * 64 {
            return false;
        }
        let words = (n + 1).next_power_of_two().div_ceil(64);
        self.bits.resize(words, 0);
        self.tree.resize(words + 1, 0);
        self.build_tree();
        true
    }

    /// `O(words)` Fenwick build from the word popcounts: each node pushes
    /// its partial sum to its parent.
    fn build_tree(&mut self) {
        self.tree.fill(0);
        let len = self.bits.len();
        for i in 1..=len {
            self.tree[i] += self.bits[i - 1].count_ones();
            let parent = i + (i & i.wrapping_neg());
            if parent <= len {
                let v = self.tree[i];
                self.tree[parent] += v;
            }
        }
    }

    /// Adds `delta` (`1`, or `u32::MAX` for −1) to word `w`'s count.
    #[inline]
    fn tree_add(&mut self, w: usize, delta: u32) {
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    #[inline]
    fn insert(&mut self, t: usize) {
        self.bits[t / 64] |= 1 << (t % 64);
        self.tree_add(t / 64, 1);
    }

    #[inline]
    fn remove(&mut self, t: usize) {
        self.bits[t / 64] &= !(1 << (t % 64));
        self.tree_add(t / 64, u32::MAX);
    }

    /// Live timestamps in `[0, t]`.
    #[inline]
    fn rank(&self, t: usize) -> u64 {
        let w = t / 64;
        let mut i = w;
        let mut s = 0u64;
        while i > 0 {
            s += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        let through_t = u64::MAX >> (63 - t % 64);
        s + u64::from((self.bits[w] & through_t).count_ones())
    }

    /// Renumbers the `live` timestamps `0..live`, keeping their order:
    /// every value `times` yields becomes the number of live timestamps
    /// below it, and the set becomes exactly `0..live`. `times` must yield
    /// each live timestamp once.
    fn compact<'a>(&mut self, times: impl Iterator<Item = &'a mut u32>, live: usize) {
        // Live timestamps below each word, held in the tree's storage
        // (rebuilt below).
        let mut below = 0u32;
        for (w, word) in self.bits.iter().enumerate() {
            self.tree[w] = below;
            below += word.count_ones();
        }
        debug_assert_eq!(below as usize, live);
        for t in times {
            let (w, b) = (*t as usize / 64, *t % 64);
            *t = self.tree[w] + (self.bits[w] & ((1u64 << b) - 1)).count_ones();
        }
        let full = live / 64;
        self.bits[..full].fill(u64::MAX);
        self.bits[full..].fill(0);
        if live % 64 != 0 {
            self.bits[full] = (1u64 << (live % 64)) - 1;
        }
        self.build_tree();
    }
}

/// Exact LRU stack-distance profiler.
///
/// Feed it line addresses with [`access`](MattsonStack::access); it returns
/// the stack distance of each access (or `None` for a cold first touch) and
/// counts it towards a [`StackDistanceHistogram`]. The implementation is
/// the classic timestamp formulation: each line's last access time lives
/// in a [`U64Map`], and the set of live timestamps in a presence bitmap
/// with a Fenwick tree over its words, so an access costs `O(log(n / 64))`.
/// Periodic timestamp compaction keeps memory proportional to the number
/// of *distinct* lines rather than total accesses. Distances are counted
/// in a dense array indexed by distance (at most one entry per line ever
/// live at once), and the sparse histogram is built only when read.
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
    /// Each live line's last access time.
    last_time: U64Map<u32>,
    /// The live lines' timestamps: exactly one per live line.
    present: PresenceSet,
    time: usize,
    live: usize,
    reallocations: u64,
    /// `counts[d]`: recorded accesses at stack distance `d` (`counts[0]`
    /// stays 0). Never longer than the largest distance seen plus one.
    counts: Vec<u64>,
    /// Recorded cold (first-touch) accesses.
    cold: u64,
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

    /// The largest live set whose time axis, at most
    /// `max(2^16, SLACK · live)` long, still fits `u32` timestamps.
    const MAX_LIVE: usize = u32::MAX as usize / Self::SLACK;

    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self {
            last_time: U64Map::new(),
            present: PresenceSet::with_capacity(1 << 12),
            time: 0,
            live: 0,
            reallocations: 0,
            counts: Vec::new(),
            cold: 0,
        }
    }

    /// Creates a profiler pre-sized for a stream expected to touch up to
    /// `expected_lines` distinct lines — e.g. a recorded trace's
    /// [`line_span`](wp_trace::StreamInfo::line_span). The presence set is
    /// sized for the worst pre-compaction time axis, and the last-access
    /// table and distance counts for the full line set, so steady-state
    /// profiling performs zero reallocations
    /// ([`reallocations`](Self::reallocations) stays 0) as long as the
    /// estimate holds.
    pub fn with_line_capacity(expected_lines: usize) -> Self {
        let lines = expected_lines.max(1);
        // Timestamps compact once time >= max(2^16, SLACK * live), so the
        // time axis never exceeds that bound while `live <= lines`.
        let time_cap = (Self::SLACK * lines).max(1 << 16);
        Self {
            last_time: U64Map::with_capacity(lines),
            present: PresenceSet::with_capacity(time_cap),
            time: 0,
            live: 0,
            reallocations: 0,
            counts: Vec::with_capacity(lines + 1),
            cold: 0,
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
            Some(d) => {
                // `d <= live`: at most one entry per live line, plus the
                // unused slot 0.
                let d = d as usize;
                if d >= self.counts.len() {
                    let cap = self.counts.capacity();
                    self.counts.resize(d + 1, 0);
                    self.reallocations += u64::from(self.counts.capacity() != cap);
                }
                self.counts[d] += 1;
            }
            None => self.cold += 1,
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
        let table_cap = self.last_time.capacity();
        let dist = match self.last_time.insert(line, t as u32) {
            Some(t0) => {
                // Distinct lines touched strictly after t0, plus this line.
                // Every live line has exactly one present timestamp, all
                // before `t`, so the count in `(t0, t)` is `live` minus the
                // rank of `t0`.
                debug_assert_eq!(self.present.rank(t - 1), self.live as u64);
                let t0 = t0 as usize;
                let between = self.live as u64 - self.present.rank(t0);
                self.present.remove(t0);
                Some(between + 1)
            }
            None => {
                // Compaction keeps the time axis below
                // max(2^16, SLACK · live), so `t` fits a `u32` timestamp
                // as long as the live set stays under MAX_LIVE.
                assert!(
                    self.live < Self::MAX_LIVE,
                    "Mattson stack: more than {} live lines overflow u32 timestamps",
                    Self::MAX_LIVE
                );
                self.live += 1;
                self.reallocations += u64::from(self.last_time.capacity() != table_cap);
                None
            }
        };
        self.present.insert(t);
        self.time += 1;
        dist
    }

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.live
    }

    /// Buffer reallocations performed so far (growths of the presence set,
    /// the last-access table and the distance counts). A stack built with
    /// [`with_line_capacity`](Self::with_line_capacity) whose estimate
    /// holds reports 0 after any number of accesses.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Forgets `line` entirely: its next access is a cold miss and it no
    /// longer counts towards other lines' stack distances. Sampled
    /// profilers use this to evict lines when their hash threshold drops
    /// (SHARDS-style rate adaptation). Returns whether the line was
    /// present.
    pub fn remove(&mut self, line: u64) -> bool {
        match self.last_time.remove(line) {
            Some(t0) => {
                self.present.remove(t0 as usize);
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// The accumulated histogram, built from the dense counts.
    pub fn histogram(&self) -> StackDistanceHistogram {
        StackDistanceHistogram::from_dense(&self.counts, self.cold)
    }

    /// Takes the histogram, leaving an empty one (the LRU stack itself is
    /// preserved, so reuse across interval boundaries is still seen).
    pub fn take_histogram(&mut self) -> StackDistanceHistogram {
        let hist = self.histogram();
        self.counts.clear();
        self.cold = 0;
        hist
    }

    /// Compacts timestamps when the time axis is much larger than the live
    /// set, keeping the presence set small on long runs: each live line's
    /// time becomes its rank, read off the presence bitmap, so compaction
    /// neither sorts nor allocates.
    fn maybe_compact(&mut self) {
        if self.time < (1 << 16) || self.time < Self::SLACK * self.live.max(1) {
            return;
        }
        self.present.compact(self.last_time.values_mut(), self.live);
        self.time = self.live;
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
        assert_eq!(exact.histogram(), sampled.histogram());
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

    #[test]
    fn counts_never_exceed_one_entry_per_live_line() {
        let mut s = MattsonStack::new();
        let mut x = 0x9E37_79B9u64;
        for i in 0..100_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A growing footprint with a skewed reuse pattern.
            s.access(x % (1 + i / 64));
            assert!(s.counts.len() <= s.distinct_lines() + 1);
        }
        assert!(s.counts.len() > 1000, "the footprint should have grown");
    }

    #[test]
    fn presized_stack_never_reallocates_across_compactions() {
        let lines = 5000u64;
        let mut s = MattsonStack::with_line_capacity(lines as usize);
        for i in 0..300_000u64 {
            s.access(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % lines);
        }
        assert!(s.time < 300_000, "timestamps never compacted");
        assert_eq!(s.reallocations(), 0);
    }

    #[test]
    fn compaction_keeps_the_max_key_line() {
        // `u64::MAX` lives outside `U64Map`'s slot array; compaction must
        // renumber it too.
        let mut s = MattsonStack::new();
        for i in 0..70_000u64 {
            s.access(u64::MAX - i % 3);
        }
        assert!(s.time < 70_000);
        // The loop ended on `u64::MAX`; `u64::MAX - 1` was two before.
        assert_eq!(s.access(u64::MAX - 1), Some(3));
        assert_eq!(s.access(u64::MAX), Some(2));
    }

    /// Brute-force LRU stack, most recent first.
    #[derive(Default)]
    struct ListStack(Vec<u64>);

    impl ListStack {
        fn access(&mut self, line: u64) -> Option<u64> {
            let pos = self.0.iter().position(|&l| l == line);
            if let Some(p) = pos {
                self.0.remove(p);
            }
            self.0.insert(0, line);
            pos.map(|p| p as u64 + 1)
        }

        fn remove(&mut self, line: u64) -> bool {
            let pos = self.0.iter().position(|&l| l == line);
            if let Some(p) = pos {
                self.0.remove(p);
            }
            pos.is_some()
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Random traces over live sets of 63, 64 and 65 lines (one
            /// either side of a presence-bit word), long enough to force
            /// timestamp compaction, with removals mixed in: every
            /// distance, the live count and the histogram match a
            /// brute-force LRU list.
            #[test]
            fn matches_a_brute_force_lru_list(
                lines_pick in 0usize..3,
                seed in 0u64..u64::MAX,
                accesses in (1usize << 16)..(3usize << 15),
                remove_one_in in 2u64..200,
            ) {
                let lines = [63u64, 64, 65][lines_pick];
                let mut x = seed | 1;
                let mut stack = MattsonStack::new();
                let mut list = ListStack::default();
                let mut want = StackDistanceHistogram::new();
                let (mut done, mut peak) = (0, 0);
                while done < accesses {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Line 0 is `u64::MAX`, which `U64Map` stores apart.
                    let line = u64::MAX - (x >> 8) % lines * 0x1_0001;
                    if (x >> 40) % remove_one_in == 0 {
                        prop_assert_eq!(stack.remove(line), list.remove(line));
                        continue;
                    }
                    let d = list.access(line);
                    prop_assert_eq!(stack.access(line), d);
                    match d {
                        Some(d) => want.record(d),
                        None => want.record_cold(),
                    }
                    done += 1;
                    peak = peak.max(list.0.len());
                    prop_assert_eq!(stack.distinct_lines(), list.0.len());
                    prop_assert!(stack.counts.len() <= peak + 1);
                }
                prop_assert!(stack.time < accesses, "timestamps never compacted");
                prop_assert_eq!(stack.take_histogram(), want);
                prop_assert_eq!(stack.histogram(), StackDistanceHistogram::new());
            }
        }
    }
}
