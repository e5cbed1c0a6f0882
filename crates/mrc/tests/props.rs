//! Property-based tests for the miss-rate-curve machinery.

use proptest::prelude::*;
use wp_mrc::{
    combine_miss_curves, convex_hull, partition_capacity, partitioned_curve, MattsonStack,
    MissCurve, SampledStack, StackDistanceHistogram,
};

/// The line-resolution reference for [`SampledStack`]: the same
/// Fibonacci sampling and scaling, with every distance recorded exactly.
fn line_resolution_histogram(
    stack: &mut MattsonStack,
    trace: &[u64],
    rate_log2: u32,
) -> StackDistanceHistogram {
    let scale = 1u64 << rate_log2;
    let mut h = StackDistanceHistogram::new();
    for &line in trace {
        let h_fib = line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if rate_log2 > 0 && h_fib >> (64 - rate_log2) != 0 {
            continue;
        }
        match stack.access(line) {
            Some(d) => h.record_weighted(d * scale, scale),
            None => h.record_cold_weighted(scale),
        }
    }
    h
}

/// Strategy: a monotone non-increasing, non-negative miss curve.
fn miss_curve(max_len: usize) -> impl Strategy<Value = MissCurve> {
    (2..max_len, 0.0f64..100.0)
        .prop_flat_map(|(len, start)| {
            proptest::collection::vec(0.0f64..1.0, len).prop_map(move |drops| {
                let mut v = Vec::with_capacity(drops.len() + 1);
                let mut cur = start;
                v.push(cur);
                for d in drops {
                    cur *= d;
                    v.push(cur);
                }
                MissCurve::new(v, 4)
            })
        })
        .boxed()
}

proptest! {
    #[test]
    fn hull_is_dominated_and_convex(c in miss_curve(24)) {
        let h = convex_hull(&c);
        for i in 0..c.len() {
            prop_assert!(h.mpki_at(i) <= c.mpki_at(i) + 1e-9);
        }
        // Convexity: second differences non-negative.
        let p = h.points();
        for w in p.windows(3) {
            prop_assert!(w[0] - 2.0 * w[1] + w[2] >= -1e-6);
        }
        // Endpoints preserved.
        prop_assert!((h.at_zero() - c.at_zero()).abs() < 1e-9);
        prop_assert!((h.floor() - c.floor()).abs() < 1e-9);
    }

    #[test]
    fn combine_is_commutative_and_monotone(a in miss_curve(16), b in miss_curve(16)) {
        let ab = combine_miss_curves(&a, &b);
        let ba = combine_miss_curves(&b, &a);
        for i in 0..ab.len() {
            prop_assert!((ab.mpki_at(i) - ba.mpki_at(i)).abs() < 1e-6);
        }
        prop_assert!(ab.is_monotone());
        // Zero-capacity point sums access rates.
        prop_assert!((ab.at_zero() - (a.at_zero() + b.at_zero())).abs() < 1e-6);
        // The combined floor is the sum of floors (cold misses add).
        prop_assert!((ab.floor() - (a.floor() + b.floor())).abs() < 1e-6);
    }

    #[test]
    fn partitioned_never_above_combined(a in miss_curve(12), b in miss_curve(12)) {
        let comb = combine_miss_curves(&a, &b);
        let part = partitioned_curve(&a, &b);
        for s in 0..part.len().min(comb.len()) {
            prop_assert!(part.mpki_at(s) <= comb.mpki_at(s) + 1e-6,
                "partitioned above combined at {s}");
        }
    }

    #[test]
    fn partition_allocations_within_budget(
        a in miss_curve(12), b in miss_curve(12), c in miss_curve(12),
        budget in 0usize..40,
    ) {
        let out = partition_capacity(&[a, b, c], budget);
        prop_assert!(out.allocations.iter().sum::<usize>() <= budget);
        prop_assert!(out.total_cost >= 0.0);
    }

    #[test]
    fn partition_cost_monotone_in_budget(a in miss_curve(12), b in miss_curve(12)) {
        let mut last = f64::INFINITY;
        for budget in 0..16 {
            let out = partition_capacity(&[a.clone(), b.clone()], budget);
            prop_assert!(out.total_cost <= last + 1e-9);
            last = out.total_cost;
        }
    }

    #[test]
    fn mattson_histogram_total_matches_accesses(trace in proptest::collection::vec(0u64..64, 1..400)) {
        let mut s = MattsonStack::new();
        for &a in &trace {
            s.access(a);
        }
        prop_assert_eq!(s.histogram().total(), trace.len() as u64);
        // Cold misses = number of distinct lines.
        let distinct = trace.iter().collect::<std::collections::HashSet<_>>().len();
        prop_assert_eq!(s.histogram().cold_misses(), distinct as u64);
    }

    #[test]
    fn miss_curve_from_histogram_is_monotone(trace in proptest::collection::vec(0u64..128, 1..500)) {
        let mut s = MattsonStack::new();
        for &a in &trace {
            s.access(a);
        }
        let c = MissCurve::from_histogram(&s.histogram(), 1_000, 4);
        prop_assert!(c.is_monotone());
        // Full-capacity misses equal cold misses.
        let cold_mpki = s.histogram().cold_misses() as f64;
        prop_assert!((c.floor() - cold_mpki).abs() < 1e-9);
    }

    #[test]
    fn histogram_hits_misses_partition(dists in proptest::collection::vec(1u64..1000, 0..100), cold in 0u64..10, cap in 0u64..1200) {
        let mut h = StackDistanceHistogram::new();
        for &d in &dists {
            h.record(d);
        }
        h.record_cold_weighted(cold);
        prop_assert_eq!(h.hits_at(cap) + h.misses_at(cap), h.total());
    }

    /// GMON curves from granule buckets are bit-identical to curves from
    /// line-resolution histograms, over two intervals (the second
    /// checks the buckets reset while the stack carries over).
    #[test]
    fn granule_bucketed_curves_equal_line_resolution_curves(
        rate_log2 in 0u32..4,
        granule_pick in 0usize..5,
        span in 8u64..3000,
        seed in 0u64..u64::MAX,
        len in 1usize..4000,
        instructions in 1u64..1_000_000,
    ) {
        let granule_lines = [1u64, 3, 16, 64, 1024][granule_pick];
        let mut x = seed | 1;
        let trace: Vec<u64> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Skewed: half the references reuse a small hot set.
                if x & 1 == 0 { (x >> 8) % 32 } else { (x >> 8) % span }
            })
            .collect();
        let mut bucketed = SampledStack::new(rate_log2, granule_lines);
        let mut exact = MattsonStack::new();
        for interval in trace.chunks(len.div_ceil(2)) {
            for &line in interval {
                bucketed.access(line);
            }
            let got = bucketed.take_curve(instructions);
            let want = line_resolution_histogram(&mut exact, interval, rate_log2);
            let want = (want.total() > 0)
                .then(|| MissCurve::from_histogram(&want, instructions, granule_lines));
            let bits = |c: Option<MissCurve>| {
                c.map(|c| c.points().iter().map(|p| p.to_bits()).collect::<Vec<_>>())
            };
            prop_assert_eq!(bits(got), bits(want));
        }
    }
}
