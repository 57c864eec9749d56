//! Tests of [`crate::StreamingHistogram`] as the measurement primitive
//! that experiment harnesses and the reliability ledger record into:
//! merge grouping, state round trips, junk and extreme samples,
//! millisecond durations, quantile error and the `Display` line. The
//! bucket layout and the state checks are tested in `histogram.rs`.

mod tests {
    use crate::time::SimDuration;
    use crate::StreamingHistogram;

    #[test]
    fn streaming_histogram_merge_is_grouping_independent() {
        // Three shards, merged in two different groupings and orders, must
        // be bit-identical — including the fixed-point sum.
        let mk = |lo: u32, hi: u32| {
            let mut s = StreamingHistogram::new("lat");
            for i in lo..hi {
                s.record(0.1 + (i as f64) * 0.317);
            }
            s
        };
        let (a, b, c) = (mk(0, 100), mk(100, 250), mk(250, 400));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = c.clone();
        bc.merge(&b);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right);
        assert_eq!(format!("{left}"), format!("{right}"));
        assert_eq!(left.mean().to_bits(), right.mean().to_bits());
    }

    #[test]
    fn streaming_histogram_state_round_trips() {
        let mut s = StreamingHistogram::new("lat");
        for i in 0..500 {
            s.record(0.05 + (i as f64) * 1.37);
        }
        let back = StreamingHistogram::from_state("lat", s.state()).expect("a recorded state");
        assert_eq!(back, s);
        // Empty histograms round-trip their empty sentinels too.
        let empty = StreamingHistogram::new("none");
        let st = empty.state();
        assert_eq!((st.min_ticks, st.max_ticks, st.sum_ticks), (u64::MAX, 0, 0));
        assert_eq!(StreamingHistogram::from_state("none", st), Ok(empty));
    }

    #[test]
    fn streaming_histogram_ignores_junk_samples() {
        let mut s = StreamingHistogram::new("lat");
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        s.record(-4.0); // clamped to 0
        assert_eq!(s.count(), 1);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn streaming_histogram_records_durations_in_ms() {
        let mut s = StreamingHistogram::new("lat");
        s.record_duration(SimDuration::from_millis(250));
        assert!((s.mean() - 250.0).abs() < 1e-6);
        assert_eq!(s.name(), "lat");
        // One tick per nanosecond, exact at any magnitude.
        s.record_duration(SimDuration::from_nanos(250_000_001));
        s.record_duration(SimDuration::from_nanos(u64::MAX));
        let st = s.state();
        assert_eq!((st.min_ticks, st.max_ticks), (250_000_000, u64::MAX));
        assert_eq!(st.sum_ticks, 500_000_001 + u128::from(u64::MAX));
    }

    #[test]
    fn histogram_quantiles_within_error() {
        let mut h = StreamingHistogram::new("lat");
        for i in 1..=10_000 {
            h.record(i as f64 / 10.0); // 0.1 .. 1000.0
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "p50={p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.02, "p99={p99}");
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = StreamingHistogram::new("x");
        h.record(0.0);
        h.record(-5.0); // clamps to 0
        h.record(1e15); // saturates at u64::MAX ticks
        h.record(f64::NAN); // ignored
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), u64::MAX as f64 / 1e6);
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = StreamingHistogram::new("a");
        let mut b = StreamingHistogram::new("b");
        a.record(1.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 100.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn histogram_display_nonempty() {
        let mut h = StreamingHistogram::new("d");
        h.record(5.0);
        assert_eq!(
            h.to_string(),
            "d: n=1 mean=5.000 p50=5.000 p95=5.000 p99=5.000 max=5.000"
        );
    }
}
