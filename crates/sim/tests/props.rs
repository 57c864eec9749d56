//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use vdap_sim::{RngStream, SimDuration, SimTime, Simulation, StreamingHistogram};

proptest! {
    #[test]
    fn duration_addition_commutes(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let x = SimDuration::from_nanos(a);
        let y = SimDuration::from_nanos(b);
        prop_assert_eq!(x + y, y + x);
    }

    #[test]
    fn duration_saturating_roundtrip(a in any::<u64>(), b in any::<u64>()) {
        let x = SimDuration::from_nanos(a);
        let y = SimDuration::from_nanos(b);
        // (x + y) - y >= x only when no saturation happened; in all cases
        // the result is never greater than x.
        let back = (x + y) - y;
        prop_assert!(back.as_nanos() <= a || a.checked_add(b).is_none());
    }

    #[test]
    fn time_plus_duration_ordering(t in 0u64..u64::MAX / 2, d in 1u64..u64::MAX / 2) {
        let at = SimTime::from_nanos(t);
        let later = at + SimDuration::from_nanos(d);
        prop_assert!(later > at);
        prop_assert_eq!(later - at, SimDuration::from_nanos(d));
    }

    #[test]
    fn conversion_floor_consistency(ms in 0u64..10_000_000) {
        let d = SimDuration::from_millis(ms);
        prop_assert_eq!(d.as_millis(), ms);
        prop_assert_eq!(d.as_micros(), ms * 1000);
        prop_assert!((d.as_millis_f64() - ms as f64).abs() < 1e-6);
    }

    #[test]
    fn histogram_record_n_equals_n_records(
        prefix in prop::collection::vec(0.0f64..1e6, 0..8),
        pick in 0usize..8,
        finite in -1e3f64..1e9,
        n in 0u64..40,
    ) {
        // Ordinary values plus the edges: non-finite samples (ignored),
        // a negative (clamps to 0 ticks) and values at or past
        // `u64::MAX` ticks (saturate).
        let value = [
            finite,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -5.0,
            1e300,
            u64::MAX as f64 / 1e6,
            finite,
        ][pick];
        let mut one_by_one = StreamingHistogram::new("n");
        for &s in &prefix {
            one_by_one.record(s);
        }
        let mut at_once = one_by_one.clone();
        for _ in 0..n {
            one_by_one.record(value);
        }
        at_once.record_n(value, n);
        prop_assert_eq!(at_once.state(), one_by_one.state());
    }

    #[test]
    fn histogram_quantiles_bounded_and_monotone(
        samples in prop::collection::vec(0.0f64..1e6, 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut h = StreamingHistogram::new("p");
        for &s in &samples {
            h.record(s);
        }
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let v_lo = h.quantile(lo);
        let v_hi = h.quantile(hi);
        prop_assert!(v_lo <= v_hi, "quantiles must be monotone: {} > {}", v_lo, v_hi);
        prop_assert!(v_lo >= h.min() && v_hi <= h.max());
        // Nearest-rank bound: within 1/64 of the sample's tick value,
        // plus the half-tick (5e-7) quantization floor.
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [lo, hi, 0.5, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let est = h.quantile(q);
            prop_assert!(
                (est - exact).abs() <= (exact + 5e-7) / 64.0 + 5e-7,
                "q={}: estimate {} vs exact nearest-rank {}", q, est, exact
            );
        }
    }

    #[test]
    fn events_always_fire_in_nondecreasing_time_order(
        delays in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut sim = Simulation::new(Vec::<u64>::new());
        for &d in &delays {
            sim.schedule_in(SimDuration::from_nanos(d), "e", move |ctx| {
                let t = ctx.now().as_nanos();
                ctx.state_mut().push(t);
            });
        }
        sim.run();
        let fired = sim.state();
        prop_assert_eq!(fired.len(), delays.len());
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn event_order_replays_bit_identically(
        delays in prop::collection::vec(0u64..1_000, 1..100),
    ) {
        // Same schedule ⇒ same firing order, including ties: events at
        // equal timestamps fire in insertion order, so a replayed run
        // (as the fault injector's chaos scenarios rely on) observes an
        // identical interleaving. Coarse delays force many ties.
        let run = || {
            let mut sim = Simulation::new(Vec::<(u64, usize)>::new());
            for (i, &d) in delays.iter().enumerate() {
                sim.schedule_in(SimDuration::from_micros(d), "e", move |ctx| {
                    let t = ctx.now().as_nanos();
                    ctx.state_mut().push((t, i));
                });
            }
            sim.run();
            sim.into_state()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b, "same schedule must replay identically");
        prop_assert_eq!(a.len(), delays.len());
    }

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = RngStream::from_raw_seed(seed);
        let mut b = RngStream::from_raw_seed(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_uniform_in_unit_interval(seed in any::<u64>()) {
        let mut s = RngStream::from_raw_seed(seed);
        for _ in 0..64 {
            let u = s.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }
}
