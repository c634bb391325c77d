//! Property-based tests (proptest) on the core invariants of the fluid
//! model, the packet simulator, and the numerics.

use bbr_repro::fluid::cca::CcaKind;
use bbr_repro::fluid::history::History;
use bbr_repro::fluid::math::{jain, relu_smooth, sigmoid};
use bbr_repro::fluid::prelude::*;
use bbr_repro::linalg::{eigenvalues, Lu, Matrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sigmoid_bounded_and_monotone(k in 1.0f64..1e5, a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let sl = sigmoid(k, lo);
        let sh = sigmoid(k, hi);
        prop_assert!((0.0..=1.0).contains(&sl));
        prop_assert!((0.0..=1.0).contains(&sh));
        prop_assert!(sl <= sh + 1e-12);
    }

    #[test]
    fn relu_smooth_close_to_relu_for_sharp_k(v in -100.0f64..100.0) {
        let g = relu_smooth(1e4, v);
        let relu = v.max(0.0);
        // Error bounded by 1/K·ln… in the transition zone; generous bound.
        prop_assert!((g - relu).abs() < 1e-3 + 1e-3 * v.abs());
    }

    #[test]
    fn jain_in_unit_interval(values in proptest::collection::vec(0.0f64..1e4, 1..20)) {
        let j = jain(&values);
        let n = values.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-9);
        prop_assert!(j <= 1.0 + 1e-9);
    }

    #[test]
    fn history_lookup_interpolates_within_range(
        dt in 1e-4f64..1e-2,
        values in proptest::collection::vec(-100.0f64..100.0, 2..50),
        frac in 0.0f64..1.0,
    ) {
        let max_delay = dt * values.len() as f64;
        let mut h = History::new(max_delay, dt, values[0]);
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, u), v| (l.min(*v), u.max(*v)));
        for v in &values {
            h.push(*v);
        }
        // Any delayed lookup inside the retained window lies within the
        // min/max of the pushed values (linear interpolation property).
        let delay = frac * dt * (values.len() - 1) as f64;
        let got = h.at_delay(delay);
        prop_assert!(got >= lo - 1e-9 && got <= hi + 1e-9, "{got} not in [{lo}, {hi}]");
    }

    #[test]
    fn lu_solve_is_consistent(seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let n = 4;
        let a = Matrix::from_fn(n, n, |_, _| next());
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = Lu::new(&a);
        if !lu.is_singular() {
            let x = lu.solve(&b).unwrap();
            let r = a.mul_vec(&x);
            for i in 0..n {
                prop_assert!((r[i] - b[i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn eigenvalue_sum_equals_trace(seed in 0u64..500) {
        let mut state = seed.wrapping_mul(0xD1342543DE82EF95).wrapping_add(3);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        let n = 5;
        let m = Matrix::from_fn(n, n, |_, _| next());
        let eig = eigenvalues(&m).unwrap();
        let sum_re: f64 = eig.iter().map(|z| z.re).sum();
        let sum_im: f64 = eig.iter().map(|z| z.im).sum();
        prop_assert!((sum_re - m.trace()).abs() < 1e-6 * (1.0 + m.trace().abs()));
        prop_assert!(sum_im.abs() < 1e-7);
    }
}

proptest! {
    // Heavier simulator properties: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fluid_sim_invariants_hold_for_random_scenarios(
        n in 1usize..5,
        buffer_bdp in 0.5f64..6.0,
        kind_sel in 0usize..4,
        red in proptest::bool::ANY,
    ) {
        let kind = [CcaKind::Reno, CcaKind::Cubic, CcaKind::BbrV1, CcaKind::BbrV2][kind_sel];
        let qdisc = if red { QdiscKind::Red } else { QdiscKind::DropTail };
        let spec = ScenarioSpec::dumbbell(n, 50.0, 0.010, buffer_bdp)
            .rtt_range(0.030, 0.040)
            .ccas(vec![kind])
            .qdisc(qdisc);
        let mut sim = simulator_for_spec(&spec, &ModelConfig::coarse()).unwrap();
        sim.enable_trace(100);
        let report = sim.run(1.5);
        let buffer = sim.network().links[0].buffer;
        let trace = report.trace.unwrap();
        for k in 0..trace.len() {
            // Queue within [0, B].
            prop_assert!(trace.links[0].q[k] >= -1e-9);
            prop_assert!(trace.links[0].q[k] <= buffer + 1e-9);
            // Loss probability within [0, 1].
            prop_assert!((0.0..=1.0).contains(&trace.links[0].p[k]));
            for a in &trace.agents {
                prop_assert!(a.x[k].is_finite() && a.x[k] >= 0.0);
                // RTT at least the propagation delay.
                prop_assert!(a.tau[k] >= 0.029);
            }
        }
        let m = report.metrics;
        prop_assert!((0.0..=100.0 + 1e-9).contains(&m.loss_percent));
        prop_assert!((0.0..=100.0 + 1e-9).contains(&m.occupancy_percent));
        prop_assert!(m.utilization_percent <= 100.0 + 1e-9);
        prop_assert!(m.jain <= 1.0 + 1e-9);
    }

    #[test]
    fn packet_sim_conservation(seed in 0u64..50, red in proptest::bool::ANY) {
        use bbr_repro::packetsim::backend::path_network_for_spec;
        use bbr_repro::packetsim::engine::SimConfig;
        use bbr_repro::packetsim::path::run_path;
        let qdisc = if red { QdiscKind::Red } else { QdiscKind::DropTail };
        let spec = ScenarioSpec::dumbbell(2, 20.0, 0.010, 1.0)
            .ccas(vec![CcaKind::Reno, CcaKind::BbrV2])
            .qdisc(qdisc);
        let cfg = SimConfig { duration: 1.5, warmup: 0.0, seed, ..Default::default() };
        let r = run_path(&path_network_for_spec(&spec), &cfg);
        // Rates bounded by capacity (+ small binning slack).
        for f in &r.flows {
            prop_assert!(f.throughput_mbps <= 20.0 * 1.05);
            prop_assert!(f.throughput_mbps >= 0.0);
        }
        prop_assert!((0.0..=100.0).contains(&r.loss_percent));
        prop_assert!((0.0..=100.0 + 1e-9).contains(&r.occupancy_percent));
        prop_assert!(r.utilization_percent <= 100.0 + 1e-9);
    }
}
