//! Quickstart: simulate one BBRv1 flow through a 100 Mbit/s bottleneck
//! with the fluid model and print the aggregate metrics and a short
//! trace.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bbr_repro::fluid::prelude::*;

fn main() {
    // The paper's §4.2 trace-validation setting: C = 100 Mbit/s,
    // bottleneck propagation delay 10 ms, access delay 5.6 ms, 1-BDP
    // drop-tail buffer. An explicit access delay is a one-link custom
    // layout; the return path adds the bottleneck delay once more.
    let spec = ScenarioSpec::custom(
        vec![CustomLink::new(100.0, 0.010, 1.0)],
        vec![CustomRoute::new(vec![0], 0.0056, 0.0056 + 0.010)],
    )
    .ccas(vec![CcaKind::BbrV1])
    .duration(5.0);
    let mut sim = simulator_for_spec(&spec, &ModelConfig::default()).expect("valid scenario");
    sim.enable_trace(2_000); // sample every 2000 steps

    let report = sim.run(spec.duration);
    let m = &report.metrics;
    println!("BBRv1, 5 s fluid simulation");
    println!("  utilization : {:6.2} %", m.utilization_percent);
    println!("  loss        : {:6.2} %", m.loss_percent);
    println!("  occupancy   : {:6.2} %", m.occupancy_percent);
    println!("  mean rate   : {:6.2} Mbit/s", m.mean_rates[0]);

    let trace = report.trace.expect("trace enabled");
    println!("\n  t[s]   rate[Mbit/s]   queue[Mbit]   RTT[ms]");
    for k in (0..trace.len()).step_by(trace.len() / 20 + 1) {
        println!(
            "  {:5.2}  {:12.2}  {:12.3}  {:8.2}",
            trace.t[k],
            trace.agents[0].x[k],
            trace.links[0].q[k],
            1000.0 * trace.agents[0].tau[k],
        );
    }
}
