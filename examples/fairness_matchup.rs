//! The paper's Fig. 1 as an example: one Reno flow competes with one
//! BBRv1 flow in a shallow drop-tail buffer — BBRv1 takes almost the
//! whole link (Insight 2).
//!
//! ```text
//! cargo run --release --example fairness_matchup [cca_a] [cca_b]
//! ```
//!
//! CCAs: reno, cubic, bbr1, bbr2 (defaults: reno bbr1).

use bbr_repro::fluid::cca::CcaKind;
use bbr_repro::fluid::prelude::*;

fn parse(s: &str) -> CcaKind {
    match s {
        "reno" => CcaKind::Reno,
        "cubic" => CcaKind::Cubic,
        "bbr1" => CcaKind::BbrV1,
        "bbr2" => CcaKind::BbrV2,
        _ => panic!("unknown CCA {s} (use reno|cubic|bbr1|bbr2)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse(args.first().map(|s| s.as_str()).unwrap_or("reno"));
    let b = parse(args.get(1).map(|s| s.as_str()).unwrap_or("bbr1"));

    // Both senders behind a 5.6 ms access delay (a one-link custom
    // layout), 100 Mbit/s, 10 ms bottleneck, 1-BDP drop-tail buffer.
    let route = CustomRoute::new(vec![0], 0.0056, 0.0056 + 0.010);
    let spec = ScenarioSpec::custom(
        vec![CustomLink::new(100.0, 0.010, 1.0)],
        vec![route.clone(), route],
    )
    .ccas(vec![a, b])
    .duration(9.0);
    let mut sim = simulator_for_spec(&spec, &ModelConfig::default()).expect("valid scenario");
    sim.enable_trace(5_000);
    let report = sim.run(spec.duration);

    println!("{a} vs {b}, 9 s, 1-BDP drop-tail buffer");
    println!(
        "  mean rates: {a} = {:.1} Mbit/s, {b} = {:.1} Mbit/s (Jain = {:.3})",
        report.metrics.mean_rates[0], report.metrics.mean_rates[1], report.metrics.jain,
    );
    println!("\n  t[s]   {a:>8}[%]  {b:>8}[%]");
    let trace = report.trace.unwrap();
    for k in (0..trace.len()).step_by(trace.len() / 18 + 1) {
        println!(
            "  {:5.2}  {:10.1}  {:10.1}",
            trace.t[k], trace.agents[0].x[k], trace.agents[1].x[k],
        );
    }
}
