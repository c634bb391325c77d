//! Trace-validation figures: Fig. 1 (Reno vs BBRv1 competition), Fig. 2
//! (BBR fluid variables), Figs. 4/5 (BBRv1/BBRv2 model-vs-experiment
//! traces), Figs. 11/12 (Reno/CUBIC traces).
//!
//! The single-sender validation setting of §4.2: C = 100 Mbit/s,
//! bottleneck delay 10 ms, access delay 5.6 ms, 1-BDP buffer.

use bbr_fluid_core::backend::network_for_spec;
use bbr_fluid_core::prelude::*;
use bbr_packetsim::backend::path_network_for_spec;
use bbr_packetsim::engine::{PacketTrace, SimConfig};
use bbr_packetsim::path::run_path;

use crate::aggregate::model_config;
use crate::figures::FigureOutput;
use crate::table;
use crate::Effort;

const CAPACITY: f64 = 100.0;
const BOTTLENECK_DELAY: f64 = 0.010;
const ACCESS_DELAY: f64 = 0.0056;

/// The validation dumbbell with one sender per entry of `kinds`, each
/// behind the explicit 5.6 ms access delay: a one-link custom layout,
/// because an RTT range `[r, r]` would round the access delay
/// (0.0056 → 0.005599999999999999) and move every trace.
fn validation_spec(kinds: &[CcaKind], qdisc: QdiscKind) -> ScenarioSpec {
    let routes = kinds
        .iter()
        .map(|_| CustomRoute::new(vec![0], ACCESS_DELAY, ACCESS_DELAY + BOTTLENECK_DELAY))
        .collect();
    ScenarioSpec::custom(
        vec![CustomLink::new(CAPACITY, BOTTLENECK_DELAY, 1.0)],
        routes,
    )
    .ccas(kinds.to_vec())
    .qdisc(qdisc)
}

/// Run the fluid model for `kinds` and return the trace.
fn model_trace(kinds: &[CcaKind], qdisc: QdiscKind, duration: f64, effort: Effort) -> Trace {
    let cfg = model_config(effort);
    // ≈ 2000 samples regardless of step size.
    let stride = ((duration / cfg.dt) / 2000.0).ceil() as usize;
    let mut sim = simulator_for_spec(&validation_spec(kinds, qdisc), &cfg).unwrap();
    sim.enable_trace(stride.max(1));
    sim.run(duration).trace.unwrap()
}

/// Run the packet simulator and return its binned trace.
fn experiment_trace(kinds: &[CcaKind], qdisc: QdiscKind, duration: f64, bin: f64) -> PacketTrace {
    let cfg = SimConfig {
        duration,
        warmup: 0.0,
        seed: 7,
        trace_bin: Some(bin),
        ..Default::default()
    };
    let net = path_network_for_spec(&validation_spec(kinds, qdisc));
    run_path(&net, &cfg).trace.unwrap()
}

/// Sample a model trace at (approximately) time `t`.
fn model_at(trace: &Trace, t: f64) -> usize {
    match trace.t.binary_search_by(|v| v.partial_cmp(&t).unwrap()) {
        Ok(i) => i,
        Err(i) => i.min(trace.t.len() - 1),
    }
}

fn experiment_at(trace: &PacketTrace, t: f64) -> usize {
    trace
        .t
        .iter()
        .position(|v| *v >= t)
        .unwrap_or(trace.t.len() - 1)
}

/// Fig. 1: sending rates of one Reno and one BBRv1 flow competing in a
/// 1-BDP drop-tail buffer over 9 s, in percent of link bandwidth.
pub fn fig01(effort: Effort) -> FigureOutput {
    let duration = if effort.is_fast() { 3.0 } else { 9.0 };
    let kinds = [CcaKind::Reno, CcaKind::BbrV1];
    let model = model_trace(&kinds, QdiscKind::DropTail, duration, effort);
    let exp = experiment_trace(&kinds, QdiscKind::DropTail, duration, 0.25);

    let step = if effort.is_fast() { 0.25 } else { 0.5 };
    let mut rows = Vec::new();
    let mut t = step;
    while t <= duration + 1e-9 {
        let mi = model_at(&model, t);
        let ei = experiment_at(&exp, t);
        rows.push(vec![
            table::f1(t),
            table::f1(100.0 * model.agents[0].x[mi] / CAPACITY),
            table::f1(100.0 * model.agents[1].x[mi] / CAPACITY),
            table::f1(100.0 * exp.rate_mbps[0][ei] / CAPACITY),
            table::f1(100.0 * exp.rate_mbps[1][ei] / CAPACITY),
        ]);
        t += step;
    }
    let header = vec![
        "t[s]".into(),
        "model Reno [%]".into(),
        "model BBRv1 [%]".into(),
        "exp Reno [%]".into(),
        "exp BBRv1 [%]".into(),
    ];
    let report = table::render(
        "Fig. 1 — Reno vs BBRv1 sending rates (% of link bandwidth)",
        &header,
        &rows,
    );
    FigureOutput {
        id: "fig01",
        title: "Reno vs BBRv1 competition",
        csv: vec![("fig01.csv".into(), table::to_csv(&header, &rows))],
        report,
    }
}

/// Fig. 2: interplay of the BBR fluid-model variables for a single flow
/// (a: BBRv1 over 1 s; b: BBRv2 over 0.5 s), rates normalized to the
/// link capacity.
pub fn fig02(effort: Effort) -> FigureOutput {
    let mut report = String::new();
    let mut csv = Vec::new();
    // (a) BBRv1.
    {
        let trace = model_trace(&[CcaKind::BbrV1], QdiscKind::DropTail, 1.0, effort);
        let header: Vec<String> = vec![
            "t[s]".into(),
            "x [%]".into(),
            "x_dlv [%]".into(),
            "x_btl [%]".into(),
            "x_max [%]".into(),
        ];
        let mut rows = Vec::new();
        let mut t = 0.05;
        while t <= 1.0 + 1e-9 {
            let i = model_at(&trace, t);
            let a = &trace.agents[0];
            rows.push(vec![
                format!("{t:.2}"),
                table::f1(100.0 * a.x[i] / CAPACITY),
                table::f1(100.0 * a.x_dlv[i] / CAPACITY),
                table::f1(100.0 * a.extra["x_btl"][i] / CAPACITY),
                table::f1(100.0 * a.extra["x_max"][i] / CAPACITY),
            ]);
            t += 0.05;
        }
        report.push_str(&table::render(
            "Fig. 2a — BBRv1 fluid variables (single flow, % of capacity)",
            &header,
            &rows,
        ));
        csv.push(("fig02a.csv".into(), table::to_csv(&header, &rows)));
    }
    // (b) BBRv2: rate and inflight limits.
    {
        let trace = model_trace(&[CcaKind::BbrV2], QdiscKind::DropTail, 0.5, effort);
        let bdp = CAPACITY * 2.0 * (ACCESS_DELAY + BOTTLENECK_DELAY);
        let header: Vec<String> = vec![
            "t[s]".into(),
            "x [%]".into(),
            "x_btl [%]".into(),
            "w [%BDP]".into(),
            "w_hi [%BDP]".into(),
            "v [%BDP]".into(),
        ];
        let mut rows = Vec::new();
        let mut t = 0.025;
        while t <= 0.5 + 1e-9 {
            let i = model_at(&trace, t);
            let a = &trace.agents[0];
            rows.push(vec![
                format!("{t:.3}"),
                table::f1(100.0 * a.x[i] / CAPACITY),
                table::f1(100.0 * a.extra["x_btl"][i] / CAPACITY),
                table::f1(100.0 * a.extra["w_bdp_est"][i] / bdp),
                table::f1(100.0 * a.extra["w_hi"][i] / bdp),
                table::f1(100.0 * a.extra["v"][i] / bdp),
            ]);
            t += 0.025;
        }
        report.push('\n');
        report.push_str(&table::render(
            "Fig. 2b — BBRv2 fluid variables (single flow)",
            &header,
            &rows,
        ));
        csv.push(("fig02b.csv".into(), table::to_csv(&header, &rows)));
    }
    FigureOutput {
        id: "fig02",
        title: "BBR fluid-model variable interplay",
        report,
        csv,
    }
}

/// Shared generator for the single-flow trace-validation figures
/// (Figs. 4, 5, 11, 12): model vs experiment under drop-tail and RED;
/// rate in % of capacity, queue in % of buffer, loss in %, RTT as
/// relative excess delay in %.
fn trace_validation(
    id: &'static str,
    title: &'static str,
    kind: CcaKind,
    duration_full: f64,
    effort: Effort,
) -> FigureOutput {
    let duration = if effort.is_fast() { 3.0 } else { duration_full };
    let step = duration / 15.0;
    let prop_rtt = 2.0 * (ACCESS_DELAY + BOTTLENECK_DELAY);
    let mut report = String::new();
    let mut csv = Vec::new();
    for (qdisc, label) in [(QdiscKind::DropTail, "drop-tail"), (QdiscKind::Red, "RED")] {
        let model = model_trace(&[kind], qdisc, duration, effort);
        let exp = experiment_trace(&[kind], qdisc, duration, step.min(0.25));
        let header: Vec<String> = [
            "t[s]",
            "m rate[%]",
            "m queue[%]",
            "m loss[%]",
            "m rtt[+%]",
            "e rate[%]",
            "e queue[%]",
            "e loss[%]",
            "e rtt[+%]",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let buffer = network_for_spec(&validation_spec(&[kind], qdisc)).links[0].buffer;
        let mut rows = Vec::new();
        let mut t = step;
        while t <= duration + 1e-9 {
            let mi = model_at(&model, t);
            let ei = experiment_at(&exp, t);
            let a = &model.agents[0];
            let m_rtt_excess = 100.0 * (a.tau[mi] / prop_rtt - 1.0);
            let e_srtt = exp.srtt[0][ei];
            let e_rtt_excess = if e_srtt > 0.0 {
                100.0 * (e_srtt / prop_rtt - 1.0)
            } else {
                0.0
            };
            rows.push(vec![
                table::f1(t),
                table::f1(100.0 * a.x[mi] / CAPACITY),
                table::f1(100.0 * model.links[0].q[mi] / buffer),
                table::f1(100.0 * a.loss[mi]),
                table::f1(m_rtt_excess),
                table::f1(100.0 * exp.rate_mbps[0][ei] / CAPACITY),
                table::f1(100.0 * exp.queue_frac[ei]),
                table::f1(100.0 * exp.loss_frac[ei]),
                table::f1(e_rtt_excess),
            ]);
            t += step;
        }
        report.push_str(&table::render(
            &format!("{title} — {label} (m = model, e = experiment)"),
            &header,
            &rows,
        ));
        report.push('\n');
        csv.push((
            format!("{id}_{}.csv", label.replace('-', "")),
            table::to_csv(&header, &rows),
        ));
    }
    FigureOutput {
        id,
        title,
        report,
        csv,
    }
}

/// Fig. 4: BBRv1 trace validation (7 s).
pub fn fig04(effort: Effort) -> FigureOutput {
    trace_validation(
        "fig04",
        "Fig. 4 — BBRv1 trace validation",
        CcaKind::BbrV1,
        7.0,
        effort,
    )
}

/// Fig. 5: BBRv2 trace validation (30 s; shows the ProbeRTT dips).
pub fn fig05(effort: Effort) -> FigureOutput {
    trace_validation(
        "fig05",
        "Fig. 5 — BBRv2 trace validation",
        CcaKind::BbrV2,
        30.0,
        effort,
    )
}

/// Fig. 11: Reno trace validation (30 s).
pub fn fig11(effort: Effort) -> FigureOutput {
    trace_validation(
        "fig11",
        "Fig. 11 — Reno trace validation",
        CcaKind::Reno,
        30.0,
        effort,
    )
}

/// Fig. 12: CUBIC trace validation (30 s).
pub fn fig12(effort: Effort) -> FigureOutput {
    trace_validation(
        "fig12",
        "Fig. 12 — CUBIC trace validation",
        CcaKind::Cubic,
        30.0,
        effort,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_fast_produces_rows_and_starvation_signal() {
        let out = fig01(Effort::Fast);
        assert!(out.report.contains("Reno"));
        assert_eq!(out.csv.len(), 1);
        // BBRv1 should clearly dominate Reno in the model by the end.
        let last = out.report.lines().last().unwrap();
        let cols: Vec<&str> = last.split_whitespace().collect();
        let m_reno: f64 = cols[1].parse().unwrap();
        let m_bbr: f64 = cols[2].parse().unwrap();
        assert!(
            m_bbr > m_reno,
            "model must show BBRv1 ({m_bbr}) above Reno ({m_reno})"
        );
    }

    #[test]
    fn fig02_fast_has_both_panels() {
        let out = fig02(Effort::Fast);
        assert!(out.report.contains("Fig. 2a"));
        assert!(out.report.contains("Fig. 2b"));
        assert_eq!(out.csv.len(), 2);
    }

    #[test]
    fn fig04_fast_has_both_disciplines() {
        let out = fig04(Effort::Fast);
        assert!(out.report.contains("drop-tail"));
        assert!(out.report.contains("RED"));
        assert_eq!(out.csv.len(), 2);
    }
}
