//! Byte-exact pins of scalar fluid-model outcomes for the built-in
//! dumbbell and parking-lot families — the fluid counterpart of
//! `tests/packet_path_pins.rs`.
//!
//! The bit patterns below were captured while the fluid dumbbell was
//! still assembled by a separate seed-era builder; `network_for_spec` now
//! lowers every family itself, and these tests assert the lowering kept
//! the exact floating-point operation order. If a deliberate model
//! change moves these numbers, re-pin them in the same commit and say
//! why.

use bbr_repro::fluid::backend::FluidBackend;
use bbr_repro::scenario::{CcaKind, QdiscKind, RunOutcome, ScenarioSpec, SimBackend};

fn bits(outcome: &RunOutcome) -> Vec<u64> {
    let mut v = vec![
        outcome.jain.to_bits(),
        outcome.loss_percent.to_bits(),
        outcome.occupancy_percent.to_bits(),
        outcome.utilization_percent.to_bits(),
        outcome.jitter_ms.to_bits(),
    ];
    v.extend(outcome.flows.iter().map(|f| f.throughput_mbps.to_bits()));
    v.extend(outcome.per_link_occupancy.iter().map(|x| x.to_bits()));
    v.extend(outcome.per_link_utilization.iter().map(|x| x.to_bits()));
    v
}

#[test]
fn dumbbell_outcome_is_byte_identical_to_pin() {
    // 3 heterogeneous flows over the evenly spread 30–40 ms RTTs.
    let spec = ScenarioSpec::dumbbell(3, 40.0, 0.010, 2.0)
        .ccas(vec![CcaKind::BbrV1, CcaKind::Reno, CcaKind::Cubic])
        .duration(2.0);
    let out = FluidBackend::coarse().run(&spec, 7);
    let kinds: Vec<CcaKind> = out.flows.iter().map(|f| f.cca).collect();
    assert_eq!(kinds, spec.ccas);
    assert_eq!(
        bits(&out),
        vec![
            0x3fe63da808bd4c8f, // jain
            0x3fe19b186055f270, // loss %
            0x404286250c7797f9, // occupancy %
            0x40572a079c89b25e, // utilization %
            0x3fa8fa6ea27d39ac, // jitter ms
            0x40383fd412ad023c, // tput flow 0
            0x401a2e71665b7ed3, // tput flow 1
            0x401b11cc182d51b7, // tput flow 2
            0x404286250c7797f9, // link 0 occupancy
            0x40572a079c89b25e, // link 0 utilization
        ],
        "fluid dumbbell drifted from its pin"
    );
}

#[test]
fn parking_lot_outcome_is_byte_identical_to_pin() {
    let spec = ScenarioSpec::parking_lot(40.0, 32.0, 0.010, 3.0)
        .ccas(vec![CcaKind::BbrV2])
        .qdisc(QdiscKind::Red)
        .duration(2.0);
    let out = FluidBackend::coarse().run(&spec, 11);
    assert_eq!(
        bits(&out),
        vec![
            0x3fef373b116fe6e9, // jain
            0x3fd34c2f479ef44c, // loss %
            0x3fd4d9b8ed6a7c11, // occupancy % (headline = slower link 1)
            0x40589d90aa1ed7ec, // utilization %
            0x3f86d4cb206d9ebf, // jitter ms
            0x402f7805e8ef1846, // tput flow 0 (multi-hop)
            0x4035c65d37b6987e, // tput flow 1
            0x402fb5c514541a22, // tput flow 2
            0x3fcbfab4c28ea752, // link 0 occupancy
            0x3fd4d9b8ed6a7c11, // link 1 occupancy
            0x4057638b49cdb99c, // link 0 utilization
            0x40589d90aa1ed7ec, // link 1 utilization
        ],
        "fluid parking lot drifted from its pin"
    );
}
