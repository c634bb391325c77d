//! Smoke tests: every figure generator runs in fast mode and produces a
//! non-empty report plus its CSV attachments — and every attachment is
//! byte-identical to its pinned digest, so a refactor of how cells are
//! built cannot move a figure unnoticed.

use std::collections::BTreeMap;

use bbr_repro::experiments::figures::{all_ids, run_figure};
use bbr_repro::experiments::Effort;

/// FNV-1a (64-bit) digests of every fast-mode CSV attachment. If a
/// deliberate model or engine change moves a figure, re-pin the affected
/// rows in the same commit and say why.
const FAST_CSV_DIGESTS: [(&str, u64); 37] = [
    ("ablation.csv", 0x32b32add45c19229),
    ("fig01.csv", 0x7ec1f9fad53b5eef),
    ("fig02a.csv", 0xcf3317fc818886c3),
    ("fig02b.csv", 0x52e2dbcd32dbf224),
    ("fig04_RED.csv", 0xc82040fd26f15d6c),
    ("fig04_droptail.csv", 0x78c408dee58fb1c2),
    ("fig05_RED.csv", 0x37a62120d7769ed9),
    ("fig05_droptail.csv", 0xdd0a7ffc0960be1f),
    ("fig06_RED.csv", 0x55369cfba46acb7f),
    ("fig06_droptail.csv", 0x1b9482073dbea48c),
    ("fig07_RED.csv", 0x3dbf31a12570f580),
    ("fig07_droptail.csv", 0xea63451fb7f4964f),
    ("fig08_RED.csv", 0xf0f46e0a1b1c91d8),
    ("fig08_droptail.csv", 0x1e5c2eec2f96f614),
    ("fig09_RED.csv", 0x7e8d1bb13e6a59ac),
    ("fig09_droptail.csv", 0x895cade65cb53046),
    ("fig10_RED.csv", 0x1023972b365be025),
    ("fig10_droptail.csv", 0x38099aa555d7fc12),
    ("fig11_RED.csv", 0xabf06569056aa854),
    ("fig11_droptail.csv", 0xdf9b2f9c0338376d),
    ("fig12_RED.csv", 0xe88b9c5f4b14fa95),
    ("fig12_droptail.csv", 0xdd7edc89e89c1169),
    ("fig13_RED.csv", 0xf7b5fe5d51e87131),
    ("fig13_droptail.csv", 0xe087f2b951575a29),
    ("fig14_RED.csv", 0x9af073e4d218ecc4),
    ("fig14_droptail.csv", 0xe86d2a6d26d9ada7),
    ("fig15_RED.csv", 0xe7c0a548385a5d3e),
    ("fig15_droptail.csv", 0x81466048c8e04aad),
    ("fig16_RED.csv", 0x57ed068f7849d059),
    ("fig16_droptail.csv", 0xcf7fe85e6db292fd),
    ("fig17_RED.csv", 0x8bb53f5d96b8285c),
    ("fig17_droptail.csv", 0x2f80eeef42bf23b9),
    ("insight5.csv", 0xff5e20c2ae2f74c1),
    ("parking_lot_bbrv1.csv", 0xb44aa197092b0cdb),
    ("parking_lot_bbrv2.csv", 0x86851bea62b8d56f),
    ("startup.csv", 0x3e3b93126dca7336),
    ("theorems.csv", 0x610c702b3c8bfb0c),
];

/// 64-bit FNV-1a: stable across platforms and releases, unlike
/// `std::hash`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_figure_id_runs_in_fast_mode() {
    let mut digests = BTreeMap::new();
    for id in all_ids() {
        let out = run_figure(id, Effort::Fast).unwrap_or_else(|| panic!("unknown id {id}"));
        assert_eq!(out.id, id);
        assert!(
            out.report.lines().count() >= 4,
            "{id}: report too short:\n{}",
            out.report
        );
        assert!(!out.csv.is_empty(), "{id}: no CSV attachments");
        for (name, csv) in &out.csv {
            assert!(name.ends_with(".csv"), "{id}: {name}");
            assert!(csv.lines().count() >= 2, "{id}: empty CSV {name}");
            // Rectangular CSV.
            let cols = csv.lines().next().unwrap().split(',').count();
            for line in csv.lines() {
                assert_eq!(line.split(',').count(), cols, "{id}: ragged CSV {name}");
            }
            let fresh = digests.insert(name.clone(), fnv1a(csv.as_bytes()));
            assert!(fresh.is_none(), "{id}: CSV name {name} used twice");
        }
    }
    let pinned: BTreeMap<String, u64> = FAST_CSV_DIGESTS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert_eq!(
        digests, pinned,
        "fast-mode figure CSVs drifted from their pins"
    );
}

#[test]
fn unknown_id_is_rejected() {
    assert!(run_figure("fig99", Effort::Fast).is_none());
}
