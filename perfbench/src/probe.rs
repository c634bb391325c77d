//! Per-layer measurements of the traced run. Each probe calls one
//! layer's public functions on the workload's own cells and times the
//! calls with spans, so the numbers say where a cell's time goes:
//! `scenario` (validation, hashing, generation), `core` (scalar fluid
//! engine), `fluidbatch` (batched and SIMD engines), `packetsim`,
//! `campaign` (store and plan I/O) and `experiments` (grid expansion
//! and reports). Probes check what they compute against the other
//! engines, so a traced run also fails on wrong outputs.

use bbr_campaign::store::{parse_record, record_to_line};
use bbr_campaign::{CampaignPlan, ResultStore, ShardWriter, RESULTS_FILE};
use bbr_experiments::sweep::{ScenarioGrid, SweepReport};
use bbr_fluid_core::backend::{outcome_from_metrics, FluidBackend};
use bbr_fluid_core::config::ModelConfig;
use bbr_fluid_core::lanes::LANES;
use bbr_fluidbatch::packed::{struct_key, PackSim};
use bbr_fluidbatch::sim::BatchedFluidSim;
use bbr_fluidbatch::{BatchedFluidBackend, SimdFluidBackend, DEFAULT_WAVE_FLOW_BUDGET};
use bbr_packetsim::backend::PacketBackend;
use bbr_packetsim::MSS_BYTES;
use bbr_scenario::universe::generate_universe;
use bbr_scenario::{BatchSimBackend, RunOutcome, ScenarioSpec, SimBackend};
use rayon::prelude::*;

use crate::harness::{median, quantile, ratio, timed, Run};
use crate::spans::{capture_waves, count_cca_events, Tracer};
use crate::workloads::FinishedStore;

/// Repetitions of the cheap, whole-pass probes (median reported).
const PASSES: usize = 5;

/// Cells of the universe the `scenario` probe generates.
const UNIVERSE_CELLS: usize = 48;

/// A workload's cells: every spec with the seed its engines receive.
pub struct Cells {
    pub jobs: Vec<(ScenarioSpec, u64)>,
}

impl Cells {
    pub fn from_plan(plan: &CampaignPlan) -> Self {
        Self {
            jobs: plan
                .cells
                .iter()
                .map(|c| (c.spec.clone(), c.seed))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Flow-steps one fluid pass integrates: flows × fixed steps per
    /// cell, summed (computed from the specs, not counted).
    pub fn flow_steps(&self, cfg: &ModelConfig) -> f64 {
        self.jobs
            .iter()
            .map(|(s, _)| s.n_flows() as f64 * (s.duration / cfg.dt).round())
            .sum()
    }
}

/// Inputs of the per-layer probes of one workload.
pub struct Probes<'a> {
    pub cells: &'a Cells,
    pub cfg: &'a ModelConfig,
    /// How many cells (evenly spaced) to run on the packet engine.
    pub packet_sample: usize,
    /// The cells the packet engine's lossy/clean split is measured on.
    pub loss_split: &'a Cells,
    pub store: &'a FinishedStore,
    /// The workload's grid expansion into a campaign plan.
    pub expand: &'a dyn Fn() -> CampaignPlan,
    /// The workload's report rendering over its finished store.
    pub report: &'a dyn Fn(&ResultStore) -> Result<String, String>,
    /// Wall seconds of the main path, untraced and traced repetitions.
    pub untraced_s: &'a [f64],
    pub traced_s: &'a [f64],
}

/// Run every probe and record the per-layer metrics.
pub fn all(run: &mut Run, tr: &Tracer, p: Probes) {
    scenario(run, tr, p.cells);
    let scalar = core(run, tr, p.cells, p.cfg);
    fluidbatch(run, tr, p.cells, p.cfg, &scalar);
    packetsim(run, tr, p.cells, p.packet_sample, p.loss_split);
    campaign(run, tr, p.store);
    experiments(run, tr, p.expand, p.report, p.store);
    let overhead = ratio(median(p.traced_s), median(p.untraced_s)) - 1.0;
    run.metric("trace.overhead_pct", overhead * 100.0, "%");
}

/// `ScenarioGrid::run_with` on the batch engine, with spans around the
/// sweep and around the engine's `run_batch`.
pub fn traced_sweep(
    tr: &'static Tracer,
    request: u64,
    grid: &ScenarioGrid,
    cfg: &ModelConfig,
) -> SweepReport {
    tr.span("experiments.sweep", 0, request, |parent| {
        let backend: Box<dyn SimBackend> = Box::new(TimedBatch {
            inner: BatchedFluidBackend::new(cfg.clone()),
            tr,
            parent,
            request,
        });
        grid.run_with(&[backend])
    })
}

/// The packet engine over every cell, one span per cell.
pub fn traced_packet(tr: &Tracer, request: u64, cells: &Cells) -> Vec<RunOutcome> {
    tr.span("packetsim.pass", 0, request, |parent| {
        cells
            .jobs
            .par_iter()
            .map(|(spec, seed)| {
                tr.span("packetsim.traced_cell", parent, request, |_| {
                    PacketBackend::new(1).run(spec, *seed)
                })
            })
            .collect()
    })
}

/// The batch engine with a span around each `run_batch` call.
struct TimedBatch {
    inner: BatchedFluidBackend,
    tr: &'static Tracer,
    parent: u64,
    request: u64,
}

impl SimBackend for TimedBatch {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, spec: &ScenarioSpec, seed: u64) -> RunOutcome {
        self.run_batch(&[(spec, seed)])
            .pop()
            .expect("one job in, one outcome out")
    }

    fn as_batch(&self) -> Option<&dyn BatchSimBackend> {
        Some(self)
    }
}

impl BatchSimBackend for TimedBatch {
    fn run_batch(&self, jobs: &[(&ScenarioSpec, u64)]) -> Vec<RunOutcome> {
        self.tr
            .span("fluidbatch.run_batch", self.parent, self.request, |_| {
                self.inner.run_batch(jobs)
            })
    }
}

/// Median duration (ms) of `PASSES` spans named `name` around `f`.
fn passes_ms<R>(tr: &Tracer, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..PASSES {
        std::hint::black_box(tr.span(name, 0, 0, |_| f()));
    }
    median(&tr.durations_ms(name))
}

fn scenario(run: &mut Run, tr: &Tracer, cells: &Cells) {
    let n = cells.len() as f64;
    let seed = run.seed;
    let gen = passes_ms(tr, "scenario.generate_universe", || {
        generate_universe(seed, UNIVERSE_CELLS)
    });
    let validate = passes_ms(tr, "scenario.validate_pass", || {
        cells
            .jobs
            .iter()
            .filter(|(s, _)| s.validate().is_ok())
            .count()
    });
    let hash = passes_ms(tr, "scenario.stable_hash_pass", || {
        cells
            .jobs
            .iter()
            .fold(0u64, |acc, (s, _)| acc ^ s.stable_hash())
    });
    let invalid = cells
        .jobs
        .iter()
        .filter(|(s, _)| s.validate().is_err())
        .count();
    run.tally
        .fail(invalid, || "cells fail ScenarioSpec::validate".into());
    run.metric("scenario.generate_ms", gen, "ms");
    run.metric("scenario.validate_us", validate * 1e3 / n, "us");
    run.metric("scenario.stable_hash_us", hash * 1e3 / n, "us");
}

/// The scalar engine, one span per cell; returns the outcomes.
fn core(run: &mut Run, tr: &Tracer, cells: &Cells, cfg: &ModelConfig) -> Vec<RunOutcome> {
    run.tally.ran(cells.len());
    let outs: Vec<RunOutcome> = cells
        .jobs
        .par_iter()
        .map(|(spec, seed)| {
            tr.span("core.cell", 0, 0, |_| {
                FluidBackend::new(cfg.clone()).run(spec, *seed)
            })
        })
        .collect();
    let ms = tr.durations_ms("core.cell");
    let steps = cells.flow_steps(cfg);
    run.metric("core.cell_ms_p50", quantile(&ms, 0.5), "ms");
    run.metric("core.cell_ms_p90", quantile(&ms, 0.9), "ms");
    run.metric("core.cell_samples", ms.len() as f64, "count");
    run.metric("core.flow_steps", steps, "count");
    run.metric(
        "core.ns_per_flow_step",
        ratio(ms.iter().sum::<f64>() * 1e6, steps),
        "ns",
    );
    outs
}

/// Consecutive waves under the batch engine's flow budget, tightened so
/// every pool thread gets a wave (the rule `BatchedFluidBackend` uses).
fn group_waves(cells: &Cells) -> Vec<Vec<usize>> {
    let total: usize = cells.jobs.iter().map(|(s, _)| s.n_flows()).sum();
    let budget = DEFAULT_WAVE_FLOW_BUDGET
        .min(total.div_ceil(rayon::current_num_threads().max(1)))
        .max(1);
    let mut waves: Vec<Vec<usize>> = Vec::new();
    let mut flows = 0;
    for (i, (spec, _)) in cells.jobs.iter().enumerate() {
        let f = spec.n_flows();
        match waves.last_mut() {
            Some(w) if flows + f <= budget => w.push(i),
            _ => {
                waves.push(vec![i]);
                flows = 0;
            }
        }
        flows += f;
    }
    waves
}

/// Greedy packs of up to `LANES` cells with equal `struct_key`, in
/// first-seen order (the grouping `SimdFluidBackend` uses).
fn group_packs(cells: &Cells) -> Vec<Vec<usize>> {
    let mut packs: Vec<Vec<usize>> = Vec::new();
    let mut open: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, (spec, _)) in cells.jobs.iter().enumerate() {
        let key = struct_key(spec);
        match open.get(&key) {
            Some(&p) => {
                packs[p].push(i);
                if packs[p].len() == LANES {
                    open.remove(&key);
                }
            }
            None => {
                open.insert(key, packs.len());
                packs.push(vec![i]);
            }
        }
    }
    packs
}

fn fluidbatch(run: &mut Run, tr: &Tracer, cells: &Cells, cfg: &ModelConfig, scalar: &[RunOutcome]) {
    let specs_of =
        |idx: &[usize]| -> Vec<&ScenarioSpec> { idx.iter().map(|&i| &cells.jobs[i].0).collect() };
    let steps = cells.flow_steps(cfg);
    // Two direct passes and two backend passes over the cells.
    run.tally.ran(4 * cells.len());

    // Direct engine calls: construction and stepping timed apart.
    let waves = group_waves(cells);
    let batch: Vec<Vec<RunOutcome>> = waves
        .par_iter()
        .map(|w| {
            let specs = specs_of(w);
            let sim = tr.span("fluidbatch.construct", 0, 0, |_| {
                BatchedFluidSim::new(&specs, cfg.clone())
            });
            let metrics = tr.span("fluidbatch.batch_run", 0, 0, |_| sim.run());
            specs
                .iter()
                .zip(&metrics)
                .map(|(s, m)| outcome_from_metrics(s, m))
                .collect()
        })
        .collect();
    let packs = group_packs(cells);
    let simd: Vec<Vec<RunOutcome>> = packs
        .par_iter()
        .map(|p| {
            let specs = specs_of(p);
            let sim = tr.span("fluidbatch.construct", 0, 0, |_| {
                PackSim::new(&specs, cfg.clone())
            });
            let metrics = tr.span("fluidbatch.pack_run", 0, 0, |_| sim.run());
            specs
                .iter()
                .zip(&metrics)
                .map(|(s, m)| outcome_from_metrics(s, m))
                .collect()
        })
        .collect();

    // The batch engine is byte-identical to the scalar one; the packed
    // engine stays within the simd-check gates.
    let batch_bad = waves
        .iter()
        .zip(&batch)
        .flat_map(|(w, outs)| w.iter().zip(outs))
        .filter(|(&i, out)| **out != scalar[i])
        .count();
    run.tally.fail(batch_bad, || {
        "BatchedFluidSim outcomes differ from the scalar engine".into()
    });
    let simd_bad = packs
        .iter()
        .zip(&simd)
        .flat_map(|(p, outs)| p.iter().zip(outs))
        .filter(|(&i, out)| {
            (out.utilization_percent - scalar[i].utilization_percent).abs() >= 25.0
                || (out.jain - scalar[i].jain).abs() >= 0.35
        })
        .count();
    run.tally.fail(simd_bad, || {
        "PackSim outcomes outside the simd-check gates".into()
    });

    // The backends' own telemetry: batch waves and SIMD packs.
    let jobs: Vec<(&ScenarioSpec, u64)> = cells.jobs.iter().map(|(s, seed)| (s, *seed)).collect();
    let (_, wave_events) = capture_waves(|| BatchedFluidBackend::new(cfg.clone()).run_batch(&jobs));
    let (_, pack_events) = capture_waves(|| SimdFluidBackend::new(cfg.clone()).run_batch(&jobs));
    let occupancy = ratio(
        pack_events.iter().map(|w| w.occupancy).sum::<f64>(),
        pack_events.len() as f64,
    );
    let expected = ratio(
        packs
            .iter()
            .map(|p| p.len() as f64 / LANES as f64)
            .sum::<f64>(),
        packs.len() as f64,
    );
    let lanes: usize = pack_events.iter().map(|w| w.lanes).sum();
    let consistent = pack_events.len() == packs.len()
        && lanes == cells.len()
        && (occupancy - expected).abs() < 1e-9;
    run.tally.check(cells.len(), consistent, || {
        format!(
            "SIMD Wave events ({} packs, occupancy {occupancy}) disagree with struct_key grouping \
             ({} packs, occupancy {expected})",
            pack_events.len(),
            packs.len()
        )
    });
    let wave_ms: Vec<f64> = wave_events.iter().map(|w| w.wall_ms).collect();

    let run_ns = |name: &str| tr.durations_ms(name).iter().sum::<f64>() * 1e6;
    run.metric(
        "fluidbatch.batch_ns_per_flow_step",
        ratio(run_ns("fluidbatch.batch_run"), steps),
        "ns",
    );
    run.metric(
        "fluidbatch.simd_ns_per_flow_step",
        ratio(run_ns("fluidbatch.pack_run"), steps),
        "ns",
    );
    run.metric(
        "fluidbatch.construct_ms",
        median(&tr.durations_ms("fluidbatch.construct")),
        "ms",
    );
    run.metric("fluidbatch.pack_occupancy", occupancy, "ratio");
    run.metric("fluidbatch.packs", pack_events.len() as f64, "count");
    run.metric("fluidbatch.waves", wave_events.len() as f64, "count");
    run.metric("fluidbatch.wave_ms_p50", quantile(&wave_ms, 0.5), "ms");
    run.metric("fluidbatch.wave_ms_max", quantile(&wave_ms, 1.0), "ms");
}

/// `count` indices spread evenly over `0..n`.
fn spread(n: usize, count: usize) -> Vec<usize> {
    let count = count.min(n);
    (0..count).map(|k| k * n / count).collect()
}

/// The packet engine on `sample` cells of the workload (cell times,
/// delivered packets, CCA events), and on the `split` cells timed apart
/// by their loss: the fluid workloads' grids hold no near-lossless cells,
/// so the lossy/clean split always comes from the packet-loss grid.
fn packetsim(run: &mut Run, tr: &Tracer, cells: &Cells, sample: usize, split: &Cells) {
    let idx = spread(cells.len(), sample);
    run.tally.ran(2 * idx.len() + split.len());
    let eval = |(spec, seed): &(ScenarioSpec, u64)| PacketBackend::new(1).run(spec, *seed);
    // Timing pass, no flight recorder installed.
    let outs: Vec<RunOutcome> = idx
        .par_iter()
        .map(|&i| tr.span("packetsim.cell", 0, 0, |_| eval(&cells.jobs[i])))
        .collect();
    // Counting pass with a CCA-only recorder; recording must not change
    // a single outcome.
    let (counted, cca_events) = count_cca_events(|| {
        idx.par_iter()
            .map(|&i| eval(&cells.jobs[i]))
            .collect::<Vec<_>>()
    });
    let changed = outs.iter().zip(&counted).filter(|(a, b)| a != b).count();
    run.tally.fail(changed, || {
        "packet outcomes change with the flight recorder on".into()
    });
    let delivered: f64 = idx
        .iter()
        .zip(&outs)
        .map(|(&i, out)| delivered_packets(&cells.jobs[i].0, out))
        .sum();

    let timed_split: Vec<(f64, RunOutcome)> = split
        .jobs
        .par_iter()
        .map(|job| tr.span("packetsim.split_cell", 0, 0, |_| timed(|| eval(job))))
        .collect();
    let (mut lossy_ns, mut lossy_pkts, mut clean_ns, mut clean_pkts) = (0.0, 0.0, 0.0, 0.0);
    let mut lossy_cells = 0;
    for ((spec, _), (secs, out)) in split.jobs.iter().zip(&timed_split) {
        let pkts = delivered_packets(spec, out);
        if out.loss_percent >= 1.0 {
            lossy_cells += 1;
            lossy_ns += secs * 1e9;
            lossy_pkts += pkts;
        } else {
            clean_ns += secs * 1e9;
            clean_pkts += pkts;
        }
    }
    let ms = tr.durations_ms("packetsim.cell");
    run.metric("packetsim.cell_ms_p50", quantile(&ms, 0.5), "ms");
    run.metric("packetsim.cell_ms_p90", quantile(&ms, 0.9), "ms");
    run.metric("packetsim.cell_samples", ms.len() as f64, "count");
    run.metric("packetsim.lossy_cells", lossy_cells as f64, "count");
    run.metric(
        "packetsim.lossy_ns_per_packet",
        ratio(lossy_ns, lossy_pkts),
        "ns",
    );
    run.metric(
        "packetsim.clean_ns_per_packet",
        ratio(clean_ns, clean_pkts),
        "ns",
    );
    run.metric(
        "packetsim.lossy_time_share",
        ratio(lossy_ns, lossy_ns + clean_ns),
        "ratio",
    );
    run.metric("packetsim.delivered_packets", delivered, "count");
    run.metric("packetsim.cca_events", cca_events as f64, "count");
}

/// Packets a cell's flows delivered in its measurement window, computed
/// from their goodput.
fn delivered_packets(spec: &ScenarioSpec, out: &RunOutcome) -> f64 {
    out.throughputs().iter().sum::<f64>() * 1e6 * spec.duration / (8.0 * MSS_BYTES)
}

fn campaign(run: &mut Run, tr: &Tracer, store: &FinishedStore) {
    let dir = store.dir.path();
    let open_ms = passes_ms(tr, "campaign.store_open", || {
        ResultStore::open(dir).map(|s| s.len())
    });
    let plan_ms = passes_ms(tr, "campaign.plan_load", || {
        CampaignPlan::load(dir).map(|p| p.cells.len())
    });
    let text = std::fs::read_to_string(dir.join(RESULTS_FILE)).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    let n = lines.len().max(1) as f64;
    let parse_ms = passes_ms(tr, "campaign.parse_pass", || {
        lines.iter().filter(|l| parse_record(l).is_ok()).count()
    });
    let records: Vec<_> = lines.iter().filter_map(|l| parse_record(l).ok()).collect();
    run.tally.fail(lines.len() - records.len(), || {
        "store lines fail parse_record".into()
    });
    let encode_ms = passes_ms(tr, "campaign.encode_pass", || {
        records
            .iter()
            .map(|(k, o)| record_to_line(k, o).len())
            .sum::<usize>()
    });
    let mut merged_ok = 0;
    let mut attempts = 0;
    for _ in 0..PASSES {
        let shard_dir = run.scratch("shard-probe");
        let merge_dir = run.scratch("merge-probe");
        let appended = tr.span(
            "campaign.shard_append",
            0,
            0,
            |_| -> Result<usize, String> {
                let mut w = ShardWriter::create(shard_dir.path(), 0)?;
                for (k, o) in &records {
                    w.append(k, o)?;
                }
                w.finish()
            },
        );
        let merged = ResultStore::open(merge_dir.path()).and_then(|mut s| {
            let path = ResultStore::shard_path(shard_dir.path(), 0);
            tr.span("campaign.merge", 0, 0, |_| s.merge_file(&path))
        });
        attempts += 1;
        if appended == Ok(records.len()) && merged == Ok(records.len()) {
            merged_ok += 1;
        }
    }
    run.tally.fail(records.len() * (attempts - merged_ok), || {
        "shard append + merge did not carry every record".into()
    });
    run.tally
        .check(store.plan_entries, store.cache_hit_ratio == 1.0, || {
            format!("resume cache hit ratio {} != 1", store.cache_hit_ratio)
        });
    run.metric("campaign.store_open_ms", open_ms, "ms");
    run.metric("campaign.record_parse_us", parse_ms * 1e3 / n, "us");
    run.metric("campaign.plan_load_ms", plan_ms, "ms");
    run.metric("campaign.cache_hit_ratio", store.cache_hit_ratio, "ratio");
    run.metric("campaign.record_encode_us", encode_ms * 1e3 / n, "us");
    run.metric(
        "campaign.shard_append_us",
        median(&tr.durations_ms("campaign.shard_append")) * 1e3 / n,
        "us",
    );
    run.metric(
        "campaign.merge_ms",
        median(&tr.durations_ms("campaign.merge")),
        "ms",
    );
    run.metric(
        "campaign.store_bytes_per_record",
        text.len() as f64 / n,
        "B",
    );
}

fn experiments(
    run: &mut Run,
    tr: &Tracer,
    expand: &dyn Fn() -> CampaignPlan,
    report: &dyn Fn(&ResultStore) -> Result<String, String>,
    store: &FinishedStore,
) {
    let expand_ms = passes_ms(tr, "experiments.grid_expand", || expand().cells.len());
    let opened = store.open();
    let report_ms = passes_ms(tr, "experiments.report", || {
        report(&opened).map(|r| r.len())
    });
    let ok = report(&opened).is_ok();
    run.tally.check(1, ok, || "report rendering failed".into());
    run.metric("experiments.grid_expand_ms", expand_ms, "ms");
    run.metric("experiments.report_ms", report_ms, "ms");
}
