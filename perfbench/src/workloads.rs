//! The three closed-loop workloads. Each is driven by one client: this
//! process submits a fixed set of cells, waits for every result, checks
//! it, and only then starts the next repetition.
//!
//! Every workload reports every end-to-end metric, measured on its own
//! cells:
//!
//! * `cells_per_sec` — the workload's main user path;
//! * `scalar_cells_per_sec` / `simd_cells_per_sec` — the same cells on
//!   the scalar reference fluid engine and on the SIMD `PackSim` engine;
//! * `resume_s` — one fully cached `run_sharded` resume of a campaign
//!   over the cells, store reopen and report included;
//! * `setup_s` — expansion, validation and hashing of the cells, plan
//!   save and store open: everything before a cell runs;
//! * `peak_rss_mb` — peak resident memory of this process during one
//!   main-path repetition.

use std::time::Duration;

use bbr_campaign::store::{parse_record, record_to_line};
use bbr_campaign::{
    run_sharded, CampaignPlan, CampaignSummary, CellKey, ResultStore, RESULTS_FILE,
};
use bbr_experiments::aggregate::model_config;
use bbr_experiments::campaign::build_backend;
use bbr_experiments::scenarios::{Combo, COMBOS, DEPLOY_COMBOS};
use bbr_experiments::sweep::{bench_grid, Backend, ScenarioGrid, SweepReport};
use bbr_experiments::Effort;
use bbr_fluid_core::config::ModelConfig;
use bbr_packetsim::backend::PacketBackend;
use bbr_scenario::{CcaKind, QdiscKind, RunOutcome, SimBackend};
use rayon::prelude::*;

use crate::harness::{median, repeat_for, timed, Run, ScratchDir};
use crate::probe::{self, Cells, Probes};
use crate::spans::Tracer;

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["dumbbell-sweep", "packet-loss", "campaign-store"];

/// The `simd-check` gates: the SIMD engine must stay within 25
/// utilization points and 0.35 Jain of the scalar engine on every cell.
pub const SIMD_UTIL_GATE_PP: f64 = 25.0;
pub const SIMD_JAIN_GATE: f64 = 0.35;

/// Set-ups (each in a fresh directory) and fully cached resumes after
/// every measured repetition; the medians are reported.
const SETUPS_PER_REP: usize = 20;
const RESUMES_PER_REP: usize = 3;

/// Run the named workload, recording its metrics into `run`.
pub fn run_workload(run: &mut Run, tr: &'static Tracer) -> Result<(), String> {
    match run.workload.as_str() {
        "dumbbell-sweep" => dumbbell_sweep(run, tr),
        "packet-loss" => packet_loss(run, tr),
        "campaign-store" => campaign_store(run, tr),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// One pass of a repetition: the main path, the scalar and SIMD fluid
/// engines over the same cells, and in a traced run the traced main
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Main,
    Scalar,
    Simd,
    Traced,
}

/// The passes of repetition `rep`, in an order that rotates with the
/// repetition so that no pass always runs first.
fn slots(rep: usize, trace: bool) -> Vec<Slot> {
    let all = [Slot::Main, Slot::Scalar, Slot::Simd, Slot::Traced];
    let n = if trace { 4 } else { 3 };
    (0..n).map(|k| all[(rep + k) % n]).collect()
}

/// Wall seconds of every measured repetition, per pass.
#[derive(Default)]
struct Samples {
    main: Vec<f64>,
    /// Peak RSS (MiB) of the process during each main-path repetition.
    rss: Vec<f64>,
    scalar: Vec<f64>,
    simd: Vec<f64>,
    traced: Vec<f64>,
}

impl Samples {
    fn record(&mut self, slot: Slot, secs: f64, peak_mb: f64) {
        match slot {
            Slot::Main => {
                self.main.push(secs);
                self.rss.push(peak_mb);
            }
            Slot::Scalar => self.scalar.push(secs),
            Slot::Simd => self.simd.push(secs),
            Slot::Traced => self.traced.push(secs),
        }
    }

    /// The engine metrics: `main_cells` (or campaign entries) per
    /// median main-path repetition, `cells` per median fluid one.
    fn report(&self, run: &mut Run, main_cells: usize, cells: usize) {
        let n = cells as f64;
        run.metric(
            "cells_per_sec",
            main_cells as f64 / median(&self.main),
            "1/s",
        );
        run.metric("scalar_cells_per_sec", n / median(&self.scalar), "1/s");
        run.metric("simd_cells_per_sec", n / median(&self.simd), "1/s");
    }
}

/// [`Run::pass`] over `cells` cells, its wall time (and peak RSS) kept
/// under `slot`.
fn timed_pass<R>(
    run: &mut Run,
    samples: &mut Samples,
    slot: Slot,
    cells: usize,
    f: impl FnOnce() -> R,
) -> Option<R> {
    let (secs, out) = run.pass(cells, f)?;
    samples.record(slot, secs, run.last_peak_mb);
    Some(out)
}

/// What a workload hands to the shared tail: per-layer probes in a
/// traced run, the remaining end-to-end metrics otherwise.
struct Tail<'a> {
    cells: &'a Cells,
    cfg: &'a ModelConfig,
    packet_sample: usize,
    expand: &'a dyn Fn() -> CampaignPlan,
    report: &'a dyn Fn(&ResultStore) -> Result<String, String>,
}

fn finish(
    run: &mut Run,
    tr: &Tracer,
    t: Tail,
    samples: &Samples,
    main_cells: usize,
    store: &FinishedStore,
    setup: &[f64],
) -> Result<(), String> {
    if run.trace {
        run.log("layer probes");
        let loss_split = Cells::from_plan(&packet_loss_grid(run.seed).campaign_plan());
        probe::all(
            run,
            tr,
            Probes {
                cells: t.cells,
                cfg: t.cfg,
                packet_sample: t.packet_sample,
                loss_split: &loss_split,
                store,
                expand: t.expand,
                report: t.report,
                untraced_s: &samples.main,
                traced_s: &samples.traced,
            },
        );
    } else {
        samples.report(run, main_cells, t.cells.len());
        run.metric("resume_s", median(&store.resume_s), "s");
        run.metric("setup_s", median(setup), "s");
        run.metric("peak_rss_mb", median(&samples.rss), "MiB");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// dumbbell-sweep
// ---------------------------------------------------------------------

/// The §4.3-shaped 96-cell dumbbell grid (`bench_grid(96)`) with the
/// run's seed as grid seed, through `ScenarioGrid::run` on the batch
/// engine (main path), the scalar engine and the SIMD engine.
fn dumbbell_sweep(run: &mut Run, tr: &'static Tracer) -> Result<(), String> {
    let seed = run.seed;
    let grid = move |b: Backend| bench_grid(96).seed(seed).backend(b);
    let cfg = model_config(Effort::Fast);
    let plan = grid(Backend::FluidBatch).campaign_plan();
    let cells = Cells::from_plan(&plan);
    let n = cells.len();

    // Warm-up pass: fills caches and gives the reference reports.
    run.log("warm-up");
    let engines = [Backend::FluidBatch, Backend::Fluid, Backend::FluidSimd];
    let mut refs = Vec::new();
    for e in engines {
        let (_, r) = run
            .pass(n, || grid(e).run())
            .ok_or("warm-up pass panicked")?;
        refs.push(r);
    }
    let csvs: Vec<String> = refs.iter().map(SweepReport::csv).collect();
    run.tally.check(n, csvs[0] == csvs[1], || {
        "batch CSV is not byte-identical to the scalar CSV".into()
    });
    check_simd_gates(run, &refs[1], &refs[2]);
    let report_grid = grid(Backend::FluidBatch);
    let report = |s: &ResultStore| report_grid.report_from_store(s).map(|r| r.csv());
    let expand = || grid(Backend::FluidBatch).campaign_plan();
    let check = (csvs[0].as_str(), &report as Report);
    let mut between = Interleaved::new(run, tr, &plan, "dumbbell", check, &expand)?;

    run.log("measured repetitions");
    let mut samples = Samples::default();
    repeat_for(main_budget(run), 3, 500, |rep| {
        for slot in slots(rep, run.trace) {
            let (e, out) = match slot {
                Slot::Traced => (0, {
                    let sweep = || {
                        probe::traced_sweep(tr, rep as u64 + 1, &grid(Backend::FluidBatch), &cfg)
                    };
                    timed_pass(run, &mut samples, slot, n, sweep)
                }),
                _ => {
                    let e = slot as usize;
                    (
                        e,
                        timed_pass(run, &mut samples, slot, n, || grid(engines[e]).run()),
                    )
                }
            };
            if let Some(r) = out {
                run.tally.check(n, r.csv() == csvs[e], || {
                    format!("{slot:?} CSV changed across repetitions")
                });
            }
        }
        between.sample(run);
    });
    let (store, setup) = between.done(run)?;
    let tail = Tail {
        cells: &cells,
        cfg: &cfg,
        packet_sample: 8,
        expand: &expand,
        report: &report,
    };
    finish(run, tr, tail, &samples, n, &store, &setup)
}

// ---------------------------------------------------------------------
// packet-loss
// ---------------------------------------------------------------------

/// Reno alone: a loss-based reference that keeps deep buffers nearly
/// lossless.
const RENO: Combo = Combo {
    label: "RENO",
    kinds: &[CcaKind::Reno],
};

/// A dumbbell grid on the packet engine mixing loss-heavy BBRv1 cells
/// with near-lossless BBRv2, BBRv2D and Reno cells: 4 mixes × 1 and
/// 4 BDP × drop-tail and RED, 4 flows, 1 s windows.
fn packet_loss_grid(seed: u64) -> ScenarioGrid {
    ScenarioGrid::new()
        .effort(Effort::Fast)
        .backend(Backend::Packet)
        .combos(vec![COMBOS[0], COMBOS[4], DEPLOY_COMBOS[0], RENO])
        .flow_counts(vec![4])
        .buffers_bdp(vec![1.0, 4.0])
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red])
        .rtt_ranges(vec![(0.030, 0.040)])
        .duration(1.0)
        .warmup(0.25)
        .runs(1)
        .seed(seed)
}

/// The packet engine over the grid's cells, fanned out over the pool
/// exactly as `ScenarioGrid::run` does for a per-cell backend, keeping
/// the full outcomes for the record comparison.
fn packet_outcomes(cells: &Cells) -> Vec<RunOutcome> {
    cells
        .jobs
        .par_iter()
        .map(|(spec, seed)| PacketBackend::new(1).run(spec, *seed))
        .collect()
}

fn packet_loss(run: &mut Run, tr: &'static Tracer) -> Result<(), String> {
    let grid = packet_loss_grid(run.seed);
    let fluid = grid.clone().backend(Backend::Fluid);
    let simd = grid.clone().backend(Backend::FluidSimd);
    let cfg = model_config(Effort::Fast);
    let plan = grid.campaign_plan();
    let cells = Cells::from_plan(&plan);
    let n = cells.len();

    run.log("warm-up");
    let (_, outs) = run
        .pass(n, || packet_outcomes(&cells))
        .ok_or("warm-up pass panicked")?;
    let lines = record_lines(&cells, &outs);
    let (_, scalar_ref) = run.pass(n, || fluid.run()).ok_or("warm-up pass panicked")?;
    let (_, simd_ref) = run.pass(n, || simd.run()).ok_or("warm-up pass panicked")?;
    check_simd_gates(run, &scalar_ref, &simd_ref);
    let (scalar_csv, simd_csv) = (scalar_ref.csv(), simd_ref.csv());
    let stored = |s: &ResultStore| stored_record_lines(&cells, s);
    let expand = || grid.campaign_plan();
    let check = (lines.as_str(), &stored as Report);
    let mut between = Interleaved::new(run, tr, &plan, "packet", check, &expand)?;

    run.log("measured repetitions");
    let mut samples = Samples::default();
    repeat_for(main_budget(run), 3, 500, |rep| {
        for slot in slots(rep, run.trace) {
            let s = &mut samples;
            match slot {
                Slot::Main | Slot::Traced => {
                    let outs = if slot == Slot::Main {
                        timed_pass(run, s, slot, n, || packet_outcomes(&cells))
                    } else {
                        let request = rep as u64 + 1;
                        timed_pass(run, s, slot, n, || {
                            probe::traced_packet(tr, request, &cells)
                        })
                    };
                    if let Some(outs) = outs {
                        run.tally
                            .check(n, record_lines(&cells, &outs) == lines, || {
                                format!("{slot:?} packet records changed across repetitions")
                            });
                    }
                }
                Slot::Scalar | Slot::Simd => {
                    let (g, csv) = if slot == Slot::Scalar {
                        (&fluid, &scalar_csv)
                    } else {
                        (&simd, &simd_csv)
                    };
                    if let Some(r) = timed_pass(run, s, slot, n, || g.run()) {
                        run.tally.check(n, r.csv() == *csv, || {
                            format!("{slot:?} CSV changed across repetitions")
                        });
                    }
                }
            }
        }
        between.sample(run);
    });
    let (store, setup) = between.done(run)?;
    let report = |s: &ResultStore| grid.report_from_store(s).map(|r| r.csv());
    let tail = Tail {
        cells: &cells,
        cfg: &cfg,
        packet_sample: n,
        expand: &expand,
        report: &report,
    };
    finish(run, tr, tail, &samples, n, &store, &setup)
}

fn packet_key(spec_hash: u64, seed: u64) -> CellKey {
    CellKey {
        spec_hash,
        seed,
        backend: "packet".into(),
        run_index: 0,
    }
}

/// `record_to_line` of every cell's outcome, as a campaign store holds
/// it (one packet run per cell).
fn record_lines(cells: &Cells, outs: &[RunOutcome]) -> String {
    cells
        .jobs
        .iter()
        .zip(outs)
        .map(|((spec, seed), out)| {
            record_to_line(&packet_key(spec.stable_hash(), *seed), out) + "\n"
        })
        .collect()
}

fn stored_record_lines(cells: &Cells, store: &ResultStore) -> Result<String, String> {
    let mut out = String::new();
    for (spec, seed) in &cells.jobs {
        let key = packet_key(spec.stable_hash(), *seed);
        let outcome = store.get(&key).ok_or("store misses a packet cell")?;
        out.push_str(&record_to_line(&key, outcome));
        out.push('\n');
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// campaign-store
// ---------------------------------------------------------------------

/// A fast `Backend::Both` grid with two packet repetitions per cell,
/// sized so the finished store holds enough records for a resume to be
/// timeable: 7 mixes × 4 buffers × 2 qdiscs × 3 RTT bands × 3 flow
/// counts on a 10 Mbit/s link, 504 cells and 1512 entries.
fn campaign_grid(seed: u64) -> ScenarioGrid {
    ScenarioGrid::new()
        .effort(Effort::Fast)
        .backend(Backend::Both)
        .capacity(10.0)
        .all_combos()
        .flow_counts(vec![2, 3, 4])
        .buffers_bdp(vec![1.0, 2.0, 4.0, 7.0])
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red])
        .rtt_ranges(vec![(0.030, 0.040), (0.010, 0.020), (0.050, 0.080)])
        .duration(1.0)
        .warmup(0.25)
        .runs(2)
        .seed(seed)
}

fn campaign_store(run: &mut Run, tr: &'static Tracer) -> Result<(), String> {
    let grid = campaign_grid(run.seed);
    let fluid = grid.clone().backend(Backend::Fluid);
    let simd = grid.clone().backend(Backend::FluidSimd);
    let cfg = model_config(Effort::Fast);
    let plan = grid.campaign_plan();
    let cells = Cells::from_plan(&plan);
    let n = cells.len();
    let entries = plan_entries(&plan);

    run.log("warm-up");
    // The in-process reference every cold report must match byte for byte.
    let (_, inproc) = run.pass(n, || grid.run()).ok_or("warm-up pass panicked")?;
    let expected = inproc.csv();
    let (_, scalar_ref) = run.pass(n, || fluid.run()).ok_or("warm-up pass panicked")?;
    let (_, simd_ref) = run.pass(n, || simd.run()).ok_or("warm-up pass panicked")?;
    check_simd_gates(run, &scalar_ref, &simd_ref);
    let differ = scalar_ref
        .cells
        .iter()
        .zip(&inproc.cells)
        .filter(|(a, b)| scalar_ref.metrics(a, "fluid") != inproc.metrics(b, "fluid"))
        .count();
    run.tally.fail(differ, || {
        "scalar fluid differs from the batch column".into()
    });
    let (scalar_csv, simd_csv) = (scalar_ref.csv(), simd_ref.csv());
    let report = |s: &ResultStore| grid.report_from_store(s).map(|r| r.csv());
    let expand = || grid.campaign_plan();
    let check = (expected.as_str(), &report as Report);
    let mut between = Interleaved::new(run, tr, &plan, "campaign", check, &expand)?;

    run.log("measured repetitions");
    let mut samples = Samples::default();
    repeat_for(main_budget(run), 2, 50, |rep| {
        for slot in slots(rep, run.trace) {
            match slot {
                Slot::Main | Slot::Traced => {
                    let request = if slot == Slot::Main {
                        0
                    } else {
                        rep as u64 + 1
                    };
                    let cold =
                        cold_campaign(run, tr, &plan, "campaign", &expected, &report, request);
                    if let Some((summary, _dir)) = cold {
                        samples.record(slot, summary.wall_seconds, run.last_peak_mb);
                    }
                }
                Slot::Scalar | Slot::Simd => {
                    let (g, csv) = if slot == Slot::Scalar {
                        (&fluid, &scalar_csv)
                    } else {
                        (&simd, &simd_csv)
                    };
                    if let Some(r) = timed_pass(run, &mut samples, slot, n, || g.run()) {
                        run.tally.check(n, r.csv() == *csv, || {
                            format!("{slot:?} CSV changed across repetitions")
                        });
                    }
                }
            }
        }
        between.sample(run);
    });
    if samples.main.is_empty() {
        return Err("no cold campaign finished".into());
    }
    let (store, setup) = between.done(run)?;
    let tail = Tail {
        cells: &cells,
        cfg: &cfg,
        packet_sample: 16,
        expand: &expand,
        report: &report,
    };
    // Cold-campaign throughput counts store entries, not grid cells.
    finish(run, tr, tail, &samples, entries, &store, &setup)
}

/// Planned store entries: cells × summed backend repetitions.
fn plan_entries(plan: &CampaignPlan) -> usize {
    plan.cells.len() * plan.backends.iter().map(|b| b.runs as usize).sum::<usize>()
}

// ---------------------------------------------------------------------
// Shared phases and checks
// ---------------------------------------------------------------------

/// Time budget of a workload's measured repetitions.
fn main_budget(run: &Run) -> Duration {
    Duration::from_secs_f64(run.seconds)
}

/// A finished campaign store, removed when dropped.
pub struct FinishedStore {
    pub dir: ScratchDir,
    pub plan_entries: usize,
    /// Wall seconds of every fully cached resume.
    pub resume_s: Vec<f64>,
    /// Cache hits over planned entries of the last resume.
    pub cache_hit_ratio: f64,
}

impl FinishedStore {
    pub fn open(&self) -> ResultStore {
        ResultStore::open(self.dir.path()).expect("reopen the finished store")
    }
}

type Report<'a> = &'a dyn Fn(&ResultStore) -> Result<String, String>;

/// A cold `run_sharded` of `plan` into a fresh store, one single-thread
/// worker per pool thread, its report checked against `expected`. A
/// failed campaign (a worker exiting non-zero) fails every entry.
fn cold_campaign(
    run: &mut Run,
    tr: &Tracer,
    plan: &CampaignPlan,
    tag: &str,
    expected: &str,
    report: Report,
    request: u64,
) -> Option<(CampaignSummary, ScratchDir)> {
    let dir = run.scratch(tag);
    let entries = plan_entries(plan);
    let shards = run.threads;
    run.tally.ran(entries);
    let result = run.peak_of(|| {
        tr.span("campaign.run_sharded", 0, request, |_| {
            run_sharded(plan, dir.path(), shards, &build_backend)
        })
    });
    match result {
        Ok(summary) => {
            let csv = ResultStore::open(dir.path()).and_then(|s| report(&s));
            let ok = summary.computed == entries && csv.as_deref() == Ok(expected);
            run.tally.check(entries, ok, || {
                format!("cold {tag} campaign report differs from the in-process run")
            });
            Some((summary, dir))
        }
        Err(e) => {
            run.tally
                .fail(entries, || format!("cold {tag} campaign failed: {e}"));
            None
        }
    }
}

/// The set-ups and fully cached resumes of a workload. A few of each run
/// after every measured repetition, so they see the same load of the
/// host as the engine passes they are reported with.
struct Interleaved<'a> {
    plan: &'a CampaignPlan,
    tag: &'static str,
    /// What `check` must render from the store after every campaign.
    expected: &'a str,
    check: Report<'a>,
    /// The workload's grid expansion (validating and hashing every spec).
    expand: &'a dyn Fn() -> CampaignPlan,
    store: FinishedStore,
    setup_s: Vec<f64>,
}

impl<'a> Interleaved<'a> {
    /// Run `plan` cold into the store later repetitions resume.
    fn new(
        run: &mut Run,
        tr: &Tracer,
        plan: &'a CampaignPlan,
        tag: &'static str,
        (expected, check): (&'a str, Report<'a>),
        expand: &'a dyn Fn() -> CampaignPlan,
    ) -> Result<Self, String> {
        run.log("cold campaign");
        let (_, dir) = cold_campaign(run, tr, plan, tag, expected, check, 0)
            .ok_or_else(|| format!("the cold {tag} campaign failed"))?;
        let store = FinishedStore {
            dir,
            plan_entries: plan_entries(plan),
            resume_s: Vec::new(),
            cache_hit_ratio: 0.0,
        };
        Ok(Self {
            plan,
            tag,
            expected,
            check,
            expand,
            store,
            setup_s: Vec::new(),
        })
    }

    /// `SETUPS_PER_REP` set-ups and `RESUMES_PER_REP` resumes.
    fn sample(&mut self, run: &mut Run) {
        for _ in 0..SETUPS_PER_REP {
            self.setup(run);
        }
        for _ in 0..RESUMES_PER_REP {
            self.resume(run);
        }
    }

    /// One set-up in a fresh directory: expand the cells, save the
    /// campaign plan, open the empty store.
    fn setup(&mut self, run: &Run) {
        let dir = run.scratch("setup");
        let (s, ()) = timed(|| {
            let plan = (self.expand)();
            plan.save(dir.path())
                .expect("plan save into a fresh directory");
            std::hint::black_box(ResultStore::open(dir.path()).expect("open an empty store"));
        });
        self.setup_s.push(s);
    }

    /// One fully cached resume: `run_sharded` over the finished store
    /// (which must compute nothing), store reopen, report, and
    /// `report.csv` write — the `figures campaign --resume` path.
    fn resume(&mut self, run: &mut Run) {
        let (dir, tag) = (self.store.dir.path(), self.tag);
        let entries = self.store.plan_entries;
        run.tally.ran(entries);
        let (s, out) = timed(|| -> Result<(CampaignSummary, String), String> {
            let summary = run_sharded(self.plan, dir, run.threads, &build_backend)?;
            let store = ResultStore::open(dir)?;
            let csv = (self.check)(&store)?;
            std::fs::write(dir.join("report.csv"), &csv)
                .map_err(|e| format!("cannot write report.csv: {e}"))?;
            Ok((summary, csv))
        });
        match out {
            Ok((summary, csv)) => {
                self.store.resume_s.push(s);
                self.store.cache_hit_ratio = summary.cached as f64 / summary.entries.max(1) as f64;
                let ok =
                    summary.computed == 0 && summary.entries == entries && csv == self.expected;
                run.tally.check(entries, ok, || {
                    format!(
                        "{tag} resume computed {} entries or changed its report",
                        summary.computed
                    )
                });
            }
            Err(e) => run
                .tally
                .fail(entries, || format!("{tag} resume failed: {e}")),
        }
    }

    /// The finished store and the set-up times, once every record has
    /// passed a parse → encode round trip unchanged.
    fn done(self, run: &mut Run) -> Result<(FinishedStore, Vec<f64>), String> {
        let tag = self.tag;
        if self.store.resume_s.is_empty() || self.setup_s.is_empty() {
            return Err(format!("no {tag} resume or set-up finished"));
        }
        let text = std::fs::read_to_string(self.store.dir.path().join(RESULTS_FILE))
            .map_err(|e| format!("cannot read the {tag} store: {e}"))?;
        let bad = text
            .lines()
            .filter(|l| {
                parse_record(l)
                    .map(|(k, o)| record_to_line(&k, &o))
                    .as_deref()
                    != Ok(*l)
            })
            .count();
        run.tally
            .fail(bad, || "store records do not round-trip".into());
        Ok((self.store, self.setup_s))
    }
}

/// Every SIMD cell within the `simd-check` gates of the scalar cell.
fn check_simd_gates(run: &mut Run, scalar: &SweepReport, simd: &SweepReport) {
    if scalar.len() != simd.len() {
        run.tally
            .fail(scalar.len(), || "SIMD grid expands differently".into());
        return;
    }
    let bad = scalar
        .cells
        .iter()
        .zip(&simd.cells)
        .filter(
            |(a, b)| match (scalar.metrics(a, "fluid"), simd.metrics(b, "fluid-simd")) {
                (Some(m), Some(s)) => {
                    (m.utilization_percent - s.utilization_percent).abs() >= SIMD_UTIL_GATE_PP
                        || (m.jain - s.jain).abs() >= SIMD_JAIN_GATE
                }
                _ => true,
            },
        )
        .count();
    run.tally
        .fail(bad, || "SIMD cells outside the simd-check gates".into());
}
