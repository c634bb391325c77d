//! `perfbench`: the repository's closed-loop benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (`dumbbell-sweep`, `packet-loss`, `campaign-store`)
//! for about `S` seconds of measured repetitions,
//! checks every output, and prints one JSON object as the last line of
//! stdout: `correct`, `attempted`, `failed`, and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones (from spans and
//! telemetry collected in memory) with `--trace 1`. Scratch stores live
//! under `.perfbench` in the working directory and are removed when
//! done; a traced run leaves its span log there.
//!
//! Thread discipline: the rayon global pool is pinned once, to
//! `min(2, available CPUs)` threads, and campaign workers (this binary
//! re-executed through `bbr_campaign::maybe_worker`) get one thread
//! each. The process must see at most two CPUs so that holds;
//! `perfbench/run.py` restricts the CPU affinity before it starts this
//! binary.

mod harness;
mod probe;
mod spans;
mod workloads;

use std::path::PathBuf;

use harness::Run;
use spans::Tracer;

/// Where scratch stores and span logs go, relative to the working
/// directory.
const WORK_ROOT: &str = ".perfbench";

/// The seed the benchmark keeps out of tuning: gain claims are
/// re-checked on it.
const HELD_OUT_SEED: u64 = 90_001;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(bbr_campaign::WORKER_SUBCOMMAND) {
        std::process::exit(worker(&args));
    }
    match bench(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Campaign-worker mode. `maybe_worker` pins this process's pool to
/// `cpus / shards` threads, its only `build_global` call; the parent
/// runs `min(2, cpus)` shards on at most two CPUs, so that is one.
fn worker(args: &[String]) -> i32 {
    let shards: usize = flag(args, "--shards")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let threads = (cpus() / shards.max(1)).max(1);
    if threads != 1 {
        eprintln!(
            "perfbench worker: {} CPUs over {shards} shards would give {threads} threads per \
             worker; restrict the CPU affinity to at most 2 CPUs",
            cpus()
        );
        return 3;
    }
    bbr_experiments::campaign::maybe_worker(args).unwrap_or(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse().map_err(|_| format!("invalid {name} value `{v}`"))
}

fn bench(args: &[String]) -> Result<i32, String> {
    let workload: String = required(args, "--workload")?;
    let seed: u64 = required(args, "--seed")?;
    let seconds: f64 = required(args, "--seconds")?;
    let trace = match required::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("invalid --trace value `{other}` (expected 0 or 1)")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("invalid --seconds value `{seconds}`"));
    }
    if cpus() > 2 {
        return Err(format!(
            "{} CPUs visible; restrict the CPU affinity to at most 2 (perfbench/run.py does) \
             so campaign workers run one thread each",
            cpus()
        ));
    }
    let threads = cpus().min(2);
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| format!("cannot pin the thread pool: {e}"))?;
    let work_root = PathBuf::from(WORK_ROOT);
    std::fs::create_dir_all(&work_root)
        .map_err(|e| format!("cannot create {}: {e}", work_root.display()))?;

    let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new(trace)));
    let mut run = Run::new(workload, seed, seconds, trace, threads, work_root);
    println!(
        "perfbench: workload {} grid_seed {seed} universe_seed {seed} held_out_seed {HELD_OUT_SEED} \
         threads {threads} seconds {seconds} trace {}",
        run.workload, trace as u8
    );
    workloads::run_workload(&mut run, tracer)?;

    if trace {
        let dir = run.work_root.join("spans");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "{}-seed{seed}-{}.jsonl",
            run.workload,
            std::process::id()
        ));
        tracer.write_jsonl(&path)?;
        println!("perfbench: spans written to {}", path.display());
    }
    for note in &run.tally.notes {
        println!("perfbench: FAILED {note}");
    }
    for m in run.metrics() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        println!("metric {:<40} {:>18} {}", m.name, m.value, m.unit);
    }
    let (attempted, failed) = (run.tally.attempted(), run.tally.failed());
    println!(
        "metric {:<40} {:>18} ratio ({failed} of {attempted} cells failed)",
        "fail_ratio",
        harness::ratio(failed as f64, attempted as f64),
    );
    let metrics: Vec<String> = run
        .metrics()
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    );
    Ok(0)
}
