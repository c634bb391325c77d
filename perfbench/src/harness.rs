//! Run bookkeeping shared by every workload: the time budget, the
//! correctness tally, scratch directories, summary statistics, and the
//! metric list printed at the end.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one benchmark process was asked to do, plus everything it has
/// measured and checked so far.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads of the pinned global pool (and campaign shards).
    pub threads: usize,
    /// Root of this run's scratch directories, inside the checkout.
    pub work_root: PathBuf,
    pub tally: Tally,
    metrics: Vec<Metric>,
    started: Instant,
    /// Peak RSS (MiB) during the last [`Run::pass`] or [`Run::peak_of`].
    pub last_peak_mb: f64,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Run {
    pub fn new(
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
        threads: usize,
        work_root: PathBuf,
    ) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            threads,
            work_root,
            tally: Tally::default(),
            metrics: Vec::new(),
            started: Instant::now(),
            last_peak_mb: 0.0,
        }
    }

    /// Run `f`, recording the process's peak RSS while it ran in
    /// `last_peak_mb`.
    pub fn peak_of<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let reset = reset_peak_rss();
        let out = f();
        self.last_peak_mb = match (reset, peak_rss_mb()) {
            (Ok(()), Ok(mb)) => mb,
            _ => f64::NAN,
        };
        out
    }

    /// One timed engine pass over `cells` cells, counted as attempted.
    /// A panic inside the pass fails all of its cells and yields `None`.
    pub fn pass<R>(&mut self, cells: usize, f: impl FnOnce() -> R) -> Option<(f64, R)> {
        self.tally.ran(cells);
        let out =
            self.peak_of(|| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| timed(f))));
        match out {
            Ok(out) => Some(out),
            Err(_) => {
                self.tally.fail(cells, || "an engine pass panicked".into());
                None
            }
        }
    }

    /// Progress line on stderr, stamped with the run's elapsed time.
    pub fn log(&self, what: &str) {
        eprintln!(
            "perfbench [{:7.2}s] {what}",
            self.started.elapsed().as_secs_f64()
        );
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// A fresh, uniquely named scratch directory under the run's root,
    /// removed when the returned guard drops.
    pub fn scratch(&self, tag: &str) -> ScratchDir {
        ScratchDir::new(&self.work_root, tag)
    }
}

/// Cells attempted and failed. Every engine pass over a workload's
/// cells (and every campaign entry served) counts as attempted; a cell
/// counts as failed when its engine panics or errors, when its output
/// fails a correctness check, or when the campaign worker that owns it
/// exits non-zero.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: usize,
    failed: usize,
    /// The first few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count `cells` attempted cells.
    pub fn ran(&mut self, cells: usize) {
        self.attempted += cells;
    }

    /// Count `cells` failed cells.
    pub fn fail(&mut self, cells: usize, what: impl FnOnce() -> String) {
        self.failed += cells;
        if cells > 0 && self.notes.len() < 16 {
            self.notes.push(format!("{cells} cells: {}", what()));
        }
    }

    /// A check over `cells` cells that either all pass or all fail
    /// (whole-report byte comparisons).
    pub fn check(&mut self, cells: usize, ok: bool, what: impl FnOnce() -> String) {
        self.fail(if ok { 0 } else { cells }, what);
    }

    pub fn attempted(&self) -> usize {
        self.attempted
    }

    /// Failed cells, never more than were attempted.
    pub fn failed(&self) -> usize {
        self.failed.min(self.attempted)
    }
}

/// Repeat `body` at least `min_reps` and at most `max_reps` times, and
/// beyond `min_reps` only while one more repetition as long as the last
/// one still ends within `budget` of the first call, so a run ends
/// close to its budget however long a repetition takes. `body` gets the
/// repetition index.
pub fn repeat_for(budget: Duration, min_reps: usize, max_reps: usize, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    let mut last = Duration::ZERO;
    let mut rep = 0;
    while rep < max_reps && (rep < min_reps || start.elapsed() + last <= budget) {
        let t0 = Instant::now();
        body(rep);
        last = t0.elapsed();
        rep += 1;
    }
}

/// Wall-clock seconds of one call, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample; 0 for an
/// empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reset this process's peak resident set size to its current one, so
/// the next [`peak_rss_mb`] reads the peak of what runs in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A uniquely named directory (tag + pid + process-wide counter),
/// removed with its contents on drop, so concurrent runs and repeated
/// phases of one run never share a store.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(root: &Path, tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{tag}-{}-{n}", std::process::id()));
        // A leftover from a killed run with the same pid would otherwise
        // be resumed as if it were fresh.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create scratch dir {}: {e}", path.display()));
        Self { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
