//! The traced run's collection hooks: spans the benchmark records
//! around its own calls into each layer's public functions, plus
//! in-memory sinks for the program's telemetry (`Wave` events) and
//! flight-recorder (CCA events) hooks. Everything is kept in memory and
//! written out once, when the run ends. None of it is installed in an
//! untraced run: there, `Tracer::span` is a plain call.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Identifier shared by every span of one repetition of the
    /// workload's main path (0 for layer probes outside a repetition).
    pub request: u64,
    /// `layer.operation`, e.g. `core.cell`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. Disabled tracers record nothing and read no clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent nested spans (also across threads).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write every span as one JSON line (`perfbench-spans/v1`).
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let spans = self
            .spans
            .lock()
            .expect("span log poisoned by a panicking recorder");
        let mut out = String::new();
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"schema\":\"perfbench-spans/v1\",\"id\":{},\"parent\":{},\"request\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            ));
        }
        let mut f = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        f.write_all(out.as_bytes())
            .and_then(|_| f.flush())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// One `Wave` telemetry event: a lockstep wave of the batch engine or
/// one SIMD pack.
#[derive(Debug, Clone, Copy)]
pub struct WaveRec {
    pub lanes: usize,
    pub occupancy: f64,
    pub wall_ms: f64,
}

/// In-memory telemetry sink keeping only `Wave` events.
#[derive(Default)]
pub struct WaveSink {
    waves: Mutex<Vec<WaveRec>>,
}

impl bbr_telemetry::Sink for WaveSink {
    fn record(&self, event: &bbr_telemetry::Event) {
        if let bbr_telemetry::Event::Wave {
            lanes,
            occupancy,
            wall_ms,
            ..
        } = event
        {
            if let Ok(mut w) = self.waves.lock() {
                w.push(WaveRec {
                    lanes: *lanes,
                    occupancy: *occupancy,
                    wall_ms: *wall_ms,
                });
            }
        }
    }
}

/// Collect the `Wave` events emitted while `f` runs.
pub fn capture_waves<R>(f: impl FnOnce() -> R) -> (R, Vec<WaveRec>) {
    let sink = Arc::new(WaveSink::default());
    let guard = bbr_telemetry::install(sink.clone());
    let out = f();
    drop(guard);
    let waves = std::mem::take(&mut *sink.waves.lock().expect("wave sink poisoned"));
    (out, waves)
}

/// Flight-recorder sink counting CCA phase and signal events.
#[derive(Default)]
pub struct CcaCounter {
    events: AtomicU64,
}

impl bbr_trace::TraceSink for CcaCounter {
    fn record(&self, event: &bbr_trace::TraceEvent) {
        if matches!(
            event,
            bbr_trace::TraceEvent::CcaPhase { .. } | bbr_trace::TraceEvent::CcaSignal { .. }
        ) {
            self.events.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Count the CCA events recorded while `f` runs (CCA category only: no
/// flow or link sampling).
pub fn count_cca_events<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let sink = Arc::new(CcaCounter::default());
    let config = bbr_trace::TraceConfig {
        interval: bbr_trace::DEFAULT_INTERVAL,
        flows: false,
        links: false,
        cca: true,
    };
    let guard = bbr_trace::install(config, sink.clone());
    let out = f();
    drop(guard);
    (out, sink.events.load(Ordering::Relaxed))
}
