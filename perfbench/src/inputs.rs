//! Benchmark inputs: `.fadet` traces recorded from the synthetic
//! workloads before any timing starts, and the run directory they live
//! in.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use fade_system::{record_trace_prefix, Engine, ReplayReport, Session};
use fade_trace::{encode_trace, BenchProfile, TraceMeta};

/// A per-process scratch directory under `.bench_run/` in the current
/// directory, removed again when dropped.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.bench_run/<pid>-<n>-<tag>/`, `n` counting the process's
    /// run directories (relative, so unix socket paths inside it stay
    /// short).
    pub fn create(tag: &str) -> std::io::Result<RunDir> {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        let n = CREATED.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(".bench_run").join(format!("{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Derives the `i`-th input seed from the run seed (splitmix64), so
/// one `--seed` fixes every trace of a run.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One recorded trace, written as a `.fadet` file.
#[derive(Clone, Debug)]
pub struct TraceInput {
    /// The benchmark profile it was generated from.
    pub bench: BenchProfile,
    /// The monitor whose events sized it.
    pub monitor: String,
    /// Generator seed.
    pub seed: u64,
    /// The `.fadet` file.
    pub path: PathBuf,
    /// Size of the file, bytes.
    pub len: usize,
    /// Trace records.
    pub records: usize,
    /// Application instructions in the trace.
    pub instrs: u64,
    /// Monitored events in the trace.
    pub events: u64,
}

impl TraceInput {
    /// `bench/monitor` — the input's display name.
    pub fn label(&self) -> String {
        format!("{}/{}", self.bench.name, self.monitor)
    }

    /// The file's bytes.
    ///
    /// # Panics
    ///
    /// Panics when the file the run recorded cannot be read back.
    pub fn read(&self) -> Vec<u8> {
        std::fs::read(&self.path).unwrap_or_else(|e| panic!("reading {}: {e}", self.path.display()))
    }
}

/// Records the prefix of `bench` holding `events` monitored events for
/// `monitor` and writes it to `dir` as a `.fadet` file.
///
/// # Panics
///
/// Panics on an unknown benchmark or monitor name, or when the file
/// cannot be written: inputs are the benchmark's own, so either is a
/// bug in the benchmark.
pub fn record(dir: &Path, bench: &str, monitor: &str, seed: u64, events: u64) -> TraceInput {
    let profile = fade_trace::by_name(bench).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let (records, instrs) = record_trace_prefix(&profile, monitor, seed, events);
    let bytes = encode_trace(&TraceMeta::new(profile.name, seed), &records);
    let path = dir.join(format!("{bench}-{monitor}-{seed:016x}.fadet"));
    std::fs::write(&path, &bytes).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    TraceInput {
        bench: profile,
        monitor: monitor.to_string(),
        seed,
        path,
        len: bytes.len(),
        records: records.len(),
        instrs,
        events,
    }
}

/// Records one trace per `(benchmark, monitor)` spec, the `i`-th from
/// the `i`-th derived seed with `events(i)` monitored events, and
/// computes each one's reference. On the calling thread: glibc keeps
/// the arenas of worker threads resident after they exit, so recording
/// on workers would add tens of MB to `peak_rss_mb` that
/// [`crate::host::reset_peak_rss`] cannot hand back.
///
/// # Errors
///
/// The first reference replay that fails.
pub fn record_all(
    dir: &RunDir,
    seed: u64,
    events: impl Fn(usize) -> u64,
    specs: &[(&'static str, String)],
) -> Result<Vec<(TraceInput, Reference)>, String> {
    (0..specs.len())
        .map(|i| {
            let (bench, monitor) = &specs[i];
            let t = record(
                dir.path(),
                bench,
                monitor,
                derive_seed(seed, i as u64),
                events(i),
            );
            Reference::compute(&t).map(|r| (t, r))
        })
        .collect()
}

/// Replays `input` whole with the batched engine at default knobs,
/// checks it against the reference, and returns the relative error of
/// its cycle estimate.
///
/// # Errors
///
/// A typed build or run error, or a result that differs from the
/// reference.
pub fn batched_error(input: &TraceInput, reference: &Reference) -> Result<f64, String> {
    let report = Session::builder()
        .monitor(input.monitor.as_str())
        .source(input.path.as_path())
        .engine(Engine::batched())
        .build()
        .map_err(|e| format!("{}: build: {e}", input.label()))?
        .replay_all()
        .map_err(|e| format!("{}: replay: {e}", input.label()))?;
    reference
        .check_replay(&report)
        .map_err(|e| format!("{}: {e}", input.label()))?;
    Ok(reference.cycle_error(report.estimated_cycles))
}

/// The untimed reference result of one trace: an [`Engine::Cycle`]
/// replay, whose cycle count is exact.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    /// Application instructions retired.
    pub instrs: u64,
    /// Monitored events accepted.
    pub events: u64,
    /// The monitor's violation reports, in trace order.
    pub violations: Vec<String>,
    /// The accelerator's functional counters.
    pub counters: Option<[u64; 7]>,
    /// Exact simulated cycles.
    pub exact_cycles: u64,
}

impl Reference {
    /// Replays `input` cycle-accurately with default knobs.
    ///
    /// # Errors
    ///
    /// The build or run error, rendered.
    pub fn compute(input: &TraceInput) -> Result<Reference, String> {
        let report = Session::builder()
            .monitor(input.monitor.as_str())
            .source(input.path.as_path())
            .engine(Engine::Cycle)
            .build()
            .map_err(|e| e.to_string())?
            .replay_all()
            .map_err(|e| e.to_string())?;
        Ok(Reference {
            instrs: report.instrs,
            events: report.events_seen,
            violations: report.violations,
            counters: report.functional_counters,
            exact_cycles: report.estimated_cycles,
        })
    }

    /// Checks a whole-trace replay's monitor-visible results against
    /// this reference.
    ///
    /// # Errors
    ///
    /// The first field that differs.
    pub fn check_replay(&self, r: &ReplayReport) -> Result<(), String> {
        if r.instrs != self.instrs {
            return Err(format!("instrs {} != reference {}", r.instrs, self.instrs));
        }
        if r.events_seen != self.events {
            return Err(format!(
                "events {} != reference {}",
                r.events_seen, self.events
            ));
        }
        if r.functional_counters != self.counters {
            return Err(format!(
                "functional counters {:?} != reference {:?}",
                r.functional_counters, self.counters
            ));
        }
        if r.violations != self.violations {
            return Err(format!(
                "{} violations != reference {}",
                r.violations.len(),
                self.violations.len()
            ));
        }
        Ok(())
    }

    /// Relative error of an estimated cycle count against the exact
    /// one.
    pub fn cycle_error(&self, estimated: u64) -> f64 {
        let exact = self.exact_cycles.max(1) as f64;
        (estimated as f64 - exact).abs() / exact
    }
}
