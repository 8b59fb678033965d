//! What every workload shares: run sizes, the closed-loop timed phase,
//! the end-to-end metrics, the traced run, and the result line.

use std::path::PathBuf;
use std::time::Instant;

use crate::host::{self, SchedSnapshot, SpeedProbe, PROBE_NOMINAL_S};
use crate::inputs::{RunDir, TraceInput};
use crate::ladder;
use crate::spans;
use crate::stats::{median, Latency, MIN_OPS};

/// Input sizes of a run. [`Size::full`] is what the benchmark
/// measures; [`Size::tiny`] keeps the smoke tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// hmmer/AddrCheck traces `replay-filter` cycles through.
    pub replay_traces: usize,
    /// Monitored events per `replay-filter` trace.
    pub replay_events: u64,
    /// Monitored events per `serve-mixed-2c` trace.
    pub serve_events: u64,
    /// Seeds each `serve-mixed-2c` trace kind is recorded from.
    pub serve_seeds: usize,
    /// Warmup instructions per `paper-fig9` experiment.
    pub fig9_warmup: u64,
    /// Measured instructions per `paper-fig9` experiment.
    pub fig9_measure: u64,
    /// Set-ups per run, spread over the [`PROBE_POINTS`]: before,
    /// between and after the pieces of the timed phase; `setup_s` is
    /// their median.
    pub setups: usize,
    /// Monitored events per trace of a `paper-fig9` FADE point.
    pub fig9_trace_events: u64,
    /// Seeds each `paper-fig9` FADE point is recorded from for
    /// `cycle_err_pct`.
    pub fig9_trace_seeds: usize,
    /// Repetitions of each ladder step; the median is kept.
    pub ladder_reps: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            replay_traces: 64,
            replay_events: 100_000,
            serve_events: 50_000,
            serve_seeds: 16,
            fig9_warmup: fade_bench::WARMUP,
            fig9_measure: fade_bench::MEASURE,
            setups: 24,
            fig9_trace_events: 50_000,
            fig9_trace_seeds: 3,
            ladder_reps: 3,
        }
    }

    /// Sizes for smoke tests: every code path, a fraction of the work.
    pub fn tiny() -> Size {
        Size {
            replay_traces: 2,
            replay_events: 2_000,
            serve_events: 2_000,
            serve_seeds: 1,
            fig9_warmup: 300,
            fig9_measure: 1_500,
            setups: 2,
            fig9_trace_events: 2_000,
            fig9_trace_seeds: 1,
            ladder_reps: 1,
        }
    }
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
    /// Input sizes.
    pub size: Size,
}

/// A named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The closed-loop timed phase of a workload.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Wall-clock seconds from the first operation's start to the last
    /// one's end.
    pub wall_s: f64,
    /// Latency of every successful operation, seconds.
    pub latencies_s: Vec<f64>,
    /// Application instructions simulated by successful operations.
    pub instrs: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a typed error, a refused connection, or
    /// a result that differs from the reference.
    pub failed: u64,
    /// Summed time the workers spent inside operations, seconds.
    pub busy_s: f64,
    /// Workers (client threads or pool workers) the phase ran.
    pub workers: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Phase {
    /// Accounts one operation: `Ok(instrs)` or the failure's message.
    pub fn record(&mut self, latency_s: f64, outcome: Result<u64, String>) {
        self.attempted += 1;
        self.busy_s += latency_s;
        match outcome {
            Ok(instrs) => {
                self.instrs += instrs;
                self.latencies_s.push(latency_s);
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Appends a phase that ran after this one.
    pub fn chain(&mut self, next: Phase) {
        self.wall_s += next.wall_s;
        self.workers = self.workers.max(next.workers);
        self.merge(next);
    }

    /// Folds another worker's phase into this one.
    pub fn merge(&mut self, other: Phase) {
        self.latencies_s.extend(other.latencies_s);
        self.instrs += other.instrs;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy_s += other.busy_s;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }

    /// Mean latency of successful operations, seconds.
    pub fn mean_s(&self) -> f64 {
        self.latencies_s.iter().sum::<f64>() / self.latencies_s.len().max(1) as f64
    }

    /// This phase with every time multiplied by `scale`.
    pub fn scaled(&self, scale: f64) -> Phase {
        Phase {
            wall_s: self.wall_s * scale,
            latencies_s: self.latencies_s.iter().map(|l| l * scale).collect(),
            busy_s: self.busy_s * scale,
            ..self.clone()
        }
    }

    /// Fraction of worker capacity spent inside operations.
    pub fn busy_frac(&self) -> f64 {
        self.busy_s / (self.wall_s * self.workers.max(1) as f64).max(1e-12)
    }
}

/// Runs whole rounds of `round` operations until `seconds` have passed
/// and at least `min_ops` operations were attempted. `op(i)` runs the
/// round's `i`-th operation and returns its instructions or failure.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    round: usize,
    mut op: impl FnMut(usize) -> Result<u64, String>,
) -> Phase {
    let mut phase = Phase {
        workers: 1,
        ..Phase::default()
    };
    let start = Instant::now();
    loop {
        for i in 0..round {
            let t = Instant::now();
            let outcome = op(i);
            phase.record(t.elapsed().as_secs_f64(), outcome);
        }
        if start.elapsed().as_secs_f64() >= seconds && phase.attempted as usize >= min_ops {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// What a workload plugs into [`execute`].
pub trait Workload {
    /// The workload's name.
    fn name(&self) -> &'static str;
    /// One set-up: from workload start to the end of one untimed
    /// warm-up operation. Returns its seconds.
    ///
    /// # Errors
    ///
    /// The warm-up operation's failure.
    fn setup(&mut self) -> Result<f64, String>;
    /// The closed-loop timed phase.
    fn phase(&mut self, seconds: f64, min_ops: usize) -> Phase;
    /// Mean relative error of the sampled cycle estimate over the
    /// workload's distinct traces or experiments.
    fn cycle_error(&self) -> f64;
    /// Traces the per-layer ladder re-runs: the workload's own, at most
    /// [`LADDER_TRACES`] of them.
    fn ladder_inputs(&self) -> Vec<&TraceInput>;
    /// Extra lines for the run record (digests, per-input errors).
    fn record_lines(&self) -> Vec<String>;
    /// Stops anything the workload started.
    fn shutdown(&mut self) {}
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Where the traced run wrote its spans and metrics.
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A finite f64 as JSON (non-finite values become 0, which no metric
/// legitimately reads, so the failure stays visible).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs a workload: set-ups, then the timed phase (untraced), or, for a
/// traced run, alternating untraced and traced pieces plus the
/// per-layer ladder.
pub fn execute(w: &mut dyn Workload, p: &Params, dir: &RunDir) -> Outcome {
    let mut lines = Vec::new();
    let mut probe = SpeedProbe::default();
    // Each set-up's host seconds, with the probe reading it was taken at.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut setup_errors = Vec::new();
    let mut set_up = |w: &mut dyn Workload, n: usize, speed: f64| {
        for _ in 0..n {
            match w.setup() {
                Ok(s) => setups.push((s, speed)),
                Err(e) => setup_errors.push(format!("setup: {e}")),
            }
        }
    };
    // The set-ups and host speed readings are spread over the run:
    // before, between and after the pieces of the timed phase.
    let n_setups = p.size.setups.max(1);
    let share = |k: usize| n_setups * (k + 1) / PROBE_POINTS - n_setups * k / PROBE_POINTS;
    host::reset_peak_rss();
    let rss_inputs = host::rss_mb().unwrap_or(0.0);
    let mut speeds = vec![probe.sample()];
    set_up(w, share(0), speeds[0]);
    let rss_setup = host::peak_rss_mb().unwrap_or(0.0);
    let sched0 = SchedSnapshot::now();
    let (phase, measured) = if p.traced {
        let (phase, metrics) = traced(w, p, dir, &mut probe, &mut speeds, &mut lines);
        (phase, Measured::Layers(metrics))
    } else {
        // Each piece runs until the phase as a whole reaches its share
        // of `--seconds`, so the whole rounds' overshoot does not add
        // up. A piece's times are scaled by the host speed read before
        // and after it.
        let pieces = PROBE_POINTS - 1;
        let mut phase = Phase::default();
        let mut scaled = Phase::default();
        for k in 1..PROBE_POINTS {
            let until = p.seconds * k as f64 / pieces as f64;
            let part = w.phase(until - phase.wall_s, MIN_OPS.div_ceil(pieces));
            speeds.push(probe.sample());
            scaled.chain(part.scaled(PROBE_NOMINAL_S * 2.0 / (speeds[k - 1] + speeds[k])));
            phase.chain(part);
            set_up(w, share(k), speeds[k]);
        }
        (phase, Measured::Scaled(scaled))
    };
    let sched = SchedSnapshot::now().since(&sched0);
    w.shutdown();

    lines.push(format!(
        "rss: {rss_inputs:.2} MB once the inputs were recorded, peak {rss_setup:.2} MB after the first set-ups, {:.2} MB at the end",
        host::peak_rss_mb().unwrap_or(0.0)
    ));
    lines.push(format!(
        "host speed: probe kernel {:?} ms at the {} points (reference {} ms)",
        speeds
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>(),
        speeds.len(),
        PROBE_NOMINAL_S * 1e3
    ));
    let host_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let ref_s: Vec<f64> = setups
        .iter()
        .map(|(s, speed)| s * PROBE_NOMINAL_S / speed)
        .collect();
    let (setup_host_s, setup_s) = if setups.is_empty() {
        (0.0, 0.0)
    } else {
        (median(&host_s), median(&ref_s))
    };
    lines.push(format!(
        "setup: median {setup_s:.4} s at reference speed, {setup_host_s:.4} s host time, over {} set-ups {:?}",
        setups.len(),
        host_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));
    let metrics = match measured {
        Measured::Layers(metrics) => metrics,
        Measured::Scaled(scaled) => {
            end_to_end(&phase, &scaled, setup_s, w.cycle_error(), &mut lines)
        }
    };
    let failed = phase.failed + setup_errors.len() as u64;
    let attempted = phase.attempted + setup_errors.len() as u64;
    for e in phase.errors.iter().chain(&setup_errors) {
        lines.push(format!("failure: {e}"));
    }
    lines.extend(w.record_lines());
    lines.push(format!(
        "host: {}",
        host::record_json(w.name(), p.seed, p.seconds as u64, &sched)
    ));
    lines.push(format!(
        "fail_frac: {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    ));
    let mut out = Outcome {
        attempted: attempted.max(1),
        failed,
        correct: failed == 0,
        metrics,
        lines,
        trace_file: p.traced.then(|| trace_file_path(w.name(), p.seed)),
    };
    if let Some(path) = &out.trace_file {
        let spans = spans::take();
        for (name, t) in spans::totals(&spans) {
            out.lines.push(format!(
                "span {name}: {} calls, {:.3} ms total, {:.3} ms self",
                t.count,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            ));
        }
        let mut text = spans::to_json_lines(&spans);
        text.push_str(&out.json());
        text.push('\n');
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, text));
        out.lines.push(match written {
            Ok(()) => format!("trace: {} spans written to {}", spans.len(), path.display()),
            Err(e) => format!("trace: writing {}: {e}", path.display()),
        });
    }
    out
}

/// Untraced and traced pieces a traced run alternates.
pub const TRACED_PIECES: usize = 4;

/// Most traces a ladder re-runs.
pub const LADDER_TRACES: usize = 8;

/// Points in an untraced run where the host speed is read and set-ups
/// are taken: before the timed phase, after it, and between its pieces.
pub const PROBE_POINTS: usize = 7;

/// What the timed phase yields besides its host-time record.
enum Measured {
    /// An untraced run: the phase with its times scaled to the
    /// reference host speed.
    Scaled(Phase),
    /// A traced run: the per-layer metrics.
    Layers(Vec<Metric>),
}

/// Where a traced run writes its spans.
pub fn trace_file_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("trace-{workload}-{seed}.jsonl"))
}

/// The end-to-end metrics of an untraced timed phase, from its times
/// scaled to the reference host speed; the run record gets the host
/// times too.
fn end_to_end(
    phase: &Phase,
    scaled: &Phase,
    setup_s: f64,
    cycle_err: f64,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let lat = Latency::of(&scaled.latencies_s);
    let (p50, p90) = lat.map_or((0.0, 0.0), |l| (l.p50, l.p90));
    match (lat, Latency::of(&phase.latencies_s)) {
        (Some(l), Some(host)) => lines.push(format!(
            "latency: {} samples, p50 {:.4} ms, p90 {:.4} ms, highest tail with 10 beyond: {} (host time: p50 {:.4} ms, p90 {:.4} ms)",
            l.samples,
            l.p50 * 1e3,
            l.p90 * 1e3,
            l.tail.map_or("none".to_string(), |(q, v)| format!(
                "p{q} {:.4} ms",
                v * 1e3
            )),
            host.p50 * 1e3,
            host.p90 * 1e3
        )),
        _ => lines.push(format!(
            "latency: only {} successful samples, fewer than {MIN_OPS}",
            phase.latencies_s.len()
        )),
    }
    lines.push(format!(
        "phase: {:.3} s wall, {} ops, {} instrs, {} workers",
        phase.wall_s, phase.attempted, phase.instrs, phase.workers
    ));
    let rate = scaled.instrs as f64 / scaled.wall_s.max(1e-12) / 1e6;
    lines.push(format!(
        "throughput: {rate:.4} Minstr/s at reference speed, {:.4} Minstr/s host time",
        phase.instrs as f64 / phase.wall_s.max(1e-12) / 1e6,
    ));
    vec![
        Metric::new("sim_minstr_s", rate, "Minstr/s"),
        Metric::new("op_p50_ms", p50 * 1e3, "ms"),
        Metric::new("op_p90_ms", p90 * 1e3, "ms"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB"),
        Metric::new("cycle_err_pct", cycle_err * 100.0, "%"),
    ]
}

/// The traced run: alternating untraced and traced (spans on) pieces
/// of the timed phase, then the per-layer ladder over the workload's
/// traces. The host speed is read around each untraced piece and the
/// ladder (appended to `speeds`) for the ladder check.
fn traced(
    w: &mut dyn Workload,
    p: &Params,
    dir: &RunDir,
    probe: &mut SpeedProbe,
    speeds: &mut Vec<f64>,
    lines: &mut Vec<String>,
) -> (Phase, Vec<Metric>) {
    // Untraced and traced pieces alternate, so that host speed drift
    // over the run weighs on both halves alike.
    let piece = p.seconds / (2 * TRACED_PIECES) as f64;
    let min_ops = MIN_OPS.div_ceil(TRACED_PIECES);
    let mut untraced = Phase::default();
    let mut untraced_ref = Phase::default();
    let mut traced = Phase::default();
    let mut piece_means_ms = Vec::new();
    for _ in 0..TRACED_PIECES {
        let before = probe.sample();
        let part = w.phase(piece, min_ops);
        let after = probe.sample();
        let scaled = part.scaled(PROBE_NOMINAL_S * 2.0 / (before + after));
        piece_means_ms.push(scaled.mean_s() * 1e3);
        untraced_ref.chain(scaled);
        untraced.chain(part);
        speeds.extend([before, after]);
        spans::set_enabled(true);
        traced.chain(w.phase(piece, min_ops));
        spans::set_enabled(false);
    }
    let before = probe.sample();
    spans::set_enabled(true);
    let mut metrics = ladder::run(w.ladder_inputs(), p.size.ladder_reps, dir, lines);
    spans::set_enabled(false);
    let after = probe.sample();
    speeds.extend([before, after]);
    let ladder_scale = PROBE_NOMINAL_S * 2.0 / (before + after);

    let overhead_ms = (traced.mean_s() - untraced.mean_s()) * 1e3;
    lines.push(format!(
        "tracing: untraced op mean {:.4} ms ({} ops), traced {:.4} ms ({} ops)",
        untraced.mean_s() * 1e3,
        untraced.attempted,
        traced.mean_s() * 1e3,
        traced.attempted
    ));
    if let Some(op) = metrics.iter().find(|m| m.name == "ladder.op_ms") {
        // The ladder runs after the timed pieces, and host speed drifts
        // between them by more than tracing costs, so both sides are
        // compared at the reference speed, and the gap is judged against
        // the tracing overhead plus the drift left between pieces.
        let lo = piece_means_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = piece_means_ms.iter().copied().fold(0.0, f64::max);
        let sum_ms = op.value * ladder_scale;
        let mean_ms = untraced_ref.mean_s() * 1e3;
        let gap = sum_ms - mean_ms;
        lines.push(format!(
            "ladder check (reference speed): self times sum to {sum_ms:.4} ms per trace; untraced operation mean {mean_ms:.4} ms; gap {gap:.4} ms; tracing overhead {overhead_ms:.4} ms (host time); untraced piece means {lo:.4}–{hi:.4} ms; gap within overhead plus that drift: {}",
            gap.abs() <= overhead_ms.abs() + (hi - lo)
        ));
    }
    metrics.push(Metric::new("trace.overhead_ms", overhead_ms, "ms"));
    metrics.push(Metric::new(
        "trace.overhead_frac",
        overhead_ms / (untraced.mean_s() * 1e3).max(1e-12),
        "frac",
    ));
    metrics.push(Metric::new(
        "op.untraced_mean_ms",
        untraced.mean_s() * 1e3,
        "ms",
    ));
    metrics.push(Metric::new(
        "bench.pool_busy_frac",
        untraced.busy_frac(),
        "frac",
    ));
    let mut both = untraced;
    both.merge(traced);
    (both, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_a_phase_scales_its_times_and_keeps_its_counts() {
        let mut p = Phase {
            workers: 2,
            ..Phase::default()
        };
        p.record(0.5, Ok(10));
        p.record(1.0, Err("refused".to_string()));
        p.wall_s = 2.0;
        let s = p.scaled(0.5);
        assert_eq!(s.latencies_s, vec![0.25]);
        assert_eq!((s.wall_s, s.busy_s), (1.0, 0.75));
        assert_eq!((s.instrs, s.attempted, s.failed, s.workers), (10, 2, 1, 2));
    }
}
