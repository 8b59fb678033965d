//! `paper-fig9`: the 108 experiments of the paper's Figure 9 grid
//! (cycle-accurate engine, live synthetic generation, unaccelerated and
//! FADE configurations, all five monitors) on `ExperimentMatrix`.
//!
//! The cycle-accurate engine, the generator and the all-software
//! unaccelerated path do the work here, and none of them is on the
//! batched paths the other workloads time.

use std::collections::BTreeSet;
use std::time::Instant;

use fade_bench::experiments::suite_for;
use fade_bench::{Experiment, ExperimentMatrix, MatrixResult};
use fade_monitors::all_monitors;
use fade_system::{Accel, Engine, RunReport, SystemConfig};

use crate::host::nproc;
use crate::inputs::{batched_error, record_all, RunDir, TraceInput};
use crate::run::{Phase, Size, Workload};
use crate::spans;

/// The Figure 9 grid, in the paper binary's declaration order, with
/// the cycle-accurate engine and an explicit window (no environment
/// knobs).
pub fn experiments(seed: u64, warmup: u64, measure: u64) -> Vec<Experiment> {
    let point = |b: &fade_trace::BenchProfile, monitor: &str, cfg: SystemConfig| {
        Experiment::new(b.clone(), monitor, cfg.with_seed(seed))
            .window(warmup, measure)
            .engine(Engine::Cycle)
    };
    let mut points = Vec::new();
    let mut add = |monitor: &str| {
        for b in suite_for(monitor) {
            points.push(point(
                &b,
                monitor,
                SystemConfig::unaccelerated_single_core(),
            ));
            points.push(point(&b, monitor, SystemConfig::fade_single_core()));
        }
    };
    for monitor in ["AddrCheck", "MemLeak", "AtomCheck"] {
        add(monitor);
    }
    for mon in all_monitors() {
        add(mon.name());
    }
    points
}

/// FNV-1a 64 over bytes.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of everything an experiment simulated: all of its
/// statistics and its violation reports.
pub fn digest(report: &RunReport) -> u64 {
    let h = fnv1a(format!("{:?}", report.stats).as_bytes(), FNV_BASIS);
    report
        .violations
        .iter()
        .fold(h, |h, v| fnv1a(v.as_bytes(), h))
}

/// The workload's state.
pub struct PaperFig9 {
    experiments: Vec<Experiment>,
    warmup: u64,
    workers: usize,
    /// Per-experiment digest of the untimed reference pass.
    reference: Vec<u64>,
    /// Relative batched-vs-exact cycle error per distinct FADE
    /// (benchmark, monitor) point.
    cycle_errors: Vec<f64>,
    ladder: Vec<TraceInput>,
    next_op: u64,
}

impl PaperFig9 {
    /// Builds the grid, runs the untimed reference pass, and records
    /// one trace per distinct FADE point for the cycle error.
    ///
    /// # Errors
    ///
    /// Any experiment of the reference pass that fails, or a trace whose
    /// batched replay fails or differs from its exact replay.
    pub fn prepare(seed: u64, size: &Size, dir: &RunDir) -> Result<PaperFig9, String> {
        let experiments = experiments(seed, size.fig9_warmup, size.fig9_measure);
        let workers = nproc().min(2);
        let reference_pass = run_matrix(&experiments, workers);
        if let Some(e) = reference_pass.errors().first() {
            return Err(format!("reference pass: {e}"));
        }
        let reports: Vec<RunReport> = reference_pass.into_reports();
        let reference = reports.iter().map(digest).collect();

        // The batched engine's whole-trace estimate for each distinct
        // FADE (benchmark, monitor) point of the grid, against an exact
        // replay of the same recorded trace, from several seeds per
        // point. A 150k-instruction `run_measured` window holds only a
        // few sampled windows, so its estimate misses by up to ±50%; and
        // single traces of the omnet points miss by 3–67% depending on
        // the seed, so the mean over one trace per point would follow
        // the seed rather than the estimator.
        let mut seen = BTreeSet::new();
        let points: Vec<(&'static str, String)> = experiments
            .iter()
            .filter(|e| e.config.accel != Accel::None)
            .map(|e| (e.bench.name, e.monitor.clone()))
            .filter(|p| seen.insert(p.clone()))
            .collect();
        let specs: Vec<(&'static str, String)> = (0..size.fig9_trace_seeds)
            .flat_map(|_| points.iter().cloned())
            .collect();
        let recorded = record_all(dir, seed, |_| size.fig9_trace_events, &specs)?;
        let cycle_errors = recorded
            .iter()
            .map(|(t, r)| batched_error(t, r))
            .collect::<Result<Vec<f64>, String>>()?;
        // The ladder re-runs one of these traces per monitor.
        let mut monitors = BTreeSet::new();
        let ladder = recorded
            .into_iter()
            .map(|(t, _)| t)
            .filter(|t| monitors.insert(t.monitor.clone()))
            .collect();
        Ok(PaperFig9 {
            experiments,
            warmup: size.fig9_warmup,
            workers,
            reference,
            cycle_errors,
            ladder,
            next_op: 0,
        })
    }
}

/// One pass of `experiments` through a fresh matrix.
fn run_matrix(experiments: &[Experiment], workers: usize) -> MatrixResult {
    let mut m = ExperimentMatrix::new().workers(workers);
    m.extend(experiments.iter().cloned());
    spans::span("fade_bench::ExperimentMatrix::run", || m.run())
}

impl Workload for PaperFig9 {
    fn name(&self) -> &'static str {
        "paper-fig9"
    }

    fn setup(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let first_fade = self
            .experiments
            .iter()
            .position(|e| e.config.accel != Accel::None)
            .expect("the grid has FADE points");
        let r = run_matrix(&self.experiments[first_fade..=first_fade], 1);
        if let Some(e) = r.errors().first() {
            return Err(e.to_string());
        }
        Ok(t.elapsed().as_secs_f64())
    }

    fn phase(&mut self, seconds: f64, min_ops: usize) -> Phase {
        let mut phase = Phase {
            workers: self.workers,
            ..Phase::default()
        };
        let start = Instant::now();
        loop {
            self.next_op += 1;
            let pass = spans::op("paper-fig9.pass", self.next_op, || {
                run_matrix(&self.experiments, self.workers)
            });
            for (i, outcome) in pass.outcomes.into_iter().enumerate() {
                match outcome {
                    Ok(r) => {
                        let result = if digest(&r) == self.reference[i] {
                            Ok(self.warmup + r.stats.app_instrs)
                        } else {
                            Err(format!(
                                "{}: statistics differ from the reference pass",
                                self.experiments[i].label
                            ))
                        };
                        phase.record(r.wall_s, result);
                    }
                    Err(e) => phase.record(0.0, Err(e.to_string())),
                }
            }
            if start.elapsed().as_secs_f64() >= seconds && phase.attempted as usize >= min_ops {
                break;
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }

    fn cycle_error(&self) -> f64 {
        self.cycle_errors.iter().sum::<f64>() / self.cycle_errors.len().max(1) as f64
    }

    fn ladder_inputs(&self) -> Vec<&TraceInput> {
        self.ladder.iter().collect()
    }

    fn record_lines(&self) -> Vec<String> {
        let all = self
            .reference
            .iter()
            .fold(FNV_BASIS, |h, d| fnv1a(&d.to_le_bytes(), h));
        vec![
            format!(
                "digest: {all:#018x} over {} experiments ({} workers); timed passes must reproduce it",
                self.experiments.len(),
                self.workers
            ),
            format!(
                "cycle error: mean {:.4}% over {} traces of the distinct FADE points, batched vs exact whole-trace replay; per trace {:?}",
                self.cycle_error() * 100.0,
                self.cycle_errors.len(),
                self.cycle_errors
                    .iter()
                    .map(|e| format!("{:.2}", e * 100.0))
                    .collect::<Vec<_>>()
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_is_figure_9s_108_experiments() {
        let grid = experiments(1, 300, 1500);
        assert_eq!(grid.len(), 108);
        assert!(grid
            .iter()
            .all(|e| e.engine == Engine::Cycle && e.config.seed == 1));
        let fade = grid
            .iter()
            .filter(|e| e.config.accel != Accel::None)
            .count();
        assert_eq!(fade, 54);
    }
}
