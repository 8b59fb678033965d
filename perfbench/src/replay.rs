//! `replay-filter`: one client replays recorded hmmer/AddrCheck traces
//! through `Session` from `.fadet` files, one after another.
//!
//! About 99.8% of AddrCheck events on hmmer are filtered, so `.fadet`
//! decode and `Fade::run_batch` do the work while handlers idle. An
//! operation is build plus `replay_all`: `parallel_replay` would move a
//! whole-trace decode into `build`, so both stay inside the timing.

use std::time::Instant;

use fade_system::{Engine, Session};

use crate::inputs::{record_all, Reference, RunDir, TraceInput};
use crate::run::{closed_loop, Phase, Size, Workload, LADDER_TRACES};
use crate::spans;

/// The benchmark and monitor every trace is recorded from.
pub const BENCH: &str = "hmmer";
/// See [`BENCH`].
pub const MONITOR: &str = "AddrCheck";

/// The workload's state.
pub struct ReplayFilter {
    traces: Vec<TraceInput>,
    references: Vec<Reference>,
    /// Batched-engine cycle estimate per trace, from the last replay.
    estimates: Vec<Option<u64>>,
    next_op: u64,
}

impl ReplayFilter {
    /// Records the traces and their references.
    ///
    /// # Errors
    ///
    /// A reference replay that fails.
    pub fn prepare(seed: u64, size: &Size, dir: &RunDir) -> Result<ReplayFilter, String> {
        // Lengths spread evenly from half to one and a half times the
        // mean, so operation latencies form one broad distribution.
        let n = size.replay_traces.max(1);
        let specs = vec![(BENCH, MONITOR.to_string()); n];
        let mean = size.replay_events;
        let (traces, references) = record_all(
            dir,
            seed,
            |i| mean / 2 + mean * i as u64 / (n as u64 - 1).max(1),
            &specs,
        )?
        .into_iter()
        .unzip();
        Ok(ReplayFilter {
            estimates: vec![None; n],
            traces,
            references,
            next_op: 0,
        })
    }

    /// One operation: build a batched session over trace `i`'s file,
    /// replay it whole, and check the result against the reference.
    /// Returns the instructions replayed.
    ///
    /// # Errors
    ///
    /// A typed build or run error, or a result that differs from the
    /// reference.
    pub fn operation(&mut self, i: usize) -> Result<u64, String> {
        self.next_op += 1;
        let input = &self.traces[i];
        let report = spans::op("replay-filter.op", self.next_op, || {
            let session = spans::span("fade_system::SessionBuilder::build", || {
                Session::builder()
                    .monitor(input.monitor.as_str())
                    .source(input.path.as_path())
                    .engine(Engine::batched())
                    .build()
            })
            .map_err(|e| format!("{}: build: {e}", input.label()))?;
            spans::span("fade_system::Session::replay_all", || session.replay_all())
                .map_err(|e| format!("{}: replay: {e}", input.label()))
        })?;
        self.references[i]
            .check_replay(&report)
            .map_err(|e| format!("{}: {e}", input.label()))?;
        self.estimates[i] = Some(report.estimated_cycles);
        Ok(report.instrs)
    }
}

impl Workload for ReplayFilter {
    fn name(&self) -> &'static str {
        "replay-filter"
    }

    fn setup(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        self.operation(0)?;
        Ok(t.elapsed().as_secs_f64())
    }

    fn phase(&mut self, seconds: f64, min_ops: usize) -> Phase {
        let n = self.traces.len();
        closed_loop(seconds, min_ops, n, |i| self.operation(i))
    }

    fn cycle_error(&self) -> f64 {
        let errs: Vec<f64> = self
            .references
            .iter()
            .zip(&self.estimates)
            .filter_map(|(r, e)| e.map(|e| r.cycle_error(e)))
            .collect();
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    }

    /// Traces from both ends of the length range in pairs `(i, n-1-i)`,
    /// so their mean length is the whole set's and the ladder's sum
    /// compares with the untraced operation mean.
    fn ladder_inputs(&self) -> Vec<&TraceInput> {
        let n = self.traces.len();
        if n <= LADDER_TRACES {
            return self.traces.iter().collect();
        }
        let step = 2 * n / LADDER_TRACES;
        (0..LADDER_TRACES / 2)
            .flat_map(|k| [k * step, n - 1 - k * step])
            .map(|i| &self.traces[i])
            .collect()
    }

    fn record_lines(&self) -> Vec<String> {
        self.traces
            .iter()
            .zip(&self.references)
            .zip(&self.estimates)
            .map(|((t, r), e)| {
                format!(
                    "trace {} seed {:#x}: {} records, {} instrs, {} events, {} violations, exact cycles {}, estimated {}",
                    t.label(),
                    t.seed,
                    t.records,
                    r.instrs,
                    r.events,
                    r.violations.len(),
                    r.exact_cycles,
                    e.map_or("none".to_string(), |e| e.to_string())
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::closed_loop;

    #[test]
    fn a_truncated_trace_is_one_failed_operation() {
        let dir = RunDir::create("test-truncated").expect("run dir");
        let mut w = ReplayFilter::prepare(7, &Size::tiny(), &dir).expect("tiny inputs");
        let path = w.traces[0].path.clone();
        let bytes = std::fs::read(&path).expect("trace file");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let phase = closed_loop(0.0, 1, 1, |i| w.operation(i));
        assert_eq!((phase.attempted, phase.failed), (1, 1));
        assert!(phase.latencies_s.is_empty() && phase.instrs == 0);
        assert!(
            phase.errors[0].starts_with("hmmer/AddrCheck"),
            "{:?}",
            phase.errors
        );
        assert!(w.operation(1).is_ok(), "the other trace still replays");
    }

    #[test]
    fn an_unknown_monitor_is_one_failed_operation() {
        let dir = RunDir::create("test-unknown-monitor").expect("run dir");
        let mut w = ReplayFilter::prepare(7, &Size::tiny(), &dir).expect("tiny inputs");
        w.traces[1].monitor = "NoSuchMonitor".to_string();
        let phase = closed_loop(0.0, 2, 2, |i| w.operation(i));
        assert_eq!((phase.attempted, phase.failed), (2, 1));
        assert!(phase.errors[0].contains("build"), "{:?}", phase.errors);
    }

    #[test]
    fn a_result_that_differs_from_the_reference_fails() {
        let dir = RunDir::create("test-mismatch").expect("run dir");
        let mut w = ReplayFilter::prepare(7, &Size::tiny(), &dir).expect("tiny inputs");
        w.references[0]
            .violations
            .push("a violation the replay never reports".to_string());
        assert!(w.operation(0).unwrap_err().contains("violations"));
        assert!(w.operation(1).is_ok());
    }
}
