//! A benchmark of the FADE reproduction, driven through its public API
//! from outside: `.fadet` replay, the `faded` service, and the paper's
//! Figure 9 experiment matrix. See `README.md` beside this package.

pub mod fig9;
pub mod host;
pub mod inputs;
pub mod ladder;
pub mod replay;
pub mod run;
pub mod serve;
pub mod spans;
pub mod stats;

use inputs::RunDir;
use run::{execute, Outcome, Params, Workload};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["replay-filter", "serve-mixed-2c", "paper-fig9"];

/// End-to-end metrics of an untraced run, in print order.
pub const END_TO_END: [&str; 6] = [
    "sim_minstr_s",
    "op_p50_ms",
    "op_p90_ms",
    "setup_s",
    "peak_rss_mb",
    "cycle_err_pct",
];

/// Per-layer metrics of a traced run, in print order.
pub const PER_LAYER: [&str; 34] = [
    "trace.decode_ns_per_rec",
    "trace.stream_ns_per_rec",
    "trace.bytes_per_rec",
    "trace.gen_ns_per_rec",
    "trace.share",
    "core.filter_ns_per_event",
    "core.fast_path_frac",
    "core.filter_ratio",
    "core.dispatch_per_kevent",
    "core.share",
    "monitors.handler_ns_per_instr",
    "monitors.share",
    "shadow.bytes_in_use_mb",
    "shadow.peak_full_pages",
    "sim.window_ns_per_instr",
    "sim.window_event_frac",
    "sim.rel_half_width",
    "sim.share",
    "sim.cycle_ns_per_instr",
    "system.unaccel_ns_per_instr",
    "system.baseline_ms",
    "system.build_ms",
    "system.stream_ns_per_instr",
    "system.share",
    "ladder.op_ms",
    "service.upload_ms",
    "service.inproc_ms",
    "service.overhead_ms",
    "service.share",
    "service.report_lines",
    "trace.overhead_ms",
    "trace.overhead_frac",
    "op.untraced_mean_ms",
    "bench.pool_busy_frac",
];

/// Prepares and runs workload `name`.
///
/// # Errors
///
/// An unknown workload name, an unusable run directory, or a failed
/// reference computation (inputs the benchmark cannot check).
pub fn run_workload(name: &str, params: &Params) -> Result<Outcome, String> {
    let dir = RunDir::create(name).map_err(|e| format!("creating the run directory: {e}"))?;
    let mut workload: Box<dyn Workload> = match name {
        "replay-filter" => Box::new(replay::ReplayFilter::prepare(
            params.seed,
            &params.size,
            &dir,
        )?),
        "serve-mixed-2c" => Box::new(serve::ServeMixed::prepare(params.seed, &params.size, &dir)?),
        "paper-fig9" => Box::new(fig9::PaperFig9::prepare(params.seed, &params.size, &dir)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    Ok(execute(workload.as_mut(), params, &dir))
}
