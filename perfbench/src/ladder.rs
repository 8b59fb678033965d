//! The per-layer ladder: each trace is re-run through successively
//! deeper entry points of the public API, and a layer's self time is
//! the difference between adjacent steps.
//!
//! | step | call | covers |
//! |---|---|---|
//! | core | `measure_throughput` (`Fade::run_batch`) | filter core |
//! | pure | `Session` over `SourceSpec::Records`, `Engine::batched_with(u64::MAX, 0)` | + monitor handlers, shadow |
//! | rec | the same with `Engine::batched()` | + sampled cycle-accurate windows |
//! | file | `Session::build` + `replay_all` over the `.fadet` file | + `.fadet` decode, file reads, build |
//!
//! Self times: core; monitors = pure − core; sim = rec − pure;
//! trace = a `TraceReader` streaming the bytes in the session's pull
//! size; system = file − rec − trace. They sum to the file step, which
//! is the `replay-filter` operation. `decode_trace` (whole-trace
//! decode into one vector) is timed too, but it allocates the whole
//! trace and so costs more than the streamed decode a session pays.

use std::sync::Arc;
use std::time::Instant;

use fade_service::protocol::{
    read_frame, write_frame, FRAME_END, FRAME_ERROR, FRAME_FINISH, FRAME_HELLO, FRAME_REPORT,
    FRAME_TRACE,
};
use fade_service::{serve_session, Faded, Hello, ServerConfig, TRACE_CHUNK};
use fade_system::{
    baseline_cycles, measure_throughput, Engine, MonitorRegistry, ReplayReport, Session,
    SystemConfig,
};
use fade_trace::{decode_trace, SyntheticProgram, TraceReader, TraceRecord};

use crate::inputs::{RunDir, TraceInput};
use crate::run::Metric;
use crate::spans::span;
use crate::stats::median;

/// Events per `run_batch` call in the batched engine at default knobs
/// (one sampling window's worth).
const CORE_BATCH: usize = SystemConfig::DEFAULT_SAMPLE_WINDOW as usize;

/// Instructions per `Session::run` call when a ladder step drives a
/// session by hand.
const DRIVE: u64 = 200_000;

/// Records a session pulls from its trace source at a time.
const PULL: usize = 64;

/// Median seconds of `reps` runs of `f`.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    timed_with(reps, || (), |()| f())
}

/// Median seconds of `reps` runs of `f`, each on a fresh untimed
/// `prepare()`.
fn timed_with<P, T>(
    reps: usize,
    mut prepare: impl FnMut() -> P,
    mut f: impl FnMut(P) -> T,
) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let input = prepare();
        let t = Instant::now();
        let out = f(input);
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Shadow and sampling readings of a session driven to the end of its
/// trace.
#[derive(Default)]
struct Drove {
    shadow_bytes: usize,
    peak_full_pages: usize,
    window_events: u64,
    rel_half_width: Option<f64>,
}

/// Builds a records-source session with `engine` and drives it to the
/// end of the trace.
fn drive_records(input: &TraceInput, records: Vec<TraceRecord>, engine: Engine) -> Drove {
    let mut s = span("fade_system::SessionBuilder::build", || {
        Session::builder()
            .monitor(input.monitor.as_str())
            .source((input.bench.clone(), records))
            .engine(engine)
            .build()
    })
    .expect("the ladder's traces build");
    span("fade_system::Session::run", || {
        while !s.source_exhausted() {
            s.run(DRIVE).expect("the ladder's traces replay");
        }
        s.drain().expect("the ladder's traces drain");
    });
    Drove {
        shadow_bytes: s.shadow_bytes_in_use().bytes,
        peak_full_pages: s.shadow_counters().peak_full_pages,
        window_events: s.sampled_windows().iter().map(|w| w.events).sum(),
        rel_half_width: s.rel_half_width(),
    }
}

/// Sums of one ladder over all inputs.
#[derive(Default)]
struct Sums {
    records: f64,
    bytes: f64,
    instrs: f64,
    events: f64,
    decode_s: f64,
    stream_s: f64,
    gen_s: f64,
    build_s: f64,
    file_s: f64,
    rec_s: f64,
    pure_s: f64,
    core_s: f64,
    cycle_s: f64,
    unaccel_s: f64,
    baseline_s: f64,
    fast_path: f64,
    batch_events: f64,
    dispatched: f64,
    filtered: f64,
    instr_events: f64,
    shadow_bytes: f64,
    peak_full_pages: usize,
    window_events: f64,
    rel_half_width: Vec<f64>,
    upload_s: f64,
    served_s: f64,
    inproc_s: f64,
    report_lines: f64,
    served: f64,
}

/// Runs the ladder and the service split over `inputs` and returns the
/// per-layer metrics.
pub fn run(
    inputs: Vec<&TraceInput>,
    reps: usize,
    dir: &RunDir,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let mut s = Sums::default();
    for (input, file) in inputs.iter().zip(file_steps(&inputs, reps)) {
        layer_steps(input, file, reps, &mut s);
    }
    service_steps(&inputs, reps, dir, &mut s);

    let n = inputs.len().max(1) as f64;
    let core = s.core_s;
    let monitors = s.pure_s - s.core_s;
    let sim = s.rec_s - s.pure_s;
    let trace = s.stream_s;
    let system = s.build_s + s.file_s - s.rec_s - s.stream_s;
    let op = s.build_s + s.file_s;
    let ns_per_instr = |t: f64| t * 1e9 / s.instrs.max(1.0);
    lines.push(format!(
        "ladder: {} traces; per trace: op {:.3} ms = trace {:.3} + system {:.3} + sim {:.3} + monitors {:.3} + core {:.3} ms",
        inputs.len(),
        op / n * 1e3,
        trace / n * 1e3,
        system / n * 1e3,
        sim / n * 1e3,
        monitors / n * 1e3,
        core / n * 1e3
    ));
    let served_overhead = s.served_s - s.upload_s - s.inproc_s;
    let per_served = |t: f64| t / s.served.max(1.0) * 1e3;
    vec![
        Metric::new(
            "trace.decode_ns_per_rec",
            s.decode_s * 1e9 / s.records.max(1.0),
            "ns",
        ),
        Metric::new(
            "trace.stream_ns_per_rec",
            s.stream_s * 1e9 / s.records.max(1.0),
            "ns",
        ),
        Metric::new("trace.bytes_per_rec", s.bytes / s.records.max(1.0), "B"),
        Metric::new(
            "trace.gen_ns_per_rec",
            s.gen_s * 1e9 / s.records.max(1.0),
            "ns",
        ),
        Metric::new("trace.share", trace / op, "frac"),
        Metric::new(
            "core.filter_ns_per_event",
            s.core_s * 1e9 / s.events.max(1.0),
            "ns",
        ),
        Metric::new(
            "core.fast_path_frac",
            s.fast_path / s.batch_events.max(1.0),
            "frac",
        ),
        Metric::new(
            "core.filter_ratio",
            s.filtered / s.instr_events.max(1.0),
            "frac",
        ),
        Metric::new(
            "core.dispatch_per_kevent",
            s.dispatched * 1e3 / s.batch_events.max(1.0),
            "count",
        ),
        Metric::new("core.share", core / op, "frac"),
        Metric::new(
            "monitors.handler_ns_per_instr",
            ns_per_instr(monitors),
            "ns",
        ),
        Metric::new("monitors.share", monitors / op, "frac"),
        Metric::new(
            "shadow.bytes_in_use_mb",
            s.shadow_bytes / n / (1024.0 * 1024.0),
            "MB",
        ),
        Metric::new("shadow.peak_full_pages", s.peak_full_pages as f64, "pages"),
        Metric::new("sim.window_ns_per_instr", ns_per_instr(sim), "ns"),
        Metric::new(
            "sim.window_event_frac",
            s.window_events / s.events.max(1.0),
            "frac",
        ),
        Metric::new(
            "sim.rel_half_width",
            s.rel_half_width.iter().sum::<f64>() / s.rel_half_width.len().max(1) as f64,
            "frac",
        ),
        Metric::new("sim.share", sim / op, "frac"),
        Metric::new("sim.cycle_ns_per_instr", ns_per_instr(s.cycle_s), "ns"),
        Metric::new(
            "system.unaccel_ns_per_instr",
            ns_per_instr(s.unaccel_s),
            "ns",
        ),
        Metric::new("system.baseline_ms", s.baseline_s / n * 1e3, "ms"),
        Metric::new("system.build_ms", s.build_s / n * 1e3, "ms"),
        Metric::new(
            "system.stream_ns_per_instr",
            ns_per_instr(s.file_s - s.rec_s),
            "ns",
        ),
        Metric::new("system.share", system / op, "frac"),
        Metric::new("ladder.op_ms", op / n * 1e3, "ms"),
        Metric::new("service.upload_ms", per_served(s.upload_s), "ms"),
        Metric::new("service.inproc_ms", per_served(s.inproc_s), "ms"),
        Metric::new("service.overhead_ms", per_served(served_overhead), "ms"),
        Metric::new(
            "service.share",
            (s.upload_s + served_overhead) / s.served_s.max(1e-12),
            "frac",
        ),
        Metric::new(
            "service.report_lines",
            s.report_lines / s.served.max(1.0),
            "count",
        ),
    ]
}

/// The file step of every input: the `replay-filter` operation, build
/// plus `replay_all`. Like the workload, consecutive calls go to
/// different traces, so no call finds its trace warm from the one
/// before. Returns each input's median build seconds, median whole
/// seconds, and its report.
fn file_steps(inputs: &[&TraceInput], reps: usize) -> Vec<(f64, f64, ReplayReport)> {
    let mut times = vec![(Vec::new(), Vec::new()); inputs.len()];
    let mut reports = Vec::new();
    for _ in 0..reps.max(1) {
        reports.clear();
        for (input, (build, whole)) in inputs.iter().zip(&mut times) {
            let t = Instant::now();
            let session = span("fade_system::SessionBuilder::build", || {
                Session::builder()
                    .monitor(input.monitor.as_str())
                    .source(input.path.as_path())
                    .engine(Engine::batched())
                    .build()
            })
            .expect("the ladder's traces build");
            build.push(t.elapsed().as_secs_f64());
            let report = span("fade_system::Session::replay_all", || session.replay_all())
                .expect("the ladder's traces replay");
            whole.push(t.elapsed().as_secs_f64());
            reports.push(report);
        }
    }
    times
        .into_iter()
        .zip(reports)
        .map(|((build, whole), report)| (median(&build), median(&whole), report))
        .collect()
}

/// The in-process ladder of one trace, given its file step.
fn layer_steps(
    input: &TraceInput,
    (build_s, file_s, report): (f64, f64, ReplayReport),
    reps: usize,
    s: &mut Sums,
) {
    let bytes = input.read();
    let (decode_s, decoded) = timed(reps, || {
        span("fade_trace::decode_trace", || decode_trace(&bytes))
    });
    let (_, records) = decoded.expect("the ladder's traces decode");
    let (stream_s, streamed) = timed(reps, || {
        span("fade_trace::TraceReader::next_records_into", || {
            let mut reader = TraceReader::new(bytes.as_slice()).expect("the ladder's traces open");
            let mut buf = Vec::with_capacity(PULL);
            let mut n = 0usize;
            loop {
                buf.clear();
                let got = reader
                    .next_records_into(&mut buf, PULL)
                    .expect("the ladder's traces stream");
                if got == 0 {
                    break n;
                }
                n += std::hint::black_box(&buf).len();
            }
        })
    });
    assert_eq!(
        streamed,
        records.len(),
        "streamed and decoded record counts"
    );

    let (gen_s, _) = timed(reps, || {
        span("fade_trace::SyntheticProgram::next_records_into", || {
            let mut gen = SyntheticProgram::new(&input.bench, input.seed);
            let mut buf = Vec::with_capacity(records.len());
            gen.next_records_into(&mut buf, records.len());
            std::hint::black_box(buf)
        })
    });

    let copy = || records.clone();
    let (rec_s, rec) = timed_with(reps, copy, |r| drive_records(input, r, Engine::batched()));
    let (pure_s, pure) = timed_with(reps, copy, |r| {
        drive_records(input, r, Engine::batched_with(u64::MAX, 0))
    });
    let core = span("fade_system::measure_throughput", || {
        measure_throughput(&input.bench, &input.monitor, CORE_BATCH, input.events)
    });
    let (cycle_s, _) = timed_with(1, copy, |r| drive_records(input, r, Engine::Cycle));
    let (unaccel_s, _) = timed_with(1, copy, |r| drive_records(input, r, Engine::Unaccelerated));
    let cfg = SystemConfig::fade_single_core();
    let (baseline_s, _) = timed(reps, || {
        span("fade_system::baseline_cycles", || {
            baseline_cycles(&input.bench, cfg.core, cfg.seed, 0, report.instrs)
        })
    });

    s.records += records.len() as f64;
    s.bytes += bytes.len() as f64;
    s.instrs += report.instrs as f64;
    s.events += report.events_seen as f64;
    s.decode_s += decode_s;
    s.stream_s += stream_s;
    s.gen_s += gen_s;
    s.build_s += build_s;
    s.file_s += file_s - build_s;
    s.rec_s += rec_s;
    s.pure_s += pure_s;
    s.core_s += core.batched_s;
    s.cycle_s += cycle_s;
    s.unaccel_s += unaccel_s;
    s.baseline_s += baseline_s;
    s.fast_path += report.batch.fast_path as f64;
    s.batch_events += report.batch.events as f64;
    s.dispatched += report.batch.dispatched as f64;
    if let Some(c) = report.functional_counters {
        s.instr_events += c[0] as f64;
        s.filtered += (c[1] + c[2]) as f64;
    }
    s.shadow_bytes += pure.shadow_bytes as f64;
    s.peak_full_pages = s.peak_full_pages.max(pure.peak_full_pages);
    s.window_events += rec.window_events as f64;
    s.rel_half_width.extend(rec.rel_half_width);
}

/// Serves each trace through a fresh daemon, timing the upload
/// (connect → FINISH sent) and the whole conversation (→ END), and runs
/// the same bytes through `serve_session` in process.
fn service_steps(inputs: &[&TraceInput], reps: usize, dir: &RunDir, s: &mut Sums) {
    let socket = dir.path().join("ladder.sock");
    let daemon = span("fade_service::Faded::spawn", || {
        Faded::spawn(ServerConfig::new(&socket).workers(crate::host::nproc().min(2)))
    })
    .expect("the ladder's daemon binds its socket");
    let registry = Arc::new(MonitorRegistry::builtin());
    for input in inputs {
        let bytes = input.read();
        for rep in 0..reps.max(1) {
            let hello = Hello::new(format!("ladder-{rep}"), input.monitor.as_str());
            let (upload_s, served_s, lines) = conversation(&socket, &hello, &bytes);
            let t = Instant::now();
            let mut inproc_lines = 0u64;
            span("fade_service::serve_session", || {
                serve_session(
                    &hello,
                    bytes.clone(),
                    &registry,
                    SystemConfig::fade_single_core(),
                    &mut |_| inproc_lines += 1,
                )
            })
            .expect("the ladder's traces serve in process");
            s.inproc_s += t.elapsed().as_secs_f64();
            assert_eq!(
                inproc_lines, lines,
                "served and in-process report line counts"
            );
            s.upload_s += upload_s;
            s.served_s += served_s;
            s.report_lines += lines as f64;
            s.served += 1.0;
        }
    }
    span("fade_service::Faded::shutdown", || daemon.shutdown());
}

/// One conversation at frame level: (upload seconds, total seconds,
/// REPORT lines).
fn conversation(socket: &std::path::Path, hello: &Hello, trace: &[u8]) -> (f64, f64, u64) {
    span("fade_service::conversation", || {
        let t = Instant::now();
        let mut stream =
            std::os::unix::net::UnixStream::connect(socket).expect("the ladder's daemon accepts");
        span("fade_service::upload", || {
            write_frame(&mut stream, FRAME_HELLO, &hello.encode())?;
            for chunk in trace.chunks(TRACE_CHUNK) {
                write_frame(&mut stream, FRAME_TRACE, chunk)?;
            }
            write_frame(&mut stream, FRAME_FINISH, &[])
        })
        .expect("the ladder's upload completes");
        let upload_s = t.elapsed().as_secs_f64();
        let mut reader = std::io::BufReader::new(stream);
        let mut lines = 0u64;
        span("fade_service::await_end", || loop {
            match read_frame(&mut reader).expect("well-formed reply frames") {
                Some((FRAME_REPORT, _)) => lines += 1,
                Some((FRAME_END, _)) => break,
                Some((FRAME_ERROR, payload)) => {
                    panic!(
                        "ladder session failed: {}",
                        String::from_utf8_lossy(&payload)
                    )
                }
                other => panic!("unexpected reply {other:?}"),
            }
        });
        (upload_s, t.elapsed().as_secs_f64(), lines)
    })
}
