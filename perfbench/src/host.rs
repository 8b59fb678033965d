//! The host and run record printed beside the metrics, so that a run
//! disturbed by the machine can be told apart from a slow program.

use std::process::Command;

/// CPU time stolen by the hypervisor and time runnable tasks waited
/// for a CPU, as cumulative counters read at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedSnapshot {
    /// Machine-wide steal time, seconds (`/proc/stat`).
    pub steal_s: f64,
    /// Run-queue wait of this process's live threads, seconds
    /// (`/proc/self/task/*/schedstat`).
    pub self_runq_s: f64,
}

impl SchedSnapshot {
    /// Reads the counters now. Unreadable files read as zero.
    pub fn now() -> SchedSnapshot {
        SchedSnapshot {
            steal_s: read_steal_s().unwrap_or(0.0),
            self_runq_s: read_self_runq_s().unwrap_or(0.0),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &SchedSnapshot) -> SchedSnapshot {
        SchedSnapshot {
            steal_s: self.steal_s - earlier.steal_s,
            self_runq_s: self.self_runq_s - earlier.self_runq_s,
        }
    }
}

fn read_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal — in USER_HZ ticks.
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / 100.0)
}

fn read_self_runq_s() -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
            // run time, run-queue wait, timeslices (ns, ns, count).
            ns += text
                .split_whitespace()
                .nth(1)
                .and_then(|w| w.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Some(ns as f64 * 1e-9)
}

/// Hands freed heap memory back to the kernel and resets the kernel's
/// resident-set high-water mark to the current resident set
/// (`/proc/self/clear_refs`), so that [`peak_rss_mb`] covers what runs
/// from here on rather than input recording and whatever the allocator
/// kept from it. Best effort: where the kernel refuses, the mark keeps
/// covering the whole process.
pub fn reset_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's malloc_trim only releases free pages of its own
    // arenas; it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Kernel high-water resident set size of this process, MiB
/// (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set size of this process, MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `"unknown"` when it
/// cannot run or fails. Waits for the command to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler version, or `"unknown"`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The checked-out commit, or `"unknown"` outside a git repository.
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"])
}

/// Escapes `s` as a JSON string body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The host and run record as one JSON object.
pub fn record_json(workload: &str, seed: u64, seconds: u64, sched: &SchedSnapshot) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"steal_s\":{:.3},\"self_runq_s\":{:.3}}}",
        json_escape(workload),
        seed,
        seconds,
        nproc(),
        json_escape(&cpu_model()),
        json_escape(&rustc_version()),
        json_escape(&git_rev()),
        sched.steal_s,
        sched.self_runq_s,
    )
}

/// Entries of the [`SpeedProbe`] buffer: 2 MiB, the size of one core's
/// L2 cache on the host the benchmark was tuned on.
const PROBE_WORDS: usize = 1 << 18;

/// Read-modify-writes per probe kernel run (about 3 ms there).
const PROBE_ITERS: usize = 1_000_000;

/// Kernel runs per sample; the sample is their median.
const PROBE_REPS: usize = 7;

/// The probe kernel's time at the reference host speed, seconds: the
/// scale that host-time measurements are converted to.
pub const PROBE_NOMINAL_S: f64 = 0.0032;

/// Measures how fast the host runs right now, with a fixed kernel of
/// the benchmark's own (random read-modify-writes over a buffer the
/// size of one core's L2 cache) that no change to the program under
/// test can speed up or slow down.
///
/// On a 2-vCPU VM the host's speed drifts by ±25% over minutes. Over
/// four minutes of interleaved `replay-filter` operations and kernel
/// runs, the kernel's time tracked the operation time at r = 0.945 in
/// ten-second buckets (the same kernel over 256 KiB: 0.82; over
/// 32 MiB: 0.69), and the operation time's coefficient of variation
/// fell from 10% to 3.2% once divided by it.
pub struct SpeedProbe {
    buf: Vec<u64>,
    state: u64,
}

impl Default for SpeedProbe {
    fn default() -> SpeedProbe {
        SpeedProbe {
            buf: vec![0; PROBE_WORDS],
            state: 1,
        }
    }
}

impl SpeedProbe {
    /// Runs the kernel [`PROBE_REPS`] times and returns the median
    /// seconds of one run.
    pub fn sample(&mut self) -> f64 {
        let mut times = Vec::with_capacity(PROBE_REPS);
        for _ in 0..PROBE_REPS {
            let t = std::time::Instant::now();
            self.kernel();
            times.push(t.elapsed().as_secs_f64());
        }
        crate::stats::median(&times)
    }

    fn kernel(&mut self) {
        let mut x = self.state;
        for _ in 0..PROBE_ITERS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 20) as usize % PROBE_WORDS;
            self.buf[i] = self.buf[i].wrapping_add(x);
        }
        self.state = std::hint::black_box(x);
    }
}
