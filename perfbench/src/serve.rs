//! `serve-mixed-2c`: an in-process `faded` daemon with two workers and
//! two client threads, each streaming batched-engine traces over its
//! own connection and waiting for END before sending the next.
//!
//! The mix (gcc/MemLeak, mcf/MemCheck, astar-taint/TaintCheck,
//! water/AtomCheck) is handler- and shadow-bound, and this is the only
//! workload that runs the protocol, store-and-forward buffering, the
//! `SERVE_SLICE` loop and the JSON report lines.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fade_service::report::violation_line;
use fade_service::{stream_session, Faded, Hello, ServerConfig};

use crate::host::nproc;
use crate::inputs::{record_all, Reference, RunDir, TraceInput};
use crate::run::{Phase, Size, Workload, LADDER_TRACES};
use crate::spans;

/// The traced (benchmark, monitor) mix, in the order clients send it.
pub const MIX: [(&str, &str); 4] = [
    ("gcc", "MemLeak"),
    ("mcf", "MemCheck"),
    ("astar-taint", "TaintCheck"),
    ("water", "AtomCheck"),
];

/// Client threads, each with its own connection per conversation.
pub const CLIENTS: usize = 2;

/// The workload's state.
pub struct ServeMixed {
    traces: Vec<TraceInput>,
    references: Vec<Reference>,
    /// Served cycle estimate per trace (from the summary line).
    estimates: Mutex<Vec<Option<u64>>>,
    socket: PathBuf,
    daemon: Option<Faded>,
    next_op: AtomicU64,
}

impl ServeMixed {
    /// Records the mix (each kind from several seeds) and its references.
    ///
    /// # Errors
    ///
    /// A reference replay that fails.
    pub fn prepare(seed: u64, size: &Size, dir: &RunDir) -> Result<ServeMixed, String> {
        let specs: Vec<(&'static str, String)> = (0..size.serve_seeds * MIX.len())
            .map(|i| (MIX[i % MIX.len()].0, MIX[i % MIX.len()].1.to_string()))
            .collect();
        let (traces, references): (Vec<TraceInput>, Vec<Reference>) =
            record_all(dir, seed, |_| size.serve_events, &specs)?
                .into_iter()
                .unzip();
        Ok(ServeMixed {
            estimates: Mutex::new(vec![None; traces.len()]),
            traces,
            references,
            socket: dir.path().join("faded.sock"),
            daemon: None,
            next_op: AtomicU64::new(0),
        })
    }

    /// Starts the daemon (stopping a running one first).
    fn spawn(&mut self) -> Result<(), String> {
        self.shutdown();
        let cfg = ServerConfig::new(&self.socket).workers(nproc().min(CLIENTS));
        let daemon = spans::span("fade_service::Faded::spawn", || Faded::spawn(cfg))
            .map_err(|e| format!("spawning faded: {e}"))?;
        self.daemon = Some(daemon);
        Ok(())
    }

    /// One conversation of `tenant` streaming `bytes`, trace `i`'s file
    /// contents, checked against the reference. Returns the instructions
    /// served.
    fn conversation(&self, tenant: &str, i: usize, bytes: &[u8]) -> Result<u64, String> {
        let input = &self.traces[i];
        let op = self.next_op.fetch_add(1, Ordering::Relaxed) + 1;
        let (end, lines) = spans::op("serve-mixed-2c.op", op, || {
            converse(&self.socket, tenant, input, bytes)
        })?;
        let estimate = check_served(&self.references[i], tenant, end, &lines)
            .map_err(|e| format!("{}: {e}", input.label()))?;
        self.estimates.lock().expect("estimates poisoned")[i] = Some(estimate);
        Ok(end.instrs)
    }
}

/// Streams one trace as `tenant` and collects the REPORT lines.
///
/// # Errors
///
/// The client error, rendered (a refused connection included).
pub fn converse(
    socket: &Path,
    tenant: &str,
    input: &TraceInput,
    bytes: &[u8],
) -> Result<(fade_service::EndSummary, Vec<String>), String> {
    let hello = Hello::new(tenant, input.monitor.as_str());
    let mut lines = Vec::new();
    let end = spans::span("fade_service::stream_session", || {
        stream_session(socket, &hello, bytes, |l| lines.push(l.to_string()))
    })
    .map_err(|e| format!("{}: {e}", input.label()))?;
    Ok((end, lines))
}

/// Checks a served conversation against the reference: END counters,
/// one REPORT line per reference violation in order, then the summary.
/// Returns the summary's cycle estimate.
///
/// # Errors
///
/// The first mismatch.
pub fn check_served(
    reference: &Reference,
    tenant: &str,
    end: fade_service::EndSummary,
    lines: &[String],
) -> Result<u64, String> {
    if end.instrs != reference.instrs || end.events != reference.events {
        return Err(format!(
            "END instrs/events {}/{} != reference {}/{}",
            end.instrs, end.events, reference.instrs, reference.events
        ));
    }
    if end.reports as usize != lines.len() || lines.len() != reference.violations.len() + 1 {
        return Err(format!(
            "{} report lines (END says {}) for {} reference violations",
            lines.len(),
            end.reports,
            reference.violations.len()
        ));
    }
    for (seq, (line, text)) in lines.iter().zip(&reference.violations).enumerate() {
        if *line != violation_line(tenant, seq as u32, text) {
            return Err(format!(
                "report line {seq} differs from the reference violation"
            ));
        }
    }
    let summary = lines.last().expect("at least the summary line");
    if !summary.starts_with("{\"type\": \"summary\"") {
        return Err("last report line is not the summary".to_string());
    }
    json_uint(summary, "cycles").ok_or_else(|| "summary line has no cycles".to_string())
}

/// The unsigned integer field `key` (not the first) of a flat JSON
/// object line as the service renders it (`, "key": 123`).
pub fn json_uint(line: &str, key: &str) -> Option<u64> {
    let pat = format!(", \"{key}\": ");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

impl Workload for ServeMixed {
    fn name(&self) -> &'static str {
        "serve-mixed-2c"
    }

    fn setup(&mut self) -> Result<f64, String> {
        let bytes = self.traces[0].read();
        self.shutdown();
        let t = Instant::now();
        self.spawn()?;
        self.conversation("setup", 0, &bytes)?;
        Ok(t.elapsed().as_secs_f64())
    }

    fn phase(&mut self, seconds: f64, min_ops: usize) -> Phase {
        if self.daemon.is_none() {
            if let Err(e) = self.spawn() {
                let mut p = Phase::default();
                p.record(0.0, Err(e));
                return p;
            }
        }
        let n = self.traces.len();
        let attempted = AtomicU64::new(0);
        let start = Instant::now();
        let this = &*self;
        let parts: Vec<Phase> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let attempted = &attempted;
                    scope.spawn(move || {
                        let tenant = format!("client-{c}");
                        let mut phase = Phase::default();
                        loop {
                            for k in 0..n {
                                let i = (c + k) % n;
                                let bytes = this.traces[i].read();
                                let t = Instant::now();
                                let outcome = this.conversation(&tenant, i, &bytes);
                                phase.record(t.elapsed().as_secs_f64(), outcome);
                            }
                            let total = attempted.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
                            if start.elapsed().as_secs_f64() >= seconds && total as usize >= min_ops
                            {
                                break;
                            }
                        }
                        phase
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut phase = Phase {
            workers: CLIENTS,
            ..Phase::default()
        };
        for p in parts {
            phase.merge(p);
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }

    fn cycle_error(&self) -> f64 {
        let estimates = self.estimates.lock().expect("estimates poisoned");
        let errs: Vec<f64> = self
            .references
            .iter()
            .zip(estimates.iter())
            .filter_map(|(r, e)| e.map(|e| r.cycle_error(e)))
            .collect();
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    }

    /// The first seeds of every kind.
    fn ladder_inputs(&self) -> Vec<&TraceInput> {
        self.traces.iter().take(LADDER_TRACES).collect()
    }

    fn record_lines(&self) -> Vec<String> {
        let estimates = self.estimates.lock().expect("estimates poisoned");
        self.traces
            .iter()
            .zip(&self.references)
            .zip(estimates.iter())
            .map(|((t, r), e)| {
                format!(
                    "trace {} seed {:#x}: {} bytes, {} instrs, {} events, {} violations, exact cycles {}, served estimate {}",
                    t.label(),
                    t.seed,
                    t.len,
                    r.instrs,
                    r.events,
                    r.violations.len(),
                    r.exact_cycles,
                    e.map_or("none".to_string(), |e| e.to_string())
                )
            })
            .collect()
    }

    fn shutdown(&mut self) {
        if let Some(d) = self.daemon.take() {
            d.shutdown();
        }
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_monitor_fails_one_conversation_and_the_daemon_keeps_serving() {
        let dir = RunDir::create("test-serve-unknown").expect("run dir");
        let mut w = ServeMixed::prepare(7, &Size::tiny(), &dir).expect("tiny inputs");
        w.setup().expect("daemon and warm-up conversation");
        w.traces[1].monitor = "NoSuchMonitor".to_string();
        let mut phase = Phase::default();
        for i in 0..w.traces.len() {
            let t = Instant::now();
            let outcome = w.conversation("client-0", i, &w.traces[i].read());
            phase.record(t.elapsed().as_secs_f64(), outcome);
        }
        w.shutdown();
        assert_eq!((phase.attempted, phase.failed), (MIX.len() as u64, 1));
        assert!(
            phase.errors[0].contains("mcf/NoSuchMonitor"),
            "{:?}",
            phase.errors
        );
    }

    #[test]
    fn a_changed_report_line_fails_the_check() {
        let reference = Reference {
            instrs: 10,
            events: 5,
            violations: vec!["leak at 0x10".to_string()],
            counters: None,
            exact_cycles: 100,
        };
        let end = fade_service::EndSummary {
            events: 5,
            instrs: 10,
            reports: 2,
        };
        let summary =
            "{\"type\": \"summary\", \"instrs\": 10, \"cycles\": 97, \"baseline_cycles\": 50}";
        let good = vec![violation_line("t", 0, "leak at 0x10"), summary.to_string()];
        assert_eq!(check_served(&reference, "t", end, &good), Ok(97));
        let bad = vec![violation_line("t", 0, "leak at 0x20"), summary.to_string()];
        assert!(check_served(&reference, "t", end, &bad).is_err());
        assert!(check_served(&reference, "t", end, &good[1..]).is_err());
    }
}
