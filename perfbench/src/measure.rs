//! Shared measurement helpers: quantiles, clock calibration, `/proc`
//! counters of a process, host facts, and the result line.

use std::time::Instant;

use rlb_json::Json;

/// Nearest-rank quantile of `xs`, `q` in `[0, 1]`: the smallest sample
/// with at least a `q` share of the samples at or below it.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median cost in nanoseconds of one `Instant::now()` pair, subtracted
/// from sampled spans so short calls are not charged for the clock.
pub fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one run prints: a verdict, operation counts and named metrics.
pub struct Outcome {
    /// Every correctness check of the run passed.
    pub correct: bool,
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that failed (rejected, unanswered, errored or wrong).
    pub failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a metric; non-finite values fail the run rather than print
    /// invalid JSON.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.check(false, format!("metric {name} is not finite: {value}"));
            return;
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a correctness check; a failing one is printed to stderr.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            eprintln!("CHECK FAILED: {}", what.into());
            self.correct = false;
        }
    }

    /// Puts the metrics in the order of `declared`, failing the run on
    /// a metric not declared. A declared metric the run did not produce
    /// is a failure too, unless `zero_if_missing` (a layer the workload
    /// does not run) reports it as 0.
    pub fn complete(&mut self, declared: &[(String, &'static str)], zero_if_missing: bool) {
        for m in &self.metrics {
            if !declared.iter().any(|(n, _)| *n == m.name) {
                eprintln!("CHECK FAILED: metric {} is not declared", m.name);
                self.correct = false;
            }
        }
        let mut ordered = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            match self.metrics.iter().position(|m| m.name == *name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None if zero_if_missing => ordered.push(Metric {
                    name: name.clone(),
                    value: 0.0,
                    unit,
                }),
                None => self.check(false, format!("the run produced no {name}")),
            }
        }
        self.metrics = ordered;
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, one `name = value unit` line per metric, and
    /// the JSON result object as the last line of stdout.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("{:<40} = {} {}", m.name, m.value, m.unit);
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::UInt(self.attempted.into())),
            ("failed".into(), Json::UInt(self.failed.into())),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", rlb_json::to_string(&result));
    }
}

/// CPU time and context switches of a process, summed over its threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// On-CPU nanoseconds of every live thread (`schedstat`).
    pub cpu_ns: u64,
    /// On-CPU nanoseconds of the main thread (the daemon's reactor).
    pub main_cpu_ns: u64,
    /// Voluntary plus involuntary context switches of every live thread.
    pub ctx_switches: u64,
}

/// Reads `/proc/<pid>/task/*/{schedstat,status}`.
pub fn proc_sample(pid: u32) -> std::io::Result<ProcSample> {
    let mut sample = ProcSample::default();
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let dir = entry?.path();
        let Ok(sched) = std::fs::read_to_string(dir.join("schedstat")) else {
            continue; // thread exited between the listing and the read
        };
        let cpu: u64 = sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        sample.cpu_ns += cpu;
        if dir.file_name().and_then(|n| n.to_str()) == Some(&pid.to_string()) {
            sample.main_cpu_ns = cpu;
        }
        if let Ok(status) = std::fs::read_to_string(dir.join("status")) {
            for key in ["voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"] {
                sample.ctx_switches += status_field(&status, key).unwrap_or(0);
            }
        }
    }
    Ok(sample)
}

/// Steal time of the whole host so far, in clock ticks: the `steal`
/// column of the `cpu` line of `/proc/stat` (0 where it is missing).
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Pins every thread of this process to `cpu` with `taskset`, best
/// effort: where `taskset` is missing or fails, the scheduler keeps
/// placing the process.
pub fn pin_to_cpu(cpu: usize) {
    let _ = std::process::Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what happens
/// after the call. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The first number after `key` on its line of a `/proc` status file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Host facts printed with every result: absolute numbers are history
/// for this host, not a gate.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let cache = |level: &str, kind: &[&str]| -> String {
        for i in 0..8 {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}")).unwrap_or_default();
            if read("level").trim() == level && kind.contains(&read("type").trim()) {
                return read("size").trim().to_string();
            }
        }
        "unknown".into()
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let text = |s: &str| Json::Str(s.trim().to_string());
    let facts = Json::Obj(vec![
        ("nproc".into(), Json::UInt(nproc as u128)),
        ("cpu".into(), text(model)),
        ("l2".into(), text(&cache("2", &["Unified", "Data"]))),
        ("l3".into(), text(&cache("3", &["Unified"]))),
        ("kernel".into(), text(&kernel)),
        ("rustc".into(), text(&rustc)),
    ]);
    format!("host: {}", rlb_json::to_string(&facts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }
}
