//! The `suite-full` workload: `experiments all --jobs <nproc>`, the only
//! workload that runs delayed cuckoo routing with `rlb-cuckoo`,
//! `rlb-meanfield`, `rlb-ballsbins` and `rlb-pool` fan-out.
//!
//! The suite's input is the experiment registry itself; it has no
//! seeded input, so every seed runs the same suite. Each run writes its
//! tables to a fresh `--out-dir`, and every committed `results/` file
//! must come back byte for byte.
//!
//! The traced run makes an in-process serial pass over
//! [`rlb_experiments::registry`], timing each entry, then one parallel
//! run as above to price the pool.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::measure::{median, peak_rss_mb, quantile, Outcome};

/// Suite starts sampled for set-up time (each killed once it starts
/// its first experiment).
const SETUP_SPAWNS: usize = 21;
/// Nominal length of one suite run on a two-CPU host: a run of
/// `--seconds` makes `--seconds / SUITE_SECONDS` suite runs (at least
/// one), a count that does not depend on how fast the suite goes.
const SUITE_SECONDS: f64 = 20.0;
/// A suite run that takes longer than this is killed and fails.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// One parallel suite run.
struct SuiteRun {
    wall_s: f64,
    /// Per experiment: id, seconds from spawn to its finish line, and
    /// the run time it reported.
    finished: Vec<(String, f64, f64)>,
    peak_rss_mb: f64,
}

/// Parses a `Debug`-formatted `Duration` such as `12.4s` or `163.5ms`.
fn parse_duration(text: &str) -> Option<f64> {
    let split = text.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (num, unit) = text.split_at(split);
    let scale = match unit {
        "s" => 1.0,
        "ms" => 1e-3,
        "µs" => 1e-6,
        "ns" => 1e-9,
        _ => return None,
    };
    num.parse::<f64>().ok().map(|v| v * scale)
}

fn suite_command(experiments: &Path, jobs: usize, out_dir: &Path) -> Command {
    let mut cmd = Command::new(experiments);
    cmd.arg("all")
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--out-dir")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    cmd
}

/// Seconds from spawning the suite to its first `running` line: process
/// start, argument parsing, pool start-up and registry construction.
fn startup_time(experiments: &Path, jobs: usize, out_dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let mut child = suite_command(experiments, jobs, out_dir)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", experiments.display()))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut started = None;
    for line in BufReader::new(stderr).lines() {
        if line.map_err(|e| e.to_string())?.starts_with("running ") {
            started = Some(t.elapsed().as_secs_f64());
            break;
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    started.ok_or_else(|| "the suite exited before starting an experiment".into())
}

/// Runs the whole suite once, watching its finish lines and its peak
/// resident set.
fn suite_run(experiments: &Path, jobs: usize, out_dir: &Path) -> Result<SuiteRun, String> {
    let _ = std::fs::remove_dir_all(out_dir);
    let t = Instant::now();
    let mut child = suite_command(experiments, jobs, out_dir)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", experiments.display()))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let pid = child.id();
    let (finished, status, peak) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut finished = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let mut words = line.split_whitespace();
                if let (Some(id), Some("finished"), Some("in"), Some(took)) =
                    (words.next(), words.next(), words.next(), words.next())
                {
                    let took = parse_duration(took).unwrap_or(f64::NAN);
                    finished.push((id.to_string(), t.elapsed().as_secs_f64(), took));
                }
            }
            finished
        });
        let mut peak = 0.0f64;
        let status = loop {
            if let Some(rss) = peak_rss_mb(pid) {
                peak = peak.max(rss);
            }
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if t.elapsed() < RUN_LIMIT => std::thread::sleep(Duration::from_millis(5)),
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break Err(format!("the suite ran longer than {RUN_LIMIT:?}"));
                }
                Err(e) => break Err(e.to_string()),
            }
        };
        (reader.join().expect("stderr reader panicked"), status, peak)
    });
    let wall_s = t.elapsed().as_secs_f64();
    let status = status?;
    if !status.success() {
        return Err(format!("the suite exited with {status}"));
    }
    Ok(SuiteRun {
        wall_s,
        finished,
        peak_rss_mb: peak,
    })
}

/// Byte-compares every committed `results/` file with `out_dir`.
/// Returns the number of files compared and the ids that differ.
fn compare_results(root: &Path, out_dir: &Path) -> Result<(usize, Vec<String>), String> {
    let committed = root.join("results");
    let mut names: Vec<_> = std::fs::read_dir(&committed)
        .map_err(|e| format!("{}: {e}", committed.display()))?
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .collect();
    names.sort();
    let mut differ = Vec::new();
    for name in &names {
        let want = std::fs::read(committed.join(name)).map_err(|e| e.to_string())?;
        if std::fs::read(out_dir.join(name)).ok().as_deref() != Some(want.as_slice()) {
            differ.push(name.to_string_lossy().into_owned());
        }
    }
    Ok((names.len(), differ))
}

/// Checks one run: every registry entry finished, and the committed
/// results regenerate byte for byte.
fn check_run(run: &SuiteRun, ids: &[&str], root: &Path, out_dir: &Path, out: &mut Outcome) {
    out.attempted += ids.len() as u64;
    for id in ids {
        let n = run.finished.iter().filter(|(f, _, _)| f == id).count();
        if n != 1 {
            out.failed += 1;
            out.check(false, format!("{id} finished {n} times"));
        }
    }
    match compare_results(root, out_dir) {
        Ok((compared, differ)) => {
            out.check(compared > 0, "no committed results to compare");
            out.failed += differ.len() as u64;
            out.check(
                differ.is_empty(),
                format!("results differ from the committed ones: {differ:?}"),
            );
        }
        Err(e) => out.check(false, e),
    }
}

pub fn run(
    experiments: &Path,
    root: &Path,
    work: &Path,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) {
    if let Err(e) = run_inner(experiments, root, work, seconds, trace, out) {
        out.check(false, e);
        out.attempted = out.attempted.max(1);
        out.failed = out.failed.max(1);
    }
}

fn run_inner(
    experiments: &Path,
    root: &Path,
    work: &Path,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let registry = rlb_experiments::registry();
    let ids: Vec<&str> = registry.iter().map(|&(id, _, _)| id).collect();
    let out_dir = work.join("suite-out");

    if trace {
        return traced(experiments, root, &out_dir, jobs, &ids, out);
    }
    let mut setups = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        setups.push(startup_time(experiments, jobs, &work.join("suite-setup"))?);
    }
    let _ = std::fs::remove_dir_all(work.join("suite-setup"));
    let count = (seconds / SUITE_SECONDS).floor().max(1.0) as usize;
    let mut runs = Vec::new();
    for _ in 0..count {
        let run = suite_run(experiments, jobs, &out_dir)?;
        check_run(&run, &ids, root, &out_dir, out);
        runs.push(run);
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let finish: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.finished.iter().map(|&(_, at, _)| at))
        .collect();
    out.note(format!(
        "suite_wall_s = {} s (median of {} runs, --jobs {jobs}); experiments finished \
         {} s (median) and {} s (p99) after the suite started",
        median(&walls),
        runs.len(),
        median(&finish),
        quantile(&finish, 0.99),
    ));
    out.metric("setup_s", median(&setups), "s");
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak_rss_mb).collect();
    out.metric("peak_rss_mb", median(&peaks), "MB");
    out.metric("throughput_per_s", ids.len() as f64 / median(&walls), "1/s");
    // The user's request is the whole `experiments all` command, so its
    // latency is the suite's wall time. A single experiment's finish
    // time is not: the pool hands experiments out in whatever order its
    // workers free up, and the median finish time moved by a quarter
    // between runs of the same code.
    out.metric("p50_us", median(&walls) * 1e6, "us");
    out.metric("p99_us", quantile(&walls, 0.99) * 1e6, "us");
    Ok(())
}

fn traced(
    experiments: &Path,
    root: &Path,
    out_dir: &Path,
    jobs: usize,
    ids: &[&str],
    out: &mut Outcome,
) -> Result<(), String> {
    // Serial: one executor, so each entry's time is its own work.
    rlb_pool::set_global_jobs(1);
    let mut serial = Vec::new();
    for (id, _, runner) in rlb_experiments::registry() {
        let t = Instant::now();
        let output = runner(false);
        let took = t.elapsed().as_secs_f64();
        out.check(output.all_passed(), format!("{id}: a shape check failed"));
        for (ext, text) in [
            ("txt", output.render()),
            ("json", rlb_json::to_string_pretty(&output)),
        ] {
            let path = root.join("results").join(format!("{id}.{ext}"));
            if let Ok(want) = std::fs::read_to_string(&path) {
                out.check(
                    want == text,
                    format!("in-process {id}.{ext} differs from {}", path.display()),
                );
            }
        }
        out.metric(format!("suite.{id}_s"), took, "s");
        serial.push(took);
    }
    let run = suite_run(experiments, jobs, out_dir)?;
    check_run(&run, ids, root, out_dir, out);
    let serial_sum: f64 = serial.iter().sum();
    let reported: f64 = run.finished.iter().map(|&(_, _, took)| took).sum();
    let longest = run
        .finished
        .iter()
        .map(|&(_, _, took)| took)
        .fold(0.0, f64::max);
    out.note(format!("suite_wall_s = {} s (--jobs {jobs})", run.wall_s));
    out.metric("suite.critical_path_s", longest, "s");
    out.metric(
        "suite.pool_busy_share",
        serial_sum / (run.wall_s * jobs as f64),
        "ratio",
    );
    out.metric("trace.overhead_ratio", serial_sum / reported, "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_parse_in_every_unit() {
        assert_eq!(parse_duration("12.5s"), Some(12.5));
        assert_eq!(parse_duration("163.5ms"), Some(0.1635));
        assert!((parse_duration("870µs").unwrap() - 870e-6).abs() < 1e-12);
        assert_eq!(parse_duration("12"), None);
        assert_eq!(parse_duration("1.0h"), None);
    }
}
