//! Library backing the `rlb-sim` command-line simulator.
//!
//! Everything the binary does — argument parsing, policy dispatch, run
//! execution, report rendering — lives here so it can be unit-tested;
//! `main.rs` is a thin shell over [`COMMANDS`]. Every entry point's
//! flags are declared once, as tables the one parser walks and the
//! `--help` text is rendered from: `rlb-sim --help` lists the
//! subcommands and `rlb-sim <subcommand> --help` lists each one's flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod fastforward;
pub(crate) mod flags;
pub(crate) mod serve_load;

pub use fastforward::{
    parse_fastforward_args, run_fastforward, solve_fastforward, FastForwardOptions,
};
pub use serve_load::{parse_serve_load_args, run_load, run_serve, ServeLoadOptions};

use flags::{num, positive, set, Flag};
use rlb_bench::engine::{GateRow, GATE_MIN_RATIO};
use rlb_core::policies::{
    DelayedCuckoo, Greedy, OneChoice, RoundRobin, TimeStepIsolated, UniformRandom,
};
use rlb_core::{DrainMode, NoopSink, Policy, RunReport, SimConfig, Simulation, TraceSink};
use rlb_workloads::{Trace, WorkloadSpec};
use std::fmt::Write as _;

/// How a failed invocation ends: the message for stderr and the exit
/// code, 2 for a usage error and 1 for a run that failed.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code.
    pub code: i32,
    /// What went wrong.
    pub message: String,
}

impl From<String> for CliError {
    /// A usage error (exit 2), so `?` works on the parsers' results.
    fn from(message: String) -> Self {
        Self { code: 2, message }
    }
}

/// How an entry point ends: the text for stdout and whether the run
/// succeeded (the binary exits 1 if not), or an error.
type Outcome = Result<(String, bool), CliError>;

/// One `rlb-sim` entry point: the top-level run or a subcommand.
struct Command {
    /// The subcommand word; empty for the top-level run.
    name: &'static str,
    /// What it does, in one line.
    about: &'static str,
    /// The flag list, rendered from the parser's own tables.
    flags: fn() -> String,
    /// Runs the command on the arguments after its word.
    run: fn(&[String]) -> Outcome,
}

/// Every entry point, the top-level run first.
const COMMANDS: &[Command] = &[
    Command {
        name: "",
        about: "simulate a load-balanced distributed KV store",
        flags: || run_help(RUN),
        run: |args| {
            let opts = parse_args(args).map_err(|e| format!("{e}\n(run with --help for usage)"))?;
            let report = run(&opts).map_err(|message| CliError { code: 1, message })?;
            let out = if opts.json {
                format!("{}\n", rlb_json::to_string_pretty(&report))
            } else {
                render_text(&opts, &report)
            };
            Ok((out, true))
        },
    },
    Command {
        name: "bench",
        about: "run a perf gate (the engine's by default); exits 1 if the gate fails",
        flags: || flags::render(&[BENCH_FLAGS]),
        run: |args| Ok(run_bench(args)?),
    },
    Command {
        name: "fastforward",
        about: "solve the mean-field fluid model; exits 1 if the solve does not converge",
        flags: fastforward::help,
        run: |args| Ok(run_fastforward(args)?),
    },
    Command {
        name: "trace",
        about: "run with the JSONL trace sink and summarise the stream read back from disk",
        flags: || run_help(TRACE),
        run: |args| Ok((run_trace(args)?, true)),
    },
    Command {
        name: "serve",
        about: "run the KV serving daemon over TCP, or with --sim-clock the co-simulation",
        flags: serve_load::help,
        run: |args| Ok((run_serve(args)?, true)),
    },
    Command {
        name: "load",
        about: "drive a running server, or with --sim-clock the serve+load co-simulation",
        flags: serve_load::help,
        run: |args| Ok((run_load(args)?, true)),
    },
    Command {
        name: "lint",
        about: "run rlb-lint over crates/*/src; exits 1 on any finding or stale suppression",
        flags: || flags::render(&[LINT_FLAGS]),
        run: |args| Ok(run_lint(args)?),
    },
];

/// Runs the `rlb-sim` invocation `args` (without the program name):
/// picks the entry point from its first word, then answers `--help`
/// from its flag tables or runs it.
///
/// # Errors
/// A usage error (exit 2) or a run that failed (exit 1).
pub fn dispatch(args: &[String]) -> Outcome {
    let subcommand = args.split_first().and_then(|(word, rest)| {
        let cmd = COMMANDS[1..].iter().find(|c| c.name == word.as_str())?;
        Some((cmd, rest))
    });
    let (cmd, args) = subcommand.unwrap_or((&COMMANDS[0], args));
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok((help(cmd), true));
    }
    (cmd.run)(args)
}

/// The `--help` text of `cmd`; the top level also lists the
/// subcommands.
fn help(cmd: &Command) -> String {
    let space = if cmd.name.is_empty() { "" } else { " " };
    let mut out = format!("rlb-sim{space}{}: {}\n", cmd.name, cmd.about);
    let _ = write!(out, "\noptions:\n{}", (cmd.flags)());
    if cmd.name.is_empty() {
        out.push_str("\nsubcommands (rlb-sim SUBCOMMAND --help lists each one's options):\n");
        for c in &COMMANDS[1..] {
            let _ = writeln!(out, "  {:<12} {}", c.name, c.about);
        }
    }
    out
}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
// threaded through `parse_args` -> `run` by callers. lint:allow(dead-pub)
pub struct CliOptions {
    /// Policy name (validated at run time).
    pub policy: String,
    /// Simulation configuration.
    pub config: SimConfig,
    /// Steps to run.
    pub steps: u64,
    /// Workload description.
    pub workload: WorkloadSpec,
    /// Emit JSON instead of the text report.
    pub json: bool,
    /// Write the generated request trace to this file (JSON).
    pub record_trace: Option<String>,
    /// Replay a previously recorded trace instead of generating one.
    pub replay_trace: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        let m = 1024;
        Self {
            policy: "greedy".into(),
            config: SimConfig {
                process_rate: 16,
                queue_capacity: 16,
                ..SimConfig::baseline(m)
            },
            steps: 200,
            workload: WorkloadSpec::Repeated { k: m as u32 },
            json: false,
            record_trace: None,
            replay_trace: None,
        }
    }
}

/// The run parser's working state: `--workload` is read once the chunk
/// universe is final, and `trace` adds `--out`.
struct RunArgs {
    opts: CliOptions,
    workload: Option<String>,
    out: String,
}

impl AsMut<SimConfig> for RunArgs {
    fn as_mut(&mut self) -> &mut SimConfig {
        &mut self.opts.config
    }
}

/// A run (and `trace`) flag.
type RunFlag = Flag<RunArgs>;

/// The run flags besides the engine ones.
const RUN_FLAGS: &[RunFlag] = &[
    RunFlag::value("--policy NAME", |a, v| {
        set(&mut a.opts.policy, Ok(v.into()))
    })
    .help(
        "greedy (default) | delayed-cuckoo (alias dcr) | one-choice |\n\
               uniform-random | round-robin | step-isolated",
    ),
    RunFlag::value("--config PATH", |a, path| {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read config {path:?}: {e}"))?;
        a.opts.config =
            rlb_json::from_str(&json).map_err(|e| format!("bad config {path:?}: {e}"))?;
        Ok(())
    })
    .help("load the whole engine configuration from a JSON file"),
    RunFlag::value("--steps T", |a, v| set(&mut a.opts.steps, num(v)))
        .help("steps to simulate (default 200)"),
    RunFlag::value("--workload SPEC", |a, v| {
        set(&mut a.workload, Ok(Some(v.into())))
    })
    .help(
        "repeated:K | fresh:K | partial:P,K | zipf:ALPHA,K | phased:W,K,T |\n\
               burst:B,T,LB,LT (default repeated:M)",
    ),
    RunFlag::value("--flush T", |a, v| {
        set(&mut a.opts.config.flush_interval, positive(v).map(Some))
    })
    .help("flush every queue every T steps (default never)"),
    RunFlag::switch("--interleaved", |a| {
        a.opts.config.drain_mode = DrainMode::Interleaved
    })
    .help("sub-step (interleaved) draining"),
    RunFlag::value("--record-trace PATH", |a, v| {
        set(&mut a.opts.record_trace, Ok(Some(v.into())))
    })
    .help("write the generated request trace to PATH (JSON)"),
    RunFlag::value("--replay-trace PATH", |a, v| {
        set(&mut a.opts.replay_trace, Ok(Some(v.into())))
    })
    .help("replay a recorded request trace instead of generating one"),
    RunFlag::switch("--json", |a| a.opts.json = true).help("emit the full report as JSON"),
];

/// `trace`'s one flag beyond the run flags.
const TRACE_FLAGS: &[RunFlag] =
    &[
        RunFlag::value("--out PATH", |a, v| set(&mut a.out, Ok(v.into())))
            .help("where to write the event stream (default trace.jsonl)"),
    ];

/// The flag tables of the top-level run and of `trace`.
const RUN: &[&[RunFlag]] = &[&Flag::ENGINE, RUN_FLAGS];
const TRACE: &[&[RunFlag]] = &[&Flag::ENGINE, RUN_FLAGS, TRACE_FLAGS];

/// The run or `trace` flag list for `--help`.
fn run_help(tables: &[&[RunFlag]]) -> String {
    flags::render(tables) + &flags::engine_defaults(&CliOptions::default().config)
}

/// Parses the run or `trace` flags, then applies the cross-flag rules.
fn parse_run(args: &[String], tables: &[&[RunFlag]]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        opts: CliOptions::default(),
        workload: None,
        out: "trace.jsonl".into(),
    };
    let seen = flags::parse("", tables, args, &mut a)?;
    let config = &mut a.opts.config;
    flags::default_chunks(config, &seen);
    a.opts.workload = match &a.workload {
        Some(s) => WorkloadSpec::parse_cli(s, config.num_chunks as u64)
            .map_err(|e| format!("--workload: {e}"))?,
        None => WorkloadSpec::Repeated {
            k: config.num_servers as u32,
        },
    };
    if a.opts.workload.universe() > config.num_chunks as u64 {
        return Err(format!(
            "workload universe {} exceeds --chunks {}",
            a.opts.workload.universe(),
            config.num_chunks
        ));
    }
    config.validate()?;
    Ok(a)
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
/// Returns a usage-style message on malformed input.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    parse_run(args, RUN).map(|a| a.opts)
}

/// Code generic over the routing policy, run by [`with_policy`] once it
/// has built the policy a name selects.
pub(crate) trait PolicyJob {
    /// What the job returns.
    type Output;
    /// Runs the job with the built policy.
    fn run<P: Policy>(self, policy: P) -> Self::Output;
}

/// Builds the policy `name` selects for `config` and runs `job` with it:
/// the one place policy names map to types.
///
/// # Errors
/// Returns a message for an unknown name, or for `delayed-cuckoo` (alias
/// `dcr`) with a replication other than 2.
pub(crate) fn with_policy<J: PolicyJob>(
    name: &str,
    config: &SimConfig,
    job: J,
) -> Result<J::Output, String> {
    Ok(match name {
        "greedy" => job.run(Greedy::new()),
        "delayed-cuckoo" | "dcr" => {
            if config.replication != 2 {
                return Err("delayed-cuckoo requires --replication 2".into());
            }
            job.run(DelayedCuckoo::new(config))
        }
        "one-choice" => job.run(OneChoice::new()),
        "uniform-random" => job.run(UniformRandom::new(config.seed ^ 0xa7)),
        "round-robin" => job.run(RoundRobin::new(config.num_chunks)),
        "step-isolated" => job.run(TimeStepIsolated::new(config.num_servers)),
        other => return Err(format!("unknown policy {other:?}")),
    })
}

/// A trace replayer that owns its trace (the borrowing replayer in
/// `rlb-workloads` cannot cross the `Box<dyn Workload>` boundary).
struct OwnedReplayer {
    trace: Trace,
}

impl rlb_core::Workload for OwnedReplayer {
    fn next_step(&mut self, step: u64, out: &mut Vec<u32>) {
        if self.trace.is_empty() {
            return;
        }
        let idx = (step % self.trace.len() as u64) as usize;
        out.extend_from_slice(self.trace.step(idx));
    }
}

/// Runs the described simulation.
///
/// # Errors
/// Returns a message for an unknown policy name or a policy/config
/// mismatch caught before the run.
pub fn run(opts: &CliOptions) -> Result<RunReport, String> {
    run_with_sink(opts, NoopSink).map(|(report, _)| report)
}

/// A simulation run with a trace sink attached.
struct Drive<'a, S> {
    config: SimConfig,
    sink: S,
    workload: &'a mut dyn rlb_core::Workload,
    steps: u64,
}

impl<S: TraceSink> PolicyJob for Drive<'_, S> {
    type Output = (RunReport, S);

    fn run<P: Policy>(self, policy: P) -> Self::Output {
        let mut sim = Simulation::new(self.config, policy).with_sink(self.sink);
        sim.run(self.workload, self.steps);
        sim.finish_traced()
    }
}

/// Runs the described simulation with a trace sink attached, returning
/// the report and the sink. `run` is this with [`NoopSink`] (which
/// compiles the emission sites out entirely).
///
/// # Errors
/// Returns a message for an unknown policy name or a policy/config
/// mismatch caught before the run.
pub fn run_with_sink<S: TraceSink>(opts: &CliOptions, sink: S) -> Result<(RunReport, S), String> {
    let config = &opts.config;
    let steps = opts.steps;
    // Resolve the request source: a recorded trace, or a generator
    // (optionally materialized to a trace so it can be archived).
    let trace: Option<Trace> = match (&opts.replay_trace, &opts.record_trace) {
        (Some(path), _) => {
            let json = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace {path:?}: {e}"))?;
            Some(Trace::from_json(&json).map_err(|e| format!("bad trace {path:?}: {e}"))?)
        }
        (None, Some(path)) => {
            let mut generator = opts.workload.build(config.seed ^ 0x5eed);
            let t = Trace::record(generator.as_mut(), steps);
            std::fs::write(path, t.to_json())
                .map_err(|e| format!("cannot write trace {path:?}: {e}"))?;
            Some(t)
        }
        (None, None) => None,
    };
    let mut workload: Box<dyn rlb_core::Workload + Send> = match trace {
        Some(t) => {
            // Validate the trace against the chunk universe up front.
            for i in 0..t.len() {
                if let Some(&c) = t.step(i).iter().max() {
                    if c as usize >= config.num_chunks {
                        return Err(format!(
                            "trace step {i} references chunk {c} >= --chunks {}",
                            config.num_chunks
                        ));
                    }
                }
            }
            Box::new(OwnedReplayer { trace: t })
        }
        None => opts.workload.build(config.seed ^ 0x5eed),
    };
    let job = Drive {
        config: config.clone(),
        sink,
        workload: workload.as_mut(),
        steps,
    };
    with_policy(&opts.policy, config, job)
}

/// Runs the `trace` subcommand: the scenario described by the usual run
/// options, with the JSONL sink attached. The stream is written to
/// `--out PATH` (default `trace.jsonl`), then the *persisted file* is
/// parsed back and folded through the aggregator — so every invocation
/// exercises the full serialize → persist → parse → aggregate path —
/// and the per-class latency summary is appended to the report text.
///
/// # Errors
/// Returns a message on malformed arguments, an unwritable output path,
/// or a persisted stream that fails to re-parse or disagrees with the
/// engine's own report (both would be bugs, not user errors).
pub fn run_trace(args: &[String]) -> Result<String, String> {
    let RunArgs {
        opts,
        out: out_path,
        ..
    } = parse_run(args, TRACE)?;
    let (report, sink) = run_with_sink(&opts, rlb_trace::JsonlSink::new())?;
    std::fs::write(&out_path, sink.as_str())
        .map_err(|e| format!("cannot write {out_path:?}: {e}"))?;

    let persisted = std::fs::read_to_string(&out_path)
        .map_err(|e| format!("cannot re-read {out_path:?}: {e}"))?;
    let events = rlb_trace::parse_jsonl(&persisted)
        .map_err(|e| format!("persisted trace does not re-parse: {e}"))?;
    let mut agg = rlb_trace::Aggregator::new();
    for ev in &events {
        agg.ingest(ev);
    }
    if agg.completed() != report.completed || agg.enqueues() != report.accepted {
        return Err(format!(
            "trace disagrees with report: completed {} vs {}, enqueued {} vs {}",
            agg.completed(),
            report.completed,
            agg.enqueues(),
            report.accepted
        ));
    }

    let mut out = render_text(&opts, &report);
    out.push_str(&agg.summary_table().render());
    let _ = writeln!(
        out,
        "wrote {} events ({} bytes) to {}",
        events.len(),
        persisted.len(),
        out_path
    );
    Ok(out)
}

/// Renders a run report as the human-readable text block.
pub fn render_text(opts: &CliOptions, report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "policy {} | m={} n={} d={} g={} q={} | {} steps | workload {:?}",
        opts.policy,
        opts.config.num_servers,
        opts.config.num_chunks,
        opts.config.replication,
        opts.config.process_rate,
        opts.config.queue_capacity,
        report.steps,
        opts.workload,
    );
    let _ = writeln!(out, "arrived            {}", report.arrived);
    let _ = writeln!(
        out,
        "rejection rate     {:.3e}  (policy {}, table {}, overflow {}, flush {}, down {})",
        report.rejection_rate,
        report.rejected_policy,
        report.rejected_table,
        report.rejected_overflow,
        report.rejected_flush,
        report.rejected_down
    );
    let _ = writeln!(
        out,
        "latency steps      avg {:.3}  p99 {}  max {}",
        report.avg_latency, report.p99_latency, report.max_latency
    );
    let _ = writeln!(
        out,
        "backlog            mean {:.3}  max {}  within-step peak {}",
        report.mean_backlog, report.max_backlog, report.peak_backlog
    );
    let _ = writeln!(
        out,
        "safety (Def 3.2)   {}/{} samples violated  worst ratio {:.3}",
        report.safety_violations, report.safety_samples, report.worst_safety_ratio
    );
    out
}

/// `lint`'s parsed flags.
#[derive(Default)]
struct LintArgs {
    root: Option<String>,
    json: Option<Option<String>>,
    rules: Vec<String>,
}

/// A `lint` flag.
type LintFlag = Flag<LintArgs>;

const LINT_FLAGS: &[LintFlag] = &[
    LintFlag::value("--root PATH", |a, v| set(&mut a.root, Ok(Some(v.into()))))
        .help("workspace root holding crates/ (default .)"),
    LintFlag::optional("--json [PATH]", |a, v| {
        set(&mut a.json, Ok(Some(v.map(str::to_string))))
    })
    .help("machine-readable report: to stdout, or to PATH with the text summary on stdout"),
    LintFlag::value("--rule NAME", |a, name| {
        let known = rlb_lint::rules::all_rule_names();
        if !known.contains(&name) {
            return Err(format!(
                "unknown rule {name:?}; known rules: {}",
                known.join(", ")
            ));
        }
        a.rules.push(name.to_string());
        Ok(())
    })
    .help("keep only this rule's findings (repeatable); the exit status follows them"),
];

/// Runs the `lint` subcommand: the workspace's self-hosted static
/// analysis (`rlb-lint`) over every `crates/*/src` file, with
/// `crates/*/{tests,examples,benches}` and the root `tests/` as
/// reference material and `lint-roots.toml` as the panic-reachability
/// manifest. Returns the rendered report and whether the workspace is
/// clean; the binary exits nonzero on any finding.
///
/// # Errors
/// Returns a message on malformed arguments, an unknown `--rule` name
/// (listing the known rules), an unreadable tree, a malformed
/// `lint-roots.toml`, or an unwritable `--json` path (findings are
/// reported in the summary, not as errors).
pub fn run_lint(args: &[String]) -> Result<(String, bool), String> {
    let mut a = LintArgs::default();
    flags::parse("lint", &[LINT_FLAGS], args, &mut a)?;
    let root = a.root.as_deref().unwrap_or(".");
    let mut report = rlb_lint::lint_workspace(std::path::Path::new(root))?;
    if !a.rules.is_empty() {
        report
            .findings
            .retain(|f| a.rules.iter().any(|r| r == f.rule));
    }
    let out = match a.json {
        Some(Some(path)) => {
            std::fs::write(&path, report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            report.render()
        }
        Some(None) => report.to_json(),
        None => report.render(),
    };
    Ok((out, report.is_clean()))
}

/// `bench`'s parsed flags; `--suite` and `--meanfield` pick the gate.
#[derive(Default)]
struct BenchArgs {
    out: Option<String>,
    sizes: Option<Vec<usize>>,
    suite: bool,
    quick: bool,
    meanfield: bool,
}

/// A `bench` flag.
type BenchFlag = Flag<BenchArgs>;

const BENCH_FLAGS: &[BenchFlag] = &[
    BenchFlag::value("--out PATH", |a, v| set(&mut a.out, Ok(Some(v.into()))))
        .help("where to write the JSON record (default the gate's BENCH_*.json file)"),
    BenchFlag::value("--sizes M1,M2,...", |a, spec| {
        let sizes: Vec<usize> = spec
            .split(',')
            .map(|s| num(s.trim()))
            .collect::<Result<_, _>>()?;
        a.sizes = Some(sizes);
        Ok(())
    })
    .help("engine gate (BENCH_engine.json) cluster sizes (default 1024,8192,65536)"),
    BenchFlag::switch("--suite", |a| a.suite = true)
        .help("gate `experiments all`, serial vs default jobs (BENCH_experiments.json)"),
    BenchFlag::switch("--quick", |a| a.quick = true)
        .help("with --suite: time the quick suite (smoke runs, not for committing)"),
    BenchFlag::switch("--meanfield", |a| a.meanfield = true)
        .help("gate the solver-vs-engine speedup at m=65536, 100x floor (BENCH_meanfield.json)"),
];

/// Runs a perf gate and writes its results as JSON: the engine gate by
/// default, `--suite` for the experiment suite and `--meanfield` for
/// the mean-field solver. Returns the summary and whether the gate
/// passed (vacuously, with no baseline file to compare against).
fn run_bench(args: &[String]) -> Result<(String, bool), String> {
    let mut a = BenchArgs::default();
    flags::parse("bench", &[BENCH_FLAGS], args, &mut a)?;
    if a.suite && a.meanfield {
        return Err("--suite and --meanfield are mutually exclusive".into());
    }
    if a.quick && !a.suite {
        return Err("--quick requires --suite".into());
    }
    if a.sizes.is_some() && (a.suite || a.meanfield) {
        return Err("--sizes applies only to the engine gate".into());
    }
    let out = |default: &str| a.out.clone().unwrap_or_else(|| default.to_string());
    if a.suite {
        run_suite_bench(&out("BENCH_experiments.json"), a.quick)
    } else if a.meanfield {
        run_meanfield_bench(&out("BENCH_meanfield.json"))
    } else {
        let sizes = a.sizes.as_deref().unwrap_or(&rlb_bench::engine::GATE_SIZES);
        run_engine_bench(&out("BENCH_engine.json"), sizes)
    }
}

/// Writes a bench report to `path` as pretty JSON.
fn write_report<T: rlb_json::ToJson>(path: &str, report: &T) -> Result<(), String> {
    std::fs::write(path, rlb_json::to_string_pretty(report))
        .map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// The `  0.96x vs baseline` suffix of a gated row (empty without a
/// baseline entry).
fn vs_baseline(rows: &[GateRow], name: &str) -> String {
    rows.iter()
        .find(|g| g.name == name)
        .map(|g| format!("  {:>5.2}x vs baseline", g.ratio))
        .unwrap_or_default()
}

/// Appends the worst-ratio verdict line the engine and suite gates share
/// and returns whether the gate passed (vacuously, with no baseline).
fn gate_verdict(summary: &mut String, gate: &str, rows: &[GateRow]) -> bool {
    let Some(worst) = rows.iter().min_by(|a, b| a.ratio.total_cmp(&b.ratio)) else {
        return true;
    };
    let passed = worst.passes();
    let verdict = if passed { "PASS" } else { "FAIL" };
    let _ = writeln!(
        summary,
        "{gate} gate: worst ratio {:.2}x ({}) vs threshold {GATE_MIN_RATIO:.2}x -> {verdict}",
        worst.ratio, worst.name
    );
    passed
}

/// The engine perf gate: light/heavy/interleaved scenarios per size.
fn run_engine_bench(out_path: &str, sizes: &[usize]) -> Result<(String, bool), String> {
    use rlb_bench::engine::{compare_to_baseline, parse_baseline, run_gate};
    let report = run_gate(sizes);
    // Compare against the previous results before overwriting them: the
    // engine runs with tracing compiled out (the default `NoopSink`),
    // so this row-by-row ratio is the traced-off overhead gate.
    let rows = std::fs::read_to_string(out_path)
        .ok()
        .and_then(|old| parse_baseline(&old).ok())
        .map(|b| compare_to_baseline(&report, &b))
        .unwrap_or_default();
    write_report(out_path, &report)?;
    let mut summary = String::new();
    for r in &report.results {
        let _ = writeln!(
            summary,
            "{:<24} {:>12.1} steps/s  {:>14.1} requests/s{}",
            r.name,
            r.steps_per_sec,
            r.requests_per_sec,
            vs_baseline(&rows, &r.name)
        );
    }
    let passed = gate_verdict(&mut summary, "traced-off", &rows);
    let _ = writeln!(summary, "wrote {out_path}");
    Ok((summary, passed))
}

/// The mean-field speedup gate: steady-state solves across `m` plus the
/// solver-vs-engine comparison at `m = 65536`, against the committed
/// 100x floor.
fn run_meanfield_bench(out_path: &str) -> Result<(String, bool), String> {
    let report = rlb_bench::meanfield::run_gate();
    write_report(out_path, &report)?;
    let mut summary = String::new();
    for r in &report.results {
        let engine = if r.engine_steps > 0 {
            format!(
                "  engine {:>9.2} ms/{} steps  {:>8.0}x speedup",
                r.engine_nanos as f64 / 1e6,
                r.engine_steps,
                r.speedup
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            summary,
            "{:<20} depth {:>3}  solver {:>8.3} ms ({} iters){engine}",
            r.name,
            r.depth,
            r.solver_nanos as f64 / 1e6,
            r.iterations
        );
    }
    let passed = report.gate_passes();
    let verdict = if passed { "PASS" } else { "FAIL" };
    let _ = writeln!(
        summary,
        "meanfield gate: {:.0}x solver-vs-engine at m={} vs floor {:.0}x -> {verdict}",
        report.speedup,
        rlb_bench::meanfield::SPEEDUP_M,
        report.gate_min_speedup
    );
    let _ = writeln!(summary, "wrote {out_path}");
    Ok((summary, passed))
}

/// The experiment-suite wall-clock gate: the `experiments` binary
/// serial vs default-jobs (fastest of 3 full-suite runs each, as a
/// subprocess so the executor size can differ), against the previous
/// numbers in `out_path`.
fn run_suite_bench(out_path: &str, quick: bool) -> Result<(String, bool), String> {
    use rlb_bench::suite::{compare_to_baseline, parse_baseline, run_suite_gate};
    let bin = rlb_bench::suite::locate_experiments_bin()?;
    let report = run_suite_gate(&bin, quick)?;
    let rows = std::fs::read_to_string(out_path)
        .ok()
        .and_then(|old| parse_baseline(&old).ok())
        .map(|b| compare_to_baseline(&report, &b))
        .unwrap_or_default();
    write_report(out_path, &report)?;
    let mut summary = String::new();
    for r in &report.results {
        let _ = writeln!(
            summary,
            "{:<16} {:>8.2} s  fastest of {}{}",
            r.name,
            r.elapsed_nanos as f64 / 1e9,
            r.samples,
            vs_baseline(&rows, &r.name)
        );
    }
    let _ = writeln!(
        summary,
        "parallel speedup: {:.2}x over serial (default jobs = {})",
        report.speedup, report.default_jobs
    );
    let passed = gate_verdict(&mut summary, "suite", &rows);
    let _ = writeln!(summary, "wrote {out_path}");
    Ok((summary, passed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn defaults_parse_and_run() {
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts.policy, "greedy");
        assert_eq!(opts.config.num_servers, 1024);
    }

    #[test]
    fn full_option_set_parses() {
        let opts = parse_args(&args(
            "--policy dcr --servers 128 --replication 2 --rate 16 --queue 8 \
             --steps 50 --seed 7 --workload zipf:0.9,64 --interleaved --json",
        ))
        .unwrap();
        assert_eq!(opts.policy, "dcr");
        assert_eq!(opts.config.num_servers, 128);
        assert_eq!(opts.config.num_chunks, 512, "chunks default to 4m");
        assert_eq!(opts.config.drain_mode, DrainMode::Interleaved);
        assert!(opts.json);
        assert_eq!(
            opts.workload,
            WorkloadSpec::Zipf {
                universe: 512,
                per_step: 64,
                alpha: 0.9
            }
        );
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(parse_args(&args("--bogus")).is_err());
        assert!(parse_args(&args("--servers")).is_err());
        assert!(parse_args(&args("--servers abc")).is_err());
        assert!(parse_args(&args("--workload nope:1")).is_err());
        // Workload universe larger than the chunk space.
        assert!(parse_args(&args("--servers 8 --chunks 4 --workload repeated:100")).is_err());
    }

    #[test]
    fn numeric_errors_echo_the_offending_value() {
        // Regression: the old parse errors were static strings
        // ("--servers: not a number"), swallowing the input that failed.
        for (flag, bad) in [
            ("--servers", "1O24"),
            ("--chunks", "4k"),
            ("--replication", "two"),
            ("--rate", "16x"),
            ("--queue", "-1"),
            ("--steps", "10e3"),
            ("--seed", "0x2a"),
            ("--flush", "never"),
        ] {
            let err = parse_args(&args(&format!("{flag} {bad}"))).unwrap_err();
            assert!(err.contains(flag), "{flag}: error names the flag: {err}");
            assert!(err.contains(bad), "{flag}: error echoes {bad:?}: {err}");
        }
    }

    #[test]
    fn zero_values_are_rejected_at_parse_time() {
        // Regression: `--servers 0`, `--chunks 0`, and `--queue 0` used
        // to sail through parsing and only die in config validation
        // with a message naming the config field, not the flag typed.
        for flag in [
            "--servers",
            "--chunks",
            "--replication",
            "--rate",
            "--queue",
            "--flush",
        ] {
            let err = parse_args(&args(&format!("{flag} 0"))).unwrap_err();
            assert!(err.contains(flag), "{flag}: error names the flag: {err}");
            assert!(
                err.contains("positive") && err.contains('0'),
                "{flag}: error states the constraint and echoes the value: {err}"
            );
        }
        // Zero is fine where it is meaningful.
        assert!(parse_args(&args("--seed 0")).is_ok());
        assert!(parse_args(&args("--steps 0")).is_ok());
    }

    #[test]
    fn end_to_end_run_all_policies() {
        for policy in [
            "greedy",
            "delayed-cuckoo",
            "one-choice",
            "uniform-random",
            "round-robin",
            "step-isolated",
        ] {
            let opts = parse_args(&args(&format!(
                "--policy {policy} --servers 64 --steps 20 --workload repeated:64"
            )))
            .unwrap();
            let report = run(&opts).unwrap_or_else(|e| panic!("{policy}: {e}"));
            report.check_conservation().unwrap();
            assert_eq!(report.steps, 20);
            let text = render_text(&opts, &report);
            assert!(text.contains("rejection rate"));
        }
    }

    #[test]
    fn unknown_policy_is_an_error() {
        let mut opts = parse_args(&[]).unwrap();
        opts.policy = "wat".into();
        assert!(run(&opts).is_err());
    }

    #[test]
    fn dcr_requires_d2() {
        let opts =
            parse_args(&args("--policy dcr --servers 32 --replication 3 --steps 5")).unwrap();
        assert!(run(&opts).is_err());
    }

    #[test]
    fn json_report_is_valid() {
        let opts = parse_args(&args("--servers 32 --steps 10")).unwrap();
        let report = run(&opts).unwrap();
        let json = rlb_json::to_string(&report);
        let value = rlb_json::Json::parse(&json).unwrap();
        assert!(value.get("rejection_rate").is_some());
    }

    #[test]
    fn lint_rejects_unknown_rule_names_listing_the_known_ones() {
        // The unknown name is rejected before any filesystem work, and
        // the message lists every valid rule (the binary exits 2 on
        // this Err, same as any malformed option).
        let err = run_lint(&args("--rule no-such-rule")).unwrap_err();
        assert!(err.contains("unknown rule \"no-such-rule\""), "{err}");
        for rule in rlb_lint::rules::all_rule_names() {
            assert!(err.contains(rule), "rule {rule} missing from: {err}");
        }
        assert!(run_lint(&args("--rule")).is_err(), "bare --rule must fail");
    }

    #[test]
    fn lint_rule_filter_keeps_only_the_named_rules() {
        let dir = std::env::temp_dir().join("rlb_cli_lint_rule_test");
        let src_dir = dir.join("crates/seeded/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "pub fn nobody_calls_this() -> u32 {\n    1\n}\n",
        )
        .unwrap();
        let root = dir.to_str().unwrap().to_string();
        // Unfiltered: the dead-pub finding makes the run dirty.
        let (out, clean) = run_lint(&["--root".to_string(), root.clone()]).unwrap();
        assert!(!clean && out.contains("dead-pub"), "{out}");
        // Filtered to a rule with no findings: clean, nothing listed.
        let (out, clean) = run_lint(&[
            "--root".to_string(),
            root.clone(),
            "--rule".to_string(),
            "lock-order".to_string(),
        ])
        .unwrap();
        assert!(clean && !out.contains("dead-pub"), "{out}");
        // Filtered to the firing rule (repeated flag exercises the
        // repeatable path): still dirty.
        let (out, clean) = run_lint(&[
            "--root".to_string(),
            root,
            "--rule".to_string(),
            "lock-order".to_string(),
            "--rule".to_string(),
            "dead-pub".to_string(),
        ])
        .unwrap();
        assert!(!clean && out.contains("dead-pub"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn record_then_replay_reproduces_the_run() {
        let dir = std::env::temp_dir().join("rlb_cli_trace_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("trace.json");
        let path_str = path.to_str().unwrap().to_string();

        let mut rec_opts = parse_args(
            &[
                "--servers",
                "64",
                "--steps",
                "25",
                "--workload",
                "fresh:64",
                "--record-trace",
                &path_str,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        rec_opts.policy = "greedy".into();
        let recorded = run(&rec_opts).unwrap();

        let replay_opts = parse_args(
            &[
                "--servers",
                "64",
                "--steps",
                "25",
                "--replay-trace",
                &path_str,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let replayed = run(&replay_opts).unwrap();
        assert_eq!(recorded.arrived, replayed.arrived);
        assert_eq!(recorded.accepted, replayed.accepted);
        assert_eq!(recorded.completed, replayed.completed);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_of_missing_file_errors() {
        let mut opts = parse_args(&[]).unwrap();
        opts.replay_trace = Some("/nonexistent/definitely/missing.json".into());
        assert!(run(&opts).is_err());
    }

    #[test]
    fn config_file_is_loaded() {
        let dir = std::env::temp_dir().join("rlb_cli_cfg_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("cfg.json");
        let cfg = rlb_core::SimConfig::baseline(48).with_seed(9);
        std::fs::write(&path, rlb_json::to_string(&cfg)).unwrap();
        let opts = parse_args(
            &["--config", path.to_str().unwrap(), "--steps", "5"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(opts.config.num_servers, 48);
        assert_eq!(opts.config.seed, 9);
        let report = run(&opts).unwrap();
        assert_eq!(report.steps, 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_subcommand_round_trips_through_the_file() {
        let dir = std::env::temp_dir().join("rlb_cli_trace_sub_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("out.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let summary = run_trace(
            &[
                "--policy",
                "dcr",
                "--servers",
                "128",
                "--steps",
                "60",
                "--rate",
                "8",
                "--workload",
                "repeated:128",
                "--out",
                &path_str,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(summary.contains("trace summary"), "{summary}");
        assert!(summary.contains("rejection rate"), "{summary}");
        assert!(summary.contains(&path_str), "{summary}");
        let persisted = std::fs::read_to_string(&path).unwrap();
        let events = rlb_trace::parse_jsonl(&persisted).unwrap();
        assert!(!events.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn traced_run_matches_untraced_run() {
        let opts = parse_args(
            &["--servers", "64", "--steps", "30", "--flush", "10"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let untraced = run(&opts).unwrap();
        let (traced, sink) = run_with_sink(&opts, rlb_trace::JsonlSink::new()).unwrap();
        assert_eq!(
            rlb_json::to_string(&traced),
            rlb_json::to_string(&untraced),
            "tracing must not perturb the run"
        );
        assert!(sink.lines() > 0);
    }

    #[test]
    fn replay_rejects_out_of_universe_trace() {
        let dir = std::env::temp_dir().join("rlb_cli_trace_test2");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bad.json");
        let mut t = Trace::new();
        t.push_step(vec![999_999]);
        std::fs::write(&path, t.to_json()).unwrap();
        let mut opts = parse_args(
            &["--servers", "8", "--steps", "2"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        opts.replay_trace = Some(path.to_str().unwrap().to_string());
        assert!(run(&opts).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
