//! `perfbench`: one benchmark for the engine, the serving daemon and the
//! experiment suite. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --root DIR --work DIR --sim PATH --experiments PATH
//! ```
//!
//! Prints notes, one `name = value unit` line per metric, and, as the
//! last line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when a correctness check failed, 2 on bad usage.

mod engine;
mod measure;
mod serve;
mod suite;

use std::path::PathBuf;

use measure::Outcome;

/// The end-to-end metrics every untraced run prints, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
];

/// The per-layer metrics every traced run prints besides one
/// `suite.<id>_s` per registry entry. A workload that does not run a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 24] = [
    ("workloads.gen_ns_per_req", "ns"),
    ("core.route_ns_per_req", "ns"),
    ("core.policy_hooks_ns_per_step", "ns"),
    ("core.engine_self_ns_per_req", "ns"),
    ("core.step_us_p50", "us"),
    ("core.step_us_p99", "us"),
    ("core.occupied_servers_per_step", "count"),
    ("core.arrived", "count"),
    ("core.accepted", "count"),
    ("core.rejected", "count"),
    ("core.completed", "count"),
    ("serve.server_cpu_us_per_req", "us"),
    ("serve.reactor_busy_share", "ratio"),
    ("serve.server_ctx_switches_per_req", "count"),
    ("serve.proto.encode_ns_per_frame", "ns"),
    ("serve.proto.decode_ns_per_frame", "ns"),
    ("serve.wire.client_read_ns_per_frame", "ns"),
    ("serve.wire.client_write_ns_per_frame", "ns"),
    ("serve.core.on_frame_ns", "ns"),
    ("serve.core.tick_ns_per_req", "ns"),
    ("serve.core.reqs_per_tick", "count"),
    ("load.gen_lag_p99_us", "us"),
    ("suite.critical_path_s", "s"),
    ("suite.pool_busy_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    work: PathBuf,
    sim: PathBuf,
    experiments: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        let raw = value(flag)?;
        raw.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag}: not a non-negative number: {raw:?}"))
    };
    let seconds = number("--seconds")?;
    if seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed: not an unsigned integer".to_string())?,
        seconds,
        trace,
        root: value("--root")?.into(),
        work: value("--work")?.into(),
        sim: value("--sim")?.into(),
        experiments: value("--experiments")?.into(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::new();
    out.note(measure::host_facts());
    out.note(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    match args.workload.as_str() {
        "engine-dense" => engine::run(
            &engine::DENSE,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "engine-sparse" => engine::run(
            &engine::SPARSE,
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "serve-loopback" => serve::run(&args.sim, args.seed, args.seconds, args.trace, &mut out),
        "suite-full" => suite::run(
            &args.experiments,
            &args.root,
            &args.work,
            args.seconds,
            args.trace,
            &mut out,
        ),
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} \
                 (engine-dense, engine-sparse, serve-loopback, suite-full)"
            );
            std::process::exit(2);
        }
    }
    if args.trace {
        let mut names: Vec<(String, &'static str)> =
            PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        names.extend(
            rlb_experiments::registry()
                .iter()
                .map(|&(id, _, _)| (format!("suite.{id}_s"), "s")),
        );
        names.push(("trace.overhead_ratio".into(), "ratio"));
        out.complete(&names, true);
    } else {
        let names: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        out.complete(&names, false);
    }
    out.attempted = out.attempted.max(1);
    out.note(format!(
        "failed_ratio = {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    ));
    out.print();
    if !out.correct {
        std::process::exit(1);
    }
}
