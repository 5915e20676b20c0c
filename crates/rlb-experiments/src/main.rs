//! Experiment harness CLI.
//!
//! Usage is printed by `--help` and derived from the registry (see
//! [`rlb_experiments::usage`]), so the id range in the docs cannot rot
//! as experiments are added.
//!
//! Selected experiments run concurrently on the [`rlb_pool`] executor;
//! every experiment's output is buffered and emitted in registry order,
//! so stdout (text or `--json`) and `--out-dir` files are byte-identical
//! to a serial run — `--jobs` only changes wall-clock. Exits non-zero if
//! any shape check fails.

use rlb_experiments::{registry, usage, ExperimentEntry};

/// The parsed command line.
struct Args {
    quick: bool,
    json: bool,
    out_dir: Option<String>,
    jobs: Option<usize>,
    /// Experiment ids (lowercased) or `all`.
    wanted: Vec<String>,
}

/// Parses the arguments after the program name. An unknown flag, or a
/// flag missing its value, is a usage error that names the flag.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        json: false,
        out_dir: None,
        jobs: None,
        wanted: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = true,
            "--out-dir" => match it.next() {
                Some(dir) if !dir.starts_with("--") => parsed.out_dir = Some(dir.clone()),
                _ => return Err("--out-dir expects a directory, but no value followed it".into()),
            },
            "--jobs" => {
                let Some(raw) = it.next() else {
                    return Err(
                        "--jobs expects a positive integer, but no value followed it".into(),
                    );
                };
                match raw.parse::<usize>() {
                    Ok(jobs) if jobs >= 1 => parsed.jobs = Some(jobs),
                    _ => return Err(format!("--jobs expects a positive integer, got {raw:?}")),
                }
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option {flag:?} (see --help)"));
            }
            id => parsed.wanted.push(id.to_lowercase()),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let usage_error = |e: String| -> ! {
        eprintln!("{e}");
        std::process::exit(2);
    };
    let Args {
        quick,
        json,
        out_dir,
        jobs,
        wanted,
    } = parse_args(&args).unwrap_or_else(|e| usage_error(e));
    if let Some(jobs) = jobs {
        rlb_pool::set_global_jobs(jobs);
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage_error(format!("--out-dir: cannot create {dir:?}: {e}"));
        }
    }
    let run_all = wanted.is_empty() || wanted.iter().any(|w| w == "all");

    let reg = registry();
    let selected: Vec<ExperimentEntry> = reg
        .iter()
        .filter(|(id, _, _)| run_all || wanted.iter().any(|w| w == id))
        .copied()
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no matching experiments; known ids: {}",
            reg.iter()
                .map(|&(id, _, _)| id)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }

    // Run experiments as pool jobs. Progress lines go to stderr from
    // inside each job (their interleaving is the one thing that may
    // differ from a serial run); results come back in registry order
    // and all stdout/--out-dir emission below is serial, so the
    // user-visible output is byte-identical for any --jobs value.
    let entries = selected.clone();
    let collected = rlb_pool::global().map_indexed(entries.len(), move |idx| {
        let (id, title, runner) = entries[idx];
        eprintln!(
            "running {id}: {title}{}",
            if quick { " (quick)" } else { "" }
        );
        // Wall-clock progress display only; never feeds results.
        // lint:allow(determinism)
        let started = std::time::Instant::now();
        let out = runner(quick);
        eprintln!("{id} finished in {:.1?}", started.elapsed());
        out
    });

    let mut failures = 0usize;
    for ((id, _, _), out) in selected.iter().zip(&collected) {
        if !json {
            println!("{}", out.render());
        }
        if let Some(dir) = &out_dir {
            let txt = format!("{dir}/{id}.txt");
            std::fs::write(&txt, out.render()).expect("write .txt output");
            let js = format!("{dir}/{id}.json");
            std::fs::write(&js, rlb_json::to_string_pretty(out)).expect("write .json output");
        }
        if !out.all_passed() {
            failures += 1;
        }
    }
    if json {
        println!("{}", rlb_json::to_string_pretty(&collected));
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) had failing shape checks");
        std::process::exit(1);
    }
}
