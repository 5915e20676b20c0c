//! The exit-code contract of the built `rlb-sim` binary: 0 for success
//! and `--help`, 1 for a run that failed, 2 for a usage error that names
//! the flag. Also pins every entry point's accepted flag set, read back
//! from its `--help`, which is rendered from the parser's own tables.

use std::collections::BTreeSet;
use std::process::{Command, Output};

fn rlb_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlb-sim"))
        .args(args)
        .output()
        .expect("run rlb-sim")
}

/// Each entry point (the top level is `""`), one of its value flags,
/// and every flag it accepted before the flag tables replaced the
/// hand-written parsers.
const ENTRY_POINTS: &[(&str, &str, &[&str])] = &[
    (
        "",
        "--servers",
        &[
            "--policy",
            "--config",
            "--servers",
            "--chunks",
            "--replication",
            "--rate",
            "--queue",
            "--steps",
            "--seed",
            "--flush",
            "--workload",
            "--record-trace",
            "--replay-trace",
            "--interleaved",
            "--json",
        ],
    ),
    (
        "bench",
        "--out",
        &["--out", "--sizes", "--suite", "--quick", "--meanfield"],
    ),
    (
        "fastforward",
        "--m",
        &[
            "--m",
            "--rate",
            "--queue",
            "--uncapped",
            "--lambda",
            "--per-step",
            "--replication",
            "--policy",
            "--mode",
            "--phases",
            "--damping",
            "--tolerance",
            "--max-iters",
            "--euler-dt",
            "--json",
        ],
    ),
    (
        "trace",
        "--out",
        &[
            "--policy",
            "--config",
            "--servers",
            "--chunks",
            "--replication",
            "--rate",
            "--queue",
            "--steps",
            "--seed",
            "--flush",
            "--workload",
            "--record-trace",
            "--replay-trace",
            "--interleaved",
            "--json",
            "--out",
        ],
    ),
    ("serve", "--listen", SERVE_LOAD_FLAGS),
    ("load", "--clients", SERVE_LOAD_FLAGS),
    ("lint", "--root", &["--root", "--json", "--rule"]),
];

const SERVE_LOAD_FLAGS: &[&str] = &[
    "--sim-clock",
    "--listen",
    "--connect",
    "--policy",
    "--servers",
    "--chunks",
    "--replication",
    "--rate",
    "--queue",
    "--seed",
    "--gate",
    "--max-requests",
    "--jobs",
    "--clients",
    "--requests",
    "--mode",
    "--popularity",
    "--put-ratio",
    "--tenants",
    "--ticks",
    "--transcript",
    "--tick-micros",
    "--max-seconds",
];

/// The command line for `sub` followed by `rest`.
fn with_sub<'a>(sub: &'a str, rest: &[&'a str]) -> Vec<&'a str> {
    let mut args: Vec<&str> = if sub.is_empty() { vec![] } else { vec![sub] };
    args.extend_from_slice(rest);
    args
}

#[test]
fn help_exits_zero_and_lists_exactly_the_accepted_flags() {
    for &(sub, _, accepted) in ENTRY_POINTS {
        for help in ["--help", "-h"] {
            let out = rlb_sim(&with_sub(sub, &[help]));
            assert_eq!(out.status.code(), Some(0), "{sub} {help}");
            let text = String::from_utf8(out.stdout).expect("utf-8 help");
            let listed: BTreeSet<&str> = text
                .lines()
                .take_while(|l| !l.starts_with("subcommands"))
                .filter_map(|l| l.split_whitespace().next())
                .filter(|w| w.starts_with("--"))
                .collect();
            let want: BTreeSet<&str> = accepted.iter().copied().collect();
            assert_eq!(listed, want, "{sub} --help:\n{text}");
        }
    }
}

#[test]
fn top_level_help_lists_every_subcommand() {
    let text = String::from_utf8(rlb_sim(&["--help"]).stdout).expect("utf-8 help");
    for &(sub, _, _) in &ENTRY_POINTS[1..] {
        assert!(
            text.contains(&format!("\n  {sub} ")),
            "{sub} missing:\n{text}"
        );
    }
}

#[test]
fn usage_errors_exit_two_and_name_the_flag() {
    for &(sub, value_flag, _) in ENTRY_POINTS {
        let out = rlb_sim(&with_sub(sub, &["--no-such-flag"]));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub} unknown flag: {err}");
        assert!(err.contains("--no-such-flag"), "{sub}: {err}");

        let out = rlb_sim(&with_sub(sub, &[value_flag]));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub} {value_flag}: {err}");
        assert!(err.contains(value_flag), "{sub}: {err}");
    }
}

#[test]
fn unconverged_fastforward_exits_one() {
    let out = rlb_sim(&["fastforward", "--max-iters", "1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("NOT CONVERGED"));
}

#[test]
fn load_against_a_closed_port_exits_one() {
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("local addr").port()
    };
    let addr = format!("127.0.0.1:{port}");
    let out = rlb_sim(&[
        "load",
        "--connect",
        &addr,
        "--clients",
        "1",
        "--requests",
        "1",
        "--max-seconds",
        "5",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("1 of 1 clients failed"), "{err}");
}
