//! The `serve` and `load` subcommands: the serving layer's CLI.
//!
//! `rlb-sim serve` binds a TCP listener and runs the live daemon
//! ([`rlb_serve::serve_blocking`]); `rlb-sim load` drives a running
//! server over TCP ([`rlb_load::run_live`]). Both accept `--sim-clock`,
//! which runs the *same server core and client state machines* as a
//! virtual-time co-simulation over framed pipes
//! ([`rlb_load::run_sim`]) — no sockets, no wall clock, byte-identical
//! output for a fixed seed regardless of `--jobs` (the property
//! `rlb-load`'s golden test pins).

use crate::flags::{self, num, positive, set, Flag};
use crate::{with_policy, CliError, PolicyJob};
use rlb_core::{Policy, SimConfig};
use rlb_load::{run_live, run_sim, Client, ClientConfig, LiveSpec, Mode, Popularity, SimSpec};
use rlb_pool::Pool;
use rlb_serve::{serve_blocking, ServeConfig, ServeOptions, ServerCore};
use std::fmt::Write as _;

/// Parsed options shared by `serve` and `load` (the union: `--sim-clock`
/// runs the co-simulation, which needs both the engine and the load
/// shape; flags irrelevant to the chosen mode are simply unused).
#[derive(Debug, Clone)]
// return type of `parse_serve_load_args`. lint:allow(dead-pub)
pub struct ServeLoadOptions {
    /// Run the virtual-time co-simulation instead of touching TCP.
    pub sim_clock: bool,
    /// Listen address (`serve`) e.g. `127.0.0.1:7070`.
    pub listen: String,
    /// Connect address (`load`).
    pub connect: String,
    /// Routing policy name (same names as the top-level simulator).
    pub policy: String,
    /// Engine configuration (servers/chunks/replication/rate/queue/seed).
    pub engine: SimConfig,
    /// Admission gate limit; `None` = capacity-scaled default.
    pub gate: Option<u64>,
    /// Live serve: stop after this many responses.
    pub max_requests: Option<u64>,
    /// Executor size for the run's private pool.
    pub jobs: usize,
    /// Number of load clients.
    pub clients: usize,
    /// Requests per client.
    pub requests: u64,
    /// Issuing discipline.
    pub mode: Mode,
    /// Key popularity shape.
    pub popularity: Popularity,
    /// Fraction of requests that are puts.
    pub put_ratio: f64,
    /// Tenants to spread clients over (client `i` runs as `i % tenants`).
    pub tenants: u16,
    /// Master seed (client `i` derives its own stream from it).
    pub seed: u64,
    /// Sim-clock: ticks in the issue window.
    pub ticks: u64,
    /// Sim-clock: include the per-frame transcript in the output.
    pub transcript: bool,
    /// Live load: wall microseconds per open-loop tick.
    pub tick_micros: u64,
    /// Live load: abort after this many wall seconds.
    pub max_seconds: u64,
}

impl Default for ServeLoadOptions {
    fn default() -> Self {
        let servers = 64;
        Self {
            sim_clock: false,
            listen: "127.0.0.1:7070".into(),
            connect: "127.0.0.1:7070".into(),
            policy: "greedy".into(),
            engine: SimConfig::baseline(servers),
            gate: None,
            max_requests: None,
            jobs: rlb_pool::default_jobs(),
            clients: 4,
            requests: 256,
            mode: Mode::Closed { concurrency: 8 },
            popularity: Popularity::Zipf {
                alpha: 1.1,
                universe: 1024,
            },
            put_ratio: 0.25,
            tenants: 2,
            seed: 0,
            ticks: 64,
            transcript: false,
            tick_micros: 1000,
            max_seconds: 30,
        }
    }
}

impl AsMut<SimConfig> for ServeLoadOptions {
    fn as_mut(&mut self) -> &mut SimConfig {
        &mut self.engine
    }
}

/// Parses `open:RATE` / `closed:K`.
fn parse_mode(spec: &str) -> Result<Mode, String> {
    match spec.split_once(':') {
        Some(("open", rate)) => Ok(Mode::Open {
            rate: flags::float(rate, "a positive rate", |r| r > 0.0)?,
        }),
        Some(("closed", k)) => Ok(Mode::Closed {
            concurrency: positive(k)?,
        }),
        _ => Err(format!("expected open:RATE or closed:K, got {spec:?}")),
    }
}

/// Parses `uniform:U` / `zipf:ALPHA,U` / `phased:W,K,T,U`.
fn parse_popularity(spec: &str) -> Result<Popularity, String> {
    let err = || format!("expected uniform:U | zipf:ALPHA,U | phased:W,K,T,U, got {spec:?}");
    let (kind, args) = spec.split_once(':').ok_or_else(err)?;
    let parts: Vec<&str> = args.split(',').collect();
    match (kind, parts.as_slice()) {
        ("uniform", [u]) => Ok(Popularity::Uniform {
            universe: positive(u)?,
        }),
        ("zipf", [alpha, u]) => Ok(Popularity::Zipf {
            alpha: num(alpha)?,
            universe: positive(u)?,
        }),
        ("phased", [w, k, t, u]) => Ok(Popularity::Phased {
            sets: positive(w)?,
            set_size: positive(k)?,
            ticks_per_phase: positive(t)?,
            universe: positive(u)?,
        }),
        _ => Err(err()),
    }
}

/// A `serve`/`load` flag.
type ServeLoadFlag = Flag<ServeLoadOptions>;

/// The serve/load flags besides the engine ones. Both subcommands
/// accept all of them; each mode reads the ones it needs.
const SERVE_LOAD_FLAGS: &[ServeLoadFlag] = &[
    ServeLoadFlag::switch("--sim-clock", |o| o.sim_clock = true)
        .help("run the deterministic virtual-time serve+load co-simulation"),
    ServeLoadFlag::value("--listen ADDR", |o, v| set(&mut o.listen, Ok(v.into())))
        .help("serve: address to bind (default 127.0.0.1:7070; port 0 picks one)"),
    ServeLoadFlag::value("--connect ADDR", |o, v| set(&mut o.connect, Ok(v.into())))
        .help("load: server address (default 127.0.0.1:7070)"),
    ServeLoadFlag::value("--policy NAME", |o, v| set(&mut o.policy, Ok(v.into())))
        .help("routing policy, as for the top-level run (default greedy)"),
    ServeLoadFlag::value("--gate L", |o, v| set(&mut o.gate, positive(v).map(Some)))
        .help("admission limit on requests in flight (default 4·m·g)"),
    ServeLoadFlag::value("--max-requests N", |o, v| {
        set(&mut o.max_requests, positive(v).map(Some))
    })
    .help("serve: stop after N responses (default: run until killed)"),
    ServeLoadFlag::value("--jobs J", |o, v| set(&mut o.jobs, positive(v)))
        .help("executor threads (default RLB_JOBS or all cores)"),
    ServeLoadFlag::value("--clients C", |o, v| set(&mut o.clients, positive(v)))
        .help("load clients (default 4)"),
    ServeLoadFlag::value("--requests N", |o, v| set(&mut o.requests, positive(v)))
        .help("requests per client (default 256)"),
    ServeLoadFlag::value("--mode open:R|closed:K", |o, v| {
        set(&mut o.mode, parse_mode(v))
    })
    .help("open loop at R requests per tick, or K in flight (default closed:8)"),
    ServeLoadFlag::value("--popularity SHAPE", |o, v| {
        set(&mut o.popularity, parse_popularity(v))
    })
    .help("uniform:U | zipf:ALPHA,U | phased:W,K,T,U (default zipf:1.1,1024)"),
    ServeLoadFlag::value("--put-ratio F", |o, v| {
        set(
            &mut o.put_ratio,
            flags::float(v, "in [0,1]", |r| (0.0..=1.0).contains(&r)),
        )
    })
    .help("fraction of requests that are puts (default 0.25)"),
    ServeLoadFlag::value("--tenants T", |o, v| set(&mut o.tenants, positive(v)))
        .help("tenants the clients are spread over (default 2)"),
    ServeLoadFlag::value("--ticks T", |o, v| set(&mut o.ticks, positive(v)))
        .help("sim-clock: ticks in the issue window (default 64)"),
    ServeLoadFlag::switch("--transcript", |o| o.transcript = true)
        .help("sim-clock: print the per-frame transcript"),
    ServeLoadFlag::value("--tick-micros U", |o, v| {
        set(&mut o.tick_micros, positive(v))
    })
    .help("live load: wall microseconds per open-loop tick (default 1000)"),
    ServeLoadFlag::value("--max-seconds S", |o, v| {
        set(&mut o.max_seconds, positive(v))
    })
    .help("live load: give up after S wall seconds (default 30)"),
];

/// Every serve/load flag table.
const SERVE_LOAD: &[&[ServeLoadFlag]] = &[&Flag::ENGINE, SERVE_LOAD_FLAGS];

/// The serve/load flag list for `--help`.
pub(crate) fn help() -> String {
    flags::render(SERVE_LOAD) + &flags::engine_defaults(&ServeLoadOptions::default().engine)
}

/// Parses the shared serve/load flag set.
///
/// # Errors
/// Returns a usage-style message on malformed input.
pub fn parse_serve_load_args(args: &[String]) -> Result<ServeLoadOptions, String> {
    let mut opts = ServeLoadOptions::default();
    let seen = flags::parse("serve/load", SERVE_LOAD, args, &mut opts)?;
    flags::default_chunks(&mut opts.engine, &seen);
    opts.engine.validate()?;
    opts.seed = opts.engine.seed;
    Ok(opts)
}

impl ServeLoadOptions {
    fn serve_config(&self) -> ServeConfig {
        let gate_limit = self.gate.unwrap_or_else(|| {
            (self.engine.num_servers as u64) * u64::from(self.engine.process_rate) * 4
        });
        ServeConfig {
            engine: self.engine.clone(),
            gate_limit,
        }
    }

    /// Builds the client fleet the load side runs (used by both the
    /// sim-clock co-simulation and the live generator).
    fn client_configs(&self) -> Vec<ClientConfig> {
        (0..self.clients)
            .map(|i| ClientConfig {
                tenant: (i as u16) % self.tenants.max(1),
                mode: self.mode.clone(),
                popularity: self.popularity.clone(),
                put_ratio: self.put_ratio,
                total_requests: self.requests,
                seed: self.seed ^ rlb_hash::mix::fmix64(0x10ad ^ i as u64),
            })
            .collect()
    }
}

/// A [`ServerCore`] run once its policy is built: the sim-clock
/// co-simulation, or the live daemon when given a bound listener.
struct CoreJob<'a> {
    opts: &'a ServeLoadOptions,
    pool: &'a Pool,
    listener: Option<std::net::TcpListener>,
}

impl PolicyJob for CoreJob<'_> {
    type Output = Result<String, String>;

    fn run<P: Policy>(self, policy: P) -> Self::Output {
        let (opts, pool) = (self.opts, self.pool);
        let core = ServerCore::new(opts.serve_config(), policy);
        let Some(listener) = self.listener else {
            let clients = opts.client_configs().into_iter().map(Client::new).collect();
            let spec = SimSpec {
                ticks: opts.ticks,
                transcript: opts.transcript,
            };
            return Ok(run_sim(core, clients, &spec, pool).text);
        };
        let serve_opts = ServeOptions {
            max_requests: opts.max_requests,
            ..Default::default()
        };
        let outcome =
            serve_blocking(listener, core, &serve_opts, pool).map_err(|e| format!("serve: {e}"))?;
        Ok(format!(
            "served {} responses over {} sessions\n{}",
            outcome.responses, outcome.sessions, outcome.summary
        ))
    }
}

/// Runs the `serve` subcommand. Live mode binds `--listen` and serves
/// until `--max-requests` responses have been sent (without it, until
/// the process is killed); `--sim-clock` runs the co-simulation and
/// prints its deterministic transcript/report instead.
///
/// # Errors
/// Returns a message on malformed arguments, an unbindable listen
/// address, or a policy/config mismatch.
pub fn run_serve(args: &[String]) -> Result<String, String> {
    let opts = parse_serve_load_args(args)?;
    let pool = Pool::new(opts.jobs);
    let listener = if opts.sim_clock {
        None
    } else {
        let listener = std::net::TcpListener::bind(&opts.listen)
            .map_err(|e| format!("cannot bind {}: {e}", opts.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        eprintln!("rlb-serve: listening on {addr} (policy {})", opts.policy);
        Some(listener)
    };
    let job = CoreJob {
        opts: &opts,
        pool: &pool,
        listener,
    };
    with_policy(&opts.policy, &opts.engine, job)?
}

/// Runs the `load` subcommand. Live mode connects every client to
/// `--connect` and reports wall-clock latency (unit: tens of
/// microseconds); `--sim-clock` runs the co-simulation instead.
///
/// # Errors
/// A malformed argument is a usage error (exit 2); a policy/config
/// mismatch or any client failing to run cleanly fails the run (exit 1;
/// partial results are still reported first).
pub fn run_load(args: &[String]) -> Result<String, CliError> {
    let opts = parse_serve_load_args(args)?;
    let failed = |message| CliError { code: 1, message };
    let pool = Pool::new(opts.jobs.max(opts.clients));
    if opts.sim_clock {
        let job = CoreJob {
            opts: &opts,
            pool: &pool,
            listener: None,
        };
        return with_policy(&opts.policy, &opts.engine, job)
            .and_then(|text| text)
            .map_err(failed);
    }
    let spec = LiveSpec {
        addr: opts.connect.clone(),
        tick_micros: opts.tick_micros,
        max_seconds: opts.max_seconds,
    };
    let results = run_live(opts.client_configs(), &spec, &pool);
    let report = rlb_load::aggregate(&results);
    let mut out = report.render("10us");
    let mut failures = 0;
    for (i, r) in results.iter().enumerate() {
        if let Some(e) = &r.error {
            let _ = writeln!(out, "client {i}: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        print!("{out}");
        return Err(failed(format!(
            "{failures} of {} clients failed",
            results.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|w| w.to_string()).collect()
    }

    #[test]
    fn defaults_parse() {
        let opts = parse_serve_load_args(&[]).unwrap();
        assert!(!opts.sim_clock);
        assert_eq!(opts.policy, "greedy");
        assert_eq!(opts.engine.num_servers, 64);
        assert_eq!(opts.engine.num_chunks, 256);
    }

    #[test]
    fn full_flag_set_parses() {
        let opts = parse_serve_load_args(&args(
            "--sim-clock --policy dcr --servers 32 --rate 8 --queue 8 --seed 9 \
             --gate 100 --jobs 2 --clients 3 --requests 50 --mode open:1.5 \
             --popularity phased:4,8,10,512 --put-ratio 0.5 --tenants 3 \
             --ticks 40 --transcript",
        ))
        .unwrap();
        assert!(opts.sim_clock && opts.transcript);
        assert_eq!(opts.engine.num_chunks, 128, "chunks default to 4m");
        assert_eq!(opts.gate, Some(100));
        assert_eq!(opts.mode, Mode::Open { rate: 1.5 });
        assert_eq!(
            opts.popularity,
            Popularity::Phased {
                sets: 4,
                set_size: 8,
                ticks_per_phase: 10,
                universe: 512
            }
        );
        assert_eq!(opts.seed, 9, "master seed follows the engine seed");
    }

    #[test]
    fn bad_input_is_rejected() {
        for bad in [
            "--bogus",
            "--servers 0",
            "--mode sometimes:3",
            "--mode open:-1",
            "--mode closed:0",
            "--popularity zipf:1.1",
            "--popularity phased:1,2,3",
            "--put-ratio 1.5",
            "--jobs 0",
        ] {
            assert!(parse_serve_load_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn client_fleet_spreads_tenants_and_seeds() {
        let mut opts = parse_serve_load_args(&args("--clients 4 --tenants 2 --seed 5")).unwrap();
        opts.requests = 10;
        let cfgs = opts.client_configs();
        assert_eq!(cfgs.len(), 4);
        assert_eq!(
            cfgs.iter().map(|c| c.tenant).collect::<Vec<_>>(),
            vec![0, 1, 0, 1]
        );
        let mut seeds: Vec<u64> = cfgs.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "every client gets a distinct seed");
    }

    #[test]
    fn sim_clock_serve_runs_all_policies_deterministically() {
        for policy in [
            "greedy",
            "delayed-cuckoo",
            "one-choice",
            "uniform-random",
            "round-robin",
            "step-isolated",
        ] {
            let a = run_serve(&args(&format!(
                "--sim-clock --policy {policy} --servers 16 --clients 2 \
                 --requests 20 --ticks 16 --jobs 1"
            )))
            .unwrap_or_else(|e| panic!("{policy}: {e}"));
            let b = run_serve(&args(&format!(
                "--sim-clock --policy {policy} --servers 16 --clients 2 \
                 --requests 20 --ticks 16 --jobs 3"
            )))
            .unwrap_or_else(|e| panic!("{policy}: {e}"));
            assert_eq!(a, b, "{policy}: sim-clock output depends on --jobs");
            assert!(a.contains("clients: sent="), "{policy}:\n{a}");
            assert!(a.contains("server: replies="), "{policy}:\n{a}");
        }
    }

    #[test]
    fn sim_clock_load_matches_sim_clock_serve() {
        let flags = "--sim-clock --servers 16 --clients 2 --requests 15 --ticks 12";
        let via_serve = run_serve(&args(flags)).unwrap();
        let via_load = run_load(&args(flags)).unwrap();
        assert_eq!(via_serve, via_load, "both subcommands run the same co-sim");
    }

    #[test]
    fn dcr_requires_d2() {
        let err = run_serve(&args("--sim-clock --policy dcr --replication 3")).unwrap_err();
        assert!(err.contains("replication 2"), "{err}");
    }
}
