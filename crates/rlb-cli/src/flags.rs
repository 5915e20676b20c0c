//! The one flag parser behind every `rlb-sim` entry point.
//!
//! A subcommand declares its flags as tables of [`Flag`] entries (the
//! flag with its operand, a setter, one help line) and [`parse`] walks
//! the arguments against them. `--help` is rendered from the same
//! tables by [`render`], so the usage text cannot drift from what the
//! parser accepts. Rules that tie flags together (exclusive pairs,
//! defaults that depend on another flag) stay with each subcommand, as
//! checks after parsing.

use rlb_core::SimConfig;
use std::fmt::Write as _;

/// A setter's result: `Err` holds the reason, without the flag name
/// ([`parse`] prefixes it).
pub(crate) type SetResult = Result<(), String>;

/// What follows a flag's name, with the setter that applies it.
enum Arg<O> {
    Switch(fn(&mut O)),
    Value(fn(&mut O, &str) -> SetResult),
    /// The next argument unless it starts with `--`.
    Optional(fn(&mut O, Option<&str>) -> SetResult),
}

/// One accepted flag.
pub(crate) struct Flag<O> {
    /// The flag and its operand as `--help` shows them, e.g.
    /// `--servers M`; the flag is the first word.
    usage: &'static str,
    arg: Arg<O>,
    help: &'static str,
}

impl<O> Flag<O> {
    /// A bare switch.
    pub(crate) const fn switch(usage: &'static str, set: fn(&mut O)) -> Self {
        Self::new(usage, Arg::Switch(set))
    }

    /// A flag that takes the next argument as its value.
    pub(crate) const fn value(usage: &'static str, set: fn(&mut O, &str) -> SetResult) -> Self {
        Self::new(usage, Arg::Value(set))
    }

    /// A flag whose value may be left out.
    pub(crate) const fn optional(
        usage: &'static str,
        set: fn(&mut O, Option<&str>) -> SetResult,
    ) -> Self {
        Self::new(usage, Arg::Optional(set))
    }

    const fn new(usage: &'static str, arg: Arg<O>) -> Self {
        Self {
            usage,
            arg,
            help: "",
        }
    }

    /// Sets the help line.
    pub(crate) const fn help(self, help: &'static str) -> Self {
        Self { help, ..self }
    }

    /// The flag as typed, e.g. `--servers`.
    pub(crate) fn name(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or(self.usage)
    }
}

/// Stores a parsed value in its field: the body of most setters.
pub(crate) fn set<T>(field: &mut T, value: Result<T, String>) -> SetResult {
    *field = value?;
    Ok(())
}

/// Parses `args` into `opts` against `tables`, returning the names of
/// the flags given, in order. `what` names the subcommand in the
/// unknown-flag message (empty for the top level).
///
/// Every error names the flag; a setter's error also echoes the value.
pub(crate) fn parse<O>(
    what: &str,
    tables: &[&[Flag<O>]],
    args: &[String],
    opts: &mut O,
) -> Result<Vec<&'static str>, String> {
    let mut seen = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let flag = tables
            .iter()
            .flat_map(|t| t.iter())
            .find(|f| f.name() == arg)
            .ok_or_else(|| match what {
                "" => format!("unknown option {arg:?}"),
                _ => format!("unknown {what} option {arg:?}"),
            })?;
        let set = match flag.arg {
            Arg::Switch(set) => {
                set(opts);
                Ok(())
            }
            Arg::Value(set) => match it.next() {
                Some(value) => set(opts, value),
                None => {
                    let metavar = flag.usage.split_once(' ').map_or("", |(_, m)| m);
                    return Err(format!("{} requires a value ({metavar})", flag.name()));
                }
            },
            Arg::Optional(set) => set(
                opts,
                it.next_if(|a| !a.starts_with("--")).map(|a| a.as_str()),
            ),
        };
        set.map_err(|e| format!("{}: {e}", flag.name()))?;
        seen.push(flag.name());
    }
    Ok(seen)
}

/// Renders the flag list of `tables` for `--help`, one flag a line.
pub(crate) fn render<O>(tables: &[&[Flag<O>]]) -> String {
    let flags = || tables.iter().flat_map(|t| t.iter());
    let width = flags().map(|f| f.usage.len()).max().unwrap_or(0);
    // A help text's own line breaks continue in the help column.
    let indent = format!("\n{:width$}    ", "");
    let mut out = String::new();
    for f in flags() {
        let help = f.help.replace('\n', &indent);
        let _ = writeln!(out, "  {:<width$}  {help}", f.usage);
    }
    out
}

/// Parses a number, echoing the input on failure.
pub(crate) fn num<T: std::str::FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("not a number: {raw:?}"))
}

/// Like [`num`], additionally rejecting zero: `--servers 0` and its
/// kin would otherwise die later as a constructor panic or run a
/// silently useless configuration.
pub(crate) fn positive<T: std::str::FromStr + PartialEq + From<u8>>(
    raw: &str,
) -> Result<T, String> {
    let v: T = num(raw)?;
    if v == T::from(0u8) {
        return Err(format!("must be positive, got {raw:?}"));
    }
    Ok(v)
}

/// Parses a finite float that satisfies `ok`, stated as `want` in the
/// error.
pub(crate) fn float(raw: &str, want: &str, ok: fn(f64) -> bool) -> Result<f64, String> {
    let x: f64 = num(raw)?;
    if !(x.is_finite() && ok(x)) {
        return Err(format!("must be {want}, got {raw:?}"));
    }
    Ok(x)
}

impl<O: AsMut<SimConfig>> Flag<O> {
    /// The engine flags `run`, `trace`, `serve` and `load` share: the
    /// paper's m, n, d, g, q and the master seed.
    pub(crate) const ENGINE: [Self; 6] = [
        Self::value("--servers M", |o, v| {
            set(&mut o.as_mut().num_servers, positive(v))
        })
        .help("cluster size m"),
        Self::value("--chunks N", |o, v| {
            set(&mut o.as_mut().num_chunks, positive(v))
        })
        .help("chunk universe n (default 4m)"),
        Self::value("--replication D", |o, v| {
            set(&mut o.as_mut().replication, positive(v))
        })
        .help("replicas per chunk d"),
        Self::value("--rate G", |o, v| {
            set(&mut o.as_mut().process_rate, positive(v))
        })
        .help("requests each server processes per step g"),
        Self::value("--queue Q", |o, v| {
            set(&mut o.as_mut().queue_capacity, positive(v))
        })
        .help("queue capacity q"),
        Self::value("--seed S", |o, v| set(&mut o.as_mut().seed, num(v))).help("master seed"),
    ];
}

/// Applies the engine flags' one cross-flag rule: unless `--chunks` (or
/// a `--config` file) fixed it, the chunk universe is 4m.
pub(crate) fn default_chunks(config: &mut SimConfig, seen: &[&str]) {
    if !seen.iter().any(|f| *f == "--chunks" || *f == "--config") {
        config.num_chunks = 4 * config.num_servers;
    }
}

/// The engine defaults line for a subcommand's `--help`.
pub(crate) fn engine_defaults(c: &SimConfig) -> String {
    format!(
        "engine defaults: m={} n=4m d={} g={} q={} seed {}\n",
        c.num_servers, c.replication, c.process_rate, c.queue_capacity, c.seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Probe {
        config: SimConfig,
        on: bool,
        opt: Option<Option<String>>,
    }

    impl AsMut<SimConfig> for Probe {
        fn as_mut(&mut self) -> &mut SimConfig {
            &mut self.config
        }
    }

    const EXTRA: &[Flag<Probe>] = &[
        Flag::<Probe>::switch("--on", |o| o.on = true).help("a switch"),
        Flag::<Probe>::optional("--opt [PATH]", |o, v| {
            set(&mut o.opt, Ok(Some(v.map(str::to_string))))
        })
        .help("an optional operand"),
    ];

    fn parse_probe(args: &[&str]) -> Result<(Probe, Vec<&'static str>), String> {
        let mut p = Probe {
            config: SimConfig::baseline(4),
            on: false,
            opt: None,
        };
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let seen = parse("probe", &[&Flag::ENGINE, EXTRA], &args, &mut p)?;
        Ok((p, seen))
    }

    #[test]
    fn flags_set_fields_and_are_reported_in_order() {
        let (p, seen) = parse_probe(&["--on", "--servers", "8", "--seed", "3"]).unwrap();
        assert!(p.on);
        assert_eq!((p.config.num_servers, p.config.seed), (8, 3));
        assert_eq!(seen, ["--on", "--servers", "--seed"]);
    }

    #[test]
    fn optional_operand_stops_at_the_next_flag() {
        let (p, _) = parse_probe(&["--opt", "--on"]).unwrap();
        assert_eq!(p.opt, Some(None));
        assert!(p.on);
        let (p, _) = parse_probe(&["--opt", "out.json"]).unwrap();
        assert_eq!(p.opt, Some(Some("out.json".into())));
    }

    #[test]
    fn errors_name_the_flag_and_echo_the_value() {
        let err = parse_probe(&["--bogus"]).unwrap_err();
        assert_eq!(err, "unknown probe option \"--bogus\"");
        let err = parse_probe(&["--servers"]).unwrap_err();
        assert_eq!(err, "--servers requires a value (M)");
        let err = parse_probe(&["--queue", "0"]).unwrap_err();
        assert_eq!(err, "--queue: must be positive, got \"0\"");
        let err = parse_probe(&["--seed", "x1"]).unwrap_err();
        assert_eq!(err, "--seed: not a number: \"x1\"");
    }

    #[test]
    fn help_lists_every_flag_with_its_operand() {
        let text = render(&[&Flag::ENGINE, EXTRA]);
        assert!(text.contains("--servers M"), "{text}");
        assert!(text.contains("--opt [PATH]"), "{text}");
        assert_eq!(text.lines().count(), 8);
    }

    #[test]
    fn chunks_default_to_four_m_unless_fixed() {
        let mut c = SimConfig::baseline(10);
        c.num_servers = 20;
        default_chunks(&mut c, &["--servers"]);
        assert_eq!(c.num_chunks, 80);
        c.num_chunks = 7;
        default_chunks(&mut c, &["--servers", "--chunks"]);
        assert_eq!(c.num_chunks, 7);
    }

    #[test]
    fn float_checks_finiteness_and_range() {
        assert_eq!(float("0.5", "in (0, 1]", |x| x > 0.0 && x <= 1.0), Ok(0.5));
        assert!(float("inf", "positive", |x| x > 0.0).is_err());
        assert!(float("-1", "positive", |x| x > 0.0)
            .unwrap_err()
            .contains("\"-1\""));
    }
}
