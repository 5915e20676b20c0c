//! The engine workloads, `engine-dense` and `engine-sparse`.
//!
//! A run is a loop of repetitions. Each builds a fresh [`Simulation`]
//! (timed as set-up), runs a few untimed warm steps so lazy allocation
//! and first-touch page faults are out of the way, then times every
//! step of the measured window. Every repetition of a run sees the same
//! inputs, so every repetition must report the same counts; the first
//! one is also replayed through [`reference_counts`], an independent
//! re-statement of greedy routing, which pins the counts for the seed.
//!
//! The traced run alternates bare repetitions with traced ones. A
//! traced repetition wraps the workload in [`TimedGen`] and the policy
//! in [`Hooked`], so the layers are timed from outside through their
//! public traits; the bare repetitions use `Greedy` and the default
//! `NoopSink` exactly as the untraced run does, and the ratio of the
//! two is the tracing overhead.
//!
//! Routing is priced by re-routing the requests of one sampled step,
//! the repetition's last, in a tight loop against the engine's view
//! right after that step. Timing single `route` calls in place does not
//! work: the clock reads serialize each call and undo the overlap the
//! engine's warm pass buys, so on `engine-sparse` the timed calls alone
//! came to more than the whole step.

use std::time::{Duration, Instant};

use rlb_core::policies::Greedy;
use rlb_core::policy::StepOps;
use rlb_core::{
    ClassSpec, ClusterView, Decision, DrainMode, Policy, RouteCtx, RunReport, SimConfig,
    Simulation, Workload,
};
use rlb_hash::placement::ReplicaPlacement;
use rlb_workloads::{FreshRandom, RepeatedSet};

use crate::measure::{self, clock_overhead_ns, median, quantile, Outcome};

/// One engine workload.
pub struct Spec {
    /// Servers `m` (the universe is `4m` chunks, replication 2).
    m: usize,
    /// Requests per step.
    per_step: usize,
    /// Processing rate `g`.
    rate: u32,
    /// Queue capacity `q`.
    queue: u32,
    drain: DrainMode,
    /// The same `per_step` chunks every step (else fresh uniform ones).
    repeated: bool,
    /// Untimed steps at the start of each repetition.
    warm_steps: u64,
    /// Timed steps per repetition.
    timed_steps: u64,
}

/// Greedy, d=2, m=2^14, n=4m, g=2, q=16, end-of-step drain; every step
/// requests the same 1.5m chunks. Placement table, backlogs and the
/// step's requests (under 1 MB) fit in a core's L2, so the figure is the
/// engine's own work rather than the host's memory system: at m=2^20
/// (140 MB resident) the engine waited on DRAM, and other tenants'
/// memory traffic moved the throughput of whole 30 s runs by a quarter.
/// At 1.5m requests a step, three quarters of the drain rate, about 11%
/// of requests wait one step and almost none wait two, so the p99
/// latency is two step times on every seed; at m requests a step about
/// 1% waited, and the p99 flipped between one and two with the seed.
pub const DENSE: Spec = Spec {
    m: 1 << 14,
    per_step: 3 << 13,
    rate: 2,
    queue: 16,
    drain: DrainMode::EndOfStep,
    repeated: true,
    warm_steps: 8,
    timed_steps: 64,
};

/// Greedy, m=2^16, 1024 fresh uniform chunks per step from a 4m
/// universe, g=16 with interleaved drain. Most servers are idle, so
/// sub-step drain bookkeeping and workload sampling dominate.
pub const SPARSE: Spec = Spec {
    m: 1 << 16,
    per_step: 1024,
    rate: 16,
    queue: 16,
    drain: DrainMode::Interleaved,
    repeated: false,
    warm_steps: 64,
    timed_steps: 512,
};

impl Spec {
    fn config(&self, seed: u64) -> SimConfig {
        SimConfig {
            num_servers: self.m,
            num_chunks: 4 * self.m,
            replication: 2,
            process_rate: self.rate,
            queue_capacity: self.queue,
            flush_interval: None,
            drain_mode: self.drain,
            seed,
            safety_check_every: None,
        }
    }

    fn workload(&self, seed: u64) -> Gen {
        let universe = 4 * self.m as u64;
        let seed = seed ^ 0x776f_726b; // "work"
        if self.repeated {
            Gen::Repeated(RepeatedSet::random_subset(universe, self.per_step, seed))
        } else {
            Gen::Fresh(FreshRandom::new(universe, self.per_step, seed))
        }
    }

    fn steps(&self) -> u64 {
        self.warm_steps + self.timed_steps
    }

    fn timed_requests(&self) -> u64 {
        self.timed_steps * self.per_step as u64
    }
}

/// A run's request generator, built once and cloned into every
/// repetition so that each one sees the same inputs.
#[derive(Clone)]
enum Gen {
    Repeated(RepeatedSet),
    Fresh(FreshRandom),
}

impl Workload for Gen {
    fn next_step(&mut self, step: u64, out: &mut Vec<u32>) {
        match self {
            Gen::Repeated(w) => w.next_step(step, out),
            Gen::Fresh(w) => w.next_step(step, out),
        }
    }
}

/// The counts a run must reproduce exactly for its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    arrived: u64,
    accepted: u64,
    rejected: u64,
    completed: u64,
    in_flight: u64,
}

impl Counts {
    fn of(r: &RunReport) -> Self {
        Self {
            arrived: r.arrived,
            accepted: r.accepted,
            rejected: r.rejected_total,
            completed: r.completed,
            in_flight: r.in_flight,
        }
    }
}

/// Greedy routing restated over plain per-server backlog counters: the
/// least-backlogged non-full replica, ties to the earlier replica, and
/// each server draining its share of `g` per (sub-)step.
fn reference_counts(spec: &Spec, mut workload: Gen, placement: &ReplicaPlacement) -> Counts {
    let mut backlog = vec![0u32; spec.m];
    let mut occupied: Vec<u32> = Vec::new();
    let mut counts = Counts {
        arrived: 0,
        accepted: 0,
        rejected: 0,
        completed: 0,
        in_flight: 0,
    };
    let substeps = match spec.drain {
        DrainMode::EndOfStep => 1,
        DrainMode::Interleaved => spec.rate,
    };
    let mut chunks = Vec::new();
    for step in 0..spec.steps() {
        chunks.clear();
        workload.next_step(step, &mut chunks);
        let n = chunks.len();
        for s in 0..substeps as usize {
            let (lo, hi) = (n * s / substeps as usize, n * (s + 1) / substeps as usize);
            for &chunk in &chunks[lo..hi] {
                counts.arrived += 1;
                let mut best: Option<u32> = None;
                for &server in placement.replicas(chunk) {
                    let b = backlog[server as usize];
                    if b < spec.queue && best.is_none_or(|w| b < backlog[w as usize]) {
                        best = Some(server);
                    }
                }
                match best {
                    Some(server) => {
                        if backlog[server as usize] == 0 {
                            occupied.push(server);
                        }
                        backlog[server as usize] += 1;
                        counts.accepted += 1;
                    }
                    None => counts.rejected += 1,
                }
            }
            let s = s as u32;
            let take = spec.rate * (s + 1) / substeps - spec.rate * s / substeps;
            occupied.retain(|&server| {
                let b = &mut backlog[server as usize];
                let done = (*b).min(take);
                *b -= done;
                counts.completed += u64::from(done);
                *b > 0
            });
        }
    }
    counts.in_flight = backlog.iter().map(|&b| u64::from(b)).sum();
    counts
}

/// A workload timed on every `next_step` call, keeping a copy of the
/// requests of step `keep_step`.
struct TimedGen {
    inner: Gen,
    ns: u64,
    calls: u64,
    keep_step: u64,
    kept: Vec<u32>,
}

impl Workload for TimedGen {
    fn next_step(&mut self, step: u64, out: &mut Vec<u32>) {
        let t = Instant::now();
        self.inner.next_step(step, out);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        if step == self.keep_step {
            self.kept.clone_from(out);
        }
    }
}

/// What [`Hooked`] has counted so far.
#[derive(Debug, Clone, Copy, Default)]
struct PolicyStats {
    hook_calls: u64,
    hook_ns: u64,
    steps: u64,
    /// Sum over steps of the most servers holding work at a route call.
    occupied: u64,
}

impl PolicyStats {
    fn since(self, earlier: Self) -> Self {
        Self {
            hook_calls: self.hook_calls - earlier.hook_calls,
            hook_ns: self.hook_ns - earlier.hook_ns,
            steps: self.steps - earlier.steps,
            occupied: self.occupied - earlier.occupied,
        }
    }
}

/// A policy wrapper that times both step hooks and tracks how many
/// servers hold work while the step routes.
struct Hooked<P> {
    inner: P,
    stats: PolicyStats,
    step_occupied: usize,
}

impl<P: Policy> Policy for Hooked<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn queue_classes(&self, config: &SimConfig) -> Vec<ClassSpec> {
        self.inner.queue_classes(config)
    }

    fn on_step_begin(&mut self, step: u64, ops: &mut dyn StepOps) {
        self.step_occupied = 0;
        let t = Instant::now();
        self.inner.on_step_begin(step, ops);
        self.stats.hook_ns += t.elapsed().as_nanos() as u64;
        self.stats.hook_calls += 1;
    }

    fn route(&mut self, ctx: RouteCtx<'_>, view: &ClusterView<'_>) -> Decision {
        self.step_occupied = self.step_occupied.max(view.occupied_servers(0).len());
        self.inner.route(ctx, view)
    }

    fn on_step_end(&mut self, step: u64, chunks: &[u32], view: &ClusterView<'_>) {
        let t = Instant::now();
        self.inner.on_step_end(step, chunks, view);
        self.stats.hook_ns += t.elapsed().as_nanos() as u64;
        self.stats.hook_calls += 1;
        self.stats.steps += 1;
        self.stats.occupied += self.step_occupied as u64;
    }
}

/// One repetition's measurements.
struct Rep {
    setup_s: f64,
    step_ns: Vec<f64>,
    report: RunReport,
}

impl Rep {
    /// Requests per second over the repetition's timed steps.
    fn rate(&self, spec: &Spec) -> f64 {
        spec.timed_requests() as f64 * 1e9 / self.step_ns.iter().sum::<f64>()
    }
}

/// Requests per second over every timed step of `reps`: their requests
/// over their summed step time, so every step counts in full.
fn throughput<'a>(spec: &Spec, reps: impl Iterator<Item = &'a Rep>) -> f64 {
    let (mut n, mut ns) = (0u64, 0.0);
    for rep in reps {
        n += spec.timed_requests();
        ns += rep.step_ns.iter().sum::<f64>();
    }
    n as f64 * 1e9 / ns
}

/// What only the first repetition of a run measures.
struct Baseline {
    /// The counts every repetition must reproduce.
    counts: Counts,
    /// Peak resident set while the engine ran, in MiB.
    peak_rss_mb: Option<f64>,
}

/// Per-layer totals of one traced repetition, in nanoseconds.
struct Layers {
    gen_ns: f64,
    route_ns: f64,
    hook_ns: f64,
    steps: f64,
    occupied: f64,
}

fn time_steps<P: Policy, W: Workload + ?Sized>(
    sim: &mut Simulation<P>,
    workload: &mut W,
    steps: u64,
) -> Vec<f64> {
    (0..steps)
        .map(|_| {
            let t = Instant::now();
            sim.run(workload, 1);
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// An untraced repetition: bare `Greedy`, bare workload, `NoopSink`.
/// With `baseline` still empty, also reads the peak resident set of
/// the engine's run (reset just before the engine is built), then
/// replays the run through [`reference_counts`], and stores both there.
fn bare_rep(spec: &Spec, seed: u64, inputs: &Gen, baseline: &mut Option<Baseline>) -> Rep {
    let first = baseline.is_none();
    let reset = first && measure::reset_peak_rss();
    let t = Instant::now();
    let mut sim = Simulation::new(spec.config(seed), Greedy::new());
    let mut workload = inputs.clone();
    let setup_s = t.elapsed().as_secs_f64();
    sim.run(&mut workload, spec.warm_steps);
    let step_ns = time_steps(&mut sim, &mut workload, spec.timed_steps);
    if first {
        let peak_rss_mb = if reset {
            measure::peak_rss_mb(std::process::id())
        } else {
            None
        };
        *baseline = Some(Baseline {
            counts: reference_counts(spec, inputs.clone(), sim.placement()),
            peak_rss_mb,
        });
    }
    Rep {
        setup_s,
        step_ns,
        report: sim.finish(),
    }
}

/// Mean nanoseconds per request of re-routing `chunks` with a fresh
/// `Greedy` against the simulation's current view, in arrival order.
fn reroute_ns<P: Policy>(sim: &Simulation<P>, chunks: &[u32]) -> f64 {
    let view = sim.view();
    let placement = sim.placement();
    let step = sim.step_count();
    let mut policy = Greedy::new();
    let t = Instant::now();
    for &chunk in chunks {
        let ctx = RouteCtx {
            step,
            chunk,
            replicas: placement.replicas(chunk),
        };
        std::hint::black_box(policy.route(ctx, &view));
    }
    t.elapsed().as_nanos() as f64 / chunks.len().max(1) as f64
}

fn traced_rep(spec: &Spec, seed: u64, inputs: &Gen, clock_ns: f64) -> (Rep, Layers) {
    let t = Instant::now();
    let policy = Hooked {
        inner: Greedy::new(),
        stats: PolicyStats::default(),
        step_occupied: 0,
    };
    let mut sim = Simulation::new(spec.config(seed), policy);
    let mut workload = TimedGen {
        inner: inputs.clone(),
        ns: 0,
        calls: 0,
        keep_step: spec.steps() - 1,
        kept: Vec::new(),
    };
    let setup_s = t.elapsed().as_secs_f64();
    sim.run(&mut workload, spec.warm_steps);
    let before = sim.policy().stats;
    let (gen_ns, gen_calls) = (workload.ns, workload.calls);
    let step_ns = time_steps(&mut sim, &mut workload, spec.timed_steps);
    let p = sim.policy().stats.since(before);
    let net = |ns: u64, calls: u64| (ns as f64 - calls as f64 * clock_ns).max(0.0);
    let layers = Layers {
        gen_ns: net(workload.ns - gen_ns, workload.calls - gen_calls),
        route_ns: reroute_ns(&sim, &workload.kept) * spec.per_step as f64 * spec.timed_steps as f64,
        hook_ns: net(p.hook_ns, p.hook_calls),
        steps: p.steps as f64,
        occupied: p.occupied as f64 / p.steps.max(1) as f64,
    };
    let rep = Rep {
        setup_s,
        step_ns,
        report: sim.finish(),
    };
    (rep, layers)
}

/// Runs `spec` for about `seconds`, checks every repetition, and adds
/// the end-to-end metrics (or, traced, the per-layer ones) to `out`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let deadline = Duration::from_secs_f64(seconds);
    let clock_ns = clock_overhead_ns();
    let inputs = spec.workload(seed);
    let start = Instant::now();
    let mut baseline = None;
    let mut bare: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Layers)> = Vec::new();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    while bare.is_empty() || start.elapsed() < deadline {
        // The engine is single-threaded: repetitions take turns on the
        // host's CPUs so one slowed CPU does not decide the run.
        measure::pin_to_cpu(bare.len() % cpus);
        bare.push(bare_rep(spec, seed, &inputs, &mut baseline));
        if trace {
            traced.push(traced_rep(spec, seed, &inputs, clock_ns));
        }
    }
    let Baseline {
        counts: reference,
        peak_rss_mb,
    } = baseline.expect("the first repetition sets the baseline");

    let expected_arrivals = spec.steps() * spec.per_step as u64;
    for (i, rep) in bare.iter().chain(traced.iter().map(|(r, _)| r)).enumerate() {
        let counts = Counts::of(&rep.report);
        out.check(
            counts == reference,
            format!("repetition {i}: counts {counts:?} != reference {reference:?}"),
        );
        out.check(
            counts.arrived == expected_arrivals,
            format!(
                "repetition {i}: arrived {} != {expected_arrivals}",
                counts.arrived
            ),
        );
        if let Err(e) = rep.report.check_conservation() {
            out.check(false, format!("repetition {i}: {e}"));
        }
        out.attempted += counts.arrived;
        out.failed += counts.rejected;
    }
    out.note(format!(
        "counts per repetition ({} steps): arrived={} accepted={} rejected={} completed={} in_flight={}",
        spec.steps(),
        reference.arrived,
        reference.accepted,
        reference.rejected,
        reference.completed,
        reference.in_flight
    ));

    // A request that waits L steps spends L + 1 step times in the
    // engine; its wall latency is priced with the run's mean step time
    // and the run's exact latency distribution in steps.
    let rates: Vec<f64> = bare.iter().map(|r| r.rate(spec)).collect();
    let rate = throughput(spec, bare.iter());
    let step_ns = spec.per_step as f64 * 1e9 / rate;
    let latency = &bare[0].report.latency;
    let (l50, l99) = match (latency.quantile(0.5), latency.quantile(0.99)) {
        (Some(a), Some(b)) => (a as f64, b as f64),
        _ => {
            out.check(false, "no request completed");
            (0.0, 0.0)
        }
    };
    out.note(format!(
        "engine_req_per_s = {rate} req/s over {} repetitions of {} timed steps \
         (fastest {}, median {}, slowest {}); request latency p50 {l50} / p99 {l99} steps",
        bare.len(),
        spec.timed_steps,
        quantile(&rates, 1.0),
        median(&rates),
        quantile(&rates, 0.0),
    ));
    if !trace {
        let setups: Vec<f64> = bare.iter().map(|r| r.setup_s).collect();
        out.metric("setup_s", median(&setups), "s");
        match peak_rss_mb {
            Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
            None => out.check(false, "the engine's peak resident set is unreadable"),
        }
        out.metric("throughput_per_s", rate, "1/s");
        out.metric("p50_us", (l50 + 1.0) * step_ns / 1e3, "us");
        out.metric("p99_us", (l99 + 1.0) * step_ns / 1e3, "us");
        return;
    }

    let requests = spec.timed_requests() as f64 * traced.len() as f64;
    let sum = |f: fn(&Layers) -> f64| traced.iter().map(|(_, l)| f(l)).sum::<f64>();
    let step_total: f64 = traced.iter().flat_map(|(r, _)| r.step_ns.iter()).sum();
    let (gen, route, hooks) = (sum(|l| l.gen_ns), sum(|l| l.route_ns), sum(|l| l.hook_ns));
    let traced_steps: Vec<f64> = traced
        .iter()
        .flat_map(|(r, _)| r.step_ns.iter().copied())
        .collect();
    out.metric("workloads.gen_ns_per_req", gen / requests, "ns");
    out.metric("core.route_ns_per_req", route / requests, "ns");
    out.metric(
        "core.policy_hooks_ns_per_step",
        hooks / sum(|l| l.steps).max(1.0),
        "ns",
    );
    out.metric(
        "core.engine_self_ns_per_req",
        (step_total - gen - route - hooks).max(0.0) / requests,
        "ns",
    );
    out.metric("core.step_us_p50", median(&traced_steps) / 1e3, "us");
    out.metric(
        "core.step_us_p99",
        quantile(&traced_steps, 0.99) / 1e3,
        "us",
    );
    out.metric(
        "core.occupied_servers_per_step",
        sum(|l| l.occupied) / traced.len() as f64,
        "count",
    );
    out.metric("core.arrived", reference.arrived as f64, "count");
    out.metric("core.accepted", reference.accepted as f64, "count");
    out.metric("core.rejected", reference.rejected as f64, "count");
    out.metric("core.completed", reference.completed as f64, "count");
    out.metric(
        "trace.overhead_ratio",
        rate / throughput(spec, traced.iter().map(|(r, _)| r)),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small interleaved spec with real contention: rejections and
    /// leftover backlog both happen, so every count is exercised.
    const TINY: Spec = Spec {
        m: 64,
        per_step: 64,
        rate: 1,
        queue: 2,
        drain: DrainMode::Interleaved,
        repeated: true,
        warm_steps: 3,
        timed_steps: 20,
    };

    #[test]
    fn reference_matches_the_engine() {
        for spec in [&TINY, &SPARSE] {
            for seed in [1, 2, 3] {
                let mut baseline = None;
                let rep = bare_rep(spec, seed, &spec.workload(seed), &mut baseline);
                let reference = baseline.map(|b| b.counts);
                assert_eq!(Some(Counts::of(&rep.report)), reference, "seed {seed}");
            }
        }
        let rep = bare_rep(&TINY, 9, &TINY.workload(9), &mut None);
        assert!(rep.report.rejected_total > 0 && rep.report.in_flight > 0);
    }

    #[test]
    fn traced_repetition_changes_no_decision() {
        let mut baseline = None;
        let inputs = TINY.workload(5);
        bare_rep(&TINY, 5, &inputs, &mut baseline);
        let (rep, layers) = traced_rep(&TINY, 5, &inputs, 0.0);
        assert_eq!(Some(Counts::of(&rep.report)), baseline.map(|b| b.counts));
        assert!(layers.occupied > 0.0);
    }
}
