//! The `serve-loopback` workload: the `rlb-sim serve` daemon in its own
//! process on 127.0.0.1, loaded from this process over two connections.
//!
//! Phase one is a closed loop (32 requests in flight per connection)
//! and gives the served throughput. Phase two is an open loop: Poisson
//! arrivals at a fixed rate well below the knee, each request timed
//! from the moment it was *due*, so a stall of the daemon or of this
//! generator counts against every request that should have gone out
//! meanwhile. Both phases drive [`rlb_load::Client`] state machines;
//! the open loop hands each tick's due time to `Client::on_tick`. It
//! runs as a few back-to-back attempts, and the latency figures come
//! from the attempts with the least host steal time ([`calmest`]).
//!
//! Request counts are fixed before the daemon starts (the open phase's
//! Poisson count comes from a dry run of the same client), so the
//! daemon is told exactly how many responses to send and exits on its
//! own with its per-tenant summary, which must match what the clients
//! counted. The daemon's CPU time, context switches and peak RSS come
//! from `/proc/<pid>`. The traced run also replays the same client
//! fleet through [`ServerCore`] on a simulated clock to time
//! `on_frame` and `tick`, and times `Frame::encode` and `FrameReader`
//! over the frames of that replay.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use rlb_core::policies::Greedy;
use rlb_load::{Client, ClientConfig, Mode, Popularity};
use rlb_serve::wire::{ReadStatus, TcpSession};
use rlb_serve::{Frame, FrameReader, ServeConfig, ServerCore};

use crate::measure::{host_steal_ticks, median, peak_rss_mb, proc_sample, quantile, Outcome};

/// Engine servers behind the daemon.
const SERVERS: usize = 16;
/// Queue capacity of each engine server. A tick routes one request per
/// distinct chunk, at most `4 * SERVERS` = 64 of them, and each server
/// drains 8 a tick; with the default capacity (`log2 m + 1` = 5) a tick
/// that a stall had filled with many chunks rejected some of them, a
/// different number in every run. A queue that holds every chunk keeps
/// the engine from turning requests away.
const QUEUE: u32 = 64;
/// Load connections (one client each, tenant = connection index).
const CONNECTIONS: usize = 2;
/// Closed-loop requests in flight per connection.
const WINDOW: u32 = 32;
/// Closed-loop requests per connection per second of `--seconds`.
const CLOSED_PER_CONN_PER_S: f64 = 25_000.0;
/// Share of `--seconds` spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
/// The open phase runs as this many back-to-back attempts of equal
/// length, each with fresh clients; the latency figures come from the
/// attempts the host disturbed least (see [`calmest`]).
const OPEN_ATTEMPTS: usize = 6;
/// Open-loop arrival rate over all connections, requests per second.
const OPEN_RATE_PER_S: f64 = 60_000.0;
/// Open-loop tick: arrivals within one tick share its due time.
const TICK_NS: u64 = 10_000;
/// Throwaway daemons started to sample set-up time.
const SETUP_SPAWNS: usize = 25;
/// Requests per client in the simulated-clock replay.
const REPLAY_PER_CLIENT: u64 = 50_000;
/// Give up on a phase after this long.
const PHASE_LIMIT: Duration = Duration::from_secs(60);

/// The client of `conn` in load phase `phase` (0 for the closed loop,
/// `a + 1` for open-loop attempt `a`).
fn client_config(seed: u64, conn: usize, phase: u64, mode: Mode, total: u64) -> ClientConfig {
    ClientConfig {
        tenant: conn as u16,
        mode,
        popularity: Popularity::Zipf {
            alpha: 1.0,
            universe: 512,
        },
        put_ratio: 0.25,
        total_requests: total,
        seed: seed ^ rlb_hash::mix::fmix64(0x6c6f_6164 + conn as u64 + 16 * phase),
    }
}

fn closed_config(seed: u64, conn: usize, total: u64) -> ClientConfig {
    client_config(
        seed,
        conn,
        0,
        Mode::Closed {
            concurrency: WINDOW,
        },
        total,
    )
}

/// The client of `conn` in open-loop attempt `attempt` and the number
/// of requests it issues in `ticks` ticks, counted by a dry run of an
/// identical client.
fn open_config(seed: u64, conn: usize, attempt: usize, ticks: u64) -> ClientConfig {
    let rate = OPEN_RATE_PER_S / CONNECTIONS as f64 * TICK_NS as f64 * 1e-9;
    let phase = attempt as u64 + 1;
    let mut dry = Client::new(client_config(
        seed,
        conn,
        phase,
        Mode::Open { rate },
        u64::MAX,
    ));
    let mut frames = Vec::new();
    for t in 0..ticks {
        frames.clear();
        dry.on_tick(t, &mut frames);
    }
    client_config(seed, conn, phase, Mode::Open { rate }, dry.sent())
}

fn req_id(frame: &Frame) -> Option<u32> {
    match frame {
        Frame::Get { req_id, .. }
        | Frame::Put { req_id, .. }
        | Frame::Reply { req_id, .. }
        | Frame::Reject { req_id, .. } => Some(*req_id),
        Frame::Ping { .. } => None,
    }
}

/// One client connection; with `traced` set, socket writes and reads
/// are timed per call.
struct Conn {
    session: TcpSession,
    traced: bool,
    write_ns: u64,
    write_frames: u64,
    read_ns: u64,
    read_frames: u64,
}

impl Conn {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let session = TcpSession::new(stream).map_err(|e| format!("session: {e}"))?;
        Ok(Self {
            session,
            traced: false,
            write_ns: 0,
            write_frames: 0,
            read_ns: 0,
            read_frames: 0,
        })
    }

    fn send(&mut self, frames: &[Frame]) -> Result<(), String> {
        for f in frames {
            self.session.queue(f);
        }
        let t = Instant::now();
        self.session.flush().map_err(|e| format!("write: {e}"))?;
        if self.traced {
            self.write_ns += t.elapsed().as_nanos() as u64;
            self.write_frames += frames.len() as u64;
        }
        Ok(())
    }

    /// The frames that have arrived, and whether the connection is
    /// still open (the daemon closes it right after its last response).
    fn recv(&mut self) -> Result<(Vec<Frame>, bool), String> {
        let t = Instant::now();
        let (frames, err, status) = self.session.read_frames();
        if self.traced {
            self.read_ns += t.elapsed().as_nanos() as u64;
            self.read_frames += frames.len() as u64;
        }
        if let Some(e) = err {
            return Err(format!("decode: {e}"));
        }
        Ok((frames, status == ReadStatus::Open))
    }

    /// [`Conn::recv`] during a load phase, where a closed connection is
    /// an error.
    fn recv_open(&mut self) -> Result<Vec<Frame>, String> {
        match self.recv()? {
            (frames, true) => Ok(frames),
            (_, false) => Err("the daemon closed the connection".into()),
        }
    }

    /// Sends `frame` and waits for the response carrying `want`'s id
    /// (or, for a ping, the echo).
    fn round_trip(&mut self, frame: Frame) -> Result<Frame, String> {
        let want = req_id(&frame);
        self.send(std::slice::from_ref(&frame))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            self.send(&[])?;
            let (frames, open) = self.recv()?;
            if let Some(f) = frames.into_iter().find(|f| req_id(f) == want) {
                return Ok(f);
            }
            if !open || Instant::now() > deadline {
                return Err(format!("no response to {frame:?}"));
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

/// A running daemon.
struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
}

impl Daemon {
    /// Starts `rlb-sim serve` on an ephemeral port, stopping after
    /// `max_requests` responses, and returns it with one connection
    /// that has completed a ping; the elapsed time is the set-up time.
    fn start(sim: &Path, seed: u64, max_requests: u64) -> Result<(Self, Conn, f64), String> {
        let t = Instant::now();
        // The admission limit is the daemon's whole request count, so
        // admission never turns a request away either.
        let mut child = Command::new(sim)
            .args(["serve", "--listen", "127.0.0.1:0", "--servers"])
            .arg(SERVERS.to_string())
            .arg("--queue")
            .arg(QUEUE.to_string())
            .arg("--gate")
            .arg(max_requests.to_string())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--max-requests")
            .arg(max_requests.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", sim.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some((_, rest)) = line.split_once("listening on ") {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        let daemon = Self {
            child,
            stderr,
            addr,
        };
        let mut conn = Conn::connect(&daemon.addr)?;
        conn.round_trip(Frame::Ping { nonce: 7 })?;
        Ok((daemon, conn, t.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the daemon to exit on its own and returns its stdout.
    fn wait(mut self) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("daemon did not exit after its last response".into()),
            }
        };
        let mut stdout = String::new();
        if let Some(mut pipe) = self.child.stdout.take() {
            let _ = pipe.read_to_string(&mut stdout);
        }
        let mut stderr = String::new();
        let _ = self.stderr.read_to_string(&mut stderr);
        if !status.success() {
            return Err(format!("daemon exited with {status}: {stderr}"));
        }
        Ok(stdout)
    }
}

impl Drop for Daemon {
    /// Stops and reaps a daemon that an early return or a failed run
    /// left running; after [`Daemon::wait`] this finds it already gone.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Closed loop: keep the client's window full until it is done. Wire
/// timing switches on once `trace_from` requests have been sent; the
/// return value is the second at which it did (the run's length if it
/// never did).
fn closed_loop(conn: &mut Conn, client: &mut Client, trace_from: u64) -> Result<f64, String> {
    let clock = Instant::now();
    let deadline = clock + PHASE_LIMIT;
    let mut frames = Vec::new();
    let mut switched_at = None;
    loop {
        if switched_at.is_none() && client.sent() >= trace_from {
            switched_at = Some(clock.elapsed().as_secs_f64());
            conn.traced = true;
        }
        let now = clock.elapsed().as_micros() as u64;
        frames.clear();
        client.on_tick(now, &mut frames);
        conn.send(&frames)?;
        let got = conn.recv_open()?;
        let now = clock.elapsed().as_micros() as u64;
        for f in &got {
            client.on_frame(now, f);
        }
        if client.done() {
            return Ok(switched_at.unwrap_or_else(|| clock.elapsed().as_secs_f64()));
        }
        if Instant::now() > deadline {
            return Err("closed loop ran out of time".into());
        }
        if frames.is_empty() && got.is_empty() {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// What the open loop measured, in nanoseconds.
#[derive(Default)]
struct OpenStats {
    /// Reply time minus due time, per replied request.
    latency_ns: Vec<f64>,
    /// Send time minus due time, per issued request.
    lag_ns: Vec<f64>,
}

/// Open loop: issue each tick's Poisson arrivals on every connection
/// when the tick is due, stamped with the due time, for `ticks` ticks.
/// One thread drives every connection, so the generator holds one CPU
/// and leaves the rest to the daemon.
fn open_loop(conns: &mut [Conn], clients: &mut [Client], ticks: u64) -> Result<OpenStats, String> {
    let t0 = Instant::now();
    let deadline = t0 + PHASE_LIMIT;
    let mut stats = OpenStats::default();
    let mut due_ns: Vec<Vec<u64>> = vec![Vec::new(); conns.len()];
    let mut frames = Vec::new();
    let mut next_tick = 0u64;
    loop {
        let first_due = next_tick;
        while next_tick < ticks && next_tick * TICK_NS <= t0.elapsed().as_nanos() as u64 {
            next_tick += 1;
        }
        let mut idle = true;
        for ((conn, client), due_ns) in conns.iter_mut().zip(clients.iter_mut()).zip(&mut due_ns) {
            let now = t0.elapsed().as_nanos() as u64;
            frames.clear();
            for tick in first_due..next_tick {
                let due = tick * TICK_NS;
                let first = frames.len();
                client.on_tick(due / 1000, &mut frames);
                for f in &frames[first..] {
                    let id = req_id(f).expect("clients issue gets and puts") as usize;
                    if due_ns.len() <= id {
                        due_ns.resize(id + 1, 0);
                    }
                    due_ns[id] = due;
                    stats.lag_ns.push((now - due) as f64);
                }
            }
            conn.send(&frames)?;
            let got = conn.recv_open()?;
            let recv = t0.elapsed().as_nanos() as u64;
            for f in &got {
                if let Frame::Reply { req_id, .. } = f {
                    if let Some(&due) = due_ns.get(*req_id as usize) {
                        stats.latency_ns.push(recv.saturating_sub(due) as f64);
                    }
                }
                client.on_frame(recv / 1000, f);
            }
            idle &= frames.is_empty() && got.is_empty();
        }
        if next_tick >= ticks && clients.iter().all(Client::done) {
            return Ok(stats);
        }
        if Instant::now() > deadline {
            return Err("open loop ran out of time".into());
        }
        if idle {
            let until_due = (next_tick * TICK_NS).saturating_sub(t0.elapsed().as_nanos() as u64);
            std::thread::sleep(Duration::from_nanos(until_due.clamp(1_000, 50_000)));
        }
    }
}

/// One connection after the closed loop.
struct Closed {
    conn: Conn,
    client: Client,
    /// Seconds of the closed phase before and after wire timing began.
    halves: (f64, f64),
    error: Option<String>,
}

/// Runs the closed loop on one connection.
fn closed_phase(mut conn: Conn, mut client: Client, trace_from: u64) -> Closed {
    let t = Instant::now();
    let result = closed_loop(&mut conn, &mut client, trace_from);
    let elapsed = t.elapsed().as_secs_f64();
    let (halves, error) = match result {
        Ok(switched) => ((switched, elapsed - switched), None),
        Err(e) => ((elapsed, 0.0), Some(e)),
    };
    Closed {
        conn,
        client,
        halves,
        error,
    }
}

/// The `q` quantile, in microseconds, of open-loop latencies pooled over
/// a whole attempt, so that every request a stall delayed counts.
fn latency_quantile_us(latency_ns: &[f64], q: f64) -> f64 {
    quantile(latency_ns, q) / 1e3
}

/// Every open-loop attempt with the least steal time, pooled into one,
/// and how many there were; attempts are given as `(steal ticks during
/// the attempt, its stats)`.
///
/// Steal time is time the hypervisor gave this host's CPUs to someone
/// else while they had work. On a shared host it comes in bursts of
/// seconds that add milliseconds to every request in flight, and it
/// moved the pooled p99 by 5x between runs of the same code. It is a
/// signal from outside the program, so choosing by it keeps the
/// program's own stalls: a stall that recurs in every attempt shows in
/// full, while a one-off stall shows only if it hits a chosen one.
fn calmest(attempts: &[(u64, OpenStats)]) -> (OpenStats, usize) {
    let least = attempts.iter().map(|&(steal, _)| steal).min();
    let mut pooled = OpenStats::default();
    let mut chosen = 0;
    for (_, stats) in attempts.iter().filter(|&&(steal, _)| Some(steal) == least) {
        pooled.latency_ns.extend_from_slice(&stats.latency_ns);
        pooled.lag_ns.extend_from_slice(&stats.lag_ns);
        chosen += 1;
    }
    (pooled, chosen)
}

/// Parses `tenant {id}: replies={r} rejects={j}` lines of the daemon's
/// summary.
fn tenant_lines(summary: &str) -> Vec<(u16, u64, u64)> {
    let mut out = Vec::new();
    for line in summary.lines() {
        let Some((id, rest)) = line.strip_prefix("tenant ").and_then(|r| r.split_once(':')) else {
            continue;
        };
        let field = |key: &str| -> u64 {
            rest.split_whitespace()
                .find_map(|tok| tok.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or(u64::MAX)
        };
        out.push((
            id.parse().unwrap_or(u16::MAX),
            field("replies="),
            field("rejects="),
        ));
    }
    out
}

/// The simulated-clock replay's per-call costs.
struct Replay {
    on_frame_ns: f64,
    tick_ns_per_req: f64,
    reqs_per_tick: f64,
    encode_ns: f64,
    decode_ns: f64,
}

/// Replays the closed-loop fleet through [`ServerCore`] one tick at a
/// time, timing `on_frame` per call and `tick` per request it commits,
/// then times encoding and decoding every frame the replay exchanged.
fn replay(seed: u64, clock_ns: f64, out: &mut Outcome) -> Replay {
    let mut config = ServeConfig::baseline(SERVERS, seed);
    config.engine.queue_capacity = QUEUE;
    config.gate_limit = REPLAY_PER_CLIENT * CONNECTIONS as u64;
    let mut core = ServerCore::new(config, Greedy::new());
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|i| Client::new(closed_config(seed, i, REPLAY_PER_CLIENT)))
        .collect();
    let mut exchanged: Vec<Frame> = Vec::new();
    let (mut on_frame_ns, mut on_frame_calls) = (0u64, 0u64);
    let (mut tick_ns, mut ticks, mut committed) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    let mut now = 0u64;
    while !clients.iter().all(Client::done) && now < 10_000_000 {
        for (sid, client) in clients.iter_mut().enumerate() {
            buf.clear();
            client.on_tick(now, &mut buf);
            for frame in buf.drain(..) {
                exchanged.push(frame.clone());
                let t = Instant::now();
                let response = core.on_frame(sid as u32, frame);
                on_frame_ns += t.elapsed().as_nanos() as u64;
                on_frame_calls += 1;
                match response {
                    None => committed += 1,
                    Some(r) => {
                        client.on_frame(now, &r);
                        exchanged.push(r);
                    }
                }
            }
        }
        let t = Instant::now();
        let responses = core.tick();
        tick_ns += t.elapsed().as_nanos() as u64;
        ticks += 1;
        now = core.now();
        for (sid, frame) in responses {
            clients[sid as usize].on_frame(now, &frame);
            exchanged.push(frame);
        }
    }
    for (i, c) in clients.iter().enumerate() {
        out.check(
            c.done() && c.responses() == REPLAY_PER_CLIENT,
            format!("replay client {i} left requests unanswered"),
        );
    }

    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..5 {
        let mut bytes = Vec::new();
        let t = Instant::now();
        for f in &exchanged {
            f.encode(&mut bytes);
        }
        encode.push(t.elapsed().as_nanos() as f64 / exchanged.len() as f64);
        let mut reader = FrameReader::new();
        let t = Instant::now();
        reader.push(&bytes);
        let (frames, err) = reader.drain();
        decode.push(t.elapsed().as_nanos() as f64 / exchanged.len() as f64);
        out.check(
            err.is_none() && frames == exchanged,
            "decoding the encoded replay frames does not give them back",
        );
    }
    Replay {
        on_frame_ns: (on_frame_ns as f64 / on_frame_calls as f64 - clock_ns).max(0.0),
        tick_ns_per_req: (tick_ns as f64 - ticks as f64 * clock_ns).max(0.0) / committed as f64,
        reqs_per_tick: committed as f64 / ticks as f64,
        encode_ns: median(&encode),
        decode_ns: median(&decode),
    }
}

/// Runs the workload against the daemon binary at `sim`.
pub fn run(sim: &Path, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    if let Err(e) = run_inner(sim, seed, seconds, trace, out) {
        out.check(false, e);
        out.attempted = out.attempted.max(1);
        out.failed = out.failed.max(1);
    }
}

fn run_inner(
    sim: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let clock_ns = crate::measure::clock_overhead_ns();
    let mut setups = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        let (daemon, mut conn, setup) = Daemon::start(sim, seed, 1)?;
        setups.push(setup);
        let reply = conn.round_trip(Frame::Get {
            req_id: 1,
            tenant: 0,
            key: vec![1],
        });
        let summary = daemon.wait();
        out.check(
            matches!(reply, Ok(Frame::Reply { .. })),
            format!("set-up daemon answered {reply:?}"),
        );
        out.check(
            summary
                .as_deref()
                .is_ok_and(|s| s.starts_with("served 1 responses over 1 sessions")),
            format!("set-up daemon summary: {summary:?}"),
        );
    }

    let per_conn = (CLOSED_PER_CONN_PER_S * seconds).ceil() as u64;
    let ticks = (OPEN_SHARE * seconds * 1e9 / TICK_NS as f64 / OPEN_ATTEMPTS as f64).ceil() as u64;
    let open_configs: Vec<Vec<ClientConfig>> = (0..OPEN_ATTEMPTS)
        .map(|a| {
            (0..CONNECTIONS)
                .map(|i| open_config(seed, i, a, ticks))
                .collect()
        })
        .collect();
    let open_total: u64 = open_configs
        .iter()
        .flatten()
        .map(|c| c.total_requests)
        .sum();
    let total = per_conn * CONNECTIONS as u64 + open_total;
    // One request more than the load sends: the daemon stays up until
    // its counters are read, then the last request shuts it down.
    let (daemon, first, setup) = Daemon::start(sim, seed, total + 1)?;
    setups.push(setup);
    let mut conns = vec![first];
    for _ in 1..CONNECTIONS {
        conns.push(Conn::connect(&daemon.addr)?);
    }

    let pid = daemon.pid();
    let p0 = proc_sample(pid).unwrap_or_default();
    let t = Instant::now();
    let closed: Vec<Closed> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let client = Client::new(closed_config(seed, i, per_conn));
                // Traced, the second half of the closed phase and all
                // of the open phase time the wire.
                let trace_from = if trace { per_conn / 2 } else { u64::MAX };
                s.spawn(move || closed_phase(conn, client, trace_from))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let closed_wall = t.elapsed().as_secs_f64();
    let p1 = proc_sample(pid).unwrap_or_default();
    let mut errors: Vec<String> = Vec::new();
    let mut conns = Vec::new();
    let mut closed_clients = Vec::new();
    let mut halves = Vec::new();
    for (i, c) in closed.into_iter().enumerate() {
        if let Some(e) = c.error {
            errors.push(format!("connection {i}: {e}"));
        }
        conns.push(c.conn);
        closed_clients.push(c.client);
        halves.push(c.halves);
    }
    let mut open_clients: Vec<Vec<Client>> = Vec::new();
    let mut attempts: Vec<(u64, OpenStats)> = Vec::new();
    for configs in open_configs {
        let mut clients: Vec<Client> = configs.into_iter().map(Client::new).collect();
        if errors.is_empty() {
            let steal = host_steal_ticks();
            match open_loop(&mut conns, &mut clients, ticks) {
                Ok(stats) => attempts.push((host_steal_ticks() - steal, stats)),
                Err(e) => errors.push(format!("open loop: {e}")),
            }
        }
        open_clients.push(clients);
    }
    let p2 = proc_sample(pid).unwrap_or_default();
    let peak_rss = peak_rss_mb(pid);
    let last = conns[0].round_trip(Frame::Get {
        req_id: u32::MAX,
        tenant: 0,
        key: vec![0],
    });
    let summary = daemon.wait();

    // Accounting: every request answered, both sides agree per tenant.
    for e in errors {
        out.check(false, e);
    }
    let mut expected = Vec::new();
    let mut answered = 0;
    for (i, closed) in closed_clients.iter().enumerate() {
        let tenant = std::iter::once(closed).chain(open_clients.iter().map(|a| &a[i]));
        let (mut replies, mut rejects) = (u64::from(i == 0), 0);
        for client in tenant {
            replies += client.replies;
            rejects += client.rejects();
            answered += client.responses();
        }
        expected.push((i as u16, replies, rejects));
        out.failed += rejects;
    }
    out.attempted = total;
    out.failed += total - answered.min(total);
    out.check(
        matches!(last, Ok(Frame::Reply { .. })),
        format!("final request answered {last:?}"),
    );
    match &summary {
        Ok(summary) => {
            out.note(format!(
                "daemon: {}",
                summary.trim_end().replace('\n', "; ")
            ));
            let head = format!("served {} responses over {CONNECTIONS} sessions", total + 1);
            out.check(
                summary.starts_with(&head),
                format!("daemon summary {summary:?}, want {head:?}"),
            );
            let server_side = tenant_lines(summary);
            out.check(
                server_side == expected,
                format!("per-tenant accounting: daemon {server_side:?}, clients {expected:?}"),
            );
        }
        Err(e) => out.check(false, e.clone()),
    }

    let closed_replies: u64 = closed_clients.iter().map(|c| c.replies).sum();
    let (
        OpenStats {
            latency_ns: latency,
            lag_ns: lag,
        },
        chosen,
    ) = calmest(&attempts);
    if latency.is_empty() || lag.is_empty() {
        return Err("the open loop recorded no latency".into());
    }
    let served = closed_replies as f64 / closed_wall;
    out.note(format!(
        "served_req_per_s = {served} req/s (closed loop, {CONNECTIONS} x {WINDOW} in flight, {closed_replies} replies)"
    ));
    let p50 = latency_quantile_us(&latency, 0.5);
    let p99 = latency_quantile_us(&latency, 0.99);
    let per_attempt: Vec<String> = attempts
        .iter()
        .map(|(steal, s)| {
            let p99 = latency_quantile_us(&s.latency_ns, 0.99);
            format!("{steal} steal ticks: p99 {p99} us")
        })
        .collect();
    out.note(format!(
        "served_p50_us = {p50} us, served_p99_us = {p99} us (open loop at {OPEN_RATE_PER_S} req/s \
         from due time; {} samples of the {chosen} calmest of {OPEN_ATTEMPTS} attempts [{}]; max {} us)",
        latency.len(),
        per_attempt.join(", "),
        latency_quantile_us(&latency, 1.0)
    ));
    if !trace {
        out.metric("setup_s", median(&setups), "s");
        out.metric(
            "peak_rss_mb",
            peak_rss.ok_or("daemon /proc status unreadable")?,
            "MB",
        );
        out.metric("throughput_per_s", served, "1/s");
        out.metric("p50_us", p50, "us");
        out.metric("p99_us", p99, "us");
        return Ok(());
    }

    let closed_requests = (per_conn * CONNECTIONS as u64) as f64;
    out.metric(
        "serve.server_cpu_us_per_req",
        (p1.cpu_ns - p0.cpu_ns) as f64 / closed_requests / 1e3,
        "us",
    );
    out.metric(
        "serve.reactor_busy_share",
        (p1.main_cpu_ns - p0.main_cpu_ns) as f64 / (closed_wall * 1e9),
        "ratio",
    );
    out.metric(
        "serve.server_ctx_switches_per_req",
        (p2.ctx_switches - p1.ctx_switches) as f64 / open_total as f64,
        "count",
    );
    let sum = |f: fn(&Conn) -> u64| conns.iter().map(f).sum::<u64>() as f64;
    out.metric(
        "serve.wire.client_read_ns_per_frame",
        sum(|c| c.read_ns) / sum(|c| c.read_frames).max(1.0),
        "ns",
    );
    out.metric(
        "serve.wire.client_write_ns_per_frame",
        sum(|c| c.write_ns) / sum(|c| c.write_frames).max(1.0),
        "ns",
    );
    out.metric("load.gen_lag_p99_us", quantile(&lag, 0.99) / 1e3, "us");
    let r = replay(seed, clock_ns, out);
    out.metric("serve.proto.encode_ns_per_frame", r.encode_ns, "ns");
    out.metric("serve.proto.decode_ns_per_frame", r.decode_ns, "ns");
    out.metric("serve.core.on_frame_ns", r.on_frame_ns, "ns");
    out.metric("serve.core.tick_ns_per_req", r.tick_ns_per_req, "ns");
    out.metric("serve.core.reqs_per_tick", r.reqs_per_tick, "count");
    // Equal request counts in both halves: the time ratio is the cost
    // ratio of the timed half to the untimed one.
    let ratios: Vec<f64> = halves.iter().map(|h| h.1 / h.0).collect();
    out.metric("trace.overhead_ratio", median(&ratios), "ratio");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A peer speaking the daemon's protocol that answers every request
    /// at once, except that it stops reading for `stall` after every
    /// `every` requests.
    fn stalling_peer(listener: TcpListener, every: u64, stall: Duration) {
        let (stream, _) = listener.accept().expect("accept");
        let mut session = TcpSession::new(stream).expect("session");
        let mut seen = 0u64;
        let mut next_stall = every;
        loop {
            let (frames, err, status) = session.read_frames();
            assert!(err.is_none(), "peer decode error {err:?}");
            for f in frames {
                if let Some(req_id) = req_id(&f) {
                    seen += 1;
                    session.queue(&Frame::Reply {
                        req_id,
                        latency: 1,
                        value: Vec::new(),
                    });
                }
            }
            session.flush().expect("peer write");
            if seen >= next_stall {
                next_stall += every;
                std::thread::sleep(stall);
            }
            if status != ReadStatus::Open {
                return;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    #[test]
    fn a_stalled_peer_shows_up_in_the_tail() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stall = Duration::from_millis(100);
        // Two attempts of half a second at 30k req/s, about 15k requests
        // each; the peer stalls once in each, so about a fifth of an
        // attempt's requests are due while it is stalled.
        let peer = std::thread::spawn(move || stalling_peer(listener, 10_000, stall));
        let ticks = 50_000;
        let mut conn = Conn::connect(&addr).expect("connect");
        let mut attempts = Vec::new();
        for (attempt, steal) in [(0, 3), (1, 1)] {
            let mut client = Client::new(open_config(7, 0, attempt, ticks));
            let stats = open_loop(
                std::slice::from_mut(&mut conn),
                std::slice::from_mut(&mut client),
                ticks,
            )
            .expect("open loop");
            assert!(client.done() && client.replies == client.sent());
            attempts.push((steal, stats));
        }
        drop(conn);
        peer.join().expect("peer thread");
        // The same figures the run reports as p50_us and p99_us.
        let (stats, chosen) = calmest(&attempts);
        assert_eq!(chosen, 1);
        assert_eq!(
            stats.latency_ns, attempts[1].1.latency_ns,
            "not the least steal"
        );
        let p50 = latency_quantile_us(&stats.latency_ns, 0.5);
        let p99 = latency_quantile_us(&stats.latency_ns, 0.99);
        let stall_us = stall.as_micros() as f64;
        assert!(p99 > 0.5 * stall_us, "p99 {p99} us hides the stall");
        assert!(p50 < 0.2 * stall_us, "p50 {p50} us");
        assert!(
            quantile(&stats.lag_ns, 0.5) < 1e6,
            "the generator itself fell behind"
        );
    }
}
