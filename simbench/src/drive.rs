//! The benchmark's workloads, and the runners that execute one repetition.
//!
//! Each runner rebuilds a library entry point from the simulator's
//! public APIs with a host-time span around every phase: generation,
//! topology, flow wiring, `run_until` and collection. The incast runner
//! reproduces `trim_workload::scale::run_scale_incast` and the serve
//! runner reproduces `trim_serve::run` event for event (the agreement
//! tests hold them to it), so a phase split measured here is the split
//! of the real entry point.

use std::fmt;

use netsim::prelude::*;
use netsim::topology::LinkSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trim_serve::{generate, ServeConfig, SessionModel};
use trim_tcp::{CcKind, ConnStats, Segment, TcpConfig, TcpHost};
use trim_workload::scale::{run_scale_incast, ScaleConfig};
use trim_workload::Summary;

use crate::clock::Stopwatch;
use crate::hooks::{take_observed, HookTally, Host, TimedMonitors};

/// `ScaleConfig`'s default seed; `--seed n` uses `SCALE_SEED + n`.
pub const SCALE_SEED: u64 = 0x5ca1e;
/// The serving workload's default `SessionModel` seed; `--seed n` uses
/// `SESSION_SEED + n`.
pub const SESSION_SEED: u64 = 1;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 10⁵ single-segment Reno flows packed 1 000 per host: RTO timers,
    /// a deep slab and 10⁵ flow wirings.
    IncastRto,
    /// 32 TRIM senders with an 8 MB train each: the ACK-clocked path.
    IncastBulk,
    /// 3×10⁴ persistent-HTTP sessions over the 4-pod fat-tree, TRIM.
    ServeFattree,
    /// `IncastBulk` with the standard invariant monitors attached.
    IncastChecked,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::IncastRto,
        Workload::IncastBulk,
        Workload::ServeFattree,
        Workload::IncastChecked,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IncastRto => "incast_rto",
            Workload::IncastBulk => "incast_bulk",
            Workload::ServeFattree => "serve_fattree",
            Workload::IncastChecked => "incast_checked",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size plan at seed offset `seed` (`0` = default seeds).
    pub fn plan(self, seed: u64) -> Plan {
        match self {
            Workload::IncastRto => Plan::Incast {
                cfg: rto_config(100_000, SCALE_SEED.wrapping_add(seed)),
                monitors: false,
            },
            Workload::IncastBulk | Workload::IncastChecked => Plan::Incast {
                cfg: bulk_config(32, 8_000_000, SCALE_SEED.wrapping_add(seed)),
                monitors: self == Workload::IncastChecked,
            },
            Workload::ServeFattree => Plan::Serve(Box::new(serve_config(
                30_000,
                SESSION_SEED.wrapping_add(seed),
            ))),
        }
    }
}

/// The `ScaleConfig::million_flow()` shape (single-segment Reno flows,
/// 1 000 per sender host, 20 ms RTO floor) scaled to `flows` flows and
/// a 1.5 s horizon.
pub fn rto_config(flows: usize, seed: u64) -> ScaleConfig {
    ScaleConfig {
        flows,
        horizon: Dur::from_millis(1_500),
        seed,
        ..ScaleConfig::million_flow()
    }
}

/// `flows` senders on the star, one flow per host, each sending one
/// `bytes` train under TRIM with the Eq. 22 `K` for the 1 Gbps links.
pub fn bulk_config(flows: usize, bytes: u64, seed: u64) -> ScaleConfig {
    ScaleConfig {
        bytes_per_flow: bytes,
        seed,
        cc: CcKind::trim_with_capacity(Bandwidth::gbps(1).as_bps(), TcpConfig::default().mss_bytes),
        ..ScaleConfig::with_flows(flows)
    }
}

/// `sessions` sessions of `SessionModel::new(seed, _)` on the default
/// 4-pod fat-tree, with TRIM servers.
pub fn serve_config(sessions: usize, seed: u64) -> ServeConfig {
    ServeConfig::new(SessionModel::new(seed, sessions)).trim()
}

/// What one repetition runs.
#[derive(Clone, Debug)]
pub enum Plan {
    /// A scale incast, optionally under the standard monitors.
    Incast {
        /// The incast shape.
        cfg: ScaleConfig,
        /// Attach `trim_check::standard_monitors()`.
        monitors: bool,
    },
    /// A serving run.
    Serve(Box<ServeConfig>),
}

/// Host seconds of each phase of one repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Workload generation (start times or session plans).
    pub generate_s: f64,
    /// Topology construction.
    pub topology_s: f64,
    /// Flow wiring and schedule registration (plus monitor attach).
    pub wire_s: f64,
    /// From the start of the repetition to the call of `run_until`.
    pub setup_s: f64,
    /// Inside `Simulator::run_until`.
    pub run_s: f64,
    /// Result collection after the run.
    pub collect_s: f64,
}

impl Phases {
    /// Setup + run + collection.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s + self.collect_s
    }
}

/// The deterministic identity of a run: identical across repetitions,
/// between traced and untraced runs, and (at the default seed) equal to
/// the committed `digests.txt`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Events the engine dispatched.
    pub events: u64,
    /// Packets delivered to hosts.
    pub delivered: u64,
    /// Packets dropped by queues.
    pub dropped: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Completed trains (incast) or requests (serve).
    pub completed: u64,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} delivered={} dropped={} timeouts={} completed={}",
            self.events, self.delivered, self.dropped, self.timeouts, self.completed
        )
    }
}

impl Digest {
    /// Parses the [`Display`](fmt::Display) form back.
    pub fn parse(text: &str) -> Option<Digest> {
        let mut d = Digest::default();
        let mut seen = 0;
        for field in text.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            let value: u64 = value.parse().ok()?;
            let slot = match key {
                "events" => &mut d.events,
                "delivered" => &mut d.delivered,
                "dropped" => &mut d.dropped,
                "timeouts" => &mut d.timeouts,
                "completed" => &mut d.completed,
                _ => return None,
            };
            *slot = value;
            seen += 1;
        }
        (seen == 5).then_some(d)
    }
}

/// Deterministic per-layer counters of one repetition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// The run's digest.
    pub digest: Digest,
    /// Packets injected by hosts.
    pub injected: u64,
    /// Peak concurrent packets in the engine's arena.
    pub arena_high_water: u64,
    /// Summed `ConnStats` over every sending connection.
    pub conn: ConnStats,
    /// Summed `SlabAudit::high_water` over every host.
    pub slab_high_water: u64,
    /// Trains (incast) or requests (serve) the workload planned.
    pub planned: u64,
    /// Invariant violations recorded by attached monitors.
    pub violations: u64,
}

/// The outcome of one repetition.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host time per phase.
    pub phases: Phases,
    /// Deterministic counters.
    pub counts: Counts,
    /// Hook tallies (zero when untraced).
    pub hooks: HookTally,
    /// Completion-time summary (ACT for incasts, ARCT for serving).
    pub summary: Summary,
    /// Failed correctness checks, empty when the repetition is clean.
    pub failures: Vec<String>,
}

impl Plan {
    /// Runs one repetition with hosts of type `H`.
    pub fn run<H: Host>(&self) -> Rep {
        match self {
            Plan::Incast { cfg, monitors } => run_incast::<H>(cfg, *monitors),
            Plan::Serve(cfg) => run_serve::<H>(cfg),
        }
    }

    /// Runs the library entry point this plan reproduces and compares
    /// every count it reports with `rep`'s.
    pub fn check_against_library(&self, rep: &Rep) -> Result<(), String> {
        let c = &rep.counts;
        let pairs: Vec<(&str, u64, u64)> = match self {
            Plan::Incast { cfg, .. } => {
                let r = run_scale_incast(cfg);
                vec![
                    ("events", r.events, c.digest.events),
                    ("injected", r.audit.injected, c.injected),
                    ("delivered", r.audit.delivered, c.digest.delivered),
                    ("dropped", r.audit.dropped, c.digest.dropped),
                    ("timeouts", r.timeouts, c.digest.timeouts),
                    ("completed", r.completed as u64, c.digest.completed),
                    (
                        "arena_high_water",
                        r.arena_high_water as u64,
                        c.arena_high_water,
                    ),
                ]
            }
            Plan::Serve(cfg) => {
                let r = trim_serve::run(cfg);
                vec![
                    ("events", r.events_processed, c.digest.events),
                    ("timeouts", r.timeouts, c.digest.timeouts),
                    ("completed", r.requests_completed, c.digest.completed),
                ]
            }
        };
        let diffs: Vec<String> = pairs
            .into_iter()
            .filter(|&(_, lib, ours)| lib != ours)
            .map(|(name, lib, ours)| format!("{name}: library {lib}, runner {ours}"))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs.join("; "))
        }
    }
}

/// The 1 Gbps / 50 µs / 100-packet star link of `run_scale_incast`.
fn star_link() -> LinkSpec {
    LinkSpec::new(
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(100),
    )
}

/// Attaches the standard monitors, timed when `H` is traced.
fn attach_monitors<H: Host>(sim: &mut Simulator<Segment>) {
    let monitors = trim_check::standard_monitors();
    if H::TRACED {
        sim.attach_monitor(Box::new(TimedMonitors::new(monitors)));
    } else {
        for m in monitors {
            sim.attach_monitor(m);
        }
    }
}

fn add_conn(stats: &mut ConnStats, s: ConnStats) {
    stats.pkts_sent += s.pkts_sent;
    stats.rtx_sent += s.rtx_sent;
    stats.probes_sent += s.probes_sent;
    stats.timeouts += s.timeouts;
    stats.fast_retransmits += s.fast_retransmits;
    stats.acks_received += s.acks_received;
    stats.dup_acks_received += s.dup_acks_received;
}

/// Engine-level counts and checks shared by both runners: packet
/// conservation, the slab books of every host, monitor violations and
/// the summed hook tallies.
fn engine_counts<H: Host>(
    sim: &Simulator<Segment>,
    hosts: &[NodeId],
    counts: &mut Counts,
    failures: &mut Vec<String>,
) -> HookTally {
    let audit = sim.audit_stats();
    counts.digest.events = sim.events_processed();
    counts.digest.delivered = audit.delivered;
    counts.digest.dropped = audit.dropped;
    counts.injected = audit.injected;
    counts.arena_high_water = sim.arena_high_water() as u64;
    counts.violations = sim.violations().len() as u64;
    if audit.injected != audit.delivered + audit.dropped + audit.in_flight() {
        failures.push(format!(
            "packet conservation: injected {} != delivered {} + dropped {} + in flight {}",
            audit.injected,
            audit.delivered,
            audit.dropped,
            audit.in_flight()
        ));
    }
    if counts.violations > 0 {
        failures.push(format!("{} monitor violation(s)", counts.violations));
    }
    let mut hooks = HookTally::default();
    for &node in hosts {
        let host = sim.host::<H>(node);
        if let Err(e) = host.tcp().slab_leak_check() {
            failures.push(format!("slab leak on {node}: {e}"));
        }
        counts.slab_high_water += host.tcp().slab_audit().high_water;
        hooks = hooks.plus(host.hooks());
    }
    hooks.observe = take_observed();
    hooks
}

/// The scale incast of `run_scale_incast`, phase by phase.
fn run_incast<H: Host>(cfg: &ScaleConfig, monitors: bool) -> Rep {
    take_observed();
    let setup = Stopwatch::start();

    let w = Stopwatch::start();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let window = cfg.start_window.as_nanos().max(1);
    let starts: Vec<SimTime> = (0..cfg.flows)
        .map(|_| SimTime::from_nanos(rng.random_range(0..window)))
        .collect();
    let generate_s = w.elapsed_s();

    let w = Stopwatch::start();
    let mut sim: Simulator<Segment> = Simulator::new();
    let per_host = cfg.senders_per_host.max(1);
    let net = topology::many_to_one(
        &mut sim,
        cfg.flows.div_ceil(per_host),
        star_link(),
        |role| {
            Box::new(H::wrap(match role {
                topology::Role::Sender(_) => TcpHost::with_sender_capacity(per_host),
                _ => TcpHost::new(),
            }))
        },
    );
    let topology_s = w.elapsed_s();

    let w = Stopwatch::start();
    let tcp = TcpConfig::default().with_min_rto(cfg.min_rto);
    for (i, &at) in starts.iter().enumerate() {
        let flow = FlowId(i as u64);
        let src = net.senders[i / per_host];
        sim.host_mut::<H>(net.front_end)
            .tcp_mut()
            .add_receiver(flow, tcp);
        let host = sim.host_mut::<H>(src).tcp_mut();
        let idx = host.add_sender(flow, net.front_end, tcp, &cfg.cc);
        host.schedule_train(idx, at, cfg.bytes_per_flow);
    }
    if monitors {
        attach_monitors::<H>(&mut sim);
    }
    let wire_s = w.elapsed_s();
    let setup_s = setup.elapsed_s();

    let w = Stopwatch::start();
    sim.run_until(SimTime::ZERO + cfg.horizon);
    let run_s = w.elapsed_s();

    let w = Stopwatch::start();
    let mut counts = Counts {
        planned: cfg.flows as u64,
        ..Counts::default()
    };
    let mut failures = Vec::new();
    let mut hosts = net.senders.clone();
    hosts.push(net.front_end);
    let hooks = engine_counts::<H>(&sim, &hosts, &mut counts, &mut failures);
    let mut times: Vec<Dur> = Vec::new();
    for &s in &net.senders {
        for conn in sim.host::<H>(s).tcp().connections() {
            add_conn(&mut counts.conn, conn.stats());
            times.extend(conn.completed_trains().iter().map(|t| t.completion_time()));
        }
    }
    counts.digest.timeouts = counts.conn.timeouts;
    counts.digest.completed = times.len() as u64;
    let summary = Summary::of(&times);
    let collect_s = w.elapsed_s();

    Rep {
        phases: Phases {
            generate_s,
            topology_s,
            wire_s,
            setup_s,
            run_s,
            collect_s,
        },
        counts,
        hooks,
        summary,
        failures,
    }
}

/// The serving run of `trim_serve::run`, phase by phase.
fn run_serve<H: Host>(cfg: &ServeConfig) -> Rep {
    take_observed();
    let setup = Stopwatch::start();

    let w = Stopwatch::start();
    let plans = generate(&cfg.model);
    let generate_s = w.elapsed_s();

    let w = Stopwatch::start();
    let mut sim: Simulator<Segment> = Simulator::new();
    let net = topology::fat_tree(&mut sim, cfg.pods, cfg.link, |_| {
        Box::new(H::wrap(TcpHost::new()))
    });
    let topology_s = w.elapsed_s();

    // Round-robin placement, exactly as `trim_serve::run` places sessions.
    let w = Stopwatch::start();
    let half = net.hosts.len() / 2;
    let (servers, clients) = net.hosts.split_at(half);
    let mut placed: Vec<(NodeId, usize)> = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let server = servers[i % servers.len()];
        let client = clients[(i / servers.len()) % clients.len()];
        let flow = FlowId(i as u64);
        sim.host_mut::<H>(client)
            .tcp_mut()
            .add_receiver(flow, cfg.tcp);
        let host = sim.host_mut::<H>(server).tcp_mut();
        let idx = host.add_sender(flow, client, cfg.tcp, &cfg.cc);
        host.schedule_response_sequence(idx, plan.arrival, plan.sizes.clone(), plan.think);
        placed.push((server, idx));
    }
    let wire_s = w.elapsed_s();
    let setup_s = setup.elapsed_s();

    let w = Stopwatch::start();
    sim.run_until(SimTime::from_secs_f64(cfg.horizon_secs));
    let run_s = w.elapsed_s();

    // Collection: the SLO report's inputs — per-request completion
    // times, session ends, peak concurrency and last-hop queue stats.
    let w = Stopwatch::start();
    let mut counts = Counts {
        planned: plans.iter().map(|p| p.sizes.len() as u64).sum(),
        ..Counts::default()
    };
    let mut failures = Vec::new();
    let hooks = engine_counts::<H>(&sim, &net.hosts, &mut counts, &mut failures);
    let horizon = sim.now();
    let mut completions: Vec<Dur> = Vec::new();
    let mut spans: Vec<(SimTime, i8)> = Vec::with_capacity(plans.len() * 2);
    for (plan, &(server, idx)) in plans.iter().zip(&placed) {
        let conn = sim.host::<H>(server).tcp().connection(idx);
        let trains = conn.completed_trains();
        add_conn(&mut counts.conn, conn.stats());
        completions.extend(trains.iter().map(|t| t.completion_time()));
        let end = match trains.last() {
            Some(t) if trains.len() == plan.sizes.len() => t.completed_at,
            _ => horizon,
        };
        spans.push((plan.arrival, 1));
        spans.push((end, -1));
    }
    spans.sort_unstable();
    let mut open = 0i64;
    let mut peak = 0i64;
    for (_, delta) in spans {
        open += i64::from(delta);
        peak = peak.max(open);
    }
    let span = horizon.saturating_since(SimTime::ZERO);
    let mut downlink_len = 0.0;
    for &ch in &net.host_downlinks[half..] {
        downlink_len += sim.queue_stats(ch).average_len(span);
    }
    counts.digest.timeouts = counts.conn.timeouts;
    counts.digest.completed = completions.len() as u64;
    let summary = Summary::of(&completions);
    std::hint::black_box((peak, downlink_len));
    let collect_s = w.elapsed_s();

    Rep {
        phases: Phases {
            generate_s,
            topology_s,
            wire_s,
            setup_s,
            run_s,
            collect_s,
        },
        counts,
        hooks,
        summary,
        failures,
    }
}
