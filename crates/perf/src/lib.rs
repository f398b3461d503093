//! # trim-perf — the performance benchmark and regression layer
//!
//! Measures the event engine two ways:
//!
//! - **Macro-benchmarks** — engine-scale workloads (1k/10k/100k-flow
//!   incasts from [`trim_workload::scale`], persistent-connection
//!   churn) timed end to end, reporting events/second;
//! - **Micro-benchmarks** — tight loops over the individual hot paths
//!   (event schedule/pop, queue enqueue/dequeue, RTT estimator update),
//!   reporting operations/second.
//!
//! The `trim-perf` binary writes each result as a JSON baseline under
//! `results/perf/`. Wall-clock numbers are machine-specific and live
//! **only** there — campaign CSVs under `results/` stay byte-identical
//! across hosts. `trim-perf --smoke` re-measures the 1k-flow incast and
//! hard-fails only when it lands more than [`REGRESSION_FACTOR`]× below
//! the committed baseline, so CI catches order-of-magnitude engine
//! regressions without flaking on shared-runner noise.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::dbg_macro, clippy::print_stdout, clippy::float_cmp)
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::time::Instant;

use netsim::queue::{DropTailQueue, EnqueueOutcome};
use netsim::time::{Dur, SimTime};
use netsim::{
    Bandwidth, EventQueue, FlowId, Packet, QueueConfig, Simulator, SinkAgent, TagPayload,
};
use trim_tcp::rto::RtoEstimator;
use trim_tcp::{CcKind, Segment, TcpConfig, TcpHost};
use trim_workload::scale::{run_scale_incast, ScaleConfig};

/// `--smoke` hard-fails when measured events/sec drop below
/// `baseline / REGRESSION_FACTOR`. Generous on purpose: the threshold
/// is there to catch accidental O(n log n) → O(n²) slips, not 20%
/// noise on a loaded CI runner.
pub const REGRESSION_FACTOR: f64 = 5.0;

/// One timed macro-benchmark run.
#[derive(Clone, Debug)]
pub struct MacroResult {
    /// Baseline name (also the JSON file stem).
    pub name: String,
    /// Concurrent flows in the workload.
    pub flows: usize,
    /// Application bytes per flow (per response for the churn bench).
    pub bytes_per_flow: u64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Flows (or responses) that completed within the horizon.
    pub completed: usize,
    /// Packets delivered / dropped, and RTOs fired.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Peak concurrent on-the-wire packets.
    pub arena_high_water: usize,
    /// Wall-clock seconds for the run.
    pub wall_s: f64,
    /// `events / wall_s` — the headline engine-throughput metric.
    pub events_per_sec: f64,
}

/// One timed micro-benchmark loop.
#[derive(Clone, Debug)]
pub struct MicroResult {
    /// Loop name.
    pub name: String,
    /// Operations performed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// `ops / wall_s`.
    pub ops_per_sec: f64,
}

/// Runs the scale incast under a wall clock.
pub fn incast_macro(name: &str, cfg: &ScaleConfig) -> MacroResult {
    let t0 = Instant::now();
    let r = run_scale_incast(cfg);
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    MacroResult {
        name: name.to_string(),
        flows: cfg.flows,
        bytes_per_flow: cfg.bytes_per_flow,
        events: r.events,
        completed: r.completed,
        delivered: r.audit.delivered,
        dropped: r.audit.dropped,
        timeouts: r.timeouts,
        arena_high_water: r.arena_high_water,
        wall_s,
        events_per_sec: r.events as f64 / wall_s,
    }
}

/// The standard incast scale points: `(baseline name, flow count)`.
pub const INCAST_POINTS: &[(&str, usize)] = &[
    ("incast_1k", 1_000),
    ("incast_10k", 10_000),
    ("incast_100k", 100_000),
];

/// Persistent-connection churn: `conns` connections each serve
/// `responses` sequential responses with a think-time gap, the
/// timer-heavy steady state of the paper's persistent-HTTP testbed.
pub fn churn_macro(conns: usize, responses: usize, response_bytes: u64) -> MacroResult {
    let t0 = Instant::now();
    let mut sim: Simulator<Segment> = Simulator::new();
    let link = netsim::topology::LinkSpec::new(
        Bandwidth::gbps(1),
        Dur::from_micros(50),
        QueueConfig::drop_tail(100),
    );
    let net = netsim::topology::many_to_one(&mut sim, conns, link, |_| Box::new(TcpHost::new()));
    let tcp = TcpConfig::default().with_min_rto(Dur::from_millis(20));
    for (i, &s) in net.senders.iter().enumerate() {
        let idx = trim_workload::scenario::wire_flow(
            &mut sim,
            FlowId(i as u64),
            s,
            net.front_end,
            tcp,
            &CcKind::Reno,
        );
        sim.host_mut::<TcpHost>(s).schedule_response_sequence(
            idx,
            SimTime::from_nanos(1_000 * (1 + i as u64)),
            vec![response_bytes; responses],
            Dur::from_micros(500),
        );
    }
    sim.run_until(SimTime::from_secs(30));
    let completed: usize = net
        .senders
        .iter()
        .map(|&s| {
            sim.host::<TcpHost>(s)
                .connection(0)
                .completed_trains()
                .len()
        })
        .sum();
    let timeouts: u64 = net
        .senders
        .iter()
        .map(|&s| sim.host::<TcpHost>(s).connection(0).stats().timeouts)
        .sum();
    let audit = sim.audit_stats();
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    MacroResult {
        name: "churn".to_string(),
        flows: conns,
        bytes_per_flow: response_bytes,
        events: sim.events_processed(),
        completed,
        delivered: audit.delivered,
        dropped: audit.dropped,
        timeouts,
        arena_high_water: sim.arena_high_water(),
        wall_s,
        events_per_sec: sim.events_processed() as f64 / wall_s,
    }
}

fn timed(name: &str, ops: u64, f: impl FnOnce()) -> MicroResult {
    let t0 = Instant::now();
    f();
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    MicroResult {
        name: name.to_string(),
        ops,
        wall_s,
        ops_per_sec: ops as f64 / wall_s,
    }
}

/// The micro-benchmark suite: event schedule/pop, queue
/// enqueue/dequeue, RTT estimator update.
pub fn micro_suite(ops: u64) -> Vec<MicroResult> {
    let mut out = Vec::new();

    out.push(timed("eventq_push_pop", ops, || {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(4096);
        for i in 0..4096u64 {
            q.push(SimTime::from_nanos(i * 7), i);
        }
        let mut t = 4096u64 * 7;
        for i in 0..ops {
            t += 13 + (i % 29);
            q.push(SimTime::from_nanos(t), i);
            std::hint::black_box(q.pop());
        }
    }));

    out.push(timed("queue_enqueue_dequeue", ops, || {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let a = sim.add_host(Box::new(SinkAgent::default()));
        let b = sim.add_host(Box::new(SinkAgent::default()));
        let mut q = DropTailQueue::new(QueueConfig::drop_tail(512));
        for i in 0..ops {
            let now = SimTime::from_nanos(i * 100);
            let outcome = q.enqueue(now, Packet::new(a, b, FlowId(0), 1460, TagPayload(i)));
            std::hint::black_box(outcome == EnqueueOutcome::Accepted);
            if i % 2 == 1 {
                std::hint::black_box(q.dequeue(now));
            }
        }
    }));

    out.push(timed("rto_observe", ops, || {
        let mut e = RtoEstimator::new(Dur::from_millis(1), Dur::from_secs(60));
        for i in 0..ops {
            e.observe(Dur::from_micros(100 + (i % 50)));
            std::hint::black_box(e.rto());
        }
    }));

    out
}

/// Renders a macro result as its committed JSON baseline.
pub fn macro_json(r: &MacroResult) -> String {
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"flows\": {},\n  \"bytes_per_flow\": {},\n  \
         \"events\": {},\n  \"completed\": {},\n  \"delivered\": {},\n  \"dropped\": {},\n  \
         \"timeouts\": {},\n  \"arena_high_water\": {},\n  \"wall_s\": {:.3},\n  \
         \"events_per_sec\": {:.0}\n}}\n",
        r.name,
        r.flows,
        r.bytes_per_flow,
        r.events,
        r.completed,
        r.delivered,
        r.dropped,
        r.timeouts,
        r.arena_high_water,
        r.wall_s,
        r.events_per_sec,
    )
}

/// Renders the micro suite as one JSON baseline.
pub fn micro_json(rs: &[MicroResult]) -> String {
    let mut out = String::from("{\n  \"bench\": \"micro\",\n  \"results\": [\n");
    for (i, r) in rs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops\": {}, \"wall_s\": {:.3}, \"ops_per_sec\": {:.0}}}{}\n",
            r.name,
            r.ops,
            r.wall_s,
            r.ops_per_sec,
            if i + 1 < rs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `"events_per_sec": <number>` from a baseline JSON file.
pub fn baseline_events_per_sec(json: &str) -> Option<f64> {
    let key = "\"events_per_sec\":";
    let start = json.find(key)? + key.len();
    let tail = json[start..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Verdict of the `--smoke` comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SmokeVerdict {
    /// Within `REGRESSION_FACTOR` of the baseline (either direction).
    Ok,
    /// More than `REGRESSION_FACTOR`× slower than the baseline.
    Regressed,
}

/// Compares measured events/sec against the committed baseline.
pub fn smoke_verdict(measured: f64, baseline: f64) -> SmokeVerdict {
    if measured * REGRESSION_FACTOR < baseline {
        SmokeVerdict::Regressed
    } else {
        SmokeVerdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incast_macro_reports_throughput() {
        let mut cfg = ScaleConfig::with_flows(40);
        cfg.bytes_per_flow = 10_000;
        let r = incast_macro("test", &cfg);
        assert_eq!(r.completed, 40);
        assert!(r.events > 0);
        assert!(r.events_per_sec > 0.0);
        assert!(r.arena_high_water > 0);
    }

    #[test]
    fn churn_macro_completes_every_response() {
        let r = churn_macro(8, 5, 8_000);
        assert_eq!(r.completed, 8 * 5, "{r:?}");
        assert!(r.events > 0);
    }

    #[test]
    fn micro_suite_measures_all_three_paths() {
        let rs = micro_suite(10_000);
        let names: Vec<&str> = rs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["eventq_push_pop", "queue_enqueue_dequeue", "rto_observe"]
        );
        assert!(rs.iter().all(|r| r.ops_per_sec > 0.0));
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let r = MacroResult {
            name: "incast_1k".into(),
            flows: 1000,
            bytes_per_flow: 146_000,
            events: 5_000_000,
            completed: 1000,
            delivered: 120_000,
            dropped: 30,
            timeouts: 2,
            arena_high_water: 210,
            wall_s: 2.5,
            events_per_sec: 2_000_000.0,
        };
        let json = macro_json(&r);
        assert_eq!(baseline_events_per_sec(&json), Some(2_000_000.0));
        assert!(json.contains("\"bench\": \"incast_1k\""));
        assert!(json.contains("\"arena_high_water\": 210"));
    }

    #[test]
    fn smoke_threshold_is_generous_but_firm() {
        assert_eq!(smoke_verdict(1_000_000.0, 1_000_000.0), SmokeVerdict::Ok);
        // 4x slower: informational only.
        assert_eq!(smoke_verdict(250_000.0, 1_000_000.0), SmokeVerdict::Ok);
        // >5x slower: hard failure.
        assert_eq!(
            smoke_verdict(199_999.0, 1_000_000.0),
            SmokeVerdict::Regressed
        );
        // Faster than baseline is always fine.
        assert_eq!(smoke_verdict(9_000_000.0, 1_000_000.0), SmokeVerdict::Ok);
    }

    #[test]
    fn baseline_parser_tolerates_whitespace_and_ints() {
        assert_eq!(
            baseline_events_per_sec("{\"events_per_sec\":   1234567\n}"),
            Some(1_234_567.0)
        );
        assert_eq!(baseline_events_per_sec("{}"), None);
    }
}
