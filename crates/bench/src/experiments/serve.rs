//! Ext — web-serving sessions with SLO reporting (`serve_slo`,
//! `serve_100k`) and the mean-field fast path (`serve_meanfield`).
//!
//! Three campaigns on top of `trim-serve`:
//!
//! - `serve_slo` — a small open-loop serving run (2,048 user sessions on
//!   a 4-pod fat-tree) under Reno and TRIM, reduced to the SLO table an
//!   operator would watch: p50/p99/p999 ARCT, goodput, session
//!   accounting, peak concurrency, last-hop queue occupancy. Small
//!   enough to double as the CI golden smoke at `--jobs 1` and `--jobs 8`.
//! - `serve_100k` — the same workload at 102,400 concurrent sessions
//!   (every session provably open at once: the think floor exceeds the
//!   arrival window), the paper's "highly concurrent" regime at packet
//!   level, with separate SLO and queue-occupancy artifacts.
//! - `serve_meanfield` — the fluid-model cross-validation table (packet
//!   vs fluid mean ARCT on every committed instance) plus a fleet-scale
//!   sweep to one million connections that only the fluid path can
//!   afford.
//!
//! Every campaign here ignores `--full`: the sweeps are fixed so the
//! committed goldens are byte-stable across effort levels.

use netsim::time::Dur;
use trim_core::fluid::{self, FluidCc, FluidClass, FluidConfig};
use trim_core::kmodel;
use trim_harness::Campaign;
use trim_serve::run::{run, ServeConfig, ServeReport};
use trim_serve::session::SessionModel;
use trim_serve::{cross_validate, instances};

use crate::num;
use crate::{Effort, Table};

/// Serving model shared by `serve_slo` and `serve_100k`: only the
/// session count and pacing differ.
fn model(seed: u64, sessions: usize, window_ms: u64, think_ms: u64) -> SessionModel {
    SessionModel {
        seed,
        sessions,
        arrival_window: Dur::from_millis(window_ms),
        requests: (2, 3),
        response_bytes: (2_000, 10_000),
        think_min: Dur::from_millis(think_ms),
        think_mean_excess: Dur::from_millis(think_ms.div_ceil(2)),
    }
}

fn serve_once(proto: &str, seed: u64, sessions: usize, window_ms: u64) -> ServeReport {
    // The think floor stays above the arrival window so every session
    // is still open when the last one arrives: peak concurrency equals
    // the session count by construction.
    let mut cfg = ServeConfig::new(model(seed, sessions, window_ms, window_ms + window_ms / 2));
    cfg.horizon_secs = 3.0;
    if proto == "trim" {
        cfg = cfg.trim();
    }
    run(&cfg)
}

const SLO_COLUMNS: &[&str] = &[
    "protocol",
    "sessions",
    "completed",
    "open_at_horizon",
    "peak_concurrent",
    "requests_completed",
    "arct_mean",
    "arct_p50",
    "arct_p99",
    "arct_p999",
    "goodput_mbps",
    "timeouts",
];

fn slo_row(proto: &str, r: &ServeReport) -> Vec<String> {
    vec![
        proto.to_string(),
        r.sessions_planned.to_string(),
        r.sessions_completed.to_string(),
        r.sessions_open_at_horizon.to_string(),
        r.peak_concurrent_sessions.to_string(),
        r.requests_completed.to_string(),
        num(r.arct.mean),
        num(r.arct.p50),
        num(r.arct.p99),
        num(r.arct.p999),
        num(r.goodput_mbps),
        r.timeouts.to_string(),
    ]
}

const QUEUE_COLUMNS: &[&str] = &[
    "protocol",
    "downlink_mean_occupancy",
    "downlink_max_occupancy",
    "downlink_dropped",
    "requests_in_flight",
    "events",
];

fn queue_row(proto: &str, r: &ServeReport) -> Vec<String> {
    vec![
        proto.to_string(),
        num(r.downlink_mean_occupancy),
        r.downlink_max_occupancy.to_string(),
        r.downlink_dropped.to_string(),
        r.requests_in_flight.to_string(),
        r.events_processed.to_string(),
    ]
}

fn serve_campaign(
    id: &'static str,
    campaign_seed: u64,
    sessions: usize,
    window_ms: u64,
    artifacts: (&'static str, Option<&'static str>),
) -> Campaign {
    let mut c = Campaign::new(id, campaign_seed);
    for proto in ["reno", "trim"] {
        // Protocols share the seed key: both serve the exact same
        // session arrivals, sizes and think times.
        c.table_job_seeded(
            proto,
            "workload",
            &[("protocol", proto.to_string())],
            move |seed| {
                let r = serve_once(proto, seed, sessions, window_ms);
                let headers = [SLO_COLUMNS, &QUEUE_COLUMNS[1..]].concat();
                let mut t = Table::new("run", &headers);
                let mut row = slo_row(proto, &r);
                row.extend(queue_row(proto, &r).into_iter().skip(1));
                t.row(&row);
                t
            },
        );
    }
    let (slo_name, queue_name) = artifacts;
    c.reduce(move |records| {
        let mut slo = Table::new("Ext — session SLO report (per protocol)", SLO_COLUMNS);
        let mut queue = Table::new(
            "Ext — last-hop queue occupancy (per protocol)",
            QUEUE_COLUMNS,
        );
        let mut out = Vec::new();
        for proto in ["reno", "trim"] {
            let rec = records
                .iter()
                .find(|r| r.key == proto)
                .unwrap_or_else(|| panic!("missing job '{proto}'"));
            let row = rec.only();
            let slo_cells: Vec<String> = (0..SLO_COLUMNS.len())
                .map(|i| row.cell(0, i).to_string())
                .collect();
            slo.row(&slo_cells);
            let queue_cells: Vec<String> = std::iter::once(proto.to_string())
                .chain(
                    (SLO_COLUMNS.len()..SLO_COLUMNS.len() + QUEUE_COLUMNS.len() - 1)
                        .map(|i| row.cell(0, i).to_string()),
                )
                .collect();
            queue.row(&queue_cells);
        }
        out.push((slo_name.to_string(), slo));
        if let Some(queue_name) = queue_name {
            out.push((queue_name.to_string(), queue));
        }
        out
    });
    c
}

/// The CI-sized serving campaign: 2,048 sessions, Reno vs TRIM, one
/// `ext_serve_slo` artifact. Effort-independent.
pub fn campaign(_effort: Effort) -> Campaign {
    serve_campaign(
        "serve_slo",
        0x005E_5510,
        2_048,
        100,
        ("ext_serve_slo", None),
    )
}

/// The highly-concurrent serving campaign: 102,400 sessions, all open
/// simultaneously at the peak, reduced to SLO and queue artifacts.
/// Effort-independent.
pub fn campaign_100k(_effort: Effort) -> Campaign {
    serve_campaign(
        "serve_100k",
        0x05E5_5100,
        102_400,
        400,
        ("ext_serve_100k_slo", Some("ext_serve_100k_queue")),
    )
}

/// Fluid-sweep population sizes: the last point is one million
/// concurrent connections — far beyond what the packet engine could
/// turn around in an experiment sweep.
const SWEEP_N: &[u64] = &[1_000, 10_000, 100_000, 1_000_000];

/// Fluid-side steady state for `n` connections at the canonical 1 Gbps
/// bottleneck, matching the integration regime of the core model tests:
/// coarse 1 ms Euler steps over a 60 s horizon (a million windows at the
/// floor of 2 need RTT ~ 2N/C ~ 23 s to balance), and a deep-buffered
/// bottleneck so that equilibrium can form instead of clipping every
/// large-N row at the same full buffer.
fn fluid_point(proto: &str, n: u64) -> fluid::FluidOutcome {
    let c = 1e9 / (1460.0 * 8.0);
    let d_ns = 200_000;
    let cc = match proto {
        "reno" => FluidCc::Reno,
        _ => FluidCc::Trim {
            k_ns: kmodel::k_lower_bound_ns(c, d_ns),
        },
    };
    fluid::integrate(&FluidConfig {
        capacity_pps: c,
        buffer_pkts: 5_000_000.0,
        classes: vec![FluidClass {
            n: n as f64,
            base_rtt_ns: d_ns,
            cc,
        }],
        dt_ns: 1_000_000,
        horizon_ns: 60_000_000_000,
        aqm: trim_core::fluid::FluidAqm::DropTail,
    })
}

/// The mean-field campaign: the packet-vs-fluid cross-validation table
/// plus the fleet-scale fluid sweep. Effort-independent.
pub fn campaign_meanfield(_effort: Effort) -> Campaign {
    let mut c = Campaign::new("serve_meanfield", 0x005E_55F1);
    c.table_job("crossval", &[], |_seed| {
        let mut t = Table::new(
            "run",
            &[
                "instance",
                "senders",
                "packet_arct",
                "fluid_arct",
                "rel_err",
            ],
        );
        for inst in instances() {
            let cv = cross_validate(&inst);
            t.row(&[
                cv.name.to_string(),
                cv.senders.to_string(),
                num(cv.packet_arct),
                num(cv.fluid_arct),
                num(cv.rel_err),
            ]);
        }
        t
    });
    c.table_job("sweep", &[], |_seed| {
        let mut t = Table::new(
            "run",
            &[
                "protocol",
                "connections",
                "mean_queue_pkts",
                "mean_rtt_s",
                "per_flow_rate_pps",
                "utilization",
                "arct_64kb",
            ],
        );
        for proto in ["reno", "trim"] {
            for &n in SWEEP_N {
                let out = fluid_point(proto, n);
                t.row(&[
                    proto.to_string(),
                    n.to_string(),
                    num(out.mean_queue),
                    num(out.mean_rtt_ns[0] / 1e9),
                    num(out.per_flow_rate_pps[0]),
                    num(out.utilization),
                    num(out.predicted_arct_ns(0, 45.0) / 1e9),
                ]);
            }
        }
        t
    });
    c.reduce(|records| {
        let take = |key: &str, title: &str| {
            let rec = records
                .iter()
                .find(|r| r.key == key)
                .unwrap_or_else(|| panic!("missing job '{key}'"));
            rec.only().clone().with_title(title)
        };
        vec![
            (
                "ext_serve_crossval".to_string(),
                take("crossval", "Ext — fluid vs packet mean ARCT (10% gate)"),
            ),
            (
                "ext_serve_sweep".to_string(),
                take("sweep", "Ext — fleet-scale fluid sweep to 1M connections"),
            ),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_have_stable_structure() {
        let c = campaign(Effort::Quick);
        assert_eq!(c.id(), "serve_slo");
        assert_eq!(c.job_keys(), ["reno", "trim"]);
        let c = campaign_100k(Effort::Full);
        assert_eq!(c.id(), "serve_100k");
        assert_eq!(c.job_keys(), ["reno", "trim"]);
        let c = campaign_meanfield(Effort::Quick);
        assert_eq!(c.id(), "serve_meanfield");
        assert_eq!(c.job_keys(), ["crossval", "sweep"]);
    }

    #[test]
    fn fluid_sweep_point_is_instant_even_at_a_million_connections() {
        let out = fluid_point("trim", 1_000_000);
        // Rate balance at the window floor: per-flow rate ~ C/N.
        let c = 1e9 / (1460.0 * 8.0);
        let fair = c / 1e6;
        assert!((out.per_flow_rate_pps[0] - fair).abs() / fair < 0.10);
        assert!(out.utilization > 0.99);
    }
}
