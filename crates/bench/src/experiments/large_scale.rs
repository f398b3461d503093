//! Fig. 8 — large-scale HTTP concurrency on the two-tier topology.
//!
//! 5–25 edge switches with 42 servers each (210–1050 servers total) feed
//! one front-end through a fabric switch. Per switch, 2 servers run LPTs
//! throughout; the rest each transfer an SPT within a 0.5 s window, sized
//! from the Fig. 2(a) CDF, with uniform or exponential start times. The
//! metric is the ACT of the SPTs; the paper reports TCP-TRIM cutting
//! TCP's ACT by up to 80% (still ~50% above 840 servers).

use netsim::prelude::*;
use netsim::time::SimTime;
use netsim::topology::{self, LinkSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trim_harness::Campaign;
use trim_tcp::{CcKind, Segment, TcpConfig, TcpHost};
use trim_workload::distributions::{exponential, pt_size_bytes};
use trim_workload::http::{large_scale_workload, SptSpread};
use trim_workload::scenario::{schedule_train, wire_flow};
use trim_workload::Summary;

use crate::num;
use crate::table::{fmt_pct, fmt_secs};
use crate::{Effort, Table};

const SERVERS_PER_SWITCH: usize = 42;
const LPTS_PER_SWITCH: usize = 2;

/// Warm-up responses per SPT server: the paper's servers hold persistent
/// HTTP connections, so the measured SPT arrives with a window inherited
/// from earlier response traffic. The warm-up is light and staggered so
/// it does not itself overload the fabric at 1050 servers.
const WARMUP_RESPONSES: u64 = 5;

/// One run: returns the SPT completion-time summary.
pub fn run_once(cc: &CcKind, n_switches: usize, spread: SptSpread, seed: u64) -> Summary {
    let mut sim: Simulator<Segment> = Simulator::new();
    let server_link = LinkSpec::new(
        Bandwidth::gbps(1),
        Dur::from_micros(20),
        QueueConfig::drop_tail(100),
    );
    // The 10 Gbps front-end port gets a buffer consistent with the
    // fat-tree experiment's 350 KB (the paper leaves it unspecified
    // here); 100 packets at 10 Gbps would drain in 120 us, far below
    // commodity 10 GbE switch buffering.
    let front_end_link = LinkSpec::new(
        Bandwidth::gbps(10),
        Dur::from_micros(10),
        QueueConfig::drop_tail(250),
    );
    let net = topology::two_tier(
        &mut sim,
        n_switches,
        SERVERS_PER_SWITCH,
        server_link,
        server_link,
        front_end_link,
        |_| Box::new(TcpHost::new()),
    );
    // The paper alleviates LPT throughput collapse with a 20 ms RTO.
    let tcp = TcpConfig::default().with_min_rto(Dur::from_millis(20));
    let mut rng = StdRng::seed_from_u64(seed);
    let size_dist = pt_size_bytes();
    let mut flow = 0u64;
    let mut spt_nodes = Vec::new();
    for group in &net.servers {
        for (i, &server) in group.iter().enumerate() {
            let idx = wire_flow(&mut sim, FlowId(flow), server, net.front_end, tcp, cc);
            flow += 1;
            if i < LPTS_PER_SWITCH {
                // LPTs run throughout the test.
                schedule_train(
                    &mut sim,
                    server,
                    idx,
                    trim_workload::TrainSpec::at_secs(0.0, 200_000_000),
                );
            } else {
                // Warm-up phase: grow the persistent connection's window.
                let mut t = 0.002 + rng.random_range(0.0..0.1);
                for _ in 0..WARMUP_RESPONSES {
                    schedule_train(
                        &mut sim,
                        server,
                        idx,
                        trim_workload::TrainSpec::at_secs(t, rng.random_range(2_000..=10_000)),
                    );
                    t += exponential(&mut rng, 0.003);
                }
                for spec in large_scale_workload(&mut rng, &size_dist, 1, 0.15, 0.5, spread) {
                    schedule_train(&mut sim, server, idx, spec);
                }
                spt_nodes.push(server);
            }
        }
    }
    sim.run_until(SimTime::from_secs_f64(2.5));
    let times: Vec<Dur> = spt_nodes
        .iter()
        .flat_map(|&n| {
            sim.host::<TcpHost>(n)
                .connection(0)
                .completed_trains()
                .iter()
                .filter(|t| t.id == WARMUP_RESPONSES)
                .map(|t| t.completion_time())
        })
        .collect();
    Summary::of(&times)
}

fn spread_label(spread: SptSpread) -> &'static str {
    match spread {
        SptSpread::Uniform => "uniform",
        SptSpread::Exponential => "exponential",
    }
}

/// Builds the large-scale campaign: one job per (spread, switch count,
/// protocol, repetition), reduced into the two Fig. 8 tables.
pub fn campaign(effort: Effort) -> Campaign {
    let switch_counts: Vec<usize> = effort.pick(vec![5, 15, 25], vec![5, 10, 15, 20, 25]);
    let reps = effort.pick(2, 10);

    let mut c = Campaign::new("large_scale", 0xF18);
    for spread in [SptSpread::Uniform, SptSpread::Exponential] {
        let label = spread_label(spread);
        for &s in &switch_counts {
            for proto in ["tcp", "trim"] {
                for r in 0..reps {
                    // Protocols share the (spread, scale, rep) seed key:
                    // the legacy sweep also paired the workloads.
                    c.table_job_seeded(
                        format!("{label}_s{s}_{proto}_r{r}"),
                        format!("{label}_s{s}_r{r}"),
                        &[
                            ("spread", label.to_string()),
                            ("switches", s.to_string()),
                            ("protocol", proto.to_string()),
                            ("rep", r.to_string()),
                        ],
                        move |seed| {
                            let cc = if proto == "trim" {
                                CcKind::trim_with_capacity(10_000_000_000, 1460)
                            } else {
                                CcKind::Reno
                            };
                            let summary = run_once(&cc, s, spread, seed);
                            let mut t = Table::new("run", &["mean", "count"]);
                            t.row(&[num(summary.mean), summary.count.to_string()]);
                            t
                        },
                    );
                }
            }
        }
    }
    c.reduce(move |records| {
        let mut out = Vec::new();
        for spread in [SptSpread::Uniform, SptSpread::Exponential] {
            let label = spread_label(spread);
            let mut t = Table::new(
                format!("Fig. 8(b) — ACT of SPTs, {label} SPT start times"),
                &["servers", "tcp_act", "trim_act", "reduction"],
            );
            for &s in &switch_counts {
                let mean_of = |proto: &str| -> f64 {
                    let sum: f64 = (0..reps)
                        .map(|r| {
                            let key = format!("{label}_s{s}_{proto}_r{r}");
                            records
                                .iter()
                                .find(|rec| rec.key == key)
                                .unwrap_or_else(|| panic!("missing job '{key}'"))
                                .only()
                                .f64_at(0, 0)
                        })
                        .sum();
                    sum / reps as f64
                };
                let tcp_act = mean_of("tcp");
                let trim_act = mean_of("trim");
                t.row(&[
                    format!("{}", s * SERVERS_PER_SWITCH),
                    fmt_secs(tcp_act),
                    fmt_secs(trim_act),
                    fmt_pct(1.0 - trim_act / tcp_act),
                ]);
            }
            out.push((format!("fig8_{label}"), t));
        }
        out
    });
    c
}

/// Extension beyond Fig. 8: the engine-scale incast sweep
/// (`large_scale_100k`), one job per (flow count, protocol) on the
/// star topology from `trim_workload::scale`. Quick effort covers 1k
/// and 10k flows; `--full` adds the 100k-flow point. Registered under
/// its own id so the committed Fig. 8 CSVs never change.
pub fn campaign_100k(effort: Effort) -> Campaign {
    let flow_counts: Vec<usize> = effort.pick(vec![1_000, 10_000], vec![1_000, 10_000, 100_000]);
    let mut c = Campaign::new("large_scale_100k", 0x5CA1E);
    for &flows in &flow_counts {
        for proto in ["tcp", "trim"] {
            c.table_job(
                format!("f{flows}_{proto}"),
                &[
                    ("flows", flows.to_string()),
                    ("protocol", proto.to_string()),
                ],
                move |seed| {
                    let mut cfg = trim_workload::scale::ScaleConfig::with_flows(flows);
                    cfg.seed = seed;
                    cfg.cc = if proto == "trim" {
                        CcKind::trim_with_capacity(1_000_000_000, 1460)
                    } else {
                        CcKind::Reno
                    };
                    let r = trim_workload::scale::run_scale_incast(&cfg);
                    let mut t = Table::new(
                        "run",
                        &[
                            "completed",
                            "delivered",
                            "dropped",
                            "timeouts",
                            "events",
                            "mean_act",
                        ],
                    );
                    t.row(&[
                        r.completed.to_string(),
                        r.audit.delivered.to_string(),
                        r.audit.dropped.to_string(),
                        r.timeouts.to_string(),
                        r.events.to_string(),
                        num(r.act.mean),
                    ]);
                    t
                },
            );
        }
    }
    let keys: Vec<(usize, &'static str)> = flow_counts
        .iter()
        .flat_map(|&f| [(f, "tcp"), (f, "trim")])
        .collect();
    c.reduce(move |records| {
        let mut t = Table::new(
            "Ext — engine-scale incast (flows, completion, loss, timeouts)",
            &[
                "flows",
                "protocol",
                "completed",
                "delivered",
                "dropped",
                "timeouts",
                "mean_act",
            ],
        );
        for (flows, proto) in keys {
            let key = format!("f{flows}_{proto}");
            let rec = records
                .iter()
                .find(|r| r.key == key)
                .unwrap_or_else(|| panic!("missing job '{key}'"));
            let row = rec.only();
            t.row(&[
                flows.to_string(),
                proto.to_string(),
                row.cell(0, 0).to_string(),
                row.cell(0, 1).to_string(),
                row.cell(0, 2).to_string(),
                row.cell(0, 3).to_string(),
                row.cell(0, 5).to_string(),
            ]);
        }
        vec![("ext_scale_incast".to_string(), t)]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_cuts_act_at_smallest_scale() {
        let trim = CcKind::trim_with_capacity(10_000_000_000, 1460);
        let tcp = run_once(&CcKind::Reno, 5, SptSpread::Uniform, 7);
        let trm = run_once(&trim, 5, SptSpread::Uniform, 7);
        assert_eq!(tcp.count, 5 * (SERVERS_PER_SWITCH - LPTS_PER_SWITCH));
        assert_eq!(trm.count, tcp.count, "every SPT completes");
        // Paper: up to 80% reduction at small scale.
        assert!(
            trm.mean < 0.5 * tcp.mean,
            "TRIM {} vs TCP {}",
            trm.mean,
            tcp.mean
        );
    }

    #[test]
    fn campaign_100k_reduces_to_one_table_per_flow_count() {
        // Tiny stand-in sweep: execute the quick campaign's structure
        // against a scratch store via the engine, checking key layout
        // and the reduce shape without paying for 10k-flow runs here.
        let c = campaign_100k(Effort::Quick);
        assert_eq!(c.id(), "large_scale_100k");
        let keys: Vec<_> = c.job_keys();
        assert_eq!(
            keys,
            ["f1000_tcp", "f1000_trim", "f10000_tcp", "f10000_trim"]
        );
    }

    #[test]
    fn trim_still_wins_at_full_scale() {
        let trim = CcKind::trim_with_capacity(10_000_000_000, 1460);
        let tcp = run_once(&CcKind::Reno, 25, SptSpread::Exponential, 11);
        let trm = run_once(&trim, 25, SptSpread::Exponential, 11);
        assert_eq!(tcp.count, 25 * (SERVERS_PER_SWITCH - LPTS_PER_SWITCH));
        assert_eq!(trm.count, tcp.count, "every SPT completes");
        // Paper: still ~50% reduction above 840 servers.
        assert!(
            trm.mean < 0.7 * tcp.mean,
            "TRIM {} vs TCP {}",
            trm.mean,
            tcp.mean
        );
    }
}
