//! Section III.B — the guideline for choosing K, analytically and
//! validated against simulation.
//!
//! The analytical table sweeps base RTT and capacity through Eq. 17–22;
//! the validation runs synchronized LPTs with K at the guideline and
//! confirms near-full utilization (the claim Eq. 22 exists to guarantee,
//! echoed by Fig. 9(d)).
//!
//! All three tables are deterministic (the model is closed-form and the
//! validation scenario has no random workload), so the campaign jobs
//! ignore their derived seeds.

use trim_core::kmodel::{f_of_n, k_lower_bound_ns, n_star, steady_state};
use trim_core::TrimConfig;
use trim_tcp::{CcKind, TcpConfig, TcpHost};
use trim_workload::http::lpt;
use trim_workload::scenario::ScenarioBuilder;

use netsim::time::{Dur, SimTime};
use trim_harness::table::fmt_f64;
use trim_harness::{Campaign, JobRecord};

use crate::num;
use crate::{Effort, Table};

/// Packets per second on a 1 Gbps link with 1460-byte segments.
fn c_1g() -> f64 {
    1e9 / (1460.0 * 8.0)
}

fn guideline_table() -> Table {
    let c = c_1g();
    let mut guideline = Table::new(
        "Eq. 22 — K guideline sweep (C = 1 Gbps / 1460 B)",
        &[
            "base_rtt_us",
            "n_star",
            "f_max_us",
            "k_us",
            "target_queue_pkts",
        ],
    );
    for d_us in [50u64, 100, 200, 500, 1000] {
        let d = d_us * 1000;
        let ns = n_star(c, d);
        let k = k_lower_bound_ns(c, d);
        let f_max = if ns >= 1.0 { f_of_n(ns, c, d) } else { 0.0 };
        let st = steady_state(c, d, k.max(d), 5);
        guideline.row(&[
            format!("{d_us}"),
            fmt_f64(ns),
            fmt_f64(f_max / 1000.0),
            fmt_f64(k as f64 / 1000.0),
            fmt_f64(st.target_queue),
        ]);
    }
    guideline
}

fn steady_state_table() -> Table {
    let c = c_1g();
    let mut steady = Table::new(
        "Eq. 4-11 — steady state at the guideline K (D = 200us)",
        &[
            "n",
            "window_pkts",
            "qmax_pkts",
            "decrement_pkts",
            "full_util",
        ],
    );
    let d = 200_000;
    let k = k_lower_bound_ns(c, d);
    for n in [1u32, 2, 5, 10, 20, 50, 100] {
        let st = steady_state(c, d, k, n);
        steady.row(&[
            format!("{n}"),
            fmt_f64(st.window),
            fmt_f64(st.max_queue),
            fmt_f64(st.total_decrement),
            format!("{}", st.full_utilization),
        ]);
    }
    steady
}

fn record_for<'a>(records: &'a [JobRecord], key: &str) -> &'a JobRecord {
    records
        .iter()
        .find(|r| r.key == key)
        .unwrap_or_else(|| panic!("missing job '{key}'"))
}

/// Builds the K-model campaign: one analytic job for the two model
/// tables plus one validation job per LPT count (guideline K versus a
/// deliberately tiny K that starves the link).
pub fn campaign(_effort: Effort) -> Campaign {
    let counts = [2usize, 5, 10];

    let mut c = Campaign::new("kmodel", 0x4B);
    c.job("analytic", &[], |_seed| {
        vec![
            ("guideline".to_string(), guideline_table()),
            ("steady_state".to_string(), steady_state_table()),
        ]
    });
    for &n in &counts {
        c.table_job(
            format!("validation_n{n}"),
            &[("n_lpts", n.to_string())],
            move |_seed| {
                let mut t = Table::new("goodput", &["guideline_mbps", "tiny_k_mbps"]);
                t.row(&[
                    num(measure_goodput(n, None)),
                    // K ~ 1us: back-off on every ACK round.
                    num(measure_goodput(n, Some(1_000))),
                ]);
                t
            },
        );
    }
    c.reduce(move |records| {
        let analytic = record_for(records, "analytic");
        let mut validation = Table::new(
            "Validation — goodput with guideline K vs K = min_RTT",
            &["n", "guideline_mbps", "tiny_k_mbps"],
        );
        for &n in &counts {
            let run = record_for(records, &format!("validation_n{n}")).only();
            validation.row(&[
                format!("{n}"),
                fmt_f64(run.f64_at(0, 0)),
                fmt_f64(run.f64_at(0, 1)),
            ]);
        }
        vec![
            (
                "kmodel_guideline".to_string(),
                analytic
                    .table("guideline")
                    .clone()
                    .with_title("Eq. 22 — K guideline sweep (C = 1 Gbps / 1460 B)"),
            ),
            (
                "kmodel_steady_state".to_string(),
                analytic
                    .table("steady_state")
                    .clone()
                    .with_title("Eq. 4-11 — steady state at the guideline K (D = 200us)"),
            ),
            ("kmodel_validation".to_string(), validation),
        ]
    });
    c
}

/// Goodput (Mbps) of `n` TRIM LPTs over a 1 Gbps bottleneck for 0.8 s,
/// with K from the guideline or overridden.
fn measure_goodput(n: usize, k_override_ns: Option<u64>) -> f64 {
    let mut cfg = TrimConfig::default().with_capacity(1_000_000_000, 1460);
    cfg.k_override_ns = k_override_ns;
    let mut sc = ScenarioBuilder::many_to_one(n)
        .congestion_control(CcKind::Trim(cfg))
        .tcp_config(TcpConfig::default().with_min_rto(Dur::from_millis(10)))
        .build();
    for s in 0..n {
        sc.send_train(s, lpt(0.1, 400_000_000));
    }
    for &node in &sc.net().senders.clone() {
        sc.sim_mut()
            .host_mut::<TcpHost>(node)
            .schedule_stop(0, SimTime::from_secs_f64(0.9));
    }
    let report = sc.run_for_secs(1.0);
    let bytes: u64 = report.senders.iter().map(|s| s.goodput_bytes).sum();
    bytes as f64 * 8.0 / 0.8 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guideline_k_sustains_high_utilization() {
        let good = measure_goodput(5, None);
        assert!(good > 900.0, "guideline K goodput {good} Mbps");
    }

    #[test]
    fn tiny_k_starves_the_link() {
        let good = measure_goodput(5, None);
        let tiny = measure_goodput(5, Some(1_000));
        assert!(
            tiny < good,
            "K below the guideline must lose throughput: {tiny} vs {good}"
        );
    }
}
