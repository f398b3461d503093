//! Fig. 5 / Fig. 7 — concurrent short packet trains under long trains.
//!
//! `n` SPT servers each burst a 10-packet train at 0.3 s while 0/1/2 LPT
//! servers stream continuously from 0.1 s (100-packet buffer, 200 ms
//! RTO). Fig. 5 shows TCP's SPT completion times exploding with LPT count
//! and concurrency; Fig. 7 shows TRIM holding ACT at a few milliseconds.

use netsim::time::Dur;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trim_harness::{Campaign, JobRecord};
use trim_tcp::{CcKind, TcpConfig};
use trim_workload::distributions::exponential;
use trim_workload::http::{lpt, spt};
use trim_workload::scenario::{ScenarioBuilder, TrainSpec};
use trim_workload::Summary;

use crate::num;
use crate::table::fmt_secs;
use crate::{Effort, Table};

const MSS: u32 = 1460;

/// Outcome of one (protocol, n_spt, n_lpt) cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// SPT completion-time summary.
    pub spt: Summary,
    /// Retransmission timeouts across all connections.
    pub timeouts: u64,
}

/// How many warm-up responses each SPT server sends before its measured
/// burst. The paper "rebuilds the previous many-to-one scenario", so the
/// SPT connections are persistent and arrive at 0.3 s carrying windows
/// inherited from earlier response traffic.
const WARMUP_RESPONSES: u64 = 100;

/// The legacy per-cell seed, used when a cell is run outside a campaign.
fn legacy_seed(n_spt: usize, n_lpt: usize) -> u64 {
    0x5eed ^ (n_spt as u64) << 8 ^ n_lpt as u64
}

/// Runs one configuration and summarizes the SPT completion times.
pub fn run_cell(cc: &CcKind, n_spt: usize, n_lpt: usize) -> Cell {
    run_cell_seeded(cc, n_spt, n_lpt, legacy_seed(n_spt, n_lpt))
}

/// Like [`run_cell`] with a custom minimum RTO (used by the RTO
/// sensitivity extension).
pub fn run_cell_with_rto(cc: &CcKind, n_spt: usize, n_lpt: usize, rto: Dur) -> Cell {
    run_cell_with_rto_seeded(cc, n_spt, n_lpt, rto, legacy_seed(n_spt, n_lpt))
}

/// Like [`run_cell`] with an explicit workload seed (campaign jobs pass
/// their derived seed here).
pub fn run_cell_seeded(cc: &CcKind, n_spt: usize, n_lpt: usize, seed: u64) -> Cell {
    run_cell_with_rto_seeded(cc, n_spt, n_lpt, Dur::from_millis(200), seed)
}

/// The fully parameterized cell: protocol, concurrency, RTO, and seed.
pub fn run_cell_with_rto_seeded(
    cc: &CcKind,
    n_spt: usize,
    n_lpt: usize,
    rto: Dur,
    seed: u64,
) -> Cell {
    let tcp = TcpConfig::default().with_min_rto(rto);
    let mut sc = ScenarioBuilder::many_to_one(n_spt + n_lpt)
        .congestion_control(cc.clone())
        .tcp_config(tcp)
        .build();
    let mut rng = StdRng::seed_from_u64(seed);
    for l in 0..n_lpt {
        // "Running throughout the test": a train large enough to span it.
        sc.send_train(l, lpt(0.1, 40_000_000));
    }
    for s in 0..n_spt {
        // Warm-up responses from 0.1 s inherit a grown window...
        let mut t = 0.1;
        for _ in 0..WARMUP_RESPONSES {
            sc.send_train(
                n_lpt + s,
                TrainSpec::at_secs(t, rng.random_range(2_000..=10_000)),
            );
            t += exponential(&mut rng, 0.0018);
        }
        // ...then every server bursts its measured 10-packet SPT at 0.3 s.
        sc.send_train(n_lpt + s, spt(0.3, 10, MSS));
    }
    let report = sc.run_for_secs(4.0);
    let spt_times: Vec<Dur> = report
        .senders
        .iter()
        .skip(n_lpt)
        .flat_map(|s| {
            s.trains
                .iter()
                .filter(|t| t.id == WARMUP_RESPONSES)
                .map(|t| t.completion_time())
        })
        .collect();
    assert_eq!(spt_times.len(), n_spt, "every SPT completes");
    Cell {
        spt: Summary::of(&spt_times),
        timeouts: report.total_timeouts(),
    }
}

/// A cell job's artifact: the full-precision numbers the figures need.
fn cell_table(cell: Cell) -> Table {
    let mut t = Table::new("cell", &["mean", "min", "max", "timeouts"]);
    t.row(&[
        num(cell.spt.mean),
        num(cell.spt.min),
        num(cell.spt.max),
        cell.timeouts.to_string(),
    ]);
    t
}

fn record_for<'a>(records: &'a [JobRecord], key: &str) -> &'a JobRecord {
    records
        .iter()
        .find(|r| r.key == key)
        .unwrap_or_else(|| panic!("missing job '{key}'"))
}

/// Builds the concurrency campaign: one job per (protocol, n_spt,
/// n_lpt) cell, reduced into Fig. 5(a)/(b) and Fig. 7.
pub fn campaign(effort: Effort) -> Campaign {
    let max_spt = effort.pick(10, 14);
    let spt_counts: Vec<usize> = (2..=max_spt).step_by(2).collect();

    let mut c = Campaign::new("concurrency", 0x5eed);
    for &n in &spt_counts {
        for l in 0..=2usize {
            // tcp and trim share the seed key of a cell so the A/B
            // comparison runs the identical workload.
            c.table_job_seeded(
                format!("tcp_n{n}_l{l}"),
                format!("n{n}_l{l}"),
                &[
                    ("protocol", "tcp".to_string()),
                    ("n_spt", n.to_string()),
                    ("n_lpt", l.to_string()),
                ],
                move |seed| cell_table(run_cell_seeded(&CcKind::Reno, n, l, seed)),
            );
        }
        c.table_job_seeded(
            format!("trim_n{n}_l2"),
            format!("n{n}_l2"),
            &[
                ("protocol", "trim".to_string()),
                ("n_spt", n.to_string()),
                ("n_lpt", "2".to_string()),
            ],
            move |seed| {
                let trim = CcKind::trim_with_capacity(1_000_000_000, MSS);
                cell_table(run_cell_seeded(&trim, n, 2, seed))
            },
        );
    }
    c.reduce(move |records| {
        let mut fig5a = Table::new(
            "Fig. 5(a) — ACT of concurrent SPTs under TCP (s)",
            &["n_spt", "0 LPT", "1 LPT", "2 LPT"],
        );
        let mut fig5b = Table::new(
            "Fig. 5(b) — min/max SPT completion times under TCP, 2 LPTs (s)",
            &["n_spt", "min", "max"],
        );
        let mut fig7 = Table::new(
            "Fig. 7 — ACT of SPTs with 2 LPTs: TCP vs TCP-TRIM (s)",
            &["n_spt", "tcp", "trim", "tcp_timeouts", "trim_timeouts"],
        );
        for &n in &spt_counts {
            let at = |key: String| record_for(records, &key).only().clone();
            let tcp = [
                at(format!("tcp_n{n}_l0")),
                at(format!("tcp_n{n}_l1")),
                at(format!("tcp_n{n}_l2")),
            ];
            let trim = at(format!("trim_n{n}_l2"));
            fig5a.row(&[
                format!("{n}"),
                fmt_secs(tcp[0].f64_at(0, 0)),
                fmt_secs(tcp[1].f64_at(0, 0)),
                fmt_secs(tcp[2].f64_at(0, 0)),
            ]);
            fig5b.row(&[
                format!("{n}"),
                fmt_secs(tcp[2].f64_at(0, 1)),
                fmt_secs(tcp[2].f64_at(0, 2)),
            ]);
            fig7.row(&[
                format!("{n}"),
                fmt_secs(tcp[2].f64_at(0, 0)),
                fmt_secs(trim.f64_at(0, 0)),
                tcp[2].cell(0, 3).to_string(),
                trim.cell(0, 3).to_string(),
            ]);
        }
        vec![
            ("fig5a_act".to_string(), fig5a),
            ("fig5b_minmax".to_string(), fig5b),
            ("fig7_tcp_vs_trim".to_string(), fig7),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpts_inflate_tcp_spt_completion() {
        let no_lpt = run_cell(&CcKind::Reno, 6, 0);
        let two_lpt = run_cell(&CcKind::Reno, 6, 2);
        assert!(
            two_lpt.spt.mean > 2.0 * no_lpt.spt.mean,
            "LPTs must hurt SPTs: {} vs {}",
            two_lpt.spt.mean,
            no_lpt.spt.mean
        );
    }

    #[test]
    fn trim_keeps_act_low_with_two_lpts() {
        let trim = CcKind::trim_with_capacity(1_000_000_000, MSS);
        let tcp_cell = run_cell(&CcKind::Reno, 8, 2);
        let trim_cell = run_cell(&trim, 8, 2);
        // Paper: TRIM's ACT is a few milliseconds, TCP's is up to two
        // orders of magnitude larger.
        assert!(
            trim_cell.spt.mean < 0.020,
            "TRIM ACT {}s too high",
            trim_cell.spt.mean
        );
        assert!(
            tcp_cell.spt.mean > 5.0 * trim_cell.spt.mean,
            "TCP {} vs TRIM {}",
            tcp_cell.spt.mean,
            trim_cell.spt.mean
        );
    }
}
