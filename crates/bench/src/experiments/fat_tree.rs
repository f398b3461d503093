//! Fig. 12 / Table I — protocol comparison in a 10 Gbps fat-tree.
//!
//! Each server sends 1 MB over a persistent connection to a random sink:
//! small 2–6 KB objects from 0.1 s, the big remainder at 0.5 s. Pod count
//! sweeps 4–10 (16–250 servers); buffers are 350 KB; DCTCP/L2DCT mark at
//! 65 packets. Fig. 12 reports mean and maximum completion times; Table I
//! the total number of RTOs. The paper's ordering is
//! TCP > DCTCP > L2DCT > TCP-TRIM on both metrics.

use netsim::prelude::*;
use netsim::time::SimTime;
use netsim::topology::{self, LinkSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trim_harness::Campaign;
use trim_tcp::{CcKind, Segment, TcpConfig, TcpHost};
use trim_workload::http::fat_tree_workload;
use trim_workload::scenario::{schedule_train, wire_flow};
use trim_workload::Summary;

use crate::num;
use crate::table::fmt_secs;
use crate::{Effort, Table};

/// Result of one fat-tree run.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeRun {
    /// Summary of per-object completion times across all servers.
    pub completion: Summary,
    /// Total RTO events (Table I).
    pub timeouts: u64,
}

/// Runs one protocol at pod count `k`.
pub fn run_once(cc: &CcKind, k: usize, seed: u64) -> FatTreeRun {
    let mut sim: Simulator<Segment> = Simulator::new();
    let link = LinkSpec::new(
        Bandwidth::gbps(10),
        Dur::from_micros(10),
        QueueConfig {
            capacity: QueueCapacity::Bytes(350_000),
            ecn_threshold: Some(65),
            aqm: netsim::queue::Aqm::DropTail,
        },
    );
    let net = topology::fat_tree(&mut sim, k, link, |_| Box::new(TcpHost::new()));
    let tcp = TcpConfig::default().with_min_rto(Dur::from_millis(10));
    let mut rng = StdRng::seed_from_u64(seed);
    let n = net.hosts.len();
    for (i, &src) in net.hosts.iter().enumerate() {
        // Random sink, never self.
        let mut d = rng.random_range(0..n - 1);
        if d >= i {
            d += 1;
        }
        let dst = net.hosts[d];
        let idx = wire_flow(&mut sim, FlowId(i as u64), src, dst, tcp, cc);
        for spec in fat_tree_workload(&mut rng, 0.004) {
            schedule_train(&mut sim, src, idx, spec);
        }
    }
    sim.run_until(SimTime::from_secs_f64(4.0));

    let mut times = Vec::new();
    let mut timeouts = 0;
    for &h in &net.hosts {
        let host: &TcpHost = sim.host(h);
        let conn = host.connection(0);
        timeouts += conn.stats().timeouts;
        // Completion time of every object (small and big), measured from
        // its hand-off to TCP, as in the earlier ACT experiments.
        for t in conn.completed_trains() {
            times.push(t.completion_time());
        }
    }
    FatTreeRun {
        completion: Summary::of(&times),
        timeouts,
    }
}

/// The four protocols of Fig. 12 in the paper's order.
pub fn protocols() -> Vec<CcKind> {
    vec![
        CcKind::Reno,
        CcKind::Dctcp,
        CcKind::L2dct,
        CcKind::trim_with_capacity(10_000_000_000, 1460),
    ]
}

/// Builds the fat-tree campaign: one job per (pod count, protocol,
/// repetition), with protocols sharing each (pods, rep) workload seed,
/// reduced into Fig. 12 and Table I.
pub fn campaign(effort: Effort) -> Campaign {
    let pods: Vec<usize> = effort.pick(vec![4, 8], vec![4, 6, 8, 10]);
    let reps = effort.pick(1, 3);

    let mut c = Campaign::new("fat_tree", 0xFA7);
    for &k in &pods {
        for (p, cc) in protocols().into_iter().enumerate() {
            let name = cc.name().to_string();
            for r in 0..reps {
                c.table_job_seeded(
                    format!("k{k}_{name}_r{r}"),
                    format!("k{k}_r{r}"),
                    &[
                        ("pods", k.to_string()),
                        ("protocol", name.clone()),
                        ("rep", r.to_string()),
                    ],
                    move |seed| {
                        let run = run_once(&protocols()[p], k, seed);
                        let mut t = Table::new("run", &["mean", "max", "timeouts"]);
                        t.row(&[
                            num(run.completion.mean),
                            num(run.completion.max),
                            run.timeouts.to_string(),
                        ]);
                        t
                    },
                );
            }
        }
    }
    c.reduce(move |records| {
        let mut fig12 = Table::new(
            "Fig. 12 — mean and max completion times in the fat-tree (s)",
            &["pods", "protocol", "mean", "max"],
        );
        let mut tab1 = Table::new(
            "Table I — number of timeouts per protocol",
            &["pods", "tcp", "dctcp", "l2dct", "trim"],
        );
        for &k in &pods {
            let mut timeout_row = vec![format!("{k}")];
            for cc in protocols() {
                let name = cc.name();
                let mut mean = 0.0;
                let mut max: f64 = 0.0;
                let mut tos = 0u64;
                for r in 0..reps {
                    let key = format!("k{k}_{name}_r{r}");
                    let run = records
                        .iter()
                        .find(|rec| rec.key == key)
                        .unwrap_or_else(|| panic!("missing job '{key}'"))
                        .only();
                    mean += run.f64_at(0, 0);
                    max = max.max(run.f64_at(0, 1));
                    tos += run.u64_at(0, 2);
                }
                mean /= reps as f64;
                fig12.row(&[
                    format!("{k}"),
                    name.to_string(),
                    fmt_secs(mean),
                    fmt_secs(max),
                ]);
                timeout_row.push(format!("{}", tos / reps as u64));
            }
            tab1.row(&timeout_row);
        }
        vec![
            ("fig12_fat_tree".to_string(), fig12),
            ("table1_timeouts".to_string(), tab1),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_has_fewest_timeouts_at_pod_4() {
        let runs: Vec<FatTreeRun> = protocols().iter().map(|cc| run_once(cc, 4, 99)).collect();
        let (tcp, trim) = (runs[0], runs[3]);
        assert!(
            trim.timeouts <= tcp.timeouts,
            "TRIM {} vs TCP {} timeouts",
            trim.timeouts,
            tcp.timeouts
        );
        assert!(
            trim.completion.mean <= tcp.completion.mean,
            "TRIM mean {} vs TCP {}",
            trim.completion.mean,
            tcp.completion.mean
        );
        // Objects complete under every protocol.
        for r in &runs {
            assert!(r.completion.count > 16 * 20, "run {r:?}");
        }
    }
}
