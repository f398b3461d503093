//! Fig. 1 / Fig. 2 — packet-train characterization of HTTP traffic.
//!
//! The paper records a 2 TB campus trace and reports (i) the packet-train
//! structure of a selected web server's output and (ii) the CDFs of train
//! size and inter-train gap. We synthesize a trace from the published
//! distributions, re-extract trains with the Jain & Routhier definition,
//! and report the same three artifacts — validating that the synthesis,
//! the extractor, and the distributions agree.

use netsim::time::Dur;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trim_harness::table::fmt_f64;
use trim_harness::{Artifacts, Campaign};
use trim_workload::trace::{extract_trains, synthesize_trace, train_intervals, TraceConfig};

use crate::{Effort, Table};

/// Synthesizes one trace and derives all three figure tables from it.
fn trace_job(seed: u64, trains: usize) -> Artifacts {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TraceConfig {
        trains,
        ..TraceConfig::default()
    };
    let pkts = synthesize_trace(&mut rng, &cfg);
    let trains = extract_trains(&pkts, Dur::from_micros(50));
    let gaps = train_intervals(&trains);

    // Fig. 1: the first few trains as a sequence-number narrative.
    let mut fig1 = Table::new("fig1", &["train", "start", "pkts", "KB", "class"]);
    for (i, t) in trains.iter().take(10).enumerate() {
        fig1.row(&[
            format!("{i}"),
            format!("{}", t.start),
            format!("{}", t.pkts),
            fmt_f64(t.bytes as f64 / 1024.0),
            if t.is_long() { "LPT" } else { "SPT" }.to_string(),
        ]);
    }

    // Fig. 2(a): CDF of train size.
    let mut sizes: Vec<f64> = trains.iter().map(|t| t.bytes as f64 / 1024.0).collect();
    sizes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut fig2a = Table::new("fig2a", &["size_kb", "cdf"]);
    for kb in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0] {
        let frac = sizes.partition_point(|&s| s <= kb) as f64 / sizes.len() as f64;
        fig2a.row(&[fmt_f64(kb), fmt_f64(frac)]);
    }

    // Fig. 2(b): CDF of inter-train gap.
    let mut gap_us: Vec<f64> = gaps.iter().map(|g| g.as_secs_f64() * 1e6).collect();
    gap_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut fig2b = Table::new("fig2b", &["gap_us", "cdf"]);
    for us in [100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0, 10_000.0] {
        let frac = gap_us.partition_point(|&g| g <= us) as f64 / gap_us.len().max(1) as f64;
        fig2b.row(&[fmt_f64(us), fmt_f64(frac)]);
    }

    vec![
        ("fig1".to_string(), fig1),
        ("fig2a".to_string(), fig2a),
        ("fig2b".to_string(), fig2b),
    ]
}

/// Builds the trace-characterization campaign: one synthesis job, three
/// figure tables reduced from its artifacts.
pub fn campaign(effort: Effort) -> Campaign {
    let trains = effort.pick(2_000, 20_000);
    let mut c = Campaign::new("trace", 0x7217);
    c.job(
        "synthesize",
        &[("trains", trains.to_string())],
        move |seed| trace_job(seed, trains),
    );
    c.reduce(|records| {
        let job = &records[0];
        vec![
            (
                "fig1_trains".to_string(),
                job.table("fig1")
                    .clone()
                    .with_title("Fig. 1 — packet trains on one HTTP connection (first 10)"),
            ),
            (
                "fig2a_size_cdf".to_string(),
                job.table("fig2a")
                    .clone()
                    .with_title("Fig. 2(a) — CDF of packet-train size"),
            ),
            (
                "fig2b_gap_cdf".to_string(),
                job.table("fig2b")
                    .clone()
                    .with_title("Fig. 2(b) — CDF of inter-train interval"),
            ),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_all_three_artifacts() {
        let tables = crate::execute_quiet(campaign(Effort::Quick));
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].len(), 10);
        assert!(!tables[1].is_empty());
        assert!(!tables[2].is_empty());
    }

    #[test]
    fn size_cdf_hits_paper_anchors() {
        let tables = crate::execute_quiet(campaign(Effort::Quick));
        let render = tables[1].render();
        // ~20% at 4 KB, ~90% at 128 KB (Fig. 2(a)).
        let find = |kb: &str| -> f64 {
            render
                .lines()
                .find(|l| l.starts_with(kb))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .expect("row present")
        };
        assert!((find("4 ") - 0.20).abs() < 0.05);
        assert!((find("128") - 0.90).abs() < 0.05);
    }
}
