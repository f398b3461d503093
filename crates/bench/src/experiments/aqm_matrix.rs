//! AQM matrix: RED and CoDel bottlenecks over tiny buffers, with the
//! stability oracles as first-class measurements.
//!
//! Two artifacts:
//!
//! - `aqm_matrix`: the packet-level grid (queue discipline x buffer x
//!   fan-in x congestion control) under persistent saturating trains —
//!   goodput, drops (including RED early drops), CoDel sojourn drops,
//!   queue occupancy, timeouts, and what the `trim-check` stability
//!   oracles saw (sustained cwnd limit cycles, standing queues). The
//!   stability monitors are *measurements* here: their findings land in
//!   CSV columns, while any other monitor violation — packet
//!   conservation, FIFO order, queue bounds — is an engine bug and
//!   fails the experiment hard.
//! - `aqm_stability`: the Reynier cross-validation. For a set of RED
//!   instances spanning genuinely unstable (large bandwidth-delay,
//!   few flows, steep band) and stable (many flows, gentle band)
//!   regimes, the packet simulation's measured cwnd behavior is checked
//!   against the mean-field predicate
//!   ([`trim_core::fluid::red_stability`]) by the
//!   [`RedStability`] monitor; the table
//!   records both verdicts and whether they agree.
//!
//! The grid is effort-independent: tiny buffers make every cell cheap,
//! and the goldens must stay byte-identical across `--jobs` settings.

use netsim::prelude::*;
use netsim::time::SimTime;
use netsim::topology::LinkSpec;
use trim_check::{RedStability, StabilityConfig};
use trim_core::fluid::{red_stability, RedFluid};
use trim_harness::{Campaign, JobRecord};
use trim_tcp::{CcKind, TcpConfig};
use trim_workload::scenario::{ScenarioBuilder, TrainSpec};
use trim_workload::spec::{ScenarioSpec, SpecAqm, SpecCc, SpecTrain};

use crate::num;
use crate::{Effort, Table};

/// Link rate for every cell (the paper's 1 Gbps fabric).
const LINK_MBPS: u64 = 1_000;
/// One-way per-link delay for the matrix cells (50 us, the paper's
/// datacenter latency).
const MATRIX_DELAY_US: u64 = 50;
/// Horizon for every cell; long enough for the stability oracles'
/// 200 ms observation window to fill.
const HORIZON_MS: u64 = 400;
/// Datacenter-tuned minimum RTO, so tiny-buffer incast recovers within
/// the horizon instead of stalling on the WAN default.
const MIN_RTO_US: u64 = 10_000;
/// Bottleneck service rate in packets per second for the mean-field
/// predicate (MSS payload at 1 Gbps, matching `trim_core::fluid`).
const CAPACITY_PPS: f64 = 1e9 / (1460.0 * 8.0);

/// Violation monitors whose findings are matrix *data*, not failures.
const STABILITY_MONITORS: [&str; 2] = ["cwnd-limit-cycle", "standing-queue"];

/// The disciplines swept by the matrix, with RED thresholds scaled to
/// the buffer so the band stays inside tiny queues.
fn disciplines(buffer_pkts: usize) -> Vec<(&'static str, SpecAqm)> {
    let b = buffer_pkts as u32;
    vec![
        ("drop-tail", SpecAqm::DropTail),
        (
            "red",
            SpecAqm::Red {
                min_th: (b / 4).max(1),
                max_th: (3 * b / 4).max(2),
                max_p_milli: 100,
                wq_micro: 2_000,
                ecn: false,
            },
        ),
        (
            "codel",
            SpecAqm::Codel {
                target_us: 50,
                interval_us: 1_000,
                ecn: false,
            },
        ),
    ]
}

/// The full grid: discipline x buffer x fan-in x congestion control.
fn matrix_cells() -> Vec<(String, SpecAqm, usize, usize, SpecCc)> {
    let mut cells = Vec::new();
    for buffer_pkts in [16usize, 32] {
        for (disc, aqm) in disciplines(buffer_pkts) {
            for senders in [4usize, 32] {
                for (cc_name, cc) in [("reno", SpecCc::Reno), ("trim", SpecCc::TrimGuideline)] {
                    cells.push((
                        format!("{disc}_b{buffer_pkts}_n{senders}_{cc_name}"),
                        aqm,
                        buffer_pkts,
                        senders,
                        cc,
                    ));
                }
            }
        }
    }
    cells
}

/// The spec for one matrix cell: persistent synchronized trains
/// offering 1.5x the bottleneck capacity over the horizon, with the
/// stability oracles attached.
fn cell_spec(aqm: SpecAqm, buffer_pkts: usize, senders: usize, cc: SpecCc) -> ScenarioSpec {
    let capacity_bytes = LINK_MBPS * 125 * HORIZON_MS;
    let per_sender = (3 * capacity_bytes / (2 * senders as u64))
        .div_ceil(trim_workload::spec::SPEC_MSS_BYTES)
        .max(1)
        * trim_workload::spec::SPEC_MSS_BYTES;
    ScenarioSpec {
        seed: 0,
        senders,
        link_mbps: LINK_MBPS,
        delay_us: MATRIX_DELAY_US,
        buffer_pkts,
        cc,
        min_rto_us: MIN_RTO_US,
        horizon_ms: HORIZON_MS,
        fault: None,
        aqm,
        stability: true,
        expect: None,
        trains: (0..senders)
            .map(|sender| SpecTrain {
                sender,
                // Small deterministic stagger so arrivals are not
                // artificially phase-locked.
                at_us: 10 * sender as u64,
                bytes: per_sender,
            })
            .collect(),
        sessions: Vec::new(),
    }
}

/// One matrix cell's measurements.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Aggregate front-end goodput in Mbit/s.
    pub goodput_mbps: f64,
    /// Bottleneck drops (drop-tail overflow + RED early + CoDel sojourn).
    pub drops: u64,
    /// CoDel sojourn-time drops among them.
    pub sojourn_drops: u64,
    /// Peak bottleneck occupancy (packets).
    pub max_queue: usize,
    /// Time-averaged bottleneck occupancy (packets).
    pub avg_queue: f64,
    /// Total retransmission timeouts.
    pub timeouts: u64,
    /// Flows on which the cwnd limit-cycle oracle fired.
    pub limit_cycles: usize,
    /// Whether the standing-queue oracle fired.
    pub standing_queue: bool,
}

/// Runs one matrix cell; any violation that is not a stability-oracle
/// finding is an engine bug and panics.
pub fn run_cell(aqm: SpecAqm, buffer_pkts: usize, senders: usize, cc: SpecCc) -> MatrixCell {
    let spec = cell_spec(aqm, buffer_pkts, senders, cc);
    let out = spec.run().expect("matrix cell spec is valid");
    let mut limit_cycles = 0;
    let mut standing_queue = false;
    for v in &out.violations {
        match v.monitor {
            "cwnd-limit-cycle" => limit_cycles += 1,
            "standing-queue" => standing_queue = true,
            other => panic!("aqm_matrix cell broke the {other} invariant: {v}"),
        }
    }
    let report = &out.report;
    let goodput_bytes: u64 = report.senders.iter().map(|s| s.goodput_bytes).sum();
    let horizon_s = HORIZON_MS as f64 / 1_000.0;
    let span = report.at.saturating_since(SimTime::ZERO);
    MatrixCell {
        goodput_mbps: goodput_bytes as f64 * 8.0 / horizon_s / 1e6,
        drops: report.bottleneck.dropped,
        sojourn_drops: report.bottleneck.sojourn_events,
        max_queue: report.bottleneck.max_len,
        avg_queue: report.bottleneck.average_len(span),
        timeouts: report.total_timeouts(),
        limit_cycles,
        standing_queue,
    }
}

fn cell_table(c: &MatrixCell) -> Table {
    let mut t = Table::new(
        "cell",
        &[
            "goodput_mbps",
            "drops",
            "sojourn_drops",
            "max_queue",
            "avg_queue",
            "timeouts",
            "limit_cycles",
            "standing_queue",
        ],
    );
    t.row(&[
        num(c.goodput_mbps),
        c.drops.to_string(),
        c.sojourn_drops.to_string(),
        c.max_queue.to_string(),
        num(c.avg_queue),
        c.timeouts.to_string(),
        c.limit_cycles.to_string(),
        u8::from(c.standing_queue).to_string(),
    ]);
    t
}

/// One RED instance for the Reynier cross-validation.
#[derive(Clone, Copy, Debug)]
pub struct StabilityInstance {
    /// Row label.
    pub name: &'static str,
    /// Fan-in (the fluid model's N).
    pub senders: usize,
    /// One-way per-link delay in microseconds (base RTT = 4x).
    pub delay_us: u64,
    /// The RED parameters, in the fluid model's units.
    pub red: RedFluid,
}

/// The cross-validation set.
///
/// The agreeing instances live where the fluid model's assumptions and
/// the cwnd instrument's jurisdiction overlap:
///
/// - *Unstable*: a steep band (`max_p = 1` over 10 packets) with a
///   large bandwidth-delay product and an equilibrium window small
///   enough (`W* <~ 25`) that the oscillation shows up in per-flow
///   windows, not just the queue. Routh–Hurwitz margins are 0.02–0.05 —
///   deep in the unstable region.
/// - *Stable*: gentle bands at millisecond RTTs with `W* ~ 13`: large
///   enough that Reno sees almost no retransmission timeouts (its
///   sawtooth stays well under the 1.5 W* amplitude bar), small enough
///   that the queue stays officially congested.
///
/// `gentle_rtt100us_n8` is kept as a known *boundary* instance: at
/// datacenter 100 us RTTs the bandwidth-delay product (~9 packets) is
/// below `min_th` itself and the EWMA time constant spans dozens of
/// RTTs, so discrete slow-start/timeout blowups dominate and the
/// packet measurement contradicts the fluid "stable" verdict. The
/// golden records the disagreement.
pub fn stability_instances() -> Vec<StabilityInstance> {
    let steep = RedFluid {
        min_th: 10.0,
        max_th: 20.0,
        max_p: 1.0,
        wq: 0.01,
    };
    let gentle = RedFluid {
        min_th: 15.0,
        max_th: 45.0,
        max_p: 0.1,
        wq: 0.002,
    };
    let wide = RedFluid {
        max_th: 60.0,
        ..gentle
    };
    vec![
        StabilityInstance {
            name: "steep_rtt1ms_n4",
            senders: 4,
            delay_us: 250,
            red: steep,
        },
        StabilityInstance {
            name: "steep_rtt500us_n2",
            senders: 2,
            delay_us: 125,
            red: steep,
        },
        StabilityInstance {
            name: "steep_rtt1ms_n8",
            senders: 8,
            delay_us: 250,
            red: steep,
        },
        StabilityInstance {
            name: "gentle_rtt1ms_n8",
            senders: 8,
            delay_us: 250,
            red: gentle,
        },
        StabilityInstance {
            name: "wide_rtt1200us_n9",
            senders: 9,
            delay_us: 300,
            red: wide,
        },
        StabilityInstance {
            name: "gentle_rtt100us_n8",
            senders: 8,
            delay_us: 25,
            red: gentle,
        },
    ]
}

/// Cross-validation outcome for one instance.
#[derive(Clone, Copy, Debug)]
pub struct StabilityRow {
    /// Mean-field verdict.
    pub verdict: trim_core::fluid::RedStabilityVerdict,
    /// Whether the packet simulation showed a sustained limit cycle.
    pub measured_unstable: bool,
}

impl StabilityRow {
    /// Whether simulation and mean-field predicate agree.
    pub fn agree(&self) -> bool {
        self.measured_unstable != self.verdict.stable
    }
}

/// Warmup before the stability instrument attaches: the mean-field
/// predicate speaks about the equilibrium, so the synchronized
/// slow-start convoy of the first tens of milliseconds must not count
/// as a limit cycle. Monitors observe only from attach time, which
/// makes the cutoff exact.
const STABILITY_WARMUP_MS: u64 = 100;

/// Runs one cross-validation instance: Reno senders through the RED
/// bottleneck under persistent load, with the [`RedStability`] monitor
/// measuring the post-warmup packet-level behavior against the
/// predicate.
pub fn run_stability_instance(inst: &StabilityInstance) -> StabilityRow {
    let red = RedConfig {
        min_th: inst.red.min_th,
        max_th: inst.red.max_th,
        max_p: inst.red.max_p,
        wq: inst.red.wq,
        ..RedConfig::default()
    };
    let link = LinkSpec::new(
        Bandwidth::mbps(LINK_MBPS),
        Dur::from_micros(inst.delay_us),
        QueueConfig::drop_tail(100).with_red(red),
    );
    let tcp = TcpConfig::default().with_min_rto(Dur::from_micros(MIN_RTO_US));
    let mut sc = ScenarioBuilder::many_to_one(inst.senders)
        .links(link)
        .tcp_config(tcp)
        .congestion_control(CcKind::Reno)
        .build();
    if !sc.sim_mut().monitors_enabled() {
        trim_check::attach_standard(sc.sim_mut());
    }
    let base_rtt_ns = 4 * inst.delay_us * 1_000;
    let verdict = red_stability(CAPACITY_PPS, base_rtt_ns, inst.senders as f64, &inst.red);
    let capacity_bytes = LINK_MBPS * 125 * HORIZON_MS;
    let per_sender = (3 * capacity_bytes / (2 * inst.senders as u64))
        .div_ceil(trim_workload::spec::SPEC_MSS_BYTES)
        .max(1)
        * trim_workload::spec::SPEC_MSS_BYTES;
    for s in 0..inst.senders {
        sc.send_train(
            s,
            TrainSpec {
                at: SimTime::from_nanos(10_000 * s as u64),
                bytes: per_sender,
            },
        );
    }
    sc.sim_mut()
        .run_until(SimTime::ZERO + Dur::from_millis(STABILITY_WARMUP_MS));
    // The measurement instrument must distinguish the *macroscopic*
    // swings of an unstable RED loop (timeout/slow-start excursions to
    // ~ 2 W* and beyond) from Reno's intrinsic sawtooth around a stable
    // equilibrium (amplitude ~ W*/2 on a window halving). Scaling the
    // amplitude floor to 1.5 W* puts the bar between the two regimes.
    let instrument = StabilityConfig {
        min_amplitude: (1.5 * verdict.w_star).max(4.0),
        ..StabilityConfig::default()
    };
    sc.sim_mut().attach_monitor(Box::new(RedStability::new(
        CAPACITY_PPS,
        base_rtt_ns,
        inst.senders as f64,
        &inst.red,
        instrument,
    )));
    sc.sim_mut()
        .run_until(SimTime::ZERO + Dur::from_millis(HORIZON_MS));
    let mut disagrees = false;
    for v in sc.sim_mut().violations() {
        match v.monitor {
            "red-stability" => disagrees = true,
            m if STABILITY_MONITORS.contains(&m) => {}
            other => panic!("aqm_stability instance broke the {other} invariant: {v}"),
        }
    }
    // The RedStability monitor fires exactly on disagreement, so the
    // measured verdict is recoverable without reaching into the boxed
    // monitor: measured != predicted <=> it fired.
    let predicted_unstable = !verdict.stable;
    StabilityRow {
        verdict,
        measured_unstable: predicted_unstable ^ disagrees,
    }
}

fn stability_table(row: &StabilityRow) -> Table {
    let mut t = Table::new(
        "instance",
        &[
            "predicted_stable",
            "margin",
            "w_star",
            "measured_cycle",
            "agree",
        ],
    );
    let v = &row.verdict;
    t.row(&[
        u8::from(v.stable).to_string(),
        num(v.margin),
        num(v.w_star),
        u8::from(row.measured_unstable).to_string(),
        u8::from(row.agree()).to_string(),
    ]);
    t
}

fn record_for<'a>(records: &'a [JobRecord], key: &str) -> &'a JobRecord {
    records
        .iter()
        .find(|r| r.key == key)
        .unwrap_or_else(|| panic!("missing job '{key}'"))
}

/// Builds the campaign: one job per matrix cell, one per
/// cross-validation instance. The grid is fixed across efforts.
pub fn campaign(_effort: Effort) -> Campaign {
    let mut c = Campaign::new("aqm_matrix", 0xA9_11);
    for (key, aqm, buffer_pkts, senders, cc) in matrix_cells() {
        c.table_job(format!("m_{key}"), &[("cell", key.clone())], move |_seed| {
            cell_table(&run_cell(aqm, buffer_pkts, senders, cc))
        });
    }
    for inst in stability_instances() {
        c.table_job(
            format!("s_{}", inst.name),
            &[("instance", inst.name.to_string())],
            move |_seed| stability_table(&run_stability_instance(&inst)),
        );
    }
    c.reduce(move |records| {
        let mut matrix = Table::new(
            "AQM matrix — discipline x tiny buffer x fan-in x protocol (1 Gbps, 400 ms)",
            &[
                "discipline",
                "buffer_pkts",
                "senders",
                "cc",
                "goodput_mbps",
                "drops",
                "sojourn_drops",
                "max_queue",
                "avg_queue",
                "timeouts",
                "limit_cycles",
                "standing_queue",
            ],
        );
        for (key, _, buffer_pkts, senders, cc) in matrix_cells() {
            let cell = record_for(records, &format!("m_{key}")).only();
            let disc = key.split('_').next().expect("key has a discipline");
            matrix.row(&[
                disc.to_string(),
                buffer_pkts.to_string(),
                senders.to_string(),
                match cc {
                    SpecCc::Reno => "reno".to_string(),
                    _ => "trim".to_string(),
                },
                cell.cell(0, 0).to_string(),
                cell.cell(0, 1).to_string(),
                cell.cell(0, 2).to_string(),
                cell.cell(0, 3).to_string(),
                cell.cell(0, 4).to_string(),
                cell.cell(0, 5).to_string(),
                cell.cell(0, 6).to_string(),
                cell.cell(0, 7).to_string(),
            ]);
        }
        let mut stab = Table::new(
            "RED stability — packet simulation vs mean-field predicate (Reynier)",
            &[
                "instance",
                "senders",
                "delay_us",
                "min_th",
                "max_th",
                "max_p",
                "wq",
                "predicted_stable",
                "margin",
                "w_star",
                "measured_cycle",
                "agree",
            ],
        );
        for inst in stability_instances() {
            let row = record_for(records, &format!("s_{}", inst.name)).only();
            stab.row(&[
                inst.name.to_string(),
                inst.senders.to_string(),
                inst.delay_us.to_string(),
                num(inst.red.min_th),
                num(inst.red.max_th),
                num(inst.red.max_p),
                num(inst.red.wq),
                row.cell(0, 0).to_string(),
                row.cell(0, 1).to_string(),
                row.cell(0, 2).to_string(),
                row.cell(0, 3).to_string(),
                row.cell(0, 4).to_string(),
            ]);
        }
        vec![
            ("aqm_matrix".to_string(), matrix),
            ("aqm_stability".to_string(), stab),
        ]
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_cross_validation_agrees_on_at_least_four_instances() {
        let rows: Vec<(StabilityInstance, StabilityRow)> = stability_instances()
            .into_iter()
            .map(|inst| (inst, run_stability_instance(&inst)))
            .collect();
        let agreeing = rows.iter().filter(|(_, r)| r.agree()).count();
        assert!(
            agreeing >= 4,
            "need >= 4 agreeing cross-validation instances, got {agreeing}: {rows:?}"
        );
        // The agreement must span both regimes: a genuinely unstable
        // large-BDP steep-RED instance and a stable many-flow one.
        assert!(
            rows.iter()
                .any(|(_, r)| r.agree() && !r.verdict.stable && r.measured_unstable),
            "no confirmed-unstable instance: {rows:?}"
        );
        assert!(
            rows.iter()
                .any(|(_, r)| r.agree() && r.verdict.stable && !r.measured_unstable),
            "no confirmed-stable instance: {rows:?}"
        );
    }

    #[test]
    fn red_trims_the_tiny_buffer_queue_against_drop_tail() {
        let red = disciplines(16)
            .into_iter()
            .find(|(n, _)| *n == "red")
            .expect("red discipline")
            .1;
        let dt = run_cell(SpecAqm::DropTail, 16, 32, SpecCc::Reno);
        let red = run_cell(red, 16, 32, SpecCc::Reno);
        assert!(
            red.avg_queue < dt.avg_queue,
            "RED must hold a shorter average queue: {} vs {}",
            red.avg_queue,
            dt.avg_queue
        );
        assert!(red.drops > 0, "a saturated RED band drops early");
    }

    #[test]
    fn codel_cells_record_sojourn_drops() {
        let codel = disciplines(16)
            .into_iter()
            .find(|(n, _)| *n == "codel")
            .expect("codel discipline")
            .1;
        let cell = run_cell(codel, 16, 32, SpecCc::Reno);
        assert!(
            cell.sojourn_drops > 0,
            "a saturated 16-packet CoDel queue must sojourn-drop: {cell:?}"
        );
        assert!(cell.drops >= cell.sojourn_drops);
    }
}
