//! The TCP sender state machine: sequencing, loss detection (duplicate
//! ACKs and RTO), NewReno-style recovery, go-back-N timeout recovery, and
//! the application-side packet-train queue.
//!
//! The policy half (window growth/shrink, TRIM probing) lives in the
//! pluggable [`CcAlgo`]; this module is the mechanism half. Sequence
//! numbers count packets, as in NS2.
//!
//! ## State layout
//!
//! A sender's state is split for the million-flow engine, and both
//! halves live in the same row of the host's flow slab:
//!
//! - `HotFlow` — the per-ACK working set (window, RTO estimator,
//!   sequence cursors, recovery flags), stored inline in the row;
//! - `ColdConn` — everything touched rarely or only at the ends of a
//!   run (config, controller box, SACK scoreboard, train queue, stats),
//!   boxed per flow.
//!
//! `ConnCore` borrows both halves of a row in place and carries the
//! whole state machine;
//! [`ConnRef`] is the read-only public view returned by
//! [`TcpHost::connection`](crate::TcpHost::connection).

use std::collections::{BTreeSet, VecDeque};

use netsim::prelude::*;
use netsim::time::{Dur, SimTime};

use crate::cc::{AckInfo, CcAlgo, PreSendAction, WindowState};
use crate::config::TcpConfig;
use crate::rto::RtoEstimator;
use crate::segment::{SackBlocks, Segment};
use crate::slab::HotFlow;

/// Timer-token kind for retransmission timeouts (dispatched by `TcpHost`).
pub(crate) const KIND_RTO: u64 = 0;
/// Timer-token kind for TRIM probe deadlines.
pub(crate) const KIND_PROBE: u64 = 1;
/// Timer-token kind for scheduled application trains.
pub(crate) const KIND_APP: u64 = 2;
/// Timer-token kind for the next train in a response sequence.
pub(crate) const KIND_SEQ: u64 = 3;
/// Timer-token kind for a receiver's delayed-ACK timeout.
pub(crate) const KIND_DELACK: u64 = 4;
/// Width of the kind field in timer tokens.
pub(crate) const KIND_BITS: u64 = 3;

/// Counters exposed by a connection after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Data packets transmitted (including retransmissions).
    pub pkts_sent: u64,
    /// Retransmitted data packets.
    pub rtx_sent: u64,
    /// TRIM probe packets transmitted.
    pub probes_sent: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast-retransmit events entered.
    pub fast_retransmits: u64,
    /// ACKs processed.
    pub acks_received: u64,
    /// Duplicate ACKs processed.
    pub dup_acks_received: u64,
}

/// A finished packet train, with the timestamps used for completion-time
/// metrics (the paper's ACT/ARCT).
#[derive(Clone, Copy, Debug)]
pub struct TrainRecord {
    /// Order of arrival at the sender (0-based).
    pub id: u64,
    /// Application bytes in the train.
    pub bytes: u64,
    /// Packets in the train.
    pub pkts: u64,
    /// When the application handed the train to TCP.
    pub enqueued_at: SimTime,
    /// When the train's first packet left the host.
    pub first_sent_at: SimTime,
    /// When the last packet was cumulatively acknowledged.
    pub completed_at: SimTime,
}

impl TrainRecord {
    /// Completion time as measured in the paper: from hand-off to final
    /// acknowledgment.
    pub fn completion_time(&self) -> Dur {
        self.completed_at.saturating_since(self.enqueued_at)
    }
}

#[derive(Clone, Copy, Debug)]
struct TrainProgress {
    id: u64,
    bytes: u64,
    start_seq: u64,
    end_seq: u64,
    enqueued_at: SimTime,
    first_sent_at: Option<SimTime>,
}

#[derive(Debug)]
struct ProbePending {
    remaining: u32,
    timer: TimerId,
}

/// The rarely-touched half of a sending connection, boxed per flow in
/// its slab row.
#[derive(Debug)]
pub(crate) struct ColdConn {
    pub(crate) flow: FlowId,
    dst: NodeId,
    pub(crate) cfg: TcpConfig,
    cc: Box<dyn CcAlgo>,
    /// Dense slab id within the owning host, used to build timer tokens.
    /// Assigned by `FlowSlab::insert`.
    pub(crate) local_idx: u64,

    probe: Option<ProbePending>,

    /// SACK scoreboard: sequences above `high_ack` the receiver reported
    /// holding (only populated when `cfg.sack`).
    sacked: BTreeSet<u64>,
    /// Holes already retransmitted in the current recovery episode.
    rtx_this_recovery: BTreeSet<u64>,

    trains: VecDeque<TrainProgress>,
    next_train_id: u64,
    pub(crate) completed: Vec<TrainRecord>,

    stats: ConnStats,
}

/// Builds the split state for a new connection sending to `dst` with
/// flow label `flow`. The cold half's `local_idx` is assigned when the
/// pair is inserted into the host's flow slab.
///
/// # Panics
///
/// Panics if `cfg` fails validation.
pub(crate) fn new_conn(
    flow: FlowId,
    dst: NodeId,
    cfg: TcpConfig,
    cc: Box<dyn CcAlgo>,
) -> (HotFlow, Box<ColdConn>) {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid TcpConfig: {e}")); // trim-lint: allow(no-panic-in-library, reason = "constructor contract: configs are validated at build time")
    let hot = HotFlow {
        win: WindowState::new(cfg.init_cwnd, cfg.init_ssthresh, cfg.min_cwnd, cfg.max_cwnd),
        rto_est: RtoEstimator::new(cfg.min_rto, cfg.max_rto),
        next_seq: 0,
        high_ack: 0,
        max_seq_sent: 0,
        total_pkts: 0,
        recover: 0,
        dup_acks: 0,
        backoff: 1,
        in_recovery: false,
        rto_timer: None,
    };
    let cold = Box::new(ColdConn {
        flow,
        dst,
        cfg,
        cc,
        local_idx: 0,
        probe: None,
        sacked: BTreeSet::new(),
        rtx_this_recovery: BTreeSet::new(),
        trains: VecDeque::new(),
        next_train_id: 0,
        completed: Vec::new(),
        stats: ConnStats::default(),
    });
    (hot, cold)
}

/// Read-only view of one sending connection, borrowing both halves of
/// its slab row. `Copy`, so reference-returning accessors consume
/// `self` and borrow from the host instead.
#[derive(Clone, Copy, Debug)]
pub struct ConnRef<'a> {
    pub(crate) hot: &'a HotFlow,
    pub(crate) cold: &'a ColdConn,
}

impl<'a> ConnRef<'a> {
    /// The connection's flow label.
    pub fn flow(&self) -> FlowId {
        self.cold.flow
    }

    /// The congestion controller's report name.
    pub fn cc_name(&self) -> &'static str {
        self.cold.cc.name()
    }

    /// The controller itself, for algorithm-specific inspection.
    pub fn cc(self) -> &'a dyn CcAlgo {
        self.cold.cc.as_ref()
    }

    /// Current congestion window in packets.
    pub fn cwnd(&self) -> f64 {
        self.hot.win.cwnd
    }

    /// The smoothed RTT estimate, if any Karn-valid sample has arrived
    /// (echoes of retransmitted packets never contribute samples).
    pub fn srtt(&self) -> Option<Dur> {
        self.hot.rto_est.srtt()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ConnStats {
        self.cold.stats
    }

    /// Trains fully acknowledged so far, in completion order.
    pub fn completed_trains(self) -> &'a [TrainRecord] {
        &self.cold.completed
    }

    /// Whether every queued train has been fully acknowledged.
    pub fn is_idle(&self) -> bool {
        self.hot.high_ack == self.hot.total_pkts
    }

    /// Packets currently unacknowledged.
    pub fn flight(&self) -> u64 {
        self.hot.next_seq - self.hot.high_ack
    }
}

/// Mutable working view over one connection's split state: the whole
/// sender state machine lives here. Both halves are borrowed in place
/// from the connection's slab row.
pub(crate) struct ConnCore<'a> {
    pub(crate) hot: &'a mut HotFlow,
    pub(crate) cold: &'a mut ColdConn,
}

impl ConnCore<'_> {
    /// Packets currently unacknowledged.
    fn flight(&self) -> u64 {
        self.hot.next_seq - self.hot.high_ack
    }

    /// Cancels and forgets any timers this connection holds (called on
    /// teardown so a recycled slab slot cannot receive stale fires).
    pub(crate) fn cancel_timers(&mut self, ctx: &mut Ctx<'_, Segment>) {
        if let Some(t) = self.hot.rto_timer.take() {
            ctx.cancel_timer(t);
        }
        if let Some(p) = self.cold.probe.take() {
            ctx.cancel_timer(p.timer);
        }
    }

    /// Reports the current window to any attached monitors: `cwnd-range`
    /// checks it stays within `[min_cwnd, max_cwnd]`, and window traces
    /// (Fig. 4/6) are rebuilt from these events.
    fn emit_cwnd(&self, ctx: &mut Ctx<'_, Segment>) {
        let (flow, win) = (self.cold.flow, &self.hot.win);
        ctx.emit_monitor_with(|| MonitorEvent::CwndUpdate {
            flow,
            cwnd: win.cwnd,
            min_cwnd: win.min_cwnd,
            max_cwnd: win.max_cwnd,
        });
    }

    /// Reports a congestion-control ACK hook invocation to any attached
    /// invariant monitors (`ack-reduction-bound` checks that no single
    /// ACK cuts the window below legacy TCP's halving, per Eq. 2–3).
    fn emit_ack_window(&self, ctx: &mut Ctx<'_, Segment>, before: f64, probe_echo: bool) {
        let (flow, after) = (self.cold.flow, self.hot.win.cwnd);
        ctx.emit_monitor_with(|| MonitorEvent::AckWindow {
            flow,
            before,
            after,
            probe_echo,
        });
    }

    /// Reports an Algorithm-1 probe state-machine transition to any
    /// attached invariant monitors (`probe-legality` checks ordering).
    fn emit_probe(&self, ctx: &mut Ctx<'_, Segment>, transition: ProbeTransition) {
        let flow = self.cold.flow;
        ctx.emit_monitor_with(|| MonitorEvent::ProbeTransition { flow, transition });
    }

    fn token(&self, kind: u64) -> u64 {
        (self.cold.local_idx << KIND_BITS) | kind
    }

    /// Discards all application data that has not yet been transmitted:
    /// pending trains are dropped and the in-progress train is truncated
    /// at the highest transmitted packet. In-flight packets still drain
    /// normally. Models an application closing its response stream
    /// (used by the convergence and multi-hop experiments to stop LPTs
    /// at a scheduled time).
    pub(crate) fn truncate_unsent(&mut self) {
        self.hot.total_pkts = self.hot.next_seq;
        while let Some(last) = self.cold.trains.back() {
            if last.start_seq >= self.hot.total_pkts {
                self.cold.trains.pop_back();
            } else {
                break;
            }
        }
        if let Some(last) = self.cold.trains.back_mut() {
            last.end_seq = last.end_seq.min(self.hot.total_pkts);
        }
    }

    /// Queues `bytes` of application data as one packet train and starts
    /// transmitting as the window allows.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub(crate) fn enqueue_train(&mut self, ctx: &mut Ctx<'_, Segment>, bytes: u64) {
        assert!(bytes > 0, "empty train");
        let pkts = bytes.div_ceil(self.cold.cfg.mss_bytes as u64);
        let start_seq = self.hot.total_pkts;
        self.hot.total_pkts += pkts;
        self.cold.trains.push_back(TrainProgress {
            id: self.cold.next_train_id,
            bytes,
            start_seq,
            end_seq: self.hot.total_pkts,
            enqueued_at: ctx.now(),
            first_sent_at: None,
        });
        self.cold.next_train_id += 1;
        self.try_send(ctx);
    }

    /// Transmits as much new data as the window, the probe state, and the
    /// application queue allow.
    pub(crate) fn try_send(&mut self, ctx: &mut Ctx<'_, Segment>) {
        loop {
            if self.hot.win.suspended || self.hot.next_seq >= self.hot.total_pkts {
                break;
            }
            // With SACK, sacked packets have left the network: they do
            // not occupy the window (pipe accounting).
            let flight = (self.hot.next_seq - self.hot.high_ack) - self.cold.sacked.len() as u64;
            let wnd = self.hot.win.cwnd.floor().max(1.0) as u64;
            if flight >= wnd {
                break;
            }
            // Algorithm 1 applies only to fresh data, not go-back-N
            // resends.
            if self.cold.probe.is_none() && self.hot.next_seq >= self.hot.max_seq_sent {
                let available = self.hot.total_pkts - self.hot.next_seq;
                match self
                    .cold
                    .cc
                    .pre_send(&mut self.hot.win, ctx.now(), available)
                {
                    PreSendAction::Continue => {}
                    PreSendAction::StartProbe { probes, deadline } => {
                        let timer = ctx.set_timer(deadline, self.token(KIND_PROBE));
                        self.cold.probe = Some(ProbePending {
                            remaining: probes,
                            timer,
                        });
                        self.emit_probe(ctx, ProbeTransition::Start);
                        self.emit_cwnd(ctx);
                        continue; // window changed; re-evaluate
                    }
                }
            }
            let seq = self.hot.next_seq;
            let is_probe = self.cold.probe.is_some();
            self.transmit(ctx, seq, is_probe);
            self.hot.next_seq += 1;
            self.hot.max_seq_sent = self.hot.max_seq_sent.max(self.hot.next_seq);
            if let Some(p) = &mut self.cold.probe {
                self.cold.stats.probes_sent += 1;
                p.remaining -= 1;
                if p.remaining == 0 {
                    // Algorithm 1 line 6: suspend until the probe result.
                    self.hot.win.suspended = true;
                    let flow = self.cold.flow;
                    ctx.emit_monitor_with(|| MonitorEvent::ProbeTransition {
                        flow,
                        transition: ProbeTransition::Suspend,
                    });
                }
            }
        }
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_, Segment>, seq: u64, is_probe: bool) {
        let now = ctx.now();
        let is_rtx = seq < self.hot.max_seq_sent;
        let seg = Segment::data(seq, is_probe, is_rtx, now, self.cold.cc.uses_ecn());
        let pkt = Packet::new(
            ctx.node(),
            self.cold.dst,
            self.cold.flow,
            self.cold.cfg.mss_bytes,
            seg,
        );
        ctx.send(pkt);
        self.cold.cc.note_sent(now);
        self.cold.stats.pkts_sent += 1;
        if is_rtx {
            self.cold.stats.rtx_sent += 1;
        }
        if !is_rtx {
            self.note_first_send(seq, now);
        }
        if self.hot.rto_timer.is_none() {
            self.arm_rto(ctx);
        }
    }

    fn note_first_send(&mut self, seq: u64, now: SimTime) {
        // Binary search the (start_seq-sorted) pending trains.
        let idx = self
            .cold
            .trains
            .partition_point(|t| t.start_seq <= seq)
            .checked_sub(1);
        if let Some(i) = idx {
            let t = &mut self.cold.trains[i];
            if seq < t.end_seq && t.first_sent_at.is_none() {
                t.first_sent_at = Some(now);
            }
        }
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_, Segment>) {
        let rto = self
            .hot
            .rto_est
            .rto()
            .mul_f64(self.hot.backoff as f64)
            .min(self.cold.cfg.max_rto);
        self.hot.rto_timer = Some(ctx.set_timer(rto, self.token(KIND_RTO)));
    }

    fn cancel_rto(&mut self, ctx: &mut Ctx<'_, Segment>) {
        if let Some(t) = self.hot.rto_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    fn rearm_rto(&mut self, ctx: &mut Ctx<'_, Segment>) {
        self.cancel_rto(ctx);
        if self.flight() > 0 {
            self.arm_rto(ctx);
        }
    }

    /// Processes an arriving cumulative ACK (with optional SACK blocks).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_ack(
        &mut self,
        ctx: &mut Ctx<'_, Segment>,
        ack_seq: u64,
        echo_ts: SimTime,
        echo_probe: bool,
        echo_rtx: bool,
        ece: bool,
        sack: &SackBlocks,
    ) {
        let now = ctx.now();
        if self.cold.cfg.sack {
            for block in sack.iter().flatten() {
                for seq in block.0..block.1 {
                    if seq >= self.hot.high_ack && seq < self.hot.next_seq {
                        self.cold.sacked.insert(seq);
                    }
                }
            }
        }
        self.cold.stats.acks_received += 1;
        // Karn's rule: no RTT sample from a retransmitted packet's echo.
        let rtt = if echo_rtx {
            None
        } else {
            Some(now.saturating_since(echo_ts))
        };
        if let Some(r) = rtt {
            if r > Dur::ZERO {
                self.hot.rto_est.observe(r);
            }
        }

        if ack_seq > self.hot.high_ack {
            let newly = ack_seq - self.hot.high_ack;
            self.hot.high_ack = ack_seq;
            // After go-back-N the ACK may cover packets sent before the
            // timeout that were still in flight; never send below the
            // cumulative ACK.
            self.hot.next_seq = self.hot.next_seq.max(self.hot.high_ack);
            self.hot.max_seq_sent = self.hot.max_seq_sent.max(self.hot.next_seq);
            self.hot.backoff = 1;
            self.cold.sacked = self.cold.sacked.split_off(&self.hot.high_ack);
            if self.hot.in_recovery {
                if ack_seq >= self.hot.recover {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.hot.in_recovery = false;
                    self.hot.dup_acks = 0;
                    self.cold.rtx_this_recovery.clear();
                    self.hot.win.cwnd = self.hot.win.ssthresh;
                    self.hot.win.clamp_cwnd();
                } else if self.cold.cfg.sack {
                    // SACK recovery: repair the lowest unrepaired hole.
                    self.retransmit_next_hole(ctx);
                } else {
                    // NewReno partial ACK: the next hole is lost too.
                    self.transmit_rtx(ctx, self.hot.high_ack);
                    self.hot.win.cwnd =
                        (self.hot.win.cwnd - newly as f64 + 1.0).max(self.hot.win.min_cwnd);
                }
            } else {
                self.hot.dup_acks = 0;
                let info = AckInfo {
                    now,
                    rtt,
                    newly_acked: newly,
                    ack_seq,
                    next_seq: self.hot.next_seq,
                    flight: self.hot.next_seq - self.hot.high_ack,
                    ece,
                    probe_echo: echo_probe,
                };
                let before = self.hot.win.cwnd;
                self.cold.cc.on_ack(&mut self.hot.win, &info);
                self.emit_ack_window(ctx, before, echo_probe);
            }
            self.complete_trains(now);
            self.rearm_rto(ctx);
        } else {
            // Duplicate ACK.
            if self.hot.next_seq > self.hot.high_ack {
                self.hot.dup_acks += 1;
                self.cold.stats.dup_acks_received += 1;
                if self.hot.in_recovery {
                    if self.cold.cfg.sack {
                        // SACK recovery: the scoreboard says what is
                        // missing; repair it instead of inflating.
                        self.retransmit_next_hole(ctx);
                    } else {
                        // Window inflation keeps the pipe full.
                        self.hot.win.cwnd += 1.0;
                        self.hot.win.clamp_cwnd();
                    }
                } else if self.hot.dup_acks == self.cold.cfg.dupack_threshold {
                    self.enter_fast_recovery(ctx, now);
                } else {
                    // Still feed the controller: TRIM needs every RTT
                    // sample, DCTCP every ECE, probe echoes may ride on
                    // duplicates.
                    let info = AckInfo {
                        now,
                        rtt,
                        newly_acked: 0,
                        ack_seq,
                        next_seq: self.hot.next_seq,
                        flight: self.hot.next_seq - self.hot.high_ack,
                        ece,
                        probe_echo: echo_probe,
                    };
                    let before = self.hot.win.cwnd;
                    self.cold.cc.on_ack(&mut self.hot.win, &info);
                    self.emit_ack_window(ctx, before, echo_probe);
                }
            }
        }

        // Did the controller resolve a probe phase?
        if let Some(p) = &self.cold.probe {
            if p.remaining == 0 && !self.hot.win.suspended {
                let timer = p.timer;
                ctx.cancel_timer(timer);
                self.cold.probe = None;
                self.emit_probe(ctx, ProbeTransition::Resolve);
            }
        }
        self.emit_cwnd(ctx);
        self.try_send(ctx);
    }

    fn enter_fast_recovery(&mut self, ctx: &mut Ctx<'_, Segment>, now: SimTime) {
        self.hot.in_recovery = true;
        self.hot.recover = self.hot.next_seq;
        self.cold.rtx_this_recovery.clear();
        self.cold.rtx_this_recovery.insert(self.hot.high_ack);
        self.cold.stats.fast_retransmits += 1;
        let flight = self.flight();
        self.cold
            .cc
            .on_fast_retransmit(&mut self.hot.win, flight, now);
        // Standard inflation by the duplicate threshold.
        self.hot.win.cwnd += self.cold.cfg.dupack_threshold as f64;
        self.hot.win.clamp_cwnd();
        self.transmit_rtx(ctx, self.hot.high_ack);
        self.rearm_rto(ctx);
    }

    fn transmit_rtx(&mut self, ctx: &mut Ctx<'_, Segment>, seq: u64) {
        let now = ctx.now();
        let seg = Segment::data(seq, false, true, now, self.cold.cc.uses_ecn());
        let pkt = Packet::new(
            ctx.node(),
            self.cold.dst,
            self.cold.flow,
            self.cold.cfg.mss_bytes,
            seg,
        );
        ctx.send(pkt);
        self.cold.cc.note_sent(now);
        self.cold.stats.pkts_sent += 1;
        self.cold.stats.rtx_sent += 1;
    }

    /// Retransmits the lowest sequence in `[high_ack, recover)` that is
    /// neither SACKed nor already repaired in this recovery episode and
    /// that qualifies as lost under RFC 6675's rule: at least
    /// `dupack_threshold` SACKed sequences lie above it (otherwise the
    /// packet may simply still be in flight).
    fn retransmit_next_hole(&mut self, ctx: &mut Ctx<'_, Segment>) {
        let thresh = self.cold.cfg.dupack_threshold as usize;
        let mut seq = self.hot.high_ack;
        while seq < self.hot.recover {
            if !self.cold.sacked.contains(&seq) && !self.cold.rtx_this_recovery.contains(&seq) {
                let reported_above = self.cold.sacked.range(seq + 1..).take(thresh).count();
                if reported_above < thresh {
                    return; // not yet known lost; wait for more reports
                }
                self.cold.rtx_this_recovery.insert(seq);
                self.transmit_rtx(ctx, seq);
                return;
            }
            seq += 1;
        }
    }

    /// The retransmission timer fired: collapse the window, back off the
    /// timer, and go-back-N from the last cumulative ACK.
    pub(crate) fn on_rto_fire(&mut self, ctx: &mut Ctx<'_, Segment>) {
        self.hot.rto_timer = None;
        if self.flight() == 0 {
            return; // stale: everything got acknowledged meanwhile
        }
        let now = ctx.now();
        self.cold.stats.timeouts += 1;
        let flight = self.flight();
        self.cold.cc.on_timeout(&mut self.hot.win, flight, now);
        self.hot.win.cwnd = self.cold.cfg.restart_cwnd;
        self.hot.win.suspended = false;
        self.hot.win.clamp_cwnd();
        if let Some(p) = self.cold.probe.take() {
            ctx.cancel_timer(p.timer);
            self.emit_probe(ctx, ProbeTransition::Abort);
        }
        self.hot.in_recovery = false;
        self.hot.dup_acks = 0;
        self.cold.rtx_this_recovery.clear();
        self.cold.sacked.clear();
        self.hot.backoff = (self.hot.backoff * 2).min(64);
        // Go-back-N: resume from the last cumulative ACK.
        self.hot.next_seq = self.hot.high_ack;
        self.emit_cwnd(ctx);
        self.try_send(ctx);
        if self.hot.rto_timer.is_none() && self.flight() > 0 {
            self.arm_rto(ctx);
        }
    }

    /// The TRIM probe deadline fired without all probe ACKs.
    pub(crate) fn on_probe_deadline_fire(&mut self, ctx: &mut Ctx<'_, Segment>) {
        if self.cold.probe.take().is_some() {
            self.emit_probe(ctx, ProbeTransition::Timeout);
            self.cold.cc.on_probe_deadline(&mut self.hot.win);
            self.emit_cwnd(ctx);
            self.try_send(ctx);
        }
    }

    fn complete_trains(&mut self, now: SimTime) {
        while let Some(front) = self.cold.trains.front() {
            if self.hot.high_ack < front.end_seq {
                break;
            }
            let t = self.cold.trains.pop_front().expect("front exists"); // trim-lint: allow(no-panic-in-library, reason = "front() returned Some in the loop condition")
            self.cold.completed.push(TrainRecord {
                id: t.id,
                bytes: t.bytes,
                pkts: t.end_seq - t.start_seq,
                enqueued_at: t.enqueued_at,
                first_sent_at: t.first_sent_at.unwrap_or(t.enqueued_at),
                completed_at: now,
            });
        }
    }
}
