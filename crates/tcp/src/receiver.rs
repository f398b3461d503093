//! The TCP receiver: cumulative ACK generation with timestamp, probe-flag
//! and ECN echo, plus delivery accounting for goodput and throughput
//! metrics.

use std::collections::BTreeSet;

use netsim::prelude::*;
use netsim::time::Dur;

use crate::config::TcpConfig;
use crate::conn::KIND_BITS;
use crate::conn::KIND_DELACK;
use crate::segment::{SackBlocks, SegKind, Segment};
use netsim::time::Dur as NsDur;

/// Delivery counters for one receiving flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReceiverStats {
    /// Data packets received (including duplicates).
    pub pkts_received: u64,
    /// Duplicate data packets (already delivered).
    pub dup_pkts: u64,
    /// Packets delivered in order to the application.
    pub delivered_pkts: u64,
    /// ACK segments transmitted.
    pub acks_sent: u64,
}

#[derive(Debug)]
struct PendingAck {
    peer: NodeId,
    echo_ts: netsim::time::SimTime,
    echo_probe: bool,
    echo_rtx: bool,
    ece: bool,
    timer: TimerId,
}

/// Receiving side of one flow, owned by a `TcpHost`.
#[derive(Debug)]
pub struct Receiver {
    flow: FlowId,
    ack_bytes: u32,
    rcv_next: u64,
    out_of_order: BTreeSet<u64>,
    stats: ReceiverStats,
    /// Boxed: only a few experiments meter throughput.
    meter: Option<Box<ThroughputMeter>>,
    mss_bytes: u32,
    sack_enabled: bool,
    delayed_ack: Option<NsDur>,
    local_idx: u64,
    pending: Option<PendingAck>,
}

impl Receiver {
    /// Creates a receiver for `flow` with the connection's configuration
    /// (ACK size, MSS for goodput scaling, SACK, delayed ACKs).
    /// `local_idx` is the receiver's index within its host, used for
    /// delayed-ACK timer tokens.
    pub fn new(flow: FlowId, cfg: TcpConfig, local_idx: u64) -> Self {
        Receiver {
            flow,
            ack_bytes: cfg.ack_bytes,
            rcv_next: 0,
            out_of_order: BTreeSet::new(),
            stats: ReceiverStats::default(),
            meter: None,
            mss_bytes: cfg.mss_bytes,
            sack_enabled: cfg.sack,
            delayed_ack: cfg.delayed_ack,
            local_idx,
            pending: None,
        }
    }

    /// Builds up to three SACK blocks from the out-of-order set, with the
    /// block containing `latest` (the just-arrived packet) first, per
    /// RFC 2018.
    fn sack_blocks(&self, latest: Option<u64>) -> SackBlocks {
        let mut blocks: SackBlocks = [None; 3];
        if !self.sack_enabled || self.out_of_order.is_empty() {
            return blocks;
        }
        // Contiguous runs of the ordered set.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &seq in &self.out_of_order {
            match runs.last_mut() {
                Some((_, end)) if *end == seq => *end = seq + 1,
                _ => runs.push((seq, seq + 1)),
            }
        }
        let mut out = Vec::with_capacity(3);
        if let Some(l) = latest {
            if let Some(&run) = runs.iter().find(|&&(s, e)| s <= l && l < e) {
                out.push(run);
            }
        }
        for &run in &runs {
            if out.len() >= 3 {
                break;
            }
            if !out.contains(&run) {
                out.push(run);
            }
        }
        for (i, run) in out.into_iter().enumerate() {
            blocks[i] = Some(run);
        }
        blocks
    }

    /// The flow this receiver serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Delivery counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// In-order bytes delivered to the application so far.
    pub fn goodput_bytes(&self) -> u64 {
        self.stats.delivered_pkts * self.mss_bytes as u64
    }

    /// Starts metering delivered bytes into bins of `bin` width.
    pub fn enable_throughput_meter(&mut self, bin: Dur) {
        if self.meter.is_none() {
            self.meter = Some(Box::new(ThroughputMeter::new(bin)));
        }
    }

    /// The throughput meter, if enabled.
    pub fn meter(&self) -> Option<&ThroughputMeter> {
        self.meter.as_deref()
    }

    /// Handles an arriving data packet and sends the cumulative ACK.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not a data segment.
    pub fn on_data(&mut self, ctx: &mut Ctx<'_, Segment>, pkt: Packet<Segment>) {
        let SegKind::Data {
            seq,
            is_probe,
            is_rtx,
            ts,
        } = pkt.payload.kind
        else {
            panic!("receiver got a non-data segment"); // trim-lint: allow(no-panic-in-library, reason = "the sender only ever addresses the receiver with data; anything else is corruption")
        };
        let now = ctx.now();
        self.stats.pkts_received += 1;
        // Classify before mutating: a clean in-order arrival with no
        // reassembly gap outstanding is the only case eligible for ACK
        // delay (RFC 1122: ack immediately when an arrival fills a gap or
        // out-of-order data is buffered).
        let clean_in_order = seq == self.rcv_next && self.out_of_order.is_empty();
        if seq < self.rcv_next || self.out_of_order.contains(&seq) {
            self.stats.dup_pkts += 1;
        } else if seq == self.rcv_next {
            self.rcv_next += 1;
            let mut delivered = 1;
            while self.out_of_order.remove(&self.rcv_next) {
                self.rcv_next += 1;
                delivered += 1;
            }
            self.stats.delivered_pkts += delivered;
            if let Some(m) = &mut self.meter {
                m.record(now, delivered * self.mss_bytes as u64);
            }
        } else {
            self.out_of_order.insert(seq);
        }
        // For the SACK blocks: the block containing this packet leads,
        // when the packet sits above the cumulative point.
        let latest = if seq >= self.rcv_next {
            Some(seq)
        } else {
            None
        };

        // Delayed-ACK policy (RFC 1122 + DCTCP/TRIM requirements):
        // immediate on out-of-order or duplicate data, CE marks, and TRIM
        // probe packets; otherwise coalesce up to two in-order packets or
        // the delack timeout.
        let immediate = self.delayed_ack.is_none()
            || !clean_in_order
            || pkt.payload.is_ce()
            || is_probe
            || self.pending.is_some();
        if immediate {
            if let Some(p) = self.pending.take() {
                ctx.cancel_timer(p.timer);
            }
            self.send_ack(
                ctx,
                pkt.src,
                ts,
                is_probe,
                is_rtx,
                pkt.payload.is_ce(),
                latest,
            );
        } else {
            let delay = self.delayed_ack.expect("immediate covers None"); // trim-lint: allow(no-panic-in-library, reason = "the immediate branch above handled delayed_ack == None")
            let timer = ctx.set_timer(delay, (self.local_idx << KIND_BITS) | KIND_DELACK);
            self.pending = Some(PendingAck {
                peer: pkt.src,
                echo_ts: ts,
                echo_probe: is_probe,
                echo_rtx: is_rtx,
                ece: false,
                timer,
            });
        }
    }

    /// The delayed-ACK timer fired: flush the pending acknowledgment.
    pub fn on_delack_timer(&mut self, ctx: &mut Ctx<'_, Segment>) {
        if let Some(p) = self.pending.take() {
            self.send_ack(
                ctx,
                p.peer,
                p.echo_ts,
                p.echo_probe,
                p.echo_rtx,
                p.ece,
                None,
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_ack(
        &mut self,
        ctx: &mut Ctx<'_, Segment>,
        peer: NodeId,
        echo_ts: netsim::time::SimTime,
        echo_probe: bool,
        echo_rtx: bool,
        ece: bool,
        latest: Option<u64>,
    ) {
        let ack = Segment::ack_with_sack(
            self.rcv_next,
            echo_ts,
            echo_probe,
            echo_rtx,
            ece,
            self.sack_blocks(latest),
        );
        let reply = Packet::new(ctx.node(), peer, self.flow, self.ack_bytes, ack);
        ctx.send(reply);
        self.stats.acks_sent += 1;
    }
}
