//! The flow slab: one row per sending connection on a host, keyed by
//! dense flow id.
//!
//! Each row holds the flow's hot half inline — the [`HotFlow`] per-ACK
//! working set (window, RTO estimator, sequence cursors, recovery
//! flags) — next to one `Box<ColdConn>` for everything touched rarely.
//! An event borrows both halves of its row in place as a
//! [`ConnCore`], which also carries the row's id for timer tokens, so
//! the state machine runs on the stored record with no copy in or out,
//! and one ACK touches one contiguous row.
//!
//! Per-flow bytes set the scale limit, so both halves are budgeted by
//! size tests: a row is 168 B (the 152 B `HotFlow`, the cold pointer and
//! the generation) and the cold box 176 B. With a one-slot train queue
//! (56 B) and completed list (48 B), a single-train Reno flow costs
//! 448 B before allocator rounding, down from 904 B when the box held a
//! full `TcpConfig` copy, an inline SACK scoreboard and four-slot
//! queues. DESIGN.md ("The flow slab") has the table.
//!
//! Slots are recycled through a freelist with generation counters and
//! allocated/freed accounting, so teardown at scale reuses ids instead
//! of growing the slab, and [`leak_check`](FlowSlab::leak_check)
//! catches any slot that is neither live nor free.

use crate::cc::WindowState;
use crate::conn::{ColdConn, ConnCore, ConnRef};
use crate::rto::RtoEstimator;
use netsim::sim::TimerId;

/// The per-event working set of one sending connection, stored inline
/// in its slab row.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HotFlow {
    /// Congestion window state (cwnd/ssthresh/bounds/suspended).
    pub(crate) win: WindowState,
    /// RFC 6298 estimator (srtt/rttvar plus the configured clamp).
    pub(crate) rto_est: RtoEstimator,
    /// Next fresh sequence to transmit.
    pub(crate) next_seq: u64,
    /// Highest cumulative ACK received.
    pub(crate) high_ack: u64,
    /// Highest sequence ever transmitted (fresh data high-water mark).
    pub(crate) max_seq_sent: u64,
    /// Total packets handed over by the application so far.
    pub(crate) total_pkts: u64,
    /// NewReno recovery point: recovery ends at this sequence.
    pub(crate) recover: u64,
    /// Consecutive duplicate ACKs seen.
    pub(crate) dup_acks: u32,
    /// Karn backoff multiplier (doubles per RTO, capped at 64).
    pub(crate) backoff: u32,
    /// Whether fast recovery is in progress.
    pub(crate) in_recovery: bool,
    /// The armed retransmission timer, if any.
    pub(crate) rto_timer: Option<TimerId>,
}

/// Lifecycle accounting for a host's flow slab.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabAudit {
    /// Flows ever inserted.
    pub allocated: u64,
    /// Flows removed (including leaked removals).
    pub freed: u64,
    /// Currently live flows (`allocated - freed`).
    pub live: u64,
    /// Peak concurrent live flows.
    pub high_water: u64,
}

/// One slot of the slab.
#[derive(Debug)]
struct Row {
    /// The hot half. Stale while the slot is vacant; `insert`
    /// overwrites it.
    hot: HotFlow,
    /// The cold half; `None` marks a vacant (or leaked) slot.
    cold: Option<Box<ColdConn>>,
    /// Slot birth count: bumped on every removal, so stale events and
    /// tests can detect id reuse.
    generation: u32,
}

/// Row-per-flow slab of sender state, keyed by dense flow id.
#[derive(Debug, Default)]
pub(crate) struct FlowSlab {
    rows: Vec<Row>,
    /// Vacant slot ids available for reuse.
    freelist: Vec<usize>,

    allocated: u64,
    freed: u64,
    high_water: u64,
    /// Fault injection: leak the next removed slot (drop the cold half
    /// but never return the id to the freelist).
    leak_next_remove: bool,
}

impl FlowSlab {
    /// Creates an empty slab with room for `n` flows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        FlowSlab {
            rows: Vec::with_capacity(n),
            ..FlowSlab::default()
        }
    }

    /// Live flows.
    pub(crate) fn len(&self) -> usize {
        (self.allocated - self.freed) as usize
    }

    /// Whether `id` names a live flow.
    pub(crate) fn contains(&self, id: usize) -> bool {
        self.rows.get(id).is_some_and(|r| r.cold.is_some())
    }

    /// Whether `id` names a live flow born at `generation`, i.e. the
    /// occupant an event recorded when it was scheduled.
    pub(crate) fn is_current(&self, id: usize, generation: u32) -> bool {
        self.rows
            .get(id)
            .is_some_and(|r| r.cold.is_some() && r.generation == generation)
    }

    /// The slot's birth count: 0 for a first occupant, +1 per removal.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never allocated.
    pub(crate) fn generation(&self, id: usize) -> u32 {
        self.rows[id].generation
    }

    /// Lifecycle accounting so far.
    pub(crate) fn audit(&self) -> SlabAudit {
        SlabAudit {
            allocated: self.allocated,
            freed: self.freed,
            live: self.allocated - self.freed,
            high_water: self.high_water,
        }
    }

    /// Inserts a connection's split state; returns its dense flow id.
    /// Vacated ids are reused before the slab grows.
    pub(crate) fn insert(&mut self, hot: HotFlow, cold: Box<ColdConn>) -> usize {
        self.allocated += 1;
        self.high_water = self.high_water.max(self.allocated - self.freed);
        if let Some(id) = self.freelist.pop() {
            let row = &mut self.rows[id];
            row.hot = hot;
            row.cold = Some(cold);
            id
        } else {
            let id = self.rows.len();
            self.rows.push(Row {
                hot,
                cold: Some(cold),
                generation: 0,
            });
            id
        }
    }

    /// Removes a live flow, returning its cold half. The caller must
    /// have cancelled the flow's timers first (`ConnCore::cancel_timers`)
    /// so a recycled id cannot receive stale fires.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub(crate) fn remove(&mut self, id: usize) -> Box<ColdConn> {
        let row = &mut self.rows[id];
        let cold = row.cold.take().expect("removed a vacant flow slot"); // trim-lint: allow(no-panic-in-library, reason = "double-free of a flow id is a host bug, not a recoverable state")
        row.generation += 1;
        self.freed += 1;
        if self.leak_next_remove {
            // Fault: forget the slot instead of freeing it. leak_check()
            // must notice the id is neither live nor on the freelist.
            self.leak_next_remove = false;
        } else {
            self.freelist.push(id);
        }
        cold
    }

    /// Fault injection: the next [`Self::remove`] drops the cold half
    /// but never returns the id to the freelist, simulating a lifecycle
    /// bug. Exists to prove [`Self::leak_check`] catches it.
    pub(crate) fn inject_slot_leak(&mut self) {
        self.leak_next_remove = true;
    }

    /// Verifies the lifecycle books balance: occupied slots match
    /// `allocated - freed`, and every slot is either live or on the
    /// freelist (exactly once).
    pub(crate) fn leak_check(&self) -> Result<(), String> {
        let occupied = self.rows.iter().filter(|r| r.cold.is_some()).count() as u64;
        let live = self.allocated - self.freed;
        if occupied != live {
            return Err(format!(
                "slab books disagree: {occupied} occupied slots vs {} allocated - {} freed",
                self.allocated, self.freed
            ));
        }
        let mut seen = vec![false; self.rows.len()];
        for &id in &self.freelist {
            if self.rows[id].cold.is_some() {
                return Err(format!("freelist holds live flow id {id}"));
            }
            if seen[id] {
                return Err(format!("freelist holds flow id {id} twice"));
            }
            seen[id] = true;
        }
        let reachable = occupied as usize + self.freelist.len();
        if reachable != self.rows.len() {
            return Err(format!(
                "{} slab slot(s) leaked: {} total, {occupied} live, {} free",
                self.rows.len() - reachable,
                self.rows.len(),
                self.freelist.len()
            ));
        }
        Ok(())
    }

    /// Read-only view of live flow `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub(crate) fn get(&self, id: usize) -> ConnRef<'_> {
        let row = &self.rows[id];
        ConnRef {
            hot: &row.hot,
            cold: row.cold.as_deref().expect("vacant flow slot"), // trim-lint: allow(no-panic-in-library, reason = "reading a freed flow id is a host bug")
        }
    }

    /// Mutable state-machine view of live flow `id`, borrowing both
    /// halves of its row in place; timer tokens embed `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub(crate) fn get_mut(&mut self, id: usize) -> ConnCore<'_> {
        let row = &mut self.rows[id];
        ConnCore {
            hot: &mut row.hot,
            cold: row.cold.as_deref_mut().expect("vacant flow slot"), // trim-lint: allow(no-panic-in-library, reason = "reading a freed flow id is a host bug")
            id,
        }
    }

    /// Views of live flows, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ConnRef<'_>> {
        self.rows
            .iter()
            .filter_map(|r| r.cold.as_deref().map(|cold| ConnRef { hot: &r.hot, cold }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcKind;
    use crate::config::TcpConfig;
    use crate::conn::new_conn;
    use crate::segment::Segment;
    use netsim::prelude::FlowId;
    use netsim::sim::Simulator;
    use netsim::time::Dur;

    /// Any valid `NodeId` works as a destination; borrow one from a
    /// throwaway simulator.
    fn dst() -> netsim::packet::NodeId {
        let mut sim: Simulator<Segment> = Simulator::new();
        sim.add_switch()
    }

    fn entry(flow: u64, cfg: TcpConfig) -> (HotFlow, Box<ColdConn>) {
        new_conn(FlowId(flow), dst(), cfg, CcKind::Reno.build())
    }

    fn filled(n: u64) -> FlowSlab {
        let mut s = FlowSlab::default();
        for f in 0..n {
            let (hot, cold) = entry(f, TcpConfig::default());
            s.insert(hot, cold);
        }
        s
    }

    #[test]
    fn row_stays_within_budget() {
        // Grows with any new field in `HotFlow` (the per-event working
        // set) or in `Row`. Keep rarely-read state in the cold box.
        let row = std::mem::size_of::<Row>();
        assert!(row <= 168, "{row}");
    }

    #[test]
    fn insert_assigns_dense_ids_and_counts() {
        let mut s = FlowSlab::with_capacity(4);
        for f in 0..3u64 {
            let (hot, cold) = entry(f, TcpConfig::default());
            assert_eq!(s.insert(hot, cold), f as usize);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.rows.len(), 3);
        assert!(s.contains(2) && !s.contains(3));
        assert_eq!(s.get(1).flow(), FlowId(1));
        assert_eq!(
            s.audit(),
            SlabAudit {
                allocated: 3,
                freed: 0,
                live: 3,
                high_water: 3,
            }
        );
        let flows: Vec<u64> = s.iter().map(|c| c.flow().0).collect();
        assert_eq!(flows, vec![0, 1, 2]);
        s.leak_check().unwrap();
    }

    #[test]
    fn removed_id_is_reused_with_bumped_generation() {
        let mut s = filled(2);
        // Dirty the first occupant's hot record, so a reused slot that
        // kept it would show.
        {
            let core = s.get_mut(0);
            core.hot.win.cwnd = 37.25;
            core.hot.next_seq = 99;
            core.hot.high_ack = 42;
            core.hot.backoff = 64;
            core.hot.in_recovery = true;
            core.hot.rto_est.observe(Dur::from_millis(10));
        }
        assert_eq!(s.generation(0), 0);
        assert!(s.is_current(0, 0));
        let cold = s.remove(0);
        assert_eq!(cold.flow, FlowId(0));
        assert!(!s.contains(0));
        assert!(!s.is_current(0, 0) && !s.is_current(0, 1));
        assert_eq!(s.generation(0), 1);
        s.leak_check().unwrap();

        // The vacated id is reused before the slab grows, and the new
        // occupant's timer tokens carry it.
        let cfg = TcpConfig::default();
        let (hot, cold) = entry(9, cfg);
        assert_eq!(s.insert(hot, cold), 0);
        assert_eq!(s.get(0).flow(), FlowId(9));
        assert_eq!(s.get_mut(0).id, 0);
        assert!(s.is_current(0, 1) && !s.is_current(0, 0));
        assert_eq!(s.rows.len(), 2, "reuse must not grow the slab");
        assert_eq!(
            s.audit(),
            SlabAudit {
                allocated: 3,
                freed: 1,
                live: 2,
                high_water: 2,
            }
        );
        s.leak_check().unwrap();

        // The reused row holds the new flow's fresh state, not the old
        // occupant's.
        let fresh = s.get(0);
        assert_eq!(fresh.cwnd().to_bits(), cfg.init_cwnd.to_bits());
        assert_eq!(fresh.hot.next_seq, 0);
        assert_eq!(fresh.hot.high_ack, 0);
        assert_eq!(fresh.hot.backoff, 1);
        assert!(!fresh.hot.in_recovery);
        assert_eq!(fresh.hot.rto_timer, None);
        assert_eq!(fresh.srtt(), None);
        assert_eq!(fresh.flight(), 0);
    }

    #[test]
    fn injected_slot_leak_is_caught() {
        let mut s = filled(3);
        s.inject_slot_leak();
        let _ = s.remove(1);
        // The books still count the free, but the id is gone: neither
        // live nor on the freelist.
        assert_eq!(s.audit().freed, 1);
        let err = s.leak_check().unwrap_err();
        assert!(err.contains("leaked"), "unexpected message: {err}");

        // The leaked id must never be handed out again: the next insert
        // grows the slab instead.
        let (hot, cold) = entry(9, TcpConfig::default());
        assert_eq!(s.insert(hot, cold), 3);
        // The fault is one-shot: a later remove frees normally.
        let _ = s.remove(2);
        let (hot, cold) = entry(10, TcpConfig::default());
        assert_eq!(s.insert(hot, cold), 2);
    }

    #[test]
    fn leak_check_flags_corrupt_freelists() {
        // White-box: corrupt the freelist directly to prove the checks
        // are live (a live id on the freelist, then a duplicate entry).
        let mut s = filled(2);
        s.freelist.push(1);
        let err = s.leak_check().unwrap_err();
        assert!(err.contains("live flow id 1"), "unexpected message: {err}");

        let mut s = filled(2);
        let _ = s.remove(0);
        s.freelist.push(0);
        let err = s.leak_check().unwrap_err();
        assert!(err.contains("twice"), "unexpected message: {err}");
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn double_remove_panics() {
        let mut s = filled(1);
        let _ = s.remove(0);
        let _ = s.remove(0);
    }
}
