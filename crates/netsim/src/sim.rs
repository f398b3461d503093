//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns the network (nodes, channels, routes), the event
//! queue, and the host agents. Build a network with [`Simulator::add_host`],
//! [`Simulator::add_switch`] and [`Simulator::connect`], then drive it with
//! [`Simulator::run_until`] or [`Simulator::run`].
//!
//! Determinism: events are ordered by `(time, insertion sequence)`, so two
//! runs of the same program produce identical schedules.
//!
//! Hot-path layout (the engine sustains 100k-flow incasts):
//!
//! - events live in an indexed 4-ary min-heap ([`crate::eventq`]) of small
//!   `Copy` records — packets are *not* stored in the heap;
//! - in-flight packets live in a slab [`crate::arena::PacketArena`] and
//!   events carry a 4-byte [`PacketRef`], so steady-state simulation
//!   allocates zero per-packet heap memory;
//! - routing is O(1) per hop for direct-neighbor destinations (every hop
//!   of the paper's incast topologies) and O(switch-degree) otherwise,
//!   with per-switch distance tables instead of the former
//!   O(nodes²) next-hop matrix;
//! - monitor emission is a single branch on a cached flag when detached
//!   ([`Ctx::emit_monitor_with`] defers event construction entirely).

use std::any::Any;
use std::collections::VecDeque;

use crate::agent::Agent;
use crate::arena::{PacketArena, PacketRef};
use crate::channel::Channel;
use crate::eventq::EventQueue;
use crate::hash::FastHashMap;
use crate::monitor::{AuditStats, InvariantMonitor, MonitorEvent, Violation};
use crate::packet::{ChannelId, FlowId, NodeId, Packet, Payload};
use crate::queue::{QueueConfig, QueueStats};
use crate::time::{Dur, SimTime};
use crate::units::{Bandwidth, QueueCapacity};
use crate::wheel::TimerWheel;

/// Handle to a pending timer, used for cancellation. Wraps the timing
/// wheel's generational handle, so a stale id (already fired or already
/// cancelled) is always a harmless no-op even after its internal slot
/// has been recycled for a newer timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// An engine event. Deliberately small and `Copy`: packets referenced by
/// `Arrival` live in the packet arena, not in the event queue, so heap
/// sifts move 24-byte records regardless of the payload type. Timers do
/// not appear here — they live in the [`TimerWheel`] and merge with this
/// queue by `(time, seq)` in the run loop.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Packet finishes propagation and arrives at a node.
    Arrival { node: NodeId, pkt: PacketRef },
    /// A channel's transmitter finishes serializing a packet.
    TxDone { ch: ChannelId },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeKind {
    Host,
    Switch,
}

/// Precomputed forwarding state.
///
/// The former implementation materialized `routes[node][dst]` — an
/// O(nodes²) matrix that is prohibitive at 100k hosts. Instead we keep:
///
/// - `dist[switch_row][node]`: hop distance from each *switch* to every
///   node (switches × nodes, and real topologies have few switches);
/// - `neighbor_edges[node]`: direct neighbor → parallel edges to it, in
///   adjacency order. A one-hop route is always strictly shorter than any
///   route via a switch, so when the destination is a direct neighbor the
///   equal-cost set is exactly these edges — one hash lookup. This covers
///   every hop of a star/incast topology.
/// - `switch_neighbors[node]`: the node's switch neighbors in adjacency
///   order, scanned (typically a handful) for remote destinations.
///
/// Paths never transit a host: hosts terminate packets. (The old BFS
/// nominally permitted host transit, but hosts are degree-1 leaves in
/// every topology this crate builds, so no such path was ever a shortest
/// path.) Equal-cost sets come out in adjacency order either way, so
/// per-flow ECMP selection is unchanged and simulations reproduce the
/// previous engine's schedules exactly.
#[derive(Debug, Default)]
struct RouteTable {
    /// Node index → dense switch row; `u32::MAX` for hosts.
    switch_row: Vec<u32>,
    /// Per switch row: hop distance to every node (`u32::MAX` if
    /// unreachable).
    dist: Vec<Vec<u32>>,
    /// Per node: direct neighbor → every parallel edge to it, in
    /// adjacency order.
    neighbor_edges: Vec<FastHashMap<u32, Vec<ChannelId>>>,
    /// Per node: switch neighbors `(node index, edge)` in adjacency order.
    switch_neighbors: Vec<Vec<(u32, ChannelId)>>,
}

/// Everything the engine owns except the agents. Splitting this out lets an
/// agent hold `&mut self` while the engine hands it a [`Ctx`] borrowing the
/// rest of the simulator.
struct Core<P: Payload> {
    now: SimTime,
    events: EventQueue<Ev>,
    /// Timer events, keyed by `(deadline, seq)` like the event queue.
    /// Timers dominate the event population at high flow counts and are
    /// overwhelmingly cancelled before firing (every ACK re-arms the
    /// RTO), which is exactly the workload a wheel handles in O(1).
    wheel: TimerWheel<(NodeId, u64)>,
    /// Global insertion sequence shared by `events` and `wheel`; makes
    /// `(time, seq)` a total order across both structures, so the merged
    /// stream is identical to what a single queue would produce.
    seq: u64,
    /// Deadlines of cancelled-while-live timers not yet counted. The
    /// previous engine left cancelled timers in the queue as tombstones
    /// that still popped (advancing the clock and `events_processed`);
    /// the wheel removes them in place. Counting the tombstones that
    /// would have popped keeps `events_processed` — which committed
    /// campaign artifacts record — bit-identical across the engine swap.
    /// Only cancels the current run cannot cover land here: deadlines
    /// past `run_horizon`, or cancels made outside a run.
    ghost_deadlines: Vec<SimTime>,
    /// Horizon of the `run_until` in progress, `None` between runs. A
    /// live cancel at or before it is a tombstone this run would have
    /// popped, so it is counted at once instead of buffered.
    run_horizon: Option<SimTime>,
    arena: PacketArena<P>,
    kinds: Vec<NodeKind>,
    channels: Vec<Channel<P>>,
    /// Outgoing edges per node, for route computation.
    adjacency: Vec<Vec<(NodeId, ChannelId)>>,
    routes: RouteTable,
    routes_built: bool,
    delivered_pkts: u64,
    delivered_bytes: u64,
    injected_pkts: u64,
    dropped_pkts: u64,
    /// Scheduled-but-not-yet-popped `Arrival` events; kept as a counter so
    /// audits are O(1) instead of scanning the event heap.
    pending_arrivals: u64,
    /// Events dispatched since the start of the simulation (the basis of
    /// events/sec throughput metrics).
    events_processed: u64,
    next_uid: u64,
    /// Cached `!monitors.is_empty()`; the one branch every emission site
    /// pays when monitoring is detached.
    monitors_on: bool,
    monitors: Vec<Box<dyn InvariantMonitor>>,
}

impl<P: Payload> Core<P> {
    /// Hands an event to every attached monitor. The cached flag check
    /// is the "cheap enable flag": with no monitors attached this is a
    /// single branch.
    fn emit(&mut self, ev: MonitorEvent) {
        if !self.monitors_on {
            return;
        }
        let at = self.now;
        for m in &mut self.monitors {
            m.observe(at, &ev);
        }
    }

    /// The engine's own packet accounting: injected/delivered/dropped
    /// counters plus the current in-flight population (queued packets and
    /// pending `Arrival` events, i.e. packets on the wire).
    fn audit(&self) -> AuditStats {
        AuditStats {
            injected: self.injected_pkts,
            delivered: self.delivered_pkts,
            dropped: self.dropped_pkts,
            queued_pkts: self.channels.iter().map(|c| c.queue.len() as u64).sum(),
            pending_arrivals: self.pending_arrivals,
            arena_live: self.arena.live() as u64,
        }
    }

    #[inline]
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        self.events.push_with_seq(at, self.seq, ev);
    }

    /// Takes a packet off a queue's head and puts it on the wire:
    /// transmitter busy for the serialization time, arrival at the far end
    /// after serialization + propagation. The packet parks in the arena
    /// until its `Arrival` pops.
    #[inline]
    fn transmit(&mut self, ch: ChannelId, now: SimTime, pkt: Packet<P>) {
        let c = &self.channels[ch.index()];
        let ser = c.bandwidth.serialization_time(pkt.size);
        let delay = c.delay;
        let to = c.to;
        let (flow, uid) = (pkt.flow, pkt.uid);
        let pkt = self.arena.alloc(pkt);
        self.pending_arrivals += 1;
        self.schedule(now + ser, Ev::TxDone { ch });
        self.schedule(now + ser + delay, Ev::Arrival { node: to, pkt });
        if self.monitors_on {
            let len_after = self.channels[ch.index()].queue.len();
            self.emit(MonitorEvent::Dequeued {
                channel: ch,
                flow,
                uid,
                len_after,
            });
        }
    }

    fn set_timer(&mut self, node: NodeId, delay: Dur, token: u64) -> TimerId {
        self.seq += 1;
        TimerId(
            self.wheel
                .schedule(self.now + delay, self.seq, (node, token)),
        )
    }

    fn cancel_timer(&mut self, id: TimerId) {
        // A live cancel leaves the tombstone the old engine would have
        // popped; a stale cancel (fired or already cancelled) was a
        // no-op there too — the tombstone id could never pop twice.
        // Nothing reads `events_processed` mid-run, so counting an
        // in-horizon tombstone now rather than at its deadline is exact.
        if let Some(at) = self.wheel.cancel(id.0) {
            match self.run_horizon {
                Some(horizon) if at <= horizon => self.events_processed += 1,
                _ => self.ghost_deadlines.push(at),
            }
        }
    }

    /// The per-event bookkeeping the run loop performs before handling
    /// any event, in the exact order the engine has always done it:
    /// clock emission (observed at the *previous* instant), clock
    /// advance, event count.
    #[inline]
    fn step_clock(&mut self, at: SimTime) {
        if self.monitors_on {
            self.emit(MonitorEvent::Clock { to: at });
        }
        self.now = at;
        self.events_processed += 1;
    }

    /// Stamps a packet a host hands to the network (send time, unique
    /// id), counts it, emits `Injected` and forwards it out of `node`.
    fn inject(&mut self, node: NodeId, mut pkt: Packet<P>) {
        pkt.sent_at = self.now;
        self.next_uid += 1;
        pkt.uid = self.next_uid;
        self.injected_pkts += 1;
        if self.monitors_on {
            self.emit(MonitorEvent::Injected {
                node,
                src: pkt.src,
                dst: pkt.dst,
                flow: pkt.flow,
                uid: pkt.uid,
                size: pkt.size,
            });
        }
        self.forward(node, pkt);
    }

    /// Delivery bookkeeping for a packet that terminated at host `node`:
    /// engine counters and the `Delivered` monitor event.
    fn note_delivery(&mut self, node: NodeId, pkt: &Packet<P>) {
        self.delivered_pkts += 1;
        self.delivered_bytes += pkt.size as u64;
        if self.monitors_on {
            self.emit(MonitorEvent::Delivered {
                node,
                src: pkt.src,
                dst: pkt.dst,
                flow: pkt.flow,
                uid: pkt.uid,
                size: pkt.size,
            });
        }
    }

    /// Accounts for an enqueue that dropped the packet (capacity, RED, or
    /// injected fault). Returns `true` when the packet was dropped.
    #[allow(clippy::too_many_arguments)]
    fn note_enqueue_drop(
        &mut self,
        ch: ChannelId,
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
        size: u32,
        uid: u64,
        outcome: crate::queue::EnqueueOutcome,
    ) -> bool {
        let early_avg = match outcome {
            crate::queue::EnqueueOutcome::Accepted => return false,
            crate::queue::EnqueueOutcome::Dropped => None,
            crate::queue::EnqueueOutcome::EarlyDropped { avg_queue } => Some(avg_queue),
        };
        self.dropped_pkts += 1;
        if !self.monitors_on {
            return true;
        }
        self.emit(MonitorEvent::Dropped {
            channel: ch,
            src,
            dst,
            flow,
            uid,
            size,
        });
        if let Some(avg_queue) = early_avg {
            self.emit(MonitorEvent::AqmEarlyDrop {
                channel: ch,
                flow,
                uid,
                size,
                avg_queue,
            });
        }
        true
    }

    /// Accounts for packets a CoDel queue dropped during a dequeue:
    /// engine drop counter and the `Dropped` + `SojournDrop` monitor
    /// events, in queue order.
    fn drain_sojourn_drops(&mut self, ch: ChannelId) {
        if !self.channels[ch.index()].queue.has_sojourn_drops() {
            return;
        }
        let drops = self.channels[ch.index()].queue.take_sojourn_drops();
        self.dropped_pkts += drops.len() as u64;
        if !self.monitors_on {
            return;
        }
        for d in drops {
            let (src, dst, flow, size, uid) =
                (d.pkt.src, d.pkt.dst, d.pkt.flow, d.pkt.size, d.pkt.uid);
            self.emit(MonitorEvent::Dropped {
                channel: ch,
                src,
                dst,
                flow,
                uid,
                size,
            });
            self.emit(MonitorEvent::SojournDrop {
                channel: ch,
                flow,
                uid,
                size,
                sojourn_ns: d.sojourn.as_nanos(),
            });
        }
    }

    /// Hands a packet to a channel: straight to the transmitter when idle,
    /// into the queue otherwise (dropped when full).
    fn channel_send(&mut self, ch: ChannelId, now: SimTime, pkt: Packet<P>) {
        let (src, dst, flow, size, uid) = (pkt.src, pkt.dst, pkt.flow, pkt.size, pkt.uid);
        let c = &mut self.channels[ch.index()];
        let busy = c.busy;
        // An idle channel still passes the packet through its queue, so
        // the queue stats count every packet offered to the channel. The
        // enqueue can still fail (zero capacity, injected fault).
        let outcome = c.queue.enqueue(now, pkt);
        if self.note_enqueue_drop(ch, src, dst, flow, size, uid, outcome) {
            return;
        }
        if self.monitors_on {
            let q = &self.channels[ch.index()].queue;
            let cap_pkts = match q.config().capacity {
                QueueCapacity::Packets(n) => Some(n),
                QueueCapacity::Bytes(_) => None,
            };
            let len_after = q.len();
            self.emit(MonitorEvent::Enqueued {
                channel: ch,
                flow,
                uid,
                len_after,
                cap_pkts,
            });
        }
        if busy {
            return;
        }
        let c = &mut self.channels[ch.index()];
        c.busy = true;
        // CoDel never drops the last remaining packet, so the dequeue
        // directly after a successful enqueue always yields one.
        let head = c.queue.dequeue(now).expect("just enqueued"); // trim-lint: allow(no-panic-in-library, reason = "dequeue directly follows the enqueue in this call")
        self.transmit(ch, now, head);
    }

    fn on_tx_done(&mut self, ch: ChannelId) {
        let now = self.now;
        let c = &mut self.channels[ch.index()];
        let head = c.queue.dequeue(now);
        // CoDel may have dropped queued packets during that dequeue;
        // account for them before the survivor's `Dequeued` event.
        self.drain_sojourn_drops(ch);
        match head {
            Some(pkt) => self.transmit(ch, now, pkt),
            None => self.channels[ch.index()].busy = false,
        }
    }

    /// Routes a packet out of `node` toward `pkt.dst`.
    ///
    /// # Panics
    ///
    /// Panics if the destination is unreachable from `node`.
    fn forward(&mut self, node: NodeId, pkt: Packet<P>) {
        let ch = self.route_out(node, pkt.dst, pkt.flow);
        self.channel_send(ch, self.now, pkt);
    }

    /// Picks the outgoing channel for `(node → dst)`, applying
    /// deterministic per-flow ECMP over the equal-cost set.
    fn route_out(&self, node: NodeId, dst: NodeId, flow: FlowId) -> ChannelId {
        if self.kinds[dst.index()] != NodeKind::Host {
            panic!("no route from {node} to {dst}"); // trim-lint: allow(no-panic-in-library, reason = "documented panic: routing to a switch is a topology construction bug")
        }
        let r = &self.routes;
        let u = node.index();
        // Direct-neighbor fast path: a one-hop route is strictly shorter
        // than anything via a switch, so the equal-cost set is exactly
        // the parallel edges to dst.
        if let Some(set) = r.neighbor_edges[u].get(&dst.index_u32()) {
            return match set.len() {
                1 => set[0],
                n => set[(ecmp_hash(flow) % n as u64) as usize],
            };
        }
        // Remote destination: equal-cost next hops are the switch
        // neighbors whose distance to dst is minimal. (A host neighbor
        // can only be on a shortest path as the destination itself,
        // which the fast path already handled.)
        let sn = &r.switch_neighbors[u];
        let mut best = u32::MAX;
        let mut count = 0u64;
        for &(v, _) in sn {
            let d = r.dist[r.switch_row[v as usize] as usize][dst.index()];
            if d < best {
                best = d;
                count = 1;
            } else if d == best {
                count += 1;
            }
        }
        if best == u32::MAX {
            panic!("no route from {node} to {dst}"); // trim-lint: allow(no-panic-in-library, reason = "documented panic: a disconnected topology is a construction bug")
        }
        let choice = if count == 1 {
            0
        } else {
            ecmp_hash(flow) % count
        };
        let mut seen = 0u64;
        for &(v, ch) in sn {
            if r.dist[r.switch_row[v as usize] as usize][dst.index()] == best {
                if seen == choice {
                    return ch;
                }
                seen += 1;
            }
        }
        unreachable!("equal-cost set smaller than counted")
    }

    fn build_routes(&mut self) {
        let n = self.kinds.len();
        let mut switch_row = vec![u32::MAX; n];
        let mut rows = 0u32;
        for (i, k) in self.kinds.iter().enumerate() {
            if *k == NodeKind::Switch {
                switch_row[i] = rows;
                rows += 1;
            }
        }
        // BFS from every switch over the topology, never expanding a
        // host: hosts are reachable endpoints but cannot be transited.
        let mut dist = Vec::with_capacity(rows as usize);
        let mut queue = VecDeque::new();
        for s in 0..n {
            if switch_row[s] == u32::MAX {
                continue;
            }
            let mut d = vec![u32::MAX; n];
            d[s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(x) = queue.pop_front() {
                if self.kinds[x] == NodeKind::Host {
                    continue;
                }
                for &(v, _) in &self.adjacency[x] {
                    let vi = v.index();
                    if d[vi] == u32::MAX {
                        d[vi] = d[x] + 1;
                        queue.push_back(vi);
                    }
                }
            }
            dist.push(d);
        }
        let mut neighbor_edges = Vec::with_capacity(n);
        let mut switch_neighbors = Vec::with_capacity(n);
        for u in 0..n {
            let mut ne: FastHashMap<u32, Vec<ChannelId>> = FastHashMap::default();
            let mut sn = Vec::new();
            for &(v, ch) in &self.adjacency[u] {
                ne.entry(v.index_u32()).or_default().push(ch);
                if self.kinds[v.index()] == NodeKind::Switch {
                    sn.push((v.index_u32(), ch));
                }
            }
            neighbor_edges.push(ne);
            switch_neighbors.push(sn);
        }
        self.routes = RouteTable {
            switch_row,
            dist,
            neighbor_edges,
            switch_neighbors,
        };
        self.routes_built = true;
    }
}

/// Deterministic per-flow ECMP hash: splitmix64 of the flow label.
#[inline]
fn ecmp_hash(flow: FlowId) -> u64 {
    splitmix64(flow.0 ^ 0x9e37_79b9_7f4a_7c15)
}

fn splitmix64(x: u64) -> u64 {
    crate::hash::mix64(x)
}

impl NodeId {
    #[inline]
    fn index_u32(self) -> u32 {
        self.0
    }
}

/// The agent's view of the simulator during a callback: clock, packet
/// output, and timers.
pub struct Ctx<'a, P: Payload> {
    core: &'a mut Core<P>,
    node: NodeId,
}

impl<P: Payload> std::fmt::Debug for Ctx<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("now", &self.core.now)
            .finish_non_exhaustive()
    }
}

impl<P: Payload> Ctx<'_, P> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The node this agent is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends a packet out of this host's uplink. Stamps `pkt.sent_at`
    /// and assigns the packet's engine-unique id.
    ///
    /// # Panics
    ///
    /// Panics if the destination is unreachable.
    pub fn send(&mut self, pkt: Packet<P>) {
        self.core.inject(self.node, pkt);
    }

    /// Reports a protocol-level event (window update, probe transition)
    /// to any attached invariant monitors. A no-op — one branch — when
    /// no monitor is attached; see [`Ctx::monitoring`]. Prefer
    /// [`Ctx::emit_monitor_with`] when building the event costs anything.
    pub fn emit_monitor(&mut self, ev: MonitorEvent) {
        self.core.emit(ev);
    }

    /// Reports a protocol-level event, constructing it only when a
    /// monitor is attached. When monitoring is detached this is exactly
    /// one branch: the closure is never called, so its captures are
    /// never read and its event is never built.
    #[inline]
    pub fn emit_monitor_with(&mut self, f: impl FnOnce() -> MonitorEvent) {
        if self.core.monitors_on {
            let ev = f();
            self.core.emit(ev);
        }
    }

    /// Whether any invariant monitor is attached. Protocol code can use
    /// this to skip building expensive event payloads.
    pub fn monitoring(&self) -> bool {
        self.core.monitors_on
    }

    /// Schedules `on_timer(token)` after `delay`. Returns a handle for
    /// [`Ctx::cancel_timer`].
    pub fn set_timer(&mut self, delay: Dur, token: u64) -> TimerId {
        self.core.set_timer(self.node, delay, token)
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// harmless no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancel_timer(id);
    }
}

/// A packet-level discrete-event network simulator.
///
/// ```
/// use netsim::prelude::*;
///
/// // Two hosts joined by a switch; the sink counts what arrives.
/// let mut sim: Simulator<TagPayload> = Simulator::new();
/// let a = sim.add_host(Box::new(SinkAgent::default()));
/// let b = sim.add_host(Box::new(SinkAgent::default()));
/// let sw = sim.add_switch();
/// sim.connect(a, sw, Bandwidth::gbps(1), Dur::from_micros(50), QueueConfig::default());
/// sim.connect(b, sw, Bandwidth::gbps(1), Dur::from_micros(50), QueueConfig::default());
/// sim.inject(a, Packet::new(a, b, FlowId(1), 1460, TagPayload(0)));
/// sim.run();
/// let sink: &SinkAgent = sim.host(b);
/// assert_eq!(sink.received, 1);
/// ```
pub struct Simulator<P: Payload> {
    core: Core<P>,
    agents: Vec<Option<Box<dyn Agent<P>>>>,
    started: bool,
}

impl<P: Payload> std::fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.core.now)
            .field("nodes", &self.core.kinds.len())
            .field("channels", &self.core.channels.len())
            .field("pending_events", &self.core.events.len())
            .finish_non_exhaustive()
    }
}

impl<P: Payload> Default for Simulator<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Payload> Simulator<P> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Simulator {
            core: Core {
                now: SimTime::ZERO,
                events: EventQueue::new(),
                wheel: TimerWheel::new(),
                seq: 0,
                ghost_deadlines: Vec::new(),
                run_horizon: None,
                arena: PacketArena::new(),
                kinds: Vec::new(),
                channels: Vec::new(),
                adjacency: Vec::new(),
                routes: RouteTable::default(),
                routes_built: false,
                delivered_pkts: 0,
                delivered_bytes: 0,
                injected_pkts: 0,
                dropped_pkts: 0,
                pending_arrivals: 0,
                events_processed: 0,
                next_uid: 0,
                monitors_on: false,
                monitors: Vec::new(),
            },
            agents: Vec::new(),
            started: false,
        }
    }

    /// Adds a host running `agent`. Hosts terminate packets; they are the
    /// only valid packet sources and destinations.
    pub fn add_host(&mut self, agent: Box<dyn Agent<P>>) -> NodeId {
        let id = NodeId(self.core.kinds.len() as u32);
        self.core.kinds.push(NodeKind::Host);
        self.core.adjacency.push(Vec::new());
        self.agents.push(Some(agent));
        id
    }

    /// Adds a store-and-forward switch. Forwarding uses shortest paths with
    /// deterministic per-flow ECMP over equal-cost next hops.
    pub fn add_switch(&mut self) -> NodeId {
        let id = NodeId(self.core.kinds.len() as u32);
        self.core.kinds.push(NodeKind::Switch);
        self.core.adjacency.push(Vec::new());
        self.agents.push(None);
        id
    }

    /// Connects `a` and `b` with a duplex link: two channels sharing the
    /// same rate, delay, and queue configuration. Returns `(a->b, b->a)`.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: Bandwidth,
        delay: Dur,
        queue: QueueConfig,
    ) -> (ChannelId, ChannelId) {
        assert!(!self.started, "cannot modify topology after start");
        let ab = ChannelId(self.core.channels.len() as u32);
        self.core
            .channels
            .push(Channel::new(b, bandwidth, delay, queue));
        self.core.adjacency[a.index()].push((b, ab));
        let ba = ChannelId(self.core.channels.len() as u32);
        self.core
            .channels
            .push(Channel::new(a, bandwidth, delay, queue));
        self.core.adjacency[b.index()].push((a, ba));
        self.core.routes_built = false;
        (ab, ba)
    }

    /// Injects a packet from `src`'s network layer at the current time, as
    /// if its agent had sent it. Useful for tests and simple examples.
    pub fn inject(&mut self, src: NodeId, pkt: Packet<P>) {
        self.ensure_ready();
        self.core.inject(src, pkt);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total packets delivered to host agents so far.
    pub fn delivered_packets(&self) -> u64 {
        self.core.delivered_pkts
    }

    /// Total bytes delivered to host agents so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.core.delivered_bytes
    }

    /// Events dispatched since the start of the simulation. Divided by
    /// wall time this is the engine's events/sec throughput, the metric
    /// the perf-regression layer tracks.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Packets currently resident in the packet arena (on the wire or in
    /// a transmitter). Equals `pending_arrivals` at all times and zero
    /// after a drained run; see [`crate::arena::PacketArena`].
    pub fn arena_live(&self) -> usize {
        self.core.arena.live()
    }

    /// Peak concurrent arena population over the run, i.e. the maximum
    /// number of packets simultaneously on the wire.
    pub fn arena_high_water(&self) -> usize {
        self.core.arena.high_water()
    }

    /// Statistics of a channel's queue, with the occupancy integral settled
    /// up to the current time.
    pub fn queue_stats(&mut self, ch: ChannelId) -> QueueStats {
        let now = self.core.now;
        let q = &mut self.core.channels[ch.index()].queue;
        q.settle(now);
        q.stats()
    }

    /// Fault injection: deterministically drop the packets whose 0-based
    /// arrival index at channel `ch` is in `indices`. See
    /// [`crate::queue::DropTailQueue::inject_drops`].
    pub fn inject_channel_drops(&mut self, ch: ChannelId, indices: impl IntoIterator<Item = u64>) {
        self.core.channels[ch.index()].queue.inject_drops(indices);
    }

    /// Fault injection: lets channel `ch`'s queue admit up to `extra`
    /// packets beyond its configured capacity. Exists so the invariant
    /// monitors' queue-bound check can be proven to catch a real
    /// over-admission; see
    /// [`crate::queue::DropTailQueue::inject_overadmit`].
    pub fn inject_queue_overadmit(&mut self, ch: ChannelId, extra: u64) {
        self.core.channels[ch.index()].queue.inject_overadmit(extra);
    }

    /// Attaches a runtime invariant monitor. Monitors observe the event
    /// stream without influencing it, so attaching any number of them
    /// cannot change simulation results.
    pub fn attach_monitor(&mut self, monitor: Box<dyn InvariantMonitor>) {
        self.core.monitors.push(monitor);
        self.core.monitors_on = true;
    }

    /// The first attached monitor of concrete type `T`, if any: how a
    /// recording observer such as [`crate::trace::PacketTrace`] is read
    /// back.
    pub fn monitor<T: InvariantMonitor>(&self) -> Option<&T> {
        self.core
            .monitors
            .iter()
            .find_map(|m| (m.as_ref() as &dyn Any).downcast_ref::<T>())
    }

    /// Whether any invariant monitor is attached.
    pub fn monitors_enabled(&self) -> bool {
        self.core.monitors_on
    }

    /// All violations recorded so far, across every attached monitor.
    pub fn violations(&self) -> Vec<&Violation> {
        self.core
            .monitors
            .iter()
            .flat_map(|m| m.violations().iter())
            .collect()
    }

    /// Panics with a full report if any attached monitor recorded a
    /// violation. A no-op when no monitors are attached.
    ///
    /// # Panics
    ///
    /// Panics when at least one violation was recorded, listing every
    /// violation with its simulation time and flow.
    pub fn assert_no_violations(&self) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "{} invariant violation(s):\n{}",
            violations.len(),
            violations
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// The engine's packet accounting at the current instant; the basis
    /// of the packet-conservation invariant (`injected == delivered +
    /// dropped + in_flight`).
    pub fn audit_stats(&self) -> AuditStats {
        self.core.audit()
    }

    /// Borrows the agent at `node`, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a switch or the agent is not a `T`.
    pub fn host<T: Agent<P>>(&self, node: NodeId) -> &T {
        let agent = self.agents[node.index()]
            .as_ref()
            .expect("node is a switch, not a host"); // trim-lint: allow(no-panic-in-library, reason = "documented panic: typed accessor misuse is a caller bug")
        (agent.as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .expect("agent has a different concrete type") // trim-lint: allow(no-panic-in-library, reason = "documented panic: typed accessor misuse is a caller bug")
    }

    /// Mutably borrows the agent at `node`, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a switch or the agent is not a `T`.
    pub fn host_mut<T: Agent<P>>(&mut self, node: NodeId) -> &mut T {
        let agent = self.agents[node.index()]
            .as_mut()
            .expect("node is a switch, not a host"); // trim-lint: allow(no-panic-in-library, reason = "documented panic: typed accessor misuse is a caller bug")
        (agent.as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("agent has a different concrete type") // trim-lint: allow(no-panic-in-library, reason = "documented panic: typed accessor misuse is a caller bug")
    }

    fn ensure_ready(&mut self) {
        if !self.core.routes_built {
            self.core.build_routes();
        }
        if !self.started {
            self.started = true;
            for i in 0..self.agents.len() {
                if let Some(mut agent) = self.agents[i].take() {
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        node: NodeId(i as u32),
                    };
                    agent.on_start(&mut ctx);
                    self.agents[i] = Some(agent);
                }
            }
        }
    }

    /// Runs until the event queue is exhausted.
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Processes every event with timestamp `<= horizon`, then advances the
    /// clock to `horizon` (when finite) so statistics settle consistently.
    ///
    /// Events come from two sources — the event queue (packets, links)
    /// and the timing wheel (timers) — merged by `(time, seq)`. Both
    /// draw sequence numbers from one global counter, so the merge is a
    /// total order identical to the single-queue engine's pop order.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.core.run_horizon = Some(horizon);
        self.ensure_ready();
        loop {
            let timer_first = match (self.core.events.peek_key(), self.core.wheel.peek_key()) {
                (None, None) => break,
                (Some(e), None) => {
                    if e.0 > horizon {
                        break;
                    }
                    false
                }
                (None, Some(w)) => {
                    if w.0 > horizon {
                        break;
                    }
                    true
                }
                (Some(e), Some(w)) => {
                    if e.0.min(w.0) > horizon {
                        break;
                    }
                    w < e
                }
            };
            if timer_first {
                self.fire_timer_batch();
            } else {
                self.process_event();
            }
        }
        // The old engine popped cancelled timers as tombstones; see
        // `Core::ghost_deadlines`. Count the buffered ones this horizon
        // covers.
        self.core.run_horizon = None;
        let mut ghost_pops = 0u64;
        self.core.ghost_deadlines.retain(|&at| {
            if at <= horizon {
                ghost_pops += 1;
                false
            } else {
                true
            }
        });
        self.core.events_processed += ghost_pops;
        if horizon != SimTime::MAX && horizon > self.core.now {
            self.core.now = horizon;
        }
        if self.core.monitors_on {
            let audit = self.core.audit();
            let at = self.core.now;
            let mut monitors = std::mem::take(&mut self.core.monitors);
            for m in &mut monitors {
                m.finalize(at, &audit);
            }
            self.core.monitors = monitors;
        }
    }

    /// Pops and dispatches the minimal timer, keeping its host's agent
    /// checked out while further timers for the same node at the same
    /// instant are next in the merged order — same-tick batching, so a
    /// fan-in burst of RTO/delayed-ACK deadlines touches each host once
    /// per tick. Every per-event step (clock emission, clock advance,
    /// event count) still happens inside the loop in merge order, so a
    /// batched run is observationally identical to an unbatched one.
    fn fire_timer_batch(&mut self) {
        let Some((at, _seq, (node, token))) = self.core.wheel.pop() else {
            return;
        };
        self.core.step_clock(at);
        let mut agent = self.agents[node.index()]
            .take()
            .expect("timer delivered to switch"); // trim-lint: allow(no-panic-in-library, reason = "timers are only ever set by host agents; a switch timer is engine corruption")
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        agent.on_timer(&mut ctx, token);
        while let Some((wat, wseq, (wnode, wtoken))) = self.core.wheel.peek() {
            if wat != at || wnode != node {
                break;
            }
            // A packet/link event with a smaller key preempts the batch.
            if let Some(ek) = self.core.events.peek_key() {
                if ek < (wat, wseq) {
                    break;
                }
            }
            self.core.wheel.pop();
            self.core.step_clock(wat);
            let mut ctx = Ctx {
                core: &mut self.core,
                node,
            };
            agent.on_timer(&mut ctx, wtoken);
        }
        self.agents[node.index()] = Some(agent);
    }

    /// Pops and handles the minimal packet/link event. Same-instant
    /// arrivals to the same host batch under one agent checkout, exactly
    /// like [`Self::fire_timer_batch`].
    fn process_event(&mut self) {
        let Some((at, ev)) = self.core.events.pop() else {
            return;
        };
        // Timers are strictly later than this event, so the wheel's
        // placement windows can advance to the present.
        self.core.wheel.advance_to(at);
        self.core.step_clock(at);
        match ev {
            Ev::TxDone { ch } => self.core.on_tx_done(ch),
            Ev::Arrival { node, pkt } => {
                self.core.pending_arrivals -= 1;
                let pkt = self.core.arena.free(pkt);
                match self.core.kinds[node.index()] {
                    NodeKind::Switch => self.core.forward(node, pkt),
                    NodeKind::Host => self.deliver_batch(node, at, pkt),
                }
            }
        }
    }

    /// Delivers `first` to host `node` and keeps the agent checked out
    /// while further arrivals for the same host at the same instant are
    /// next in the merged order.
    fn deliver_batch(&mut self, node: NodeId, at: SimTime, first: Packet<P>) {
        self.core.note_delivery(node, &first);
        let mut agent = self.agents[node.index()]
            .take()
            .expect("packet delivered to switch"); // trim-lint: allow(no-panic-in-library, reason = "the caller matched NodeKind::Host for this node")
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        agent.on_packet(&mut ctx, first);
        loop {
            let next_is_same = match self.core.events.peek() {
                Some((eat, eseq, Ev::Arrival { node: n, .. })) if eat == at && *n == node => {
                    // A timer with a smaller key preempts the batch.
                    !matches!(self.core.wheel.peek_key(), Some(wk) if wk < (eat, eseq))
                }
                _ => false,
            };
            if !next_is_same {
                break;
            }
            match self.core.events.pop() {
                Some((_, Ev::Arrival { pkt, .. })) => {
                    self.core.step_clock(at);
                    self.core.pending_arrivals -= 1;
                    let pkt = self.core.arena.free(pkt);
                    self.core.note_delivery(node, &pkt);
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        node,
                    };
                    agent.on_packet(&mut ctx, pkt);
                }
                _ => break, // unreachable: peeked an Arrival above
            }
        }
        self.agents[node.index()] = Some(agent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::SinkAgent;
    use crate::packet::{FlowId, TagPayload};

    fn star(n_senders: usize) -> (Simulator<TagPayload>, Vec<NodeId>, NodeId, ChannelId) {
        let mut sim = Simulator::new();
        let sw = sim.add_switch();
        let dst = sim.add_host(Box::new(SinkAgent::default()));
        let (_, sw_to_dst) = sim.connect(
            dst,
            sw,
            Bandwidth::gbps(1),
            Dur::from_micros(50),
            QueueConfig::default(),
        );
        let senders = (0..n_senders)
            .map(|_| {
                let h = sim.add_host(Box::new(SinkAgent::default()));
                sim.connect(
                    h,
                    sw,
                    Bandwidth::gbps(1),
                    Dur::from_micros(50),
                    QueueConfig::default(),
                );
                h
            })
            .collect();
        (sim, senders, dst, sw_to_dst)
    }

    #[test]
    fn single_packet_latency() {
        let (mut sim, senders, dst, _) = star(1);
        sim.inject(
            senders[0],
            Packet::new(senders[0], dst, FlowId(1), 1460, TagPayload(0)),
        );
        sim.run();
        // ser(11.68us) + prop(50us) at each of the 2 hops = 123.36us.
        assert_eq!(sim.now(), SimTime::from_nanos(123_360));
        assert_eq!(sim.host::<SinkAgent>(dst).received, 1);
        assert_eq!(sim.host::<SinkAgent>(dst).received_bytes, 1460);
    }

    #[test]
    fn back_to_back_packets_serialize() {
        let (mut sim, senders, dst, _) = star(1);
        for _ in 0..3 {
            sim.inject(
                senders[0],
                Packet::new(senders[0], dst, FlowId(1), 1460, TagPayload(0)),
            );
        }
        sim.run();
        // Last packet leaves the first link at 3*ser, arrives at the switch
        // at 3*ser + 50us, then 1*ser + 50us more (switch queue drains in
        // lockstep with arrivals because the rates match).
        assert_eq!(sim.host::<SinkAgent>(dst).received, 3);
        assert_eq!(
            sim.now(),
            SimTime::from_nanos(3 * 11_680 + 50_000 + 11_680 + 50_000)
        );
    }

    #[test]
    fn congestion_drops_at_bottleneck() {
        // 5 senders each blast 50 packets at t=0; bottleneck queue is 20.
        let mut sim = Simulator::new();
        let sw = sim.add_switch();
        let dst = sim.add_host(Box::new(SinkAgent::default()));
        let (_, sw_to_dst) = sim.connect(
            dst,
            sw,
            Bandwidth::gbps(1),
            Dur::from_micros(50),
            QueueConfig::drop_tail(20),
        );
        let mut senders = Vec::new();
        for _ in 0..5 {
            let h = sim.add_host(Box::new(SinkAgent::default()));
            sim.connect(
                h,
                sw,
                Bandwidth::gbps(1),
                Dur::from_micros(50),
                QueueConfig::default(),
            );
            senders.push(h);
        }
        for &s in &senders {
            for _ in 0..50 {
                sim.inject(
                    s,
                    Packet::new(s, dst, FlowId(s.index() as u64), 1460, TagPayload(0)),
                );
            }
        }
        sim.run();
        let stats = sim.queue_stats(sw_to_dst);
        assert!(stats.dropped > 0, "bottleneck must overflow");
        assert_eq!(
            sim.host::<SinkAgent>(dst).received,
            250 - stats.dropped,
            "every packet is either delivered or dropped"
        );
        assert!(stats.max_len <= 20);
    }

    #[test]
    fn multi_hop_forwarding() {
        // h0 - sw0 - sw1 - h1
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h0 = sim.add_host(Box::new(SinkAgent::default()));
        let h1 = sim.add_host(Box::new(SinkAgent::default()));
        let sw0 = sim.add_switch();
        let sw1 = sim.add_switch();
        let cfg = QueueConfig::default();
        let bw = Bandwidth::gbps(1);
        let d = Dur::from_micros(10);
        sim.connect(h0, sw0, bw, d, cfg);
        sim.connect(sw0, sw1, bw, d, cfg);
        sim.connect(sw1, h1, bw, d, cfg);
        sim.inject(h0, Packet::new(h0, h1, FlowId(1), 1000, TagPayload(0)));
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(h1).received, 1);
        // 3 hops: 3 * (8us ser + 10us prop).
        assert_eq!(sim.now(), SimTime::from_nanos(3 * 18_000));
    }

    /// An agent that echoes every packet back to its source.
    #[derive(Debug, Default)]
    struct EchoAgent;
    impl Agent<TagPayload> for EchoAgent {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
            let reply = Packet::new(pkt.dst, pkt.src, pkt.flow, 40, pkt.payload);
            ctx.send(reply);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
    }

    #[test]
    fn agents_can_reply() {
        let mut sim = Simulator::new();
        let sw = sim.add_switch();
        let client = sim.add_host(Box::new(SinkAgent::default()));
        let server = sim.add_host(Box::new(EchoAgent));
        let cfg = QueueConfig::default();
        sim.connect(client, sw, Bandwidth::gbps(1), Dur::from_micros(50), cfg);
        sim.connect(server, sw, Bandwidth::gbps(1), Dur::from_micros(50), cfg);
        sim.inject(
            client,
            Packet::new(client, server, FlowId(7), 1460, TagPayload(3)),
        );
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(client).received, 1);
        assert_eq!(sim.host::<SinkAgent>(client).received_bytes, 40);
    }

    /// An agent that sets and cancels timers.
    #[derive(Debug, Default)]
    struct TimerAgent {
        fired: Vec<u64>,
    }
    impl Agent<TagPayload> for TimerAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            ctx.set_timer(Dur::from_millis(1), 1);
            let t2 = ctx.set_timer(Dur::from_millis(2), 2);
            ctx.set_timer(Dur::from_millis(3), 3);
            ctx.cancel_timer(t2);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push(token);
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(TimerAgent::default()));
        let s = sim.add_host(Box::new(SinkAgent::default()));
        sim.connect(
            h,
            s,
            Bandwidth::gbps(1),
            Dur::from_micros(1),
            QueueConfig::default(),
        );
        sim.run();
        assert_eq!(sim.host::<TimerAgent>(h).fired, vec![1, 3]);
        assert_eq!(sim.now(), SimTime::from_nanos(3_000_000));
    }

    #[test]
    fn run_until_stops_and_resumes() {
        let (mut sim, senders, dst, _) = star(1);
        sim.inject(
            senders[0],
            Packet::new(senders[0], dst, FlowId(1), 1460, TagPayload(0)),
        );
        sim.run_until(SimTime::from_nanos(100_000));
        assert_eq!(sim.host::<SinkAgent>(dst).received, 0);
        assert_eq!(sim.now(), SimTime::from_nanos(100_000));
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(dst).received, 1);
    }

    #[test]
    fn ecmp_spreads_flows_across_equal_paths() {
        // h0 -- swA -- {sw1, sw2} -- swB -- h1: two equal-cost paths.
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h0 = sim.add_host(Box::new(SinkAgent::default()));
        let h1 = sim.add_host(Box::new(SinkAgent::default()));
        let swa = sim.add_switch();
        let sw1 = sim.add_switch();
        let sw2 = sim.add_switch();
        let swb = sim.add_switch();
        let cfg = QueueConfig::default();
        let bw = Bandwidth::gbps(1);
        let d = Dur::from_micros(1);
        sim.connect(h0, swa, bw, d, cfg);
        let (a1, _) = sim.connect(swa, sw1, bw, d, cfg);
        let (a2, _) = sim.connect(swa, sw2, bw, d, cfg);
        sim.connect(sw1, swb, bw, d, cfg);
        sim.connect(sw2, swb, bw, d, cfg);
        sim.connect(swb, h1, bw, d, cfg);
        for flow in 0..64 {
            sim.inject(h0, Packet::new(h0, h1, FlowId(flow), 1000, TagPayload(0)));
        }
        sim.run();
        assert_eq!(sim.host::<SinkAgent>(h1).received, 64);
        let via1 = sim.queue_stats(a1).enqueued;
        let via2 = sim.queue_stats(a2).enqueued;
        assert_eq!(via1 + via2, 64);
        assert!(via1 > 8 && via2 > 8, "both paths used: {via1}/{via2}");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_destination_panics() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h0 = sim.add_host(Box::new(SinkAgent::default()));
        let h1 = sim.add_host(Box::new(SinkAgent::default()));
        // No links at all.
        sim.inject(h0, Packet::new(h0, h1, FlowId(0), 100, TagPayload(0)));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn switch_destination_panics() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h0 = sim.add_host(Box::new(SinkAgent::default()));
        let sw = sim.add_switch();
        sim.connect(
            h0,
            sw,
            Bandwidth::gbps(1),
            Dur::from_micros(1),
            QueueConfig::default(),
        );
        // Switches terminate nothing: only hosts are valid destinations.
        sim.inject(h0, Packet::new(h0, sw, FlowId(0), 100, TagPayload(0)));
    }

    /// Counts monitor events and records violations on demand; used to
    /// test the emission hooks themselves.
    #[derive(Debug, Default)]
    struct CountingMonitor {
        injected: u64,
        delivered: u64,
        dropped: u64,
        enqueued: u64,
        dequeued: u64,
        clock: u64,
        max_uid: u64,
        finalized: Vec<crate::monitor::AuditStats>,
        violations: Vec<crate::monitor::Violation>,
    }
    impl crate::monitor::InvariantMonitor for CountingMonitor {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn observe(&mut self, _at: SimTime, ev: &MonitorEvent) {
            match ev {
                MonitorEvent::Clock { .. } => self.clock += 1,
                MonitorEvent::Injected { uid, .. } => {
                    self.injected += 1;
                    self.max_uid = self.max_uid.max(*uid);
                }
                MonitorEvent::Delivered { .. } => self.delivered += 1,
                MonitorEvent::Dropped { .. } => self.dropped += 1,
                MonitorEvent::Enqueued { .. } => self.enqueued += 1,
                MonitorEvent::Dequeued { .. } => self.dequeued += 1,
                _ => {}
            }
        }
        fn finalize(&mut self, _at: SimTime, audit: &crate::monitor::AuditStats) {
            self.finalized.push(*audit);
        }
        fn violations(&self) -> &[crate::monitor::Violation] {
            &self.violations
        }
    }

    #[test]
    fn monitors_see_every_packet_event_and_uids_are_unique() {
        let (mut sim, senders, dst, _) = star(2);
        sim.attach_monitor(Box::new(CountingMonitor::default()));
        assert!(sim.monitors_enabled());
        for (i, &s) in senders.iter().enumerate() {
            for _ in 0..5 {
                sim.inject(
                    s,
                    Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                );
            }
        }
        sim.run();
        // Monitors are boxed inside the simulator; inspect through the
        // audit and violation APIs plus the engine counters.
        let audit = sim.audit_stats();
        assert_eq!(audit.injected, 10);
        assert_eq!(audit.delivered, 10);
        assert_eq!(audit.dropped, 0);
        assert_eq!(audit.in_flight(), 0);
        assert!(sim.violations().is_empty());
        sim.assert_no_violations();
    }

    /// A star with a small bottleneck queue and `n` senders blasting
    /// `per_sender` packets each at t=0, so the bottleneck overflows.
    fn congested_star(
        n: usize,
        cap: usize,
        per_sender: usize,
    ) -> (Simulator<TagPayload>, NodeId, ChannelId) {
        let mut sim = Simulator::new();
        let sw = sim.add_switch();
        let dst = sim.add_host(Box::new(SinkAgent::default()));
        let (_, sw_to_dst) = sim.connect(
            dst,
            sw,
            Bandwidth::gbps(1),
            Dur::from_micros(50),
            QueueConfig::drop_tail(cap),
        );
        let mut senders = Vec::new();
        for _ in 0..n {
            let h = sim.add_host(Box::new(SinkAgent::default()));
            sim.connect(
                h,
                sw,
                Bandwidth::gbps(1),
                Dur::from_micros(50),
                QueueConfig::default(),
            );
            senders.push(h);
        }
        for &s in &senders {
            for _ in 0..per_sender {
                sim.inject(
                    s,
                    Packet::new(s, dst, FlowId(s.index() as u64), 1460, TagPayload(0)),
                );
            }
        }
        (sim, dst, sw_to_dst)
    }

    #[test]
    fn audit_counts_dropped_packets() {
        let (mut sim, dst, _) = congested_star(5, 10, 20);
        sim.run();
        let audit = sim.audit_stats();
        assert_eq!(audit.injected, 100);
        assert!(audit.dropped > 0);
        assert_eq!(audit.delivered + audit.dropped, 100);
        assert_eq!(audit.in_flight(), 0);
        assert_eq!(audit.delivered, sim.host::<SinkAgent>(dst).received);
    }

    #[test]
    fn arena_is_empty_after_a_drained_run() {
        let (mut sim, dst, _) = congested_star(5, 10, 20);
        sim.run();
        assert_eq!(sim.arena_live(), 0, "every in-flight packet was freed");
        let audit = sim.audit_stats();
        assert_eq!(audit.arena_live, 0);
        assert_eq!(audit.pending_arrivals, 0);
        assert!(sim.arena_high_water() > 0, "packets did traverse the wire");
        assert_eq!(sim.host::<SinkAgent>(dst).received, audit.delivered);
    }

    #[test]
    fn arena_live_equals_pending_arrivals_mid_run() {
        let (mut sim, senders, dst, _) = star(3);
        for (i, &s) in senders.iter().enumerate() {
            for _ in 0..10 {
                sim.inject(
                    s,
                    Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                );
            }
        }
        // Stop mid-flight: packets are on the wire at this instant.
        sim.run_until(SimTime::from_nanos(60_000));
        let audit = sim.audit_stats();
        assert_eq!(audit.arena_live, audit.pending_arrivals);
        assert!(audit.arena_live > 0, "horizon chosen mid-flight");
        sim.run();
        assert_eq!(sim.audit_stats().arena_live, 0);
    }

    #[test]
    fn events_processed_counts_dispatches() {
        let (mut sim, senders, dst, _) = star(1);
        sim.inject(
            senders[0],
            Packet::new(senders[0], dst, FlowId(1), 1460, TagPayload(0)),
        );
        sim.run();
        // One packet over two hops: 2 arrivals + 2 tx-done events.
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn overadmit_fault_exceeds_capacity() {
        let (mut sim, dst, sw_to_dst) = congested_star(5, 3, 10);
        sim.inject_queue_overadmit(sw_to_dst, 2);
        sim.run();
        let stats = sim.queue_stats(sw_to_dst);
        assert_eq!(stats.max_len, 5, "3-capacity queue over-admitted by 2");
        assert_eq!(sim.host::<SinkAgent>(dst).received + stats.dropped, 50);
    }

    #[test]
    fn monitored_run_is_identical_to_unmonitored() {
        let run = |monitored: bool| {
            let (mut sim, senders, dst, ch) = star(3);
            if monitored {
                sim.attach_monitor(Box::new(CountingMonitor::default()));
            }
            for (i, &s) in senders.iter().enumerate() {
                for _ in 0..20 {
                    sim.inject(
                        s,
                        Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                    );
                }
            }
            sim.run();
            (
                sim.now(),
                sim.host::<SinkAgent>(dst).received,
                sim.queue_stats(ch).max_len,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_event_order() {
        // Two identical runs deliver identical outcomes.
        let run = || {
            let (mut sim, senders, dst, ch) = star(3);
            for (i, &s) in senders.iter().enumerate() {
                for _ in 0..20 {
                    sim.inject(
                        s,
                        Packet::new(s, dst, FlowId(i as u64), 1460, TagPayload(0)),
                    );
                }
            }
            sim.run();
            (
                sim.now(),
                sim.host::<SinkAgent>(dst).received,
                sim.queue_stats(ch).max_len,
            )
        };
        assert_eq!(run(), run());
    }

    /// An agent that reports through `emit_monitor_with`, counting how
    /// many times its closure actually ran.
    #[derive(Debug, Default)]
    struct ClosureCountingAgent {
        closures_run: u64,
    }
    impl Agent<TagPayload> for ClosureCountingAgent {
        fn on_packet(&mut self, ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
            let runs = &mut self.closures_run;
            ctx.emit_monitor_with(|| {
                *runs += 1;
                MonitorEvent::CwndUpdate {
                    flow: pkt.flow,
                    cwnd: 1.0,
                    min_cwnd: 1.0,
                    max_cwnd: 64.0,
                }
            });
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
    }

    #[test]
    fn emit_monitor_with_skips_closure_when_detached() {
        let run = |monitored: bool| {
            let mut sim: Simulator<TagPayload> = Simulator::new();
            let sw = sim.add_switch();
            let src = sim.add_host(Box::new(SinkAgent::default()));
            let dst = sim.add_host(Box::new(ClosureCountingAgent::default()));
            let cfg = QueueConfig::default();
            sim.connect(src, sw, Bandwidth::gbps(1), Dur::from_micros(5), cfg);
            sim.connect(dst, sw, Bandwidth::gbps(1), Dur::from_micros(5), cfg);
            if monitored {
                sim.attach_monitor(Box::new(CountingMonitor::default()));
            }
            for i in 0..7 {
                sim.inject(src, Packet::new(src, dst, FlowId(i), 1000, TagPayload(0)));
            }
            sim.run();
            (
                sim.host::<ClosureCountingAgent>(dst).closures_run,
                sim.now(),
            )
        };
        let (unmon_closures, unmon_now) = run(false);
        let (mon_closures, mon_now) = run(true);
        assert_eq!(unmon_closures, 0, "detached run must build zero events");
        assert_eq!(mon_closures, 7, "monitored run builds one per packet");
        assert_eq!(unmon_now, mon_now, "monitoring never perturbs the run");
    }

    /// Arms two timers for the same deadline; the first fire cancels the
    /// second from inside `on_timer` — the cancel races the same-tick
    /// fire that is already next in the merged order.
    #[derive(Debug, Default)]
    struct RacingAgent {
        victim: Option<TimerId>,
        fired: Vec<u64>,
    }
    impl Agent<TagPayload> for RacingAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            ctx.set_timer(Dur::from_micros(10), 1);
            self.victim = Some(ctx.set_timer(Dur::from_micros(10), 2));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push(token);
            if let Some(v) = self.victim.take() {
                ctx.cancel_timer(v);
            }
        }
    }

    /// Regression for the cancel-racing-same-tick-fire edge: a timer
    /// cancelled by an earlier fire at the same instant must not fire,
    /// and the engine must still count its ghost pop (the old
    /// tombstone-heap engine popped the cancelled entry, so
    /// `events_processed` includes it — committed goldens depend on it).
    #[test]
    fn cancel_racing_same_tick_fire_is_deterministic() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(RacingAgent::default()));
        let _ = h;
        sim.run();
        assert_eq!(sim.host::<RacingAgent>(h).fired, vec![1]);
        // 1 real fire + 1 ghost pop of the same-tick victim.
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.now(), SimTime::from_nanos(10_000));
    }

    /// Cancels a handle whose timer already fired, after a later timer
    /// has been armed (which may recycle the fired timer's wheel slot).
    #[derive(Debug, Default)]
    struct StaleCancelAgent {
        first: Option<TimerId>,
        fired: Vec<u64>,
    }
    impl Agent<TagPayload> for StaleCancelAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            self.first = Some(ctx.set_timer(Dur::from_micros(1), 1));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push(token);
            if token == 1 {
                // Arm the next timer first so it can recycle slot 0,
                // then cancel the stale handle of the fired timer.
                ctx.set_timer(Dur::from_micros(1), 2);
                let stale = self.first.take().expect("armed in on_start");
                ctx.cancel_timer(stale);
            }
        }
    }

    /// Regression for the ghost-cancel edge at the engine level: a stale
    /// `TimerId` (its timer already fired) must not kill a newly armed
    /// timer that recycled the wheel slot, and must not add a ghost pop.
    #[test]
    fn stale_cancel_cannot_kill_recycled_timer() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(StaleCancelAgent::default()));
        sim.run();
        assert_eq!(sim.host::<StaleCancelAgent>(h).fired, vec![1, 2]);
        // 2 real fires, no ghosts: the stale cancel was a no-op.
        assert_eq!(sim.events_processed(), 2);
    }

    /// Ghost-pop accounting: the old engine popped cancelled timers as
    /// tombstones, counting them in `events_processed`; committed golden
    /// CSVs carry those counts, so the wheel engine must reproduce them.
    #[test]
    fn ghost_timer_pops_count_toward_events_processed() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(TimerAgent::default()));
        sim.run();
        // TimerAgent arms 3 timers and cancels one: 2 fires + 1 ghost.
        assert_eq!(sim.host::<TimerAgent>(h).fired, vec![1, 3]);
        assert_eq!(sim.events_processed(), 3);
    }

    /// A cancelled timer past the stop horizon is NOT a ghost pop yet —
    /// the old engine would not have reached it either. It becomes one
    /// only when the horizon passes its deadline.
    #[test]
    fn ghost_pops_respect_the_run_horizon() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(TimerAgent::default()));
        let _ = h;
        // TimerAgent cancels its 2ms timer. Stop at 1.5ms: only the 1ms
        // fire has happened; the ghost at 2ms is still pending.
        sim.run_until(SimTime::from_nanos(1_500_000));
        assert_eq!(sim.events_processed(), 1);
        // Crossing 2ms accounts the ghost; 3ms fires the last timer.
        sim.run_until(SimTime::from_nanos(2_500_000));
        assert_eq!(sim.events_processed(), 2);
        sim.run();
        assert_eq!(sim.events_processed(), 3);
        assert_eq!(sim.host::<TimerAgent>(h).fired, vec![1, 3]);
    }

    /// Arms and cancels an RTO-like timer `self.0` times from inside one
    /// fire — the re-arm pattern of an ACK clock.
    #[derive(Debug, Default)]
    struct RearmAgent(u64);
    impl Agent<TagPayload> for RearmAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            ctx.set_timer(Dur::from_micros(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, TagPayload>, _token: u64) {
            for _ in 0..self.0 {
                let rto = ctx.set_timer(Dur::from_millis(1), 1);
                ctx.cancel_timer(rto);
            }
        }
    }

    /// In-horizon cancels are counted as they happen: 10^4 of them end
    /// with the exact ghost count and never grow the deferred buffer.
    #[test]
    fn in_horizon_ghosts_are_counted_without_buffering() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        sim.add_host(Box::new(RearmAgent(10_000)));
        sim.run();
        // 1 real fire + 10^4 ghosts.
        assert_eq!(sim.events_processed(), 10_001);
        assert_eq!(sim.core.ghost_deadlines.capacity(), 0);
    }

    /// Arms `n` timers for one deadline with ascending tokens.
    #[derive(Debug, Default)]
    struct FifoTimerAgent {
        n: u64,
        fired: Vec<u64>,
    }
    impl Agent<TagPayload> for FifoTimerAgent {
        fn on_start(&mut self, ctx: &mut Ctx<'_, TagPayload>) {
            for token in 0..self.n {
                ctx.set_timer(Dur::from_micros(25), token);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _pkt: Packet<TagPayload>) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, token: u64) {
            self.fired.push(token);
        }
    }

    /// Same-deadline timers on one host fire in arm order (the batched
    /// fire path keeps the agent checked out across the whole tick).
    #[test]
    fn same_deadline_timer_batch_fires_in_fifo_order() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let h = sim.add_host(Box::new(FifoTimerAgent {
            n: 5,
            ..Default::default()
        }));
        sim.run();
        assert_eq!(sim.host::<FifoTimerAgent>(h).fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.events_processed(), 5);
    }

    /// Records the arrival order of packet flow ids.
    #[derive(Debug, Default)]
    struct RecordingAgent {
        seen: Vec<u64>,
    }
    impl Agent<TagPayload> for RecordingAgent {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_, TagPayload>, pkt: Packet<TagPayload>) {
            self.seen.push(pkt.flow.0);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, TagPayload>, _token: u64) {}
    }

    /// Two same-instant arrivals on one host (over two direct links with
    /// identical latency) are delivered in injection-sequence order by
    /// the batched delivery path.
    #[test]
    fn same_instant_arrivals_deliver_in_sequence_order() {
        let mut sim: Simulator<TagPayload> = Simulator::new();
        let dst = sim.add_host(Box::new(RecordingAgent::default()));
        let s0 = sim.add_host(Box::new(SinkAgent::default()));
        let s1 = sim.add_host(Box::new(SinkAgent::default()));
        let cfg = QueueConfig::default();
        sim.connect(s0, dst, Bandwidth::gbps(1), Dur::from_micros(50), cfg);
        sim.connect(s1, dst, Bandwidth::gbps(1), Dur::from_micros(50), cfg);
        sim.inject(s1, Packet::new(s1, dst, FlowId(9), 1000, TagPayload(0)));
        sim.inject(s0, Packet::new(s0, dst, FlowId(4), 1000, TagPayload(0)));
        sim.run();
        // Identical links and sizes: both land at 8us ser + 50us prop.
        assert_eq!(sim.now(), SimTime::from_nanos(58_000));
        // Injection order (9 then 4), not node order, decides the tie.
        assert_eq!(sim.host::<RecordingAgent>(dst).seen, vec![9, 4]);
    }
}
