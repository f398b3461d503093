//! Outside-in tracing: wrappers that time calls into a layer's public
//! hooks without touching the layer.
//!
//! [`Traced`] is an `Agent<Segment>` that delegates to a [`TcpHost`] and
//! times `on_packet` and `on_timer` separately; [`TimedMonitors`] wraps a
//! set of [`InvariantMonitor`]s and times their `observe` calls. Each
//! boundary aggregates into one [`Tally`] (call count, total host
//! nanoseconds) in memory, so tracing 10⁷ calls costs two clock reads per
//! call and no allocation.
//!
//! Both wrappers only observe: they forward every call unchanged, so a
//! traced run dispatches exactly the events an untraced run does.
//!
//! Monitors often run *inside* a host hook (the events a hook emits
//! through `Ctx`), so a hook's own time excludes the monitor time spent
//! during it: the hook tallies are exclusive, and `run_until` minus both
//! is the engine's share.

use std::cell::Cell;

use netsim::prelude::*;
use trim_tcp::{Segment, TcpHost};

use crate::clock::Stopwatch;

/// Calls into one hook and the host time they took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Completed calls.
    pub calls: u64,
    /// Total host nanoseconds inside the calls.
    pub ns: u64,
}

impl Tally {
    /// Records one call of `ns` nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Sums two tallies.
    pub fn plus(self, other: Tally) -> Tally {
        Tally {
            calls: self.calls + other.calls,
            ns: self.ns + other.ns,
        }
    }
}

/// Per-boundary tallies of one repetition, summed over every host and
/// monitor. All zero in an untraced repetition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HookTally {
    /// `TcpHost::on_packet` calls.
    pub packet: Tally,
    /// `TcpHost::on_timer` calls.
    pub timer: Tally,
    /// `TcpHost::on_start` calls (once per host, inside the first
    /// `run_until`).
    pub start: Tally,
    /// `InvariantMonitor::observe` calls; `finalize` time is added to
    /// `ns` without counting as a call.
    pub observe: Tally,
}

impl HookTally {
    /// Sums two tallies field by field.
    pub fn plus(self, o: HookTally) -> HookTally {
        HookTally {
            packet: self.packet.plus(o.packet),
            timer: self.timer.plus(o.timer),
            start: self.start.plus(o.start),
            observe: self.observe.plus(o.observe),
        }
    }

    /// Host nanoseconds spent inside `TcpHost` hooks.
    pub fn agent_ns(&self) -> u64 {
        self.packet.ns + self.timer.ns + self.start.ns
    }
}

thread_local! {
    /// Monitor time of the current repetition on this thread.
    static OBSERVED: Cell<Tally> = const { Cell::new(Tally { calls: 0, ns: 0 }) };
}

/// Returns the monitor tally recorded on this thread since the last
/// call, and resets it.
pub fn take_observed() -> Tally {
    OBSERVED.with(|c| c.replace(Tally::default()))
}

fn observed_ns() -> u64 {
    OBSERVED.with(|c| c.get().ns)
}

/// Runs `f` and records its host time into `tally`, minus any monitor
/// time spent inside it.
#[inline]
fn exclusive<R>(tally: &mut Tally, f: impl FnOnce() -> R) -> R {
    let nested = observed_ns();
    let w = Stopwatch::start();
    let r = f();
    let ns = w.elapsed_ns();
    tally.record(ns.saturating_sub(observed_ns() - nested));
    r
}

/// The host agent a runner builds its topology from: either the plain
/// [`TcpHost`] (untraced, zero cost) or the [`Traced`] wrapper.
pub trait Host: Agent<Segment> + Sized {
    /// Wraps a configured TCP host.
    fn wrap(tcp: TcpHost) -> Self;
    /// The wrapped TCP host.
    fn tcp(&self) -> &TcpHost;
    /// The wrapped TCP host, mutably (flow wiring).
    fn tcp_mut(&mut self) -> &mut TcpHost;
    /// Hook tallies recorded so far (zero when untraced).
    fn hooks(&self) -> HookTally {
        HookTally::default()
    }
    /// Whether monitors attached for this host type are timed.
    const TRACED: bool;
}

impl Host for TcpHost {
    const TRACED: bool = false;

    fn wrap(tcp: TcpHost) -> Self {
        tcp
    }

    fn tcp(&self) -> &TcpHost {
        self
    }

    fn tcp_mut(&mut self) -> &mut TcpHost {
        self
    }
}

/// A [`TcpHost`] whose hooks are timed from outside.
#[derive(Debug)]
pub struct Traced {
    tcp: TcpHost,
    hooks: HookTally,
}

impl Host for Traced {
    const TRACED: bool = true;

    fn wrap(tcp: TcpHost) -> Self {
        Traced {
            tcp,
            hooks: HookTally::default(),
        }
    }

    fn tcp(&self) -> &TcpHost {
        &self.tcp
    }

    fn tcp_mut(&mut self) -> &mut TcpHost {
        &mut self.tcp
    }

    fn hooks(&self) -> HookTally {
        self.hooks
    }
}

impl Agent<Segment> for Traced {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Segment>) {
        let tcp = &mut self.tcp;
        exclusive(&mut self.hooks.start, || tcp.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, Segment>, pkt: Packet<Segment>) {
        let tcp = &mut self.tcp;
        exclusive(&mut self.hooks.packet, || tcp.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Segment>, token: u64) {
        let tcp = &mut self.tcp;
        exclusive(&mut self.hooks.timer, || tcp.on_timer(ctx, token));
    }
}

/// An [`InvariantMonitor`] decorator around a whole monitor set: each
/// emitted event is fanned out to every inner monitor under one clock
/// pair, recorded (as one call per inner monitor) into this thread's
/// monitor tally, read back with [`take_observed`].
///
/// Timing the set rather than each monitor keeps the clock off the
/// critical path: a standard set is a dozen monitors whose `observe`
/// calls take tens of nanoseconds each, about what one clock pair costs.
/// Inner violations are gathered at `finalize`, which the simulator runs
/// when `run_until` returns and before anyone can ask for them.
pub struct TimedMonitors {
    inner: Vec<Box<dyn InvariantMonitor>>,
    violations: Vec<Violation>,
}

impl std::fmt::Debug for TimedMonitors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.inner).finish()
    }
}

impl TimedMonitors {
    /// Wraps `inner`.
    pub fn new(inner: Vec<Box<dyn InvariantMonitor>>) -> Self {
        TimedMonitors {
            inner,
            violations: Vec::new(),
        }
    }
}

/// Adds `ns` (and `calls`) to this thread's monitor tally.
fn add_observed(calls: u64, ns: u64) {
    OBSERVED.with(|c| {
        let t = c.get();
        c.set(Tally {
            calls: t.calls + calls,
            ns: t.ns + ns,
        });
    });
}

impl InvariantMonitor for TimedMonitors {
    fn name(&self) -> &'static str {
        "timed-monitor-set"
    }

    fn observe(&mut self, at: SimTime, ev: &MonitorEvent) {
        let w = Stopwatch::start();
        for m in &mut self.inner {
            m.observe(at, ev);
        }
        add_observed(self.inner.len() as u64, w.elapsed_ns());
    }

    fn finalize(&mut self, at: SimTime, audit: &AuditStats) {
        let w = Stopwatch::start();
        for m in &mut self.inner {
            m.finalize(at, audit);
        }
        add_observed(0, w.elapsed_ns());
        self.violations = self
            .inner
            .iter()
            .flat_map(|m| m.violations().iter().cloned())
            .collect();
    }

    fn violations(&self) -> &[Violation] {
        &self.violations
    }
}
