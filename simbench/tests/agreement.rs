//! The benchmark's runners must measure the real entry points: they
//! reproduce `run_scale_incast` and `trim_serve::run` exactly, tracing
//! only observes, and the seed argument is honoured.

use simbench::drive::{bulk_config, rto_config, serve_config};
use simbench::{golden_digest, Digest, Plan, Rep, Traced, Workload};
use trim_tcp::TcpHost;
use trim_workload::scale::{run_scale_incast, ScaleConfig};

/// A debug-build-sized version of each workload's plan.
fn small(w: Workload, seed: u64) -> Plan {
    match w.plan(seed) {
        Plan::Incast { mut cfg, monitors } => {
            cfg.flows = cfg.flows.min(3_000);
            cfg.bytes_per_flow = cfg.bytes_per_flow.min(300_000);
            Plan::Incast { cfg, monitors }
        }
        Plan::Serve(mut cfg) => {
            cfg.model.sessions = 300;
            Plan::Serve(cfg)
        }
    }
}

fn clean(rep: &Rep) {
    assert!(rep.failures.is_empty(), "{:?}", rep.failures);
}

fn incast_agrees(cfg: ScaleConfig) {
    let plan = Plan::Incast {
        cfg: cfg.clone(),
        monitors: false,
    };
    let rep = plan.run::<TcpHost>();
    clean(&rep);
    plan.check_against_library(&rep).unwrap();
    assert_eq!(rep.summary, run_scale_incast(&cfg).act, "ACT summary");
}

#[test]
fn incast_runner_reproduces_run_scale_incast() {
    incast_agrees(bulk_config(12, 200_000, 0x5ca1e));
    incast_agrees(bulk_config(20, 50_000, 99));
    let mut reno = ScaleConfig::with_flows(40);
    reno.bytes_per_flow = 30_000;
    incast_agrees(reno);
}

#[test]
fn incast_runner_reproduces_packed_senders() {
    // 2 500 flows packed 1 000 per host: three sender hosts, the last
    // one partly filled.
    incast_agrees(rto_config(2_500, 0x5ca1e));
    let mut packed = ScaleConfig::with_flows(200);
    packed.bytes_per_flow = 10_000;
    packed.senders_per_host = 50;
    incast_agrees(packed);
}

#[test]
fn serve_runner_reproduces_trim_serve_run() {
    for (sessions, seed) in [(200, 1), (150, 9)] {
        let cfg = serve_config(sessions, seed);
        let plan = Plan::Serve(Box::new(cfg.clone()));
        let rep = plan.run::<TcpHost>();
        clean(&rep);
        let lib = trim_serve::run(&cfg);
        assert_eq!(rep.counts.digest.events, lib.events_processed);
        assert_eq!(rep.counts.digest.completed, lib.requests_completed);
        assert_eq!(rep.counts.digest.timeouts, lib.timeouts);
        assert_eq!(rep.summary, lib.arct, "ARCT summary");
        plan.check_against_library(&rep).unwrap();
    }
}

#[test]
fn tracing_only_observes_on_every_workload() {
    for w in Workload::ALL {
        let plan = small(w, 0);
        let plain = plan.run::<TcpHost>();
        let traced = plan.run::<Traced>();
        clean(&plain);
        clean(&traced);
        assert_eq!(plain.counts, traced.counts, "{}", w.name());
        assert_eq!(
            plain.hooks,
            Default::default(),
            "untraced runs record nothing"
        );
        let h = traced.hooks;
        assert!(
            h.packet.calls > 0 && h.timer.calls > 0,
            "{}: {h:?}",
            w.name()
        );
        assert!(
            h.packet.calls + h.timer.calls <= traced.counts.digest.events,
            "every hook call is dispatched by one event"
        );
        let checked = w == Workload::IncastChecked;
        assert_eq!(
            h.observe.calls > 0,
            checked,
            "{}: monitors observe only when attached",
            w.name()
        );
        // A second traced run makes exactly the same calls.
        let again = plan.run::<Traced>();
        assert_eq!(again.counts, traced.counts);
        assert_eq!(
            (
                again.hooks.packet.calls,
                again.hooks.timer.calls,
                again.hooks.observe.calls
            ),
            (h.packet.calls, h.timer.calls, h.observe.calls)
        );
    }
}

#[test]
fn monitors_leave_the_bulk_incast_unchanged() {
    let bulk = small(Workload::IncastBulk, 0).run::<TcpHost>();
    let checked = small(Workload::IncastChecked, 0).run::<TcpHost>();
    clean(&checked);
    assert_eq!(bulk.counts, checked.counts);
}

#[test]
fn seed_argument_changes_inputs_and_stays_deterministic() {
    for w in Workload::ALL {
        let a = small(w, 7).run::<TcpHost>();
        let b = small(w, 7).run::<TcpHost>();
        clean(&a);
        assert_eq!(a.counts, b.counts, "{}: seed 7 is deterministic", w.name());
        assert_eq!(a.summary, b.summary);
        // The seed moves start or arrival times, which shows in the
        // completion times even where the counts coincide.
        let d = small(w, 0).run::<TcpHost>();
        assert_ne!(
            a.summary,
            d.summary,
            "{}: seed 7 differs from the default",
            w.name()
        );
    }
}

#[test]
fn every_workload_has_a_committed_digest() {
    for w in Workload::ALL {
        let d = golden_digest(w).unwrap_or_else(|| panic!("no digest for {}", w.name()));
        assert_eq!(Digest::parse(&d.to_string()), Some(d));
        assert!(d.events > 0 && d.delivered > 0 && d.completed > 0);
    }
    assert_eq!(Digest::parse("events=1 delivered=2"), None);
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("incast"), None);
}
