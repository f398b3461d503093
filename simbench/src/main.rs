//! `simbench` — runs one named workload for a host-time budget and
//! reports its metrics.
//!
//! ```text
//! simbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Repetitions run back to back in this process until the next one would
//! overrun `--seconds` (at least three). `--trace 0` reports the
//! end-to-end metrics (medians over repetitions, host times scaled to
//! the reference kernel's nominal speed); `--trace 1` interleaves
//! untraced and traced repetitions and reports the per-layer metrics.
//! A human-readable table goes to stderr; the last line of stdout is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--workload all` runs every workload in a child process of its own,
//! one after another.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};

use simbench::calib;
use simbench::clock::Stopwatch;
use simbench::stats::{median, peak_rss_mib, spread, tail};
use simbench::{golden_digest, Counts, Digest, Plan, Rep, Traced, Workload};
use trim_tcp::TcpHost;

const USAGE: &str =
    "usage: simbench --workload <incast_rto|incast_bulk|serve_fattree|incast_checked|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";
const MIN_REPS: usize = 3;

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("simbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let report = if args.trace {
        traced(w, &args)
    } else {
        untraced(w, &args)
    };
    report.print(w, &args);
    ExitCode::SUCCESS
}

/// Runs every workload in its own child process, relaying each child's
/// report; fails if any child fails or reports an incorrect run.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("simbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        match out {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                let last = stdout.lines().last().unwrap_or_default();
                ok &= out.status.success() && last.contains("\"correct\": true");
            }
            Err(e) => {
                eprintln!("simbench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Correctness bookkeeping across the repetitions of one run.
struct Book {
    attempted: u64,
    failed: u64,
    golden: Option<Digest>,
    reference: Option<Counts>,
}

impl Book {
    /// At the default seed every digest is checked against the committed
    /// one, and a missing committed digest is itself a failed check.
    fn new(w: Workload, seed: u64) -> Book {
        let mut book = Book {
            attempted: 0,
            failed: 0,
            golden: None,
            reference: None,
        };
        if seed == 0 {
            book.golden = golden_digest(w);
            if book.golden.is_none() {
                book.attempted += 1;
                book.verdict(vec!["no committed digest in digests.txt".into()]);
            }
        }
        book
    }

    /// Runs one repetition and checks it; returns it only when clean.
    /// Every repetition's counts must equal the first repetition's, and
    /// (at the default seed) its digest the committed one.
    fn attempt(&mut self, run: impl FnOnce() -> Rep) -> Option<Rep> {
        self.attempted += 1;
        let Ok(rep) = catch_unwind(AssertUnwindSafe(run)) else {
            self.failed += 1;
            return None;
        };
        let p = &rep.phases;
        eprintln!(
            "  rep {:>3}: setup {:.6} s (generate {:.6}, topology {:.6}, wire {:.6}) run {:.6} s collect {:.6} s",
            self.attempted, p.setup_s, p.generate_s, p.topology_s, p.wire_s, p.run_s, p.collect_s
        );
        let mut problems = rep.failures.clone();
        let reference = *self.reference.get_or_insert(rep.counts);
        if rep.counts != reference {
            problems.push(format!(
                "counts differ from the first repetition: {:?} vs {:?}",
                rep.counts, reference
            ));
        }
        if let Some(g) = self.golden {
            if rep.counts.digest != g {
                problems.push(format!("digest {} != committed {g}", rep.counts.digest));
            }
        }
        self.verdict(problems).then_some(rep)
    }

    fn verdict(&mut self, problems: Vec<String>) -> bool {
        for p in &problems {
            eprintln!("simbench: check failed: {p}");
        }
        if !problems.is_empty() {
            self.failed += 1;
        }
        problems.is_empty()
    }
}

/// Whether another repetition fits: at least [`MIN_REPS`], then only
/// while the last repetition's duration still fits the budget.
fn more(done: usize, budget: &Stopwatch, seconds: f64, last_s: f64) -> bool {
    done < MIN_REPS || budget.elapsed_s() + last_s <= seconds
}

/// One run's result: correctness counts and named metrics.
struct Report {
    book: Book,
    reps: usize,
    digest: Option<Digest>,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self, w: Workload, args: &Args) {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        eprintln!(
            "simbench {} seed {} {} · {} clean repetitions · nproc {nproc} · cpu {cpu}",
            w.name(),
            args.seed,
            if args.trace { "traced" } else { "untraced" },
            self.reps
        );
        if let Some(d) = self.digest {
            eprintln!("  digest {d}");
        }
        for m in &self.metrics {
            let (name, value, unit) = (m.name, m.value, m.unit);
            if m.samples.is_empty() {
                eprintln!("  {name:<26} {value:>16.6} {unit}");
                continue;
            }
            // The slow-side tail, for times only.
            let tail = matches!(unit, "s" | "ns")
                .then(|| tail(&m.samples))
                .flatten()
                .map(|(p, v)| format!("  p{p} {v:.6}"))
                .unwrap_or_default();
            eprintln!(
                "  {name:<26} {value:>16.6} {unit:<9} median of {}, spread {:.1}%{tail}",
                m.samples.len(),
                spread(&m.samples) * 100.0
            );
        }
        let fail_ratio = self.book.failed as f64 / self.book.attempted.max(1) as f64;
        eprintln!(
            "  {:<26} {fail_ratio:>16.6} ratio     ({} of {} failed)",
            "fail_ratio", self.book.failed, self.book.attempted
        );

        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.book.failed == 0 && self.reps > 0,
            self.book.attempted.max(1),
            self.book.failed,
            metrics.join(", ")
        );
    }
}

/// A named metric; `samples` holds the per-repetition values of a timed
/// metric (whose value is their median) and is empty for a count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: Vec<f64>,
}

/// A timed metric: the median over repetitions.
fn timed(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
    Metric {
        name,
        value: median(xs),
        unit,
        samples: xs.to_vec(),
    }
}

/// A single value: a deterministic count, or a figure for the whole run.
fn count(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Vec::new(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// End-to-end run: untraced repetitions only, each between two timings
/// of the reference kernel. Host times are reported scaled to the
/// kernel's nominal speed (see [`calib`]); the unscaled medians go to
/// stderr.
fn untraced(w: Workload, args: &Args) -> Report {
    let plan = w.plan(args.seed);
    let mut book = Book::new(w, args.seed);
    let budget = Stopwatch::start();
    let mut reps: Vec<(Rep, f64)> = Vec::new();
    let mut refs: Vec<f64> = Vec::new();
    let mut last_s = 0.0;
    let mut done = 0;
    while more(done, &budget, args.seconds, last_s) {
        done += 1;
        let t = Stopwatch::start();
        let before = calib::reference_s();
        let rep = book.attempt(|| plan.run::<TcpHost>());
        let after = calib::reference_s();
        let k = calib::scale(before, after);
        eprintln!("           reference {before:.6} s, {after:.6} s: scale {k:.4}");
        refs.extend([before, after]);
        reps.extend(rep.map(|r| (r, k)));
        last_s = t.elapsed_s();
    }
    let raw = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|(r, _)| f(r)).collect::<Vec<f64>>();
    eprintln!(
        "  unscaled medians: setup {:.6} s, run {:.6} s, wall {:.6} s; reference kernel {:.6} s (nominal {})",
        median(&raw(&|r| r.phases.setup_s)),
        median(&raw(&|r| r.phases.run_s)),
        median(&raw(&|r| r.phases.wall_s())),
        median(&refs),
        calib::NOMINAL_S
    );
    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(|(r, k)| f(r) * k).collect::<Vec<f64>>();
    let metrics = vec![
        timed("setup_s", "s", &col(&|r| r.phases.setup_s)),
        timed("run_s", "s", &col(&|r| r.phases.run_s)),
        timed("wall_s", "s", &col(&|r| r.phases.wall_s())),
        timed(
            "events_per_s",
            "events/s",
            &reps
                .iter()
                .map(|(r, k)| r.counts.digest.events as f64 / (r.phases.run_s * k))
                .collect::<Vec<f64>>(),
        ),
        count("peak_rss_mb", "MiB", peak_rss_mib().unwrap_or(0.0)),
    ];
    Report {
        book,
        reps: reps.len(),
        digest: reps.first().map(|(r, _)| r.counts.digest),
        metrics,
    }
}

/// Traced run: untraced and traced repetitions interleaved, so
/// `trace.overhead` compares like with like; the first untraced
/// repetition is also checked against the library entry point.
fn traced(w: Workload, args: &Args) -> Report {
    let plan = w.plan(args.seed);
    let mut book = Book::new(w, args.seed);
    let budget = Stopwatch::start();
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut last_s = 0.0;
    let mut first_calls = None;
    let mut done = 0;
    while more(done, &budget, args.seconds, last_s) {
        done += 1;
        let t = Stopwatch::start();
        if let Some(rep) = book.attempt(|| plan.run::<TcpHost>()) {
            if plain.is_empty() {
                check_library(&mut book, &plan, &rep);
            }
            plain.push(rep);
        }
        if let Some(rep) = book.attempt(|| plan.run::<Traced>()) {
            // Call counts are deterministic too: every traced
            // repetition must make exactly the first one's calls.
            let calls = [
                rep.hooks.packet.calls,
                rep.hooks.timer.calls,
                rep.hooks.observe.calls,
            ];
            let first = *first_calls.get_or_insert(calls);
            let problems = (calls != first)
                .then(|| format!("hook calls {calls:?} != first traced repetition's {first:?}"));
            if book.verdict(problems.into_iter().collect()) {
                traced.push(rep);
            }
        }
        last_s = t.elapsed_s();
    }
    let metrics = match traced.first() {
        Some(t0) => layer_metrics(t0, &traced, &plain),
        None => Vec::new(),
    };
    Report {
        book,
        reps: traced.len(),
        digest: traced.first().map(|r| r.counts.digest),
        metrics,
    }
}

/// Compares a repetition with the library entry point it reproduces;
/// the comparison counts as one attempted check.
fn check_library(book: &mut Book, plan: &Plan, rep: &Rep) {
    book.attempted += 1;
    let problems = match catch_unwind(AssertUnwindSafe(|| plan.check_against_library(rep))) {
        Ok(Ok(())) => vec![],
        Ok(Err(diff)) => vec![format!("library entry point disagrees: {diff}")],
        Err(_) => vec!["library entry point panicked".to_string()],
    };
    book.verdict(problems);
}

/// The per-layer metrics of a traced run.
fn layer_metrics(t0: &Rep, traced: &[Rep], plain: &[Rep]) -> Vec<Metric> {
    let col = |f: &dyn Fn(&Rep) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let agent_s = |r: &Rep| r.hooks.agent_ns() as f64 / 1e9;
    let observe_s = |r: &Rep| r.hooks.observe.ns as f64 / 1e9;
    let engine_s = |r: &Rep| r.phases.run_s - agent_s(r) - observe_s(r);
    let c = &t0.counts;
    let h = &t0.hooks;
    let calls = h.packet.calls + h.timer.calls;
    let plain_run: Vec<f64> = plain.iter().map(|r| r.phases.run_s).collect();
    let overhead = median(&col(&|r| r.phases.run_s)) / median(&plain_run);
    vec![
        timed("workload.generate_s", "s", &col(&|r| r.phases.generate_s)),
        timed("netsim.topology_s", "s", &col(&|r| r.phases.topology_s)),
        timed("tcp.wire_s", "s", &col(&|r| r.phases.wire_s)),
        timed("tcp.agent_s", "s", &col(&agent_s)),
        count("tcp.packet_calls", "count", h.packet.calls as f64),
        count("tcp.timer_calls", "count", h.timer.calls as f64),
        timed(
            "tcp.ns_per_timer_call",
            "ns",
            &col(&|r| ratio(r.hooks.timer.ns, r.hooks.timer.calls)),
        ),
        timed(
            "tcp.ns_per_packet_call",
            "ns",
            &col(&|r| ratio(r.hooks.packet.ns, r.hooks.packet.calls)),
        ),
        timed("netsim.engine_s", "s", &col(&engine_s)),
        timed(
            "netsim.ns_per_event",
            "ns",
            &col(&|r| engine_s(r) * 1e9 / r.counts.digest.events.max(1) as f64),
        ),
        count("netsim.events", "count", c.digest.events as f64),
        count(
            "netsim.events_per_call",
            "ratio",
            ratio(c.digest.events, calls),
        ),
        count("netsim.pkts_injected", "count", c.injected as f64),
        count("netsim.pkts_delivered", "count", c.digest.delivered as f64),
        count("netsim.pkts_dropped", "count", c.digest.dropped as f64),
        count(
            "netsim.drop_ratio",
            "ratio",
            ratio(c.digest.dropped, c.injected),
        ),
        count(
            "netsim.arena_high_water",
            "count",
            c.arena_high_water as f64,
        ),
        count("tcp.pkts_sent", "count", c.conn.pkts_sent as f64),
        count("tcp.rtx_sent", "count", c.conn.rtx_sent as f64),
        count(
            "tcp.rtx_ratio",
            "ratio",
            ratio(c.conn.rtx_sent, c.conn.pkts_sent),
        ),
        count("tcp.timeouts", "count", c.conn.timeouts as f64),
        count(
            "tcp.fast_retransmits",
            "count",
            c.conn.fast_retransmits as f64,
        ),
        count("tcp.acks", "count", c.conn.acks_received as f64),
        count("tcp.dup_acks", "count", c.conn.dup_acks_received as f64),
        count("tcp.probes_sent", "count", c.conn.probes_sent as f64),
        count("tcp.slab_high_water", "slots", c.slab_high_water as f64),
        timed("check.observe_s", "s", &col(&observe_s)),
        count("check.observed", "count", h.observe.calls as f64),
        timed(
            "check.ns_per_observe",
            "ns",
            &col(&|r| ratio(r.hooks.observe.ns, r.hooks.observe.calls)),
        ),
        count("check.violations", "count", c.violations as f64),
        timed("workload.collect_s", "s", &col(&|r| r.phases.collect_s)),
        count(
            "workload.completed_ratio",
            "ratio",
            ratio(c.digest.completed, c.planned),
        ),
        count("trace.overhead", "ratio", overhead),
    ]
}
