//! `trim-perf` — measure the event engine and maintain its committed
//! performance baselines.
//!
//! ```text
//! trim-perf                  # micro suite + incast 1k/10k/100k/1m + churn
//! trim-perf --smoke          # re-measure the 1k incast, compare vs the
//!                            # committed baseline, exit 1 on >5x regression
//! trim-perf --smoke-1m       # reduced-horizon million-flow incast vs the
//!                            # committed incast_1m baseline, same 5x gate
//! trim-perf --out DIR        # results root (default results/)
//! trim-perf --baseline FILE  # smoke baseline
//!                            # (default results/perf/incast_1k.json,
//!                            #  incast_1m.json for --smoke-1m)
//! ```
//!
//! Full runs write one JSON per benchmark under `<out>/perf/`; `--smoke`
//! writes nothing. Wall-clock numbers live only in these files, never in
//! campaign CSVs, so the golden artifacts stay byte-identical.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use trim_harness::ResultStore;
use trim_perf::{
    baseline_events_per_sec, churn_macro, incast_macro, macro_json, micro_json, micro_suite,
    smoke_verdict, SmokeVerdict, INCAST_POINTS, REGRESSION_FACTOR,
};
use trim_workload::scale::ScaleConfig;

struct Options {
    smoke: bool,
    smoke_1m: bool,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        smoke_1m: false,
        out: "results".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--smoke-1m" => opts.smoke_1m = true,
            "--out" => opts.out = args.next().ok_or("--out needs a directory")?,
            "--baseline" => opts.baseline = Some(args.next().ok_or("--baseline needs a file")?),
            "--help" | "-h" => {
                println!(
                    "usage: trim-perf [--smoke] [--smoke-1m] [--out DIR] \
                     [--baseline FILE]\n\
                     Measures the event engine; writes JSON baselines under <out>/perf/."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}' (see --help)")),
        }
    }
    if opts.smoke && opts.smoke_1m {
        return Err("--smoke and --smoke-1m are mutually exclusive".into());
    }
    Ok(opts)
}

fn print_macro(r: &trim_perf::MacroResult) {
    println!(
        "perf {:<12} flows {:>7}  events {:>10}  wall {:>7.2}s  {:>12.0} events/s  \
         completed {}  drops {}  rtos {}",
        r.name, r.flows, r.events, r.wall_s, r.events_per_sec, r.completed, r.dropped, r.timeouts,
    );
}

fn smoke(name: &str, cfg: &ScaleConfig, baseline_path: &str) -> ExitCode {
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "trim-perf: cannot read baseline {baseline_path}: {e}\n\
                 (run `trim-perf` once and commit results/perf/ to create it)"
            );
            return ExitCode::FAILURE;
        }
    };
    let Some(base_eps) = baseline_events_per_sec(&baseline) else {
        eprintln!("trim-perf: baseline {baseline_path} has no events_per_sec field");
        return ExitCode::FAILURE;
    };
    let r = incast_macro(name, cfg);
    print_macro(&r);
    let ratio = r.events_per_sec / base_eps;
    println!(
        "smoke: {:.0} events/s vs baseline {base_eps:.0} ({:.2}x); \
         hard floor is baseline/{REGRESSION_FACTOR}",
        r.events_per_sec, ratio,
    );
    match smoke_verdict(r.events_per_sec, base_eps) {
        SmokeVerdict::Ok => {
            if ratio < 1.0 {
                println!("smoke: slower than baseline but within the informational threshold");
            }
            ExitCode::SUCCESS
        }
        SmokeVerdict::Regressed => {
            eprintln!(
                "trim-perf: PERF REGRESSION — {name} runs {:.1}x slower than the \
                 committed baseline",
                1.0 / ratio
            );
            ExitCode::FAILURE
        }
    }
}

fn full(opts: &Options) -> ExitCode {
    let store = ResultStore::new(&opts.out);
    let mut failures = 0;
    let mut write = |rel: String, contents: String| {
        if let Err(e) = store.write_text_artifact(&rel, &contents) {
            eprintln!("trim-perf: writing {rel}: {e}");
            failures += 1;
        }
    };

    let micro = micro_suite(2_000_000);
    for m in &micro {
        println!(
            "perf micro/{:<22} ops {:>9}  wall {:>6.2}s  {:>12.0} ops/s",
            m.name, m.ops, m.wall_s, m.ops_per_sec
        );
    }
    write("perf/micro.json".into(), micro_json(&micro));

    for &(name, flows) in INCAST_POINTS {
        let r = incast_macro(name, &ScaleConfig::with_flows(flows));
        print_macro(&r);
        write(format!("perf/{name}.json"), macro_json(&r));
    }

    let r = incast_macro("incast_1m", &ScaleConfig::million_flow());
    print_macro(&r);
    write("perf/incast_1m.json".into(), macro_json(&r));

    let churn = churn_macro(200, 25, 8_000);
    print_macro(&churn);
    write("perf/churn.json".into(), macro_json(&churn));

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("trim-perf: {msg}");
            return ExitCode::from(2);
        }
    };
    if opts.smoke {
        let baseline = opts
            .baseline
            .as_deref()
            .unwrap_or("results/perf/incast_1k.json");
        smoke("incast_1k", &ScaleConfig::with_flows(1_000), baseline)
    } else if opts.smoke_1m {
        // Reduced horizon: same workload shape as the committed
        // incast_1m baseline, cut short so the CI gate stays cheap.
        // events/sec is horizon-insensitive, so the 5x gate still holds.
        let mut cfg = ScaleConfig::million_flow();
        cfg.horizon = netsim::time::Dur::from_millis(1_500);
        let baseline = opts
            .baseline
            .as_deref()
            .unwrap_or("results/perf/incast_1m.json");
        smoke("incast_1m", &cfg, baseline)
    } else {
        full(&opts)
    }
}
