//! # trim-experiments — the evaluation suite
//!
//! One module per table/figure of the paper's evaluation (Section IV),
//! each regenerating the corresponding result on the `netsim` + `trim-tcp`
//! stack. Every experiment describes its sweep as a `trim-harness`
//! [`Campaign`](trim_harness::Campaign): independent seeded jobs
//! executed on a work-stealing pool, with per-job CSV artifacts, resume,
//! and a run manifest under `results/`.
//!
//! Experiments run through the one campaign CLI (`cargo run --release
//! --bin trim-bench -- --only trace,kmodel --jobs 4`). Pass `--full` for
//! paper-scale parameters; the default "quick" effort uses smaller sweeps
//! so the whole suite finishes in minutes.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::dbg_macro, clippy::print_stdout, clippy::float_cmp)
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use trim_harness::{engine, CliArgs, ExecConfig};

pub mod experiments;
pub mod registry;

pub use trim_harness::table;
pub use trim_harness::{Effort, Table};

/// Executes a campaign into `results/` (all cores, resume enabled, no
/// progress output) and returns its reduce tables: the one-call runner
/// of the experiment modules' unit tests.
#[cfg(test)]
pub(crate) fn execute_quiet(campaign: trim_harness::Campaign) -> Vec<Table> {
    let cfg = ExecConfig {
        quiet: true,
        ..ExecConfig::default()
    };
    engine::execute(campaign, &cfg)
        .expect("campaign execution failed")
        .into_tables()
}

/// Drives a selection of experiments from parsed CLI options: the
/// `main` of `trim-bench`.
///
/// # Errors
///
/// Returns a message naming any unknown experiment id; I/O errors from
/// the result store are formatted into the message.
pub fn drive(args: &CliArgs) -> Result<(), String> {
    if args.list {
        for spec in registry::ALL {
            trim_harness::cli::emit(&format!("{:<16} {}", spec.id, spec.title));
        }
        return Ok(());
    }
    let selected: Vec<&registry::ExperimentSpec> = match &args.only {
        None => registry::ALL.iter().collect(),
        Some(ids) => ids
            .iter()
            .map(|id| {
                registry::find(id).ok_or_else(|| format!("unknown experiment '{id}' (see --list)"))
            })
            .collect::<Result<_, _>>()?,
    };
    let cfg = ExecConfig {
        jobs: args.jobs,
        force: args.force,
        results_dir: args.results_dir.clone(),
        quiet: args.quiet,
    };
    for spec in selected {
        let t0 = std::time::Instant::now(); // trim-lint: allow(no-wall-clock, reason = "per-experiment wall time for the console summary; never enters results")
        trim_harness::cli::emit(&format!("\n########## {} ##########", spec.title));
        let mut campaign = (spec.campaign)(args.effort);
        if let Some(seed) = args.seed {
            campaign = campaign.with_seed(seed);
        }
        let outcome = engine::execute(campaign, &cfg).map_err(|e| format!("{}: {e}", spec.id))?;
        for table in outcome.into_tables() {
            table.print();
        }
        trim_harness::cli::emit(&format!(
            "[{}: {:.1}s]",
            spec.id,
            t0.elapsed().as_secs_f64()
        ));
    }
    Ok(())
}

/// Runs `f` over `items` on worker threads, preserving input order.
///
/// Simulations are single-threaded and independent; experiment
/// *helpers* (ablations, cross-module sweeps that are not campaign
/// jobs) use this to spread repetitions across cores.
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let n = items.len();
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let queue: std::sync::Mutex<Vec<(usize, T)>> =
        std::sync::Mutex::new(items.into_iter().enumerate().collect());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..threads.min(n.max(1)) {
            handles.push(scope.spawn(|| {
                let mut done = Vec::new();
                loop {
                    let item = queue.lock().expect("queue poisoned").pop();
                    match item {
                        Some((i, t)) => done.push((i, f(t))),
                        None => break,
                    }
                }
                done
            }));
        }
        for h in handles {
            for (i, u) in h.join().expect("worker panicked") {
                slots[i] = Some(u);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Formats an `f64` exactly (shortest round-trip); job artifacts use
/// this so the reduce step recovers bit-identical values from CSV.
pub(crate) fn num(x: f64) -> String {
    table::num(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn registry_ids_are_unique_and_findable() {
        for spec in registry::ALL {
            assert_eq!(registry::find(spec.id).unwrap().id, spec.id);
        }
        let mut ids: Vec<_> = registry::ALL.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), registry::ALL.len());
    }

    #[test]
    fn drive_rejects_unknown_ids() {
        let args = CliArgs {
            only: Some(vec!["nope".into()]),
            ..CliArgs::default()
        };
        assert!(drive(&args).unwrap_err().contains("nope"));
    }
}
