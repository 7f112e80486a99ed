//! Consolidated driver: runs the figure/table harnesses in-process, each
//! with crash isolation, checkpointing and `--resume`, with bounded retry
//! and a final pass/fail/skip report. `runall --only NAME` runs one.
//!
//! Flags: `--smoke`, `--only NAME` (repeatable) and `--max-retries N`
//! belong to the driver; every other flag (`--scale N`, `--full`,
//! `--seed N`, `--out DIR`, `--resume`, `--max-case-secs S`) goes to every
//! harness over its own defaults. See [`RunallArgs`] for the resolution.
//!
//! Exit status: 0 when every harness completed (case-level failures are
//! *recorded*, not fatal); 1 only if a harness crashed at driver level on
//! every attempt; 2 on a malformed command line.

use std::panic::AssertUnwindSafe;

use outerspace_bench::harnesses::{Harness, RunallArgs};
use outerspace_bench::runner::{git_dirty, git_rev};
use outerspace_bench::{HarnessOpts, USAGE};
use outerspace_json::{dump, Json, ToJson};

/// Final per-harness line of the consolidated report.
struct HarnessReport {
    harness: String,
    attempts: u32,
    total: usize,
    ok: usize,
    skipped: usize,
    panicked: usize,
    timeout: usize,
    cached: usize,
    wall_s: f64,
    crashed: bool,
    error: Option<String>,
    out_path: String,
}

outerspace_json::impl_to_json!(HarnessReport {
    harness,
    attempts,
    total,
    ok,
    skipped,
    panicked,
    timeout,
    cached,
    wall_s,
    crashed,
    error,
    out_path,
});

/// Drives one harness with bounded retry. Retries always set `--resume`, so
/// checkpointed `ok`/`skipped` cases are reused and only the failed or
/// unfinished ones re-execute.
fn drive(h: &Harness, mut opts: HarnessOpts, max_retries: u32) -> HarnessReport {
    let attempts_max = 1 + max_retries;
    let mut attempt = 0;
    loop {
        attempt += 1;
        let run = h.run;
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run(&opts)));
        match outcome {
            Ok(summary) => {
                let failures = summary.failures();
                if failures > 0 && attempt < attempts_max {
                    eprintln!(
                        "# runall: {} has {failures} failed case(s); retrying with --resume \
                         (attempt {}/{attempts_max})",
                        h.name,
                        attempt + 1
                    );
                    opts.resume = true;
                    continue;
                }
                return HarnessReport {
                    harness: summary.harness,
                    attempts: attempt,
                    total: summary.total,
                    ok: summary.ok,
                    skipped: summary.skipped,
                    panicked: summary.panicked,
                    timeout: summary.timeout,
                    cached: summary.cached,
                    wall_s: summary.wall_s,
                    crashed: false,
                    error: summary.write_error,
                    out_path: summary.out_path,
                };
            }
            Err(payload) => {
                // A crash *outside* any case (workload generation in the
                // harness body, finalize, ...). Case-level panics never land
                // here — the runner catches them.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic payload of unknown type".to_string());
                eprintln!("# runall: {} crashed at driver level: {msg}", h.name);
                if attempt < attempts_max {
                    eprintln!(
                        "# runall: retrying {} with --resume (attempt {}/{attempts_max})",
                        h.name,
                        attempt + 1
                    );
                    opts.resume = true;
                    continue;
                }
                return HarnessReport {
                    harness: h.name.to_string(),
                    attempts: attempt,
                    total: 0,
                    ok: 0,
                    skipped: 0,
                    panicked: 0,
                    timeout: 0,
                    cached: 0,
                    wall_s: 0.0,
                    crashed: true,
                    error: Some(msg),
                    out_path: String::new(),
                };
            }
        }
    }
}

fn main() {
    let cli = match RunallArgs::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: runall [--smoke] [--only NAME]... [--max-retries N] {USAGE}");
            std::process::exit(2);
        }
    };
    // Seed, output directory, `full` and `resume` are the same for every
    // harness in the (never empty) lineup.
    let shared = &cli.lineup[0].1;

    let started = std::time::Instant::now();
    let events_path = shared.out_dir.join("runall.events.jsonl");
    let mut reports: Vec<HarnessReport> = Vec::new();
    for (i, (h, opts)) in cli.lineup.iter().enumerate() {
        eprintln!("\n=== [{}/{}] {} ===", i + 1, cli.lineup.len(), h.name);
        let report = drive(h, opts.clone(), cli.max_retries);
        if let Err(e) = dump::append_jsonl(&events_path, &report.to_json()) {
            eprintln!("warning: cannot append to {}: {e}", events_path.display());
        }
        reports.push(report);
    }

    // --- Consolidated report. ---
    println!("\n# runall report");
    println!(
        "{:<14} {:>4} {:>4} {:>5} {:>5} {:>5} {:>7} {:>9}  status",
        "harness", "ok", "skip", "panic", "tmout", "cache", "tries", "wall"
    );
    let mut crashed = 0usize;
    let mut with_failures = 0usize;
    for r in &reports {
        let status = if r.crashed {
            crashed += 1;
            "CRASHED"
        } else if r.panicked + r.timeout > 0 {
            with_failures += 1;
            "FAILURES"
        } else {
            "pass"
        };
        println!(
            "{:<14} {:>4} {:>4} {:>5} {:>5} {:>5} {:>7} {:>8.1}s  {status}",
            r.harness, r.ok, r.skipped, r.panicked, r.timeout, r.cached, r.attempts, r.wall_s
        );
    }
    println!(
        "# {} harness(es): {} clean, {} with failed cases, {} crashed; total {:.1}s",
        reports.len(),
        reports.len() - with_failures - crashed,
        with_failures,
        crashed,
        started.elapsed().as_secs_f64()
    );

    let manifest = Json::Obj(vec![
        ("seed".into(), Json::UInt(shared.seed)),
        ("smoke".into(), Json::Bool(cli.smoke)),
        ("full".into(), Json::Bool(shared.full)),
        ("resume".into(), Json::Bool(shared.resume)),
        ("max_retries".into(), Json::UInt(cli.max_retries as u64)),
        ("git_rev".into(), Json::Str(git_rev())),
        ("git_dirty".into(), git_dirty()),
        ("wall_s".into(), Json::Float(started.elapsed().as_secs_f64())),
        ("harnesses_total".into(), Json::UInt(reports.len() as u64)),
        ("clean".into(), Json::UInt((reports.len() - with_failures - crashed) as u64)),
        ("with_failures".into(), Json::UInt(with_failures as u64)),
        ("crashed".into(), Json::UInt(crashed as u64)),
    ]);
    let doc = Json::Obj(vec![
        ("manifest".into(), manifest),
        ("harnesses".into(), Json::Arr(reports.iter().map(|r| r.to_json()).collect())),
    ]);
    let report_path = shared.out_dir.join("runall.json");
    match dump::write_json_atomic(&report_path, &doc) {
        Ok(()) => eprintln!("(consolidated report written to {})", report_path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", report_path.display()),
    }

    // Case-level failures are recorded, not fatal; only a driver-level crash
    // that survived every retry fails the run.
    std::process::exit(if crashed > 0 { 1 } else { 0 });
}
