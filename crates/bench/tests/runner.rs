//! End-to-end tests of the crash-safe, resumable runner layer: panic
//! isolation, the wall-clock watchdog, and the kill-then-`--resume`
//! round-trip ISSUE acceptance requires (the resumed run must produce the
//! same final JSON as an uninterrupted one, without re-executing
//! checkpointed cases).

use std::path::{Path, PathBuf};

use outerspace_bench::runner::{CaseResult, CaseStatus, Runner};
use outerspace_bench::{HarnessDefaults, HarnessOpts};
use outerspace_json::{parse, Json};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("outerspace-runner-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(out: &Path) -> HarnessOpts {
    HarnessOpts::parse(
        ["--out".to_string(), out.display().to_string()],
        HarnessDefaults { scale: 1, max_case_secs: 0.0 },
    )
    .unwrap()
}

#[test]
fn panicking_case_is_isolated_and_recorded() {
    let dir = scratch("panic");
    let mut runner = Runner::new("t", &opts(&dir));
    runner.run_case("before", || -> CaseResult<u64> { Ok(1) });
    runner.run_case("boom", || -> CaseResult<u64> { panic!("injected failure") });
    // The panic must not poison the runner: later cases still execute.
    runner.run_case("after", || -> CaseResult<u64> { Ok(2) });

    let by_name = |recs: &[outerspace_bench::runner::CaseRecord], n: &str| {
        recs.iter().find(|r| r.case == n).unwrap().clone()
    };
    let recs = runner.records().to_vec();
    assert_eq!(by_name(&recs, "before").status, CaseStatus::Ok);
    let boom = by_name(&recs, "boom");
    assert_eq!(boom.status, CaseStatus::Panicked);
    assert!(boom.error.as_deref().unwrap().contains("injected failure"));
    assert_eq!(by_name(&recs, "after").status, CaseStatus::Ok);

    let summary = runner.finalize();
    assert_eq!((summary.ok, summary.panicked), (2, 1));
    // The final dump records the failure as a structured row.
    let doc = parse(&std::fs::read_to_string(dir.join("t.json")).unwrap()).unwrap();
    let cases = doc.get("cases").unwrap().as_array().unwrap();
    assert_eq!(cases.len(), 3);
    assert_eq!(cases[1].get("status").unwrap().as_str(), Some("panicked"));
    assert_eq!(doc.get("manifest").unwrap().get("panicked").unwrap().as_u64(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn skip_reason_becomes_skipped_status() {
    let dir = scratch("skip");
    let mut runner = Runner::new("t", &opts(&dir));
    runner.run_case("nope", || -> CaseResult<u64> { Err("precondition failed".into()) });
    let rec = runner.records()[0].clone();
    assert_eq!(rec.status, CaseStatus::Skipped);
    assert_eq!(rec.error.as_deref(), Some("precondition failed"));
    assert_eq!(runner.finalize().skipped, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_trips_on_slow_case() {
    let dir = scratch("watchdog");
    let mut o = opts(&dir);
    o.max_case_secs = 0.25;
    let mut runner = Runner::new("t", &o);
    runner.run_case("slow", || -> CaseResult<u64> {
        std::thread::sleep(std::time::Duration::from_secs(30));
        Ok(0)
    });
    // The sweep moves on immediately; the abandoned worker keeps sleeping.
    runner.run_case("fast", || -> CaseResult<u64> { Ok(7) });
    let recs = runner.records().to_vec();
    assert_eq!(recs[0].status, CaseStatus::Timeout);
    assert!(recs[0].error.as_deref().unwrap().contains("max-case-secs"));
    assert!(recs[0].wall_s < 5.0, "watchdog did not fire early: {}", recs[0].wall_s);
    assert_eq!(recs[1].status, CaseStatus::Ok);
    assert_eq!(runner.finalize().timeout, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strips fields that legitimately differ between an interrupted-then-resumed
/// run and an uninterrupted one (wall-clock timings, the cache marker and the
/// tree's revision and dirty flag).
fn normalized(doc: &Json) -> Json {
    fn strip(j: &Json) -> Json {
        match j {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| {
                        !matches!(k.as_str(), "wall_s" | "cached" | "git_rev" | "git_dirty")
                    })
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    strip(doc)
}

type CaseFn = fn() -> CaseResult<u64>;

fn run_cases(runner: &mut Runner, upto: usize) {
    let cases: [(&str, CaseFn); 3] = [("a", || Ok(10)), ("b", || Ok(20)), ("c", || Ok(30))];
    for (name, f) in cases.iter().take(upto) {
        runner.run_case(name, *f);
    }
}

#[test]
fn kill_then_resume_reuses_checkpointed_cases() {
    // Reference: an uninterrupted run of all three cases.
    let ref_dir = scratch("resume-ref");
    let mut reference = Runner::new("t", &opts(&ref_dir));
    run_cases(&mut reference, 3);
    reference.finalize();
    let ref_doc = parse(&std::fs::read_to_string(ref_dir.join("t.json")).unwrap()).unwrap();

    // "Killed" run: two cases complete, then the runner is dropped without
    // finalize (as a SIGKILL would) — only the partial checkpoint remains.
    let dir = scratch("resume");
    let mut first = Runner::new("t", &opts(&dir));
    run_cases(&mut first, 2);
    assert_eq!(first.executed(), 2);
    drop(first);
    assert!(dir.join("t.partial.json").exists());
    assert!(!dir.join("t.json").exists());

    // Resumed run: drives all three cases, but only `c` actually executes.
    let mut o = opts(&dir);
    o.resume = true;
    let mut second = Runner::new("t", &o);
    run_cases(&mut second, 3);
    assert_eq!(second.executed(), 1, "checkpointed cases must not re-run");
    let cached: Vec<bool> = second.records().iter().map(|r| r.cached).collect();
    assert_eq!(cached, [true, true, false]);
    second.finalize();

    // The finalized artifact is identical to the uninterrupted run's, modulo
    // wall-clock noise, and the partial checkpoint is gone.
    let doc = parse(&std::fs::read_to_string(dir.join("t.json")).unwrap()).unwrap();
    assert_eq!(normalized(&doc), normalized(&ref_doc));
    assert!(!dir.join("t.partial.json").exists());

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_retries_failed_cases_and_respects_key() {
    let dir = scratch("retry");
    let mut first = Runner::new("t", &opts(&dir));
    first.run_case("good", || -> CaseResult<u64> { Ok(1) });
    first.run_case("flaky", || -> CaseResult<u64> { panic!("first attempt fails") });
    drop(first);

    // A panicked checkpoint is retried (and now succeeds).
    let mut o = opts(&dir);
    o.resume = true;
    let mut second = Runner::new("t", &o);
    second.run_case("good", || -> CaseResult<u64> { Ok(1) });
    second.run_case("flaky", || -> CaseResult<u64> { Ok(2) });
    assert_eq!(second.executed(), 1, "only the panicked case re-runs");
    assert_eq!(second.records()[1].status, CaseStatus::Ok);
    drop(second);

    // A checkpoint under a different (scale, seed) key is NOT reused.
    let mut o2 = opts(&dir);
    o2.resume = true;
    o2.seed = 999;
    let mut third = Runner::new("t", &o2);
    third.run_case("good", || -> CaseResult<u64> { Ok(1) });
    assert_eq!(third.executed(), 1, "different seed must invalidate the checkpoint");
    drop(third);

    // A checkpoint whose scale is 2^32 + 1 is malformed, not a scale-1 hit.
    let partial = dir.join("t.partial.json");
    let text = std::fs::read_to_string(&partial).unwrap();
    assert!(text.contains("\"scale\": 1,"), "{text}");
    std::fs::write(&partial, text.replace("\"scale\": 1,", "\"scale\": 4294967297,")).unwrap();
    let mut fourth = Runner::new("t", &o2);
    fourth.run_case("good", || -> CaseResult<u64> { Ok(1) });
    assert_eq!(fourth.executed(), 1, "an out-of-range scale must not alias scale 1");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_falls_back_to_final_dump() {
    // After finalize the partial is gone; a `--resume` run (as runall's
    // bounded retry issues) must still reuse the final dump's cases.
    let dir = scratch("final-fallback");
    let mut first = Runner::new("t", &opts(&dir));
    first.run_case("a", || -> CaseResult<u64> { Ok(10) });
    first.run_case("bad", || -> CaseResult<u64> { panic!("recorded failure") });
    first.finalize();
    assert!(!dir.join("t.partial.json").exists());

    let mut o = opts(&dir);
    o.resume = true;
    let mut second = Runner::new("t", &o);
    second.run_case("a", || -> CaseResult<u64> { Ok(10) });
    second.run_case("bad", || -> CaseResult<u64> { Ok(20) });
    assert_eq!(second.executed(), 1, "ok case reused from the final dump");
    assert_eq!(second.finalize().failures(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
