//! Crash-safe, resumable execution of benchmark cases.
//!
//! The paper's evaluation is regenerated by long sweeps where a single
//! panicking case, a runaway case, or a `^C` used to discard every completed
//! row. This layer gives every figure/table harness the same discipline a
//! preemption-tolerant batch job has:
//!
//! * each case runs on its own thread under [`std::panic::catch_unwind`]
//!   with a wall-clock watchdog (`--max-case-secs`), so a panic or a hang
//!   degrades to a structured `panicked`/`timeout` row instead of aborting
//!   the sweep;
//! * after every case the full record list is checkpointed atomically
//!   (temp file + rename, see [`outerspace_json::dump::write_atomic`]) to
//!   `<out>/<name>.partial.json`;
//! * `--resume` reuses checkpointed `ok`/`skipped` cases — matching on the
//!   `(case, scale, seed)` key — and re-executes only unfinished or failed
//!   ones;
//! * [`Runner::finalize`] writes `<out>/<name>.json` with a run manifest
//!   (seed, scale, git revision, wall time, per-status counts) and removes
//!   the partial file.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use outerspace_json::{dump, Json, ToJson};

use crate::HarnessOpts;

/// How a case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseStatus {
    /// The case ran to completion and produced a value.
    Ok,
    /// The case declined to run (e.g. a precondition failed) with a reason.
    Skipped,
    /// The case panicked; the payload is recorded in `error`.
    Panicked,
    /// The case exceeded `--max-case-secs` and was abandoned.
    Timeout,
}

impl CaseStatus {
    /// Stable lowercase name used in the JSON dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            CaseStatus::Ok => "ok",
            CaseStatus::Skipped => "skipped",
            CaseStatus::Panicked => "panicked",
            CaseStatus::Timeout => "timeout",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(CaseStatus::Ok),
            "skipped" => Some(CaseStatus::Skipped),
            "panicked" => Some(CaseStatus::Panicked),
            "timeout" => Some(CaseStatus::Timeout),
            _ => None,
        }
    }
}

/// Result of the closure a case runs: the row value, or a reason to record
/// the case as [`CaseStatus::Skipped`].
pub type CaseResult<R> = Result<R, String>;

/// One executed (or checkpoint-reused) case.
#[derive(Debug, Clone)]
pub struct CaseRecord {
    /// Case name, unique within the harness (part of the resume key).
    pub case: String,
    /// `--scale` the case ran under (part of the resume key).
    pub scale: u32,
    /// `--seed` the case ran under (part of the resume key).
    pub seed: u64,
    /// How the case ended.
    pub status: CaseStatus,
    /// Panic payload, timeout description, or skip reason.
    pub error: Option<String>,
    /// Wall-clock seconds this case took (0 when reused from a checkpoint).
    pub wall_s: f64,
    /// True when the record was reused from a checkpoint instead of re-run.
    pub cached: bool,
    /// The row value for `ok` cases.
    pub value: Option<Json>,
}

impl CaseRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("case".into(), Json::Str(self.case.clone())),
            ("scale".into(), Json::UInt(self.scale as u64)),
            ("seed".into(), Json::UInt(self.seed)),
            ("status".into(), Json::Str(self.status.as_str().into())),
            ("error".into(), self.error.as_deref().map(|e| e.to_json()).unwrap_or(Json::Null)),
            ("wall_s".into(), Json::Float(self.wall_s)),
            ("cached".into(), Json::Bool(self.cached)),
            ("value".into(), self.value.clone().unwrap_or(Json::Null)),
        ])
    }

    fn from_json(j: &Json) -> Option<CaseRecord> {
        Some(CaseRecord {
            case: j.get("case")?.as_str()?.to_string(),
            scale: u32::try_from(j.get("scale")?.as_u64()?).ok()?,
            seed: j.get("seed")?.as_u64()?,
            status: CaseStatus::from_str(j.get("status")?.as_str()?)?,
            error: j.get("error").and_then(Json::as_str).map(str::to_string),
            wall_s: j.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
            cached: false, // recomputed: anything loaded from disk is a cache hit
            value: match j.get("value") {
                Some(Json::Null) | None => None,
                Some(v) => Some(v.clone()),
            },
        })
    }
}

/// Summary returned by [`Runner::finalize`] (and serialized into the
/// `runall` consolidated report).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Harness name (the `<name>` of `<name>.json`).
    pub harness: String,
    /// Total cases attempted or reused.
    pub total: usize,
    /// Cases that completed with a value.
    pub ok: usize,
    /// Cases that declined to run.
    pub skipped: usize,
    /// Cases that panicked.
    pub panicked: usize,
    /// Cases abandoned by the watchdog.
    pub timeout: usize,
    /// Cases reused from a checkpoint (`--resume`).
    pub cached: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Where the final JSON landed.
    pub out_path: String,
    /// Set when the final JSON could not be written.
    pub write_error: Option<String>,
}

outerspace_json::impl_to_json!(RunSummary {
    harness,
    total,
    ok,
    skipped,
    panicked,
    timeout,
    cached,
    wall_s,
    out_path,
    write_error,
});

impl RunSummary {
    /// Cases that ended in `panicked` or `timeout`.
    pub fn failures(&self) -> usize {
        self.panicked + self.timeout
    }
}

/// Best-effort git revision: walks up from the current directory reading
/// `.git/HEAD` (and `packed-refs` for packed branches). `"unknown"` when the
/// repository cannot be found — never an error, the manifest is advisory.
pub fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let head = d.join(".git/HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim().to_string();
            let Some(refname) = text.strip_prefix("ref: ") else {
                return text; // detached HEAD: the hash itself
            };
            if let Ok(rev) = std::fs::read_to_string(d.join(".git").join(refname)) {
                return rev.trim().to_string();
            }
            if let Ok(packed) = std::fs::read_to_string(d.join(".git/packed-refs")) {
                for line in packed.lines() {
                    if let Some((hash, name)) = line.split_once(' ') {
                        if name == refname {
                            return hash.to_string();
                        }
                    }
                }
            }
            return "unknown".to_string();
        }
        dir = d.parent().map(PathBuf::from);
    }
    "unknown".to_string()
}

/// Extracts a named `f64` field from a row value (integers widen). Used by
/// harness summary sections, which aggregate over checkpointed rows that may
/// have been loaded back from JSON rather than computed this run.
pub fn field_f64(row: &Json, key: &str) -> Option<f64> {
    row.get(key).and_then(Json::as_f64)
}

/// Converts a panic payload into a printable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Executes `f` on a watchdogged worker thread, catching panics.
fn execute<R, F>(case: &str, f: F, limit: Option<Duration>) -> (CaseStatus, Option<String>, Option<Json>)
where
    R: ToJson + Send + 'static,
    F: FnOnce() -> CaseResult<R> + Send + 'static,
{
    // The worker converts to `Json` on its own thread so only plain data
    // crosses the channel; the outer `Err` is the panic message.
    type Wire = Result<Result<Json, String>, String>;
    let (tx, rx) = mpsc::channel::<Wire>();
    let worker = std::thread::Builder::new()
        .name(format!("case-{case}"))
        .spawn(move || {
            let out = std::panic::catch_unwind(AssertUnwindSafe(f));
            let wire: Wire = match out {
                Ok(Ok(v)) => Ok(Ok(v.to_json())),
                Ok(Err(skip)) => Ok(Err(skip)),
                Err(payload) => Err(panic_message(payload)),
            };
            let _ = tx.send(wire);
        });
    let worker = match worker {
        Ok(h) => h,
        Err(e) => {
            return (CaseStatus::Panicked, Some(format!("failed to spawn case thread: {e}")), None)
        }
    };
    let received = match limit {
        Some(d) => rx.recv_timeout(d),
        None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
    };
    match received {
        Ok(wire) => {
            // The worker has sent its result; joining cannot block for long.
            let _ = worker.join();
            match wire {
                Ok(Ok(value)) => (CaseStatus::Ok, None, Some(value)),
                Ok(Err(skip)) => (CaseStatus::Skipped, Some(skip), None),
                Err(msg) => (CaseStatus::Panicked, Some(msg), None),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Abandon the worker: Rust threads cannot be killed, so it keeps
            // running detached while the sweep moves on. Its eventual result
            // lands in a dropped channel.
            let secs = limit.map(|d| d.as_secs_f64()).unwrap_or(0.0);
            (
                CaseStatus::Timeout,
                Some(format!("exceeded --max-case-secs {secs} (worker abandoned)")),
                None,
            )
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = worker.join();
            (
                CaseStatus::Panicked,
                Some("case worker exited without reporting a result".to_string()),
                None,
            )
        }
    }
}

/// Sequential case driver with panic isolation, watchdog, checkpointing, and
/// resume. One `Runner` regenerates one figure/table artifact.
pub struct Runner {
    name: String,
    opts: HarnessOpts,
    records: Vec<CaseRecord>,
    checkpoint: Vec<CaseRecord>,
    started: Instant,
    executed: usize,
}

impl Runner {
    /// Creates a runner for artifact `name`. With `--resume`, previously
    /// checkpointed records are loaded from `<out>/<name>.partial.json`, or
    /// from a previous final `<out>/<name>.json` if no partial exists.
    pub fn new(name: &str, opts: &HarnessOpts) -> Runner {
        let mut runner = Runner {
            name: name.to_string(),
            opts: opts.clone(),
            records: Vec::new(),
            checkpoint: Vec::new(),
            started: Instant::now(),
            executed: 0,
        };
        if opts.resume {
            runner.checkpoint = runner.load_checkpoint();
            if !runner.checkpoint.is_empty() {
                eprintln!(
                    "# {name}: --resume found {} checkpointed case(s)",
                    runner.checkpoint.len()
                );
            }
        }
        runner
    }

    fn partial_path(&self) -> PathBuf {
        self.opts.out_dir.join(format!("{}.partial.json", self.name))
    }

    fn final_path(&self) -> PathBuf {
        self.opts.out_dir.join(format!("{}.json", self.name))
    }

    fn load_checkpoint(&self) -> Vec<CaseRecord> {
        // Prefer the partial (an interrupted run); fall back to the cases of
        // a finalized dump so `runall`'s retry passes re-run only failures.
        let from_partial = std::fs::read_to_string(self.partial_path())
            .ok()
            .and_then(|text| outerspace_json::parse(&text).ok())
            .and_then(|j| j.as_array().map(<[Json]>::to_vec));
        let cases = from_partial.or_else(|| {
            std::fs::read_to_string(self.final_path())
                .ok()
                .and_then(|text| outerspace_json::parse(&text).ok())
                .and_then(|j| j.get("cases").and_then(Json::as_array).map(<[Json]>::to_vec))
        });
        cases
            .unwrap_or_default()
            .iter()
            .filter_map(CaseRecord::from_json)
            .collect()
    }

    /// Runs one case (or reuses its checkpoint) and returns its row value.
    ///
    /// The closure executes on a worker thread so it must own its inputs
    /// (`Send + 'static`); panics and watchdog expiries become structured
    /// records instead of aborting the run. Returns `None` for
    /// skipped/panicked/timed-out cases.
    pub fn run_case<R, F>(&mut self, case: &str, f: F) -> Option<Json>
    where
        R: ToJson + Send + 'static,
        F: FnOnce() -> CaseResult<R> + Send + 'static,
    {
        if let Some(prev) = self
            .checkpoint
            .iter()
            .find(|r| r.case == case && r.scale == self.opts.scale && r.seed == self.opts.seed)
        {
            if matches!(prev.status, CaseStatus::Ok | CaseStatus::Skipped) {
                let mut rec = prev.clone();
                rec.cached = true;
                eprintln!("# case {case}: reused from checkpoint ({})", rec.status.as_str());
                let value = rec.value.clone();
                self.records.push(rec);
                self.write_partial();
                return value;
            }
            eprintln!("# case {case}: checkpointed as {}, retrying", prev.status.as_str());
        }
        self.executed += 1;
        let limit = if self.opts.max_case_secs > 0.0 {
            Some(Duration::from_secs_f64(self.opts.max_case_secs))
        } else {
            None
        };
        let t0 = Instant::now();
        let (status, error, value) = execute(case, f, limit);
        if status != CaseStatus::Ok {
            eprintln!(
                "# case {case}: {} ({})",
                status.as_str(),
                error.as_deref().unwrap_or("no detail")
            );
        }
        let rec = CaseRecord {
            case: case.to_string(),
            scale: self.opts.scale,
            seed: self.opts.seed,
            status,
            error,
            wall_s: t0.elapsed().as_secs_f64(),
            cached: false,
            value,
        };
        let value = rec.value.clone();
        self.records.push(rec);
        self.write_partial();
        value
    }

    fn write_partial(&self) {
        let arr = Json::Arr(self.records.iter().map(CaseRecord::to_json).collect());
        if let Err(e) = dump::write_json_atomic(&self.partial_path(), &arr) {
            eprintln!("warning: cannot checkpoint {}: {e}", self.partial_path().display());
        }
    }

    /// Row values of every `ok` case, in execution order.
    pub fn ok_values(&self) -> impl Iterator<Item = &Json> {
        self.records
            .iter()
            .filter(|r| r.status == CaseStatus::Ok)
            .filter_map(|r| r.value.as_ref())
    }

    /// All records so far, in execution order.
    pub fn records(&self) -> &[CaseRecord] {
        &self.records
    }

    /// Number of cases actually executed this run (checkpoint reuses
    /// excluded) — what a resume test asserts on.
    pub fn executed(&self) -> usize {
        self.executed
    }

    fn count(&self, status: CaseStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }

    /// Writes the final `<out>/<name>.json` — `{ "manifest": ..., "cases":
    /// [...] }` — removes the partial checkpoint, and returns the summary.
    /// I/O failures are recorded in [`RunSummary::write_error`], not fatal.
    pub fn finalize(self) -> RunSummary {
        let wall_s = self.started.elapsed().as_secs_f64();
        let mut summary = RunSummary {
            harness: self.name.clone(),
            total: self.records.len(),
            ok: self.count(CaseStatus::Ok),
            skipped: self.count(CaseStatus::Skipped),
            panicked: self.count(CaseStatus::Panicked),
            timeout: self.count(CaseStatus::Timeout),
            cached: self.records.iter().filter(|r| r.cached).count(),
            wall_s,
            out_path: self.final_path().display().to_string(),
            write_error: None,
        };
        let manifest = Json::Obj(vec![
            ("harness".into(), Json::Str(self.name.clone())),
            ("seed".into(), Json::UInt(self.opts.seed)),
            ("scale".into(), Json::UInt(self.opts.scale as u64)),
            ("full".into(), Json::Bool(self.opts.full)),
            ("git_rev".into(), Json::Str(git_rev())),
            ("wall_s".into(), Json::Float(wall_s)),
            ("max_case_secs".into(), Json::Float(self.opts.max_case_secs)),
            ("cases_total".into(), Json::UInt(summary.total as u64)),
            ("ok".into(), Json::UInt(summary.ok as u64)),
            ("skipped".into(), Json::UInt(summary.skipped as u64)),
            ("panicked".into(), Json::UInt(summary.panicked as u64)),
            ("timeout".into(), Json::UInt(summary.timeout as u64)),
            ("cached".into(), Json::UInt(summary.cached as u64)),
        ]);
        let doc = Json::Obj(vec![
            ("manifest".into(), manifest),
            ("cases".into(), Json::Arr(self.records.iter().map(CaseRecord::to_json).collect())),
        ]);
        match dump::write_json_atomic(&self.final_path(), &doc) {
            Ok(()) => {
                let _ = std::fs::remove_file(self.partial_path());
                eprintln!("(results written to {})", self.final_path().display());
            }
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", self.final_path().display());
                summary.write_error = Some(e.to_string());
            }
        }
        if summary.failures() > 0 {
            eprintln!(
                "# {}: {} case(s) failed ({} panicked, {} timeout) — recorded, not fatal",
                summary.harness, summary.failures(), summary.panicked, summary.timeout
            );
        }
        summary
    }
}
