//! `serve`: an in-process `Server` with one worker, the default verify
//! policy and breaker, and no injected faults, under an open loop at a fixed
//! rate from one generator thread, drained by one collector thread.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use outerspace_baselines as baselines;
use outerspace_gen::{uniform, vector, Rng, SmallRng};
use outerspace_serve::{
    kernels, op_material, verifier, Classifier, Op, OpOutput, ResponseMeta, ResultCache, Server,
    ServerConfig, Snapshot, VerifyPolicy,
};
use outerspace_sim::faults::split_seed;
use outerspace_sparse::{Csr, SparseVector};

use crate::alloc::HEAP;
use crate::report::{
    median, ms, percentile, process_cpu, tail, timed_setups, Checks, Report, SETUPS,
};
use crate::trace::Tracer;
use crate::Args;

/// Offered load, requests per second: about half of one worker's capacity
/// on the request mix below (2 vCPU host).
pub const RATE: f64 = 42.0;
/// Latency limit for `slo_frac`.
pub const LIMIT_MS: f64 = 250.0;
/// Warm-up requests per set-up.
const WARMUP: usize = 40;
/// Requests replayed through the layers in a traced run.
const REPLAY: usize = 400;

/// Operand sets: small uniform matrices served by the accelerator model
/// (`sim`, `sim_spmv`), large uniform ones above `sim_nnz_cap`
/// (`outer_blocked`, `outer_spmv`), and tiny ones (`mkl_gustavson`).
const SIM: (u32, usize, usize) = (512, 4_000, 64);
const LARGE: (u32, usize, usize) = (2048, 32_000, 12);
const TINY: (u32, usize, usize) = (48, 200, 16);
/// SpMV vectors per operand set, and their density.
const VECTORS: usize = 8;
const X_DENSITY: f64 = 0.25;
/// Requests per window of the tail: `latency_tail_ms` is the median over
/// consecutive windows of each window's tail, so one host stall that
/// delays a burst of requests moves one window, not the metric.
const TAIL_WINDOW: usize = 200;

/// Request classes and their share of the sequence, in percent. A repeat
/// resubmits the request sent 5 to 20 requests earlier, so the result cache
/// sees hits beside verified inserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    SimGemm,
    LargeGemm,
    TinyGemm,
    SimSpmv,
    LargeSpmv,
    Repeat,
}

const MIX: &[(Class, u32)] = &[
    (Class::SimGemm, 65),
    (Class::LargeGemm, 10),
    (Class::TinyGemm, 5),
    (Class::SimSpmv, 7),
    (Class::LargeSpmv, 5),
    (Class::Repeat, 8),
];

/// The pre-generated operands.
pub struct Operands {
    sim: Vec<Arc<Csr>>,
    large: Vec<Arc<Csr>>,
    tiny: Vec<Arc<Csr>>,
    sim_x: Vec<Arc<SparseVector>>,
    large_x: Vec<Arc<SparseVector>>,
}

/// One request of the sequence: which operands, so goldens can be keyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Req {
    /// The class the request was drawn as (repeats carry the original's).
    class: Class,
    repeat: bool,
    i: usize,
    j: usize,
}

pub fn operands(seed: u64) -> Operands {
    let set = |(n, nnz, count): (u32, usize, usize), salt: u64| -> Vec<Arc<Csr>> {
        (0..count)
            .map(|k| {
                Arc::new(uniform::matrix(
                    n,
                    n,
                    nnz,
                    split_seed(seed, salt + k as u64),
                ))
            })
            .collect()
    };
    let xs = |n: u32, count: usize, salt: u64| -> Vec<Arc<SparseVector>> {
        (0..count)
            .map(|k| {
                Arc::new(vector::sparse(
                    n,
                    X_DENSITY,
                    split_seed(seed, salt + k as u64),
                ))
            })
            .collect()
    };
    Operands {
        sim: set(SIM, 1_000),
        large: set(LARGE, 2_000),
        tiny: set(TINY, 3_000),
        sim_x: xs(SIM.0, VECTORS, 4_000),
        large_x: xs(LARGE.0, VECTORS, 5_000),
    }
}

/// The seeded request sequence of `n` requests. Classes come in blocks
/// of 100 holding exactly the [`MIX`] counts in seeded order, so every
/// stretch of the sequence has the same mix whatever the seed.
pub fn sequence(seed: u64, n: usize) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, 0x5e9e));
    let mut out: Vec<Req> = Vec::with_capacity(n);
    let mut block: Vec<Class> = Vec::new();
    while out.len() < n {
        if block.is_empty() {
            block = MIX
                .iter()
                .flat_map(|&(c, k)| std::iter::repeat_n(c, k as usize))
                .collect();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
        }
        let class = block.pop().expect("refilled above");
        let mut pick = |len: usize| rng.gen_range(0..len);
        let req = match class {
            // Too early to repeat: a fresh small product instead.
            Class::Repeat if out.len() < 20 => Req {
                class: Class::SimGemm,
                repeat: false,
                i: pick(SIM.2),
                j: pick(SIM.2),
            },
            Class::Repeat => Req {
                repeat: true,
                ..out[out.len() - pick(16) - 5]
            },
            Class::SimGemm => Req {
                class,
                repeat: false,
                i: pick(SIM.2),
                j: pick(SIM.2),
            },
            Class::LargeGemm => Req {
                class,
                repeat: false,
                i: pick(LARGE.2),
                j: pick(LARGE.2),
            },
            Class::TinyGemm => Req {
                class,
                repeat: false,
                i: pick(TINY.2),
                j: pick(TINY.2),
            },
            Class::SimSpmv => Req {
                class,
                repeat: false,
                i: pick(SIM.2),
                j: pick(VECTORS),
            },
            Class::LargeSpmv => Req {
                class,
                repeat: false,
                i: pick(LARGE.2),
                j: pick(VECTORS),
            },
        };
        out.push(req);
    }
    out
}

impl Operands {
    pub fn op(&self, r: &Req) -> Op {
        match r.class {
            Class::SimGemm => Op::Spgemm {
                a: self.sim[r.i].clone(),
                b: self.sim[r.j].clone(),
            },
            Class::LargeGemm => Op::Spgemm {
                a: self.large[r.i].clone(),
                b: self.large[r.j].clone(),
            },
            Class::TinyGemm => Op::Spgemm {
                a: self.tiny[r.i].clone(),
                b: self.tiny[r.j].clone(),
            },
            Class::SimSpmv => Op::Spmv {
                a: self.sim[r.i].clone(),
                x: self.sim_x[r.j].clone(),
            },
            Class::LargeSpmv => Op::Spmv {
                a: self.large[r.i].clone(),
                x: self.large_x[r.j].clone(),
            },
            Class::Repeat => unreachable!("repeats carry their original's class"),
        }
    }

    /// Content digest of every operand.
    #[cfg(test)]
    pub fn digest(&self) -> String {
        let mut bytes = Vec::new();
        for m in self.sim.iter().chain(&self.large).chain(&self.tiny) {
            bytes.extend_from_slice(crate::simulate::digest(&[m]).as_bytes());
        }
        for x in self.sim_x.iter().chain(&self.large_x) {
            for (&i, &v) in x.indices.iter().zip(&x.values) {
                bytes.extend_from_slice(&i.to_le_bytes());
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        outerspace_dse::cache::content_hash(&bytes)
    }
}

/// An order-sensitive fingerprint of a result: exact structure, values up
/// to summation order. Taken in the collector so payloads need not be kept.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Print {
    shape: (u64, u64, u64),
    structure: u64,
    sum: f64,
    weighted: f64,
}

fn fnv(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

fn print_parts<'a>(
    shape: (u64, u64, u64),
    idx: impl Iterator<Item = u64>,
    vals: impl Iterator<Item = &'a f64>,
) -> Print {
    let structure = idx.fold(0xcbf2_9ce4_8422_2325, fnv);
    let (mut sum, mut weighted) = (0.0, 0.0);
    for (k, v) in vals.enumerate() {
        sum += v;
        weighted += v * (1.0 + (k % 7) as f64);
    }
    Print {
        shape,
        structure,
        sum,
        weighted,
    }
}

fn print(out: &OpOutput) -> Print {
    match out {
        OpOutput::Matrix(c) => print_parts(
            (u64::from(c.nrows()), u64::from(c.ncols()), c.nnz() as u64),
            c.row_ptr()
                .iter()
                .map(|&p| p as u64)
                .chain(c.col_indices().iter().map(|&j| u64::from(j))),
            c.values().iter(),
        ),
        OpOutput::Vector(y) => print_parts(
            (u64::from(y.len), 1, y.indices.len() as u64),
            y.indices.iter().map(|&i| u64::from(i)),
            y.values.iter(),
        ),
    }
}

fn close(a: &Print, b: &Print) -> bool {
    let near = |x: f64, y: f64| (x - y).abs() <= 1e-9 * y.abs().max(1.0);
    a.shape == b.shape
        && a.structure == b.structure
        && near(a.sum, b.sum)
        && near(a.weighted, b.weighted)
}

/// The independent answer: serial Gustavson, or the densified SpMV.
fn golden(op: &Op) -> OpOutput {
    match op {
        Op::Spgemm { a, b } => {
            OpOutput::Matrix(baselines::gustavson::spgemm(a, b).expect("dims").0)
        }
        Op::Spmv { a, x } => OpOutput::Vector(SparseVector::from_dense(
            &baselines::spmv::spmv_dense_vector(a, x).expect("dims").0,
        )),
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        verify: VerifyPolicy::default(),
        ..ServerConfig::default()
    }
}

/// What the collector records per request.
#[derive(Debug, Clone)]
struct Outcome {
    req: Req,
    lateness_ms: f64,
    /// The server's response metadata; `None` when shed at admission.
    meta: Option<ResponseMeta>,
    /// Fingerprint of the delivered payload, or why there is none.
    answer: Result<Print, String>,
}

impl Outcome {
    /// Due time to response, when answered OK.
    fn latency_ms(&self) -> Option<f64> {
        match (&self.meta, &self.answer) {
            (Some(m), Ok(_)) => Some(self.lateness_ms + m.total_ms),
            _ => None,
        }
    }

    fn kernel(&self) -> &str {
        self.meta.as_ref().map_or("shed", |m| m.impl_name.as_str())
    }
}

/// Input generation, server construction, and a closed-loop warm-up of
/// [`WARMUP`] requests from their own seeded sequence (on a server that is
/// then shut down, so the timed server starts with an empty cache).
fn setup(seed: u64) -> Operands {
    let ops = operands(seed);
    let server = Server::start(config());
    for req in sequence(split_seed(seed, 0xa11), WARMUP) {
        let _ = server.submit(ops.op(&req)).map(|t| t.wait());
    }
    server.shutdown();
    ops
}

/// The open loop: the generator submits request `k` at `k / RATE` and hands
/// the ticket to the collector, which drains responses as they complete.
fn load(ops: &Operands, seq: &[Req]) -> (Vec<Outcome>, Snapshot, f64, f64, usize) {
    let server = Server::start(config());
    HEAP.reset_peak();
    let cpu0 = process_cpu();
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let outcomes = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::with_capacity(seq.len());
            for (req, due, sent, ticket) in rx {
                let sent: Instant = sent;
                let lateness_ms = ms(sent.duration_since(due));
                let o = match ticket {
                    Err(e) => Outcome {
                        req,
                        lateness_ms,
                        meta: None,
                        answer: Err(format!("shed: {e}")),
                    },
                    Ok(ticket) => {
                        let ticket: outerspace_serve::Ticket = ticket;
                        let r = ticket.wait();
                        let answer = r.result.as_deref().map(print).map_err(|e| e.to_string());
                        Outcome {
                            req,
                            lateness_ms,
                            meta: Some(r.meta),
                            answer,
                        }
                    }
                };
                out.push(o);
            }
            out
        });
        for (k, req) in seq.iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / RATE);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let ticket = server.submit(ops.op(req));
            tx.send((*req, due, Instant::now(), ticket))
                .expect("collector is running");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu = ms(process_cpu() - cpu0);
    let peak = HEAP.peak();
    let snap = server.shutdown();
    (outcomes, snap, wall, cpu, peak)
}

fn check_outcomes(ops: &Operands, outcomes: &[Outcome], snap: &Snapshot, checks: &mut Checks) {
    checks.check(snap.accounted_ok(), || {
        "request accounting identity broken".into()
    });
    checks.check(snap.delivery_accounted_ok(), || {
        "delivery accounting identity broken".into()
    });
    checks.check(snap.deadline_violations == 0, || {
        format!("{} deadline violations", snap.deadline_violations)
    });
    let count = |f: &dyn Fn(&Outcome) -> bool| outcomes.iter().filter(|o| f(o)).count() as u64;
    let delivered = |o: &Outcome, f: &dyn Fn(&ResponseMeta) -> bool| {
        o.answer.is_ok() && o.meta.as_ref().is_some_and(f)
    };
    let ok = count(&|o| o.answer.is_ok());
    let shed = count(&|o| o.meta.is_none());
    let errors = count(&|o| o.meta.is_some() && o.answer.is_err());
    let hits = count(&|o| delivered(o, &|m| m.cache_hit));
    let verified = count(&|o| delivered(o, &|m| m.verified && !m.cache_hit));
    let tally = [
        ("submitted", outcomes.len() as u64, snap.submitted),
        ("completed_ok", ok, snap.completed_ok),
        ("rejected", shed, snap.rejected()),
        ("failed+timed_out", errors, snap.failed + snap.timed_out),
        ("cache_hits", hits, snap.cache_hits),
        ("verified_ok", verified, snap.verified_ok),
    ];
    for (what, client, server) in tally {
        checks.check(client == server, || {
            format!("client {what} {client} != server {server}")
        });
    }
    // Every delivered payload against an independently computed answer,
    // one golden per distinct request.
    let mut by_req: BTreeMap<Req, Vec<(&str, &Print)>> = BTreeMap::new();
    for o in outcomes {
        match &o.answer {
            Ok(p) => by_req
                .entry(Req {
                    repeat: false,
                    ..o.req
                })
                .or_default()
                .push((o.kernel(), p)),
            Err(e) => checks.check(false, || format!("{:?} not answered: {e}", o.req)),
        }
    }
    for (req, got) in by_req {
        let want = print(&golden(&ops.op(&req)));
        for (kernel, p) in got {
            checks.check(close(p, &want), || {
                format!("{req:?} via {kernel} differs from the golden answer")
            });
        }
    }
}

pub fn run(args: &Args) -> (Report, Checks) {
    let mut checks = Checks::default();
    let (ops, setup_secs) = timed_setups(|| setup(args.seed));
    let n = (args.seconds.as_secs_f64() * RATE).ceil() as usize;
    let seq = sequence(args.seed, n.max(40));
    let (outcomes, snap, wall, cpu, peak) = load(&ops, &seq);
    check_outcomes(&ops, &outcomes, &snap, &mut checks);

    let mut report = Report::new("serve", outcomes.len() as u64);
    report.line(format!(
        "open loop, 1 generator + 1 collector thread, server workers=1, default verify + breaker, no faults; \
         rate {RATE} req/s, {} requests, latency limit {LIMIT_MS} ms, seed {}",
        seq.len(),
        args.seed
    ));
    report.line(format!("mix (%): {MIX:?}"));
    let mut per_kernel: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for o in &outcomes {
        if let Some(l) = o.latency_ms() {
            per_kernel.entry(o.kernel()).or_default().push(l);
        }
    }
    for (k, xs) in &mut per_kernel {
        xs.sort_by(f64::total_cmp);
        report.line(format!(
            "kernel {k:<14} n={:<5} p50 {:.3} ms  max {:.3} ms",
            xs.len(),
            percentile(xs, 0.5),
            xs[xs.len() - 1]
        ));
    }
    report.line(format!(
        "server: submitted {} ok {} failed {} shed {} timed_out {} retries {} cache_hits {} verified {}",
        snap.submitted, snap.completed_ok, snap.failed, snap.rejected(), snap.timed_out, snap.retries,
        snap.cache_hits, snap.verified_ok
    ));
    let mut lat: Vec<f64> = outcomes.iter().filter_map(Outcome::latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    let mut late: Vec<f64> = outcomes.iter().map(|o| o.lateness_ms).collect();
    late.sort_by(f64::total_cmp);
    let lag = tail(&late).map_or(late[late.len() - 1], |t| t.0);
    report.line(format!(
        "generator lateness p50 {:.3} ms, tail {lag:.3} ms, max {:.3} ms",
        percentile(&late, 0.5),
        late[late.len() - 1]
    ));
    let ok = lat.len();
    if args.trace {
        layer_metrics(
            &mut report,
            &ops,
            &seq,
            &outcomes,
            &snap,
            lag,
            ok as f64 / wall,
            &mut checks,
        );
    } else {
        let (tail_ms, tail_note) = windowed_tail(&outcomes);
        let within = lat.iter().filter(|&&l| l <= LIMIT_MS).count();
        report.metric(
            "setup_s",
            median(&setup_secs),
            SETUPS,
            "median set-up: generate, start, warm-up requests",
        );
        report.metric(
            "results_per_s",
            ok as f64 / wall,
            ok,
            "successful responses over the load's wall time",
        );
        report.metric(
            "cpu_ms_per_result",
            cpu / ok.max(1) as f64,
            ok,
            "process user+sys CPU per response",
        );
        report.metric(
            "peak_heap_mb",
            peak as f64 / f64::from(1 << 20),
            1,
            "peak live heap during the load",
        );
        report.metric(
            "latency_p50_ms",
            percentile(&lat, 0.5),
            ok,
            "due time to response, OK requests",
        );
        report.metric("latency_tail_ms", tail_ms, ok, tail_note);
        report.metric(
            "slo_frac",
            within as f64 / outcomes.len() as f64,
            outcomes.len(),
            format!("OK within {LIMIT_MS} ms / submitted"),
        );
    }
    (report, checks)
}

/// The median over consecutive [`TAIL_WINDOW`]-request windows (the last
/// one absorbing the remainder) of each window's tail-rule percentile of
/// the OK latencies, with a note naming the percentile and sample counts.
fn windowed_tail(outcomes: &[Outcome]) -> (f64, String) {
    let windows = (outcomes.len() / TAIL_WINDOW).max(1);
    let size = outcomes.len() / windows;
    let mut tails = Vec::with_capacity(windows);
    let mut pct = Vec::with_capacity(windows);
    for w in 0..windows {
        let end = if w + 1 == windows {
            outcomes.len()
        } else {
            (w + 1) * size
        };
        let mut lat: Vec<f64> = outcomes[w * size..end]
            .iter()
            .filter_map(Outcome::latency_ms)
            .collect();
        lat.sort_by(f64::total_cmp);
        if let Some((t, p)) = tail(&lat) {
            tails.push(t);
            pct.push(p);
        }
    }
    if tails.is_empty() {
        return (f64::NAN, "too few requests for a tail".into());
    }
    let note = format!(
        "median of {} windows' p{:.1} ({size}+ requests each, 10 beyond)",
        tails.len(),
        median(&pct)
    );
    (median(&tails), note)
}

/// Span name of the compute stage for `kernel`.
fn compute_span(kernel: &str) -> &'static str {
    match kernel {
        "sim" => "serve.compute.sim",
        "sim_spmv" => "serve.compute.sim_spmv",
        "outer_blocked" => "serve.compute.outer_blocked",
        "outer_spmv" => "serve.compute.outer_spmv",
        "mkl_gustavson" => "serve.compute.mkl_gustavson",
        _ => "serve.compute.other",
    }
}

/// Replays the first [`REPLAY`] requests through the stages the server's
/// worker runs (the mirror of `serve::server::process` without the queue
/// and the compute thread), calling each layer's public function. Returns
/// the wall time and the number of requests replayed.
fn replay(ops: &Operands, seq: &[Req], tr: &mut Tracer) -> (f64, usize) {
    let cfg = config();
    let classifier = Classifier::new(cfg.sim_nnz_cap);
    let cache = ResultCache::new(cfg.cache_cap);
    let reqs = &seq[..seq.len().min(REPLAY)];
    let t = Instant::now();
    for (k, req) in reqs.iter().enumerate() {
        let id = k as u64 + 1; // the server numbers requests from 1
        let op = ops.op(req);
        let material = tr.span("serve.cache_key", id, || op_material(&op));
        if tr
            .span("serve.cache", id, || cache.lookup(&material))
            .is_some()
        {
            continue;
        }
        let route = tr.span("serve.route", id, || classifier.route(&op, false));
        let out = tr.span(compute_span(route.kernel), id, || {
            kernels::run_op(route.kernel, &op, &route.sim_config).expect("fault-free kernel")
        });
        let vcfg = verifier::config_for(&cfg.verify, id);
        let att = tr.span("serve.verify", id, || {
            verifier::check(&op, &out, &vcfg).expect("clean results verify")
        });
        tr.span("serve.cache", id, || {
            cache.insert(&material, Arc::new(out), &att)
        });
    }
    (t.elapsed().as_secs_f64(), reqs.len())
}

const STAGES: &[(&str, &str)] = &[
    ("serve.route", "serve.route_ms"),
    ("serve.cache_key", "serve.cache_key_ms"),
    ("serve.cache", "serve.cache_ms"),
    ("serve.verify", "serve.verify_ms"),
];

pub const KERNELS: &[&str] = &[
    "sim",
    "sim_spmv",
    "outer_blocked",
    "outer_spmv",
    "mkl_gustavson",
];

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    ops: &Operands,
    seq: &[Req],
    outcomes: &[Outcome],
    snap: &Snapshot,
    lag: f64,
    untraced_load_rps: f64,
    checks: &mut Checks,
) {
    replay(ops, seq, &mut Tracer::off()); // warm-up, so the timed passes start alike
    let (plain_s, n) = replay(ops, seq, &mut Tracer::off());
    let mut tr = Tracer::new(Instant::now());
    let (traced_s, _) = replay(ops, seq, &mut tr);
    let by_result = tr.self_ms_by_result();
    let n_f = n as f64;
    let mut stage_sum: HashMap<u64, f64> = HashMap::new();
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, usize> = BTreeMap::new();
    for (&(id, name), &t) in &by_result {
        *stage_sum.entry(id).or_insert(0.0) += t;
        *totals.entry(name).or_insert(0.0) += t;
    }
    for s in tr.spans() {
        *calls.entry(s.name).or_insert(0) += 1;
    }
    let mut q: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.meta.as_ref().map(|m| m.queue_ms))
        .collect();
    q.sort_by(f64::total_cmp);
    report.metric(
        "serve.queue_wait_p50_ms",
        percentile(&q, 0.5),
        q.len(),
        "ResponseMeta::queue_ms",
    );
    let (qt, qp) = tail(&q).unwrap_or((f64::NAN, 0.0));
    report.metric(
        "serve.queue_wait_tail_ms",
        qt,
        q.len(),
        format!("p{qp:.2}, 10 beyond"),
    );
    for (span, metric) in STAGES {
        report.metric(
            *metric,
            totals.get(span).copied().unwrap_or(0.0) / n_f,
            n,
            "per replayed request",
        );
    }
    for k in KERNELS {
        let span = compute_span(k);
        let c = calls.get(span).copied().unwrap_or(0);
        let v = totals.get(span).copied().unwrap_or(0.0) / c.max(1) as f64;
        report.metric(
            format!("serve.compute_ms.{k}"),
            v,
            c,
            "kernels::run_op per call",
        );
    }
    // Worker-side time the stages do not explain: compute-thread spawn and
    // channel hops. Compared request by request over the replayed prefix,
    // whose cache hits must be the server's.
    let mut overhead = Vec::new();
    for (k, o) in outcomes.iter().take(n).enumerate() {
        let id = k as u64 + 1;
        let Some(m) = o.meta.as_ref().filter(|_| o.answer.is_ok()) else {
            continue;
        };
        overhead.push(m.total_ms - m.queue_ms - stage_sum.get(&id).copied().unwrap_or(0.0));
        let replay_hit = !by_result.contains_key(&(id, "serve.route"));
        checks.check(m.cache_hit == replay_hit, || {
            format!(
                "request {id}: cache hit {} in the server, {replay_hit} in the replay",
                m.cache_hit
            )
        });
    }
    let mean_overhead = overhead.iter().sum::<f64>() / overhead.len().max(1) as f64;
    report.metric(
        "serve.overhead_ms",
        mean_overhead,
        overhead.len(),
        "mean (total - queue) - replayed stage sum",
    );
    report.metric(
        "serve.cache_hit_ratio",
        snap.cache_hits as f64 / snap.completed_ok.max(1) as f64,
        snap.completed_ok as usize,
        "cache hits / OK",
    );
    report.metric(
        "serve.verified_frac",
        snap.verified_ok as f64 / snap.completed_ok.max(1) as f64,
        snap.completed_ok as usize,
        "verified deliveries / OK",
    );
    report.metric(
        "serve.generator_lag_ms",
        lag,
        outcomes.len(),
        "generator lateness, tail rule",
    );
    let mut count: BTreeMap<&str, usize> = BTreeMap::new();
    for o in outcomes {
        *count.entry(o.kernel()).or_insert(0) += 1;
    }
    for k in KERNELS.iter().chain(&["cache"]) {
        report.metric(
            format!("serve.requests.{k}"),
            count.get(k).copied().unwrap_or(0) as f64,
            outcomes.len(),
            "responses by kernel",
        );
    }
    let plain_rps = n_f / plain_s;
    let traced_rps = n_f / traced_s;
    report.line(format!(
        "replay of {n} requests: untraced {plain_rps:.3} req/s, traced {traced_rps:.3} req/s; load {untraced_load_rps:.3} req/s"
    ));
    report.metric(
        "trace.overhead_results_per_s",
        traced_rps - plain_rps,
        n,
        "replay: traced minus untraced results_per_s",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_sets_the_inputs() {
        assert_eq!(operands(1).digest(), operands(1).digest());
        assert_ne!(operands(1).digest(), operands(2).digest());
        assert_eq!(sequence(1, 200), sequence(1, 200));
        assert_ne!(sequence(1, 200), sequence(2, 200));
    }
}
