//! Measurement vocabulary shared by the workloads: process CPU time,
//! percentiles (including the tail rule), output checks, and the report the
//! benchmark prints — human-readable lines, then one JSON object as the last
//! line of standard output.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Runs `setup` [`SETUPS`] times, dropping each result before the next
/// starts, and returns the last result with each set-up's seconds.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS is positive"), secs)
}

/// What a closed-loop workload measured in its timed phase: whole rounds
/// (or sweeps) of `per_unit` results each.
pub struct ClosedLoop<'a> {
    /// What one unit is called in the notes ("round", "sweep").
    pub unit: &'static str,
    /// Wall time of each unit; each is one latency sample.
    pub unit_ms: &'a [f64],
    pub per_unit: usize,
    pub setup_secs: &'a [f64],
    pub cpu_ms: f64,
    pub peak_bytes: usize,
    /// Latency limit of one unit for `slo_frac`.
    pub limit_ms: f64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of
/// the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + system, all threads) since the process started.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of the
    // 64-bit Linux targets this benchmark builds for; the call only writes it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1] of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of ascending `sorted` that still has at least
/// [`TAIL_BEYOND`] samples beyond it: `(value, percentile in %)`, or `None`
/// when there are too few samples to name one.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND; // 1-based: exactly TAIL_BEYOND samples above
    Some((sorted[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// Output checks: each failure is one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`, with
/// their units (`BENCHMARK.json` lists the same).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("cpu_ms_per_result", "ms"),
    ("peak_heap_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("slo_frac", "frac"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("outer.os_product_ms", "ms"),
    ("outer.sparch_plan_ms", "ms"),
    ("sim.convert_ms", "ms"),
    ("sim.multiply_ms", "ms"),
    ("sim.merge_ms", "ms"),
    ("sim.sparch_multiply_ms", "ms"),
    ("sim.sparch_merge_ms", "ms"),
    ("sim.unattributed_ms", "ms"),
    ("sim.cycles", "cycles"),
    ("sim.products", "count"),
    ("sim.hbm_bytes", "bytes"),
    ("sim.host_ns_per_product", "ns"),
    ("sim.interval_ms", "ms"),
    ("dse.generate_ms", "ms"),
    ("energy.price_ms", "ms"),
    ("dse.cache_ms", "ms"),
    ("dse.unattributed_ms", "ms"),
    ("dse.work_sampled_frac", "frac"),
    ("dse.cache_hits", "count"),
    ("dse.cycle_err_median", "frac"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.route_ms", "ms"),
    ("serve.cache_key_ms", "ms"),
    ("serve.cache_ms", "ms"),
    ("serve.verify_ms", "ms"),
    ("serve.compute_ms.sim", "ms"),
    ("serve.compute_ms.sim_spmv", "ms"),
    ("serve.compute_ms.outer_blocked", "ms"),
    ("serve.compute_ms.outer_spmv", "ms"),
    ("serve.compute_ms.mkl_gustavson", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.verified_frac", "frac"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.requests.sim", "count"),
    ("serve.requests.sim_spmv", "count"),
    ("serve.requests.outer_blocked", "count"),
    ("serve.requests.outer_spmv", "count"),
    ("serve.requests.mkl_gustavson", "count"),
    ("serve.requests.cache", "count"),
    ("trace.overhead_results_per_s", "1/s"),
];

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: usize,
    note: String,
}

/// Everything one run reports.
pub struct Report {
    workload: &'static str,
    attempted: u64,
    metrics: Vec<Metric>,
    lines: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, attempted: u64) -> Report {
        Report {
            workload,
            attempted,
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Adds a metric from [`END_TO_END`] or [`PER_LAYER`], with the number
    /// of samples behind it and a short note on how it was taken.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        let name = name.into();
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("metric {name:?} is not in END_TO_END or PER_LAYER"));
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            note: note.into(),
        });
    }

    /// Adds the end-to-end metrics of a closed loop.
    pub fn closed_loop(&mut self, c: &ClosedLoop) {
        let units = c.unit_ms.len();
        let results = units * c.per_unit;
        let mut sorted = c.unit_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail_ms, tail_p) = tail(&sorted).expect("closed loops run enough units for a tail");
        let ok = c.unit_ms.iter().filter(|&&t| t <= c.limit_ms).count();
        let wall_s = c.unit_ms.iter().sum::<f64>() / 1e3;
        let unit = c.unit;
        self.metric(
            "setup_s",
            median(c.setup_secs),
            SETUPS,
            format!("median set-up, each with a warm-up {unit}"),
        );
        self.metric(
            "results_per_s",
            results as f64 / wall_s,
            results,
            format!("results over whole {unit}s"),
        );
        self.metric(
            "cpu_ms_per_result",
            c.cpu_ms / results as f64,
            results,
            "process user+sys CPU",
        );
        self.metric(
            "peak_heap_mb",
            c.peak_bytes as f64 / f64::from(1 << 20),
            units,
            format!("peak live heap, timed {unit}s"),
        );
        self.metric(
            "latency_p50_ms",
            median(c.unit_ms),
            units,
            format!("median {unit}"),
        );
        self.metric(
            "latency_tail_ms",
            tail_ms,
            units,
            format!("{unit} p{tail_p:.1}, 10 beyond"),
        );
        let limit = c.limit_ms;
        self.metric(
            "slo_frac",
            ok as f64 / units as f64,
            units,
            format!("{unit}s within {limit} ms"),
        );
    }

    /// A free-form line printed with the report (workload parameters,
    /// counters that are not metrics).
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Prints the report, the metrics in the order of `expected`; the JSON
    /// object is the last line of stdout. A metric of `expected` the
    /// workload did not measure reads 0 (its layer was never called); a
    /// non-finite value is a failed check.
    pub fn print(mut self, expected: &[(&str, &'static str)], mut checks: Checks) {
        let mut ordered = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            let m = match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => self.metrics.swap_remove(i),
                None => Metric {
                    name: name.to_string(),
                    unit,
                    value: 0.0,
                    samples: 0,
                    note: "layer not called by this workload".into(),
                },
            };
            checks.check(m.value.is_finite(), || {
                format!("metric {name} is not finite")
            });
            ordered.push(m);
        }
        assert!(
            self.metrics.is_empty(),
            "metrics outside the expected set: {}",
            self.metrics[0].name
        );
        println!("# workload {}", self.workload);
        for l in &self.lines {
            println!("# {l}");
        }
        for m in &ordered {
            println!(
                "{:<34} {:>18} {:<6} n={:<6} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples,
                m.note
            );
        }
        for msg in &checks.messages {
            println!("# CHECK FAILED: {msg}");
        }
        let metrics: Vec<String> = ordered
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed == 0,
            self.attempted.max(1),
            checks.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names: a letter or digit, then up to 63 letters, digits, `_`,
    /// `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((990.0, 99.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((30.0, 75.0)));
        let beyond = xs.iter().filter(|&&x| x > 30.0).count();
        assert_eq!(beyond, TAIL_BEYOND);
        // Eleven samples: the lowest one is the only percentile with ten
        // beyond it; ten or fewer name no tail at all.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(1.0));
        assert_eq!(tail(&xs[..10]), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "sim.convert_ms",
            "serve.compute_ms.outer_blocked",
            "0x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/no", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "frac"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "has space", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn listed_metrics_follow_the_grammar_and_match_benchmark_json() {
        use outerspace_json::Json;
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (n, u) in &all {
            assert!(valid_name(n) && valid_unit(u), "{n} {u}");
            assert_eq!(
                all.iter().filter(|(m, _)| m == n).count(),
                1,
                "{n} listed twice"
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let j = outerspace_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let arr = j.get(key).and_then(Json::as_array).expect("metric list");
            arr.iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let t0 = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > t0, "{x}");
    }
}
