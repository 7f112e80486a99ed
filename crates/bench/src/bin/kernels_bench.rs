//! Thin CLI wrapper for the software-kernel microbenchmarks; the harness
//! body lives in [`outerspace_bench::harnesses::kernels`] so `runall` can
//! drive the same code in-process.
//!
//! Beyond the shared harness flags this binary accepts `--check`: instead
//! of running the full cell grid, freshly measure only the pinned cells and
//! compare against the latest entry of `<out>/BENCH_kernels.json`, exiting
//! non-zero on a >5% median regression (the `ci.sh` perf gate). `--check`
//! honours `BENCH_PIN=1` (append a fresh baseline instead of judging, the
//! re-pin path) and `BENCH_INJECT_SLOWDOWN=<cell>:<factor>` (synthetic
//! regression, used by CI to prove the gate can fail).

use outerspace_bench::harnesses::kernels;
use outerspace_bench::HarnessOpts;

fn main() {
    // `--check` is specific to this binary; strip it before the shared
    // parser (which rejects unknown flags with a usage error).
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    args.retain(|a| a != "--check");
    let opts = match HarnessOpts::parse(args, kernels::DEFAULTS) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: kernels_bench {} [--check]", outerspace_bench::USAGE);
            std::process::exit(2);
        }
    };
    if check {
        std::process::exit(kernels::check(&opts));
    }
    kernels::run(&opts);
}
