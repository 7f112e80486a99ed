//! Property tests over the simulator's primitives: cache behaviour,
//! timeline monotonicity, channel bandwidth conservation, and end-to-end
//! determinism. The flat cache and the one-pass dispatcher are also held
//! equal to plain reference implementations (a `Vec` per LRU set, a
//! brute-force `(time, index)` minimum).
//!
//! Randomized inputs come from the in-repo [`SmallRng`] over a fixed seed
//! range (no external property-testing framework), so every case is
//! reproducible from its loop index.

use outerspace_gen::{Rng, SmallRng};
use outerspace_sim::machine::{PeArray, PeTimeline};
use outerspace_sim::mem::{AccessOutcome, CacheModel, MemorySystem};
use outerspace_sim::{OuterSpaceConfig, Simulator};

const CASES: u64 = 48;

fn rng_for(case: u64) -> SmallRng {
    SmallRng::seed_from_u64(0x51b3_7a11 ^ case)
}

fn random_vec(rng: &mut SmallRng, len_range: std::ops::Range<usize>, max: u64) -> Vec<u64> {
    let n = rng.gen_range(len_range.start..len_range.end);
    (0..n).map(|_| rng.gen_range(0u64..max)).collect()
}

/// A block accessed twice in a row always hits the second time.
#[test]
fn cache_immediate_rereference_hits() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let blocks = random_vec(&mut rng, 1..200, 10_000);
        let mut c = CacheModel::new(16 * 1024, 4, 64);
        for b in blocks {
            let _ = c.access(b);
            assert!(c.access(b), "block {b} must hit immediately after access");
        }
    }
}

/// LRU with W ways retains the last W distinct blocks of a set.
#[test]
fn cache_retains_ways_most_recent() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let set_blocks = random_vec(&mut rng, 1..50, 4);
        // One-set cache (4 blocks, 4 ways): any 4 distinct blocks all fit.
        let mut c = CacheModel::new(256, 4, 64);
        let mut seen = Vec::new();
        for &b in &set_blocks {
            let _ = c.access(b);
            seen.retain(|&x| x != b);
            seen.push(b);
        }
        // Everything in the (<=4-entry) recency window must still hit.
        for &b in seen.iter().rev().take(4) {
            assert!(c.access(b), "recent block {b} evicted too early");
        }
    }
}

/// PE timelines never move backwards, and busy time never exceeds elapsed
/// time.
#[test]
fn pe_timeline_is_monotone() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let n_ops = rng.gen_range(1usize..300);
        let mut pe = PeTimeline::new(8);
        let mut prev = 0u64;
        for _ in 0..n_ops {
            let kind = rng.gen_range(0u32..4);
            let arg = rng.gen_range(0u64..1000);
            match kind {
                0 => {
                    let _ = pe.issue();
                }
                1 => pe.track(arg, AccessOutcome::Hbm),
                2 => pe.advance(arg % 64),
                _ => pe.wait_until(arg),
            }
            assert!(pe.time >= prev, "time went backwards");
            assert!(pe.busy <= pe.time, "busy {} > time {}", pe.busy, pe.time);
            prev = pe.time;
        }
        pe.drain();
        assert!(pe.time >= prev);
    }
}

/// Reads complete no earlier than their issue time plus the L0 hit latency,
/// and counters account for every access.
#[test]
fn memory_reads_respect_causality() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let addrs = random_vec(&mut rng, 1..300, 1_000_000);
        let cfg = OuterSpaceConfig::default();
        let mut mem = MemorySystem::for_multiply(&cfg);
        let mut n = 0u64;
        for (now, addr) in addrs.into_iter().enumerate() {
            let now = now as u64;
            let (done, _) = mem.read((addr % 16) as usize, addr, now);
            assert!(done >= now + cfg.l0_hit_cycles, "completion before issue");
            n += 1;
        }
        let c = mem.take_counters();
        assert_eq!(c.l0_hits + c.l0_misses, n);
        assert_eq!(c.l1_hits + c.l1_misses, c.l0_misses);
        assert_eq!(c.hbm_read_bytes, c.l1_misses * 64);
    }
}

/// End-to-end bandwidth conservation: a simulated phase can never move
/// meaningfully more bytes than the HBM's peak rate times its makespan
/// (small overshoot allowed for the bounded backfill window).
#[test]
fn simulated_runs_conserve_bandwidth() {
    for seed in 0..40u64 {
        let mut rng = rng_for(seed);
        let nnz = rng.gen_range(200usize..3000);
        let a = outerspace_gen::uniform::matrix(256, 256, nnz, seed);
        let sim = Simulator::new(OuterSpaceConfig::default()).unwrap();
        let (_, rep) = sim.spgemm(&a, &a).unwrap();
        for phase in [&rep.multiply, &rep.merge] {
            let util = phase.bandwidth_utilization(&rep.config);
            assert!(util <= 1.15, "utilization {util} breaks conservation");
        }
    }
}

/// The simulator is a pure function of (config, inputs).
#[test]
fn simulation_is_deterministic() {
    for seed in 0..40u64 {
        let a = outerspace_gen::uniform::matrix(128, 128, 900, seed);
        let sim = Simulator::new(OuterSpaceConfig::default()).unwrap();
        let (c1, r1) = sim.spgemm(&a, &a).unwrap();
        let (c2, r2) = sim.spgemm(&a, &a).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(r1, r2);
    }
}

/// Channel bookings under random arrival jitter stay work-conserving:
/// total completions spread at least as wide as the per-channel service.
#[test]
fn channel_bookings_serialize_per_channel() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let n_arrivals = rng.gen_range(2usize..100);
        let arrivals: Vec<u64> = (0..n_arrivals).map(|_| rng.gen_range(0u64..200)).collect();
        let cfg = OuterSpaceConfig::default();
        let mut mem = MemorySystem::for_multiply(&cfg);
        // All to one channel (stride 16 blocks), distinct L0 domains so
        // every read misses to HBM.
        let mut completions: Vec<u64> = Vec::new();
        for (i, &t) in arrivals.iter().enumerate() {
            let addr = (i as u64) * 64 * 16 + 64 * 1024 * 1024;
            let (done, _) = mem.read(i % 16, addr, t);
            completions.push(done);
        }
        completions.sort_unstable();
        // n blocks on one channel need at least (n - window) * service time.
        let n = completions.len() as u64;
        let service = cfg.hbm_cycles_per_block() as u64;
        let span = completions.last().unwrap() - completions.first().unwrap();
        let window = 96; // BACKFILL_WINDOW_SLOTS
        if n > window + 1 {
            assert!(span >= (n - window - 1) * service, "span {span} too tight for {n} blocks");
        }
    }
}

/// Reference LRU cache: one `Vec` per set, most recently used last.
struct VecLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl VecLru {
    fn new(n_sets: usize, ways: usize) -> Self {
        VecLru { sets: vec![Vec::new(); n_sets], ways }
    }

    fn access(&mut self, block: u64) -> bool {
        let idx = (block % self.sets.len() as u64) as usize;
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&b| b == block) {
            let b = set.remove(pos);
            set.push(b);
            return true;
        }
        if set.len() == self.ways {
            set.remove(0);
        }
        set.push(block);
        false
    }

    fn clear(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// The flat tag-array cache classifies every access of a random block
/// stream exactly as a `Vec`-per-set LRU does, for power-of-two and other
/// set counts alike.
#[test]
fn flat_cache_matches_vec_per_set_lru() {
    for n_sets in [1u64, 3, 8, 64] {
        for ways in [1u64, 2, 4] {
            for case in 0..CASES / 4 {
                let mut rng = rng_for(case ^ (n_sets << 8) ^ (ways << 16));
                let block_bytes = 64u32;
                let size = (n_sets * ways * block_bytes as u64) as u32;
                let mut flat = CacheModel::new(size, ways as u32, block_bytes);
                let mut reference = VecLru::new(n_sets as usize, ways as usize);
                // A footprint a few times the capacity: hits, misses and
                // evictions all occur; rare far blocks exercise wide tags.
                let footprint = 3 * n_sets * ways + 1;
                for step in 0..600 {
                    let block = match rng.gen_range(0u32..20) {
                        0 => rng.gen_range(0u64..u64::MAX / 64),
                        _ => rng.gen_range(0..footprint),
                    };
                    assert_eq!(
                        flat.access(block),
                        reference.access(block),
                        "sets {n_sets}, ways {ways}, case {case}, step {step}, block {block}"
                    );
                    if rng.gen_range(0u32..500) == 0 {
                        flat.clear();
                        reference.clear();
                    }
                }
            }
        }
    }
}

/// The live PE with the smallest `(time, index)`, by brute force.
fn brute_force_earliest(arr: &PeArray) -> Option<usize> {
    (0..arr.len()).filter(|&p| !arr.is_dead(p)).min_by_key(|&p| (arr.pe(p).time, p))
}

/// The dispatch rule stated per group: the live group whose earliest live
/// PE is earliest (lowest group on ties), then that PE (lowest index on
/// ties).
fn two_level_earliest(arr: &PeArray, per_group: usize) -> Option<usize> {
    let g = (0..arr.n_groups())
        .filter(|&g| (g * per_group..(g + 1) * per_group).any(|p| !arr.is_dead(p)))
        .min_by_key(|&g| arr.group_min_time(g))?;
    (g * per_group..(g + 1) * per_group)
        .filter(|&p| !arr.is_dead(p))
        .min_by_key(|&p| arr.pe(p).time)
}

/// One-pass greedy dispatch picks exactly the brute-force minimum (and the
/// per-group rule's choice) under random work, kills and requeues, until
/// the whole array has failed.
#[test]
fn one_pass_dispatch_matches_brute_force_minimum() {
    for case in 0..CASES {
        let mut rng = rng_for(case);
        let groups = rng.gen_range(1usize..6);
        let per_group = rng.gen_range(1usize..5);
        let n = groups * per_group;
        let mut arr = PeArray::new(groups, per_group, rng.gen_range(1usize..4));
        for p in 0..n {
            if rng.gen_range(0u32..3) == 0 {
                arr.schedule_kill(p, rng.gen_range(0u64..60));
            }
        }
        for step in 0..400 {
            // Both entry points reap first (which can requeue and kill);
            // the brute force judges the post-reap array.
            let by_group = rng.gen_range(0u32..2) == 0;
            let got = if by_group {
                arr.try_earliest_group().map(|g| (g, None))
            } else {
                arr.try_dispatch().map(|(g, p)| (g, Some(p)))
            };
            let want = brute_force_earliest(&arr);
            assert_eq!(want, two_level_earliest(&arr, per_group), "case {case}, step {step}");
            let want_got = want.map(|p| (p / per_group, (!by_group).then_some(p)));
            assert_eq!(got, want_got, "case {case}, step {step}");
            assert_eq!(arr.min_live_time(), want.map_or(u64::MAX, |p| arr.pe(p).time));
            let Some(pe) = want else { break };
            // Small steps keep clocks tied often.
            let pe = arr.pe_mut(pe);
            match rng.gen_range(0u32..3) {
                0 => pe.advance(rng.gen_range(0u64..4)),
                1 => {
                    let t = pe.issue();
                    pe.track(t + rng.gen_range(0u64..6), AccessOutcome::L1Hit);
                }
                _ => pe.wait_until(pe.time + rng.gen_range(0u64..3)),
            }
            if rng.gen_range(0u32..50) == 0 {
                let victim = rng.gen_range(0..n);
                let at = arr.pe(victim).time + rng.gen_range(0u64..5);
                arr.schedule_kill(victim, at);
            }
        }
    }
}
