//! The four workloads and the configs each one runs.
//!
//! A config is one `(structure, scheme, threads)` cell simulated for 10
//! virtual milliseconds with the paper's presets. The load is a closed
//! loop: every simulated thread issues its next operation only when the
//! previous one completes. A workload pairs two schemes; each seed runs
//! both, alternating which goes first, so host drift lands on both alike.

use st_bench::experiment::RunConfig;
use st_bench::workload::WorkloadSpec;
use st_machine::Pcg32;
use st_reclaim::Scheme;

/// Virtual run length of every config, in milliseconds.
const VIRTUAL_MS: u64 = 10;

/// One benchmark workload.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The structure and operation mix.
    pub spec: fn() -> WorkloadSpec,
    /// The two schemes compared; StackTrack is one of them.
    pub schemes: [Scheme; 2],
    /// Simulated threads (the machine has 8 hardware contexts).
    pub threads: usize,
    /// Seeds per second of `--seconds`: sized so one plain run spends
    /// about `--seconds` of simulate-phase CPU on a 2-core x86-64 host.
    /// The work depends on the arguments alone, so every count repeats
    /// exactly and two commits always simulate the same configs.
    pub seeds_per_second: f64,
}

/// Every workload, in the order `--smoke` runs them.
pub const WORKLOADS: [Workload; 4] = [
    // ~5,000 steps per op inside long HTM segments: simhtm reads and
    // validation plus StackTrack splits dominate; per-op worker cost is
    // nil. Carries the paper's Figure 1a overhead (StackTrack vs Original).
    Workload {
        name: "list-htm",
        spec: WorkloadSpec::paper_list,
        schemes: [Scheme::StackTrack, Scheme::None],
        threads: 8,
        seeds_per_second: 1.2,
    },
    // ~6 steps per op: per-op worker cost (boxing the body, picking the
    // op, begin_op, dyn dispatch) dominates. The Hazards half never
    // touches simhtm.
    Workload {
        name: "hash-read",
        spec: WorkloadSpec::paper_hash,
        schemes: [Scheme::Hazard, Scheme::StackTrack],
        threads: 8,
        seeds_per_second: 1.8,
    },
    // Same as hash-read at 80% mutations: alloc, retire, scan and free
    // carry the load, so a read-path gain that taxes retire shows here.
    Workload {
        name: "hash-write",
        spec: hash_write,
        schemes: [Scheme::Hazard, Scheme::StackTrack],
        threads: 8,
        seeds_per_second: 2.0,
    },
    // 16 threads on 8 hardware contexts: context switches, preemption
    // aborts and Epoch's quiescence waits make most steps idle
    // scheduler/reclaim work, so `machine::sched` dominates.
    Workload {
        name: "queue-oversub",
        spec: WorkloadSpec::paper_queue,
        schemes: [Scheme::Epoch, Scheme::StackTrack],
        threads: 16,
        seeds_per_second: 1.5,
    },
];

fn hash_write() -> WorkloadSpec {
    WorkloadSpec {
        mutation_pct: 80,
        ..WorkloadSpec::paper_hash()
    }
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The configs one run simulates, in order: `seeds` seeds derived
    /// from `seed`, each running both schemes (order alternating by seed).
    pub fn configs(&self, seed: u64, seeds: usize, virtual_ms: u64) -> Vec<RunConfig> {
        let mut rng = Pcg32::new_stream(seed, 0xbe4c);
        let mut out = Vec::with_capacity(2 * seeds);
        for i in 0..seeds {
            let config_seed = rng.next_u64();
            let order = if i % 2 == 0 {
                self.schemes
            } else {
                [self.schemes[1], self.schemes[0]]
            };
            for scheme in order {
                let mut c = RunConfig::new((self.spec)(), scheme, self.threads, virtual_ms);
                c.seed = config_seed;
                out.push(c);
            }
        }
        out
    }

    /// Seeds a plain run of `seconds` simulates.
    fn seeds_for(&self, seconds: u64) -> usize {
        ((seconds as f64 * self.seeds_per_second).round() as usize).max(1)
    }

    /// The configs of a measured run. A traced run simulates every config
    /// twice (plain, then traced), so it takes the first half of the seeds
    /// to stay near the plain run's length.
    pub fn measured_configs(&self, seed: u64, seconds: u64, traced: bool) -> Vec<RunConfig> {
        let seeds = self.seeds_for(seconds);
        let seeds = if traced { seeds.div_ceil(2) } else { seeds };
        self.configs(seed, seeds, VIRTUAL_MS)
    }
}
