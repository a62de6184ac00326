//! Reproducibility: the whole stack is a deterministic function of the
//! seed — same seed, same everything; different seed, different
//! interleavings.

mod common;

use common::{build_env, run_mix, run_mix_faulted, snapshot, MS};
use st_machine::FaultPlan;
use st_reclaim::Scheme;
use st_structures::StructureKind;

fn fingerprint(seed: u64) -> (u64, Vec<u64>, u64, u64) {
    let env = build_env(StructureKind::SkipList, Scheme::StackTrack, 8, 128, seed);
    let (report, workers) = run_mix(&env, 8, 1, 256, seed);
    let per_thread: Vec<u64> = report.threads.iter().map(|t| t.ops).collect();
    let htm = env.engine.total_stats();
    let garbage: u64 = workers
        .iter()
        .map(|w| w.executor().outstanding_garbage())
        .sum();
    (report.total_ops(), per_thread, htm.total_aborts(), garbage)
}

#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    let a = fingerprint(101);
    let b = fingerprint(101);
    assert_eq!(a, b, "same seed must reproduce the run exactly");
}

#[test]
fn different_seeds_diverge() {
    let a = fingerprint(101);
    let b = fingerprint(202);
    assert_ne!(
        (a.0, a.2),
        (b.0, b.2),
        "different seeds should change the interleaving"
    );
}

/// A named fault plan of the matrix below.
type FaultKind = (&'static str, fn() -> FaultPlan);

/// The full matrix: every reclamation scheme crossed with every fault
/// event kind the plan language offers (stall, kill, preemption storm,
/// and their combination). Each cell runs twice and the complete metric
/// snapshot — scheme counters, machine counters, fault accounting —
/// must match byte for byte. This is the contract the robustness
/// experiments and the fault-injection tests both stand on: a fault
/// plan perturbs the execution, never the determinism.
#[test]
fn every_scheme_times_every_fault_kind_is_byte_identical() {
    let kinds: [FaultKind; 4] = [
        ("stall", || FaultPlan::default().stall(2, MS / 2, MS / 2)),
        ("kill", || FaultPlan::default().kill(1, MS / 2)),
        ("storm", || FaultPlan::default().storm(0, MS / 4, MS / 2)),
        ("combined", || {
            FaultPlan::default()
                .stall(2, MS / 4, MS / 4)
                .kill(3, MS / 2)
                .storm(0, MS / 2, MS / 4)
        }),
    ];
    for scheme in [
        Scheme::None,
        Scheme::Epoch,
        Scheme::Hazard,
        Scheme::StackTrack,
        Scheme::Dta,
        Scheme::Nbr,
        Scheme::Hyaline,
    ] {
        for (kind, mk_plan) in &kinds {
            let run = || {
                let env = build_env(StructureKind::List, scheme, 4, 100, 23);
                let (report, workers) = run_mix_faulted(&env, 4, 1, 200, 23, mk_plan());
                snapshot(&report, &workers)
            };
            assert_eq!(
                run(),
                run(),
                "{scheme:?} under a {kind} fault must reproduce byte-identically"
            );
        }
    }
}

/// The parallel sweep scheduler's contract end-to-end: one figure driver
/// run serially (`--jobs 1`) and once with four workers must persist
/// byte-identical artifacts — the flat JSON-lines summary, the full
/// metrics snapshot, and the rendered markdown (docs/PERF.md).
#[test]
fn parallel_sweep_artifacts_are_byte_identical_to_serial() {
    use st_bench::figures::{self, BenchOpts};

    let base = std::env::temp_dir().join(format!("st-sweep-determinism-{}", std::process::id()));
    let run = |jobs: usize, tag: &str| {
        let opts = BenchOpts {
            duration_ms: 1,
            scale: 100,
            max_threads: 2,
            out: base.join(tag),
            jobs,
            ..BenchOpts::default()
        };
        figures::find("ablation-scanmode")
            .expect("a registered figure")
            .run(&opts)
            .expect("the figure runs");
        let read = |name: &str| {
            std::fs::read(opts.out.join(name)).unwrap_or_else(|e| panic!("{tag}/{name}: {e}"))
        };
        (
            read("ablation_scanmode.json"),
            read("ablation_scanmode.metrics.json"),
            read("ablation_scanmode.md"),
        )
    };
    let serial = run(1, "serial");
    let parallel = run(4, "parallel");
    assert_eq!(serial, parallel, "artifacts must not depend on --jobs");
    let _ = std::fs::remove_dir_all(&base);
}

/// The same contract for the figure drivers over the typed-API ports:
/// the skip list (figure 1b) and queue (figure 2a) sweeps must persist
/// byte-identical artifacts at `--jobs 1`, `2`, and `4`. This is the
/// regression fence for the migration's central claim — every typed
/// method lowers to the identical raw call sequence, so no artifact
/// byte may move under any worker fan-out.
#[test]
fn typed_structure_figures_are_byte_identical_across_jobs() {
    use st_bench::figures::{self, BenchOpts};

    let figures: [(&str, &str, &str); 2] = [
        ("fig1_skiplist", "fig1-skiplist", "fig1_skiplist"),
        ("fig2_queue", "fig2-queue", "fig2_queue"),
    ];
    let base = std::env::temp_dir().join(format!("st-fig-determinism-{}", std::process::id()));
    for (tag, command, stem) in figures {
        let run = |jobs: usize| {
            let opts = BenchOpts {
                duration_ms: 1,
                scale: 100,
                max_threads: 2,
                out: base.join(format!("{tag}-jobs{jobs}")),
                jobs,
                ..BenchOpts::default()
            };
            figures::find(command)
                .expect("a registered figure")
                .run(&opts)
                .expect("the figure runs");
            let read = |name: String| {
                std::fs::read(opts.out.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"))
            };
            (
                read(format!("{stem}.json")),
                read(format!("{stem}.metrics.json")),
                read(format!("{stem}.md")),
            )
        };
        let jobs1 = run(1);
        assert_eq!(jobs1, run(2), "{tag}: --jobs 2 must match --jobs 1");
        assert_eq!(jobs1, run(4), "{tag}: --jobs 4 must match --jobs 1");
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn every_scheme_is_deterministic() {
    for scheme in [
        Scheme::None,
        Scheme::Epoch,
        Scheme::Hazard,
        Scheme::StackTrack,
    ] {
        let run = |seed| {
            let env = build_env(StructureKind::Hash, scheme, 4, 64, seed);
            let (report, _) = run_mix(&env, 4, 1, 128, seed);
            report.total_ops()
        };
        assert_eq!(run(7), run(7), "{scheme:?} must be deterministic");
    }
}
