//! Seeded fuzz of the `st-bench` front end, in process.
//!
//! For each subcommand, argument vectors are built from its declared
//! flags plus unknown flags, missing values and hostile values (empty,
//! non-numeric, negative, 0, 2^32, 2^64). Every vector must parse to `Ok`
//! or to the usage text without a panic, and every accepted checker input
//! must yield configs that pass `CheckConfig::validate`. Replay tokens
//! printed from random valid configs must parse back equal, and
//! byte-mutated tokens must be refused or parse to a token that
//! round-trips.

use st_bench::cli::{self, Command, Flag};
use st_bench::experiment::MAX_RUN_MS;
use st_bench::figures::FIGURES;
use st_bench::{auditcmd, checkcmd};
use st_check::{CheckConfig, Mutation, ReplayToken};
use st_machine::{FaultPlan, Pcg32};
use st_reclaim::Scheme;
use st_structures::StructureKind;
use std::collections::BTreeMap;

/// Vectors parsed per subcommand, and tokens printed and mutated.
const VECTORS: usize = 10_000;

/// Flag values: well-formed, at the limits, and hostile.
const VALUES: &[&str] = &[
    "",
    "abc",
    "-1",
    "0",
    "1",
    "2",
    "3",
    "7",
    "8",
    "21",
    "100",
    "101",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "list",
    "list,hash",
    "queue, skiplist,rbtree",
    "bogus",
    "Hazards",
    "StackTrack,Epoch",
    "Original,NBR,Hyaline",
    "dfs",
    "random",
    "on",
    "off",
    "none",
    "skipfree",
    "/nonexistent/out",
    "stck1:list:Hazards:t3:o4:k6:s1:mnone:-",
    "stck1:list:StackTrack:t3:o4:k6:s1:mnone:fS1@5000+2500:7=0",
    "stck1:list:StackTrack:t8:o1:k6:s1:mnone:-",
    "stck1:list:Hazards:t2:o1:k0:s1:mnone:-",
];

fn pick<'a, T>(rng: &mut Pcg32, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn names<O>(flags: &[Flag<O>]) -> Vec<&'static str> {
    flags.iter().map(|f| f.name).collect()
}

/// `command` and up to eight flags, each declared or unknown, most of
/// them followed by a value.
fn vector(rng: &mut Pcg32, command: &str, flags: &[&str]) -> Vec<String> {
    let mut args = vec![command.to_string()];
    for _ in 0..rng.below(9) {
        let flag = if rng.below(10) == 0 {
            "--bogus"
        } else {
            pick(rng, flags)
        };
        args.push(flag.to_string());
        if rng.below(10) > 0 {
            args.push(pick(rng, VALUES).to_string());
        }
    }
    args
}

/// Checks what one vector parsed to; returns whether it was accepted.
fn check_parse(args: &[String]) -> bool {
    let parsed = cli::parse(args);
    let valid = |configs: &[CheckConfig]| {
        for config in configs {
            assert_eq!(config.validate(), Ok(()), "{args:?} accepted {config:?}");
        }
    };
    match (args[0].as_str(), parsed) {
        (_, Err(text)) => {
            assert!(text.contains("usage: st-bench"), "{args:?}: {text}");
            return false;
        }
        ("check", Ok(Command::Check { configs, .. })) => valid(&configs),
        ("check", Ok(Command::Replay(token))) => valid(&[token.config]),
        ("audit", Ok(Command::Audit(opts))) => {
            let configs = opts.checker.configs();
            assert!(configs.is_ok(), "{args:?}: {configs:?}");
            valid(&configs.unwrap_or_default());
            assert!(opts.checker.percent <= 100 && opts.max_episodes >= 1);
        }
        ("check-metrics", Ok(Command::CheckMetrics(paths)))
        | ("check-timing", Ok(Command::CheckTiming(paths))) => {
            assert_eq!(paths, args[1..]);
        }
        ("refresh-experiments", Ok(Command::RefreshExperiments)) => {
            assert_eq!(args.len(), 1, "{args:?}");
        }
        (_, Ok(Command::Figures { opts, figures, .. })) => {
            assert!(!figures.is_empty(), "{args:?}");
            assert!(opts.duration_ms >= 1 && opts.max_threads >= 1 && opts.jobs >= 1);
            assert!(opts.duration_ms <= MAX_RUN_MS && opts.warmup_ms <= MAX_RUN_MS);
        }
        (_, Ok(other)) => panic!("{args:?} parsed to {other:?}"),
    }
    true
}

#[test]
fn every_argument_vector_parses_or_is_refused() {
    let figure_commands: Vec<&str> = FIGURES
        .iter()
        .flat_map(|f| f.commands.iter().copied())
        .chain(["all"])
        .collect();
    let files = ["results/fig2_hash.metrics.json", "--ms", "-", ""];
    let subcommands: [(&str, Vec<&str>); 6] = [
        ("figure", names(&cli::figure_flags())),
        ("check", names(&checkcmd::flags())),
        ("audit", names(&auditcmd::flags())),
        ("check-metrics", files.to_vec()),
        ("check-timing", files.to_vec()),
        ("refresh-experiments", files.to_vec()),
    ];
    for (i, (subcommand, flags)) in subcommands.iter().enumerate() {
        let mut rng = Pcg32::new_stream(0xc11f, i as u64);
        let mut accepted = 0;
        for _ in 0..VECTORS {
            let command = match *subcommand {
                "figure" => pick(&mut rng, &figure_commands),
                other => other,
            };
            accepted += usize::from(check_parse(&vector(&mut rng, command, flags)));
        }
        // Both outcomes must be common, or the vectors test little.
        assert!(
            (VECTORS / 100..VECTORS - VECTORS / 100).contains(&accepted),
            "{subcommand}: {accepted} of {VECTORS} vectors accepted"
        );
    }
}

/// A token of a random config inside every limit.
fn random_token(rng: &mut Pcg32) -> ReplayToken {
    let structures = [
        StructureKind::List,
        StructureKind::Hash,
        StructureKind::Queue,
        StructureKind::SkipList,
        StructureKind::RbTree,
    ];
    let mutations = [
        Mutation::None,
        Mutation::SkipSplitsRecheck,
        Mutation::DeferHazardPublish,
        Mutation::SkipFree,
        Mutation::DoubleRetire,
        Mutation::NbrSkipRestart,
        Mutation::HyalineDropDecrement,
    ];
    let scheme = *pick(rng, &Scheme::all());
    let threads = 1 + rng.below(if scheme == Scheme::StackTrack { 7 } else { 62 });
    let mut faults = FaultPlan::new();
    for _ in 0..rng.below(3) {
        let (target, at, length) = (rng.below(threads) as usize, rng.next_u64(), rng.next_u64());
        faults = match rng.below(3) {
            0 => faults.stall(target, at, length),
            1 => faults.storm(target, at, length),
            _ => faults.kill(target, at),
        };
    }
    let config = CheckConfig {
        structure: *pick(rng, &structures),
        scheme,
        threads: threads as usize,
        ops_per_thread: 1 + rng.below(62 / threads) as usize,
        key_range: if rng.below(2) == 0 {
            1 + rng.below(16)
        } else {
            1 + rng.below(u64::MAX - 1)
        },
        seed: rng.next_u64(),
        mutation: *pick(rng, &mutations),
        faults,
        ..CheckConfig::default()
    };
    assert_eq!(config.validate(), Ok(()), "{config:?}");
    let deviations: BTreeMap<u64, usize> = (0..rng.below(5))
        .map(|_| (rng.below(1_000), rng.below(threads) as usize))
        .collect();
    ReplayToken { config, deviations }
}

#[test]
fn replay_tokens_round_trip_and_mutants_are_refused_or_round_trip() {
    // The token grammar's own bytes, plus any byte (non-UTF-8 ones reach
    // the parser as U+FFFD).
    let grammar = b"stck1:,=-fmokSPK@+;0123456789 ";
    let mut rng = Pcg32::new(0x70c3);
    let mut accepted = 0;
    for _ in 0..VECTORS {
        let token = random_token(&mut rng);
        let text = token.to_string();
        assert_eq!(text.parse::<ReplayToken>(), Ok(token), "{text}");

        let mut bytes = text.into_bytes();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = if rng.below(4) == 0 {
                rng.below(256) as u8
            } else {
                *pick(&mut rng, grammar)
            };
        }
        let mutant = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = mutant.parse::<ReplayToken>() {
            accepted += 1;
            assert_eq!(
                parsed.to_string().parse::<ReplayToken>(),
                Ok(parsed),
                "{mutant}"
            );
        }
    }
    assert!(accepted > 0, "no mutant parsed");
}
