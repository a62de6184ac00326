//! Replay tokens: a failing schedule serialized as one copy-pastable
//! string.
//!
//! A token captures the full [`CheckConfig`] plus the shrunk deviation
//! list, so `st-bench check --replay <token>` (or
//! [`crate::replay`]) deterministically reproduces the exact execution
//! that violated an oracle — environment, workload scripts, and every
//! scheduling decision.
//!
//! Format (all fields positional, colon-separated):
//!
//! ```text
//! stck1:<structure>:<scheme>:t<threads>:o<ops>:k<keys>:s<seed>:m<mutation>[:f<faults>]:<i>=<t>,...|-
//! ```
//!
//! The optional `f` field carries the config's [`FaultPlan`] as
//! `;`-separated events — `S<t>@<at>+<for>` (stall), `P<ctx>@<at>+<for>`
//! (preemption storm), `K<t>@<at>` (kill) — and is omitted when the plan
//! is empty, so pre-fault tokens keep parsing unchanged.

use crate::harness::CheckConfig;
use st_machine::{FaultEvent, FaultPlan};
use st_reclaim::Scheme;
use st_structures::StructureKind as Structure;
use stacktrack::Mutation;
use std::collections::BTreeMap;

/// A self-contained, replayable description of one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayToken {
    /// The environment and workload.
    pub config: CheckConfig,
    /// The schedule: decision index → thread forced at that decision.
    pub deviations: BTreeMap<u64, usize>,
}

/// Renders a fault plan as the token's `f` field payload.
fn fault_spec(plan: &FaultPlan) -> String {
    plan.events()
        .iter()
        .map(|e| match *e {
            FaultEvent::Stall {
                thread,
                at_cycle,
                for_cycles,
            } => format!("S{thread}@{at_cycle}+{for_cycles}"),
            FaultEvent::PreemptionStorm {
                ctx,
                at_cycle,
                for_cycles,
            } => format!("P{ctx}@{at_cycle}+{for_cycles}"),
            FaultEvent::Kill { thread, at_cycle } => format!("K{thread}@{at_cycle}"),
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses the `f` field payload back into a fault plan.
fn parse_fault_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for ev in spec.split(';') {
        let (kind, rest) = ev.split_at(ev.chars().next().map_or(0, char::len_utf8));
        let (target, timing) = rest
            .split_once('@')
            .ok_or_else(|| format!("bad fault event {ev:?} (expected <kind><target>@<timing>)"))?;
        let target = target
            .parse::<usize>()
            .map_err(|e| format!("bad fault target in {ev:?}: {e}"))?;
        let parse_cycles = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("bad fault {what} in {ev:?}: {e}"))
        };
        match kind {
            "K" => {
                plan.push(FaultEvent::Kill {
                    thread: target,
                    at_cycle: parse_cycles(timing, "time")?,
                });
            }
            "S" | "P" => {
                let (at, dur) = timing
                    .split_once('+')
                    .ok_or_else(|| format!("bad fault window {ev:?} (expected @<at>+<for>)"))?;
                let at_cycle = parse_cycles(at, "time")?;
                let for_cycles = parse_cycles(dur, "duration")?;
                plan.push(if kind == "S" {
                    FaultEvent::Stall {
                        thread: target,
                        at_cycle,
                        for_cycles,
                    }
                } else {
                    FaultEvent::PreemptionStorm {
                        ctx: target,
                        at_cycle,
                        for_cycles,
                    }
                });
            }
            _ => {
                return Err(format!(
                    "unknown fault kind in {ev:?} (expected S, P, or K)"
                ))
            }
        }
    }
    Ok(plan)
}

impl std::fmt::Display for ReplayToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.config;
        write!(
            f,
            "stck1:{}:{}:t{}:o{}:k{}:s{}:m{}:",
            c.structure, c.scheme, c.threads, c.ops_per_thread, c.key_range, c.seed, c.mutation
        )?;
        if !c.faults.is_empty() {
            write!(f, "f{}:", fault_spec(&c.faults))?;
        }
        if self.deviations.is_empty() {
            f.write_str("-")
        } else {
            let devs: Vec<String> = self
                .deviations
                .iter()
                .map(|(i, t)| format!("{i}={t}"))
                .collect();
            f.write_str(&devs.join(","))
        }
    }
}

fn field<'a>(parts: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    parts.next().ok_or_else(|| format!("token missing {what}"))
}

fn tagged<'a>(part: &'a str, tag: char, what: &str) -> Result<&'a str, String> {
    part.strip_prefix(tag)
        .ok_or_else(|| format!("token field {what} must start with '{tag}' (got {part:?})"))
}

impl std::str::FromStr for ReplayToken {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.trim().split(':');
        let magic = field(&mut parts, "magic")?;
        if magic != "stck1" {
            return Err(format!(
                "not a replay token (expected stck1:..., got {magic:?})"
            ));
        }
        let structure: Structure = field(&mut parts, "structure")?.parse()?;
        let scheme: Scheme = field(&mut parts, "scheme")?.parse()?;
        let threads = tagged(field(&mut parts, "threads")?, 't', "threads")?
            .parse::<usize>()
            .map_err(|e| format!("bad thread count: {e}"))?;
        let ops_per_thread = tagged(field(&mut parts, "ops")?, 'o', "ops")?
            .parse::<usize>()
            .map_err(|e| format!("bad op count: {e}"))?;
        let key_range = tagged(field(&mut parts, "keys")?, 'k', "keys")?
            .parse::<u64>()
            .map_err(|e| format!("bad key range: {e}"))?;
        let seed = tagged(field(&mut parts, "seed")?, 's', "seed")?
            .parse::<u64>()
            .map_err(|e| format!("bad seed: {e}"))?;
        let mutation: Mutation =
            tagged(field(&mut parts, "mutation")?, 'm', "mutation")?.parse()?;
        // Optional fault field: deviations start with a digit or '-', so a
        // leading 'f' is unambiguous.
        let mut devs_str = field(&mut parts, "deviations")?;
        let mut faults = FaultPlan::default();
        if let Some(spec) = devs_str.strip_prefix('f') {
            faults = parse_fault_spec(spec)?;
            devs_str = field(&mut parts, "deviations")?;
        }
        let mut deviations = BTreeMap::new();
        if devs_str != "-" {
            for pair in devs_str.split(',') {
                let (i, t) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("bad deviation {pair:?} (expected idx=thread)"))?;
                deviations.insert(
                    i.parse::<u64>()
                        .map_err(|e| format!("bad deviation index: {e}"))?,
                    t.parse::<usize>()
                        .map_err(|e| format!("bad deviation thread: {e}"))?,
                );
            }
        }
        if parts.next().is_some() {
            return Err("trailing fields in replay token".to_string());
        }
        let config = CheckConfig {
            structure,
            scheme,
            threads,
            ops_per_thread,
            key_range,
            seed,
            mutation,
            faults,
            ..CheckConfig::default()
        };
        config.validate()?;
        Ok(ReplayToken { config, deviations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        let token = ReplayToken {
            config: CheckConfig {
                structure: Structure::Queue,
                scheme: Scheme::Hazard,
                threads: 4,
                ops_per_thread: 5,
                key_range: 8,
                seed: 99,
                mutation: Mutation::DeferHazardPublish,
                ..CheckConfig::default()
            },
            deviations: BTreeMap::from([(3, 1), (17, 2)]),
        };
        let text = token.to_string();
        assert_eq!(text, "stck1:queue:Hazards:t4:o5:k8:s99:mhazard:3=1,17=2");
        assert_eq!(text.parse::<ReplayToken>().unwrap(), token);
    }

    #[test]
    fn empty_deviation_list_round_trips() {
        let token = ReplayToken {
            config: CheckConfig::default(),
            deviations: BTreeMap::new(),
        };
        let text = token.to_string();
        assert!(text.ends_with(":-"), "{text}");
        assert_eq!(text.parse::<ReplayToken>().unwrap(), token);
    }

    #[test]
    fn fault_plans_round_trip() {
        let token = ReplayToken {
            config: CheckConfig {
                faults: FaultPlan::new()
                    .stall(1, 5_000, 2_500)
                    .storm(0, 100, 40)
                    .kill(2, 9_000),
                ..CheckConfig::default()
            },
            deviations: BTreeMap::from([(7, 0)]),
        };
        let text = token.to_string();
        assert_eq!(
            text,
            "stck1:list:StackTrack:t3:o4:k6:s1:mnone:fS1@5000+2500;P0@100+40;K2@9000:7=0"
        );
        assert_eq!(text.parse::<ReplayToken>().unwrap(), token);
    }

    #[test]
    fn pre_fault_tokens_still_parse() {
        // A token minted before the fault field existed.
        let token: ReplayToken = "stck1:list:StackTrack:t3:o4:k6:s1:mnone:3=1"
            .parse()
            .unwrap();
        assert!(token.config.faults.is_empty());
        assert_eq!(token.deviations, BTreeMap::from([(3, 1)]));
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        for text in [
            "stck1:list:StackTrack:t3:o4:k6:s1:mnone:fX1@2:-",
            "stck1:list:StackTrack:t3:o4:k6:s1:mnone:fS1@2:-", // stall missing +for
            "stck1:list:StackTrack:t3:o4:k6:s1:mnone:fS@2+3:-",
            "stck1:list:StackTrack:t3:o4:k6:s1:mnone:fé1@2+3:-", // a multi-byte kind
        ] {
            assert!(text.parse::<ReplayToken>().is_err(), "{text}");
        }
    }

    /// Seeded fuzz of the fault-spec parser on its own. Random plans
    /// print and parse back equal; random strings over the spec's
    /// alphabet and character mutations of printed plans parse without a
    /// panic, and each one accepted prints and parses back to the same
    /// plan.
    #[test]
    fn fault_specs_fuzz_without_panics_and_round_trip() {
        const ALPHABET: &[char] = &[
            'S', 'P', 'K', 'X', '@', '+', '-', ';', ':', ' ', '0', '1', '9', 'é',
        ];
        let mut rng = st_machine::Pcg32::new(0xfa17);
        let number = |rng: &mut st_machine::Pcg32| match rng.below(4) {
            0 => rng.below(10),
            1 => rng.below(1 << 20),
            2 => rng.next_u64(),
            _ => u64::MAX,
        };
        let accepted_round_trips = |spec: &str| {
            if let Ok(plan) = parse_fault_spec(spec) {
                let printed = fault_spec(&plan);
                assert_eq!(
                    parse_fault_spec(&printed),
                    Ok(plan),
                    "{spec:?} -> {printed:?}"
                );
            }
        };
        for _ in 0..2_000 {
            let mut plan = FaultPlan::new();
            for _ in 0..=rng.below(3) {
                let (target, at_cycle, for_cycles) = (
                    number(&mut rng) as usize,
                    number(&mut rng),
                    number(&mut rng),
                );
                plan.push(match rng.below(3) {
                    0 => FaultEvent::Stall {
                        thread: target,
                        at_cycle,
                        for_cycles,
                    },
                    1 => FaultEvent::PreemptionStorm {
                        ctx: target,
                        at_cycle,
                        for_cycles,
                    },
                    _ => FaultEvent::Kill {
                        thread: target,
                        at_cycle,
                    },
                });
            }
            let spec = fault_spec(&plan);
            assert_eq!(parse_fault_spec(&spec), Ok(plan), "{spec:?}");

            let mut mutant: Vec<char> = spec.chars().collect();
            for _ in 0..=rng.below(3) {
                let at = rng.below(mutant.len() as u64 + 1) as usize;
                let c = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
                match rng.below(3) {
                    0 if at < mutant.len() => mutant[at] = c,
                    1 if at < mutant.len() => {
                        mutant.remove(at);
                    }
                    _ => mutant.insert(at, c),
                }
            }
            accepted_round_trips(&mutant.into_iter().collect::<String>());

            let random: String = (0..rng.below(16))
                .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
                .collect();
            accepted_round_trips(&random);
        }
    }

    #[test]
    fn garbage_is_rejected_with_context() {
        assert!("nope".parse::<ReplayToken>().is_err());
        assert!("stck1:list:StackTrack:t2".parse::<ReplayToken>().is_err());
        assert!("stck1:list:StackTrack:t2:o3:k4:s5:mnone:x"
            .parse::<ReplayToken>()
            .is_err());
    }
}
