//! Seeded fuzz of the snapshot JSON parser (`st_obs::Json::parse`), the
//! reader behind `check-metrics` and every snapshot validator.
//!
//! Random documents print and parse back equal, compact and pretty.
//! Byte mutations of a committed snapshot and random token soup parse or
//! fail without a panic, and every document the parser accepts prints
//! and parses back equal. Nesting past the parser's depth limit is an
//! error, not a stack overflow.

use st_machine::Pcg32;
use st_obs::Json;

/// The deepest nesting `Json::parse` accepts (the `st_obs::json` module
/// doc).
const MAX_DEPTH: usize = 128;

/// Characters that stress the string writer and parser: quotes,
/// escapes, control characters and multi-byte scalars.
const CHARS: &[char] = &[
    'a', 'z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '€', '𝄞',
];

fn pick<T: Copy>(rng: &mut Pcg32, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn random_string(rng: &mut Pcg32) -> String {
    (0..rng.below(8)).map(|_| pick(rng, CHARS)).collect()
}

/// A random value nested at most `depth` arrays and objects deep.
fn random_value(rng: &mut Pcg32, depth: u32) -> Json {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::U64(match rng.below(3) {
            0 => rng.below(10),
            1 => rng.next_u64(),
            _ => u64::MAX,
        }),
        // `I64` holds negative integers only; a non-negative one is a U64.
        3 => Json::I64(match rng.below(3) {
            0 => -1 - rng.below(10) as i64,
            1 => i64::MIN,
            _ => (rng.next_u64() | 1 << 63) as i64,
        }),
        4 => Json::F64(loop {
            // Finite floats only: JSON has no NaN or infinity, and the
            // writer prints those as `null`.
            let v = match rng.below(3) {
                0 => rng.below(1000) as f64 / 8.0,
                1 => -rng.unit_f64(),
                _ => f64::from_bits(rng.next_u64()),
            };
            if v.is_finite() {
                break v;
            }
        }),
        5 => Json::Str(random_string(rng)),
        6 => Json::Arr(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `doc`, printed compact and pretty, parses back equal.
fn assert_round_trips(doc: &Json, context: &str) {
    for text in [doc.to_string(), doc.to_pretty_string()] {
        assert_eq!(Json::parse(&text).as_ref(), Ok(doc), "{context}: {text}");
    }
}

#[test]
fn random_documents_print_and_parse_back_equal() {
    let mut rng = Pcg32::new(0x150e);
    for case in 0..2_000 {
        let doc = random_value(&mut rng, 4);
        assert_round_trips(&doc, &format!("case {case}"));
    }
}

#[test]
fn mutated_snapshots_parse_or_fail_without_panicking() {
    let committed = include_str!("../results/ablation_refcount.metrics.json");
    let accepted = Json::parse(committed).expect("the committed snapshot parses");
    assert_round_trips(&accepted, "the committed snapshot");
    let bytes: &[u8] = b"{}[],:\"\\-+.0123456789eEtrufalsn \n\xff";
    let mut rng = Pcg32::new(0x5a4);
    for case in 0..300 {
        let mut mutant = committed.as_bytes().to_vec();
        for _ in 0..=rng.below(4) {
            let at = rng.below(mutant.len() as u64) as usize;
            let b = pick(&mut rng, bytes);
            match rng.below(3) {
                0 => mutant[at] = b,
                1 => {
                    mutant.remove(at);
                }
                _ => mutant.insert(at, b),
            }
        }
        let text = String::from_utf8_lossy(&mutant);
        if let Ok(doc) = Json::parse(&text) {
            assert_round_trips(&doc, &format!("mutant {case}"));
        }
    }
}

#[test]
fn token_soup_parses_or_fails_without_panicking() {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"k\"",
        "\"\\u00e9\"",
        "\"\\ud800\"",
        "\"\\x\"",
        "\"",
        "null",
        "nul",
        "true",
        "false",
        "0",
        "-0",
        "-",
        "1.5",
        "2e3",
        "1e999",
        "-1e999",
        "18446744073709551616",
        "-9223372036854775809",
        ".5",
        "1.",
        "--1",
        " ",
        "\n",
    ];
    let mut rng = Pcg32::new(0x70c);
    for case in 0..5_000 {
        let text: String = (0..=rng.below(12))
            .map(|_| pick(&mut rng, TOKENS))
            .collect();
        if let Ok(doc) = Json::parse(&text) {
            assert_round_trips(&doc, &format!("soup {case} {text:?}"));
        }
    }
}

#[test]
fn nesting_past_the_limit_is_an_error() {
    let mut rng = Pcg32::new(0xdee9);
    for _ in 0..200 {
        let depth = rng.below(2 * MAX_DEPTH as u64) as usize;
        let (mut open, mut close) = (String::new(), String::new());
        for _ in 0..depth {
            if rng.below(2) == 0 {
                open.push('[');
                close.insert(0, ']');
            } else {
                open.push_str("{\"k\":");
                close.insert(0, '}');
            }
        }
        let text = format!("{open}7{close}");
        match Json::parse(&text) {
            Ok(doc) => {
                assert!(depth <= MAX_DEPTH, "depth {depth} accepted");
                assert_round_trips(&doc, &format!("depth {depth}"));
            }
            Err(e) => assert!(depth > MAX_DEPTH, "depth {depth}: {e}"),
        }
    }
    assert!(Json::parse(&"[".repeat(200_000)).is_err());
}
