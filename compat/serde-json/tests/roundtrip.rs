//! Property tests of the JSON printer/parser pair over arbitrary
//! [`Value`] trees: both printers round-trip every value exactly (float
//! bit patterns included), and every strict prefix of a printed document
//! is an error, never a panic or a silently shorter value.

use proptest::prelude::*;
use proptest::TestRng;
use serde_json::Value;

/// Characters that stress the escaper: quotes, backslashes, every kind of
/// control character, multi-byte and astral code points.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    '\u{85}',
    'é',
    '€',
    '\u{ffff}',
    '😀',
    '\u{10ffff}',
];

fn string(rng: &mut TestRng) -> String {
    (0..rng.next_in(0, 8))
        .map(|_| CHARS[rng.next_in(0, CHARS.len() as u64) as usize])
        .collect()
}

fn float(rng: &mut TestRng) -> f64 {
    match rng.next_in(0, 4) {
        0 => -0.0,
        1 => (rng.next_f64() - 0.5) * 1e6,
        // Any finite bit pattern: huge, tiny and subnormal magnitudes.
        _ => Some(f64::from_bits(rng.next_u64()))
            .filter(|x| x.is_finite())
            .unwrap_or(1.5),
    }
}

fn value(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.next_in(0, kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 0),
        2 => Value::Int(rng.next_u64() as i64 >> rng.next_in(0, 64)),
        // The parser yields `UInt` only above `i64::MAX`.
        3 => Value::UInt(rng.next_in(i64::MAX as u64 + 1, u64::MAX)),
        4 => Value::Float(float(rng)),
        5 => Value::Str(string(rng)),
        6 => container(rng, depth, false),
        _ => container(rng, depth, true),
    }
}

fn container(rng: &mut TestRng, depth: u32, object: bool) -> Value {
    let len = rng.next_in(0, 5);
    if object {
        Value::Object(
            (0..len)
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        )
    } else {
        Value::Array((0..len).map(|_| value(rng, depth - 1)).collect())
    }
}

/// An arbitrary document whose root is an array or object.
struct Document;

impl Strategy for Document {
    type Value = Value;
    fn generate(&self, rng: &mut TestRng) -> Value {
        let object = rng.next_u64() & 1 == 0;
        container(rng, 4, object)
    }
}

/// Structural equality with floats compared bit for bit (`-0.0 != 0.0`).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kp, p), (kq, q))| kp == kq && same(p, q))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn printers_round_trip_exactly(doc in Document) {
        for text in [
            serde_json::to_string(&doc).unwrap(),
            serde_json::to_string_pretty(&doc).unwrap(),
        ] {
            let back: Value = serde_json::from_str(&text).map_err(|e| format!("{e}: {text}"))?;
            prop_assert!(same(&doc, &back), "{text}");
        }
    }

    #[test]
    fn truncated_documents_are_errors(doc in Document) {
        for text in [
            serde_json::to_string(&doc).unwrap(),
            serde_json::to_string_pretty(&doc).unwrap(),
        ] {
            for (cut, _) in text.char_indices() {
                let prefix = &text[..cut];
                prop_assert!(
                    serde_json::from_str::<Value>(prefix).is_err(),
                    "prefix parsed: {prefix:?}"
                );
            }
        }
    }
}
