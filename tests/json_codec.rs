//! Properties of the hand-rolled JSON codec (`dmt_common::json`), which
//! reads every result-cache entry and every `dmt-serve` request line —
//! the latter untrusted input from the network:
//!
//! 1. `parse ∘ render` and `parse ∘ render_compact` are the identity on
//!    random nested documents, with strings drawn from every Unicode
//!    scalar class (control chars, the escaped `"` and `\`, non-BMP);
//! 2. every truncation and single-byte mutation of a real cache entry
//!    makes `Json::parse` return `Ok`/`Err` and `decode_entry` return
//!    `None`/`Some` — never a panic — and no truncated entry decodes.
//!    Truncations and JSON-significant bytes are swept exhaustively;
//!    arbitrary bytes at arbitrary positions are drawn at random.
//!
//! `DMT_PROPTEST_CASES` raises the case count (the weekly deep run).

use dmt_core::{Arch, SystemConfig};
use dmt_runner::cache::{decode_entry, encode_entry};
use dmt_runner::{JobOutcome, JobSpec, Json};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::OnceLock;

/// A string of up to 11 chars drawn from `any::<u32>()` through
/// `char::from_u32`, biased toward the classes the codec treats
/// specially: control chars, ASCII (with `"` and `\`), 2-byte UTF-8,
/// and any scalar value up to the non-BMP planes. Surrogates are not
/// scalar values and are skipped.
fn arb_string(rng: &mut TestRng) -> String {
    let len = (0u32..12).sample(rng);
    (0..len)
        .filter_map(|_| {
            let x = any::<u32>().sample(rng);
            let code = match x % 4 {
                0 => (x >> 2) % 0x20,
                1 => (x >> 2) % 0x80,
                2 => (x >> 2) % 0x800,
                _ => (x >> 2) % 0x11_0000,
            };
            char::from_u32(code)
        })
        .collect()
}

/// Random documents nested up to `depth` levels. The vendored proptest
/// has no recursive strategies, so this one draws from its primitives.
struct ArbJson {
    depth: u32,
}

impl Strategy for ArbJson {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 5 } else { 7 };
        let inner = ArbJson {
            depth: self.depth.saturating_sub(1),
        };
        match (0u32..kinds).sample(rng) {
            0 => Json::Null,
            1 => Json::Bool(any::<bool>().sample(rng)),
            2 => Json::U64(any::<u64>().sample(rng)),
            3 => {
                // Any finite bit pattern: subnormals, huge integral
                // values, negative zero. The writer spells NaN/Inf
                // `null`, so those cannot round-trip and are excluded.
                let x = f64::from_bits(any::<u64>().sample(rng));
                Json::F64(if x.is_finite() { x } else { 0.5 })
            }
            4 => Json::Str(arb_string(rng)),
            5 => {
                let len = (0u32..5).sample(rng);
                Json::Arr((0..len).map(|_| inner.sample(rng)).collect())
            }
            _ => {
                let len = (0u32..5).sample(rng);
                Json::Obj(
                    (0..len)
                        .map(|_| (arb_string(rng), inner.sample(rng)))
                        .collect(),
                )
            }
        }
    }
}

/// Two rendered cache entries with the specs they answer for: a real
/// simulation (stats, energy and per-phase blocks), and an infeasible
/// outcome whose identity and error text carry multibyte UTF-8 and
/// escapes, so truncations and mutations also land inside those.
fn entries() -> &'static [(JobSpec, String, JobOutcome); 2] {
    static ENTRIES: OnceLock<[(JobSpec, String, JobOutcome); 2]> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let entry = |spec: JobSpec, outcome: JobOutcome| {
            let text = encode_entry(&spec, &outcome).render();
            (spec, text, outcome)
        };
        let real = JobSpec::new("scan", Arch::DmtCgra, SystemConfig::default(), 7);
        let outcome = dmt_bench::execute_job(&real);
        assert_eq!(outcome.status(), "ok", "{outcome:?}");
        let odd = JobSpec::new("scän \"q\" \\ 😀", Arch::MtCgra, SystemConfig::default(), 3);
        [
            entry(real, outcome),
            entry(
                odd,
                JobOutcome::Infeasible("needs 4 × 8 units — ü€😀\n\"\\\u{1}".into()),
            ),
        ]
    })
}

/// JSON-significant bytes, so mutations hit the grammar often rather
/// than only perturbing digits and letters.
const STRUCTURAL: &[u8] = b"\"\\{}[]:,-.0eEu \n\x00\xff";

#[test]
fn real_entries_decode_and_every_truncation_is_a_miss() {
    for (spec, text, outcome) in entries() {
        assert_eq!(decode_entry(text, spec).as_ref(), Some(outcome));
        let bytes = text.as_bytes();
        let closed = text.trim_end().len();
        for end in 0..bytes.len() {
            let cut = String::from_utf8_lossy(&bytes[..end]);
            let parsed = Json::parse(&cut);
            let decoded = decode_entry(&cut, spec);
            if end < closed {
                assert!(parsed.is_err(), "prefix of {end} bytes parsed");
                assert!(decoded.is_none(), "prefix of {end} bytes decoded");
            }
        }
    }
}

#[test]
fn every_structural_byte_at_every_position_is_survived() {
    for (spec, text, _) in entries() {
        let mut bytes = text.clone().into_bytes();
        for at in 0..bytes.len() {
            let was = bytes[at];
            for &b in STRUCTURAL {
                bytes[at] = b;
                let mutated = String::from_utf8_lossy(&bytes);
                let _ = Json::parse(&mutated);
                let _ = decode_entry(&mutated, spec);
            }
            bytes[at] = was;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_then_parse_is_the_identity(doc in ArbJson { depth: 4 }) {
        prop_assert_eq!(Json::parse(&doc.render()), Ok::<_, String>(doc.clone()));
        prop_assert_eq!(Json::parse(&doc.render_compact()), Ok::<_, String>(doc));
    }

    #[test]
    fn single_byte_mutations_never_panic_the_decoder(
        which in 0usize..2,
        at in any::<usize>(),
        byte in any::<u8>(),
        structural in any::<bool>(),
    ) {
        let (spec, text, _) = &entries()[which];
        let mut bytes = text.clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] = if structural {
            STRUCTURAL[usize::from(byte) % STRUCTURAL.len()]
        } else {
            byte
        };
        let mutated = String::from_utf8_lossy(&bytes);
        // Any answer will do; reaching the end without a panic is the
        // property.
        let _ = Json::parse(&mutated);
        let _ = decode_entry(&mutated, spec);
    }
}
