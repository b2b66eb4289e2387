//! Property tests of the JSON parser on hostile input: nesting far past
//! the depth cap, megabyte strings, and random truncations. Every case
//! must come back as `Ok` or `Err`; a stack overflow or a quadratic
//! blow-up would abort or stall the suite instead.

use xplace_testkit::json::{Json, MAX_DEPTH};
use xplace_testkit::prop::{from_fn, Config};
use xplace_testkit::rng::Rng;
use xplace_testkit::{prop_assert, prop_assert_eq, props};

/// `depth` nested containers around a scalar: arrays (`[[1]]`),
/// objects (`{"k":{"k":1}}`) or both alternating.
fn nested(depth: usize, kind: u8) -> String {
    let mut text = String::new();
    for level in 0..depth {
        let array = kind == 0 || (kind == 2 && level % 2 == 0);
        text.push_str(if array { "[" } else { "{\"k\":" });
    }
    text.push('1');
    for level in (0..depth).rev() {
        let array = kind == 0 || (kind == 2 && level % 2 == 0);
        text.push(if array { ']' } else { '}' });
    }
    text
}

/// A depth drawn log-uniformly from 0 to 1M, so both sides of the cap
/// are hit often.
fn random_depth(rng: &mut Rng) -> usize {
    let exponent = rng.gen_range(0..=20u32);
    let scale = 1.0 + rng.f64();
    (((1u64 << exponent) as f64 * scale) as usize - 1).min(1_000_000)
}

/// A random string of up to `max_chars` chars mixing ASCII, characters
/// that must be escaped, and 2-, 3- and 4-byte UTF-8.
fn text(rng: &mut Rng, max_chars: usize) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', '€', '𝄞',
    ];
    let len = rng.gen_range(0..=max_chars);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect()
}

#[test]
fn nesting_at_the_cap_parses_and_one_more_level_errors() {
    for kind in 0..3 {
        assert!(Json::parse(&nested(MAX_DEPTH, kind)).is_ok(), "kind {kind}");
        let err = Json::parse(&nested(MAX_DEPTH + 1, kind)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }
}

#[test]
fn a_million_open_brackets_error_without_overflowing_the_stack() {
    let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
    assert!(err.to_string().contains("nesting deeper than"), "{err}");
    assert!(Json::parse(&nested(1_000_000, 1)).is_err());
}

props! {
    config = Config::with_cases(48);

    fn nesting_is_ok_exactly_up_to_the_cap(depth in from_fn(random_depth), kind in 0u8..3) {
        let parsed = Json::parse(&nested(depth, kind));
        prop_assert_eq!(parsed.is_ok(), depth <= MAX_DEPTH);
    }

    fn unclosed_nesting_always_errors(depth in from_fn(random_depth), kind in 0u8..3) {
        let text = nested(depth, kind);
        // Drop the scalar and every closer: the input ends mid-document.
        let open = &text[..text.find('1').expect("scalar")];
        prop_assert!(Json::parse(open).is_err());
    }
}

props! {
    config = Config::with_cases(12);

    fn megabyte_strings_round_trip(s in from_fn(|rng: &mut Rng| text(rng, 1 << 20))) {
        let rendered = Json::str(s.as_str()).render();
        let back = Json::parse(&rendered).expect("rendered strings parse");
        prop_assert_eq!(back.as_str().expect("a string"), s.as_str());
    }

    fn truncated_strings_error(s in from_fn(|rng: &mut Rng| text(rng, 1 << 20))) {
        // No closing quote: the parser scans to the end and fails.
        let rendered = Json::str(s.as_str()).render();
        prop_assert!(Json::parse(&rendered[..rendered.len() - 1]).is_err());
    }
}
