//! The `EVENT` body codec against its oracle, `serde_json`.
//!
//! [`encode_event`] must write exactly the bytes
//! `serde_json::to_string` writes for every event, and
//! [`decode_event`] must give the event back bit for bit; a non-finite
//! float must fail with `serde_json`'s error text. The decoder accepts
//! that one form only: every strict prefix of a body, a body with a
//! structural byte replaced, and the looser JSON `serde_json` would
//! read are typed `proto` errors, and no corruption makes it panic.

use acmr_core::{AcmrError, ArrivalEvent, RequestId};
use acmr_serve::protocol::{decode_event, encode_event};
use proptest::prelude::*;

/// Floats of every shape `Display` writes differently: integral,
/// fractional, at or above 2^53 up to `f64::MAX`, subnormal, `-0.0`,
/// and any finite bit pattern of either sign.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..1 << 53).prop_map(|k| k as f64),
        -1e6f64..1e6,
        (2f64.powi(53).to_bits()..=f64::MAX.to_bits()).prop_map(f64::from_bits),
        Just(f64::MAX),
        (1u64..1 << 52).prop_map(f64::from_bits),
        Just(-0.0),
        (0u64..=u64::MAX).prop_map(|bits| {
            let x = f64::from_bits(bits);
            // Clearing the exponent's top bit makes inf and NaN finite.
            if x.is_finite() {
                x
            } else {
                f64::from_bits(bits & !(1 << 62))
            }
        }),
    ]
}

fn event(id: u32, accepted: bool, preempted: &[u32], floats: (f64, f64, f64)) -> ArrivalEvent {
    ArrivalEvent {
        id: RequestId(id),
        accepted,
        preempted: preempted.iter().map(|&p| RequestId(p)).collect(),
        cost: floats.0,
        rejected_cost_delta: floats.1,
        total_rejected_cost: floats.2,
    }
}

fn event_strategy() -> impl Strategy<Value = ArrivalEvent> {
    (
        0u32..=u32::MAX,
        0u8..2,
        proptest::collection::vec(0u32..=u32::MAX, 0..=64),
        (float(), float(), float()),
    )
        .prop_map(|(id, accepted, preempted, floats)| event(id, accepted == 1, &preempted, floats))
}

fn encoded(e: &ArrivalEvent) -> Vec<u8> {
    let mut out = Vec::new();
    encode_event(&mut out, e).unwrap();
    out
}

/// Field by field, floats by their bits (so `-0.0` is not `0.0`).
fn same_bits(a: &ArrivalEvent, b: &ArrivalEvent) -> bool {
    let bits =
        |e: &ArrivalEvent| [e.cost, e.rejected_cost_delta, e.total_rejected_cost].map(f64::to_bits);
    a.id == b.id && a.accepted == b.accepted && a.preempted == b.preempted && bits(a) == bits(b)
}

fn is_malformed_event(result: &Result<ArrivalEvent, AcmrError>) -> bool {
    matches!(result, Err(AcmrError::Remote { code, message })
        if code == "proto" && message.starts_with("malformed EVENT: "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The encoder appends `serde_json`'s bytes, and the decoder gives
    /// the event back bit for bit.
    #[test]
    fn encode_matches_serde_json_and_decode_round_trips(e in event_strategy()) {
        let mut out = b"EVENT ".to_vec();
        encode_event(&mut out, &e).unwrap();
        let json = serde_json::to_string(&e).unwrap();
        prop_assert_eq!(&out[6..], json.as_bytes(), "{:?}", e);
        let back = decode_event(json.as_bytes()).unwrap();
        prop_assert!(same_bits(&back, &e), "{:?} decoded as {:?}", e, back);
    }

    /// Any non-finite field fails with the text of the `serde_json`
    /// path (the first non-finite float in key order), and leaves the
    /// output as it was.
    #[test]
    fn non_finite_floats_fail_with_the_serde_json_text(
        e in event_strategy(),
        poison in proptest::collection::vec((0usize..3, 0usize..3), 1..=3),
    ) {
        let mut e = e;
        for (field, kind) in poison {
            let x = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][kind];
            *[&mut e.cost, &mut e.rejected_cost_delta, &mut e.total_rejected_cost][field] = x;
        }
        let mut out = b"EVENT ".to_vec();
        let err = encode_event(&mut out, &e).unwrap_err();
        let want = format!("cannot serialize event: {}", serde_json::to_string(&e).unwrap_err());
        prop_assert_eq!(err, AcmrError::Io { message: want });
        prop_assert_eq!(out, b"EVENT ".to_vec());
    }

    /// Every strict prefix of a body is a typed error, and so is the
    /// body with any quote, colon, brace or bracket replaced.
    #[test]
    fn prefixes_and_broken_structure_are_typed_errors(
        e in event_strategy(),
        with in prop_oneof![Just(b' '), Just(b'x'), Just(b'0'), Just(b','), Just(b'\'')],
    ) {
        let body = encoded(&e);
        for cut in 0..body.len() {
            let result = decode_event(&body[..cut]);
            prop_assert!(is_malformed_event(&result), "prefix {}: {:?}", cut, result);
        }
        for at in 0..body.len() {
            if !matches!(body[at], b'"' | b':' | b'{' | b'}' | b'[' | b']') {
                continue;
            }
            let mut broken = body.clone();
            broken[at] = with;
            let result = decode_event(&broken);
            prop_assert!(is_malformed_event(&result), "byte {} as {:?}: {:?}", at, with as char, result);
        }
    }

    /// Random byte corruption never panics: the decoder returns an
    /// event or a typed error.
    #[test]
    fn corruption_never_panics(
        e in event_strategy(),
        flips in proptest::collection::vec((0usize..1 << 16, 0u8..=255), 1..=8),
        cut in 0usize..1 << 16,
    ) {
        let mut body = encoded(&e);
        for (at, byte) in flips {
            let at = at % body.len();
            body[at] = byte;
        }
        body.truncate(body.len() - cut % 4);
        let result = decode_event(&body);
        prop_assert!(result.is_ok() || is_malformed_event(&result), "{:?}", result);
    }
}

#[test]
fn documented_body_round_trips() {
    let body = br#"{"id":7,"accepted":false,"preempted":[2,5],"cost":1.5,"rejected_cost_delta":4.0,"total_rejected_cost":9.0}"#;
    let e = event(7, false, &[2, 5], (1.5, 4.0, 9.0));
    assert_eq!(encoded(&e), body);
    assert_eq!(decode_event(body).unwrap(), e);
}

#[test]
fn decoder_refuses_json_that_is_not_the_wire_form() {
    let good = r#"{"id":7,"accepted":false,"preempted":[2,5],"cost":1.5,"rejected_cost_delta":4.0,"total_rejected_cost":9.0}"#;
    for (from, to) in [
        (r#""id":7"#, r#""id": 7"#),
        (r#""id":7"#, r#""id":07"#),
        (r#""id":7"#, r#""id":4294967296"#),
        (r#""id":7"#, r#""id":-7"#),
        (r#""id":7"#, r#""id":7.0"#),
        (r#"[2,5]"#, r#"[2,5,]"#),
        (r#"[2,5]"#, r#"[ 2,5]"#),
        (r#""cost":1.5"#, r#""cost":15e-1"#),
        (r#""cost":1.5"#, r#""cost":1"#),
        (r#""cost":1.5"#, r#""cost":1."#),
        (r#""cost":1.5"#, r#""cost":.5"#),
        (r#""cost":1.5"#, r#""cost":01.5"#),
        (r#""cost":1.5"#, r#""cost":+1.5"#),
        (r#""cost":1.5"#, r#""cost":NaN"#),
        (
            r#""cost":1.5"#,
            &format!(r#""cost":1{}.0"#, "0".repeat(400)),
        ),
        (r#""accepted":false"#, r#""accepted":0"#),
        (r#"9.0}"#, r#"9.0,"extra":1}"#),
        (r#"9.0}"#, "9.0}\n"),
    ] {
        assert!(good.contains(from));
        let bad = good.replacen(from, to, 1);
        let result = decode_event(bad.as_bytes());
        assert!(is_malformed_event(&result), "{bad}: {result:?}");
    }
    // Keys in another order are valid JSON for serde_json, but not the
    // wire form.
    let reordered = r#"{"accepted":false,"id":7,"preempted":[2,5],"cost":1.5,"rejected_cost_delta":4.0,"total_rejected_cost":9.0}"#;
    assert!(serde_json::from_str::<ArrivalEvent>(reordered).is_ok());
    assert!(is_malformed_event(&decode_event(reordered.as_bytes())));
}

#[test]
fn extreme_ids_and_floats_round_trip() {
    for e in [
        event(u32::MAX, true, &[0, u32::MAX], (f64::MAX, -0.0, 5e-324)),
        event(0, false, &[], (2f64.powi(53), 0.1 + 0.2, -f64::MAX)),
    ] {
        let body = encoded(&e);
        assert_eq!(body, serde_json::to_string(&e).unwrap().as_bytes());
        assert!(same_bits(&decode_event(&body).unwrap(), &e));
    }
}
