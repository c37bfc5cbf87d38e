//! Representation oracle for [`EdgeSet`]: footprints of up to five
//! edges are stored inline and wider ones on the heap, and nothing a
//! caller can observe may depend on which. Every query is checked
//! against a sort-and-dedup `Vec` reference, on sets on both sides of
//! the boundary, and every constructor must give sets that compare,
//! hash, print and serialize alike.

use acmr_core::Request;
use acmr_graph::{EdgeId, EdgeSet};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// What the set must hold: the ids sorted and deduplicated.
fn reference(ids: &[u32]) -> Vec<EdgeId> {
    let mut v: Vec<EdgeId> = ids.iter().copied().map(EdgeId).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The set of `ids` built every way the API offers.
fn constructions(ids: &[u32]) -> Vec<EdgeSet> {
    let want = reference(ids);
    let built = EdgeSet::new(ids.iter().copied().map(EdgeId).collect());
    let json = serde_json::to_string(&built).expect("an edge set serializes");
    let mut all = vec![
        built.clone(),
        EdgeSet::from_sorted_iter(want.iter().copied()),
        ids.iter().copied().map(EdgeId).collect(),
        EdgeSet::from(ids.iter().copied().map(EdgeId).collect::<Vec<_>>()),
        serde_json::from_str(&json).expect("an edge set deserializes"),
        serde_json::from_str(&format!("{{\"edges\":{ids:?}}}"))
            .expect("unsorted ids with duplicates deserialize"),
        built,
    ];
    if let [e] = want[..] {
        all.push(EdgeSet::singleton(e));
    }
    all
}

/// Every query on the set of `a` (and against the set of `b`) agrees
/// with the reference, for every construction of either set.
fn check(a: &[u32], b: &[u32]) -> TestCaseResult {
    let (want_a, want_b) = (reference(a), reference(b));
    let common = want_a.iter().filter(|e| want_b.contains(e)).count();
    let json = format!(
        "{{\"edges\":[{}]}}",
        want_a
            .iter()
            .map(|e| e.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let sets_b = constructions(b);
    for set in constructions(a) {
        prop_assert_eq!(set.as_slice(), want_a.as_slice());
        prop_assert_eq!(set.len(), want_a.len());
        prop_assert_eq!(set.is_empty(), want_a.is_empty());
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), want_a.clone());
        prop_assert_eq!((&set).into_iter().collect::<Vec<_>>(), want_a.clone());
        for e in (0..16).map(EdgeId) {
            prop_assert_eq!(set.contains(e), want_a.contains(&e), "contains {:?}", e);
        }
        // Equality, hashing, `Debug` and JSON are those of the sorted
        // slice: what they were when the set was always a boxed slice.
        prop_assert_eq!(&set, &constructions(a)[0]);
        prop_assert_eq!(hash_of(&set), hash_of(want_a.as_slice()));
        prop_assert_eq!(
            format!("{set:?}"),
            format!("EdgeSet {{ edges: {want_a:?} }}")
        );
        prop_assert_eq!(
            serde_json::to_string(&set).expect("serializes"),
            json.clone()
        );
        for other in &sets_b {
            prop_assert_eq!(set.intersection_size(other), common);
            prop_assert_eq!(set.intersects(other), common > 0);
            prop_assert_eq!(&set == other, want_a == want_b);
        }
    }
    Ok(())
}

/// Unsorted id lists of length 0–12 with duplicates: both sides of
/// the five-edge inline boundary, after deduplication.
fn ids() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..14, 0..13)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn edgeset_agrees_with_the_sorted_reference(a in ids(), b in ids()) {
        check(&a, &b)?;
    }
}

/// Every width from 0 to 12 against every other, so both
/// representations meet each other whatever the random draws hit.
#[test]
fn every_width_on_both_sides_of_the_inline_boundary() {
    let width = |n: u32| -> Vec<u32> { (0..n).rev().map(|i| 2 * i + n % 2).collect() };
    for n in 0..=12 {
        for k in 0..=12 {
            check(&width(n), &width(k)).unwrap_or_else(|e| panic!("widths {n} and {k}: {e:?}"));
        }
    }
}

/// Per-request memory: a footprint is 24 bytes inline or boxed, and a
/// request one footprint plus its cost.
#[test]
fn footprint_and_request_sizes_are_pinned() {
    assert_eq!(std::mem::size_of::<EdgeSet>(), 24);
    assert_eq!(std::mem::size_of::<Request>(), 32);
}
