//! Oracle test for [`LiveSet`]: random insert/remove sequences over
//! small, tight capacities with heavily tied integer costs, checked
//! after every step against a brute-force model — the full-scan victim
//! selection the preempting algorithms ran before the index existed.

use acmr_graph::{EdgeId, EdgeSet, LiveSet, LoadTracker};
use proptest::prelude::*;

/// Every request ever accepted, indexed by arrival: `Some` while live.
type Model = Vec<Option<(EdgeSet, f64)>>;

/// The reference victim selection: for every saturated edge of `fp`,
/// scan *all* arrivals for the live requests on it and evict
/// cheapest-first (stable sort, so ties go to the earlier arrival)
/// until one slot frees, discounting victims already picked.
fn full_scan(model: &Model, load: &LoadTracker, fp: &EdgeSet) -> (Vec<u32>, f64) {
    let mut victims = Vec::new();
    let mut victim_cost = 0.0;
    let mut planned = vec![false; model.len()];
    for e in fp.iter() {
        let mut needed = (load.load(e) + 1).saturating_sub(load.capacity(e)) as i64;
        for (i, p) in planned.iter().enumerate() {
            if *p {
                if let Some((f, _)) = &model[i] {
                    if f.contains(e) {
                        needed -= 1;
                    }
                }
            }
        }
        if needed <= 0 {
            continue;
        }
        let mut on_edge: Vec<(usize, f64)> = model
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref()
                    .and_then(|(f, c)| (!planned[i] && f.contains(e)).then_some((i, *c)))
            })
            .collect();
        on_edge.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (i, c) in on_edge.into_iter().take(needed as usize) {
            planned[i] = true;
            victims.push(i as u32);
            victim_cost += c;
        }
    }
    (victims, victim_cost)
}

fn by_cost_then_index(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Every invariant the index promises, against a recount of `model`,
/// plus victim selection on the probe footprint `fp`.
fn check(live: &LiveSet, model: &Model, fp: &EdgeSet) -> TestCaseResult {
    let load = live.tracker();
    for e in (0..load.num_edges() as u32).map(EdgeId) {
        let mut recount: Vec<(f64, u32)> = model
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref()
                    .and_then(|(f, c)| f.contains(e).then_some((*c, i as u32)))
            })
            .collect();
        recount.sort_by(by_cost_then_index);
        let occupancy = live.occupancy(e);
        prop_assert_eq!(occupancy, recount.as_slice(), "occupancy of {} drifted", e);
        prop_assert!(
            occupancy.is_sorted_by(|a, b| by_cost_then_index(a, b).is_lt()),
            "occupancy of {} is not ordered by (cost, index)",
            e
        );
        prop_assert_eq!(occupancy.len(), load.load(e) as usize);
    }
    for (i, slot) in model.iter().enumerate() {
        prop_assert_eq!(live.get(i as u32), slot.as_ref().map(|(f, c)| (f, *c)));
    }
    let mut out = vec![u32::MAX];
    let cost = live.cheapest_victims(fp, &mut out);
    let (victims, victim_cost) = full_scan(model, load, fp);
    prop_assert_eq!(out, victims);
    prop_assert_eq!(cost.to_bits(), victim_cost.to_bits());
    Ok(())
}

/// One step: `(kind, footprint edges, integer cost, pick)`.
type Step = (u32, Vec<u32>, u32, u32);

/// Capacities in `1..=3` over up to 6 edges, and up to 120 steps.
fn scenario() -> impl Strategy<Value = (Vec<u32>, Vec<Step>)> {
    (1u32..7).prop_flat_map(|m| {
        (
            proptest::collection::vec(1u32..4, m as usize),
            proptest::collection::vec(
                (
                    0u32..4,
                    proptest::collection::vec(0..m, 1..4),
                    1u32..4,
                    0u32..1000,
                ),
                1..120,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Kind 0 removes a random live request; any other kind is an
    /// arrival, admitted if it fits, and otherwise admitted after
    /// evicting its cheapest victims when the kind is 1.
    #[test]
    fn liveset_matches_the_full_scan_oracle((caps, steps) in scenario()) {
        let mut live = LiveSet::from_capacities(caps);
        let mut model: Model = Vec::new();
        let mut victims = Vec::new();
        for (kind, edges, cost, pick) in steps {
            let fp = EdgeSet::new(edges.into_iter().map(EdgeId).collect());
            let cost = f64::from(cost);
            check(&live, &model, &fp)?;
            if kind == 0 {
                let ids: Vec<u32> = (0..model.len() as u32)
                    .filter(|&i| model[i as usize].is_some())
                    .collect();
                if !ids.is_empty() {
                    let id = ids[pick as usize % ids.len()];
                    live.remove(id);
                    model[id as usize] = None;
                }
                continue;
            }
            let id = model.len() as u32;
            model.push(None);
            let fits = live.tracker().fits(&fp);
            if !fits && kind == 1 {
                prop_assert!(live.cheapest_victims(&fp, &mut victims).is_finite());
                for &v in &victims {
                    live.remove(v);
                    model[v as usize] = None;
                }
            }
            if fits || kind == 1 {
                live.insert(id, &fp, cost);
                model[id as usize] = Some((fp.clone(), cost));
            }
            check(&live, &model, &fp)?;
        }
    }
}
