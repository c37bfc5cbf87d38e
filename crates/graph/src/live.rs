//! The live-request index behind every preempting algorithm.
//!
//! A preempting algorithm must answer "which accepted requests sit on
//! this saturated edge, cheapest first?" on every arrival that does not
//! fit. [`LiveSet`] answers it from per-edge occupancy lists, so victim
//! search reads at most `capacity` entries per footprint edge, however
//! long the run has been.

use crate::edgeset::EdgeSet;
use crate::ids::EdgeId;
use crate::load::LoadTracker;

/// The live (accepted, not preempted) requests of one run, keyed by
/// arrival index, with each edge's occupancy ordered by
/// `(cost, arrival index)`.
///
/// It wraps the algorithm's [`LoadTracker`], so the loads and the index
/// always change together: [`LiveSet::insert`] admits,
/// [`LiveSet::remove`] releases. Loads never exceed capacities, so an
/// edge's occupancy list holds at most `capacity` entries.
#[derive(Clone, Debug)]
pub struct LiveSet {
    load: LoadTracker,
    /// Footprint and cost of each live request, indexed by arrival
    /// index; `None` for arrivals that are not live.
    live: Vec<Option<(EdgeSet, f64)>>,
    /// Per edge, its live requests as `(cost, arrival index)`,
    /// ascending by `f64::total_cmp` on cost, then by index.
    occupancy: Vec<Vec<(f64, u32)>>,
}

impl LiveSet {
    /// Empty set over a raw capacity vector.
    pub fn from_capacities(capacities: Vec<u32>) -> Self {
        let m = capacities.len();
        LiveSet {
            load: LoadTracker::from_capacities(capacities),
            live: Vec::new(),
            occupancy: vec![Vec::new(); m],
        }
    }

    /// The wrapped load tracker (read-only: mutate through
    /// [`Self::insert`] and [`Self::remove`]).
    #[inline]
    pub fn tracker(&self) -> &LoadTracker {
        &self.load
    }

    /// Footprint and cost of arrival `id` if it is live.
    #[inline]
    pub fn get(&self, id: u32) -> Option<(&EdgeSet, f64)> {
        self.live
            .get(id as usize)?
            .as_ref()
            .map(|(fp, cost)| (fp, *cost))
    }

    /// The live requests on `e` as `(cost, arrival index)`, ascending.
    #[inline]
    pub fn occupancy(&self, e: EdgeId) -> &[(f64, u32)] {
        &self.occupancy[e.index()]
    }

    /// Admit arrival `id` with the given footprint and cost.
    ///
    /// # Panics
    /// If `id` is already live, or if some edge of `footprint` is full
    /// (the tracker's feasibility audit).
    pub fn insert(&mut self, id: u32, footprint: &EdgeSet, cost: f64) {
        let slot = id as usize;
        if self.live.len() <= slot {
            self.live.resize(slot + 1, None);
        }
        assert!(self.live[slot].is_none(), "request {id} is already live");
        self.load.admit(footprint);
        for e in footprint.iter() {
            let list = &mut self.occupancy[e.index()];
            let at = list.partition_point(|&(c, i)| c.total_cmp(&cost).then(i.cmp(&id)).is_lt());
            list.insert(at, (cost, id));
        }
        self.live[slot] = Some((footprint.clone(), cost));
    }

    /// Release arrival `id` (a preemption).
    ///
    /// # Panics
    /// If `id` is not live.
    pub fn remove(&mut self, id: u32) {
        let (footprint, cost) = self
            .live
            .get_mut(id as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("request {id} is not live"));
        self.load.release(&footprint);
        for e in footprint.iter() {
            let list = &mut self.occupancy[e.index()];
            let at = list
                .binary_search_by(|&(c, i)| c.total_cmp(&cost).then(i.cmp(&id)))
                .expect("live request is indexed on its edges");
            list.remove(at);
        }
    }

    /// The cheapest live requests whose removal frees one slot on every
    /// saturated edge of `footprint`, written to `out` (cleared first):
    /// [`Self::victims_by`] taking each edge's first occupant by
    /// `(cost, arrival index)`. Returns their total cost, or
    /// `f64::INFINITY` if some saturated edge has no occupant to give up
    /// (capacity 0).
    pub fn cheapest_victims(&self, footprint: &EdgeSet, out: &mut Vec<u32>) -> f64 {
        self.victims_by(footprint, out, |occupants| occupants.first().copied())
            .unwrap_or(f64::INFINITY)
    }

    /// Live requests whose removal frees one slot on every saturated
    /// edge of `footprint`, written to `out` (cleared first).
    ///
    /// Edge by edge in footprint order, a saturated edge that no earlier
    /// pick occupies gives up the `(cost, arrival index)` entry `pick`
    /// chooses from its occupancy list. A full edge needs exactly one
    /// slot, since loads never exceed capacities. Returns the picks'
    /// total cost, summed in pick order, or `None` as soon as `pick`
    /// finds nothing on an edge. Only the saturated edges' occupancy
    /// lists are read.
    pub fn victims_by(
        &self,
        footprint: &EdgeSet,
        out: &mut Vec<u32>,
        mut pick: impl FnMut(&[(f64, u32)]) -> Option<(f64, u32)>,
    ) -> Option<f64> {
        out.clear();
        let mut cost = 0.0;
        for e in footprint.iter() {
            if self.load.residual(e) > 0 {
                continue;
            }
            let occupants = &self.occupancy[e.index()];
            if occupants.iter().any(|(_, id)| out.contains(id)) {
                continue;
            }
            let (c, id) = pick(occupants)?;
            out.push(id);
            cost += c;
        }
        Some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn occupancy_is_ordered_by_cost_then_index() {
        let mut live = LiveSet::from_capacities(vec![3, 3]);
        live.insert(0, &fp(&[0, 1]), 2.0);
        live.insert(1, &fp(&[0]), 1.0);
        live.insert(2, &fp(&[0, 1]), 2.0);
        assert_eq!(live.occupancy(EdgeId(0)), &[(1.0, 1), (2.0, 0), (2.0, 2)]);
        assert_eq!(live.occupancy(EdgeId(1)), &[(2.0, 0), (2.0, 2)]);
        live.remove(0);
        assert_eq!(live.occupancy(EdgeId(0)), &[(1.0, 1), (2.0, 2)]);
        assert_eq!(live.tracker().load(EdgeId(1)), 1);
        assert!(live.get(0).is_none());
        assert_eq!(live.get(2), Some((&fp(&[0, 1]), 2.0)));
    }

    #[test]
    fn one_victim_frees_every_edge_it_sits_on() {
        let mut live = LiveSet::from_capacities(vec![1, 1, 1]);
        live.insert(0, &fp(&[0, 1]), 5.0);
        live.insert(1, &fp(&[2]), 3.0);
        let mut out = vec![7];
        let cost = live.cheapest_victims(&fp(&[0, 1, 2]), &mut out);
        assert_eq!(out, vec![0, 1]);
        assert_eq!(cost, 8.0);
        // A pick that finds nothing on one edge fails the whole selection.
        let under_4 = |o: &[(f64, u32)]| o.iter().copied().find(|&(c, _)| c < 4.0);
        assert_eq!(live.victims_by(&fp(&[0, 1, 2]), &mut out, under_4), None);
        assert_eq!(live.victims_by(&fp(&[2]), &mut out, under_4), Some(3.0));
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn a_zero_capacity_edge_cannot_be_freed() {
        let mut live = LiveSet::from_capacities(vec![1, 0]);
        live.insert(0, &fp(&[0]), 1.0);
        let mut out = Vec::new();
        assert_eq!(live.cheapest_victims(&fp(&[0, 1]), &mut out), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn removing_a_dead_request_panics() {
        let mut live = LiveSet::from_capacities(vec![1]);
        live.insert(0, &fp(&[0]), 1.0);
        live.remove(0);
        live.remove(0);
    }
}
