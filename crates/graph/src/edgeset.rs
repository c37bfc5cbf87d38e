//! Request footprints as sorted, deduplicated edge-id sets.
//!
//! The paper's concluding remark: *"All the algorithms treated a request
//! as an arbitrary subset of edges"* — [`EdgeSet`] is that subset. It is
//! kept sorted so that membership tests are `O(log k)` and intersection
//! / iteration are cache-friendly linear scans.
//!
//! Every set of at most five edges is stored inline; wider sets keep a
//! boxed slice. Five is the most that fits beside a length byte in the
//! 24 bytes the boxed variant takes anyway, so a set is 24 bytes either
//! way, and building, cloning or dropping a short one never touches the
//! allocator. Short footprints are the common case: every footprint of
//! a line trace of 1–4 hops, and most stochastic ones. Equality,
//! hashing, `Debug` and serde all read [`EdgeSet::as_slice`], so no
//! caller can tell the representations apart.

use crate::ids::EdgeId;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Most edges an [`EdgeSet`] stores without a heap allocation.
const INLINE: usize = 5;

/// A sorted, deduplicated, immutable set of edge ids — the footprint of
/// one request.
#[derive(Clone)]
pub struct EdgeSet(Repr);

#[derive(Clone)]
enum Repr {
    /// At most [`INLINE`] edges, in `ids[..len]`.
    Inline { len: u8, ids: [EdgeId; INLINE] },
    /// More than [`INLINE`] edges.
    Heap(Box<[EdgeId]>),
}

impl EdgeSet {
    /// Build from an arbitrary list of edges; sorts and deduplicates.
    pub fn new(mut edges: Vec<EdgeId>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        EdgeSet::from_sorted_iter(edges.into_iter())
    }

    /// Build from ids the caller has already checked to be strictly
    /// increasing — e.g. straight from a validated binary trace record.
    /// Allocates only for more than five edges.
    ///
    /// # Panics
    /// In debug builds, if the ids are not strictly increasing.
    pub fn from_sorted_iter(ids: impl ExactSizeIterator<Item = EdgeId>) -> Self {
        let set = if ids.len() <= INLINE {
            let mut inline = [EdgeId(0); INLINE];
            let mut len = 0u8;
            for (slot, e) in inline.iter_mut().zip(ids) {
                *slot = e;
                len += 1;
            }
            EdgeSet(Repr::Inline { len, ids: inline })
        } else {
            EdgeSet(Repr::Heap(ids.collect()))
        };
        debug_assert!(
            set.as_slice().windows(2).all(|w| w[0] < w[1]),
            "must be strictly sorted"
        );
        set
    }

    /// A set with a single edge (used by phase-2 requests of the set
    /// cover reduction, §4 of the paper).
    pub fn singleton(e: EdgeId) -> Self {
        EdgeSet::from_sorted_iter(std::iter::once(e))
    }

    /// Number of edges in the footprint.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if the footprint is empty (such a request can always be
    /// accepted; generators never emit one, but the algebra permits it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The edges, sorted ascending.
    #[inline]
    pub fn as_slice(&self) -> &[EdgeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Heap(ids) => ids,
        }
    }

    /// Iterate over the edges.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.as_slice().iter().copied()
    }

    /// Membership test, `O(log len)`.
    pub fn contains(&self, e: EdgeId) -> bool {
        self.as_slice().binary_search(&e).is_ok()
    }

    /// Number of edges shared with `other` (linear merge).
    pub fn intersection_size(&self, other: &EdgeSet) -> usize {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    k += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        k
    }

    /// True if the two footprints share at least one edge.
    pub fn intersects(&self, other: &EdgeSet) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

impl PartialEq for EdgeSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for EdgeSet {}

impl Hash for EdgeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeSet")
            .field("edges", &self.as_slice())
            .finish()
    }
}

/// `{"edges": [..]}`, the shape of a struct with one `edges` field.
impl Serialize for EdgeSet {
    fn to_value(&self) -> Value {
        Value::Map(vec![("edges".to_string(), self.as_slice().to_value())])
    }
}

/// Reads `{"edges": [..]}` in any order, with duplicates, and keeps
/// the set canonical.
impl Deserialize for EdgeSet {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(_) => Vec::from_value(v.get("edges").unwrap_or(&Value::Null))
                .map(EdgeSet::new)
                .map_err(|e| DeError(format!("field `edges` of EdgeSet: {}", e.0))),
            other => Err(DeError::expected("map for struct EdgeSet", other)),
        }
    }
}

impl<'a> IntoIterator for &'a EdgeSet {
    type Item = EdgeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, EdgeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

impl FromIterator<EdgeId> for EdgeSet {
    fn from_iter<T: IntoIterator<Item = EdgeId>>(iter: T) -> Self {
        EdgeSet::new(iter.into_iter().collect())
    }
}

impl From<Vec<EdgeId>> for EdgeSet {
    fn from(v: Vec<EdgeId>) -> Self {
        EdgeSet::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es(ids: &[u32]) -> EdgeSet {
        EdgeSet::new(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn sorts_and_dedups() {
        let s = es(&[3, 1, 2, 3, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_slice(), &[EdgeId(1), EdgeId(2), EdgeId(3)]);
    }

    #[test]
    fn membership() {
        let s = es(&[0, 2, 4]);
        assert!(s.contains(EdgeId(2)));
        assert!(!s.contains(EdgeId(3)));
    }

    #[test]
    fn intersections() {
        let a = es(&[0, 1, 2, 5]);
        let b = es(&[2, 3, 5, 7]);
        assert_eq!(a.intersection_size(&b), 2);
        assert!(a.intersects(&b));
        let c = es(&[10, 11]);
        assert_eq!(a.intersection_size(&c), 0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn singleton_and_empty() {
        let s = EdgeSet::singleton(EdgeId(9));
        assert_eq!(s.len(), 1);
        assert!(s.contains(EdgeId(9)));
        let e = es(&[]);
        assert!(e.is_empty());
        assert!(!e.intersects(&s));
    }

    #[test]
    fn from_iterator() {
        let s: EdgeSet = (0..4u32).map(EdgeId).collect();
        assert_eq!(s.len(), 4);
    }
}
