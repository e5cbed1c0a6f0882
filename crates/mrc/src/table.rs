//! An open-addressing hash table keyed by `u64`, with a prefetch hint.
//!
//! The simulator's per-access state — an LRU partition's line index, the
//! NUCA runtime's page map, a Mattson stack's last-access times — is a
//! `u64`-keyed map probed in a hash-scattered order, so one lookup is
//! usually a host-cache miss.
//! `std`'s map hides where a key lives; [`U64Map`] keeps its slots in one
//! flat array and exposes [`prefetch`](U64Map::prefetch), so a batched
//! scheme loop can pull in the slot of event `i + k` while it serves event
//! `i` (see `LlcScheme::access_batch` in `wp-sim`).
//!
//! Linear probing over interleaved `(key, value)` slots: a hit usually
//! touches one 64 B line. Deletion shifts the following cluster back, so
//! the table never accumulates tombstones however long an LRU partition
//! churns. The table starts empty (or presized, for a Mattson stack that
//! knows its footprint) and doubles on demand.

/// Marks an empty slot. The key `u64::MAX` itself lives outside the slot
/// array, in [`U64Map::max_key`], so it never collides with this marker.
const EMPTY: u64 = u64::MAX;

/// Slots of the first allocation.
const MIN_SLOTS: usize = 8;

/// Slot-array index bits of a key: a 64-bit finalizer (splitmix64's), so
/// the low bits depend on every key bit. It is deliberately unrelated to
/// the Fibonacci hash `SampledStack` samples lines with: the lines a GMON
/// keeps are exactly those whose Fibonacci hash has zero top bits, and a
/// table indexed by that same hash would pile them into a corner.
#[inline]
fn mix(key: u64) -> u64 {
    let mut h = key;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// A `u64 → V` hash map with open addressing and a [`prefetch`] hint.
///
/// The operations mirror `HashMap`'s (`get`, `get_mut`, `insert`,
/// `remove`), and iteration order is unspecified.
///
/// [`prefetch`]: U64Map::prefetch
///
/// # Example
///
/// ```
/// use wp_mrc::U64Map;
///
/// let mut m = U64Map::new();
/// assert_eq!(m.insert(7, 'a'), None);
/// assert_eq!(m.insert(u64::MAX, 'b'), None);
/// m.prefetch(7); // a pure hint: no effect on contents
/// assert_eq!(m.get(7), Some(&'a'));
/// assert_eq!(m.remove(u64::MAX), Some('b'));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct U64Map<V> {
    /// `(key, value)` pairs; `key == EMPTY` marks a free slot (its value
    /// is a `Default` placeholder). Length 0 or a power of two.
    slots: Vec<(u64, V)>,
    /// Keys in `slots` (the `u64::MAX` entry is not counted here).
    used: usize,
    /// The value of key `u64::MAX`, which the slot array cannot hold.
    max_key: Option<V>,
}

impl<V: Copy + Default> Default for U64Map<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> U64Map<V> {
    /// Creates an empty map. Nothing is allocated until the first insert.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            used: 0,
            max_key: None,
        }
    }

    /// Creates an empty map that holds `n` entries before it first grows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut m = Self::new();
        if n > 0 {
            let slots = (n * 4).div_ceil(3).next_power_of_two().max(MIN_SLOTS);
            m.slots = vec![(EMPTY, V::default()); slots];
        }
        m
    }

    /// Keys the slot array holds before it next grows (the key
    /// `u64::MAX` is stored apart and never makes it grow).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len() * 3 / 4
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.used + usize::from(self.max_key.is_some())
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len().wrapping_sub(1)
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        mix(key) as usize & self.mask()
    }

    /// Slot index holding `key`, if present (`key != EMPTY`).
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].0;
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Hints the host CPU to pull in the slot `key` hashes to, so a
    /// lookup of `key` shortly after finds it in cache. Purely a
    /// performance hint: the map is not read or changed.
    #[inline]
    pub fn prefetch(&self, key: u64) {
        if !self.slots.is_empty() {
            crate::prefetch::prefetch_read(&self.slots[self.home(key)]);
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The value of `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if key == EMPTY {
            return self.max_key.as_ref();
        }
        self.find(key).map(|i| &self.slots[i].1)
    }

    /// The value of `key` for in-place update, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if key == EMPTY {
            return self.max_key.as_mut();
        }
        self.find(key).map(|i| &mut self.slots[i].1)
    }

    /// Inserts `key → value`, returning the previous value of `key`.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if key == EMPTY {
            return self.max_key.replace(value);
        }
        if let Some(i) = self.find(key) {
            return Some(std::mem::replace(&mut self.slots[i].1, value));
        }
        // Keep the load at most 3/4: linear probing's miss cost grows
        // quadratically with load, and LLC lookups miss often.
        if (self.used + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        self.place(key, value);
        self.used += 1;
        None
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if key == EMPTY {
            return self.max_key.take();
        }
        let mut hole = self.find(key)?;
        let value = self.slots[hole].1;
        // Backward-shift deletion: walk the rest of the cluster and move
        // back every entry whose home does not lie cyclically in
        // `(hole, j]` — it was probed past the hole and must stay
        // reachable without a tombstone.
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.slots[j].0;
            if k == EMPTY {
                break;
            }
            let home = self.home(k);
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (EMPTY, V::default());
        self.used -= 1;
        Some(value)
    }

    /// Every value, for in-place update, in unspecified order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots
            .iter_mut()
            .filter(|s| s.0 != EMPTY)
            .map(|s| &mut s.1)
            .chain(self.max_key.as_mut())
    }

    /// Stores a key known to be absent, with room guaranteed.
    fn place(&mut self, key: u64, value: V) {
        let mask = self.mask();
        let mut i = self.home(key);
        while self.slots[i].0 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (key, value);
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, V::default()); new_len]);
        for (k, v) in old {
            if k != EMPTY {
                self.place(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_key_does_not_collide_with_the_empty_marker() {
        let mut m = U64Map::new();
        assert_eq!(m.get(u64::MAX), None);
        m.insert(u64::MAX, 1u32);
        m.insert(u64::MAX - 1, 2);
        assert_eq!(m.get(u64::MAX), Some(&1));
        assert_eq!(m.get(u64::MAX - 1), Some(&2));
        assert_eq!(m.len(), 2);
        *m.get_mut(u64::MAX).unwrap() = 3;
        assert_eq!(m.remove(u64::MAX), Some(3));
        assert_eq!(m.get(u64::MAX), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn removal_keeps_probe_chains_reachable() {
        // Dense small keys collide and wrap around the slot array; delete
        // every other one and the rest must still be found.
        let mut m = U64Map::new();
        for k in 0..1000u64 {
            m.insert(k, k as u32);
        }
        for k in (0..1000u64).step_by(2) {
            assert_eq!(m.remove(k), Some(k as u32));
        }
        for k in 0..1000u64 {
            assert_eq!(m.get(k).copied(), (k % 2 == 1).then_some(k as u32));
        }
        assert_eq!(m.len(), 500);
    }

    #[test]
    fn presized_map_holds_its_capacity_without_growing() {
        for n in [1usize, 6, 7, 1000] {
            let mut m = U64Map::with_capacity(n);
            let cap = m.capacity();
            assert!(cap >= n, "{n}: capacity {cap}");
            for k in 0..n as u64 {
                m.insert(k, 0u32);
            }
            m.insert(u64::MAX, 0);
            assert_eq!(m.capacity(), cap, "{n}: grew");
            assert_eq!(m.len(), n + 1);
        }
    }

    #[test]
    fn values_mut_visits_every_value_once() {
        let mut m = U64Map::new();
        for k in 0..100u64 {
            m.insert(k * 7, k as u32);
        }
        m.insert(u64::MAX, 100);
        for v in m.values_mut() {
            *v += 1;
        }
        for k in 0..100u64 {
            assert_eq!(m.get(k * 7), Some(&(k as u32 + 1)));
        }
        assert_eq!(m.get(u64::MAX), Some(&101));
        assert_eq!(m.values_mut().count(), 101);
    }

    #[test]
    fn empty_map_allocates_nothing() {
        let m: U64Map<u32> = U64Map::new();
        assert_eq!(m.slots.capacity(), 0);
        m.prefetch(5);
        assert!(m.is_empty() && !m.contains_key(5));
    }

    #[test]
    fn sampled_lines_spread_over_the_whole_table() {
        // Lines a 1-in-4 GMON samples (Fibonacci hash, top two bits
        // zero) must not crowd one quarter of the slot array.
        let sampled = (0u64..)
            .filter(|l| l.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0)
            .take(3000);
        let mut m = U64Map::new();
        for l in sampled {
            m.insert(l, 0u8);
        }
        let quarter = m.slots.len() / 4;
        for q in 0..4 {
            let used = m.slots[q * quarter..(q + 1) * quarter]
                .iter()
                .filter(|s| s.0 != EMPTY)
                .count();
            assert!(
                used * 8 > m.used,
                "quarter {q} holds only {used} of {} keys",
                m.used
            );
        }
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// `n` keys whose home slot is `slot` in every table of up to
        /// 1024 slots: one long collision cluster (`slot == 0`), or one
        /// that wraps past the end of the array (`slot == 1023`).
        fn sharing_home(slot: u64, n: usize) -> Vec<u64> {
            (0u64..)
                .filter(|&k| mix(k) & 1023 == slot)
                .take(n)
                .collect()
        }

        /// Lines a 1-in-4 GMON samples: Fibonacci hash with the top two
        /// bits zero.
        fn fibonacci_sampled(n: usize) -> Vec<u64> {
            (0u64..)
                .filter(|l| l.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0)
                .take(n)
                .collect()
        }

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Insert(u64, u32),
            Get(u64),
            GetMut(u64, u32),
            Remove(u64),
        }

        /// Random operation sequences over a key universe mixing the
        /// edge cases with plain small keys.
        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let mut keys = vec![u64::MAX, u64::MAX - 1, 0, 1];
            keys.extend(sharing_home(0, 40));
            keys.extend(sharing_home(1023, 40));
            keys.extend(fibonacci_sampled(80));
            keys.extend(1000..1100);
            let n = keys.len();
            let op = (0u8..4, 0..n, 0u32..1000).prop_map(move |(kind, k, v)| {
                let key = keys[k];
                match kind {
                    0 => Op::Insert(key, v),
                    1 => Op::Get(key),
                    2 => Op::GetMut(key, v),
                    _ => Op::Remove(key),
                }
            });
            proptest::collection::vec(op, 0..600)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn behaves_like_std_hashmap(ops in ops()) {
                let mut table = U64Map::new();
                let mut model: HashMap<u64, u32> = HashMap::new();
                for op in ops {
                    match op {
                        Op::Insert(k, v) => prop_assert_eq!(table.insert(k, v), model.insert(k, v)),
                        Op::Get(k) => prop_assert_eq!(table.get(k), model.get(&k)),
                        Op::GetMut(k, v) => {
                            let t = table.get_mut(k).map(|x| std::mem::replace(x, v));
                            let m = model.get_mut(&k).map(|x| std::mem::replace(x, v));
                            prop_assert_eq!(t, m);
                        }
                        Op::Remove(k) => prop_assert_eq!(table.remove(k), model.remove(&k)),
                    }
                    prop_assert_eq!(table.len(), model.len());
                }
                for (&k, v) in &model {
                    prop_assert_eq!(table.get(k), Some(v));
                }
                let slotted = table.slots.iter().filter(|s| s.0 != EMPTY).count();
                prop_assert_eq!(slotted + usize::from(model.contains_key(&u64::MAX)), model.len());
            }
        }
    }
}
