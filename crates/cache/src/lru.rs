//! An exact-capacity LRU line store.

use wp_mrc::U64Map;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been inserted; `evicted` names the line
    /// displaced to make room, if the cache was full.
    Miss {
        /// Line evicted to make room (LRU victim), if any.
        evicted: Option<u64>,
    },
}

/// A fully-associative LRU cache over 64-bit line addresses with an exact
/// line capacity.
///
/// This is the model for a pool's slice of LLC capacity: Jigsaw/Whirlpool
/// enforce per-VC quotas with fine-grain partitioning (Vantage), which
/// approximates exactly this — an LRU-managed region of a fixed number of
/// lines. It is implemented as a slab-backed doubly-linked list (`u32`
/// links) plus a [`U64Map`] index, giving O(1) access, insert, and evict.
/// [`prefetch`](Self::prefetch) hints a line's index slot ahead of an
/// access.
#[derive(Debug, Clone)]
pub struct LruCache {
    index: U64Map<u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // MRU
    tail: u32, // LRU
    capacity: usize,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    addr: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

impl LruCache {
    /// Creates an empty cache holding at most `capacity` lines.
    /// A zero-capacity cache is legal (everything misses, nothing inserts) —
    /// that is how a bypassed VC's residual footprint is modelled.
    pub fn new(capacity: usize) -> Self {
        Self {
            index: U64Map::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Current number of resident lines.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The line capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `addr` is resident (does not touch recency).
    pub fn contains(&self, addr: u64) -> bool {
        self.index.contains_key(addr)
    }

    /// Hints the host CPU to pull in `addr`'s index slot ahead of an
    /// [`access`](Self::access) — a pure performance hint.
    #[inline]
    pub fn prefetch(&self, addr: u64) {
        self.index.prefetch(addr);
    }

    /// Accesses `addr`: hit promotes to MRU; miss inserts at MRU, evicting
    /// the LRU line if at capacity. Zero-capacity caches always miss and
    /// never insert.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        if let Some(&slot) = self.index.get(addr) {
            self.unlink(slot);
            self.push_front(slot);
            return AccessOutcome::Hit;
        }
        if self.capacity == 0 {
            return AccessOutcome::Miss { evicted: None };
        }
        // Under lazy shrinking occupancy can exceed capacity; converge by
        // evicting until the insert fits.
        let mut evicted = None;
        while self.index.len() >= self.capacity {
            evicted = Some(self.evict_lru().expect("non-empty at capacity"));
        }
        let slot = self.alloc(addr);
        self.push_front(slot);
        self.index.insert(addr, slot);
        AccessOutcome::Miss { evicted }
    }

    /// Removes `addr` if resident; returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        match self.index.remove(addr) {
            Some(slot) => {
                self.unlink(slot);
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// Evicts the LRU line, returning its address.
    pub fn evict_lru(&mut self) -> Option<u64> {
        if self.tail == NIL {
            return None;
        }
        let slot = self.tail;
        let addr = self.nodes[slot as usize].addr;
        self.unlink(slot);
        self.index.remove(addr);
        self.free.push(slot);
        Some(addr)
    }

    /// Changes the capacity; if shrinking, evicts LRU lines and returns
    /// them (the invalidations Jigsaw performs on reconfiguration).
    pub fn resize(&mut self, new_capacity: usize) -> Vec<u64> {
        self.capacity = new_capacity;
        let mut evicted = Vec::new();
        while self.index.len() > self.capacity {
            evicted.push(self.evict_lru().expect("len > capacity"));
        }
        evicted
    }

    /// Changes the capacity without evicting: excess lines drain on demand
    /// as insertions arrive (Vantage-style soft shrinking, which is how
    /// fine-grain partitioning converges to new quotas without an
    /// invalidation storm).
    pub fn resize_lazy(&mut self, new_capacity: usize) {
        self.capacity = new_capacity;
    }

    /// Drains every resident line (full invalidation), returning them.
    pub fn drain(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.index.len());
        while let Some(a) = self.evict_lru() {
            out.push(a);
        }
        out
    }

    /// Iterates resident lines from MRU to LRU.
    pub fn iter(&self) -> LruIter<'_> {
        LruIter {
            cache: self,
            cursor: self.head,
        }
    }

    fn alloc(&mut self, addr: u64) -> u32 {
        let node = Node {
            addr,
            prev: NIL,
            next: NIL,
        };
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            let slot = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("LruCache holds fewer than 2^32 - 1 lines");
            self.nodes.push(node);
            slot
        }
    }

    fn push_front(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = NIL;
    }
}

/// Iterator over resident lines, MRU first. Created by [`LruCache::iter`].
#[derive(Debug)]
pub struct LruIter<'a> {
    cache: &'a LruCache,
    cursor: u32,
}

impl Iterator for LruIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.cache.nodes[self.cursor as usize];
        self.cursor = node.next;
        Some(node.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss_evict() {
        let mut c = LruCache::new(2);
        assert_eq!(c.access(10), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(20), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(10), AccessOutcome::Hit);
        assert_eq!(c.access(30), AccessOutcome::Miss { evicted: Some(20) });
        assert_eq!(c.len(), 2);
        assert!(c.contains(10) && c.contains(30) && !c.contains(20));
    }

    #[test]
    fn zero_capacity_never_inserts() {
        let mut c = LruCache::new(0);
        assert_eq!(c.access(1), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.access(1), AccessOutcome::Miss { evicted: None });
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_and_reaccess() {
        let mut c = LruCache::new(4);
        c.access(1);
        c.access(2);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1));
        assert_eq!(c.access(1), AccessOutcome::Miss { evicted: None });
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shrink_evicts_lru_order() {
        let mut c = LruCache::new(4);
        for a in [1u64, 2, 3, 4] {
            c.access(a);
        }
        c.access(1); // 1 is now MRU; LRU order: 2, 3, 4
        let evicted = c.resize(2);
        assert_eq!(evicted, vec![2, 3]);
        assert!(c.contains(1) && c.contains(4));
    }

    #[test]
    fn grow_keeps_contents() {
        let mut c = LruCache::new(1);
        c.access(1);
        assert!(c.resize(8).is_empty());
        c.access(2);
        assert!(c.contains(1) && c.contains(2));
    }

    #[test]
    fn iter_is_mru_first() {
        let mut c = LruCache::new(3);
        for a in [5u64, 6, 7] {
            c.access(a);
        }
        c.access(6);
        let order: Vec<u64> = c.iter().collect();
        assert_eq!(order, vec![6, 7, 5]);
    }

    #[test]
    fn drain_empties() {
        let mut c = LruCache::new(3);
        for a in [1u64, 2, 3] {
            c.access(a);
        }
        let drained = c.drain();
        assert_eq!(drained.len(), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_inclusion_property() {
        // A bigger LRU cache hits on a superset of accesses (stack property).
        let trace: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 37).collect();
        let mut small = LruCache::new(8);
        let mut big = LruCache::new(16);
        for &a in &trace {
            let hs = matches!(small.access(a), AccessOutcome::Hit);
            let hb = matches!(big.access(a), AccessOutcome::Hit);
            assert!(!hs || hb, "small hit but big missed — inclusion violated");
        }
    }

    #[test]
    fn slot_reuse_after_heavy_churn() {
        let mut c = LruCache::new(4);
        for a in 0..10_000u64 {
            c.access(a);
        }
        assert_eq!(c.len(), 4);
        // Slab should not have grown unboundedly: free-list reuse.
        assert!(c.nodes.len() <= 16);
    }
}
