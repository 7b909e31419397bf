//! Controller-RAM read cache: byte-bounded 2Q with strictly
//! deterministic, `BTreeMap`-ordered eviction.
//!
//! Plain LRU is scan-vulnerable: one sequential sweep of a cold volume
//! evicts the whole hot set. 2Q (Johnson & Shasha, VLDB '94) fixes that
//! with three structures:
//!
//! * **probation** — a FIFO holding first-touch entries; a scan flows
//!   through probation and out again without disturbing the hot set;
//! * **protected** — an LRU holding entries re-referenced while in
//!   probation (or remembered by the ghost list);
//! * **ghost** — a bounded set of recently-evicted keys (no payloads);
//!   a miss on a ghosted key admits straight into protected, so a
//!   working set slightly larger than probation still gets promoted.
//!
//! Recency is a monotone logical tick, and every index is a `BTreeMap`
//! keyed by tick — victim selection is `first_key_value()`, so two runs
//! of the same op stream evict identically regardless of worker count
//! or allocator layout.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Fraction of capacity reserved for the probation FIFO (×1/4).
const PROBATION_SHARE: usize = 4;

/// Ghost entries retained per live entry currently cached.
const GHOST_FACTOR: usize = 2;

#[derive(Debug, Clone)]
struct Entry {
    data: Arc<Vec<u8>>,
    /// Recency tick; also the key into the owning queue's index.
    stamp: u64,
    protected: bool,
}

/// A deterministic byte-capacity-bounded 2Q cache keyed by `K`.
#[derive(Debug)]
pub struct RamCache<K: Ord + Copy> {
    capacity_bytes: usize,
    entries: BTreeMap<K, Entry>,
    /// Probation FIFO: insertion tick → key (front = oldest).
    probation: BTreeMap<u64, K>,
    probation_bytes: usize,
    /// Protected LRU: last-touch tick → key (front = coldest).
    protected: BTreeMap<u64, K>,
    protected_bytes: usize,
    /// Ghost list: eviction tick → key, plus the reverse index.
    ghost: BTreeMap<u64, K>,
    ghost_keys: BTreeMap<K, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Copy> RamCache<K> {
    /// Creates a cache bounded to `capacity_bytes` of payload.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            entries: BTreeMap::new(),
            probation: BTreeMap::new(),
            probation_bytes: 0,
            protected: BTreeMap::new(),
            protected_bytes: 0,
            ghost: BTreeMap::new(),
            ghost_keys: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up a payload. A probation hit promotes the entry into
    /// protected (it has now proven a re-reference); a protected hit
    /// refreshes its LRU position.
    pub fn get(&mut self, key: &K) -> Option<Arc<Vec<u8>>> {
        let t = self.next_tick();
        let Some(e) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let len = e.data.len();
        let old = e.stamp;
        let was_protected = e.protected;
        e.stamp = t;
        e.protected = true;
        let data = e.data.clone();
        if was_protected {
            self.protected.remove(&old);
        } else {
            self.probation.remove(&old);
            self.probation_bytes -= len;
            self.protected_bytes += len;
        }
        self.protected.insert(t, *key);
        Some(data)
    }

    /// Whether `key` is resident (no recency side effects).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts a payload. Keys remembered by the ghost list are admitted
    /// straight into protected; first-timers enter probation.
    pub fn put(&mut self, key: K, data: Arc<Vec<u8>>) {
        if data.len() > self.capacity_bytes || self.capacity_bytes == 0 {
            return;
        }
        let t = self.next_tick();
        self.remove(&key);
        let ghosted = self.ghost_keys.remove(&key).inspect(|stamp| {
            self.ghost.remove(stamp);
        });
        let entry = Entry {
            data,
            stamp: t,
            protected: ghosted.is_some(),
        };
        self.index(key, entry);
        self.enforce_capacity();
    }

    /// Makes a non-resident key resident at its entry's queue position.
    fn index(&mut self, key: K, e: Entry) {
        if e.protected {
            self.protected.insert(e.stamp, key);
            self.protected_bytes += e.data.len();
        } else {
            self.probation.insert(e.stamp, key);
            self.probation_bytes += e.data.len();
        }
        self.entries.insert(key, e);
    }

    /// Makes `other` a copy of this cache's hot set (standby warming,
    /// §4.3), skipping keys `keep` rejects. Entries keep their queue and
    /// recency, so the standby evicts in the order this cache would
    /// have. If they overflow `other`, the coldest go first — probation
    /// oldest to newest, then protected oldest to newest — so what stays
    /// is the hottest prefix: protected newest to oldest, then
    /// probation. Payloads are shared, not copied.
    ///
    /// Warming runs every few writes, so its cost lands on the write
    /// path's tail. `other` is therefore updated in place, not rebuilt:
    /// one sorted walk of both entry maps finds the entries that changed
    /// since the last warm, and only those are re-indexed.
    pub fn warm_into(&self, other: &mut RamCache<K>, keep: impl Fn(&K) -> bool) {
        let mut src = self.entries.iter().filter(|(k, _)| keep(k)).peekable();
        let (mut stale, mut fresh) = (Vec::new(), Vec::new());
        for (k, mine) in &other.entries {
            while let Some(new) = src.next_if(|(sk, _)| *sk < k) {
                fresh.push(new);
            }
            match src.next_if(|(sk, _)| *sk == k) {
                Some((_, e))
                    if e.stamp == mine.stamp
                        && e.protected == mine.protected
                        && Arc::ptr_eq(&e.data, &mine.data) => {}
                Some(changed) => {
                    stale.push(*k);
                    fresh.push(changed);
                }
                None => stale.push(*k),
            }
        }
        fresh.extend(src);
        for k in stale {
            other.remove(&k);
        }
        for (&k, e) in fresh {
            other.index(k, e.clone());
        }
        other.tick = self.tick;
        other.ghost.clear();
        other.ghost_keys.clear();
        while other.used_bytes() > other.capacity_bytes {
            let coldest = if other.probation.is_empty() {
                &other.protected
            } else {
                &other.probation
            };
            let (_, &k) = coldest
                .first_key_value()
                .expect("over budget, so non-empty");
            other.remove(&k);
        }
    }

    /// Evicts until within budget: probation first while it exceeds its
    /// share (scans drain without touching the hot set), protected LRU
    /// for the remainder. Evicted keys enter the ghost list.
    fn enforce_capacity(&mut self) {
        let probation_budget = self.capacity_bytes / PROBATION_SHARE;
        while self.probation_bytes + self.protected_bytes > self.capacity_bytes {
            let from_probation = if self.probation.is_empty() {
                false
            } else if self.protected.is_empty() {
                true
            } else {
                self.probation_bytes > probation_budget
            };
            let (stamp, key) = if from_probation {
                let (&s, &k) = self.probation.first_key_value().expect("non-empty");
                (s, k)
            } else {
                let (&s, &k) = self.protected.first_key_value().expect("non-empty");
                (s, k)
            };
            if from_probation {
                self.probation.remove(&stamp);
            } else {
                self.protected.remove(&stamp);
            }
            let e = self.entries.remove(&key).expect("indexed entry exists");
            if e.protected {
                self.protected_bytes -= e.data.len();
            } else {
                self.probation_bytes -= e.data.len();
            }
            self.evictions += 1;
            let g = self.next_tick();
            self.ghost.insert(g, key);
            self.ghost_keys.insert(key, g);
        }
        let ghost_cap = (self.entries.len() * GHOST_FACTOR).max(8);
        while self.ghost.len() > ghost_cap {
            let (&s, &k) = self.ghost.first_key_value().expect("non-empty");
            self.ghost.remove(&s);
            self.ghost_keys.remove(&k);
        }
    }

    /// Removes one key (payload invalidation, e.g. an overwrite or a
    /// freed segment). No ghost entry is left behind — the payload the
    /// ghost would vouch for no longer exists.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(e) = self.entries.remove(key) else {
            return false;
        };
        if e.protected {
            self.protected.remove(&e.stamp);
            self.protected_bytes -= e.data.len();
        } else {
            self.probation.remove(&e.stamp);
            self.probation_bytes -= e.data.len();
        }
        true
    }

    /// Removes every resident key `pred` matches (segment invalidation).
    pub fn retain(&mut self, mut pred: impl FnMut(&K) -> bool) {
        let victims: Vec<K> = self.entries.keys().filter(|k| !pred(k)).copied().collect();
        for k in victims {
            self.remove(&k);
        }
    }

    /// Bytes resident.
    pub fn used_bytes(&self) -> usize {
        self.probation_bytes + self.protected_bytes
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses, evictions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(c: &mut RamCache<u64>, k: u64, n: usize) {
        c.put(k, Arc::new(vec![k as u8; n]));
    }

    #[test]
    fn get_put_round_trip() {
        let mut c = RamCache::new(1024);
        assert!(c.get(&1).is_none());
        put(&mut c, 1, 100);
        assert_eq!(c.get(&1).unwrap().len(), 100);
        assert_eq!(c.stats(), (1, 1, 0));
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn get_put_and_stats() {
        let mut c = RamCache::new(1024);
        assert_eq!(c.get(&1), None);
        c.put(1, Arc::new(vec![1, 2, 3]));
        assert_eq!(c.get(&1), Some(Arc::new(vec![1, 2, 3])));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.stats(), (1, 2, 0));
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let mut c = RamCache::new(1000);
        put(&mut c, 0, 400);
        put(&mut c, 1, 400);
        c.get(&0); // touch 0 so 1 is the victim
        put(&mut c, 2, 400); // evicts 1
        assert!(c.get(&0).is_some());
        assert!(c.get(&1).is_none());
        assert!(c.get(&2).is_some());
        assert!(c.used_bytes() <= 1000);
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn oversized_payloads_are_skipped() {
        let mut c = RamCache::new(10);
        put(&mut c, 1, 100);
        assert_eq!(c.used_bytes(), 0);
        put(&mut c, 2, 10);
        assert_eq!(c.used_bytes(), 10);
        put(&mut c, 3, 11);
        assert!(c.contains(&2) && !c.contains(&3));
    }

    #[test]
    fn scan_does_not_evict_the_hot_set() {
        let mut c = RamCache::new(1000);
        // Build a protected hot set: insert then re-reference.
        for k in 0..3u64 {
            put(&mut c, k, 200);
            c.get(&k);
        }
        // A long one-touch scan flows through probation only.
        for k in 100..140u64 {
            put(&mut c, k, 200);
        }
        for k in 0..3u64 {
            assert!(c.get(&k).is_some(), "hot key {k} survived the scan");
        }
    }

    #[test]
    fn ghosted_keys_readmit_into_protected() {
        let mut c = RamCache::new(800);
        put(&mut c, 1, 300);
        // Push 1 out through probation.
        put(&mut c, 2, 300);
        put(&mut c, 3, 300);
        put(&mut c, 4, 300);
        assert!(!c.contains(&1));
        // Re-inserting a ghosted key lands protected: it now survives
        // further probation churn.
        put(&mut c, 1, 300);
        put(&mut c, 5, 300);
        put(&mut c, 6, 300);
        assert!(c.contains(&1), "ghost admission protected key 1");
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = RamCache::new(1000);
        for k in 0..50u64 {
            put(&mut c, k, 90);
            if k % 3 == 0 {
                c.get(&k);
            }
            assert!(c.used_bytes() <= 1000, "at k={k}: {}", c.used_bytes());
        }
        let (_, _, ev) = c.stats();
        assert!(ev > 0);
    }

    #[test]
    fn remove_and_retain_drop_entries() {
        let mut c = RamCache::new(1000);
        put(&mut c, 1, 100);
        put(&mut c, 2, 100);
        assert!(c.remove(&1));
        assert!(!c.remove(&1));
        assert!(!c.contains(&1));
        c.retain(|&k| k != 2);
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn oversized_and_zero_capacity_are_rejected() {
        let mut c = RamCache::new(10);
        put(&mut c, 1, 100);
        assert!(c.is_empty());
        let mut z: RamCache<u64> = RamCache::new(0);
        z.put(1, Arc::new(vec![0; 1]));
        assert!(z.is_empty());
    }

    #[test]
    fn warming_copies_hottest_first() {
        let mut primary = RamCache::new(1000);
        for k in 0..4u64 {
            put(&mut primary, k, 200);
        }
        primary.get(&0); // hottest: the only protected entry
        let mut secondary = RamCache::new(500);
        put(&mut secondary, 9, 100); // stale standby content is replaced
        primary.warm_into(&mut secondary, |&k| k != 3);
        // 0 (protected), then probation newest first: 3 is rejected, 2
        // fits, and 1 would overflow.
        assert!(secondary.contains(&0) && secondary.contains(&2));
        assert!(!secondary.contains(&3), "rejected key was warmed");
        assert!(!secondary.contains(&1) && !secondary.contains(&9));
        assert_eq!(secondary.used_bytes(), 400);
        // Warmed entries keep their queue: key 0 is still protected, so a
        // one-touch scan through the standby cannot evict it.
        for k in 100..110u64 {
            put(&mut secondary, k, 100);
        }
        assert!(secondary.contains(&0));
        assert!(!secondary.contains(&2));
    }

    #[test]
    fn rewarming_matches_a_fresh_warm() {
        let snapshot = |c: &RamCache<u64>| {
            let entries: Vec<_> = c
                .entries
                .iter()
                .map(|(k, e)| (*k, e.stamp, e.protected, Arc::as_ptr(&e.data)))
                .collect();
            let bytes = (c.probation_bytes, c.protected_bytes, c.tick);
            (entries, c.probation.clone(), c.protected.clone(), bytes)
        };
        let mut primary = RamCache::new(3000);
        let mut standby = RamCache::new(3000);
        for round in 0..6u64 {
            // Admissions, evictions, promotions, replacements, removals.
            for k in 0..12u64 {
                let key = (k * 7 + round * 5) % 29;
                put(&mut primary, key, 100 + (key as usize % 3) * 50);
                primary.get(&((key * 3) % 29));
            }
            primary.remove(&(round % 29));
            primary.warm_into(&mut standby, |&k| k % 5 != 0);
            let mut fresh = RamCache::new(3000);
            primary.warm_into(&mut fresh, |&k| k % 5 != 0);
            assert_eq!(snapshot(&standby), snapshot(&fresh), "round {round}");
            assert!(standby.entries.keys().all(|k| k % 5 != 0));
            let held: usize = standby.entries.values().map(|e| e.data.len()).sum();
            assert_eq!(standby.used_bytes(), held);
        }
    }

    #[test]
    fn replacing_an_entry_adjusts_usage() {
        let mut c = RamCache::new(100);
        put(&mut c, 1, 60);
        put(&mut c, 1, 40);
        assert_eq!(c.used_bytes(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn segment_invalidation() {
        // Keys shaped like a physical address: (segment, offset).
        let mut c: RamCache<(u64, u64)> = RamCache::new(1024);
        c.put((1, 0), Arc::new(vec![1]));
        c.put((1, 8), Arc::new(vec![1]));
        c.put((2, 0), Arc::new(vec![2]));
        c.retain(|&(segment, _)| segment != 1);
        assert!(c.get(&(1, 0)).is_none());
        assert!(c.get(&(1, 8)).is_none());
        assert!(c.get(&(2, 0)).is_some());
        assert_eq!(c.used_bytes(), 1);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c = RamCache::new(2000);
            let mut log = String::new();
            for k in 0..60u64 {
                put(&mut c, (k * 7) % 23, 150);
                if k % 4 == 1 {
                    c.get(&((k * 5) % 23));
                }
                let keys: Vec<u64> = c.entries.keys().copied().collect();
                log.push_str(&format!("{keys:?};"));
            }
            log
        };
        assert_eq!(run(), run());
    }
}
