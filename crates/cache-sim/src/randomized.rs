//! MIRAGE-style randomized skewed cache.
//!
//! The paper's baseline hardens the shared LLC and the metadata caches with
//! MIRAGE, a randomized fully-associative-eviction design. This model keeps
//! MIRAGE's two security-relevant properties while staying cheap to
//! simulate:
//!
//! 1. **Keyed randomized indexing** — the set index of a key is derived from
//!    a keyed mix, not from address bits, in each of two skews;
//! 2. **Random global eviction** — victims are chosen (pseudo-)randomly, so
//!    eviction sets are not predictable from addresses.
//!
//! The timing behavior (hit/miss rates under a working set) is what the
//! performance evaluation needs; the security property matters for the
//! attack models, which treat a randomized cache as un-primable.
//!
//! # Layout
//!
//! Each skew stores a flat, set-major tag array plus per-set `u16`
//! `valid`/`dirty` bitmasks (one bit per way), the packed form of
//! [`SetAssocCache`](crate::set_assoc::SetAssocCache) (DESIGN.md §6). No
//! recency state is kept: victims are random, so nothing orders the ways.
//! An access computes each skew's set index once, compares the set's ways
//! branchlessly into a hit mask, and fills the lowest invalid way. The
//! bitmasks cap a skew at [`MAX_WAYS_PER_SKEW`] ways. A differential test
//! holds this layout to the earlier array-of-line-structs implementation.

use ivl_sim_core::rng::{splitmix64, Xoshiro256};

use crate::{AccessOutcome, CacheModel, CacheTally, Evicted};

/// Maximum ways per skew the `u16` per-set bitmasks support.
pub const MAX_WAYS_PER_SKEW: usize = 16;

/// A two-skew randomized cache with keyed indexing and random eviction.
///
/// Per skew it stores one tag per line and a valid and a dirty bit per line
/// (as per-set bitmasks); the replacement state is the eviction PRNG alone.
///
/// # Examples
///
/// ```
/// use ivl_cache::{CacheModel, randomized::RandomizedCache};
/// let mut c = RandomizedCache::new(64, 8, 0xDEAD);
/// assert!(!c.access(42, false).hit);
/// assert!(c.access(42, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct RandomizedCache {
    /// `sets_per_skew - 1`; every skew keeps all sets.
    set_mask: usize,
    /// Ways per skew (total associativity is `2 * ways_per_skew`).
    ways_per_skew: usize,
    /// All-ways-present bitmask (`ways_per_skew` low bits set).
    way_mask: u16,
    /// `tags[skew][set * ways_per_skew + way]`; only meaningful where the
    /// valid bit is set.
    tags: [Box<[u64]>; 2],
    /// `valid[skew][set]`: bit `w` = way `w` holds a line.
    valid: [Box<[u16]>; 2],
    /// `dirty[skew][set]`: bit `w` = way `w` is dirty.
    dirty: [Box<[u16]>; 2],
    index_keys: [u64; 2],
    rng: Xoshiro256,
    tally: CacheTally,
}

impl RandomizedCache {
    /// Creates a randomized cache with `sets` total sets and `ways` total
    /// associativity, split across two skews.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is an even power of two and `ways` is even.
    /// Panics if `ways / 2` exceeds [`MAX_WAYS_PER_SKEW`].
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        assert!(
            sets >= 2 && sets.is_power_of_two(),
            "sets must be a power of two >= 2"
        );
        assert!(
            ways >= 2 && ways.is_multiple_of(2),
            "ways must be even and >= 2"
        );
        // Each skew keeps every set but half the ways, so total capacity is
        // exactly `sets * ways` lines.
        let sets_per_skew = sets;
        let ways_per_skew = ways / 2;
        assert!(
            ways_per_skew <= MAX_WAYS_PER_SKEW,
            "at most {MAX_WAYS_PER_SKEW} ways per skew supported"
        );
        let (k0, s1) = splitmix64(seed);
        let (k1, _) = splitmix64(s1);
        // `vec![0; n]` allocates zeroed memory, so an empty cache costs no
        // writes however large it is.
        let tags = || vec![0u64; sets_per_skew * ways_per_skew].into_boxed_slice();
        let masks = || vec![0u16; sets_per_skew].into_boxed_slice();
        RandomizedCache {
            set_mask: sets_per_skew - 1,
            ways_per_skew,
            way_mask: u16::MAX >> (MAX_WAYS_PER_SKEW - ways_per_skew),
            tags: [tags(), tags()],
            valid: [masks(), masks()],
            dirty: [masks(), masks()],
            index_keys: [k0, k1],
            rng: Xoshiro256::seed_from(seed ^ 0xC0FF_EE00),
            tally: CacheTally::default(),
        }
    }

    /// Lifetime access tallies (hits, misses, evictions).
    pub fn tally(&self) -> CacheTally {
        self.tally
    }

    /// Creates a cache from a capacity/associativity/line-size geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`new`](Self::new)).
    pub fn with_geometry(capacity_bytes: usize, ways: usize, line_bytes: usize, seed: u64) -> Self {
        let lines = capacity_bytes / line_bytes;
        assert!(lines.is_multiple_of(ways), "capacity must divide into ways");
        Self::new(lines / ways, ways, seed)
    }

    #[inline]
    fn skew_set(&self, skew: usize, key: u64) -> usize {
        let (mixed, _) = splitmix64(key ^ self.index_keys[skew]);
        (mixed as usize) & self.set_mask
    }

    /// `key`'s set in each skew.
    #[inline]
    fn sets_of(&self, key: u64) -> [usize; 2] {
        [self.skew_set(0, key), self.skew_set(1, key)]
    }

    /// Way holding `key` in `set` of `skew`, if resident. Compares every
    /// way into a match mask, then masks with the valid bits; valid tags
    /// are unique, so the lowest set bit (if any) is the way in scan order.
    #[inline]
    fn find(&self, skew: usize, set: usize, key: u64) -> Option<usize> {
        let base = set * self.ways_per_skew;
        let tags = &self.tags[skew][base..base + self.ways_per_skew];
        let mut hits = 0u16;
        for (w, &tag) in tags.iter().enumerate() {
            hits |= u16::from(tag == key) << w;
        }
        let m = hits & self.valid[skew][set];
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// The resident line of `key` as `(skew, set, way)`, searching skew 0
    /// first.
    #[inline]
    fn locate(&self, sets: [usize; 2], key: u64) -> Option<(usize, usize, usize)> {
        (0..2).find_map(|skew| {
            self.find(skew, sets[skew], key)
                .map(|way| (skew, sets[skew], way))
        })
    }

    fn access_inner(&mut self, key: u64, is_write: bool) -> AccessOutcome {
        let sets = self.sets_of(key);
        if let Some((skew, set, way)) = self.locate(sets, key) {
            self.dirty[skew][set] |= u16::from(is_write) << way;
            return AccessOutcome {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }

        // Miss: fill the lowest invalid way of the first skew, skew 0 first,
        // whose candidate set has one (first fit, not a load comparison of
        // the two sets); otherwise pick a random skew and a random victim
        // within the set — the random global-eviction approximation.
        let free = [
            !self.valid[0][sets[0]] & self.way_mask,
            !self.valid[1][sets[1]] & self.way_mask,
        ];
        let (skew, way, evicted) = if let Some(skew) = (0..2).find(|&s| free[s] != 0) {
            (skew, free[skew].trailing_zeros() as usize, None)
        } else {
            let skew = (self.rng.next_u64() & 1) as usize;
            let way = self.rng.index(self.ways_per_skew);
            let victim = Evicted {
                key: self.tags[skew][sets[skew] * self.ways_per_skew + way],
                dirty: self.dirty[skew][sets[skew]] & (1 << way) != 0,
            };
            (skew, way, Some(victim))
        };
        let set = sets[skew];
        let bit = 1u16 << way;
        self.tags[skew][set * self.ways_per_skew + way] = key;
        self.valid[skew][set] |= bit;
        self.dirty[skew][set] = (self.dirty[skew][set] & !bit) | (u16::from(is_write) << way);
        AccessOutcome {
            hit: false,
            evicted,
            bypassed: false,
        }
    }
}

impl CacheModel for RandomizedCache {
    fn access(&mut self, key: u64, is_write: bool) -> AccessOutcome {
        let outcome = self.access_inner(key, is_write);
        self.tally.record(&outcome);
        outcome
    }

    fn probe(&self, key: u64) -> bool {
        self.locate(self.sets_of(key), key).is_some()
    }

    fn invalidate(&mut self, key: u64) -> Option<bool> {
        let (skew, set, way) = self.locate(self.sets_of(key), key)?;
        let bit = 1u16 << way;
        let dirty = self.dirty[skew][set] & bit != 0;
        self.valid[skew][set] &= !bit;
        self.dirty[skew][set] &= !bit;
        Some(dirty)
    }

    fn occupancy(&self) -> usize {
        self.valid
            .iter()
            .flat_map(|skew| skew.iter())
            .map(|v| v.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut c = RandomizedCache::new(16, 4, 1);
        assert!(!c.access(99, false).hit);
        assert!(c.access(99, false).hit);
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = RandomizedCache::new(16, 4, 2);
        for k in 0..1000u64 {
            c.access(k, false);
        }
        assert!(c.occupancy() <= 16 * 4);
        assert!(c.occupancy() > 16 * 4 / 2, "cache should fill up");
    }

    #[test]
    fn different_seeds_different_mappings() {
        let a = RandomizedCache::new(64, 4, 10);
        let b = RandomizedCache::new(64, 4, 11);
        // At least one of a handful of keys should map differently in skew 0.
        let differs = (0..32u64).any(|k| a.skew_set(0, k) != b.skew_set(0, k));
        assert!(differs);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = RandomizedCache::new(8, 2, 3);
        c.access(7, true);
        assert_eq!(c.invalidate(7), Some(true));
        assert!(!c.probe(7));
    }

    #[test]
    fn dirty_writeback_reported_under_pressure() {
        let mut c = RandomizedCache::new(2, 2, 4);
        let mut saw_dirty_victim = false;
        for k in 0..64u64 {
            let out = c.access(k, true);
            if out.evicted.map(|e| e.dirty).unwrap_or(false) {
                saw_dirty_victim = true;
            }
        }
        assert!(saw_dirty_victim);
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = RandomizedCache::new(8, 2, 9);
        assert!(!c.probe(5));
        assert!(!c.access(5, false).hit, "probe must not have filled");
    }

    #[test]
    fn write_marks_dirty_for_later_eviction_reporting() {
        let mut c = RandomizedCache::new(2, 2, 10);
        c.access(1, false);
        c.access(1, true); // upgrade to dirty
        assert_eq!(c.invalidate(1), Some(true));
    }

    #[test]
    fn occupancy_counts_valid_lines_only() {
        let mut c = RandomizedCache::new(8, 2, 11);
        assert_eq!(c.occupancy(), 0);
        c.access(1, false);
        c.access(2, false);
        c.invalidate(1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn tally_matches_observed_outcomes() {
        let mut c = RandomizedCache::new(8, 2, 7);
        let mut hits = 0u64;
        let mut evictions = 0u64;
        for k in 0..40u64 {
            let out = c.access(k % 10, false);
            hits += out.hit as u64;
            evictions += out.evicted.is_some() as u64;
        }
        let t = c.tally();
        assert_eq!(t.hits, hits);
        assert_eq!(t.misses, 40 - hits);
        assert_eq!(t.evictions, evictions);
    }

    #[test]
    fn working_set_within_capacity_mostly_hits() {
        let mut c = RandomizedCache::new(64, 8, 5);
        let ws: Vec<u64> = (0..128).collect(); // 128 blocks in a 512-line cache
        for &k in &ws {
            c.access(k, false);
        }
        let hits = ws.iter().filter(|&&k| c.access(k, false).hit).count();
        assert!(hits as f64 >= 0.95 * ws.len() as f64, "hits {hits}");
    }

    #[test]
    fn sixteen_ways_per_skew_supported_seventeen_rejected() {
        let mut c = RandomizedCache::new(2, 2 * MAX_WAYS_PER_SKEW, 12);
        // A key fills an invalid way of either candidate set, so a long
        // enough key stream fills every way of both skews.
        for k in 0..1000u64 {
            c.access(k, false);
        }
        assert_eq!(c.occupancy(), 2 * 2 * MAX_WAYS_PER_SKEW);
        assert!(std::panic::catch_unwind(|| RandomizedCache::new(2, 34, 12)).is_err());
    }

    /// The pre-packing implementation (array of line structs with an
    /// unread recency stamp), kept verbatim as the behavioral oracle for
    /// the differential test below.
    mod reference {
        use ivl_sim_core::rng::{splitmix64, Xoshiro256};

        use crate::{AccessOutcome, CacheTally, Evicted};

        #[derive(Debug, Clone, Copy)]
        struct Line {
            key: u64,
            valid: bool,
            dirty: bool,
            lru: u64,
        }

        const EMPTY: Line = Line {
            key: 0,
            valid: false,
            dirty: false,
            lru: 0,
        };

        pub struct RefCache {
            sets_per_skew: usize,
            ways_per_skew: usize,
            lines: [Vec<Line>; 2],
            index_keys: [u64; 2],
            rng: Xoshiro256,
            clock: u64,
            tally: CacheTally,
        }

        impl RefCache {
            pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
                let sets_per_skew = sets;
                let ways_per_skew = ways / 2;
                let (k0, s1) = splitmix64(seed);
                let (k1, _) = splitmix64(s1);
                RefCache {
                    sets_per_skew,
                    ways_per_skew,
                    lines: [
                        vec![EMPTY; sets_per_skew * ways_per_skew],
                        vec![EMPTY; sets_per_skew * ways_per_skew],
                    ],
                    index_keys: [k0, k1],
                    rng: Xoshiro256::seed_from(seed ^ 0xC0FF_EE00),
                    clock: 0,
                    tally: CacheTally::default(),
                }
            }

            pub fn tally(&self) -> CacheTally {
                self.tally
            }

            fn skew_set(&self, skew: usize, key: u64) -> usize {
                let (mixed, _) = splitmix64(key ^ self.index_keys[skew]);
                (mixed as usize) & (self.sets_per_skew - 1)
            }

            fn set_range(&self, skew: usize, key: u64) -> std::ops::Range<usize> {
                let set = self.skew_set(skew, key);
                set * self.ways_per_skew..(set + 1) * self.ways_per_skew
            }

            fn access_inner(&mut self, key: u64, is_write: bool) -> AccessOutcome {
                self.clock += 1;
                let clock = self.clock;

                for skew in 0..2 {
                    let range = self.set_range(skew, key);
                    if let Some(line) = self.lines[skew][range]
                        .iter_mut()
                        .find(|l| l.valid && l.key == key)
                    {
                        line.lru = clock;
                        line.dirty |= is_write;
                        return AccessOutcome {
                            hit: true,
                            evicted: None,
                            bypassed: false,
                        };
                    }
                }

                let mut chosen: Option<(usize, usize)> = None;
                for skew in 0..2 {
                    let range = self.set_range(skew, key);
                    if let Some(off) = self.lines[skew][range.clone()]
                        .iter()
                        .position(|l| !l.valid)
                    {
                        chosen = Some((skew, range.start + off));
                        break;
                    }
                }
                let (skew, idx, evicted) = match chosen {
                    Some((skew, idx)) => (skew, idx, None),
                    None => {
                        let skew = (self.rng.next_u64() & 1) as usize;
                        let range = self.set_range(skew, key);
                        let off = self.rng.index(self.ways_per_skew);
                        let idx = range.start + off;
                        let old = self.lines[skew][idx];
                        (
                            skew,
                            idx,
                            Some(Evicted {
                                key: old.key,
                                dirty: old.dirty,
                            }),
                        )
                    }
                };
                self.lines[skew][idx] = Line {
                    key,
                    valid: true,
                    dirty: is_write,
                    lru: clock,
                };
                AccessOutcome {
                    hit: false,
                    evicted,
                    bypassed: false,
                }
            }

            pub fn access(&mut self, key: u64, is_write: bool) -> AccessOutcome {
                let outcome = self.access_inner(key, is_write);
                self.tally.record(&outcome);
                outcome
            }

            pub fn probe(&self, key: u64) -> bool {
                (0..2).any(|skew| {
                    let range = self.set_range(skew, key);
                    self.lines[skew][range]
                        .iter()
                        .any(|l| l.valid && l.key == key)
                })
            }

            pub fn invalidate(&mut self, key: u64) -> Option<bool> {
                for skew in 0..2 {
                    let range = self.set_range(skew, key);
                    for line in self.lines[skew][range].iter_mut() {
                        if line.valid && line.key == key {
                            let dirty = line.dirty;
                            *line = EMPTY;
                            return Some(dirty);
                        }
                    }
                }
                None
            }

            pub fn occupancy(&self) -> usize {
                self.lines
                    .iter()
                    .map(|skew| skew.iter().filter(|l| l.valid).count())
                    .sum()
            }
        }
    }

    /// Packed implementation vs. the old struct-of-lines implementation
    /// under a seeded op mix (reads, writes, invalidations, probes) across
    /// several geometries, from one way per skew to the default LLC's
    /// eight and the sixteen-way limit. Small key spaces keep sets filling
    /// and evicting, so the random victim draws are exercised constantly;
    /// every outcome (victim key and dirtiness included) and every
    /// aggregate must agree after every op.
    #[test]
    fn differential_against_reference_implementation() {
        let mut rng = Xoshiro256::seed_from(0x5EED_011C);
        for (sets, ways, seed) in [
            (2, 2, 1),
            (8, 2, 2),
            (4, 4, 3),
            (2, 6, 4),
            (16, 16, 5),
            (2, 32, 6),
        ] {
            let mut packed = RandomizedCache::new(sets, ways, seed);
            let mut reference = reference::RefCache::new(sets, ways, seed);
            let key_space = (sets * ways * 2) as u64;
            for step in 0..20_000 {
                let key = rng.next_below(key_space);
                match rng.next_below(8) {
                    0 => assert_eq!(
                        packed.invalidate(key),
                        reference.invalidate(key),
                        "invalidate @{step} (sets={sets} ways={ways})"
                    ),
                    1 => assert_eq!(packed.probe(key), reference.probe(key), "probe @{step}"),
                    op => {
                        let is_write = op % 2 == 0;
                        assert_eq!(
                            packed.access(key, is_write),
                            reference.access(key, is_write),
                            "access @{step} (sets={sets} ways={ways})"
                        );
                    }
                }
                assert_eq!(packed.probe(key), reference.probe(key), "probe @{step}");
                assert_eq!(packed.occupancy(), reference.occupancy(), "occ @{step}");
                assert_eq!(packed.tally(), reference.tally(), "tally @{step}");
            }
            assert!(packed.tally().evictions > 0, "geometry never evicted");
        }
    }
}
