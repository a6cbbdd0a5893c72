//! Cached mapping table (CMT): which translation pages of the L2P table the
//! controller DRAM holds (the paper's §2.2 notes the FTL caches the L2P
//! table in the SSD's DRAM).

use venice_sim::DenseBitSet;

/// Hit and miss counts of the mapping cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (requiring a mapping-table flash read).
    pub misses: u64,
}

/// The resident translation pages of an L2P table that fits whole in
/// controller DRAM.
///
/// Each *translation page* covers `entries_per_page` consecutive logical
/// pages. The cache covers the whole logical space, so it never evicts: a
/// lookup misses only on the first touch of its translation page, the
/// caller then issues one `MapRead` flash transaction and calls
/// [`MappingCache::fill`], and every later lookup of that page hits.
/// Mapping updates stay in DRAM, so nothing is ever written back.
///
/// # Example
///
/// ```
/// use venice_ftl::MappingCache;
/// let mut c = MappingCache::covering(1024, 512);
/// assert!(!c.lookup(0));        // cold miss on translation page 0
/// c.fill(0);
/// assert!(c.lookup(511));       // same translation page: hit
/// assert!(!c.lookup(512));      // next translation page: miss
/// assert_eq!((c.stats().hits, c.stats().misses), (1, 2));
/// ```
#[derive(Clone, Debug)]
pub struct MappingCache {
    entries_per_page: u64,
    /// Indexed by translation page.
    resident: DenseBitSet,
    stats: CacheStats,
}

impl MappingCache {
    /// An empty cache over logical pages `0..logical_pages`, each
    /// translation page covering `entries_per_page` of them.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_page` is zero.
    pub fn covering(logical_pages: u64, entries_per_page: u64) -> Self {
        assert!(entries_per_page > 0, "entries per page must be positive");
        let pages = logical_pages.div_ceil(entries_per_page);
        MappingCache {
            entries_per_page,
            resident: DenseBitSet::with_capacity(pages as usize),
            stats: CacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Checks whether the translation page covering `lpa` is resident,
    /// counting a hit or a miss.
    ///
    /// # Panics
    ///
    /// Panics if `lpa` is outside the logical space.
    pub fn lookup(&mut self, lpa: u64) -> bool {
        let hit = self.resident.contains(self.translation_page(lpa));
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);
        hit
    }

    /// Makes the translation page covering `lpa` resident (once its
    /// `MapRead` is issued); filling a resident page changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `lpa` is outside the logical space.
    pub fn fill(&mut self, lpa: u64) {
        self.resident.insert(self.translation_page(lpa));
    }

    fn translation_page(&self, lpa: u64) -> usize {
        (lpa / self.entries_per_page) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_sim::rng::Xorshift64Star;

    /// Random lookups over a logical space whose last translation page is
    /// partial: each translation page misses once, on its first touch, and
    /// hits on every later lookup; filling it again changes nothing.
    #[test]
    fn each_translation_page_misses_once_and_fill_is_idempotent() {
        let (logical_pages, per_page) = (1000, 128); // 7 full pages + 104 entries
        let mut c = MappingCache::covering(logical_pages, per_page);
        let mut touched = vec![false; logical_pages.div_ceil(per_page) as usize];
        let mut rng = Xorshift64Star::new(29);
        for _ in 0..5000 {
            let lpa = rng.next_bounded(logical_pages);
            let tp = (lpa / per_page) as usize;
            assert_eq!(c.lookup(lpa), touched[tp], "lpa {lpa}");
            if !touched[tp] {
                c.fill(lpa);
                touched[tp] = true;
            }
            c.fill(lpa);
            let distinct = touched.iter().filter(|&&t| t).count();
            assert_eq!(c.resident.len(), distinct);
            assert_eq!(c.stats().misses, distinct as u64);
        }
        assert!(touched.iter().all(|&t| t), "every translation page touched");
        assert!(
            c.lookup(logical_pages - 1),
            "the partial last page is resident"
        );
        assert_eq!(c.stats().hits + c.stats().misses, 5001);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn lookups_past_the_logical_space_panic() {
        MappingCache::covering(1000, 128).lookup(1024);
    }
}
