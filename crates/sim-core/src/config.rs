//! Architecture configuration (paper Table I) as plain data.
//!
//! Defaults reproduce the evaluated configuration: an 8-core out-of-order
//! processor with a three-level cache hierarchy, dual-channel 32 GiB main
//! memory, 8-way 256 KiB counter/tree metadata caches, an 8-ary Bonsai Merkle
//! Tree with split (64-bit major / 7-bit minor) counters, and the IvLeague
//! parameters (204 KiB LMM cache, 2-entry per-domain NFLB, 4-level TreeLings,
//! 4 Ki TreeLings, 128-entry hotpage tracker).

use ivl_testkit::kv::{KvDoc, KvError};

use crate::Cycle;

/// Geometry and latency of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in core cycles.
    pub hit_latency: Cycle,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> usize {
        let lines = self.capacity_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways),
            "cache capacity must be a multiple of ways * line size"
        );
        lines / self.ways
    }
}

/// Per-core pipeline and private-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Number of out-of-order cores.
    pub cores: usize,
    /// Base (memory-idle) IPC of the modeled OoO pipeline.
    pub base_ipc: f64,
    /// Memory-level parallelism: average overlap factor applied to memory
    /// stall cycles (an OoO core hides part of each miss).
    pub mlp: f64,
    /// Private L1 data cache.
    pub l1: CacheConfig,
    /// Private L2 cache.
    pub l2: CacheConfig,
}

/// Shared last-level cache configuration. The LLC is always the
/// MIRAGE-style randomized skewed cache the paper's baseline integrates
/// as its side-channel defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcConfig {
    /// Geometry and latency.
    pub cache: CacheConfig,
}

/// DRAM device and channel timing (DDR-style, in memory-controller cycles
/// normalized to core cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Total main-memory capacity in bytes (32 GiB).
    pub capacity_bytes: u64,
    /// Independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: usize,
    /// Activate-to-column delay (tRCD) in core cycles.
    pub t_rcd: Cycle,
    /// Column access latency (tCAS) in core cycles.
    pub t_cas: Cycle,
    /// Precharge latency (tRP) in core cycles.
    pub t_rp: Cycle,
    /// Data burst occupancy per access in core cycles.
    pub t_burst: Cycle,
    /// Read/write queue capacity per channel.
    pub queue_depth: usize,
}

/// Secure-memory (encryption + integrity) configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecureMemConfig {
    /// AES engine latency for one-time-pad generation, cycles.
    pub aes_latency: Cycle,
    /// Keyed-hash latency per tree-node hash, cycles.
    pub hash_latency: Cycle,
    /// Integrity-tree arity (hashes per 64 B node).
    pub tree_arity: usize,
    /// Counter metadata cache (8-way 256 KiB).
    pub counter_cache: CacheConfig,
    /// Integrity-tree metadata cache (8-way 256 KiB).
    pub tree_cache: CacheConfig,
    /// MAC bytes per data block.
    pub mac_bytes: usize,
}

/// Which IvLeague variant a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IvVariant {
    /// IvLeague-Basic: leaf-only page mapping.
    Basic,
    /// IvLeague-Invert: top-down intermediate-node mapping (Section VII-A).
    Invert,
    /// IvLeague-Pro: Invert plus hotpage region and migration (Section VII-B).
    Pro,
}

impl IvVariant {
    /// All variants in evaluation order.
    pub const ALL: [IvVariant; 3] = [IvVariant::Basic, IvVariant::Invert, IvVariant::Pro];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            IvVariant::Basic => "IvLeague-Basic",
            IvVariant::Invert => "IvLeague-Invert",
            IvVariant::Pro => "IvLeague-Pro",
        }
    }
}

/// IvLeague mechanism parameters (Table I, "IvLeague Params").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvLeagueConfig {
    /// Levels of tree nodes inside each TreeLing, below (and including) the
    /// TreeLing root's children... precisely: a TreeLing root sits `levels`
    /// levels above the counter blocks, so one TreeLing covers
    /// `arity^levels` counter blocks (= pages, with 64-counter blocks).
    pub treeling_levels: usize,
    /// Number of TreeLings provisioned in the system (4 Ki).
    pub treeling_count: usize,
    /// LMM cache entries (8 Ki entries ≈ 204 KiB with 16-way organization).
    pub lmm_cache_entries: usize,
    /// LMM cache associativity.
    pub lmm_cache_ways: usize,
    /// LMM cache hit latency, cycles.
    pub lmm_hit_latency: Cycle,
    /// On-chip NFL buffer entries per domain.
    pub nflb_entries_per_domain: usize,
    /// NFL entries per in-memory NFL block (64 B block / 8 B entry).
    pub nfl_entries_per_block: usize,
    /// Hotpage tracker entries per domain (IvLeague-Pro).
    pub tracker_entries: usize,
    /// Access-counter width of the tracker, bits.
    pub tracker_counter_bits: u32,
    /// Accesses after which a tracked page is promoted to the hot region.
    pub hot_threshold: u32,
    /// Tracker decay interval (accesses) after which counters clear.
    pub tracker_clear_interval: u64,
    /// Fraction of each TreeLing's leaf capacity reserved for the hot region.
    pub hot_region_fraction: f64,
}

/// Complete system configuration (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core + private caches.
    pub core: CoreConfig,
    /// Shared LLC.
    pub llc: LlcConfig,
    /// DRAM.
    pub dram: DramConfig,
    /// Secure-memory engine.
    pub secure: SecureMemConfig,
    /// IvLeague parameters.
    pub ivleague: IvLeagueConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            core: CoreConfig {
                cores: 8,
                base_ipc: 1.6,
                mlp: 3.0,
                l1: CacheConfig {
                    capacity_bytes: 32 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    hit_latency: 4,
                },
                l2: CacheConfig {
                    capacity_bytes: 1024 * 1024,
                    ways: 4,
                    line_bytes: 64,
                    hit_latency: 12,
                },
            },
            llc: LlcConfig {
                cache: CacheConfig {
                    capacity_bytes: 8 * 1024 * 1024,
                    ways: 16,
                    line_bytes: 64,
                    hit_latency: 40,
                },
            },
            dram: DramConfig {
                capacity_bytes: 32 * 1024 * 1024 * 1024,
                channels: 2,
                ranks_per_channel: 2,
                banks_per_rank: 8,
                row_bytes: 8 * 1024,
                t_rcd: 44,
                t_cas: 44,
                t_rp: 44,
                t_burst: 16,
                queue_depth: 64,
            },
            secure: SecureMemConfig {
                aes_latency: 20,
                hash_latency: 20,
                tree_arity: 8,
                counter_cache: CacheConfig {
                    capacity_bytes: 256 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    hit_latency: 8,
                },
                tree_cache: CacheConfig {
                    capacity_bytes: 256 * 1024,
                    ways: 8,
                    line_bytes: 64,
                    hit_latency: 8,
                },
                mac_bytes: 8,
            },
            ivleague: IvLeagueConfig::default(),
        }
    }
}

impl Default for IvLeagueConfig {
    fn default() -> Self {
        IvLeagueConfig {
            treeling_levels: 5,
            treeling_count: 4096,
            lmm_cache_entries: 8192,
            lmm_cache_ways: 16,
            lmm_hit_latency: 2,
            nflb_entries_per_domain: 2,
            nfl_entries_per_block: 8,
            tracker_entries: 128,
            tracker_counter_bits: 8,
            hot_threshold: 16,
            tracker_clear_interval: 1_000_000,
            hot_region_fraction: 0.125,
        }
    }
}

impl SystemConfig {
    /// Total number of 4 KiB pages covered by main memory.
    pub fn total_pages(&self) -> u64 {
        self.dram.capacity_bytes / crate::addr::PAGE_BYTES as u64
    }

    /// Serializes the configuration to the TOML-subset text form
    /// (`ivl-testkit`'s key=value serializer; see DESIGN.md §5).
    pub fn to_toml(&self) -> String {
        let mut doc = KvDoc::new();
        let c = &self.core;
        doc.set_usize("core.cores", c.cores);
        doc.set_f64("core.base_ipc", c.base_ipc);
        doc.set_f64("core.mlp", c.mlp);
        put_cache(&mut doc, "core.l1", &c.l1);
        put_cache(&mut doc, "core.l2", &c.l2);
        put_cache(&mut doc, "llc.cache", &self.llc.cache);
        let d = &self.dram;
        doc.set_u64("dram.capacity_bytes", d.capacity_bytes);
        doc.set_usize("dram.channels", d.channels);
        doc.set_usize("dram.ranks_per_channel", d.ranks_per_channel);
        doc.set_usize("dram.banks_per_rank", d.banks_per_rank);
        doc.set_usize("dram.row_bytes", d.row_bytes);
        doc.set_u64("dram.t_rcd", d.t_rcd);
        doc.set_u64("dram.t_cas", d.t_cas);
        doc.set_u64("dram.t_rp", d.t_rp);
        doc.set_u64("dram.t_burst", d.t_burst);
        doc.set_usize("dram.queue_depth", d.queue_depth);
        let s = &self.secure;
        doc.set_u64("secure.aes_latency", s.aes_latency);
        doc.set_u64("secure.hash_latency", s.hash_latency);
        doc.set_usize("secure.tree_arity", s.tree_arity);
        doc.set_usize("secure.mac_bytes", s.mac_bytes);
        put_cache(&mut doc, "secure.counter_cache", &s.counter_cache);
        put_cache(&mut doc, "secure.tree_cache", &s.tree_cache);
        let iv = &self.ivleague;
        doc.set_usize("ivleague.treeling_levels", iv.treeling_levels);
        doc.set_usize("ivleague.treeling_count", iv.treeling_count);
        doc.set_usize("ivleague.lmm_cache_entries", iv.lmm_cache_entries);
        doc.set_usize("ivleague.lmm_cache_ways", iv.lmm_cache_ways);
        doc.set_u64("ivleague.lmm_hit_latency", iv.lmm_hit_latency);
        doc.set_usize(
            "ivleague.nflb_entries_per_domain",
            iv.nflb_entries_per_domain,
        );
        doc.set_usize("ivleague.nfl_entries_per_block", iv.nfl_entries_per_block);
        doc.set_usize("ivleague.tracker_entries", iv.tracker_entries);
        doc.set_u64(
            "ivleague.tracker_counter_bits",
            iv.tracker_counter_bits as u64,
        );
        doc.set_u64("ivleague.hot_threshold", iv.hot_threshold as u64);
        doc.set_u64("ivleague.tracker_clear_interval", iv.tracker_clear_interval);
        doc.set_f64("ivleague.hot_region_fraction", iv.hot_region_fraction);
        doc.to_toml_string()
    }

    /// Parses a configuration previously produced by [`Self::to_toml`]
    /// (unknown keys are ignored; missing or mistyped keys error).
    pub fn from_toml(text: &str) -> Result<Self, KvError> {
        let doc = KvDoc::parse(text)?;
        Ok(SystemConfig {
            core: CoreConfig {
                cores: doc.get_usize("core.cores")?,
                base_ipc: doc.get_f64("core.base_ipc")?,
                mlp: doc.get_f64("core.mlp")?,
                l1: get_cache(&doc, "core.l1")?,
                l2: get_cache(&doc, "core.l2")?,
            },
            llc: LlcConfig {
                cache: get_cache(&doc, "llc.cache")?,
            },
            dram: DramConfig {
                capacity_bytes: doc.get_u64("dram.capacity_bytes")?,
                channels: doc.get_usize("dram.channels")?,
                ranks_per_channel: doc.get_usize("dram.ranks_per_channel")?,
                banks_per_rank: doc.get_usize("dram.banks_per_rank")?,
                row_bytes: doc.get_usize("dram.row_bytes")?,
                t_rcd: doc.get_u64("dram.t_rcd")?,
                t_cas: doc.get_u64("dram.t_cas")?,
                t_rp: doc.get_u64("dram.t_rp")?,
                t_burst: doc.get_u64("dram.t_burst")?,
                queue_depth: doc.get_usize("dram.queue_depth")?,
            },
            secure: SecureMemConfig {
                aes_latency: doc.get_u64("secure.aes_latency")?,
                hash_latency: doc.get_u64("secure.hash_latency")?,
                tree_arity: doc.get_usize("secure.tree_arity")?,
                counter_cache: get_cache(&doc, "secure.counter_cache")?,
                tree_cache: get_cache(&doc, "secure.tree_cache")?,
                mac_bytes: doc.get_usize("secure.mac_bytes")?,
            },
            ivleague: IvLeagueConfig {
                treeling_levels: doc.get_usize("ivleague.treeling_levels")?,
                treeling_count: doc.get_usize("ivleague.treeling_count")?,
                lmm_cache_entries: doc.get_usize("ivleague.lmm_cache_entries")?,
                lmm_cache_ways: doc.get_usize("ivleague.lmm_cache_ways")?,
                lmm_hit_latency: doc.get_u64("ivleague.lmm_hit_latency")?,
                nflb_entries_per_domain: doc.get_usize("ivleague.nflb_entries_per_domain")?,
                nfl_entries_per_block: doc.get_usize("ivleague.nfl_entries_per_block")?,
                tracker_entries: doc.get_usize("ivleague.tracker_entries")?,
                tracker_counter_bits: doc.get_u32("ivleague.tracker_counter_bits")?,
                hot_threshold: doc.get_u32("ivleague.hot_threshold")?,
                tracker_clear_interval: doc.get_u64("ivleague.tracker_clear_interval")?,
                hot_region_fraction: doc.get_f64("ivleague.hot_region_fraction")?,
            },
        })
    }
}

fn put_cache(doc: &mut KvDoc, prefix: &str, c: &CacheConfig) {
    doc.set_usize(&format!("{prefix}.capacity_bytes"), c.capacity_bytes);
    doc.set_usize(&format!("{prefix}.ways"), c.ways);
    doc.set_usize(&format!("{prefix}.line_bytes"), c.line_bytes);
    doc.set_u64(&format!("{prefix}.hit_latency"), c.hit_latency);
}

fn get_cache(doc: &KvDoc, prefix: &str) -> Result<CacheConfig, KvError> {
    Ok(CacheConfig {
        capacity_bytes: doc.get_usize(&format!("{prefix}.capacity_bytes"))?,
        ways: doc.get_usize(&format!("{prefix}.ways"))?,
        line_bytes: doc.get_usize(&format!("{prefix}.line_bytes"))?,
        hit_latency: doc.get_u64(&format!("{prefix}.hit_latency"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SystemConfig::default();
        assert_eq!(c.core.cores, 8);
        assert_eq!(c.core.l1.capacity_bytes, 32 * 1024);
        assert_eq!(c.core.l1.ways, 8);
        assert_eq!(c.core.l2.capacity_bytes, 1024 * 1024);
        assert_eq!(c.llc.cache.capacity_bytes, 8 * 1024 * 1024);
        assert_eq!(c.llc.cache.hit_latency, 40);
        assert_eq!(c.secure.aes_latency, 20);
        assert_eq!(c.ivleague.hot_threshold, 16);
        assert_eq!(c.secure.tree_arity, 8);
        assert_eq!(c.secure.tree_cache.capacity_bytes, 256 * 1024);
        assert_eq!(c.ivleague.treeling_count, 4096);
        assert_eq!(c.ivleague.nflb_entries_per_domain, 2);
        assert_eq!(c.ivleague.tracker_entries, 128);
        assert_eq!(c.dram.channels, 2);
        assert_eq!(c.total_pages(), 8 * 1024 * 1024);
    }

    #[test]
    fn cache_sets_geometry() {
        let c = CacheConfig {
            capacity_bytes: 32 * 1024,
            ways: 8,
            line_bytes: 64,
            hit_latency: 4,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn cache_sets_rejects_ragged_geometry() {
        let c = CacheConfig {
            capacity_bytes: 100,
            ways: 3,
            line_bytes: 64,
            hit_latency: 1,
        };
        let _ = c.sets();
    }

    #[test]
    fn variant_labels_are_paper_names() {
        assert_eq!(IvVariant::Basic.label(), "IvLeague-Basic");
        assert_eq!(IvVariant::ALL.len(), 3);
    }

    #[test]
    fn config_is_cloneable_and_comparable() {
        let c = SystemConfig::default();
        let d = c.clone();
        assert_eq!(c, d);
    }

    #[test]
    fn toml_round_trips_default_config() {
        let c = SystemConfig::default();
        let text = c.to_toml();
        let back = SystemConfig::from_toml(&text).expect("parse own output");
        assert_eq!(c, back);
    }

    #[test]
    fn toml_round_trips_modified_config() {
        let mut c = SystemConfig::default();
        c.core.cores = 64;
        c.core.base_ipc = 2.5;
        c.llc.cache.hit_latency = 36;
        c.ivleague.hot_region_fraction = 0.0625;
        c.dram.capacity_bytes = 128 * 1024 * 1024 * 1024;
        let back = SystemConfig::from_toml(&c.to_toml()).expect("parse");
        assert_eq!(c, back);
    }

    #[test]
    fn toml_output_is_sectioned() {
        let text = SystemConfig::default().to_toml();
        assert!(text.contains("[core.l1]\n"));
        assert!(text.contains("[dram]\n"));
        assert!(text.contains("[ivleague]\n"));
        assert!(text.contains("capacity_bytes = 32768\n"));
    }

    #[test]
    fn from_toml_ignores_the_retired_llc_randomized_key() {
        // Files written before the knob was removed carry
        // `llc.randomized`; unknown keys are ignored, so they still parse.
        let c = SystemConfig::default();
        let old = format!("{}\n[llc]\nrandomized = false\n", c.to_toml());
        assert_eq!(SystemConfig::from_toml(&old).expect("parse"), c);
    }

    #[test]
    fn from_toml_reports_missing_keys() {
        let err = SystemConfig::from_toml("[core]\ncores = 8\n").unwrap_err();
        assert!(matches!(err, ivl_testkit::kv::KvError::MissingKey(_)));
    }
}
