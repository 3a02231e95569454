//! Output checks: a canonical digest of a point's simulated result, and the
//! committed table of expected digests at the default seed.

use ivl_simulator::MixResult;
use std::collections::BTreeMap;

/// Expected digests at [`DEFAULT_SEED`](crate::workload::DEFAULT_SEED), one
/// `<workload> <mix>/<scheme> <digest>` line per point.
pub const EXPECTED: &str = include_str!("../expected.txt");

/// FNV-1a over the canonical rendering of the fields a simulator-only
/// change must leave identical: per-core instructions and cycles, every
/// `IvStats` counter, the path length, the read-latency sum and the
/// measured core accesses. Fields are named explicitly (not `Debug`), so a
/// new statistic elsewhere does not invalidate the table.
pub fn digest(r: &MixResult) -> String {
    let s = &r.stats;
    let mut text = format!("{} {}", r.mix, r.scheme.label());
    for c in &r.cores {
        text += &format!(" core {} {} {}", c.benchmark, c.instrs, c.cycles);
    }
    let counts = [
        s.data_reads,
        s.data_writes,
        s.meta_reads,
        s.meta_writes,
        s.verifications,
        s.path_len_sum,
        s.nfl_mem_reads,
        s.nfl_mem_writes,
        s.nfl_claims,
        s.nfl_recycles,
        s.hot_migrations,
        s.hot_demotions,
        s.alloc_failures,
    ];
    text += &format!(" stats {counts:?} {:?}", s.fetches_by_level);
    for hm in [
        s.counter_cache,
        s.tree_cache,
        s.mac_cache,
        s.lmm_cache,
        s.nflb,
    ] {
        text += &format!(" {}/{}", hm.hits(), hm.misses());
    }
    text += &format!(
        " path {:016x} reads {} lat {} acc {}",
        r.avg_path_length.to_bits(),
        r.llc_miss_reads,
        r.read_latency_sum,
        r.core_accesses
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Every field of the result, for exact traced-vs-untraced and
/// repeat-vs-repeat comparison.
pub fn full_rendering(r: &MixResult) -> String {
    format!("{r:?}")
}

/// Parses [`EXPECTED`] into `(workload, point label) → digest`.
pub fn expected_table() -> BTreeMap<(String, String), String> {
    EXPECTED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (w, p, d) = (it.next()?, it.next()?, it.next()?);
            Some(((w.to_string(), p.to_string()), d.to_string()))
        })
        .collect()
}
