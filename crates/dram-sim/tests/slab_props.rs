//! Property test for the DRAM timing model: completion times and
//! idle-window accounting both match an independent slab-shadow model of
//! the timing math, under the default geometry and under random
//! non-power-of-two ones.

use ivl_dram::DramModel;
use ivl_sim_core::addr::{BlockAddr, BLOCK_BYTES};
use ivl_sim_core::config::{DramConfig, SystemConfig};
use ivl_sim_core::rng::Xoshiro256;
use ivl_sim_core::Cycle;
use ivl_testkit::prelude::*;

/// Independent replica of the timing slabs using the lazy
/// `now.max(slab)` math and the div/mod address decode, plus the touched-bank rule the idle-skip counter
/// is defined by: a request to a previously-touched bank whose array freed
/// at `busy_until` skips `now - busy_until` idle cycles.
struct SlabShadow {
    cfg: DramConfig,
    banks_per_channel: usize,
    blocks_per_row: u64,
    open_row: Vec<u64>,
    busy_until: Vec<Cycle>,
    bus_free: Vec<Cycle>,
    touched: Vec<bool>,
    idle_skipped: u64,
}

impl SlabShadow {
    fn new(cfg: &DramConfig) -> Self {
        let banks_per_channel = cfg.ranks_per_channel * cfg.banks_per_rank;
        let total = cfg.channels * banks_per_channel;
        SlabShadow {
            cfg: *cfg,
            banks_per_channel,
            blocks_per_row: (cfg.row_bytes / BLOCK_BYTES) as u64,
            open_row: vec![u64::MAX; total],
            busy_until: vec![0; total],
            bus_free: vec![0; cfg.channels],
            touched: vec![false; total],
            idle_skipped: 0,
        }
    }

    fn access(&mut self, now: Cycle, block: BlockAddr) -> Cycle {
        let idx = block.index();
        let channel = (idx % self.cfg.channels as u64) as usize;
        let row_global = idx / self.cfg.channels as u64 / self.blocks_per_row;
        let bank = (row_global % self.banks_per_channel as u64) as usize;
        let row = row_global / self.banks_per_channel as u64;
        let bi = channel * self.banks_per_channel + bank;

        if self.touched[bi] {
            self.idle_skipped += now.saturating_sub(self.busy_until[bi]);
        }
        self.touched[bi] = true;

        let start = now.max(self.busy_until[bi]);
        let array = if self.open_row[bi] == row {
            self.cfg.t_cas
        } else if self.open_row[bi] != u64::MAX {
            self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
        } else {
            self.cfg.t_rcd + self.cfg.t_cas
        };
        let data_ready = start + array;
        let done = data_ready.max(self.bus_free[channel]) + self.cfg.t_burst;
        self.open_row[bi] = row;
        self.busy_until[bi] = data_ready;
        self.bus_free[channel] = done;
        done
    }
}

/// The default (power-of-two, shift/mask decode) geometry, or one with
/// three channels (div/mod decode) and random ranks, banks and row size.
fn geometry(default: bool, rng: &mut Xoshiro256) -> DramConfig {
    let mut cfg = SystemConfig::default().dram;
    if !default {
        cfg.channels = 3;
        cfg.ranks_per_channel = 1 + rng.index(2);
        cfg.banks_per_rank = 1 + rng.index(8);
        cfg.row_bytes = BLOCK_BYTES * (1 + rng.index(48));
    }
    cfg
}

props! {
    #![cases(64)]

    #[test]
    fn timing_and_idle_skip_match_slab_shadow(
        seed in any::<u64>(),
        accesses in 20usize..200,
        default_geometry in any::<bool>(),
    ) {
        let mut rng = Xoshiro256::seed_from(seed);
        let cfg = geometry(default_geometry, &mut rng);
        let blocks_per_row = (cfg.row_bytes / BLOCK_BYTES) as u64;
        let banks_per_channel = (cfg.ranks_per_channel * cfg.banks_per_rank) as u64;
        let mut dram = DramModel::new(&cfg);
        let mut shadow = SlabShadow::new(&cfg);
        let mut now: Cycle = 0;
        for _ in 0..accesses {
            // Mixed cadence: bursts at one cycle, short gaps, long idle
            // windows.
            now += match rng.index(4) {
                0 => 0,
                1 => 1 + rng.next_u64() % 50,
                2 => 1 + rng.next_u64() % 2_000,
                _ => 10_000 + rng.next_u64() % 500_000,
            };
            // A few rows in a few banks of every channel, so row hits,
            // conflicts and same-bank queueing all occur often.
            let (channel, column) = (
                rng.next_u64() % cfg.channels as u64,
                rng.next_u64() % blocks_per_row,
            );
            let bank = rng.next_u64() % banks_per_channel.min(4);
            let row = rng.next_u64() % 3;
            let per_channel = (row * banks_per_channel + bank) * blocks_per_row + column;
            let block = BlockAddr::new(per_channel * cfg.channels as u64 + channel);
            let is_write = rng.chance(0.3);
            let done = dram.access(now, block, is_write);
            prop_assert_eq!(done, shadow.access(now, block));
        }
        // Idle-skip accounting must match the slab definition exactly.
        prop_assert_eq!(dram.stats().idle_skipped_cycles.get(), shadow.idle_skipped);
    }
}
