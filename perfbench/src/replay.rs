//! DRAM from outside: capture a point's DRAM request stream through the
//! model's own trace events, then replay it through `DramModel::access`
//! on a fresh model to price one request.
//!
//! The integrity schemes drive a concrete `&mut DramModel`, so DRAM has no
//! seam inside the traced runner's integrity spans. The replay supplies
//! the missing number: `access_ns` times the requests a span issued is the
//! DRAM share carved out of that span.
//!
//! A trace event carries the request's channel, bank and row-buffer
//! outcome but not its address. Row outcomes depend only on whether the
//! bank's open row matches, so the replay synthesizes one row per bank and
//! keeps it on a hit, moves to a new one on a conflict, and recovers an
//! address that decodes to exactly that (channel, bank, row). When the
//! capture starts from a reset model (nothing dropped from the trace
//! ring), every replayed latency must equal the recorded one.

use ivl_dram::{DramCoord, DramModel};
use ivl_sim_core::addr::{BlockAddr, BLOCK_BYTES};
use ivl_sim_core::config::{DramConfig, SystemConfig};
use ivl_sim_core::obs::{EventKind, ObsConfig, RowResult, TraceFilter, TraceRecord};
use ivl_sim_core::Cycle;
use ivl_simulator::{run_mix_observed, MixResult, RunConfig, SchemeKind};
use ivl_workloads::mixes::Mix;
use std::time::Instant;

/// Trace-ring capacity of a capture pass: the stream's most recent
/// requests (about 56 MB of records).
const CAPTURE_CAP: usize = 1 << 20;

/// Timed replays per capture; the median is reported.
const REPLAYS: usize = 5;

/// One captured DRAM request, ready to replay.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Issue cycle.
    pub now: Cycle,
    /// A block that decodes to the recorded (channel, bank) and the
    /// synthesized row.
    pub block: BlockAddr,
    /// Write request.
    pub is_write: bool,
    /// Recorded service latency.
    pub latency: Cycle,
}

/// A captured stream.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The run's result (must equal the untraced one).
    pub result: MixResult,
    /// Requests in issue order.
    pub requests: Vec<Request>,
    /// Whether the stream starts at the model's reset state.
    pub from_reset: bool,
}

/// Outcome of replaying a capture.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Median host nanoseconds per `DramModel::access`.
    pub access_ns: f64,
    /// Requests whose latency was checked against the recording.
    pub checked: u64,
    /// Checked requests whose latency differed.
    pub mismatches: u64,
}

/// The block whose decoded coordinates are `c` (the inverse of
/// `DramModel::coord`).
fn block_at(cfg: &DramConfig, c: DramCoord) -> BlockAddr {
    let banks_per_channel = (cfg.ranks_per_channel * cfg.banks_per_rank) as u64;
    let blocks_per_row = (cfg.row_bytes / BLOCK_BYTES) as u64;
    let row_global = c.row * banks_per_channel + c.bank as u64;
    BlockAddr::new(c.channel as u64 + cfg.channels as u64 * row_global * blocks_per_row)
}

/// Runs the point with the DRAM trace on and rebuilds its request stream.
pub fn capture(mix: &Mix, scheme: SchemeKind, run: &RunConfig) -> Capture {
    let cfg = SystemConfig::default();
    let obs_cfg = ObsConfig {
        trace: true,
        trace_cap: CAPTURE_CAP,
        trace_filter: TraceFilter::parse("dram"),
        ..ObsConfig::off()
    };
    let observed = run_mix_observed(mix, scheme, run, &cfg, &obs_cfg);
    let dropped = observed.registry.counter("obs.trace.dropped").unwrap_or(0);
    let mut records: Vec<TraceRecord> = observed.events;
    records.sort_by_key(|r| r.seq);
    let requests = synthesize(&cfg.dram, &records);
    Capture {
        result: observed.result,
        requests,
        from_reset: dropped == 0,
    }
}

/// Maps recorded DRAM events to replayable requests.
fn synthesize(cfg: &DramConfig, records: &[TraceRecord]) -> Vec<Request> {
    let banks_per_channel = cfg.ranks_per_channel * cfg.banks_per_rank;
    let decoder = DramModel::new(cfg);
    let mut open: Vec<Option<u64>> = vec![None; cfg.channels * banks_per_channel];
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        let EventKind::DramAccess {
            channel,
            bank,
            row,
            is_write,
            latency,
        } = r.kind
        else {
            continue;
        };
        let (channel, bank) = (channel as usize, bank as usize);
        let slot = &mut open[channel * banks_per_channel + bank];
        let row = match (row, *slot) {
            (RowResult::Hit, Some(open_row)) => open_row,
            (RowResult::Conflict, Some(open_row)) => open_row + 1,
            // A tail capture can open on a hit or conflict to a bank it
            // has not seen yet; any row will do for timing.
            _ => 0,
        };
        *slot = Some(row);
        let c = DramCoord { channel, bank, row };
        let block = block_at(cfg, c);
        debug_assert_eq!(decoder.coord(block), c);
        out.push(Request {
            now: r.cycle,
            block,
            is_write,
            latency,
        });
    }
    out
}

/// Replays `requests` on fresh models: times the accesses and, when the
/// stream starts from reset, checks every latency.
pub fn replay(cfg: &DramConfig, requests: &[Request], from_reset: bool) -> Replay {
    let mut ns = Vec::with_capacity(REPLAYS);
    let mut mismatches = 0;
    for _ in 0..REPLAYS {
        let mut dram = DramModel::new(cfg);
        let mut wrong = 0u64;
        let t = Instant::now();
        for r in requests {
            let done = dram.access(r.now, r.block, r.is_write);
            wrong += u64::from(done - r.now != r.latency);
        }
        let dt = t.elapsed().as_secs_f64();
        ns.push(dt * 1e9 / requests.len().max(1) as f64);
        mismatches = wrong;
    }
    ns.sort_by(f64::total_cmp);
    let n = requests.len() as u64;
    Replay {
        access_ns: ns[REPLAYS / 2],
        checked: if from_reset { n } else { 0 },
        mismatches: if from_reset { mismatches } else { 0 },
    }
}
