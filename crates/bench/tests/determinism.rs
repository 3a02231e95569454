//! Campaign determinism: the work-stealing parallel runner must be
//! invisible in the results. Every (mix, scheme) simulation owns its
//! models and PRNG streams, so a serial sweep and a stolen-to-pieces
//! parallel sweep of the same matrix must produce **bit-identical**
//! `MixResult`s — any divergence means shared mutable state leaked into
//! the simulation (or a nondeterministic map iteration started steering
//! timing), which would also poison figure reproducibility.

use ivl_bench::run_matrix_on_with_workers;
use ivl_simulator::{run_mix_with_scheduler, RunConfig, SchedulerKind, SchemeKind};
use ivl_workloads::mixes::MIXES;

const MAIN_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Baseline,
    SchemeKind::IvBasic,
    SchemeKind::IvInvert,
    SchemeKind::IvPro,
];

/// The event-calendar core scheduler must be invisible in the results:
/// popping core-ready events from a binary heap has to reproduce the
/// pre-refactor linear `min_by_key` scan's loose global ordering —
/// least-advanced core first, ties to the lowest core index —
/// **bit-for-bit**, across the full 16-mix × 4-scheme matrix. Any
/// divergence means the calendar reordered simultaneous cores (or dropped
/// or duplicated a requeue), which would silently change every figure.
#[test]
fn event_calendar_is_bit_identical_to_linear_scan() {
    let run = RunConfig::smoke_test();
    for mix in &MIXES {
        for scheme in MAIN_SCHEMES {
            let linear = run_mix_with_scheduler(mix, scheme, &run, SchedulerKind::LinearScan);
            let calendar = run_mix_with_scheduler(mix, scheme, &run, SchedulerKind::EventCalendar);
            // `Debug` prints every stat field and every f64 with
            // shortest-round-trip precision, so equal strings ⇔ bit-equal
            // results (modulo NaN, which no field may be anyway).
            assert_eq!(
                format!("{linear:?}"),
                format!("{calendar:?}"),
                "calendar and linear-scan orderings diverged for {}/{scheme:?}",
                mix.name
            );
        }
    }
}

/// The heterogeneous calendar must keep the scheduler oracle honest now
/// that it carries more than core-ready entries: a dense mixed stream of
/// core/bank/bus/writeback events — many sharing a cycle — has to pop in
/// exactly the order a linear scan over `(cycle, tie, insertion)` picks,
/// with the class tie-spaces pinning same-cycle order to cores → banks →
/// buses → writebacks. This is the ordering contract the event-driven
/// DRAM model's bank-free/bus-drain scheduling relies on.
#[test]
fn mixed_event_kinds_pop_in_linear_scan_order() {
    use ivl_sim_core::calendar::{CalendarEvent, EventCalendar};

    let mut cal: EventCalendar<CalendarEvent> = EventCalendar::new();
    // Deterministic dense schedule: every cycle in 0..8 gets one event of
    // each class, inserted in a class-rotated order so insertion order
    // disagrees with the pinned class order.
    let mut oracle: Vec<(u64, u64, usize, CalendarEvent)> = Vec::new();
    for (seq, i) in (0..32u64).enumerate() {
        let at = i % 8;
        let ev = match (i + at) % 4 {
            0 => CalendarEvent::DeferredWriteback((i % 4) as u32),
            1 => CalendarEvent::BusDrain((i % 4) as u32),
            2 => CalendarEvent::BankReady((i % 16) as u32),
            _ => CalendarEvent::CoreReady((i % 8) as usize),
        };
        cal.schedule(at, ev.tie(), ev);
        oracle.push((at, ev.tie(), seq, ev));
    }
    // Linear-scan oracle: repeatedly remove the minimum (cycle, tie, seq).
    while !oracle.is_empty() {
        let min = oracle
            .iter()
            .enumerate()
            .min_by_key(|(_, &(at, tie, s, _))| (at, tie, s))
            .map(|(i, _)| i)
            .expect("non-empty");
        let (at, _, _, ev) = oracle.remove(min);
        assert_eq!(cal.pop(), Some((at, ev)), "calendar diverged from scan");
    }
    assert_eq!(cal.pop(), None);
    // Same-cycle class order is pinned regardless of instance ids.
    for ev in [
        CalendarEvent::DeferredWriteback(0),
        CalendarEvent::BusDrain(3),
        CalendarEvent::BankReady(63),
        CalendarEvent::CoreReady(7),
    ] {
        cal.schedule(5, ev.tie(), ev);
    }
    assert_eq!(cal.pop(), Some((5, CalendarEvent::CoreReady(7))));
    assert_eq!(cal.pop(), Some((5, CalendarEvent::BankReady(63))));
    assert_eq!(cal.pop(), Some((5, CalendarEvent::BusDrain(3))));
    assert_eq!(cal.pop(), Some((5, CalendarEvent::DeferredWriteback(0))));
}

#[test]
fn parallel_campaign_is_bit_identical_to_serial() {
    let run = RunConfig::smoke_test();
    let serial = run_matrix_on_with_workers(&MIXES, &MAIN_SCHEMES, &run, 1);
    let parallel = run_matrix_on_with_workers(&MIXES, &MAIN_SCHEMES, &run, 4);
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(serial.len(), MIXES.len() * MAIN_SCHEMES.len());
    for (s, p) in serial.iter().zip(&parallel) {
        // `Debug` prints every stat field and every f64 with
        // shortest-round-trip precision, so equal strings ⇔ bit-equal
        // results (modulo NaN, which no field may be anyway).
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "serial and parallel runs diverged for {}/{:?}",
            s.mix,
            s.scheme
        );
    }
}
