//! Event calendar: the deterministic discrete-event scheduler the system
//! runner and the DRAM model share.
//!
//! The system runner used to pick the next core with a linear
//! `min_by_key` scan over all cores on every event. The calendar replaces
//! that with a binary min-heap keyed on `(cycle, tie, seq)`: popping the
//! least-advanced entry is O(log n), and the explicit `tie` key reproduces
//! the scan's deterministic tie-breaking (lowest core index among cores at
//! the same cycle) bit-for-bit. The payload is generic, so the same
//! calendar that orders core-ready events can own deferred model events —
//! a DRAM bank becoming free, a channel data bus draining its burst:
//! entries with distinct `tie` keys order deterministically regardless of
//! insertion order, and entries with equal `(cycle, tie)` fall back to
//! FIFO insertion order via the internal sequence number.
//!
//! [`CalendarEvent`] is the heterogeneous payload the runner and the DRAM
//! model speak: each event class owns a disjoint `tie` space (the class
//! constants below), so mixed-class entries at the same cycle pop in the
//! pinned order *cores → banks → buses → writebacks* and never collide.
//!
//! # Examples
//!
//! ```
//! use ivl_sim_core::calendar::{CalendarEvent, EventCalendar};
//!
//! let mut cal = EventCalendar::new();
//! cal.schedule(100, CalendarEvent::CoreReady(1).tie(), CalendarEvent::CoreReady(1));
//! cal.schedule(100, CalendarEvent::BankReady(3).tie(), CalendarEvent::BankReady(3));
//! cal.schedule(90, CalendarEvent::BusDrain(0).tie(), CalendarEvent::BusDrain(0));
//! assert_eq!(cal.pop(), Some((90, CalendarEvent::BusDrain(0))));
//! // Same cycle: the core-ready class outranks the bank class.
//! assert_eq!(cal.pop(), Some((100, CalendarEvent::CoreReady(1))));
//! assert_eq!(cal.pop(), Some((100, CalendarEvent::BankReady(3))));
//! ```

use std::collections::BinaryHeap;

use crate::Cycle;

/// Tie-space base for core-ready events: `tie = TIE_CORE + core index`.
/// Cores outrank every deferred model event at the same cycle, which is
/// what keeps the calendar order equal to the legacy core-only scan.
pub const TIE_CORE: u64 = 0;
/// Tie-space base for bank-ready events: `tie = TIE_BANK + flat bank id`.
pub const TIE_BANK: u64 = 1 << 32;
/// Tie-space base for channel bus-drain events: `tie = TIE_BUS + channel`.
pub const TIE_BUS: u64 = 2 << 32;
/// Tie-space base for deferred writebacks: `tie = TIE_WRITEBACK + token`.
pub const TIE_WRITEBACK: u64 = 3 << 32;

/// Heterogeneous event payload for one shared calendar: core wake-ups plus
/// the DRAM model's deferred state transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalendarEvent {
    /// Core `idx` is ready to issue its next front-end event.
    CoreReady(usize),
    /// Flat bank `bi`'s array finishes its current access (its
    /// `busy_until` horizon) — the bank sits idle past this point.
    BankReady(u32),
    /// Channel `ch`'s data bus drains the burst in flight (`bus_free`).
    BusDrain(u32),
    /// A posted write's burst fully retires on channel `token` (writes
    /// complete after the issuing access returns).
    DeferredWriteback(u32),
}

impl CalendarEvent {
    /// The entry's `tie` key: class base + instance id. Classes occupy
    /// disjoint `u32`-wide spaces, so cross-class ties are impossible and
    /// same-cycle ordering is pinned to core < bank < bus < writeback.
    #[inline]
    pub fn tie(&self) -> u64 {
        match *self {
            CalendarEvent::CoreReady(idx) => TIE_CORE + idx as u64,
            CalendarEvent::BankReady(bi) => TIE_BANK + bi as u64,
            CalendarEvent::BusDrain(ch) => TIE_BUS + ch as u64,
            CalendarEvent::DeferredWriteback(tok) => TIE_WRITEBACK + tok as u64,
        }
    }
}

/// One scheduled entry; ordered for a *min*-heap on `(at, tie, seq)`.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: Cycle,
    tie: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, the calendar pops earliest.
        (other.at, other.tie, other.seq).cmp(&(self.at, self.tie, self.seq))
    }
}

/// A deterministic min-heap of timestamped events.
///
/// Pop order is `(cycle, tie, insertion order)`. Use a stable identity as
/// `tie` (a core index, a flat bank index) to get scan-equivalent
/// deterministic ordering among simultaneous events; unrelated event
/// classes can share a calendar as long as their `tie` spaces make the
/// intended priority explicit ([`CalendarEvent::tie`] does exactly that).
#[derive(Debug, Clone)]
pub struct EventCalendar<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventCalendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventCalendar<T> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        EventCalendar {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty calendar with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        EventCalendar {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
        }
    }

    /// Schedules `payload` at cycle `at`. Among entries with equal `at`,
    /// the lower `tie` pops first; full ties pop in insertion order.
    #[inline]
    pub fn schedule(&mut self, at: Cycle, tie: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            at,
            tie,
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Cycle of the earliest entry without removing it.
    #[inline]
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// `(cycle, tie)` of the earliest entry without removing it — the key
    /// the runner's fast path compares against the running core to decide
    /// whether anything can preempt it.
    #[inline]
    pub fn peek_key(&self) -> Option<(Cycle, u64)> {
        self.heap.peek().map(|e| (e.at, e.tie))
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every scheduled entry (the sequence counter keeps advancing,
    /// so FIFO ordering stays stable across reuse).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(30, 0, "c");
        cal.schedule(10, 0, "a");
        cal.schedule(20, 0, "b");
        assert_eq!(cal.pop(), Some((10, "a")));
        assert_eq!(cal.pop(), Some((20, "b")));
        assert_eq!(cal.pop(), Some((30, "c")));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn equal_cycles_break_ties_by_key_then_fifo() {
        let mut cal = EventCalendar::new();
        cal.schedule(5, 2, "tie2-first");
        cal.schedule(5, 1, "tie1");
        cal.schedule(5, 2, "tie2-second");
        assert_eq!(cal.pop(), Some((5, "tie1")));
        assert_eq!(cal.pop(), Some((5, "tie2-first")));
        assert_eq!(cal.pop(), Some((5, "tie2-second")));
    }

    #[test]
    fn matches_linear_scan_selection_order() {
        // The property the system runner relies on: popping the calendar
        // reproduces `min_by_key(now)` with lowest-index tie-breaking.
        let mut nows = [40u64, 10, 10, 25];
        let mut cal = EventCalendar::new();
        for (i, &n) in nows.iter().enumerate() {
            cal.schedule(n, i as u64, i);
        }
        let mut scan_order = Vec::new();
        let mut remaining: Vec<usize> = (0..nows.len()).collect();
        while !remaining.is_empty() {
            let &idx = remaining.iter().min_by_key(|&&i| nows[i]).unwrap();
            scan_order.push(idx);
            // Simulate the core advancing, then retiring on its third pick.
            nows[idx] += 30;
            if scan_order.iter().filter(|&&x| x == idx).count() == 3 {
                remaining.retain(|&i| i != idx);
            }
        }
        let mut nows2 = [40u64, 10, 10, 25];
        let mut heap_order = Vec::new();
        let mut picks = [0usize; 4];
        while let Some((_, idx)) = cal.pop() {
            heap_order.push(idx);
            nows2[idx] += 30;
            picks[idx] += 1;
            if picks[idx] < 3 {
                cal.schedule(nows2[idx], idx as u64, idx);
            }
        }
        assert_eq!(scan_order, heap_order);
    }

    #[test]
    fn typed_event_classes_pop_in_pinned_order() {
        // Mixed core/bank/bus/writeback entries at one cycle pop in the
        // documented class order; earlier cycles still win outright.
        let evs = [
            CalendarEvent::DeferredWriteback(0),
            CalendarEvent::BusDrain(1),
            CalendarEvent::BankReady(3),
            CalendarEvent::CoreReady(2),
        ];
        let mut cal = EventCalendar::new();
        for e in evs {
            cal.schedule(100, e.tie(), e);
        }
        cal.schedule(
            90,
            CalendarEvent::BankReady(7).tie(),
            CalendarEvent::BankReady(7),
        );
        assert_eq!(cal.pop(), Some((90, CalendarEvent::BankReady(7))));
        assert_eq!(cal.pop(), Some((100, CalendarEvent::CoreReady(2))));
        assert_eq!(cal.pop(), Some((100, CalendarEvent::BankReady(3))));
        assert_eq!(cal.pop(), Some((100, CalendarEvent::BusDrain(1))));
        assert_eq!(cal.pop(), Some((100, CalendarEvent::DeferredWriteback(0))));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn tie_spaces_are_disjoint() {
        // No instance id in one class can collide with another class.
        assert!(CalendarEvent::CoreReady(u32::MAX as usize).tie() < TIE_BANK);
        assert!(CalendarEvent::BankReady(u32::MAX).tie() < TIE_BUS);
        assert!(CalendarEvent::BusDrain(u32::MAX).tie() < TIE_WRITEBACK);
    }

    #[test]
    fn peek_len_clear() {
        let mut cal = EventCalendar::with_capacity(4);
        assert!(cal.is_empty());
        assert_eq!(cal.peek_cycle(), None);
        cal.schedule(7, 0, ());
        cal.schedule(3, 0, ());
        assert_eq!(cal.peek_cycle(), Some(3));
        assert_eq!(cal.len(), 2);
        cal.clear();
        assert!(cal.is_empty());
    }
}
