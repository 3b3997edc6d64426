//! Data reduction (Section III-B).
//!
//! System audit logs contain many excessive events between the same entity
//! pair because the OS finishes one logical read/write by spreading the data
//! over many system calls. Following the CCS'16 log-reduction criteria the
//! paper adopts, two events `e1(u1, v1)`, `e2(u2, v2)` with `e1` before `e2`
//! are merged iff
//!
//! ```text
//! u1 = u2  &&  v1 = v2  &&  e1.operationType = e2.operationType
//!          &&  0 ≤ e2.startTime − e1.endTime ≤ threshold
//! ```
//!
//! and the merged event `em` gets `em.startTime = e1.startTime`,
//! `em.endTime = e2.endTime`, `em.dataAmount = e1.dataAmount +
//! e2.dataAmount`. The paper chose a threshold of **1 second** after
//! experimenting ("reasonable reduction performance ... with no false events
//! generated").

use raptor_common::hash::FxHashMap;
use raptor_common::ids::{EntityId, EventId};
use raptor_common::time::Duration;

use crate::event::{Operation, SystemEvent};

/// The paper's chosen merge threshold.
pub const DEFAULT_THRESHOLD: Duration = Duration(raptor_common::time::NANOS_PER_SEC);

/// Outcome statistics of a reduction pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReductionStats {
    pub before: usize,
    pub after: usize,
}

impl ReductionStats {
    /// Reduction factor (events before / events after).
    pub fn factor(&self) -> f64 {
        if self.after == 0 {
            return 1.0;
        }
        self.before as f64 / self.after as f64
    }
}

/// Merges excessive events in place and renumbers event ids densely.
///
/// `events` must be sorted by start time (the parser emits them in arrival
/// order, which is start-time order). Only *adjacent-in-time* events of the
/// same (subject, object, operation) group merge, and only when the gap
/// between them is within `threshold`; merging is transitive along a burst.
/// Survivors are compacted to the front of `events`, which is then cut:
/// nothing besides the group table is allocated.
pub fn merge_events(events: &mut Vec<SystemEvent>, threshold: Duration) -> ReductionStats {
    let before = events.len();
    // Index of the open (still mergeable) event per group, in the kept prefix.
    let mut open: FxHashMap<(EntityId, EntityId, Operation, u16), usize> = FxHashMap::default();
    let mut kept = 0;
    for i in 0..before {
        let e = events[i].clone();
        let key = (e.subject, e.object, e.op, e.host);
        if let Some(&idx) = open.get(&key) {
            let prev = &mut events[idx];
            let gap = e.start.since(prev.end);
            if gap >= Duration::ZERO && gap <= threshold && e.fail_code == prev.fail_code {
                prev.end = e.end;
                prev.amount += e.amount;
                continue;
            }
        }
        open.insert(key, kept);
        events[kept] = SystemEvent { id: EventId::from_usize(kept), ..e };
        kept += 1;
    }
    events.truncate(kept);
    ReductionStats { before, after: kept }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use raptor_common::time::Timestamp;

    fn evt(
        id: u32,
        subj: u32,
        obj: u32,
        op: Operation,
        start_ms: i64,
        end_ms: i64,
        amount: u64,
    ) -> SystemEvent {
        SystemEvent {
            id: EventId(id),
            subject: EntityId(subj),
            object: EntityId(obj),
            op,
            kind: EventKind::File,
            start: Timestamp::from_millis(start_ms),
            end: Timestamp::from_millis(end_ms),
            amount,
            fail_code: 0,
            host: 0,
        }
    }

    #[test]
    fn burst_merges_into_one() {
        // 5 reads, 100 ms apart — a classic buffered file read.
        let mut events: Vec<SystemEvent> = (0..5)
            .map(|i| evt(i, 1, 2, Operation::Read, i as i64 * 100, i as i64 * 100 + 10, 4096))
            .collect();
        let stats = merge_events(&mut events, DEFAULT_THRESHOLD);
        assert_eq!(stats, ReductionStats { before: 5, after: 1 });
        let m = &events[0];
        assert_eq!(m.start, Timestamp::from_millis(0));
        assert_eq!(m.end, Timestamp::from_millis(410));
        assert_eq!(m.amount, 5 * 4096);
        assert!((stats.factor() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn gap_beyond_threshold_blocks_merge() {
        let mut events = vec![
            evt(0, 1, 2, Operation::Read, 0, 10, 100),
            evt(1, 1, 2, Operation::Read, 2000, 2010, 100), // 1.99 s gap
        ];
        let stats = merge_events(&mut events, DEFAULT_THRESHOLD);
        assert_eq!(stats.after, 2);
    }

    #[test]
    fn different_operation_blocks_merge() {
        let mut events = vec![
            evt(0, 1, 2, Operation::Read, 0, 10, 100),
            evt(1, 1, 2, Operation::Write, 20, 30, 100),
        ];
        assert_eq!(merge_events(&mut events, DEFAULT_THRESHOLD).after, 2);
    }

    #[test]
    fn different_entity_pair_blocks_merge() {
        let mut events = vec![
            evt(0, 1, 2, Operation::Read, 0, 10, 100),
            evt(1, 1, 3, Operation::Read, 20, 30, 100),
            evt(2, 4, 2, Operation::Read, 40, 50, 100),
        ];
        assert_eq!(merge_events(&mut events, DEFAULT_THRESHOLD).after, 3);
    }

    #[test]
    fn interleaved_groups_merge_independently() {
        // Two processes alternately reading their own files.
        let mut events = vec![
            evt(0, 1, 10, Operation::Read, 0, 10, 1),
            evt(1, 2, 20, Operation::Read, 5, 15, 1),
            evt(2, 1, 10, Operation::Read, 100, 110, 1),
            evt(3, 2, 20, Operation::Read, 105, 115, 1),
        ];
        let stats = merge_events(&mut events, DEFAULT_THRESHOLD);
        assert_eq!(stats.after, 2);
        assert_eq!(events[0].amount, 2);
        assert_eq!(events[1].amount, 2);
    }

    #[test]
    fn ids_renumbered_densely() {
        let mut events = vec![
            evt(0, 1, 2, Operation::Read, 0, 10, 1),
            evt(1, 1, 2, Operation::Read, 20, 30, 1),
            evt(2, 3, 4, Operation::Write, 40, 50, 1),
        ];
        merge_events(&mut events, DEFAULT_THRESHOLD);
        let ids: Vec<u32> = events.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn zero_threshold_merges_only_contiguous() {
        let mut events = vec![
            evt(0, 1, 2, Operation::Read, 0, 10, 1),
            evt(1, 1, 2, Operation::Read, 10, 20, 1), // gap = 0: merges
            evt(2, 1, 2, Operation::Read, 21, 30, 1), // gap = 1ms: blocked
        ];
        let stats = merge_events(&mut events, Duration::ZERO);
        assert_eq!(stats.after, 2);
    }

    #[test]
    fn failed_events_do_not_merge_with_successes() {
        let mut a = evt(0, 1, 2, Operation::Read, 0, 10, 1);
        let mut b = evt(1, 1, 2, Operation::Read, 20, 30, 1);
        a.fail_code = 0;
        b.fail_code = 13;
        let mut events = vec![a, b];
        assert_eq!(merge_events(&mut events, DEFAULT_THRESHOLD).after, 2);
    }
}
