//! The event calendar: a binary heap of typed events merged with a
//! sorted cursor of flow arrivals.
//!
//! Every exogenous event the simulation must react to — a flow arriving,
//! a scheduled capacity change (fault injection / healing), a jitter
//! refresh tick — comes out of one calendar keyed by integer [`Time`].
//! Arrivals are all known when a run starts, so they sit in one vector,
//! sorted once and stepped through by a cursor; the heap holds only the
//! capacity changes and jitter ticks, and each pop takes the earlier of
//! the two heads. Flow *completions* are endogenous: the fluid
//! integrator derives them from `remaining / rate` each round (a
//! completion time moves whenever the allocation changes, so it cannot
//! be pinned in the calendar ahead of time).
//!
//! Ordering is fully deterministic: `(tick, exact seconds, kind rank,
//! insertion sequence)`, for cursor and heap entries alike. The integer
//! tick decides almost every comparison; the exact `f64` timestamp breaks
//! sub-tick ties so the integrator (which advances in seconds) and the
//! calendar never disagree about which event is next; the kind rank
//! fixes the same-instant convention (jitter refresh before arrivals
//! before capacity changes — the order the pre-calendar event loop
//! applied them); and the sequence number preserves insertion order
//! within a kind, which is what lets seeded fault plans replay exactly.
//! The cursor's arrivals count as inserted before any heap entry, in the
//! order given.

use crate::flow::FlowId;
use crate::resources::ResourceHandle;
use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A typed calendar event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Jitter multipliers refresh at this instant.
    JitterTick,
    /// A flow becomes active and starts competing for bandwidth.
    FlowArrival {
        /// The arriving flow.
        flow: FlowId,
    },
    /// A resource's capacity is reset (fault injection, healing,
    /// planned maintenance windows).
    CapacityChange {
        /// The affected resource.
        resource: ResourceHandle,
        /// New capacity, Gbit/s (0.0 takes the resource offline).
        cap_gbps: f64,
        /// Obs event name fired when the change applies
        /// (`capacity_change`, `fault_injected`, `fault_healed`, ...).
        tag: &'static str,
    },
}

impl Event {
    /// Same-instant processing rank (lower fires first). Mirrors the
    /// pre-calendar loop: jitter refresh, then arrivals, then capacity
    /// changes.
    fn rank(&self) -> u8 {
        match self {
            Event::JitterTick => 0,
            Event::FlowArrival { .. } => 1,
            Event::CapacityChange { .. } => 2,
        }
    }
}

/// One scheduled entry: an [`Event`] pinned to an instant.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Integer instant — the primary heap key.
    pub at: Time,
    /// The exact timestamp in seconds, as scheduled. The integrator
    /// advances in seconds, so this is the value it steps to.
    pub at_s: f64,
    /// Tie-break sequence (insertion order).
    seq: u64,
    /// The event payload.
    pub event: Event,
}

impl Entry {
    fn key(&self) -> (Time, f64, u8, u64) {
        (self.at, self.at_s, self.event.rank(), self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the calendar wants min-first.
        let (ta, sa, ka, qa) = self.key();
        let (tb, sb, kb, qb) = other.key();
        tb.cmp(&ta)
            .then_with(|| sb.total_cmp(&sa))
            .then_with(|| kb.cmp(&ka))
            .then_with(|| qb.cmp(&qa))
    }
}

/// A deterministic min-first event calendar.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    /// Flow arrivals in firing order; `arrivals[next_arrival..]` are due.
    arrivals: Vec<(f64, FlowId)>,
    next_arrival: usize,
}

impl Schedule {
    /// Empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the flow arrivals (time in seconds, flow), given in insertion
    /// order: a stable sort by time (linear on sorted input) puts them in
    /// firing order once. As the tick is monotone in the seconds, that is
    /// the `(tick, seconds, insertion)` order.
    pub fn set_arrivals(&mut self, mut arrivals: Vec<(f64, FlowId)>) {
        let valid = arrivals.iter().all(|a| a.0.is_finite() && a.0 >= 0.0);
        assert!(valid, "event time must be finite and >= 0");
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        (self.arrivals, self.next_arrival) = (arrivals, 0);
    }

    /// Schedule `event` at `at_s` seconds. Times must be finite and
    /// non-negative; equal-time entries fire in the documented
    /// `(kind, insertion)` order.
    pub fn push(&mut self, at_s: f64, event: Event) {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "event time must be finite and >= 0"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at: Time::from_seconds(at_s),
            at_s,
            seq,
            event,
        });
    }

    /// The next entry's exact timestamp in seconds, if any.
    pub fn peek_s(&self) -> Option<f64> {
        let arrival = self.arrivals.get(self.next_arrival).map(|a| a.0);
        arrival
            .into_iter()
            .chain(self.heap.peek().map(|e| e.at_s))
            .reduce(f64::min)
    }

    /// Pop the next entry if its timestamp is at or before `t_s`
    /// (inclusive within the integrator's `eps` slack).
    pub fn pop_due(&mut self, t_s: f64, eps: f64) -> Option<Entry> {
        if self.peek_s().is_some_and(|at_s| at_s <= t_s + eps) {
            self.pop()
        } else {
            None
        }
    }

    /// Pop the next entry unconditionally.
    pub fn pop(&mut self) -> Option<Entry> {
        // Sequence 0: on a full key tie the cursor fires first.
        let arrival = self
            .arrivals
            .get(self.next_arrival)
            .map(|&(at_s, flow)| Entry {
                at: Time::from_seconds(at_s),
                at_s,
                seq: 0,
                event: Event::FlowArrival { flow },
            });
        match arrival {
            // The heap's `Ord` is reversed: greater fires first.
            Some(a) if self.heap.peek().is_none_or(|h| *h <= a) => {
                self.next_arrival += 1;
                Some(a)
            }
            _ => self.heap.pop(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len() + self.arrivals.len() - self.next_arrival
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Schedule::new();
        s.push(2.0, Event::FlowArrival { flow: FlowId(1) });
        s.push(0.5, Event::FlowArrival { flow: FlowId(0) });
        s.push(1.0, Event::JitterTick);
        let order: Vec<f64> = std::iter::from_fn(|| s.pop().map(|e| e.at_s)).collect();
        assert_eq!(order, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn same_instant_orders_by_kind_then_insertion() {
        let mut s = Schedule::new();
        let h = ResourceHandle(0);
        s.push(
            1.0,
            Event::CapacityChange {
                resource: h,
                cap_gbps: 5.0,
                tag: "a",
            },
        );
        s.push(
            1.0,
            Event::CapacityChange {
                resource: h,
                cap_gbps: 9.0,
                tag: "b",
            },
        );
        s.push(1.0, Event::FlowArrival { flow: FlowId(3) });
        s.push(1.0, Event::JitterTick);
        assert!(matches!(s.pop().unwrap().event, Event::JitterTick));
        assert!(matches!(
            s.pop().unwrap().event,
            Event::FlowArrival { flow: FlowId(3) }
        ));
        // Capacity ties keep insertion order — the replay guarantee
        // seeded fault plans rely on.
        match s.pop().unwrap().event {
            Event::CapacityChange { tag, .. } => assert_eq!(tag, "a"),
            other => panic!("unexpected {other:?}"),
        }
        match s.pop().unwrap().event {
            Event::CapacityChange { tag, .. } => assert_eq!(tag, "b"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.is_empty());
    }

    #[test]
    fn sub_tick_ties_break_on_exact_seconds() {
        // Closer than a nanosecond: same integer tick, but the exact
        // f64 timestamps still order the entries.
        let mut s = Schedule::new();
        s.push(1.0 + 2e-13, Event::FlowArrival { flow: FlowId(1) });
        s.push(1.0, Event::FlowArrival { flow: FlowId(0) });
        assert_eq!(Time::from_seconds(1.0 + 2e-13), Time::from_seconds(1.0));
        assert!(matches!(
            s.pop().unwrap().event,
            Event::FlowArrival { flow: FlowId(0) }
        ));
        assert!(matches!(
            s.pop().unwrap().event,
            Event::FlowArrival { flow: FlowId(1) }
        ));
    }

    #[test]
    fn arrival_cursor_merges_with_the_heap_under_one_key() {
        // Out of order, with a tie at 1.0 that keeps insertion order.
        let mut s = Schedule::new();
        let h = ResourceHandle(0);
        s.push(
            1.0,
            Event::CapacityChange {
                resource: h,
                cap_gbps: 5.0,
                tag: "cap",
            },
        );
        s.push(1.0, Event::JitterTick);
        s.push(1.5, Event::JitterTick);
        s.set_arrivals(vec![(2.0, FlowId(0)), (1.0, FlowId(1)), (1.0, FlowId(2))]);
        assert_eq!(s.len(), 6);
        assert_eq!(s.peek_s(), Some(1.0));
        let order: Vec<String> = std::iter::from_fn(|| s.pop())
            .map(|e| format!("{}:{:?}", e.at_s, e.event.rank()))
            .collect();
        assert_eq!(order, ["1:0", "1:1", "1:1", "1:2", "1.5:0", "2:1"]);
        assert!(s.is_empty());
        s.set_arrivals(vec![(1.0, FlowId(1)), (1.0, FlowId(2))]);
        let flows: Vec<FlowId> = std::iter::from_fn(|| s.pop_due(1.0, 0.0))
            .map(|e| match e.event {
                Event::FlowArrival { flow } => flow,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(flows, [FlowId(1), FlowId(2)]);
    }

    #[test]
    fn pop_due_respects_epsilon() {
        let mut s = Schedule::new();
        s.push(1.0, Event::FlowArrival { flow: FlowId(0) });
        assert!(s.pop_due(0.5, 1e-12).is_none());
        assert_eq!(s.len(), 1);
        let e = s.pop_due(1.0 - 1e-13, 1e-12).unwrap();
        assert!(matches!(e.event, Event::FlowArrival { flow: FlowId(0) }));
        assert!(s.pop_due(10.0, 0.0).is_none());
    }
}
