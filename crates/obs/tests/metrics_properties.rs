//! Metrics-plane and profiler properties: histogram merging is
//! associative, counters saturate instead of wrapping, and profiling is
//! a deterministic pure function of its logical inputs.

use proptest::collection::vec;
use proptest::prelude::*;
use srr_obs::{
    profile, Counter, EventKind, Histogram, MetricHistogram, ObsEvent, ObsOp, SyncTrace,
};

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// A random but internally consistent traced run: a schedule over a few
/// threads plus lock/cond/join events stamped onto owned ticks.
fn arb_trace() -> impl Strategy<Value = SyncTrace> {
    (vec(0u32..4, 1..60), vec(0usize..6, 0..20)).prop_map(|(owners, choices)| {
        let mut events: Vec<ObsEvent> = owners
            .iter()
            .enumerate()
            .map(|(i, &tid)| ObsEvent {
                tid,
                tick: (i + 1) as u64,
                kind: EventKind::TickEnd {
                    dur_nanos: 0,
                    op: ObsOp::Other,
                },
            })
            .collect();
        for (i, &c) in choices.iter().enumerate() {
            // Pick an owned tick deterministically from the choice index.
            let k = (i % owners.len()) + 1;
            let tid = owners[k - 1];
            let kind = match c {
                0 => EventKind::MutexRequest { mutex: 1 },
                1 => EventKind::MutexAcquire { mutex: 1 },
                2 => EventKind::MutexRelease { mutex: 1 },
                3 => EventKind::CondWaitBegin { cond: 2, mutex: 1 },
                4 => EventKind::CondNotify {
                    cond: 2,
                    all: false,
                },
                _ => EventKind::ThreadJoined {
                    target: (tid + 1) % 4,
                    done: true,
                },
            };
            events.push(ObsEvent {
                tid,
                tick: k as u64,
                kind,
            });
        }
        SyncTrace {
            events,
            ..SyncTrace::default()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c): shard histograms can be folded in
    /// any grouping.
    #[test]
    fn histogram_merge_is_associative(
        a in vec(any::<u64>(), 0..40),
        b in vec(any::<u64>(), 0..40),
        c in vec(any::<u64>(), 0..40),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(format!("{left:?}"), format!("{right:?}"));
    }

    /// Merging is also commutative and has the empty histogram as
    /// identity.
    #[test]
    fn histogram_merge_commutes(
        a in vec(any::<u64>(), 0..40),
        b in vec(any::<u64>(), 0..40),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(format!("{ab:?}"), format!("{ba:?}"));
        let mut ident = ha.clone();
        ident.merge(&Histogram::new());
        prop_assert_eq!(format!("{ident:?}"), format!("{ha:?}"));
    }

    /// Counters saturate at `u64::MAX` — adds near the ceiling never
    /// wrap back to small values.
    #[test]
    fn counter_saturates_never_wraps(
        start_gap in 0u64..1000,
        adds in vec(1u64..1000, 1..50),
    ) {
        let c = Counter::new();
        c.add(u64::MAX - start_gap);
        let mut expected = u64::MAX - start_gap;
        for n in adds {
            c.add(n);
            expected = expected.saturating_add(n);
            prop_assert_eq!(c.get(), expected);
            prop_assert!(c.get() >= u64::MAX - start_gap, "wrapped");
        }
    }

    /// The atomic histogram mirror agrees with the plain one sample for
    /// sample.
    #[test]
    fn metric_histogram_matches_plain(samples in vec(any::<u64>(), 0..60)) {
        let mh = MetricHistogram::new();
        for &s in &samples {
            mh.record(s);
        }
        let plain = hist_of(&samples);
        prop_assert_eq!(format!("{:?}", mh.snapshot()), format!("{plain:?}"));
    }

    /// Profiling is deterministic: the same logical input produces a
    /// byte-identical JSON report, even when the log is traversed in a
    /// different order.
    #[test]
    fn profile_json_is_byte_identical(trace in arb_trace()) {
        let a = profile(&trace).to_json().to_pretty();
        let b = profile(&trace).to_json().to_pretty();
        prop_assert_eq!(&a, &b);
        let mut shuffled = trace.clone();
        shuffled.events.reverse();
        let c = profile(&shuffled).to_json().to_pretty();
        prop_assert_eq!(&a, &c);
    }

    /// The critical-path walk partitions logical time exactly: bucket
    /// totals always sum to the schedule length, whatever the events say.
    #[test]
    fn profile_buckets_partition_total_ticks(trace in arb_trace()) {
        let rep = profile(&trace);
        prop_assert_eq!(rep.total_ticks, trace.tick_order().len() as u64);
        prop_assert_eq!(rep.attributed_ticks(), rep.total_ticks);
        let share_sum: f64 = rep.buckets.iter().map(|b| b.share).sum();
        prop_assert!((share_sum - 1.0).abs() < 1e-9);
    }
}
