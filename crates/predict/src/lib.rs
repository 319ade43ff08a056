//! Predictive race detection with witness-schedule synthesis
//! (`srr-predict`).
//!
//! A single recorded run shows one interleaving; FastTrack over that run
//! only reports races the *observed* synchronisation failed to order. This
//! crate asks the predictive question instead: which access pairs could
//! race under some *other* schedule consistent with the recorded trace?
//!
//! The pipeline, over a QUEUE-strategy recording made with
//! `Config::with_access_trace`:
//!
//! 1. [`weak_candidates`] computes pairs unordered under a
//!    weaker-than-observed partial order (SHB/WCP-style: mutex handoff
//!    edges kept only when the critical sections conflict, atomic
//!    reads-from edges dropped);
//! 2. [`TraceModel`] joins the trace against the recorded schedule,
//!    giving every invisible plain access a tick *segment*;
//! 3. [`synthesize`] builds, per candidate, a reordered QUEUE demo that
//!    overlaps the two segments while respecting the trace's forced
//!    ordering constraints — or proves no such reorder exists;
//! 4. [`classify_with`] replays each witness (the caller supplies the
//!    replay closure, typically `tsan11rec`'s `Execution::replay` with a
//!    race target armed) and grades every prediction:
//!    [`Classification::Confirmed`] when the witness replays and the
//!    FastTrack detector fires at the predicted pair,
//!    [`Classification::Unconfirmed`] when replay hard-desyncs or the
//!    race does not fire, and [`Classification::Infeasible`] when the
//!    sound constraints alone rule the reorder out.
//!
//! Confirmation is the ground truth: a prediction is only ever *reported
//! as a race* after its witness actually raced. The weak order may
//! over-approximate (dropping reads-from edges ignores control-flow that
//! a different value would change); the replay step is what keeps the
//! final report sound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod weakpo;
mod witness;

pub use model::{Access, TickOp, TraceModel};
pub use weakpo::{weak_candidates, Candidate};
pub use witness::{synthesize, Synth};

use srr_obs::SyncTrace;
use srr_replay::Demo;

/// Final grade of one predicted race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// The witness replayed without hard desync and the detector fired at
    /// the predicted pair.
    Confirmed,
    /// A witness exists but replay did not confirm it (hard desync, or
    /// the race did not fire) — or synthesis got stuck.
    Unconfirmed,
    /// No trace-consistent reorder can make the accesses race.
    Infeasible,
}

impl Classification {
    /// Stable lowercase name (used by text and JSON output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Classification::Confirmed => "confirmed",
            Classification::Unconfirmed => "unconfirmed",
            Classification::Infeasible => "infeasible",
        }
    }
}

/// One predicted race with its synthesis/replay verdict.
#[derive(Clone, Debug)]
pub struct PredictedRace {
    /// Location id in the trace's label table.
    pub loc: u32,
    /// The location's label.
    pub loc_label: String,
    /// The two threads, smaller id first.
    pub tids: (u32, u32),
    /// Whether each side (in `tids` order) wrote.
    pub writes: (bool, bool),
    /// `true` when the observed partial order hides the pair from a plain
    /// FastTrack pass over the recorded schedule.
    pub hidden: bool,
    /// The verdict.
    pub classification: Classification,
    /// The witness demo, when synthesis produced one.
    pub witness: Option<Demo>,
}

/// The replay outcome [`classify_with`]'s closure reports per witness.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayVerdict {
    /// The replay hard-desynced (schedule could not be followed).
    pub hard_desync: bool,
    /// The FastTrack detector fired at the targeted pair.
    pub target_hit: bool,
}

/// A full prediction report over one recording.
#[derive(Clone, Debug, Default)]
pub struct PredictReport {
    /// Every candidate, graded.
    pub races: Vec<PredictedRace>,
    /// Candidate pairs dropped before synthesis because the caller's
    /// site filter ([`predict_with`]) statically proved their location —
    /// `srr predict --plan`'s pruning counter. Zero under plain
    /// [`predict`].
    pub pruned: usize,
}

impl PredictReport {
    /// Candidates with the given grade.
    #[must_use]
    pub fn count(&self, c: Classification) -> usize {
        self.races.iter().filter(|r| r.classification == c).count()
    }

    /// Confirmed fraction of the candidates a witness was synthesized
    /// for. `None` when no candidate had a witness.
    #[must_use]
    pub fn confirmation_rate(&self) -> Option<f64> {
        let with_witness = self.races.iter().filter(|r| r.witness.is_some()).count();
        if with_witness == 0 {
            return None;
        }
        Some(self.count(Classification::Confirmed) as f64 / with_witness as f64)
    }

    /// Candidates hidden from the recorded schedule's own FastTrack pass.
    #[must_use]
    pub fn hidden_count(&self) -> usize {
        self.races.iter().filter(|r| r.hidden).count()
    }

    /// Publishes the prediction totals onto the unified metrics plane
    /// (gauges: a re-publish after `classify_with` replaces the
    /// pre-replay grades).
    pub fn publish_metrics(&self, registry: &srr_obs::MetricsRegistry) {
        registry
            .gauge("predict_candidates")
            .set(self.races.len() as u64);
        registry
            .gauge("predict_confirmed")
            .set(self.count(Classification::Confirmed) as u64);
        registry
            .gauge("predict_unconfirmed")
            .set(self.count(Classification::Unconfirmed) as u64);
        registry
            .gauge("predict_infeasible")
            .set(self.count(Classification::Infeasible) as u64);
        registry
            .gauge("predict_hidden")
            .set(self.hidden_count() as u64);
        registry
            .gauge("predict_witnesses")
            .set(self.races.iter().filter(|r| r.witness.is_some()).count() as u64);
    }
}

/// Runs prediction and witness synthesis (steps 1–3) over a recording.
/// Every race with a witness starts [`Classification::Unconfirmed`]; pass
/// the report to [`classify_with`] to replay the witnesses.
#[must_use]
pub fn predict(trace: &SyncTrace, demo: &Demo) -> PredictReport {
    predict_with(trace, demo, |_| true)
}

/// [`predict`] with a site filter: candidate pairs whose location label
/// fails `keep` are dropped *before* witness synthesis (the expensive
/// step) and counted in [`PredictReport::pruned`]. `srr predict --plan`
/// passes a filter that rejects statically proven `Local`/`Guarded`
/// labels; unknown labels must be kept (fail open).
#[must_use]
pub fn predict_with(
    trace: &SyncTrace,
    demo: &Demo,
    mut keep: impl FnMut(&str) -> bool,
) -> PredictReport {
    let model = TraceModel::build(trace, demo);
    let candidates = weak_candidates(trace);
    let mut races = Vec::with_capacity(candidates.len());
    let mut pruned = 0;
    for cand in candidates {
        let (Some(a), Some(b)) = (model.accesses.get(cand.a), model.accesses.get(cand.b)) else {
            continue; // trace/model disagree on access count: skip
        };
        let (lo, hi, wlo, whi) = if a.tid <= b.tid {
            (a.tid, b.tid, a.write, b.write)
        } else {
            (b.tid, a.tid, b.write, a.write)
        };
        let loc_label = trace
            .loc_labels
            .get(a.loc as usize)
            .cloned()
            .unwrap_or_else(|| format!("loc#{}", a.loc));
        if !keep(&loc_label) {
            pruned += 1;
            continue;
        }
        let (classification, witness) = match synthesize(&model, demo, cand.a, cand.b) {
            Synth::Witness(w) => (Classification::Unconfirmed, Some(*w)),
            Synth::Infeasible => (Classification::Infeasible, None),
            Synth::Stuck => (Classification::Unconfirmed, None),
        };
        races.push(PredictedRace {
            loc: a.loc,
            loc_label,
            tids: (lo, hi),
            writes: (wlo, whi),
            hidden: cand.hidden,
            classification,
            witness,
        });
    }
    PredictReport { races, pruned }
}

/// Replays every witness in `report` through `replayer` and upgrades the
/// corresponding predictions to [`Classification::Confirmed`] when the
/// replay raced at the target. The closure receives the prediction and
/// its witness demo; it is never called for witnessless candidates.
pub fn classify_with(
    report: &mut PredictReport,
    mut replayer: impl FnMut(&PredictedRace, &Demo) -> ReplayVerdict,
) {
    for i in 0..report.races.len() {
        let Some(witness) = report.races[i].witness.clone() else {
            continue;
        };
        if report.races[i].classification != Classification::Unconfirmed {
            continue;
        }
        let verdict = replayer(&report.races[i], &witness);
        if !verdict.hard_desync && verdict.target_hit {
            report.races[i].classification = Classification::Confirmed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srr_obs::{EventKind, ObsEvent};

    fn ev(tid: u32, tick: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { tid, tick, kind }
    }
    use srr_replay::{DemoHeader, QueueStream};
    use std::sync::Arc;

    fn unordered_pair() -> (SyncTrace, Demo) {
        let trace = SyncTrace {
            events: vec![
                ev(0, 1, EventKind::ThreadSpawn { child: 1 }),
                ev(0, 2, EventKind::ThreadSpawn { child: 2 }),
                ev(
                    1,
                    3,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
                ev(
                    2,
                    4,
                    EventKind::PlainAccess {
                        loc: 0,
                        write: true,
                    },
                ),
            ],
            mutex_labels: vec![],
            loc_labels: vec!["x".into()],
        };
        let order = [(0, 1), (0, 2), (1, 3), (2, 4), (1, 5), (2, 6), (0, 7)];
        let mut demo = Demo::new(DemoHeader::new("tsan11rec", "queue", [1, 2]));
        demo.queue = Arc::new(QueueStream::from_order(&order, 3));
        (trace, demo)
    }

    #[test]
    fn predict_produces_witnessed_unconfirmed_candidate() {
        let (trace, demo) = unordered_pair();
        let report = predict(&trace, &demo);
        assert_eq!(report.races.len(), 1);
        let r = &report.races[0];
        assert_eq!(r.loc_label, "x");
        assert_eq!(r.tids, (1, 2));
        assert_eq!(r.writes, (true, true));
        assert_eq!(r.classification, Classification::Unconfirmed);
        assert!(r.witness.is_some(), "a reorder witness exists");
        assert_eq!(report.count(Classification::Confirmed), 0);
        assert_eq!(report.confirmation_rate(), Some(0.0));
        assert_eq!(report.pruned, 0, "plain predict prunes nothing");
    }

    #[test]
    fn predict_with_prunes_statically_proven_labels_before_synthesis() {
        let (trace, demo) = unordered_pair();
        let report = predict_with(&trace, &demo, |label| label != "x");
        assert_eq!(report.races.len(), 0);
        assert_eq!(report.pruned, 1);
        // An unrelated filter keeps the candidate (fail open on unknowns).
        let report = predict_with(&trace, &demo, |label| label != "y");
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.pruned, 0);
    }

    #[test]
    fn classify_with_confirms_on_target_hit() {
        let (trace, demo) = unordered_pair();
        let mut report = predict(&trace, &demo);
        let mut calls = 0;
        classify_with(&mut report, |race, witness| {
            calls += 1;
            assert_eq!(race.tids, (1, 2));
            assert_eq!(
                witness.queue.schedule_order().len(),
                7,
                "witness reschedules every tick"
            );
            ReplayVerdict {
                hard_desync: false,
                target_hit: true,
            }
        });
        assert_eq!(calls, 1);
        assert_eq!(report.count(Classification::Confirmed), 1);
        assert_eq!(report.confirmation_rate(), Some(1.0));
    }

    #[test]
    fn classify_with_leaves_desynced_witness_unconfirmed() {
        let (trace, demo) = unordered_pair();
        let mut report = predict(&trace, &demo);
        classify_with(&mut report, |_, _| ReplayVerdict {
            hard_desync: true,
            target_hit: true,
        });
        assert_eq!(report.count(Classification::Confirmed), 0);
        assert_eq!(report.races[0].classification, Classification::Unconfirmed);
    }
}
