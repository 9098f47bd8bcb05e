//! Continuous-batching inference service with retention-based load
//! shedding (DOTA reproduction, serving layer).
//!
//! The DOTA accelerator's decode mode makes weak-attention omission a
//! *runtime* knob: lower retention means less K/V-cache DRAM traffic per
//! token, which means a faster token. This crate turns that knob into a
//! load-shedding policy for a batched inference service:
//!
//! - [`ServeEngine`] — a continuous-batching scheduler over the real
//!   incremental decode path ([`dota_transformer::Model::decode_step`]):
//!   requests join at step boundaries, leave on completion/EOS/deadline,
//!   and every step's latency comes from the accelerator's DRAM-traffic
//!   [`DecodeCost`](dota_accel::decode::DecodeCost) (weights streamed once
//!   per step, K/V per request) on the simulated 1 GHz cycle clock.
//! - [`ShedPolicy`] — under overload, either queue at full quality
//!   ([`ShedPolicy::QueueOnly`]) or admit at progressively sparser
//!   attention down a retention [ladder](ServeConfig::ladder)
//!   ([`ShedPolicy::Retention`]): trade a little per-request accuracy for
//!   a lot of tail latency.
//! - [`TrafficConfig`] — seeded heavy-tailed traffic, reproducible bit
//!   for bit.
//! - [`run_bench`] — the `dota serve --bench` sweep: load × policy grid,
//!   SLO histograms per cell, canonical byte-stable JSON
//!   ([`BenchReport`]) diffable with `dota report diff`.
//! - [`TimelineRecorder`] / [`TimelineReport`] — request-scoped
//!   observability: a cycle-timestamped lifecycle record per request
//!   (queue → admit → prefill → per-step weight/K-V splits → terminal)
//!   exported as canonical `timeline.json` and as per-batch-slot Chrome
//!   tracks, joined with the cost model by `dota analyze --serve`.
//! - [`SloMonitor`] — rolling deadline-hit-rate and burn-rate at step
//!   boundaries on the simulated clock ([`ServeConfig::slo_window`]),
//!   surfaced as `serve.slo.*` counters, histograms and counter tracks.
//!
//! Determinism is load-bearing: the scheduler loop is serial, per-slot
//! decodes are independent (batch-mates never mix state), and histograms
//! aggregate in completion order — so reports are byte-identical across
//! `DOTA_THREADS` and serial vs `parallel` builds, and the load-test
//! suite can assert on exact bytes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chaos;
mod control;
mod engine;
mod report;
mod request;
mod selector;
mod slo;
mod timeline;
mod traffic;

pub use chaos::{run_chaos, ChaosCell, ChaosOptions, ChaosReport, SERVE_CHAOS_VERSION};
pub use control::{ControlConfig, ControlInputs, ControlSummary, Controller};
pub use engine::{QuarantineSpan, ServeConfig, ServeEngine, ServeOutcome, ShedPolicy};
pub use report::{run_bench, BenchOptions, BenchReport, CellReport, SERVE_REPORT_VERSION};
pub use request::{Completion, DeadlineClass, FinishReason, Request};
pub use selector::WindowSelector;
pub use slo::{SloMonitor, SloWindow};
pub use timeline::{
    CellTimeline, RequestTimeline, StepRecord, TimelineConfig, TimelineRecorder, TimelineReport,
    TIMELINE_VERSION,
};
pub use traffic::TrafficConfig;

/// Holds a zero-rate fault session for the duration of a test that runs
/// engines and asserts fault-free outcomes. Fault sessions are process
/// global and exclusive, so tests that *do* inject (the chaos suite, the
/// fault property tests) would otherwise contaminate concurrently running
/// fault-free tests in this binary; an empty session injects nothing but
/// takes the same exclusivity gate, serializing the two groups.
#[cfg(test)]
pub(crate) fn quiet_faults() -> dota_faults::FaultGuard {
    dota_faults::session(dota_faults::FaultPlan::new(0))
}

#[cfg(test)]
mod prop_tests {
    //! Property tests for the scheduler invariants the service's claims
    //! rest on: bounded occupancy, FIFO-within-class admission, no
    //! starvation, and batch-mate independence of decoded tokens.

    use super::*;
    use dota_accel::AccelConfig;
    use dota_autograd::ParamSet;
    use dota_transformer::{Model, TransformerConfig};
    use proptest::prelude::*;

    const SEQ: usize = 32;
    const VOCAB: usize = 12;

    fn model() -> (Model, ParamSet) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(SEQ, VOCAB), &mut params, 23);
        (model, params)
    }

    fn generous_cfg(capacity: usize, shed: ShedPolicy) -> ServeConfig {
        ServeConfig {
            capacity,
            queue_capacity: 1024,
            shed,
            // Deadlines far beyond any trace below: every request is
            // eventually admitted and served.
            interactive_deadline_us: 1e9,
            batch_deadline_us: 1e9,
            ..Default::default()
        }
    }

    /// Builds a valid request trace (sorted arrivals, shapes that fit the
    /// model) from one generated gap vector: each gap also seeds that
    /// request's prompt length, output budget and class, so one strategy
    /// exercises arrival bursts, shape mixes and class interleavings.
    fn trace_from(gaps: &[u64]) -> Vec<Request> {
        let mut now = 0u64;
        gaps.iter()
            .enumerate()
            .map(|(i, &gap)| {
                now += gap;
                let plen = 1 + (gap % 5) as usize;
                let max_new = 1 + ((gap / 7) % 5) as usize;
                Request {
                    id: i as u64,
                    arrival: now,
                    prompt: (0..plen).map(|j| 1 + (i + j) % (VOCAB - 1)).collect(),
                    max_new,
                    eos: None,
                    class: if (gap / 3) % 2 == 0 {
                        DeadlineClass::Interactive
                    } else {
                        DeadlineClass::Batch
                    },
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Occupancy never exceeds capacity and every offered request
        /// terminates exactly once.
        #[test]
        fn occupancy_bounded_and_conservation(
            gaps in proptest::collection::vec(0u64..3000, 1..25),
            capacity in 1usize..5,
        ) {
            let _quiet = crate::quiet_faults();
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let n = requests.len();
            let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
            let out = ServeEngine::new(
                &model, &params, generous_cfg(capacity, ShedPolicy::Retention),
                &AccelConfig::default(),
            ).unwrap().run(requests);
            prop_assert!(out.max_occupancy <= capacity);
            prop_assert_eq!(out.completions.len(), n);
            let mut seen: Vec<u64> = out.completions.iter().map(|c| c.id).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, ids);
        }

        /// With generous deadlines nobody starves: every request is
        /// admitted and served in full.
        #[test]
        fn no_starvation_under_generous_deadlines(
            gaps in proptest::collection::vec(0u64..3000, 1..21),
            capacity in 1usize..4,
        ) {
            let _quiet = crate::quiet_faults();
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let out = ServeEngine::new(
                &model, &params, generous_cfg(capacity, ShedPolicy::Retention),
                &AccelConfig::default(),
            ).unwrap().run(requests);
            for c in &out.completions {
                prop_assert!(c.reason.is_served(), "request {} ended {:?}", c.id, c.reason);
                prop_assert!(c.admit_seq.is_some());
            }
        }

        /// Admission is FIFO within a deadline class: among admitted
        /// requests of one class, admission order follows arrival order
        /// (ties broken by offer order, which ids encode).
        #[test]
        fn admission_is_fifo_within_class(
            gaps in proptest::collection::vec(0u64..3000, 1..21),
            capacity in 1usize..4,
        ) {
            let _quiet = crate::quiet_faults();
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let out = ServeEngine::new(
                &model, &params, generous_cfg(capacity, ShedPolicy::QueueOnly),
                &AccelConfig::default(),
            ).unwrap().run(requests);
            for class in [DeadlineClass::Interactive, DeadlineClass::Batch] {
                let mut admitted: Vec<&Completion> = out
                    .completions
                    .iter()
                    .filter(|c| c.class == class && c.admit_seq.is_some())
                    .collect();
                admitted.sort_by_key(|c| c.admit_seq.unwrap());
                for w in admitted.windows(2) {
                    prop_assert!(
                        (w[0].arrival, w[0].id) < (w[1].arrival, w[1].id),
                        "class {:?}: {} (arrival {}) admitted before {} (arrival {})",
                        class, w[0].id, w[0].arrival, w[1].id, w[1].arrival
                    );
                }
            }
        }

        /// The timeline's per-step attended counts are exactly the
        /// retention window's sizes: for every step with post-append
        /// context `t`, `attended == layers · heads · clamp(ceil(r·t), 1, t)`
        /// and `omitted` is its dense complement — so `dota analyze
        /// --serve`'s ladder-consistency audit holds by construction, not
        /// by luck, and each request's cycle decomposition tiles its
        /// recorded residence exactly.
        #[test]
        fn timeline_attended_counts_match_selector_windows(
            gaps in proptest::collection::vec(0u64..800, 1..17),
            capacity in 1usize..4,
        ) {
            let _quiet = crate::quiet_faults();
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let cfg = generous_cfg(capacity, ShedPolicy::Retention);
            let ladder = cfg.ladder.clone();
            let mut engine = ServeEngine::new(
                &model, &params, cfg, &AccelConfig::default(),
            ).unwrap();
            engine.enable_timeline("prop");
            let out = engine.run(requests);
            let lh = (model.config().n_layers * model.config().n_heads) as u64;
            for tl in out.timeline.as_deref().unwrap() {
                prop_assert!(ladder.contains(&tl.retention), "retention {} off-ladder", tl.retention);
                for step in &tl.steps {
                    let t = step.context;
                    let window = if tl.retention >= 1.0 {
                        t
                    } else {
                        (((tl.retention * t as f64).ceil() as u64).max(1)).min(t)
                    };
                    prop_assert_eq!(step.attended, lh * window, "req {} t={}", tl.id, t);
                    prop_assert_eq!(step.attended + step.omitted, lh * t);
                    prop_assert!(
                        step.weight_cycles + step.kv_cycles <= step.cycles,
                        "req {}: own weight + KV share cannot exceed the step",
                        tl.id
                    );
                }
                let step_sum: u64 = tl.steps.iter().map(|s| s.attended).sum();
                prop_assert_eq!(tl.attended_total(), step_sum);
                prop_assert_eq!(
                    tl.queue_cycles() + tl.prefill_cycles() + tl.decode_cycles(),
                    tl.e2e_cycles(),
                    "req {}: phase decomposition must tile e2e", tl.id
                );
                prop_assert_eq!(
                    tl.weight_cycles() + tl.kv_cycles() + tl.hol_cycles(),
                    tl.prefill_cycles() + tl.decode_cycles(),
                    "req {}: service decomposition must tile in-slot time", tl.id
                );
            }
        }

        /// A request's tokens are a function of its own prompt and
        /// retention only — never of who shared its batch. Serving a
        /// request alongside arbitrary traffic yields bit-identical
        /// output to serving it alone.
        #[test]
        fn tokens_independent_of_batch_mates(
            gaps in proptest::collection::vec(0u64..3000, 1..13),
            capacity in 2usize..5,
        ) {
            let _quiet = crate::quiet_faults();
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let accel = AccelConfig::default();
            // QueueOnly pins retention at ladder[0] for everyone, so the
            // solo run is admitted at the same retention as the shared run.
            let shared = ServeEngine::new(
                &model, &params, generous_cfg(capacity, ShedPolicy::QueueOnly), &accel,
            ).unwrap().run(requests.clone());
            for req in &requests {
                let solo_req = Request { arrival: 0, ..req.clone() };
                let solo = ServeEngine::new(
                    &model, &params, generous_cfg(capacity, ShedPolicy::QueueOnly), &accel,
                ).unwrap().run(vec![solo_req]);
                let shared_c = shared.completions.iter().find(|c| c.id == req.id).unwrap();
                prop_assert_eq!(&shared_c.tokens, &solo.completions[0].tokens);
            }
        }

        /// Conservation survives fault injection: under a random plan
        /// arming every serve-layer site, each offered request still
        /// terminates exactly once, occupancy stays bounded, and the
        /// served/failed split is clean (served requests have tokens,
        /// failed ones have none).
        #[test]
        fn faults_preserve_exactly_one_terminal(
            gaps in proptest::collection::vec(0u64..3000, 1..17),
            capacity in 1usize..4,
            fault_seed in 0u64..1000,
            rate_pct in 0u32..30,
        ) {
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let n = requests.len();
            let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
            let rate = f64::from(rate_pct) / 100.0;
            let plan = dota_faults::FaultSite::SERVE
                .iter()
                .fold(dota_faults::FaultPlan::new(fault_seed), |p, &site| {
                    p.with_rate(site, rate)
                });
            let _session = dota_faults::session(plan);
            let out = ServeEngine::new(
                &model, &params, generous_cfg(capacity, ShedPolicy::Retention),
                &AccelConfig::default(),
            ).unwrap().run(requests);
            prop_assert!(out.max_occupancy <= capacity);
            prop_assert_eq!(out.completions.len(), n);
            let mut seen: Vec<u64> = out.completions.iter().map(|c| c.id).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, ids);
            for c in &out.completions {
                match c.reason {
                    FinishReason::Completed | FinishReason::Eos =>
                        prop_assert!(!c.tokens.is_empty(), "served {} has no tokens", c.id),
                    FinishReason::Failed =>
                        prop_assert!(c.tokens.is_empty(), "failed {} kept tokens", c.id),
                    _ => {}
                }
            }
        }

        /// Retries never corrupt output: a request served under fault
        /// injection — however many attempts it took — emits a token
        /// stream bit-identical to a fault-free solo run. Aborted
        /// attempts' partial tokens are discarded, never leaked.
        #[test]
        fn retried_tokens_match_fault_free_run(
            gaps in proptest::collection::vec(0u64..3000, 1..9),
            capacity in 2usize..4,
            fault_seed in 0u64..1000,
        ) {
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let accel = AccelConfig::default();
            // QueueOnly pins retention at ladder[0], so the fault-free
            // solo run is admitted at the same retention as the faulted
            // shared run (retries re-pin the original level anyway).
            let plan = dota_faults::FaultSite::SERVE
                .iter()
                .fold(dota_faults::FaultPlan::new(fault_seed), |p, &site| {
                    p.with_rate(site, 0.15)
                });
            let faulted = {
                let _session = dota_faults::session(plan);
                ServeEngine::new(
                    &model, &params, generous_cfg(capacity, ShedPolicy::QueueOnly), &accel,
                ).unwrap().run(requests.clone())
            };
            let _quiet = crate::quiet_faults();
            for req in &requests {
                let c = faulted.completions.iter().find(|c| c.id == req.id).unwrap();
                if !c.reason.is_served() {
                    continue;
                }
                let solo_req = Request { arrival: 0, ..req.clone() };
                let solo = ServeEngine::new(
                    &model, &params, generous_cfg(capacity, ShedPolicy::QueueOnly), &accel,
                ).unwrap().run(vec![solo_req]);
                prop_assert_eq!(
                    &c.tokens, &solo.completions[0].tokens,
                    "request {} ({} retries) diverged from its fault-free run",
                    req.id, c.retries
                );
            }
        }

        /// Quarantined lanes are out of rotation: no request is admitted
        /// into a lane inside one of its quarantine windows (re-admission
        /// at the window's closing probe cycle is the first legal use).
        #[test]
        fn quarantined_lanes_receive_no_admissions(
            gaps in proptest::collection::vec(0u64..2000, 1..13),
            capacity in 2usize..4,
            fault_seed in 0u64..1000,
        ) {
            let requests = trace_from(&gaps);
            let (model, params) = model();
            let plan = dota_faults::FaultPlan::new(fault_seed)
                .with_rate(dota_faults::FaultSite::SlotFail, 0.3);
            let _session = dota_faults::session(plan);
            let mut engine = ServeEngine::new(
                &model, &params, generous_cfg(capacity, ShedPolicy::Retention),
                &AccelConfig::default(),
            ).unwrap();
            engine.enable_timeline("prop");
            let out = engine.run(requests);
            let timelines = out.timeline.as_deref().unwrap();
            for span in &out.quarantine_log {
                // A lane quarantined on the run's last cycle closes empty
                // (from == until) at run end.
                prop_assert!(span.from <= span.until);
                for tl in timelines {
                    if let (Some(lane), Some(admit)) = (tl.lane, tl.admit) {
                        prop_assert!(
                            lane != span.lane || admit < span.from || admit >= span.until,
                            "request {} admitted into lane {} at {} inside quarantine [{}, {})",
                            tl.id, lane, admit, span.from, span.until
                        );
                    }
                }
            }
        }
    }
}
