//! The continuous-batching scheduler.
//!
//! [`ServeEngine`] drives the real incremental decode path
//! ([`Model::decode_step`]) for a whole population of requests at once.
//! Time is the accelerator's 1 GHz cycle clock, advanced by the
//! [`DecodeCost`] after every step, so the run — admission decisions,
//! latencies, the serialized report — is a pure function of the request
//! trace and the configuration: byte-identical across `DOTA_THREADS` and
//! serial vs `parallel` builds (the scheduler loop is serial; only the
//! independent per-slot decodes fan out).
//!
//! Each scheduler step:
//!
//! 1. **ingest** — arrivals up to `now` join their class queue (FIFO
//!    within class; the queue rejects above `queue_capacity`);
//! 2. **expire** — queued requests whose deadline already passed leave as
//!    [`FinishReason::QueueExpired`];
//! 3. **admit** — free batch slots fill from the queues (interactive
//!    before batch, FIFO within each). Under [`ShedPolicy::Retention`]
//!    the backlog picks a rung of the retention ladder: the deeper the
//!    queue, the sparser the attention the new request runs at —
//!    *shedding load by degrading accuracy instead of waiting*;
//! 4. **decode** — every in-flight request advances one token (prompt
//!    tokens first, then greedy generation); the step costs one shared
//!    weight stream plus each member's measured K/V traffic;
//! 5. **evict** — requests that finished (`max_new` tokens or EOS) or
//!    overran their deadline leave the batch at step boundaries.

use crate::control::{ControlConfig, ControlInputs, ControlSummary, Controller};
use crate::request::{Completion, DeadlineClass, FinishReason, Request};
use crate::selector::WindowSelector;
use crate::slo::{SloMonitor, SloWindow};
use crate::timeline::{RequestTimeline, StepRecord, TimelineRecorder};
use dota_accel::decode::DecodeCost;
use dota_accel::AccelConfig;
use dota_autograd::ParamSet;
use dota_faults::FaultSite;
use dota_telemetry::{FlightEventKind, FlightHandle, GaugesSample, ServeGauges};
use dota_tensor::ops;
use dota_transformer::{KvCache, Model};
use std::collections::VecDeque;
use std::sync::{Arc, PoisonError};

/// Coordinate namespace for quarantine probe decisions, disjoint from
/// request ids (which are the first coordinate of in-slot fault checks).
const PROBE_COORD: u64 = u64::MAX;

/// Consecutive decode-step timeouts at one position before the attempt is
/// abandoned and the request goes through the retry path.
const TIMEOUT_ESCALATE: u64 = 3;

/// What the scheduler does when demand outruns capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Classic behaviour: requests wait in the queue at full retention
    /// until a slot frees or their deadline expires.
    QueueOnly,
    /// DOTA's knob in reverse: admission proceeds, but the deeper the
    /// backlog, the lower the retention new requests are admitted at
    /// (`ladder[min(backlog / capacity, last rung)]`). Requests keep
    /// their admitted retention for life, so output remains a pure
    /// function of the admission decision.
    Retention,
    /// Closed-loop feedback: a [`Controller`] driven by the SLO monitor's
    /// rolling burn (plus queue depth and occupancy) picks the rung, with
    /// hysteresis and a cooldown, and can gate admission entirely under
    /// extreme burn. Requires `slo_window > 0`.
    Slo,
}

impl ShedPolicy {
    /// Stable lower-case name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::QueueOnly => "queue",
            ShedPolicy::Retention => "retention",
            ShedPolicy::Slo => "slo",
        }
    }

    /// Parses a CLI/env spelling.
    ///
    /// # Errors
    ///
    /// Describes the accepted spellings when `s` is none of them.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "queue" | "queue-only" => Ok(ShedPolicy::QueueOnly),
            "retention" | "shed" => Ok(ShedPolicy::Retention),
            "slo" => Ok(ShedPolicy::Slo),
            other => Err(format!(
                "unknown shed policy `{other}` (use queue|retention|slo)"
            )),
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum in-flight requests per step (batch slots).
    pub capacity: usize,
    /// Maximum pending requests across both class queues; arrivals beyond
    /// it are rejected outright.
    pub queue_capacity: usize,
    /// Overload behaviour.
    pub shed: ShedPolicy,
    /// Retention ladder, best first. `ladder[0]` is the undegraded service
    /// level; deeper backlog walks down the ladder (under
    /// [`ShedPolicy::Retention`] only).
    pub ladder: Vec<f64>,
    /// Deadline budget for [`DeadlineClass::Interactive`], microseconds.
    pub interactive_deadline_us: f64,
    /// Deadline budget for [`DeadlineClass::Batch`], microseconds.
    pub batch_deadline_us: f64,
    /// Rolling window (in terminal requests) of the SLO monitor; `0`
    /// disables the monitor entirely. Under [`ShedPolicy::QueueOnly`] and
    /// [`ShedPolicy::Retention`] the monitor never feeds back into
    /// scheduling, so outcomes and reports are identical either way;
    /// [`ShedPolicy::Slo`] consumes its rolling burn and requires a
    /// nonzero window.
    pub slo_window: usize,
    /// Hysteresis/cooldown parameters of the closed-loop controller
    /// (consulted under [`ShedPolicy::Slo`] only).
    pub control: ControlConfig,
    /// Fault-retry attempts before a request fails typed. Only reachable
    /// with serve-layer fault injection active.
    pub retry_cap: usize,
    /// Base retry backoff in cycles; doubles with each attempt.
    pub retry_backoff_cycles: u64,
    /// Cycles a failed lane stays quarantined between health probes.
    pub quarantine_cycles: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            capacity: 8,
            queue_capacity: 256,
            shed: ShedPolicy::Retention,
            ladder: vec![1.0, 0.5, 0.25, 0.125],
            interactive_deadline_us: 50.0,
            batch_deadline_us: 500.0,
            slo_window: 64,
            control: ControlConfig::default(),
            retry_cap: 3,
            retry_backoff_cycles: 2_000,
            quarantine_cycles: 20_000,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("capacity must be at least 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.ladder.is_empty() {
            return Err("retention ladder must not be empty".into());
        }
        for w in self.ladder.windows(2) {
            if w[1] > w[0] {
                return Err("retention ladder must be non-increasing".into());
            }
        }
        for &r in &self.ladder {
            if !(r > 0.0 && r <= 1.0) {
                return Err(format!("ladder retention {r} out of range (0, 1]"));
            }
        }
        for us in [self.interactive_deadline_us, self.batch_deadline_us] {
            // NaN must fail too, so test for the one acceptable state.
            if !(us > 0.0 && us.is_finite()) {
                return Err("deadline budgets must be positive and finite".into());
            }
        }
        if self.shed == ShedPolicy::Slo && self.slo_window == 0 {
            return Err("shed policy slo needs the SLO monitor (slo_window > 0)".into());
        }
        self.control.validate()?;
        if self.retry_backoff_cycles == 0 {
            return Err("retry_backoff_cycles must be at least 1".into());
        }
        if self.quarantine_cycles == 0 {
            return Err("quarantine_cycles must be at least 1".into());
        }
        Ok(())
    }

    /// Deadline budget of a class in cycles (1 GHz clock: 1000/µs).
    pub fn deadline_cycles(&self, class: DeadlineClass) -> u64 {
        let us = match class {
            DeadlineClass::Interactive => self.interactive_deadline_us,
            DeadlineClass::Batch => self.batch_deadline_us,
        };
        (us * 1e3).round() as u64
    }
}

/// A queued request with its precomputed deadline.
#[derive(Debug)]
struct Queued {
    req: Request,
    deadline: u64,
}

/// An injected fault that aborts a slot's current attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotFault {
    /// The slot died mid-decode; the lane is quarantined too.
    Lane,
    /// A K/V-cache read came back corrupted; the cached state is lost.
    Kv,
    /// Consecutive decode-step timeouts exhausted the in-place budget.
    Timeout,
}

/// A faulted request waiting out its retry backoff. Retention and rung are
/// pinned from the original admission so a retried decode regenerates the
/// identical token stream.
#[derive(Debug)]
struct RetryEntry {
    req: Request,
    deadline: u64,
    retention: f64,
    level: usize,
    /// Attempt number the re-admission will run as (original run is 0).
    attempt: u64,
    /// Cycle at which the entry becomes admissible again.
    ready_at: u64,
}

/// A lane taken out of rotation after a slot failure.
#[derive(Debug)]
struct Quarantine {
    lane: usize,
    /// Cycle of the next health probe.
    release_at: u64,
    /// Probes attempted so far (a coordinate of the probe decision).
    probes: u64,
    /// Cycle the lane entered quarantine.
    from: u64,
}

/// One completed quarantine interval of a lane (closed at run end for
/// lanes still quarantined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineSpan {
    /// Batch-slot lane that was taken out of rotation.
    pub lane: usize,
    /// Cycle the lane entered quarantine.
    pub from: u64,
    /// Cycle the lane was re-admitted (run end if never).
    pub until: u64,
}

/// One in-flight batch slot.
#[derive(Debug)]
struct Slot {
    req: Request,
    deadline: u64,
    retention: f64,
    /// Retention-ladder rung the request was admitted at.
    level: usize,
    /// Stable batch-slot lane (smallest index free at admission); lanes
    /// are reused as slots drain, giving timelines one track per slot.
    lane: usize,
    cache: KvCache,
    selector: WindowSelector,
    /// Prompt+generated tokens consumed by `decode_step` so far.
    consumed: usize,
    /// Generated tokens.
    tokens: Vec<usize>,
    /// Next generation input (argmax of the last step's logits).
    next_token: Option<usize>,
    eos_hit: bool,
    admit: u64,
    admit_seq: u64,
    first_token: Option<u64>,
    /// Connections the last decode step attended (drives K/V cost).
    attended_last: u64,
    emitted_this_step: bool,
    /// Fault-retry attempt this slot runs as (0 without faults).
    attempt: u64,
    /// Consecutive decode-step timeouts at the current position.
    timeouts_here: u64,
    /// The current step's decode timed out (output discarded, position
    /// repeats next step).
    timed_out: bool,
    /// An injected fault aborted this attempt; resolved at the step
    /// boundary (retry or typed failure).
    fault: Option<SlotFault>,
}

/// Aggregate result of one [`ServeEngine::run`].
#[derive(Debug)]
pub struct ServeOutcome {
    /// Terminal record per offered request, in completion order.
    pub completions: Vec<Completion>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Total simulated cycles from first arrival to last exit.
    pub total_cycles: u64,
    /// Largest batch occupancy observed (never exceeds capacity).
    pub max_occupancy: usize,
    /// Sum of per-step occupancies (mean = `occupancy_sum / steps`).
    pub occupancy_sum: u64,
    /// Requests admitted below `ladder[0]`.
    pub degraded: u64,
    /// Tokens generated across all requests.
    pub tokens: u64,
    /// Deepest pending-queue depth sampled at any step boundary.
    pub queue_depth_max: usize,
    /// Terminals that met their SLO (full output within deadline); `0`
    /// when the monitor was off.
    pub slo_hits: u64,
    /// Terminals that missed their SLO; `0` when the monitor was off.
    pub slo_misses: u64,
    /// Disjoint SLO window summaries (empty when the monitor was off).
    pub slo_windows: Vec<SloWindow>,
    /// Per-request lifecycle records, sorted by id (`None` unless
    /// [`ServeEngine::enable_timeline`] was called).
    pub timeline: Option<Vec<RequestTimeline>>,
    /// Fault-retry re-admissions performed (0 without injected faults).
    pub retries: u64,
    /// Requests that terminated as [`FinishReason::Failed`].
    pub failed: u64,
    /// Decode steps discarded to injected cycle-budget timeouts.
    pub timeout_steps: u64,
    /// Lanes sent to quarantine after a slot failure.
    pub quarantine_events: u64,
    /// Quarantine intervals, in event order (open intervals are closed at
    /// the run's final cycle).
    pub quarantine_log: Vec<QuarantineSpan>,
    /// Closed-loop controller activity (`None` unless the policy was
    /// [`ShedPolicy::Slo`]).
    pub control: Option<ControlSummary>,
}

impl ServeOutcome {
    /// Mean batch occupancy over all steps.
    pub fn mean_occupancy(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.steps as f64
        }
    }

    /// Completions that produced their full requested output.
    pub fn served(&self) -> usize {
        self.completions
            .iter()
            .filter(|c| c.reason.is_served())
            .count()
    }
}

/// The continuous-batching scheduler (see the module docs for the step
/// anatomy).
#[derive(Debug)]
pub struct ServeEngine<'m> {
    model: &'m Model,
    params: &'m ParamSet,
    cfg: ServeConfig,
    cost: DecodeCost,
    now: u64,
    /// Pending queues: `[interactive, batch]`, each FIFO.
    queues: [VecDeque<Queued>; 2],
    slots: Vec<Slot>,
    completions: Vec<Completion>,
    admit_seq: u64,
    steps: u64,
    total_cycles: u64,
    max_occupancy: usize,
    occupancy_sum: u64,
    degraded: u64,
    tokens: u64,
    queue_depth_max: usize,
    slo: Option<SloMonitor>,
    timeline: Option<TimelineRecorder>,
    /// Prefix for Chrome-trace counter/track names, so engines sharing a
    /// trace session (e.g. bench cells) stay distinguishable.
    label: String,
    /// Closed-loop controller (present under [`ShedPolicy::Slo`] only).
    control: Option<Controller>,
    /// Faulted requests waiting out their retry backoff.
    retryq: VecDeque<RetryEntry>,
    /// Lanes out of rotation after a slot failure.
    quarantine: Vec<Quarantine>,
    quarantine_log: Vec<QuarantineSpan>,
    retries: u64,
    failed: u64,
    timeout_steps: u64,
    quarantine_events: u64,
    /// Flight recorder handle (shared with the CLI so the ring survives
    /// a typed failure). Pure observation: never read back.
    flight: Option<FlightHandle>,
    /// Live gauge cell the metrics endpoint scrapes. Pure observation:
    /// the engine only publishes into it.
    gauges: Option<Arc<ServeGauges>>,
}

impl<'m> ServeEngine<'m> {
    /// Builds an engine over a causal model.
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations ([`ServeConfig::validate`]) and
    /// non-causal models.
    pub fn new(
        model: &'m Model,
        params: &'m ParamSet,
        cfg: ServeConfig,
        accel: &AccelConfig,
    ) -> Result<Self, String> {
        cfg.validate()?;
        if !model.config().causal {
            return Err("serving requires a causal (decoder) model".into());
        }
        let cost = DecodeCost::new(accel, model.config());
        let slo = (cfg.slo_window > 0).then(|| SloMonitor::new(cfg.slo_window));
        let control = (cfg.shed == ShedPolicy::Slo)
            .then(|| Controller::new(cfg.control.clone(), cfg.ladder.len() - 1));
        Ok(Self {
            model,
            params,
            cfg,
            cost,
            now: 0,
            queues: [VecDeque::new(), VecDeque::new()],
            slots: Vec::new(),
            completions: Vec::new(),
            admit_seq: 0,
            steps: 0,
            total_cycles: 0,
            max_occupancy: 0,
            occupancy_sum: 0,
            degraded: 0,
            tokens: 0,
            queue_depth_max: 0,
            slo,
            timeline: None,
            label: "serve".to_owned(),
            control,
            retryq: VecDeque::new(),
            quarantine: Vec::new(),
            quarantine_log: Vec::new(),
            retries: 0,
            failed: 0,
            timeout_steps: 0,
            quarantine_events: 0,
            flight: None,
            gauges: None,
        })
    }

    /// Sets the prefix of the engine's Chrome-trace counter tracks
    /// without enabling the timeline, so several engines sharing one
    /// trace session (e.g. bench cells) stay distinguishable.
    pub fn set_label(&mut self, label: &str) {
        self.label = label.to_owned();
    }

    /// Turns on per-request lifecycle recording. `label` prefixes the
    /// engine's Chrome-trace tracks (pass a distinct label per engine when
    /// several share one trace session).
    pub fn enable_timeline(&mut self, label: &str) {
        self.label = label.to_owned();
        self.timeline = Some(TimelineRecorder::new(label));
    }

    /// Attaches a shared flight recorder. The engine appends
    /// cycle-stamped events (admissions, terminals, controller moves,
    /// retries, quarantine transitions) and never reads the ring back,
    /// so attaching one changes no scheduling decision or report byte.
    pub fn set_flight(&mut self, flight: FlightHandle) {
        self.flight = Some(flight);
    }

    /// Attaches a live gauge cell for the metrics endpoint to scrape.
    /// The engine publishes a fresh [`GaugesSample`] at every step
    /// boundary and never reads the cell back.
    pub fn set_gauges(&mut self, gauges: Arc<ServeGauges>) {
        self.gauges = Some(gauges);
    }

    /// Appends one flight event, when a recorder is attached.
    fn flight_record(&self, cycle: u64, kind: FlightEventKind) {
        if let Some(f) = &self.flight {
            f.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record(cycle, kind);
        }
    }

    /// Runs the trace to completion: every offered request terminates
    /// (served, evicted, expired or rejected) before this returns.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is not sorted by arrival, a prompt is empty,
    /// `max_new` is zero, or a request does not fit the model's `seq_len`.
    pub fn run(mut self, requests: Vec<Request>) -> ServeOutcome {
        let _sp = dota_prof::span("serve.run");
        for w in requests.windows(2) {
            assert!(
                w[0].arrival <= w[1].arrival,
                "requests must be sorted by arrival"
            );
        }
        let mut arrivals = requests.into_iter().peekable();
        loop {
            while arrivals.peek().is_some_and(|r| r.arrival <= self.now) {
                self.enqueue(arrivals.next().expect("peeked"));
            }
            self.expire_queued();
            self.expire_retries();
            self.probe_quarantine();
            self.observe_control();
            self.admit();
            if self.slots.is_empty() {
                // Idle: jump to the next instant anything can happen — an
                // arrival, a queued/retrying deadline, a retry backoff
                // elapsing, or a quarantine probe.
                let mut next = arrivals.peek().map(|r| r.arrival);
                let mut consider = |t: u64| match next {
                    Some(n) if n <= t => {}
                    _ => next = Some(t),
                };
                if self.pending_len() > 0 || !self.retryq.is_empty() {
                    for q in self.queues.iter().flat_map(|q| q.iter()) {
                        consider(q.deadline);
                    }
                    for r in &self.retryq {
                        consider(r.ready_at);
                        consider(r.deadline);
                    }
                    for q in &self.quarantine {
                        consider(q.release_at);
                    }
                }
                match next {
                    // Every candidate in the past was already drained
                    // above, but guarantee forward progress regardless.
                    Some(t) if t <= self.now => self.now += 1,
                    Some(t) => self.now = t,
                    None => {
                        assert!(
                            self.pending_len() == 0 && self.retryq.is_empty(),
                            "pending requests with free capacity"
                        );
                        break;
                    }
                }
                continue;
            }
            self.step();
        }
        // Close quarantine intervals still open at run end.
        let end = self.now;
        for q in self.quarantine.drain(..) {
            self.quarantine_log.push(QuarantineSpan {
                lane: q.lane,
                from: q.from,
                until: end,
            });
        }
        if let Some(slo) = self.slo.as_mut() {
            slo.finish();
        }
        if dota_trace::enabled() {
            dota_trace::count("serve.steps", self.steps);
            dota_trace::count("serve.cycles", self.total_cycles);
            dota_trace::count("serve.tokens", self.tokens);
            dota_trace::count("serve.admitted", self.admit_seq);
            dota_trace::count("serve.degraded", self.degraded);
            let served = self
                .completions
                .iter()
                .filter(|c| c.reason.is_served())
                .count() as u64;
            dota_trace::count("serve.served", served);
            dota_trace::count("serve.dropped", self.completions.len() as u64 - served);
            dota_trace::count("serve.queue_depth_max", self.queue_depth_max as u64);
            if let Some(mean_milli) = (self.occupancy_sum * 1000).checked_div(self.steps) {
                dota_trace::count("serve.occupancy_mean_milli", mean_milli);
            }
            // Fault-path counters only exist when something fired, so
            // fault-free traces keep their exact counter set.
            for (name, v) in [
                ("serve.retries", self.retries),
                ("serve.failed", self.failed),
                ("serve.timeout_steps", self.timeout_steps),
                ("serve.quarantine_events", self.quarantine_events),
            ] {
                if v > 0 {
                    dota_trace::count(name, v);
                }
            }
        }
        let (slo_hits, slo_misses, slo_windows) = match self.slo {
            Some(slo) => (slo.hits(), slo.misses(), slo.into_windows()),
            None => (0, 0, Vec::new()),
        };
        ServeOutcome {
            completions: self.completions,
            steps: self.steps,
            total_cycles: self.total_cycles,
            max_occupancy: self.max_occupancy,
            occupancy_sum: self.occupancy_sum,
            degraded: self.degraded,
            tokens: self.tokens,
            queue_depth_max: self.queue_depth_max,
            slo_hits,
            slo_misses,
            slo_windows,
            timeline: self.timeline.map(TimelineRecorder::into_requests),
            retries: self.retries,
            failed: self.failed,
            timeout_steps: self.timeout_steps,
            quarantine_events: self.quarantine_events,
            quarantine_log: self.quarantine_log,
            control: self.control.as_ref().map(Controller::summary),
        }
    }

    fn pending_len(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    fn class_queue(&mut self, class: DeadlineClass) -> &mut VecDeque<Queued> {
        match class {
            DeadlineClass::Interactive => &mut self.queues[0],
            DeadlineClass::Batch => &mut self.queues[1],
        }
    }

    /// Feeds a terminal event to the SLO monitor and the timeline; every
    /// exit path (reject, queue expiry, eviction, completion) runs through
    /// here so neither observer can miss a request.
    fn observe_terminal(
        &mut self,
        id: u64,
        reason: FinishReason,
        arrival: u64,
        deadline: u64,
        finish: u64,
        tokens: u64,
    ) {
        if let Some(tl) = self.timeline.as_mut() {
            tl.finished(id, reason, finish, tokens);
        }
        self.flight_record(
            finish,
            FlightEventKind::Terminal {
                id,
                reason: reason.name().to_owned(),
                tokens,
            },
        );
        if let Some(slo) = self.slo.as_mut() {
            let hit = reason.is_served() && finish <= deadline;
            let budget = deadline.saturating_sub(arrival).max(1);
            let burn = finish.saturating_sub(arrival) as f64 / budget as f64;
            slo.complete(hit, burn, finish);
        }
    }

    fn enqueue(&mut self, req: Request) {
        assert!(
            !req.prompt.is_empty(),
            "request {} has an empty prompt",
            req.id
        );
        assert!(req.max_new >= 1, "request {} asks for zero tokens", req.id);
        assert!(
            req.total_positions() <= self.model.config().seq_len,
            "request {} needs {} positions but seq_len is {}",
            req.id,
            req.total_positions(),
            self.model.config().seq_len
        );
        let deadline = req.arrival + self.cfg.deadline_cycles(req.class);
        let base = self.cfg.ladder[0];
        if let Some(tl) = self.timeline.as_mut() {
            tl.offered(&req, deadline, base);
        }
        if self.pending_len() >= self.cfg.queue_capacity {
            self.completions.push(Completion {
                id: req.id,
                class: req.class,
                reason: FinishReason::Rejected,
                retention: base,
                tokens: Vec::new(),
                arrival: req.arrival,
                admit: None,
                first_token: None,
                finish: self.now,
                admit_seq: None,
                retries: 0,
            });
            self.observe_terminal(
                req.id,
                FinishReason::Rejected,
                req.arrival,
                deadline,
                self.now,
                0,
            );
            return;
        }
        let class = req.class;
        self.class_queue(class).push_back(Queued { req, deadline });
    }

    fn expire_queued(&mut self) {
        let now = self.now;
        let base = self.cfg.ladder[0];
        for qi in 0..2 {
            // Deadlines are arrival + a per-class constant and the queue is
            // FIFO by arrival, so expired entries form a prefix.
            while self.queues[qi].front().is_some_and(|q| q.deadline <= now) {
                let q = self.queues[qi].pop_front().expect("checked front");
                self.completions.push(Completion {
                    id: q.req.id,
                    class: q.req.class,
                    reason: FinishReason::QueueExpired,
                    retention: base,
                    tokens: Vec::new(),
                    arrival: q.req.arrival,
                    admit: None,
                    first_token: None,
                    finish: q.deadline,
                    admit_seq: None,
                    retries: 0,
                });
                self.observe_terminal(
                    q.req.id,
                    FinishReason::QueueExpired,
                    q.req.arrival,
                    q.deadline,
                    q.deadline,
                    0,
                );
            }
        }
    }

    /// Feeds the controller one observation of the current engine state
    /// (no-op outside [`ShedPolicy::Slo`]). Runs once per scheduler
    /// iteration, before admission, entirely on the simulated clock.
    fn observe_control(&mut self) {
        let Some(ctl) = self.control.as_mut() else {
            return;
        };
        let (level_before, gated_before) = (ctl.level(), ctl.gated());
        let slo = self.slo.as_ref().expect("slo policy validated the monitor");
        ctl.observe(&ControlInputs {
            rolling_burn: slo.rolling_burn(),
            rolling_hit_rate: slo.rolling_hit_rate(),
            samples: slo.hits() + slo.misses(),
            queue_depth: self.queues[0].len() + self.queues[1].len(),
            occupancy: self.slots.len(),
            capacity: self.cfg.capacity,
            step: self.steps,
        });
        let (level_after, gated_after) = (ctl.level(), ctl.gated());
        if dota_trace::enabled() {
            dota_trace::sim_counter(
                &format!("{}.ctl.level", self.label),
                self.now,
                level_after as u64,
            );
        }
        if level_after != level_before {
            self.flight_record(
                self.now,
                FlightEventKind::Rung {
                    from: level_before as u64,
                    to: level_after as u64,
                },
            );
        }
        if gated_after != gated_before {
            self.flight_record(
                self.now,
                FlightEventKind::Gate {
                    closed: gated_after,
                },
            );
        }
    }

    /// Fails retrying requests whose deadline passed during backoff.
    fn expire_retries(&mut self) {
        let now = self.now;
        let mut i = 0;
        while i < self.retryq.len() {
            if self.retryq[i].deadline > now {
                i += 1;
                continue;
            }
            let r = self.retryq.remove(i).expect("index checked");
            self.failed += 1;
            dota_faults::record("faults.serve.failed", 1);
            self.completions.push(Completion {
                id: r.req.id,
                class: r.req.class,
                reason: FinishReason::Failed,
                retention: r.retention,
                tokens: Vec::new(),
                arrival: r.req.arrival,
                admit: None,
                first_token: None,
                finish: r.deadline,
                admit_seq: None,
                retries: r.attempt,
            });
            self.observe_terminal(
                r.req.id,
                FinishReason::Failed,
                r.req.arrival,
                r.deadline,
                r.deadline,
                0,
            );
        }
    }

    /// Runs due health probes on quarantined lanes; a passing probe
    /// re-admits the lane, a failing one (the fault site fires on the
    /// probe's own coordinates) extends the quarantine by another window.
    fn probe_quarantine(&mut self) {
        let now = self.now;
        let window = self.cfg.quarantine_cycles;
        let mut i = 0;
        while i < self.quarantine.len() {
            if self.quarantine[i].release_at > now {
                i += 1;
                continue;
            }
            let q = &mut self.quarantine[i];
            q.probes += 1;
            dota_faults::record("faults.serve.probes", 1);
            let failed = dota_faults::should_inject(
                FaultSite::SlotFail,
                &[PROBE_COORD, q.lane as u64, q.probes],
            );
            let lane = q.lane;
            if failed {
                q.release_at = now + window;
                i += 1;
            } else {
                let q = self.quarantine.remove(i);
                self.quarantine_log.push(QuarantineSpan {
                    lane: q.lane,
                    from: q.from,
                    until: now,
                });
                dota_faults::record("faults.serve.lanes_restored", 1);
            }
            self.flight_record(
                now,
                FlightEventKind::Probe {
                    lane: lane as u64,
                    passed: !failed,
                },
            );
        }
    }

    /// Smallest lane neither occupied nor quarantined (`None` when every
    /// lane is in use — possible below capacity while lanes sit in
    /// quarantine).
    fn free_lane(&self) -> Option<usize> {
        (0..self.cfg.capacity).find(|l| {
            self.slots.iter().all(|s| s.lane != *l) && self.quarantine.iter().all(|q| q.lane != *l)
        })
    }

    fn place(&mut self, req: Request, deadline: u64, retention: f64, level: usize, attempt: u64) {
        let seq = self.admit_seq;
        self.admit_seq += 1;
        // Smallest free lane; lanes recycle as slots drain, so a timeline
        // gets one stable track per batch slot.
        let lane = self.free_lane().expect("caller checked a lane is free");
        if let Some(tl) = self.timeline.as_mut() {
            tl.admitted(req.id, self.now, retention, level, lane);
        }
        self.flight_record(
            self.now,
            FlightEventKind::Admit {
                id: req.id,
                lane: lane as u64,
                rung: level as u64,
            },
        );
        let mcfg = self.model.config();
        self.slots.push(Slot {
            deadline,
            retention,
            level,
            lane,
            cache: KvCache::new(mcfg.n_layers, mcfg.d_model),
            selector: WindowSelector::new(retention),
            consumed: 0,
            tokens: Vec::new(),
            next_token: None,
            eos_hit: false,
            admit: self.now,
            admit_seq: seq,
            first_token: None,
            attended_last: 0,
            emitted_this_step: false,
            attempt,
            timeouts_here: 0,
            timed_out: false,
            fault: None,
            req,
        });
    }

    fn admit(&mut self) {
        let _sp = dota_prof::span("serve.admit");
        // Ready retries re-admit first, at their pinned retention and rung
        // (so the restarted decode regenerates the identical tokens). They
        // bypass the admission gate: the system already accepted them.
        loop {
            if self.slots.len() >= self.cfg.capacity || self.free_lane().is_none() {
                break;
            }
            let Some(pos) = self.retryq.iter().position(|r| r.ready_at <= self.now) else {
                break;
            };
            let r = self.retryq.remove(pos).expect("position from iterator");
            self.place(r.req, r.deadline, r.retention, r.level, r.attempt);
        }
        if self.control.as_ref().is_some_and(Controller::gated) {
            return;
        }
        while self.slots.len() < self.cfg.capacity && self.free_lane().is_some() {
            // Backlog behind the request being admitted sets the shed
            // pressure (an empty queue admits at full service).
            let backlog = self.pending_len().saturating_sub(1);
            let Some(q) = self.queues[0]
                .pop_front()
                .or_else(|| self.queues[1].pop_front())
            else {
                break;
            };
            let level = match self.cfg.shed {
                ShedPolicy::QueueOnly => 0,
                ShedPolicy::Retention => {
                    (backlog / self.cfg.capacity).min(self.cfg.ladder.len() - 1)
                }
                ShedPolicy::Slo => self
                    .control
                    .as_ref()
                    .expect("slo policy constructs the controller")
                    .level(),
            };
            let retention = self.cfg.ladder[level];
            if level > 0 {
                self.degraded += 1;
            }
            self.place(q.req, q.deadline, retention, level, 0);
        }
        debug_assert!(self.slots.len() <= self.cfg.capacity);
    }

    /// One decode step for one slot; independent of every other slot, so
    /// the parallel fan-out below is bitwise equivalent to the serial loop.
    /// Fault decisions are pure hashes of `(request, attempt, position)`,
    /// so they too are independent of thread interleaving.
    fn decode_slot(model: &Model, params: &ParamSet, slot: &mut Slot) {
        if dota_faults::enabled() {
            let coords = [slot.req.id, slot.attempt, slot.consumed as u64];
            if dota_faults::should_inject(FaultSite::SlotFail, &coords) {
                slot.fault = Some(SlotFault::Lane);
                slot.attended_last = 0;
                return;
            }
            if slot.consumed > 0 && dota_faults::should_inject(FaultSite::KvCorrupt, &coords) {
                slot.fault = Some(SlotFault::Kv);
                slot.attended_last = 0;
                return;
            }
            // Decided before the decode runs, so a timed-out step mutates
            // nothing: the position simply repeats next step. The retry
            // counter is a coordinate, so the re-decision is fresh.
            let t_coords = [
                slot.req.id,
                slot.attempt,
                slot.consumed as u64,
                slot.timeouts_here,
            ];
            if dota_faults::should_inject(FaultSite::DecodeTimeout, &t_coords) {
                slot.timeouts_here += 1;
                slot.timed_out = true;
                slot.attended_last = 0;
                if slot.timeouts_here >= TIMEOUT_ESCALATE {
                    slot.fault = Some(SlotFault::Timeout);
                }
                return;
            }
            slot.timeouts_here = 0;
        }
        let input = if slot.consumed < slot.req.prompt.len() {
            slot.req.prompt[slot.consumed]
        } else {
            slot.next_token.expect("generation input available")
        };
        let (logits, attended) = model.decode_step(params, &mut slot.cache, input, &slot.selector);
        slot.consumed += 1;
        slot.attended_last = attended;
        if slot.consumed >= slot.req.prompt.len() {
            let next = ops::argmax_rows(&logits)[0];
            slot.tokens.push(next);
            slot.next_token = Some(next);
            slot.emitted_this_step = true;
            if slot.req.eos == Some(next) {
                slot.eos_hit = true;
            }
        }
    }

    fn decode_all(&mut self) {
        let (model, params) = (self.model, self.params);
        #[cfg(feature = "parallel")]
        dota_parallel::par_partition_mut(&mut self.slots, 1, |_, span| {
            for slot in span {
                Self::decode_slot(model, params, slot);
            }
        });
        #[cfg(not(feature = "parallel"))]
        for slot in &mut self.slots {
            Self::decode_slot(model, params, slot);
        }
    }

    fn step(&mut self) {
        let _sp = dota_prof::span("serve.step");
        let start = self.now;
        self.decode_all();
        // Equivalent to `cost.step_cycles`, unrolled so each slot's own
        // K/V share is attributable in its timeline.
        let weight_cycles = self.cost.weight_cycles();
        let kv: Vec<u64> = self
            .slots
            .iter()
            .map(|s| self.cost.kv_cycles(s.attended_last))
            .collect();
        let cycles = weight_cycles + kv.iter().sum::<u64>();
        self.now += cycles;
        self.total_cycles += cycles;
        self.steps += 1;
        self.max_occupancy = self.max_occupancy.max(self.slots.len());
        self.occupancy_sum += self.slots.len() as u64;
        let depth = self.pending_len();
        self.queue_depth_max = self.queue_depth_max.max(depth);
        if dota_trace::enabled() {
            dota_trace::sim_counter(&format!("{}.queue_depth", self.label), start, depth as u64);
            dota_trace::sim_counter(
                &format!("{}.occupancy", self.label),
                start,
                self.slots.len() as u64,
            );
        }
        if let Some(tl) = self.timeline.as_mut() {
            let lh = (self.model.config().n_layers * self.model.config().n_heads) as u64;
            for (slot, &kv_cycles) in self.slots.iter().zip(&kv) {
                // A slot whose decode was discarded (injected fault or
                // timeout) consumed no position this step; its record
                // carries zero context and traffic so the audit's window
                // identities keep holding under injection.
                let context = if slot.fault.is_some() || slot.timed_out {
                    0
                } else {
                    slot.consumed as u64
                };
                tl.step(
                    slot.req.id,
                    StepRecord {
                        start,
                        cycles,
                        weight_cycles,
                        kv_cycles,
                        attended: slot.attended_last,
                        omitted: lh * context - slot.attended_last,
                        context,
                    },
                );
            }
        }

        let timeouts: u64 = self
            .slots
            .iter_mut()
            .map(|s| u64::from(std::mem::take(&mut s.timed_out)))
            .sum();
        if timeouts > 0 {
            self.timeout_steps += timeouts;
            dota_faults::record("faults.serve.timeout_steps", timeouts);
        }

        let now = self.now;
        let mut i = 0;
        while i < self.slots.len() {
            if self.slots[i].fault.is_some() {
                let slot = self.slots.remove(i);
                self.resolve_fault(slot, now);
                continue;
            }
            let slot = &mut self.slots[i];
            if slot.emitted_this_step {
                self.tokens += 1;
                if slot.first_token.is_none() {
                    slot.first_token = Some(now);
                    if let Some(tl) = self.timeline.as_mut() {
                        tl.first_token(slot.req.id, now);
                    }
                }
                slot.emitted_this_step = false;
            }
            let slot = &self.slots[i];
            let done = slot.eos_hit || slot.tokens.len() >= slot.req.max_new;
            let expired = !done && now > slot.deadline;
            if done || expired {
                let slot = self.slots.remove(i);
                let reason = if slot.eos_hit {
                    FinishReason::Eos
                } else if done {
                    FinishReason::Completed
                } else {
                    FinishReason::DeadlineEvicted
                };
                let n_tokens = slot.tokens.len() as u64;
                self.completions.push(Completion {
                    id: slot.req.id,
                    class: slot.req.class,
                    reason,
                    retention: slot.retention,
                    tokens: slot.tokens,
                    arrival: slot.req.arrival,
                    admit: Some(slot.admit),
                    first_token: slot.first_token,
                    finish: now,
                    admit_seq: Some(slot.admit_seq),
                    retries: slot.attempt,
                });
                self.observe_terminal(
                    slot.req.id,
                    reason,
                    slot.req.arrival,
                    slot.deadline,
                    now,
                    n_tokens,
                );
            } else {
                i += 1;
            }
        }
        // Burn of the worst still-in-flight request at this step boundary
        // (pure observation: histograms and Chrome counter tracks only).
        let mut max_burn = None;
        if self.slo.is_some() && !self.slots.is_empty() {
            let burn = self
                .slots
                .iter()
                .map(|s| {
                    let budget = s.deadline.saturating_sub(s.req.arrival).max(1);
                    (now - s.req.arrival) as f64 / budget as f64
                })
                .fold(0.0f64, f64::max);
            dota_metrics::observe("serve.slo.step_burn_max", burn);
            if dota_trace::enabled() {
                dota_trace::sim_counter(
                    &format!("{}.slo.burn_max_milli", self.label),
                    now,
                    (burn * 1e3).round() as u64,
                );
            }
            max_burn = Some(burn);
        }
        // Publish the live gauges last, so a scrape between steps sees
        // one coherent post-eviction view of this boundary.
        if let Some(g) = &self.gauges {
            let mut lane_retained = vec![0u64; self.cfg.capacity];
            for s in &self.slots {
                if let Some(r) = lane_retained.get_mut(s.lane) {
                    *r = s.attended_last;
                }
            }
            let lane_skew_milli = dota_telemetry::gauges::lane_skew_milli(&lane_retained);
            g.publish(&GaugesSample {
                cell: self.label.clone(),
                cycle: now,
                steps: self.steps,
                queue_depth: depth as u64,
                occupancy: self.slots.len() as u64,
                capacity: self.cfg.capacity as u64,
                admitted: self.admit_seq,
                decoded_tokens: self.tokens,
                slo_hit_rate_milli: self
                    .slo
                    .as_ref()
                    .map(|s| (s.rolling_hit_rate().clamp(0.0, 1.0) * 1000.0).round() as u64),
                slo_burn_milli: max_burn.map(|b| (b.max(0.0) * 1000.0).round() as u64),
                rung: self.control.as_ref().map(|c| c.level() as u64),
                gate_closed: self.control.as_ref().map(Controller::gated),
                quarantined_lanes: self.quarantine.len() as u64,
                lane_retained,
                lane_skew_milli,
            });
        }
    }

    /// Resolves a slot whose attempt an injected fault aborted: quarantine
    /// the lane on a slot failure, then either schedule a retry (attempts
    /// left) or fail the request typed. Partial tokens of the aborted
    /// attempt are always discarded — a retry restarts decode from scratch
    /// at the pinned retention, regenerating the identical stream, so no
    /// token is ever duplicated or lost across attempts.
    fn resolve_fault(&mut self, slot: Slot, now: u64) {
        if slot.fault == Some(SlotFault::Lane) {
            self.quarantine_events += 1;
            dota_faults::record("faults.serve.lanes_quarantined", 1);
            self.quarantine.push(Quarantine {
                lane: slot.lane,
                release_at: now + self.cfg.quarantine_cycles,
                probes: 0,
                from: now,
            });
            self.flight_record(
                now,
                FlightEventKind::Quarantine {
                    lane: slot.lane as u64,
                },
            );
        }
        let discarded = slot.tokens.len() as u64;
        if slot.attempt < self.cfg.retry_cap as u64 {
            self.retries += 1;
            dota_faults::record("faults.serve.retries", 1);
            if let Some(tl) = self.timeline.as_mut() {
                tl.retried(slot.req.id, discarded);
            }
            self.flight_record(
                now,
                FlightEventKind::Retry {
                    id: slot.req.id,
                    attempt: slot.attempt + 1,
                },
            );
            // Exponential cycle backoff, doubling per attempt (shift
            // capped so pathological retry caps cannot overflow).
            let backoff = self.cfg.retry_backoff_cycles << slot.attempt.min(20);
            self.retryq.push_back(RetryEntry {
                req: slot.req,
                deadline: slot.deadline,
                retention: slot.retention,
                level: slot.level,
                attempt: slot.attempt + 1,
                ready_at: now + backoff,
            });
        } else {
            self.failed += 1;
            dota_faults::record("faults.serve.failed", 1);
            if let Some(tl) = self.timeline.as_mut() {
                tl.discarded(slot.req.id, discarded);
            }
            self.completions.push(Completion {
                id: slot.req.id,
                class: slot.req.class,
                reason: FinishReason::Failed,
                retention: slot.retention,
                tokens: Vec::new(),
                arrival: slot.req.arrival,
                admit: Some(slot.admit),
                first_token: None,
                finish: now,
                admit_seq: Some(slot.admit_seq),
                retries: slot.attempt,
            });
            self.observe_terminal(
                slot.req.id,
                FinishReason::Failed,
                slot.req.arrival,
                slot.deadline,
                now,
                0,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_transformer::TransformerConfig;

    fn tiny_model(seq: usize) -> (Model, ParamSet) {
        let mut params = ParamSet::new();
        let model = Model::init(TransformerConfig::tiny_causal(seq, 8), &mut params, 17);
        (model, params)
    }

    fn req(id: u64, arrival: u64, prompt: &[usize], max_new: usize) -> Request {
        Request {
            id,
            arrival,
            prompt: prompt.to_vec(),
            max_new,
            eos: None,
            class: DeadlineClass::Interactive,
        }
    }

    fn engine<'m>(model: &'m Model, params: &'m ParamSet, cfg: ServeConfig) -> ServeEngine<'m> {
        ServeEngine::new(model, params, cfg, &AccelConfig::default()).unwrap()
    }

    #[test]
    fn single_request_is_served_with_full_timestamps() {
        let _quiet = crate::quiet_faults();
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig::default();
        let out = engine(&model, &params, cfg).run(vec![req(1, 0, &[1, 2, 3], 4)]);
        assert_eq!(out.completions.len(), 1);
        let c = &out.completions[0];
        assert_eq!(c.reason, FinishReason::Completed);
        assert_eq!(c.tokens.len(), 4);
        assert_eq!(c.admit, Some(0));
        // Prompt takes 3 steps; the first token lands at the end of step 3.
        assert!(c.first_token.unwrap() > 0);
        assert!(c.finish > c.first_token.unwrap());
        assert_eq!(out.steps, 3 + 4 - 1); // one decode per prompt token, last prompt step emits
        assert_eq!(out.tokens, 4);
    }

    #[test]
    fn engine_output_matches_offline_generate() {
        let _quiet = crate::quiet_faults();
        let (model, params) = tiny_model(24);
        let prompt = [1usize, 4, 2, 7];
        let offline = model.generate(&params, &prompt, 5, &dota_transformer::DenseDecode);
        let cfg = ServeConfig {
            shed: ShedPolicy::QueueOnly,
            ..Default::default()
        };
        let out = engine(&model, &params, cfg).run(vec![req(9, 0, &prompt, 5)]);
        assert_eq!(out.completions[0].tokens, offline.tokens);
    }

    #[test]
    fn eos_stops_generation_early() {
        let _quiet = crate::quiet_faults();
        let (model, params) = tiny_model(32);
        let prompt = [1usize, 2, 3];
        // First run to learn what the model emits, then use that token as EOS.
        let cfg = ServeConfig::default();
        let out = engine(&model, &params, cfg.clone()).run(vec![req(1, 0, &prompt, 6)]);
        let first = out.completions[0].tokens[0];
        let mut r = req(1, 0, &prompt, 6);
        r.eos = Some(first);
        let out = engine(&model, &params, cfg).run(vec![r]);
        let c = &out.completions[0];
        assert_eq!(c.reason, FinishReason::Eos);
        assert_eq!(c.tokens, vec![first]);
    }

    #[test]
    fn occupancy_is_bounded_and_queue_rejects_overflow() {
        let _quiet = crate::quiet_faults();
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 2,
            queue_capacity: 3,
            shed: ShedPolicy::QueueOnly,
            interactive_deadline_us: 1e6,
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let requests: Vec<Request> = (0..12).map(|i| req(i, 0, &[1, 2], 3)).collect();
        let out = engine(&model, &params, cfg).run(requests);
        assert_eq!(out.completions.len(), 12);
        assert!(out.max_occupancy <= 2);
        let rejected = out
            .completions
            .iter()
            .filter(|c| c.reason == FinishReason::Rejected)
            .count();
        // The queue is the single entry point, so a simultaneous burst is
        // capped at queue_capacity: 3 accepted, the other 9 bounce.
        assert_eq!(rejected, 9);
        assert_eq!(out.served(), 3);
    }

    #[test]
    fn queued_requests_expire_at_their_deadline() {
        let _quiet = crate::quiet_faults();
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 1,
            queue_capacity: 64,
            shed: ShedPolicy::QueueOnly,
            interactive_deadline_us: 0.5, // 500 cycles: far below one service
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let requests: Vec<Request> = (0..4).map(|i| req(i, 0, &[1, 2, 3], 8)).collect();
        let out = engine(&model, &params, cfg).run(requests);
        let expired = out
            .completions
            .iter()
            .filter(|c| c.reason == FinishReason::QueueExpired)
            .count();
        assert!(expired >= 2, "expected queue expiries, got {out:?}");
        for c in &out.completions {
            if c.reason == FinishReason::QueueExpired {
                assert_eq!(c.e2e(), 500);
                assert!(c.tokens.is_empty());
            }
        }
    }

    #[test]
    fn retention_shed_degrades_under_backlog() {
        let _quiet = crate::quiet_faults();
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 2,
            queue_capacity: 64,
            shed: ShedPolicy::Retention,
            ladder: vec![1.0, 0.5, 0.25],
            interactive_deadline_us: 1e6,
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let requests: Vec<Request> = (0..10).map(|i| req(i, 0, &[1, 2], 4)).collect();
        let out = engine(&model, &params, cfg).run(requests);
        assert!(out.degraded > 0, "backlog should push down the ladder");
        assert!(
            out.completions
                .iter()
                .any(|c| c.retention < 1.0 && c.reason == FinishReason::Completed),
            "degraded requests still complete"
        );
    }

    #[test]
    fn interactive_admits_before_batch() {
        let _quiet = crate::quiet_faults();
        let (model, params) = tiny_model(24);
        let cfg = ServeConfig {
            capacity: 1,
            queue_capacity: 64,
            shed: ShedPolicy::QueueOnly,
            interactive_deadline_us: 1e6,
            batch_deadline_us: 1e6,
            ..Default::default()
        };
        let mut batch = req(0, 0, &[1, 2], 2);
        batch.class = DeadlineClass::Batch;
        let mut batch2 = req(1, 0, &[1, 2], 2);
        batch2.class = DeadlineClass::Batch;
        let inter = req(2, 0, &[1, 2], 2);
        let out = engine(&model, &params, cfg).run(vec![batch, batch2, inter]);
        let seq_of = |id: u64| {
            out.completions
                .iter()
                .find(|c| c.id == id)
                .unwrap()
                .admit_seq
                .unwrap()
        };
        // All three arrive at t=0; the interactive request jumps both
        // queued batch ones, which then admit FIFO.
        assert_eq!(seq_of(2), 0);
        assert_eq!(seq_of(0), 1);
        assert_eq!(seq_of(1), 2);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (model, params) = tiny_model(24);
        for cfg in [
            ServeConfig {
                capacity: 0,
                ..Default::default()
            },
            ServeConfig {
                ladder: vec![],
                ..Default::default()
            },
            ServeConfig {
                ladder: vec![0.5, 1.0],
                ..Default::default()
            },
            ServeConfig {
                ladder: vec![1.0, 0.0],
                ..Default::default()
            },
            ServeConfig {
                interactive_deadline_us: 0.0,
                ..Default::default()
            },
        ] {
            assert!(ServeEngine::new(&model, &params, cfg, &AccelConfig::default()).is_err());
        }
        // Non-causal models cannot serve.
        let mut p2 = ParamSet::new();
        let enc = Model::init(TransformerConfig::tiny(16, 8, 2), &mut p2, 1);
        assert!(
            ServeEngine::new(&enc, &p2, ServeConfig::default(), &AccelConfig::default()).is_err()
        );
    }
}
