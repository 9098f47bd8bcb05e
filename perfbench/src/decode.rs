//! `decode-2k`: greedy decoding of a causal model out to a 2048-position
//! context, streams alternating between dense decoding and the DOTA
//! detector's decode selector at retention 0.1.

use crate::report::{median_setup, rounds, Report, SETUP_REPS};
use crate::spans::{children, SpanId, Spans};
use crate::stats::{median, percentile};
use dota_autograd::ParamSet;
use dota_detector::decode::DotaDecodeSelector;
use dota_detector::{DetectorConfig, DotaHook};
use dota_quant::Precision;
use dota_tensor::{ops, Matrix};
use dota_transformer::{DecodeSelector, DenseDecode, KvCache, Model, Pooling, TransformerConfig};
use dota_workloads::{Benchmark, TaskSpec};
use std::cell::Cell;
use std::time::Instant;

/// Context every stream decodes out to.
const POSITIONS: usize = 2048;
const PROMPT: usize = 16;
/// Positions of the warm-up streams, whose tokens later streams must
/// reproduce.
const WARM_POSITIONS: usize = 64;
/// Block size of the per-context breakdown (first and last block).
const BLOCK: usize = 512;
const RETENTION: f64 = 0.1;
const MODEL_SEED: u64 = 0xdec0_de2c;

/// The causal model: d_model 256, 4 heads, 2 layers, d_ff 1024.
fn config() -> TransformerConfig {
    TransformerConfig {
        vocab_size: 256,
        seq_len: POSITIONS,
        d_model: 256,
        n_heads: 4,
        n_layers: 2,
        d_ff: 1024,
        n_classes: 256,
        causal: true,
        pooling: Pooling::Mean,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Arm {
    Dense,
    Dota,
}

impl Arm {
    const BOTH: [Arm; 2] = [Arm::Dense, Arm::Dota];

    fn name(self) -> &'static str {
        match self {
            Arm::Dense => "dense",
            Arm::Dota => "dota",
        }
    }
}

struct Setup {
    model: Model,
    params: ParamSet,
    hook: DotaHook,
    prompt: Vec<usize>,
    /// Tokens of each arm's warm-up stream.
    warm: [Vec<usize>; 2],
}

/// One greedy stream.
struct Stream {
    /// Generated tokens.
    tokens: Vec<usize>,
    /// Seconds of each step, indexed by the position it fed.
    step_s: Vec<f64>,
    /// Connections attended by each step, indexed by position.
    attended: Vec<u64>,
    /// Span of each step, indexed by position (traced streams only).
    step_spans: Vec<SpanId>,
    /// Seconds from the first generated token to the last.
    gen_s: f64,
    last_logits: Matrix,
}

/// Times each selector call as a `detector.decode_select` span under the
/// current step's span.
struct TimedSelector<'a> {
    inner: &'a dyn DecodeSelector,
    spans: &'a Spans,
    step: Cell<SpanId>,
    op: u64,
}

impl DecodeSelector for TimedSelector<'_> {
    fn select(&self, layer: usize, head: usize, x: &Matrix, cache_len: usize) -> Option<Vec<u32>> {
        let step = Some(self.step.get());
        let (sel, _) = self
            .spans
            .time("detector.decode_select", step, self.op, || {
                self.inner.select(layer, head, x, cache_len)
            });
        sel
    }
}

impl Setup {
    fn new(seed: u64) -> Self {
        let mut params = ParamSet::new();
        let model = Model::init(config(), &mut params, MODEL_SEED);
        let det = DetectorConfig::new(RETENTION).with_precision(Precision::Int8);
        let hook = DotaHook::init(det, model.config(), &mut params);
        let lm = TaskSpec::paper(Benchmark::Lm, seed).generate(1);
        let prompt = lm.samples()[0].ids[..PROMPT].to_vec();
        let mut s = Self {
            model,
            params,
            hook,
            prompt,
            warm: [Vec::new(), Vec::new()],
        };
        // Warm-up: a short stream per arm, whose tokens later streams must
        // repeat.
        s.warm = Arm::BOTH.map(|arm| s.stream(arm, WARM_POSITIONS, None).tokens);
        s
    }

    /// Runs one greedy stream out to `positions`; with `trace`, records a
    /// span per step under an op span.
    fn stream(&self, arm: Arm, positions: usize, trace: Option<(&Spans, u64)>) -> Stream {
        let cfg = self.model.config();
        let dota;
        let inner: &dyn DecodeSelector = match arm {
            Arm::Dense => &DenseDecode,
            Arm::Dota => {
                dota = DotaDecodeSelector::new(&self.hook, &self.params, cfg.n_layers, cfg.n_heads);
                &dota
            }
        };
        let root = trace
            .map(|(spans, op)| spans.begin(&format!("decode.stream.{}", arm.name()), None, op));
        let timed = trace.map(|(spans, op)| TimedSelector {
            inner,
            spans,
            step: Cell::new(0),
            op,
        });
        let selector: &dyn DecodeSelector = match &timed {
            Some(t) if arm == Arm::Dota => t,
            _ => inner,
        };
        let mut cache = KvCache::new(cfg.n_layers, cfg.d_model);
        let mut out = Stream {
            tokens: Vec::with_capacity(positions),
            step_s: Vec::with_capacity(positions),
            attended: Vec::with_capacity(positions),
            step_spans: Vec::new(),
            gen_s: 0.0,
            last_logits: Matrix::zeros(1, cfg.n_classes),
        };
        let mut gen_start = None;
        for pos in 0..positions {
            let token = if pos < self.prompt.len() {
                self.prompt[pos]
            } else {
                let next = ops::argmax_rows(&out.last_logits)[0];
                out.tokens.push(next);
                gen_start.get_or_insert_with(Instant::now);
                next
            };
            let step = trace.map(|(spans, op)| {
                let id = spans.begin("transformer.decode_step", root, op);
                if let Some(t) = &timed {
                    t.step.set(id);
                }
                id
            });
            let t = Instant::now();
            let (logits, attended) =
                self.model
                    .decode_step(&self.params, &mut cache, token, selector);
            out.step_s.push(t.elapsed().as_secs_f64());
            if let (Some((spans, _)), Some(id)) = (trace, step) {
                spans.end(id);
                out.step_spans.push(id);
            }
            out.attended.push(attended);
            out.last_logits = logits;
        }
        out.gen_s = gen_start.map_or(0.0, |t| t.elapsed().as_secs_f64());
        if let (Some((spans, _)), Some(root)) = (trace, root) {
            spans.end(root);
        }
        out
    }
}

/// Output checks of one stream: finite logits, and the same greedy tokens
/// as the arm's warm-up stream and first full stream.
fn check(
    report: &mut Report,
    s: &Setup,
    arm: Arm,
    stream: &Stream,
    first: &mut [Option<Vec<usize>>; 2],
) {
    let warm = &s.warm[arm as usize];
    let mut checks = vec![
        (
            stream.last_logits.as_slice().iter().all(|v| v.is_finite()),
            "logits are finite".to_string(),
        ),
        (
            stream.tokens.starts_with(warm),
            "tokens repeat the warm-up stream".to_string(),
        ),
    ];
    match &first[arm as usize] {
        Some(tokens) => checks.push((
            *tokens == stream.tokens,
            "tokens identical across repetitions".to_string(),
        )),
        None => first[arm as usize] = Some(stream.tokens.clone()),
    }
    report.op(&format!("decode {} stream", arm.name()), &checks);
}

pub fn run(seed: u64, seconds: f64, spans: Option<&Spans>, report: &mut Report) {
    match spans {
        None => {
            let (s, setup_s) = median_setup(SETUP_REPS, || Setup::new(seed));
            report.metric("setup_s", setup_s, "s", SETUP_REPS);
            timed(&s, seconds, report);
        }
        Some(spans) => traced(&Setup::new(seed), spans, report),
    }
}

/// The end-to-end run: streams alternate between arms while they fit,
/// one of each always.
fn timed(s: &Setup, seconds: f64, report: &mut Report) {
    let mut first = [None, None];
    // Per arm: generated tokens and generation seconds of every stream.
    let mut pooled = [(0usize, 0.0f64, 0usize); 2];
    let mut dota_gaps = Vec::new();
    rounds(seconds, &Arm::BOTH, |arm| {
        let stream = s.stream(arm, POSITIONS, None);
        check(report, s, arm, &stream, &mut first);
        let p = &mut pooled[arm as usize];
        *p = (p.0 + stream.tokens.len(), p.1 + stream.gen_s, p.2 + 1);
        if arm == Arm::Dota {
            dota_gaps.extend(stream.step_s[PROMPT..].iter().map(|s| s * 1e3));
        }
    });
    for arm in [Arm::Dota, Arm::Dense] {
        let (tokens, secs, streams) = pooled[arm as usize];
        report.metric(
            &format!("decode_tok_s.{}", arm.name()),
            tokens as f64 / secs,
            "tok/s",
            streams,
        );
    }
    report.metric(
        "decode_ms_p99.dota",
        percentile(&dota_gaps, 99.0),
        "ms",
        dota_gaps.len(),
    );
}

/// Untraced and traced stream pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

/// The per-layer run: short untraced and traced streams, alternating, for
/// the tracing overhead, then one full traced stream per arm.
fn traced(s: &Setup, spans: &Spans, report: &mut Report) {
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        let t = Instant::now();
        s.stream(Arm::Dota, BLOCK, None);
        plain_s.push(t.elapsed().as_secs_f64());
        // Op ids after those of the full streams below, 1 and 2.
        let op = 3 + pair as u64;
        let t = Instant::now();
        s.stream(Arm::Dota, BLOCK, Some((spans, op)));
        traced_s.push(t.elapsed().as_secs_f64());
    }
    report.metric(
        "trace.overhead_pct",
        (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
        "%",
        OVERHEAD_PAIRS,
    );

    let mut first = [None, None];
    let blocks = [
        ("ctx512", 0..BLOCK),
        ("ctx2k", POSITIONS - BLOCK..POSITIONS),
    ];
    for arm in Arm::BOTH {
        let op = 1 + arm as u64;
        let stream = s.stream(arm, POSITIONS, Some((spans, op)));
        check(report, s, arm, &stream, &mut first);
        let all = spans.snapshot();
        let kids = children(&all);
        for (label, range) in blocks.clone() {
            let ids = &stream.step_spans[range.clone()];
            let step_us: Vec<f64> = ids
                .iter()
                .map(|&id| all[id].dur_ns() as f64 / 1e3)
                .collect();
            report.metric(
                &format!("transformer.decode_step_us.{}.{label}", arm.name()),
                median(&step_us),
                "us",
                step_us.len(),
            );
            if arm == Arm::Dota {
                let select_us: Vec<f64> = ids
                    .iter()
                    .map(|&id| kids[id].iter().map(|&c| all[c].dur_ns()).sum::<u64>() as f64 / 1e3)
                    .collect();
                report.metric(
                    &format!("detector.decode_select_us.{label}"),
                    median(&select_us),
                    "us",
                    select_us.len(),
                );
            }
        }
        if arm == Arm::Dota {
            let attended: Vec<f64> = stream.attended[POSITIONS - BLOCK..]
                .iter()
                .map(|&a| a as f64)
                .collect();
            report.metric(
                "transformer.attended_per_token.dota.ctx2k",
                median(&attended),
                "count",
                attended.len(),
            );
        }
    }
}
