//! `encode-paper`: the LRA-shape encoder at the paper's QA / Image / Text
//! lengths, dense against DOTA at retention 0.1. The traced run also
//! replays DOTA traces through the accelerator simulator.

use crate::report::{median_setup, rounds, Report, SETUP_REPS};
use crate::spans::{children, self_ns, SpanId, Spans};
use crate::stats::{mean, median};
use dota_accel::{AccelConfig, Accelerator, PerfReport};
use dota_autograd::ParamSet;
use dota_detector::{DetectorConfig, DotaHook, LowRankDetector};
use dota_quant::Precision;
use dota_tensor::{ops, rng::SeededRng, Matrix};
use dota_transformer::{ForwardTrace, InferenceHook, Model, NoHook, TransformerConfig};
use dota_workloads::{Benchmark, TaskSpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The paper's QA, Image and Text tasks: sequence lengths 384, 1024, 2048.
const TASKS: [Benchmark; 3] = [Benchmark::Qa, Benchmark::Image, Benchmark::Text];
/// Index of the longest length in [`TASKS`].
const LONGEST: usize = 2;
/// DOTA retention of the sparse arm.
const RETENTION: f64 = 0.1;
/// Allowed distance of a trace's measured retention from [`RETENTION`].
const RETENTION_TOLERANCE: f64 = 0.01;
/// Weights are part of the program under test, so they do not vary with
/// the workload seed.
const MODEL_SEED: u64 = 0x1ea_5eed;
const N_CLASSES: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Arm {
    Dense,
    Dota,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Dense => "dense",
            Arm::Dota => "dota",
        }
    }
}

/// One round of the end-to-end run: `Model::infer` at each (length index,
/// arm). Each metric is taken from the mean time of its ops, so every op
/// that is cheap next to the DOTA op at 2048 runs several times, spread
/// over the whole run like that op: the n = 384 ops four and six times, the
/// dense ops at 1024 and 2048 three times each. Trace replay runs only in
/// the traced run: its host speed drifts too far between runs of the same
/// code to gate (`perfbench/README.md`).
const ROUND: [(usize, Arm); 18] = [
    (0, Arm::Dense),
    (0, Arm::Dota),
    (1, Arm::Dense),
    (2, Arm::Dense),
    (1, Arm::Dota),
    (0, Arm::Dense),
    (0, Arm::Dota),
    (0, Arm::Dota),
    (2, Arm::Dense),
    (1, Arm::Dense),
    (2, Arm::Dota),
    (0, Arm::Dense),
    (0, Arm::Dota),
    (0, Arm::Dota),
    (2, Arm::Dense),
    (1, Arm::Dense),
    (0, Arm::Dense),
    (0, Arm::Dota),
];

struct Setup {
    model: Model,
    params: ParamSet,
    hook: DotaHook,
    inputs: Vec<Vec<usize>>,
    accel: Accelerator,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let mut params = ParamSet::new();
        let cfg = TransformerConfig::lra(TASKS[LONGEST].paper_seq_len(), N_CLASSES);
        let model = Model::init(cfg, &mut params, MODEL_SEED);
        let det = DetectorConfig::new(RETENTION).with_precision(Precision::Int8);
        let hook = DotaHook::init(det, model.config(), &mut params);
        let inputs = TASKS
            .iter()
            .map(|&b| {
                TaskSpec::paper(b, seed).generate(1).samples()[0]
                    .ids
                    .clone()
            })
            .collect::<Vec<_>>();
        // Warm-up: one dense pass at the shortest length fills the GEMM
        // packing pools and the allocator before anything is timed.
        black_box(model.infer(&params, &inputs[0], &NoHook));
        Self {
            model,
            params,
            hook,
            inputs,
            accel: Accelerator::new(AccelConfig::default()),
        }
    }

    fn n(&self, li: usize) -> usize {
        self.inputs[li].len()
    }

    fn infer(&self, li: usize, hook: &dyn InferenceHook) -> ForwardTrace {
        self.model.infer(&self.params, &self.inputs[li], hook)
    }
}

/// Output checks of one op; logits of the first repetition of each
/// (length, arm) are kept to compare later repetitions bitwise.
#[derive(Default)]
struct Checker {
    first_logits: HashMap<(usize, Arm), Matrix>,
}

impl Checker {
    fn check(&mut self, report: &mut Report, li: usize, arm: Arm, trace: &ForwardTrace) {
        let what = format!(
            "encode {} n{}",
            arm.name(),
            trace.layers[0].heads[0].q.rows()
        );
        let mut checks = vec![(
            trace.logits.as_slice().iter().all(|v| v.is_finite()),
            "logits are finite".to_string(),
        )];
        match self.first_logits.get(&(li, arm)) {
            Some(first) => checks.push((
                *first == trace.logits,
                "logits bitwise equal across repetitions".to_string(),
            )),
            None => {
                self.first_logits.insert((li, arm), trace.logits.clone());
            }
        }
        if arm == Arm::Dota {
            let r = trace.retention();
            checks.push((
                (r - RETENTION).abs() <= RETENTION_TOLERANCE,
                format!("retention {r} within {RETENTION_TOLERANCE} of {RETENTION}"),
            ));
            checks.push((
                trace.fallback_dense == 0,
                format!("{} heads fell back to dense", trace.fallback_dense),
            ));
        }
        report.op(&what, &checks);
    }
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let (s, setup_s) = median_setup(SETUP_REPS, || Setup::new(seed));
    report.metric("setup_s", setup_s, "s", SETUP_REPS);
    timed(&s, seconds, report);
}

/// Times ops for `seconds` and reports the metrics every gated workload
/// shares, from each (length, arm)'s mean op time: tokens per host second per
/// arm, and host microseconds per token of the DOTA op at the lightest and
/// heaviest input (n = 384 and n = 2048).
fn timed(s: &Setup, seconds: f64, report: &mut Report) {
    let mut checker = Checker::default();
    let mut wall: HashMap<(usize, Arm), Vec<f64>> = HashMap::new();
    let dota = s.hook.inference(&s.params);
    rounds(seconds, &ROUND, |(li, arm)| {
        let t = Instant::now();
        let trace = match arm {
            Arm::Dense => s.infer(li, &NoHook),
            Arm::Dota => s.infer(li, &dota),
        };
        wall.entry((li, arm))
            .or_default()
            .push(t.elapsed().as_secs_f64());
        checker.check(report, li, arm, &trace);
    });

    for arm in [Arm::Dota, Arm::Dense] {
        let tokens: usize = (0..TASKS.len()).map(|li| s.n(li)).sum();
        let secs: f64 = (0..TASKS.len()).map(|li| mean(&wall[&(li, arm)])).sum();
        let samples: usize = (0..TASKS.len()).map(|li| wall[&(li, arm)].len()).sum();
        report.metric(
            &format!("tok_s.{}", arm.name()),
            tokens as f64 / secs,
            "tok/s",
            samples,
        );
    }
    for (li, input) in [(0, "light"), (LONGEST, "heavy")] {
        let w = &wall[&(li, Arm::Dota)];
        report.metric(
            &format!("us_per_tok.dota.{input}"),
            mean(w) * 1e6 / s.n(li) as f64,
            "us",
            w.len(),
        );
    }
}

/// Wraps the DOTA hook, timing each `select` call as a `detector.select`
/// span under the op's span and counting the pairs it scores and keeps.
struct TimedHook<'a> {
    inner: &'a dyn InferenceHook,
    spans: &'a Spans,
    parent: SpanId,
    op: u64,
    pairs_scored: AtomicU64,
    pairs_kept: AtomicU64,
    /// Attention input of layer 0, captured for the estimate/rank split.
    layer0_x: Mutex<Option<Matrix>>,
}

impl<'a> TimedHook<'a> {
    fn new(inner: &'a dyn InferenceHook, spans: &'a Spans, parent: SpanId, op: u64) -> Self {
        Self {
            inner,
            spans,
            parent,
            op,
            pairs_scored: AtomicU64::new(0),
            pairs_kept: AtomicU64::new(0),
            layer0_x: Mutex::new(None),
        }
    }
}

impl InferenceHook for TimedHook<'_> {
    fn select(&self, layer: usize, head: usize, x: &Matrix) -> Option<Vec<Vec<u32>>> {
        let (sel, _) = self
            .spans
            .time("detector.select", Some(self.parent), self.op, || {
                self.inner.select(layer, head, x)
            });
        let n = x.rows() as u64;
        // Relaxed: plain statistics, read after the op has returned.
        self.pairs_scored.fetch_add(n * n, Ordering::Relaxed);
        let kept = sel
            .as_ref()
            .map_or(n * n, |rows| rows.iter().map(|r| r.len() as u64).sum());
        self.pairs_kept.fetch_add(kept, Ordering::Relaxed);
        if layer == 0 && head == 0 {
            *self.layer0_x.lock().expect("capture lock poisoned") = Some(x.clone());
        }
        sel
    }
}

/// Untraced and traced op pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

/// The per-layer run: one traced DOTA op per length, then replays of the
/// longest op's kernels, detector stages and simulator on its operands.
/// `overhead` also measures `trace.overhead_pct` on this workload's ops.
pub fn traced(seed: u64, spans: &Spans, overhead: bool, report: &mut Report) {
    let s = &Setup::new(seed);
    let mut checker = Checker::default();
    let dota = s.hook.inference(&s.params);
    let cfg = s.model.config();
    // One untimed op warms the detector path.
    checker.check(report, 0, Arm::Dota, &s.infer(0, &dota));
    if overhead {
        overhead_pct(s, spans, &mut checker, report);
    }

    let (mut scored, mut kept, mut fallback) = (0u64, 0u64, 0u64);
    let (mut replay_mcycles, mut replay_s) = (0.0, 0.0);
    let mut longest = None;
    for li in 0..TASKS.len() {
        let n = s.n(li);
        let op = li as u64;
        let root = spans.begin(&format!("encode.dota.n{n}"), None, op);
        let hook = TimedHook::new(&dota, spans, root, op);
        let trace = s.infer(li, &hook);
        spans.end(root);
        checker.check(report, li, Arm::Dota, &trace);
        scored += hook.pairs_scored.load(Ordering::Relaxed);
        kept += hook.pairs_kept.load(Ordering::Relaxed);
        fallback += trace.fallback_dense;

        let all = spans.snapshot();
        let kids = children(&all);
        let select_ns: u64 = kids[root].iter().map(|&c| all[c].dur_ns()).sum();
        report.metric(
            &format!("detector.select_ms.n{n}"),
            select_ns as f64 / 1e6,
            "ms",
            kids[root].len(),
        );
        if li == 0 || li == LONGEST {
            let (rep, replay_ns) = spans.time("accel.simulate_trace", None, op, || {
                s.accel.simulate_trace(cfg, &trace)
            });
            report.metric(
                &format!("accel.replay_ms.n{n}"),
                replay_ns as f64 / 1e6,
                "ms",
                1,
            );
            replay_mcycles += rep.cycles.total() as f64 / 1e6;
            replay_s += replay_ns as f64 / 1e9;
            if li == LONGEST {
                let x = hook.layer0_x.lock().expect("capture lock poisoned").take();
                longest = Some((root, trace, rep, x.expect("layer 0 input captured")));
            }
        }
    }
    report.metric(
        "replay_mcycles_s",
        replay_mcycles / replay_s,
        "Mcycles/s",
        2,
    );
    report.metric("detector.pairs_scored", scored as f64, "count", 1);
    report.metric("detector.pairs_kept", kept as f64, "count", 1);
    report.metric(
        "detector.keep_ratio",
        kept as f64 / scored as f64,
        "ratio",
        1,
    );
    report.metric("detector.fallback_heads", fallback as f64, "count", 1);

    let (root, trace, rep, x) = longest.expect("longest op traced");
    longest_op_layers(s, spans, report, root, &trace, &rep, &x);
}

/// Tracing overhead on the shortest DOTA op: untraced and traced ops
/// alternate.
fn overhead_pct(s: &Setup, spans: &Spans, checker: &mut Checker, report: &mut Report) {
    let dota = s.hook.inference(&s.params);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        let t = Instant::now();
        let trace = s.infer(0, &dota);
        plain_s.push(t.elapsed().as_secs_f64());
        checker.check(report, 0, Arm::Dota, &trace);
        let op = (TASKS.len() + pair) as u64;
        let t = Instant::now();
        let root = spans.begin("encode.dota.overhead", None, op);
        let trace = s.infer(0, &TimedHook::new(&dota, spans, root, op));
        spans.end(root);
        traced_s.push(t.elapsed().as_secs_f64());
        checker.check(report, 0, Arm::Dota, &trace);
    }
    report.metric(
        "trace.overhead_pct",
        (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
        "%",
        OVERHEAD_PAIRS,
    );
}

/// Per-layer breakdown of the longest DOTA op (`op` id [`LONGEST`]).
fn longest_op_layers(
    s: &Setup,
    spans: &Spans,
    report: &mut Report,
    root: SpanId,
    trace: &ForwardTrace,
    rep: &PerfReport,
    x: &Matrix,
) {
    let op = LONGEST as u64;
    let n = s.n(LONGEST);
    let cfg = s.model.config();
    let ms = |ns: u64| ns as f64 / 1e6;

    // Self times within the op: detector.select children, the rest is the
    // transformer's own work (projections, masks, FFN, norms).
    let all = spans.snapshot();
    let kids = children(&all);
    let wall_ns = all[root].dur_ns();
    let transformer_ns = self_ns(&all, &kids, root);
    let detect_ns: u64 = kids[root].iter().map(|&c| self_ns(&all, &kids, c)).sum();
    report.op(
        &format!("encode dota n{n} span accounting"),
        &[(
            transformer_ns + detect_ns == wall_ns,
            format!("self times {transformer_ns} + {detect_ns} ns sum to the op's {wall_ns} ns"),
        )],
    );
    println!(
        "encode dota n{n}: wall {:.1} ms = transformer self {:.1} ms + detector.select {:.1} ms",
        ms(wall_ns),
        ms(transformer_ns),
        ms(detect_ns)
    );
    report.metric(
        &format!("transformer.encode_self_ms.dota.n{n}"),
        ms(transformer_ns),
        "ms",
        1,
    );

    // Detector split on the captured layer-0 input: estimate (the int8
    // low-rank path) and rank (top-k), scaled from one layer's heads to
    // the op's layers.
    let dota = s.hook.inference(&s.params);
    let (mut estimate_ns, mut rank_ns) = (0u64, 0u64);
    let mut same = true;
    for h in 0..cfg.n_heads {
        let (scores, ns) = spans.time("detector.estimate", None, op, || {
            dota.estimated_scores(0, h, x)
        });
        estimate_ns += ns;
        let (sel, ns) = spans.time("detector.rank", None, op, || {
            LowRankDetector::select_for_layer(s.hook.config(), &scores, Some(0))
        });
        rank_ns += ns;
        let recorded = trace.layers[0].heads[h].selected.as_ref();
        same &= recorded.is_some_and(|rec| {
            rec.iter().zip(&sel).all(|(r, s)| {
                let mut s = s.clone();
                s.sort_unstable();
                *r == s
            })
        });
    }
    report.op(
        "detector estimate/rank replay",
        &[(
            same,
            "replayed selection equals the op's selection".to_string(),
        )],
    );
    let layers = cfg.n_layers as u64;
    report.metric(
        &format!("detector.estimate_ms.n{n}"),
        ms(estimate_ns * layers),
        "ms",
        cfg.n_heads,
    );
    report.metric(
        &format!("detector.rank_ms.n{n}"),
        ms(rank_ns * layers),
        "ms",
        cfg.n_heads,
    );

    // Attention kernels replayed on every head's captured operands.
    let scale = 1.0 / (cfg.head_dim() as f32).sqrt();
    let (mut sparse_ns, mut dense_ns, mut bytes) = (0u64, 0u64, 0u64);
    let mut finite = true;
    for head in trace.layers.iter().flat_map(|l| &l.heads) {
        let sel = head.selected.as_ref().expect("DOTA heads keep a selection");
        let (out, ns) = spans.time("tensor.sparse_attention", None, op, || {
            ops::sparse_attention(&head.q, &head.k, &head.v, sel, scale)
        });
        sparse_ns += ns;
        finite &= out.as_slice().iter().all(|v| v.is_finite());
        let (_, ns) = spans.time("tensor.dense_attention", None, op, || {
            let scores = head.q.matmul_nt(&head.k).expect("head shapes").scale(scale);
            ops::softmax_rows(&scores)
                .matmul(&head.v)
                .expect("head shapes")
        });
        dense_ns += ns;
        // Bytes the sparse kernel moves, from tensor sizes: one K and one V
        // row per kept pair, every Q row read, every output row written.
        let kept: u64 = sel.iter().map(|r| r.len() as u64).sum();
        let hd = head.q.cols() as u64;
        bytes += 4 * (2 * kept * hd + 2 * head.q.rows() as u64 * hd + kept);
    }
    let heads = trace.layers.len() * cfg.n_heads;
    report.op(
        "sparse attention replay",
        &[(finite, "outputs are finite".to_string())],
    );
    report.metric(
        &format!("tensor.sparse_attn_ms.n{n}"),
        ms(sparse_ns),
        "ms",
        heads,
    );
    report.metric(
        &format!("tensor.dense_attn_ms.n{n}"),
        ms(dense_ns),
        "ms",
        heads,
    );
    report.metric(
        &format!("tensor.sparse_over_dense.n{n}"),
        sparse_ns as f64 / dense_ns as f64,
        "ratio",
        heads,
    );
    report.metric(
        &format!("tensor.sparse_attn_bytes.n{n}"),
        bytes as f64,
        "bytes",
        heads,
    );

    // GEMMs at the encoder's shapes.
    let (d, d_ff) = (cfg.d_model, cfg.d_ff);
    let qkv_s = gemm_seconds(spans, op, "tensor.gemm.qkv", n, d, d);
    let ff1_s = gemm_seconds(spans, op, "tensor.gemm.ff1", n, d, d_ff);
    let ff2_s = gemm_seconds(spans, op, "tensor.gemm.ff2", n, d_ff, d);
    let flops = |m: usize, k: usize, n: usize| 2.0 * (m * k * n) as f64;
    report.metric(
        "tensor.gemm_gflops.qkv",
        flops(n, d, d) / qkv_s / 1e9,
        "GFLOP/s",
        GEMM_REPS,
    );
    report.metric(
        "tensor.gemm_gflops.ffn",
        (flops(n, d, d_ff) + flops(n, d_ff, d)) / (ff1_s + ff2_s) / 1e9,
        "GFLOP/s",
        GEMM_REPS,
    );

    // Fig. 12c, host beside simulator. Host: detection is the select busy
    // time, attention the replayed sparse kernel, linear+FFN the GEMMs at
    // the op's shapes (Q, K, V, O projections and both FFN layers per
    // layer); `other` is what remains (masks, norms, activations).
    let wall_s = wall_ns as f64 / 1e9;
    let host_detect = detect_ns as f64 / 1e9;
    let host_attention = sparse_ns as f64 / 1e9;
    let host_linear_ffn = cfg.n_layers as f64 * (4.0 * qkv_s + ff1_s + ff2_s);
    let c = &rep.cycles;
    let total = c.total() as f64;
    for (stage, host, sim) in [
        ("detect", host_detect, c.detection as f64),
        ("attention", host_attention, c.attention as f64),
        ("linear_ffn", host_linear_ffn, (c.linear + c.ffn) as f64),
    ] {
        report.metric(
            &format!("join.{stage}.host_share.n{n}"),
            host / wall_s,
            "ratio",
            1,
        );
        report.metric(
            &format!("join.{stage}.sim_share.n{n}"),
            sim / total,
            "ratio",
            1,
        );
    }
    report.metric(
        &format!("join.other.host_share.n{n}"),
        1.0 - (host_detect + host_attention + host_linear_ffn) / wall_s,
        "ratio",
        1,
    );
    for (stage, cycles) in [
        ("linear", c.linear),
        ("detection", c.detection),
        ("attention", c.attention),
        ("ffn", c.ffn),
    ] {
        report.metric(
            &format!("accel.sim_cycles.{stage}.n{n}"),
            cycles as f64,
            "cycles",
            1,
        );
    }
    report.metric(
        &format!("accel.key_loads.n{n}"),
        rep.key_loads as f64,
        "count",
        1,
    );
}

const GEMM_REPS: usize = 3;

/// Median seconds of an `m x k` by `k x n` product through `matmul_into`.
fn gemm_seconds(spans: &Spans, op: u64, name: &str, m: usize, k: usize, n: usize) -> f64 {
    let mut rng = SeededRng::new((m * 31 + k * 7 + n) as u64);
    let a = rng.normal_matrix(m, k, 1.0);
    let b = rng.normal_matrix(k, n, 1.0);
    let mut out = Matrix::zeros(m, n);
    let secs: Vec<f64> = (0..GEMM_REPS)
        .map(|_| {
            let ((), ns) = spans.time(name, None, op, || {
                a.matmul_into(&b, &mut out).expect("gemm shapes")
            });
            ns as f64 / 1e9
        })
        .collect();
    median(&secs)
}
