//! `serve-overload`: the continuous-batching service on seeded bursty
//! traffic, one `run_bench` call per (policy, load) cell.

use crate::report::{median_setup, rounds, Report};
use crate::spans::Spans;
use crate::stats::{mean, median};
use dota_serve::{run_bench, BenchOptions, BenchReport, ShedPolicy};
use std::time::Instant;

/// Requests offered per cell.
const REQUESTS: usize = 2000;
const LOADS: [f64; 3] = [0.8, 2.0, 4.0];
const POLICIES: [ShedPolicy; 3] = [
    ShedPolicy::QueueOnly,
    ShedPolicy::Retention,
    ShedPolicy::Slo,
];
/// Load of the per-policy step-cost breakdown.
const PEAK_LOAD: f64 = 4.0;
/// The committed report of `run_bench(BenchOptions::default())`.
const BASELINE: &str = "results/serve_baseline.json";
/// Requests of the set-up call: it builds the model, generates the traffic
/// and steps the engine, without doing a cell's worth of work.
const SETUP_REQUESTS: usize = 8;
/// Traffic seed of the set-up call. It is fixed, so every run's set-up does
/// the same work: a few heavy-tailed request lengths would otherwise make
/// set-up time vary with the workload seed, whose traffic the cells run.
const SETUP_SEED: u64 = 1;
/// Set-ups per end-to-end run: more than the other workloads' 5, as
/// this set-up takes milliseconds and single timings of it scatter widely.
const SETUP_REPS: usize = 31;
/// Traced sweeps.
const TRACED_SWEEPS: usize = 3;
/// Op id of the first traced sweep, after the encoder's traced ops.
const FIRST_OP: u64 = 100;

/// The tiny causal model (sequence 48, 8 slots) on `REQUESTS` requests at
/// one load under one policy.
fn cell_options(seed: u64, shed: ShedPolicy, load: f64) -> BenchOptions {
    BenchOptions {
        seed,
        requests: REQUESTS,
        loads: vec![load],
        sheds: vec![shed],
        ..BenchOptions::default()
    }
}

/// Every cell, loads outer and policies inner.
fn grid() -> impl Iterator<Item = (ShedPolicy, f64)> {
    LOADS
        .into_iter()
        .flat_map(|load| POLICIES.into_iter().map(move |p| (p, load)))
}

fn cell_name(shed: ShedPolicy, load: f64) -> String {
    format!("{}.load{load}", shed.name())
}

/// Once per invocation: the default sweep must reproduce the committed
/// baseline byte for byte.
pub fn check_baseline(report: &mut Report) {
    let got = run_bench(BenchOptions::default()).map(|r| r.to_json());
    let check = match (got, std::fs::read_to_string(BASELINE)) {
        (Ok(got), Ok(want)) => (got == want, format!("run_bench(default) equals {BASELINE}")),
        (Err(e), _) => (false, format!("run_bench(default) failed: {e}")),
        (_, Err(e)) => (false, format!("reading {BASELINE}: {e}")),
    };
    report.op("serve baseline", &[check]);
}

/// One cell's report and host time.
struct Cell {
    name: String,
    secs: f64,
    report: BenchReport,
}

/// Runs every cell once; each cell's report must match the first sweep's.
fn sweep(
    seed: u64,
    trace: Option<(&Spans, u64)>,
    first: &mut Vec<String>,
    report: &mut Report,
) -> Vec<Cell> {
    grid()
        .enumerate()
        .map(|(i, (shed, load))| {
            let name = cell_name(shed, load);
            let opts = cell_options(seed, shed, load);
            let t = Instant::now();
            let result = match trace {
                Some((spans, op)) => {
                    let span = format!("serve.run_bench.{name}");
                    spans.time(&span, None, op, || run_bench(opts)).0
                }
                None => run_bench(opts),
            };
            let secs = t.elapsed().as_secs_f64();
            let bench = result.expect("benchmark cell options are valid");
            let json = bench.to_json();
            let check = match first.get(i) {
                Some(want) => (
                    *want == json,
                    "report bytes identical across repetitions".to_string(),
                ),
                None => {
                    first.push(json);
                    (true, String::new())
                }
            };
            report.op(&format!("serve cell {name}"), &[check]);
            Cell {
                name,
                secs,
                report: bench,
            }
        })
        .collect()
}

/// The end-to-end run: whole sweeps for `seconds`, reporting the metrics
/// every gated workload shares from each cell's mean run time. The DOTA arm
/// is the cells that admit at reduced retention (retention and slo
/// policies), the dense arm the queue-only cells; the lightest and heaviest
/// inputs are the retention cells at the lowest and highest load. Tokens
/// are the simulated tokens a cell generates.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let ((), setup_s) = median_setup(SETUP_REPS, || {
        let opts = BenchOptions {
            requests: SETUP_REQUESTS,
            ..cell_options(SETUP_SEED, ShedPolicy::Retention, PEAK_LOAD)
        };
        run_bench(opts).expect("valid options");
    });
    report.metric("setup_s", setup_s, "s", SETUP_REPS);
    // Warm-up, untimed: one full cell.
    run_bench(cell_options(seed, ShedPolicy::Retention, PEAK_LOAD)).expect("valid options");

    let mut first = Vec::new();
    let mut secs: Vec<Vec<f64>> = grid().map(|_| Vec::new()).collect();
    let mut tokens = Vec::new();
    rounds(seconds, &[()], |()| {
        let cells = sweep(seed, None, &mut first, report);
        for (samples, cell) in secs.iter_mut().zip(&cells) {
            samples.push(cell.secs);
        }
        tokens = cells.iter().map(|c| c.report.cells[0].tokens).collect();
    });

    for (arm, dota) in [("dota", true), ("dense", false)] {
        let cells = || {
            grid()
                .enumerate()
                .filter(move |(_, (p, _))| (*p != ShedPolicy::QueueOnly) == dota)
        };
        let toks: u64 = cells().map(|(i, _)| tokens[i]).sum();
        let host_s: f64 = cells().map(|(i, _)| mean(&secs[i])).sum();
        let samples: usize = cells().map(|(i, _)| secs[i].len()).sum();
        report.metric(
            &format!("tok_s.{arm}"),
            toks as f64 / host_s,
            "tok/s",
            samples,
        );
    }
    for (load, input) in [(LOADS[0], "light"), (PEAK_LOAD, "heavy")] {
        let i = grid()
            .position(|cell| cell == (ShedPolicy::Retention, load))
            .expect("retention cell at every load");
        report.metric(
            &format!("us_per_tok.dota.{input}"),
            mean(&secs[i]) * 1e6 / tokens[i] as f64,
            "us",
            secs[i].len(),
        );
    }
}

/// The per-layer run: traced sweeps. With `overhead`, each alternates
/// with an untraced one for `trace.overhead_pct`.
pub fn traced(seed: u64, spans: &Spans, overhead: bool, report: &mut Report) {
    let mut first = Vec::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut runs: Vec<Vec<Cell>> = Vec::new();
    for sweep_op in 0..TRACED_SWEEPS as u64 {
        if overhead {
            let t = Instant::now();
            sweep(seed, None, &mut first, report);
            plain_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        runs.push(sweep(
            seed,
            Some((spans, FIRST_OP + sweep_op)),
            &mut first,
            report,
        ));
        traced_s.push(t.elapsed().as_secs_f64());
    }
    if overhead {
        report.metric(
            "trace.overhead_pct",
            (median(&traced_s) / median(&plain_s) - 1.0) * 100.0,
            "%",
            TRACED_SWEEPS,
        );
    }
    let cells = &runs[0];
    for (i, cell) in cells.iter().enumerate() {
        let ms: Vec<f64> = runs.iter().map(|r| r[i].secs * 1e3).collect();
        report.metric(
            &format!("serve.run_ms.{}", cell.name),
            median(&ms),
            "ms",
            ms.len(),
        );
    }
    for (i, (shed, load)) in grid().enumerate() {
        if load == PEAK_LOAD {
            let steps = cells[i].report.cells[0].steps;
            let us: Vec<f64> = runs
                .iter()
                .map(|r| r[i].secs * 1e6 / steps as f64)
                .collect();
            report.metric(
                &format!("serve.us_per_step.{}", cell_name(shed, load)),
                median(&us),
                "us",
                us.len(),
            );
        }
    }
    // Simulated anchors: deterministic, so any host-only change must leave
    // them exactly as they are.
    let sum = |f: fn(&dota_serve::CellReport) -> u64| -> f64 {
        cells.iter().map(|c| f(&c.report.cells[0])).sum::<u64>() as f64
    };
    report.metric("serve.sim.steps", sum(|c| c.steps), "count", 1);
    report.metric("serve.sim.tokens", sum(|c| c.tokens), "count", 1);
    report.metric("serve.sim.degraded", sum(|c| c.degraded), "count", 1);
    report.metric("serve.sim.rejected", sum(|c| c.rejected as u64), "count", 1);
    let peak = grid()
        .position(|(p, l)| p == ShedPolicy::Retention && l == PEAK_LOAD)
        .expect("retention cell at peak load");
    // The report keeps simulated latencies only as histograms; this p99 is
    // the histogram's bucket value, an exact-repeat anchor, not a timing.
    let ttft = cells[peak].report.cells[0]
        .ttft_us
        .quantile(0.99)
        .unwrap_or(0.0);
    report.metric("serve.sim.ttft_p99_us.retention.load4", ttft, "us", 1);
}
