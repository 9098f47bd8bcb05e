//! Kernel benchmark report: wall-clock timings of the GEMM kernels
//! (naive reference vs the packed/blocked kernels, serial vs the
//! `parallel` thread pool, fp32 kernel families vs the quantized INT8 and
//! INT4 host kernels) and of dense vs DOTA-sparse attention at the five
//! paper sequence lengths (§5.1). Writes `BENCH_kernels.json` at the
//! repository root.
//!
//! Run with:
//! `cargo run --release -p dota-bench --features parallel --bin bench_report`
//!
//! `--quick` runs a reduced smoke instead: small sizes, few reps, no
//! counter scenarios, no report file — and, when built with
//! `--features prof-alloc`, asserts that the packed GEMM path stays
//! within a fixed steady-state allocation budget (the pooled pack
//! buffers and `matmul_into` outputs make repeated products allocation-
//! free). CI runs this leg.
//!
//! Thread-pool speedups depend on the machine: the report records the
//! actual pool width, physical core count and detected CPU features so
//! `pool_speedup` is interpretable across hosts — expect ~1.0 on a
//! single-core container and >3x at 2048² on a real multi-core host.

use dota_quant::{Int4Packed, Int8Matrix, Precision};
use dota_tensor::rng::SeededRng;
use dota_tensor::simd::{self, KernelFamily};
use dota_tensor::{ops, reference, Matrix};
use serde::Serialize;
use std::time::Instant;

/// Percentile summary of repeated wall-clock samples of one kernel,
/// taken by nearest rank from the raw samples (a histogram's bucket
/// midpoints would quantize every ratio to its ~9% bucket grid). With the
/// small rep counts used here p95/p99 collapse toward the max, which is
/// still the honest tail estimate for the samples taken.
#[derive(Serialize)]
struct TimingSummary {
    reps: u64,
    min_ms: f64,
    mean_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

impl TimingSummary {
    fn from_samples(s: &Samples) -> Self {
        Self {
            reps: s.0.len() as u64,
            min_ms: s.quantile(0.0),
            mean_ms: s.0.iter().sum::<f64>() / s.0.len().max(1) as f64,
            p50_ms: s.quantile(0.5),
            p95_ms: s.quantile(0.95),
            p99_ms: s.quantile(0.99),
        }
    }
}

/// Wall-clock milliseconds of repeated runs of one kernel, sorted.
struct Samples(Vec<f64>);

impl Samples {
    /// Nearest-rank quantile: the smallest sample with at least fraction
    /// `q` of the samples at or below it (`q = 0` is the minimum); NaN
    /// without samples.
    fn quantile(&self, q: f64) -> f64 {
        let rank = (q * self.0.len() as f64).ceil() as usize;
        match self.0.len() {
            0 => f64::NAN,
            n => self.0[rank.clamp(1, n) - 1],
        }
    }
}

/// Heap traffic of one timed kernel, from `dota-prof`'s counting
/// allocator. All zeros unless built with `--features prof-alloc`.
#[derive(Serialize)]
struct AllocSummary {
    /// Bytes allocated per repetition (mean across the timed reps).
    alloc_mb_per_rep: f64,
    /// High-water mark of live heap bytes during the reps.
    peak_mb: f64,
}

const MB: f64 = 1024.0 * 1024.0;

#[derive(Serialize)]
struct GemmRow {
    size: usize,
    /// Worker threads actually dispatched for the pool run.
    pool_threads: usize,
    naive: TimingSummary,
    optimized_serial: TimingSummary,
    optimized_pool: TimingSummary,
    /// Active-family kernel vs the textbook triple loop, both serial, on
    /// median (p50) wall-clock.
    speedup_vs_naive: f64,
    /// Thread pool vs `DOTA_THREADS=1` on p50; ~1.0 without the
    /// `parallel` feature or on a single-core host.
    pool_speedup: f64,
    /// Heap traffic of the serial optimized kernel (timed through
    /// `matmul_into` with a reused output, so the packed path's steady
    /// state is ~0 regardless of size).
    optimized_alloc: AllocSummary,
}

/// One kernel family timed at a fixed square size — the fp32 families
/// next to the quantized host kernels, so fp32-vs-int8 throughput sits in
/// one table beside the RMMU cycle model.
#[derive(Serialize)]
struct FamilyRow {
    /// `fp32/scalar`, `fp32/simd`, `fp32/fma`, `int8`, `int4`.
    kernel: String,
    /// Whether this host can run the family (rows for unavailable
    /// families are omitted, so this is always true in the JSON; kept for
    /// readers scanning across hosts' reports).
    available: bool,
    p50_ms: f64,
    /// `2·n³` multiply-adds over p50 wall-clock.
    gflops: f64,
    /// p50 speedup vs the `fp32/scalar` row of the same size.
    speedup_vs_scalar: f64,
}

#[derive(Serialize)]
struct AttnRow {
    benchmark: String,
    seq_len: usize,
    retention: f64,
    dense: TimingSummary,
    dota: TimingSummary,
    /// Dense vs DOTA-sparse on median (p50) wall-clock.
    speedup: f64,
    /// Heap traffic of the DOTA-sparse kernel.
    dota_alloc: AllocSummary,
}

#[derive(Serialize)]
struct CounterScenario {
    scenario: String,
    counters: std::collections::BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct Report {
    parallel_feature: bool,
    pool_threads: usize,
    /// Physical core count of the producing host (distinct core ids).
    physical_cores: usize,
    /// Detected SIMD capabilities (`avx2`/`fma`/`avx512f`/`neon`/`none`).
    cpu_features: Vec<&'static str>,
    /// Kernel family the fp32 GEMM rows ran with (`DOTA_GEMM` resolution).
    gemm_family: &'static str,
    host_note: &'static str,
    alloc_note: &'static str,
    gemm: Vec<GemmRow>,
    /// Family comparison at one fixed size (see [`FamilyRow`]).
    kernel_family_size: usize,
    kernel_families: Vec<FamilyRow>,
    attention: Vec<AttnRow>,
    /// Deterministic hardware-counter snapshots (see `dota-trace`): the
    /// same scenarios `counters_baseline` regression-checks. Unlike the
    /// timing rows, these are bit-identical across hosts and thread counts.
    counters: Vec<CounterScenario>,
}

/// Wall-clock milliseconds of `reps` runs, as raw samples the report
/// summarizes into p50/p95/p99 (instead of a single best-of mean), plus
/// the heap traffic of the reps (requires an open `dota-prof` session and
/// the `prof-alloc` feature to be nonzero).
fn time_samples<R>(reps: usize, mut f: impl FnMut() -> R) -> (Samples, AllocSummary) {
    let before = dota_prof::alloc_stats();
    dota_prof::reset_peak();
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out);
    }
    ms.sort_by(f64::total_cmp);
    let after = dota_prof::alloc_stats();
    let alloc = AllocSummary {
        alloc_mb_per_rep: after.allocated_bytes.saturating_sub(before.allocated_bytes) as f64
            / reps.max(1) as f64
            / MB,
        peak_mb: after.peak_bytes as f64 / MB,
    };
    (Samples(ms), alloc)
}

fn with_one_thread<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::env::var(dota_parallel::THREADS_ENV).ok();
    std::env::set_var(dota_parallel::THREADS_ENV, "1");
    let out = f();
    match prev {
        Some(v) => std::env::set_var(dota_parallel::THREADS_ENV, v),
        None => std::env::remove_var(dota_parallel::THREADS_ENV),
    }
    out
}

/// Runs `f` with `DOTA_GEMM` forced to `family`, restoring afterwards.
/// Safe here because the bench binary is single-threaded at the top level
/// (kernel workers never read the variable mid-product — the family is
/// resolved once per dispatch on the calling thread).
fn with_family<R>(family: &str, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var(simd::GEMM_ENV).ok();
    std::env::set_var(simd::GEMM_ENV, family);
    let out = f();
    match prev {
        Some(v) => std::env::set_var(simd::GEMM_ENV, v),
        None => std::env::remove_var(simd::GEMM_ENV),
    }
    out
}

fn p50(s: &Samples) -> f64 {
    s.quantile(0.5)
}

fn gemm_rows(sizes: &[usize]) -> Vec<GemmRow> {
    let mut rows = Vec::new();
    let mut rng = SeededRng::new(7);
    for &size in sizes {
        let a = rng.normal_matrix(size, size, 1.0);
        let b = rng.normal_matrix(size, size, 1.0);
        let mut out = Matrix::zeros(size, size);
        // Naive cost grows as size^3; a couple of repetitions suffice for
        // a stable median at the large sizes.
        let (opt_reps, naive_reps) = if size >= 1024 { (3, 2) } else { (7, 3) };
        let (naive, _) = time_samples(naive_reps, || reference::matmul(&a, &b));
        // Warm the pack-buffer pool so the timed reps see the steady
        // state the alloc column is meant to capture.
        a.matmul_into(&b, &mut out).expect("shape");
        let (serial, serial_alloc) = with_one_thread(|| {
            time_samples(opt_reps, || a.matmul_into(&b, &mut out).expect("shape"))
        });
        let (pool, _) = time_samples(opt_reps, || a.matmul_into(&b, &mut out).expect("shape"));
        let row = GemmRow {
            size,
            pool_threads: dota_parallel::num_threads(),
            speedup_vs_naive: p50(&naive) / p50(&serial).max(1e-9),
            pool_speedup: p50(&serial) / p50(&pool).max(1e-9),
            naive: TimingSummary::from_samples(&naive),
            optimized_serial: TimingSummary::from_samples(&serial),
            optimized_pool: TimingSummary::from_samples(&pool),
            optimized_alloc: serial_alloc,
        };
        println!(
            "{:>5}  naive p50 {:>9.2} ms  serial p50 {:>8.2} ms (p99 {:>8.2})  pool p50 {:>8.2} ms  {:>5.1}x vs naive  {:>4.2}x pool",
            row.size, row.naive.p50_ms, row.optimized_serial.p50_ms, row.optimized_serial.p99_ms,
            row.optimized_pool.p50_ms, row.speedup_vs_naive, row.pool_speedup
        );
        rows.push(row);
    }
    rows
}

/// Times each available kernel family — fp32 scalar/simd/fma and the
/// quantized int8/int4 host kernels — on one `size`² product.
fn family_rows(size: usize, reps: usize) -> Vec<FamilyRow> {
    let mut rng = SeededRng::new(9);
    let a = rng.normal_matrix(size, size, 1.0);
    let b = rng.normal_matrix(size, size, 1.0);
    let mut out = Matrix::zeros(size, size);
    let flops = 2.0 * (size as f64).powi(3);
    let gflops = |ms: f64| flops / (ms.max(1e-9) * 1e-3) / 1e9;

    let mut rows = Vec::new();
    let mut scalar_p50 = f64::NAN;
    for fam in [KernelFamily::Scalar, KernelFamily::Simd, KernelFamily::Fma] {
        let available = match fam {
            KernelFamily::Scalar => true,
            KernelFamily::Simd => simd::simd_available(),
            KernelFamily::Fma => simd::fma_available(),
        };
        if !available {
            continue;
        }
        a.matmul_into(&b, &mut out).expect("shape"); // warm pools
        let (h, _) = with_family(fam.name(), || {
            time_samples(reps, || a.matmul_into(&b, &mut out).expect("shape"))
        });
        let ms = p50(&h);
        if fam == KernelFamily::Scalar {
            scalar_p50 = ms;
        }
        rows.push(FamilyRow {
            kernel: format!("fp32/{}", fam.name()),
            available: true,
            p50_ms: ms,
            gflops: gflops(ms),
            speedup_vs_scalar: scalar_p50 / ms.max(1e-9),
        });
    }

    // Quantized host kernels (layout is A·Bᵀ — same flop count). The i8
    // kernel uses AVX2 `madd` lanes when present; int4 adds nibble
    // unpacking on top of the same kernel.
    let q8a = Int8Matrix::quantize(&a, Precision::Int8);
    let q8b = Int8Matrix::quantize(&b, Precision::Int8);
    let (h8, _) = time_samples(reps, || q8a.matmul_nt_dequant(&q8b).expect("shape"));
    rows.push(FamilyRow {
        kernel: "int8".to_owned(),
        available: true,
        p50_ms: p50(&h8),
        gflops: gflops(p50(&h8)),
        speedup_vs_scalar: scalar_p50 / p50(&h8).max(1e-9),
    });
    let q4a = Int4Packed::quantize(&a, Precision::Int4);
    let q4b = Int4Packed::quantize(&b, Precision::Int4);
    let (h4, _) = time_samples(reps, || q4a.matmul_nt_dequant(&q4b).expect("shape"));
    rows.push(FamilyRow {
        kernel: "int4".to_owned(),
        available: true,
        p50_ms: p50(&h4),
        gflops: gflops(p50(&h4)),
        speedup_vs_scalar: scalar_p50 / p50(&h4).max(1e-9),
    });

    for r in &rows {
        println!(
            "  {:<12} p50 {:>8.2} ms  {:>7.2} GFLOP/s  {:>5.2}x vs fp32/scalar",
            r.kernel, r.p50_ms, r.gflops, r.speedup_vs_scalar
        );
    }
    rows
}

fn attention_rows() -> Vec<AttnRow> {
    let retention = 0.1;
    let hd = 64usize;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut rows = Vec::new();
    let mut rng = SeededRng::new(11);
    for b in dota_workloads::Benchmark::ALL {
        let n = b.paper_seq_len();
        let q = rng.normal_matrix(n, hd, 1.0);
        let k = rng.normal_matrix(n, hd, 1.0);
        let v = rng.normal_matrix(n, hd, 1.0);
        // Structured strided selection at the paper's ~10% retention; the
        // report times the attention arithmetic, not detection (Fig. 12c
        // shows detection is a small share of latency).
        let kept = ((retention * n as f64).round() as usize).clamp(1, n);
        let sel_row: Vec<u32> = (0..kept).map(|j| (j * n / kept) as u32).collect();
        let selected = vec![sel_row; n];
        let (dense, _) = time_samples(3, || {
            let scores = q.matmul_nt(&k).expect("shape").scale(scale);
            ops::softmax_rows(&scores).matmul(&v).expect("shape")
        });
        let (dota, dota_alloc) =
            time_samples(3, || ops::sparse_attention(&q, &k, &v, &selected, scale));
        let row = AttnRow {
            benchmark: b.name().to_owned(),
            seq_len: n,
            retention,
            speedup: p50(&dense) / p50(&dota).max(1e-9),
            dense: TimingSummary::from_samples(&dense),
            dota: TimingSummary::from_samples(&dota),
            dota_alloc,
        };
        println!(
            "{:>10}  n {:>5}  dense p50 {:>9.2} ms  DOTA p50 {:>8.2} ms (p99 {:>8.2})  {:>5.1}x",
            row.benchmark,
            row.seq_len,
            row.dense.p50_ms,
            row.dota.p50_ms,
            row.dota.p99_ms,
            row.speedup
        );
        rows.push(row);
    }
    rows
}

/// Steady-state allocation budget for the `--quick` smoke, in bytes
/// across all timed reps combined: after warmup, the packed path
/// (`matmul_into` + pooled pack buffers) should allocate nothing; the
/// budget only leaves room for allocator bookkeeping noise. Deliberately
/// independent of matrix size — that is the property being asserted.
const QUICK_ALLOC_BUDGET_BYTES: u64 = 1 << 20;

/// `--quick`: a CI-sized smoke. Returns process success.
fn run_quick() -> bool {
    let mut manifest = dota_bench::run_manifest("bench_report_quick");
    manifest.config("mode", "quick");
    manifest.config("gemm_family", KernelFamily::active().name());
    let _prof = dota_prof::session("bench_report_quick");
    println!(
        "Quick kernel smoke (family {}, features {})\n",
        KernelFamily::active().name(),
        simd::cpu_features().join("+")
    );
    println!("GEMM (square, f32)");
    let gemm = gemm_rows(&[128, 256]);
    println!("\nKernel families at 256² (fp32 vs quantized)");
    let families = family_rows(256, 3);
    // Sanity: the quantized kernels must have produced sane speed numbers.
    assert!(
        families.iter().all(|r| r.p50_ms.is_finite()),
        "non-finite family timing"
    );
    assert!(!gemm.is_empty());

    // Detect whether the counting allocator is live: a deliberate 1 MiB
    // allocation must move the counter. Without prof-alloc the budget
    // assert is vacuous and is skipped (CI builds the smoke with it).
    let before = dota_prof::alloc_stats();
    let probe = vec![0u8; 1 << 20];
    std::hint::black_box(&probe);
    drop(probe);
    let counting = dota_prof::alloc_stats().allocated_bytes > before.allocated_bytes;
    if !counting {
        println!("\n[prof-alloc not active: steady-state budget assert skipped]");
        return true;
    }

    // The budget assert proper: warm the pools, then measure allocation
    // across repeated packed products into a reused output.
    let mut rng = SeededRng::new(21);
    let a = rng.normal_matrix(256, 256, 1.0);
    let b = rng.normal_matrix(256, 256, 1.0);
    let mut out = Matrix::zeros(256, 256);
    for _ in 0..2 {
        a.matmul_into(&b, &mut out).expect("shape");
    }
    let before = dota_prof::alloc_stats().allocated_bytes;
    for _ in 0..10 {
        a.matmul_into(&b, &mut out).expect("shape");
        std::hint::black_box(&out);
    }
    let spent = dota_prof::alloc_stats()
        .allocated_bytes
        .saturating_sub(before);
    println!(
        "\nsteady-state alloc across 10 packed 256² products: {spent} bytes (budget {QUICK_ALLOC_BUDGET_BYTES})"
    );
    if spent > QUICK_ALLOC_BUDGET_BYTES {
        eprintln!("FAIL: packed GEMM steady state exceeded the allocation budget");
        return false;
    }
    println!("steady-state allocation budget: OK");
    true
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        if !run_quick() {
            std::process::exit(1);
        }
        return;
    }
    // No `Observability` here: `counter_scenarios` opens its own exclusive
    // trace sessions, which would deadlock against an outer one. The
    // provenance manifest is still written. The profiler gate is
    // independent of the trace gate, so a prof session is safe — it feeds
    // the allocation columns and, when `--profile`/`DOTA_PROF` is set, the
    // profile files written at the end.
    let mut manifest = dota_bench::run_manifest("bench_report");
    manifest.config("gemm_family", KernelFamily::active().name());
    let prof = dota_prof::session("bench_report");
    println!(
        "Kernel report (parallel feature: {}, pool threads: {}, physical cores: {}, cpu: {}, family: {})\n",
        cfg!(feature = "parallel"),
        dota_parallel::num_threads(),
        dota_parallel::num_physical_cores(),
        simd::cpu_features().join("+"),
        KernelFamily::active().name(),
    );
    println!("GEMM (square, f32): packed/blocked kernels vs naive reference");
    let gemm = gemm_rows(&[128, 256, 512, 1024, 2048]);
    const FAMILY_SIZE: usize = 512;
    println!("\nKernel families at {FAMILY_SIZE}² (fp32 scalar/simd/fma vs quantized int8/int4)");
    let kernel_families = family_rows(FAMILY_SIZE, 5);
    println!("\nAttention (head_dim 64, retention 10%): dense vs DOTA-sparse");
    let attention = attention_rows();

    println!("\nHardware counters (deterministic; selected totals per scenario)");
    let counters: Vec<CounterScenario> = dota_bench::counter_scenarios()
        .into_iter()
        .map(|(scenario, counters)| CounterScenario { scenario, counters })
        .collect();
    for cs in &counters {
        println!("  {} ({} counters)", cs.scenario, cs.counters.len());
        // Headline totals only; the JSON carries the full snapshot.
        for key in [
            "sched.row_by_row.loads",
            "sched.in_order.loads",
            "sched.ooo.loads",
            "accel.cycles.attention",
            "accel.key_loads",
            "decode.cycles",
            "attn.connections.omitted",
            "dram.bytes_read",
        ] {
            if let Some(v) = cs.counters.get(key) {
                println!("    {key:<28} {v}");
            }
        }
    }

    let report = Report {
        parallel_feature: cfg!(feature = "parallel"),
        pool_threads: dota_parallel::num_threads(),
        physical_cores: dota_parallel::num_physical_cores(),
        cpu_features: simd::cpu_features(),
        gemm_family: KernelFamily::active().name(),
        host_note: "pool_speedup is host-dependent; ~1.0 on single-core runners",
        alloc_note: "allocation columns need --features prof-alloc; zeros otherwise",
        gemm,
        kernel_family_size: FAMILY_SIZE,
        kernel_families,
        attention,
        counters,
    };
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_kernels.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json).expect("write BENCH_kernels.json");
    println!("\n[report written to {}]", path.display());

    if let Some(dir) = dota_bench::profile_request() {
        std::fs::create_dir_all(&dir).expect("create profile dir");
        prof.write_folded(&dir.join("profile.folded"))
            .and_then(|()| prof.write_profile(&dir.join("profile.json")))
            .expect("write profile");
        eprintln!("[profile written to {}]", dir.display());
    }
}
