//! End-to-end and per-layer host benchmark of the DOTA workspace.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <encode-paper|decode-2k|serve-overload> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark generates every input from `--seed`, drives the layers only
//! through their public functions, checks their outputs, and prints one
//! line per metric followed by a JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records spans around each layer call and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod decode;
mod encode;
mod report;
mod serve;
mod spans;
mod stats;

use report::Report;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EncodePaper,
    Decode2k,
    ServeOverload,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::EncodePaper,
        Workload::Decode2k,
        Workload::ServeOverload,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::EncodePaper => "encode-paper",
            Workload::Decode2k => "decode-2k",
            Workload::ServeOverload => "serve-overload",
        }
    }
}

/// Checked command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: dota-perfbench --workload <encode-paper|decode-2k|serve-overload> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit being measured, read from `.git` without running git; the
/// benchmark also runs from exported trees, where it is `unknown`.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the workspace crates' `parallel` feature is on. The benchmark
/// builds the serial kernels unless it is built with its own `parallel`
/// feature: see `perfbench/README.md` for why.
const PARALLEL: bool = cfg!(feature = "parallel");

/// Host and build facts every output carries.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let features: Vec<String> = dota_tensor::simd::cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"pool_threads\":{},\"parallel\":{},\"cpu_features\":[{}],\"kernel_family\":\"{}\",\
         \"git_sha\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        report::json_f64(args.seconds),
        u8::from(args.trace),
        dota_parallel::num_threads(),
        PARALLEL,
        features.join(","),
        dota_tensor::simd::KernelFamily::active().name(),
        git_sha()
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args);
    println!("provenance {provenance}");

    let mut report = Report::default();
    serve::check_baseline(&mut report);
    let spans = args.trace.then(Spans::new);
    match (args.workload, &spans) {
        (Workload::Decode2k, _) => {
            decode::run(args.seed, args.seconds, spans.as_ref(), &mut report);
        }
        (Workload::EncodePaper, None) => encode::run(args.seed, args.seconds, &mut report),
        (Workload::ServeOverload, None) => serve::run(args.seed, args.seconds, &mut report),
        // Every gated workload reports every per-layer metric, so its traced
        // run breaks down the layers of both; tracing overhead is measured
        // on the workload's own ops.
        (w, Some(spans)) => {
            encode::traced(args.seed, spans, w == Workload::EncodePaper, &mut report);
            serve::traced(args.seed, spans, w == Workload::ServeOverload, &mut report);
        }
    }
    if let Some(spans) = &spans {
        report.metric(
            "parallel.pool_threads",
            dota_parallel::num_threads() as f64,
            "count",
            1,
        );
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = spans.write_json(&path, &provenance) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans written to {}", path.display());
    }
    report.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload decode-2k --seed 3 --seconds 40 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Decode2k);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 40.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload decode-2k --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload decode-2k --seed 1 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload decode-2k --seed 1 --seconds 5").is_err());
        assert!(parse("--workload").is_err());
    }
}
