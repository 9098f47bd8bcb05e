//! Metric collection, output checks, the run's time budget and the result
//! line.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Raw samples the value was computed from (1 for counts).
    samples: usize,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric computed from `samples` raw samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Counts one operation, failed unless every one of its `checks` holds.
    /// Each failed check is described on standard error.
    pub fn op(&mut self, what: &str, checks: &[(bool, String)]) {
        self.attempted += 1;
        let mut ok = true;
        for (passed, check) in checks {
            if !passed {
                eprintln!("check failed: {what}: {check}");
                ok = false;
            }
        }
        if !ok {
            self.failed += 1;
        }
    }

    /// Prints one line per metric, then the result line (the last line of
    /// standard output).
    pub fn print(&self) {
        for m in &self.metrics {
            println!(
                "metric {:<44} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("{}", self.result_json());
    }

    fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            write!(
                metrics,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_f64(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// A finite `f64` in JSON with all its digits; non-finite values become
/// `null`, which no reader mistakes for a measurement.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Runs the ops of `round` in order, over and over, for about `seconds`.
/// An op runs again only while its previous run's duration still fits in
/// what is left of the budget, so every op runs at least once and the run
/// ends when a whole pass runs nothing.
pub fn rounds<K: Copy + Eq + Hash>(seconds: f64, round: &[K], mut op: impl FnMut(K)) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut last: HashMap<K, Duration> = HashMap::new();
    loop {
        let mut ran = false;
        for &k in round {
            if last.get(&k).is_some_and(|&d| start.elapsed() + d > budget) {
                continue;
            }
            let t = Instant::now();
            op(k);
            last.insert(k, t.elapsed());
            ran = true;
        }
        if !ran {
            return;
        }
    }
}

/// Runs `setup` `reps` times and returns its last result with the median
/// duration in seconds.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&secs),
    )
}

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s", 3);
        r.op("a", &[(true, "fine".into())]);
        r.op("b", &[(false, "broken".into())]);
        assert_eq!(
            r.result_json(),
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn rounds_runs_every_op_once_on_a_spent_budget() {
        let mut ran = Vec::new();
        rounds(0.0, &[1, 2, 1], |k| ran.push(k));
        assert_eq!(ran, [1, 2]);
    }

    #[test]
    fn rounds_repeats_ops_while_they_fit() {
        let start = Instant::now();
        let mut ran = 0;
        rounds(0.3, &[()], |()| {
            ran += 1;
            std::thread::sleep(Duration::from_millis(10));
        });
        assert!(ran >= 2, "ran {ran} times");
        // The last op started only if it was expected to end in budget.
        assert!(start.elapsed() < Duration::from_millis(300 + 200));
    }

    #[test]
    fn values_keep_all_their_digits() {
        assert_eq!(json_f64(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
