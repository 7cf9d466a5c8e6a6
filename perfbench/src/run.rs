//! What every workload shares: arguments, correctness checks, and the
//! one-client closed loop that times each operation.

use crate::stats::{median, quantile, Metrics};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSingle,
    ServeBatch,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeSingle, Workload::ServeBatch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSingle => "serve_single",
            Workload::ServeBatch => "serve_batch",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Queries per request.
    pub fn per_request(self) -> usize {
        match self {
            Workload::ServeSingle => 1,
            Workload::ServeBatch => crate::serve::BATCH_QUERIES,
        }
    }

    /// Nominal requests per second on a 2-vCPU x86-64 host (Intel Xeon,
    /// shared).
    /// A run performs `ceil(rate × seconds)` operations: a fixed sequence
    /// fixed by the seed and `--seconds`, never "as many as fit".
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::ServeSingle => 35_000.0,
            Workload::ServeBatch => 6_000.0,
        }
    }

    pub fn ops(self, seconds: f64) -> usize {
        (self.nominal_rate() * seconds).ceil().max(1.0) as usize
    }

    /// Operations of a run: a quarter of them in a traced run, whose own
    /// loop only measures the tracing overhead and the tail before the
    /// layer probes.
    pub fn run_ops(self, args: &Args) -> usize {
        let seconds = if args.trace {
            args.seconds / 4.0
        } else {
            args.seconds
        };
        self.ops(seconds)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Correctness checks, run outside the timed phases. Any failure makes
/// the run incorrect (and the command exit non-zero).
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// End-to-end metrics (meaningful in untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Extra readouts printed to stderr with the result (width, p99, …).
    pub notes: Metrics,
}

/// Per-operation timings of one closed loop.
pub struct LoopTimes {
    pub lat_s: Vec<f64>,
    pub failed: u64,
    /// Which operations ran inside a traced block.
    pub traced: Vec<bool>,
}

/// Run `n` operations back to back from one client thread. `op(k)` runs
/// operation `k` and returns whether it succeeded. With a tracer,
/// alternate blocks of `block` operations record one span per operation,
/// so the per-operation cost of tracing is measured on the same sequence;
/// every `block` holds each operation class equally often (for serving, a
/// multiple of 12: six applications on even requests, the fleet on odd),
/// so both arms see the same mix.
pub fn closed_loop(
    n: usize,
    block: usize,
    mut tracer: Option<&mut Tracer>,
    mut op: impl FnMut(usize) -> bool,
) -> LoopTimes {
    let mut lat_s = Vec::with_capacity(n);
    let mut traced = Vec::with_capacity(n);
    let mut failed = 0;
    for k in 0..n {
        let in_trace = (k / block) % 2 == 1;
        let ok = match tracer.as_deref_mut().filter(|_| in_trace) {
            Some(tr) => {
                let (ok, dt) = tr.time("op", None, || op(k));
                lat_s.push(dt);
                ok
            }
            None => {
                let t = Instant::now();
                let ok = op(k);
                lat_s.push(t.elapsed().as_secs_f64());
                ok
            }
        };
        traced.push(in_trace && tracer.is_some());
        failed += u64::from(!ok);
    }
    LoopTimes {
        lat_s,
        failed,
        traced,
    }
}

/// A run's end-to-end timing figures, in seconds and operations per
/// second.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_s: f64,
    pub p90_s: f64,
    pub p99_s: f64,
}

impl Summary {
    /// `ops_per_s`, `p50_us` and `p90_us` as end-to-end metrics; `p99_us`
    /// (reported, not gated) as a note.
    pub fn put(&self, e2e: &mut Metrics, notes: &mut Metrics) {
        e2e.put("ops_per_s", self.ops_per_s, "1/s");
        e2e.put("p50_us", self.p50_s * 1e6, "us");
        e2e.put("p90_us", self.p90_s * 1e6, "us");
        notes.put("p99_us", self.p99_s * 1e6, "us");
    }
}

impl LoopTimes {
    /// Summarize the loop.
    ///
    /// * `ops_per_s`: operations are cut into consecutive blocks of
    ///   `block` (a whole number of the workload's rounds), and the figure
    ///   is the median over blocks of each block's operations per second
    ///   of busy time: an episode of host interference moves some blocks,
    ///   not the median.
    /// * Latency: operations of different classes (`class(k)`: the
    ///   application or request kind of operation `k`) differ by up to two
    ///   orders of magnitude, so a percentile of the mixed sequence would
    ///   sit on a boundary between classes and jump between runs. `p50` is
    ///   the geometric mean of the class medians, each weighted by its
    ///   class's share of the operations, so it follows the traffic mix;
    ///   `p90` and `p99` scale it by the percentile, pooled over all
    ///   operations, of each operation's time relative to its class
    ///   median.
    pub fn summary(&self, block: usize, class: &dyn Fn(usize) -> usize) -> Summary {
        let rates: Vec<f64> = self
            .lat_s
            .chunks(block)
            .map(|c| c.len() as f64 / c.iter().sum::<f64>())
            .collect();
        let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (k, &l) in self.lat_s.iter().enumerate() {
            by_class.entry(class(k)).or_default().push(l);
        }
        let class_median: BTreeMap<usize, f64> =
            by_class.iter().map(|(c, l)| (*c, median(l))).collect();
        let relative: Vec<f64> = self
            .lat_s
            .iter()
            .enumerate()
            .map(|(k, &l)| l / class_median[&class(k)])
            .collect();
        let n = self.lat_s.len() as f64;
        let p50 = by_class
            .iter()
            .map(|(c, l)| l.len() as f64 / n * class_median[c].ln())
            .sum::<f64>()
            .exp();
        Summary {
            ops_per_s: median(&rates),
            p50_s: p50,
            p90_s: p50 * quantile(&relative, 0.9),
            p99_s: p50 * quantile(&relative, 0.99),
        }
    }

    /// In a traced loop, `trace.overhead_pct`: traced-arm mean latency
    /// over untraced-arm mean latency, minus one, in percent.
    pub fn put_overhead(&self, m: &mut Metrics) {
        if self.traced.iter().any(|&t| t) {
            m.put("trace.overhead_pct", self.trace_overhead_pct(), "%");
        }
    }

    fn trace_overhead_pct(&self) -> f64 {
        let mean = |want: bool| {
            let xs: Vec<f64> = self
                .lat_s
                .iter()
                .zip(&self.traced)
                .filter(|(_, &t)| t == want)
                .map(|(l, _)| *l)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        (mean(true) / mean(false) - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(&argv(
            "--workload serve_batch --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeBatch);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(Args::parse(&argv("--workload nope --seed 1")).is_err());
        assert!(Args::parse(&argv("--seed 1")).is_err());
        assert!(Args::parse(&argv("--workload fit_apps --seed 1")).is_err());
        assert!(Args::parse(&argv("--workload serve_single --seed x")).is_err());
        assert!(Args::parse(&argv("--workload serve_single --seed 1 --trace 2")).is_err());
    }

    #[test]
    fn op_counts_are_fixed_by_seconds() {
        for w in Workload::ALL {
            assert_eq!(w.ops(10.0), w.ops(10.0));
            assert!(w.ops(10.0) > w.ops(1.0));
        }
    }

    #[test]
    fn traced_blocks_alternate() {
        let mut tr = Tracer::default();
        let t = closed_loop(4 * 12, 12, Some(&mut tr), |_| true);
        assert_eq!(t.traced.iter().filter(|&&x| x).count(), 2 * 12);
        assert_eq!(tr.spans.len(), 2 * 12);
        let plain = closed_loop(10, 12, None, |k| k != 3);
        assert_eq!(plain.failed, 1);
        let sum = plain.summary(5, &|k| k % 2);
        assert!(sum.ops_per_s > 0.0 && sum.p50_s <= sum.p90_s && sum.p90_s <= sum.p99_s);
        assert!(plain.traced.iter().all(|&x| !x));
    }

    #[test]
    fn p50_weights_each_class_by_its_share_of_operations() {
        // Class 0 (three ops of 1 s) and class 1 (one op of 16 s): the
        // weighted geometric mean is 1^(3/4) · 16^(1/4) = 2.
        let t = LoopTimes {
            lat_s: vec![1.0, 1.0, 1.0, 16.0],
            failed: 0,
            traced: vec![false; 4],
        };
        let sum = t.summary(4, &|k| usize::from(k == 3));
        assert!((sum.p50_s - 2.0).abs() < 1e-12, "{}", sum.p50_s);
    }
}
