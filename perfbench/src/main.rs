//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_single|serve_batch> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run makes its inputs from the seed, runs a fixed operation sequence
//! of `ceil(nominal rate × seconds)` operations from one closed-loop
//! client, checks the outputs, and prints one JSON line last on stdout:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). A failed correctness check prints
//! `"correct": false` and exits with code 1. `WORKLOADS.md` describes the
//! workloads and metrics.

mod fit;
mod host;
mod kit;
mod refit;
mod run;
mod serve;
mod stats;
mod trace;

use run::{Args, Report};
use stats::{result_line, Metrics};
use trace::Tracer;

fn main() {
    // The program runs at its default width: the machine's parallelism.
    std::env::remove_var("CPR_NUM_THREADS");
    let width = rayon::current_num_threads();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host::HostSample::now();
    let mut tracer = args.trace.then(Tracer::default);
    let mut rep = serve::workload(&args, tracer.as_mut());
    if let Some(tr) = tracer.as_mut() {
        probe_layers(&args, &mut rep, tr);
        host.put_since(&mut rep.layers);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        if let Err(e) = tr.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    } else {
        host.put_since(&mut rep.notes);
    }

    eprintln!(
        "perfbench: {} seed {} width {}: {}",
        args.workload.name(),
        args.seed,
        width,
        rep.e2e.to_json()
    );
    eprintln!("perfbench: notes {}", rep.notes.to_json());
    let correct = rep.checks.passed();
    let metrics = if args.trace { &rep.layers } else { &rep.e2e };
    println!(
        "{}",
        result_line(correct, rep.attempted, rep.failed, metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// The traced run's layer probes (every layer, on inputs made from the
/// workload seed and, for the serving probes, the workload's request
/// size), then the tracing overhead and the share of a predict request
/// that no probed layer explains.
fn probe_layers(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    fit::probe(args.seed, &mut rep.layers, tr, &mut rep.checks);
    serve::probe(
        args.seed,
        args.workload.per_request(),
        &mut rep.layers,
        tr,
        &mut rep.checks,
    );
    refit::probe(args.seed, &mut rep.layers, tr, &mut rep.checks);

    let note = |m: &Metrics, name: &str| m.get(name).expect("probe recorded it");
    let l = &rep.layers;
    let remainder_pct = note(l, "server.remainder_us") / note(l, "server.request_mean_us") * 100.0;
    let overhead = note(&rep.notes, "trace.overhead_pct");
    let p99 = note(&rep.notes, "p99_us");
    let server_cpus = note(&rep.notes, "host.server_cpus");
    rep.layers.put("trace.overhead_pct", overhead, "%");
    rep.layers.put("trace.remainder_pct", remainder_pct, "%");
    rep.layers.put("tail.p99_us", p99, "us");
    rep.layers.put("host.server_cpus", server_cpus, "count");
}
