//! `perf_snapshot` — machine-readable wall-clock timings for the hot paths.
//!
//! Times the stages the completion optimizers and the serving layer spend
//! their cycles in at two sizes, and writes the results as JSON so the
//! performance trajectory of the repo is recorded per PR (`BENCH_pr2.json`,
//! `BENCH_pr3.json`, …). CI runs the `--tiny` configuration and gates on
//! `perf_guard` against the checked-in `crates/bench/baselines/tiny.json`;
//! `--small` (the default) is the configuration quoted in CHANGES.md.
//!
//! Fit side: every optimizer (ALS/AMN/Tucker/CCD) is timed through its
//! **streamed** sweep and, for the same problem, through its retained
//! naive `*_reference` sweep — the same-run A/B control that separates
//! machine drift from real kernel wins (the reference paths are the PR 3
//! algorithms). Medium stages exercise the larger-grid / rank-8/16
//! configurations that hit the monomorphized kernels.
//!
//! Output path: `CPR_BENCH_OUT` env var when set, else `BENCH_pr10.json`
//! in the current directory.
//!
//! PR 6 additions: the fleet-serving stages. `registry_lookup` times the
//! sharded id → plan lookup, `registry_serve_batch` the grouped batch
//! front end over a mixed stream, and `registry_mixed_traffic` a
//! query-at-a-time mixed stream against a half-resident LRU tier —
//! reporting dense hit-rate, p50/p99 latency, and throughput as extra
//! JSON fields.
//!
//! PR 7 addition: `registry_churn` — query-at-a-time serving while the
//! background refit pipeline continuously refits and hot-swaps the same
//! fleet (2 workers, gated installs). Reported extras: contended and
//! uncontended p50/p99 per-query latency, swap count, and the gated swap
//! success rate. The claim is that refit-and-swap churn costs the serve
//! path almost nothing (p99 within 2x of uncontended). The committed
//! baselines move to `BENCH_pr6.json`; pre-existing stages are expected
//! at **parity** (~1.0x) — the robustness layer costs the fast paths
//! nothing.
//!
//! PR 8 additions: the durability stages. `store_snapshot` commits the
//! whole fleet into a checksummed snapshot store (serialize → frame →
//! read-back verify → atomic manifest commit), `store_restore` recovers
//! it into a fresh registry (manifest scan → frame verify →
//! parse-before-insert). Extra field: `payload_bytes`, the durable model
//! volume. Prior stages are again expected at parity — persistence is
//! off the serve and fit paths.
//!
//! PR 9 additions: the network front-end stages. `server_loopback`
//! drives single-query predicts through a live `CprServer` over one
//! keep-alive loopback connection — the full wire cost (parse →
//! admission → deadline-chunked serve → format) on top of the registry
//! serve path the `registry_*` stages time directly. `server_under_shed`
//! floods the same server with deadline-zero requests: the 503 shed path
//! must be far cheaper than serving (shed early, shed cheap), and a
//! well-formed request afterwards still answers bitwise-correct. Extras:
//! per-request `p50_us`/`p99_us` (and `shed_p99_us`). Prior stages are
//! expected at parity — the front end is a new layer, not a tax on the
//! layers below.
//!
//! PR 10 addition: `obs_overhead` — the same mixed-traffic workload as
//! `registry_mixed_traffic`, run once uninstrumented (private metrics
//! hub, latency timing off) and once with full instrumentation (shared
//! `cpr_obs` hub, `enable_timing()`), every prediction asserted bitwise
//! equal across the two arms. Extras: `uninstrumented_wall_ms` and
//! `overhead_pct` — the observability tax on the hottest serve path,
//! budgeted at <= 5% (DESIGN.md, "Observability").
//!
//! `predict_gather` batch-serves an order-9 CP model shaped like KRIPKE,
//! whose grid is far past the dense-table cap, through the factor-gather
//! kernel — bitwise-guarded against `predict_batch_naive` like the other
//! serving stages.
//!
//! Methodology: each stage runs once to warm caches, then `REPS` times; the
//! minimum wall-clock is reported (least-noise estimator for a quiet
//! machine). `baseline_wall_ms` is the same stage as measured by the PR 3
//! snapshot (committed `BENCH_pr3.json`, same machine class), kept so the
//! JSON is self-describing about the speedup this PR claims.
//! `predict_batch_naive` re-times the pre-plan serving path that is still
//! in-tree, as the query-side control.

use cpr_bench::fixtures::{fleet, fleet_queries, power_law};
use cpr_completion::{
    als, als_reference, amn, amn_reference, ccd, ccd_reference, init_positive, tucker_als,
    tucker_als_reference, AlsConfig, AmnConfig, CcdConfig, StopRule, TuckerConfig,
};
use cpr_core::{random_search, CprBuilder, CprModel, Dataset, StreamingCpr};
use cpr_grid::{ParamSpace, ParamSpec};
use cpr_obs::MetricsRegistry;
use cpr_registry::{ModelId, ModelRegistry, PipelineConfig, RefitPipeline, LATENCY_SAMPLE};
use cpr_server::chaos::ClientConn;
use cpr_server::{AdmissionConfig, CprServer, ServerConfig};
use cpr_store::{FleetStore, MemFs};
use cpr_tensor::{CpDecomp, SparseTensor, TuckerDecomp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing repetitions per stage (after one warmup).
const REPS: usize = 3;

struct Stage {
    name: &'static str,
    wall_ms: f64,
    /// Prior-PR reference on the same machine class, if measured.
    baseline_wall_ms: Option<f64>,
    nnz: usize,
    rank: usize,
    dims: Vec<usize>,
    sweeps: usize,
    /// Stage-specific scalars appended verbatim to the JSON line
    /// (`perf_guard` ignores keys it does not know).
    extra: Vec<(&'static str, f64)>,
}

/// Observations sampled from a random positive low-rank truth — without
/// densifying, so the generator scales to millions of cells.
fn sampled_obs(dims: &[usize], rank: usize, frac: f64, seed: u64) -> SparseTensor {
    let truth = CpDecomp::random(dims, rank, 0.5, 1.5, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let total: usize = dims.iter().product();
    let want = ((total as f64 * frac) as usize).max(64);
    let mut obs = SparseTensor::new(dims);
    let mut idx = vec![0usize; dims.len()];
    for _ in 0..want {
        for (j, &dj) in dims.iter().enumerate() {
            idx[j] = rng.gen_range(0..dj);
        }
        obs.push(&idx, truth.eval(&idx) + 0.1);
    }
    obs
}

/// Min-of-REPS wall clock in milliseconds (one warmup run first).
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// ALS stage pair: streamed sweep + the retained reference as the
/// same-run A/B control (identical problem, config, and init).
fn als_stages(
    name: &'static str,
    ref_name: &'static str,
    dims: &[usize],
    rank: usize,
    frac: f64,
    sweeps: usize,
) -> Vec<Stage> {
    let obs = sampled_obs(dims, rank, frac, 42);
    let cfg = AlsConfig {
        lambda: 1e-6,
        stop: StopRule {
            max_sweeps: sweeps,
            // Negative tolerance: never early-stop, so every rep does the
            // same number of sweeps and timings are comparable across PRs.
            tol: -1.0,
        },
        scale_by_count: true,
    };
    let stage = |name: &'static str, wall_ms: f64| Stage {
        name,
        wall_ms,
        baseline_wall_ms: None,
        nnz: obs.nnz(),
        rank,
        dims: dims.to_vec(),
        sweeps,
        extra: Vec::new(),
    };
    let streamed = time_ms(|| {
        let mut cp = CpDecomp::random(dims, rank, 0.0, 1.0, 7);
        let trace = als(&mut cp, &obs, &cfg);
        assert!(trace.final_objective().is_finite());
    });
    let reference = time_ms(|| {
        let mut cp = CpDecomp::random(dims, rank, 0.0, 1.0, 7);
        let trace = als_reference(&mut cp, &obs, &cfg);
        assert!(trace.final_objective().is_finite());
    });
    vec![stage(name, streamed), stage(ref_name, reference)]
}

/// AMN stage pair (streamed + reference control).
fn amn_stages(
    name: &'static str,
    ref_name: &'static str,
    dims: &[usize],
    rank: usize,
    frac: f64,
    sweeps: usize,
) -> Vec<Stage> {
    let obs = sampled_obs(dims, rank, frac, 43);
    let gm = (obs.values().iter().map(|v| v.ln()).sum::<f64>() / obs.nnz() as f64).exp();
    let cfg = AmnConfig {
        lambda: 1e-6,
        stop: StopRule {
            max_sweeps: sweeps,
            tol: -1.0,
        },
        final_sweeps: sweeps,
        ..Default::default()
    };
    let stage = |name: &'static str, wall_ms: f64| Stage {
        name,
        wall_ms,
        baseline_wall_ms: None,
        nnz: obs.nnz(),
        rank,
        dims: dims.to_vec(),
        sweeps,
        extra: Vec::new(),
    };
    let streamed = time_ms(|| {
        let mut cp = init_positive(dims, rank, gm, 8);
        let trace = amn(&mut cp, &obs, &cfg);
        assert!(trace.final_objective().is_finite());
    });
    let reference = time_ms(|| {
        let mut cp = init_positive(dims, rank, gm, 8);
        let trace = amn_reference(&mut cp, &obs, &cfg);
        assert!(trace.final_objective().is_finite());
    });
    vec![stage(name, streamed), stage(ref_name, reference)]
}

/// Tucker stage pair (streamed + reference control).
fn tucker_stages(
    name: &'static str,
    ref_name: &'static str,
    dims: &[usize],
    rank: usize,
    frac: f64,
    sweeps: usize,
) -> Vec<Stage> {
    let obs = sampled_obs(dims, rank, frac, 44);
    let ranks = vec![rank; dims.len()];
    let cfg = TuckerConfig {
        lambda: 1e-6,
        stop: StopRule {
            max_sweeps: sweeps,
            tol: -1.0,
        },
    };
    let stage = |name: &'static str, wall_ms: f64| Stage {
        name,
        wall_ms,
        baseline_wall_ms: None,
        nnz: obs.nnz(),
        rank,
        dims: dims.to_vec(),
        sweeps,
        extra: Vec::new(),
    };
    let streamed = time_ms(|| {
        let mut t = TuckerDecomp::random(dims, &ranks, 0.1, 1.0, 9);
        let trace = tucker_als(&mut t, &obs, &cfg);
        assert!(trace.final_objective().is_finite());
    });
    let reference = time_ms(|| {
        let mut t = TuckerDecomp::random(dims, &ranks, 0.1, 1.0, 9);
        let trace = tucker_als_reference(&mut t, &obs, &cfg);
        assert!(trace.final_objective().is_finite());
    });
    vec![stage(name, streamed), stage(ref_name, reference)]
}

/// CCD stage pair (streamed + reference control).
fn ccd_stages(
    name: &'static str,
    ref_name: &'static str,
    dims: &[usize],
    rank: usize,
    frac: f64,
    sweeps: usize,
) -> Vec<Stage> {
    let obs = sampled_obs(dims, rank, frac, 45);
    let cfg = CcdConfig {
        lambda: 1e-6,
        stop: StopRule {
            max_sweeps: sweeps,
            tol: -1.0,
        },
        scale_by_count: true,
    };
    let stage = |name: &'static str, wall_ms: f64| Stage {
        name,
        wall_ms,
        baseline_wall_ms: None,
        nnz: obs.nnz(),
        rank,
        dims: dims.to_vec(),
        sweeps,
        extra: Vec::new(),
    };
    let streamed = time_ms(|| {
        let mut cp = CpDecomp::random(dims, rank, 0.1, 1.0, 10);
        let trace = ccd(&mut cp, &obs, &cfg);
        assert!(trace.final_objective().is_finite());
    });
    let reference = time_ms(|| {
        let mut cp = CpDecomp::random(dims, rank, 0.1, 1.0, 10);
        let trace = ccd_reference(&mut cp, &obs, &cfg);
        assert!(trace.final_objective().is_finite());
    });
    vec![stage(name, streamed), stage(ref_name, reference)]
}

/// Separable two-parameter "execution time" dataset for the serving model.
fn separable_dataset(n: usize, seed: u64) -> (ParamSpace, Dataset) {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 32.0, 4096.0),
        ParamSpec::log("n", 32.0, 4096.0),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new();
    for _ in 0..n {
        let m = 32.0 * (4096.0_f64 / 32.0).powf(rng.gen::<f64>());
        let nn = 32.0 * (4096.0_f64 / 32.0).powf(rng.gen::<f64>());
        data.push(vec![m, nn], 1e-3 * m.powf(1.2) * nn.powf(0.8));
    }
    (space, data)
}

/// Tucker-served query stage: a Tucker-ALS fit through the one `CprBuilder`
/// surface, batch-served through the same compiled plan machinery (dense
/// corner-value table at this grid size). Guards the PR 5 claim that the
/// Tucker decomposition is a first-class servable model with the same
/// hot-path properties as CP.
fn tucker_serving_stage(train_n: usize, batch_n: usize, rank: usize) -> Stage {
    let (space, train) = separable_dataset(train_n, 31);
    let model: CprModel = CprBuilder::new(space)
        .cells_per_dim(12)
        .rank(rank)
        .regularization(1e-7)
        .optimizer(cpr_core::Optimizer::TuckerAls)
        .max_sweeps(20)
        .fit(&train)
        .expect("perf_snapshot: Tucker fit failed");
    let mut rng = StdRng::seed_from_u64(32);
    let batch: Vec<Vec<f64>> = (0..batch_n)
        .map(|_| {
            vec![
                32.0 * (4096.0_f64 / 32.0).powf(rng.gen::<f64>()),
                32.0 * (4096.0_f64 / 32.0).powf(rng.gen::<f64>()),
            ]
        })
        .collect();
    let mut out = vec![0.0; batch.len()];
    let wall_ms = time_ms(|| {
        model.plan().predict_into(&batch, &mut out);
        assert!(out[0].is_finite());
    });
    // Equivalence guard: the Tucker plan must serve the naive reference
    // bitwise, or the timing compares different functions.
    for (x, &fast) in batch.iter().take(512).zip(&out) {
        assert_eq!(fast.to_bits(), model.predict_naive(x).to_bits());
    }
    Stage {
        name: "predict_batch_tucker",
        wall_ms,
        baseline_wall_ms: None,
        nnz: batch_n,
        rank,
        dims: vec![12, 12],
        sweeps: 0,
        extra: Vec::new(),
    }
}

/// Factor-gather serving: an order-9 CP model shaped like KRIPKE (seven
/// integer axes of 8 cells, categorical axes of 6 and 2 choices; 25M grid
/// cells, far past the dense-table cap), batch-served through the plan.
/// The same bitwise guard against `predict_batch_naive` as
/// `serving_stages`: the timed path must compute the reference function.
fn gather_serving_stage(batch_n: usize, rank: usize) -> Stage {
    let space = ParamSpace::new(vec![
        ParamSpec::log_int("groups", 8.0, 128.0),
        ParamSpec::linear_int("legendre", 0.0, 5.0),
        ParamSpec::log_int("quad", 8.0, 128.0),
        ParamSpec::log_int("dset", 8.0, 64.0),
        ParamSpec::log_int("gset", 1.0, 32.0),
        ParamSpec::categorical("layout", 6),
        ParamSpec::categorical("solver", 2),
        ParamSpec::log_int("tpp", 1.0, 64.0),
        ParamSpec::log_int("ppn", 1.0, 64.0),
    ]);
    let cells = vec![8; space.dim()];
    let dims = space.grid_with_cells(&cells).dims();
    let cp = CpDecomp::random(&dims, rank, -0.8, 0.8, 41);
    let model = CprModel::from_parts(
        space.clone(),
        &cells,
        cp,
        cpr_core::Loss::LogLeastSquares,
        0.2,
    )
    .expect("perf_snapshot: gather model parts");
    assert!(
        !model.plan().has_dense_cache(),
        "gather stage needs a grid past the dense cap"
    );
    let mut rng = StdRng::seed_from_u64(42);
    let batch: Vec<Vec<f64>> = (0..batch_n)
        .map(|_| {
            space
                .params()
                .iter()
                .map(|p| match p {
                    ParamSpec::Numerical { lo, hi, .. } => {
                        (lo + (hi - lo) * rng.gen::<f64>()).round()
                    }
                    ParamSpec::Categorical { cardinality, .. } => {
                        rng.gen_range(0..*cardinality) as f64
                    }
                })
                .collect()
        })
        .collect();
    let mut out = vec![0.0; batch.len()];
    let wall_ms = time_ms(|| {
        model.plan().predict_into(&batch, &mut out);
        assert!(out[0].is_finite());
    });
    for (naive, &fast) in model.predict_batch_naive(&batch).iter().zip(&out) {
        assert_eq!(fast.to_bits(), naive.to_bits());
    }
    Stage {
        name: "predict_gather",
        wall_ms,
        baseline_wall_ms: None,
        nnz: batch_n,
        rank,
        dims,
        sweeps: 0,
        extra: Vec::new(),
    }
}

/// Fleet-serving stages through `cpr_registry` (PR 6).
///
/// * `registry_lookup` — the sharded id → `Arc<PredictPlan>` hot lookup,
///   over the query stream's id mix.
/// * `registry_serve_batch` — the batch front end (group by model, one
///   plan load per group, `predict_into`, scatter) on the same stream,
///   against an unbounded registry (every dense table resident).
/// * `registry_mixed_traffic` — query-at-a-time serving against a tier
///   budgeted to hold roughly **half** the fleet's dense tables, so the
///   stream mixes dense hits with factor-gather fallbacks the way a
///   memory-pressured deployment would. Extra fields: `hit_rate` (dense
///   share of serves), `p50_us`/`p99_us` (per-query latency), and `qps`.
fn registry_stages(n_models: usize, n_queries: usize) -> Vec<Stage> {
    let models = fleet(n_models, 61);
    let ids: Vec<ModelId> = models
        .iter()
        .map(|f| ModelId::new(f.app.clone(), f.machine.clone(), f.metric.clone()))
        .collect();
    let queries = fleet_queries(n_models, n_queries, 62);
    let batch: Vec<(ModelId, Vec<f64>)> = queries
        .iter()
        .map(|(who, x)| (ids[*who].clone(), x.clone()))
        .collect();
    let dims = vec![n_models, n_queries];

    let registry = ModelRegistry::new();
    for (f, id) in models.iter().zip(&ids) {
        registry.insert(id.clone(), f.model.clone());
    }
    let lookup_ms = time_ms(|| {
        for (id, _) in &batch {
            assert!(registry.plan(id).is_some());
        }
    });
    let serve_ms = time_ms(|| {
        let out = registry.serve_batch(&batch).expect("fleet ids are loaded");
        assert!(out[0].is_finite());
    });

    // Mixed traffic: budget for half the fleet's dense bytes, so the LRU
    // tier actually splits the stream between its two serving paths.
    let dense_total: usize = models
        .iter()
        .map(|f| f.model.plan().dense_cache_bytes())
        .sum();
    let pressured = ModelRegistry::with_budget(dense_total / 2);
    for (f, id) in models.iter().zip(&ids) {
        pressured.insert(id.clone(), f.model.clone());
    }
    let mut lat_us: Vec<f64> = Vec::with_capacity(batch.len());
    let mut wall_s = 0.0;
    let mixed_ms = time_ms(|| {
        lat_us.clear();
        let t0 = Instant::now();
        for (id, x) in &batch {
            let t = Instant::now();
            let y = pressured.predict(id, x).expect("fleet ids are loaded");
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            debug_assert!(y.is_finite());
            std::hint::black_box(y);
        }
        wall_s = t0.elapsed().as_secs_f64();
    });
    lat_us.sort_unstable_by(f64::total_cmp);
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p) as usize];
    let stats = pressured.stats();

    let stage = |name: &'static str, wall_ms: f64, extra: Vec<(&'static str, f64)>| Stage {
        name,
        wall_ms,
        baseline_wall_ms: None,
        nnz: n_queries,
        rank: 0,
        dims: dims.clone(),
        sweeps: 0,
        extra,
    };
    vec![
        stage("registry_lookup", lookup_ms, Vec::new()),
        stage("registry_serve_batch", serve_ms, Vec::new()),
        stage(
            "registry_mixed_traffic",
            mixed_ms,
            vec![
                ("hit_rate", stats.dense_hit_rate()),
                ("p50_us", pct(0.50)),
                ("p99_us", pct(0.99)),
                ("qps", batch.len() as f64 / wall_s),
            ],
        ),
    ]
}

/// `obs_overhead` (PR 10) — what full instrumentation costs the hottest
/// serve path. The `registry_mixed_traffic` workload (query-at-a-time
/// against a half-resident LRU tier, per-query latency sampling in the
/// loop) runs against two identically loaded fleets: **uninstrumented**
/// (`ModelRegistry::with_budget` — private hub, counters only, latency
/// timing off) and **instrumented** (`ModelRegistry::with_obs` +
/// `enable_timing()` — shared hub, serve latencies sampled 1-in-
/// `LATENCY_SAMPLE` into the `cpr_registry_serve_us` histogram, counters
/// exact on every query). Every prediction is asserted
/// bitwise equal across the arms: instrumentation is a view over the
/// serve path, never a participant in it. `wall_ms` is the instrumented
/// loop; extras carry `uninstrumented_wall_ms` and `overhead_pct`, the
/// number the <= 5% budget in DESIGN.md ("Observability") refers to.
fn obs_overhead_stage(n_models: usize, n_queries: usize) -> Stage {
    let models = fleet(n_models, 61);
    let ids: Vec<ModelId> = models
        .iter()
        .map(|f| ModelId::new(f.app.clone(), f.machine.clone(), f.metric.clone()))
        .collect();
    let queries = fleet_queries(n_models, n_queries, 62);
    let batch: Vec<(ModelId, Vec<f64>)> = queries
        .iter()
        .map(|(who, x)| (ids[*who].clone(), x.clone()))
        .collect();
    let dense_total: usize = models
        .iter()
        .map(|f| f.model.plan().dense_cache_bytes())
        .sum();

    let plain = ModelRegistry::with_budget(dense_total / 2);
    let hub = Arc::new(MetricsRegistry::new());
    let instrumented = ModelRegistry::with_obs(dense_total / 2, Arc::clone(&hub));
    instrumented.enable_timing();
    for (f, id) in models.iter().zip(&ids) {
        plain.insert(id.clone(), f.model.clone());
        instrumented.insert(id.clone(), f.model.clone());
    }

    // Identical loop shape to `registry_mixed_traffic` (latency probe
    // included), so the two arms time the same workload and the delta is
    // exactly the instrumentation.
    let run = |reg: &ModelRegistry, out: &mut [f64]| {
        for (k, (id, x)) in batch.iter().enumerate() {
            let t = Instant::now();
            let y = reg.predict(id, x).expect("fleet ids are loaded");
            std::hint::black_box(t.elapsed());
            out[k] = y;
        }
    };
    let mut plain_out = vec![0.0; batch.len()];
    let mut inst_out = vec![0.0; batch.len()];
    // Interleaved min-of-N (rather than two separate `time_ms` blocks):
    // the arms alternate pass-for-pass so machine noise — frequency
    // shifts, background load — lands on both equally, and the delta of
    // the two minima isolates the instrumentation.
    const PASSES: usize = 5;
    run(&plain, &mut plain_out);
    run(&instrumented, &mut inst_out);
    let (mut plain_ms, mut inst_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PASSES {
        let t = Instant::now();
        run(&plain, &mut plain_out);
        plain_ms = plain_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        run(&instrumented, &mut inst_out);
        inst_ms = inst_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }

    // Bitwise-identical serving with timing on or off — the PR 10
    // acceptance bar; without it the overhead compares different
    // functions.
    for (k, (a, b)) in plain_out.iter().zip(&inst_out).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "instrumentation changed query {k}: {a} vs {b}"
        );
    }
    // And the instrumented arm really measured: one serve latency per
    // LATENCY_SAMPLE queries across the warmup + PASSES passes.
    let measured = hub
        .histogram_snapshot("cpr_registry_serve_us")
        .expect("serve histogram registered")
        .count();
    assert_eq!(
        measured,
        (((PASSES + 1) * batch.len()) as u64).div_ceil(LATENCY_SAMPLE)
    );

    Stage {
        name: "obs_overhead",
        wall_ms: inst_ms,
        baseline_wall_ms: None,
        nnz: n_queries,
        rank: 0,
        dims: vec![n_models, n_queries],
        sweeps: 0,
        extra: vec![
            ("uninstrumented_wall_ms", plain_ms),
            ("overhead_pct", (inst_ms / plain_ms - 1.0) * 100.0),
        ],
    }
}

/// Durability stages (PR 8), on a `MemFs` backend so they time the store
/// protocol — serialization, CRC framing, read-back verification,
/// manifest bookkeeping, parse-before-insert — not a disk.
///
/// * `store_snapshot` — `ModelRegistry::snapshot_into`: serialize every
///   fleet model and commit one durable generation (each record written
///   to a temp file, read back, verified, renamed; then the manifest).
/// * `store_restore` — `ModelRegistry::restore` into a fresh registry:
///   scan to the newest valid manifest, verify every referenced record's
///   frame, parse, insert, serve.
fn store_stages(n_models: usize) -> Vec<Stage> {
    let models = fleet(n_models, 61);
    let registry = ModelRegistry::new();
    for f in &models {
        let id = ModelId::new(f.app.clone(), f.machine.clone(), f.metric.clone());
        registry.insert(id, f.model.clone());
    }
    let store = FleetStore::open(Arc::new(MemFs::new())).expect("memfs store");
    let snap_ms = time_ms(|| {
        let gen = registry.snapshot_into(&store).expect("snapshot");
        assert!(gen >= 1);
    });
    let payload_bytes: usize = store
        .snapshots()
        .load()
        .expect("fleet snapshot")
        .models
        .iter()
        .map(|(_, b)| b.len())
        .sum();
    let restore_ms = time_ms(|| {
        let fresh = ModelRegistry::new();
        let report = fresh.restore(&store).expect("restore");
        assert_eq!(report.restored.len(), n_models);
    });
    let stage = |name: &'static str, wall_ms: f64| Stage {
        name,
        wall_ms,
        baseline_wall_ms: None,
        nnz: n_models,
        rank: 0,
        dims: vec![n_models],
        sweeps: 0,
        extra: vec![("payload_bytes", payload_bytes as f64)],
    };
    vec![
        stage("store_snapshot", snap_ms),
        stage("store_restore", restore_ms),
    ]
}

/// The network front-end stages: the wire cost of serving and the cost
/// of refusing to serve.
///
/// * `server_loopback` — single-query predicts through a live
///   [`CprServer`] over one keep-alive loopback connection: HTTP parse,
///   admission, deadline-chunked registry serve, `f64` Display
///   formatting, response write. The per-request latency extras are the
///   number the registry stages' in-process latencies get compared
///   against.
/// * `server_under_shed` — the same server flooded with deadline-zero
///   requests, every one answered a clean 503 with retry-after. Shed
///   must be much cheaper than serve; a well-formed request afterwards
///   is verified bitwise against direct registry serving.
fn server_stages(n_models: usize, n_requests: usize) -> Vec<Stage> {
    let models = fleet(n_models, 33);
    let registry = Arc::new(ModelRegistry::new());
    let ids: Vec<ModelId> = models
        .iter()
        .map(|f| ModelId::new(f.app.clone(), f.machine.clone(), f.metric.clone()))
        .collect();
    for (id, f) in ids.iter().zip(&models) {
        registry.insert(id.clone(), f.model.clone());
    }
    let cfg = ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 4,
            max_queue: 16,
            queue_timeout: Duration::from_millis(50),
            ..AdmissionConfig::default()
        },
        max_requests_per_conn: u32::MAX,
        ..ServerConfig::default()
    };
    let server = CprServer::bind("127.0.0.1:0", Arc::clone(&registry), cfg).expect("bind");
    let queries = fleet_queries(n_models, n_requests, 17);
    let frames: Vec<(String, String)> = queries
        .iter()
        .map(|(who, x)| {
            let f = &models[*who];
            let path = format!("/predict/{}/{}/{}", f.app, f.machine, f.metric);
            let body = x
                .iter()
                .map(|v| format!("{v}"))
                .collect::<Vec<_>>()
                .join(" ");
            (path, body)
        })
        .collect();
    let pct = |lat_us: &mut Vec<f64>, p: f64| {
        lat_us.sort_unstable_by(f64::total_cmp);
        lat_us[((lat_us.len() - 1) as f64 * p) as usize]
    };

    let mut conn = ClientConn::open(server.local_addr()).expect("loopback conn");
    // Warmup: populate dense caches and the connection state.
    for (path, body) in frames.iter().take(64) {
        let resp = conn
            .request("POST", path, &[], body.as_bytes())
            .expect("warmup");
        assert_eq!(resp.status, 200);
    }
    let mut lat_us = Vec::with_capacity(n_requests);
    let t0 = Instant::now();
    for (path, body) in &frames {
        let t = Instant::now();
        let resp = conn
            .request("POST", path, &[], body.as_bytes())
            .expect("loopback predict");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(resp.status, 200);
    }
    let loopback_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (loop_p50, loop_p99) = (pct(&mut lat_us, 0.50), pct(&mut lat_us, 0.99));

    // Shed flood: identical frames, deadline zero — every request is
    // refused before any compute happens.
    let deadline_hdr = [(cpr_server::DEADLINE_HEADER, "0".to_string())];
    let mut shed_us = Vec::with_capacity(n_requests);
    let t0 = Instant::now();
    for (path, body) in &frames {
        let t = Instant::now();
        let resp = conn
            .request("POST", path, &deadline_hdr, body.as_bytes())
            .expect("shed flood");
        shed_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(resp.status, 503);
    }
    let shed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (shed_p50, shed_p99) = (pct(&mut shed_us, 0.50), pct(&mut shed_us, 0.99));

    // Never-stop-serving: after the flood, a well-formed request answers
    // bitwise what the registry answers.
    let (who, x) = &queries[0];
    let (path, body) = &frames[0];
    let resp = conn
        .request("POST", path, &[], body.as_bytes())
        .expect("post-flood predict");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.predictions()[0].to_bits(),
        registry
            .predict(&ids[*who], x)
            .expect("direct serve")
            .to_bits(),
        "server drifted from the registry after the shed flood"
    );
    let stats = server.stats();
    assert!(stats.identity_holds(), "{stats:?}");
    drop(conn);
    let report = server.drain();
    assert!(report.final_stats.identity_holds());

    let stage = |name: &'static str, wall_ms: f64, extra: Vec<(&'static str, f64)>| Stage {
        name,
        wall_ms,
        baseline_wall_ms: None,
        nnz: n_requests,
        rank: 0,
        dims: vec![n_models, n_requests],
        sweeps: 0,
        extra,
    };
    vec![
        stage(
            "server_loopback",
            loopback_ms,
            vec![
                ("p50_us", loop_p50),
                ("p99_us", loop_p99),
                ("rps", n_requests as f64 / (loopback_ms / 1e3)),
            ],
        ),
        stage(
            "server_under_shed",
            shed_ms,
            vec![
                ("p50_us", shed_p50),
                ("shed_p99_us", shed_p99),
                ("rps", n_requests as f64 / (shed_ms / 1e3)),
            ],
        ),
    ]
}

/// `registry_churn` — per-query serving while the background refit
/// pipeline continuously refits and hot-swaps the same fleet.
///
/// Protocol: a fleet of streaming-fitted models is tracked by a
/// 2-worker [`RefitPipeline`]; the query stream is served once
/// **uncontended** (pipeline idle) and once **contended** (telemetry
/// batches submitted throughout the serve loop, every install gated).
/// `wall_ms` is the contended serve loop (submits included). Extras:
/// contended `p50_us`/`p99_us` and `uncontended_p50_us`/`uncontended_p99_us`
/// per-query latency, `swaps` installed, and `swap_rate` (gated swaps per
/// submitted batch). The robustness claim quoted in CHANGES.md: contended
/// p99 stays within 2x of uncontended.
fn churn_stage(n_models: usize, n_queries: usize, rounds: usize) -> Stage {
    let registry = Arc::new(ModelRegistry::new());
    let cfg = PipelineConfig {
        workers: 2,
        queue_capacity: 64,
        ..PipelineConfig::default()
    };
    let pipeline = RefitPipeline::new(registry.clone(), cfg);
    let ids: Vec<ModelId> = (0..n_models)
        .map(|i| ModelId::new(format!("churn{i}"), "m", "time"))
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let (space, train) = power_law(120, 91 + i as u64);
        let builder = CprBuilder::new(space)
            .cells_per_dim(8)
            .rank(2)
            .regularization(1e-7)
            .seed(i as u64);
        let trainer = StreamingCpr::fit(&builder, &train).expect("churn fixture fit");
        pipeline.track(id.clone(), trainer);
    }
    let mut rng = StdRng::seed_from_u64(92);
    let queries: Vec<(usize, Vec<f64>)> = (0..n_queries)
        .map(|_| {
            let who = rng.gen_range(0..n_models);
            let x = vec![
                32.0 * 64.0_f64.powf(rng.gen::<f64>()),
                32.0 * 64.0_f64.powf(rng.gen::<f64>()),
            ];
            (who, x)
        })
        .collect();
    let serve = |lat_us: &mut Vec<f64>| {
        lat_us.clear();
        for (who, x) in &queries {
            let t = Instant::now();
            let y = registry.predict(&ids[*who], x).expect("fleet is tracked");
            lat_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(y);
        }
    };
    let pct = |lat_us: &mut Vec<f64>, p: f64| {
        lat_us.sort_unstable_by(f64::total_cmp);
        lat_us[((lat_us.len() - 1) as f64 * p) as usize]
    };

    // Uncontended control: same stream, pipeline idle. One warmup pass.
    let mut quiet_us = Vec::with_capacity(n_queries);
    serve(&mut quiet_us);
    serve(&mut quiet_us);
    let quiet_p50 = pct(&mut quiet_us, 0.50);
    let quiet_p99 = pct(&mut quiet_us, 0.99);

    // Contended: interleave telemetry submissions into the serve loop so
    // refits and swaps churn underneath the reads.
    let total_batches = rounds * n_models;
    let submit_every = (n_queries / total_batches).max(1);
    let mut lat_us = Vec::with_capacity(n_queries);
    let mut submitted = 0usize;
    let t0 = Instant::now();
    for (k, (who, x)) in queries.iter().enumerate() {
        if k % submit_every == 0 && submitted < total_batches {
            let (_, batch) = power_law(120, 1000 + submitted as u64);
            let _ = pipeline.submit(&ids[submitted % n_models], &batch);
            submitted += 1;
        }
        let t = Instant::now();
        let y = registry.predict(&ids[*who], x).expect("fleet is tracked");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(y);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    pipeline.wait_idle();
    let stats = pipeline.stats();

    Stage {
        name: "registry_churn",
        wall_ms,
        baseline_wall_ms: None,
        nnz: n_queries,
        rank: 2,
        dims: vec![n_models, n_queries],
        sweeps: 0,
        extra: vec![
            ("p50_us", pct(&mut lat_us, 0.50)),
            ("p99_us", pct(&mut lat_us, 0.99)),
            ("uncontended_p50_us", quiet_p50),
            ("uncontended_p99_us", quiet_p99),
            ("swaps", stats.swapped as f64),
            (
                "swap_rate",
                stats.swapped as f64 / stats.submitted.max(1) as f64,
            ),
        ],
    }
}

/// The serving stages: plan bake, batched prediction through the compiled
/// plan (also re-timed through the in-tree naive reference path as a
/// same-run A/B control), dataset evaluation, and surrogate search
/// throughput.
fn serving_stages(train_n: usize, batch_n: usize, search_n: usize, rank: usize) -> Vec<Stage> {
    let (space, train) = separable_dataset(train_n, 21);
    let model: CprModel = CprBuilder::new(space)
        .cells_per_dim(12)
        .rank(rank)
        .regularization(1e-7)
        .fit(&train)
        .expect("perf_snapshot: CPR fit failed");
    let mut rng = StdRng::seed_from_u64(22);
    let batch: Vec<Vec<f64>> = (0..batch_n)
        .map(|_| {
            vec![
                32.0 * (4096.0_f64 / 32.0).powf(rng.gen::<f64>()),
                32.0 * (4096.0_f64 / 32.0).powf(rng.gen::<f64>()),
            ]
        })
        .collect();
    let (_, eval_data) = separable_dataset(batch_n, 23);

    let bake_ms = time_ms(|| {
        let plan = model.bake_plan();
        assert_eq!(plan.rank(), rank);
    });
    let mut out = vec![0.0; batch.len()];
    let plan_ms = time_ms(|| {
        model.plan().predict_into(&batch, &mut out);
        assert!(out[0].is_finite());
    });
    let naive_ms = time_ms(|| {
        let preds = model.predict_batch_naive(&batch);
        assert_eq!(preds.len(), batch.len());
    });
    // Equivalence guard: the two timed paths must agree bitwise, otherwise
    // the speedup below compares different functions.
    for (x, &fast) in batch.iter().zip(&out) {
        assert_eq!(fast.to_bits(), model.predict_naive(x).to_bits());
    }
    let evaluate_ms = time_ms(|| {
        let m = model.evaluate(&eval_data);
        assert!(m.mlogq.is_finite());
    });
    let search_ms = time_ms(|| {
        let best = random_search(&model, &[None, None], search_n, 10, 99);
        assert_eq!(best.len(), 10);
    });
    let stage = |name: &'static str, wall_ms: f64, nnz: usize| Stage {
        name,
        wall_ms,
        baseline_wall_ms: None,
        nnz,
        rank,
        dims: vec![12, 12],
        sweeps: 0,
        extra: Vec::new(),
    };
    vec![
        stage("plan_build", bake_ms, train_n),
        stage("predict_batch", plan_ms, batch_n),
        stage("predict_batch_naive", naive_ms, batch_n),
        stage("evaluate", evaluate_ms, batch_n),
        stage("search_random", search_ms, search_n),
    ]
}

/// PR 8 reference timings for the small scale, from the committed
/// `BENCH_pr8.json` (same machine class; see CHANGES.md for the protocol).
/// PR 9 claims **parity** on these stages — the network front end is a
/// new layer above the registry, not a tax on the layers below — so the
/// expected ratio against these baselines is ~1.0x throughout. `None`
/// when PR 8 recorded nothing for a stage/scale (including the
/// `server_*` stages, first recorded by this PR).
fn baseline_ms(scale: &str, stage: &str) -> Option<f64> {
    match (scale, stage) {
        ("small", "als_fit") => Some(BASELINE_SMALL_ALS),
        ("small", "als_fit_reference") => Some(BASELINE_SMALL_ALS_REF),
        ("small", "amn_fit") => Some(BASELINE_SMALL_AMN),
        ("small", "amn_fit_reference") => Some(BASELINE_SMALL_AMN_REF),
        ("small", "als_fit_med") => Some(BASELINE_SMALL_ALS_MED),
        ("small", "als_fit_med_reference") => Some(BASELINE_SMALL_ALS_MED_REF),
        ("small", "amn_fit_med") => Some(BASELINE_SMALL_AMN_MED),
        ("small", "amn_fit_med_reference") => Some(BASELINE_SMALL_AMN_MED_REF),
        ("small", "tucker_fit") => Some(BASELINE_SMALL_TUCKER),
        ("small", "tucker_fit_reference") => Some(BASELINE_SMALL_TUCKER_REF),
        ("small", "ccd_fit") => Some(BASELINE_SMALL_CCD),
        ("small", "ccd_fit_reference") => Some(BASELINE_SMALL_CCD_REF),
        ("small", "plan_build") => Some(BASELINE_SMALL_PLAN),
        ("small", "predict_batch") => Some(BASELINE_SMALL_PREDICT),
        ("small", "predict_batch_naive") => Some(BASELINE_SMALL_PREDICT_NAIVE),
        ("small", "predict_batch_tucker") => Some(BASELINE_SMALL_PREDICT_TUCKER),
        ("small", "evaluate") => Some(BASELINE_SMALL_EVALUATE),
        ("small", "search_random") => Some(BASELINE_SMALL_SEARCH),
        ("small", "registry_lookup") => Some(BASELINE_SMALL_REG_LOOKUP),
        ("small", "registry_serve_batch") => Some(BASELINE_SMALL_REG_SERVE),
        ("small", "registry_mixed_traffic") => Some(BASELINE_SMALL_REG_MIXED),
        ("small", "registry_churn") => Some(BASELINE_SMALL_REG_CHURN),
        ("small", "store_snapshot") => Some(BASELINE_SMALL_STORE_SNAP),
        ("small", "store_restore") => Some(BASELINE_SMALL_STORE_RESTORE),
        _ => None,
    }
}

// `wall_ms` values of BENCH_pr8.json (the PR 8 build measured by the PR 8
// snapshot protocol on this machine class, single core).
const BASELINE_SMALL_ALS: f64 = 7.545;
const BASELINE_SMALL_ALS_REF: f64 = 13.137;
const BASELINE_SMALL_AMN: f64 = 5.957;
const BASELINE_SMALL_AMN_REF: f64 = 8.216;
const BASELINE_SMALL_ALS_MED: f64 = 14.996;
const BASELINE_SMALL_ALS_MED_REF: f64 = 25.029;
const BASELINE_SMALL_AMN_MED: f64 = 15.111;
const BASELINE_SMALL_AMN_MED_REF: f64 = 19.480;
const BASELINE_SMALL_TUCKER: f64 = 22.431;
const BASELINE_SMALL_TUCKER_REF: f64 = 50.281;
const BASELINE_SMALL_CCD: f64 = 2.044;
const BASELINE_SMALL_CCD_REF: f64 = 3.921;
const BASELINE_SMALL_PLAN: f64 = 0.002;
const BASELINE_SMALL_PREDICT: f64 = 2.975;
const BASELINE_SMALL_PREDICT_NAIVE: f64 = 9.621;
const BASELINE_SMALL_PREDICT_TUCKER: f64 = 3.667;
const BASELINE_SMALL_EVALUATE: f64 = 3.795;
const BASELINE_SMALL_SEARCH: f64 = 4.735;
const BASELINE_SMALL_REG_LOOKUP: f64 = 6.558;
const BASELINE_SMALL_REG_SERVE: f64 = 7.896;
const BASELINE_SMALL_REG_MIXED: f64 = 22.985;
const BASELINE_SMALL_REG_CHURN: f64 = 9.227;
const BASELINE_SMALL_STORE_SNAP: f64 = 1.473;
const BASELINE_SMALL_STORE_RESTORE: f64 = 2.912;

fn threads_in_use() -> usize {
    rayon::current_num_threads()
}

fn fmt_f64(v: f64) -> String {
    format!("{v:.3}")
}

fn json(scale: &str, threads: usize, stages: &[Stage]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"cpr-perf-snapshot-v1\",\n");
    out.push_str("  \"pr\": 10,\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str("  \"stages\": [\n");
    for (k, s) in stages.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\", ", s.name));
        out.push_str(&format!("\"wall_ms\": {}, ", fmt_f64(s.wall_ms)));
        match s.baseline_wall_ms {
            Some(b) => {
                out.push_str(&format!("\"baseline_wall_ms\": {}, ", fmt_f64(b)));
                out.push_str(&format!("\"speedup\": {}, ", fmt_f64(b / s.wall_ms)));
            }
            None => out.push_str("\"baseline_wall_ms\": null, \"speedup\": null, "),
        }
        out.push_str(&format!(
            "\"nnz\": {}, \"rank\": {}, \"sweeps\": {}, \"dims\": {:?}",
            s.nnz, s.rank, s.sweeps, s.dims
        ));
        for (key, value) in &s.extra {
            out.push_str(&format!(", \"{key}\": {}", fmt_f64(*value)));
        }
        out.push('}');
        if k + 1 < stages.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let scale = if tiny { "tiny" } else { "small" };
    let threads = threads_in_use();

    // Tiny stages are sized to land >= ~1 ms on a laptop/CI core: the
    // perf_guard ratio gate is meaningless at microsecond scale.
    let mut stages: Vec<Stage> = Vec::new();
    if tiny {
        stages.extend(als_stages(
            "als_fit",
            "als_fit_reference",
            &[10, 10, 10],
            4,
            0.3,
            60,
        ));
        stages.extend(amn_stages(
            "amn_fit",
            "amn_fit_reference",
            &[8, 8, 8],
            2,
            0.3,
            8,
        ));
        stages.extend(tucker_stages(
            "tucker_fit",
            "tucker_fit_reference",
            &[8, 8, 8],
            2,
            0.3,
            6,
        ));
        stages.extend(ccd_stages(
            "ccd_fit",
            "ccd_fit_reference",
            &[10, 10, 10],
            4,
            0.3,
            20,
        ));
        stages.extend(serving_stages(400, 20_000, 5_000, 2));
        stages.push(tucker_serving_stage(400, 20_000, 2));
        stages.push(gather_serving_stage(2_500, 4));
        stages.extend(registry_stages(64, 20_000));
        stages.push(obs_overhead_stage(64, 20_000));
        stages.push(churn_stage(4, 4_000, 2));
        stages.extend(store_stages(64));
        stages.extend(server_stages(16, 2_000));
    } else {
        stages.extend(als_stages(
            "als_fit",
            "als_fit_reference",
            &[24, 24, 24],
            8,
            0.2,
            40,
        ));
        stages.extend(amn_stages(
            "amn_fit",
            "amn_fit_reference",
            &[12, 12, 12],
            4,
            0.25,
            10,
        ));
        // Medium fit stages: larger grids at the rank-8/16 monomorphized
        // kernels (no PR 3 baselines — the reference stages are their
        // controls).
        stages.extend(als_stages(
            "als_fit_med",
            "als_fit_med_reference",
            &[32, 32, 32],
            16,
            0.15,
            20,
        ));
        stages.extend(amn_stages(
            "amn_fit_med",
            "amn_fit_med_reference",
            &[16, 16, 16],
            8,
            0.25,
            8,
        ));
        stages.extend(tucker_stages(
            "tucker_fit",
            "tucker_fit_reference",
            &[16, 16, 16],
            4,
            0.25,
            10,
        ));
        stages.extend(ccd_stages(
            "ccd_fit",
            "ccd_fit_reference",
            &[24, 24, 24],
            8,
            0.2,
            10,
        ));
        stages.extend(serving_stages(2_000, 50_000, 20_000, 4));
        stages.push(tucker_serving_stage(2_000, 50_000, 4));
        stages.push(gather_serving_stage(20_000, 4));
        stages.extend(registry_stages(240, 50_000));
        stages.push(obs_overhead_stage(240, 50_000));
        stages.push(churn_stage(8, 20_000, 4));
        stages.extend(store_stages(240));
        stages.extend(server_stages(64, 10_000));
    }
    for s in &mut stages {
        s.baseline_wall_ms = baseline_ms(scale, s.name);
    }

    let body = json(scale, threads, &stages);
    let path = std::env::var("CPR_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr10.json".to_string());
    std::fs::write(&path, &body).expect("perf_snapshot: cannot write output");
    println!("# perf_snapshot ({scale}, {threads} thread(s)) -> {path}");
    print!("{body}");
}
