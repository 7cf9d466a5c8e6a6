//! The compiled-query-path contract (PR 3 tentpole): a baked
//! [`cpr_core::PredictPlan`] must be **bitwise identical** to the naive
//! reference path `CprModel::predict_naive` — across random factor models,
//! every axis kind (linear/log, float/integer, categorical), both losses,
//! random observation masks, in-domain and out-of-domain probes — and
//! batched plan queries must not depend on the thread count.

use cpr_core::{CprModel, Loss};
use cpr_grid::{ParamSpace, ParamSpec};
use cpr_tensor::CpDecomp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPoolBuilder;

/// One randomized parameter axis covering every [`ParamSpec`] kind
/// (selected by `kind`; the vendored proptest has no `prop_oneof`).
fn axis_strategy() -> impl Strategy<Value = ParamSpec> {
    (0usize..5, 1.0..30.0f64, 2.0..100.0f64, 1usize..5).prop_map(
        |(kind, lo, span, card)| match kind {
            0 => ParamSpec::log("a", lo, lo + span),
            1 => ParamSpec::linear("a", lo - 25.0, lo - 25.0 + span),
            2 => ParamSpec::log_int("a", lo, lo + span + 40.0),
            3 => ParamSpec::linear_int("a", lo, lo + span),
            _ => ParamSpec::categorical("a", card),
        },
    )
}

/// Build a model straight from random parts (no training — the bitwise
/// contract is independent of how the factors were obtained), then
/// randomize the observed-row masks through a sparse observation tensor so
/// the masking branches of the stencil path are exercised.
fn random_model(
    params: Vec<ParamSpec>,
    cells: usize,
    rank: usize,
    loss: Loss,
    seed: u64,
) -> CprModel {
    let space = ParamSpace::new(params);
    let cells_vec = vec![cells; space.dim()];
    let (lo, hi) = match loss {
        Loss::LogLeastSquares => (-1.0, 1.0),
        Loss::MLogQ2 => (0.1, 1.5),
    };
    let grid = space.grid_with_cells(&cells_vec);
    let dims = grid.dims();
    let cp = CpDecomp::random(&dims, rank, lo, hi, seed);
    let log_offset = if loss == Loss::LogLeastSquares {
        0.37
    } else {
        0.0
    };
    let mut model = CprModel::from_parts(space, &cells_vec, cp, loss, log_offset).unwrap();
    // Random masks: each mode keeps a random non-empty subset of rows
    // "observed" (empty rows trigger the point-stencil degradation).
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_1234);
    let mut obs = cpr_tensor::SparseTensor::new(&dims);
    let mut idx = vec![0usize; dims.len()];
    let total: usize = dims.iter().product();
    for _ in 0..(total / 2).max(1) {
        for (j, &dj) in dims.iter().enumerate() {
            idx[j] = rng.gen_range(0..dj);
        }
        obs.push(&idx, 1.0);
    }
    model.set_row_observed_from(&obs);
    model
}

/// Random probe for one axis: mostly in-domain, sometimes far outside
/// (edge extrapolation and clamping paths).
fn probe_for(spec: &ParamSpec, rng: &mut StdRng) -> f64 {
    match spec {
        ParamSpec::Numerical { lo, hi, .. } => {
            let t = rng.gen::<f64>() * 1.6 - 0.3; // [-0.3, 1.3) around range
            lo + (hi - lo) * t
        }
        ParamSpec::Categorical { cardinality, .. } => {
            rng.gen_range(0..(*cardinality + 2)) as f64 - 1.0
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_is_bitwise_identical_to_naive_predict(
        params in proptest::collection::vec(axis_strategy(), 1..4),
        cells in 1usize..7,
        rank in 1usize..6,
        log_loss in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let loss = if log_loss == 0 { Loss::LogLeastSquares } else { Loss::MLogQ2 };
        let specs = params.clone();
        let model = random_model(params, cells, rank, loss, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        for _ in 0..32 {
            let x: Vec<f64> = specs.iter().map(|s| probe_for(s, &mut rng)).collect();
            let fast = model.predict(&x);
            let slow = model.predict_naive(&x);
            prop_assert_eq!(
                fast.to_bits(), slow.to_bits(),
                "plan {} != naive {} at {:?}", fast, slow, x
            );
        }
    }

    #[test]
    fn batched_plan_queries_are_thread_count_invariant(
        cells in 2usize..8,
        rank in 1usize..5,
        seed in 0u64..500,
    ) {
        let params = vec![
            ParamSpec::log("m", 8.0, 1024.0),
            ParamSpec::linear("b", 0.0, 50.0),
            ParamSpec::categorical("alg", 3),
        ];
        let specs = params.clone();
        let model = random_model(params, cells, rank, Loss::LogLeastSquares, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5555);
        let batch: Vec<Vec<f64>> = (0..700)
            .map(|_| specs.iter().map(|s| probe_for(s, &mut rng)).collect())
            .collect();
        let run = |threads: usize| {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let via_batch = model.predict_batch(&batch);
                let mut via_into = vec![0.0; batch.len()];
                model.plan().predict_into(&batch, &mut via_into);
                (via_batch, via_into)
            })
        };
        let (b1, i1) = run(1);
        let (b4, i4) = run(4);
        for k in 0..batch.len() {
            prop_assert_eq!(b1[k].to_bits(), b4[k].to_bits(), "batch sample {}", k);
            prop_assert_eq!(i1[k].to_bits(), i4[k].to_bits(), "into sample {}", k);
            prop_assert_eq!(b1[k].to_bits(), i1[k].to_bits(), "batch vs into {}", k);
            prop_assert_eq!(
                b1[k].to_bits(),
                model.predict_naive(&batch[k]).to_bits(),
                "vs naive {}", k
            );
        }
    }
}

/// A model of order 6–9 whose grid is past the dense-bake cap: six
/// numerical axes of 7–10 cells (at least 7⁶ > 2¹⁶ cells), plus up to
/// three more axes of any kind, rotated so categorical (always
/// degenerate) modes land anywhere in the mode order. Masks are random:
/// each mode keeps a random non-empty subset of its rows observed, so
/// masked point stencils mix in as well.
fn gather_model(
    kinds: &[(usize, usize)],
    shift: usize,
    rank: usize,
    loss: Loss,
    seed: u64,
) -> (CprModel, Vec<ParamSpec>) {
    let mut params = Vec::new();
    let mut cells = Vec::new();
    for (j, &(kind, n)) in kinds.iter().enumerate() {
        let kind = if j < 6 { kind % 4 } else { kind };
        let (spec, c) = match kind {
            0 => (ParamSpec::log("a", 1.0, 1e4), n),
            1 => (ParamSpec::linear("a", -5.0, 20.0), n),
            2 => (ParamSpec::log_int("a", 1.0, 4096.0), n),
            3 => (ParamSpec::linear_int("a", 0.0, 64.0), n),
            _ => (ParamSpec::categorical("a", n - 5), n - 5),
        };
        params.push(spec);
        cells.push(c);
    }
    let shift = shift % params.len();
    params.rotate_left(shift);
    cells.rotate_left(shift);
    let space = ParamSpace::new(params.clone());
    let dims = space.grid_with_cells(&cells).dims();
    let (lo, hi) = match loss {
        Loss::LogLeastSquares => (-1.0, 1.0),
        Loss::MLogQ2 => (0.1, 1.5),
    };
    let offset = if loss == Loss::LogLeastSquares {
        0.37
    } else {
        0.0
    };
    let cp = CpDecomp::random(&dims, rank, lo, hi, seed);
    let mut model = CprModel::from_parts(space, &cells, cp, loss, offset).unwrap();
    // Observed rows per mode; one observation per row index round-robin
    // marks exactly those rows.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
    let observed: Vec<Vec<usize>> = dims
        .iter()
        .map(|&n| {
            let rows: Vec<usize> = (0..n).filter(|_| rng.gen::<f64>() < 0.7).collect();
            if rows.is_empty() {
                vec![rng.gen_range(0..n)]
            } else {
                rows
            }
        })
        .collect();
    let mut obs = cpr_tensor::SparseTensor::new(&dims);
    let most = observed.iter().map(Vec::len).max().unwrap();
    for k in 0..most {
        let idx: Vec<usize> = observed.iter().map(|rows| rows[k % rows.len()]).collect();
        obs.push(&idx, 1.0);
    }
    model.set_row_observed_from(&obs);
    (model, params)
}

/// Probe for one axis of a gather model: random in and around the range,
/// or exactly on a cell midpoint (a stencil weight of exactly 0 or 1).
fn gather_probe(model: &CprModel, j: usize, spec: &ParamSpec, rng: &mut StdRng) -> f64 {
    if rng.gen::<f64>() < 0.25 {
        let mids = model.grid().axis(j).midpoints();
        return mids[rng.gen_range(0..mids.len())];
    }
    probe_for(spec, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The factor-gather path (no dense table) is bitwise identical to
    /// the naive reference for single queries, batched queries and at 1
    /// and 4 threads: orders 6–9, mixed degenerate modes, random masks,
    /// both losses, ranks 1–8 (the constant-rank kernels) and above
    /// (the runtime-rank kernel, including one past the naive path's
    /// stack accumulator).
    #[test]
    fn factor_gather_is_bitwise_identical_at_high_order(
        kinds in proptest::collection::vec((0usize..5, 7usize..11), 6..10),
        shift in 0usize..9,
        rank_pick in 0usize..11,
        log_loss in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let rank = match rank_pick {
            0..=7 => rank_pick + 1,
            8 => 11,
            _ => 65,
        };
        let loss = if log_loss == 0 { Loss::LogLeastSquares } else { Loss::MLogQ2 };
        let (model, specs) = gather_model(&kinds, shift, rank, loss, seed);
        prop_assert!(!model.plan().has_dense_cache(), "grid must be past the dense cap");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7777);
        let n = if rank > 8 { 40 } else { 300 };
        let batch: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                specs
                    .iter()
                    .enumerate()
                    .map(|(j, s)| gather_probe(&model, j, s, &mut rng))
                    .collect()
            })
            .collect();
        let run = |threads: usize| {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| model.predict_batch(&batch))
        };
        let (one, four) = (run(1), run(4));
        for (k, x) in batch.iter().enumerate() {
            let naive = model.predict_naive(x).to_bits();
            prop_assert_eq!(model.predict(x).to_bits(), naive, "single {:?}", x);
            prop_assert_eq!(one[k].to_bits(), naive, "batch, 1 thread, {:?}", x);
            prop_assert_eq!(four[k].to_bits(), naive, "batch, 4 threads, {:?}", x);
        }
    }
}

/// Grids beyond the dense-bake cap (64k cells) serve through the
/// factor-gather fallback; that path must satisfy the same bitwise
/// contract, for both single and batched queries.
#[test]
fn factor_fallback_is_bitwise_identical_beyond_dense_cap() {
    // 300 x 300 = 90_000 cells > 2^16: no dense bake.
    let params = vec![
        ParamSpec::log("m", 2.0, 1e6),
        ParamSpec::linear("b", -5.0, 5.0),
    ];
    let specs = params.clone();
    let model = random_model(params, 300, 3, Loss::LogLeastSquares, 77);
    let mut rng = StdRng::seed_from_u64(99);
    let batch: Vec<Vec<f64>> = (0..1200)
        .map(|_| specs.iter().map(|s| probe_for(s, &mut rng)).collect())
        .collect();
    let fast = model.predict_batch(&batch);
    for (x, got) in batch.iter().zip(&fast) {
        assert_eq!(got.to_bits(), model.predict_naive(x).to_bits());
        assert_eq!(got.to_bits(), model.predict(x).to_bits());
    }
}

/// Non-proptest regression: a 1-vs-4-thread determinism check on a
/// *trained* model (fit exercises real masks and a real offset), pinning
/// both the plan path and the naive path bit-for-bit.
#[test]
fn trained_model_batch_determinism_1_vs_4_threads() {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 32.0, 4096.0),
        ParamSpec::log("n", 32.0, 4096.0),
    ]);
    let mut rng = StdRng::seed_from_u64(7);
    let mut data = cpr_core::Dataset::new();
    for _ in 0..900 {
        let m = 32.0 * 128.0_f64.powf(rng.gen::<f64>());
        let n = 32.0 * 128.0_f64.powf(rng.gen::<f64>());
        data.push(vec![m, n], 1e-4 * m.powf(1.3) * n.powf(0.9));
    }
    let model = cpr_core::CprBuilder::new(space)
        .cells_per_dim(10)
        .rank(3)
        .regularization(1e-7)
        .fit(&data)
        .unwrap();
    let batch: Vec<Vec<f64>> = (0..2000)
        .map(|_| {
            vec![
                16.0 * 512.0_f64.powf(rng.gen::<f64>()),
                16.0 * 512.0_f64.powf(rng.gen::<f64>()),
            ]
        })
        .collect();
    let run = |threads: usize| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| model.predict_batch(&batch))
    };
    let one = run(1);
    let four = run(4);
    for ((a, b), x) in one.iter().zip(&four).zip(&batch) {
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), model.predict_naive(x).to_bits());
    }
}
