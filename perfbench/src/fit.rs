//! The fit-path layer probes on default-spec CPR fits of the six paper
//! applications (grid binning, completion sweeps, plan bake, evaluation),
//! plus the thread-pool probes.

use crate::kit::{app_sets, AppSet};
use crate::run::Checks;
use crate::stats::{geomean, Metrics};
use crate::trace::Tracer;
use cpr_completion::{complete, CompletionSpec, Optimizer};
use cpr_core::{Cells, CprBuilder, CprModel, Dataset, FitSpec};
use cpr_tensor::{CpDecomp, Decomposition, SparseTensor};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Training samples per application.
pub const TRAIN: usize = 16_384;
/// Held-out samples per application.
pub const TEST: usize = 1000;
/// The paper's default spec: ALS, 8 cells/dim, rank 4, λ = 1e-5, ≤ 100
/// sweeps.
pub fn builder(app: &AppSet) -> CprBuilder {
    CprBuilder::new(app.space.clone()).with_spec(FitSpec::default())
}

fn fit(b: &CprBuilder, train: &Dataset) -> CprModel {
    b.fit(train)
        .expect("default-spec fit of a paper application")
}

/// Bin a training set the way `CprBuilder::fit` does: per-cell mean time,
/// log-transformed, centred. Returns the observation tensor.
fn binned(grid: &cpr_grid::TensorGrid, app: &AppSet) -> SparseTensor {
    let mut cells: BTreeMap<Vec<usize>, (f64, usize)> = BTreeMap::new();
    for (x, y) in app.train.iter() {
        let e = cells.entry(grid.cell_index(x)).or_insert((0.0, 0));
        e.0 += y;
        e.1 += 1;
    }
    let mut obs = SparseTensor::new(&grid.dims());
    obs.extend_from(
        cells
            .into_iter()
            .map(|(idx, (sum, count))| (idx, (sum / count as f64).ln())),
    );
    let mean = obs.values().iter().sum::<f64>() / obs.nnz() as f64;
    obs.map_values_mut(|v| v - mean);
    obs
}

/// Floating-point operations of `sweeps` CP-ALS sweeps, computed from the
/// problem shape rather than counted: per mode and observation, the
/// Hadamard product of the other modes' rows, the rank-R Gram update and
/// right-hand side; per row, a Cholesky factor and two triangular solves;
/// per sweep, one objective pass over the observations.
pub fn als_flops(dims: &[usize], nnz: usize, rank: usize, sweeps: usize) -> f64 {
    let (d, r, z) = (dims.len() as f64, rank as f64, nnz as f64);
    let per_obs = (d - 1.0) * r + r * (r + 1.0) + 2.0 * r;
    let per_row = r * r * r / 3.0 + 2.0 * r * r;
    let rows: f64 = dims.iter().map(|&n| n as f64).sum();
    let objective = z * (d * r + 2.0);
    sweeps as f64 * (d * z * per_obs + rows * per_row + objective)
}

/// Fit-path layer probes, per application, plus the thread-pool probes.
pub fn probe(seed: u64, layers: &mut Metrics, tr: &mut Tracer, checks: &mut Checks) {
    let apps = app_sets(seed, TRAIN, TEST);
    let spec = FitSpec::default();
    let width = rayon::current_num_threads();
    let mut fit_wide = 0.0;
    let mut accuracy = Vec::new();
    for app in &apps {
        let root = tr.open(format!("probe.fit.{}", app.name), None);
        let b = builder(app);
        let mut models = Vec::new();
        let secs = tr.median_secs("core.fit", Some(root), 3, || {
            models.push(fit(&b, &app.train));
        });
        // Repeated fits on the same inputs reproduce the accuracy bits.
        let mlogqs: Vec<u64> = models
            .iter()
            .map(|m| m.evaluate(&app.test).mlogq.to_bits())
            .collect();
        checks.check(mlogqs.windows(2).all(|w| w[0] == w[1]), || {
            format!("{}: repeated fits gave MLogQ bits {mlogqs:x?}", app.name)
        });
        let model = models.pop().expect("three fits ran");
        fit_wide += secs;
        let d = app.space.dim();
        let cells = match &spec.cells {
            Cells::PerDim(c) => vec![*c; d],
            Cells::PerMode(v) => v.clone(),
        };
        let grid = app.space.grid_with_cells(&cells);

        let bin = tr.median_secs("grid.bin", Some(root), 3, || {
            for (x, _) in app.train.iter() {
                black_box(grid.cell_index(black_box(x)));
            }
        });
        let obs = binned(&grid, app);
        let init = Decomposition::Cp(CpDecomp::random(
            &grid.dims(),
            spec.rank,
            0.0,
            1.0,
            spec.seed,
        ));
        let cspec = CompletionSpec {
            lambda: spec.lambda,
            stop: spec.stop_rule(),
            seed: spec.seed,
        };
        let mut trace = None;
        let complete_s = tr.median_secs("completion.complete", Some(root), 3, || {
            let mut decomp = init.clone();
            trace = Some(complete(&mut decomp, &obs, Optimizer::Als, &cspec));
        });
        let trace = trace.expect("three completions ran");
        // The probe must time the very sweeps the fit ran.
        checks.check(
            trace.sweeps() == model.trace().sweeps()
                && trace.final_objective().to_bits() == model.trace().final_objective().to_bits(),
            || {
                format!(
                    "{}: completion probe diverged from the fit's sweeps",
                    app.name
                )
            },
        );
        let bake = tr.median_secs("core.bake_plan", Some(root), 5, || {
            black_box(model.bake_plan());
        });
        let eval = tr.median_secs("core.evaluate", Some(root), 5, || {
            black_box(model.evaluate(&app.test));
        });
        accuracy.push(model.evaluate(&app.test).mlogq);
        tr.close(root);

        let n = app.name;
        layers.put(format!("core.fit_ms.{n}"), secs * 1e3, "ms");
        layers.put(format!("grid.bin_ms.{n}"), bin * 1e3, "ms");
        layers.put(
            format!("completion.complete_ms.{n}"),
            complete_s * 1e3,
            "ms",
        );
        layers.put(
            format!("completion.sweeps.{n}"),
            trace.sweeps() as f64,
            "count",
        );
        layers.put(
            format!("completion.flops.{n}"),
            als_flops(&grid.dims(), obs.nnz(), spec.rank, trace.sweeps()),
            "flop",
        );
        layers.put(format!("core.bake_ms.{n}"), bake * 1e3, "ms");
        layers.put(format!("core.evaluate_ms.{n}"), eval * 1e3, "ms");
    }

    layers.put("core.fit_mlogq", geomean(&accuracy), "ln_ratio");

    // Thread pool: the cost of one empty 64-item region at width 1 and at
    // the default width, and the default width's fit speed-up.
    let region_us = |threads: usize, tr: &mut Tracer| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the pool shim never fails to build");
        let name = format!("rayon.region.t{threads}");
        tr.median_secs(&name, None, 501, || {
            pool.install(|| {
                (0..64usize).into_par_iter().for_each(|i| {
                    black_box(i);
                })
            })
        }) * 1e6
    };
    layers.put("rayon.region_us.t1", region_us(1, tr), "us");
    layers.put("rayon.region_us.tN", region_us(width, tr), "us");
    let one = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool shim never fails to build");
    let mut fit_one = 0.0;
    for (app, wide_mlogq) in apps.iter().zip(&accuracy) {
        let b = builder(app);
        let mut narrow = None;
        fit_one += tr.median_secs(&format!("rayon.fit_t1.{}", app.name), None, 3, || {
            narrow = Some(one.install(|| fit(&b, &app.train)));
        });
        let narrow = narrow.expect("three fits ran").evaluate(&app.test).mlogq;
        checks.check(narrow.to_bits() == wide_mlogq.to_bits(), || {
            format!("{}: width-1 fit differs from width-{width} fit", app.name)
        });
    }
    layers.put("rayon.fit_speedup", fit_one / fit_wide, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_grow_with_sweeps_and_rank() {
        let f = als_flops(&[8, 8, 8], 400, 4, 10);
        assert!(f > 0.0);
        assert_eq!(als_flops(&[8, 8, 8], 400, 4, 20), 2.0 * f);
        assert!(als_flops(&[8, 8, 8], 400, 8, 10) > f);
    }

    #[test]
    fn repeated_fits_repeat_sweeps_and_accuracy_bits() {
        let apps = app_sets(11, 512, 64);
        let a = &apps[0];
        let (m1, m2) = (fit(&builder(a), &a.train), fit(&builder(a), &a.train));
        assert_eq!(m1.trace().sweeps(), m2.trace().sweeps());
        assert_eq!(
            m1.evaluate(&a.test).mlogq.to_bits(),
            m2.evaluate(&a.test).mlogq.to_bits()
        );
    }
}
