//! Seeded workload inputs. Everything a workload feeds the program is made
//! here from the workload seed, before any set-up clock starts; the same
//! seed gives the same inputs bit for bit.

use cpr_apps::Benchmark;
use cpr_bench::fixtures::{fleet, fleet_queries, FleetModel};
use cpr_core::Dataset;
use cpr_grid::ParamSpace;
use cpr_registry::ModelId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derive an independent stream seed from the workload seed (splitmix64).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One `cpr_apps` application with a training set and a disjoint test set.
pub struct AppSet {
    pub name: &'static str,
    pub bench: Box<dyn Benchmark>,
    pub space: ParamSpace,
    pub train: Dataset,
    pub test: Dataset,
}

/// The six paper applications (MM, QR, BC, FMM, AMG, KRIPKE). Train and
/// test come from one seeded draw split in two, so no sample is in both.
pub fn app_sets(seed: u64, n_train: usize, n_test: usize) -> Vec<AppSet> {
    cpr_apps::all_benchmarks()
        .into_iter()
        .enumerate()
        .map(|(i, bench)| {
            let all = bench.sample_dataset(n_train + n_test, mix(seed, 100 + i as u64));
            let (train, test) = all.samples().split_at(n_train);
            AppSet {
                name: bench.name(),
                space: bench.space(),
                train: to_dataset(train),
                test: to_dataset(test),
                bench,
            }
        })
        .collect()
}

fn to_dataset(samples: &[cpr_core::Sample]) -> Dataset {
    Dataset::from_pairs(samples.iter().map(|s| (s.x.clone(), s.y)))
}

/// The registry id of draw `draw` of an application's served model.
pub fn app_id(name: &str, draw: usize) -> ModelId {
    ModelId::new(
        format!("{}-{draw}", name.to_ascii_lowercase()),
        "cpr-apps",
        "time",
    )
}

pub fn fleet_id(f: &FleetModel) -> ModelId {
    ModelId::new(f.app.clone(), f.machine.clone(), f.metric.clone())
}

/// Fixture-fleet models served next to the application models.
pub const FLEET_MODELS: usize = 240;
/// Served models per application, each trained on its own draw, so the
/// served accuracy is a median over draws rather than one draw's luck.
pub const SERVE_APP_DRAWS: usize = 20;
/// Training samples per served application model.
pub const SERVE_APP_TRAIN: usize = 4096;

/// One pre-rendered `POST /predict` request for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Index into [`ServeInputs::ids`].
    pub model: usize,
    /// The request kind: the application index for application models,
    /// the number of applications for the fixture fleet.
    pub class: usize,
    pub path: String,
    pub body: String,
    pub queries: Vec<Vec<f64>>,
}

/// The served fleet and its request frames. Ids
/// `0..apps × SERVE_APP_DRAWS` are the application models (model `m` is
/// application `m % 6`, draw `m / 6`; factor-gather path where the grid
/// is too large for a dense table, as for KRIPKE); the rest are
/// fixture-fleet models (dense path).
pub struct ServeInputs {
    /// The six applications; `test` is each one's held-out set.
    pub apps: Vec<AppSet>,
    /// Training set of application model `m`.
    pub app_train: Vec<Dataset>,
    pub fleet: Vec<FleetModel>,
    pub ids: Vec<ModelId>,
    /// Distinct request frames; the measured sequence cycles through them.
    pub frames: Vec<Frame>,
    pub warmup: Vec<Frame>,
}

/// Build the serving inputs: `n_frames` distinct measured frames and
/// `n_warmup` warm-up frames of `per_request` queries each. Even frames
/// target the application models round-robin, odd frames the fixture
/// fleet.
pub fn serve_inputs(
    seed: u64,
    per_request: usize,
    n_frames: usize,
    n_warmup: usize,
) -> ServeInputs {
    let apps = app_sets(seed, 0, 1000);
    let n_app = apps.len() * SERVE_APP_DRAWS;
    let app_train: Vec<Dataset> = (0..n_app)
        .map(|m| {
            apps[m % apps.len()]
                .bench
                .sample_dataset(SERVE_APP_TRAIN, mix(seed, 300 + m as u64))
        })
        .collect();
    let fleet = fleet(FLEET_MODELS, mix(seed, 1));
    let ids: Vec<ModelId> = (0..n_app)
        .map(|m| app_id(apps[m % apps.len()].name, m / apps.len()))
        .chain(fleet.iter().map(fleet_id))
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let fleet_probes = fleet_queries(
        FLEET_MODELS,
        (n_frames + n_warmup) * per_request,
        mix(seed, 3),
    );
    let mut probes = fleet_probes.into_iter();
    let mut frame = |k: usize| {
        let (model, class, queries): (usize, usize, Vec<Vec<f64>>) = if k.is_multiple_of(2) {
            let m = (k / 2) % n_app;
            let a = m % apps.len();
            let qs = (0..per_request)
                .map(|_| apps[a].bench.sample_config(&mut rng))
                .collect();
            (m, a, qs)
        } else {
            // One fleet model per request: the model of the frame's first
            // fixture query, every query's coordinates kept.
            let mut qs = Vec::with_capacity(per_request);
            let mut who = None;
            for _ in 0..per_request {
                let (w, x) = probes.next().expect("enough fleet probes drawn");
                who.get_or_insert(w);
                qs.push(x);
            }
            (n_app + who.expect("per_request >= 1"), apps.len(), qs)
        };
        let id = &ids[model];
        Frame {
            model,
            class,
            path: format!("/predict/{}/{}/{}", id.app(), id.machine(), id.metric()),
            body: render_body(&queries),
            queries,
        }
    };
    let warmup = (0..n_warmup).map(&mut frame).collect();
    let frames = (0..n_frames).map(&mut frame).collect();
    ServeInputs {
        apps,
        app_train,
        fleet,
        ids,
        frames,
        warmup,
    }
}

/// One query per line, coordinates in `f64` Display form (which parses
/// back to the same bits).
pub fn render_body(queries: &[Vec<f64>]) -> String {
    let mut body = String::new();
    for q in queries {
        let line: Vec<String> = q.iter().map(|v| format!("{v}")).collect();
        body.push_str(&line.join(" "));
        body.push('\n');
    }
    body
}

/// Models tracked by the refit pipeline.
pub const REFIT_MODELS: usize = 16;
/// Initial training samples per tracked model.
pub const REFIT_INITIAL: usize = 1024;
/// Telemetry samples per submitted batch.
pub const REFIT_BATCH: usize = 128;
/// The refit models cycle over these `cpr_apps` applications (MM, QR, BC).
pub const REFIT_APPS: [usize; 3] = [0, 1, 2];

pub struct RefitModel {
    pub id: ModelId,
    /// Index into [`RefitInputs::apps`].
    pub app: usize,
    pub initial: Dataset,
}

pub struct RefitInputs {
    /// MM, QR and BC, each with a held-out test set (`train` is unused).
    pub apps: Vec<AppSet>,
    pub models: Vec<RefitModel>,
    /// `(model index, batch)` in submission order: model `k % 16` for
    /// operation `k`, a fresh noisy `sample_dataset` draw each time.
    pub batches: Vec<(usize, Dataset)>,
}

pub fn refit_inputs(seed: u64, n_batches: usize) -> RefitInputs {
    let all = app_sets(seed, 0, 1000);
    let apps: Vec<AppSet> = all
        .into_iter()
        .enumerate()
        .filter(|(i, _)| REFIT_APPS.contains(i))
        .map(|(_, a)| a)
        .collect();
    let models: Vec<RefitModel> = (0..REFIT_MODELS)
        .map(|i| {
            let app = i % apps.len();
            RefitModel {
                id: ModelId::new(
                    format!("{}-{i}", apps[app].name.to_ascii_lowercase()),
                    "refit",
                    "time",
                ),
                app,
                initial: apps[app]
                    .bench
                    .sample_dataset(REFIT_INITIAL, mix(seed, 200 + i as u64)),
            }
        })
        .collect();
    let batches = (0..n_batches)
        .map(|k| {
            let m = k % REFIT_MODELS;
            let app = &apps[models[m].app];
            (
                m,
                app.bench
                    .sample_dataset(REFIT_BATCH, mix(seed, 10_000 + k as u64)),
            )
        })
        .collect();
    RefitInputs {
        apps,
        models,
        batches,
    }
}

/// Bitwise dataset equality (what "the same inputs" means).
#[cfg(test)]
pub fn same_dataset(a: &Dataset, b: &Dataset) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((xa, ya), (xb, yb))| {
            ya.to_bits() == yb.to_bits()
                && xa.len() == xb.len()
                && xa.iter().zip(xb).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_sets_repeat_per_seed_and_differ_across_seeds() {
        let a = app_sets(7, 64, 16);
        let b = app_sets(7, 64, 16);
        let c = app_sets(8, 64, 16);
        assert_eq!(a.len(), 6);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert!(same_dataset(&x.train, &y.train) && same_dataset(&x.test, &y.test));
            assert!(!same_dataset(&x.train, &z.train), "{}", x.name);
        }
    }

    #[test]
    fn serve_frames_repeat_per_seed_and_differ_across_seeds() {
        let a = serve_inputs(3, 4, 10, 2);
        let b = serve_inputs(3, 4, 10, 2);
        let c = serve_inputs(4, 4, 10, 2);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.warmup, b.warmup);
        assert_ne!(a.frames, c.frames);
        for f in &a.frames {
            assert_eq!(f.queries.len(), 4);
            assert_eq!(
                cpr_server::http::parse_query_body(f.body.as_bytes()).unwrap(),
                f.queries
            );
        }
        // Half the traffic targets the application models.
        let n_app = 6 * SERVE_APP_DRAWS;
        assert!(a
            .frames
            .iter()
            .step_by(2)
            .all(|f| f.model < n_app && f.class == f.model % 6));
        assert!(a
            .frames
            .iter()
            .skip(1)
            .step_by(2)
            .all(|f| f.model >= n_app && f.class == 6));
        for (d, e) in a.app_train.iter().zip(&c.app_train) {
            assert!(!same_dataset(d, e));
        }
    }

    #[test]
    fn refit_batches_repeat_per_seed_and_differ_across_seeds() {
        let a = refit_inputs(5, 20);
        let b = refit_inputs(5, 20);
        let c = refit_inputs(6, 20);
        assert_eq!(a.batches.len(), 20);
        for (((ma, da), (mb, db)), (_, dc)) in a.batches.iter().zip(&b.batches).zip(&c.batches) {
            assert_eq!(ma, mb);
            assert!(same_dataset(da, db));
            assert!(!same_dataset(da, dc));
        }
        for (x, y) in a.models.iter().zip(&b.models) {
            assert_eq!(x.id, y.id);
            assert!(same_dataset(&x.initial, &y.initial));
        }
    }
}
