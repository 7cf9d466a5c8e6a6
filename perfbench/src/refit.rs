//! The refit-path probes: telemetry batches submitted one at a time to a
//! `RefitPipeline` with a durable in-memory store, each waited on until it
//! resolves (gated swap or gate reject); then each layer a refit crosses,
//! timed on cloned trainers replaying the same batches.

use crate::kit::{refit_inputs, RefitInputs};
use crate::run::Checks;
use crate::stats::Metrics;
use crate::trace::Tracer;
use cpr_core::{holdout_metrics, serialize, CprBuilder, Dataset, FitSpec, StreamingCpr};
use cpr_registry::{ModelRegistry, PipelineConfig, PipelineStats, RefitPipeline, SwapOutcome};
use cpr_store::{FleetStore, MemFs};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Batches the probes replay: four rounds over the sixteen models. Few
/// enough that no model can trip its circuit breaker more than once (three
/// consecutive gate rejections), which bounds the breaker cooldowns the
/// replay can wait out.
const PROBE_BATCHES: usize = 64;
fn config() -> PipelineConfig {
    PipelineConfig {
        workers: 1,
        ..PipelineConfig::default()
    }
}

fn trainers(inp: &RefitInputs) -> Vec<StreamingCpr> {
    inp.models
        .iter()
        .map(|m| {
            let b = CprBuilder::new(inp.apps[m.app].space.clone()).with_spec(FitSpec::default());
            StreamingCpr::fit(&b, &m.initial).expect("initial streaming fit")
        })
        .collect()
}

/// Initial fits, then a pipeline over a fresh registry and store tracking
/// every model.
fn start(inp: &RefitInputs) -> RefitPipeline {
    let registry = Arc::new(ModelRegistry::new());
    let store = Arc::new(FleetStore::open(Arc::new(MemFs::new())).expect("in-memory store opens"));
    let pipeline = RefitPipeline::with_store(registry, config(), store);
    for (m, t) in inp.models.iter().zip(trainers(inp)) {
        pipeline.track(m.id.clone(), t);
    }
    pipeline
}

/// Refit errors: batches accepted but never swapped or gate-rejected.
fn refit_errors(s: &PipelineStats) -> u64 {
    s.dropped_jobs + s.orphaned
}

/// Submit every batch in order through `pipeline`, each waited on until
/// it resolves. Returns the submit-to-resolution time of every batch that
/// did not wait out a breaker cooldown (that wait is a timer, not work,
/// and is counted in `pipeline.deferred` instead) and how many batches
/// never reached a refit outcome (refused at submit, or fully
/// quarantined).
fn replay(pipeline: &RefitPipeline, inp: &RefitInputs) -> (Vec<f64>, u64) {
    let mut e2e_s = Vec::new();
    let mut unresolved = 0;
    for (m, batch) in &inp.batches {
        let deferred = pipeline.stats().deferred;
        let t = Instant::now();
        match pipeline.submit(&inp.models[*m].id, batch) {
            Ok(receipt) if receipt.accepted > 0 => pipeline.wait_idle(),
            _ => unresolved += 1,
        }
        let dt = t.elapsed().as_secs_f64();
        if pipeline.stats().deferred == deferred {
            e2e_s.push(dt);
        }
    }
    (e2e_s, unresolved)
}

/// Refit-path probes: a short pipeline replay for the end-to-end latency
/// and outcome counts, then each layer a refit crosses, timed on cloned
/// trainers replaying the same batches with the pipeline's holdout split.
pub fn probe(seed: u64, layers: &mut Metrics, tr: &mut Tracer, checks: &mut Checks) {
    let inp = refit_inputs(seed, PROBE_BATCHES);
    let root = tr.open("probe.refit", None);
    let pipeline = start(&inp);
    let (e2e_s, unresolved) = replay(&pipeline, &inp);
    let s = pipeline.stats();
    checks.check(unresolved == 0 && refit_errors(&s) == 0, || {
        format!("probe replay failed: {s:?}")
    });
    pipeline.shutdown();

    let cfg = config();
    let every = (1.0 / cfg.holdout_frac).round() as usize;
    let mut committed = trainers(&inp);
    let mut holdouts: Vec<VecDeque<(Vec<f64>, f64)>> = vec![VecDeque::new(); committed.len()];
    let registry = ModelRegistry::new();
    for (m, t) in inp.models.iter().zip(&committed) {
        registry.insert(m.id.clone(), t.model().clone());
    }
    let store = FleetStore::open(Arc::new(MemFs::new())).expect("in-memory store opens");
    let mut t = Samples::default();
    for (k, (mi, batch)) in inp.batches.iter().enumerate() {
        let id = &inp.models[*mi].id;
        let key = id.store_key();
        // The pipeline's split: every `every`-th sample goes to the holdout.
        let mut train = Vec::new();
        for (i, (x, y)) in batch.iter().enumerate() {
            if (i + 1) % every == 0 {
                if holdouts[*mi].len() >= cfg.holdout_cap {
                    holdouts[*mi].pop_front();
                }
                holdouts[*mi].push_back((x.to_vec(), y));
            } else {
                train.push((x.to_vec(), y));
            }
        }
        let train = Dataset::from_pairs(train);
        let rows: Vec<Vec<f64>> = batch
            .iter()
            .map(|(x, y)| x.iter().copied().chain([y]).collect())
            .collect();
        timed(&mut t.wal, tr, "store.wal_append", root, || {
            store
                .wal()
                .append(&key, k as u64, &rows)
                .expect("in-memory WAL append");
        });
        let mut absorbed = committed[*mi].clone();
        timed(&mut t.absorb, tr, "core.absorb", root, || {
            absorbed.absorb(&train).expect("absorb a valid batch");
        });
        let mut cand = timed(&mut t.clone, tr, "core.clone", root, || {
            committed[*mi].clone()
        });
        timed(&mut t.update, tr, "core.update", root, || {
            cand.update(&train, cfg.sweep_budget)
                .expect("refit a valid batch");
        });
        let live = registry.plan(id).expect("probe model is loaded");
        let cand_plan = cand.model().shared_plan();
        let hold = &holdouts[*mi];
        let pass = timed(&mut t.holdout, tr, "core.holdout_eval", root, || {
            let pairs = || hold.iter().map(|(x, y)| (x.as_slice(), *y));
            let c = holdout_metrics(|x| cand_plan.predict(x), pairs()).expect("non-empty holdout");
            let l = holdout_metrics(|x| live.predict(x), pairs()).expect("non-empty holdout");
            c.mlogq <= l.mlogq * (1.0 + cfg.gate_slack) + 1e-12
        });
        if !pass {
            committed[*mi] = absorbed;
            continue;
        }
        let (bytes, loaded) = timed(&mut t.serialize, tr, "core.serialize", root, || {
            let bytes = serialize::to_bytes(cand.model()).as_ref().to_vec();
            let loaded = serialize::from_bytes(&bytes).expect("fresh bytes parse");
            (bytes, loaded)
        });
        let swapped = timed(&mut t.swap, tr, "registry.swap", root, || {
            registry.swap_if_current(id, loaded, &live)
        });
        checks.check(swapped == SwapOutcome::Swapped, || {
            format!("probe swap of {id} raced")
        });
        timed(&mut t.persist, tr, "store.persist", root, || {
            store
                .snapshots()
                .persist(&key, &bytes)
                .expect("in-memory persist");
        });
        committed[*mi] = cand;
    }
    tr.close(root);

    // Means, so the parts and the end-to-end time add up.
    let us = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64 * 1e6;
    let parts = [
        ("core.clone_us", us(&t.clone)),
        ("core.update_us", us(&t.update)),
        ("core.holdout_eval_us", us(&t.holdout)),
        ("core.serialize_us", us(&t.serialize)),
        ("store.persist_us", us(&t.persist)),
        ("store.wal_append_us", us(&t.wal)),
        ("registry.swap_us", us(&t.swap)),
    ];
    let e2e = us(&e2e_s);
    layers.put("core.absorb_us", us(&t.absorb), "us");
    for (name, v) in parts {
        layers.put(name, v, "us");
    }
    layers.put("pipeline.e2e_mean_us", e2e, "us");
    layers.put(
        "pipeline.overhead_us",
        e2e - parts.iter().map(|(_, v)| v).sum::<f64>(),
        "us",
    );
    layers.put("pipeline.swapped", s.swapped as f64, "count");
    layers.put("pipeline.gate_rejected", s.gate_rejected as f64, "count");
    layers.put("pipeline.deferred", s.deferred as f64, "count");
    layers.put("pipeline.retries", s.retries as f64, "count");
    layers.put(
        "pipeline.swap_ratio",
        s.swapped as f64 / s.submitted.max(1) as f64,
        "ratio",
    );
}

/// Per-layer durations (seconds) collected by the refit probe.
#[derive(Default)]
struct Samples {
    wal: Vec<f64>,
    absorb: Vec<f64>,
    clone: Vec<f64>,
    update: Vec<f64>,
    holdout: Vec<f64>,
    serialize: Vec<f64>,
    swap: Vec<f64>,
    persist: Vec<f64>,
}

/// Time `f` as a child span of `parent` and keep its duration.
fn timed<R>(
    into: &mut Vec<f64>,
    tr: &mut Tracer,
    name: &str,
    parent: usize,
    f: impl FnOnce() -> R,
) -> R {
    let (r, dt) = tr.time(name, Some(parent), f);
    into.push(dt);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_outcomes_repeat_exactly_per_seed() {
        let inp = refit_inputs(3, 48);
        let run = || {
            let pipeline = start(&inp);
            let (_, unresolved) = replay(&pipeline, &inp);
            let s = pipeline.stats();
            pipeline.shutdown();
            (
                s.swapped,
                s.gate_rejected,
                s.deferred,
                s.retries,
                unresolved,
            )
        };
        let first = run();
        assert_eq!(first.0 + first.1, 48, "{first:?}");
        assert_eq!(first, run());
    }
}
