//! Deadline-aware serving entry points: bitwise equality with the
//! unbounded paths, shed-before-work on expired budgets, clean rejection
//! of malformed queries, and the shed-accounting identity under
//! concurrent load (PR 7 churn-accounting style): every deadline-aware
//! call lands in exactly one of {served, deadline_shed, malformed,
//! miss}, and the registry counters reconcile exactly once the load
//! drains.

mod common;

use common::{id_of, load_fleet};
use cpr_bench::fixtures::{fleet, fleet_queries};
use cpr_registry::{ModelId, ModelRegistry, RegistryError, DEADLINE_CHECK_CHUNK};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn generous() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

#[test]
fn deadline_serving_matches_unbounded_bitwise() {
    let models = fleet(16, 11);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let ids: Vec<ModelId> = models.iter().map(id_of).collect();
    // Big enough to exercise several deadline-check chunks per group.
    let queries = fleet_queries(models.len(), 3 * DEADLINE_CHECK_CHUNK, 5);
    let batch: Vec<(ModelId, Vec<f64>)> = queries
        .iter()
        .map(|(who, x)| (ids[*who].clone(), x.clone()))
        .collect();

    let unbounded = registry.serve_batch(&batch).unwrap();
    let bounded = registry.serve_batch_deadline(&batch, generous()).unwrap();
    assert_eq!(unbounded.len(), bounded.len());
    for (a, b) in unbounded.iter().zip(&bounded) {
        assert_eq!(a.to_bits(), b.to_bits(), "chunked deadline path drifted");
    }
    for (id, x) in batch.iter().take(64) {
        let direct = registry.predict(id, x).unwrap();
        let dl = registry.predict_deadline(id, x, generous()).unwrap();
        assert_eq!(direct.to_bits(), dl.to_bits());
    }
}

#[test]
fn expired_deadline_sheds_before_any_work() {
    let models = fleet(4, 3);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let id = id_of(&models[0]);
    let x = fleet_queries(models.len(), 1, 1)[0].1.clone();

    let before = registry.stats();
    let past = Instant::now();
    assert_eq!(
        registry.predict_deadline(&id, &x, past),
        Err(RegistryError::DeadlineExceeded)
    );
    let batch = vec![(id.clone(), x.clone()); 8];
    assert_eq!(
        registry.serve_batch_deadline(&batch, past),
        Err(RegistryError::DeadlineExceeded)
    );
    let after = registry.stats();
    assert_eq!(after.deadline_shed, before.deadline_shed + 2);
    // Shed means shed: no query was served on either path.
    assert_eq!(after.dense_hits, before.dense_hits);
    assert_eq!(after.gather_hits, before.gather_hits);
}

#[test]
fn malformed_queries_reject_cleanly_with_no_work() {
    let models = fleet(4, 7);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let id = id_of(&models[0]);
    let good = fleet_queries(models.len(), 4, 2)[0].1.clone();

    let before = registry.stats();
    // Wrong dimension.
    let mut too_long = good.clone();
    too_long.push(1.0);
    assert!(matches!(
        registry.predict_deadline(&id, &too_long, generous()),
        Err(RegistryError::MalformedQuery(_))
    ));
    // Non-finite coordinates.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut q = good.clone();
        q[0] = bad;
        assert!(matches!(
            registry.predict_deadline(&id, &q, generous()),
            Err(RegistryError::MalformedQuery(_))
        ));
    }
    // One bad query anywhere fails the whole batch before any compute.
    let mut nan_query = good.clone();
    nan_query[0] = f64::NAN;
    let mut batch = vec![(id.clone(), good.clone()); 6];
    batch.push((id.clone(), nan_query));
    assert!(matches!(
        registry.serve_batch_deadline(&batch, generous()),
        Err(RegistryError::MalformedQuery(_))
    ));
    let after = registry.stats();
    assert_eq!(after.malformed, before.malformed + 5);
    assert_eq!(after.dense_hits, before.dense_hits);
    assert_eq!(after.gather_hits, before.gather_hits);
    assert_eq!(after.deadline_shed, before.deadline_shed);
}

#[test]
fn unknown_model_is_a_miss_not_a_shed() {
    let registry = ModelRegistry::new();
    let ghost = ModelId::new("ghost", "nowhere", "time");
    assert!(matches!(
        registry.predict_deadline(&ghost, &[1.0], generous()),
        Err(RegistryError::UnknownModel(_))
    ));
    let stats = registry.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.deadline_shed, 0);
    assert_eq!(stats.malformed, 0);
}

/// The single-model entry point answers bitwise what the mixed-batch
/// path and `predict` answer, over several deadline-check chunks, and
/// keeps the batch rules: validate everything first, shed on an expired
/// deadline, count a miss for an unknown id — one bucket per call.
#[test]
fn single_model_serving_matches_batch_and_keeps_its_rules() {
    let models = fleet(4, 13);
    let registry = ModelRegistry::new();
    load_fleet(&registry, &models);
    let id = id_of(&models[1]);
    let xs: Vec<Vec<f64>> = fleet_queries(models.len(), 3 * DEADLINE_CHECK_CHUNK, 17)
        .into_iter()
        .map(|(_, x)| x)
        .collect();
    let batch: Vec<(ModelId, Vec<f64>)> = xs.iter().map(|x| (id.clone(), x.clone())).collect();

    let before = registry.stats();
    let single = registry.serve_model_deadline(&id, &xs, generous()).unwrap();
    let mixed = registry.serve_batch_deadline(&batch, generous()).unwrap();
    assert_eq!(single.len(), xs.len());
    for ((a, b), x) in single.iter().zip(&mixed).zip(&xs) {
        assert_eq!(a.to_bits(), b.to_bits(), "single-model path drifted");
        assert_eq!(a.to_bits(), registry.predict(&id, x).unwrap().to_bits());
    }
    let served = registry.stats();
    let hits = |s: &cpr_registry::RegistryStats| s.dense_hits + s.gather_hits;
    assert_eq!(hits(&served), hits(&before) + 3 * xs.len() as u64);

    let mut bad = xs[..8].to_vec();
    bad[5][0] = f64::NAN;
    assert!(matches!(
        registry.serve_model_deadline(&id, &bad, generous()),
        Err(RegistryError::MalformedQuery(_))
    ));
    assert_eq!(
        registry.serve_model_deadline(&id, &xs, Instant::now()),
        Err(RegistryError::DeadlineExceeded)
    );
    let ghost = ModelId::new("ghost", "nowhere", "time");
    assert!(matches!(
        registry.serve_model_deadline(&ghost, &xs, generous()),
        Err(RegistryError::UnknownModel(_))
    ));
    let after = registry.stats();
    assert_eq!(after.malformed, served.malformed + 1);
    assert_eq!(after.deadline_shed, served.deadline_shed + 1);
    assert_eq!(after.misses, served.misses + 1);
    assert_eq!(
        hits(&after),
        hits(&served),
        "a rejected call served nothing"
    );
}

/// Shed-accounting identity under concurrent load: four thread roles
/// hammer the deadline path (served / expired-deadline / malformed /
/// unknown-model) while a sampler takes stats snapshots. Every snapshot
/// must satisfy `served + deadline_shed + malformed + misses <= issued`
/// with monotone counters, and the drained end state reconciles exactly:
/// each call bumped exactly one bucket.
#[test]
fn concurrent_shed_accounting_reconciles_exactly() {
    const THREADS_PER_ROLE: usize = 2;
    const CALLS: u64 = 400;

    let models = fleet(8, 21);
    let registry = Arc::new(ModelRegistry::new());
    load_fleet(&registry, &models);
    let id = id_of(&models[0]);
    let good = fleet_queries(models.len(), 1, 9)[0].1.clone();
    let ghost = ModelId::new("ghost", "nowhere", "time");
    let mut nan_query = good.clone();
    nan_query[0] = f64::NAN;

    let issued = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(4 * THREADS_PER_ROLE + 1));
    let mut handles = Vec::new();
    for role in 0..4 {
        for _ in 0..THREADS_PER_ROLE {
            let registry = Arc::clone(&registry);
            let issued = Arc::clone(&issued);
            let start = Arc::clone(&start);
            let id = id.clone();
            let ghost = ghost.clone();
            let good = good.clone();
            let nan_query = nan_query.clone();
            handles.push(std::thread::spawn(move || {
                start.wait();
                for _ in 0..CALLS {
                    // Count the call *before* it lands so a sampler can
                    // never see a bucket ahead of the issue counter.
                    issued.fetch_add(1, Ordering::SeqCst);
                    let r = match role {
                        0 => registry.predict_deadline(&id, &good, generous()),
                        1 => registry.predict_deadline(&id, &good, Instant::now()),
                        2 => registry.predict_deadline(&id, &nan_query, generous()),
                        _ => registry.predict_deadline(&ghost, &good, generous()),
                    };
                    match (role, r) {
                        (0, Ok(_)) => {}
                        (1, Err(RegistryError::DeadlineExceeded)) => {}
                        (2, Err(RegistryError::MalformedQuery(_))) => {}
                        (3, Err(RegistryError::UnknownModel(_))) => {}
                        (role, r) => panic!("role {role} got unexpected result {r:?}"),
                    }
                }
            }));
        }
    }
    let sampler = {
        let registry = Arc::clone(&registry);
        let issued = Arc::clone(&issued);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            let total = 4 * THREADS_PER_ROLE as u64 * CALLS;
            let mut last_sum = 0u64;
            while issued.load(Ordering::SeqCst) < total {
                let s = registry.stats();
                let sum = s.dense_hits + s.gather_hits + s.deadline_shed + s.malformed + s.misses;
                assert!(sum >= last_sum, "shed accounting went backwards");
                assert!(
                    sum <= issued.load(Ordering::SeqCst),
                    "buckets ran ahead of issued calls: {sum}"
                );
                last_sum = sum;
                std::thread::yield_now();
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    sampler.join().unwrap();

    let per_role = THREADS_PER_ROLE as u64 * CALLS;
    let s = registry.stats();
    assert_eq!(s.dense_hits + s.gather_hits, per_role, "served bucket");
    assert_eq!(s.deadline_shed, per_role, "deadline bucket");
    assert_eq!(s.malformed, per_role, "malformed bucket");
    assert_eq!(s.misses, per_role, "miss bucket");
}
