//! Crash-safe fleet durability, end to end: the refit pipeline persists
//! every gated swap to the snapshot store and logs every submitted batch
//! to the telemetry WAL, so a restart can (1) restore the fleet exactly
//! as of the last durable generation via [`ModelRegistry::restore`],
//! (2) re-attach trainers with [`RefitPipeline::track_restored`] +
//! [`StreamingCpr::resume`], and (3) replay un-absorbed WAL batches with
//! [`RefitPipeline::replay`]. A registry-level kill-point sweep (the IO
//! twin of `tests/fault_injection.rs`) crashes the filesystem at every
//! mutating-op index of a deterministic scenario and asserts recovery
//! always yields a complete, parseable, durable fleet — and that the
//! surviving process kept serving while its disk was dead.

use cpr_core::{serialize, CprBuilder, Dataset, StreamingCpr};
use cpr_grid::{ParamSpace, ParamSpec};
use cpr_registry::{BreakerConfig, ModelId, ModelRegistry, PipelineConfig, RefitPipeline};
use cpr_store::{Fault, FaultFs, FleetStore, MemFs, WalLimits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamSpec::log("m", 32.0, 2048.0),
        ParamSpec::log("n", 32.0, 2048.0),
    ])
}

fn telemetry(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new();
    for _ in 0..n {
        let m = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        let nn = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        data.push(vec![m, nn], 1e-4 * m.powf(1.3) * nn.powf(0.7));
    }
    data
}

fn trainer(seed: u64) -> StreamingCpr {
    let builder = CprBuilder::new(space())
        .cells_per_dim(6)
        .rank(2)
        .regularization(1e-7)
        .seed(seed);
    StreamingCpr::fit(&builder, &telemetry(80, seed)).unwrap()
}

fn probe_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            vec![
                32.0 * 64.0_f64.powf(rng.gen::<f64>()),
                32.0 * 64.0_f64.powf(rng.gen::<f64>()),
            ]
        })
        .collect()
}

/// One worker so the (submit → refit → persist) filesystem-op sequence
/// is deterministic for the kill-point sweep.
fn serial_cfg() -> PipelineConfig {
    PipelineConfig {
        workers: 1,
        retry_backoff: Duration::from_millis(1),
        retry_backoff_max: Duration::from_millis(10),
        ..PipelineConfig::default()
    }
}

/// Restore the fleet from the store into a fresh registry + pipeline and
/// re-attach a resumed trainer per restored model. Deliberately does NOT
/// replay the WAL — callers assert on the restored (pre-replay) state
/// first, then call [`RefitPipeline::replay`] themselves, because replay
/// queues refits that can legitimately swap models at any moment after.
fn restore_fleet(store: Arc<FleetStore>) -> (Arc<ModelRegistry>, RefitPipeline) {
    let registry = Arc::new(ModelRegistry::new());
    let report = registry.restore(&store).expect("restore must succeed");
    assert!(
        report.skipped.is_empty(),
        "a verified snapshot store never yields unparseable models: {:?}",
        report.skipped
    );
    let pipeline = RefitPipeline::with_store(registry.clone(), serial_cfg(), store.clone());
    let snap = store.snapshots().load().unwrap();
    for id in &report.restored {
        let bytes = snap
            .get(&id.store_key())
            .expect("restored id must be in the snapshot")
            .to_vec();
        let model = serialize::from_bytes(&bytes).unwrap();
        pipeline.track_restored(id.clone(), StreamingCpr::resume(model).unwrap());
    }
    (registry, pipeline)
}

#[test]
fn persist_on_swap_then_restore_and_replay_roundtrip() {
    let store = Arc::new(FleetStore::open(Arc::new(MemFs::new())).unwrap());
    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::with_store(registry.clone(), serial_cfg(), store.clone());
    let id = ModelId::new("gemm", "stampede2", "time");
    pipeline.track(id.clone(), trainer(1));

    for seed in 10..14 {
        pipeline.submit(&id, &telemetry(120, seed)).unwrap();
    }
    pipeline.wait_idle();

    let stats = pipeline.stats();
    assert_eq!(stats.wal_appends, 4, "every batch logged before queueing");
    assert_eq!(stats.wal_append_failed, 0);
    assert_eq!(
        stats.swapped,
        stats.persisted + stats.persist_failed,
        "every gated swap must resolve its persist: {stats:?}"
    );
    assert_eq!(stats.persist_failed, 0, "MemFs never fails: {stats:?}");
    assert!(stats.persisted >= 1, "at least one swap must persist");
    // Logged batches either compacted (absorbed into a durable snapshot)
    // or still pending in the log — none invented, none lost.
    let in_log = store.wal().replay().unwrap().entries.len() as u64;
    assert_eq!(in_log + stats.compacted, stats.wal_appends);

    // Health reports the durable generation the model reached.
    let health = pipeline.health(&id).unwrap();
    assert_eq!(
        health.durable_generation,
        Some(store.snapshots().generation())
    );

    // What the live registry serves right now == the last durable bytes.
    let probes = probe_points(32, 77);
    let served_before: Vec<u64> = probes
        .iter()
        .map(|x| registry.predict(&id, x).unwrap().to_bits())
        .collect();
    pipeline.shutdown();
    drop(registry);

    // "Restart": fresh registry + pipeline over the same store.
    let (registry2, pipeline2) = restore_fleet(store.clone());
    assert_eq!(registry2.ids(), vec![id.clone()]);
    let served_after: Vec<u64> = probes
        .iter()
        .map(|x| registry2.predict(&id, x).unwrap().to_bits())
        .collect();
    assert_eq!(
        served_after, served_before,
        "restored fleet must serve bitwise what the last durable generation served"
    );
    let replay = pipeline2.replay().unwrap();
    assert_eq!(replay.replayed, in_log, "every logged batch re-submitted");
    assert_eq!(replay.orphaned, 0);
    assert_eq!(replay.rejected, 0);
    assert!(!replay.torn);

    // Replayed batches refit, swap, persist — and compact out of the log.
    pipeline2.wait_idle();
    let stats2 = pipeline2.stats();
    assert_eq!(stats2.replayed, replay.replayed);
    assert_eq!(stats2.swapped, stats2.persisted + stats2.persist_failed);
    assert!(
        (store.wal().replay().unwrap().entries.len() as u64) <= in_log,
        "replayed batches must not re-accumulate in the log"
    );
    pipeline2.shutdown();
}

#[test]
fn wal_append_failure_degrades_but_batch_still_refits() {
    // Disk full on the very first mutating op — the first WAL append.
    let fault = FaultFs::new(Arc::new(MemFs::new()));
    fault.arm(0, Fault::NoSpace);
    let store = Arc::new(FleetStore::open(Arc::new(fault.clone())).unwrap());
    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::with_store(registry.clone(), serial_cfg(), store.clone());
    let id = ModelId::new("gemm", "stampede2", "time");
    pipeline.track(id.clone(), trainer(1));

    pipeline.submit(&id, &telemetry(120, 10)).unwrap();
    pipeline.submit(&id, &telemetry(120, 11)).unwrap();
    pipeline.wait_idle();

    let stats = pipeline.stats();
    assert_eq!(stats.wal_append_failed, 1, "first append hit ENOSPC");
    assert_eq!(stats.wal_appends, 1, "second append went through");
    assert_eq!(stats.submitted, 2, "both batches still admitted");
    assert_eq!(
        stats.swapped + stats.gate_rejected,
        2,
        "durability loss must not cost refits: {stats:?}"
    );
    assert_eq!(stats.swapped, stats.persisted + stats.persist_failed);
    assert!(registry.predict(&id, &[300.0, 300.0]).is_ok());
    pipeline.shutdown();
}

/// The deterministic scenario the kill-point sweep replays: two tracked
/// models, three batches, `wait_idle` between submits so the fs-op
/// sequence (append → refit → persist → compact → gc) is identical run
/// to run up to the armed fault.
fn scenario(pipeline: &RefitPipeline, a: &ModelId, b: &ModelId) {
    pipeline.track(a.clone(), trainer(1));
    pipeline.track(b.clone(), trainer(2));
    for (id, seed) in [(a, 20), (b, 21), (a, 22)] {
        pipeline.submit(id, &telemetry(120, seed)).unwrap();
        pipeline.wait_idle();
    }
}

#[test]
fn kill_point_sweep_recovers_a_complete_durable_fleet() {
    let a = ModelId::new("gemm", "stampede2", "time");
    let b = ModelId::new("spmv", "frontera", "flops");

    // Clean run: measure the scenario's mutating-op count and record the
    // generation it ends on.
    let clean_fs = FaultFs::new(Arc::new(MemFs::new()));
    let clean_store = Arc::new(FleetStore::open(Arc::new(clean_fs.clone())).unwrap());
    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::with_store(registry.clone(), serial_cfg(), clean_store.clone());
    scenario(&pipeline, &a, &b);
    pipeline.shutdown();
    let n = clean_fs.ops();
    let clean_gen = clean_store.snapshots().generation();
    assert!(n >= 10, "scenario too small for a sweep: {n} ops");
    assert!(clean_gen >= 1, "clean scenario must persist at least once");

    for k in 0..n {
        // The disk dies at op k; the process keeps going.
        let fs = FaultFs::new(Arc::new(MemFs::new()));
        fs.arm(k, Fault::Crash);
        let store = Arc::new(FleetStore::open(Arc::new(fs.clone())).unwrap());
        let registry = Arc::new(ModelRegistry::new());
        let pipeline = RefitPipeline::with_store(registry.clone(), serial_cfg(), store.clone());
        scenario(&pipeline, &a, &b);
        assert_eq!(fs.fired(), 1, "fault at op {k} never fired");

        // Never-stop-serving: a dead disk costs durability, not serving.
        let stats = pipeline.stats();
        assert_eq!(
            stats.swapped + stats.gate_rejected + stats.dropped_jobs + stats.orphaned,
            3,
            "all 3 jobs must terminally resolve despite the dead disk at op {k}: {stats:?}"
        );
        assert_eq!(
            stats.swapped,
            stats.persisted + stats.persist_failed,
            "persist accounting must balance at op {k}: {stats:?}"
        );
        for id in [&a, &b] {
            assert!(
                registry.predict(id, &[300.0, 300.0]).is_ok(),
                "model {id:?} must keep serving after disk death at op {k}"
            );
        }
        pipeline.shutdown();

        // Restart from what actually reached the medium.
        let store2 = Arc::new(FleetStore::open(fs.inner()).unwrap());
        let gen = store2.snapshots().generation();
        assert!(
            gen <= clean_gen,
            "recovered gen {gen} beyond clean {clean_gen} at op {k}"
        );
        let (registry2, pipeline2) = restore_fleet(store2.clone());

        // The restored fleet is exactly the durable snapshot — every
        // model parses, serves, and round-trips to its stored bytes.
        let snap = store2.snapshots().load().unwrap();
        assert_eq!(registry2.len(), snap.models.len());
        for (key, bytes) in &snap.models {
            let id = ModelId::from_store_key(key).unwrap();
            let restored = pipeline2.tracked_model(&id).unwrap();
            assert_eq!(
                &serialize::to_bytes(&restored)[..],
                &bytes[..],
                "restored {id:?} must be bitwise the durable snapshot at op {k}"
            );
            assert!(registry2.predict(&id, &[300.0, 300.0]).is_ok());
        }
        pipeline2.replay().expect("replay must succeed");

        // The recovered pipeline is fully healthy: new telemetry refits
        // and persists a fresh generation on the revived disk.
        if !snap.models.is_empty() {
            let id = ModelId::from_store_key(&snap.models[0].0).unwrap();
            pipeline2.submit(&id, &telemetry(120, 30)).unwrap();
            pipeline2.wait_idle();
            let s2 = pipeline2.stats();
            assert_eq!(s2.swapped, s2.persisted + s2.persist_failed);
            assert_eq!(
                s2.persist_failed, 0,
                "revived disk must persist at op {k}: {s2:?}"
            );
        }
        pipeline2.shutdown();
    }
}

#[test]
fn gate_keeps_rejecting_never_grows_the_wal_unbounded() {
    // The pathology the WAL caps exist for: entries only compact when a
    // gated swap persists, so a gate that keeps rejecting starves
    // compaction while telemetry keeps getting logged. The caps must
    // rotate the oldest records away and hold the log bounded — without
    // costing refit accounting or moving the served plan.
    let limits = WalLimits {
        max_bytes: 16 << 10,
        max_records: 8,
    };
    let store = Arc::new(FleetStore::open_with_wal_limits(Arc::new(MemFs::new()), limits).unwrap());
    let cfg = PipelineConfig {
        // gate_slack <= -1.0 demands a negative holdout error: every
        // candidate loses, no swap ever persists, nothing ever compacts.
        gate_slack: -2.0,
        // Gate rejections count as breaker failures; keep the breaker
        // closed so the test measures WAL starvation, not cooldowns.
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            ..BreakerConfig::default()
        },
        ..serial_cfg()
    };
    let registry = Arc::new(ModelRegistry::new());
    let pipeline = RefitPipeline::with_store(registry.clone(), cfg, store.clone());
    let id = ModelId::new("gemm", "stampede2", "time");
    let t = trainer(1);
    let original = t.model().clone();
    pipeline.track(id.clone(), t);

    const BATCHES: u64 = 40;
    for seed in 0..BATCHES {
        pipeline.submit(&id, &telemetry(60, 100 + seed)).unwrap();
        pipeline.wait_idle();
        // Bounded at every point of the starvation, not just at the end.
        let (bytes, records) = store.wal().usage().unwrap();
        assert!(
            records <= limits.max_records,
            "record cap broke after batch {seed}: {records}"
        );
        assert!(
            bytes <= limits.max_bytes,
            "byte cap broke after batch {seed}: {bytes}"
        );
    }

    let stats = pipeline.stats();
    assert_eq!(
        stats.gate_rejected, BATCHES,
        "impossible gate must reject every refit: {stats:?}"
    );
    assert_eq!(stats.swapped, 0);
    assert_eq!(stats.wal_appends, BATCHES, "every batch still logged");
    assert_eq!(stats.compacted, 0, "no persist ever ran");
    assert!(
        store.wal().rotations() > 0,
        "the caps must actually have rotated"
    );
    assert!(store.wal().rotated_records() >= BATCHES - limits.max_records as u64);

    // What survives is a clean, ordered suffix of the newest records.
    let replay = store.wal().replay().unwrap();
    assert!(!replay.torn);
    assert!(
        !replay.entries.is_empty(),
        "the newest record always survives"
    );
    assert!(replay.entries.len() <= limits.max_records);
    let seqs: Vec<u64> = replay.entries.iter().map(|e| e.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted, "rotation must preserve append order");

    // And the served plan never moved off the original.
    for x in probe_points(16, 9) {
        assert_eq!(
            registry.predict(&id, &x).unwrap().to_bits(),
            original.predict(&x).to_bits(),
            "gate rejections must leave the original plan serving"
        );
    }
    pipeline.shutdown();
}

#[test]
fn restore_under_readers_never_stops_serving() {
    let id = ModelId::new("gemm", "stampede2", "time");
    let old_model = trainer(1).model().clone();
    let new_model = trainer(2).model().clone();

    // A store holding the new generation, built via snapshot_into.
    let store = FleetStore::open(Arc::new(MemFs::new())).unwrap();
    let source = ModelRegistry::new();
    source.insert(id.clone(), new_model.clone());
    source.snapshot_into(&store).unwrap();

    // A live registry serving the old generation under reader pressure.
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(id.clone(), old_model.clone());

    let stop = Arc::new(AtomicBool::new(false));
    let probes = probe_points(16, 99);
    let old_bits: Vec<u64> = probes
        .iter()
        .map(|x| old_model.predict(x).to_bits())
        .collect();
    let new_bits: Vec<u64> = probes
        .iter()
        .map(|x| new_model.predict(x).to_bits())
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let registry = registry.clone();
            let stop = stop.clone();
            let id = id.clone();
            let probes = probes.clone();
            let (old_bits, new_bits) = (old_bits.clone(), new_bits.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for (i, x) in probes.iter().enumerate() {
                        let y = registry
                            .predict(&id, x)
                            .expect("serving must never pause during restore")
                            .to_bits();
                        assert!(
                            y == old_bits[i] || y == new_bits[i],
                            "served value must be exactly one generation or the other"
                        );
                    }
                }
            })
        })
        .collect();

    // Restore hot-swaps the new generation in under the readers.
    for _ in 0..20 {
        let report = registry.restore(&store).unwrap();
        assert_eq!(report.restored, vec![id.clone()]);
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    // Readers drained; the fleet now serves the restored generation.
    for (i, x) in probes.iter().enumerate() {
        assert_eq!(registry.predict(&id, x).unwrap().to_bits(), new_bits[i]);
    }
}

/// A model whose training left grid rows unobserved (its telemetry only
/// covers `m ≤ 512` of the `m` axis) serves bitwise the same from a restored fleet as from
/// the registry it was snapshotted from, on both the single and the
/// batched entry points: its observed-row masks travel with it.
#[test]
fn restored_fleet_serves_masked_models_bitwise() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut data = Dataset::new();
    for _ in 0..400 {
        let m = 32.0 * 16.0_f64.powf(rng.gen::<f64>());
        let n = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        data.push(vec![m, n], 1e-4 * m.powf(1.3) * n.powf(0.7));
    }
    let model = CprBuilder::new(space())
        .cells_per_dim(6)
        .rank(2)
        .fit(&data)
        .unwrap();
    let unmasked = cpr_core::CprModel::from_parts(
        model.space().clone(),
        &model.grid().dims(),
        model.decomposition().clone(),
        model.loss(),
        model.log_offset(),
    )
    .unwrap();
    let id = ModelId::new("qr", "stampede2", "time");
    let registry = ModelRegistry::new();
    registry.insert(id.clone(), model.clone());
    let store = FleetStore::open(Arc::new(MemFs::new())).unwrap();
    registry.snapshot_into(&store).unwrap();
    let restored = ModelRegistry::new();
    assert_eq!(restored.restore(&store).unwrap().restored, vec![id.clone()]);

    let probes = probe_points(256, 9);
    let far = std::time::Instant::now() + Duration::from_secs(3600);
    let batch = restored.serve_model_deadline(&id, &probes, far).unwrap();
    let mut differs = false;
    for (x, y) in probes.iter().zip(&batch) {
        let want = registry.predict(&id, x).unwrap().to_bits();
        assert_eq!(want, model.predict(x).to_bits());
        assert_eq!(restored.predict(&id, x).unwrap().to_bits(), want);
        assert_eq!(y.to_bits(), want);
        differs |= unmasked.predict(x).to_bits() != want;
    }
    assert!(differs, "the fit should leave rows unobserved");
}
