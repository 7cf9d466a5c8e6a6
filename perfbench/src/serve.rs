//! `serve_single` and `serve_batch`: a keep-alive loopback client against
//! `CprServer`, over a fleet restored from a snapshot; and the serving
//! layer probes (wire parse, registry, plan evaluation, cold start,
//! metrics scrape).

use crate::fit::builder;
use crate::kit::{serve_inputs, Frame, ServeInputs, SERVE_APP_DRAWS};
use crate::run::{closed_loop, Args, Checks, Report};
use crate::stats::{geomean, median, median_secs, Metrics};
use crate::trace::Tracer;
use cpr_core::{holdout_metrics, serialize, CprModel};
use cpr_registry::{ModelId, ModelRegistry};
use cpr_server::chaos::ClientConn;
use cpr_server::{http, CprServer, ServerConfig};
use cpr_store::{FleetStore, MemFs};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per request on `serve_batch`: below the plan's 256-query
/// parallel chunk, so the batch path never enters the thread pool.
pub const BATCH_QUERIES: usize = 64;
/// Distinct measured frames; the operation sequence cycles through them.
fn distinct_frames(per_request: usize) -> usize {
    if per_request == 1 {
        8192
    } else {
        1024
    }
}
const WARMUP_REQUESTS: usize = 64;

/// Operations per timing block: a whole number of traffic rounds (the six
/// applications' models round-robin on even requests), about a hundred or
/// more blocks per run.
fn block(per_request: usize) -> usize {
    let round = 2 * 6 * SERVE_APP_DRAWS;
    if per_request == 1 {
        20 * round
    } else {
        5 * round
    }
}
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// The served fleet, committed to an in-memory snapshot store before any
/// clock starts: the fixture fleet plus `SERVE_APP_DRAWS` fitted models
/// per application.
pub struct Fleet {
    pub inputs: ServeInputs,
    pub store: FleetStore,
}

pub fn fleet(seed: u64, per_request: usize, n_frames: usize) -> Fleet {
    let inputs = serve_inputs(seed, per_request, n_frames, WARMUP_REQUESTS);
    let apps = &inputs.apps;
    let app_models: Vec<CprModel> = inputs
        .app_train
        .iter()
        .enumerate()
        .map(|(m, train)| {
            builder(&apps[m % apps.len()])
                .fit(train)
                .expect("default-spec fit")
        })
        .collect();
    let staging = ModelRegistry::new();
    let models = app_models
        .iter()
        .chain(inputs.fleet.iter().map(|f| &f.model));
    for (id, m) in inputs.ids.iter().zip(models) {
        staging.insert(id.clone(), m.clone());
    }
    let store = FleetStore::open(Arc::new(MemFs::new())).expect("in-memory store opens");
    staging
        .snapshot_into(&store)
        .expect("in-memory snapshot commits");
    Fleet { inputs, store }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        // One connection carries the whole run.
        max_requests_per_conn: u32::MAX,
        ..ServerConfig::default()
    }
}

fn post(conn: &mut ClientConn, f: &Frame) -> std::io::Result<cpr_server::ClientResponse> {
    conn.request("POST", &f.path, &[], f.body.as_bytes())
}

/// Where the serving threads run: the server's threads on the last CPU
/// the process may use, the client on the others; dropping it gives the
/// calling thread back every CPU. Server threads take the CPU set of the
/// thread that binds. With the threads free to move, the scheduler puts
/// client and server on one CPU in some runs and on two in others, and a
/// whole run's latency moves by up to 1.5x with that placement; split,
/// every request crosses CPUs, as between a client and a server on
/// different cores. One request is in flight at a time and a request of
/// at most 64 queries never enters the thread pool, so the server has no
/// parallel work for a second CPU.
struct Placement {
    all: Vec<usize>,
}

impl Placement {
    /// `None` on a single CPU, or where the CPU set cannot be read.
    fn new() -> Option<Self> {
        let all = crate::host::allowed_cpus();
        (all.len() >= 2).then_some(Placement { all })
    }

    fn server_side(&self) {
        crate::host::set_affinity(&self.all[self.all.len() - 1..]);
    }

    fn client_side(&self) {
        crate::host::set_affinity(&self.all[..self.all.len() - 1]);
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        crate::host::set_affinity(&self.all);
    }
}

/// CPUs the server's threads run on, for the record.
fn server_cpus(place: Option<&Placement>) -> usize {
    match place {
        Some(_) => 1,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// A live server over a freshly restored registry, with one warmed-up
/// keep-alive connection.
pub struct Live {
    pub registry: Arc<ModelRegistry>,
    pub server: CprServer,
    pub conn: ClientConn,
}

/// Restore the fleet, bind the server, send the warm-up requests.
fn start(fleet: &Fleet, place: Option<&Placement>, checks: &mut Checks) -> Live {
    let registry = Arc::new(ModelRegistry::new());
    let report = registry
        .restore(&fleet.store)
        .expect("restore from the snapshot");
    checks.check(report.restored.len() == fleet.inputs.ids.len(), || {
        format!(
            "restored {} of {} models",
            report.restored.len(),
            fleet.inputs.ids.len()
        )
    });
    if let Some(p) = place {
        p.server_side();
    }
    let server = CprServer::bind("127.0.0.1:0", Arc::clone(&registry), server_config())
        .expect("bind a loopback port");
    if let Some(p) = place {
        p.client_side();
    }
    let mut conn = ClientConn::open(server.local_addr()).expect("connect over loopback");
    for f in &fleet.inputs.warmup {
        let status = post(&mut conn, f).map(|r| r.status).unwrap_or(0);
        checks.check(status == 200, || {
            format!("warm-up {} answered {status}", f.path)
        });
    }
    Live {
        registry,
        server,
        conn,
    }
}

impl Live {
    pub fn stop(self) -> cpr_server::ServerStats {
        drop(self.conn);
        self.server.drain().final_stats
    }
}

/// Served predictions must be bitwise what `registry.plan(id)` gives.
fn check_frame(reg: &ModelRegistry, ids: &[ModelId], f: &Frame, body: &[u8], checks: &mut Checks) {
    let plan = reg.plan(&ids[f.model]).expect("fleet model is loaded");
    let got: Vec<f64> = std::str::from_utf8(body)
        .unwrap_or("")
        .lines()
        .filter_map(|l| l.parse().ok())
        .collect();
    let want: Vec<f64> = f.queries.iter().map(|q| plan.predict(q)).collect();
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    checks.check(same, || {
        format!("{} served {got:?}, plan gives {want:?}", f.path)
    });
}

pub fn workload(args: &Args, tracer: Option<&mut Tracer>) -> Report {
    let per_request = args.workload.per_request();
    let place = Placement::new();
    let n = args.workload.run_ops(args);
    let fleet = fleet(args.seed, per_request, distinct_frames(per_request).min(n));
    let mut rep = Report::default();
    let frames = &fleet.inputs.frames;

    // Set-up: restore + bind + warm-up, timed, repeated; the last stays up.
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = live.take() {
            Live::stop(old);
        }
        let t = Instant::now();
        live = Some(start(&fleet, place.as_ref(), &mut rep.checks));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");

    // The first pass's response bodies, by frame: a failed request leaves
    // its frame unchecked (and counted as failed) without shifting the
    // others.
    let mut first_pass: Vec<Option<Vec<u8>>> = vec![None; frames.len()];
    let conn = &mut live.conn;
    let times = closed_loop(n, 48, tracer, |k| {
        match post(conn, &frames[k % frames.len()]) {
            Ok(resp) if resp.status == 200 => {
                if k < frames.len() {
                    first_pass[k] = Some(resp.body);
                }
                true
            }
            _ => false,
        }
    });

    // Checks, outside the timed loop.
    for (f, body) in frames.iter().zip(&first_pass) {
        if let Some(body) = body {
            check_frame(&live.registry, &fleet.inputs.ids, f, body, &mut rep.checks);
        }
    }
    // Held-out accuracy of every served application model, grouped by
    // application (model `m` is application `m % apps`).
    let apps = &fleet.inputs.apps;
    let mut per_app: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
    for (m, id) in fleet
        .inputs
        .ids
        .iter()
        .take(fleet.inputs.app_train.len())
        .enumerate()
    {
        let a = &apps[m % apps.len()];
        let plan = live.registry.plan(id).expect("app model loaded");
        let q = holdout_metrics(|x| plan.predict(x), a.test.iter())
            .expect("non-empty test set")
            .mlogq;
        per_app[m % apps.len()].push(q);
    }
    let stats = live.stop();
    rep.checks.check(stats.identity_holds(), || {
        format!("server accounting broken: {stats:?}")
    });
    rep.checks.check(
        stats.accepted as usize == n + WARMUP_REQUESTS - times.failed as usize,
        || {
            format!(
                "server accepted {} of {} requests",
                stats.accepted,
                n + WARMUP_REQUESTS
            )
        },
    );

    rep.attempted = n as u64;
    rep.failed = times.failed;
    rep.e2e.put("setup_s", median(&setups), "s");
    let summary = times.summary(block(per_request), &|k| frames[k % frames.len()].class);
    summary.put(&mut rep.e2e, &mut rep.notes);
    // Geometric mean over applications of the median over draws: one
    // sparse 8-parameter AMG fit can land an order of magnitude off on
    // some training draws, and a single such model should not move it.
    let app_medians: Vec<f64> = per_app.iter().map(|q| median(q)).collect();
    rep.e2e.put("mlogq", geomean(&app_medians), "ln_ratio");
    for (a, q) in apps.iter().zip(&app_medians) {
        rep.notes.put(format!("mlogq.{}", a.name), *q, "ln_ratio");
    }
    times.put_overhead(&mut rep.notes);
    rep.notes.put(
        "host.server_cpus",
        server_cpus(place.as_ref()) as f64,
        "count",
    );
    rep
}

/// The request head `ClientConn` sends for a frame.
fn request_head(f: &Frame) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        f.path,
        f.body.len()
    )
    .into_bytes()
}

/// Median over `passes` of the mean time per item of one pass over
/// `items`, in seconds: per-call costs far below a clock read are timed in
/// bulk.
fn per_item_secs<T>(passes: usize, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    median_secs(passes, || items.iter().for_each(&mut f)) / items.len() as f64
}

/// Serving-layer probes on frames of `per_request` queries, plus the
/// cold-start probes.
pub fn probe(
    seed: u64,
    per_request: usize,
    layers: &mut Metrics,
    tr: &mut Tracer,
    checks: &mut Checks,
) {
    let n_frames = if per_request == 1 { 2048 } else { 256 };
    let fleet = fleet(seed, per_request, n_frames);
    let ids = &fleet.inputs.ids;
    let frames = &fleet.inputs.frames;

    // Cold start: restore, and its deserialize and bake parts.
    let cold = tr.open("probe.cold_start", None);
    let restore = tr.median_secs("store.restore", Some(cold), 5, || {
        let reg = ModelRegistry::new();
        black_box(
            reg.restore(&fleet.store)
                .expect("restore from the snapshot"),
        );
    });
    let snapshot = fleet.store.snapshots().load().expect("snapshot loads");
    let mut models = Vec::new();
    let deser = tr.median_secs("core.deserialize", Some(cold), 5, || {
        models = snapshot
            .models
            .iter()
            .map(|(_, bytes)| serialize::from_bytes(bytes).expect("snapshot payload parses"))
            .collect();
    });
    let bake = tr.median_secs("core.bake_fleet", Some(cold), 5, || {
        for m in &models {
            black_box(m.bake_plan());
        }
    });
    tr.close(cold);
    layers.put("store.restore_ms", restore * 1e3, "ms");
    layers.put("core.deserialize_ms", deser * 1e3, "ms");
    layers.put("core.bake_fleet_ms", bake * 1e3, "ms");

    // The wire, end to end, and the health round trip as its floor.
    let root = tr.open("probe.serve", None);
    let place = Placement::new();
    let mut live = start(&fleet, place.as_ref(), checks);
    let mut lat = Vec::with_capacity(frames.len());
    for f in frames {
        let (resp, dt) = tr.time("server.request", Some(root), || post(&mut live.conn, f));
        let resp = resp.expect("probe request answered");
        checks.check(resp.status == 200, || {
            format!("probe {} answered {}", f.path, resp.status)
        });
        lat.push(dt);
    }
    let request_mean = lat.iter().sum::<f64>() / lat.len() as f64;
    let health: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            let r = live
                .conn
                .request("GET", "/health", &[], b"")
                .expect("health answers");
            let dt = t.elapsed().as_secs_f64();
            checks.check(r.status == 200, || format!("/health answered {}", r.status));
            dt
        })
        .collect();
    let scrape: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let r = live
                .conn
                .request("GET", "/metrics", &[], b"")
                .expect("metrics answers");
            let dt = t.elapsed().as_secs_f64();
            checks.check(r.status == 200, || {
                format!("/metrics answered {}", r.status)
            });
            dt
        })
        .collect();
    let reg = Arc::clone(&live.registry);
    let stats = live.stop();
    tr.close(root);

    // The layers a predict request crosses, timed directly on the same
    // frames: wire parse, the registry call the server makes, the plan.
    let heads: Vec<Vec<u8>> = frames.iter().map(request_head).collect();
    let limits = http::Limits::default();
    let indexed: Vec<usize> = (0..frames.len()).collect();
    let parse = per_item_secs(5, &indexed, |&i| {
        let head = http::parse_head(&heads[i], &limits).expect("well-formed head");
        black_box(http::parse_model_path(&head.path).expect("predict path"));
        black_box(http::parse_query_body(frames[i].body.as_bytes()).expect("well-formed body"));
    });
    let batches: Vec<Vec<(ModelId, Vec<f64>)>> = frames
        .iter()
        .map(|f| {
            f.queries
                .iter()
                .map(|q| (ids[f.model].clone(), q.clone()))
                .collect()
        })
        .collect();
    let far = Instant::now() + Duration::from_secs(3600);
    let serve = per_item_secs(5, &batches, |b| {
        black_box(
            reg.serve_batch_deadline(b, far)
                .expect("fleet model is loaded"),
        );
    });
    let singles: Vec<(&ModelId, &[f64])> = frames
        .iter()
        .flat_map(|f| f.queries.iter().map(move |q| (&ids[f.model], q.as_slice())))
        .collect();
    let predict = per_item_secs(5, &singles, |(id, q)| {
        black_box(reg.predict(id, q).expect("fleet model is loaded"));
    });
    let plans: Vec<_> = frames
        .iter()
        .map(|f| reg.plan(&ids[f.model]).expect("loaded"))
        .collect();
    let mut out = vec![0.0; per_request];
    let plan_eval = per_item_secs(5, &indexed, |&i| {
        plans[i].predict_into(&frames[i].queries, &mut out);
        black_box(&out);
    }) / per_request as f64;
    let rstats = reg.stats();

    layers.put("server.request_mean_us", request_mean * 1e6, "us");
    layers.put("server.health_rtt_us", median(&health) * 1e6, "us");
    layers.put("server.parse_us", parse * 1e6, "us");
    layers.put("registry.serve_batch_us", serve * 1e6, "us");
    layers.put("registry.predict_us", predict * 1e6, "us");
    layers.put("core.plan_eval_ns", plan_eval * 1e9, "ns");
    // Means add up where medians do not: the remainder is the wire, the
    // kernel and whatever the timed layers leave out.
    layers.put(
        "server.remainder_us",
        (request_mean - parse - serve) * 1e6,
        "us",
    );
    layers.put("registry.dense_hit_rate", rstats.dense_hit_rate(), "ratio");
    layers.put("server.received", stats.received as f64, "count");
    layers.put("server.accepted", stats.accepted as f64, "count");
    layers.put(
        "server.shed",
        (stats.shed_queue_full + stats.shed_deadline) as f64,
        "count",
    );
    layers.put("server.malformed", stats.rejected_malformed as f64, "count");
    layers.put("obs.scrape_us", median(&scrape) * 1e6, "us");
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_core::Dataset;

    #[test]
    fn served_accuracy_bits_repeat_per_seed() {
        let a = serve_inputs(9, 1, 4, 2);
        let b = serve_inputs(9, 1, 4, 2);
        let app = &a.apps[0];
        let mlogq = |train: &Dataset| {
            let model = builder(app).fit(train).expect("fit");
            holdout_metrics(|x| model.predict(x), app.test.iter())
                .expect("test set")
                .mlogq
        };
        assert_eq!(
            mlogq(&a.app_train[0]).to_bits(),
            mlogq(&b.app_train[0]).to_bits()
        );
    }

    #[test]
    fn request_heads_parse_back_to_the_frame() {
        let inp = serve_inputs(4, 3, 4, 0);
        for f in &inp.frames {
            let head = http::parse_head(&request_head(f), &http::Limits::default()).expect("head");
            assert_eq!(head.path, f.path);
            let (app, machine, metric) = http::parse_model_path(&head.path).expect("predict path");
            let id = &inp.ids[f.model];
            assert_eq!(
                (app, machine, metric),
                (id.app(), id.machine(), id.metric())
            );
        }
    }
}
