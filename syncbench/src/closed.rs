//! The closed-loop workloads `full_1e5` and `full_1e6`: one client runs
//! full reconciliations back to back against a `MutableStore`.
//!
//! Each iteration draws a fresh seeded difference of `d` elements, split
//! evenly: `d/2` store elements the client lacks and `d/2` client-only
//! elements the sync pushes. After the timed sync the iteration removes
//! the pushed elements again through `MutableStore::apply`; it times the
//! push a parked subscriber receives for each write and runs a delta
//! catch-up over each write, so the push and delta paths are measured on
//! every workload.

use crate::gen::{self, Rng};
use crate::ledger::{ms, Fault, Ledger, ReplayRecord, ServerProbe, SyncSample};
use crate::replay::replay;
use crate::trace::{Lane, SpanId, Tracer};
use crate::{Args, Outcome, SETUPS};
use pbs_net::store::SetStore;
use pbs_net::{
    DeltaFold, DeltaReport, MutableStore, Server, ServerConfig, Subscription, SyncClient,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size of one closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Elements in the server's store.
    pub n: usize,
    /// True difference per sync, split evenly between the two sides.
    pub d: usize,
}

/// Client-only elements are drawn from a pool this many times `d/2`.
const POOL_FACTOR: usize = 8;
/// Iteration ids of the warm-ups; timed iterations count from 0.
const WARM_IDS: u64 = 1 << 32;
/// Writes that remove a sync's pushed elements again, each timed with its
/// push and a catch-up: enough samples per run for steady medians of these
/// sub-millisecond paths.
const WRITES: usize = 10;
/// Most syncs a traced run replays, spread evenly over the window.
pub const MAX_REPLAYS: usize = 20;

struct Rig {
    base: Vec<u64>,
    pool: Vec<u64>,
    store: Arc<MutableStore>,
    server: Server,
    client: SyncClient,
    sub: Subscription,
    /// The store epoch the model expects.
    epoch: u64,
}

/// A server on `store` with one event-loop worker.
///
/// The keepalive is raised from 10 s to 60 s. The server pings a
/// subscriber only after `keepalive` without sending it anything, but
/// drops it after `3 × keepalive` without hearing from it, so a subscriber
/// that receives a push at least every 10 s is never pinged, never
/// answers, and is dropped 30 s after it subscribed. No ping is sent at
/// either setting while pushes flow; the longer keepalive only moves that
/// drop past the end of every run.
pub fn bind(store: Arc<dyn SetStore>) -> Result<Server, String> {
    let config = ServerConfig {
        workers: 1,
        keepalive: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", store, config).map_err(|e| format!("bind: {e}"))
}

/// Read pushes until the subscription covers `target`, checking that they
/// arrive gap-free; returns their net change.
pub fn await_epoch(sub: &mut Subscription, target: u64) -> Result<DeltaReport, Fault> {
    let from = sub.epoch();
    let mut fold = DeltaFold::new();
    while sub.epoch() < target {
        let at = sub.epoch();
        match sub.next() {
            Some(Ok(push)) if push.from_epoch == at && push.to_epoch > at => {
                fold.fold(push.added, push.removed)
            }
            Some(Ok(push)) => {
                return Err(Fault::Wrong(format!(
                    "push {}→{} does not continue from epoch {at}",
                    push.from_epoch, push.to_epoch
                )))
            }
            Some(Err(e)) => return Err(Fault::Failed(format!("subscription: {e}"))),
            None => return Err(Fault::Failed("subscription closed".into())),
        }
    }
    Ok(fold.into_report(from, sub.epoch()))
}

fn setup(spec: Spec, seed: u64) -> Result<Rig, String> {
    let mut rng = Rng::derive(seed, 1);
    let mut base = gen::distinct_elements(spec.n + POOL_FACTOR * spec.d / 2, &mut rng);
    let pool = base.split_off(spec.n);
    let store = Arc::new(MutableStore::new(base.iter().copied()));
    let server = bind(store.clone())?;
    let client = SyncClient::connect(server.local_addr()).map_err(|e| format!("{e}"))?;
    let mut sub = client.subscribe(0).map_err(|e| format!("subscribe: {e}"))?;
    match sub.next() {
        Some(Ok(first)) if first.to_epoch == 0 => {}
        other => return Err(format!("unexpected subscription catch-up: {other:?}")),
    }
    Ok(Rig {
        base,
        pool,
        store,
        server,
        client,
        sub,
        epoch: 0,
    })
}

/// Iteration `i`'s client set, the store elements it lacks and its
/// client-only elements.
fn inputs(rig: &Rig, spec: Spec, seed: u64, i: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut rng = Rng::derive(seed, 1_000 + i);
    let drop = gen::sample_indices(rig.base.len(), spec.d / 2, &mut rng);
    let extra: Vec<u64> = gen::sample_indices(rig.pool.len(), spec.d - spec.d / 2, &mut rng)
        .into_iter()
        .map(|k| rig.pool[k])
        .collect();
    let mut a = gen::without(&rig.base, &drop);
    a.extend_from_slice(&extra);
    let dropped = drop.into_iter().map(|k| rig.base[k]).collect();
    (a, dropped, gen::sorted(extra))
}

/// One iteration: the timed sync, then [`WRITES`] writes removing the
/// pushed elements again, each followed by its push and a catch-up from
/// the epoch before it.
fn iteration(
    rig: &mut Rig,
    spec: Spec,
    seed: u64,
    i: u64,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let (a, dropped, extra) = inputs(rig, spec, seed, i);
    let root = tr.open("iteration", Lane::Bench, i, Tracer::root());
    let synced = full_sync(rig, spec, &a, dropped, &extra, i, tr, root);
    match synced {
        Ok(sample) => {
            ledger.syncs.push(sample);
            ledger.settle(Ok(()))?;
        }
        Err(fault) => {
            ledger.settle(Err(fault))?;
            tr.close(root);
            return resync(rig);
        }
    }

    let mut clean = true;
    for chunk in extra.chunks(extra.len().div_ceil(WRITES)) {
        let since = rig.epoch;
        let due = Instant::now();
        let pushed = remove(rig, chunk, i, tr, root);
        clean &= pushed.is_ok();
        if pushed.is_ok() {
            ledger.push_ms.push(ms(due.elapsed()));
        }
        ledger.settle(pushed)?;

        let due = Instant::now();
        let caught = catch_up(rig, since, chunk, i, tr, root);
        if let Ok(delta_ms) = caught {
            ledger.catchup_ms.push(ms(due.elapsed()));
            ledger.catchup_delta_ms.push(delta_ms);
        }
        ledger.settle(caught.map(|_| ()))?;
    }
    tr.close(root);
    if clean {
        Ok(())
    } else {
        resync(rig)
    }
}

#[allow(clippy::too_many_arguments)]
fn full_sync(
    rig: &mut Rig,
    spec: Spec,
    a: &[u64],
    dropped: Vec<u64>,
    extra: &[u64],
    i: u64,
    tr: &mut Tracer,
    root: SpanId,
) -> Result<SyncSample, Fault> {
    let client = &rig.client;
    let report = tr
        .time("sync", Lane::Client, i, root, || client.sync(a))
        .map_err(|e| Fault::Failed(format!("sync {i}: {e}")))?;
    if !report.verified {
        return Err(Fault::Failed(format!("sync {i} did not verify")));
    }
    let mut truth = dropped;
    truth.extend_from_slice(extra);
    if gen::sorted(report.recovered.clone()) != gen::sorted(truth) {
        return Err(Fault::Wrong(format!("sync {i} recovered a wrong A△B")));
    }
    if gen::sorted(report.pushed.clone()) != extra {
        return Err(Fault::Wrong(format!("sync {i} pushed a wrong A∖B")));
    }
    let store = &rig.store;
    if store.len() != spec.n + extra.len()
        || store.epoch() != rig.epoch + 1
        || !extra.iter().all(|&e| store.contains(e))
    {
        return Err(Fault::Wrong(format!(
            "store diverged from the model after sync {i}"
        )));
    }
    rig.epoch += 1;
    let ingest = await_epoch(&mut rig.sub, rig.epoch)?;
    if ingest.added != extra || !ingest.removed.is_empty() {
        return Err(Fault::Wrong(format!(
            "push of sync {i}'s transfer is wrong"
        )));
    }
    Ok(SyncSample {
        id: i,
        report,
        d_true: spec.d,
    })
}

/// Remove `chunk` (sorted) through `MutableStore::apply` and wait for the
/// push covering it.
fn remove(
    rig: &mut Rig,
    chunk: &[u64],
    i: u64,
    tr: &mut Tracer,
    root: SpanId,
) -> Result<(), Fault> {
    let store = &rig.store;
    let len = store.len();
    let epoch = tr.time("store.apply", Lane::Writer, i, root, || {
        store.apply(&[], chunk)
    });
    if epoch != rig.epoch + 1 || store.len() + chunk.len() != len {
        return Err(Fault::Wrong(format!(
            "store diverged from the model in iteration {i}"
        )));
    }
    rig.epoch = epoch;
    let sub = &mut rig.sub;
    let push = tr.time("push.wait", Lane::Client, i, root, || {
        await_epoch(sub, epoch)
    })?;
    if push.removed != chunk || !push.added.is_empty() {
        return Err(Fault::Wrong(format!("a push of iteration {i} is wrong")));
    }
    Ok(())
}

/// A delta catch-up from `since` that must return exactly the removal of
/// `removed`; returns its client-side delta phase, ms.
fn catch_up(
    rig: &Rig,
    since: u64,
    removed: &[u64],
    i: u64,
    tr: &mut Tracer,
    root: SpanId,
) -> Result<f64, Fault> {
    let client = rig.client.clone().delta_epoch(since);
    // The client passes its replica, the base set: on a fallback it would
    // push nothing.
    let report = tr
        .time("catchup", Lane::Client, i, root, || client.sync(&rig.base))
        .map_err(|e| Fault::Failed(format!("catch-up {i}: {e}")))?;
    let Some(delta) = report.delta else {
        return Err(Fault::Failed(format!(
            "catch-up {i} fell back to a full sync"
        )));
    };
    if delta.from_epoch != since
        || delta.to_epoch != rig.epoch
        || !delta.added.is_empty()
        || delta.removed != removed
    {
        return Err(Fault::Wrong(format!("catch-up {i} returned a wrong delta")));
    }
    Ok(ms(report.phases.delta))
}

/// After a failed operation, put the store back to the base set and let
/// the subscription catch up, so later iterations start from the model.
fn resync(rig: &mut Rig) -> Result<(), String> {
    let snapshot = gen::sorted(rig.store.snapshot());
    let base = gen::sorted(rig.base.clone());
    let extra: Vec<u64> = snapshot
        .iter()
        .copied()
        .filter(|e| base.binary_search(e).is_err())
        .collect();
    let missing: Vec<u64> = base
        .iter()
        .copied()
        .filter(|e| snapshot.binary_search(e).is_err())
        .collect();
    rig.epoch = rig.store.apply(&missing, &extra);
    await_epoch(&mut rig.sub, rig.epoch).map_err(|f| format!("resync: {f:?}"))?;
    Ok(())
}

/// Run a closed-loop workload.
pub fn run(spec: Spec, args: &Args, origin: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut rig = None;
    for k in 0..SETUPS {
        if let Some(old) = rig.take() {
            teardown(old);
        }
        let start = Instant::now();
        let mut fresh = setup(spec, args.seed)?;
        // Warm-up: one untimed iteration, counted in set-up time.
        let mut warm = Ledger::default();
        let mut off = Tracer::new(false, origin);
        iteration(
            &mut fresh,
            spec,
            args.seed,
            WARM_IDS + k as u64,
            &mut off,
            &mut warm,
        )?;
        if warm.failed > 0 {
            return Err("warm-up iteration failed".into());
        }
        setup_s.push(start.elapsed().as_secs_f64());
        rig = Some(fresh);
    }
    let mut rig = rig.expect("at least one setup");

    let mut tr = Tracer::new(args.trace, origin);
    let mut ledger = Ledger::default();
    let before = ServerProbe::read(&rig.server);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        iteration(&mut rig, spec, args.seed, i, &mut tr, &mut ledger)?;
        i += 1;
    }
    ledger.window_s = start.elapsed().as_secs_f64();
    let after = ServerProbe::read(&rig.server);

    // The store must equal the model: the base set.
    if gen::sorted(rig.store.snapshot()) != gen::sorted(rig.base.clone()) {
        return Err("store diverged from the model at the end of the run".into());
    }

    let mut replays = Vec::new();
    if args.trace {
        let mirror = MutableStore::new(rig.base.iter().copied());
        let step = ledger.syncs.len().div_ceil(MAX_REPLAYS).max(1);
        for sample in ledger.syncs.iter().step_by(step) {
            let (a, _, extra) = inputs(&rig, spec, args.seed, sample.id);
            let config = rig.client.config_ref().clone();
            let replayed = replay(&mut tr, sample.id, &a, &mirror, &config, &sample.report)?;
            // Undo the transfer in the same writes as the real run, and
            // repeat each catch-up's changelog read after its write.
            for chunk in extra.chunks(extra.len().div_ceil(WRITES)) {
                let since = mirror.epoch();
                mirror.apply(&[], chunk);
                tr.time(
                    "store.delta_since",
                    Lane::Server,
                    sample.id,
                    Tracer::root(),
                    || mirror.delta_since(since),
                );
            }
            replays.push(ReplayRecord {
                sample: sample.clone(),
                tow_elements: a.len() + rig.base.len(),
                replayed,
            });
        }
    }
    teardown(rig);
    Ok(Outcome {
        ledger,
        setup_s,
        tracer: tr,
        replays,
        before,
        after,
    })
}

fn teardown(rig: Rig) {
    drop(rig.sub);
    rig.server.shutdown();
}
