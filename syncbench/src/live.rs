//! The open-loop workload `live_mixed`: writes and catch-ups arrive on a
//! seeded schedule against a durable 10⁵-element `MutableStore`.
//!
//! * The writer thread applies write batches (10/s, each adding 5
//!   fresh elements and removing the 5 oldest of a 50-element churn
//!   window, so the size stays constant) at their due times, and times
//!   each write from its due time to the push covering its epoch on one
//!   parked subscription.
//! * The reader thread runs delta catch-ups (5/s), each from the
//!   epoch the previous one ended at. Every 5th slot first runs a sync
//!   that carries an epoch the changelog no longer keeps and falls back to
//!   a full reconciliation (d = 100): its client holds the stable core
//!   minus 50 elements, so its final transfer is empty and it never
//!   changes the store. The slot's catch-up then runs late.
//!
//! Both schedules are fixed-rate grids; the seed picks the elements, the
//! fallback clients' sets and which catch-up slot falls back.
//!
//! The server has one event-loop worker, so pushes and catch-ups queue
//! behind a fallback's estimator, planner and sketch work. The rates are
//! set so that a 30 s window holds 30 fallbacks: enough for the sync
//! median to be steady across runs and for the tails to rest on many such
//! stalls rather than on the single longest one.

use crate::closed::{await_epoch, bind, MAX_REPLAYS};
use crate::gen::{self, Rng};
use crate::ledger::{ms, Fault, Ledger, ReplayRecord, ServerProbe, SyncSample};
use crate::replay::replay;
use crate::trace::{Lane, Tracer};
use crate::{Args, Outcome, SETUPS};
use pbs_net::{
    DeltaFold, DeltaReport, DurableOptions, MutableStore, Server, Subscription, SyncClient,
    SyncReport,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements in the store.
const N: usize = 100_000;
/// Elements in the churn window; the rest of the store never changes.
const CHURN: usize = 50;
/// Adds (and removes) per write batch.
const BATCH: usize = 5;
/// Gap between writes, s.
const WRITE_GAP_S: f64 = 0.1;
/// Gap between catch-ups, s.
const CATCHUP_GAP_S: f64 = 0.2;
/// Every this-many-th catch-up slot runs a fallback sync first.
const FALLBACK_EVERY: usize = 5;
/// Change batches the store's changelog keeps.
const LOG_CAPACITY: usize = 256;
/// Writes applied during set-up, so the changelog has trimmed past
/// [`STALE_EPOCH`] before the window starts.
const PRE_WRITES: usize = LOG_CAPACITY + 44;
/// The store's epoch once seeded: older than the changelog keeps after
/// [`PRE_WRITES`].
const STALE_EPOCH: u64 = 1;
/// Core elements a fallback client lacks.
const DROP: usize = 50;
/// Span ids: fallbacks count from 0, writes and catch-ups from these.
const WRITE_IDS: u64 = 1 << 32;
/// See [`WRITE_IDS`].
const CATCHUP_IDS: u64 = 2 << 32;
/// Id of the warm-up fallback.
const WARM_ID: u64 = 3 << 32;

/// Fresh elements enter the churn window in batches; the oldest leave.
struct Writer {
    churn: VecDeque<u64>,
    fresh: Vec<u64>,
}

impl Writer {
    fn batch(&mut self) -> Result<(Vec<u64>, Vec<u64>), String> {
        if self.fresh.len() < BATCH {
            return Err("fresh element pool exhausted".into());
        }
        let added = self.fresh.split_off(self.fresh.len() - BATCH);
        let removed: Vec<u64> = self.churn.drain(..BATCH).collect();
        self.churn.extend(&added);
        Ok((added, removed))
    }
}

/// The benchmark's model of the store: the churn window at every epoch
/// from [`STALE_EPOCH`] on, and the batch that produced each epoch.
struct Model {
    churn: Vec<Vec<u64>>,
    batches: Vec<(Vec<u64>, Vec<u64>)>,
}

impl Model {
    fn last(&self) -> u64 {
        STALE_EPOCH + self.batches.len() as u64
    }

    fn churn_at(&self, epoch: u64) -> &[u64] {
        &self.churn[(epoch - STALE_EPOCH) as usize]
    }

    fn record(&mut self, added: Vec<u64>, removed: Vec<u64>, churn: &VecDeque<u64>) {
        self.batches.push((added, removed));
        self.churn
            .push(gen::sorted(churn.iter().copied().collect()));
    }

    /// Net change from `from` to `to`, folded as the client folds it.
    fn delta(&self, from: u64, to: u64) -> DeltaReport {
        let mut fold = DeltaFold::new();
        for (added, removed) in
            &self.batches[(from - STALE_EPOCH) as usize..(to - STALE_EPOCH) as usize]
        {
            fold.fold(added.iter().copied(), removed.iter().copied());
        }
        let mut report = fold.into_report(from, to);
        report.batches = 0;
        report
    }

    /// The full store at `epoch`.
    fn state(&self, core: &[u64], epoch: u64) -> Vec<u64> {
        let mut all = core.to_vec();
        all.extend_from_slice(self.churn_at(epoch));
        all
    }
}

struct Rig {
    core: Vec<u64>,
    writer: Writer,
    model: Model,
    store: Arc<MutableStore>,
    server: Server,
    client: SyncClient,
    sub: Subscription,
    dir: PathBuf,
}

fn setup(args: &Args, dir: PathBuf) -> Result<Rig, String> {
    let io = |e: std::io::Error| format!("store directory {}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(io)?;
    }
    std::fs::create_dir_all(&dir).map_err(io)?;
    let max_writes = PRE_WRITES + (args.seconds / WRITE_GAP_S) as usize + 2;
    let mut rng = Rng::derive(args.seed, 2);
    let mut core = gen::distinct_elements(N + BATCH * max_writes, &mut rng);
    let fresh = core.split_off(N);
    let churn: VecDeque<u64> = core.split_off(N - CHURN).into();
    let options = DurableOptions {
        log_capacity: LOG_CAPACITY,
        // No automatic snapshots: the store is compacted once after seeding,
        // so no snapshot fsync lands inside the timed window.
        snapshot_every: 0,
        sync_writes: false,
    };
    let store = Arc::new(MutableStore::open_durable(&dir, options).map_err(io)?);
    let mut seeded = core.clone();
    seeded.extend(&churn);
    if store.apply(&seeded, &[]) != STALE_EPOCH {
        return Err("seeding the store did not produce epoch 1".into());
    }
    store.compact_now().map_err(io)?;
    let mut model = Model {
        churn: vec![gen::sorted(churn.iter().copied().collect())],
        batches: Vec::new(),
    };
    let mut writer = Writer { churn, fresh };
    for _ in 0..PRE_WRITES {
        let (added, removed) = writer.batch()?;
        store.apply(&added, &removed);
        model.record(added, removed, &writer.churn);
    }
    let server = bind(store.clone())?;
    let client = SyncClient::connect(server.local_addr()).map_err(|e| format!("{e}"))?;
    let mut sub = client
        .subscribe(model.last())
        .map_err(|e| format!("subscribe: {e}"))?;
    match sub.next() {
        Some(Ok(first)) if first.to_epoch == model.last() => {}
        other => return Err(format!("unexpected subscription catch-up: {other:?}")),
    }
    Ok(Rig {
        core,
        writer,
        model,
        store,
        server,
        client,
        sub,
        dir,
    })
}

fn teardown(rig: Rig) {
    drop(rig.sub);
    rig.server.shutdown();
    drop(rig.store);
    let _ = std::fs::remove_dir_all(&rig.dir);
}

/// A fallback client's set: the stable core minus [`DROP`] seeded
/// elements, and the elements it lacks.
fn fallback_set(core: &[u64], seed: u64, j: u64) -> (Vec<u64>, Vec<u64>) {
    let drop = gen::sample_indices(core.len(), DROP, &mut Rng::derive(seed, 5_000 + j));
    let lacked = drop.iter().map(|&k| core[k]).collect();
    (gen::without(core, &drop), lacked)
}

/// One fallback sync from the stale epoch.
fn fallback(
    client: &SyncClient,
    core: &[u64],
    seed: u64,
    j: u64,
    tr: &mut Tracer,
) -> Result<SyncSample, Fault> {
    let (a, _) = fallback_set(core, seed, j);
    let client = client.clone().delta_epoch(STALE_EPOCH);
    let report = tr
        .time("sync", Lane::Client, j, Tracer::root(), || client.sync(&a))
        .map_err(|e| Fault::Failed(format!("fallback sync {j}: {e}")))?;
    if !report.delta_fallback {
        return Err(Fault::Wrong(format!(
            "catch-up {j} from trimmed epoch {STALE_EPOCH} was served from the changelog"
        )));
    }
    if !report.verified {
        return Err(Fault::Failed(format!("fallback sync {j} did not verify")));
    }
    if !report.pushed.is_empty() {
        return Err(Fault::Wrong(format!("fallback sync {j} pushed elements")));
    }
    Ok(SyncSample {
        id: j,
        report,
        d_true: DROP + CHURN,
    })
}

/// A fallback's recovery must be exactly the core elements its client
/// lacked plus the churn window of the snapshot it ran against.
fn check_fallback(
    model: &Model,
    core: &[u64],
    seed: u64,
    report: &SyncReport,
    j: u64,
) -> Result<(), String> {
    let epoch = report.epoch.ok_or("fallback sync returned no epoch")?;
    let (_, mut truth) = fallback_set(core, seed, j);
    truth.extend_from_slice(model.churn_at(epoch));
    if gen::sorted(report.recovered.clone()) != gen::sorted(truth) {
        return Err(format!("fallback sync {j} recovered a wrong A△B"));
    }
    Ok(())
}

fn sleep_until(target: Instant) -> f64 {
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
    ms(Instant::now().saturating_duration_since(target))
}

/// Writer thread: timed writes and the pushes covering them.
fn write_loop(
    rig: &mut Rig,
    due: &[f64],
    t0: Instant,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(), String> {
    for (i, &at) in due.iter().enumerate() {
        let i = WRITE_IDS + i as u64;
        let due_at = t0 + Duration::from_secs_f64(at);
        ledger.lag_ms.push(sleep_until(due_at));
        let (added, removed) = rig.writer.batch()?;
        let store = &rig.store;
        let root = tr.open("write", Lane::Writer, i, Tracer::root());
        let epoch = tr.time("store.apply", Lane::Writer, i, root, || {
            store.apply(&added, &removed)
        });
        if epoch != rig.model.last() + 1 || store.len() != N {
            return Err(format!("store diverged from the model after write {i}"));
        }
        rig.model.record(added, removed, &rig.writer.churn);
        let from = rig.sub.epoch();
        let sub = &mut rig.sub;
        let push = tr.time("push.wait", Lane::Client, i, root, || {
            await_epoch(sub, epoch)
        });
        tr.close(root);
        let outcome = push.and_then(|push| {
            let expect = rig.model.delta(from, push.to_epoch);
            if (push.added, push.removed) != (expect.added, expect.removed) {
                return Err(Fault::Wrong(format!("push for write {i} is wrong")));
            }
            Ok(())
        });
        if outcome.is_ok() {
            ledger.push_ms.push(ms(due_at.elapsed()));
        }
        ledger.settle(outcome)?;
    }
    Ok(())
}

/// Reader thread: catch-ups on schedule, every 5th slot after a fallback.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    client: &SyncClient,
    core: &[u64],
    seed: u64,
    mut chain: u64,
    due: &[f64],
    fallback_phase: usize,
    t0: Instant,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    deltas: &mut Vec<(u64, DeltaReport)>,
) -> Result<(), String> {
    for (j, &at) in due.iter().enumerate() {
        let due_at = t0 + Duration::from_secs_f64(at);
        ledger.lag_ms.push(sleep_until(due_at));
        if j % FALLBACK_EVERY == fallback_phase {
            // The slot's catch-up follows its fallback, timed from the same
            // due time: it waits out the whole fallback.
            let synced = fallback(client, core, seed, j as u64, tr);
            let outcome = synced.map(|sample| ledger.syncs.push(sample));
            ledger.settle(outcome)?;
        }
        let id = CATCHUP_IDS + j as u64;
        let catcher = client.clone().delta_epoch(chain);
        let report = tr.time("catchup", Lane::Client, id, Tracer::root(), || {
            catcher.sync(core)
        });
        let outcome = match report {
            Err(e) => Err(Fault::Failed(format!("catch-up {j}: {e}"))),
            Ok(report) => match report.delta {
                None => Err(Fault::Failed(format!("catch-up {j} fell back"))),
                Some(delta) if delta.from_epoch != chain => Err(Fault::Wrong(format!(
                    "catch-up {j} started at the wrong epoch"
                ))),
                Some(delta) => {
                    ledger.catchup_ms.push(ms(due_at.elapsed()));
                    ledger.catchup_delta_ms.push(ms(report.phases.delta));
                    chain = delta.to_epoch;
                    deltas.push((id, delta));
                    Ok(())
                }
            },
        };
        ledger.settle(outcome)?;
    }
    Ok(())
}

/// Run the `live_mixed` workload.
pub fn run(args: &Args, work: &Path, origin: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut rig = None;
    for k in 0..SETUPS {
        if let Some(old) = rig.take() {
            teardown(old);
        }
        let start = Instant::now();
        let fresh = setup(args, work.join(format!("live-{k}")))?;
        // Warm-up: one untimed fallback sync, counted in set-up time.
        let mut off = Tracer::new(false, origin);
        let warm = fallback(&fresh.client, &fresh.core, args.seed, WARM_ID, &mut off)
            .map_err(|f| format!("warm-up sync: {f:?}"))?;
        check_fallback(&fresh.model, &fresh.core, args.seed, &warm.report, WARM_ID)?;
        setup_s.push(start.elapsed().as_secs_f64());
        rig = Some(fresh);
    }
    let mut rig = rig.expect("at least one setup");

    let writes = gen::grid(WRITE_GAP_S, args.seconds);
    let catchups = gen::grid(CATCHUP_GAP_S, args.seconds);
    let fallback_phase = Rng::derive(args.seed, 3).below(FALLBACK_EVERY);

    let before = ServerProbe::read(&rig.server);
    let (mut tr_w, mut tr_r) = (
        Tracer::new(args.trace, origin),
        Tracer::new(args.trace, origin),
    );
    let (mut led_w, mut led_r) = (Ledger::default(), Ledger::default());
    // What the reader saw, checked against the model after the window.
    let mut deltas = Vec::new();
    let chain = rig.model.last();
    let client = rig.client.clone();
    let core = rig.core.clone();
    let t0 = Instant::now();
    let (wrote, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            read_loop(
                &client,
                &core,
                args.seed,
                chain,
                &catchups,
                fallback_phase,
                t0,
                &mut tr_r,
                &mut led_r,
                &mut deltas,
            )
        });
        let wrote = write_loop(&mut rig, &writes, t0, &mut tr_w, &mut led_w);
        (wrote, reader.join())
    });
    let window_s = t0.elapsed().as_secs_f64();
    wrote?;
    read.map_err(|_| "reader thread panicked".to_string())??;
    let after = ServerProbe::read(&rig.server);

    let mut tr = Tracer::new(args.trace, origin);
    tr.absorb(tr_w);
    tr.absorb(tr_r);
    let mut ledger = led_w;
    ledger.absorb(led_r);
    ledger.window_s = window_s;

    // Oracle: every catch-up equals the writer's log between its epochs,
    // every fallback recovered the true difference, the store is the model.
    for (id, delta) in &deltas {
        let expect = rig.model.delta(delta.from_epoch, delta.to_epoch);
        if (&delta.added, &delta.removed) != (&expect.added, &expect.removed) {
            return Err(format!("catch-up {id} does not match the writer's log"));
        }
    }
    for sample in &ledger.syncs {
        check_fallback(&rig.model, &rig.core, args.seed, &sample.report, sample.id)?;
    }
    let last = rig.model.last();
    if rig.store.epoch() != last
        || gen::sorted(rig.store.snapshot_with_epoch().0)
            != gen::sorted(rig.model.state(&rig.core, last))
    {
        return Err("store diverged from the model at the end of the run".into());
    }

    let mut replays = Vec::new();
    if args.trace {
        let config = rig
            .client
            .clone()
            .delta_epoch(STALE_EPOCH)
            .config_ref()
            .clone();
        let step = ledger.syncs.len().div_ceil(MAX_REPLAYS).max(1);
        for sample in ledger.syncs.iter().step_by(step) {
            let epoch = sample
                .report
                .epoch
                .ok_or("fallback sync returned no epoch")?;
            let mirror = MutableStore::with_epoch_origin(
                rig.model.state(&rig.core, epoch),
                epoch,
                LOG_CAPACITY,
            );
            let (a, _) = fallback_set(&rig.core, args.seed, sample.id);
            let replayed = replay(&mut tr, sample.id, &a, &mirror, &config, &sample.report)?;
            replays.push(ReplayRecord {
                sample: sample.clone(),
                tow_elements: a.len() + N,
                replayed,
            });
        }
        replay_catchups(&rig, &deltas, &mut tr);
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

/// Repeat each catch-up's changelog read on a store replaying the
/// writer's log, at the epoch the real read saw.
fn replay_catchups(rig: &Rig, deltas: &[(u64, DeltaReport)], tr: &mut Tracer) {
    let Some(first) = deltas.iter().map(|(_, d)| d.from_epoch).min() else {
        return;
    };
    let mirror =
        MutableStore::with_epoch_origin(rig.model.state(&rig.core, first), first, LOG_CAPACITY);
    let mut deltas: Vec<&(u64, DeltaReport)> = deltas.iter().collect();
    deltas.sort_by_key(|(_, d)| d.to_epoch);
    for (id, delta) in deltas {
        while mirror.epoch() < delta.to_epoch {
            let (added, removed) = &rig.model.batches[(mirror.epoch() - STALE_EPOCH) as usize];
            mirror.apply(added, removed);
        }
        tr.time(
            "store.delta_since",
            Lane::Server,
            *id,
            Tracer::root(),
            || pbs_net::SetStore::delta_since(&mirror, delta.from_epoch),
        );
    }
}
