//! What a run observed, and how it becomes the reported metrics.

use crate::replay::Replayed;
use crate::stats::{self, Summary};
use crate::trace::{critical_layers, self_times, Lane, Tracer, STAGE_PARALLEL, STAGE_SERIAL};
use pbs_net::server::StatsSnapshot;
use pbs_net::{Server, SyncReport};
use std::collections::HashMap;

/// Bits per element signature: every workload uses the 32-bit universe.
pub const UNIVERSE_BITS: u32 = 32;

/// An operation that did not complete correctly.
#[derive(Debug)]
pub enum Fault {
    /// Failed, refused, timed out or unverified: counts toward the error
    /// rate.
    Failed(String),
    /// A wrong answer presented as correct: aborts the run.
    Wrong(String),
}

/// One completed full reconciliation.
#[derive(Debug, Clone)]
pub struct SyncSample {
    /// Sync id shared by its spans and its replay.
    pub id: u64,
    /// The client's report.
    pub report: SyncReport,
    /// True `|A△B|`.
    pub d_true: usize,
}

impl SyncSample {
    /// Wire bytes in both directions, framing included.
    pub fn wire(&self) -> u64 {
        self.report.bytes_sent + self.report.bytes_received
    }

    /// Wire bytes minus the final transfer's element payload (8 B each).
    pub fn recon_wire(&self) -> u64 {
        self.wire() - 8 * self.report.pushed.len() as u64
    }

    /// Connect to final ack, in ms.
    pub fn total_ms(&self) -> f64 {
        ms(self.report.phases.total)
    }
}

/// Milliseconds of a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything a run's timed window observed.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed (see [`Fault::Failed`]).
    pub failed: u64,
    /// Completed full syncs.
    pub syncs: Vec<SyncSample>,
    /// Write due time → push covering it received, ms.
    pub push_ms: Vec<f64>,
    /// Catch-up due time → catch-up complete, ms.
    pub catchup_ms: Vec<f64>,
    /// Client-side `delta` phase of each catch-up, ms.
    pub catchup_delta_ms: Vec<f64>,
    /// How late the generator started each scheduled operation, ms.
    pub lag_ms: Vec<f64>,
    /// Length of the timed window, s.
    pub window_s: f64,
}

impl Ledger {
    /// Count one operation's outcome; a wrong answer is returned as the
    /// run's abort reason.
    pub fn settle(&mut self, outcome: Result<(), Fault>) -> Result<(), String> {
        self.attempted += 1;
        match outcome {
            Ok(()) => Ok(()),
            Err(Fault::Failed(why)) => {
                eprintln!("syncbench: operation failed: {why}");
                self.failed += 1;
                Ok(())
            }
            Err(Fault::Wrong(why)) => Err(why),
        }
    }

    /// Fold another thread's ledger into this one.
    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.syncs.extend(other.syncs);
        self.push_ms.extend(other.push_ms);
        self.catchup_ms.extend(other.catchup_ms);
        self.catchup_delta_ms.extend(other.catchup_delta_ms);
        self.lag_ms.extend(other.lag_ms);
    }
}

/// The server's counters and the registry histograms the benchmark
/// reads, at one instant.
#[derive(Debug, Clone)]
pub struct ServerProbe {
    stats: StatsSnapshot,
    /// `(count, sum in ns)` per entry of [`HISTOGRAMS`].
    hists: Vec<(u64, u64)>,
}

/// Prometheus label pairs.
type Labels = &'static [(&'static str, &'static str)];

/// Registry histograms read by name: `(metric, family, labels)`.
const HISTOGRAMS: [(&str, &str, Labels); 7] = [
    (
        "server.handshake_ms",
        "pbs_server_phase_seconds",
        &[("phase", "handshake")],
    ),
    (
        "server.estimate_ms",
        "pbs_server_phase_seconds",
        &[("phase", "estimate")],
    ),
    (
        "server.rounds_ms",
        "pbs_server_phase_seconds",
        &[("phase", "rounds")],
    ),
    (
        "server.delta_catchup_ms",
        "pbs_server_phase_seconds",
        &[("phase", "delta_catchup")],
    ),
    (
        "server.push_dispatch_ms",
        "pbs_server_push_dispatch_seconds",
        &[],
    ),
    (
        "wal.append_ms",
        "pbs_store_wal_append_seconds",
        &[("store", "default")],
    ),
    (
        "wal.compaction_ms",
        "pbs_store_compaction_seconds",
        &[("store", "default")],
    ),
];

impl ServerProbe {
    /// Read `server`'s counters and histograms now.
    pub fn read(server: &Server) -> ServerProbe {
        let registry = server.metrics();
        let hists = HISTOGRAMS
            .iter()
            .map(|(_, family, labels)| {
                // Fetches the histogram the server registered; one that was
                // never registered (a WAL timer on an in-memory store)
                // comes back empty.
                let h = registry.histogram(family, "", labels, 1e-9);
                (h.count(), h.sum())
            })
            .collect();
        ServerProbe {
            stats: server.stats().snapshot(),
            hists,
        }
    }
}

/// Per-layer server metrics over the window between two probes.
fn server_layers(before: &ServerProbe, after: &ServerProbe, syncs: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    for (i, (name, _, _)) in HISTOGRAMS.iter().enumerate() {
        let count = after.hists[i].0 - before.hists[i].0;
        let sum_ns = after.hists[i].1 - before.hists[i].1;
        let mean = if count == 0 {
            0.0
        } else {
            sum_ns as f64 / count as f64 / 1e6
        };
        if *name == "wal.compaction_ms" {
            out.push(Metric::new("wal.compactions", count as f64, "count"));
        } else {
            out.push(Metric::new(name, mean, "ms"));
        }
    }
    let (a, b) = (&after.stats, &before.stats);
    out.push(Metric::new(
        "server.round_trips",
        (a.round_trips - b.round_trips) as f64 / syncs.max(1) as f64,
        "count",
    ));
    for (name, value) in [
        (
            "server.decode_failures",
            a.decode_failures - b.decode_failures,
        ),
        (
            "server.sessions_failed",
            a.sessions_failed - b.sessions_failed,
        ),
        (
            "server.delta_fallbacks",
            a.delta_fallbacks - b.delta_fallbacks,
        ),
        (
            "server.subscribers_evicted",
            a.subscribers_evicted - b.subscribers_evicted,
        ),
    ] {
        out.push(Metric::new(name, value as f64, "count"));
    }
    out
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// One timing distribution of the window, for the detail line that
/// precedes the result.
pub struct Timing {
    /// Distribution name.
    pub name: &'static str,
    /// Median, tail, tail percentile and sample count.
    pub summary: Summary,
    /// Quartiles, when there are at least two samples.
    pub quartiles: Option<[f64; 3]>,
}

/// The window's timing distributions that have samples.
pub fn timings(ledger: &Ledger) -> Vec<Timing> {
    let sync_ms: Vec<f64> = ledger.syncs.iter().map(SyncSample::total_ms).collect();
    [
        ("sync_ms", &sync_ms),
        ("push_ms", &ledger.push_ms),
        ("catchup_ms", &ledger.catchup_ms),
        ("lag_ms", &ledger.lag_ms),
    ]
    .into_iter()
    .filter_map(|(name, v)| {
        stats::summarize(v).map(|summary| Timing {
            name,
            summary,
            quartiles: stats::quartiles(v),
        })
    })
    .collect()
}

/// The end-to-end metrics of an untraced run; an error when the window
/// completed no full sync.
pub fn end_to_end(ledger: &Ledger, setup_s: f64) -> Result<Vec<Metric>, String> {
    let sync_ms: Vec<f64> = ledger.syncs.iter().map(SyncSample::total_ms).collect();
    let sync = stats::summarize(&sync_ms).ok_or("no full sync completed in the window")?;
    let n = ledger.syncs.len() as f64;
    let wire: u64 = ledger.syncs.iter().map(SyncSample::wire).sum();
    let recon: u64 = ledger.syncs.iter().map(SyncSample::recon_wire).sum();
    let d: usize = ledger.syncs.iter().map(|s| s.d_true).sum();
    let trips: u32 = ledger.syncs.iter().map(|s| s.report.round_trips).sum();
    Ok(vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("sync_p50_ms", sync.p50, "ms"),
        Metric::new("sync_tail_ms", sync.tail, "ms"),
        Metric::new("syncs_per_s", n / ledger.window_s, "1/s"),
        Metric::new("wire_bytes_per_sync", wire as f64 / n, "B"),
        Metric::new(
            "comm_overhead_x",
            stats::comm_overhead_x(recon, d, UNIVERSE_BITS),
            "x",
        ),
        Metric::new("round_trips_per_sync", trips as f64 / n, "count"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ])
}

/// What the traced run knows about one replayed sync.
pub struct ReplayRecord {
    /// The real sync.
    pub sample: SyncSample,
    /// Its replay.
    pub replayed: Replayed,
    /// `|A| + |B|`, the elements both ToW banks hashed.
    pub tow_elements: usize,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    ledger: &Ledger,
    tracer: &Tracer,
    replays: &[ReplayRecord],
    before: &ServerProbe,
    after: &ServerProbe,
    target_rounds: u32,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let own = self_times(spans);
    let crit = critical_layers(spans);
    let k = replays.len().max(1) as f64;

    // Self time per layer over every replayed sync, per sync.
    let mut layer: HashMap<&str, f64> = HashMap::new();
    let mut calls: HashMap<&str, usize> = HashMap::new();
    let mut writer_apply = Vec::new();
    let mut delta_since = Vec::new();
    for (s, t) in spans.iter().zip(&own) {
        let in_stage = s
            .parent
            .is_some_and(|p| matches!(spans[p].name, STAGE_SERIAL | STAGE_PARALLEL));
        match (s.name, s.lane) {
            ("store.apply", Lane::Writer) => writer_apply.push(t / 1e3),
            ("store.delta_since", _) => delta_since.push(t / 1e3),
            _ if in_stage => {
                *layer.entry(s.name).or_default() += t / 1e3;
                *calls.entry(s.name).or_default() += 1;
            }
            _ => {}
        }
    }
    let per_sync = |name: &str| layer.get(name).copied().unwrap_or(0.0) / k;

    // Critical-path time per sync: the residual of the real wall time is
    // waiting (IO, queueing, the event loop).
    let mut crit_plan = 0.0;
    let mut wait = Vec::new();
    for r in replays {
        let on_path: f64 = crit
            .iter()
            .filter(|((sync, _), _)| *sync == r.sample.id)
            .map(|(_, us)| us / 1e3)
            .sum();
        crit_plan += crit.get(&(r.sample.id, "plan")).copied().unwrap_or(0.0) / 1e3;
        wait.push(r.sample.total_ms() - on_path);
    }

    let ratio =
        |f: &dyn Fn(&ReplayRecord) -> f64| stats::mean(&replays.iter().map(f).collect::<Vec<_>>());
    let mut shares_cache: HashMap<(usize, usize, usize, usize), f64> = HashMap::new();
    let expected_share = stats::mean(
        &replays
            .iter()
            .map(|r| {
                let p = r.replayed.params;
                *shares_cache
                    .entry((p.n, p.t, r.sample.d_true, p.groups))
                    .or_insert_with(|| {
                        analysis::expected_round_shares(
                            p.n,
                            p.t,
                            r.sample.d_true,
                            p.groups,
                            target_rounds,
                        )[0]
                    })
            })
            .collect::<Vec<_>>(),
    );

    let phases = |f: fn(&pbs_net::SyncPhases) -> std::time::Duration| {
        stats::mean(
            &ledger
                .syncs
                .iter()
                .map(|s| ms(f(&s.report.phases)))
                .collect::<Vec<_>>(),
        )
    };
    let p50 = |v: &[f64]| stats::summarize(v).map_or(0.0, |s| s.p50);
    let tail = |v: &[f64]| stats::summarize(v).map_or(0.0, |s| s.tail);
    let sync_ms: Vec<f64> = ledger.syncs.iter().map(SyncSample::total_ms).collect();

    let mut out = vec![
        Metric::new(
            "plan.calls",
            calls.get("plan").copied().unwrap_or(0) as f64 / k,
            "count",
        ),
        Metric::new("plan_ms", crit_plan / k, "ms"),
        Metric::new("tow.insert_ms", per_sync("tow.insert"), "ms"),
        Metric::new("tow.elements", ratio(&|r| r.tow_elements as f64), "count"),
        Metric::new(
            "est.ratio",
            ratio(&|r| r.sample.report.estimated_d.unwrap_or(0.0) / r.sample.d_true as f64),
            "ratio",
        ),
        Metric::new("alice.partition_ms", per_sync("alice.partition"), "ms"),
        Metric::new("alice.sketch_ms", per_sync("alice.sketch"), "ms"),
        Metric::new("alice.apply_ms", per_sync("alice.apply"), "ms"),
        Metric::new("bob.partition_ms", per_sync("bob.partition"), "ms"),
        Metric::new("bob.decode_ms", per_sync("bob.decode"), "ms"),
        Metric::new(
            "pbs.groups",
            ratio(&|r| r.replayed.params.groups as f64),
            "count",
        ),
        Metric::new(
            "pbs.rounds",
            ratio(&|r| r.sample.report.rounds as f64),
            "count",
        ),
        Metric::new(
            "pbs.round1_share",
            ratio(&|r| r.replayed.round1_recovered as f64 / r.sample.d_true as f64),
            "ratio",
        ),
        Metric::new("pbs.round1_share_expected", expected_share, "ratio"),
        Metric::new("store.snapshot_ms", per_sync("store.snapshot"), "ms"),
        Metric::new("store.apply_ms", stats::mean(&writer_apply), "ms"),
        Metric::new("store.delta_since_ms", stats::mean(&delta_since), "ms"),
        Metric::new("frame.count", ratio(&|r| r.replayed.frames as f64), "count"),
        Metric::new("frame.bytes", ratio(&|r| r.replayed.bytes as f64), "B"),
        Metric::new("frame.encode_ms", per_sync("frame.encode"), "ms"),
        Metric::new("frame.decode_ms", per_sync("frame.decode"), "ms"),
        Metric::new("client.connect_ms", phases(|p| p.connect), "ms"),
        Metric::new("client.handshake_ms", phases(|p| p.handshake), "ms"),
        Metric::new("client.estimate_ms", phases(|p| p.estimate), "ms"),
        Metric::new("client.rounds_ms", phases(|p| p.rounds), "ms"),
        Metric::new("client.transfer_ms", phases(|p| p.transfer), "ms"),
        Metric::new(
            "client.delta_ms",
            stats::mean(&ledger.catchup_delta_ms),
            "ms",
        ),
    ];
    out.extend(server_layers(before, after, ledger.syncs.len()));
    out.extend([
        Metric::new("net.wait_ms", stats::mean(&wait), "ms"),
        Metric::new("gen.lag_ms", stats::mean(&ledger.lag_ms), "ms"),
        Metric::new("traced.sync_p50_ms", p50(&sync_ms), "ms"),
        Metric::new("traced.push_p50_ms", p50(&ledger.push_ms), "ms"),
        Metric::new("traced.catchup_p50_ms", p50(&ledger.catchup_ms), "ms"),
        Metric::new("traced.push_tail_ms", tail(&ledger.push_ms), "ms"),
        Metric::new("traced.catchup_tail_ms", tail(&ledger.catchup_ms), "ms"),
    ]);
    out
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
