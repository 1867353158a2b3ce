//! Replay of one real sync through the public functions of each layer.
//!
//! The replay feeds every layer the exact inputs the real sync used — the
//! client's set, the server's snapshot at the sync's epoch, the seed and
//! the negotiated `d` — in the order `pbs_net::client::sync` and the
//! server's session state machine call them, and records one span per
//! call. It then checks that it reproduced the real session (parameters,
//! round count, recovery and every wire byte), so the per-layer numbers
//! always describe the work that actually ran.

use crate::trace::{Lane, SpanId, Tracer, STAGE_PARALLEL, STAGE_SERIAL};
use analysis::OptimalParams;
use estimator::{inflate_estimate, Estimator, TowEstimator};
use pbs_core::{AliceSession, BobSession, Pbs, ESTIMATOR_SEED_SALT};
use pbs_net::frame::{read_frame, write_frame, EstimatorMsg, Frame, FRAME_OVERHEAD};
use pbs_net::store::{DeltaAnswer, MutableStore, SetStore};
use pbs_net::{ClientConfig, ServerConfig, SyncReport};
use std::collections::HashSet;

/// What one replay reproduced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The `(n, m, t, groups)` both sides planned.
    pub params: OptimalParams,
    /// Elements recovered by the first round's reports.
    pub round1_recovered: usize,
    /// `A \ B`, shipped in the final transfer.
    pub pushed: Vec<u64>,
    /// Frames in both directions.
    pub frames: u64,
    /// Wire bytes in both directions, framing included.
    pub bytes: u64,
}

#[derive(Default)]
struct Wire {
    up: u64,
    down: u64,
    frames_up: u64,
    frames_down: u64,
    bodies: u64,
}

struct Ctx<'a> {
    tr: &'a mut Tracer,
    sync: u64,
    max_frame: u32,
    wire: Wire,
}

impl Ctx<'_> {
    /// Put `frame` through the frame codec as the sender writes it and the
    /// receiver reads it; returns the decoded frame and its wire size.
    fn send(&mut self, stage: SpanId, from: Lane, frame: &Frame) -> Result<(Frame, u64), String> {
        let (to, up) = match from {
            Lane::Client => (Lane::Server, true),
            _ => (Lane::Client, false),
        };
        let mut buf = Vec::new();
        let max = self.max_frame;
        let written = self
            .tr
            .time("frame.encode", from, self.sync, stage, || {
                write_frame(&mut buf, frame, max)
            })
            .map_err(|e| format!("replay encode: {e}"))?;
        let (decoded, read) = self
            .tr
            .time("frame.decode", to, self.sync, stage, || {
                read_frame(&mut &buf[..], max)
            })
            .map_err(|e| format!("replay decode: {e}"))?;
        if written != read {
            return Err(format!("frame codec wrote {written} B but read {read} B"));
        }
        self.wire.bodies += written - FRAME_OVERHEAD;
        if up {
            self.wire.up += written;
            self.wire.frames_up += 1;
        } else {
            self.wire.down += written;
            self.wire.frames_down += 1;
        }
        Ok((decoded, written))
    }

    fn stage(&mut self, parallel: bool, root: SpanId) -> SpanId {
        let name = if parallel {
            STAGE_PARALLEL
        } else {
            STAGE_SERIAL
        };
        self.tr.open(name, Lane::Bench, self.sync, root)
    }
}

/// Replay sync `sync` of `client_set` against `server`, a store holding
/// exactly the snapshot the real sync ran against, and check the replay
/// against the real `report`. `server` ends up with the final transfer
/// applied, as the real store did.
pub fn replay(
    tr: &mut Tracer,
    sync: u64,
    client_set: &[u64],
    server: &MutableStore,
    config: &ClientConfig,
    report: &SyncReport,
) -> Result<Replayed, String> {
    let server_config = ServerConfig::default();
    let root = tr.open("replay", Lane::Bench, sync, Tracer::root());
    let mut cx = Ctx {
        tr,
        sync,
        max_frame: config.transport.max_frame,
        wire: Wire::default(),
    };
    let cfg = config.pbs;
    let seed = config.seed;

    // ---- Handshake (and the refused catch-up of a fallback sync) ----
    let stage = cx.stage(false, root);
    cx.tr.time("client.prep", Lane::Client, sync, stage, || {
        std::hint::black_box(client_set.iter().any(|&e| e == 0 || e > u32::MAX as u64))
    });
    let mut hello = pbs_net::Hello::from_config(&cfg, seed, 0)
        .with_store(config.store.clone())
        .with_pipeline(config.pipeline.max(1));
    hello.delta_epoch = config.delta_epoch;
    hello.version = config.protocol_version;
    let Frame::Hello(hello) = cx.send(stage, Lane::Client, &Frame::Hello(hello))?.0 else {
        return Err("replayed Hello decoded as another frame".into());
    };
    let server_cfg = hello.config()?;
    let mut negotiated = hello.clone();
    negotiated.version = hello.version.min(server_config.protocol_version);
    negotiated.pipeline = hello
        .pipeline
        .max(1)
        .min(server_config.max_pipeline_depth as u8);
    cx.send(stage, Lane::Server, &Frame::Hello(negotiated.clone()))?;
    if let Some(since) = hello.delta_epoch {
        let answer = cx
            .tr
            .time("store.delta_since", Lane::Server, sync, stage, || {
                server.delta_since(since)
            });
        let DeltaAnswer::Trimmed { current } = answer else {
            return Err(format!(
                "replayed catch-up from epoch {since} was not refused"
            ));
        };
        cx.send(
            stage,
            Lane::Server,
            &Frame::FullResyncRequired { epoch: current },
        )?;
    }
    cx.tr.close(stage);

    // ---- Estimator: the client's bank overlaps the server's snapshot ----
    let stage = cx.stage(true, root);
    let (snapshot, snapshot_epoch) =
        cx.tr.time("store.snapshot", Lane::Server, sync, stage, || {
            server.epoch_snapshot()
        });
    let est_seed = xhash::derive_seed(seed, ESTIMATOR_SEED_SALT);
    let bank = cx.tr.time("tow.insert", Lane::Client, sync, stage, || {
        let mut bank = TowEstimator::new(cfg.estimator_sketches, est_seed);
        bank.insert_slice(client_set);
        bank.to_bytes()
    });
    cx.tr.close(stage);

    let stage = cx.stage(false, root);
    let bank_frame = Frame::EstimatorExchange(EstimatorMsg::TowBank(bank));
    let Frame::EstimatorExchange(EstimatorMsg::TowBank(bank)) =
        cx.send(stage, Lane::Client, &bank_frame)?.0
    else {
        return Err("replayed bank decoded as another frame".into());
    };
    let client_bank = TowEstimator::from_bytes(&bank).ok_or("replayed bank does not parse")?;
    let own = cx.tr.time("tow.insert", Lane::Server, sync, stage, || {
        let mut own = TowEstimator::new(server_cfg.estimator_sketches, est_seed);
        own.insert_slice(&snapshot);
        own
    });
    let d_hat = cx.tr.time("tow.estimate", Lane::Server, sync, stage, || {
        client_bank.estimate(&own)
    });
    let d_param = inflate_estimate(d_hat) as u64;
    cx.send(
        stage,
        Lane::Server,
        &Frame::EstimatorExchange(EstimatorMsg::Estimate { d_param, d_hat }),
    )?;
    cx.tr.close(stage);

    // ---- Planning and session setup, on both sides at once ----
    let stage = cx.stage(true, root);
    let params = cx.tr.time("plan", Lane::Client, sync, stage, || {
        Pbs::new(cfg).plan(d_param as usize)
    });
    let mut alice = cx
        .tr
        .time("alice.partition", Lane::Client, sync, stage, || {
            AliceSession::new(cfg, params, client_set, seed)
        });
    let grant = config.pipeline.max(1).min(negotiated.pipeline as u32);
    let round_cap = config.round_cap;
    let batch = cx.tr.time("alice.sketch", Lane::Client, sync, stage, || {
        alice.start_rounds(grant.min(round_cap))
    });
    let server_params = cx.tr.time("plan", Lane::Server, sync, stage, || {
        Pbs::new(server_cfg).plan(d_param as usize)
    });
    let mut bob = cx.tr.time("bob.partition", Lane::Server, sync, stage, || {
        BobSession::new(server_cfg, server_params, &snapshot, seed)
    });
    drop(snapshot);
    let mut sketch_bytes = 0;
    let (mut sketches, n) =
        cx.send(stage, Lane::Client, &Frame::Sketches { m: params.m, batch })?;
    sketch_bytes += n;
    cx.tr.close(stage);

    // ---- Sketch/report rounds ----
    let mut report_bytes = 0;
    let mut round1_recovered = None;
    let verified = loop {
        let stage = cx.stage(false, root);
        let Frame::Sketches { batch, .. } = sketches else {
            return Err("replayed sketches decoded as another frame".into());
        };
        let reports = cx.tr.time("bob.decode", Lane::Server, sync, stage, || {
            bob.handle_sketches(&batch)
        });
        let (reports, n) = cx.send(stage, Lane::Server, &Frame::Reports(reports))?;
        report_bytes += n;
        let Frame::Reports(reports) = reports else {
            return Err("replayed reports decoded as another frame".into());
        };
        let status = cx.tr.time("alice.apply", Lane::Client, sync, stage, || {
            alice.apply_reports(&reports)
        });
        round1_recovered.get_or_insert(status.recovered_this_round);
        if status.all_verified || alice.round() >= round_cap {
            cx.tr.close(stage);
            break status.all_verified;
        }
        let layers = grant.min(round_cap - alice.round());
        let batch = cx.tr.time("alice.sketch", Lane::Client, sync, stage, || {
            alice.start_rounds(layers)
        });
        let (next, n) = cx.send(stage, Lane::Client, &Frame::Sketches { m: params.m, batch })?;
        sketch_bytes += n;
        sketches = next;
        cx.tr.close(stage);
    };

    // ---- Final transfer ----
    let stage = cx.stage(false, root);
    let (rounds, round_trips) = (alice.round(), alice.round_trips());
    let (recovered, pushed) = cx
        .tr
        .time("client.transfer", Lane::Client, sync, stage, || {
            let holdings: HashSet<u64> = client_set.iter().copied().collect();
            let recovered = alice.into_recovered();
            let pushed: Vec<u64> = recovered
                .iter()
                .copied()
                .filter(|e| holdings.contains(e))
                .collect();
            (recovered, pushed)
        });
    let (done, _) = cx.send(stage, Lane::Client, &Frame::Done(pushed.clone()))?;
    let Frame::Done(ingest) = done else {
        return Err("replayed transfer decoded as another frame".into());
    };
    cx.tr.time("store.apply", Lane::Server, sync, stage, || {
        server.apply_missing(&ingest)
    });
    let ack = match snapshot_epoch {
        Some(epoch) if negotiated.version >= 3 => Frame::DeltaDone { epoch },
        _ => Frame::Done(Vec::new()),
    };
    cx.send(stage, Lane::Server, &ack)?;
    cx.tr.close(stage);
    cx.tr.close(root);

    // ---- Fidelity: the replay must be the session that ran ----
    let w = &cx.wire;
    let check = |what: &str, replayed: String, real: String| {
        if replayed == real {
            Ok(())
        } else {
            Err(format!(
                "sync {sync}: replayed {what} {replayed} != real {real}"
            ))
        }
    };
    let real_params = Pbs::new(cfg).plan(report.d_param as usize);
    let shape = |p: &OptimalParams| format!("(m={}, t={}, groups={})", p.m, p.t, p.groups);
    check("d_param", d_param.to_string(), report.d_param.to_string())?;
    check(
        "d_hat",
        format!("{:?}", Some(d_hat)),
        format!("{:?}", report.estimated_d),
    )?;
    check("client params", shape(&params), shape(&real_params))?;
    check("server params", shape(&server_params), shape(&real_params))?;
    check(
        "verified",
        verified.to_string(),
        report.verified.to_string(),
    )?;
    check("rounds", rounds.to_string(), report.rounds.to_string())?;
    check(
        "round trips",
        round_trips.to_string(),
        report.round_trips.to_string(),
    )?;
    check(
        "recovered",
        format!("{:?}", crate::gen::sorted(recovered)),
        format!("{:?}", crate::gen::sorted(report.recovered.clone())),
    )?;
    check(
        "pushed",
        format!("{:?}", crate::gen::sorted(pushed.clone())),
        format!("{:?}", crate::gen::sorted(report.pushed.clone())),
    )?;
    check(
        "frames up/down",
        format!("{}/{}", w.frames_up, w.frames_down),
        format!("{}/{}", report.frames_sent, report.frames_received),
    )?;
    // Everything the client sent besides sketches is fixed by the config
    // and the transfer, so equal totals pin the sketch bytes, and likewise
    // the report bytes downstream.
    check(
        "sketch bytes",
        sketch_bytes.to_string(),
        (report.bytes_sent as i64 - (w.up - sketch_bytes) as i64).to_string(),
    )?;
    check(
        "report bytes",
        report_bytes.to_string(),
        (report.bytes_received as i64 - (w.down - report_bytes) as i64).to_string(),
    )?;
    let frames = w.frames_up + w.frames_down;
    check(
        "wire bytes (bodies + 8 B/frame)",
        (w.bodies + FRAME_OVERHEAD * frames).to_string(),
        (report.bytes_sent + report.bytes_received).to_string(),
    )?;
    Ok(Replayed {
        params,
        round1_recovered: round1_recovered.unwrap_or(0),
        pushed,
        frames,
        bytes: w.up + w.down,
    })
}
