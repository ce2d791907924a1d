//! Floor measurements of single layers, taken once per traced run: what one
//! network round trip, one LAM round trip and one metrics call cost on this
//! host with nothing else going on.

use crate::stats::median;
use ldbs::profile::DbmsProfile;
use ldbs::Engine;
use mdbs::lam::spawn_lam;
use mdbs::lamclient::LamClient;
use mdbs::proto::{Request, Response, TaskMode};
use netsim::{LatencyModel, Network};
use obs::{LogicalClock, MetricsRegistry, Tracer};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Default)]
pub struct Floors {
    pub netsim_rtt_us: f64,
    pub netsim_send_ns: f64,
    pub lam_call_us: f64,
    pub obs_counter_add_ns: f64,
    pub obs_observe_ns: f64,
    pub obs_span_ns: f64,
    pub obs_snapshot_us: f64,
}

fn per_op_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// 64-byte ping-pong between two endpoints under `latency` (median round
/// trip), and the cost of one `send` alone.
fn netsim_floors(latency: Duration) -> Result<(f64, f64), String> {
    let net = Network::new();
    if !latency.is_zero() {
        net.set_latency(LatencyModel::uniform(latency));
    }
    let a = net.register("ping").map_err(|e| e.to_string())?;
    let b = net.register("pong").map_err(|e| e.to_string())?;
    let body = "x".repeat(64);
    let rounds = if latency.is_zero() { 2000 } else { 100 };
    let rtts = std::thread::scope(|scope| -> Result<Vec<f64>, String> {
        let echo = scope.spawn(move || {
            for _ in 0..rounds {
                let Ok(m) = b.recv() else { return };
                if b.send(&m.from, m.body).is_err() {
                    return;
                }
            }
        });
        let mut rtts = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            a.send("pong", body.clone()).map_err(|e| e.to_string())?;
            a.recv().map_err(|e| e.to_string())?;
            rtts.push(t.elapsed().as_secs_f64() * 1e6);
        }
        echo.join().map_err(|_| "echo thread panicked".to_string())?;
        Ok(rtts)
    })?;
    // `send` alone: the receiver never drains, so this is enqueue + stats.
    let sink = net.register("sink").map_err(|e| e.to_string())?;
    let sends = 5000;
    let send_ns = per_op_ns(sends, || {
        let _ = a.send("sink", body.clone());
    });
    drop(sink);
    Ok((median(&rtts), send_ns))
}

/// One `LamClient::call` of a one-row select against a freshly spawned LAM
/// on a zero-latency network: the floor of a LAM round trip.
fn lam_call_floor() -> Result<f64, String> {
    let net = Network::new();
    let mut engine = Engine::new("svc_floor", DbmsProfile::oracle_like());
    engine.create_database("floor").map_err(|e| e.to_string())?;
    engine.execute("floor", "CREATE TABLE one (a INT)").map_err(|e| e.to_string())?;
    engine.execute("floor", "INSERT INTO one VALUES (1)").map_err(|e| e.to_string())?;
    let lam = spawn_lam(&net, "svc_floor", "floor_site", engine).map_err(|e| e.to_string())?;
    let client = LamClient::connect(&net, "floor_site", "floor", Duration::from_secs(10))
        .map_err(|e| e.to_string())?;
    let req = Request::Task {
        name: "FLOOR".into(),
        mode: TaskMode::Auto,
        database: "floor".into(),
        commands: vec!["SELECT a FROM one".into()],
    };
    let mut calls = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let t = Instant::now();
        let resp = client.call(req.clone()).map_err(|e| e.to_string())?;
        calls.push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(resp, Response::TaskDone { status: 'C', .. }) {
            return Err(format!("floor call failed: {resp:?}"));
        }
    }
    drop(client);
    lam.shutdown();
    Ok(median(&calls))
}

/// The metrics substrate on the federation's own registry (so `snapshot`
/// copies as many series as the workload created).
fn obs_floors(registry: &MetricsRegistry, floors: &mut Floors) {
    let iters = 20_000;
    floors.obs_counter_add_ns = per_op_ns(iters, || registry.counter_add("fedbench.probe", 1));
    floors.obs_observe_ns = per_op_ns(iters, || registry.observe("fedbench.probe_hist", 7));
    let tracer = Tracer::new(LogicalClock::new());
    let root = tracer.root("probe");
    floors.obs_span_ns = per_op_ns(iters, || {
        let span = root.child("child");
        span.note("k", 1);
        span.end();
    });
    floors.obs_snapshot_us = per_op_ns(200, || {
        black_box(registry.snapshot());
    }) / 1e3;
}

pub fn measure(latency: Duration, registry: &MetricsRegistry) -> Result<Floors, String> {
    let mut floors = Floors::default();
    let (rtt, send) = netsim_floors(latency)?;
    floors.netsim_rtt_us = rtt;
    floors.netsim_send_ns = send;
    floors.lam_call_us = lam_call_floor()?;
    obs_floors(registry, &mut floors);
    Ok(floors)
}
