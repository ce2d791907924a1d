//! One benchmark run of one workload: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer ones.

use crate::floors;
use crate::gen::StarData;
use crate::layers::Replayer;
use crate::run::{Latencies, NoObserver, Rig, Segment, Stop};
use crate::spec;
use crate::stats::{mean, median, peak_rss_mib, ratio};
use crate::trace::Recorder;
use crate::workload::{Class, Kind, WorkloadId, WAN_LATENCY};
use obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// As many rounds as start within this many seconds (the driver's mode).
    Seconds(f64),
    /// One round of this many timed passes per session: the smoke run.
    Passes(u64),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: WorkloadId,
    pub seed: u64,
    pub length: Length,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a run reports.
pub struct Outcome {
    pub workload: WorkloadId,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failures and broken replays, verbatim.
    pub errors: Vec<String>,
    /// Free-form lines for the human report (sample counts, digests, the
    /// budget reconciliation).
    pub notes: Vec<String>,
    /// Running result digest per class (of the first round).
    pub digests: BTreeMap<Class, u64>,
    /// The spans of a traced run.
    pub trace: Option<Recorder>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Pairs computed values with the declared metrics. Every declared metric
/// must have been computed (0 where the workload has nothing to measure is a
/// value the run states, never a default), every value must be finite, and
/// nothing undeclared may be left over.
fn finish(
    defs: Vec<spec::MetricDef>,
    mut values: BTreeMap<String, f64>,
) -> Result<Vec<Metric>, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let value =
            values.remove(&d.name).ok_or_else(|| format!("`{}` was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("`{}` is {value}", d.name));
        }
        metrics.push(Metric { name: d.name, value, unit: d.unit });
    }
    match values.keys().next() {
        Some(name) => Err(format!("`{name}` is measured but BENCHMARK.json does not declare it")),
        None => Ok(metrics),
    }
}

fn star_data(opts: &Options) -> Option<Arc<StarData>> {
    opts.workload.is_star().then(|| Arc::new(StarData::generate(opts.seed)))
}

fn stop_after(length: Length, share: f64) -> Stop {
    match length {
        Length::Seconds(s) => Stop::Until(Instant::now() + Duration::from_secs_f64(s * share)),
        Length::Passes(p) => Stop::Passes(((p as f64 * share).ceil() as u64).max(1)),
    }
}

fn digests_of(rig: &Rig) -> BTreeMap<Class, u64> {
    let mut out = BTreeMap::new();
    for driver in &rig.drivers {
        for (class, d) in driver.checker.digests() {
            let slot = out.entry(*class).or_insert(0u64);
            *slot = slot.wrapping_add(*d);
        }
    }
    out
}

/// The untraced run: rounds of (set-up, warm-up, a fixed number of timed
/// passes), each on a federation built from scratch, until the run's seconds
/// are up. Timings are medians over the rounds' passes; the cost counters
/// and the peak RSS are the first round's, which does the same work in every
/// process.
pub fn end_to_end(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let star = star_data(opts);
    let (deadline, passes) = match opts.length {
        Length::Seconds(s) => (Instant::now() + Duration::from_secs_f64(s), w.round_passes()),
        Length::Passes(p) => (Instant::now(), p),
    };
    let mut setup_times = Vec::new();
    let mut rounds: Vec<Segment> = Vec::new();
    let mut first_round = None;
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    loop {
        // The previous round's federation is gone by now: its LAM threads
        // would otherwise compete with the set-up being timed.
        let mut rig = Rig::setup(w, opts.seed, star.as_ref(), w.latency(), w.sessions())?;
        setup_times.push(rig.setup_s);
        let round = rig.segment(Stop::Passes(passes), &mut NoObserver);
        first_round.get_or_insert_with(|| (round.counters, peak_rss_mib(), digests_of(&rig)));
        attempted += rig.attempted();
        failed += rig.failed();
        errors.extend(rig.errors());
        rounds.push(round);
        if Instant::now() >= deadline {
            break;
        }
    }
    let (counters, peak_rss, digests) = first_round.ok_or("no round ran")?;
    let lat = Latencies::of(&rounds);

    let mut v = BTreeMap::new();
    v.insert("setup_s".to_string(), median(&setup_times));
    v.insert("stmt_per_s".to_string(), lat.stmt_per_s);
    v.insert("stmt_p50_us".to_string(), lat.p50_us);
    v.insert("read_p50_us".to_string(), lat.read_p50_us);
    v.insert("write_p50_us".to_string(), lat.write_p50_us);
    let per_stmt = |count: u64| ratio(count as f64, rounds[0].samples.len() as f64);
    v.insert("net_msgs_per_stmt".to_string(), per_stmt(counters.net_msgs));
    v.insert("net_bytes_per_stmt".to_string(), per_stmt(counters.net_bytes));
    v.insert("rows_scanned_per_stmt".to_string(), per_stmt(counters.rows_scanned));
    v.insert("peak_rss_mb".to_string(), peak_rss);

    let mut notes = vec![
        format!(
            "{} statements in {} round(s) of {passes} passes over {} session(s); set-ups: {:?} s",
            lat.statements,
            rounds.len(),
            w.sessions(),
            setup_times
        ),
        format!(
            "ungated: mean {:.1} us, p95 {:.1} us, p99 {:.1} us",
            lat.mean_us, lat.p95_us, lat.p99_us
        ),
    ];
    let per_round: Vec<String> = rounds
        .iter()
        .map(|round| format!("{:.0}", Latencies::of(std::slice::from_ref(round)).p50_us))
        .collect();
    notes.push(format!("stmt_p50_us round by round: {}", per_round.join(" ")));
    for (class, p50) in &lat.class_p50_us {
        notes.push(format!("class {:<15} p50 {:>10.1} us", class.name(), p50));
    }
    Ok(Outcome {
        workload: w,
        attempted,
        failed,
        metrics: finish(spec::end_to_end()?, v)?,
        errors,
        notes,
        digests,
        trace: None,
    })
}

/// Sum of every counter named `name` or `name{...}`.
fn counter_sum(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    let labelled = format!("{name}{{");
    snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.as_str() == name || k.starts_with(&labelled))
        .map(|(_, v)| *v)
        .sum()
}

/// Spans of these names are timed per replayed statement; each becomes the
/// per-layer metric `<name>_us`.
const TIMED_LAYERS: [&str; 19] = [
    "msql-lang.parse",
    "msql-lang.print",
    "translate.body",
    "translate.plangen",
    "planner.estimate",
    "dol.engine",
    "codec.text.encode",
    "codec.text.decode",
    "codec.binary.encode",
    "codec.binary.decode",
    "codec.payload_to_rows",
    "codec.rows_to_payload",
    "ldbs.exec",
    "ldbs.write",
    "ldbs.prepare_commit",
    "ldbs.coord_join",
    "ldbs.analyze",
    "merge.aggregate",
    "merge.topk",
];

/// The traced run. Its time is split between an untraced stretch (the
/// budget's top line and the registry counters), the traced stretch (root
/// span per statement, replay of every statement through the layers after
/// each pass), one or two latency twins and the floor measurements.
pub fn traced(opts: &Options) -> Result<Outcome, String> {
    let w = opts.workload;
    let star = star_data(opts);
    let mut rig = Rig::setup(w, opts.seed, star.as_ref(), w.latency(), w.sessions())?;

    // 1. Untraced stretch.
    let registry_before = rig.bench.fed.metrics();
    let wal_before = rig.bench.fed.wal().map_or(0, |wal| wal.record_count());
    let rows_before: u64 = rig.drivers.iter().map(|d| d.rows_returned).sum();
    let plain: Segment = rig.segment(stop_after(opts.length, 0.35), &mut NoObserver);
    let registry_after = rig.bench.fed.metrics();
    let wal_records = rig.bench.fed.wal().map_or(0, |wal| wal.record_count()) - wal_before;
    let rows_returned = rig.drivers.iter().map(|d| d.rows_returned).sum::<u64>() - rows_before;
    let lat = Latencies::of(std::slice::from_ref(&plain));
    let n = lat.statements as f64;
    let delta = |name: &str| {
        (counter_sum(&registry_after, name) - counter_sum(&registry_before, name)) as f64
    };

    // 2. A one-session rig on the workload's own fabric — the workload's
    // own rig unless it drives several sessions. Its untraced stretch is the
    // base of `scaling_2v1` and of the round-trip estimate; the traced
    // stretch runs here too, where attribution per statement is exact.
    let twin_stop = || match opts.length {
        Length::Seconds(s) => Stop::Until(Instant::now() + Duration::from_secs_f64(s * 0.12)),
        Length::Passes(_) => Stop::Passes(1),
    };
    let mut solo = match w.sessions() {
        1 => None,
        _ => Some(Rig::setup(w, opts.seed, star.as_ref(), w.latency(), 1)?),
    };
    let solo_lat =
        solo.as_mut().map(|solo| Latencies::of(&[solo.segment(twin_stop(), &mut NoObserver)]));
    let base_lat = solo_lat.as_ref().unwrap_or(&lat);
    let mut replayer = Replayer::new(w.name());
    let traced_lat = Latencies::of(&[solo
        .as_mut()
        .unwrap_or(&mut rig)
        .segment(stop_after(opts.length, 0.25), &mut replayer)]);

    // 3. The same on the other latency (1 ms for the 0-latency workloads, 0
    // for `paper_wan`): what a statement's sequential round trips cost.
    let other = if w.latency().is_zero() { WAN_LATENCY } else { Duration::ZERO };
    let mut twin = Rig::setup(w, opts.seed, star.as_ref(), other, 1)?;
    let other_lat = Latencies::of(&[twin.segment(twin_stop(), &mut NoObserver)]);
    let rtt_us = 2.0 * WAN_LATENCY.as_secs_f64() * 1e6;
    let side_rigs: Vec<Rig> = solo.into_iter().chain([twin]).collect();

    // 4. Floors.
    let fl = floors::measure(w.latency(), rig.bench.fed.metrics_registry())?;

    // 5. Per-layer values.
    let selfs = replayer.rec.self_times();
    let replayed = replayer.counts.statements as f64;
    let per_stmt = |name: &str| ratio(selfs.get(name).map_or(0.0, |(_, us)| *us), replayed);
    let c = &replayer.counts;
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    for layer in TIMED_LAYERS {
        put(&format!("{layer}_us"), per_stmt(layer));
    }
    let (wal_appends, wal_us) = selfs.get("wal.append").copied().unwrap_or((0, 0.0));
    put("wal.append_us", ratio(wal_us, wal_appends as f64));
    let vital_stmts = plain.samples.iter().filter(|s| s.class.kind() == Kind::Vital).count();
    put("wal.records_per_vital", ratio(wal_records as f64, vital_stmts as f64));
    put("translate.pertinent_ratio", ratio(c.pertinent as f64, c.expand_candidates as f64));
    let (hits, fetches) = (delta("planner.stats_cache_hits"), delta("planner.stats_fetches"));
    put("planner.stats_fetches_per_stmt", ratio(fetches, n));
    put("planner.stats_cache_hit_ratio", ratio(hits, hits + fetches));
    put("dol.tasks_per_stmt", ratio(c.dol_tasks as f64, replayed));
    put("codec.text.bytes_per_row", ratio(c.text_response_bytes as f64, c.response_rows as f64));
    put(
        "codec.binary.bytes_per_row",
        ratio(c.binary_response_bytes as f64, c.response_rows as f64),
    );
    put("netsim.rtt_us", fl.netsim_rtt_us);
    put("netsim.send_ns", fl.netsim_send_ns);
    let mut seq_rtts_weighted = 0.0;
    for kind in Kind::LAYERED {
        put(&format!("netsim.msgs_per_{}", kind.name()), replayer.traffic.msgs_per_stmt(kind));
        let here = base_lat.kind_p50_us.get(kind.name()).copied().unwrap_or(0.0);
        let there = other_lat.kind_p50_us.get(kind.name()).copied().unwrap_or(0.0);
        let rtts = if here > 0.0 && there > 0.0 { (here - there).abs() / rtt_us } else { 0.0 };
        put(&format!("netsim.seq_rtts_per_{}", kind.name()), rtts);
        put(&format!("session.{}_p50_us", kind.name()), lat.kind_p50_us[kind.name()]);
        let share = plain.samples.iter().filter(|s| s.class.kind() == kind).count() as f64;
        seq_rtts_weighted += rtts * ratio(share, n);
    }
    put("lam.call_us", fl.lam_call_us);
    put("lam.calls_per_stmt", ratio(delta("lam.calls"), n));
    put("lam.attempts_per_call", ratio(delta("lam.attempts"), delta("lam.calls")));
    put("lam.bytes_per_stmt", ratio(delta("lam.bytes"), n));
    put("lam.bytes_saved_per_stmt", ratio(delta("lam.bytes_saved"), n));
    put(
        "ldbs.rows_scanned_per_row_returned",
        ratio(plain.counters.rows_scanned as f64, rows_returned as f64),
    );
    put("ldbs.index_hits_per_stmt", ratio(plain.counters.index_hits as f64, n));
    put("merge.groups_per_stmt", ratio(c.merged_groups as f64, replayed));
    put("obs.counter_add_ns", fl.obs_counter_add_ns);
    put("obs.observe_ns", fl.obs_observe_ns);
    put("obs.span_ns", fl.obs_span_ns);
    put("obs.snapshot_us", fl.obs_snapshot_us);
    put("session.mean_us", lat.mean_us);
    put("session.p95_us", lat.p95_us);
    put("session.p99_us", lat.p99_us);
    for class in Class::ALL {
        let p50 = lat.class_p50_us.get(&class).copied().unwrap_or(0.0);
        put(&format!("session.{}_p50_us", class.name()), p50);
    }
    put(
        "session.scaling_2v1",
        solo_lat.as_ref().map_or(0.0, |solo| ratio(lat.stmt_per_s, solo.stmt_per_s)),
    );
    put("session.deadlock_retries_per_stmt", ratio(delta("session.deadlock_retries"), n));
    put("harness.trace_overhead", ratio(traced_lat.p50_us, base_lat.p50_us));
    let generator: Vec<f64> =
        rig.drivers.iter().flat_map(|d| d.generator_us.iter().copied()).collect();
    put("harness.generator_us", ratio(mean(&generator), w.statements_per_pass() as f64));

    // 6. The budget: layer means on the blocking path + sequential LAM
    // round trips, against the mean statement latency of the untraced
    // stretch. The residual is reported, never hidden.
    // Everything timed is on the path except printing the parsed statement
    // back and the wire format the workload does not use.
    let unused_codec = match w.wire_format() {
        mdbs::WireFormat::Binary => "codec.text.",
        mdbs::WireFormat::Text => "codec.binary.",
    };
    let mut budget: Vec<(String, f64)> = TIMED_LAYERS
        .into_iter()
        .filter(|l| *l != "msql-lang.print" && !l.starts_with(unused_codec))
        .chain(["wal.append"])
        .map(|l| (l.to_string(), per_stmt(l)))
        .collect();
    let hop_us = fl.lam_call_us + 2.0 * w.latency().as_secs_f64() * 1e6;
    budget.push((
        format!("lam hops ({seq_rtts_weighted:.2} sequential x {hop_us:.1} us)"),
        seq_rtts_weighted * hop_us,
    ));
    let accounted: f64 = budget.iter().map(|(_, us)| us).sum();
    put("session.accounted_us", accounted);
    put("session.unaccounted_us", lat.mean_us - accounted);

    let mut notes = vec![
        format!(
            "latency twin ({:?} one-way): {} statements, {:.1}/s, p50 {:.1} us",
            other, other_lat.statements, other_lat.stmt_per_s, other_lat.p50_us
        ),
        format!(
            "one-session base: {} statements, {:.1}/s, p50 {:.1} us",
            base_lat.statements, base_lat.stmt_per_s, base_lat.p50_us
        ),
        format!(
            "untraced stretch: {} statements in {:.3} s; traced stretch: {} statements replayed, \
             {} spans",
            lat.statements,
            plain.wall_s,
            replayer.counts.statements,
            replayer.rec.spans().len()
        ),
        format!("budget for {} (mean us per statement of the mix):", w.name()),
    ];
    budget.retain(|(_, us)| *us > 0.0);
    budget.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, us) in &budget {
        notes.push(format!("  {name:<46} {us:>10.1}  {:>5.1} %", 100.0 * us / lat.mean_us));
    }
    notes.push(format!(
        "  {:<46} {:>10.1}  {:>5.1} %",
        "session.unaccounted",
        lat.mean_us - accounted,
        100.0 * (lat.mean_us - accounted) / lat.mean_us
    ));
    notes.push(format!("  {:<46} {:>10.1}", "session.mean (untraced)", lat.mean_us));

    let mut errors = rig.errors();
    errors.extend(side_rigs.iter().flat_map(Rig::errors));
    errors.extend(replayer.errors.iter().cloned());
    Ok(Outcome {
        workload: w,
        attempted: rig.attempted(),
        failed: rig.failed() + side_rigs.iter().map(Rig::failed).sum::<u64>(),
        metrics: finish(spec::per_layer()?, v)?,
        errors,
        notes,
        digests: digests_of(&rig),
        trace: Some(replayer.rec),
    })
}
