//! The closed-loop driver: set a workload up, run whole passes (a fixed
//! count, or until a deadline), check every result, and turn the samples
//! into latency statistics.
//!
//! Closed loop, one process: each session sends its next statement only
//! after the previous one completed; `sessions_rw` drives two sessions from
//! two OS threads, every other workload one session from the main thread.

use crate::check::Checker;
use crate::gen::StarData;
use crate::stats::{mean, median, quantile, ratio};
use crate::workload::{build, Bench, Class, Generator, Kind, Stmt, WorkloadId};
use mdbs::{MsqlOutcome, Session};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed passes every set-up ends with (inside `setup_s`): connections,
/// the statistics cache and lazily built state are warm before timing.
pub const WARMUP_PASSES: u64 = 2;

/// One completed, verified statement.
#[derive(Debug, Clone)]
pub struct Sample {
    pub class: Class,
    /// Pass number within its session (warm-up passes come first).
    pub pass: u64,
    pub session: usize,
    pub micros: f64,
}

/// When a driver stops starting new passes.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Passes(u64),
    Until(Instant),
}

/// Hooks a traced run hangs around every statement and pass. The untraced
/// run uses [`NoObserver`], which compiles to nothing.
pub trait Observer {
    fn before(&mut self, _session: &Session, _pass: u64, _stmt: &Stmt) {}
    fn after(&mut self, _session: &Session, _stmt: &Stmt, _micros: f64, _ok: bool) {}
    /// Called after each pass with the statements it ran.
    fn pass_done(
        &mut self,
        _session: &mut Session,
        _checker: &mut Checker,
        _pass: u64,
        _stmts: &[Stmt],
    ) {
    }
}

/// The tracing-off observer.
pub struct NoObserver;
impl Observer for NoObserver {}

/// One session's generator, checker and failure accounting.
pub struct Driver {
    session_no: usize,
    gen: Generator,
    pub checker: Checker,
    next_pass: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim, for the report.
    pub errors: Vec<String>,
    /// Time spent generating each pass's statements.
    pub generator_us: Vec<f64>,
    /// Rows handed back to the user by retrievals and joins.
    pub rows_returned: u64,
}

impl Driver {
    fn new(workload: WorkloadId, seed: u64, session_no: usize, checker: Checker) -> Driver {
        Driver {
            session_no,
            gen: Generator::new(workload, seed, session_no),
            checker,
            next_pass: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            generator_us: Vec::new(),
            rows_returned: 0,
        }
    }

    /// Runs whole passes on `session` until `stop`; returns the verified
    /// statements' samples. Failures are counted, not sampled.
    pub fn run<O: Observer>(
        &mut self,
        session: &mut Session,
        stop: Stop,
        observer: &mut O,
    ) -> Vec<Sample> {
        let mut samples = Vec::new();
        let mut done = 0u64;
        loop {
            match stop {
                Stop::Passes(n) if done >= n => break,
                Stop::Until(deadline) if Instant::now() >= deadline => break,
                _ => {}
            }
            let pass = self.next_pass;
            let t = Instant::now();
            let stmts = self.gen.pass(pass);
            self.generator_us.push(t.elapsed().as_secs_f64() * 1e6);
            for stmt in &stmts {
                observer.before(session, pass, stmt);
                let t = Instant::now();
                let result = session.execute(&stmt.sql);
                let micros = t.elapsed().as_secs_f64() * 1e6;
                let verdict = match &result {
                    Ok(outcome) => {
                        self.rows_returned += match outcome {
                            MsqlOutcome::Multitable(mt) => mt.total_rows() as u64,
                            MsqlOutcome::Table(rs) => rs.rows.len() as u64,
                            _ => 0,
                        };
                        self.checker.check(stmt, outcome)
                    }
                    Err(e) => Err(e.to_string()),
                };
                self.attempted += 1;
                observer.after(session, stmt, micros, verdict.is_ok());
                match verdict {
                    Ok(()) => samples.push(Sample {
                        class: stmt.class,
                        pass,
                        session: self.session_no,
                        micros,
                    }),
                    Err(e) => {
                        self.failed += 1;
                        if self.errors.len() < 5 {
                            self.errors.push(format!("pass {pass} {}: {e}", stmt.class.name()));
                        }
                    }
                }
            }
            observer.pass_done(session, &mut self.checker, pass, &stmts);
            self.next_pass += 1;
            done += 1;
        }
        samples
    }
}

/// Exact cost counters read off the federation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub net_msgs: u64,
    pub net_bytes: u64,
    pub rows_scanned: u64,
    pub index_hits: u64,
}

impl Counters {
    pub fn read(session: &Session) -> Counters {
        let net = session.network().stats();
        let services: Vec<String> = session.ad().services().map(|s| s.name.clone()).collect();
        let mut out =
            Counters { net_msgs: net.messages, net_bytes: net.bytes, ..Counters::default() };
        for service in services {
            if let Some(engine) = session.engine(&service) {
                let stats = engine.lock().stats();
                out.rows_scanned += stats.rows_scanned;
                out.index_hits += stats.index_hits;
            }
        }
        out
    }

    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            net_msgs: self.net_msgs - earlier.net_msgs,
            net_bytes: self.net_bytes - earlier.net_bytes,
            rows_scanned: self.rows_scanned - earlier.rows_scanned,
            index_hits: self.index_hits - earlier.index_hits,
        }
    }
}

/// A set-up workload: the federation, its extra sessions and one driver per
/// driving session.
pub struct Rig {
    pub workload: WorkloadId,
    pub bench: Bench,
    /// Sessions beyond the primary one (`sessions_rw` drives these; the
    /// primary session idles).
    extra: Vec<Session>,
    pub drivers: Vec<Driver>,
    /// Build + load + import + ANALYZE + warm-up.
    pub setup_s: f64,
}

/// A timed (or pass-counted) stretch of a rig's closed loop.
pub struct Segment {
    pub wall_s: f64,
    pub samples: Vec<Sample>,
    pub counters: Counters,
}

impl Rig {
    /// Builds the workload's federation on a fabric with `latency`, opens
    /// `sessions` driving sessions and runs the warm-up passes.
    pub fn setup(
        workload: WorkloadId,
        seed: u64,
        star: Option<&Arc<StarData>>,
        latency: Duration,
        sessions: usize,
    ) -> Result<Rig, String> {
        let started = Instant::now();
        let bench = build(workload, star, latency)?;
        let exact_rates = sessions == 1;
        let extra: Vec<Session> = if sessions > 1 {
            (0..sessions).map(|_| bench.fed.session()).collect()
        } else {
            vec![]
        };
        let drivers = (0..sessions)
            .map(|i| Driver::new(workload, seed, i, Checker::new(bench.star.clone(), exact_rates)))
            .collect();
        let mut rig = Rig { workload, bench, extra, drivers, setup_s: 0.0 };
        rig.segment(Stop::Passes(WARMUP_PASSES), &mut NoObserver);
        rig.setup_s = started.elapsed().as_secs_f64();
        Ok(rig)
    }

    /// Runs every driving session until `stop`. The observer sees the
    /// statements of a single-session rig only.
    pub fn segment<O: Observer>(&mut self, stop: Stop, observer: &mut O) -> Segment {
        let before = Counters::read(&self.bench.fed);
        let started = Instant::now();
        let samples = if self.extra.is_empty() {
            self.drivers[0].run(&mut self.bench.fed, stop, observer)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .drivers
                    .iter_mut()
                    .zip(self.extra.iter_mut())
                    .map(|(driver, session)| {
                        scope.spawn(move || driver.run(session, stop, &mut NoObserver))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("a driver thread panicked"))
                    .collect()
            })
        };
        let wall_s = started.elapsed().as_secs_f64();
        let counters = Counters::read(&self.bench.fed).since(before);
        Segment { wall_s, samples, counters }
    }

    pub fn attempted(&self) -> u64 {
        self.drivers.iter().map(|d| d.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.drivers.iter().map(|d| d.failed).sum()
    }

    pub fn errors(&self) -> Vec<String> {
        self.drivers.iter().flat_map(|d| d.errors.iter().cloned()).collect()
    }
}

/// Latency statistics of one or more segments that ran the same passes.
pub struct Latencies {
    pub statements: usize,
    /// Verified statements ÷ wall time, all sessions together: the median
    /// over the segments.
    pub stmt_per_s: f64,
    pub mean_us: f64,
    /// Median over passes of the pass's mean statement latency. (The plain
    /// median over statements sits in a gap between two classes of very
    /// different cost and jumps between them from run to run.)
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    /// Per kind: median over passes of the kind's mean statement latency in
    /// the pass, so every class of the kind moves it.
    pub kind_p50_us: BTreeMap<&'static str, f64>,
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    pub class_p50_us: BTreeMap<Class, f64>,
}

/// Median over (segment, session, pass) of the mean latency of the
/// statements `keep` selects in that pass; 0 when no statement matches.
fn per_pass_p50(segments: &[Segment], keep: impl Fn(Kind) -> bool) -> f64 {
    let mut passes: BTreeMap<(usize, usize, u64), Vec<f64>> = BTreeMap::new();
    for (i, segment) in segments.iter().enumerate() {
        for s in segment.samples.iter().filter(|s| keep(s.class.kind())) {
            passes.entry((i, s.session, s.pass)).or_default().push(s.micros);
        }
    }
    let means: Vec<f64> = passes.values().map(|v| mean(v)).collect();
    median(&means)
}

impl Latencies {
    pub fn of(segments: &[Segment]) -> Latencies {
        let samples = || segments.iter().flat_map(|segment| &segment.samples);
        let all: Vec<f64> = samples().map(|s| s.micros).collect();
        let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
        for s in samples() {
            by_class.entry(s.class).or_default().push(s.micros);
        }
        let rates: Vec<f64> =
            segments.iter().map(|s| ratio(s.samples.len() as f64, s.wall_s)).collect();
        Latencies {
            statements: all.len(),
            stmt_per_s: median(&rates),
            mean_us: mean(&all),
            p50_us: per_pass_p50(segments, |_| true),
            p95_us: quantile(&all, 0.95),
            p99_us: quantile(&all, 0.99),
            kind_p50_us: Kind::ALL
                .into_iter()
                .map(|k| (k.name(), per_pass_p50(segments, |x| x == k)))
                .collect(),
            read_p50_us: per_pass_p50(segments, Kind::is_read),
            write_p50_us: per_pass_p50(segments, Kind::is_write),
            class_p50_us: by_class.into_iter().map(|(c, v)| (c, median(&v))).collect(),
        }
    }
}
