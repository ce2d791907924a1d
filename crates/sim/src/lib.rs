//! Deterministic crash-recovery simulation for the MSQL federation.
//!
//! The coordinator's write-ahead log (`mdbs::wal`) defines the crash-point
//! space: every protocol transition appends one record, and a
//! [`CrashPlan`] kills the coordinator immediately before or after any
//! given append. This crate drives a real federation — five LAM threads on
//! a seeded simulated network — through the paper's queries under such
//! crashes (optionally combined with seeded message loss), runs
//! [`mdbs::Federation::recover`], and checks two invariants:
//!
//! 1. **Consistency** (§3.4): for every interrupted statement, the oracle
//!    task set either exactly realises one acceptable termination state or
//!    is entirely undone ([`mdbs::RecoveredMtx::is_consistent`]).
//! 2. **No orphans**: after recovery, no LDBS holds a prepared
//!    transaction whose coordinator is gone
//!    ([`ldbs::Engine::prepared_txns`] is empty everywhere).
//!
//! Everything is deterministic: the retry jitter and the logical clock are
//! seeded, and every directed link draws its message losses from a stream of
//! its own, seeded from the network seed and the link's endpoint names. The
//! federation runs its fan-outs as production does — every request of a
//! task batch or settle wave posted before any reply is read — and however
//! the LAM threads' replies interleave, a link's k-th message meets the same
//! fate. A failing schedule is fully described by its [`SimConfig`] — the
//! panic message of every test prints the config plus the command that
//! replays exactly that schedule; `random_schedules` checks that each lossy
//! schedule replays.

use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::retry::RetryPolicy;
use mdbs::{CrashPlan, CrashWhen, Federation};
use netsim::Network;
use std::time::Duration;

pub use mdbs::wal;

/// The five fixture services, keyed as [`mdbs::fixtures`] registers them.
pub const SERVICES: &[&str] =
    &["svc_continental", "svc_delta", "svc_united", "svc_avis", "svc_national"];

/// The five fixture sites (site1..site5, same order as [`SERVICES`]).
pub const SITES: &[&str] = &["site1", "site2", "site3", "site4", "site5"];

/// One workload the simulation can crash: an MSQL script — one statement,
/// or several ending in a synchronization point — plus the service-profile
/// variation it needs.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable name, used in failure reports.
    pub name: &'static str,
    /// The MSQL text.
    pub msql: &'static str,
    /// Run continental as an autocommit-only service (the §3.3
    /// compensation path needs one).
    pub autocommit_continental: bool,
    /// Run the script in §3.2.2 deferred-commit mode: vital subqueries stay
    /// open across its statements and settle at its `COMMIT`.
    pub deferred: bool,
}

/// Q1 — the §2 multiple retrieval (avis + national). Retrievals log
/// nothing (no settle phase), so its crash-point space is empty; it is in
/// the set to prove exactly that.
pub const Q1_RETRIEVAL: Scenario = Scenario {
    name: "q1_retrieval",
    msql: "USE avis national
        LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
        SELECT %code, type, ~rate FROM car WHERE status = 'available'",
    autocommit_continental: false,
    deferred: false,
};

/// Q2 — the §3.2 vital update: continental and united prepare (2PC),
/// delta autocommits non-vitally.
pub const Q2_VITAL_UPDATE: Scenario = Scenario {
    name: "q2_vital_update",
    msql: "USE continental VITAL delta united VITAL
        UPDATE flight%
        SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
    autocommit_continental: false,
    deferred: false,
};

/// Q3 — the §3.3 compensation path: continental is autocommit-only, so its
/// vital subquery commits immediately and is semantically undone by the
/// COMP block when the statement aborts (or when recovery presumes abort).
pub const Q3_COMP_UPDATE: Scenario = Scenario {
    name: "q3_comp_update",
    msql: "USE continental VITAL delta united VITAL
        UPDATE flight%
        SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'
        COMP continental
        UPDATE flights
        SET rate = rate / 1.1
        WHERE source = 'Houston' AND destination = 'San Antonio'",
    autocommit_continental: true,
    deferred: false,
};

/// Q4 — the §3.4 travel-agent multitransaction with two acceptable states.
pub const Q4_TRAVEL_AGENT: Scenario = Scenario {
    name: "q4_travel_agent",
    msql: "BEGIN MULTITRANSACTION
        USE continental delta
        LET fltab.snu.sstat.clname BE
            f838.seatnu.seatstatus.clientname
            f747.snu.sstat.passname
        UPDATE fltab
        SET sstat = 'TAKEN', clname = 'wenders'
        WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
        USE avis national
        LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
        UPDATE cartab
        SET cstat = 'TAKEN', client = 'wenders'
        WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
        COMMIT
          continental AND national
          delta AND avis
        END MULTITRANSACTION",
    autocommit_continental: false,
    deferred: false,
};

/// §3.2.2 — a global transaction over two statements: continental and delta
/// each hold one local transaction open across both updates; the `COMMIT` is
/// the synchronization point whose votes, decision and second phase the WAL
/// records (the statements before it log nothing: a coordinator that dies
/// there leaves unprepared transactions, DESIGN §3b).
pub const DEFERRED_COMMIT: Scenario = Scenario {
    name: "deferred_commit",
    msql: "USE continental VITAL delta VITAL;
        UPDATE flight%
        SET rate% = rate% * 1.1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio';
        UPDATE flight%
        SET rate% = rate% + 1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio';
        COMMIT",
    autocommit_continental: false,
    deferred: true,
};

/// The same with continental autocommit-only: its two updates are durable
/// before the synchronization point, which must undo both — newest first —
/// whenever delta does not commit.
pub const DEFERRED_COMP: Scenario = Scenario {
    name: "deferred_comp",
    msql: "USE continental VITAL delta VITAL;
        UPDATE flight%
        SET rate% = rate% * 2
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'
        COMP continental
        UPDATE flights
        SET rate = rate / 2
        WHERE source = 'Houston' AND destination = 'San Antonio';
        UPDATE flight%
        SET rate% = rate% + 1
        WHERE sour% = 'Houston' AND dest% = 'San Antonio'
        COMP continental
        UPDATE flights
        SET rate = rate - 1
        WHERE source = 'Houston' AND destination = 'San Antonio';
        COMMIT",
    autocommit_continental: true,
    deferred: true,
};

/// Every scenario the sweeps cover.
pub const SCENARIOS: &[Scenario] = &[
    Q1_RETRIEVAL,
    Q2_VITAL_UPDATE,
    Q3_COMP_UPDATE,
    Q4_TRAVEL_AGENT,
    DEFERRED_COMMIT,
    DEFERRED_COMP,
];

/// The scenarios with a settle phase — the ones a crash can interrupt.
pub const CRASHABLE: &[Scenario] =
    &[Q2_VITAL_UPDATE, Q3_COMP_UPDATE, Q4_TRAVEL_AGENT, DEFERRED_COMMIT, DEFERRED_COMP];

/// One fully-described simulation schedule. `Debug`-printing a config (as
/// every failure message does) is enough to replay it exactly.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed of the network's per-link message-loss streams.
    pub seed: u64,
    /// Coordinator crash during statement execution, if any.
    pub crash: Option<CrashPlan>,
    /// A second crash, armed when the first recovery pass starts — the
    /// "recovery itself dies" (mid-resolve) case.
    pub recovery_crash: Option<CrashPlan>,
    /// Sites whose links (both directions) drop messages during execution.
    /// Healed before recovery — the operator fixes the network before
    /// restarting the coordinator.
    pub drop_sites: Vec<&'static str>,
    /// Per-message drop probability on those links.
    pub drop_p: f64,
}

impl SimConfig {
    /// A loss-free schedule with a single execution-time crash.
    pub fn crash_only(seed: u64, crash: CrashPlan) -> Self {
        SimConfig {
            seed,
            crash: Some(crash),
            recovery_crash: None,
            drop_sites: Vec::new(),
            drop_p: 0.0,
        }
    }

    /// A schedule with no crash and no loss (baseline).
    pub fn clean(seed: u64) -> Self {
        SimConfig { seed, crash: None, recovery_crash: None, drop_sites: Vec::new(), drop_p: 0.0 }
    }
}

/// What one simulated schedule did. Two runs of one [`SimConfig`] return
/// equal outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Whether an armed crash fired during execution.
    pub crashed: bool,
    /// The statement error, when execution did not complete (a crash, or
    /// loss sinking the statement).
    pub exec_error: Option<String>,
    /// Interrupted multitransactions recovery settled.
    pub recovered: usize,
    /// Recovery passes it took (more than one only under a recovery crash).
    pub recovery_passes: u32,
    /// The WAL at the end, one encoded record per line.
    pub wal: Vec<String>,
    /// Messages the network dropped over the whole run.
    pub dropped: u64,
}

fn build_federation(scenario: &Scenario, cfg: &SimConfig) -> Federation {
    let profiles = if scenario.autocommit_continental {
        FederationProfiles {
            continental: ldbs::profile::DbmsProfile::autocommit_only(),
            ..FederationProfiles::default()
        }
    } else {
        FederationProfiles::default()
    };
    // A seeded network (one loss stream per link) + the logical clock =
    // reproducible runs of the production fan-out.
    let mut fed = paper_federation_with(Network::with_seed(cfg.seed), profiles);
    fed.timeout = Duration::from_millis(150);
    fed.retry = RetryPolicy::retries(4);
    fed.set_deferred_commit(scenario.deferred);
    for site in &cfg.drop_sites {
        fed.network().set_link_drop_probability("*", site, cfg.drop_p);
        fed.network().set_link_drop_probability(site, "*", cfg.drop_p);
    }
    fed
}

fn heal(fed: &Federation, sites: &[&'static str]) {
    for site in sites {
        fed.network().clear_link_drop_probability("*", site);
        fed.network().clear_link_drop_probability(site, "*");
    }
}

/// Upper bound on recovery passes before the harness declares the schedule
/// stuck. One pass suffices without a recovery crash; a single recovery
/// crash needs two.
const MAX_RECOVERY_PASSES: u32 = 5;

/// Runs one schedule end to end and checks both invariants. `Err` carries
/// a full description of the violation and the schedule; the caller only
/// adds the replay command.
pub fn run(scenario: &Scenario, cfg: &SimConfig) -> Result<SimOutcome, String> {
    let mut fed = build_federation(scenario, cfg);
    let wal = fed.enable_wal();
    if let Some(plan) = cfg.crash {
        wal.arm_crash(plan);
    }
    let exec_error = fed.execute_script(scenario.msql).err().map(|e| e.to_string());
    let crashed = wal.crashed();
    if cfg.crash.is_some() && cfg.drop_sites.is_empty() && !crashed {
        // A loss-free schedule must reach its crash point unless the point
        // lies beyond the statement's record count — which enumeration
        // never produces.
        let n = wal.record_count();
        if cfg.crash.map(|c| c.at < n) == Some(true) {
            return Err(format!(
                "[{}] armed crash {:?} never fired ({n} records written)",
                scenario.name, cfg.crash
            ));
        }
    }

    // The operator fixes the network, then restarts the coordinator:
    // recovery runs loss-free. It is a no-op when nothing was interrupted.
    heal(&fed, &cfg.drop_sites);
    if let Some(plan) = cfg.recovery_crash {
        wal.arm_crash(plan);
    }
    let mut passes = 0;
    let recovered;
    loop {
        passes += 1;
        if passes > MAX_RECOVERY_PASSES {
            return Err(format!(
                "[{}] recovery did not converge in {MAX_RECOVERY_PASSES} passes; cfg={cfg:?}",
                scenario.name
            ));
        }
        match fed.recover() {
            Ok(report) => {
                recovered = report.recovered.len();
                for mtx in &report.recovered {
                    if !mtx.is_consistent() {
                        return Err(format!(
                            "[{}] INCONSISTENT outcome after recovery: mtx {} achieved={:?} \
                             statuses={:?} states={:?} oracle={:?}; cfg={cfg:?}",
                            scenario.name,
                            mtx.mtx_id,
                            mtx.achieved_state,
                            mtx.statuses,
                            mtx.states,
                            mtx.oracle
                        ));
                    }
                }
                break;
            }
            Err(_) if wal.crashed() => {
                // The recovery pass itself died (mid-resolve double crash).
                // Its progress is logged; the next pass finishes the rest.
                continue;
            }
            Err(e) => {
                return Err(format!("[{}] recovery failed: {e}; cfg={cfg:?}", scenario.name));
            }
        }
    }

    // No-orphan invariant: every prepared subtransaction everywhere has
    // been settled — nothing waits forever for a dead coordinator.
    for service in SERVICES {
        let engine = fed.engine(service).expect("fixture service exists");
        let orphans = engine.lock().prepared_txns();
        if !orphans.is_empty() {
            return Err(format!(
                "[{}] ORPHANED prepared transactions at `{service}` after recovery: {orphans:?}; \
                 exec_error={exec_error:?}; cfg={cfg:?}",
                scenario.name
            ));
        }
    }

    let records = wal.records().map_err(|e| format!("[{}] WAL unreadable: {e}", scenario.name))?;
    Ok(SimOutcome {
        crashed,
        exec_error,
        recovered,
        recovery_passes: passes,
        wal: records.iter().map(wal::WalRecord::encode).collect(),
        dropped: fed.network().stats().dropped,
    })
}

/// The crash-point space of a scenario: the number of WAL records a
/// crash-free run writes. Points are `{Before, After} × 0..count`.
pub fn crash_point_count(scenario: &Scenario) -> usize {
    let cfg = SimConfig::clean(0);
    let mut fed = build_federation(scenario, &cfg);
    let wal = fed.enable_wal();
    fed.execute_script(scenario.msql).expect("crash-free fixture scenario executes");
    wal.record_count()
}

/// Tiny deterministic generator for the random-schedule sweep (xorshift*;
/// no external RNG, identical on every platform).
pub struct SimRng(u64);

impl SimRng {
    /// Seeds the stream; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SimRng(seed.wrapping_mul(2685821657736338717).wrapping_add(1442695040888963407))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform value in `0..bound` (bound ≥ 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// Derives the fully-determined schedule for `seed` over the update/mtx
/// scenarios. Printed seeds replay exactly: the schedule is a pure
/// function of the seed and the (fixed) per-scenario crash-point count.
pub fn schedule_for_seed(seed: u64, points: &[(Scenario, usize)]) -> (Scenario, SimConfig) {
    let mut rng = SimRng::new(seed);
    let (scenario, n) = points[rng.below(points.len() as u64) as usize];
    // Beyond-the-end indices mean "no crash": the schedule then tests pure
    // message loss (and recovery of whatever the loss interrupted).
    let at = rng.below(n as u64 + 4) as usize;
    let crash = if at < n {
        let when = if rng.below(2) == 0 { CrashWhen::Before } else { CrashWhen::After };
        Some(CrashPlan { at, when })
    } else {
        None
    };
    let drop_sites: Vec<&'static str> = match rng.below(3) {
        0 => Vec::new(),
        1 => vec![SITES[rng.below(SITES.len() as u64) as usize]],
        _ => {
            let a = SITES[rng.below(SITES.len() as u64) as usize];
            let b = SITES[rng.below(SITES.len() as u64) as usize];
            if a == b {
                vec![a]
            } else {
                vec![a, b]
            }
        }
    };
    let drop_p = if drop_sites.is_empty() { 0.0 } else { [0.1, 0.2, 0.3][rng.below(3) as usize] };
    (scenario, SimConfig { seed, crash, recovery_crash: None, drop_sites, drop_p })
}

/// The seed range a sweep test runs: `SIM_SEEDS=a..b` overrides the
/// default (used by CI's quick smoke pass).
pub fn seed_range(default: std::ops::Range<u64>) -> std::ops::Range<u64> {
    match std::env::var("SIM_SEEDS") {
        Ok(spec) => {
            let parts: Vec<&str> = spec.splitn(2, "..").collect();
            match parts.as_slice() {
                [a, b] => {
                    let start = a.trim().parse().unwrap_or(default.start);
                    let end = b.trim().parse().unwrap_or(default.end);
                    start..end
                }
                _ => default,
            }
        }
        Err(_) => default,
    }
}

/// The replay command printed with every failure.
pub fn repro_command(seed: u64) -> String {
    format!("SIM_SEEDS={seed}..{} cargo test -p sim --test random_schedules", seed + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_runs_leave_nothing_to_recover() {
        for scenario in SCENARIOS {
            let out = run(scenario, &SimConfig::clean(1)).unwrap();
            assert!(!out.crashed, "[{}]", scenario.name);
            assert_eq!(out.exec_error, None, "[{}]", scenario.name);
            assert_eq!(out.recovered, 0, "[{}] recovery must be a no-op", scenario.name);
        }
    }

    #[test]
    fn retrieval_has_no_crash_points() {
        assert_eq!(crash_point_count(&Q1_RETRIEVAL), 0, "retrievals never engage the WAL");
    }

    #[test]
    fn settle_bearing_scenarios_have_crash_points() {
        for scenario in CRASHABLE {
            let n = crash_point_count(scenario);
            assert!(n >= 4, "[{}] expected a real crash-point space, got {n}", scenario.name);
        }
    }

    #[test]
    fn crash_point_count_is_deterministic() {
        assert_eq!(crash_point_count(&Q4_TRAVEL_AGENT), crash_point_count(&Q4_TRAVEL_AGENT));
    }

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let points = [(Q2_VITAL_UPDATE, 8), (Q4_TRAVEL_AGENT, 11)];
        for seed in 0..50 {
            let (a_scn, a_cfg) = schedule_for_seed(seed, &points);
            let (b_scn, b_cfg) = schedule_for_seed(seed, &points);
            assert_eq!(a_scn.name, b_scn.name);
            assert_eq!(format!("{a_cfg:?}"), format!("{b_cfg:?}"));
        }
    }

    #[test]
    fn seed_range_parses_override() {
        // No env in unit tests — just exercise the default path.
        assert_eq!(seed_range(0..200), 0..200);
    }

    #[test]
    fn a_crash_before_the_decision_presumes_abort() {
        // Crash before any record can fire only via the BEGIN append —
        // point 0 Before kills the coordinator before anything ran.
        let out = run(
            &Q2_VITAL_UPDATE,
            &SimConfig::crash_only(3, CrashPlan { at: 0, when: CrashWhen::Before }),
        )
        .unwrap();
        assert!(out.crashed);
        assert_eq!(out.recovered, 0, "nothing was logged, nothing to recover");
    }

    #[test]
    fn a_crash_after_begin_recovers_one_mtx() {
        let out = run(
            &Q2_VITAL_UPDATE,
            &SimConfig::crash_only(3, CrashPlan { at: 0, when: CrashWhen::After }),
        )
        .unwrap();
        assert!(out.crashed);
        assert_eq!(out.recovered, 1);
        assert_eq!(out.recovery_passes, 1);
    }
}
