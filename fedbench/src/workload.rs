//! The five workloads: which federation each builds, which statement
//! classes one *pass* runs, and how a pass is generated from the seed.
//!
//! A pass runs every class of the workload once, in an order permuted per
//! pass by the seed. Every pass of a workload costs the same (same classes,
//! same row counts, data returned to its starting state); a run repeats
//! *rounds* of a fixed number of passes, each on a federation built afresh.

use crate::gen::{Rng, StarData, DIM_ROWS, GROUPS, JOIN_WINDOW};
use ldbs::profile::DbmsProfile;
use ldbs::Engine;
use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::{Federation, WireFormat};
use netsim::{LatencyModel, Network};
use std::sync::Arc;
use std::time::Duration;

/// One-way link latency of the `paper_wan` fabric (and of every latency
/// twin a traced run builds).
pub const WAN_LATENCY: Duration = Duration::from_millis(1);

/// What a statement is to the user who issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Multidatabase retrieval answered site by site (a multitable).
    Retrieve,
    /// Cross-database join or pushed aggregate (one global table).
    Join,
    /// Update without a vital set: every site commits on its own.
    Update,
    /// Vital update or multitransaction: prepared, decided, settled.
    Vital,
    /// Maintenance (`ANALYZE`): counted in `stmt_*` only.
    Admin,
}

impl Kind {
    pub const ALL: [Kind; 5] = [Kind::Retrieve, Kind::Join, Kind::Update, Kind::Vital, Kind::Admin];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Retrieve => "retrieve",
            Kind::Join => "join",
            Kind::Update => "update",
            Kind::Vital => "vital",
            Kind::Admin => "admin",
        }
    }

    /// The kinds that have per-kind layer metrics (`admin` has none).
    pub const LAYERED: [Kind; 4] = [Kind::Retrieve, Kind::Join, Kind::Update, Kind::Vital];

    /// Retrievals and joins read; updates and vital statements write.
    pub fn is_read(self) -> bool {
        matches!(self, Kind::Retrieve | Kind::Join)
    }

    pub fn is_write(self) -> bool {
        matches!(self, Kind::Update | Kind::Vital)
    }
}

/// The 16 statement classes across all workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Q1Flights,
    Q1Cars,
    Q1Dest,
    Q2Nonvital,
    Q2Vital,
    Q4Mtx,
    Q4Reset,
    XjoinSmall,
    ScanShip,
    PointLookup,
    LocalAgg,
    JoinShip,
    GroupbyPushed,
    TopkPushed,
    FactUpdate,
    Analyze,
}

impl Class {
    pub const ALL: [Class; 16] = [
        Class::Q1Flights,
        Class::Q1Cars,
        Class::Q1Dest,
        Class::Q2Nonvital,
        Class::Q2Vital,
        Class::Q4Mtx,
        Class::Q4Reset,
        Class::XjoinSmall,
        Class::ScanShip,
        Class::PointLookup,
        Class::LocalAgg,
        Class::JoinShip,
        Class::GroupbyPushed,
        Class::TopkPushed,
        Class::FactUpdate,
        Class::Analyze,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Q1Flights => "q1_flights",
            Class::Q1Cars => "q1_cars",
            Class::Q1Dest => "q1_dest",
            Class::Q2Nonvital => "q2_nonvital",
            Class::Q2Vital => "q2_vital",
            Class::Q4Mtx => "q4_mtx",
            Class::Q4Reset => "q4_reset",
            Class::XjoinSmall => "xjoin_small",
            Class::ScanShip => "scan_ship",
            Class::PointLookup => "point_lookup",
            Class::LocalAgg => "local_agg",
            Class::JoinShip => "join_ship",
            Class::GroupbyPushed => "groupby_pushed",
            Class::TopkPushed => "topk_pushed",
            Class::FactUpdate => "fact_update",
            Class::Analyze => "analyze",
        }
    }

    pub fn kind(self) -> Kind {
        match self {
            Class::Q1Flights
            | Class::Q1Cars
            | Class::Q1Dest
            | Class::ScanShip
            | Class::PointLookup
            | Class::LocalAgg => Kind::Retrieve,
            Class::XjoinSmall | Class::JoinShip | Class::GroupbyPushed | Class::TopkPushed => {
                Kind::Join
            }
            Class::Q2Nonvital | Class::Q4Reset | Class::FactUpdate => Kind::Update,
            Class::Q2Vital | Class::Q4Mtx => Kind::Vital,
            Class::Analyze => Kind::Admin,
        }
    }
}

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    PaperLocal,
    PaperWan,
    StarText,
    StarBinary,
    SessionsRw,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::PaperWan,
        WorkloadId::StarText,
        WorkloadId::StarBinary,
        WorkloadId::SessionsRw,
        WorkloadId::PaperLocal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PaperLocal => "paper_local",
            WorkloadId::PaperWan => "paper_wan",
            WorkloadId::StarText => "star_text",
            WorkloadId::StarBinary => "star_binary",
            WorkloadId::SessionsRw => "sessions_rw",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_star(self) -> bool {
        matches!(self, WorkloadId::StarText | WorkloadId::StarBinary)
    }

    /// Concurrent sessions driving the workload (closed loop, one OS thread
    /// each), which is also the number of CPUs its process is pinned to.
    /// Fixed at 2 for `sessions_rw`: the sandbox has two cores.
    pub fn sessions(self) -> usize {
        if self == WorkloadId::SessionsRw {
            2
        } else {
            1
        }
    }

    pub fn wire_format(self) -> WireFormat {
        if self == WorkloadId::StarBinary {
            WireFormat::Binary
        } else {
            WireFormat::Text
        }
    }

    /// One-way link latency of the workload's own fabric.
    pub fn latency(self) -> Duration {
        if self == WorkloadId::PaperWan {
            WAN_LATENCY
        } else {
            Duration::ZERO
        }
    }

    /// Timed passes per session of one *round*. A run repeats rounds — set
    /// the workload up from scratch, warm up, run exactly this many passes —
    /// until its seconds are up, so every round does the same work on the
    /// same state whatever the commit and however fast it is: request ids
    /// grow a digit every so often, the in-memory WAL grows with every vital
    /// statement and `NetStats.per_link` with every connection, and a faster
    /// system that fits more work into its seconds must not pay for that.
    /// Sized so that a round takes about a second at HEAD.
    pub fn round_passes(self) -> u64 {
        match self {
            WorkloadId::PaperLocal => 300,
            WorkloadId::PaperWan => 11,
            WorkloadId::StarText | WorkloadId::StarBinary => 8,
            WorkloadId::SessionsRw => 150,
        }
    }

    /// Timed passes per session of a smoke run (one round): all five
    /// workloads in a few seconds.
    pub fn smoke_passes(self) -> u64 {
        match self {
            WorkloadId::PaperLocal | WorkloadId::SessionsRw => 20,
            WorkloadId::PaperWan | WorkloadId::StarText | WorkloadId::StarBinary => 2,
        }
    }

    /// The workload's classes, one *unit* per inner list: a unit's
    /// statements always run back to back (the multitransaction is followed
    /// by the two resets that free its seat and car again; the fact update
    /// by its ANALYZE), units are permuted per pass.
    pub fn units(self) -> &'static [&'static [Class]] {
        match self {
            WorkloadId::PaperLocal | WorkloadId::PaperWan => &[
                &[Class::Q1Flights],
                &[Class::Q1Cars],
                &[Class::Q2Nonvital],
                &[Class::Q2Vital],
                &[Class::Q4Mtx, Class::Q4Reset, Class::Q4Reset],
                &[Class::XjoinSmall],
            ],
            WorkloadId::StarText | WorkloadId::StarBinary => &[
                // ANALYZE straight after the update: the statistics are
                // fresh for every join of every pass, so the costed planner
                // always decides and a pass costs the same in any order.
                &[Class::FactUpdate, Class::Analyze],
                &[Class::ScanShip],
                &[Class::PointLookup],
                &[Class::LocalAgg],
                &[Class::JoinShip],
                &[Class::GroupbyPushed],
                &[Class::TopkPushed],
            ],
            WorkloadId::SessionsRw => {
                &[&[Class::Q1Flights], &[Class::Q1Cars], &[Class::Q1Dest], &[Class::Q2Nonvital]]
            }
        }
    }

    /// Statements per pass.
    pub fn statements_per_pass(self) -> usize {
        self.units().iter().map(|u| u.len()).sum()
    }
}

/// One generated statement: the only thing the program under test sees is
/// `sql`; `arg` is the literal the generator drew, kept for the checker.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub class: Class,
    pub sql: String,
    pub arg: i64,
}

/// Per-session statement generator.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: WorkloadId,
    rng: Rng,
    client: String,
}

impl Generator {
    pub fn new(workload: WorkloadId, seed: u64, session: usize) -> Generator {
        Generator {
            workload,
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(session as u64)),
            client: format!("client{seed}"),
        }
    }

    /// The statements of pass number `pass` (0-based, warm-up included).
    pub fn pass(&mut self, pass: u64) -> Vec<Stmt> {
        let units = self.workload.units();
        let mut order: Vec<usize> = (0..units.len()).collect();
        // ANALYZE drops the coordinator's cached statistics and the next
        // join fetches them again (4 messages). A pass must pay for its own
        // refetch, or message counts would depend on where a run is cut: the
        // unit with the ANALYZE (listed first) opens the pass, the others
        // follow in a permuted order.
        let fixed = usize::from(units[0].contains(&Class::Analyze));
        self.rng.shuffle(&mut order[fixed..]);
        let mut out = Vec::with_capacity(self.workload.statements_per_pass());
        for unit in order {
            for (i, class) in units[unit].iter().enumerate() {
                out.push(self.statement(*class, pass, i));
            }
        }
        out
    }

    fn statement(&mut self, class: Class, pass: u64, index_in_unit: usize) -> Stmt {
        let client = &self.client;
        let (sql, arg) = match class {
            Class::Q1Flights => (
                "USE continental delta united
                 SELECT day, ~rate% FROM flight% WHERE sour% = 'Houston'"
                    .to_string(),
                0,
            ),
            Class::Q1Cars => (
                "USE avis national
                 LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
                 SELECT %code, type, ~rate FROM car WHERE status = 'available'"
                    .to_string(),
                0,
            ),
            Class::Q1Dest => (
                "USE continental delta united
                 SELECT day, ~rate% FROM flight% WHERE dest% = 'San Antonio'"
                    .to_string(),
                0,
            ),
            Class::Q2Nonvital => {
                // One session raises the fare and `q2_vital` lowers it again
                // in the same pass. Concurrent sessions have no vital class,
                // so they alternate the sign by pass and the data stays put.
                let delta: i64 =
                    if self.workload == WorkloadId::SessionsRw && pass % 2 == 1 { -1 } else { 1 };
                let op = if delta > 0 { "+" } else { "-" };
                (
                    format!(
                        "USE continental delta united
                         UPDATE flight% SET rate% = rate% {op} 1
                         WHERE sour% = 'Houston' AND dest% = 'San Antonio'"
                    ),
                    delta,
                )
            }
            Class::Q2Vital => (
                "USE continental VITAL delta united VITAL
                 UPDATE flight% SET rate% = rate% - 1
                 WHERE sour% = 'Houston' AND dest% = 'San Antonio'"
                    .to_string(),
                -1,
            ),
            Class::Q4Mtx => (
                format!(
                    "BEGIN MULTITRANSACTION
                     USE continental delta
                     LET fltab.snu.sstat.clname BE
                         f838.seatnu.seatstatus.clientname
                         f747.snu.sstat.passname
                     UPDATE fltab
                     SET sstat = 'TAKEN', clname = '{client}'
                     WHERE snu = ( SELECT MIN(snu) FROM fltab WHERE sstat = 'FREE');
                     USE avis national
                     LET cartab.ccode.cstat BE cars.code.carst vehicle.vcode.vstat
                     UPDATE cartab
                     SET cstat = 'TAKEN', client = '{client}'
                     WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'available');
                     COMMIT
                       continental AND national
                       delta AND avis
                     END MULTITRANSACTION"
                ),
                0,
            ),
            Class::Q4Reset => {
                if index_in_unit == 1 {
                    (
                        format!(
                            "USE continental
                             UPDATE f838 SET seatstatus = 'FREE', clientname = NULL
                             WHERE clientname = '{client}'"
                        ),
                        0,
                    )
                } else {
                    (
                        format!(
                            "USE national
                             UPDATE vehicle SET vstat = 'available', client = NULL
                             WHERE client = '{client}'"
                        ),
                        1,
                    )
                }
            }
            Class::XjoinSmall => (
                "USE avis continental
                 SELECT c.code, f.flnu, f.rate FROM avis.cars c, continental.flights f
                 WHERE c.rate = f.rate"
                    .to_string(),
                0,
            ),
            Class::ScanShip => ("SELECT k, g, v, s FROM db0.fact".to_string(), 0),
            Class::PointLookup => {
                let v = self.rng.below(crate::gen::FACT_ROWS as u64) as i64;
                (format!("SELECT k, g, v, u, s FROM db0.fact WHERE v = {v}"), v)
            }
            Class::LocalAgg => {
                ("SELECT g, COUNT(*), SUM(v), SUM(u) FROM db0.fact GROUP BY g".to_string(), 0)
            }
            Class::JoinShip => {
                let lo = self.rng.below((DIM_ROWS - JOIN_WINDOW) as u64 + 1) as i64;
                let hi = lo + JOIN_WINDOW as i64;
                (
                    format!(
                        "SELECT f.v, f.s, d.w FROM db0.fact f, db1.dim d
                         WHERE f.k = d.code AND d.w >= {lo} AND d.w < {hi}"
                    ),
                    lo,
                )
            }
            Class::GroupbyPushed => (
                "SELECT f.g, COUNT(*), SUM(f.v), MIN(d.w) FROM db0.fact f, db1.dim d
                 WHERE f.k = d.code GROUP BY f.g"
                    .to_string(),
                0,
            ),
            Class::TopkPushed => (
                "SELECT f.v, d.w FROM db0.fact f, db1.dim d ORDER BY f.v DESC, d.w LIMIT 10"
                    .to_string(),
                0,
            ),
            Class::FactUpdate => {
                let g = (pass % GROUPS as u64) as i64;
                (format!("UPDATE db0.fact SET u = u + 1 WHERE g = {g}"), g)
            }
            Class::Analyze => ("ANALYZE db0.fact".to_string(), 0),
        };
        Stmt { class, sql, arg }
    }
}

/// A built federation plus the generated data its checker needs.
pub struct Bench {
    pub fed: Federation,
    pub star: Option<Arc<StarData>>,
}

/// Builds a workload's federation through public APIs only. `latency`
/// overrides the workload's own fabric (latency twins of a traced run).
pub fn build(
    workload: WorkloadId,
    star: Option<&Arc<StarData>>,
    latency: Duration,
) -> Result<Bench, String> {
    let net = Network::new();
    if !latency.is_zero() {
        net.set_latency(LatencyModel::uniform(latency));
    }
    if workload.is_star() {
        let data = star.ok_or("star workloads need generated data")?;
        let fed = star_federation(net, data, workload.wire_format()).map_err(|e| e.to_string())?;
        return Ok(Bench { fed, star: Some(Arc::clone(data)) });
    }
    let mut fed = paper_federation_with(net, FederationProfiles::default());
    // The only change to the fixture: give the rented avis car the fare of
    // continental's Houston–Dallas flight, so `xjoin_small` returns a row
    // the checker can verify instead of an empty table. Neither Q1 (rented
    // cars are filtered out) nor Q2 (other route) reads the changed value.
    fed.execute("USE avis UPDATE cars SET rate = 80 WHERE code = 2").map_err(|e| e.to_string())?;
    fed.enable_wal();
    Ok(Bench { fed, star: None })
}

fn star_federation(
    net: Network,
    data: &StarData,
    wire: WireFormat,
) -> Result<Federation, mdbs::MdbsError> {
    let mut fed = Federation::with_network(net);
    fed.timeout = Duration::from_secs(30);
    fed.wire_format = wire;
    let local = |e: ldbs::DbError| mdbs::MdbsError::Internal(e.to_string());

    let mut e0 = Engine::new("svc0", DbmsProfile::oracle_like());
    e0.create_database("db0").map_err(local)?;
    e0.execute("db0", "CREATE TABLE fact (k INT, g INT, v INT, u INT, s CHAR(16))")
        .map_err(local)?;
    for chunk in data.fact.chunks(200) {
        let values: Vec<String> =
            chunk.iter().map(|r| format!("({}, {}, {}, 0, '{}')", r.k, r.g, r.v, r.s)).collect();
        e0.execute("db0", &format!("INSERT INTO fact VALUES {}", values.join(", ")))
            .map_err(local)?;
    }
    e0.execute("db0", "CREATE INDEX fact_v ON fact (v) USING BTREE").map_err(local)?;

    let mut e1 = Engine::new("svc1", DbmsProfile::oracle_like());
    e1.create_database("db1").map_err(local)?;
    e1.execute("db1", "CREATE TABLE dim (code INT, w INT)").map_err(local)?;
    let values: Vec<String> =
        data.dim_w.iter().enumerate().map(|(code, w)| format!("({code}, {w})")).collect();
    e1.execute("db1", &format!("INSERT INTO dim VALUES {}", values.join(", "))).map_err(local)?;

    fed.add_service("svc0", "site0", e0)?;
    fed.add_service("svc1", "site1", e1)?;
    fed.execute("IMPORT DATABASE db0 FROM SERVICE svc0")?;
    fed.execute("IMPORT DATABASE db1 FROM SERVICE svc1")?;
    fed.execute("USE db0 db1")?;
    fed.execute("ANALYZE db0.fact")?;
    fed.execute("ANALYZE db1.dim")?;
    Ok(fed)
}
