//! Global transactions spanning several MSQL statements (paper §3.2.2).
//!
//! *"The evaluation plan will contain synchronization points whenever
//! explicit commit or rollback operations are issued, the current query
//! scope is changed, or the last MSQL statement is terminated. If all VITAL
//! databases are either prepared or committed at the synchronization point,
//! the subqueries that are in the prepared state will be committed.
//! Otherwise all VITAL subqueries will be rolled back (or compensated)."*
//!
//! In deferred-commit mode ([`crate::Federation::set_deferred_commit`]),
//! each vital database is a member: one local transaction, open at its LAM
//! under the member's task name from the member's first statement to the
//! synchronization point. Statements execute immediately inside those
//! transactions; the *prepare* votes and the global decision happen only at
//! the synchronization point. Autocommit-only members commit each statement
//! right away and accumulate compensating commands, applied in reverse
//! order on rollback.
//!
//! This module keeps the members; it sends nothing itself. Each statement is
//! a DOL program without a settle phase, one `TASK` batch whose member tasks
//! open (`TASK … HOLD`) or continue (`TASK … EXEC`) their transactions
//! ([`GlobalTransaction::execute`]); the synchronization point is the
//! members as a vital set, settled by the program every vital update ends in
//! ([`GlobalTransaction::settle`], DESIGN §3a.16), each member's task verb
//! its vote: `PREPARE`, `ABORT`, or `SETTLED` when there is nothing to send.

use crate::error::MdbsError;
use crate::executor::{Executor, UpdateReport};
use crate::translate::plangen::{
    dol_plan, route_for, vital_compensation, DbRoute, DolTask, UPDATE_FAILED,
};
use crate::translate::{GeneratedPlan, LocalQuery};
use dol::{TaskDef, TaskStatus, TaskVerb};
use msql_lang::printer::print;
use std::collections::HashMap;

/// One vital database participating in the global transaction.
struct Member {
    key: String,
    /// Where the database lives and what its service can do: with a
    /// prepared state, the member is one open local transaction, voted on at
    /// the synchronization point; without, its statements autocommit and
    /// rollback means compensation.
    route: DbRoute,
    /// The member's task name: what its local transaction is open under at
    /// the LAM, its task in every statement's program and in the
    /// synchronization point's settle program.
    task: String,
    /// True once a `TASK … HOLD` may have opened the task: it was answered
    /// `E`, or not at all. An `A` leaves nothing open under the name (the
    /// LAM rolled the commands back, or refused a name someone else holds),
    /// so the next statement holds again and the synchronization point sends
    /// the member nothing.
    open: bool,
    /// False once any statement on this member failed.
    healthy: bool,
    affected: u64,
    /// Compensating commands, most recent first.
    compensation: Vec<String>,
}

/// The pending vital members of the current global transaction.
#[derive(Default)]
pub struct GlobalTransaction {
    members: Vec<Member>,
    seq: u64,
    /// Appended to every member's task name: the owning session's, so two
    /// sessions' members on one database are open under different names.
    suffix: String,
}

impl GlobalTransaction {
    /// An empty global transaction whose members' task names end in `suffix`.
    pub fn new(suffix: String) -> Self {
        GlobalTransaction { suffix, ..Default::default() }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of participating databases.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Executes one modification inside the global transaction: a DOL
    /// program with no settle phase, its tasks in one batch. A vital
    /// subquery is its member's task — on a service with a prepared state
    /// `TASK … HOLD` until the task is open, `EXEC` after; otherwise an
    /// autocommit task under the member's name, so the LAM remembers that
    /// name as committed and recovery's `RESOLVE` hears `C` and compensates.
    /// A non-vital one autocommits as `NV_<key>`. Returns the interim
    /// report: success means the global transaction can still commit.
    ///
    /// A statement that fails at `OPEN` has sent nothing and adds no member.
    pub fn execute(
        &mut self,
        locals: &[LocalQuery],
        comps: &HashMap<String, Vec<String>>,
        routes: &HashMap<String, DbRoute>,
        executor: &Executor,
    ) -> Result<UpdateReport, MdbsError> {
        let known = self.members.len();
        let ran = (|| -> Result<_, MdbsError> {
            let mut tasks = Vec::with_capacity(locals.len());
            for l in locals {
                let route = route_for(routes, &l.database)?;
                let compensation = vital_compensation(l, route, comps)?;
                let (mut name, mut verb) = (format!("NV_{}", l.key), TaskVerb::Run);
                if l.vital {
                    let m = match self.members.iter().position(|m| m.key == l.key) {
                        Some(i) => &self.members[i],
                        None => {
                            self.seq += 1;
                            self.members.push(Member {
                                key: l.key.clone(),
                                route: route.clone(),
                                task: format!("G{}_{}{}", self.seq, l.key, self.suffix),
                                open: false,
                                healthy: true,
                                affected: 0,
                                compensation: Vec::new(),
                            });
                            &self.members[self.members.len() - 1]
                        }
                    };
                    if route.supports_2pc {
                        verb = if m.open { TaskVerb::Exec } else { TaskVerb::Hold };
                    }
                    name = m.task.clone();
                }
                let nocommit = l.vital && route.supports_2pc;
                let def = TaskDef::new(name, &l.key, vec![print(&l.statement)]);
                let def = TaskDef { nocommit, verb, compensation, ..def };
                tasks.push(DolTask { def, database: l.database.clone(), vital: l.vital });
            }
            let plan = dol_plan(&tasks, &[], 0, false, routes)?;
            Ok((executor.run_settle(&plan)?, tasks))
        })();
        let (report, tasks) = ran.inspect_err(|_| self.members.truncate(known))?;
        for (t, o) in tasks.iter().zip(&report.outcomes).filter(|(t, _)| t.vital) {
            let m =
                self.members.iter_mut().find(|m| m.task == t.def.name).expect("a member's task");
            m.open |= t.def.nocommit && o.status != TaskStatus::Aborted;
            let done = if t.def.nocommit { TaskStatus::Prepared } else { TaskStatus::Committed };
            // A statement that failed, or whose fate is unknown, poisons the set.
            m.healthy &= o.status == done;
            if o.status == done {
                m.affected += o.affected;
                // Newest first: compensation undoes in reverse order.
                m.compensation.splice(0..0, t.def.compensation.iter().rev().cloned());
            }
        }
        let committable = self.all_committable();
        Ok(UpdateReport {
            success: committable,
            return_code: if committable { 0 } else { UPDATE_FAILED },
            outcomes: report.outcomes,
            stats: report.stats,
        })
    }

    /// True when every member can still commit.
    pub fn all_committable(&self) -> bool {
        self.members.iter().all(|m| m.healthy)
    }

    /// Resolves the global transaction at a synchronization point: its
    /// members are one vital set, a multitransaction whose one acceptable
    /// state is all of them, planned and run like any other — logged,
    /// recoverable, traced, the votes and the second phase one round trip
    /// each — each member's task verb being its vote.
    ///
    /// Every member with a prepared state votes; if all vote YES they all
    /// commit. Any NO vote takes the rollback path, and `rollback` — or a
    /// failed vital statement — takes it without a vote: open transactions
    /// are rolled back, members that autocommitted are compensated.
    /// The members leave `self` here, so a member whose site cannot be
    /// opened fails its vote, not the program, and the others roll back.
    pub fn settle(
        &mut self,
        rollback: bool,
        executor: &Executor,
    ) -> Result<UpdateReport, MdbsError> {
        let (plan, affected) = self.settle_plan(rollback)?;
        let mut executor = executor.clone();
        executor.lams.tolerate_unreachable = true;
        let mut report = executor.run_settle(&plan)?;
        // A member that committed, or was undone after it did, affected what
        // its statements did; one that rolled back affected nothing.
        for (o, affected) in report.outcomes.iter_mut().zip(affected) {
            if matches!(o.status, TaskStatus::Committed | TaskStatus::Compensated) {
                o.affected = affected;
            }
        }
        Ok(report.into())
    }

    /// The synchronization point's program ([`Self::settle`]), the members
    /// drained into it, and each member's affected rows in task order.
    fn settle_plan(&mut self, rollback: bool) -> Result<(GeneratedPlan, Vec<u64>), MdbsError> {
        let rollback = rollback || !self.all_committable();
        let mut set = Vec::with_capacity(self.members.len());
        let mut affected = Vec::with_capacity(self.members.len());
        let mut routes = HashMap::new();
        for m in self.members.drain(..) {
            let verb = match (m.route.supports_2pc, rollback) {
                (true, false) => TaskVerb::Prepare,
                (true, true) if m.open => TaskVerb::Abort,
                // Nothing open, or nothing committed, means nothing to undo.
                (true, true) => TaskVerb::Settled(TaskStatus::Aborted),
                (false, true) if m.compensation.is_empty() => {
                    TaskVerb::Settled(TaskStatus::Aborted)
                }
                (false, _) => TaskVerb::Settled(TaskStatus::Committed),
            };
            affected.push(m.affected);
            let (nocommit, compensation) = (m.route.supports_2pc, m.compensation);
            let def =
                TaskDef { nocommit, verb, compensation, ..TaskDef::new(m.task, m.key, vec![]) };
            set.push(DolTask { def, database: m.route.database.clone(), vital: true });
            routes.insert(m.route.database.clone(), m.route);
        }
        let state: Vec<String> = set.iter().map(|t| t.def.name.clone()).collect();
        Ok((dol_plan(&set, &[state], UPDATE_FAILED, rollback, &routes)?, affected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lam::spawn_lam;
    use crate::lamclient::LamFactory;
    use ldbs::profile::DbmsProfile;
    use ldbs::value::Value;
    use ldbs::Engine;
    use netsim::Network;
    use std::time::Duration;

    fn setup(profile: DbmsProfile) -> (Network, crate::lam::LamHandle) {
        let net = Network::new();
        let lam = spawn(&net, "db", "site1", profile);
        (net, lam)
    }

    /// A LAM at `site` whose database `db` holds `t (x)` = 1.
    fn spawn(net: &Network, db: &str, site: &str, profile: DbmsProfile) -> crate::lam::LamHandle {
        let mut engine = Engine::new(format!("svc_{db}"), profile);
        engine.create_database(db).unwrap();
        engine.execute(db, "CREATE TABLE t (x FLOAT)").unwrap();
        engine.execute(db, "INSERT INTO t VALUES (1)").unwrap();
        spawn_lam(net, &format!("svc_{db}"), site, engine).unwrap()
    }

    fn executor(net: &Network) -> Executor {
        Executor {
            lams: LamFactory::new(net.clone(), Duration::from_secs(5)),
            trace: obs::SpanCtx::disabled(),
            measure_baseline: false,
            wal: None,
        }
    }

    /// Runs `sql` (undone by `comp`, if given) as a vital statement on `db`
    /// inside the global transaction; returns its interim outcome.
    fn hold(
        gt: &mut GlobalTransaction,
        net: &Network,
        supports_2pc: bool,
        sql: &str,
        comp: Option<&str>,
    ) -> (TaskStatus, u64) {
        hold_at(gt, net, ("db", "site1"), supports_2pc, sql, comp)
    }

    /// [`hold`] on the database `db` at `site`.
    fn hold_at(
        gt: &mut GlobalTransaction,
        net: &Network,
        (db, site): (&str, &str),
        supports_2pc: bool,
        sql: &str,
        comp: Option<&str>,
    ) -> (TaskStatus, u64) {
        let route = DbRoute { database: db.into(), site: site.into(), supports_2pc };
        let routes = HashMap::from([(db.to_string(), route)]);
        let statement = msql_lang::parse_statement(sql).unwrap();
        let local = LocalQuery { database: db.into(), key: db.into(), vital: true, statement };
        let comps = comp.map(|c| (db.to_string(), vec![c.to_string()])).into_iter().collect();
        let report = gt.execute(&[local], &comps, &routes, &executor(net)).unwrap();
        (report.outcomes[0].status, report.outcomes[0].affected)
    }

    fn value(lam: &crate::lam::LamHandle) -> Value {
        let mut e = lam.engine.lock();
        e.execute("db", "SELECT x FROM t").unwrap().into_result_set().unwrap().rows[0][0].clone()
    }

    #[test]
    fn held_statements_share_one_local_transaction() {
        let (net, lam) = setup(DbmsProfile::oracle_like());
        let mut gt = GlobalTransaction::default();
        hold(&mut gt, &net, true, "UPDATE t SET x = 2", None);
        // Second statement on the same database reuses the open transaction
        // (no lock conflict with itself).
        let (status, affected) = hold(&mut gt, &net, true, "UPDATE t SET x = x + 1", None);
        assert_eq!(status, TaskStatus::Prepared);
        assert_eq!(affected, 1);
        assert_eq!(gt.len(), 1, "one member per database");
        let report = gt.settle(false, &executor(&net)).unwrap();
        assert!(report.success);
        assert_eq!(report.outcomes[0].status, TaskStatus::Committed);
        assert_eq!(report.outcomes[0].affected, 2);
        assert_eq!(report.outcomes[0].attempts, 1, "the vote reached its LAM in one attempt");
        assert_eq!(value(&lam), Value::Float(3.0));
        assert_eq!(lam.engine.lock().held_locks(), 0);
    }

    #[test]
    fn forced_rollback_undoes_held_work() {
        let (net, lam) = setup(DbmsProfile::oracle_like());
        let mut gt = GlobalTransaction::default();
        hold(&mut gt, &net, true, "UPDATE t SET x = 2", None);
        let report = gt.settle(true, &executor(&net)).unwrap();
        assert!(!report.success);
        assert_eq!(report.outcomes[0].status, TaskStatus::Aborted);
        assert_eq!(report.outcomes[0].affected, 0);
        assert_eq!(value(&lam), Value::Float(1.0));
        assert_eq!(lam.engine.lock().stats().prepares, 0, "a rollback does not ask for votes");
        assert_eq!(lam.engine.lock().held_locks(), 0);
    }

    #[test]
    fn failed_statement_poisons_the_transaction() {
        let (net, lam) = setup(DbmsProfile::oracle_like());
        let mut gt = GlobalTransaction::default();
        hold(&mut gt, &net, true, "UPDATE t SET x = 2", None);
        let (status, _) = hold(&mut gt, &net, true, "UPDATE t SET nope = 1", None);
        assert_eq!(status, TaskStatus::Aborted);
        assert!(!gt.all_committable());
        let report = gt.settle(false, &executor(&net)).unwrap();
        assert!(!report.success);
        assert_eq!(value(&lam), Value::Float(1.0));
    }

    #[test]
    fn a_failed_vote_rolls_every_member_back() {
        let (net, lam) = setup(DbmsProfile::oracle_like());
        let mut gt = GlobalTransaction::default();
        hold(&mut gt, &net, true, "UPDATE t SET x = 2", None);
        *lam.engine.lock().failure_policy_mut() =
            ldbs::failure::FailurePolicy::with_probabilities(1, 0.0, 1.0);
        let report = gt.settle(false, &executor(&net)).unwrap();
        assert!(!report.success);
        assert_eq!(report.outcomes[0].status, TaskStatus::Aborted);
        assert_eq!(value(&lam), Value::Float(1.0));
        assert_eq!(lam.engine.lock().held_locks(), 0);
    }

    #[test]
    fn compensatable_member_compensates_in_reverse_order() {
        let (net, lam) = setup(DbmsProfile::autocommit_only());
        let mut gt = GlobalTransaction::default();
        // x = 1 → (x+1)=2 → (x*3)=6; compensation must divide by 3 first,
        // then subtract 1, restoring 1. Wrong order would give (1-? ) ≠ 1:
        // ((6-1)/3) = 1.67.
        hold(&mut gt, &net, false, "UPDATE t SET x = x + 1", Some("UPDATE t SET x = x - 1"));
        hold(&mut gt, &net, false, "UPDATE t SET x = x * 3", Some("UPDATE t SET x = x / 3"));
        assert_eq!(value(&lam), Value::Float(6.0));
        let report = gt.settle(true, &executor(&net)).unwrap();
        assert_eq!(report.outcomes[0].status, TaskStatus::Compensated);
        assert_eq!(report.outcomes[0].affected, 2, "what its statements did");
        assert_eq!(value(&lam), Value::Float(1.0));
    }

    /// A member that voted YES and was rolled back with its set, because
    /// another member voted NO, reports no affected rows.
    #[test]
    fn a_member_rolled_back_after_its_yes_vote_affected_nothing() {
        let (net, lam) = setup(DbmsProfile::oracle_like());
        let other = spawn(&net, "db2", "site2", DbmsProfile::oracle_like());
        let mut gt = GlobalTransaction::default();
        hold(&mut gt, &net, true, "UPDATE t SET x = 2", None);
        hold_at(&mut gt, &net, ("db2", "site2"), true, "UPDATE t SET x = 3", None);
        *other.engine.lock().failure_policy_mut() =
            ldbs::failure::FailurePolicy::with_probabilities(1, 0.0, 1.0);
        let report = gt.settle(false, &executor(&net)).unwrap();
        assert!(!report.success);
        assert_eq!(report.outcomes[0].status, TaskStatus::Aborted);
        assert_eq!(report.outcomes[0].affected, 0);
        assert_eq!(lam.engine.lock().stats().prepares, 1, "it voted");
        assert_eq!(value(&lam), Value::Float(1.0));
    }

    /// The synchronization point's program says what each member sends: a
    /// member with a prepared state votes (`PREPARE`); an autocommitted one
    /// sends nothing (`SETTLED C`) and carries the COMP the other branch
    /// runs.
    #[test]
    fn the_synchronization_point_is_its_printed_program() {
        let (net, _lam) = setup(DbmsProfile::oracle_like());
        let _other = spawn(&net, "db2", "site2", DbmsProfile::autocommit_only());
        let mut gt = GlobalTransaction::default();
        hold(&mut gt, &net, true, "UPDATE t SET x = 2", None);
        let undo = Some("UPDATE t SET x = 1");
        hold_at(&mut gt, &net, ("db2", "site2"), false, "UPDATE t SET x = 3", undo);
        let (plan, affected) = gt.settle_plan(false).unwrap();
        assert_eq!(affected, [1, 1]);
        let expected = "\
DOLBEGIN
  OPEN db AT site1 AS db;
  OPEN db2 AT site2 AS db2;
  TASK G1_db NOCOMMIT PREPARE FOR db
  {  }
  ENDTASK;
  TASK G2_db2 SETTLED C FOR db2
  {  }
  COMP
  { UPDATE t SET x = 1 }
  ENDTASK;
  IF (G1_db=P) AND (G2_db2=C) THEN
  BEGIN
    DECIDE 0;
    COMMIT G1_db;
    DOLSTATUS=0;
  END;
  ELSE
  BEGIN
    DECIDE 1;
    ABORT G1_db;
    IF (G2_db2=C) THEN
    BEGIN
      COMPENSATE G2_db2;
    END;
    DOLSTATUS=1;
  END;
  CLOSE db db2;
DOLEND
";
        assert_eq!(dol::print_program(&plan.program), expected);
    }

    #[test]
    fn commit_path_reports_totals() {
        let (net, lam) = setup(DbmsProfile::autocommit_only());
        let mut gt = GlobalTransaction::default();
        hold(&mut gt, &net, false, "UPDATE t SET x = 5", Some("UPDATE t SET x = 1"));
        let report = gt.settle(false, &executor(&net)).unwrap();
        assert!(report.success);
        assert_eq!(report.outcomes[0].status, TaskStatus::Committed);
        assert_eq!(report.outcomes[0].affected, 1);
        assert_eq!(value(&lam), Value::Float(5.0));
    }

    /// A first statement the LAM answers `A` opened nothing under the
    /// member's name — here because another coordinator holds the name — so
    /// the set is doomed, and its rollback sends the member nothing: the
    /// other coordinator's transaction commits untouched.
    #[test]
    fn a_refused_hold_is_never_aborted() {
        let (net, lam) = setup(DbmsProfile::oracle_like());
        let (mut owner, mut other) = (GlobalTransaction::default(), GlobalTransaction::default());
        hold(&mut owner, &net, true, "UPDATE t SET x = 2", None);
        let (status, _) = hold(&mut other, &net, true, "UPDATE t SET x = 7", None);
        assert_eq!(status, TaskStatus::Aborted, "`G1_db` is open already");
        assert!(!other.all_committable());
        let report = other.settle(false, &executor(&net)).unwrap();
        assert!(!report.success);
        assert_eq!(report.outcomes[0].attempts, 0, "nothing sent");
        assert!(owner.settle(false, &executor(&net)).unwrap().success);
        assert_eq!(value(&lam), Value::Float(2.0));
        assert_eq!(lam.engine.lock().held_locks(), 0);
    }
}
