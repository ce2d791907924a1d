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
//! vital subqueries join one open local transaction per database (one LAM
//! connection each). Statements execute immediately inside those
//! transactions; the *prepare* votes and the global decision happen only at
//! the synchronization point. Autocommit-only members commit each statement
//! right away and accumulate compensating commands, applied in reverse
//! order on rollback.
//!
//! This module keeps the members; it runs no commit protocol of its own. The
//! synchronization point is part of the evaluation plan: the members are a
//! vital set, settled by the program every vital update ends in
//! ([`GlobalTransaction::settle`], DESIGN §3a.16).

use crate::error::MdbsError;
use crate::executor::{Executor, UpdateReport};
use crate::lamclient::{LamClient, Vote};
use crate::translate::plangen::{dol_plan, DbRoute, DolTask, UPDATE_FAILED};
use dol::TaskStatus;
use obs::Span;
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
    /// the LAM, and its task in the synchronization point's settle program.
    task: String,
    client: LamClient,
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

    /// Executes one vital statement inside the global transaction. The
    /// member for `key` is created on first use (using `client` — ignored
    /// afterwards). Returns the interim status and rows affected.
    pub fn execute_held(
        &mut self,
        client: LamClient,
        key: &str,
        route: &DbRoute,
        sql: String,
        mut compensation: Vec<String>,
    ) -> Result<(TaskStatus, u64), MdbsError> {
        let idx = match self.members.iter().position(|m| m.key == key) {
            Some(i) => i,
            None => {
                self.seq += 1;
                let task = format!("G{}_{key}{}", self.seq, self.suffix);
                if route.supports_2pc {
                    client.begin_task(&task)?;
                }
                self.members.push(Member {
                    key: key.to_string(),
                    route: route.clone(),
                    task,
                    client,
                    healthy: true,
                    affected: 0,
                    compensation: Vec::new(),
                });
                self.members.len() - 1
            }
        };
        let member = &mut self.members[idx];
        let two_phase = member.route.supports_2pc;
        let ran = if two_phase {
            let ran = member.client.exec_in_task(&member.task, vec![sql]);
            ran.map(|(status, affected, _err)| (status == 'E', affected))
        } else {
            // Every statement runs under the member's one task name, so the
            // LAM remembers that name as committed: should the coordinator
            // die inside the synchronization point, recovery's RESOLVE hears
            // `C` and compensates.
            let ran = member.client.run_commands(&member.task, vec![sql], &Span::disabled());
            ran.map(|reply| (reply.status == 'C', reply.affected))
        };
        // A statement that failed, or whose fate is unknown, poisons the set.
        let done = matches!(ran, Ok((true, _)));
        member.healthy &= done;
        let (_, affected) = ran?;
        if !done {
            return Ok((TaskStatus::Aborted, 0));
        }
        member.affected += affected;
        // Newest first: compensation undoes in reverse order.
        compensation.reverse();
        member.compensation.splice(0..0, compensation);
        Ok((if two_phase { TaskStatus::Prepared } else { TaskStatus::Committed }, affected))
    }

    /// True when every member can still commit.
    pub fn all_committable(&self) -> bool {
        self.members.iter().all(|m| m.healthy)
    }

    /// Resolves the global transaction at a synchronization point: its
    /// members are one vital set, a multitransaction whose one acceptable
    /// state is all of them, planned and run like any other — logged,
    /// recoverable, traced, the votes and the second phase one round trip
    /// each — over the connections the members hold, each member's task
    /// being its [`Vote`].
    ///
    /// Every member with a prepared state votes; if all vote YES they all
    /// commit. Any NO vote takes the rollback path, and `rollback` — or a
    /// member a statement failed on — takes it without a vote: open
    /// transactions are rolled back, members that autocommitted are
    /// compensated.
    pub fn settle(
        &mut self,
        rollback: bool,
        executor: &Executor,
    ) -> Result<UpdateReport, MdbsError> {
        let rollback = rollback || !self.all_committable();
        let mut set = Vec::with_capacity(self.members.len());
        let mut held = Vec::with_capacity(self.members.len());
        let mut routes = HashMap::new();
        for mut m in self.members.drain(..) {
            let vote = match (m.route.supports_2pc, rollback) {
                (true, false) => Vote::Prepare,
                (true, true) => Vote::Abort,
                // Nothing committed means nothing to undo.
                (false, true) if m.compensation.is_empty() => Vote::Settled(TaskStatus::Aborted),
                (false, _) => Vote::Settled(TaskStatus::Committed),
            };
            m.client.held = Some((vote, m.affected));
            held.push(m.client);
            set.push(DolTask {
                name: m.task,
                database: m.route.database.clone(),
                key: m.key,
                nocommit: m.route.supports_2pc,
                vital: true,
                commands: Vec::new(),
                compensation: m.compensation,
            });
            routes.insert(m.route.database.clone(), m.route);
        }
        let state: Vec<String> = set.iter().map(|t| t.name.clone()).collect();
        let plan = dol_plan(&set, &[state], UPDATE_FAILED, rollback, &routes)?;
        *executor.lams.held.lock() = held;
        let report = executor.run_settle(&plan);
        // A connection the program never opened (it failed first) closes.
        executor.lams.held.lock().clear();
        report.map(UpdateReport::from)
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
        let mut engine = Engine::new("svc", profile);
        engine.create_database("db").unwrap();
        engine.execute("db", "CREATE TABLE t (x FLOAT)").unwrap();
        engine.execute("db", "INSERT INTO t VALUES (1)").unwrap();
        let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
        (net, lam)
    }

    fn executor(net: &Network) -> Executor {
        Executor {
            lams: LamFactory::new(net.clone(), Duration::from_secs(5)),
            trace: obs::SpanCtx::disabled(),
            measure_baseline: false,
            wal: None,
        }
    }

    /// Runs `sql` (undone by `comp`, if given) as a held statement on `db`.
    fn hold(
        gt: &mut GlobalTransaction,
        net: &Network,
        supports_2pc: bool,
        sql: &str,
        comp: Option<&str>,
    ) -> (TaskStatus, u64) {
        let client = LamClient::connect(net, "site1", "db", Duration::from_secs(5)).unwrap();
        let route = DbRoute { database: "db".into(), site: "site1".into(), supports_2pc };
        let comp = comp.map(str::to_string).into_iter().collect();
        gt.execute_held(client, "db", &route, sql.into(), comp).unwrap()
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
        assert_eq!(report.stats.per_task.len(), 1, "the vote is accounted like any task");
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
        assert_eq!(value(&lam), Value::Float(1.0));
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
}
