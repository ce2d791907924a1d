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

use crate::error::MdbsError;
use crate::executor::{DbOutcome, UpdateReport};
use crate::lamclient::LamClient;
use dol::{DolService, TaskStatus};
use obs::Span;

enum MemberKind {
    /// One open local transaction, prepared at the sync point.
    TwoPhase,
    /// Statements autocommit; rollback means compensation.
    Compensatable,
}

/// One vital database participating in the global transaction.
struct Member {
    key: String,
    database: String,
    /// Task name of the open local transaction (TwoPhase members).
    task: String,
    kind: MemberKind,
    client: LamClient,
    /// False once any statement on this member failed.
    healthy: bool,
    affected: u64,
    /// Compensating commands, most recent first.
    compensation: Vec<String>,
    /// Statement counter (names autocommit sub-statements).
    stmts: u64,
}

/// The pending vital members of the current global transaction.
#[derive(Default)]
pub struct GlobalTransaction {
    members: Vec<Member>,
    seq: u64,
}

impl GlobalTransaction {
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
        database: &str,
        sql: String,
        supports_2pc: bool,
        mut compensation: Vec<String>,
    ) -> Result<(TaskStatus, u64), MdbsError> {
        let idx = match self.members.iter().position(|m| m.key == key) {
            Some(i) => i,
            None => {
                self.seq += 1;
                let task = format!("G{}_{key}", self.seq);
                let kind = if supports_2pc {
                    client.begin_task(&task)?;
                    MemberKind::TwoPhase
                } else {
                    MemberKind::Compensatable
                };
                self.members.push(Member {
                    key: key.to_string(),
                    database: database.to_string(),
                    task,
                    kind,
                    client,
                    healthy: true,
                    affected: 0,
                    compensation: Vec::new(),
                    stmts: 0,
                });
                self.members.len() - 1
            }
        };
        let member = &mut self.members[idx];
        member.stmts += 1;
        match member.kind {
            MemberKind::TwoPhase => {
                let (status, affected, _err) =
                    member.client.exec_in_task(&member.task, vec![sql])?;
                if status == 'E' {
                    member.affected += affected;
                    Ok((TaskStatus::Prepared, affected))
                } else {
                    member.healthy = false;
                    Ok((TaskStatus::Aborted, 0))
                }
            }
            MemberKind::Compensatable => {
                let name = format!("{}_s{}", member.task, member.stmts);
                let reply = member.client.run_commands(&name, vec![sql], &Span::disabled())?;
                if reply.status == 'C' {
                    member.affected += reply.affected;
                    // Newest first: compensation undoes in reverse order.
                    compensation.reverse();
                    for c in compensation {
                        member.compensation.insert(0, c);
                    }
                    Ok((TaskStatus::Committed, reply.affected))
                } else {
                    member.healthy = false;
                    Ok((TaskStatus::Aborted, 0))
                }
            }
        }
    }

    /// True when every member can still commit.
    pub fn all_committable(&self) -> bool {
        self.members.iter().all(|m| m.healthy)
    }

    /// Resolves the global transaction at a synchronization point.
    ///
    /// Commit path (no force, all healthy): every TwoPhase member votes
    /// (prepare); if all vote YES they all commit. Any NO vote — or
    /// `force_rollback`, or an unhealthy member — takes the rollback path:
    /// open transactions are rolled back and Compensatable members are
    /// compensated.
    pub fn resolve(&mut self, force_rollback: bool) -> UpdateReport {
        let mut commit = !force_rollback && self.all_committable();

        // Voting phase.
        let mut voted: Vec<bool> = Vec::with_capacity(self.members.len());
        if commit {
            for m in &mut self.members {
                match m.kind {
                    MemberKind::TwoPhase => match m.client.prepare_task(&m.task) {
                        Ok(('P', _)) => voted.push(true),
                        _ => {
                            // The LAM rolled the local transaction back.
                            m.healthy = false;
                            voted.push(false);
                            commit = false;
                        }
                    },
                    MemberKind::Compensatable => voted.push(true),
                }
            }
        } else {
            voted.resize(self.members.len(), false);
        }

        // Decision phase.
        let mut outcomes = Vec::with_capacity(self.members.len());
        for (i, mut m) in self.members.drain(..).enumerate() {
            let status = match m.kind {
                MemberKind::TwoPhase => {
                    if commit {
                        match m.client.commit_task(&m.task) {
                            Ok(()) => TaskStatus::Committed,
                            Err(_) => TaskStatus::Error,
                        }
                    } else if voted.get(i).copied().unwrap_or(false) || m.healthy {
                        // Prepared (voted) or still active: roll back.
                        match m.client.abort_task(&m.task) {
                            Ok(()) => TaskStatus::Aborted,
                            Err(_) => TaskStatus::Error,
                        }
                    } else if m.stmts > 0 && !m.healthy {
                        // Failed vote or failed statement: the local side
                        // may already have rolled back; aborting again is
                        // harmless if the task is still open.
                        let _ = m.client.abort_task(&m.task);
                        TaskStatus::Aborted
                    } else {
                        TaskStatus::Aborted
                    }
                }
                MemberKind::Compensatable => {
                    if commit {
                        TaskStatus::Committed
                    } else if m.compensation.is_empty() {
                        // Nothing committed (or nothing to undo).
                        TaskStatus::Aborted
                    } else {
                        let undone = m.client.compensate_commands(
                            &m.task,
                            &m.compensation,
                            &Span::disabled(),
                        );
                        match undone {
                            Ok(()) => TaskStatus::Compensated,
                            Err(_) => TaskStatus::Error,
                        }
                    }
                }
            };
            outcomes.push(DbOutcome::new(
                m.database,
                m.key,
                status,
                if status == TaskStatus::Committed { m.affected } else { 0 },
                None,
            ));
        }
        UpdateReport {
            success: commit,
            return_code: if commit { 0 } else { 1 },
            outcomes,
            stats: Default::default(),
        }
    }
}

impl Drop for GlobalTransaction {
    fn drop(&mut self) {
        if !self.members.is_empty() {
            // Session ended with work pending: the safe default is rollback.
            let _ = self.resolve(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lam::spawn_lam;
    use ldbs::profile::DbmsProfile;
    use ldbs::Engine;
    use netsim::Network;
    use std::time::Duration;

    fn setup() -> (Network, crate::lam::LamHandle) {
        let net = Network::new();
        let mut engine = Engine::new("svc", DbmsProfile::oracle_like());
        engine.create_database("db").unwrap();
        engine.execute("db", "CREATE TABLE t (x FLOAT)").unwrap();
        engine.execute("db", "INSERT INTO t VALUES (1)").unwrap();
        let lam = spawn_lam(&net, "svc", "site1", engine).unwrap();
        (net, lam)
    }

    fn client(net: &Network) -> LamClient {
        LamClient::connect(net, "site1", "db", Duration::from_secs(5)).unwrap()
    }

    fn value(lam: &crate::lam::LamHandle) -> ldbs::value::Value {
        let mut e = lam.engine.lock();
        e.execute("db", "SELECT x FROM t").unwrap().into_result_set().unwrap().rows[0][0].clone()
    }

    #[test]
    fn held_statements_share_one_local_transaction() {
        let (net, lam) = setup();
        let mut gt = GlobalTransaction::default();
        gt.execute_held(client(&net), "db", "db", "UPDATE t SET x = 2".into(), true, vec![])
            .unwrap();
        // Second statement on the same database reuses the open transaction
        // (no lock conflict with itself).
        let (status, affected) = gt
            .execute_held(client(&net), "db", "db", "UPDATE t SET x = x + 1".into(), true, vec![])
            .unwrap();
        assert_eq!(status, TaskStatus::Prepared);
        assert_eq!(affected, 1);
        assert_eq!(gt.len(), 1, "one member per database");
        let report = gt.resolve(false);
        assert!(report.success);
        assert_eq!(report.outcomes[0].affected, 2);
        assert_eq!(value(&lam), ldbs::value::Value::Float(3.0));
    }

    #[test]
    fn forced_rollback_undoes_held_work() {
        let (net, lam) = setup();
        let mut gt = GlobalTransaction::default();
        gt.execute_held(client(&net), "db", "db", "UPDATE t SET x = 2".into(), true, vec![])
            .unwrap();
        let report = gt.resolve(true);
        assert!(!report.success);
        assert_eq!(report.outcomes[0].status, TaskStatus::Aborted);
        assert_eq!(value(&lam), ldbs::value::Value::Float(1.0));
    }

    #[test]
    fn failed_statement_poisons_the_transaction() {
        let (net, lam) = setup();
        let mut gt = GlobalTransaction::default();
        gt.execute_held(client(&net), "db", "db", "UPDATE t SET x = 2".into(), true, vec![])
            .unwrap();
        let (status, _) = gt
            .execute_held(client(&net), "db", "db", "UPDATE t SET nope = 1".into(), true, vec![])
            .unwrap();
        assert_eq!(status, TaskStatus::Aborted);
        assert!(!gt.all_committable());
        let report = gt.resolve(false);
        assert!(!report.success);
        assert_eq!(value(&lam), ldbs::value::Value::Float(1.0));
    }

    #[test]
    fn drop_rolls_back_pending_work() {
        let (net, lam) = setup();
        {
            let mut gt = GlobalTransaction::default();
            gt.execute_held(client(&net), "db", "db", "UPDATE t SET x = 9".into(), true, vec![])
                .unwrap();
        }
        assert_eq!(value(&lam), ldbs::value::Value::Float(1.0));
    }

    #[test]
    fn compensatable_member_compensates_in_reverse_order() {
        let (net, lam) = setup();
        let mut gt = GlobalTransaction::default();
        // x = 1 → (x+1)=2 → (x*3)=6; compensation must divide by 3 first,
        // then subtract 1, restoring 1. Wrong order would give (1-? ) ≠ 1:
        // ((6-1)/3) = 1.67.
        gt.execute_held(
            client(&net),
            "db",
            "db",
            "UPDATE t SET x = x + 1".into(),
            false,
            vec!["UPDATE t SET x = x - 1".into()],
        )
        .unwrap();
        gt.execute_held(
            client(&net),
            "db",
            "db",
            "UPDATE t SET x = x * 3".into(),
            false,
            vec!["UPDATE t SET x = x / 3".into()],
        )
        .unwrap();
        assert_eq!(value(&lam), ldbs::value::Value::Float(6.0));
        let report = gt.resolve(true);
        assert_eq!(report.outcomes[0].status, TaskStatus::Compensated);
        assert_eq!(value(&lam), ldbs::value::Value::Float(1.0));
    }

    #[test]
    fn commit_path_reports_totals() {
        let (net, lam) = setup();
        let mut gt = GlobalTransaction::default();
        gt.execute_held(
            client(&net),
            "db",
            "db",
            "UPDATE t SET x = 5".into(),
            false,
            vec!["UPDATE t SET x = 1".into()],
        )
        .unwrap();
        let report = gt.resolve(false);
        assert!(report.success);
        assert_eq!(report.outcomes[0].status, TaskStatus::Committed);
        assert_eq!(value(&lam), ldbs::value::Value::Float(5.0));
    }
}
