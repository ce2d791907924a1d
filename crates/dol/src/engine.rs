//! The DOL execution engine.
//!
//! The engine plays the role of Narada's distributed engine (paper §4.1): it
//! opens services through a [`ServiceFactory`], submits `TASK` blocks to
//! them, records the status each task reaches (`P`/`C`/`A`/`E`), evaluates
//! the status conditions of `IF` statements, and drives the second commit
//! phase (`COMMIT`/`ABORT` task lists) and compensation.
//!
//! Consecutive `TASK` statements form a *batch*. In parallel mode (the
//! default, matching the paper's emphasis on data-flow parallelism) the
//! services of a batch work concurrently, and so do those of a
//! `COMMIT`/`ABORT` list that spans several: the engine's own thread drives
//! the first service and parked threads of its [`WorkerSet`] the others, so
//! a batch or list on one service — and everything in serial mode, where
//! tasks and acknowledgements run one after another — involves no second
//! thread. Benchmark B7 measures the difference. The set is the caller's
//! when it passes one ([`DolEngine::with_workers`]: a session keeps one for
//! all its statements, so none of them starts a thread), the engine's own
//! otherwise.

use crate::ast::{DolCond, DolProgram, DolStmt, TaskDef, TaskStatus};
use crate::error::DolError;
use crate::workers::WorkerSet;
use obs::{Span, SpanCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of running one task on a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskExecution {
    /// The status the task reached.
    pub status: TaskStatus,
    /// Serialized partial result (for retrieval tasks), if any.
    pub result: Option<String>,
    /// Error description when the status is `Aborted`/`Error`.
    pub error: Option<String>,
}

impl TaskExecution {
    /// A successful prepared execution.
    pub fn prepared() -> Self {
        TaskExecution { status: TaskStatus::Prepared, result: None, error: None }
    }

    /// A successful committed execution.
    pub fn committed(result: Option<String>) -> Self {
        TaskExecution { status: TaskStatus::Committed, result, error: None }
    }

    /// A failed execution.
    pub fn aborted(error: impl Into<String>) -> Self {
        TaskExecution { status: TaskStatus::Aborted, result: None, error: Some(error.into()) }
    }
}

/// A connected service a DOL program can drive. Implemented by the
/// multidatabase layer's LAM client (over the simulated network) and by mock
/// services in tests.
pub trait DolService: Send {
    /// Executes a task's commands. `nocommit` tasks must stop in the
    /// prepared state; others autocommit. Failures are reported through the
    /// returned status, not an `Err` — a local abort is a normal outcome for
    /// the plan logic.
    fn execute_task(&mut self, task: &TaskDef) -> TaskExecution;

    /// Second commit phase for a prepared task.
    fn commit_task(&mut self, task_name: &str) -> Result<(), DolError>;

    /// Rolls a prepared task back.
    fn abort_task(&mut self, task_name: &str) -> Result<(), DolError>;

    /// Executes a committed task's compensating commands (autocommit).
    fn compensate_task(&mut self, task: &TaskDef) -> Result<(), DolError>;

    /// Releases the connection.
    fn close(&mut self);

    /// Traced variant of [`execute_task`](DolService::execute_task): the
    /// engine hands the task's span so the service can annotate it (and open
    /// per-attempt children). Default implementations ignore the span, so
    /// mocks and simple services need not care about tracing.
    fn execute_task_traced(&mut self, task: &TaskDef, span: &Span) -> TaskExecution {
        let _ = span;
        self.execute_task(task)
    }

    /// Traced variant of [`commit_task`](DolService::commit_task).
    fn commit_task_traced(&mut self, task_name: &str, span: &Span) -> Result<(), DolError> {
        let _ = span;
        self.commit_task(task_name)
    }

    /// Traced variant of [`abort_task`](DolService::abort_task).
    fn abort_task_traced(&mut self, task_name: &str, span: &Span) -> Result<(), DolError> {
        let _ = span;
        self.abort_task(task_name)
    }

    /// Traced variant of [`compensate_task`](DolService::compensate_task).
    fn compensate_task_traced(&mut self, task: &TaskDef, span: &Span) -> Result<(), DolError> {
        let _ = span;
        self.compensate_task(task)
    }
}

/// Connects service names (from `OPEN service AT site`) to live services.
pub trait ServiceFactory {
    /// Opens a connection to `service` at `site`.
    fn connect(&self, service: &str, site: &str) -> Result<Box<dyn DolService>, DolError>;
}

/// Observer of the engine's protocol transitions — implemented by the
/// coordinator's write-ahead log so every step that changes the global
/// outcome is durably recorded *in order*. A callback may return
/// [`DolError::Halted`] to stop execution on the spot (the simulation
/// harness uses this to model a coordinator crash at an exact log site);
/// everything after the halt — including the settle phase — is skipped.
pub trait TaskObserver: Send + Sync {
    /// A task finished its first phase: `P` voted prepared, `C`
    /// autocommitted, `A`/`E` failed locally.
    fn task_executed(&self, task: &TaskDef, status: TaskStatus) -> Result<(), DolError>;

    /// The coordinator reached a `DECIDE <code>` statement — the settle
    /// decision, recorded *before* any second-phase message goes out.
    fn decision(&self, code: i32) -> Result<(), DolError>;

    /// A settle action for `task` completed with its final status
    /// (`C` committed, `A` aborted, `K` compensated).
    fn task_resolved(&self, task: &str, status: TaskStatus) -> Result<(), DolError>;
}

/// Outcome of one DOL program run.
#[derive(Debug, Clone, Default)]
pub struct DolOutcome {
    /// Final `DOLSTATUS` (0 = success by the paper's convention).
    pub dolstatus: i32,
    /// Status reached by every executed task.
    pub task_statuses: HashMap<String, TaskStatus>,
    /// Serialized partial results of retrieval tasks.
    pub task_results: HashMap<String, String>,
    /// Local error message of every task that failed.
    pub task_errors: HashMap<String, String>,
}

impl DolOutcome {
    /// Status of a task, if it ran.
    pub fn status(&self, task: &str) -> Option<TaskStatus> {
        self.task_statuses.get(task).copied()
    }

    /// Local error of a task, if it failed.
    pub fn error(&self, task: &str) -> Option<&str> {
        self.task_errors.get(task).map(String::as_str)
    }
}

/// The DOL engine.
pub struct DolEngine<'f> {
    factory: &'f dyn ServiceFactory,
    /// The threads multi-service batches and settle lists fan out on.
    workers: WorkerSet,
    /// Run the services of a task batch or settle list concurrently
    /// (default true).
    pub parallel: bool,
    /// Where to hang execution spans (disabled by default).
    pub trace: SpanCtx,
    /// Protocol-transition observer (the coordinator's WAL), if any.
    pub observer: Option<Arc<dyn TaskObserver>>,
}

/// Which way a `COMMIT`/`ABORT` list settles its prepared tasks.
#[derive(Clone, Copy)]
enum Settle {
    Commit,
    Abort,
}

impl Settle {
    fn verb(self) -> &'static str {
        match self {
            Settle::Commit => "commit",
            Settle::Abort => "abort",
        }
    }

    fn resolved(self) -> TaskStatus {
        match self {
            Settle::Commit => TaskStatus::Committed,
            Settle::Abort => TaskStatus::Aborted,
        }
    }
}

struct RunState {
    services: HashMap<String, Box<dyn DolService>>,
    defs: HashMap<String, TaskDef>,
    outcome: DolOutcome,
}

impl<'f> DolEngine<'f> {
    /// Creates an engine over a service factory (parallel batches enabled).
    pub fn new(factory: &'f dyn ServiceFactory) -> Self {
        DolEngine {
            factory,
            workers: WorkerSet::new(),
            parallel: true,
            trace: SpanCtx::disabled(),
            observer: None,
        }
    }

    /// Creates an engine that executes task batches serially.
    pub fn serial(factory: &'f dyn ServiceFactory) -> Self {
        DolEngine { parallel: false, ..DolEngine::new(factory) }
    }

    /// Fans out on `workers` instead of a set of the engine's own, so the
    /// threads outlive this engine and the next one finds them parked.
    pub fn with_workers(mut self, workers: &WorkerSet) -> Self {
        self.workers = workers.clone();
        self
    }

    /// Executes a program to completion.
    pub fn execute(&self, program: &DolProgram) -> Result<DolOutcome, DolError> {
        let mut state = RunState {
            services: HashMap::new(),
            defs: HashMap::new(),
            outcome: DolOutcome::default(),
        };
        let span = self.trace.child("dol:run");
        let ctx = span.ctx();
        let result = self.run_block(&program.statements, &mut state, &ctx);
        // Drop any service still open.
        for (_, mut svc) in state.services.drain() {
            svc.close();
        }
        result?;
        span.note("dolstatus", state.outcome.dolstatus);
        Ok(state.outcome)
    }

    fn run_block(
        &self,
        stmts: &[DolStmt],
        state: &mut RunState,
        ctx: &SpanCtx,
    ) -> Result<(), DolError> {
        let mut i = 0;
        while i < stmts.len() {
            match &stmts[i] {
                DolStmt::Task(_) => {
                    // Collect the whole consecutive batch.
                    let mut batch = Vec::new();
                    while i < stmts.len() {
                        if let DolStmt::Task(t) = &stmts[i] {
                            batch.push(t.clone());
                            i += 1;
                        } else {
                            break;
                        }
                    }
                    self.run_batch(batch, state, ctx)?;
                }
                other => {
                    self.run_stmt(other, state, ctx)?;
                    i += 1;
                }
            }
        }
        Ok(())
    }

    fn run_stmt(
        &self,
        stmt: &DolStmt,
        state: &mut RunState,
        ctx: &SpanCtx,
    ) -> Result<(), DolError> {
        match stmt {
            DolStmt::Open { service, site, alias } => {
                if state.services.contains_key(alias) {
                    return Err(DolError::Duplicate(alias.clone()));
                }
                let span = ctx.child(format!("open:{alias}"));
                span.note("service", service);
                span.note("site", site);
                let svc = self.factory.connect(service, site)?;
                state.services.insert(alias.clone(), svc);
                Ok(())
            }
            DolStmt::Task(_) => unreachable!("tasks are batched in run_block"),
            DolStmt::If { cond, then_branch, else_branch } => {
                if eval_cond(cond, &state.outcome.task_statuses)? {
                    self.run_block(then_branch, state, ctx)
                } else {
                    self.run_block(else_branch, state, ctx)
                }
            }
            DolStmt::Commit { tasks } => self.settle(Settle::Commit, tasks, state, ctx),
            DolStmt::Abort { tasks } => self.settle(Settle::Abort, tasks, state, ctx),
            DolStmt::Compensate { task } => self.compensate_task(task, state, ctx),
            DolStmt::Decide(code) => {
                if let Some(observer) = &self.observer {
                    observer.decision(*code)?;
                }
                Ok(())
            }
            DolStmt::SetStatus(code) => {
                state.outcome.dolstatus = *code;
                Ok(())
            }
            DolStmt::Close { aliases } => {
                for alias in aliases {
                    if let Some(mut svc) = state.services.remove(alias) {
                        svc.close();
                    }
                }
                Ok(())
            }
        }
    }

    fn run_batch(
        &self,
        batch: Vec<TaskDef>,
        state: &mut RunState,
        ctx: &SpanCtx,
    ) -> Result<(), DolError> {
        for (i, t) in batch.iter().enumerate() {
            if state.defs.contains_key(&t.name) || batch[..i].iter().any(|prev| prev.name == t.name)
            {
                return Err(DolError::Duplicate(t.name.clone()));
            }
            if !state.services.contains_key(&t.service) {
                return Err(DolError::UnknownService(t.service.clone()));
            }
        }
        for t in &batch {
            state.defs.insert(t.name.clone(), t.clone());
        }

        // Group tasks by service alias; tasks on the same service run in
        // order on that service's connection.
        let mut groups: Vec<(String, Vec<TaskDef>)> = Vec::new();
        for t in batch {
            match groups.iter_mut().find(|(alias, _)| *alias == t.service) {
                Some((_, tasks)) => tasks.push(t),
                None => groups.push((t.service.clone(), vec![t])),
            }
        }

        // Opens, annotates and closes the span around one task execution.
        fn traced_exec(
            svc: &mut Box<dyn DolService>,
            task: &TaskDef,
            alias: &str,
            ctx: &SpanCtx,
        ) -> TaskExecution {
            let span = ctx.child(format!("task:{}", task.name));
            span.note("service", alias);
            let exec = svc.execute_task_traced(task, &span);
            span.note("status", exec.status.code());
            exec
        }

        let mut executions: Vec<(String, TaskExecution)> = Vec::new();
        if self.parallel && groups.len() > 1 {
            executions =
                self.fan_out(&mut state.services, groups, ctx, |svc, alias, task: TaskDef, ctx| {
                    let exec = traced_exec(svc, &task, alias, ctx);
                    (task.name, exec)
                });
        } else {
            for (alias, tasks) in groups {
                let svc = state.services.get_mut(&alias).expect("checked above");
                for task in &tasks {
                    let exec = traced_exec(svc, task, &alias, ctx);
                    executions.push((task.name.clone(), exec));
                }
            }
        }

        for (name, exec) in executions {
            state.outcome.task_statuses.insert(name.clone(), exec.status);
            if let Some(error) = exec.error {
                state.outcome.task_errors.insert(name.clone(), error);
            }
            if let Some(result) = exec.result {
                state.outcome.task_results.insert(name.clone(), result);
            }
            if let Some(observer) = &self.observer {
                observer.task_executed(&state.defs[&name], state.outcome.task_statuses[&name])?;
            }
        }
        Ok(())
    }

    /// Drives the second phase for a `COMMIT`/`ABORT` task list.
    ///
    /// Every listed task is attempted; the first error in list order is
    /// returned. Tasks still prepared get the second-phase message, tasks
    /// already where the statement wants them are skipped (`COMMIT` is
    /// idempotent on `C`; `ABORT` is a no-op on `A`/`E` — the paper's else
    /// branch aborts the whole vital set, members of which may have aborted
    /// on their own), anything else is a plan error.
    ///
    /// Serially, each message is followed by its status update and
    /// [`TaskObserver::task_resolved`] before the next one goes out. In
    /// parallel mode the messages of a list that spans several services go
    /// out together, fanned out as in [`Self::run_batch`], and the updates
    /// and observer calls follow in list order — so the log reads the same
    /// either way and the list costs one round trip. An observer error (a
    /// simulated coordinator crash) stops on the spot.
    fn settle(
        &self,
        action: Settle,
        names: &[String],
        state: &mut RunState,
        ctx: &SpanCtx,
    ) -> Result<(), DolError> {
        // Per listed task: `Ok(Some(alias))` = prepared, message its service;
        // `Ok(None)` = nothing to do; `Err` = the plan is wrong about it.
        let targets: Vec<Result<Option<String>, DolError>> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let def =
                    state.defs.get(name).ok_or_else(|| DolError::UnknownTask(name.clone()))?;
                if names[..i].contains(name) {
                    return Ok(None); // listed twice: the first mention settles it
                }
                match (state.outcome.task_statuses[name], action) {
                    (TaskStatus::Prepared, _) if state.services.contains_key(&def.service) => {
                        Ok(Some(def.service.clone()))
                    }
                    (TaskStatus::Prepared, _) => Err(DolError::UnknownService(def.service.clone())),
                    (TaskStatus::Committed, Settle::Commit)
                    | (TaskStatus::Aborted | TaskStatus::Error, Settle::Abort) => Ok(None),
                    (other, _) => Err(DolError::BadTaskStatus {
                        task: name.clone(),
                        action: action.verb(),
                        status: other.code(),
                    }),
                }
            })
            .collect();

        // Sends one task's second-phase message under its span.
        fn send(
            svc: &mut Box<dyn DolService>,
            action: Settle,
            name: &str,
            alias: &str,
            ctx: &SpanCtx,
        ) -> Result<(), DolError> {
            let span = ctx.child(format!("{}:{name}", action.verb()));
            span.note("service", alias);
            match action {
                Settle::Commit => svc.commit_task_traced(name, &span),
                Settle::Abort => svc.abort_task_traced(name, &span),
            }
        }

        // In parallel mode, a list that spans several services sends all its
        // messages now; tasks on one service share its connection, in order.
        let mut sent: HashMap<usize, Result<(), DolError>> = HashMap::new();
        if self.parallel {
            let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
            for (i, target) in targets.iter().enumerate() {
                if let Ok(Some(alias)) = target {
                    match groups.iter_mut().find(|(a, _)| a == alias) {
                        Some((_, members)) => members.push(i),
                        None => groups.push((alias.clone(), vec![i])),
                    }
                }
            }
            if groups.len() > 1 {
                // A message may go out from a worker thread, so it owns what
                // it needs: its place in the list, the verb, the task's name.
                let owned = groups
                    .into_iter()
                    .map(|(alias, members)| {
                        let members = members.into_iter().map(|i| (i, action, names[i].clone()));
                        (alias, members.collect())
                    })
                    .collect();
                sent = self
                    .fan_out(&mut state.services, owned, ctx, |svc, alias, member, ctx| {
                        let (i, action, name): (usize, Settle, String) = member;
                        (i, send(svc, action, &name, alias, ctx))
                    })
                    .into_iter()
                    .collect();
            }
        }

        let mut first_err = None;
        for (i, (name, target)) in names.iter().zip(targets).enumerate() {
            let result = match target {
                Ok(Some(alias)) => sent.remove(&i).unwrap_or_else(|| {
                    let svc = state.services.get_mut(&alias).expect("checked above");
                    send(svc, action, name, &alias, ctx)
                }),
                Ok(None) => continue,
                Err(e) => Err(e),
            };
            match result {
                Ok(()) => {
                    let status = action.resolved();
                    state.outcome.task_statuses.insert(name.clone(), status);
                    if let Some(observer) = &self.observer {
                        observer.task_resolved(name, status)?;
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    fn compensate_task(
        &self,
        name: &str,
        state: &mut RunState,
        ctx: &SpanCtx,
    ) -> Result<(), DolError> {
        let def =
            state.defs.get(name).ok_or_else(|| DolError::UnknownTask(name.to_string()))?.clone();
        if def.compensation.is_empty() {
            return Err(DolError::NoCompensation(name.to_string()));
        }
        let status = state.outcome.task_statuses[name];
        match status {
            TaskStatus::Committed => {
                let svc = state
                    .services
                    .get_mut(&def.service)
                    .ok_or_else(|| DolError::UnknownService(def.service.clone()))?;
                let span = ctx.child(format!("compensate:{name}"));
                span.note("service", &def.service);
                svc.compensate_task_traced(&def, &span)?;
                state.outcome.task_statuses.insert(name.to_string(), TaskStatus::Compensated);
                if let Some(observer) = &self.observer {
                    observer.task_resolved(name, TaskStatus::Compensated)?;
                }
                Ok(())
            }
            other => Err(DolError::BadTaskStatus {
                task: name.to_string(),
                action: "compensate",
                status: other.code(),
            }),
        }
    }

    /// Runs `work` over every group's items, the groups concurrently on the
    /// engine's [`WorkerSet`] — the first on this thread, the others on
    /// parked workers. Each group's job owns its service for the duration
    /// (the boxes go back into `services` afterwards) and a handle on `ctx`;
    /// the items of one group run in order on that service's connection.
    /// Results come back group by group, in `groups` order. Callers have
    /// checked that every alias is open.
    fn fan_out<I, T>(
        &self,
        services: &mut HashMap<String, Box<dyn DolService>>,
        groups: Vec<(String, Vec<I>)>,
        ctx: &SpanCtx,
        work: fn(&mut Box<dyn DolService>, &str, I, &SpanCtx) -> T,
    ) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
    {
        let jobs: Vec<_> = groups
            .into_iter()
            .map(|(alias, items)| {
                let mut svc = services.remove(&alias).expect("alias checked by the caller");
                let ctx = ctx.clone();
                move || {
                    let results: Vec<T> =
                        items.into_iter().map(|item| work(&mut svc, &alias, item, &ctx)).collect();
                    (alias, svc, results)
                }
            })
            .collect();
        let mut out = Vec::new();
        for (alias, svc, results) in self.workers.run(jobs) {
            services.insert(alias, svc);
            out.extend(results);
        }
        out
    }
}

/// Evaluates a status condition.
pub fn eval_cond(cond: &DolCond, statuses: &HashMap<String, TaskStatus>) -> Result<bool, DolError> {
    match cond {
        DolCond::StatusEq { task, status } => statuses
            .get(task)
            .map(|s| s == status)
            .ok_or_else(|| DolError::UnknownTask(task.clone())),
        DolCond::And(a, b) => Ok(eval_cond(a, statuses)? && eval_cond(b, statuses)?),
        DolCond::Or(a, b) => Ok(eval_cond(a, statuses)? || eval_cond(b, statuses)?),
        DolCond::Not(a) => Ok(!eval_cond(a, statuses)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::time::Duration;

    /// A scripted in-memory service for engine tests.
    #[derive(Default)]
    struct MockState {
        fail_tasks: Vec<String>,
        log: Vec<String>,
        delay: Option<Duration>,
        /// How long a second-phase acknowledgement takes.
        settle_delay: Option<Duration>,
        /// The thread each `exec` / `commit` log line ran on.
        threads: Vec<(String, std::thread::ThreadId)>,
    }

    #[derive(Clone, Default)]
    struct MockFactory {
        state: Arc<Mutex<MockState>>,
    }

    struct MockService {
        service: String,
        state: Arc<Mutex<MockState>>,
    }

    impl ServiceFactory for MockFactory {
        fn connect(&self, service: &str, _site: &str) -> Result<Box<dyn DolService>, DolError> {
            if service == "unreachable" {
                return Err(DolError::OpenFailed {
                    service: service.into(),
                    reason: "no route".into(),
                });
            }
            self.state.lock().log.push(format!("open {service}"));
            Ok(Box::new(MockService { service: service.into(), state: Arc::clone(&self.state) }))
        }
    }

    impl DolService for MockService {
        fn execute_task(&mut self, task: &TaskDef) -> TaskExecution {
            let delay = self.state.lock().delay;
            if let Some(d) = delay {
                std::thread::sleep(d);
            }
            let mut st = self.state.lock();
            st.log.push(format!("exec {} on {}", task.name, self.service));
            st.threads.push((format!("exec {}", task.name), std::thread::current().id()));
            if st.fail_tasks.contains(&task.name) {
                return TaskExecution::aborted("scripted failure");
            }
            if task.nocommit {
                TaskExecution::prepared()
            } else {
                TaskExecution::committed(Some(format!("result-of-{}", task.name)))
            }
        }

        fn commit_task(&mut self, task_name: &str) -> Result<(), DolError> {
            let delay = self.state.lock().settle_delay;
            if let Some(d) = delay {
                std::thread::sleep(d);
            }
            let mut st = self.state.lock();
            st.log.push(format!("commit {task_name}"));
            st.threads.push((format!("commit {task_name}"), std::thread::current().id()));
            Ok(())
        }

        fn abort_task(&mut self, task_name: &str) -> Result<(), DolError> {
            self.state.lock().log.push(format!("abort {task_name}"));
            Ok(())
        }

        fn compensate_task(&mut self, task: &TaskDef) -> Result<(), DolError> {
            self.state.lock().log.push(format!("compensate {}", task.name));
            Ok(())
        }

        fn close(&mut self) {
            self.state.lock().log.push(format!("close {}", self.service));
        }
    }

    const PAPER: &str = "
        DOLBEGIN
        OPEN continental AT site1 AS cont;
        OPEN delta AT site2 AS delta;
        OPEN united AT site3 AS unit;
        TASK T1 NOCOMMIT FOR cont { UPDATE flights SET rate = rate } ENDTASK;
        TASK T2 FOR delta { UPDATE flight SET rate = rate } ENDTASK;
        TASK T3 NOCOMMIT FOR unit { UPDATE flight SET rates = rates } ENDTASK;
        IF (T1=P) AND (T3=P) THEN
        BEGIN COMMIT T1, T3; DOLSTATUS=0; END;
        ELSE
        BEGIN ABORT T1, T3; DOLSTATUS=1; END;
        CLOSE cont delta unit;
        DOLEND";

    #[test]
    fn happy_path_commits_vital_tasks() {
        let factory = MockFactory::default();
        let engine = DolEngine::new(&factory);
        let out = engine.execute(&parse_program(PAPER).unwrap()).unwrap();
        assert_eq!(out.dolstatus, 0);
        assert_eq!(out.status("T1"), Some(TaskStatus::Committed));
        assert_eq!(out.status("T2"), Some(TaskStatus::Committed));
        assert_eq!(out.status("T3"), Some(TaskStatus::Committed));
        let log = factory.state.lock().log.clone();
        assert!(log.contains(&"commit T1".to_string()));
        assert!(log.contains(&"commit T3".to_string()));
        assert!(log.contains(&"close united".to_string()));
    }

    #[test]
    fn vital_failure_takes_else_branch() {
        let factory = MockFactory::default();
        factory.state.lock().fail_tasks.push("T3".into());
        let engine = DolEngine::new(&factory);
        let out = engine.execute(&parse_program(PAPER).unwrap()).unwrap();
        assert_eq!(out.dolstatus, 1);
        assert_eq!(out.status("T1"), Some(TaskStatus::Aborted));
        assert_eq!(out.status("T3"), Some(TaskStatus::Aborted));
        // Non-vital T2 autocommitted regardless.
        assert_eq!(out.status("T2"), Some(TaskStatus::Committed));
        let log = factory.state.lock().log.clone();
        assert!(log.contains(&"abort T1".to_string()));
        // T3 failed locally; no abort message needed for it.
        assert!(!log.contains(&"abort T3".to_string()));
    }

    #[test]
    fn task_errors_are_collected() {
        let factory = MockFactory::default();
        factory.state.lock().fail_tasks.push("T3".into());
        let engine = DolEngine::new(&factory);
        let out = engine.execute(&parse_program(PAPER).unwrap()).unwrap();
        assert_eq!(out.error("T3"), Some("scripted failure"));
        assert_eq!(out.error("T1"), None, "an aborted-but-healthy task carries no local error");
        assert_eq!(out.error("T2"), None);
    }

    #[test]
    fn task_results_are_collected() {
        let factory = MockFactory::default();
        let engine = DolEngine::new(&factory);
        let out = engine
            .execute(
                &parse_program(
                    "DOLBEGIN
                     OPEN avis AT s1 AS a;
                     TASK Q1 FOR a { SELECT code FROM cars } ENDTASK;
                     DOLEND",
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(out.task_results["Q1"], "result-of-Q1");
    }

    #[test]
    fn compensate_requires_comp_block_and_committed_status() {
        let factory = MockFactory::default();
        let engine = DolEngine::new(&factory);
        // No COMP block → error.
        let err = engine.execute(
            &parse_program(
                "DOLBEGIN
                 OPEN c AT s AS c;
                 TASK T1 FOR c { UPDATE x SET y = 1 } ENDTASK;
                 COMPENSATE T1;
                 DOLEND",
            )
            .unwrap(),
        );
        assert!(matches!(err, Err(DolError::NoCompensation(_))));

        // With COMP block on a committed task → status becomes Compensated.
        let out = engine
            .execute(
                &parse_program(
                    "DOLBEGIN
                     OPEN c AT s AS c;
                     TASK T1 FOR c { UPDATE x SET y = 1 } COMP { UPDATE x SET y = 0 } ENDTASK;
                     COMPENSATE T1;
                     DOLEND",
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(out.status("T1"), Some(TaskStatus::Compensated));
        assert!(factory.state.lock().log.contains(&"compensate T1".to_string()));
    }

    #[test]
    fn commit_non_prepared_task_is_an_error() {
        let factory = MockFactory::default();
        factory.state.lock().fail_tasks.push("T1".into());
        let engine = DolEngine::new(&factory);
        let err = engine.execute(
            &parse_program(
                "DOLBEGIN
                 OPEN c AT s AS c;
                 TASK T1 NOCOMMIT FOR c { UPDATE x SET y = 1 } ENDTASK;
                 COMMIT T1;
                 DOLEND",
            )
            .unwrap(),
        );
        assert!(matches!(err, Err(DolError::BadTaskStatus { action: "commit", .. })));
    }

    #[test]
    fn open_failure_propagates() {
        let factory = MockFactory::default();
        let engine = DolEngine::new(&factory);
        let err =
            engine.execute(&parse_program("DOLBEGIN OPEN unreachable AT s AS u; DOLEND").unwrap());
        assert!(matches!(err, Err(DolError::OpenFailed { .. })));
    }

    #[test]
    fn task_on_unopened_alias_is_an_error() {
        let factory = MockFactory::default();
        let engine = DolEngine::new(&factory);
        let err = engine.execute(
            &parse_program("DOLBEGIN TASK T1 FOR ghost { SELECT 1 } ENDTASK; DOLEND").unwrap(),
        );
        assert!(matches!(err, Err(DolError::UnknownService(_))));
    }

    #[test]
    fn duplicate_task_name_is_an_error() {
        let factory = MockFactory::default();
        let engine = DolEngine::new(&factory);
        let err = engine.execute(
            &parse_program(
                "DOLBEGIN
                 OPEN a AT s AS a;
                 TASK T1 FOR a { SELECT 1 } ENDTASK;
                 TASK T1 FOR a { SELECT 2 } ENDTASK;
                 DOLEND",
            )
            .unwrap(),
        );
        assert!(matches!(err, Err(DolError::Duplicate(_))));
    }

    #[test]
    fn condition_over_unknown_task_is_an_error() {
        let factory = MockFactory::default();
        let engine = DolEngine::new(&factory);
        let err =
            engine.execute(&parse_program("DOLBEGIN IF T9=P THEN DOLSTATUS=0; DOLEND").unwrap());
        assert!(matches!(err, Err(DolError::UnknownTask(_))));
    }

    #[test]
    fn parallel_batch_overlaps_task_latency() {
        let factory = MockFactory::default();
        factory.state.lock().delay = Some(Duration::from_millis(40));
        let program = parse_program(
            "DOLBEGIN
             OPEN a AT s1 AS a;
             OPEN b AT s2 AS b;
             OPEN c AT s3 AS c;
             TASK T1 FOR a { SELECT 1 } ENDTASK;
             TASK T2 FOR b { SELECT 1 } ENDTASK;
             TASK T3 FOR c { SELECT 1 } ENDTASK;
             DOLEND",
        )
        .unwrap();

        let start = std::time::Instant::now();
        DolEngine::new(&factory).execute(&program).unwrap();
        let parallel_time = start.elapsed();

        let start = std::time::Instant::now();
        DolEngine::serial(&factory).execute(&program).unwrap();
        let serial_time = start.elapsed();

        assert!(parallel_time < Duration::from_millis(100), "parallel: {parallel_time:?}");
        assert!(serial_time >= Duration::from_millis(110), "serial: {serial_time:?}");
    }

    #[test]
    fn the_first_group_runs_on_the_calling_thread_and_workers_are_reused() {
        let program = parse_program(
            "DOLBEGIN
             OPEN a AT s1 AS a;
             OPEN b AT s2 AS b;
             OPEN c AT s3 AS c;
             TASK Ta NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
             TASK Tb NOCOMMIT FOR b { UPDATE x SET y = 2 } ENDTASK;
             TASK Tc NOCOMMIT FOR c { UPDATE x SET y = 3 } ENDTASK;
             COMMIT Ta, Tb, Tc;
             DOLEND",
        )
        .unwrap();
        let me = std::thread::current().id();
        let workers = WorkerSet::new();
        for parallel in [true, true, false] {
            let factory = MockFactory::default();
            let mut engine = DolEngine::new(&factory).with_workers(&workers);
            engine.parallel = parallel;
            engine.execute(&program).unwrap();
            let threads = factory.state.lock().threads.clone();
            let on = |what: &str| threads.iter().find(|(w, _)| w == what).unwrap().1;
            // The batch's and the list's first group never leave this thread;
            // in parallel mode the other groups run on workers.
            assert_eq!((on("exec Ta"), on("commit Ta")), (me, me));
            for other in ["exec Tb", "exec Tc", "commit Tb", "commit Tc"] {
                assert_eq!(on(other) == me, !parallel, "{other}, parallel = {parallel}");
            }
            // Two engines and four fan-outs later the caller's set still holds
            // the two threads the first batch started.
            assert_eq!(workers.threads(), 2);
        }
        // A batch on one service, parallel or not, touches no worker.
        let factory = MockFactory::default();
        let workers = WorkerSet::new();
        let single =
            parse_program("DOLBEGIN OPEN a AT s1 AS a; TASK T1 FOR a { SELECT 1 } ENDTASK; DOLEND")
                .unwrap();
        DolEngine::new(&factory).with_workers(&workers).execute(&single).unwrap();
        assert_eq!(factory.state.lock().threads, vec![("exec T1".to_string(), me)]);
        assert_eq!(workers.threads(), 0);
    }

    #[test]
    fn tasks_on_same_service_run_in_order_even_in_parallel_mode() {
        let factory = MockFactory::default();
        let program = parse_program(
            "DOLBEGIN
             OPEN a AT s1 AS a;
             TASK T1 FOR a { SELECT 1 } ENDTASK;
             TASK T2 FOR a { SELECT 2 } ENDTASK;
             DOLEND",
        )
        .unwrap();
        DolEngine::new(&factory).execute(&program).unwrap();
        let log = factory.state.lock().log.clone();
        let i1 = log.iter().position(|l| l == "exec T1 on a").unwrap();
        let i2 = log.iter().position(|l| l == "exec T2 on a").unwrap();
        assert!(i1 < i2);
    }

    /// Records observer callbacks; optionally halts at the n-th one.
    #[derive(Default)]
    struct RecordingObserver {
        events: Mutex<Vec<String>>,
        halt_at: Option<usize>,
    }

    impl RecordingObserver {
        fn record(&self, event: String) -> Result<(), DolError> {
            let mut events = self.events.lock();
            if self.halt_at == Some(events.len()) {
                return Err(DolError::Halted(format!("at event {}", events.len())));
            }
            events.push(event);
            Ok(())
        }
    }

    impl TaskObserver for RecordingObserver {
        fn task_executed(&self, task: &TaskDef, status: TaskStatus) -> Result<(), DolError> {
            self.record(format!("exec {} {}", task.name, status.code()))
        }

        fn decision(&self, code: i32) -> Result<(), DolError> {
            self.record(format!("decide {code}"))
        }

        fn task_resolved(&self, task: &str, status: TaskStatus) -> Result<(), DolError> {
            self.record(format!("resolve {} {}", task, status.code()))
        }
    }

    const OBSERVED: &str = "
        DOLBEGIN
        OPEN a AT s1 AS a;
        OPEN b AT s2 AS b;
        TASK T1 NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
        TASK T2 NOCOMMIT FOR b { UPDATE x SET y = 2 } ENDTASK;
        IF (T1=P) AND (T2=P) THEN
        BEGIN DECIDE 0; COMMIT T1, T2; DOLSTATUS=0; END;
        ELSE
        BEGIN DECIDE 1; ABORT T1, T2; DOLSTATUS=1; END;
        CLOSE a b;
        DOLEND";

    #[test]
    fn observer_sees_protocol_transitions_in_order() {
        let factory = MockFactory::default();
        let observer = Arc::new(RecordingObserver::default());
        let mut engine = DolEngine::serial(&factory);
        engine.observer = Some(Arc::clone(&observer) as Arc<dyn TaskObserver>);
        let out = engine.execute(&parse_program(OBSERVED).unwrap()).unwrap();
        assert_eq!(out.dolstatus, 0);
        let events = observer.events.lock().clone();
        assert_eq!(
            events,
            vec!["exec T1 P", "exec T2 P", "decide 0", "resolve T1 C", "resolve T2 C"]
        );
    }

    #[test]
    fn parallel_settle_list_costs_one_acknowledgement_not_one_per_task() {
        let program = parse_program(
            "DOLBEGIN
             OPEN a AT s1 AS a;
             OPEN b AT s2 AS b;
             OPEN c AT s3 AS c;
             TASK Ta NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
             TASK Tb NOCOMMIT FOR b { UPDATE x SET y = 2 } ENDTASK;
             TASK Tc NOCOMMIT FOR c { UPDATE x SET y = 3 } ENDTASK;
             COMMIT Ta, Tb, Tc;
             DOLEND",
        )
        .unwrap();
        let timed = |parallel: bool| {
            let factory = MockFactory::default();
            factory.state.lock().settle_delay = Some(Duration::from_millis(40));
            let observer = Arc::new(RecordingObserver::default());
            let mut engine =
                if parallel { DolEngine::new(&factory) } else { DolEngine::serial(&factory) };
            engine.observer = Some(Arc::clone(&observer) as Arc<dyn TaskObserver>);
            let start = std::time::Instant::now();
            let out = engine.execute(&program).unwrap();
            let elapsed = start.elapsed();
            for task in ["Ta", "Tb", "Tc"] {
                assert_eq!(out.status(task), Some(TaskStatus::Committed));
            }
            // The log reads in list order whichever way the acks raced.
            let resolved: Vec<String> = observer
                .events
                .lock()
                .iter()
                .filter(|e| e.starts_with("resolve"))
                .cloned()
                .collect();
            assert_eq!(resolved, vec!["resolve Ta C", "resolve Tb C", "resolve Tc C"]);
            elapsed
        };
        let parallel_time = timed(true);
        let serial_time = timed(false);
        assert!(parallel_time < Duration::from_millis(100), "parallel: {parallel_time:?}");
        assert!(serial_time >= Duration::from_millis(110), "serial: {serial_time:?}");
    }

    #[test]
    fn every_listed_task_is_attempted_and_the_first_error_in_list_order_wins() {
        // Tb cannot be committed (it aborted locally): the list still settles
        // Ta and Tc, then reports Tb's error.
        for parallel in [true, false] {
            let factory = MockFactory::default();
            factory.state.lock().fail_tasks.push("Tb".into());
            let mut engine = DolEngine::new(&factory);
            engine.parallel = parallel;
            let err = engine.execute(
                &parse_program(
                    "DOLBEGIN
                     OPEN a AT s1 AS a;
                     OPEN b AT s2 AS b;
                     OPEN c AT s3 AS c;
                     TASK Ta NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
                     TASK Tb NOCOMMIT FOR b { UPDATE x SET y = 2 } ENDTASK;
                     TASK Tc NOCOMMIT FOR c { UPDATE x SET y = 3 } ENDTASK;
                     COMMIT Ta, Tb, Tc;
                     DOLEND",
                )
                .unwrap(),
            );
            assert!(
                matches!(&err, Err(DolError::BadTaskStatus { task, action: "commit", .. }) if task == "Tb"),
                "{err:?}"
            );
            let log = factory.state.lock().log.clone();
            assert!(log.contains(&"commit Ta".to_string()), "{log:?}");
            assert!(log.contains(&"commit Tc".to_string()), "{log:?}");
        }
    }

    #[test]
    fn halting_observer_stops_execution_before_settle() {
        let factory = MockFactory::default();
        // Halt at the decision callback: votes are in, no settle message out.
        let observer =
            Arc::new(RecordingObserver { halt_at: Some(2), ..RecordingObserver::default() });
        let mut engine = DolEngine::serial(&factory);
        engine.observer = Some(Arc::clone(&observer) as Arc<dyn TaskObserver>);
        let err = engine.execute(&parse_program(OBSERVED).unwrap());
        assert!(matches!(err, Err(DolError::Halted(_))), "{err:?}");
        assert_eq!(observer.events.lock().clone(), vec!["exec T1 P", "exec T2 P"]);
        let log = factory.state.lock().log.clone();
        assert!(!log.iter().any(|l| l.starts_with("commit")), "no settle after halt: {log:?}");
        assert!(!log.iter().any(|l| l.starts_with("abort")), "{log:?}");
    }

    #[test]
    fn decide_without_observer_is_a_no_op() {
        let factory = MockFactory::default();
        let out = DolEngine::serial(&factory)
            .execute(&parse_program("DOLBEGIN DECIDE 7; DOLSTATUS=0; DOLEND").unwrap())
            .unwrap();
        assert_eq!(out.dolstatus, 0);
    }

    #[test]
    fn abort_is_idempotent_for_already_aborted() {
        let factory = MockFactory::default();
        factory.state.lock().fail_tasks.push("T1".into());
        let engine = DolEngine::new(&factory);
        let out = engine
            .execute(
                &parse_program(
                    "DOLBEGIN
                     OPEN a AT s AS a;
                     TASK T1 NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
                     ABORT T1;
                     DOLSTATUS=1;
                     DOLEND",
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(out.status("T1"), Some(TaskStatus::Aborted));
        assert_eq!(out.dolstatus, 1);
    }
}
