//! The DOL execution engine.
//!
//! The engine plays the role of Narada's distributed engine (paper §4.1): it
//! opens services through a [`ServiceFactory`], submits `TASK` blocks to
//! them, records the status each task reaches (`P`/`C`/`A`/`E`) and what it
//! produced (the service's output type `O`, filed under the task's name in
//! [`DolOutcome::task_results`]: partial results are "sent … to the engine"),
//! evaluates the status conditions of `IF` statements, and drives the second
//! commit phase (`COMMIT`/`ABORT` task lists) and compensation.
//!
//! Consecutive `TASK` statements form a *batch*, consecutive `COMMIT` /
//! `ABORT` statements a *wave*. The services of a batch or a wave work
//! concurrently (the paper's data-flow parallelism), and the engine needs no
//! thread for that: it [posts](DolService::post) the first step of every
//! service before it reads any reply, then reads the replies in order on the
//! calling thread, so a batch or wave over k services waits one round trip,
//! not k.

use crate::ast::{DolCond, DolProgram, DolStmt, TaskDef, TaskStatus};
use crate::error::DolError;
use obs::{Span, SpanCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of running one task on a service: its status and what it produced,
/// in the service's output type `O`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskExecution<O = String> {
    /// The status the task reached.
    pub status: TaskStatus,
    /// What the task produced (a retrieval's partial result, a service's
    /// account of the exchange), if anything.
    pub result: Option<O>,
    /// Error description when the status is `Aborted`/`Error`.
    pub error: Option<String>,
}

impl<O> TaskExecution<O> {
    /// A successful prepared execution.
    pub fn prepared() -> Self {
        TaskExecution { status: TaskStatus::Prepared, result: None, error: None }
    }

    /// A successful committed execution.
    pub fn committed(result: Option<O>) -> Self {
        TaskExecution { status: TaskStatus::Committed, result, error: None }
    }

    /// A failed execution.
    pub fn aborted(error: impl Into<String>) -> Self {
        TaskExecution { status: TaskStatus::Aborted, result: None, error: Some(error.into()) }
    }
}

/// One exchange of the engine with a service: a task's first phase, or the
/// second phase of a prepared task.
#[derive(Debug, Clone, Copy)]
pub enum Step<'a> {
    /// [`DolService::execute_task`] of this task.
    Execute(&'a TaskDef),
    /// [`DolService::commit_task`] of this task.
    Commit(&'a str),
    /// [`DolService::abort_task`] of this task.
    Abort(&'a str),
}

impl Step<'_> {
    /// Opens the span the step runs under, on the service `alias`.
    fn span(self, alias: &str, ctx: &SpanCtx) -> Span {
        let span = ctx.child(match self {
            Step::Execute(task) => format!("task:{}", task.name),
            Step::Commit(name) => format!("commit:{name}"),
            Step::Abort(name) => format!("abort:{name}"),
        });
        span.note("service", alias);
        span
    }
}

/// A connected service a DOL program can drive, handing back what each task
/// produced as an `O`. Implemented by the multidatabase layer's LAM client
/// (over the simulated network) and by mock services in tests.
pub trait DolService<O = String>: Send {
    /// Executes a task's commands. `nocommit` tasks must stop in the
    /// prepared state; others autocommit. Failures are reported through the
    /// returned status, not an `Err` — a local abort is a normal outcome for
    /// the plan logic.
    fn execute_task(&mut self, task: &TaskDef) -> TaskExecution<O>;

    /// Second commit phase for a prepared task.
    fn commit_task(&mut self, task_name: &str) -> Result<(), DolError>;

    /// Rolls a prepared task back.
    fn abort_task(&mut self, task_name: &str) -> Result<(), DolError>;

    /// Executes a committed task's compensating commands (autocommit).
    fn compensate_task(&mut self, task: &TaskDef) -> Result<(), DolError>;

    /// Releases the connection.
    fn close(&mut self);

    /// Sends `step` without waiting for its reply. The next call the engine
    /// makes on this service is the one `step` names, with the same `span`,
    /// and that call reads the reply instead of sending: posting the steps of
    /// several services before finishing any overlaps their waits on one
    /// thread. The default posts nothing, so that call does all the work.
    fn post(&mut self, step: Step<'_>, span: &Span) {
        let _ = (step, span);
    }

    /// Traced variant of [`execute_task`](DolService::execute_task): the
    /// engine hands the task's span so the service can annotate it (and open
    /// per-attempt children). Default implementations ignore the span, so
    /// mocks and simple services need not care about tracing.
    fn execute_task_traced(&mut self, task: &TaskDef, span: &Span) -> TaskExecution<O> {
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
pub trait ServiceFactory<O = String> {
    /// Opens a connection to `service` at `site`.
    fn connect(&self, service: &str, site: &str) -> Result<Box<dyn DolService<O>>, DolError>;
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
#[derive(Debug, Clone)]
pub struct DolOutcome<O = String> {
    /// Final `DOLSTATUS` (0 = success by the paper's convention).
    pub dolstatus: i32,
    /// Status reached by every executed task.
    pub task_statuses: HashMap<String, TaskStatus>,
    /// What every task that produced something handed back, by task name.
    pub task_results: HashMap<String, O>,
    /// Local error message of every task that failed.
    pub task_errors: HashMap<String, String>,
}

impl<O> Default for DolOutcome<O> {
    fn default() -> Self {
        DolOutcome {
            dolstatus: 0,
            task_statuses: HashMap::new(),
            task_results: HashMap::new(),
            task_errors: HashMap::new(),
        }
    }
}

impl<O> DolOutcome<O> {
    /// Status of a task, if it ran.
    pub fn status(&self, task: &str) -> Option<TaskStatus> {
        self.task_statuses.get(task).copied()
    }

    /// Local error of a task, if it failed.
    pub fn error(&self, task: &str) -> Option<&str> {
        self.task_errors.get(task).map(String::as_str)
    }
}

/// The DOL engine over services whose tasks hand back an `O`.
pub struct DolEngine<'f, O = String> {
    factory: &'f dyn ServiceFactory<O>,
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
    /// The action and task list of a `COMMIT` / `ABORT` statement.
    fn of(stmt: &DolStmt) -> Option<(Settle, &[String])> {
        match stmt {
            DolStmt::Commit { tasks } => Some((Settle::Commit, tasks)),
            DolStmt::Abort { tasks } => Some((Settle::Abort, tasks)),
            _ => None,
        }
    }

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

    fn step(self, task: &str) -> Step<'_> {
        match self {
            Settle::Commit => Step::Commit(task),
            Settle::Abort => Step::Abort(task),
        }
    }

    /// Sends (or, when it was posted, finishes) the second-phase message.
    fn send<O>(self, svc: &mut dyn DolService<O>, task: &str, span: &Span) -> Result<(), DolError> {
        match self {
            Settle::Commit => svc.commit_task_traced(task, span),
            Settle::Abort => svc.abort_task_traced(task, span),
        }
    }
}

struct RunState<O> {
    services: HashMap<String, Box<dyn DolService<O>>>,
    defs: HashMap<String, TaskDef>,
    outcome: DolOutcome<O>,
}

impl<O> RunState<O> {
    /// Where `action` sends for the listed task `name`: `Ok(Some(alias))`
    /// when the task is prepared; `Ok(None)` when there is nothing to do —
    /// it is already where the statement wants it (`COMMIT` is idempotent on
    /// `C`; `ABORT` is a no-op on `A`/`E`: the paper's else branch aborts the
    /// whole vital set, members of which may have aborted on their own), or
    /// the list named it before; `Err` when the plan is wrong about it.
    fn settle_target(
        &self,
        action: Settle,
        name: &str,
        listed_before: bool,
    ) -> Result<Option<String>, DolError> {
        let def = self.defs.get(name).ok_or_else(|| DolError::UnknownTask(name.to_string()))?;
        if listed_before {
            return Ok(None);
        }
        match (self.outcome.task_statuses[name], action) {
            (TaskStatus::Prepared, _) if self.services.contains_key(&def.service) => {
                Ok(Some(def.service.clone()))
            }
            (TaskStatus::Prepared, _) => Err(DolError::UnknownService(def.service.clone())),
            (TaskStatus::Committed, Settle::Commit)
            | (TaskStatus::Aborted | TaskStatus::Error, Settle::Abort) => Ok(None),
            (other, _) => Err(DolError::BadTaskStatus {
                task: name.to_string(),
                action: action.verb(),
                status: other.code(),
            }),
        }
    }
}

impl<'f, O> DolEngine<'f, O> {
    /// Creates an engine over a service factory.
    pub fn new(factory: &'f dyn ServiceFactory<O>) -> Self {
        DolEngine { factory, trace: SpanCtx::disabled(), observer: None }
    }

    /// The same as [`DolEngine::new`]: there is one fan-out. Kept only for
    /// the benchmark's layer replay (`fedbench/src/layers.rs`), which goes
    /// with ROADMAP item 1(b).
    pub fn serial(factory: &'f dyn ServiceFactory<O>) -> Self {
        DolEngine::new(factory)
    }

    /// Executes a program to completion.
    pub fn execute(&self, program: &DolProgram) -> Result<DolOutcome<O>, DolError> {
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
        state: &mut RunState<O>,
        ctx: &SpanCtx,
    ) -> Result<(), DolError> {
        let mut i = 0;
        while i < stmts.len() {
            if let DolStmt::Task(_) = &stmts[i] {
                // Collect the whole consecutive batch.
                let mut batch = Vec::new();
                while let Some(DolStmt::Task(t)) = stmts.get(i) {
                    batch.push(t.clone());
                    i += 1;
                }
                self.run_batch(batch, state, ctx)?;
            } else if Settle::of(&stmts[i]).is_some() {
                // Collect the wave, up to a statement that names a task the
                // wave settles already: that one must see the first outcome.
                let mut wave: Vec<(Settle, &[String])> = Vec::new();
                while let Some((action, names)) = stmts.get(i).and_then(Settle::of) {
                    if wave.iter().any(|(_, listed)| names.iter().any(|n| listed.contains(n))) {
                        break;
                    }
                    wave.push((action, names));
                    i += 1;
                }
                self.settle(&wave, state, ctx)?;
            } else {
                self.run_stmt(&stmts[i], state, ctx)?;
                i += 1;
            }
        }
        Ok(())
    }

    fn run_stmt(
        &self,
        stmt: &DolStmt,
        state: &mut RunState<O>,
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
            DolStmt::Task(_) | DolStmt::Commit { .. } | DolStmt::Abort { .. } => {
                unreachable!("batches and waves are collected in run_block")
            }
            DolStmt::If { cond, then_branch, else_branch } => {
                if eval_cond(cond, &state.outcome.task_statuses)? {
                    self.run_block(then_branch, state, ctx)
                } else {
                    self.run_block(else_branch, state, ctx)
                }
            }
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
        state: &mut RunState<O>,
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

        // Tasks on one service run in order on that service's connection;
        // the services take their turns in order of first appearance.
        let mut order: Vec<&TaskDef> = batch.iter().collect();
        order.sort_by_key(|t| batch.iter().position(|first| first.service == t.service));
        let steps = order.iter().map(|t| (t.service.as_str(), Step::Execute(t))).collect();
        let posted = self.post_firsts(&mut state.services, steps, ctx);
        let mut executions: Vec<(String, TaskExecution<O>)> = Vec::with_capacity(order.len());
        for (task, span) in order.into_iter().zip(posted) {
            let span = span.unwrap_or_else(|| Step::Execute(task).span(&task.service, ctx));
            let svc = state.services.get_mut(&task.service).expect("checked above");
            let exec = svc.execute_task_traced(task, &span);
            span.note("status", exec.status.code());
            executions.push((task.name.clone(), exec));
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

    /// Drives the second phase of a wave: consecutive `COMMIT`/`ABORT`
    /// task lists.
    ///
    /// Every listed task is attempted, whatever became of the others; the
    /// first error in statement-then-list order is returned. Tasks still
    /// prepared get the second-phase message, tasks already where their
    /// statement wants them are skipped, anything else is a plan error
    /// ([`RunState::settle_target`]).
    ///
    /// The first message to every service goes out before any reply is
    /// read, so the wave costs one round trip. Status updates and
    /// [`TaskObserver::task_resolved`] follow statement-then-list order
    /// whichever reply lands first. An observer error (a simulated
    /// coordinator crash) stops on the spot.
    fn settle(
        &self,
        wave: &[(Settle, &[String])],
        state: &mut RunState<O>,
        ctx: &SpanCtx,
    ) -> Result<(), DolError> {
        let mut listed = Vec::new();
        for &(action, names) in wave {
            for (i, name) in names.iter().enumerate() {
                let target = state.settle_target(action, name, names[..i].contains(name));
                listed.push((action, name, target));
            }
        }
        let steps = listed
            .iter()
            .filter_map(|(action, name, target)| match target {
                Ok(Some(alias)) => Some((alias.as_str(), action.step(name))),
                _ => None,
            })
            .collect();
        let mut posted = self.post_firsts(&mut state.services, steps, ctx).into_iter();

        let mut first_err = None;
        for (action, name, target) in listed {
            let result = match target {
                Ok(Some(alias)) => {
                    let span = posted.next().flatten();
                    let span = span.unwrap_or_else(|| action.step(name).span(&alias, ctx));
                    let svc = state.services.get_mut(&alias).expect("checked above");
                    action.send(svc.as_mut(), name, &span)
                }
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

    /// Posts the first of `steps` on every service they touch — when they
    /// touch more than one — so the waits for those replies overlap on this
    /// thread; a service's later steps go out as they are finished. Returns,
    /// per step, the span a posted step's reply is to be read under (`None`:
    /// the step is sent when it is finished). Callers have checked that every
    /// alias is open.
    fn post_firsts(
        &self,
        services: &mut HashMap<String, Box<dyn DolService<O>>>,
        steps: Vec<(&str, Step<'_>)>,
        ctx: &SpanCtx,
    ) -> Vec<Option<Span>> {
        let mut posted: Vec<Option<Span>> = steps.iter().map(|_| None).collect();
        let firsts: Vec<usize> = (0..steps.len())
            .filter(|&i| steps[..i].iter().all(|(alias, _)| *alias != steps[i].0))
            .collect();
        if firsts.len() > 1 {
            for i in firsts {
                let (alias, step) = steps[i];
                let span = step.span(alias, ctx);
                services.get_mut(alias).expect("alias checked by the caller").post(step, &span);
                posted[i] = Some(span);
            }
        }
        posted
    }

    fn compensate_task(
        &self,
        name: &str,
        state: &mut RunState<O>,
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
    use std::time::{Duration, Instant};

    /// A scripted in-memory service for engine tests.
    #[derive(Default)]
    struct MockState {
        fail_tasks: Vec<String>,
        log: Vec<String>,
        delay: Option<Duration>,
        /// How long a second-phase acknowledgement takes.
        settle_delay: Option<Duration>,
        /// The thread each `exec` / `commit` / `abort` log line ran on.
        threads: Vec<(String, std::thread::ThreadId)>,
    }

    #[derive(Clone, Default)]
    struct MockFactory {
        state: Arc<Mutex<MockState>>,
    }

    struct MockService {
        service: String,
        state: Arc<Mutex<MockState>>,
        /// The step posted and not yet finished, and when it was posted.
        posted: Option<(String, Instant)>,
    }

    impl MockService {
        /// Finishes `step` ("exec T1", "commit T1", …): a step that took
        /// `delay` waits only for what is left of it since it was posted.
        fn finish(&mut self, step: String, delay: Option<Duration>) {
            let since = match self.posted.take() {
                Some((posted, at)) => {
                    assert_eq!(posted, step, "the call after a post finishes the posted step");
                    at.elapsed()
                }
                None => Duration::ZERO,
            };
            if let Some(d) = delay {
                std::thread::sleep(d.saturating_sub(since));
            }
            let mut st = self.state.lock();
            st.threads.push((step, std::thread::current().id()));
        }
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
            let state = Arc::clone(&self.state);
            Ok(Box::new(MockService { service: service.into(), state, posted: None }))
        }
    }

    impl DolService for MockService {
        fn post(&mut self, step: Step<'_>, _span: &Span) {
            let step = match step {
                Step::Execute(task) => format!("exec {}", task.name),
                Step::Commit(name) => format!("commit {name}"),
                Step::Abort(name) => format!("abort {name}"),
            };
            assert!(self.posted.is_none(), "one posted step per service at a time");
            self.posted = Some((step, Instant::now()));
        }

        fn execute_task(&mut self, task: &TaskDef) -> TaskExecution {
            let delay = self.state.lock().delay;
            self.finish(format!("exec {}", task.name), delay);
            let mut st = self.state.lock();
            st.log.push(format!("exec {} on {}", task.name, self.service));
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
            self.finish(format!("commit {task_name}"), delay);
            self.state.lock().log.push(format!("commit {task_name}"));
            Ok(())
        }

        fn abort_task(&mut self, task_name: &str) -> Result<(), DolError> {
            let delay = self.state.lock().settle_delay;
            self.finish(format!("abort {task_name}"), delay);
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

    /// Asserts that every step the factory's services finished ran on the
    /// calling thread: overlapping waits takes no thread of its own.
    fn all_on_this_thread(factory: &MockFactory) {
        let me = std::thread::current().id();
        let threads = factory.state.lock().threads.clone();
        assert!(!threads.is_empty());
        for (step, thread) in threads {
            assert_eq!(thread, me, "{step} ran on another thread");
        }
    }

    #[test]
    fn a_batch_overlaps_task_latency() {
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
        let factory = MockFactory::default();
        factory.state.lock().delay = Some(Duration::from_millis(40));
        let start = Instant::now();
        DolEngine::new(&factory).execute(&program).unwrap();
        let elapsed = start.elapsed();
        all_on_this_thread(&factory);
        // Three services at 40 ms each: one wait, where one after another
        // would take 120 ms.
        assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(100), "{elapsed:?}");
    }

    #[test]
    fn tasks_on_same_service_run_in_order() {
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
        let mut engine = DolEngine::new(&factory);
        engine.observer = Some(Arc::clone(&observer) as Arc<dyn TaskObserver>);
        let out = engine.execute(&parse_program(OBSERVED).unwrap()).unwrap();
        assert_eq!(out.dolstatus, 0);
        let events = observer.events.lock().clone();
        assert_eq!(
            events,
            vec!["exec T1 P", "exec T2 P", "decide 0", "resolve T1 C", "resolve T2 C"]
        );
    }

    /// Runs `program` with every acknowledgement taking 40 ms, checks that
    /// the log resolves the tasks as `resolved` says, in that order, and
    /// that every step ran on this thread; returns how long the run took.
    fn timed_settle(program: &str, resolved: &[&str]) -> Duration {
        let factory = MockFactory::default();
        factory.state.lock().settle_delay = Some(Duration::from_millis(40));
        let observer = Arc::new(RecordingObserver::default());
        let mut engine = DolEngine::new(&factory);
        engine.observer = Some(Arc::clone(&observer) as Arc<dyn TaskObserver>);
        let start = Instant::now();
        engine.execute(&parse_program(program).unwrap()).unwrap();
        let elapsed = start.elapsed();
        // The log reads in statement-then-list order whichever way the acks
        // raced.
        let events = observer.events.lock().clone();
        let logged: Vec<&str> = events.iter().filter_map(|e| e.strip_prefix("resolve ")).collect();
        assert_eq!(logged, resolved);
        all_on_this_thread(&factory);
        elapsed
    }

    #[test]
    fn a_settle_list_costs_one_acknowledgement_not_one_per_task() {
        let program = "DOLBEGIN
             OPEN a AT s1 AS a;
             OPEN b AT s2 AS b;
             OPEN c AT s3 AS c;
             TASK Ta NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
             TASK Tb NOCOMMIT FOR b { UPDATE x SET y = 2 } ENDTASK;
             TASK Tc NOCOMMIT FOR c { UPDATE x SET y = 3 } ENDTASK;
             COMMIT Ta, Tb, Tc;
             DOLEND";
        // Three acknowledgements at 40 ms each, waited for once.
        let elapsed = timed_settle(program, &["Ta C", "Tb C", "Tc C"]);
        assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(100), "{elapsed:?}");
    }

    #[test]
    fn a_commit_and_abort_wave_costs_one_settle_delay() {
        // A §3.4 termination state: one COMMIT list, one ABORT list, four
        // services — one acknowledgement's wait, not two.
        let program = "DOLBEGIN
             OPEN a AT s1 AS a;
             OPEN b AT s2 AS b;
             OPEN c AT s3 AS c;
             OPEN d AT s4 AS d;
             TASK Ta NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
             TASK Tb NOCOMMIT FOR b { UPDATE x SET y = 2 } ENDTASK;
             TASK Tc NOCOMMIT FOR c { UPDATE x SET y = 3 } ENDTASK;
             TASK Td NOCOMMIT FOR d { UPDATE x SET y = 4 } ENDTASK;
             COMMIT Ta, Tc;
             ABORT Tb, Td;
             DOLEND";
        let elapsed = timed_settle(program, &["Ta C", "Tc C", "Tb A", "Td A"]);
        assert!(elapsed >= Duration::from_millis(40), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(70), "{elapsed:?}");
    }

    #[test]
    fn every_listed_task_is_attempted_and_the_first_error_in_list_order_wins() {
        // Tb cannot be committed (it aborted locally): the list still settles
        // Ta and Tc, then reports Tb's error.
        let factory = MockFactory::default();
        factory.state.lock().fail_tasks.push("Tb".into());
        let err = DolEngine::new(&factory).execute(
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

    #[test]
    fn an_error_in_the_commit_list_does_not_strand_the_abort_list() {
        // Tb aborted locally, so `COMMIT Ta, Tb` fails on it; the ABORT list
        // of the same wave still releases Tc and Td.
        let factory = MockFactory::default();
        factory.state.lock().fail_tasks.push("Tb".into());
        let err = DolEngine::new(&factory).execute(
            &parse_program(
                "DOLBEGIN
                 OPEN a AT s1 AS a;
                 OPEN b AT s2 AS b;
                 OPEN c AT s3 AS c;
                 OPEN d AT s4 AS d;
                 TASK Ta NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
                 TASK Tb NOCOMMIT FOR b { UPDATE x SET y = 2 } ENDTASK;
                 TASK Tc NOCOMMIT FOR c { UPDATE x SET y = 3 } ENDTASK;
                 TASK Td NOCOMMIT FOR d { UPDATE x SET y = 4 } ENDTASK;
                 COMMIT Ta, Tb;
                 ABORT Tc, Td;
                 DOLSTATUS=0;
                 DOLEND",
            )
            .unwrap(),
        );
        assert!(
            matches!(&err, Err(DolError::BadTaskStatus { task, action: "commit", .. }) if task == "Tb"),
            "{err:?}"
        );
        let log = factory.state.lock().log.clone();
        for sent in ["commit Ta", "abort Tc", "abort Td"] {
            assert!(log.contains(&sent.to_string()), "{sent}: {log:?}");
        }
    }

    #[test]
    fn a_statement_that_names_a_settled_task_again_sees_its_outcome() {
        // `ABORT T1` is not part of `COMMIT T1`'s wave: it finds T1
        // committed, as it would run after it serially.
        let factory = MockFactory::default();
        let err = DolEngine::new(&factory).execute(
            &parse_program(
                "DOLBEGIN
                 OPEN a AT s1 AS a;
                 OPEN b AT s2 AS b;
                 TASK T1 NOCOMMIT FOR a { UPDATE x SET y = 1 } ENDTASK;
                 TASK T2 NOCOMMIT FOR b { UPDATE x SET y = 2 } ENDTASK;
                 COMMIT T1, T2;
                 ABORT T1;
                 DOLEND",
            )
            .unwrap(),
        );
        assert!(
            matches!(&err, Err(DolError::BadTaskStatus { task, action: "abort", status: 'C' }) if task == "T1"),
            "{err:?}"
        );
        let log = factory.state.lock().log.clone();
        assert!(!log.contains(&"abort T1".to_string()), "{log:?}");
    }

    #[test]
    fn halting_observer_stops_execution_before_settle() {
        let factory = MockFactory::default();
        // Halt at the decision callback: votes are in, no settle message out.
        let observer =
            Arc::new(RecordingObserver { halt_at: Some(2), ..RecordingObserver::default() });
        let mut engine = DolEngine::new(&factory);
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
        let out = DolEngine::new(&factory)
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
