//! Coordinator write-ahead log for multitransaction recovery.
//!
//! The paper's coordinator decides the fate of every subtransaction (§3.2,
//! §3.4) but says nothing about surviving its own death. This module closes
//! that gap: the executor appends a lifecycle record at every protocol
//! transition, *before* the corresponding second-phase message goes out, so
//! a restarted coordinator can finish what a crashed one started.
//!
//! Record grammar (one record per line, all variable tokens escaped):
//!
//! ```text
//! BEGIN <id> S <states> O <oracle> K <abort-comp> T <task>...
//! PREP <id> <task> <P|C>
//! DECIDE <id> <code>
//! RESOLVED <id> <task> <C|A|K|E>
//! END <id>
//! ```
//!
//! A decision is its program's `DECIDE` code (§4.3) and nothing more: the
//! rest of it is already on the log. `MtxImage::settlement` derives it —
//! code `k < states.len()` installs `states[k]`, committing its members
//! logged `PREP … P` and compensating `abort_compensate` outside it; any
//! other code is the failure branch.
//!
//! The recovery rule is **presumed abort**: a multitransaction whose log has
//! no `DECIDE` record is settled as the failure branch would be — prepared
//! subtransactions abort, autocommitted ones in `abort_compensate` are
//! compensated. Only a logged decision installing a state can make recovery
//! commit anything.
//!
//! Crash points are expressed against this log: a [`CrashPlan`] kills the
//! coordinator immediately **before** or **after** appending record `k`.
//! `Before(k)` models "the RPC preceding record `k` happened but the log
//! write did not" (e.g. a commit delivered whose completion was never
//! logged); `After(k)` models "the log write happened but nothing after it
//! did". The simulation harness in `crates/sim` enumerates every such point.

use crate::error::MdbsError;
use dol::{DolError, TaskDef, TaskStatus};
use obs::MetricsRegistry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One task of a logged multitransaction, with everything recovery needs to
/// reach its LAM again: routing plus the compensating SQL (§3.3) in case an
/// autocommitted task must be semantically undone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTask {
    /// DOL task name (the scope key for multitransactions).
    pub name: String,
    /// Database the task ran against.
    pub database: String,
    /// Site of that database's LAM.
    pub site: String,
    /// Compensating statements (empty when the task has none).
    pub compensation: Vec<String>,
}

/// One multitransaction lifecycle record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The multitransaction exists: its tasks (with routing and
    /// compensation), acceptable states, the task set the consistency
    /// oracle covers, and the compensation set of the presumed-abort path.
    Begin {
        /// Log-unique multitransaction id.
        mtx_id: u64,
        /// Every task, in plan order.
        tasks: Vec<WalTask>,
        /// Acceptable termination states in preference order (task names).
        states: Vec<Vec<String>>,
        /// Tasks the §3.4 consistency oracle covers (for vital updates:
        /// the vital set only).
        oracle: Vec<String>,
        /// Tasks to compensate when recovery presumes abort.
        abort_compensate: Vec<String>,
    },
    /// A task reached a settled-or-settleable first-phase outcome: `'P'`
    /// (prepared, in doubt until a decision) or `'C'` (autocommitted — can
    /// only be undone by compensation).
    TaskPrepared {
        /// Owning multitransaction.
        mtx_id: u64,
        /// The task.
        task: String,
        /// `'P'` or `'C'`.
        status: char,
    },
    /// The coordinator took the settle branch of `DECIDE code`. Written
    /// *before* any second-phase message; what it commits and compensates
    /// is derived on replay (`MtxImage::settlement`).
    Decide {
        /// Owning multitransaction.
        mtx_id: u64,
        /// The branch's `DECIDE` code: an acceptable state's index, or the
        /// plan's failure code.
        code: i32,
    },
    /// A task's fate is settled at its LAM (second phase acknowledged, or
    /// re-resolved during recovery).
    TaskResolved {
        /// Owning multitransaction.
        mtx_id: u64,
        /// The task.
        task: String,
        /// Final status code (`C`/`A`/`K`/`E`).
        status: char,
    },
    /// Every task is resolved; recovery can skip this multitransaction.
    End {
        /// Owning multitransaction.
        mtx_id: u64,
    },
}

/// Escapes a token so records stay one-line and whitespace/separator free.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            ',' => out.push_str("%2C"),
            ';' => out.push_str("%3B"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`esc`].
fn unesc(s: &str) -> Result<String, MdbsError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hex: String = chars.by_ref().take(2).collect();
        let code = u8::from_str_radix(&hex, 16)
            .map_err(|_| MdbsError::Wire(format!("bad escape `%{hex}` in wal record")))?;
        out.push(code as char);
    }
    Ok(out)
}

/// Encodes a possibly-empty list as comma-joined escaped tokens (`-` when
/// empty, since records are whitespace-split).
fn enc_list(items: &[String]) -> String {
    if items.is_empty() {
        "-".to_string()
    } else {
        items.iter().map(|s| esc(s)).collect::<Vec<_>>().join(",")
    }
}

fn dec_list(tok: &str) -> Result<Vec<String>, MdbsError> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    tok.split(',').map(unesc).collect()
}

fn enc_states(states: &[Vec<String>]) -> String {
    if states.is_empty() {
        "-".to_string()
    } else {
        states.iter().map(|s| enc_list(s)).collect::<Vec<_>>().join(";")
    }
}

fn dec_states(tok: &str) -> Result<Vec<Vec<String>>, MdbsError> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    tok.split(';').map(dec_list).collect()
}

fn enc_task(t: &WalTask) -> String {
    let mut fields = vec![esc(&t.name), esc(&t.database), esc(&t.site)];
    fields.extend(t.compensation.iter().map(|c| esc(c)));
    fields.join(",")
}

fn dec_task(tok: &str) -> Result<WalTask, MdbsError> {
    let fields: Vec<String> = tok.split(',').map(unesc).collect::<Result<_, _>>()?;
    let [name, database, site, compensation @ ..] = fields.as_slice() else {
        return Err(MdbsError::Wire(format!("short wal task `{tok}`")));
    };
    Ok(WalTask {
        name: name.clone(),
        database: database.clone(),
        site: site.clone(),
        compensation: compensation.to_vec(),
    })
}

fn parse_id(tok: &str) -> Result<u64, MdbsError> {
    tok.parse().map_err(|_| MdbsError::Wire(format!("bad wal mtx id `{tok}`")))
}

fn parse_status(tok: &str) -> Result<char, MdbsError> {
    let mut chars = tok.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) if TaskStatus::from_code(c).is_some() => Ok(c),
        _ => Err(MdbsError::Wire(format!("bad wal status `{tok}`"))),
    }
}

impl WalRecord {
    /// The record's owning multitransaction.
    pub fn mtx_id(&self) -> u64 {
        match self {
            WalRecord::Begin { mtx_id, .. }
            | WalRecord::TaskPrepared { mtx_id, .. }
            | WalRecord::Decide { mtx_id, .. }
            | WalRecord::TaskResolved { mtx_id, .. }
            | WalRecord::End { mtx_id } => *mtx_id,
        }
    }

    /// Stable lower-case tag, used for metrics labels and crash-point names.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Begin { .. } => "begin",
            WalRecord::TaskPrepared { .. } => "prepared",
            WalRecord::Decide { .. } => "decision",
            WalRecord::TaskResolved { .. } => "resolved",
            WalRecord::End { .. } => "end",
        }
    }

    /// Serializes the record to its one-line wire form.
    pub fn encode(&self) -> String {
        match self {
            WalRecord::Begin { mtx_id, tasks, states, oracle, abort_compensate } => {
                let tasks = tasks.iter().map(enc_task).collect::<Vec<_>>().join(" T ");
                format!(
                    "BEGIN {mtx_id} S {} O {} K {} T {tasks}",
                    enc_states(states),
                    enc_list(oracle),
                    enc_list(abort_compensate),
                )
            }
            WalRecord::TaskPrepared { mtx_id, task, status } => {
                format!("PREP {mtx_id} {} {status}", esc(task))
            }
            WalRecord::Decide { mtx_id, code } => format!("DECIDE {mtx_id} {code}"),
            WalRecord::TaskResolved { mtx_id, task, status } => {
                format!("RESOLVED {mtx_id} {} {status}", esc(task))
            }
            WalRecord::End { mtx_id } => format!("END {mtx_id}"),
        }
    }

    /// Parses one record line.
    pub fn decode(line: &str) -> Result<WalRecord, MdbsError> {
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["BEGIN", id, "S", states, "O", oracle, "K", abort, "T", tasks @ ..] => {
                let tasks = tasks
                    .iter()
                    .filter(|t| **t != "T")
                    .map(|t| dec_task(t))
                    .collect::<Result<_, _>>()?;
                Ok(WalRecord::Begin {
                    mtx_id: parse_id(id)?,
                    tasks,
                    states: dec_states(states)?,
                    oracle: dec_list(oracle)?,
                    abort_compensate: dec_list(abort)?,
                })
            }
            ["PREP", id, task, status] => Ok(WalRecord::TaskPrepared {
                mtx_id: parse_id(id)?,
                task: unesc(task)?,
                status: parse_status(status)?,
            }),
            ["DECIDE", id, code] => Ok(WalRecord::Decide {
                mtx_id: parse_id(id)?,
                code: code
                    .parse()
                    .map_err(|_| MdbsError::Wire(format!("bad wal decide code `{code}`")))?,
            }),
            ["RESOLVED", id, task, status] => Ok(WalRecord::TaskResolved {
                mtx_id: parse_id(id)?,
                task: unesc(task)?,
                status: parse_status(status)?,
            }),
            ["END", id] => Ok(WalRecord::End { mtx_id: parse_id(id)? }),
            _ => Err(MdbsError::Wire(format!("unrecognized wal record `{line}`"))),
        }
    }
}

/// Backing store for the log. Implementations must make each appended line
/// durable before returning (the in-memory store's "durability" is simply
/// surviving the coordinator object; the file store survives the process).
pub trait WalStore: Send + Sync {
    /// Durably appends one encoded record.
    fn append_line(&self, line: &str) -> Result<(), String>;
    /// Reads every appended record back, in order.
    fn load(&self) -> Result<Vec<String>, String>;
}

/// In-memory store: durable across a simulated coordinator crash (the
/// `Wal` handle outlives the crashed execution), not across the process.
#[derive(Default)]
pub struct MemStore {
    lines: Mutex<Vec<String>>,
}

impl WalStore for MemStore {
    fn append_line(&self, line: &str) -> Result<(), String> {
        self.lines.lock().push(line.to_string());
        Ok(())
    }

    fn load(&self) -> Result<Vec<String>, String> {
        Ok(self.lines.lock().clone())
    }
}

/// File-backed store: one record per line, flushed on every append.
pub struct FileStore {
    path: PathBuf,
}

impl FileStore {
    /// Opens (creating if needed) a log file.
    pub fn new(path: impl AsRef<Path>) -> Self {
        FileStore { path: path.as_ref().to_path_buf() }
    }
}

impl WalStore for FileStore {
    fn append_line(&self, line: &str) -> Result<(), String> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| e.to_string())?;
        writeln!(f, "{line}").map_err(|e| e.to_string())?;
        f.flush().map_err(|e| e.to_string())
    }

    fn load(&self) -> Result<Vec<String>, String> {
        match std::fs::read_to_string(&self.path) {
            Ok(text) => Ok(text.lines().map(str::to_string).collect()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// When, relative to appending record `at`, the simulated crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWhen {
    /// The append never happens: the RPC preceding the record did, the log
    /// write did not.
    Before,
    /// The append happens; everything after it does not.
    After,
}

/// A single-shot simulated coordinator crash, armed against the next
/// occurrence of log record index `at` (counting every append since the
/// log was opened).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Zero-based index of the record the crash anchors to.
    pub at: usize,
    /// Fire before or after that record is made durable.
    pub when: CrashWhen,
}

struct WalInner {
    store: Box<dyn WalStore>,
    /// Records appended so far (the index the next append gets).
    appended: AtomicUsize,
    crash: Mutex<Option<CrashPlan>>,
    crashed: AtomicBool,
    next_mtx: AtomicU64,
    metrics: Mutex<Option<MetricsRegistry>>,
}

/// Shared handle to the coordinator's write-ahead log. Cloning shares the
/// log (and its armed crash plan) — exactly what the simulation needs to
/// keep the "disk" alive across a coordinator death.
#[derive(Clone)]
pub struct Wal {
    inner: Arc<WalInner>,
}

impl Default for Wal {
    fn default() -> Self {
        Wal::in_memory()
    }
}

impl Wal {
    /// A log on a fresh in-memory store.
    pub fn in_memory() -> Wal {
        Wal::with_store(Box::new(MemStore::default())).expect("memory store cannot fail")
    }

    /// A log on a file (records already present are honoured: ids continue
    /// past them and recovery sees them).
    pub fn file_backed(path: impl AsRef<Path>) -> Result<Wal, MdbsError> {
        Wal::with_store(Box::new(FileStore::new(path)))
    }

    /// Wraps an arbitrary store, scanning existing records to continue
    /// mtx-id allocation and crash-point indexing after them.
    pub fn with_store(store: Box<dyn WalStore>) -> Result<Wal, MdbsError> {
        let lines = store.load().map_err(MdbsError::Wire)?;
        let mut next_mtx = 1;
        for line in &lines {
            next_mtx = next_mtx.max(WalRecord::decode(line)?.mtx_id() + 1);
        }
        Ok(Wal {
            inner: Arc::new(WalInner {
                store,
                appended: AtomicUsize::new(lines.len()),
                crash: Mutex::new(None),
                crashed: AtomicBool::new(false),
                next_mtx: AtomicU64::new(next_mtx),
                metrics: Mutex::new(None),
            }),
        })
    }

    /// Points `wal.*` counters at a shared registry.
    pub fn attach_metrics(&self, metrics: MetricsRegistry) {
        *self.inner.metrics.lock() = Some(metrics);
    }

    /// Allocates a log-unique multitransaction id.
    pub fn next_mtx_id(&self) -> u64 {
        self.inner.next_mtx.fetch_add(1, Ordering::SeqCst)
    }

    /// Arms a single-shot crash (clearing the crashed flag of any earlier
    /// one). The plan fires at most once, then disarms itself.
    pub fn arm_crash(&self, plan: CrashPlan) {
        self.inner.crashed.store(false, Ordering::SeqCst);
        *self.inner.crash.lock() = Some(plan);
    }

    /// Whether an armed crash has fired since it was armed.
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Records appended so far (== the index the next append would get).
    pub fn record_count(&self) -> usize {
        self.inner.appended.load(Ordering::SeqCst)
    }

    /// Appends one record, honouring any armed crash plan. A fired crash
    /// surfaces as [`DolError::Halted`], which aborts the DOL program (or
    /// the recovery pass) exactly where a dead coordinator would stop.
    pub fn append(&self, record: &WalRecord) -> Result<(), DolError> {
        let index = self.inner.appended.load(Ordering::SeqCst);
        let fired = {
            let mut crash = self.inner.crash.lock();
            match *crash {
                Some(plan) if plan.at == index => {
                    *crash = None;
                    Some(plan.when)
                }
                _ => None,
            }
        };
        if fired == Some(CrashWhen::Before) {
            self.inner.crashed.store(true, Ordering::SeqCst);
            return Err(DolError::Halted(format!(
                "simulated coordinator crash before wal record {index} ({})",
                record.kind()
            )));
        }
        self.inner
            .store
            .append_line(&record.encode())
            .map_err(|e| DolError::Service(format!("wal append failed: {e}")))?;
        self.inner.appended.fetch_add(1, Ordering::SeqCst);
        if let Some(metrics) = self.inner.metrics.lock().as_ref() {
            metrics.counter_add("wal.records", 1);
            metrics.counter_add(&obs::labeled("wal.records", "kind", record.kind()), 1);
        }
        if fired == Some(CrashWhen::After) {
            self.inner.crashed.store(true, Ordering::SeqCst);
            return Err(DolError::Halted(format!(
                "simulated coordinator crash after wal record {index} ({})",
                record.kind()
            )));
        }
        Ok(())
    }

    /// Reads the whole log back as typed records.
    pub fn records(&self) -> Result<Vec<WalRecord>, MdbsError> {
        self.inner
            .store
            .load()
            .map_err(MdbsError::Wire)?
            .iter()
            .map(|l| WalRecord::decode(l))
            .collect()
    }

    /// Groups the log into per-multitransaction images, in first-seen order,
    /// in one pass over the records.
    pub fn replay(&self) -> Result<Vec<MtxImage>, MdbsError> {
        let mut images: Vec<MtxImage> = Vec::new();
        let mut at: HashMap<u64, usize> = HashMap::new();
        for record in self.records()? {
            let id = record.mtx_id();
            let i = *at.entry(id).or_insert_with(|| {
                images.push(MtxImage::new(id));
                images.len() - 1
            });
            images[i].apply(record);
        }
        Ok(images)
    }
}

/// The acceptable state `DECIDE code` installs: `states[code]` when `code`
/// indexes one of the `states` acceptable states, none for any other code
/// (the plan's failure branch).
pub(crate) fn installed_state(code: i32, states: usize) -> Option<usize> {
    usize::try_from(code).ok().filter(|&k| k < states)
}

/// Everything the log knows about one multitransaction — the input to
/// [`crate::Federation::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtxImage {
    /// The multitransaction id.
    pub mtx_id: u64,
    /// Tasks in plan order (from `BEGIN`).
    pub tasks: Vec<WalTask>,
    /// Acceptable states in task-name terms (from `BEGIN`).
    pub states: Vec<Vec<String>>,
    /// Tasks the consistency oracle covers (from `BEGIN`).
    pub oracle: Vec<String>,
    /// Tasks compensated when recovery presumes abort (from `BEGIN`).
    pub abort_compensate: Vec<String>,
    /// First-phase outcomes logged so far (`'P'` / `'C'`).
    pub prepared: HashMap<String, char>,
    /// The logged `DECIDE` code, if the coordinator got that far.
    pub decision: Option<i32>,
    /// Final statuses logged so far.
    pub resolved: HashMap<String, char>,
    /// Whether `END` was logged (nothing left to recover).
    pub ended: bool,
}

impl MtxImage {
    fn new(mtx_id: u64) -> Self {
        MtxImage {
            mtx_id,
            tasks: Vec::new(),
            states: Vec::new(),
            oracle: Vec::new(),
            abort_compensate: Vec::new(),
            prepared: HashMap::new(),
            decision: None,
            resolved: HashMap::new(),
            ended: false,
        }
    }

    fn apply(&mut self, record: WalRecord) {
        match record {
            WalRecord::Begin { tasks, states, oracle, abort_compensate, .. } => {
                self.tasks = tasks;
                self.states = states;
                self.oracle = oracle;
                self.abort_compensate = abort_compensate;
            }
            WalRecord::TaskPrepared { task, status, .. } => {
                self.prepared.insert(task, status);
            }
            WalRecord::Decide { code, .. } => self.decision = Some(code),
            WalRecord::TaskResolved { task, status, .. } => {
                self.resolved.insert(task, status);
            }
            WalRecord::End { .. } => self.ended = true,
        }
    }

    /// What the logged decision settles (DESIGN §3a.4): the acceptable state
    /// it installs, the tasks whose prepared subtransactions commit, and the
    /// autocommitted tasks compensated. `DECIDE k` with `k < states.len()`
    /// commits the members of `states[k]` logged `P` — an autocommitted
    /// member committed in phase one — and compensates `abort_compensate`
    /// outside `states[k]`. Any other code, or no decision at all (presumed
    /// abort), commits nothing and compensates `abort_compensate`.
    pub(crate) fn settlement(&self) -> (Option<usize>, Vec<String>, Vec<String>) {
        let state = self.decision.and_then(|code| installed_state(code, self.states.len()));
        let members = state.map_or(&[][..], |k| &self.states[k]);
        let commit = members.iter().filter(|t| self.prepared.get(*t) == Some(&'P'));
        let compensate = self.abort_compensate.iter().filter(|t| !members.contains(t));
        (state, commit.cloned().collect(), compensate.cloned().collect())
    }
}

/// The [`dol::TaskObserver`] that writes protocol transitions to the log.
/// Installed by the executor on every settle-bearing plan.
pub struct WalObserver {
    wal: Wal,
    mtx_id: u64,
}

impl WalObserver {
    /// An observer logging against `wal` under `mtx_id`. The third
    /// parameter is unread: fedbench still passes `PlanRecovery::decisions`
    /// (ROADMAP item 1(b) deletes both).
    pub fn new(wal: Wal, mtx_id: u64, _decisions: ()) -> Self {
        WalObserver { wal, mtx_id }
    }
}

impl dol::TaskObserver for WalObserver {
    fn task_executed(&self, task: &TaskDef, status: TaskStatus) -> Result<(), DolError> {
        match status {
            // 'P' is the in-doubt state; 'C' (autocommit) can only be undone
            // by compensation, so recovery must know it happened. Aborted or
            // errored tasks left nothing behind — presumed abort covers them.
            TaskStatus::Prepared | TaskStatus::Committed => {
                self.wal.append(&WalRecord::TaskPrepared {
                    mtx_id: self.mtx_id,
                    task: task.name.clone(),
                    status: status.code(),
                })
            }
            _ => Ok(()),
        }
    }

    fn decision(&self, code: i32) -> Result<(), DolError> {
        self.wal.append(&WalRecord::Decide { mtx_id: self.mtx_id, code })
    }

    fn task_resolved(&self, task: &str, status: TaskStatus) -> Result<(), DolError> {
        self.wal.append(&WalRecord::TaskResolved {
            mtx_id: self.mtx_id,
            task: task.to_string(),
            status: status.code(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin {
                mtx_id: 1,
                tasks: vec![
                    WalTask {
                        name: "continental".into(),
                        database: "continental".into(),
                        site: "site1".into(),
                        compensation: vec!["UPDATE flights SET rate = rate / 1.1".into()],
                    },
                    WalTask {
                        name: "avis".into(),
                        database: "avis".into(),
                        site: "site4".into(),
                        compensation: vec![],
                    },
                ],
                states: vec![vec!["continental".into()], vec!["avis".into()]],
                oracle: vec!["continental".into(), "avis".into()],
                abort_compensate: vec!["continental".into()],
            },
            WalRecord::TaskPrepared { mtx_id: 1, task: "avis".into(), status: 'P' },
            WalRecord::TaskPrepared { mtx_id: 1, task: "continental".into(), status: 'C' },
            WalRecord::Decide { mtx_id: 1, code: 0 },
            WalRecord::TaskResolved { mtx_id: 1, task: "continental".into(), status: 'C' },
            WalRecord::Decide { mtx_id: 2, code: 99 },
            WalRecord::End { mtx_id: 1 },
        ]
    }

    #[test]
    fn records_roundtrip_through_text() {
        for record in sample_records() {
            let line = record.encode();
            assert_eq!(WalRecord::decode(&line).unwrap(), record, "roundtrip of `{line}`");
        }
    }

    #[test]
    fn escaping_protects_sql_with_separators() {
        let record = WalRecord::Begin {
            mtx_id: 7,
            tasks: vec![WalTask {
                name: "t".into(),
                database: "db".into(),
                site: "s".into(),
                compensation: vec!["UPDATE x SET a = 1, b = 2 WHERE c IN (3, 4); -- 100%".into()],
            }],
            states: vec![],
            oracle: vec![],
            abort_compensate: vec![],
        };
        let decoded = WalRecord::decode(&record.encode()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalRecord::decode("HELLO world").is_err());
        assert!(WalRecord::decode("PREP x t P").is_err());
        assert!(WalRecord::decode("PREP 1 t ?").is_err());
        assert!(WalRecord::decode("DECIDE 1 x").is_err());
        assert!(WalRecord::decode("DECIDE-ABORT 1 -").is_err());
        assert!(WalRecord::decode("").is_err());
    }

    #[test]
    fn replay_groups_by_mtx_and_tracks_lifecycle() {
        let wal = Wal::in_memory();
        for record in sample_records() {
            wal.append(&record).unwrap();
        }
        let images = wal.replay().unwrap();
        assert_eq!(images.len(), 2);
        let one = &images[0];
        assert_eq!(one.mtx_id, 1);
        assert!(one.ended);
        assert_eq!(one.tasks.len(), 2);
        assert_eq!(one.prepared.get("avis"), Some(&'P'));
        assert_eq!(one.prepared.get("continental"), Some(&'C'));
        assert_eq!(one.decision, Some(0));
        assert_eq!(one.resolved.get("continental"), Some(&'C'));
        let two = &images[1];
        assert_eq!(two.mtx_id, 2);
        assert!(!two.ended);
        assert_eq!(two.decision, Some(99));
    }

    #[test]
    fn crash_before_skips_the_record_and_halts() {
        let wal = Wal::in_memory();
        wal.arm_crash(CrashPlan { at: 1, when: CrashWhen::Before });
        wal.append(&WalRecord::End { mtx_id: 1 }).unwrap();
        let err = wal.append(&WalRecord::End { mtx_id: 2 }).unwrap_err();
        assert!(matches!(err, DolError::Halted(_)), "got {err:?}");
        assert!(wal.crashed());
        assert_eq!(wal.record_count(), 1, "record 1 was never written");
        // Single shot: the next append (same index) succeeds.
        wal.append(&WalRecord::End { mtx_id: 2 }).unwrap();
        assert_eq!(wal.record_count(), 2);
    }

    #[test]
    fn crash_after_writes_the_record_then_halts() {
        let wal = Wal::in_memory();
        wal.arm_crash(CrashPlan { at: 0, when: CrashWhen::After });
        let err = wal.append(&WalRecord::End { mtx_id: 1 }).unwrap_err();
        assert!(matches!(err, DolError::Halted(_)), "got {err:?}");
        assert!(wal.crashed());
        assert_eq!(wal.record_count(), 1, "record 0 is durable");
        assert_eq!(wal.records().unwrap(), vec![WalRecord::End { mtx_id: 1 }]);
    }

    #[test]
    fn file_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("wal_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mtx.wal");
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::file_backed(&path).unwrap();
            assert_eq!(wal.next_mtx_id(), 1);
            wal.append(&WalRecord::TaskPrepared { mtx_id: 1, task: "t".into(), status: 'P' })
                .unwrap();
        }
        let reopened = Wal::file_backed(&path).unwrap();
        assert_eq!(reopened.record_count(), 1);
        assert_eq!(
            reopened.records().unwrap(),
            vec![WalRecord::TaskPrepared { mtx_id: 1, task: "t".into(), status: 'P' }]
        );
        assert_eq!(reopened.next_mtx_id(), 2, "ids continue past logged mtxs");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observer_logs_decide_codes() {
        let wal = Wal::in_memory();
        let obs = WalObserver::new(wal.clone(), 5, ());
        use dol::TaskObserver;
        let def = TaskDef {
            name: "a".into(),
            service: "a".into(),
            nocommit: true,
            verb: dol::TaskVerb::Run,
            commands: vec![],
            compensation: vec![],
        };
        obs.task_executed(&def, TaskStatus::Prepared).unwrap();
        obs.task_executed(&def, TaskStatus::Aborted).unwrap(); // not logged
        obs.decision(0).unwrap();
        obs.decision(99).unwrap();
        obs.task_resolved("a", TaskStatus::Committed).unwrap();
        let lines = wal.inner.store.load().unwrap();
        assert_eq!(lines, ["PREP 5 a P", "DECIDE 5 0", "DECIDE 5 99", "RESOLVED 5 a C"]);
        assert_eq!(wal.records().unwrap()[1], WalRecord::Decide { mtx_id: 5, code: 0 });
    }

    /// `DECIDE k` installs `states[k]`: its members logged `P` commit, and
    /// the presumed-abort set outside it is compensated. The failure code,
    /// any code that indexes no state and a missing decision settle alike.
    #[test]
    fn a_decision_is_derived_from_its_code() {
        let image = |decision: Option<i32>| {
            let mut image = MtxImage::new(1);
            image.states = vec![vec!["a".into(), "c".into()], vec!["b".into()]];
            image.abort_compensate = vec!["b".into(), "c".into()];
            image.prepared = HashMap::from(
                [('a', 'P'), ('b', 'C'), ('c', 'C')].map(|(t, s)| (t.to_string(), s)),
            );
            image.decision = decision;
            image.settlement()
        };
        let names = |n: &[&str]| n.iter().map(|t| t.to_string()).collect::<Vec<_>>();
        assert_eq!(image(Some(0)), (Some(0), names(&["a"]), names(&["b"])));
        assert_eq!(image(Some(1)), (Some(1), names(&[]), names(&["c"])));
        for failed in [None, Some(2), Some(99), Some(-1)] {
            assert_eq!(image(failed), (None, names(&[]), names(&["b", "c"])), "{failed:?}");
        }
    }
}
