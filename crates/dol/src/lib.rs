//! # dol — the DOL task-specification language and its execution engine
//!
//! DOL is the intermediate language of the Narada environment (paper §4.1):
//! MSQL queries are translated into DOL programs, which "specify different
//! actions, their logical dependencies, data paths among them, and the
//! possible concurrency". This crate provides:
//!
//! * the DOL AST ([`ast`]) covering the constructs the paper's §4.3 program
//!   uses — `DOLBEGIN/DOLEND`, `OPEN ... AT ... AS ...`, `TASK ... NOCOMMIT
//!   FOR ... { sql } ENDTASK`, status tests `(T1=P)`, `IF/THEN/ELSE`,
//!   `COMMIT`/`ABORT` task lists, `DOLSTATUS` return codes, `CLOSE` — plus
//!   the compensation extension (`COMP { sql }` blocks on tasks and the
//!   `COMPENSATE` statement) the paper's §3.3 semantics require, and the
//!   verb that says what a task sends ([`ast::TaskVerb`]);
//! * a parser ([`parser`]) and printer ([`printer`]) for the concrete syntax
//!   used in the paper's listings (task bodies are literal SQL between
//!   braces);
//! * the engine ([`engine::DolEngine`]): opens services, runs consecutive
//!   `TASK` blocks and consecutive `COMMIT`/`ABORT` lists in parallel (the
//!   data-flow parallelism the paper says global optimization should exploit
//!   — every service's first request posted before any reply is read, all on
//!   the calling thread), tracks task statuses
//!   (`P`/`C`/`A`/`E`), evaluates status conditions, and drives
//!   commit/abort/compensate against an abstract [`engine::DolService`] —
//!   implemented over the network by the multidatabase layer's Local Access
//!   Managers.

pub mod ast;
pub mod engine;
pub mod error;
pub mod parser;
pub mod printer;

pub use ast::{
    Combine, DolCond, DolProgram, DolStmt, EdgeRule, HomeEdge, Partial, TaskDef, TaskStatus,
    TaskVerb, Traveller,
};
pub use engine::{DolEngine, DolOutcome, DolService, ServiceFactory, Step, TaskObserver};
pub use error::DolError;
pub use parser::parse_program;
pub use printer::print_program;
