#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the tier-1 build+test pass.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== crash-recovery simulation =="
# `cargo test --workspace` above already ran the sim crate's default sweep
# (every systematic crash point + 200 seeded random schedules). This narrow
# re-run is the fixed-seed smoke a quick pre-push uses: any failure prints
# the exact SIM_SEEDS reproduction command for the offending seed.
SIM_SEEDS=0..8 cargo test -q -p sim --test random_schedules

echo "== bound local execution =="
# The per-row name environment the bind-once executor replaced is gone, not
# bypassed: no `Env` / `Binding` is built anywhere in the engine outside its
# unit tests (its generated oracle, select_oracle, ran in the workspace pass).
for f in crates/ldbs/src/*.rs crates/ldbs/src/exec/*.rs; do
    if sed '/^mod tests {/,$d' "$f" | grep -nE 'make_env|Env \{|Binding \{'; then
        echo "per-row name environment in $f" >&2
        exit 1
    fi
done

echo "== per-row kernels =="
# The kernels a star statement spends its time in (DESIGN §3a.17), timed one
# by one; the example asserts that every path it times returns what another
# path returns. Their differential tests against the kernels they replaced ran
# in the workspace pass. Two structural pins: the text decoder hands out field
# slices (no `split_fields` building a `Vec<String>` outside wire.rs's tests),
# and a key is hashed once — keyindex.rs seeds and hashes in one place, and
# neither select.rs nor eval.rs hashes a value on its own.
cargo run --release --quiet --example row_kernels
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/wire.rs | grep -nE 'fn split_fields.*Vec<String>'; then
    echo "wire.rs splits a record into owned strings again" >&2
    exit 1
fi
found=$(grep -c 'build_hasher()' crates/ldbs/src/keyindex.rs || true)
if [ "$found" != 1 ]; then
    echo "keyindex.rs hashes a key at $found sites, expected 1" >&2
    exit 1
fi
for f in crates/ldbs/src/exec/select.rs crates/ldbs/src/eval.rs; do
    if sed '/^mod tests {/,$d' "$f" | grep -nE 'RandomState|build_hasher|hash_canonical'; then
        echo "$f hashes values outside KeyIndex" >&2
        exit 1
    fi
done

echo "== lock-manager stress matrix =="
# The seeded lock/deadlock stress schedules under increasing thread counts:
# invariants (no lost locks, no lost updates, every cycle that forms broken)
# must hold whether contention is light or heavily oversubscribed on this
# host; the barrier-built AB/BA pair in the same file proves detection.
for n in 2 4 8; do
    echo "--  $n worker threads"
    LOCK_STRESS_THREADS=$n cargo test -q -p ldbs --test lock_stress
done

echo "== thread gate =="
# After warm-up no statement starts a thread: a LAM serves each request on
# the thread that received it and grows only when a request parks on a lock
# wait; a fan-out posts every request before it reads a reply, on the
# statement's own thread. Pinned three ways: the thread gauges are the LAMs'
# alone and do not move over 500 warm statements (and contention moves
# exactly one); the LAM keeps serving while requests are parked — each of
# those tests hangs or fails on a server that never grows; and the only
# thread-creation site in the federation and the DOL engine, outside their
# tests, is the LAM's server-thread start.
cargo test -q --test thread_budget
cargo test -q -p mdbs --lib lam::tests::
for f in $(find crates/core/src crates/dol/src -name '*.rs'); do
    allowed=0
    [ "$f" = crates/core/src/lam.rs ] && allowed=1 # start_server_thread
    found=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -cE 'thread::(spawn|scope|Builder)' || true)
    if [ "$found" != "$allowed" ]; then
        echo "$f creates threads at $found site(s) outside its tests, expected $allowed" >&2
        exit 1
    fi
done

echo "== one fan-out =="
# A fan-out posts every request before it reads any reply, on the statement's
# own thread, and there is no second, serial way to run one (DESIGN §3a.12):
# the goldens, the crash simulator and the fault suites run the path
# production runs, and seeded loss replays on it because each link draws its
# losses from a stream of its own. Outside tests, the federation and the DOL
# engine declare no `parallel` switch and read none; no test, example or the
# simulator sets one or asks for the serial engine (`DolEngine::serial` is an
# alias of `new`, kept for fedbench until ROADMAP item 1(b)).
for f in $(find crates/core/src crates/dol/src -name '*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" |
        grep -nE '^[[:space:]]*(pub(\([a-z]+\))? )?parallel[[:space:]]*:|\.parallel\b'; then
        echo "$f keeps a fan-out switch outside its tests" >&2
        exit 1
    fi
done
switch='\.parallel[[:space:]]*=[^=]|DolEngine::serial\('
for f in $(find tests examples crates/*/tests crates/sim -name '*.rs'); do
    if grep -nE "$switch" "$f"; then
        echo "$f runs a fan-out other than production's" >&2
        exit 1
    fi
done
for f in $(find crates/*/src -name '*.rs'); do
    if sed -n '/^#\[cfg(test)\]/,$p' "$f" | grep -nE "$switch"; then
        echo "$f's tests run a fan-out other than production's" >&2
        exit 1
    fi
done

echo "== single-execution gate =="
# A site runs each subquery once: only EXPLAIN asks it to evaluate the
# unreduced / unpushed baseline as well. Pinned on the wire (what COMBINE /
# PARTIALAGG carried) and in the engines' statements / rows_scanned counters,
# for a semi-join-reduced join, a pushed GROUP BY and a pushed top-k, under
# both wire formats.
cargo test -q --test cross_db_join a_reduced_join_runs_each_subquery_once_outside_explain
cargo test -q --test aggregate_oracle pushed_site_queries_run_once_outside_explain

echo "== payload gate =="
# Between the LAM's engine and the executor a result set is rows; only the
# codec boundary (proto.rs / wire.rs / codec/columnar.rs) turns it into text
# or bytes. A text encode/decode of a result set in these files, outside
# their unit tests, means a re-parse crept back onto the data path.
for f in crates/core/src/{executor,lam,lamclient}.rs crates/core/src/codec/frame.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '(encode|decode)_result_set'; then
        echo "result-set text codec call on the data path in $f" >&2
        exit 1
    fi
done

echo "== protocol boundary =="
# Plan, sequence, talk: only lamclient.rs (and the LAM server, the codec and
# proto.rs itself) may name a protocol message. The facade, the executor, the
# global transaction and the planner go through LamClient's typed calls, so a
# change to a request or reply shape is a one-module change.
for f in crates/core/src/{federation,executor,gtxn,planner}.rs; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'Request::|Response::'; then
        echo "protocol message named outside lamclient.rs in $f" >&2
        exit 1
    fi
done

# LOADMANY / DROPMANY are retired from the client side: a join's coordinator is
# one COMBINE. They stay decodable and served (proto.rs, codec/, lam.rs) only
# because fedbench/src/layers.rs builds them field by field, and go with
# ROADMAP item 1(b); nothing else in the crate may name them.
for f in $(find crates/core/src -name '*.rs' ! -path '*/codec/*' ! -name proto.rs ! -name lam.rs); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'Request::(LoadMany|DropMany)'; then
        echo "retired protocol message named in $f" >&2
        exit 1
    fi
done

echo "== one two-phase commit =="
# A synchronization point is a settle program like every vital set's: the
# global transaction generates it and hands it to the executor. It sends no
# vote and no second-phase message of its own — only DolEngine::settle does —
# so the next change to those messages lands in one lifecycle.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/gtxn.rs |
    grep -nE 'prepare_task|commit_task|abort_task|compensate_task'; then
    echo "gtxn.rs drives a commit protocol of its own" >&2
    exit 1
fi
# And at the LAM a subtransaction has one lifecycle: one command loop, one way
# into the open-task table, one way out.
for site in 'exec_with_wait(shared' '\.open\.insert(' '\.open\.remove('; do
    found=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/lam.rs | grep -c "$site" || true)
    if [ "$found" != 1 ]; then
        echo "lam.rs has $found sites matching '$site' outside its tests, expected 1" >&2
        exit 1
    fi
done

echo "== deferred statements are DOL programs =="
# A deferred-mode statement is a DOL program without a settle phase: one TASK
# batch whose member tasks open (`TASK … HOLD`) or continue (`EXEC`) their
# transactions, run by the executor like any other (DESIGN §3a.16). A member
# of the global transaction is a task name, so gtxn.rs holds no connection and
# ships nothing by hand; and nothing begins a transaction one request at a
# time.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/gtxn.rs | grep -nE 'LamClient|run_commands|checkout'; then
    echo "gtxn.rs talks to a LAM itself" >&2
    exit 1
fi
for f in $(find crates/*/src -name '*.rs'); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'Request::Begin|begin_task|exec_in_task'; then
        echo "$f begins a transaction one request at a time" >&2
        exit 1
    fi
done

echo "== the coordinator ships nothing by hand =="
# Everything the coordinator sends a LAM is a task of a DOL program run by the
# executor (DESIGN §3a.14): a query, an update, a deferred statement, a
# transfer, local DDL and ANALYZE, recovery's RESOLVE / COMPENSATE waves and a
# join's partials and COMBINE, whose tasks send what their `Vote` says. Outside
# tests the facade names no LAM connection and no direct-command call (only the
# catalog reads are typed calls of their own), only executor.rs runs a
# DolEngine, and lamclient.rs builds each task-carrying request in one place —
# where a statement stamp would go. (It builds no PARTIAL since a classic
# join's partials travel LAM to LAM: the LAM still serves one.)
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/federation.rs |
    grep -nE 'run_commands|resolve_task_outcome|compensate_commands|LamClient'; then
    echo "federation.rs ships a request by hand" >&2
    exit 1
fi
for f in $(find crates/core/src -name '*.rs' ! -name executor.rs); do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'DolEngine::'; then
        echo "$f runs a DOL program beside the executor" >&2
        exit 1
    fi
done
for request in 'Request::Task {' 'Request::Exec {' 'Request::Resolve {' 'Request::Compensate {' \
    'Request::PartialAgg {' 'Request::Combine {' 'Request::Ship {'; do
    found=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/lamclient.rs | grep -c "$request" || true)
    if [ "$found" != 1 ]; then
        echo "lamclient.rs builds '$request' at $found sites outside its tests, expected 1" >&2
        exit 1
    fi
done

echo "== one executor =="
# A cross-database join is a DOL program too (DESIGN §3a.14): the
# coordinator's COMBINE and the partials that travel straight to it (after a
# program of the reducer's own when its keys filter another travelling site),
# run by Executor::run_program like every other statement's. So outside tests
# executor.rs opens no connection and posts or reads no request of its own:
# it names no `checkout`, no `LamClient` and no `.post(` / `.finish(`. On the
# commit before this gate it hit seven lines: the module doc and the import
# naming LamClient, the join's per-site call holding one, two checkouts (a
# partial's and the combine's) and two `.finish(` of those calls.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/executor.rs |
    grep -nE 'checkout|LamClient|\.post\(|\.finish\('; then
    echo "executor.rs talks to a LAM beside the DOL engine" >&2
    exit 1
fi

echo "== a partial crosses once =="
# A travelling partial goes from its LAM straight to the coordinator's LAM
# (§4.1: partial results are "sent either to the engine or to other LAMs";
# DESIGN §3a.14): no MDBS-side code moves a partial's rows into a request.
# Outside tests, a COMBINE carries no rows — in proto.rs only LOADMANY, kept
# for fedbench until ROADMAP item 1(b), declares `parts: Vec<(String, P)>` —
# and lamclient.rs, the one module that builds requests on the MDBS side, has
# no `travelled` closure, takes no task's rows out of the outputs table and
# builds no PART (a LAM's frame alone). On c6c830c it flagged 4 lines:
# proto.rs's second `parts: Vec<(String, P)>` (COMBINE's) and, in lamclient.rs,
# the `travelled` closure, its `rows.take()` and the `map(travelled)` that
# filled COMBINE's parts.
found=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/proto.rs | grep -c 'parts: Vec<(String, P)>' || true)
if [ "$found" != 1 ]; then
    echo "proto.rs declares $found row-carrying part lists, expected 1 (LOADMANY's)" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/lamclient.rs |
    grep -nE 'let travelled|map\(travelled\)|\.rows\.take\(\)|Request::Part \{'; then
    echo "lamclient.rs moves a partial's rows into a request" >&2
    exit 1
fi

echo "== one SQL evaluator =="
# A pushed-down join's partials are re-aggregated by a Q′ that the local
# engine's own SELECT evaluator runs (DESIGN §3a.9): merge.rs evaluates
# nothing itself. Outside tests it names no value comparison (`total_cmp`,
# `sql_cmp`), no map to group or join in, and no value arithmetic; and the
# merge's own plan vocabulary (`AggKind`, `AggState`, `AggOutput`, `TopKOrder`)
# is gone from crates/. On the commit before this gate merge.rs hit 15 lines
# (its hash join, group map, accumulators, AVG division and two sorts) and the
# vocabulary 70 lines in merge.rs, decompose.rs and translate/mod.rs.
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/merge.rs |
    grep -nE 'total_cmp|sql_cmp|BTreeMap|HashMap|\.mul\(|\.add\(|\.div\('; then
    echo "merge.rs evaluates SQL beside the local engine" >&2
    exit 1
fi
if grep -rnE 'AggKind|AggState|AggOutput|TopKOrder' crates; then
    echo "the merge's own plan vocabulary is back" >&2
    exit 1
fi

echo "== one plan generator =="
# A vital update is a multitransaction with one acceptable state (DESIGN §2),
# so every DOL program — retrieval, update, multitransaction, a deferred
# synchronization point — is written by plangen::dol_plan, and one function
# builds its settle branches. Outside tests, `DolStmt::Decide(` and
# `DolStmt::Commit {` are constructed in one function in crates/core/src.
# plangen.rs's differential test runs it against the generators it replaced.
sites=$(for f in $(find crates/core/src -name '*.rs'); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
        /^[[:space:]]*\/\// { next }
        match($0, /^(    )?(pub(\([a-z]+\))? )?fn [A-Za-z0-9_]+/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*fn /, "", name)
        }
        /DolStmt::Decide\(|DolStmt::Commit \{/ { print f ": fn " name }'
done | sort -u)
if [ "$(echo "$sites" | grep -c .)" -gt 1 ]; then
    echo "settle branches are built in more than one function:" >&2
    echo "$sites" >&2
    exit 1
fi

echo "== one tree walk =="
# An MSQL expression has one traversal: Expr::for_each_child and
# for_each_child_mut (msql-lang/src/ast.rs). walk_columns, contains_aggregate,
# the translator's scan and rewrites and the decomposer are built on it, so all
# of them visit in printing order and a new Expr variant is one edit there. An
# exhaustive match over Expr — marked by an `Expr::Between {` arm — may appear
# outside tests only where a variant means something of its own: the AST, the
# parser and printer, the local engine's binder and evaluator, and the
# planner's selectivity.
for f in $(find crates/*/src -name '*.rs'); do
    case "$f" in
    crates/msql-lang/src/ast.rs | crates/msql-lang/src/parser.rs | crates/msql-lang/src/printer.rs) continue ;;
    crates/ldbs/src/eval.rs | crates/ldbs/src/exec/select.rs | crates/core/src/planner.rs) continue ;;
    esac
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'Expr::Between {'; then
        echo "$f walks Expr by hand; build on Expr::for_each_child" >&2
        exit 1
    fi
done

echo "== one catalog writer =="
# A session runs a repeated statement from its plan cache while the catalog
# epoch it was translated at is current (DESIGN §3a.18), so every write to the
# two dictionaries must bump it. Outside tests, `gdd.write()` and
# `ad.write()` appear in crates/core/src once each, inside
# FederationCore::write_catalog, which bumps the epoch. The plan-cache oracle
# runs cached statements against fresh translations across CREATE / DROP
# TABLE, IMPORT and INCORPORATE.
echo "-- tests/plan_cache.rs"
cargo test -q --test plan_cache
writes='(^|[^A-Za-z0-9_])(gdd|ad)\.write\(\)'
in_accessor=$(sed -n '/fn write_catalog/,/^    }$/p' crates/core/src/federation.rs |
    tr -d ' \n' | grep -oE "$writes" | wc -l)
everywhere=$(for f in $(find crates/core/src -name '*.rs'); do
    sed '/^#\[cfg(test)\]/,$d' "$f" | tr -d ' \n'
    echo
done | grep -oE "$writes" | wc -l)
if [ "$in_accessor" != 2 ] || [ "$everywhere" != 2 ]; then
    echo "gdd/ad written $everywhere time(s) in crates/core/src, $in_accessor in write_catalog;" \
        "expected 2 and 2: go through FederationCore::write_catalog" >&2
    exit 1
fi

echo "== prepare does no I/O =="
# Every statement is prepared, then run (DESIGN §3a.18). Preparing reads the
# catalog, the scope and the session's settings and may open spans, but sends
# nothing and changes nothing; `run_prepared` is the one place a statement
# does either. Outside tests, every `fn prepare*` in federation.rs takes
# `&self`, and none of their bodies names the executor, a LAM connection, a
# synchronization point, a catalog, trigger or statistics write, or the global
# transaction. On the commit before this gate it hit `prepare`,
# `prepare_query` and `prepare_multitransaction` (`&mut self`) and nine lines
# of their bodies: sync_point (2), write_catalog (2), lams().checkout,
# triggers.write (2), executor() and gtxn.execute. federation.rs's unit tests
# prepare one statement of every kind on a network that loses every message
# and check that nothing moved.
prepare=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/federation.rs | awk '
    /^    (pub(\([a-z]+\))? )?fn prepare/ { on = 1; sig = ""; found++ }
    on && sig !~ /\{$/ {
        sig = sig $0
        if (sig ~ /\{$/) {
            s = sig
            gsub(/[[:space:]]/, "", s)
            if (s !~ /fnprepare[a-z_]*\(&self[,)]/) print NR ": not &self: " $0
        }
    }
    on && /executor\(\)|lams\(\)|sync_point|write_catalog|fire_triggers|triggers\.write|site_stats\.write|gtxn\.|checkout/ {
        print NR ": " $0
    }
    on && /^    }$/ { on = 0 }
    END { if (!found) print "no fn prepare found" }')
if [ -n "$prepare" ]; then
    echo "$prepare" >&2
    echo "federation.rs prepares a statement with a side effect" >&2
    exit 1
fi

echo "== one EXPLAIN rendering =="
# EXPLAIN prints what ran once: the span tree plus one per-site cost table
# (DESIGN §3a.2). A join's strategy, keys shipped and bytes saved, a partial's
# estimated, actual and unpushed rows are notes on their spans, read with
# SpanNode::note / SpanTree::find — not re-derived into summary structs, so
# report.rs declares none outside its tests. Nor does the report carry a wire
# section: the federation-wide net.bytes* counters hold every session's
# traffic, so the facade reads none of them. The EXPLAIN goldens pin the render.
echo "-- tests/t1_trace_golden.rs"
cargo test -q --test t1_trace_golden
if sed '/^#\[cfg(test)\]/,$d' crates/obs/src/report.rs | grep -nE 'struct [A-Za-z0-9_]*Summary'; then
    echo "report.rs declares a summary struct beside the span tree and cost table" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/federation.rs | grep -n 'net\.bytes'; then
    echo "federation.rs reads a federation-wide net.bytes counter" >&2
    exit 1
fi

echo "== fedbench: build + smoke =="
# fedbench/ compiles against the crates' public API and may not be edited by
# a change that claims a gain, so an API break must fail here, not in the
# benchmark pipeline. Its own smoke test runs every workload for a few passes
# and checks every result.
cargo build --release --offline --manifest-path fedbench/Cargo.toml
cargo test -q --offline --manifest-path fedbench/Cargo.toml
# Two sessions running the same cross-database join must not share the
# coordinator's temp tables (each spawned session names its own).
collision=$(cargo run --release --offline --quiet --manifest-path fedbench/Cargo.toml -- --repro xjoin_collision)
echo "$collision"
case "$collision" in
*": 0 failed;"*) ;;
*)
    echo "concurrent cross-database joins failed" >&2
    exit 1
    ;;
esac

echo "== one bench harness =="
# fedbench is the only benchmark: what the experiments claim as counts (bytes
# shipped, messages, successes) is asserted by tier-1 tests, and timings are
# fedbench's per-layer metrics. No second harness and no tracked sweep file.
for f in $(git ls-files '*Cargo.toml' | grep -v '^fedbench/'); do
    if grep -n '^\[\[bench\]\]' "$f"; then
        echo "$f declares a bench target outside fedbench/" >&2
        exit 1
    fi
done
if compgen -G 'BENCH_*.json' >/dev/null; then
    echo "a BENCH_*.json sweep file is back at the repo root" >&2
    exit 1
fi

echo "== LOC ledger =="
# Not a gate: the two numbers ROADMAP's LOC ledger records per change — every
# line of crates/*/src, and the lines above each file's first #[cfg(test)].
total=0
outside=0
for f in $(find crates/*/src -name '*.rs'); do
    total=$((total + $(wc -l <"$f")))
    outside=$((outside + $(sed '/^#\[cfg(test)\]/,$d' "$f" | wc -l)))
done
echo "crates/*/src: $total lines in total, $outside outside tests"

echo "CI OK"
