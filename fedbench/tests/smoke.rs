//! Runs all five workloads in smoke mode (fixed pass counts, in-process) and
//! holds the benchmark to its contract: every name `BENCHMARK.json` declares
//! is emitted, finite and unit-tagged; nothing fails the correctness gate;
//! the exact counters repeat for one seed and differ in data, not shape,
//! for another; both wire formats return the same rows.

use fedbench::bench::{end_to_end, traced, Length, Options, Outcome};
use fedbench::json::{self, Json};
use fedbench::spec::{self, MetricDef};
use fedbench::workload::WorkloadId;
use std::path::PathBuf;

const EXACT: [&str; 3] = ["net_msgs_per_stmt", "net_bytes_per_stmt", "rows_scanned_per_stmt"];

fn options(workload: WorkloadId, seed: u64) -> Options {
    Options { workload, seed, length: Length::Passes(workload.smoke_passes()) }
}

fn assert_emits(outcome: &Outcome, declared: &[MetricDef], nonzero: bool) {
    let w = outcome.workload.name();
    assert_eq!(outcome.failed, 0, "{w}: failures: {:?}", outcome.errors);
    assert!(outcome.correct(), "{w}: {:?}", outcome.errors);
    assert!(outcome.attempted > 0, "{w}: nothing attempted");
    assert_eq!(outcome.metrics.len(), declared.len(), "{w}: metric count");
    for MetricDef { name, unit, .. } in declared {
        let m = outcome
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{w}: `{name}` not emitted"));
        assert_eq!(&m.unit, unit, "{w}: unit of `{name}`");
        assert!(m.value.is_finite(), "{w}: `{name}` is {}", m.value);
        if nonzero {
            assert!(m.value > 0.0, "{w}: end-to-end metric `{name}` is {}", m.value);
        }
    }
}

#[test]
fn benchmark_json_names_the_workloads_the_code_has() {
    let mut declared = spec::workloads().expect("BENCHMARK.json parses");
    let mut built: Vec<String> = WorkloadId::ALL.iter().map(|w| w.name().to_string()).collect();
    declared.sort();
    built.sort();
    assert_eq!(declared, built);
}

#[test]
fn every_workload_passes_the_gate_and_emits_every_metric() {
    let e2e = spec::end_to_end().expect("BENCHMARK.json parses");
    let layers = spec::per_layer().expect("BENCHMARK.json parses");
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fedbench-smoke");
    for w in WorkloadId::ALL {
        let first = end_to_end(&options(w, 1)).expect("untraced run");
        assert_emits(&first, &e2e, true);

        // Same seed: messages and rows repeat exactly. Bytes repeat only
        // from a fresh process (see `a_fresh_process_repeats_...` below):
        // request ids are process-wide counters and print one digit longer
        // every power of ten.
        let again = end_to_end(&options(w, 1)).expect("untraced run, repeated");
        for name in ["net_msgs_per_stmt", "rows_scanned_per_stmt"] {
            assert_eq!(first.get(name), again.get(name), "{}: `{name}` must repeat", w.name());
        }
        let (a, b) =
            (first.get("net_bytes_per_stmt").unwrap(), again.get("net_bytes_per_stmt").unwrap());
        assert!((a - b).abs() / a < 0.05, "{}: bytes {a} vs {b}", w.name());

        // Another seed: other data, same shape.
        let other = end_to_end(&options(w, 2)).expect("untraced run, seed 2");
        assert_emits(&other, &e2e, true);
        for name in ["net_msgs_per_stmt", "rows_scanned_per_stmt"] {
            assert_eq!(first.get(name), other.get(name), "{}: `{name}` is shape", w.name());
        }
        if w.is_star() {
            assert_ne!(
                first.get("net_bytes_per_stmt"),
                other.get("net_bytes_per_stmt"),
                "{}: another seed must generate other data",
                w.name()
            );
            assert_ne!(first.digests, other.digests, "{}: digests follow the data", w.name());
        }

        let layered = traced(&options(w, 1)).expect("traced run");
        assert_emits(&layered, &layers, false);
        let trace = trace_dir.join(format!("trace-{}.jsonl", w.name()));
        layered.trace.as_ref().expect("a traced run has spans").write_jsonl(&trace).unwrap();
        let spans = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(spans.lines().count() > 10, "{}: trace has spans", w.name());
        for line in spans.lines().take(50) {
            let span = json::parse(line).expect("span line parses");
            for key in ["id", "parent", "stmt", "name", "start_ns", "end_ns"] {
                assert!(span.get(key).is_some(), "span without `{key}`: {line}");
            }
        }
    }
}

/// Runs the command line the way the driver does and returns the parsed
/// result line.
fn run_binary(workload: &str, seed: &str) -> Json {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fedbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "0"])
        .arg("--smoke")
        .output()
        .expect("fedbench runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    let keys: Vec<&str> =
        result.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    result
}

#[test]
fn a_fresh_process_repeats_the_exact_counters() {
    for workload in ["paper_local", "star_binary"] {
        let (a, b) = (run_binary(workload, "7"), run_binary(workload, "7"));
        for name in EXACT {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{workload}: no `{name}`"))
            };
            assert_eq!(value(&a), value(&b), "{workload}: `{name}` must repeat exactly");
        }
    }
}

#[test]
fn both_wire_formats_return_the_same_rows() {
    let text = end_to_end(&options(WorkloadId::StarText, 3)).expect("star_text");
    let binary = end_to_end(&options(WorkloadId::StarBinary, 3)).expect("star_binary");
    assert!(!text.digests.is_empty());
    assert_eq!(text.digests, binary.digests, "digests must match class for class");
    // Same rows, fewer bytes: the formats differ on the wire only.
    assert!(binary.get("net_bytes_per_stmt") < text.get("net_bytes_per_stmt"));
    assert_eq!(text.get("rows_scanned_per_stmt"), binary.get("rows_scanned_per_stmt"));
}
