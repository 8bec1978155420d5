//! The benchmark's own contract: `BENCHMARK.json` declares exactly what
//! the code emits, the seed alone decides the generated ops, and the
//! read verifier really fails on wrong bytes.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

use afs_bench::gate::json::{self, Value};
use afs_benchmark::bench::{self, RunArgs};
use afs_benchmark::run::{self, Plan, Stop};
use afs_benchmark::spec::{self, MetricSpec, WorkloadSpec};
use afs_benchmark::{report, workloads};

fn repo_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(name)
}

/// A workload at a size that sets up and runs in milliseconds.
fn tiny(spec: &WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec {
        slice_ops: 1024,
        warmup_ops: 1024,
        traced_ops: 1024,
        ..*spec
    }
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a Value {
    entry
        .as_object()
        .and_then(|o| o.get(key))
        .unwrap_or_else(|| panic!("entry has no `{key}`"))
}

fn keys(entry: &Value) -> Vec<&str> {
    entry
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn assert_metrics_match(declared: &[Value], specs: &[MetricSpec], bounded: bool) {
    assert_eq!(declared.len(), specs.len());
    for (entry, spec) in declared.iter().zip(specs) {
        assert_eq!(field(entry, "name").as_str(), Some(spec.name));
        assert_eq!(
            field(entry, "unit").as_str(),
            Some(spec.unit),
            "{}",
            spec.name
        );
        assert_eq!(
            field(entry, "better").as_str(),
            Some(spec.better.label()),
            "{}",
            spec.name
        );
        if bounded {
            assert_eq!(
                field(entry, "bound").as_f64(),
                Some(spec.bound),
                "{}",
                spec.name
            );
            assert!(
                spec.bound <= 0.25,
                "{}: the contract caps bounds",
                spec.name
            );
            assert_eq!(keys(entry), ["better", "bound", "name", "unit"]);
        } else {
            assert_eq!(keys(entry), ["better", "name", "unit"]);
        }
    }
}

#[test]
fn benchmark_json_mirrors_the_spec_tables() {
    let text = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |key: &str| field(&doc, key).as_array().expect("a list").to_vec();

    let workloads = list("workloads");
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (entry, spec) in workloads.iter().zip(spec::WORKLOADS) {
        assert_eq!(field(entry, "name").as_str(), Some(spec.name));
        assert_eq!(field(entry, "why").as_str(), Some(spec.why));
        assert!(
            spec.why.len() <= 200 && !spec.why.contains('\n'),
            "{}",
            spec.name
        );
        assert_eq!(keys(entry), ["name", "why"]);
    }
    assert_metrics_match(&list("end_to_end"), spec::END_TO_END, true);
    assert_metrics_match(&list("per_layer"), spec::PER_LAYER, false);
    assert!(spec::PER_LAYER.len() <= 128);
    assert!(spec::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let names: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(
            spec::END_TO_END
                .iter()
                .chain(spec::PER_LAYER)
                .map(|m| m.name),
        )
        .collect();
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is used once"
    );

    let paths: Vec<_> = list("paths")
        .iter()
        .map(|p| p.as_str().map(str::to_owned))
        .collect();
    assert_eq!(paths, [Some("benchmark".to_owned())]);
    let seconds = field(&doc, "run_seconds").as_u64().expect("whole seconds");
    assert!((1..=60).contains(&seconds));
}

/// One pass of one workload, in this process, at smoke size.
fn pass(spec: &'static WorkloadSpec, trace: bool) -> Value {
    let outcome = bench::run(&RunArgs {
        spec,
        seed: 1,
        seconds: 0.05,
        trace,
        out_dir: None,
        baseline: repo_file("BENCH_baseline.json"),
        started: Instant::now(),
    });
    assert!(outcome.correct, "{}: {:?}", spec.name, outcome.complaints);
    json::parse(&report::result_json(&outcome)).expect("the result object parses")
}

// One test, so the passes run one after another: the allocation
// counter and the span buffers are process-wide.
#[test]
fn every_pass_emits_exactly_the_declared_metrics() {
    for workload in spec::WORKLOADS {
        for (trace, declared) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
            let result = pass(workload, trace);
            assert_eq!(keys(&result), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                field(&result, "failed").as_u64(),
                Some(0),
                "{}",
                workload.name
            );
            assert!(field(&result, "attempted").as_u64() >= Some(1));
            let metrics = field(&result, "metrics").as_object().expect("metrics");
            let emitted: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let wanted: BTreeSet<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(emitted, wanted, "{} trace={trace}", workload.name);
            for spec in declared {
                let metric = &metrics[spec.name];
                assert_eq!(field(metric, "unit").as_str(), Some(spec.unit));
                assert!(field(metric, "value").as_f64().is_some(), "{}", spec.name);
                assert_eq!(keys(metric), ["unit", "value"]);
            }
            if !trace {
                for spec in declared {
                    let value = field(&metrics[spec.name], "value").as_f64();
                    assert!(
                        value > Some(0.0),
                        "{}: {} is never 0",
                        workload.name,
                        spec.name
                    );
                }
            }
        }
    }
}

#[test]
fn the_seed_alone_decides_the_generated_ops() {
    for workload in spec::WORKLOADS {
        let hash = |seed| workloads::setup(&tiny(workload), seed, false).ops_hash();
        assert_eq!(hash(1), hash(1), "{}", workload.name);
        assert_ne!(hash(1), hash(2), "{}", workload.name);
    }
}

#[test]
fn the_verifier_fails_a_corrupted_expectation() {
    for workload in spec::WORKLOADS {
        let spec = tiny(workload);
        let mut rig = workloads::setup(&spec, 1, false);
        assert_eq!(rig.setup_failed, 0, "{}", workload.name);
        let plan = Plan {
            slice_ops: spec.slice_ops,
            stop: Stop::Slices(1),
            keep_samples: false,
            traced: false,
        };
        let clean = run::run_leg(&mut rig, spec.clients, &[], plan);
        assert_eq!(clean.failed(), 0, "{}", workload.name);

        for client in &mut rig.clients {
            client.corrupt_expectation();
        }
        let leg = run::run_leg(&mut rig, spec.clients, &[], plan);
        let (_, failed_reads) = run::read_back(&mut rig, spec.clients);
        assert!(
            leg.failed() + failed_reads > 0,
            "{}: wrong expectations went unnoticed",
            workload.name
        );
    }
}
