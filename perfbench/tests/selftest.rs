//! Self-tests of the benchmark: metric tables, `BENCHMARK.json`, output
//! shape on every workload, and repeatable counts at a fixed seed.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use cs_obs::{parse_json, Json};
use cs_perfbench::{
    run, Options, Report, Scale, DETERMINISTIC_COUNTS, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn quick(workload: &str, trace: bool) -> Report {
    let opts = Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Quick,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
    };
    run(&opts).unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

#[test]
fn metric_tables_are_well_formed() {
    assert!(
        END_TO_END.len() <= 16,
        "{} end-to-end metrics",
        END_TO_END.len()
    );
    assert!(
        PER_LAYER.len() <= 128,
        "{} per-layer metrics",
        PER_LAYER.len()
    );
    let mut seen = BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
        assert!(seen.insert(d.name), "metric {} listed twice", d.name);
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?} for {}",
            d.unit,
            d.name
        );
    }
    for c in DETERMINISTIC_COUNTS {
        assert!(
            PER_LAYER.iter().any(|d| d.name == *c),
            "{c} is not a per-layer metric"
        );
    }
}

#[test]
fn benchmark_json_lists_the_same_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let table = |defs: &[cs_perfbench::MetricDef]| -> Vec<String> {
        defs.iter().map(|d| d.name.to_string()).collect()
    };
    assert_eq!(names("end_to_end"), table(END_TO_END));
    assert_eq!(names("per_layer"), table(PER_LAYER));
    assert_eq!(names("workloads"), WORKLOADS);
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        let def = END_TO_END.iter().find(|d| d.name == name).expect("listed");
        assert_eq!(unit, def.unit, "{name}");
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        let r = quick(w, false);
        let json = r.to_json(false).expect("renders");
        let doc = parse_json(json.as_str()).expect("result line parses");
        assert!(
            matches!(doc.get("correct"), Some(Json::Bool(true))),
            "{w}: {json}"
        );
        assert!(r.attempted >= 1);
        let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len(), "{w}");
        for d in END_TO_END {
            let m = metrics
                .get(d.name)
                .unwrap_or_else(|| panic!("{w}: no {}", d.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit), "{w}");
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v.is_finite() && v > 0.0, "{w}: {} = {v}", d.name);
        }
    }
}

#[test]
fn traced_counts_repeat_exactly_at_a_fixed_seed() {
    for w in WORKLOADS {
        let (a, b) = (quick(w, true), quick(w, true));
        assert!(a.to_json(true).is_ok(), "{w}");
        assert_eq!(a.failed, 0, "{w}");
        for c in DETERMINISTIC_COUNTS {
            assert_eq!(a.metrics[c], b.metrics[c], "{w}: {c}");
        }
    }
}
