//! Property tests of the pluggable failure models (ISSUE 7 acceptance):
//!
//! * every [`FailureModelSpec`] round-trips through its canonical spec string
//!   **bit-exactly** (parameters and pinned rates included);
//! * `weibull:1.0` (and `shifted:0`) are the exponential law, and the sweep
//!   engine treats them so: their rows are byte-identical to `exp` rows
//!   (modulo the two failure-model columns) for **any** worker-thread count,
//!   shard split and cache setting — the keystone of the failure-model
//!   determinism contract;
//! * distinct failure families over the same λ never share a cache entry
//!   (covered at unit level in `ayd-sweep`; here the end-to-end CSVs of a
//!   mixed grid keep the families apart row by row).

use proptest::prelude::*;

use ayd_platforms::{PlatformId, ScenarioId};
use ayd_sweep::{
    merge_parts, FailureModelSpec, ProcessorAxis, RunOptions, ScenarioGrid, ShardPart, ShardSpec,
    SweepExecutor, SweepManifest, SweepOptions,
};

fn arb_failure_spec() -> impl Strategy<Value = FailureModelSpec> {
    (
        0usize..4,
        0.05f64..8.0,
        0.0f64..100_000.0,
        0u64..2,
        1e-9f64..1e-5,
        0u64..u64::MAX,
    )
        .prop_map(|(kind, shape, shift, has_lambda, lambda, path_bits)| {
            let base = match kind {
                0 => FailureModelSpec::exponential(),
                1 => FailureModelSpec::weibull(shape).unwrap(),
                2 => FailureModelSpec::shifted(shift).unwrap(),
                _ => {
                    return FailureModelSpec::trace(&format!("logs/node-{path_bits:x}.trace"))
                        .unwrap()
                }
            };
            if has_lambda == 1 {
                base.with_lambda(lambda).unwrap()
            } else {
                base
            }
        })
}

proptest! {
    #[test]
    fn failure_specs_round_trip_bit_exactly(spec in arb_failure_spec()) {
        let rendered = spec.to_string();
        let reparsed = FailureModelSpec::parse(&rendered).unwrap();
        prop_assert_eq!(&reparsed, &spec, "spec string: {}", rendered);
        prop_assert_eq!(
            reparsed.param().map(f64::to_bits),
            spec.param().map(f64::to_bits)
        );
        prop_assert_eq!(
            reparsed.lambda().map(f64::to_bits),
            spec.lambda().map(f64::to_bits)
        );
        // Rendering is a fixed point: parse(render(x)) renders identically.
        prop_assert_eq!(reparsed.to_string(), rendered);
    }
}

fn small_grid(models: &[FailureModelSpec]) -> ScenarioGrid {
    ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1, ScenarioId::S3])
        .failure_models(models)
        .lambda_multipliers(&[1.0, 10.0])
        .processors(ProcessorAxis::Fixed(vec![512.0]))
        .build()
        .unwrap()
}

/// Drops the `failure_model`/`failure_param` columns (1-indexed 6 and 7) from
/// every line of a sweep CSV — the same projection the CI smoke step applies
/// with `cut -d, -f1-5,8-`.
fn strip_failure_columns(csv: &str) -> String {
    csv.lines()
        .map(|line| {
            let columns: Vec<&str> = line.split(',').collect();
            let mut kept: Vec<&str> = columns[..5].to_vec();
            kept.extend(&columns[7..]);
            kept.join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs a grid unsharded or as a merged N-way shard split; both paths return
/// the canonical CSV bytes.
fn csv_of(grid: &ScenarioGrid, options: SweepOptions, shards: usize) -> String {
    if shards == 1 {
        return SweepExecutor::new(options).run(grid).to_csv();
    }
    let parts: Vec<ShardPart> = (0..shards)
        .map(|index| {
            let shard = ShardSpec::new(index, shards).unwrap();
            ShardPart {
                manifest: SweepManifest::complete(grid, &options, shard),
                csv: SweepExecutor::new(options)
                    .run_cells(&grid.shard_cells(shard))
                    .to_csv(),
            }
        })
        .collect();
    merge_parts(&parts).unwrap()
}

#[test]
fn weibull_shape_one_matches_exponential_for_every_execution_shape() {
    // Exhaustive over the execution shapes the determinism contract names:
    // thread counts, shard splits and cache on/off.
    // Simulation is ON, so the equivalence also covers the sampler path (a
    // `weibull:1.0` cell must draw the exact exponential variates).
    let exp_grid = small_grid(&[FailureModelSpec::exponential()]);
    let weibull_grid = small_grid(&[FailureModelSpec::weibull(1.0).unwrap()]);
    let shifted_grid = small_grid(&[FailureModelSpec::shifted(0.0).unwrap()]);
    let mut baseline: Option<String> = None;
    for threads in [1usize, 4] {
        for cache in [true, false] {
            for shards in [1usize, 3] {
                let options = SweepOptions::new(RunOptions {
                    threads: Some(threads),
                    cache,
                    ..RunOptions::smoke()
                });
                let exp_csv = csv_of(&exp_grid, options, shards);
                let weibull_csv = csv_of(&weibull_grid, options, shards);
                let shifted_csv = csv_of(&shifted_grid, options, shards);
                let stripped = strip_failure_columns(&exp_csv);
                assert_eq!(
                    strip_failure_columns(&weibull_csv),
                    stripped,
                    "weibull:1.0 drifted from exp \
                     ({threads} threads, cache {cache}, {shards} shards)"
                );
                assert_eq!(
                    strip_failure_columns(&shifted_csv),
                    stripped,
                    "shifted:0 drifted from exp \
                     ({threads} threads, cache {cache}, {shards} shards)"
                );
                // The failure columns themselves keep the declared family.
                assert!(weibull_csv.lines().nth(1).unwrap().contains(",weibull,1,"));
                // And every execution shape produces the same exp bytes.
                match &baseline {
                    None => baseline = Some(exp_csv),
                    Some(baseline) => assert_eq!(&exp_csv, baseline),
                }
            }
        }
    }
}

#[test]
fn mixed_family_grids_keep_families_apart_row_by_row() {
    // A grid mixing exp and weibull:0.7 over the same λ axis: the two
    // families' rows must carry their own analytic series — a cache-key
    // collision between the families would make them identical.
    let grid = small_grid(&[
        FailureModelSpec::exponential(),
        FailureModelSpec::weibull(0.7).unwrap(),
    ]);
    let options = SweepOptions::new(RunOptions {
        simulate: false,
        ..RunOptions::smoke()
    });
    let csv = SweepExecutor::new(options).run(&grid).to_csv();
    let exp_rows: Vec<&str> = csv.lines().filter(|l| l.contains(",exp,,")).collect();
    let weibull_rows: Vec<&str> = csv
        .lines()
        .filter(|l| l.contains(",weibull,0.7,"))
        .collect();
    assert_eq!(exp_rows.len(), 4);
    assert_eq!(weibull_rows.len(), 4);
    // The analytic columns agree (the paper's model is exponential either
    // way); the family columns keep the rows distinguishable.
    for (exp_row, weibull_row) in exp_rows.iter().zip(&weibull_rows) {
        assert_ne!(exp_row, weibull_row);
    }
}
