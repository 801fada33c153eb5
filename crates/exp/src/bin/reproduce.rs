//! `reproduce` — CLI for regenerating the paper's tables and figures.
//!
//! ```text
//! reproduce <experiment> [--paper|--smoke] [--no-sim] [--csv] [--seed N]
//!                        [--threads N] [--no-cache]
//!                        [--profiles SPEC,...] [--failure-models SPEC,...]
//!                        [--shard I/N] [--out PATH] [--resume]
//!                        [--inputs CSV,...] [--addr HOST:PORT] [--cache-capacity N]
//!                        [--max-body BYTES] [--trace-log PATH]
//!                        [--coordinator [--lease-ms N]]
//!                        [--worker-of HOST:PORT [--advertise HOST:PORT]]
//!
//! experiments:
//!   table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 ablation engines extensions
//!   sweep       parallel scenario sweep (ayd-sweep demo grid; large when --no-sim)
//!   sweep-merge merge shard CSVs (--inputs) into the unsharded CSV (--out)
//!   checks      headline shape checks (figures 5 and 6 slopes)
//!   serve       ayd-serve HTTP query service (runs until killed; not in `all`)
//!   obs-report  paper-style time accounting from a --trace-log file (standalone)
//!   all         everything above except serve, sweep-merge and obs-report
//! ```
//!
//! Experiment names are validated up front: an unknown name (or flag) fails
//! with a usage message *before* anything runs, so a typo can never yield a
//! partial-success exit.
//!
//! `--profiles` (sweep only) replaces the demo grid's application axis with an
//! explicit comma-separated list of speedup-profile specs, e.g.
//! `--profiles amdahl:0.1,powerlaw:0.8,gustafson:0.05,perfect`.
//!
//! `--failure-models` (sweep only) likewise replaces the failure-model axis,
//! e.g. `--failure-models exp,weibull:0.7,shifted:600`. The specs must be
//! rate-free — grid cells take their rate from the λ axis. Non-exponential
//! cells simulate under the true law; when simulation is on, the sweep prints
//! a misspecification report comparing the exponential model's prediction
//! with those simulations.
//!
//! `--out PATH` (sweep only) writes the canonical sweep CSV to `PATH` plus an
//! atomically-updated progress manifest at `PATH.manifest`, instead of
//! printing a table. `--shard I/N` restricts the run to one shard of the grid
//! (the `I`-th of `N` balanced, contiguous ranges of cell indices);
//! `--resume` skips rows an interrupted run already materialised.
//! `sweep-merge --inputs a.csv,b.csv,... --out PATH` validates the sidecar
//! manifests and concatenates the shards into bytes identical to the
//! unsharded sweep. Both refuse manifests of the retired round-robin
//! partition (`ayd-sweep-manifest v1`).
//!
//! `serve` exposes the optimiser over HTTP (see the `ayd-serve` crate docs):
//! `--addr` picks the listen address (port 0 = ephemeral; the bound address is
//! printed on stdout), `--threads` the number of epoll reactors (and the
//! shard count of the shared cache), `--cache-capacity` the shared
//! evaluation cache and `--max-body` the largest accepted request body.
//!
//! Cluster roles (serve only): `--coordinator` makes the instance decompose
//! sharded `/v1/sweep` jobs and dispatch them to registered workers, with
//! `--lease-ms` tuning the worker lease (default 3000; expiry re-issues the
//! dead worker's shard from its last checkpoint). `--worker-of HOST:PORT`
//! makes the instance register with that coordinator, heartbeat and compute
//! dispatched shards; `--advertise` overrides the dial-back address when the
//! bound one is not reachable from the coordinator. See `docs/OPERATIONS.md`.
//!
//! `--trace-log PATH` wears two hats. On any running experiment it installs
//! an `ayd-obs` JSON-lines sink, so every span the run records (sweep stages,
//! server requests, optimiser fallbacks) streams to `PATH`; the sweep CSV is
//! byte-identical with tracing on or off — tracing reads clocks and counters,
//! never values. On `obs-report` the same flag names the *input*: the log is
//! parsed and re-rendered as paper-style time-accounting tables (per-endpoint
//! request stages, sweep execution).

use std::io::Write;
use std::process::ExitCode;

use ayd_exp::{ablation, extensions, figure2, figure3, figure4, figure5, figure6, figure7, sweep};
use ayd_exp::{report, tables, TextTable};
use ayd_sweep::{Fidelity, RunOptions};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Csv,
}

/// Flags of the `serve` experiment (ignored by every other experiment).
#[derive(Debug, Clone, Default, PartialEq)]
struct ServeArgs {
    addr: Option<String>,
    cache_capacity: Option<usize>,
    max_body: Option<usize>,
    /// `--coordinator`: accept worker registrations and dispatch sweep shards.
    coordinator: bool,
    /// `--worker-of HOST:PORT`: register with that coordinator and compute
    /// dispatched shards.
    worker_of: Option<String>,
    /// `--lease-ms N` (coordinator): worker lease length.
    lease_ms: Option<u64>,
    /// `--advertise HOST:PORT` (worker): the address the coordinator should
    /// dial back, when the bound address is not reachable from it.
    advertise: Option<String>,
}

/// Flags of the sharded/file-backed sweep modes (`sweep --out/--shard/--resume`
/// and `sweep-merge --inputs/--out`).
#[derive(Debug, Clone, Default, PartialEq)]
struct ShardArgs {
    out: Option<std::path::PathBuf>,
    shard: Option<ayd_sweep::ShardSpec>,
    resume: bool,
    inputs: Vec<std::path::PathBuf>,
}

#[derive(Debug)]
struct Cli {
    experiments: Vec<String>,
    options: RunOptions,
    format: OutputFormat,
    serve: ServeArgs,
    shard: ShardArgs,
    /// Speedup-profile override of the sweep demo grid (`--profiles`).
    profiles: Option<Vec<ayd_core::SpeedupProfile>>,
    /// Failure-model axis override of the sweep demo grid
    /// (`--failure-models`).
    failure_models: Option<Vec<ayd_core::FailureModelSpec>>,
    /// `--trace-log PATH`: ayd-obs JSON-lines sink for running experiments,
    /// or the input log for `obs-report`.
    trace_log: Option<std::path::PathBuf>,
}

/// The experiments `all` runs, in order. This single table also drives the
/// parse-time name validation (via [`is_known_experiment`]), so a new
/// experiment added here is automatically accepted — the standalone-only
/// entries (`sweep-merge`, `serve`, `all` itself) are the one extra list.
const ALL_EXPERIMENTS: &[&str] = &[
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "ablation",
    "engines",
    "extensions",
    "sweep",
    "checks",
];

/// True when the CLI accepts `name` as an experiment; anything else is
/// rejected at parse time, before any experiment runs.
fn is_known_experiment(name: &str) -> bool {
    ALL_EXPERIMENTS.contains(&name)
        || matches!(name, "sweep-merge" | "serve" | "obs-report" | "all")
}

fn parse_profiles(value: &str) -> Result<Vec<ayd_core::SpeedupProfile>, String> {
    let specs: Vec<&str> = value.split(',').filter(|s| !s.trim().is_empty()).collect();
    if specs.is_empty() {
        return Err("--profiles requires at least one profile spec".to_string());
    }
    specs
        .into_iter()
        .map(|spec| {
            ayd_core::ProfileSpec::parse(spec)
                .map(|parsed| parsed.profile())
                .map_err(|e| format!("invalid profile spec `{spec}`: {e}"))
        })
        .collect()
}

fn parse_failure_models(value: &str) -> Result<Vec<ayd_core::FailureModelSpec>, String> {
    let specs: Vec<&str> = value.split(',').filter(|s| !s.trim().is_empty()).collect();
    if specs.is_empty() {
        return Err("--failure-models requires at least one failure-model spec".to_string());
    }
    specs
        .into_iter()
        .map(|spec| {
            let parsed = ayd_core::FailureModelSpec::parse(spec)
                .map_err(|e| format!("invalid failure-model spec `{spec}`: {e}"))?;
            if parsed.lambda().is_some() {
                return Err(format!(
                    "failure-model spec `{spec}` pins an explicit rate; \
                     grid cells take their rate from the lambda axis"
                ));
            }
            Ok(parsed)
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut experiments = Vec::new();
    let mut options = RunOptions::default();
    let mut format = OutputFormat::Text;
    let mut serve = ServeArgs::default();
    let mut shard = ShardArgs::default();
    let mut profiles = None;
    let mut failure_models = None;
    let mut trace_log = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--shard" => {
                let value = iter.next().ok_or("--shard requires a value (I/N)")?;
                shard.shard = Some(ayd_sweep::ShardSpec::parse(value).map_err(|e| e.to_string())?);
            }
            "--out" => {
                let value = iter.next().ok_or("--out requires a path")?;
                shard.out = Some(std::path::PathBuf::from(value));
            }
            "--resume" => shard.resume = true,
            "--inputs" => {
                let value = iter
                    .next()
                    .ok_or("--inputs requires a comma-separated list")?;
                shard.inputs = value
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(std::path::PathBuf::from)
                    .collect();
                if shard.inputs.is_empty() {
                    return Err("--inputs requires at least one CSV path".to_string());
                }
            }
            "--paper" => options.fidelity = Fidelity::Paper,
            "--smoke" => options.fidelity = Fidelity::Smoke,
            "--no-sim" => options.simulate = false,
            "--csv" => format = OutputFormat::Csv,
            "--no-cache" => options.cache = false,
            "--seed" => {
                let value = iter.next().ok_or("--seed requires a value")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed `{value}`"))?;
            }
            "--threads" => {
                let value = iter.next().ok_or("--threads requires a value")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid thread count `{value}`"))?;
                if parsed == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                options.threads = Some(parsed);
            }
            "--profiles" => {
                let value = iter.next().ok_or("--profiles requires a value")?;
                profiles = Some(parse_profiles(value)?);
            }
            "--failure-models" => {
                let value = iter.next().ok_or("--failure-models requires a value")?;
                failure_models = Some(parse_failure_models(value)?);
            }
            "--addr" => {
                let value = iter.next().ok_or("--addr requires a value")?;
                serve.addr = Some(value.clone());
            }
            "--cache-capacity" => {
                let value = iter.next().ok_or("--cache-capacity requires a value")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("invalid cache capacity `{value}`"))?;
                if parsed == 0 {
                    return Err("--cache-capacity must be at least 1".to_string());
                }
                serve.cache_capacity = Some(parsed);
            }
            "--max-body" => {
                let value = iter.next().ok_or("--max-body requires a value")?;
                serve.max_body = Some(
                    value
                        .parse()
                        .map_err(|_| format!("invalid body limit `{value}`"))?,
                );
            }
            "--coordinator" => serve.coordinator = true,
            "--worker-of" => {
                let value = iter
                    .next()
                    .ok_or("--worker-of requires a HOST:PORT value")?;
                serve.worker_of = Some(value.clone());
            }
            "--lease-ms" => {
                let value = iter.next().ok_or("--lease-ms requires a value")?;
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid lease `{value}`"))?;
                if parsed < 10 {
                    return Err("--lease-ms must be at least 10".to_string());
                }
                serve.lease_ms = Some(parsed);
            }
            "--advertise" => {
                let value = iter
                    .next()
                    .ok_or("--advertise requires a HOST:PORT value")?;
                serve.advertise = Some(value.clone());
            }
            "--trace-log" => {
                let value = iter.next().ok_or("--trace-log requires a path")?;
                trace_log = Some(std::path::PathBuf::from(value));
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        return Err(usage());
    }
    // Validate experiment names *before* anything runs: a typo'd token must
    // fail the whole invocation with a usage message, not run the experiments
    // in front of it and only then error out.
    for experiment in &experiments {
        if !is_known_experiment(experiment) {
            return Err(format!("unknown experiment `{experiment}`\n{}", usage()));
        }
    }
    if (shard.shard.is_some() || shard.resume) && shard.out.is_none() {
        return Err(format!("--shard/--resume require --out PATH\n{}", usage()));
    }
    // The shard/file flags only mean something to the sweep experiments; on
    // anything else they would be silently dropped — fail instead.
    let runs_a_sweep = experiments
        .iter()
        .any(|e| e == "sweep" || e == "sweep-merge" || e == "all");
    if (shard.out.is_some() || shard.shard.is_some() || shard.resume) && !runs_a_sweep {
        return Err(format!(
            "--out/--shard/--resume only apply to sweep and sweep-merge\n{}",
            usage()
        ));
    }
    if !shard.inputs.is_empty() && !experiments.iter().any(|e| e == "sweep-merge") {
        return Err(format!("--inputs only applies to sweep-merge\n{}", usage()));
    }
    if experiments.iter().any(|e| e == "sweep-merge") {
        if shard.inputs.is_empty() || shard.out.is_none() {
            return Err(format!(
                "sweep-merge requires --inputs CSV,... and --out PATH\n{}",
                usage()
            ));
        }
        if shard.resume || shard.shard.is_some() {
            return Err(format!(
                "sweep-merge takes --inputs/--out only, not --shard/--resume\n{}",
                usage()
            ));
        }
        // Both would write the single --out path, the second clobbering the
        // first's validated output.
        if experiments.iter().any(|e| e == "sweep" || e == "all") {
            return Err(format!(
                "sweep-merge cannot be combined with sweep/all (they would share --out)\n{}",
                usage()
            ));
        }
    }
    // File output is always the canonical CSV; a stdout format flag alongside
    // it would be silently meaningless.
    if shard.out.is_some() && format != OutputFormat::Text {
        return Err(format!(
            "--csv cannot be combined with --out (the file is always canonical CSV)\n{}",
            usage()
        ));
    }
    // One process plays one cluster role; a coordinator that is also a
    // worker of itself would deadlock its own shard queue.
    if serve.coordinator && serve.worker_of.is_some() {
        return Err(format!(
            "--coordinator and --worker-of are mutually exclusive\n{}",
            usage()
        ));
    }
    if serve.lease_ms.is_some() && !serve.coordinator {
        return Err(format!(
            "--lease-ms only applies to --coordinator\n{}",
            usage()
        ));
    }
    if serve.advertise.is_some() && serve.worker_of.is_none() {
        return Err(format!(
            "--advertise only applies to --worker-of\n{}",
            usage()
        ));
    }
    if (serve.coordinator || serve.worker_of.is_some()) && !experiments.iter().any(|e| e == "serve")
    {
        return Err(format!(
            "--coordinator/--worker-of only apply to serve\n{}",
            usage()
        ));
    }
    // `--trace-log` flips meaning on obs-report (input, not sink), so the
    // report can never run in the same invocation as the experiments that
    // would be writing the very file it reads.
    if experiments.iter().any(|e| e == "obs-report") {
        if experiments.len() > 1 {
            return Err(format!(
                "obs-report must be the only experiment (its --trace-log is an input, \
                 not a sink)\n{}",
                usage()
            ));
        }
        if trace_log.is_none() {
            return Err(format!("obs-report requires --trace-log PATH\n{}", usage()));
        }
    }
    Ok(Cli {
        experiments,
        options,
        format,
        serve,
        shard,
        profiles,
        failure_models,
        trace_log,
    })
}

fn usage() -> String {
    "usage: reproduce <experiment...> [--paper|--smoke] [--no-sim] [--csv] [--seed N] \
     [--threads N] [--no-cache] [--profiles SPEC,...] \
     [--failure-models SPEC,...] [--shard I/N] \
     [--out PATH] [--resume] [--inputs CSV,...] [--addr HOST:PORT] [--cache-capacity N] \
     [--max-body BYTES] [--trace-log PATH] \
     [--coordinator [--lease-ms N]] [--worker-of HOST:PORT [--advertise HOST:PORT]]\n\
     experiments: table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 ablation engines extensions sweep \
     sweep-merge checks serve obs-report all\n\
     profile specs: amdahl:A powerlaw:S gustafson:A perfect (e.g. \
     --profiles amdahl:0.1,powerlaw:0.8)\n\
     failure-model specs: exp weibull:K shifted:D trace:PATH, rate-free (e.g. \
     --failure-models exp,weibull:0.7)\n\
     sharding: sweep --shard 0/4 --out shard0.csv [--resume]; \
     sweep-merge --inputs shard0.csv,...,shard3.csv --out merged.csv\n\
     tracing: any experiment --trace-log trace.jsonl streams ayd-obs spans to the file; \
     obs-report --trace-log trace.jsonl renders the time-accounting tables"
        .to_string()
}

/// The file-backed `sweep --out` mode: runs one shard (default: the whole
/// grid as shard 0/1) into the CSV + `.manifest` sidecar pair, resuming an
/// interrupted run when asked. A human-readable progress summary goes to
/// stdout; the canonical bytes live in the file.
fn run_sweep_to_files(cli: &Cli, out: &std::path::Path) -> Result<(), String> {
    let grid = sweep::demo_grid_with_axes(
        cli.options.simulate,
        cli.profiles.as_deref(),
        cli.failure_models.as_deref(),
    );
    let shard = cli.shard.shard.unwrap_or(ayd_sweep::ShardSpec::WHOLE);
    let executor = ayd_sweep::SweepExecutor::new(ayd_sweep::SweepOptions::new(cli.options));
    let report =
        ayd_sweep::run_shard_to_files(&executor, &grid, shard, out, cli.shard.resume, None)
            .map_err(|e| format!("sweep: {e}"))?;
    println!(
        "sweep shard {shard}: {} of {} grid cells ({} resumed, {} evaluated) -> {}",
        report.shard_cells,
        grid.len(),
        report.resumed_rows,
        report.results.rows,
        out.display()
    );
    Ok(())
}

/// The `sweep-merge` experiment: loads every `--inputs` CSV with its sidecar
/// manifest, validates that they form one complete partition of one sweep,
/// and writes the deterministic merge (byte-identical to an unsharded run)
/// to `--out`, with a completed whole-grid manifest alongside.
fn run_sweep_merge(cli: &Cli, out: &std::path::Path) -> Result<(), String> {
    let parts: Vec<ayd_sweep::ShardPart> = cli
        .shard
        .inputs
        .iter()
        .map(|path| ayd_sweep::ShardPart::load(path).map_err(|e| format!("sweep-merge: {e}")))
        .collect::<Result<_, String>>()?;
    let merged = ayd_sweep::merge_parts(&parts).map_err(|e| format!("sweep-merge: {e}"))?;
    // Atomic like every other shard artifact: a kill mid-write must never
    // leave a truncated merged CSV next to a manifest vouching for it.
    let mut tmp = out.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, &merged)
        .map_err(|e| format!("sweep-merge: write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, out).map_err(|e| {
        format!(
            "sweep-merge: rename {} -> {}: {e}",
            tmp.display(),
            out.display()
        )
    })?;
    // The merged output gets a whole-grid manifest, so it can itself be
    // validated (or fed onward) like any other shard artifact.
    let mut manifest = parts[0].manifest.clone();
    manifest.shard = ayd_sweep::ShardSpec::WHOLE;
    manifest.shard_cells = manifest.grid_cells;
    manifest.completed = manifest.grid_cells;
    manifest
        .write_atomic(&ayd_sweep::manifest_path(out))
        .map_err(|e| format!("sweep-merge: {e}"))?;
    println!(
        "sweep-merge: {} shards, {} rows -> {}",
        parts.len(),
        manifest.grid_cells,
        out.display()
    );
    Ok(())
}

/// Runs the `ayd-serve` query service until the process is killed. The bound
/// address goes to stdout first (and is flushed), so scripts can start the
/// server on an ephemeral port and parse where it landed.
fn run_serve(cli: &Cli) -> Result<(), String> {
    let mut config = ayd_serve::ServerConfig::default();
    if let Some(addr) = &cli.serve.addr {
        config.addr = addr.clone();
    }
    if let Some(threads) = cli.options.threads {
        config.threads = threads;
    }
    if let Some(capacity) = cli.serve.cache_capacity {
        config.cache_capacity = capacity;
    }
    if let Some(max_body) = cli.serve.max_body {
        config.limits.max_body = max_body;
    }
    config.cluster.coordinator = cli.serve.coordinator;
    config.cluster.worker_of = cli.serve.worker_of.clone();
    config.cluster.advertise = cli.serve.advertise.clone();
    if let Some(lease_ms) = cli.serve.lease_ms {
        config.cluster.lease = std::time::Duration::from_millis(lease_ms);
    }
    config.run = cli.options;
    let server = ayd_serve::Server::bind(config).map_err(|e| format!("serve: bind failed: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("serve: no local address: {e}"))?;
    println!("ayd-serve listening on http://{addr}");
    // Kept for scripts that record the serving core (the benchmark's env
    // block, CI's high-concurrency step); the epoll reactors are the only one.
    println!("ayd-serve io model: event");
    if cli.serve.coordinator {
        println!(
            "ayd-serve role: coordinator (lease {} ms)",
            cli.serve.lease_ms.unwrap_or(3000)
        );
    } else if let Some(coordinator) = &cli.serve.worker_of {
        println!("ayd-serve role: worker of http://{coordinator}");
    }
    std::io::stdout().flush().expect("flush stdout");
    server.serve().map_err(|e| format!("serve: {e}"))
}

/// The `obs-report` experiment: parses a `--trace-log` file back into span
/// records and renders the paper-style time-accounting tables (per-endpoint
/// request stages that sum to the total, sweep execution).
fn run_obs_report(cli: &Cli) -> Result<(), String> {
    let path = cli
        .trace_log
        .as_ref()
        .expect("parse_args enforces --trace-log for obs-report");
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("obs-report: read {}: {e}", path.display()))?;
    let spans = ayd_exp::obsreport::parse_trace_log(&text)
        .map_err(|e| format!("obs-report: {}: {e}", path.display()))?;
    let accounting = ayd_exp::obsreport::account(&spans);
    emit(cli.format, ayd_exp::obsreport::render(&accounting));
    Ok(())
}

/// Writes the tables to stdout in the requested format (CSV title lines are
/// emitted as `#` comments, so stdout stays machine-parseable).
fn emit(format: OutputFormat, tables: Vec<TextTable>) {
    let mut out = std::io::stdout().lock();
    for table in tables {
        match format {
            OutputFormat::Text => {
                writeln!(out, "{}", table.render()).expect("write to stdout failed");
            }
            OutputFormat::Csv => {
                writeln!(out, "# {}", table.title()).expect("write to stdout failed");
                writeln!(out, "{}", table.to_csv()).expect("write to stdout failed");
            }
        }
    }
}

/// Writes sweep results in the *canonical* sweep CSV (full precision,
/// golden-pinned header from `ayd_sweep::CSV_HEADER`) rather than the rounded
/// table export — machine consumers of `sweep --csv` get the same bytes the
/// golden test pins.
fn emit_sweep_csv_to(results: &ayd_sweep::SweepResults, out: &mut dyn Write) {
    writeln!(out, "# Scenario sweep — {} cells", results.rows.len())
        .expect("write to stdout failed");
    write!(out, "{}", results.to_csv()).expect("write to stdout failed");
}

fn run_experiment(name: &str, cli: &Cli) -> Result<(), String> {
    let options = &cli.options;
    let format = cli.format;
    match name {
        "table2" => {
            let data = tables::table2();
            emit(format, vec![tables::render_table2(&data)]);
        }
        "table3" => {
            let data = tables::table3();
            emit(format, vec![tables::render_table3(&data)]);
        }
        "fig2" => {
            let data = figure2::run(options);
            emit(format, vec![figure2::render(&data)]);
        }
        "fig3" => {
            let data = figure3::run(options);
            emit(format, vec![figure3::render(&data)]);
        }
        "fig4" => {
            let data = figure4::run(options);
            emit(format, vec![figure4::render(&data)]);
        }
        "fig5" => {
            let data = figure5::run(options);
            emit(
                format,
                vec![figure5::render(&data), figure5::render_slopes(&data)],
            );
        }
        "fig6" => {
            let data = figure6::run(options);
            emit(
                format,
                vec![figure6::render(&data), figure6::render_slopes(&data)],
            );
        }
        "fig7" => {
            let data = figure7::run(options);
            emit(format, vec![figure7::render(&data)]);
        }
        "ablation" => {
            let data = ablation::run_first_order_gap(options);
            emit(format, vec![ablation::render_first_order_gap(&data)]);
        }
        "engines" => {
            let data = ablation::run_engine_comparison(options);
            emit(format, vec![ablation::render_engine_comparison(&data)]);
        }
        "extensions" => {
            let data = extensions::run(options);
            emit(format, vec![extensions::render(&data)]);
        }
        "sweep" => match &cli.shard.out {
            Some(out) => run_sweep_to_files(cli, out)?,
            None => {
                let results = sweep::run_with_axes(
                    options,
                    cli.profiles.as_deref(),
                    cli.failure_models.as_deref(),
                );
                match format {
                    OutputFormat::Text => {
                        let mut tables = vec![sweep::render(&results)];
                        // Non-exponential cells carry simulations under the
                        // true law; report how far the exponential analytics
                        // drift from them.
                        let misspec = sweep::misspecification(&results);
                        if !misspec.is_empty() {
                            tables.push(sweep::render_misspecification(&misspec));
                        }
                        emit(format, tables)
                    }
                    OutputFormat::Csv => emit_sweep_csv_to(&results, &mut std::io::stdout().lock()),
                }
            }
        },
        "sweep-merge" => {
            let out = cli
                .shard
                .out
                .as_ref()
                .expect("parse_args enforces --out for sweep-merge");
            run_sweep_merge(cli, out)?
        }
        "serve" => run_serve(cli)?,
        "obs-report" => run_obs_report(cli)?,
        "checks" => {
            // The slope checks do not need simulation; force it off for speed.
            let analytic = RunOptions {
                simulate: false,
                ..*options
            };
            let fig5 = figure5::run(&analytic);
            let fig6 = figure6::run(&analytic);
            let checks = report::headline_checks(&fig5, &fig6);
            let table =
                report::render_checks("Headline shape checks (paper vs reproduction)", &checks);
            emit(format, vec![table]);
        }
        "all" => {
            for experiment in ALL_EXPERIMENTS {
                run_experiment(experiment, cli)?;
            }
        }
        other => return Err(format!("unknown experiment `{other}`\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // Install the JSON-lines trace sink before anything runs (obs-report
    // *reads* the file instead). Tracing is enabled ring-only by default in
    // the server; the CLI turns recording on exactly when a sink wants the
    // spans, so a sink-less run records nothing.
    let tracing = cli.trace_log.is_some() && cli.experiments.iter().all(|e| e != "obs-report");
    if tracing {
        let path = cli.trace_log.as_ref().expect("checked above");
        match ayd_obs::JsonLinesSink::create(path) {
            Ok(sink) => {
                ayd_obs::set_sink(Some(std::sync::Arc::new(sink)));
                ayd_obs::enable();
            }
            Err(error) => {
                eprintln!("--trace-log: create {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for experiment in &cli.experiments {
        if let Err(message) = run_experiment(experiment, &cli) {
            eprintln!("{message}");
            if tracing {
                ayd_obs::flush();
                ayd_obs::set_sink(None);
            }
            return ExitCode::FAILURE;
        }
    }
    if tracing {
        // Drain thread buffers and the process ring through the sink, then
        // detach it so its BufWriter flushes on drop.
        ayd_obs::flush();
        ayd_obs::set_sink(None);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_experiments_and_flags() {
        let cli = parse_args(&strings(&[
            "fig2", "fig5", "--no-sim", "--csv", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(cli.experiments, vec!["fig2", "fig5"]);
        assert!(!cli.options.simulate);
        assert_eq!(cli.options.seed, 7);
        assert_eq!(cli.format, OutputFormat::Csv);
        assert_eq!(cli.options.threads, None);
        assert!(cli.options.cache);
    }

    #[test]
    fn parses_sweep_flags() {
        let cli = parse_args(&strings(&["sweep", "--threads", "2", "--no-cache"])).unwrap();
        assert_eq!(cli.options.threads, Some(2));
        assert!(!cli.options.cache);
        assert!(parse_args(&strings(&["sweep", "--threads", "0"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--threads"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--threads", "x"])).is_err());
    }

    #[test]
    fn parses_profile_specs() {
        let cli = parse_args(&strings(&[
            "sweep",
            "--profiles",
            "amdahl:0.1,powerlaw:0.8,gustafson:0.05,perfect",
        ]))
        .unwrap();
        let profiles = cli.profiles.unwrap();
        assert_eq!(profiles.len(), 4);
        assert_eq!(profiles[0], ayd_core::SpeedupProfile::amdahl(0.1).unwrap());
        assert_eq!(profiles[3], ayd_core::SpeedupProfile::perfectly_parallel());
        // Every other experiment leaves the override unset.
        assert!(parse_args(&strings(&["fig2"])).unwrap().profiles.is_none());
        // Malformed specs are rejected with the offending spec named.
        let err = parse_args(&strings(&["sweep", "--profiles", "amdahl:2"])).unwrap_err();
        assert!(err.contains("amdahl:2"), "{err}");
        assert!(parse_args(&strings(&["sweep", "--profiles", ""])).is_err());
        assert!(parse_args(&strings(&["sweep", "--profiles"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--profiles", "bogus"])).is_err());
    }

    #[test]
    fn parses_failure_model_specs() {
        let cli = parse_args(&strings(&[
            "sweep",
            "--failure-models",
            "exp,weibull:0.7,shifted:600",
        ]))
        .unwrap();
        let models = cli.failure_models.unwrap();
        assert_eq!(models.len(), 3);
        assert_eq!(models[0], ayd_core::FailureModelSpec::exponential());
        assert_eq!(models[1], ayd_core::FailureModelSpec::weibull(0.7).unwrap());
        assert_eq!(
            models[2],
            ayd_core::FailureModelSpec::shifted(600.0).unwrap()
        );
        // Every other experiment leaves the override unset.
        assert!(parse_args(&strings(&["fig2"]))
            .unwrap()
            .failure_models
            .is_none());
        // Malformed specs are rejected with the offending spec named; so are
        // specs that pin an explicit rate (the grid's λ axis owns the rate).
        let err = parse_args(&strings(&["sweep", "--failure-models", "weibull:0"])).unwrap_err();
        assert!(err.contains("weibull:0"), "{err}");
        let err = parse_args(&strings(&["sweep", "--failure-models", "exp:1e-8"])).unwrap_err();
        assert!(err.contains("lambda axis"), "{err}");
        assert!(parse_args(&strings(&["sweep", "--failure-models", ""])).is_err());
        assert!(parse_args(&strings(&["sweep", "--failure-models"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--failure-models", "gamma:2"])).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let cli = parse_args(&strings(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cache-capacity",
            "1024",
            "--max-body",
            "4096",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(cli.experiments, vec!["serve"]);
        assert_eq!(cli.serve.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.serve.cache_capacity, Some(1024));
        assert_eq!(cli.serve.max_body, Some(4096));
        assert_eq!(cli.options.threads, Some(2));
        assert!(parse_args(&strings(&["serve", "--cache-capacity", "0"])).is_err());
        assert!(parse_args(&strings(&["serve", "--addr"])).is_err());
        assert!(parse_args(&strings(&["serve", "--max-body", "x"])).is_err());
        // The serve flags default to "unset" for every other experiment.
        assert_eq!(
            parse_args(&strings(&["fig2"])).unwrap().serve,
            ServeArgs::default()
        );
    }

    #[test]
    fn parses_cluster_roles() {
        let cli = parse_args(&strings(&["serve", "--coordinator", "--lease-ms", "500"])).unwrap();
        assert!(cli.serve.coordinator);
        assert_eq!(cli.serve.lease_ms, Some(500));

        let cli = parse_args(&strings(&[
            "serve",
            "--worker-of",
            "127.0.0.1:8080",
            "--advertise",
            "10.0.0.2:8081",
        ]))
        .unwrap();
        assert_eq!(cli.serve.worker_of.as_deref(), Some("127.0.0.1:8080"));
        assert_eq!(cli.serve.advertise.as_deref(), Some("10.0.0.2:8081"));

        // One process plays one role, and the tuning flags belong to it.
        assert!(parse_args(&strings(&["serve", "--coordinator", "--worker-of", "h:1"])).is_err());
        assert!(parse_args(&strings(&["serve", "--lease-ms", "500"])).is_err());
        assert!(parse_args(&strings(&["serve", "--advertise", "h:1"])).is_err());
        assert!(parse_args(&strings(&["serve", "--lease-ms", "5", "--coordinator"])).is_err());
        assert!(parse_args(&strings(&["fig2", "--coordinator"])).is_err());
        assert!(parse_args(&strings(&["serve", "--worker-of"])).is_err());
    }

    #[test]
    fn paper_and_smoke_set_fidelity() {
        assert_eq!(
            parse_args(&strings(&["fig2", "--paper"]))
                .unwrap()
                .options
                .fidelity,
            Fidelity::Paper
        );
        assert_eq!(
            parse_args(&strings(&["fig2", "--smoke"]))
                .unwrap()
                .options
                .fidelity,
            Fidelity::Smoke
        );
    }

    #[test]
    fn rejects_unknown_flags_and_empty_invocations() {
        assert!(parse_args(&strings(&["fig2", "--bogus"])).is_err());
        // There is one search, so `--search` is an unknown flag.
        let err = parse_args(&strings(&["sweep", "--search", "fast"])).unwrap_err();
        assert!(err.contains("unknown flag `--search`"), "{err}");
        // `--csv` is the one machine format; `--json` is an unknown flag.
        let err = parse_args(&strings(&["table2", "--json"])).unwrap_err();
        assert!(err.contains("unknown flag `--json`"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        assert!(parse_args(&strings(&[])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["fig2", "--seed", "abc"])).is_err());
    }

    fn test_cli(names: &[&str]) -> Cli {
        Cli {
            experiments: names.iter().map(|s| s.to_string()).collect(),
            options: RunOptions {
                simulate: false,
                threads: Some(2),
                ..RunOptions::smoke()
            },
            format: OutputFormat::Text,
            serve: ServeArgs::default(),
            shard: ShardArgs::default(),
            profiles: None,
            failure_models: None,
            trace_log: None,
        }
    }

    #[test]
    fn parses_shard_flags() {
        let cli = parse_args(&strings(&[
            "sweep", "--shard", "1/4", "--out", "s1.csv", "--resume",
        ]))
        .unwrap();
        assert_eq!(
            cli.shard.shard,
            Some(ayd_sweep::ShardSpec { index: 1, count: 4 })
        );
        assert_eq!(
            cli.shard.out.as_deref(),
            Some(std::path::Path::new("s1.csv"))
        );
        assert!(cli.shard.resume);
        // Shard coordinates are validated at parse time…
        assert!(parse_args(&strings(&["sweep", "--shard", "4/4", "--out", "x"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--shard", "nope", "--out", "x"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--shard"])).is_err());
        // …and --shard/--resume are meaningless without a file target.
        assert!(parse_args(&strings(&["sweep", "--shard", "0/2"])).is_err());
        assert!(parse_args(&strings(&["sweep", "--resume"])).is_err());
        // The shard/file flags are rejected (not silently dropped) on
        // experiments that never read them.
        let err =
            parse_args(&strings(&["checks", "--shard", "0/2", "--out", "x.csv"])).unwrap_err();
        assert!(err.contains("only apply to sweep"), "{err}");
        assert!(parse_args(&strings(&["fig2", "--out", "x.csv"])).is_err());
        // `all` includes sweep, so a file target is legitimate there.
        assert!(parse_args(&strings(&["all", "--out", "x.csv"])).is_ok());
        // Stdout format flags are meaningless (and silently dropped) in file
        // mode, and sweep+sweep-merge would clobber one another's --out.
        assert!(parse_args(&strings(&["sweep", "--out", "x.csv", "--csv"])).is_err());
        let err = parse_args(&strings(&[
            "sweep-merge",
            "sweep",
            "--inputs",
            "a.csv",
            "--out",
            "m.csv",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
    }

    #[test]
    fn sweep_merge_arguments_are_validated() {
        let cli = parse_args(&strings(&[
            "sweep-merge",
            "--inputs",
            "a.csv,b.csv",
            "--out",
            "m.csv",
        ]))
        .unwrap();
        assert_eq!(cli.shard.inputs.len(), 2);
        assert!(parse_args(&strings(&["sweep-merge", "--out", "m.csv"])).is_err());
        assert!(parse_args(&strings(&["sweep-merge", "--inputs", "a.csv"])).is_err());
        assert!(parse_args(&strings(&["sweep-merge", "--inputs", ",", "--out", "m"])).is_err());
        // --inputs on any other experiment is rejected.
        assert!(parse_args(&strings(&["sweep", "--inputs", "a.csv"])).is_err());
    }

    #[test]
    fn parses_trace_log_and_obs_report() {
        // --trace-log as a sink on a running experiment…
        let cli = parse_args(&strings(&["sweep", "--trace-log", "t.jsonl"])).unwrap();
        assert_eq!(
            cli.trace_log.as_deref(),
            Some(std::path::Path::new("t.jsonl"))
        );
        // …and as the input of the standalone report.
        let cli = parse_args(&strings(&["obs-report", "--trace-log", "t.jsonl"])).unwrap();
        assert_eq!(cli.experiments, vec!["obs-report"]);
        assert!(parse_args(&strings(&["sweep", "--trace-log"])).is_err());
        // obs-report needs the log and cannot share an invocation with the
        // experiments that would be writing it.
        let err = parse_args(&strings(&["obs-report"])).unwrap_err();
        assert!(err.contains("requires --trace-log"), "{err}");
        let err =
            parse_args(&strings(&["sweep", "obs-report", "--trace-log", "t.jsonl"])).unwrap_err();
        assert!(err.contains("only experiment"), "{err}");
        // `all` keeps excluding the standalone experiments.
        assert!(!ALL_EXPERIMENTS.contains(&"obs-report"));
    }

    #[test]
    fn obs_report_renders_accounting_tables_from_a_log() {
        let dir = std::env::temp_dir().join("ayd-obs-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let records = [
            ayd_obs::SpanRecord {
                trace: 0xfeed,
                id: 1,
                parent: 0,
                name: "request",
                start_ns: 0,
                duration_ns: 1_000,
                fields: vec![("endpoint", ayd_obs::FieldValue::Str("optimize".to_string()))],
            },
            ayd_obs::SpanRecord {
                trace: 0xfeed,
                id: 2,
                parent: 1,
                name: "parse",
                start_ns: 0,
                duration_ns: 990,
                fields: vec![],
            },
        ];
        let log: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
        std::fs::write(&path, log).unwrap();
        let mut cli = test_cli(&["obs-report"]);
        cli.trace_log = Some(path.clone());
        run_obs_report(&cli).unwrap();
        // A malformed log fails with the path and line named.
        std::fs::write(&path, "not json\n").unwrap();
        let err = run_obs_report(&cli).unwrap_err();
        assert!(err.contains("trace line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_experiments_fail_at_parse_time_with_usage() {
        let err = parse_args(&strings(&["sweep", "bogus-experiment"])).unwrap_err();
        assert!(
            err.contains("unknown experiment `bogus-experiment`"),
            "{err}"
        );
        assert!(err.contains("usage:"), "{err}");
        let err = parse_args(&strings(&["sweep", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag `--bogus`"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(run_experiment("fig999", &test_cli(&["fig999"])).is_err());
    }

    #[test]
    fn table_experiments_run_quickly() {
        let mut cli = test_cli(&["table2"]);
        run_experiment("table2", &cli).unwrap();
        cli.format = OutputFormat::Csv;
        run_experiment("table3", &cli).unwrap();
    }

    #[test]
    fn sweep_csv_output_uses_the_canonical_full_precision_format() {
        let options = RunOptions {
            simulate: false,
            threads: Some(2),
            ..RunOptions::smoke()
        };
        let results = sweep::run(&options);
        let mut out: Vec<u8> = Vec::new();
        emit_sweep_csv_to(&results, &mut out);
        let out = String::from_utf8(out).unwrap();
        let mut lines = out.lines();
        assert!(lines.next().unwrap().starts_with("# Scenario sweep — "));
        // The golden-pinned header, not the rounded TextTable export.
        assert_eq!(lines.next().unwrap(), ayd_sweep::CSV_HEADER);
        assert_eq!(out.lines().count(), 2 + results.rows.len());
    }
}
