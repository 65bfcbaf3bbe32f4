//! Campaign + replay-throughput benchmark with a tracked trajectory.
//!
//! Runs the quick campaigns serially and at `--jobs N` (asserting the
//! outputs are byte-identical), measures single-thread replay throughput
//! three ways — full walk on every access, the streamed same-page fast
//! path, and the batched block engine (struct-of-arrays decode + summary
//! table + run-length settlement) — asserting all three reports are
//! field-identical, and appends one entry to `BENCH_campaign.json` so
//! the performance trajectory is tracked across commits.
//!
//! ```text
//! cargo run --release -p pmo-experiments --bin benchtrend
//! cargo run --release -p pmo-experiments --bin benchtrend -- --jobs 4 --out BENCH_campaign.json
//! ```
//!
//! Exits non-zero if any determinism or equivalence check fails, or if
//! any replay row regresses more than [`GATE_TOLERANCE`] against the last
//! recorded entry measured at the same host parallelism (the regression
//! gate prints a delta table either way).

// This binary *is* the wall-clock harness: it times deterministic runs
// and stamps the trajectory, so the clock reads the determinism wall
// bans elsewhere are its entire purpose.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use pmo_experiments::faultsim::FaultsimConfig;
use pmo_experiments::predict::PredictConfig;
use pmo_experiments::refine::RefineConfig;
use pmo_experiments::soak::SoakConfig;
use pmo_experiments::{faultsim, predict, refine, soak, table5, table6, RunOptions, Scale};
use pmo_protect::SchemeKind;
use pmo_sim::{Replay, ReplayReport};
use pmo_simarch::SimConfig;
use pmo_trace::{block, BlockTrace, RecordedTrace, TraceSource};
use pmo_workloads::{MicroBench, MicroConfig, MicroWorkload, Workload};

/// Replay-throughput measurement repetitions (best-of to damp noise).
const REPS: u32 = 3;

/// Allowed per-row events/sec regression against the previous trajectory
/// entry before the gate fails the run.
const GATE_TOLERANCE: f64 = 0.10;

struct CampaignRow {
    name: &'static str,
    wall_jobs1: u64,
    wall_jobsn: u64,
}

/// Times `render(jobs)` at 1 and `jobs` workers and asserts the two
/// serialized outputs are byte-identical.
fn time_campaign(name: &'static str, jobs: usize, render: impl Fn(usize) -> String) -> CampaignRow {
    let started = Instant::now();
    let serial = render(1);
    let wall_jobs1 = started.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let parallel = render(jobs);
    let wall_jobsn = started.elapsed().as_nanos() as u64;
    assert_eq!(serial, parallel, "{name}: --jobs {jobs} output diverged from --jobs 1");
    println!(
        "campaign {name:<16} jobs=1 {:>8.1} ms   jobs={jobs} {:>8.1} ms   speedup {:.2}x",
        wall_jobs1 as f64 / 1e6,
        wall_jobsn as f64 / 1e6,
        wall_jobs1 as f64 / wall_jobsn as f64,
    );
    CampaignRow { name, wall_jobs1, wall_jobsn }
}

/// The two replay-throughput traces: a pointer-chasing AVL sweep over 32
/// PMOs (adversarial for the fast path — low same-page locality, lots of
/// cache and TLB misses) and a string-swap array workload (the paper's
/// common case — long runs of same-domain, same-page accesses).
fn replay_traces() -> Vec<(&'static str, RecordedTrace)> {
    let record = |bench, pmos, initial_nodes, ops| {
        let config = MicroConfig {
            pmos,
            active_pmos: pmos,
            pmo_bytes: 8 << 20,
            initial_nodes,
            ops,
            insert_pct: 90,
            value_bytes: 64,
            seed: 0xbe9c,
        };
        let mut workload = MicroWorkload::new(bench, config);
        let mut trace = RecordedTrace::new();
        workload.setup(&mut trace);
        workload.run(&mut trace);
        trace
    };
    vec![
        ("pointer-chase", record(MicroBench::Avl, 32, 64, 20_000)),
        ("string-swap", record(MicroBench::StringSwap, 4, 64, 150_000)),
    ]
}

struct ReplayRow {
    trace: &'static str,
    scheme: SchemeKind,
    events: u64,
    wall_walk: u64,
    wall_fast: u64,
}

/// Asserts a timed replay produced a clean, untruncated report.
fn assert_clean(kind: SchemeKind, report: &ReplayReport) {
    // Benchmark traces are fault-free by construction: a faulting (or
    // fault-log-truncated) replay means the trajectory entry would be
    // timing a broken run, so fail loudly instead of recording it.
    assert!(
        !report.faulted() && report.fault_log_complete(),
        "[{kind}] timed replay faulted: {} faults ({} dropped from the log)",
        report.scheme_stats.faults,
        report.faults_dropped,
    );
}

/// Best-of-`REPS` wall times replaying the trace under `kind`: the full
/// walk (fast path off, streamed events) as the slow lane, the batched
/// block engine as the fast lane. The streamed fast path is run once,
/// untimed, so all three reports can be asserted field-identical.
fn time_replay(
    trace: &RecordedTrace,
    blocks: &BlockTrace,
    kind: SchemeKind,
) -> (u64, u64, ReplayReport) {
    let sim = SimConfig::isca2020();
    let mut best_walk = u64::MAX;
    let mut report_walk = None;
    for _ in 0..REPS {
        let mut replay = Replay::new(kind, &sim);
        replay.set_fast_path(false);
        let started = Instant::now();
        trace.replay(&mut replay);
        let report = replay.finish();
        best_walk = best_walk.min(started.elapsed().as_nanos() as u64);
        assert_clean(kind, &report);
        report_walk = Some(report);
    }
    let mut best_fast = u64::MAX;
    let mut report_fast = None;
    for _ in 0..REPS {
        let mut replay = Replay::new(kind, &sim);
        let started = Instant::now();
        replay.replay_blocks(blocks);
        let report = replay.finish();
        best_fast = best_fast.min(started.elapsed().as_nanos() as u64);
        assert_clean(kind, &report);
        report_fast = Some(report);
    }
    let report_walk = report_walk.expect("at least one walk rep");
    let report_fast = report_fast.expect("at least one fast rep");
    assert_eq!(
        report_walk, report_fast,
        "[{kind}] batched block replay diverged from the full-walk report"
    );
    let mut streamed = Replay::new(kind, &sim);
    trace.replay(&mut streamed);
    assert_eq!(
        report_walk,
        streamed.finish(),
        "[{kind}] streamed fast-path replay diverged from the full-walk report"
    );
    (best_walk, best_fast, report_walk)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let jobs = RunOptions::from_args().jobs;
    let jobs = if args.iter().any(|a| a == "--jobs") { jobs } else { host_parallelism };
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_campaign.json".to_string());
    let sim = SimConfig::isca2020();
    println!("benchtrend: host parallelism {host_parallelism}, fanning with --jobs {jobs}\n");

    // Part 1: campaign wall clock, serial vs parallel, byte-identical.
    let soak_cfg = SoakConfig::for_scale(Scale::Quick);
    let refine_cfg = RefineConfig::for_scale(Scale::Quick);
    // Enumeration + DPOR throughput of the refine campaign, captured
    // from inside the timing closure so the worlds run exactly twice.
    let refine_programs = std::cell::Cell::new(0u64);
    let refine_schedules = std::cell::Cell::new(0u64);
    // Prediction-certification throughput, captured the same way.
    let predict_cfg = PredictConfig::for_scale(Scale::Quick);
    let predict_programs = std::cell::Cell::new(0u64);
    let predict_events = std::cell::Cell::new(0u64);
    let campaigns = [
        time_campaign("faultsim-quick", jobs, |j| {
            let cfg = FaultsimConfig::for_scale(Scale::Quick);
            faultsim::run_campaign(&cfg, j).to_json()
        }),
        time_campaign("soak-quick", jobs, |j| {
            let report = soak::run_soak(&soak_cfg, j);
            assert!(report.is_clean(), "soak-quick campaign must stay clean:\n{report}");
            report.to_json()
        }),
        time_campaign("refine-quick", jobs, |j| {
            let report = refine::run_campaign(&refine_cfg, j);
            assert!(report.is_clean(), "refine-quick campaign must stay clean:\n{report}");
            refine_programs.set(report.total_programs());
            refine_schedules.set(report.total_schedules());
            report.to_json()
        }),
        time_campaign("predict-quick", jobs, |j| {
            let report = predict::run_campaign(&predict_cfg, Scale::Quick, j);
            assert!(report.is_clean(), "predict-quick campaign must stay clean:\n{report}");
            predict_programs.set(report.total_programs());
            predict_events.set(report.total_events());
            report.to_json()
        }),
        time_campaign("table5-quick", jobs, |j| {
            let opts = RunOptions { jobs: j, ..RunOptions::default() };
            table5::table5(Scale::Quick, &sim, opts).to_string()
        }),
        time_campaign("table6-quick", jobs, |j| {
            let opts = RunOptions { jobs: j, ..RunOptions::default() };
            table6::table6(Scale::Quick, &sim, opts).to_string()
        }),
    ];

    // Part 2: single-thread replay throughput, radix/DTT/PT walk on every
    // access (streamed) vs the batched block engine, identical reports.
    let mut rows = Vec::new();
    for (label, trace) in &replay_traces() {
        println!();
        let blocks = block::block_trace_of(trace);
        for kind in SchemeKind::ALL {
            let (wall_walk, wall_fast, report) = time_replay(trace, &blocks, kind);
            let events = report.counts.events;
            println!(
                "replay {label:<14} {kind:<12} {events:>9} events   walk {:>7.1} ms   \
                 fast {:>7.1} ms   {:>5.1} -> {:>5.1} Mev/s   speedup {:.2}x",
                wall_walk as f64 / 1e6,
                wall_fast as f64 / 1e6,
                events as f64 * 1e3 / wall_walk as f64,
                events as f64 * 1e3 / wall_fast as f64,
                wall_walk as f64 / wall_fast as f64,
            );
            rows.push(ReplayRow { trace: label, scheme: kind, events, wall_walk, wall_fast });
        }
    }
    let total_events: u64 = rows.iter().map(|r| r.events).sum();
    let total_walk: u64 = rows.iter().map(|r| r.wall_walk).sum();
    let total_fast: u64 = rows.iter().map(|r| r.wall_fast).sum();
    let overall = total_walk as f64 / total_fast as f64;
    println!(
        "\nreplay overall: {:.1} -> {:.1} Mev/s, speedup {overall:.2}x",
        total_events as f64 * 1e3 / total_walk as f64,
        total_events as f64 * 1e3 / total_fast as f64,
    );

    // Regression gate: every replay row must hold its events/sec against
    // the last trajectory entry recorded at this host parallelism. On
    // failure the baseline entry is left as-is (nothing is appended), so
    // the next run is still measured against the last good numbers.
    if !regression_gate(&out, host_parallelism, &rows) {
        eprintln!(
            "benchtrend: replay throughput regression exceeds the {:.0}% tolerance",
            GATE_TOLERANCE * 100.0
        );
        return ExitCode::FAILURE;
    }

    // Part 3: append the trajectory entry.
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut entry = String::new();
    let _ = write!(
        entry,
        "{{\"unix_secs\":{unix_secs},\"git_sha\":{},\"host_parallelism\":{host_parallelism},\
         \"jobs\":{jobs},\"campaigns\":[",
        pmo_analyzer::json_string(&git_sha()),
    );
    for (i, c) in campaigns.iter().enumerate() {
        if i > 0 {
            entry.push(',');
        }
        let _ = write!(
            entry,
            "{{\"name\":\"{}\",\"wall_nanos_jobs1\":{},\"wall_nanos_jobsn\":{},\
             \"speedup\":{:.3}}}",
            c.name,
            c.wall_jobs1,
            c.wall_jobsn,
            c.wall_jobs1 as f64 / c.wall_jobsn as f64,
        );
    }
    // The soak's headline throughput: tenant-ops applied per wall second
    // across the whole multi-tenant campaign (64 tenants x 24 ops at
    // quick scale), at both job counts.
    let soak_row = campaigns.iter().find(|c| c.name == "soak-quick").expect("soak row");
    let soak_ops = soak_cfg.total_ops();
    let _ = write!(
        entry,
        "],\"soak\":{{\"tenants\":{},\"ops\":{},\"tenant_ops_per_sec_jobs1\":{:.0},\
         \"tenant_ops_per_sec_jobsn\":{:.0}}}",
        soak_cfg.tenants(),
        soak_ops,
        soak_ops as f64 * 1e9 / soak_row.wall_jobs1 as f64,
        soak_ops as f64 * 1e9 / soak_row.wall_jobsn as f64,
    );
    // The refine campaign's headline throughput: canonical programs
    // verified and DPOR-distinct schedules explored per wall second over
    // the exhaustive quick worlds, at both job counts.
    let refine_row = campaigns.iter().find(|c| c.name == "refine-quick").expect("refine row");
    let _ = write!(
        entry,
        ",\"refine\":{{\"programs\":{},\"schedules\":{},\
         \"programs_per_sec_jobs1\":{:.0},\"programs_per_sec_jobsn\":{:.0},\
         \"schedules_per_sec_jobs1\":{:.0},\"schedules_per_sec_jobsn\":{:.0}}}",
        refine_programs.get(),
        refine_schedules.get(),
        refine_programs.get() as f64 * 1e9 / refine_row.wall_jobs1 as f64,
        refine_programs.get() as f64 * 1e9 / refine_row.wall_jobsn as f64,
        refine_schedules.get() as f64 * 1e9 / refine_row.wall_jobs1 as f64,
        refine_schedules.get() as f64 * 1e9 / refine_row.wall_jobsn as f64,
    );
    // The prediction campaign's headline throughput: canonical programs
    // certified (sampled trace, predictive pass, witness certification)
    // and sampled-trace events analyzed per wall second, at both job
    // counts.
    let predict_row = campaigns.iter().find(|c| c.name == "predict-quick").expect("predict row");
    let _ = write!(
        entry,
        ",\"predict\":{{\"programs\":{},\"events\":{},\
         \"programs_per_sec_jobs1\":{:.0},\"programs_per_sec_jobsn\":{:.0},\
         \"events_per_sec_jobs1\":{:.0},\"events_per_sec_jobsn\":{:.0}}}",
        predict_programs.get(),
        predict_events.get(),
        predict_programs.get() as f64 * 1e9 / predict_row.wall_jobs1 as f64,
        predict_programs.get() as f64 * 1e9 / predict_row.wall_jobsn as f64,
        predict_events.get() as f64 * 1e9 / predict_row.wall_jobs1 as f64,
        predict_events.get() as f64 * 1e9 / predict_row.wall_jobsn as f64,
    );
    entry.push_str(",\"replay\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            entry.push(',');
        }
        let _ = write!(
            entry,
            "{{\"trace\":\"{}\",\"scheme\":\"{}\",\"events\":{},\"wall_nanos_walk\":{},\
             \"wall_nanos_fast\":{},\"events_per_sec_walk\":{:.0},\
             \"events_per_sec_fast\":{:.0},\"speedup\":{:.3}}}",
            r.trace,
            r.scheme,
            r.events,
            r.wall_walk,
            r.wall_fast,
            r.events as f64 * 1e9 / r.wall_walk as f64,
            r.events as f64 * 1e9 / r.wall_fast as f64,
            r.wall_walk as f64 / r.wall_fast as f64,
        );
    }
    let _ = write!(
        entry,
        "],\"replay_overall\":{{\"events\":{total_events},\
         \"events_per_sec_walk\":{:.0},\"events_per_sec_fast\":{:.0},\"speedup\":{overall:.3}}}}}",
        total_events as f64 * 1e9 / total_walk as f64,
        total_events as f64 * 1e9 / total_fast as f64,
    );
    if let Err(e) = append_entry(&out, &entry) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("appended trajectory entry to {out}");
    ExitCode::SUCCESS
}

/// A replay row parsed back out of a previous trajectory entry.
struct BaselineRow {
    trace: String,
    scheme: String,
    walk: f64,
    fast: f64,
}

/// Extracts one `"key":"value"` string field from a JSON object slice.
fn field_str(obj: &str, key: &str) -> Option<String> {
    let rest = obj.split(&format!("\"{key}\":\"")).nth(1)?;
    rest.split('"').next().map(str::to_string)
}

/// Extracts one numeric `"key":value` field from a JSON object slice.
fn field_f64(obj: &str, key: &str) -> Option<f64> {
    let rest = obj.split(&format!("\"{key}\":")).nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// The replay rows of the newest trajectory entry measured at this host
/// parallelism. The trajectory file is machine-written, one entry per
/// line, so a line-oriented field scan is exact — no JSON parser needed.
fn baseline_rows(path: &str, host_parallelism: usize) -> Option<Vec<BaselineRow>> {
    let body = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"host_parallelism\":{host_parallelism},");
    let line = body.lines().rev().find(|l| l.contains(&needle) && l.contains("\"replay\":["))?;
    let replay = line.split("\"replay\":[").nth(1)?.split(']').next()?;
    let mut rows = Vec::new();
    for obj in replay.split("},{") {
        rows.push(BaselineRow {
            trace: field_str(obj, "trace")?,
            scheme: field_str(obj, "scheme")?,
            walk: field_f64(obj, "events_per_sec_walk")?,
            fast: field_f64(obj, "events_per_sec_fast")?,
        });
    }
    Some(rows)
}

/// Compares every current replay row against the baseline entry and
/// prints the delta table; returns false if any lane of any row lost
/// more than [`GATE_TOLERANCE`] of its events/sec.
fn regression_gate(path: &str, host_parallelism: usize, rows: &[ReplayRow]) -> bool {
    let Some(baseline) = baseline_rows(path, host_parallelism) else {
        println!(
            "\nregression gate: no prior entry at host_parallelism {host_parallelism} \
             in {path}; skipping"
        );
        return true;
    };
    println!(
        "\nregression gate vs last entry at host_parallelism {host_parallelism} \
         (tolerance -{:.0}%):",
        GATE_TOLERANCE * 100.0
    );
    let mut ok = true;
    for r in rows {
        let scheme = r.scheme.to_string();
        let Some(b) = baseline.iter().find(|b| b.trace == r.trace && b.scheme == scheme) else {
            println!("  {:<14} {scheme:<12} new row (no baseline)", r.trace);
            continue;
        };
        let walk = r.events as f64 * 1e9 / r.wall_walk as f64;
        let fast = r.events as f64 * 1e9 / r.wall_fast as f64;
        for (lane, now, then) in [("walk", walk, b.walk), ("fast", fast, b.fast)] {
            let delta = now / then - 1.0;
            let fail = delta < -GATE_TOLERANCE;
            ok &= !fail;
            println!(
                "  {:<14} {scheme:<12} {lane}  {:>8.2} -> {:>8.2} Mev/s  {:>+6.1}%{}",
                r.trace,
                then / 1e6,
                now / 1e6,
                delta * 100.0,
                if fail { "  REGRESSION" } else { "" },
            );
        }
    }
    ok
}

/// The commit this entry measures, so the bench trajectory is
/// attributable per PR; `"unknown"` outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Appends `entry` to the JSON array in `path`, creating the file (or
/// restarting the array if the file isn't one) as needed.
fn append_entry(path: &str, entry: &str) -> std::io::Result<()> {
    let trimmed = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim_end().strip_suffix(']').map(|t| t.trim_end().to_string()));
    let body = match trimmed {
        Some(t) if t.ends_with('[') => format!("{t}\n  {entry}\n]\n"),
        Some(t) => format!("{t},\n  {entry}\n]\n"),
        None => format!("[\n  {entry}\n]\n"),
    };
    std::fs::write(path, body)
}
