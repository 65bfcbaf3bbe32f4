//! Shared replay drivers: run one workload under many schemes, windowing
//! the measurement to the operation phase (the paper measures steady
//! state, not population).
//!
//! Every run is statically audited by default: the trace is teed into a
//! [`pmo_analyzer`] permission-window pass alongside the simulator, and
//! an audit error is a harness bug (panic). Binaries parse `--no-audit`
//! and `--jobs N` into [`RunOptions`] at the CLI layer and thread the
//! options down explicitly — the library never sniffs `argv`.

use std::fmt;

use pmo_analyzer::{Analyzer, InspectPass, PermWindowPass};
use pmo_protect::SchemeKind;
use pmo_sim::{Replay, ReplayReport};
use pmo_simarch::SimConfig;
use pmo_trace::{block, RecordedTrace, TraceEvent, TraceSink};
use pmo_workloads::{
    MicroBench, MicroConfig, MicroWorkload, WhisperBench, WhisperConfig, WhisperWorkload, Workload,
};

use crate::pool::parallel_map;

/// How the shared drivers run: whether the permission audit tees along,
/// and how many worker threads fan independent cells out.
///
/// Results never depend on `jobs` — campaign cells are independent and
/// merged in canonical order, so any `jobs` value produces byte-identical
/// reports to `jobs = 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Tee the trace into the permission-window audit (on by default;
    /// `--no-audit` clears it).
    pub audit: bool,
    /// Worker threads for independent campaign cells (`--jobs N`;
    /// 1 = fully serial).
    pub jobs: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { audit: true, jobs: 1 }
    }
}

/// A malformed `--jobs` argument. The campaign binaries print it and
/// exit with status 2 rather than fall back to a serial run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RunOptionsError {
    /// `--jobs` was the last argument.
    MissingJobs,
    /// `--jobs` was followed by something other than a positive integer.
    InvalidJobs(String),
}

impl fmt::Display for RunOptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOptionsError::MissingJobs => f.write_str("--jobs needs a value"),
            RunOptionsError::InvalidJobs(v) => {
                write!(f, "--jobs expects a positive integer, got `{v}`")
            }
        }
    }
}

impl RunOptions {
    /// Parses `--no-audit` and `--jobs N` out of a full argument list
    /// (other arguments are left to the caller).
    ///
    /// # Errors
    ///
    /// Fails when `--jobs` has no value, or a value that is not a
    /// positive integer.
    pub(crate) fn parse(args: &[String]) -> Result<Self, RunOptionsError> {
        let jobs = match args.iter().position(|a| a == "--jobs") {
            None => 1,
            Some(i) => {
                let value = args.get(i + 1).ok_or(RunOptionsError::MissingJobs)?;
                match value.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => return Err(RunOptionsError::InvalidJobs(value.clone())),
                }
            }
        };
        Ok(RunOptions { audit: !args.iter().any(|a| a == "--no-audit"), jobs })
    }

    /// [`RunOptions::parse`] over the process arguments — the campaign
    /// binaries' CLI helper: on a malformed `--jobs` it prints the error
    /// and exits the process with status 2.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// This configuration with parallelism stripped — for nested drivers
    /// that already run inside a worker thread.
    #[must_use]
    pub fn serial(self) -> Self {
        RunOptions { jobs: 1, ..self }
    }
}

/// Tees each workload event into the replay, then forwards the event plus
/// any protocol events the scheme emitted while handling it (key-eviction
/// shootdowns) to the analyzer — so the audit sees the same shootdown
/// signal on the eviction path as on `pool_close`/attach-rollback.
struct AuditedSink<'a> {
    replay: &'a mut Replay,
    analyzer: &'a mut Analyzer,
}

impl TraceSink for AuditedSink<'_> {
    fn event(&mut self, ev: TraceEvent) {
        self.replay.event(ev);
        self.analyzer.event(ev);
        for protocol_ev in self.replay.drain_protocol_events() {
            self.analyzer.event(protocol_ev);
        }
    }
}

/// Runs `workload` under `kind`, returning the report windowed to the
/// measured (post-setup) phase.
///
/// # Panics
///
/// Panics if the workload raises any protection fault or fails the
/// permission-window audit: benchmark traces are permission-clean by
/// construction, so either is a harness bug.
pub fn run_windowed(
    workload: &mut dyn Workload,
    kind: SchemeKind,
    config: &SimConfig,
    opts: RunOptions,
) -> ReplayReport {
    if !opts.audit {
        return run_windowed_unaudited(workload, kind, config);
    }
    let name = workload.name();
    let mut replay = Replay::new(kind, config);
    // The multi-PMO baseline policy covers every workload family: no
    // window cap, held read grants allowed, unguarded accesses flagged.
    // Binary inspection of the trusted-monitor image rides along (ERIM's
    // static half): a key-update sequence outside the registered call
    // gate fails the audit like any other error.
    let mut analyzer = Analyzer::new(&name)
        .with_pass(PermWindowPass::baseline())
        .with_pass(InspectPass::standard());
    workload.setup(&mut AuditedSink { replay: &mut replay, analyzer: &mut analyzer });
    let snapshot = replay.snapshot();
    workload.run(&mut AuditedSink { replay: &mut replay, analyzer: &mut analyzer });
    let audit = analyzer.finish();
    assert!(audit.passed(), "[{kind}] {name}: permission audit failed:\n{audit}");
    assert!(
        audit.complete(),
        "[{kind}] {name}: permission audit truncated ({} finding(s) dropped)",
        audit.dropped()
    );
    let report = replay.finish().since(&snapshot);
    assert!(
        !report.faulted(),
        "[{kind}] {name}: {} protection faults ({} dropped from the log), first: {:?}",
        report.scheme_stats.faults,
        report.faults_dropped,
        report.faults.first()
    );
    report
}

/// [`run_windowed`] without the permission-window audit (what
/// `--no-audit` selects). The trace is recorded, block-encoded, and
/// replayed through the batched struct-of-arrays engine — the audited
/// path must stream (the analyzer tees protocol events per event), so
/// this is the campaign drivers' fast lane; the two paths are asserted
/// report-identical by the runner tests.
///
/// # Panics
///
/// Panics if the workload raises any protection fault.
pub fn run_windowed_unaudited(
    workload: &mut dyn Workload,
    kind: SchemeKind,
    config: &SimConfig,
) -> ReplayReport {
    let mut setup = RecordedTrace::new();
    workload.setup(&mut setup);
    let mut run = RecordedTrace::new();
    workload.run(&mut run);
    let mut replay = Replay::new(kind, config);
    replay.replay_blocks(&block::block_trace_of(&setup));
    let snapshot = replay.snapshot();
    replay.replay_blocks(&block::block_trace_of(&run));
    let report = replay.finish().since(&snapshot);
    assert!(
        !report.faulted(),
        "[{kind}] {}: {} protection faults ({} dropped from the log), first: {:?}",
        workload.name(),
        report.scheme_stats.faults,
        report.faults_dropped,
        report.faults.first()
    );
    report
}

/// Runs a fresh instance of a microbenchmark under every scheme in
/// `kinds` (same seed → same trace, the paper's methodology). Schemes
/// are independent cells, fanned across `opts.jobs` workers; reports
/// come back in `kinds` order regardless.
pub fn run_micro(
    bench: MicroBench,
    config: &MicroConfig,
    kinds: &[SchemeKind],
    sim: &SimConfig,
    opts: RunOptions,
) -> Vec<ReplayReport> {
    parallel_map(opts.jobs, kinds.to_vec(), |kind| {
        let mut workload = MicroWorkload::new(bench, config.clone());
        run_windowed(&mut workload, kind, sim, opts)
    })
}

/// Runs a fresh instance of a WHISPER benchmark under every scheme, one
/// independent cell per scheme across `opts.jobs` workers.
pub fn run_whisper(
    bench: WhisperBench,
    config: &WhisperConfig,
    kinds: &[SchemeKind],
    sim: &SimConfig,
    opts: RunOptions,
) -> Vec<ReplayReport> {
    parallel_map(opts.jobs, kinds.to_vec(), |kind| {
        let mut workload = WhisperWorkload::new(bench, config.clone());
        run_windowed(&mut workload, kind, sim, opts)
    })
}

/// Finds the report for `kind` in a `run_*` result.
///
/// # Panics
///
/// Panics if the scheme was not part of the run.
#[must_use]
pub fn report_for(reports: &[ReplayReport], kind: SchemeKind) -> &ReplayReport {
    reports.iter().find(|r| r.scheme == kind).unwrap_or_else(|| panic!("no report for {kind}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("bin").chain(list.iter().copied()).map(String::from).collect()
    }

    #[test]
    fn run_options_parse_jobs_and_audit() {
        assert_eq!(RunOptions::parse(&args(&[])), Ok(RunOptions { audit: true, jobs: 1 }));
        assert_eq!(
            RunOptions::parse(&args(&["--full", "--jobs", "4", "--no-audit"])),
            Ok(RunOptions { audit: false, jobs: 4 })
        );
    }

    #[test]
    fn run_options_reject_bad_jobs() {
        assert_eq!(RunOptions::parse(&args(&["--jobs"])), Err(RunOptionsError::MissingJobs));
        for bad in ["0", "-1", "four", "", "2.5", "--full"] {
            assert_eq!(
                RunOptions::parse(&args(&["--jobs", bad])),
                Err(RunOptionsError::InvalidJobs(bad.to_string())),
                "--jobs {bad:?}"
            );
        }
        assert_eq!(
            RunOptionsError::InvalidJobs("0".into()).to_string(),
            "--jobs expects a positive integer, got `0`"
        );
    }

    fn tiny_micro() -> MicroConfig {
        MicroConfig {
            pmos: 20,
            active_pmos: 20,
            pmo_bytes: 1 << 20,
            initial_nodes: 8,
            ops: 60,
            insert_pct: 90,
            value_bytes: 64,
            seed: 11,
        }
    }

    #[test]
    fn micro_runs_clean_under_all_schemes() {
        let sim = SimConfig::isca2020();
        let reports = run_micro(
            MicroBench::Avl,
            &tiny_micro(),
            &SchemeKind::ALL,
            &sim,
            RunOptions::default(),
        );
        assert_eq!(reports.len(), SchemeKind::ALL.len());
        for r in &reports {
            assert_eq!(r.ops, 60, "{}: windowed ops", r.scheme);
            assert!(r.cycles > 0);
        }
        // Identical traces: instruction-identical baseline events.
        let base = report_for(&reports, SchemeKind::Unprotected);
        let lb = report_for(&reports, SchemeKind::Lowerbound);
        assert_eq!(base.counts.loads, lb.counts.loads);
        assert_eq!(base.counts.stores, lb.counts.stores);
    }

    #[test]
    fn parallel_jobs_match_serial_byte_for_byte() {
        // The determinism contract of the campaign executor: reports from
        // a 4-worker fan-out equal the serial run field-for-field, and
        // their serialized forms are byte-identical.
        let sim = SimConfig::isca2020();
        let cfg = tiny_micro();
        let serial =
            run_micro(MicroBench::Avl, &cfg, &SchemeKind::ALL, &sim, RunOptions::default());
        let parallel = run_micro(
            MicroBench::Avl,
            &cfg,
            &SchemeKind::ALL,
            &sim,
            RunOptions { jobs: 4, ..RunOptions::default() },
        );
        assert_eq!(serial, parallel);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.to_json(), p.to_json());
            assert_eq!(format!("{s}"), format!("{p}"));
        }
    }

    #[test]
    fn whisper_runs_clean() {
        let sim = SimConfig::isca2020();
        let cfg =
            WhisperConfig { txns: 50, records: 128, pmo_bytes: 8 << 20, ..WhisperConfig::quick() };
        let reports = run_whisper(
            WhisperBench::Hashmap,
            &cfg,
            &[SchemeKind::Unprotected, SchemeKind::DefaultMpk, SchemeKind::DomainVirt],
            &sim,
            RunOptions { jobs: 2, ..RunOptions::default() },
        );
        let base = report_for(&reports, SchemeKind::Unprotected);
        let mpk = report_for(&reports, SchemeKind::DefaultMpk);
        assert!(mpk.cycles > base.cycles, "MPK adds WRPKRU cost");
    }

    #[test]
    fn windowing_excludes_population() {
        let sim = SimConfig::isca2020();
        let cfg = tiny_micro();
        let report = {
            let mut w = MicroWorkload::new(MicroBench::LinkedList, cfg.clone());
            run_windowed(&mut w, SchemeKind::Lowerbound, &sim, RunOptions::default())
        };
        // 2 switches per measured op only (population switches windowed out).
        assert_eq!(report.counts.set_perms, 2 * 60);
        assert_eq!(report.ops, 60);
    }

    #[test]
    fn unaudited_option_matches_unaudited_fn() {
        let sim = SimConfig::isca2020();
        let cfg = tiny_micro();
        let via_opts = {
            let mut w = MicroWorkload::new(MicroBench::Avl, cfg.clone());
            run_windowed(
                &mut w,
                SchemeKind::DomainVirt,
                &sim,
                RunOptions { audit: false, ..RunOptions::default() },
            )
        };
        let direct = {
            let mut w = MicroWorkload::new(MicroBench::Avl, cfg.clone());
            run_windowed_unaudited(&mut w, SchemeKind::DomainVirt, &sim)
        };
        assert_eq!(via_opts, direct);
    }
}
