//! `table6-quick`: the quick Table VI cell set through the repository's
//! public audited driver — five micro benches at 256 PMOs under
//! {unprotected, lowerbound, erim, dpti}, one cell per (bench, scheme),
//! run back to back on one thread.

use pmo_analyzer::{Analyzer, InspectPass, PermWindowPass};
use pmo_experiments::{run_windowed, RunOptions, Scale};
use pmo_protect::SchemeKind;
use pmo_sim::{Replay, ReplayReport};
use pmo_simarch::SimConfig;
use pmo_trace::NullSink;
use pmo_workloads::{MicroBench, MicroConfig, MicroWorkload, Workload};

use crate::harness::{median, ratio, timed, Digest, Metrics, Tally};
use crate::{time_setup, Outcome};

/// The Table VI schemes, in the order `table6::table6` runs them.
pub const KINDS: [SchemeKind; 4] =
    [SchemeKind::Unprotected, SchemeKind::Lowerbound, SchemeKind::Erim, SchemeKind::Dpti];

/// The quick Table VI micro configuration with the benchmark seed.
#[must_use]
pub fn quick_config(seed: u64) -> MicroConfig {
    MicroConfig { seed, ..Scale::Quick.micro_config(Scale::Quick.max_pmos()) }
}

/// Builds the workload one cell runs (a hook so tests can plant a
/// faulting workload into the real cell path).
pub type MakeWorkload<'a> = &'a dyn Fn(MicroBench) -> Box<dyn Workload>;

/// Runs one audited cell. The driver asserts on faults and audit
/// failures; the caller's [`Tally`] turns those panics into failed cells.
fn cell(
    tally: &mut Tally,
    make: MakeWorkload<'_>,
    bench: MicroBench,
    kind: SchemeKind,
    sim: &SimConfig,
) -> Option<ReplayReport> {
    tally.cell(&format!("{bench}/{kind}"), || {
        let mut workload = make(bench);
        let report =
            run_windowed(workload.as_mut(), kind, sim, RunOptions { audit: true, jobs: 1 });
        if report.faulted() || !report.fault_log_complete() {
            return Err(format!("{} faults", report.scheme_stats.faults));
        }
        Ok(report)
    })
}

/// One timed cell: bench, scheme, seconds, report (`None` if it failed).
type Sample = (MicroBench, SchemeKind, f64, Option<ReplayReport>);

/// One Table VI campaign: every (bench, scheme) cell with its seconds.
struct Pass {
    cells: Vec<Sample>,
}

/// Called after each bench's cells of a campaign, with those cells.
type Probe<'a> = &'a mut dyn FnMut(&mut Tally, &[Sample]);

fn campaign(tally: &mut Tally, make: MakeWorkload<'_>, sim: &SimConfig, probe: Probe<'_>) -> Pass {
    let mut cells = Vec::new();
    for bench in MicroBench::ALL {
        for kind in KINDS {
            let (secs, report) = timed(|| cell(tally, make, bench, kind, sim));
            cells.push((bench, kind, secs, report));
        }
        probe(tally, &cells[cells.len() - KINDS.len()..]);
    }
    Pass { cells }
}

/// Runs one full campaign, then keeps re-running its cells in campaign
/// order while the next one is expected to end within `seconds`. One
/// campaign takes most of a run, so this spreads the samples over the
/// whole budget instead of leaving its tail idle. `probe` sees the first
/// campaign. Returns the first campaign and the later samples.
fn fill(
    tally: &mut Tally,
    make: MakeWorkload<'_>,
    sim: &SimConfig,
    seconds: f64,
    probe: Probe<'_>,
) -> (Pass, Vec<Sample>) {
    let first = campaign(tally, make, sim, probe);
    let mut elapsed = first.secs();
    let mut extra: Vec<Sample> = Vec::new();
    'fill: loop {
        for &(bench, kind, secs, _) in &first.cells {
            if elapsed + secs > seconds {
                break 'fill;
            }
            let (secs, report) = timed(|| cell(tally, make, bench, kind, sim));
            elapsed += secs;
            extra.push((bench, kind, secs, report));
        }
    }
    (first, extra)
}

impl Pass {
    fn secs(&self) -> f64 {
        self.cells.iter().map(|c| c.2).sum()
    }

    /// Campaign turnaround from every sample: each cell's median seconds,
    /// summed over the cells.
    fn wall_with(&self, extra: &[Sample]) -> f64 {
        self.cells
            .iter()
            .map(|c| {
                let repeats = extra.iter().filter(|e| e.0 == c.0 && e.1 == c.1).map(|e| e.2);
                median(&std::iter::once(c.2).chain(repeats).collect::<Vec<_>>())
            })
            .sum()
    }

    fn events(&self) -> u64 {
        self.cells.iter().filter_map(|c| c.3.as_ref()).map(|r| r.counts.events).sum()
    }

    /// Digest of every simulated statistic of every cell, plus the
    /// Table VI rows derived from them.
    fn digest(&self, sim: &SimConfig) -> Digest {
        let mut d = Digest::default();
        for (bench, kind, _, report) in &self.cells {
            d.fold(&(bench, kind, report));
        }
        for row in self.rows(sim) {
            d.fold(&row);
        }
        d
    }

    fn report(&self, bench: MicroBench, kind: SchemeKind) -> Option<&ReplayReport> {
        self.cells.iter().find(|c| c.0 == bench && c.1 == kind).and_then(|c| c.3.as_ref())
    }

    /// Table VI rows (switches/s, lowerbound, ERIM and DPTI overhead %),
    /// assembled exactly as `table6::table6` does.
    fn rows(&self, sim: &SimConfig) -> Vec<(MicroBench, f64, f64, f64, f64)> {
        MicroBench::ALL
            .iter()
            .filter_map(|&bench| {
                let base = self.report(bench, SchemeKind::Unprotected)?;
                let lb = self.report(bench, SchemeKind::Lowerbound)?;
                let erim = self.report(bench, SchemeKind::Erim)?;
                let dpti = self.report(bench, SchemeKind::Dpti)?;
                Some((
                    bench,
                    lb.switches_per_sec(sim),
                    lb.overhead_pct_over(base),
                    erim.overhead_pct_over(base),
                    dpti.overhead_pct_over(base),
                ))
            })
            .collect()
    }

    /// Output checks: every cell windowed exactly `ops` operations, and
    /// the baseline and lowerbound replays saw the same loads and stores
    /// (one trace, many schemes).
    fn check(&self, tally: &mut Tally, ops: u64) {
        for (bench, kind, _, report) in &self.cells {
            if let Some(r) = report {
                tally.check(&format!("{bench}/{kind} windowed ops"), r.ops == ops);
            }
        }
        for bench in MicroBench::ALL {
            if let (Some(b), Some(l)) = (
                self.report(bench, SchemeKind::Unprotected),
                self.report(bench, SchemeKind::Lowerbound),
            ) {
                tally.check(
                    &format!("{bench} same trace under every scheme"),
                    b.counts.loads == l.counts.loads && b.counts.stores == l.counts.stores,
                );
            }
        }
    }
}

/// Set-up: the simulator configuration plus one warm-up audited cell per
/// (bench, scheme) on tiny instances, so every code path of the campaign
/// has run and allocator arenas are live before the timed body.
fn setup(tally: &mut Tally) {
    let sim = SimConfig::isca2020();
    let tiny = MicroConfig {
        pmos: 16,
        active_pmos: 16,
        initial_nodes: 16,
        ops: 200,
        ..MicroConfig::quick()
    };
    let make = |bench| Box::new(MicroWorkload::new(bench, tiny.clone())) as Box<dyn Workload>;
    let mut warm = Tally::default();
    campaign(&mut warm, &make, &sim, &mut |_, _| {});
    tally.check("warm-up cells", warm.correct());
}

/// Runs the workload: one campaign, then repeated cells up to `seconds`.
pub fn run(config: &MicroConfig, seconds: f64, traced: bool) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    time_setup(&mut setups, || setup(&mut tally));
    let sim = SimConfig::isca2020();
    let make = |bench| Box::new(MicroWorkload::new(bench, config.clone())) as Box<dyn Workload>;

    // The isolated layer calls of a traced run take about one campaign,
    // so a traced run leaves them half its budget.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let mut layers = Metrics::default();
    let mut probe = |tally: &mut Tally, cells: &[Sample]| {
        if traced {
            probe_layers(&mut layers, tally, config, &sim, cells);
        }
    };
    let (first, extra) = fill(&mut tally, &make, &sim, budget, &mut probe);
    time_setup(&mut setups, || setup(&mut tally));
    let mut out = Outcome::new("table6-quick", &setups);
    out.pass_s = vec![first.secs()];
    let wall = first.wall_with(&extra);
    for (bench, kind, _, report) in &extra {
        tally.check(
            &format!("{bench}/{kind} repeat matches the first campaign"),
            report.as_ref() == first.report(*bench, *kind),
        );
    }
    first.check(&mut tally, config.ops);
    out.digest = first.digest(&sim);
    out.lines.push(format!(
        "table6-quick: {} cell(s) per campaign, {} repeated after the first campaign",
        first.cells.len(),
        extra.len()
    ));
    for (bench, sw, lb, erim, dpti) in first.rows(&sim) {
        out.lines.push(format!(
            "  {:<4} switches/s {sw:>14.1}  lowerbound {lb:>8.3}%  erim {erim:>8.3}%  dpti {dpti:>8.3}%",
            bench.label()
        ));
    }
    out.wall_s = wall;
    out.sim_events_per_s = ratio(first.events() as f64, wall);

    if traced && tally.correct() {
        out.layers = layers;
        finish_layers(&mut out, &first);
    }
    out.finish(tally)
}

/// Per-layer self times of one bench. The campaign runs, for each of
/// the four schemes, generation teed into the audit and a streamed
/// replay. Each layer is timed here on its own: generation into a
/// `NullSink`, generation into the audit, generation into a streamed
/// replay; a layer's self time is its call minus the `NullSink` call.
/// The calls run right after the bench's cells, so that they see the
/// host's speed of the moment rather than that of the end of the run,
/// and only after clean cells, since they run outside the cell guard.
fn probe_layers(
    m: &mut Metrics,
    tally: &mut Tally,
    config: &MicroConfig,
    sim: &SimConfig,
    cells: &[Sample],
) {
    if cells.iter().any(|c| c.3.is_none()) {
        return;
    }
    let bench = cells[0].0;
    let fanout = KINDS.len() as f64;
    let (t_gen, ()) = timed(|| {
        let mut w = MicroWorkload::new(bench, config.clone());
        w.generate(&mut NullSink);
    });
    let (t_audit, audit) = timed(|| {
        let mut w = MicroWorkload::new(bench, config.clone());
        let mut analyzer = Analyzer::new(w.name())
            .with_pass(PermWindowPass::baseline())
            .with_pass(InspectPass::standard());
        w.generate(&mut analyzer);
        analyzer.finish()
    });
    tally.check(&format!("{bench} audit passed and complete"), audit.passed() && audit.complete());
    m.add("gen.self_s", fanout * t_gen);
    m.add("gen.events", fanout * audit.events as f64);
    m.add("audit.self_s", fanout * (t_audit - t_gen).max(0.0));
    m.add("audit.findings", fanout * (audit.diagnostics.len() as f64 + audit.dropped() as f64));
    m.add("audit.dropped", fanout * audit.dropped() as f64);
    for (_, kind, _, campaign) in cells {
        let kind = *kind;
        let (t_replay, (report, fast, summary)) = timed(|| {
            let mut w = MicroWorkload::new(bench, config.clone());
            let mut replay = Replay::new(kind, sim);
            w.setup(&mut replay);
            let snap = replay.snapshot();
            w.run(&mut replay);
            let hits = (replay.fast_path_hits(), replay.summary_hits());
            (replay.finish().since(&snap), hits.0, hits.1)
        });
        tally.check(
            &format!("{bench}/{kind} streamed replay equals the audited cell"),
            campaign.as_ref() == Some(&report),
        );
        let self_s = (t_replay - t_gen).max(0.0);
        crate::replay::note_scheme(m, kind, self_s, report.counts.events);
        crate::replay::note_lane(m, "streamed", self_s, report.counts.events);
        let group = if bench == MicroBench::StringSwap { "stream" } else { "chase" };
        crate::replay::note_lane(m, group, self_s, report.counts.events);
        crate::replay::note_hits(m, group, &report, fast, summary);
    }
}

/// Rates, simulated statistics, campaign spans and shares from the
/// per-bench layer times.
fn finish_layers(out: &mut Outcome, spans: &Pass) {
    let m = &mut out.layers;
    let layer = |m: &Metrics, name: &str| m.get(name).unwrap_or(0.0);
    let (gen_s, gen_events, audit_s) =
        (layer(m, "gen.self_s"), layer(m, "gen.events"), layer(m, "audit.self_s"));
    m.set("gen.events_per_s", ratio(gen_events, gen_s));
    m.set("audit.events_per_s", ratio(gen_events, audit_s));
    let replay_s = m.get("replay.streamed.self_s").unwrap_or(0.0);
    crate::replay::finalize_rates(m);
    crate::replay::sim_stats(m, spans.cells.iter().filter_map(|c| c.3.as_ref()));
    let cell_secs: Vec<f64> = spans.cells.iter().map(|c| c.2).collect();
    crate::campaign_spans(m, &cell_secs, out.wall_s, gen_s + audit_s + replay_s);
    out.shares.push(("gen".into(), gen_s));
    out.shares.push(("audit".into(), audit_s));
    out.shares.push(("replay".into(), replay_s));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmo_trace::{Perm, PmoId, TraceEvent, TraceSink};

    fn tiny() -> MicroConfig {
        MicroConfig { pmos: 8, active_pmos: 8, initial_nodes: 8, ops: 40, ..MicroConfig::quick() }
    }

    /// A micro workload that, after its measured operations, drops the
    /// first PMO it attached to no access and stores into it.
    struct Planted {
        inner: MicroWorkload,
        first: Option<(PmoId, u64)>,
    }

    /// Forwards events, remembering the first attached PMO and its base.
    struct Spy<'a> {
        inner: &'a mut dyn TraceSink,
        first: &'a mut Option<(PmoId, u64)>,
    }

    impl TraceSink for Spy<'_> {
        fn event(&mut self, ev: TraceEvent) {
            if let TraceEvent::Attach { pmo, base, .. } = ev {
                self.first.get_or_insert((pmo, base));
            }
            self.inner.event(ev);
        }
    }

    impl Workload for Planted {
        fn name(&self) -> String {
            format!("planted-{}", self.inner.name())
        }
        fn setup(&mut self, sink: &mut dyn TraceSink) {
            self.inner.setup(&mut Spy { inner: sink, first: &mut self.first });
        }
        fn run(&mut self, sink: &mut dyn TraceSink) {
            self.inner.run(sink);
            let (pmo, base) = self.first.expect("setup attached a PMO");
            sink.event(TraceEvent::SetPerm { pmo, perm: Perm::None });
            sink.event(TraceEvent::Store { va: base, size: 8 });
        }
    }

    #[test]
    fn planted_faulting_cell_is_counted_as_failed() {
        let sim = SimConfig::isca2020();
        let make = |bench| {
            let w = MicroWorkload::new(bench, tiny());
            if bench == MicroBench::Rbt {
                Box::new(Planted { inner: w, first: None }) as Box<dyn Workload>
            } else {
                Box::new(w) as Box<dyn Workload>
            }
        };
        let mut tally = Tally::default();
        let pass = campaign(&mut tally, &make, &sim, &mut |_, _| {});
        assert_eq!(tally.attempted, 20);
        assert_eq!(tally.failed, 4, "{:?}", tally.failures);
        assert!(tally.failures.iter().all(|f| f.contains("RBT/")), "{:?}", tally.failures);
        assert_eq!(pass.cells.iter().filter(|c| c.3.is_none()).count(), 4);
        assert_eq!(pass.rows(&sim).len(), 4, "the planted bench has no Table VI row");
        assert!(!tally.correct());
    }

    #[test]
    fn wall_sums_per_cell_medians_over_repeats() {
        let pass = Pass {
            cells: vec![
                (MicroBench::Avl, SchemeKind::Erim, 1.0, None),
                (MicroBench::Rbt, SchemeKind::Erim, 5.0, None),
            ],
        };
        let extra = [
            (MicroBench::Avl, SchemeKind::Erim, 3.0, None),
            (MicroBench::Avl, SchemeKind::Erim, 2.0, None),
        ];
        assert_eq!(pass.wall_with(&extra), 2.0 + 5.0);
        assert_eq!(pass.wall_with(&[]), 6.0);
    }

    #[test]
    fn tiny_campaign_is_clean_and_matches_the_streamed_layers() {
        let out = run(&tiny(), 0.0, true);
        assert!(out.tally.correct(), "{:?}", out.tally.failures);
        assert_eq!(out.tally.attempted, 20, "the body runs once, traced or not");
        assert!(out.layers.get("gen.events").unwrap() > 0.0);
        assert!(out.layers.get("replay.erim.self_s").is_some());
        assert!(out.layers.get("replay.mpk.self_s").is_none(), "mpk is not a Table VI scheme");
    }
}
