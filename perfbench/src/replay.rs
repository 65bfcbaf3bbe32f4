//! `replay-matrix`: short pointer-chase and string-swap traces, generated,
//! recorded and block-encoded in set-up, then replayed through the
//! batched engine (`Replay::replay_blocks`) under all eight schemes, one
//! cell per (trace, scheme), back to back on one thread.

use pmo_protect::SchemeKind;
use pmo_sim::{Replay, ReplayReport};
use pmo_simarch::SimConfig;
use pmo_trace::block::block_trace_of;
use pmo_trace::{BlockTrace, NullSink, RecordedTrace, TraceSource};
use pmo_workloads::{MicroBench, MicroConfig, MicroWorkload, Workload};

use crate::harness::{closed_loop, median, ratio, timed, Digest, Metrics, Tally};
use crate::{time_setup, Outcome};

/// One replayed trace: a micro bench at a small size.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpec {
    /// Trace name (report key).
    pub name: &'static str,
    /// `chase` (pointer chasing: low same-page locality, the fast path
    /// rarely holds) or `stream` (long same-page runs).
    pub group: &'static str,
    /// Generating bench.
    pub bench: MicroBench,
    /// PMOs attached and used.
    pub pmos: u32,
    /// Initial elements per PMO.
    pub initial_nodes: u32,
    /// Measured operations.
    pub ops: u64,
}

/// The benchmark's traces. Sizes give the chase and stream groups
/// roughly equal replay time and keep the resident block traces at about
/// 8 MB, so a pass replays from cache-friendly inputs many times over
/// instead of streaming one large trace.
pub const TRACES: [TraceSpec; 3] = [
    TraceSpec {
        name: "chase-avl",
        group: "chase",
        bench: MicroBench::Avl,
        pmos: 16,
        initial_nodes: 32,
        ops: 500,
    },
    TraceSpec {
        name: "chase-ll",
        group: "chase",
        bench: MicroBench::LinkedList,
        pmos: 16,
        initial_nodes: 16,
        ops: 250,
    },
    TraceSpec {
        name: "stream-ss",
        group: "stream",
        bench: MicroBench::StringSwap,
        pmos: 4,
        initial_nodes: 32,
        ops: 4_500,
    },
];

/// Small traces for the set-up's batched == full-walk equality check.
const CHECK_TRACES: [TraceSpec; 2] = [
    TraceSpec {
        name: "check-avl",
        group: "chase",
        bench: MicroBench::Avl,
        pmos: 4,
        initial_nodes: 8,
        ops: 60,
    },
    TraceSpec {
        name: "check-ss",
        group: "stream",
        bench: MicroBench::StringSwap,
        pmos: 2,
        initial_nodes: 8,
        ops: 300,
    },
];

impl TraceSpec {
    fn config(&self, seed: u64) -> MicroConfig {
        MicroConfig {
            pmos: self.pmos,
            active_pmos: self.pmos,
            initial_nodes: self.initial_nodes,
            ops: self.ops,
            seed,
            ..MicroConfig::quick()
        }
    }

    fn workload(&self, seed: u64) -> MicroWorkload {
        MicroWorkload::new(self.bench, self.config(seed))
    }
}

/// A recorded, block-encoded trace split at the population/measurement
/// boundary.
struct Recorded {
    spec: TraceSpec,
    setup: BlockTrace,
    run: BlockTrace,
}

impl Recorded {
    fn events(&self) -> u64 {
        self.setup.len() + self.run.len()
    }
}

fn record_phases(spec: &TraceSpec, seed: u64) -> (RecordedTrace, RecordedTrace) {
    let mut w = spec.workload(seed);
    let (mut setup, mut run) = (RecordedTrace::new(), RecordedTrace::new());
    w.setup(&mut setup);
    w.run(&mut run);
    (setup, run)
}

fn record(spec: &TraceSpec, seed: u64) -> Recorded {
    let (setup, run) = record_phases(spec, seed);
    Recorded { spec: *spec, setup: block_trace_of(&setup), run: block_trace_of(&run) }
}

/// A replay cell's report plus the engine's memo counters.
#[derive(Clone, Debug)]
struct Replayed {
    report: ReplayReport,
    fast_path_hits: u64,
    summary_hits: u64,
}

/// Replays `rec` under `kind`: population first, then the measured
/// phase, windowed to the latter (caches start cold in every cell).
fn replay_batched(rec: &Recorded, kind: SchemeKind, sim: &SimConfig) -> Replayed {
    let mut replay = Replay::new(kind, sim);
    replay.replay_blocks(&rec.setup);
    let snap = replay.snapshot();
    replay.replay_blocks(&rec.run);
    finish(replay, &snap)
}

/// The same replay streamed event by event; `walk` turns the fast path
/// off (the full-walk oracle).
fn replay_streamed(rec: &Recorded, kind: SchemeKind, sim: &SimConfig, walk: bool) -> Replayed {
    let mut replay = Replay::new(kind, sim);
    replay.set_fast_path(!walk);
    rec.setup.replay(&mut replay);
    let snap = replay.snapshot();
    rec.run.replay(&mut replay);
    finish(replay, &snap)
}

fn finish(replay: Replay, snap: &pmo_sim::ReplaySnapshot) -> Replayed {
    let (fast_path_hits, summary_hits) = (replay.fast_path_hits(), replay.summary_hits());
    Replayed { report: replay.finish().since(snap), fast_path_hits, summary_hits }
}

fn clean(r: Replayed) -> Result<Replayed, String> {
    if r.report.faulted() || !r.report.fault_log_complete() {
        Err(format!(
            "{} faults ({} dropped)",
            r.report.scheme_stats.faults, r.report.faults_dropped
        ))
    } else {
        Ok(r)
    }
}

/// Set-up: generate, record and block-encode every trace, then check
/// batched == full-walk reports on the short check traces per scheme.
fn setup(specs: &[TraceSpec], seed: u64, sim: &SimConfig, tally: &mut Tally) -> Vec<Recorded> {
    let recs = specs.iter().map(|s| record(s, seed)).collect();
    for spec in &CHECK_TRACES {
        let rec = record(spec, seed);
        for kind in SchemeKind::ALL {
            let walk = replay_streamed(&rec, kind, sim, true).report;
            let batched = replay_batched(&rec, kind, sim).report;
            tally.check(&format!("{}/{kind} batched == full walk", spec.name), walk == batched);
        }
    }
    recs
}

/// One matrix pass: every trace under every scheme, in the same cell
/// order in every pass, with the digest of the cells' reports.
struct Pass {
    /// Trace index, scheme and seconds of each cell.
    cells: Vec<(usize, SchemeKind, f64)>,
    /// Each cell's result, kept only by a pass run with `keep`.
    results: Vec<Option<Replayed>>,
    digest: Digest,
}

/// Runs one pass. Unless `keep` is set the reports are dropped once they
/// are digested: a run makes hundreds of passes, and holding every
/// report would grow the resident set, and `peak_rss_mb`, with the
/// number of passes the host's speed allows.
fn matrix(recs: &[Recorded], sim: &SimConfig, tally: &mut Tally, keep: bool) -> Pass {
    let mut pass = Pass { cells: Vec::new(), results: Vec::new(), digest: Digest::default() };
    for (i, rec) in recs.iter().enumerate() {
        for kind in SchemeKind::ALL {
            let (secs, out) = timed(|| {
                tally.cell(&format!("{}/{kind}", rec.spec.name), || {
                    clean(replay_batched(rec, kind, sim))
                })
            });
            pass.digest.fold(&(i, kind, out.as_ref().map(|r| &r.report)));
            pass.cells.push((i, kind, secs));
            if keep {
                pass.results.push(out);
            }
        }
    }
    pass
}

impl Pass {
    fn reports(&self) -> impl Iterator<Item = &ReplayReport> {
        self.results.iter().flatten().map(|r| &r.report)
    }

    fn events(&self) -> u64 {
        self.reports().map(|r| r.counts.events).sum()
    }

    /// The seconds of the cell replaying trace `i` under `kind`.
    fn secs(&self, i: usize, kind: SchemeKind) -> Option<f64> {
        self.cells.iter().find(|c| c.0 == i && c.1 == kind).map(|c| c.2)
    }

    fn replayed(&self, i: usize, kind: SchemeKind) -> Option<&Replayed> {
        let cell = self.cells.iter().position(|c| c.0 == i && c.1 == kind)?;
        self.results.get(cell)?.as_ref()
    }

    /// Seconds per scheme, summed over traces.
    fn scheme_secs(&self, kind: SchemeKind) -> f64 {
        self.cells.iter().filter(|c| c.1 == kind).map(|c| c.2).sum()
    }
}

/// Parameters: the traces and the seed fed into every `MicroConfig`.
pub struct Params {
    /// Traces to replay.
    pub specs: Vec<TraceSpec>,
    /// Workload seed.
    pub seed: u64,
}

/// Runs the workload: `seconds` of back-to-back matrix passes.
pub fn run(params: &Params, seconds: f64, traced: bool) -> Outcome {
    let mut tally = Tally::default();
    let sim = SimConfig::isca2020();
    let mut setups = Vec::new();
    let recs = time_setup(&mut setups, || setup(&params.specs, params.seed, &sim, &mut tally));
    let mut keep = true;
    let passes = closed_loop(seconds, || {
        let pass = matrix(&recs, &sim, &mut tally, keep);
        keep = false;
        pass
    });
    // Set-up is deterministic: the repetitions after the body rebuild the
    // same traces, and the last of them serves the layer calls.
    drop(recs);
    let recs = time_setup(&mut setups, || setup(&params.specs, params.seed, &sim, &mut tally));
    let mut out = Outcome::new("replay-matrix", &setups);
    out.pass_s = passes.iter().map(|p| p.0).collect();
    let wall = median(&out.pass_s);
    let first = &passes[0].1;
    tally.check(
        "identical results in every pass",
        passes.iter().all(|p| p.1.digest == first.digest),
    );
    out.digest = first.digest;
    out.wall_s = wall;
    out.sim_events_per_s = ratio(first.events() as f64, wall);
    out.lines.push(format!(
        "replay-matrix: {} trace(s), {} resident events, {} cell(s) per pass, {} pass(es)",
        recs.len(),
        recs.iter().map(Recorded::events).sum::<u64>(),
        first.cells.len(),
        passes.len()
    ));

    // The layer decomposition calls the layers outside the cell guard, so
    // it only runs after a clean body. Each cell is a batched replay, a
    // single layer, so the body's cell spans are the layer's self times.
    if traced && tally.correct() {
        let m = &mut out.layers;
        let mut replay_s = 0.0;
        for kind in SchemeKind::ALL {
            let secs = median(&passes.iter().map(|p| p.1.scheme_secs(kind)).collect::<Vec<_>>());
            let events: u64 =
                first.reports().filter(|r| r.scheme == kind).map(|r| r.counts.events).sum();
            note_scheme(m, kind, secs, events);
            note_lane(m, "batched", secs, events);
            replay_s += secs;
        }
        for &(i, kind, _) in &first.cells {
            if let Some(r) = first.replayed(i, kind) {
                let group = recs[i].spec.group;
                let secs =
                    median(&passes.iter().filter_map(|p| p.1.secs(i, kind)).collect::<Vec<_>>());
                note_lane(m, group, secs, r.report.counts.events);
                note_hits(m, group, &r.report, r.fast_path_hits, r.summary_hits);
            }
        }
        for (i, rec) in recs.iter().enumerate() {
            for kind in SchemeKind::ALL {
                let (secs, streamed) = timed(|| replay_streamed(rec, kind, &sim, false));
                tally.check(
                    &format!("{}/{kind} streamed == batched", rec.spec.name),
                    first.replayed(i, kind).map(|r| &r.report) == Some(&streamed.report),
                );
                note_lane(m, "streamed", secs, streamed.report.counts.events);
            }
        }
        finalize_rates(m);
        sim_stats(m, first.reports());
        let cell_secs: Vec<f64> = first.cells.iter().map(|c| c.2).collect();
        crate::campaign_spans(m, &cell_secs, wall, replay_s);
        setup_layers(m, &params.specs, params.seed, &mut out.shares);
        out.shares.push(("replay".into(), replay_s));
        for group in ["chase", "stream"] {
            let secs = out.layers.get(&format!("replay.{group}.self_s")).unwrap_or(0.0);
            out.shares.push((format!("  replay.{group}"), secs));
        }
    }
    out.finish(tally)
}

/// Set-up layers, each timed on its own: generation into a `NullSink`,
/// recording (generation into a `RecordedTrace` minus generation), and
/// PMOB block encoding of the recorded phases.
fn setup_layers(m: &mut Metrics, specs: &[TraceSpec], seed: u64, shares: &mut crate::Shares) {
    let (mut gen_s, mut record_s, mut encode_s, mut events, mut bytes) =
        (0.0, 0.0, 0.0, 0u64, 0usize);
    for spec in specs {
        let (t_gen, ()) = timed(|| spec.workload(seed).generate(&mut NullSink));
        let (t_rec, (setup, run)) = timed(|| record_phases(spec, seed));
        let (t_enc, blocks) = timed(|| (block_trace_of(&setup), block_trace_of(&run)));
        gen_s += t_gen;
        record_s += (t_rec - t_gen).max(0.0);
        encode_s += t_enc;
        events += (setup.len() + run.len()) as u64;
        bytes += blocks.0.encode().len() + blocks.1.encode().len();
    }
    let events = events as f64;
    m.set("gen.self_s", gen_s);
    m.set("gen.events", events);
    m.set("gen.events_per_s", ratio(events, gen_s));
    m.set("trace.record_s", record_s);
    m.set("trace.encode_s", encode_s);
    m.set("trace.encode_events_per_s", ratio(events, encode_s));
    m.set("trace.pmob_bytes_per_event", ratio(bytes as f64, events));
    shares.push(("setup:gen".into(), gen_s));
    shares.push(("setup:trace.record".into(), record_s));
    shares.push(("setup:trace.encode".into(), encode_s));
}

/// Adds one scheme's replay seconds and events.
pub fn note_scheme(m: &mut Metrics, kind: SchemeKind, secs: f64, events: u64) {
    m.add(format!("replay.{}.self_s", kind.label()), secs);
    m.add(format!("replay.{}.events", kind.label()), events as f64);
}

/// Adds replay seconds and events to a lane (`streamed` or `batched`)
/// or a trace group (`chase` or `stream`).
pub fn note_lane(m: &mut Metrics, lane: &str, secs: f64, events: u64) {
    m.add(format!("replay.{lane}.self_s"), secs);
    m.add(format!("replay.{lane}.events"), events as f64);
}

/// Adds one replay's memo counters to its trace group (`chase` or
/// `stream`); ratios are hits per memory access.
pub fn note_hits(m: &mut Metrics, group: &str, report: &ReplayReport, fast: u64, summary: u64) {
    let accesses = (report.counts.loads + report.counts.stores) as f64;
    m.add(format!("replay.{group}.accesses"), accesses);
    m.add(format!("replay.{group}.fast_path_hits"), fast as f64);
    m.add(format!("replay.{group}.summary_hits"), summary as f64);
}

/// Turns the accumulated seconds, events and hit counts into rates.
pub fn finalize_rates(m: &mut Metrics) {
    let lanes =
        SchemeKind::ALL.iter().map(|k| k.label()).chain(["streamed", "batched", "chase", "stream"]);
    for lane in lanes {
        let events = m.get(&format!("replay.{lane}.events")).unwrap_or(0.0);
        let secs = m.get(&format!("replay.{lane}.self_s")).unwrap_or(0.0);
        m.set(format!("replay.{lane}.events_per_s"), ratio(events, secs));
    }
    for group in ["chase", "stream"] {
        let accesses = m.get(&format!("replay.{group}.accesses")).unwrap_or(0.0);
        for counter in ["fast_path", "summary"] {
            let hits = m.get(&format!("replay.{group}.{counter}_hits")).unwrap_or(0.0);
            m.set(format!("replay.{group}.{counter}_hit_ratio"), ratio(hits, accesses));
        }
    }
}

/// Adds the simulated (deterministic) statistics of `reports` per scheme.
pub fn sim_stats<'a>(m: &mut Metrics, reports: impl Iterator<Item = &'a ReplayReport>) {
    for r in reports {
        let label = r.scheme.label();
        m.add(format!("sim.{label}.cycles"), r.cycles as f64);
        m.add(format!("sim.{label}.tlb_misses"), r.tlb.misses as f64);
        m.add(format!("sim.{label}.shootdowns"), r.scheme_stats.shootdowns as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params { specs: CHECK_TRACES.to_vec(), seed: 3 }
    }

    #[test]
    fn tiny_matrix_is_clean_and_traced() {
        let out = run(&tiny(), 0.0, true);
        assert!(out.tally.correct(), "{:?}", out.tally.failures);
        assert_eq!(out.tally.attempted, 2 * 8, "one pass of two traces under eight schemes");
        let m = &out.layers;
        assert!(m.get("replay.dpti.events_per_s").unwrap() > 0.0);
        assert!(m.get("replay.stream.fast_path_hit_ratio").unwrap() > 0.0);
        assert!(m.get("trace.pmob_bytes_per_event").unwrap() > 0.0);
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let a = run(&tiny(), 0.0, false).digest;
        assert_eq!(a, run(&tiny(), 0.0, false).digest);
        assert_ne!(a, run(&Params { seed: 4, ..tiny() }, 0.0, false).digest);
    }
}
