//! Closed-loop campaign benchmark for the PMO reproduction.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload table6-quick|replay-matrix|refine-quick \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints human-readable lines (simulated-result digest, Table VI rows,
//! world counts, per-layer shares when traced), then one JSON object as
//! the last line: `correct`, `attempted`, `failed` and the metrics —
//! the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`. See `perfbench/README.md`.

mod harness;
mod refine;
mod replay;
mod table6;

use std::process::ExitCode;

use pmo_protect::SchemeKind;

use harness::{host_calibration, median, peak_rss_mb, span_cost, Digest, Metrics, Tally};

/// Set-up repetitions on each side of the timed body.
pub const SETUP_REPS: usize = 5;

/// Runs a workload's set-up `SETUP_REPS` times, appending each time to
/// `setups`, and returns the last result; earlier results are dropped
/// before the next repetition, so one is resident at a time. Each run
/// calls this before and after its timed body: `setup_s`, the median of
/// both, then samples the host at both ends of the run rather than in
/// one burst of well under a second.
pub fn time_setup<T>(setups: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (secs, value) = harness::timed(&mut setup);
        setups.push(secs);
        last = Some(value);
    }
    last.expect("SETUP_REPS is positive")
}

/// Named seconds attributed to one layer, for the share-of-wall table.
pub type Shares = Vec<(String, f64)>;

/// What one workload run produced.
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Seconds of each pass of the timed body.
    pub pass_s: Vec<f64>,
    /// Median seconds of one pass of the timed body.
    pub wall_s: f64,
    /// Simulated events of one pass per second of `wall_s`.
    pub sim_events_per_s: f64,
    /// Digest of every simulated statistic of one pass.
    pub digest: Digest,
    /// Human-readable result lines.
    pub lines: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Layer seconds for the share table (traced runs only).
    pub shares: Shares,
    /// Cells and checks.
    pub tally: Tally,
}

impl Outcome {
    fn new(workload: &'static str, setups: &[f64]) -> Self {
        Outcome {
            workload,
            setup_s: median(setups),
            pass_s: Vec::new(),
            wall_s: 0.0,
            sim_events_per_s: 0.0,
            digest: Digest::default(),
            lines: Vec::new(),
            layers: Metrics::default(),
            shares: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn finish(mut self, tally: Tally) -> Self {
        self.tally = tally;
        self
    }
}

/// Campaign-level span metrics: cell count and durations, the residual
/// (the body's wall time minus the layers' summed self time) and the
/// tracing overhead, the measured cost of one pass's cell spans. The
/// traced run times the same body as the untraced run, so the spans are
/// all it adds to it.
pub fn campaign_spans(m: &mut Metrics, cell_secs: &[f64], wall: f64, layer_s: f64) {
    m.set("campaign.cells", cell_secs.len() as f64);
    m.set("campaign.cell_p50_s", median(cell_secs));
    m.set("campaign.cell_max_s", cell_secs.iter().copied().fold(0.0, f64::max));
    m.set("campaign.residual_s", wall - layer_s);
    m.set("tracing.overhead_s", cell_secs.len() as f64 * span_cost());
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table6-quick", "replay-matrix", "refine-quick"];

/// End-to-end metrics: name, unit, better direction.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("sim_events_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: name, unit, better direction. Every traced run
/// prints all of them; a layer a workload does not touch reads 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = [
        ("host.calib_s", "s", "lower"),
        ("gen.self_s", "s", "lower"),
        ("gen.events", "count", "higher"),
        ("gen.events_per_s", "1/s", "higher"),
        ("audit.self_s", "s", "lower"),
        ("audit.events_per_s", "1/s", "higher"),
        ("audit.findings", "count", "lower"),
        ("audit.dropped", "count", "lower"),
        ("trace.record_s", "s", "lower"),
        ("trace.encode_s", "s", "lower"),
        ("trace.encode_events_per_s", "1/s", "higher"),
        ("trace.pmob_bytes_per_event", "B/event", "lower"),
    ]
    .iter()
    .map(|&(n, u, b)| (n.to_string(), u, b))
    .collect();
    for kind in SchemeKind::ALL {
        v.push((format!("replay.{}.self_s", kind.label()), "s", "lower"));
        v.push((format!("replay.{}.events_per_s", kind.label()), "1/s", "higher"));
    }
    for lane in ["streamed", "batched", "chase", "stream"] {
        v.push((format!("replay.{lane}.events_per_s"), "1/s", "higher"));
    }
    for group in ["chase", "stream"] {
        for counter in ["fast_path", "summary"] {
            v.push((format!("replay.{group}.{counter}_hit_ratio"), "ratio", "higher"));
        }
    }
    for kind in SchemeKind::ALL {
        v.push((format!("sim.{}.cycles", kind.label()), "cycles", "lower"));
        v.push((format!("sim.{}.tlb_misses", kind.label()), "count", "lower"));
        v.push((format!("sim.{}.shootdowns", kind.label()), "count", "lower"));
    }
    for (n, u, b) in [
        ("campaign.cells", "count", "higher"),
        ("campaign.cell_p50_s", "s", "lower"),
        ("campaign.cell_max_s", "s", "lower"),
        ("campaign.residual_s", "s", "lower"),
        ("tracing.overhead_s", "s", "lower"),
        ("modelcheck.enumerate_s", "s", "lower"),
        ("modelcheck.explore_s", "s", "lower"),
        ("modelcheck.w1.self_s", "s", "lower"),
        ("modelcheck.w2.self_s", "s", "lower"),
        ("modelcheck.programs", "count", "higher"),
        ("modelcheck.schedules", "count", "higher"),
        ("modelcheck.steps", "count", "higher"),
        ("modelcheck.sleep_blocked", "count", "higher"),
        ("modelcheck.prune_ratio", "ratio", "higher"),
    ] {
        v.push((n.to_string(), u, b));
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, traced: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number of seconds"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("expected a non-negative number of seconds"));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    Ok(args)
}

fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "table6-quick" => table6::run(&table6::quick_config(args.seed), args.seconds, args.traced),
        "replay-matrix" => replay::run(
            &replay::Params { specs: replay::TRACES.to_vec(), seed: args.seed },
            args.seconds,
            args.traced,
        ),
        _ => refine::run(None, args.seconds, args.traced),
    }
}

/// The result object: exactly the end-to-end metrics untraced, exactly
/// the per-layer metrics traced.
fn result_json(out: &Outcome, traced: bool, peak_rss: f64) -> String {
    let metrics: Vec<(String, f64, &str)> = if traced {
        per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let value = out.layers.get(&name).unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    } else {
        let values = [out.setup_s, out.wall_s, out.sim_events_per_s, peak_rss];
        END_TO_END.iter().zip(values).map(|(&(n, u, _), v)| (n.to_string(), v, u)).collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.correct(),
        out.tally.attempted,
        out.tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    // The host probe brackets the run, so it samples the host's speed on
    // both sides of the body.
    let calib_before = host_calibration();
    let mut out = run(&args);
    let calib = (calib_before + host_calibration()) / 2.0;
    out.layers.set("host.calib_s", calib);
    let peak_rss = peak_rss_mb();

    let seed_note = if out.workload == "refine-quick" { " (unused: exhaustive)" } else { "" };
    println!(
        "workload {} seed {}{seed_note} seconds {} trace {}",
        out.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    for line in &out.lines {
        println!("{line}");
    }
    println!("digest {} {}", out.workload, out.digest.hex());
    let mut passes = out.pass_s.clone();
    passes.sort_by(f64::total_cmp);
    if let (Some(min), Some(max)) = (passes.first(), passes.last()) {
        println!(
            "passes {}  min {min:.4} s  p25 {:.4} s  median {:.4} s  max {max:.4} s",
            passes.len(),
            passes[passes.len() / 4],
            out.wall_s
        );
        let all: Vec<String> = out.pass_s.iter().map(|s| format!("{s:.5}")).collect();
        println!("pass_s {}", all.join(" "));
    }
    println!(
        "setup_s {:.4}  wall_s {:.4}  sim_events_per_s {:.0}  peak_rss_mb {:.1}",
        out.setup_s, out.wall_s, out.sim_events_per_s, peak_rss
    );
    // Every run prints the host probe, untraced ones too, so that
    // `spread.py` can set a drift between run sets against the host's.
    println!("host.calib_s {calib}");
    if args.traced {
        // Shares of the body's wall time, which the layer self times and
        // the residual add up to; set-up layers are shares of setup_s.
        let residual =
            ("residual".to_string(), out.layers.get("campaign.residual_s").unwrap_or(0.0));
        for (name, secs) in out.shares.iter().chain([&residual]) {
            let (base, of) = match name.strip_prefix("setup:") {
                Some(_) => (out.setup_s, "setup_s"),
                None => (out.wall_s, "wall_s"),
            };
            println!(
                "share {name:<22} {secs:>9.4} s  {:>6.1}% of {of}",
                100.0 * harness::ratio(*secs, base)
            );
        }
    }
    for failure in &out.tally.failures {
        println!("FAILED {failure}");
        eprintln!("perfbench: FAILED {failure}");
    }
    println!("{}", result_json(&out, args.traced, peak_rss));
    if out.tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(&line[start..start + line[start..].find('"')?])
    }

    #[test]
    fn manifest_lists_exactly_the_metrics_the_code_prints() {
        let listed: Vec<(String, String, String)> = MANIFEST
            .lines()
            .filter(|l| l.contains("\"better\""))
            .map(|l| {
                let f = |k| field(l, k).expect("metric line has name, unit, better").to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect();
        let expected: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .chain(per_layer().into_iter().map(|(n, u, b)| (n, u.to_string(), b.to_string())))
            .collect();
        assert_eq!(listed, expected);
        for w in WORKLOADS {
            assert!(MANIFEST.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn every_metric_prints_with_a_unit() {
        let out = Outcome::new("refine-quick", &[0.5]);
        for (traced, expected) in [(false, END_TO_END.len()), (true, per_layer().len())] {
            let json = result_json(&out, traced, 12.0);
            assert_eq!(json.matches("\"unit\": \"").count(), expected, "{json}");
            assert_eq!(json.matches("\"value\": ").count(), expected);
        }
        let json = result_json(&out, false, 12.0);
        assert!(json
            .starts_with("{\"correct\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": {"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"), "{json}");
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload refine-quick --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(parse("--workload nope --seed 3").is_err());
        assert!(parse("--workload refine-quick --trace 2").is_err());
        assert!(parse("--workload refine-quick --seed -1").is_err());
        assert!(parse("--workload refine-quick --seconds").is_err());
    }
}
