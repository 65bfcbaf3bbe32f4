//! `refine-quick`: the quick refinement campaign (worlds w1 and w2,
//! enumerated exhaustively and explored with DPOR) on one thread. It is
//! exhaustive, so it takes no seed.

use pmo_experiments::refine::{
    run_campaign, run_world, RefineConfig, RefineReport, SkippedWorld, WorldOutcome,
};
use pmo_experiments::Scale;
use pmo_modelcheck::enumerate_canonical;

use crate::harness::{catch, closed_loop, median, ratio, timed, Digest, Metrics, Tally};
use crate::{time_setup, Outcome};

/// Counts each world as one cell: a world fails when its enumeration
/// misses the Burnside count, any schedule diverges from the spec, or
/// exploration was truncated. A panic fails every world of the pass.
fn tally_worlds(tally: &mut Tally, cfg: &RefineConfig, worlds: Result<&[WorldOutcome], &String>) {
    match worlds {
        Ok(worlds) => {
            for w in worlds {
                tally.cell(&w.world, || {
                    if u128::from(w.canonical) != w.burnside {
                        Err(format!("canonical {} != burnside {}", w.canonical, w.burnside))
                    } else if !w.passed() {
                        Err(format!(
                            "{} violation(s), {} truncated",
                            w.violations_total, w.truncated
                        ))
                    } else {
                        Ok(())
                    }
                });
            }
        }
        Err(msg) => {
            for w in &cfg.worlds {
                tally.cell(w.name, || Err::<(), _>(format!("campaign panicked: {msg}")));
            }
        }
    }
}

/// One campaign, with each world's seconds when `spans` is set. Untraced
/// it is one `run_campaign` call; traced it makes the same `run_world`
/// calls that `run_campaign` makes, with a span around each world.
fn campaign(
    cfg: &RefineConfig,
    tally: &mut Tally,
    spans: bool,
) -> Option<(Vec<f64>, RefineReport)> {
    let result = catch(|| {
        if !spans {
            return (Vec::new(), run_campaign(cfg, 1));
        }
        let (secs, worlds) = cfg.worlds.iter().map(|w| timed(|| run_world(w, cfg, 1))).unzip();
        let skipped = cfg.skipped.iter().map(SkippedWorld::from_world).collect();
        (secs, RefineReport { worlds, skipped, seeded: Vec::new(), wall_nanos: 0 })
    });
    tally_worlds(tally, cfg, result.as_ref().map(|r| r.1.worlds.as_slice()));
    let result = result.ok()?;
    tally.check("refine report is_clean", result.1.is_clean());
    Some(result)
}

fn digest(report: Option<&RefineReport>) -> Digest {
    let mut d = Digest::default();
    if let Some(r) = report {
        d.fold(&r.worlds);
        d.fold(&r.skipped);
    }
    d
}

/// Set-up: the campaign shape plus a warm-up exploration of the smallest
/// world.
fn setup(tally: &mut Tally) -> RefineConfig {
    let cfg = RefineConfig::for_scale(Scale::Quick);
    let warm = run_world(&cfg.worlds[0], &cfg, 1);
    tally.check("warm-up world passed", warm.passed());
    cfg
}

/// Runs the workload: `seconds` of back-to-back campaigns.
pub fn run(cfg_override: Option<RefineConfig>, seconds: f64, traced: bool) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    time_setup(&mut setups, || setup(&mut tally));
    let cfg = cfg_override.unwrap_or_else(|| RefineConfig::for_scale(Scale::Quick));
    let passes = closed_loop(seconds, || campaign(&cfg, &mut tally, traced));
    time_setup(&mut setups, || setup(&mut tally));
    let mut out = Outcome::new("refine-quick", &setups);
    out.pass_s = passes.iter().map(|p| p.0).collect();
    let wall = median(&out.pass_s);
    let report = |i: usize| passes[i].1.as_ref().map(|r| &r.1);
    let first = digest(report(0));
    tally.check(
        "identical results in every pass",
        (0..passes.len()).all(|i| digest(report(i)) == first),
    );
    out.digest = first;
    out.wall_s = wall;
    let steps = report(0).map_or(0, |r| r.worlds.iter().map(|w| w.steps).sum::<u64>());
    out.sim_events_per_s = ratio(steps as f64, wall);
    if let Some(r) = report(0) {
        for w in &r.worlds {
            out.lines.push(format!(
                "  {}: {} programs (burnside {}), {} schedules, {} steps, {} sleep-blocked",
                w.world, w.canonical, w.burnside, w.schedules, w.steps, w.sleep_blocked
            ));
        }
        for s in &r.skipped {
            out.lines.push(format!(
                "  {}: SKIPPED at quick scale, {} programs unverified",
                s.world, s.unverified
            ));
        }
    }

    // The layer decomposition calls the layers outside the cell guard, so
    // it only runs after a clean body. Each world is one `pmo-modelcheck`
    // exploration, so its span is that layer's self time.
    if traced && tally.correct() {
        let spans: Vec<&Vec<f64>> =
            passes.iter().filter_map(|p| p.1.as_ref().map(|r| &r.0)).collect();
        let m = &mut out.layers;
        let mut world_s = 0.0;
        let mut cell_secs = Vec::new();
        for (i, w) in cfg.worlds.iter().enumerate() {
            let secs = median(&spans.iter().map(|s| s[i]).collect::<Vec<_>>());
            m.set(format!("modelcheck.{}.self_s", w.name), secs);
            cell_secs.push(secs);
            world_s += secs;
        }
        let enumerate_s: f64 =
            cfg.worlds.iter().map(|w| timed(|| enumerate_canonical(&w.bounds)).0).sum();
        layers(
            m,
            report(0).expect("a clean pass has a report").worlds.iter(),
            enumerate_s,
            world_s,
        );
        crate::campaign_spans(m, &cell_secs, wall, world_s);
        out.shares.push(("modelcheck.enumerate".into(), enumerate_s));
        out.shares.push(("modelcheck.explore".into(), (world_s - enumerate_s).max(0.0)));
    }
    out.finish(tally)
}

fn layers<'a>(
    m: &mut Metrics,
    worlds: impl Iterator<Item = &'a WorldOutcome>,
    enumerate_s: f64,
    world_s: f64,
) {
    let (mut programs, mut schedules, mut steps, mut blocked) = (0u64, 0u64, 0u64, 0u64);
    for w in worlds {
        programs += w.canonical;
        schedules += w.schedules;
        steps += w.steps;
        blocked += w.sleep_blocked;
    }
    m.set("modelcheck.enumerate_s", enumerate_s);
    m.set("modelcheck.explore_s", (world_s - enumerate_s).max(0.0));
    m.set("modelcheck.programs", programs as f64);
    m.set("modelcheck.schedules", schedules as f64);
    m.set("modelcheck.steps", steps as f64);
    m.set("modelcheck.sleep_blocked", blocked as f64);
    m.set("modelcheck.prune_ratio", ratio(blocked as f64, (schedules + blocked) as f64));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_world_is_clean_and_canonical_equals_burnside() {
        let mut cfg = RefineConfig::for_scale(Scale::Quick);
        cfg.worlds.truncate(1);
        let out = run(Some(cfg), 0.0, true);
        assert!(out.tally.correct(), "{:?}", out.tally.failures);
        assert_eq!(out.tally.attempted, 1, "one world, one pass");
        assert_eq!(out.layers.get("modelcheck.programs"), Some(2906.0));
        assert!(out.layers.get("modelcheck.w1.self_s").unwrap() > 0.0);
    }
}
