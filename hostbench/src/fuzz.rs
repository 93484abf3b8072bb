//! `fuzz_campaign`: `dvc-fuzz` trials run one by one in index order, each
//! under the six oracles with the same-seed replay. The spine is attached
//! inside `run_scenario` (four sinks and metrics), so this is the workload
//! where the spine's cost shows.
//!
//! The scenario mix (topology, workload, coordinator, fault windows) is
//! the first [`LAP`] trials of `dvc-fuzz`'s default campaign, [`CAMPAIGN`],
//! repeated in index order; the workload seed reseeds each trial's world,
//! fault rolls included. Every seed thus runs the same mix with different
//! randomness. Drawing the mix from the workload seed made `trials_per_s`
//! of a 30 s run spread by 31% across five seeds, because trial cost
//! spans nearly two orders of magnitude between a 1-node STREAM trial and a
//! 14-node PTRANS one. These 16 shapes cover all four coordinators, all
//! four guest workloads, and storage, control, NTP and clock faults.
//!
//! `run_scenario` builds its worlds internally, so set-up time is measured
//! on the side: the benchmark builds the spec's world once more with
//! `TrialWorld::build` and times that. The build is not part of the
//! trial's host time.

use crate::stats::fuzz_ops;
use crate::trace::Phases;
use crate::Trial;
use dvc_bench::fuzz::spec::ScenarioSpec;
use dvc_bench::fuzz::{gen, run};
use dvc_bench::scen::TrialWorld;
use dvc_sim_core::rng;
use std::time::Instant;

/// The campaign whose scenario mix every run replays (`dvc-fuzz`'s default).
pub const CAMPAIGN: u64 = 1;
/// Scenario shapes per lap.
pub const LAP: usize = 16;

fn scenario(seed: u64, i: u64) -> ScenarioSpec {
    let mut spec = gen::generate(CAMPAIGN, i % LAP as u64);
    spec.seed = rng::derive_seed(seed, "hostbench.fuzz_campaign", i);
    spec
}

pub fn trial(seed: u64, i: u64, ph: &mut Phases) -> Trial {
    let t0 = Instant::now();
    let spec = scenario(seed, i);
    let generate = t0.elapsed();
    ph.record("generate", generate.as_nanos() as u64, 0, 0);
    let t1 = Instant::now();
    let tuning = run::Tuning {
        budget_override: None,
        replay_check: true,
    };
    let result = run::run_scenario(&spec, &tuning);
    let run = t1.elapsed();

    let tw = TrialWorld {
        nodes: spec.nodes,
        spares: spec.spares,
        clusters: spec.clusters,
        seed: spec.seed,
        tcp_retries: spec.tcp_retries,
        clock_offset_ms: spec.clock_offset_ms,
        mem_mb: spec.mem_mb,
        ntp: spec.ntp,
        ..TrialWorld::default()
    };
    let t2 = Instant::now();
    let built = std::hint::black_box(tw.build());
    let setup_s = t2.elapsed().as_secs_f64();
    drop(built);

    let mut t = Trial {
        host_s: (generate + run).as_secs_f64(),
        setup_s,
        ..Trial::default()
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            t.ops = fuzz_ops(1);
            t.problems.push(format!("trial {i}: spec rejected: {e}"));
            return t;
        }
    };
    ph.record(
        "run_scenario",
        run.as_nanos() as u64,
        (report.end_s * 1e9) as u64,
        0,
    );
    t.sim_s = report.end_s;
    t.ops = fuzz_ops(report.failures.len());
    for f in &report.failures {
        t.problems
            .push(format!("trial {i}: oracle {}: {}", f.oracle, f.detail));
    }
    let c = &mut t.counts;
    c.insert("fuzz.report_digest", report.digest);
    c.insert("sim.end_ns", (report.end_s * 1e9) as u64);
    c.insert("fuzz.windows_checked", report.windows_checked);
    c.insert("fuzz.faults_injected", report.faults_injected);
    c.insert("fuzz.detections", report.detections.len() as u64);
    c.insert("fuzz.oracle_failures", report.failures.len() as u64);
    c.insert("spine.events", report.events);
    c.insert("spine.spans", report.spans_opened);
    c.insert("lsc.rounds", report.outcomes as u64);
    c.insert("lsc.rounds_ok", report.successes as u64);
    t
}
