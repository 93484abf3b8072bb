//! `ckpt_ring26`: the trial shape of the paper's campaign and of E3. Each
//! trial is a 26-VM virtual cluster on 26 nodes running the ring MPI load,
//! with NTP-scheduled LSC checkpoint+resume cycles. E3's gaps of 10, 20
//! and 40 s rotate by cycle within each trial and its VM images of 64, 128
//! and 256 MB by trial, so every trial advances about the same simulated
//! time and a lap of three trials covers all nine pairings. (Rotating
//! both by trial index, as E3 does, spreads trial cost over nine clusters
//! and made the median of a 30 s run jump by 15% between seeds.) The event
//! spine stays detached unless the pass is traced.

use crate::stats::{cycle_ops, fnv_u64, FNV_OFFSET};
use crate::trace::{pops, Phases, Spine};
use crate::Trial;
use dvc_bench::scen::{ring_load, ring_verdict, run_until, settle, TrialWorld};
use dvc_cluster::world::ClusterWorld;
use dvc_core::lsc::{self, LscMethod, LscOutcome};
use dvc_mpi::harness;
use dvc_sim_core::{rng, Sim, SimDuration, SimTime};
use std::time::Instant;

pub const NODES: usize = 26;
/// Checkpoint+resume cycles per trial, one per gap.
pub const CYCLES: u32 = 3;
/// Trials per lap, one per image size.
pub const LAP: usize = 3;
const GAPS_S: [f64; CYCLES as usize] = [10.0, 20.0, 40.0];
const IMAGES_MB: [u32; LAP] = [64, 128, 256];
/// E3's warm-up before the first cycle and drain after the last.
const WARMUP: SimDuration = SimDuration::from_secs(40);
const DRAIN: SimDuration = SimDuration::from_secs(60);

/// What the coordinator's callbacks leave for the driver: when each
/// round was handed to `checkpoint_vc`, and each outcome as it arrived,
/// with the host instant and pop count at both ends.
#[derive(Default)]
struct Rounds {
    started: Vec<(Instant, u64)>,
    done: Vec<(LscOutcome, Instant, u64)>,
}

pub fn trial(seed: u64, i: u64, ph: &mut Phases) -> Trial {
    let tw = TrialWorld {
        nodes: NODES,
        seed: rng::derive_seed(seed, "hostbench.ckpt_ring26", i),
        mem_mb: IMAGES_MB[i as usize % LAP],
        ..TrialWorld::default()
    };
    let t0 = Instant::now();
    let (mut sim, vc_id) = tw.build();
    let setup_s = t0.elapsed().as_secs_f64();
    ph.record(
        "setup",
        (setup_s * 1e9) as u64,
        sim.now().nanos(),
        pops(&sim),
    );
    let budget = sim.world.cfg.silence_budget();
    let spine = ph.is_on().then(|| Spine::attach(&mut sim, budget));

    let m = ph.mark(&sim);
    let job = ring_load(&mut sim, vc_id, u64::MAX / 2);
    settle(&mut sim, WARMUP);
    ph.close("warmup", m, &sim);

    sim.world.ext.insert(Rounds::default());
    let method = LscMethod::ntp_default();
    for (k, gap_s) in (1..).zip(GAPS_S) {
        let m = ph.mark(&sim);
        let at = sim.now() + SimDuration::from_secs_f64(gap_s);
        sim.schedule_at(at, move |sim| {
            let p = pops(sim);
            rounds(sim).started.push((Instant::now(), p));
            lsc::checkpoint_vc(sim, vc_id, method, |sim, out| {
                let p = pops(sim);
                rounds(sim).done.push((out, Instant::now(), p));
            });
        });
        run_until(&mut sim, SimTime::NEVER, |sim| {
            rounds(sim).started.len() >= k
        });
        ph.close("gap", m, &sim);
        let m = ph.mark(&sim);
        let ok = run_until(&mut sim, SimTime::from_secs_f64(1e7), |sim| {
            rounds(sim).done.len() >= k
        });
        ph.close("round", m, &sim);
        if !ok {
            break; // the queue drained: the job died and nothing is scheduled
        }
    }

    let m = ph.mark(&sim);
    settle(&mut sim, DRAIN);
    ph.close("drain", m, &sim);

    let m = ph.mark(&sim);
    let verdict = ring_verdict(&sim, &job);
    ph.close("verdict", m, &sim);
    let host_s = t0.elapsed().as_secs_f64();

    let rounds = sim.world.ext.remove::<Rounds>().unwrap_or_default();
    let ring_ok = verdict.alive && verdict.data_ok;
    let successes: Vec<bool> = rounds.done.iter().map(|r| r.0.success).collect();
    let mut t = Trial {
        host_s,
        setup_s,
        sim_s: sim.now().as_secs_f64(),
        ops: cycle_ops(CYCLES, &successes, ring_ok),
        ..Trial::default()
    };
    if !ring_ok {
        t.problems.push(format!(
            "trial {i}: ring {} (alive {}, data ok {})",
            if verdict.alive { "corrupt" } else { "dead" },
            verdict.alive,
            verdict.data_ok
        ));
    }
    for (out, ..) in rounds.done.iter().filter(|r| !r.0.success) {
        t.problems
            .push(format!("trial {i}: cycle failed: {}", out.detail));
    }
    if rounds.done.len() < CYCLES as usize {
        t.problems.push(format!(
            "trial {i}: {} of {CYCLES} cycles returned an outcome",
            rounds.done.len()
        ));
    }

    let c = &mut t.counts;
    crate::engine_counts(&sim, c);
    let vms = || sim.world.vms.iter().flatten();
    crate::tcp_counts(vms().map(|vm| &vm.guest.tcp.counters), c);
    let pauses = vms().map(|vm| vm.pause_count as u64).sum();
    crate::fabric_counts(&sim.world.fabric.counters, c);
    let (mut msgs, mut bytes) = (0, 0);
    for r in 0..job.size {
        if sim.world.vm(job.vms[r]).is_some() {
            let s = &harness::rank(&sim, &job, r).stats;
            msgs += s.msgs_sent;
            bytes += s.bytes_sent;
        }
    }
    c.insert("mpi.msgs_sent", msgs);
    c.insert("mpi.bytes_sent", bytes);
    c.insert("ring.laps", verdict.laps_done);
    c.insert("vmm.pauses", pauses);
    let st = &sim.world.storage;
    c.insert("storage.bytes", st.bytes_completed);
    c.insert("storage.transfers", st.transfers_completed);
    c.insert("storage.failed", st.transfers_failed);
    c.insert("storage.retries", st.retries);
    c.insert("lsc.rounds", rounds.done.len() as u64);
    c.insert(
        "lsc.rounds_ok",
        successes.iter().filter(|&&s| s).count() as u64,
    );
    c.insert(
        "lsc.attempts",
        rounds.done.iter().map(|r| r.0.attempts as u64).sum(),
    );
    c.insert(
        "lsc.outcome_digest",
        outcome_digest(rounds.done.iter().map(|r| &r.0)),
    );

    let layer = &mut t.samples;
    for ((_, at, p1), (t0, p0)) in rounds.done.iter().zip(&rounds.started) {
        crate::push_sample(
            layer,
            "lsc.round_host_ms",
            at.duration_since(*t0).as_secs_f64() * 1e3,
        );
        crate::push_sample(layer, "lsc.round_pops", (p1 - p0) as f64);
    }
    for (out, ..) in &rounds.done {
        crate::push_sample(
            layer,
            "lsc.pause_skew_sim_ms",
            out.pause_skew.as_millis_f64(),
        );
        crate::push_sample(layer, "lsc.save_sim_ms", out.save_duration.as_millis_f64());
    }
    if let Some(spine) = spine {
        spine.read(&sim, &mut t);
        for f in spine.span_findings() {
            t.problems.push(format!("trial {i}: span: {f}"));
        }
    }
    t
}

fn rounds(sim: &mut Sim<ClusterWorld>) -> &mut Rounds {
    sim.world.ext.get_or_default::<Rounds>()
}

/// FNV over every outcome's success, attempts, skews and durations.
pub fn outcome_digest<'a>(outs: impl Iterator<Item = &'a LscOutcome>) -> u64 {
    outs.fold(FNV_OFFSET, |h, o| {
        [
            o.success as u64,
            o.attempts as u64,
            o.pause_skew.nanos(),
            o.resume_skew.nanos(),
            o.save_duration.nanos(),
            o.total_duration.nanos(),
        ]
        .into_iter()
        .fold(h, fnv_u64)
    })
}
