//! `dvc-hostbench` — host cost of the DVC simulator, end to end and layer
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <ckpt_ring26|fuzz_campaign|tcp_bulk> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One worker thread runs trials of one workload back to back (a closed
//! loop) for `--seconds`, then prints every metric by name and unit, the
//! simulated-statistics fingerprint and, last, one JSON line. `--trace 0`
//! reports the end-to-end metrics of an untraced run. `--trace 1` runs
//! every trial twice, untraced and with benchmark-owned sinks attached,
//! reports the per-layer metrics and the phase profile, and checks that
//! both runs of each trial give the same fingerprint. The process exits 1
//! when any output check fails. See README.md.

mod bulk;
mod ckpt;
mod fuzz;
mod stats;
mod trace;

use stats::{median, sorted, tail, Ops};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::{PhaseTotal, Phases};

/// The workload seed used when none is given.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking a claimed gain on inputs the
/// change was not written against.
const HELD_OUT_SEED: u64 = 20_071_001;
/// Reference fingerprints: `<workload> <seed> <trials> <key> <value>` lines.
const REFERENCE: &str = include_str!("../fingerprints.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Ckpt,
    Fuzz,
    Bulk,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Ckpt, Workload::Fuzz, Workload::Bulk];

    fn name(self) -> &'static str {
        match self {
            Workload::Ckpt => "ckpt_ring26",
            Workload::Fuzz => "fuzz_campaign",
            Workload::Bulk => "tcp_bulk",
        }
    }

    /// Trials per lap. Trial shapes repeat with this period and a run ends
    /// on a lap boundary, so every run times the same mix of shapes. The
    /// fingerprint and the per-layer counts cover the first lap.
    fn lap(self) -> usize {
        match self {
            Workload::Ckpt => ckpt::LAP,
            Workload::Fuzz => fuzz::LAP,
            Workload::Bulk => 1,
        }
    }

    /// Trials per window of [`stats::fastest_window`], or `None` when the
    /// whole run is one window. Only `tcp_bulk` trials (25–40 ms) are
    /// short enough for a window of 16 to fall between the host's slow
    /// phases. A window of whole laps takes about 4 s on `fuzz_campaign`
    /// and 8 s on `ckpt_ring26`; with 7–11 of them in a run, the lowest
    /// window median of `fuzz_campaign` moved with how many there were and
    /// spread 0.23 and 0.40 over two sets of ten seeds, against 0.19 for
    /// the plain median.
    fn window(self) -> Option<usize> {
        match self {
            Workload::Bulk => Some(16),
            Workload::Ckpt | Workload::Fuzz => None,
        }
    }

    fn trial(self, seed: u64, i: u64, ph: &mut Phases) -> Trial {
        match self {
            Workload::Ckpt => ckpt::trial(seed, i, ph),
            Workload::Fuzz => fuzz::trial(seed, i, ph),
            Workload::Bulk => bulk::trial(seed, i, ph),
        }
    }
}

/// One trial as the runner sees it.
#[derive(Debug, Default)]
pub struct Trial {
    /// Host seconds for the whole trial, set-up included.
    pub host_s: f64,
    /// Host seconds of world set-up.
    pub setup_s: f64,
    /// Simulated seconds the trial advanced.
    pub sim_s: f64,
    pub ops: Ops,
    /// Exact simulated statistics from the layers' public counters, the
    /// same traced or not: the fingerprint is made of these.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer samples (host times, simulated durations).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Traced only: values read from the event spine.
    pub spine: BTreeMap<&'static str, f64>,
    /// Traced only: spine events by layer (`Event::key` prefix).
    pub events_by_layer: BTreeMap<&'static str, u64>,
    /// Why an output check failed.
    pub problems: Vec<String>,
}

pub fn push_sample(samples: &mut BTreeMap<&'static str, Vec<f64>>, key: &'static str, v: f64) {
    samples.entry(key).or_default().push(v);
}

pub fn engine_counts<W>(sim: &dvc_sim_core::Sim<W>, c: &mut BTreeMap<&'static str, u64>) {
    let s = sim.stats();
    c.insert("engine.pops", trace::pops(sim));
    c.insert("engine.noop_pops", s.noop_pops);
    c.insert("engine.scheduled", s.scheduled);
    c.insert("engine.peak_queue_depth", s.peak_queue_depth);
    c.insert("sim.end_ns", sim.now().nanos());
}

/// Summed `TcpCounters` of every stack given.
pub fn tcp_counts<'a>(
    stacks: impl IntoIterator<Item = &'a dvc_net::tcp::TcpCounters>,
    c: &mut BTreeMap<&'static str, u64>,
) {
    for t in stacks {
        *c.entry("tcp.segs_sent").or_default() += t.segs_sent;
        *c.entry("tcp.bytes_sent").or_default() += t.bytes_sent;
        *c.entry("tcp.retransmits").or_default() += t.retransmits;
        *c.entry("tcp.timeouts").or_default() += t.timeouts;
    }
}

pub fn fabric_counts(f: &dvc_net::fabric::FabricCounters, c: &mut BTreeMap<&'static str, u64>) {
    c.insert("fabric.pkts_delivered", f.delivered);
    let dropped = f.dropped_loss
        + f.dropped_queue
        + f.dropped_no_route
        + f.dropped_nic_down
        + f.dropped_stale_binding;
    c.insert("fabric.pkts_dropped", dropped);
}

/// The fingerprint of a run's first lap: the trials' counts summed, and an
/// FNV digest over every trial's counts in order.
fn fingerprint(trials: &[Trial]) -> BTreeMap<&'static str, u64> {
    let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut digest = stats::FNV_OFFSET;
    for t in trials {
        for (&key, &v) in &t.counts {
            let s = sums.entry(key).or_default();
            *s = s.wrapping_add(v);
            digest = stats::fnv_u64(stats::fnv(digest, key.as_bytes()), v);
        }
    }
    sums.insert("digest", digest);
    sums
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: dvc-hostbench --workload <ckpt_ring26|fuzz_campaign|tcp_bulk> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value.parse::<u32>().map_err(bad)? as f64;
                if seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: String::new(),
    }
}

/// What a run keeps: the timings of every trial, but every detail only of
/// the first lap, so that the process's peak RSS is the simulator's and
/// not the benchmark's bookkeeping.
#[derive(Default)]
struct Run {
    /// `[host_s, setup_s, sim_s, done_s]` of every untraced trial;
    /// `done_s` is when it ended, in seconds since the run began.
    times: Vec<[f64; 4]>,
    /// The first lap in full, untraced, and its traced twins.
    lap: Vec<Trial>,
    traced_lap: Vec<Trial>,
    /// Samples of every untraced trial.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Pops and host seconds summed over every untraced trial, and host
    /// seconds over every traced twin.
    pops: f64,
    host_s: f64,
    traced_host_s: f64,
    ops: Ops,
    problems: Vec<String>,
    wall_s: f64,
}

impl Run {
    fn add(&mut self, lap: usize, mut t: Trial, twin: Option<Trial>, done_s: f64) {
        let i = self.times.len();
        self.times.push([t.host_s, t.setup_s, t.sim_s, done_s]);
        self.pops += t.counts.get("engine.pops").copied().unwrap_or(0) as f64;
        self.host_s += t.host_s;
        for (key, xs) in std::mem::take(&mut t.samples) {
            self.samples.entry(key).or_default().extend(xs);
        }
        for x in std::iter::once(&t).chain(twin.as_ref()) {
            self.ops.add(x.ops);
            self.problems.extend(x.problems.iter().cloned());
        }
        if let Some(twin) = twin {
            if twin.counts != t.counts {
                self.problems.push(format!(
                    "trial {i}: traced fingerprint differs from untraced (sinks not passive)"
                ));
            }
            self.traced_host_s += twin.host_s;
            if i < lap {
                self.traced_lap.push(twin);
            }
        }
        if i < lap {
            self.lap.push(t);
        }
    }
}

/// Trials back to back until `seconds` have passed, then on to the end of
/// the lap. Traced, each trial runs both untraced and traced.
fn run(a: &Args) -> (Run, Phases) {
    let (w, traced) = (a.workload, a.trace);
    let lap = w.lap();
    let mut plain = Phases::new(false);
    let mut phases = Phases::new(true);
    let mut r = Run::default();
    let start = Instant::now();
    while r.times.is_empty()
        || r.times.len() % lap != 0
        || start.elapsed().as_secs_f64() < a.seconds
    {
        let i = r.times.len() as u64;
        // Alternate which twin runs first, so neither always inherits the
        // other's warm allocator and caches.
        let twin_first = traced && i % 2 == 1;
        let twin = twin_first.then(|| w.trial(a.seed, i, &mut phases));
        let t = w.trial(a.seed, i, &mut plain);
        let twin = twin.or_else(|| traced.then(|| w.trial(a.seed, i, &mut phases)));
        r.add(lap, t, twin, start.elapsed().as_secs_f64());
    }
    r.wall_s = start.elapsed().as_secs_f64();
    (r, phases)
}

/// End-to-end metrics. Throughput and the median come from the run's
/// fastest window when the workload is cut into windows (see
/// [`Workload::window`]); the tail and set-up time from every trial.
fn end_to_end(r: &Run, window: Option<usize>) -> Vec<Metric> {
    let col = |ts: &[[f64; 4]], f: fn(&[f64; 4]) -> f64| sorted(ts.iter().map(f).collect());
    let ms = col(&r.times, |t| t[0] * 1e3);
    let n = ms.len();
    let t = tail(&ms);
    let in_order: Vec<f64> = r.times.iter().map(|t| t[0] * 1e3).collect();
    let (range, windows) = match window {
        Some(w) => stats::fastest_window(&in_order, w),
        None => (0..n, 1),
    };
    let began = match range.start {
        0 => 0.0,
        i => r.times[i - 1][3],
    };
    let fast = &r.times[range];
    let k = fast.len();
    let wall = fast[k - 1][3] - began;
    let mut m = vec![
        metric("trials_per_s", "1/s", k as f64 / wall),
        metric("trial_p50_ms", "ms", median(&col(fast, |t| t[0] * 1e3))),
        metric("trial_tail_ms", "ms", t.value),
        metric(
            "sim_s_per_host_s",
            "s/s",
            stats::geomean(&col(fast, |t| t[2] / t[0])),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric("setup_s", "s", median(&col(&r.times, |t| t[1]))),
    ];
    let scope = if k < n {
        format!("the fastest of {windows} windows of {k} trials ({n} trials in the run)")
    } else {
        format!("all {n} trials")
    };
    m[0].note = format!("over {scope}");
    m[1].note = format!("median over {scope}");
    m[2].note = format!(
        "p{} of {n} trials, {} beyond{}",
        t.pct,
        t.beyond,
        if t.beyond < stats::TAIL_BEYOND {
            " (fewer than 20 trials: median reported)"
        } else {
            ""
        }
    );
    m[3].note = format!("geometric mean over {scope}");
    m[5].note = format!("median of {n} set-ups");
    m
}

/// Per-layer metrics: counts are means per trial over the first lap of
/// traced twins; host times come from every untraced trial or from the
/// traced phase spans, as each name says.
fn per_layer(r: &Run, phases: &Phases) -> Vec<Metric> {
    let lap = &r.traced_lap;
    let lookup = |t: &Trial, key: &str| {
        t.counts
            .get(key)
            .map(|&v| v as f64)
            .or_else(|| t.spine.get(key).copied())
    };
    let mean = |key: &str| {
        lap.iter()
            .filter_map(|t| lookup(t, key))
            .fold(0.0, |a, v| a + v)
            / lap.len() as f64
    };
    let p50 = |xs: Vec<f64>| {
        if xs.is_empty() {
            0.0
        } else {
            median(&sorted(xs))
        }
    };
    let p50_all = |key: &str| p50(r.samples.get(key).cloned().unwrap_or_default());
    let p50_lap = |key: &str| {
        p50(lap
            .iter()
            .flat_map(|t| t.samples.get(key).into_iter().flatten().copied())
            .collect())
    };
    let per_call = |name: &str| {
        phases.totals.get(name).map_or(0.0, |p: &PhaseTotal| {
            p.host_ns as f64 / p.count.max(1) as f64
        })
    };
    let margin = lap
        .iter()
        .filter_map(|t| t.spine.get("lsc.margin_sim_ms").copied())
        .fold(f64::INFINITY, f64::min);

    let mut m = Vec::new();
    for &(name, unit) in LAYER_METRICS {
        let value = match name {
            "engine.noop_ratio" => mean("engine.noop_pops") / mean("engine.pops").max(1.0),
            "engine.host_ns_per_pop" if r.pops > 0.0 => r.host_s * 1e9 / r.pops,
            "engine.host_ns_per_pop" => 0.0,
            "spine.traced_slowdown" => r.traced_host_s / r.host_s,
            "tcp.host_ns_per_kib" | "lsc.round_host_ms" => p50_all(name),
            "tcp.send_call_ns" => per_call("send"),
            "tcp.recv_call_ns" => per_call("recv"),
            "lsc.round_pops" | "lsc.pause_skew_sim_ms" | "lsc.save_sim_ms" => p50_lap(name),
            "lsc.margin_sim_ms" if margin.is_finite() => margin,
            "lsc.margin_sim_ms" => 0.0,
            _ => mean(name),
        };
        m.push(metric(name, unit, value));
    }
    m
}

/// Every per-layer metric with its unit, in report order. A metric a
/// workload does not exercise reads 0 there.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("engine.pops", "count"),
    ("engine.noop_ratio", "ratio"),
    ("engine.peak_queue_depth", "count"),
    ("engine.scheduled", "count"),
    ("engine.host_ns_per_pop", "ns"),
    ("spine.events", "count"),
    ("spine.spans", "count"),
    ("spine.traced_slowdown", "x"),
    ("tcp.segs_sent", "count"),
    ("tcp.bytes_sent", "B"),
    ("tcp.retransmits", "count"),
    ("tcp.timeouts", "count"),
    ("fabric.pkts_delivered", "count"),
    ("fabric.pkts_dropped", "count"),
    ("tcp.host_ns_per_kib", "ns/KiB"),
    ("tcp.send_call_ns", "ns"),
    ("tcp.recv_call_ns", "ns"),
    ("mpi.msgs_sent", "count"),
    ("mpi.bytes_sent", "B"),
    ("ring.laps", "count"),
    ("vmm.snapshots", "count"),
    ("vmm.snapshot_bytes", "B"),
    ("vmm.pauses", "count"),
    ("storage.bytes", "B"),
    ("storage.transfers", "count"),
    ("storage.failed", "count"),
    ("storage.retries", "count"),
    ("fault.ctrl_dropped", "count"),
    ("ntp.unanswered", "count"),
    ("ntp.sync_stale", "count"),
    ("lsc.rounds", "count"),
    ("lsc.rounds_ok", "count"),
    ("lsc.attempts", "count"),
    ("lsc.round_host_ms", "ms"),
    ("lsc.round_pops", "count"),
    ("lsc.pause_skew_sim_ms", "ms"),
    ("lsc.save_sim_ms", "ms"),
    ("lsc.margin_sim_ms", "ms"),
    ("fuzz.windows_checked", "count"),
    ("fuzz.faults_injected", "count"),
    ("fuzz.detections", "count"),
    ("fuzz.oracle_failures", "count"),
];

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model, parallelism, toolchain, profile and commit.
fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        ("rustc", env!("HOSTBENCH_RUSTC").to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("commit", env!("HOSTBENCH_COMMIT").to_string()),
    ]
}

/// Reference entries for this workload, seed and prefix length.
fn reference(w: Workload, seed: u64) -> BTreeMap<String, u64> {
    let head = format!("{} {seed} {} ", w.name(), w.lap());
    REFERENCE
        .lines()
        .filter_map(|l| l.strip_prefix(&head))
        .filter_map(|rest| {
            let (key, v) = rest.split_once(' ')?;
            Some((key.to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("dvc-hostbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = a.workload;
    let k = w.lap();
    eprintln!(
        "dvc-hostbench: {} seed {} for {} s, {} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
        w.name(),
        a.seed,
        a.seconds,
        if a.trace { "traced" } else { "untraced" }
    );

    let (mut r, phases) = run(&a);
    let mut problems = std::mem::take(&mut r.problems);
    let metrics = if a.trace {
        per_layer(&r, &phases)
    } else {
        end_to_end(&r, w.window())
    };
    let fp = fingerprint(&r.lap);
    for m in &metrics {
        if !m.value.is_finite() || !stats::valid_name(m.name) {
            problems.push(format!("metric {:?} = {} is malformed", m.name, m.value));
        }
    }

    // Human-readable report.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# dvc-hostbench {} (seed {}, {})",
        w.name(),
        a.seed,
        if a.trace { "traced" } else { "untraced" }
    );
    for (k, v) in host_fingerprint() {
        let _ = writeln!(out, "host.{k}: {v}");
    }
    let _ = writeln!(
        out,
        "trials: {} in {:.3} s; operations: {} attempted, {} failed, fail_ratio {}",
        r.times.len(),
        r.wall_s,
        r.ops.attempted,
        r.ops.failed,
        r.ops.ratio()
    );
    for m in &metrics {
        let _ = writeln!(
            out,
            "{:<26} {:>16.6} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if a.trace {
        let _ = writeln!(
            out,
            "phase profile (traced twins; host ms, sim s, pops, host ns/pop):"
        );
        for (name, p) in &phases.totals {
            let _ = writeln!(
                out,
                "  {name:<13} x{:<7} {:>12.3} ms {:>12.3} s {:>12} pops {:>10.1} ns/pop",
                p.count,
                p.host_ns as f64 / 1e6,
                p.sim_ns as f64 / 1e9,
                p.pops,
                if p.pops > 0 {
                    p.host_ns as f64 / p.pops as f64
                } else {
                    0.0
                }
            );
        }
        let mut mix: BTreeMap<&str, u64> = BTreeMap::new();
        for t in &r.traced_lap {
            for (layer, v) in &t.events_by_layer {
                *mix.entry(layer).or_default() += v;
            }
        }
        if !mix.is_empty() {
            let line: Vec<String> = mix.iter().map(|(l, v)| format!("{l}={v}")).collect();
            let _ = writeln!(
                out,
                "spine events by layer (first {k} trials): {}",
                line.join(" ")
            );
        }
    }
    let reference = reference(w, a.seed);
    let _ = writeln!(out, "fingerprint (first {k} trials):");
    for (key, v) in &fp {
        let _ = writeln!(out, "{} {} {k} {key} {v}", w.name(), a.seed);
    }
    if reference.is_empty() {
        let _ = writeln!(out, "fingerprint: no reference for seed {}", a.seed);
    } else {
        let fp: BTreeMap<String, u64> = fp.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let keys: std::collections::BTreeSet<&String> = fp.keys().chain(reference.keys()).collect();
        let diffs: Vec<String> = keys
            .into_iter()
            .filter(|k| fp.get(*k) != reference.get(*k))
            .map(|k| format!("{k}: {:?} -> {:?}", reference.get(k), fp.get(k)))
            .collect();
        if diffs.is_empty() {
            let _ = writeln!(out, "fingerprint: matches reference");
        } else {
            let _ = writeln!(
                out,
                "fingerprint: DIFFERS from reference (model behaviour changed):"
            );
            for d in diffs {
                let _ = writeln!(out, "  {d}");
            }
        }
    }
    for p in problems.iter().take(20) {
        let _ = writeln!(out, "CHECK FAILED: {p}");
    }
    print!("{out}");

    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let path = format!(
        "{results}/{}-seed{}-trace{}.txt",
        w.name(),
        a.seed,
        a.trace as u8
    );
    if let Err(e) = std::fs::create_dir_all(results).and_then(|_| std::fs::write(&path, &out)) {
        eprintln!("dvc-hostbench: could not write {path}: {e}");
    }

    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.ops.attempted,
        r.ops.failed,
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_trial() -> Run {
        Run {
            times: vec![[0.5, 0.1, 2.0, 1.0]],
            wall_s: 1.0,
            ..Run::default()
        }
    }

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed() {
        let e2e = end_to_end(&one_trial(), None);
        let names = e2e
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYER_METRICS.iter().copied());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in names {
            assert!(stats::valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for w in Workload::ALL {
            assert!(stats::valid_name(w.name()));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let text = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("section ends") + start;
            text[start..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim_start()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = end_to_end(&one_trial(), None)
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layer: Vec<String> = LAYER_METRICS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("per_layer"), layer);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(section("workloads"), workloads);
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload tcp_bulk --seed 5 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Bulk, 5, 3.0, true)
        );
        let a = args("--workload ckpt_ring26").unwrap();
        assert_eq!((a.seed, a.trace), (DEFAULT_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload tcp_bulk --trace 2",
            "--workload tcp_bulk --seconds 0",
            "--seed 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn only_tcp_bulk_is_cut_into_windows() {
        assert_eq!(Workload::Bulk.window(), Some(16));
        assert_eq!(Workload::Ckpt.window(), None);
        assert_eq!(Workload::Fuzz.window(), None);
    }

    #[test]
    fn fingerprint_is_stable_across_same_seed_runs() {
        let mut ph = Phases::new(false);
        for w in Workload::ALL {
            let mut run =
                |seed| -> Vec<Trial> { (0..2).map(|i| w.trial(seed, i, &mut ph)).collect() };
            let one = fingerprint(&run(9));
            assert_eq!(one, fingerprint(&run(9)), "{}", w.name());
            // On the lossless link the seed changes only the payload bytes,
            // which the byte check covers; elsewhere it reseeds the world.
            let other = fingerprint(&run(10));
            assert_eq!(one == other, w == Workload::Bulk, "{}", w.name());
        }
    }
}
