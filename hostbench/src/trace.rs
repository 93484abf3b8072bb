//! The traced pass: the benchmark's own phase spans around the calls it
//! makes, and the sinks it attaches to the event spine. Nothing here is
//! instrumentation inside the program; it only reads what the program
//! already emits.

use crate::Trial;
use dvc_sim_core::{
    Event, EventSink, Metrics, PhaseAttribution, Sim, SimDuration, SimTime, SpanChecker,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One phase's totals over a run: calls, host ns, simulated ns, pops.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotal {
    pub count: u64,
    pub host_ns: u64,
    pub sim_ns: u64,
    pub pops: u64,
}

/// Start of an open phase span.
pub struct Mark {
    host: Instant,
    sim: SimTime,
    pops: u64,
}

/// Total pops (dispatched handlers plus cancelled no-ops) so far.
pub fn pops<W>(sim: &Sim<W>) -> u64 {
    let s = sim.stats();
    s.executed + s.noop_pops
}

/// Phase spans recorded around the benchmark's calls. Disabled (untraced
/// pass) it records nothing and takes no clock readings.
#[derive(Debug, Default)]
pub struct Phases {
    on: bool,
    pub totals: BTreeMap<&'static str, PhaseTotal>,
}

impl Phases {
    pub fn new(on: bool) -> Self {
        Phases {
            on,
            totals: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn mark<W>(&self, sim: &Sim<W>) -> Option<Mark> {
        self.on.then(|| Mark {
            host: Instant::now(),
            sim: sim.now(),
            pops: pops(sim),
        })
    }

    pub fn close<W>(&mut self, name: &'static str, mark: Option<Mark>, sim: &Sim<W>) {
        if let Some(m) = mark {
            let host_ns = m.host.elapsed().as_nanos() as u64;
            let sim_ns = sim.now().since(m.sim).nanos();
            self.record(name, host_ns, sim_ns, pops(sim) - m.pops);
        }
    }

    pub fn record(&mut self, name: &'static str, host_ns: u64, sim_ns: u64, pops: u64) {
        if !self.on {
            return;
        }
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.host_ns += host_ns;
        t.sim_ns += sim_ns;
        t.pops += pops;
    }
}

/// Counts events by the layer prefix of [`Event::key`] (`tcp`, `lsc`, ...).
#[derive(Debug, Default)]
pub struct LayerCounter {
    pub total: u64,
    pub by_layer: BTreeMap<&'static str, u64>,
}

impl EventSink for LayerCounter {
    fn on_event(&mut self, _time: SimTime, event: &Event) {
        let key = event.key();
        let layer = key.split_once('.').map_or(key, |(l, _)| l);
        self.total += 1;
        *self.by_layer.entry(layer).or_default() += 1;
    }
}

/// The sinks a traced trial attaches, kept so their results can be read
/// after the trial.
pub struct Spine {
    pub layers: Rc<RefCell<LayerCounter>>,
    pub spans: Rc<RefCell<SpanChecker>>,
    pub attrib: Rc<RefCell<PhaseAttribution>>,
}

impl Spine {
    /// Turn on the metrics registry and attach the three sinks.
    pub fn attach<W>(sim: &mut Sim<W>, budget: SimDuration) -> Spine {
        sim.metrics = Metrics::enabled();
        let spine = Spine {
            layers: Rc::new(RefCell::new(LayerCounter::default())),
            spans: Rc::new(RefCell::new(SpanChecker::new())),
            attrib: Rc::new(RefCell::new(PhaseAttribution::new(budget))),
        };
        sim.attach_sink(spine.layers.clone());
        sim.attach_sink(spine.spans.clone());
        sim.attach_sink(spine.attrib.clone());
        spine
    }

    /// Per-layer values read from the spine and its registry at trial end.
    /// `lsc.margin_sim_ms` (the smallest margin of any round that paused a
    /// guest) is present only when some round did.
    pub fn read<W>(&self, sim: &Sim<W>, t: &mut Trial) {
        let m = &sim.metrics;
        let layers = self.layers.borrow();
        t.events_by_layer = layers.by_layer.clone();
        let out = &mut t.spine;
        out.insert("spine.events", layers.total as f64);
        out.insert("spine.spans", self.spans.borrow().opened() as f64);
        out.insert("vmm.snapshots", m.counter("vmm.snapshot_end") as f64);
        let snap = m.snapshot();
        let bytes = snap
            .hists
            .get("vmm.snapshot_bytes")
            .map_or(0.0, |h| h.sum());
        out.insert("vmm.snapshot_bytes", bytes);
        for key in ["fault.ctrl_dropped", "ntp.unanswered", "ntp.sync_stale"] {
            out.insert(key, m.counter(key) as f64);
        }
        let mut attrib = self.attrib.borrow_mut();
        attrib.observe_end(sim.now());
        attrib.seal();
        let budget = attrib.budget();
        let margin = attrib
            .rounds()
            .iter()
            .filter_map(|r| r.margin_s(budget))
            .fold(f64::INFINITY, f64::min);
        if margin.is_finite() {
            out.insert("lsc.margin_sim_ms", margin * 1e3);
        }
    }

    /// Span-tree findings, unclosed spans included (must be none).
    pub fn span_findings(&self) -> Vec<String> {
        self.spans.borrow().findings()
    }
}
