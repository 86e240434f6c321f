//! Splits the wall time of a traced run across the simulator's layers.
//!
//! The traced run is the simulator's own self-profiler
//! (`ExperimentConfig::with_profile`): it times every
//! `EventHandler::handle` call per event class, and the event queue's
//! pop/peek path separately. This module only maps those event classes
//! onto the crates that handle them.

use desim::Profile;

/// Layers in report order. The first two are the dispatch loop itself:
/// `desim.queue` is the queue's pop/peek path and `desim.loop_other` is
/// wall time minus handler time minus queue time. Every other layer owns
/// event classes.
pub const LAYERS: [&str; 11] = [
    "desim.queue",
    "desim.loop_other",
    "cluster.deliver",
    "nic.irq",
    "nic.tx",
    "kernel.sched",
    "bypass.poll",
    "governors.tick",
    "apps.client",
    "cluster.control",
    "fleet.control",
];

/// Layers that some workloads never run. Their times stay off the result
/// line, where they would read exactly 0 on every run of those
/// workloads; their event counts go on it. The printed table and `--out`
/// carry everything.
const ABSENT_ON_SOME_WORKLOADS: [&str; 3] = ["nic.irq", "bypass.poll", "fleet.control"];

/// Diagnostics of the traced run as a whole.
pub const DIAGNOSTICS: [(&str, &str); 3] = [
    ("desim.events_per_s", "1/s"),
    ("desim.queue_share", "ratio"),
    ("desim.profiler_overhead_pct", "%"),
];

/// Names of the per-layer metrics on the result line of `--trace 1`, in
/// order; `BENCHMARK.json` lists the same names under `per_layer`.
pub fn result_line_metrics() -> Vec<String> {
    let mut names = Vec::new();
    for layer in LAYERS {
        if ABSENT_ON_SOME_WORKLOADS.contains(&layer) {
            names.push(format!("{layer}.events"));
        } else {
            names.push(format!("{layer}.busy_s"));
            names.push(format!("{layer}.events"));
            names.push(format!("{layer}.ns_per_event"));
        }
    }
    names.extend(DIAGNOSTICS.iter().map(|(name, _)| (*name).to_string()));
    names
}

/// The layer that handles events of `class` (a label from
/// `EventHandler::classify`).
fn layer_of(class: &str) -> &'static str {
    match class {
        // Switch egress, the LB, the NIC's frame arrival and the
        // clients' response accounting all run inside `deliver`.
        "deliver" => "cluster.deliver",
        "node.rx_dma" | "node.moderation_delay" | "node.mitt" => "nic.irq",
        "node.tx_wire" => "nic.tx",
        "node.job_done" | "node.wake_done" | "node.io_done" => "kernel.sched",
        "node.poll_rx" => "bypass.poll",
        "node.governor_tick" | "node.ncap_sw_timer" => "governors.tick",
        "client_burst" => "apps.client",
        "retx_check" | "watchdog" | "sample" | "start_measure" => "cluster.control",
        c if c.starts_with("fleet_") || c.starts_with("backend_") || c.starts_with("domain_") => {
            "fleet.control"
        }
        _ => "unmapped",
    }
}

/// Busy time and dispatch count of one layer in a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    pub busy_ns: u64,
    pub events: u64,
}

impl LayerCost {
    pub fn ns_per_event(self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.events as f64
        }
    }
}

/// Per-layer costs of `profile`, in [`LAYERS`] order, plus an `unmapped`
/// entry when the simulator grew an event class this map does not know.
pub fn split(profile: &Profile) -> Vec<(&'static str, LayerCost)> {
    let mut layers: Vec<(&'static str, LayerCost)> =
        LAYERS.iter().map(|&l| (l, LayerCost::default())).collect();
    let loop_other = profile
        .wall_ns
        .saturating_sub(profile.handler_ns + profile.queue_ns);
    layers[0].1 = LayerCost {
        busy_ns: profile.queue_ns,
        events: profile.events,
    };
    layers[1].1 = LayerCost {
        busy_ns: loop_other,
        events: profile.events,
    };
    for class in &profile.classes {
        let layer = layer_of(class.name);
        let i = match layers.iter().position(|(l, _)| *l == layer) {
            Some(i) => i,
            None => {
                layers.push((layer, LayerCost::default()));
                layers.len() - 1
            }
        };
        layers[i].1.busy_ns += class.elapsed_ns;
        layers[i].1.events += class.count;
    }
    layers
}
