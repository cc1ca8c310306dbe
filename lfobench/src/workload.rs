//! The three workloads: what trace each replays, at which cache size, and
//! with which LFO, shard and guardrail settings. README.md describes the
//! resulting inputs.

use cdn_trace::{GeneratorConfig, TraceStats};
use lfo::{EvictionStrategy, GuardrailConfig, LfoConfig, ShardParams, TrackerBudget};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Production mix through a 1-shard fleet, exact tracker and queue.
    ServeStandard,
    /// Huge catalog through a 1-shard fleet, bounded tracker, sample-K.
    ServeHugeCatalog,
    /// The Figure 2 loop (OPT labels → GBDT → deploy) window by window.
    Retrain,
}

pub const ALL: [Workload; 3] = [
    Workload::ServeStandard,
    Workload::ServeHugeCatalog,
    Workload::Retrain,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeStandard => "serve-standard",
            Workload::ServeHugeCatalog => "serve-huge-catalog",
            Workload::Retrain => "retrain",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent sites per run. Each site has its own generated trace,
    /// cache and model; the run's figures are over all of them. A trace's
    /// byte total is dominated by a few popular large downloads, so one
    /// site's BHR moves with the seed; averaging sites steadies it.
    pub fn sites(self) -> u64 {
        match self {
            Workload::ServeStandard | Workload::ServeHugeCatalog => 8,
            Workload::Retrain => 4,
        }
    }

    /// Requests in each site's generated trace.
    pub fn requests(self) -> usize {
        match self {
            Workload::ServeStandard => 200_000,
            Workload::ServeHugeCatalog => 200_000,
            Workload::Retrain => 60_000,
        }
    }

    /// Requests per window: the serve workloads train on window 0 and score
    /// accuracy on window 1; `retrain` runs one pipeline step per window.
    pub fn window(self) -> usize {
        match self {
            Workload::ServeStandard | Workload::ServeHugeCatalog => 5_000,
            Workload::Retrain => 2_500,
        }
    }

    /// Cache size as a fraction of the trace's unique bytes.
    pub fn cache_fraction(self) -> f64 {
        match self {
            Workload::ServeStandard | Workload::Retrain => 0.10,
            Workload::ServeHugeCatalog => 0.05,
        }
    }

    /// The generator of `site`'s trace in the run with `seed`: sites of
    /// one run, and runs of different seeds, never share a trace seed.
    pub fn generator(self, seed: u64, site: u64) -> GeneratorConfig {
        let n = self.requests() as u64;
        let seed = seed.wrapping_mul(self.sites()).wrapping_add(site);
        match self {
            Workload::ServeStandard | Workload::Retrain => GeneratorConfig::production(seed, n),
            Workload::ServeHugeCatalog => GeneratorConfig::huge_catalog(seed, n),
        }
    }

    /// The serving configuration. The huge catalog bounds tracker state to
    /// five times the number of mean-sized objects the cache holds, evicts
    /// by a 16-sample minimum and thins the gap history to 1,2,4,8,16.
    pub fn lfo_config(self, cache_size: u64, mean_object_size: f64) -> LfoConfig {
        match self {
            Workload::ServeStandard | Workload::Retrain => LfoConfig::default(),
            Workload::ServeHugeCatalog => {
                let resident = (cache_size as f64 / mean_object_size.max(1.0)).ceil() as usize;
                LfoConfig {
                    tracker_budget: Some(TrackerBudget::capped((5 * resident).max(64))),
                    eviction: Some(EvictionStrategy::sample(16)),
                    gap_schedule: Some(vec![1, 2, 4, 8, 16]),
                    ..LfoConfig::default()
                }
            }
        }
    }

    /// The serve workloads' guardrail enforces with its defaults; the
    /// pipeline serves without one, as `PipelineConfig` does by default.
    pub fn guardrail(self) -> Option<GuardrailConfig> {
        match self {
            Workload::ServeStandard | Workload::ServeHugeCatalog => {
                Some(GuardrailConfig::default())
            }
            Workload::Retrain => None,
        }
    }

    /// One shard, so one router thread and one worker.
    pub fn shard_params(self) -> ShardParams {
        ShardParams {
            guardrail: self.guardrail(),
            ..ShardParams::with_shards(1)
        }
    }
}

/// Prints the make-up of a workload's generated input.
pub fn describe(w: Workload, seed: u64, site: u64, stats: &TraceStats, cache_size: u64) {
    println!(
        "input {} seed {seed} site {site}: {} requests, {} unique objects, {} total bytes, \
         one-hit-wonder share {:.3}, cache {} bytes, window {}",
        w.name(),
        stats.requests,
        stats.unique_objects,
        stats.total_bytes,
        stats.one_hit_wonder_ratio,
        cache_size,
        w.window()
    );
}
