//! The serve workloads, and the serving-layer probes the traced runs share.
//!
//! Set-up generates the trace, solves OPT on window 0, trains the model,
//! fits its bin map and compiles the artifact into a slot. The measured
//! part replays the whole trace through a fresh 1-shard
//! [`ShardedLfoCache`] per round, timing first `handle` to `finish()`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cdn_cache::policies::lru::Lru;
use cdn_cache::{simulate, CachePolicy, RequestOutcome, SimConfig};
use cdn_trace::{Request, TraceGenerator, TraceStats};
use gbdt::BinMap;
use lfo::labels::build_training_set;
use lfo::pipeline::{run_pipeline, PipelineConfig};
use lfo::{
    train_window, CacheMetrics, LfoArtifact, LfoCache, LfoConfig, ModelSlot, Provenance,
    ShardParams, ShardedLfoCache, SharedDoorkeeper, SharedOccupancy, SketchPoolStats, FREE_FEATURE,
};
use opt::bounds::infinite_cache_bound;
use opt::{compute_opt, OptConfig, OptResult};

use crate::checks;
use crate::report::{mean, median, peak_rss_mb, quantile, sustained_rate, Outcome};
use crate::spans::Spans;
use crate::workload::{self, Workload};

/// What the serving path needs: requests, capacity, configuration and the
/// slot the compiled artifact was published to.
pub struct Serving {
    pub requests: Vec<Request>,
    pub cache_size: u64,
    pub config: LfoConfig,
    pub params: ShardParams,
    pub slot: ModelSlot,
}

/// One fleet replay of the whole trace.
pub struct Round {
    pub metrics: CacheMetrics,
    /// First `handle` to `finish()` returning.
    pub secs: f64,
    /// Router-thread time in the `handle` loop, backpressure included.
    pub route_secs: f64,
    /// Time spent in `finish()`.
    pub drain_secs: f64,
    pub pool: Option<SketchPoolStats>,
}

impl Serving {
    /// Replays the trace through a fresh 1-shard fleet on the shared slot.
    pub fn fleet_round(&self, spans: &mut Spans) -> Round {
        let mut fleet = ShardedLfoCache::with_params(
            self.cache_size,
            self.config.clone(),
            self.params,
            self.slot.clone(),
        );
        let pool = fleet.sketch_pool().map(Arc::clone);
        let round = spans.open("fleet.round");
        let started = Instant::now();
        spans.time("shard.route", || {
            for request in &self.requests {
                fleet.handle(request);
            }
        });
        let routed = Instant::now();
        let report = spans.time("shard.drain", || fleet.finish());
        let done = Instant::now();
        spans.close(round);
        Round {
            metrics: report.total(),
            secs: (done - started).as_secs_f64(),
            route_secs: (routed - started).as_secs_f64(),
            drain_secs: (done - routed).as_secs_f64(),
            pool: pool.map(|p| p.stats()),
        }
    }

    /// A cache set up exactly like the 1-shard fleet's worker: full
    /// capacity joined to a one-member pool, the fleet doorkeeper when the
    /// budget is bounded, and the guardrail scoped to the whole capacity.
    fn in_thread_cache(&self, guardrail: bool) -> LfoCache {
        let mut cache =
            LfoCache::with_slot(self.cache_size, self.config.clone(), self.slot.clone());
        cache.join_pool(SharedOccupancy::new(self.cache_size, 1), 0);
        if self.params.shared_sketch && self.config.budget().is_bounded() {
            cache.join_sketch_pool(Arc::new(SharedDoorkeeper::new(self.config.budget(), 1)), 0);
        }
        if let (true, Some(guard)) = (guardrail, self.params.guardrail) {
            cache.enable_guardrail_scoped(guard, self.cache_size);
        }
        cache
    }

    /// Replays the trace through one `LfoCache` on this thread and returns
    /// the counters the fleet's worker would report, plus the wall time.
    /// With `per_request`, each `handle` is timed and its ns pushed to the
    /// bucket of its outcome (hit, admitted, bypassed).
    pub fn replay(
        &self,
        guardrail: bool,
        mut per_request: Option<&mut [Vec<u32>; 3]>,
    ) -> (CacheMetrics, f64) {
        let mut cache = self.in_thread_cache(guardrail);
        let mut metrics = CacheMetrics::default();
        let started = Instant::now();
        for request in &self.requests {
            let outcome = match per_request.as_deref_mut() {
                Some(buckets) => {
                    let t = Instant::now();
                    let outcome = cache.handle(request);
                    let ns = t.elapsed().as_nanos().min(u32::MAX as u128) as u32;
                    let bucket = match outcome {
                        RequestOutcome::Hit => 0,
                        RequestOutcome::Miss { admitted: true } => 1,
                        RequestOutcome::Miss { admitted: false } => 2,
                    };
                    buckets[bucket].push(ns);
                    outcome
                }
                None => cache.handle(request),
            };
            metrics.record(request.size, outcome);
        }
        let secs = started.elapsed().as_secs_f64();
        metrics.evictions = cache.evictions;
        metrics.used_bytes = cache.used();
        metrics.resident_objects = cache.len() as u64;
        if let Some(snap) = cache.guardrail() {
            metrics.guardrail_trips = snap.trips;
            metrics.guardrail_forced_requests = snap.forced_requests;
            metrics.shadow_total_bytes = snap.shadow_total_bytes;
            metrics.shadow_lru_hit_bytes = snap.shadow_lru_hit_bytes;
            metrics.shadow_realized_hit_bytes = snap.shadow_realized_hit_bytes;
            metrics.shadow_doorkeeper_skips = snap.doorkeeper_skips;
            metrics.shadow_doorkeeper_saved_bytes = snap.doorkeeper_saved_bytes;
        }
        (metrics, secs)
    }

    /// Byte hit ratio of an exact LRU over the same requests and capacity.
    pub fn lru_bhr(&self) -> f64 {
        let mut lru = Lru::new(self.cache_size);
        let lru: &mut dyn CachePolicy = &mut lru;
        simulate(lru, &self.requests, &SimConfig::default())
            .measured
            .bhr()
    }

    /// The checks every serve run makes on a fleet round's counters. A
    /// broken guardrail bound is recorded in `bound_violations`.
    pub fn check_round(&self, outcome: &mut Outcome, fleet: &CacheMetrics, lru_bhr: f64) {
        outcome.check(checks::conservation(fleet, &self.requests));
        outcome.check(checks::within_infinite_cache(
            fleet,
            &infinite_cache_bound(&self.requests),
        ));
        outcome.check(checks::within_capacity(fleet, self.cache_size));
        if let Some(guard) = &self.params.guardrail {
            if let Err(e) = checks::guardrail_bound(fleet.bhr(), lru_bhr, guard) {
                outcome.bound_violations.push(e);
            }
        }
    }

    /// Per-layer probes of the serving path on this thread: the policy by
    /// outcome, the guardrail's cost, the feature tracker and the scorer.
    /// Returns the in-thread replay's counters (the guardrail-on replay,
    /// timed per request) for the fleet comparison.
    pub fn probe_layers(&self, spans: &mut Spans, outcome: &mut Outcome) -> CacheMetrics {
        let n = self.requests.len() as f64;

        let mut buckets: [Vec<u32>; 3] = Default::default();
        let (timed, _) = spans.time("policy.replay_timed", || {
            self.replay(true, Some(&mut buckets))
        });
        let med = |v: &[u32]| {
            let v: Vec<f64> = v.iter().map(|&x| f64::from(x)).collect();
            median(&v)
        };
        let all: Vec<f64> = buckets.iter().flatten().map(|&x| f64::from(x)).collect();
        outcome.metric("policy.hit_ns", med(&buckets[0]), "ns");
        outcome.metric("policy.admit_ns", med(&buckets[1]), "ns");
        outcome.metric("policy.bypass_ns", med(&buckets[2]), "ns");
        outcome.metric("policy.p99_ns", quantile(&all, 0.99), "ns");
        outcome.metric("policy.hits", timed.hits as f64, "count");
        outcome.metric("policy.admitted", timed.admitted_misses as f64, "count");
        outcome.metric("policy.bypassed", timed.bypassed_misses as f64, "count");
        outcome.metric("policy.evictions", timed.evictions as f64, "count");

        // Guardrail cost: the same replay with and without it, best of
        // three each, interleaved.
        let (mut with, mut without) = (f64::MAX, f64::MAX);
        for _ in 0..3 {
            with = with.min(
                spans
                    .time("policy.replay_guarded", || self.replay(true, None))
                    .1,
            );
            without = without.min(
                spans
                    .time("policy.replay_unguarded", || self.replay(false, None))
                    .1,
            );
        }
        outcome.metric("guardrail.ns", (with - without) * 1e9 / n, "ns");

        // Feature tracker alone: features_into + record per request, with a
        // full cache's free bytes (0), keeping every k-th row for scoring.
        let mut tracker = self.config.tracker();
        let stride = (self.requests.len() / 65_536).max(1);
        let mut row = Vec::new();
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(self.requests.len() / stride + 1);
        let feature_secs = spans.time("features.replay", || {
            let started = Instant::now();
            for (i, request) in self.requests.iter().enumerate() {
                tracker.features_into(request, 0, &mut row);
                tracker.record(request);
                if i % stride == 0 {
                    rows.push(row.clone());
                }
            }
            started.elapsed().as_secs_f64()
        });
        outcome.metric("features.ns", feature_secs * 1e9 / n, "ns");
        outcome.metric(
            "features.bytes",
            tracker.approximate_bytes() as f64,
            "bytes",
        );
        outcome.metric(
            "features.tracked",
            tracker.tracked_objects() as f64,
            "count",
        );

        // Scorer alone on those rows, through the engine a pooled shard of
        // this capacity serves with.
        let quant = self
            .slot
            .pruned_for(FREE_FEATURE, self.cache_size as f64)
            .expect("the artifact publishes a quantized layout");
        let mut bins = Vec::new();
        let score_secs = spans.time("score.rows", || {
            let started = Instant::now();
            let mut sum = 0.0;
            for row in &rows {
                quant.encode_row_into(black_box(row), &mut bins);
                sum += quant.predict_proba_binned(&bins);
            }
            black_box(sum);
            started.elapsed().as_secs_f64()
        });
        outcome.metric(
            "score.ns_per_row",
            score_secs * 1e9 / rows.len() as f64,
            "ns",
        );
        outcome.metric("score.rows", rows.len() as f64, "count");
        timed
    }
}

pub fn opt_config(cache_size: u64, config: &LfoConfig) -> OptConfig {
    OptConfig {
        cache_size,
        cost_model: config.cost_model,
        ..OptConfig::bhr(cache_size)
    }
}

/// A pipeline run's mean per-window deploy-wait and serve time, from its
/// `StageTiming`.
pub fn pipeline_metrics(outcome: &mut Outcome, report: &lfo::PipelineReport) {
    let windows = report.windows.len().max(1) as f64;
    let total = report.total_timing();
    outcome.metric(
        "pipeline.deploy_wait_ms",
        total.deploy_wait.as_secs_f64() * 1e3 / windows,
        "ms",
    );
    outcome.metric(
        "pipeline.serve_ms",
        total.serve.as_secs_f64() * 1e3 / windows,
        "ms",
    );
}

/// One site of a serve workload: its generated trace, the model trained
/// on its window 0, and what set-up measured on the way.
struct Site {
    serving: Serving,
    artifact: LfoArtifact,
    /// Feature tracker advanced through window 0, ready for window 1.
    tracker: lfo::FeatureTracker,
    opt0: OptResult,
    generate_secs: f64,
    opt_ms: f64,
    labels_ms: f64,
    train_ms: f64,
}

/// Set-up of one site: trace, window-0 OPT, labels, training, bin map and
/// artifact compile.
fn setup_site(w: Workload, seed: u64, site: u64, spans: &mut Spans) -> Site {
    let generated = Instant::now();
    let requests = spans
        .time("trace.generate", || {
            TraceGenerator::new(w.generator(seed, site)).generate()
        })
        .into_requests();
    let generate_secs = generated.elapsed().as_secs_f64();
    let stats = TraceStats::from_requests(&requests);
    let cache_size = stats.cache_size_for_fraction(w.cache_fraction());
    let config = w.lfo_config(cache_size, stats.mean_object_size);
    workload::describe(w, seed, site, &stats, cache_size);
    let window = w.window();
    let first = &requests[..window];
    let started = Instant::now();
    let opt0 = spans
        .time("opt.solve", || {
            compute_opt(first, &opt_config(cache_size, &config))
        })
        .expect("window 0 is non-empty");
    let opt_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut tracker = config.tracker();
    let started = Instant::now();
    let data = spans.time("labels.build", || {
        build_training_set(first, &opt0, &mut tracker, cache_size)
    });
    let labels_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let trained = spans.time("gbdt.train", || train_window(&data, &config));
    let train_ms = started.elapsed().as_secs_f64() * 1e3;
    let slot = ModelSlot::new();
    let artifact = spans.time("artifact.compile", || {
        let map = BinMap::fit(&data, config.gbdt.max_bins);
        let artifact = LfoArtifact::new(
            config.clone(),
            trained.model,
            config.cutoff,
            Provenance {
                trace_id: format!("{}-seed{seed}-site{site}", w.name()),
                window: 0,
                slot_version: 0,
                note: "benchmark first-window model".into(),
                lineage: None,
                pop: None,
            },
        )
        .with_bin_map(Some(map));
        artifact.publish_to(&slot);
        artifact
    });
    Site {
        serving: Serving {
            requests,
            cache_size,
            config,
            params: w.shard_params(),
            slot,
        },
        artifact,
        tracker,
        opt0,
        generate_secs,
        opt_ms,
        labels_ms,
        train_ms,
    }
}

/// Runs a serve workload; see the module docs.
pub fn run(w: Workload, seed: u64, seconds: f64, spans: &mut Spans, start: Instant) -> Outcome {
    let mut outcome = Outcome::default();
    let mut sites: Vec<Site> = (0..w.sites())
        .map(|site| setup_site(w, seed, site, spans))
        .collect();
    let setup_s = start.elapsed().as_secs_f64();

    // Measure: rounds that replay every site's whole trace through a fresh
    // 1-shard fleet, until `seconds` have passed. The first round warms the
    // allocator and is left out of the rate. A traced run alternates
    // untraced and traced rounds, so the two rates give the tracing
    // overhead.
    let lens: Vec<u64> = sites
        .iter()
        .map(|s| s.serving.requests.len() as u64)
        .collect();
    let mut untraced: Vec<Vec<f64>> = Vec::new();
    let mut traced_rounds: Vec<Vec<Round>> = Vec::new();
    let mut first: Vec<CacheMetrics> = Vec::new();
    let mut quiet = Spans::new(false, String::new());
    let measuring = Instant::now();
    for round in 0.. {
        let traced = spans.enabled() && untraced.len() > traced_rounds.len();
        let rounds: Vec<Round> = sites
            .iter()
            .map(|site| {
                site.serving
                    .fleet_round(if traced { &mut *spans } else { &mut quiet })
            })
            .collect();
        for (i, r) in rounds.iter().enumerate() {
            outcome.attempted += lens[i];
            outcome.failed += lens[i].saturating_sub(r.metrics.requests);
            match first.get(i) {
                None => first.push(r.metrics),
                Some(f) => outcome.check(checks::repeats(f, &r.metrics)),
            }
        }
        if traced {
            traced_rounds.push(rounds);
        } else if round > 0 {
            untraced.push(rounds.iter().map(|r| r.secs).collect());
        }
        let done = measuring.elapsed().as_secs_f64() >= seconds && !untraced.is_empty();
        if done && traced_rounds.len() >= untraced.len() * usize::from(spans.enabled()) {
            break;
        }
    }
    let reqs_per_s = sustained_rate(&lens, &untraced);

    // Checks on every site, and the accuracy of each site's deployed model
    // on its window 1.
    let window = w.window();
    let mut accuracies = Vec::new();
    let mut lru = Vec::new();
    for (i, site) in sites.iter_mut().enumerate() {
        let serving = &site.serving;
        let fleet = &first[i];
        let lru_bhr = serving.lru_bhr();
        lru.push(lru_bhr);
        serving.check_round(&mut outcome, fleet, lru_bhr);
        let replayed = if spans.enabled() && i == 0 {
            serving.probe_layers(spans, &mut outcome)
        } else {
            serving.replay(true, None).0
        };
        outcome.check(checks::fleet_matches_replay(fleet, &replayed));
        let opt_config = opt_config(serving.cache_size, &serving.config);
        let next = &serving.requests[window..2 * window];
        let opt1 = compute_opt(next, &opt_config).expect("window 1 is non-empty");
        outcome.check(checks::opt_fits(
            &serving.requests[..window],
            &site.opt0,
            serving.cache_size,
        ));
        outcome.check(checks::opt_fits(next, &opt1, serving.cache_size));
        let next_data = build_training_set(next, &opt1, &mut site.tracker, serving.cache_size);
        let confusion = lfo::train::evaluate(
            &site.artifact.model,
            &next_data,
            site.artifact.deployed_cutoff,
        );
        accuracies.push(1.0 - confusion.error_fraction());
    }

    outcome.metric("reqs_per_s", reqs_per_s, "1/s");
    outcome.metric("bhr", mean(first.iter().map(CacheMetrics::bhr)), "ratio");
    outcome.metric("ohr", mean(first.iter().map(CacheMetrics::ohr)), "ratio");
    outcome.metric("accuracy", mean(accuracies.iter().copied()), "ratio");
    outcome.metric("setup_s", setup_s, "s");

    if spans.enabled() {
        let n = lens.iter().sum::<u64>() as f64;
        let traced_secs: Vec<Vec<f64>> = traced_rounds
            .iter()
            .map(|rs| rs.iter().map(|r| r.secs).collect())
            .collect();
        let route: Vec<f64> = traced_rounds
            .iter()
            .map(|rs| rs.iter().map(|r| r.route_secs).sum::<f64>() * 1e9 / n)
            .collect();
        let drain: Vec<f64> = traced_rounds
            .iter()
            .map(|rs| mean(rs.iter().map(|r| r.drain_secs * 1e3)))
            .collect();
        let last = traced_rounds.last().expect("a traced round ran");
        let pools: Vec<SketchPoolStats> = last.iter().filter_map(|r| r.pool).collect();
        outcome.metric(
            "trace.generate_s",
            sites.iter().map(|s| s.generate_secs).sum(),
            "s",
        );
        outcome.metric("shard.route_ns", median(&route), "ns");
        outcome.metric("shard.drain_ms", median(&drain), "ms");
        outcome.metric(
            "sketchpool.updates",
            pools.iter().map(|p| p.sketch_updates).sum::<u64>() as f64,
            "count",
        );
        outcome.metric(
            "sketchpool.cas_retries",
            pools.iter().map(|p| p.cas_retries).sum::<u64>() as f64,
            "count",
        );
        outcome.metric(
            "guardrail.trips",
            first.iter().map(|m| m.guardrail_trips).sum::<u64>() as f64,
            "count",
        );
        outcome.metric(
            "guardrail.shadow_lru_bhr",
            mean(first.iter().map(CacheMetrics::shadow_lru_bhr)),
            "ratio",
        );
        outcome.metric(
            "guardrail.bound_violations",
            outcome.bound_violations.len() as f64,
            "count",
        );
        outcome.metric("lru.bhr", mean(lru.iter().copied()), "ratio");
        outcome.metric("opt.solve_ms", mean(sites.iter().map(|s| s.opt_ms)), "ms");
        outcome.metric(
            "opt.augmentations",
            mean(sites.iter().map(|s| s.opt0.augmentations as f64)),
            "count",
        );
        outcome.metric(
            "labels.build_ms",
            mean(sites.iter().map(|s| s.labels_ms)),
            "ms",
        );
        outcome.metric(
            "gbdt.train_ms",
            mean(sites.iter().map(|s| s.train_ms)),
            "ms",
        );
        outcome.metric(
            "gbdt.trees",
            mean(sites.iter().map(|s| s.artifact.model.trees().len() as f64)),
            "count",
        );
        // The Figure 2 loop over the first site's first two windows, for
        // the pipeline's own stage timings under this configuration.
        let serving = &sites[0].serving;
        let pipeline = spans
            .time("pipeline.run", || {
                run_pipeline(
                    &serving.requests[..2 * window],
                    &PipelineConfig {
                        window,
                        cache_size: serving.cache_size,
                        lfo: serving.config.clone(),
                        threads: 1,
                        ..PipelineConfig::default()
                    },
                )
            })
            .expect("the trace is non-empty");
        outcome.check(checks::all_deployed(
            &pipeline
                .windows
                .iter()
                .map(|w| w.rollout)
                .collect::<Vec<_>>(),
        ));
        pipeline_metrics(&mut outcome, &pipeline);
        let traced = sustained_rate(&lens, &traced_secs);
        outcome.metric("trace.reqs_per_s", traced, "1/s");
        outcome.metric("trace.overhead", 1.0 - traced / reqs_per_s, "ratio");
    }
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_trace::GeneratorConfig;

    /// A small guarded, bounded-tracker site served by a real 1-shard fleet.
    fn small_site() -> Serving {
        let requests = TraceGenerator::new(GeneratorConfig::small(3, 4_000))
            .generate()
            .into_requests();
        let stats = TraceStats::from_requests(&requests);
        let cache_size = stats.cache_size_for_fraction(0.1);
        let w = Workload::ServeHugeCatalog;
        let config = w.lfo_config(cache_size, stats.mean_object_size);
        let window = &requests[..1_000];
        let opt = compute_opt(window, &opt_config(cache_size, &config)).unwrap();
        let mut tracker = config.tracker();
        let data = build_training_set(window, &opt, &mut tracker, cache_size);
        let model = train_window(&data, &config).model;
        let slot = ModelSlot::new();
        let provenance = Provenance {
            trace_id: "test".into(),
            window: 0,
            slot_version: 0,
            note: String::new(),
            lineage: None,
            pop: None,
        };
        LfoArtifact::new(config.clone(), model, config.cutoff, provenance)
            .with_bin_map(Some(BinMap::fit(&data, config.gbdt.max_bins)))
            .publish_to(&slot);
        Serving {
            requests,
            cache_size,
            config,
            params: w.shard_params(),
            slot,
        }
    }

    #[test]
    fn checks_pass_on_the_real_fleet_and_catch_a_dropped_request() {
        let mut serving = small_site();
        let fleet = serving
            .fleet_round(&mut Spans::new(false, String::new()))
            .metrics;
        let mut outcome = Outcome::default();
        serving.check_round(&mut outcome, &fleet, 0.0);
        let (replayed, _) = serving.replay(true, None);
        outcome.check(checks::fleet_matches_replay(&fleet, &replayed));
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert!(outcome.bound_violations.is_empty());

        // The same fleet judged against a trace it did not serve in full,
        // and against a replay that missed the trace's last request.
        let last = serving.requests.pop().unwrap();
        assert!(checks::conservation(&fleet, &serving.requests).is_err());
        let (short, _) = serving.replay(true, None);
        assert!(checks::fleet_matches_replay(&fleet, &short).is_err());
        serving.requests.push(last);

        // A replay without the guardrail is a different cache.
        let (unguarded, _) = serving.replay(false, None);
        assert!(checks::fleet_matches_replay(&fleet, &unguarded).is_err());
    }
}
