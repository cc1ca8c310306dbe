//! The `retrain` workload: the Figure 2 loop over production traces.
//!
//! Set-up generates one trace per site. Each measured round runs
//! [`run_pipeline`] over every site's whole trace: boundary deploy, one
//! thread, a from-scratch model every window. The traced run adds, on
//! site 0, the offline layers called one by one from here (OPT, labels,
//! training), the serial reference, a second min-cost-flow solver on
//! window 0, and the serving probes on the last window's model.

use std::time::Instant;

use cdn_cache::IntervalMetrics;
use cdn_trace::{Request, TraceGenerator, TraceStats};
use gbdt::BinMap;
use lfo::labels::build_training_set;
use lfo::pipeline::{run_pipeline, run_pipeline_serial, PipelineConfig, PipelineReport};
use lfo::{train_window, LfoArtifact, ModelSlot, Provenance};
use opt::compute_opt;
use opt::flow_model::FlowModel;

use crate::checks;
use crate::report::{mean, median, peak_rss_mb, sustained_rate, Outcome};
use crate::serve::{self, Serving};
use crate::spans::Spans;
use crate::workload::{self, Workload};

fn lives(report: &PipelineReport) -> Vec<IntervalMetrics> {
    report.windows.iter().map(|w| w.live).collect()
}

/// One site: its trace and the pipeline configuration that serves it.
struct Site {
    requests: Vec<Request>,
    config: PipelineConfig,
}

/// Runs the workload; see the module docs.
pub fn run(seed: u64, seconds: f64, spans: &mut Spans, start: Instant) -> Outcome {
    let w = Workload::Retrain;
    let mut outcome = Outcome::default();

    let generated = Instant::now();
    let sites: Vec<Site> = (0..w.sites())
        .map(|site| {
            let requests = spans
                .time("trace.generate", || {
                    TraceGenerator::new(w.generator(seed, site)).generate()
                })
                .into_requests();
            let stats = TraceStats::from_requests(&requests);
            let cache_size = stats.cache_size_for_fraction(w.cache_fraction());
            workload::describe(w, seed, site, &stats, cache_size);
            let config = PipelineConfig {
                window: w.window(),
                cache_size,
                lfo: w.lfo_config(cache_size, stats.mean_object_size),
                threads: 1,
                guardrail: w.guardrail(),
                ..PipelineConfig::default()
            };
            Site { requests, config }
        })
        .collect();
    let generate_secs = generated.elapsed().as_secs_f64();
    let setup_s = start.elapsed().as_secs_f64();

    // Measure: rounds of one pipeline run per site until `seconds` have
    // passed; a traced run alternates untraced rounds with rounds inside
    // spans.
    let lens: Vec<u64> = sites.iter().map(|s| s.requests.len() as u64).collect();
    let mut untraced: Vec<Vec<f64>> = Vec::new();
    let mut traced_secs: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<PipelineReport> = Vec::new();
    let measuring = Instant::now();
    loop {
        let traced = spans.enabled() && untraced.len() > traced_secs.len();
        let mut secs = Vec::new();
        for (i, site) in sites.iter().enumerate() {
            let started = Instant::now();
            let report = if traced {
                spans.time("pipeline.run", || {
                    run_pipeline(&site.requests, &site.config)
                })
            } else {
                run_pipeline(&site.requests, &site.config)
            }
            .expect("the trace is non-empty");
            secs.push(started.elapsed().as_secs_f64());
            outcome.attempted += report.windows.len() as u64;
            outcome.failed += report
                .windows
                .iter()
                .filter(|w| w.rollout.is_degraded())
                .count() as u64;
            let decisions: Vec<_> = report.windows.iter().map(|w| w.rollout).collect();
            outcome.check(checks::all_deployed(&decisions));
            match first.get(i) {
                None => first.push(report),
                Some(f) => outcome.check(checks::windows_match(&lives(f), &lives(&report))),
            }
        }
        if traced {
            traced_secs.push(secs);
        } else {
            untraced.push(secs);
        }
        let done = measuring.elapsed().as_secs_f64() >= seconds;
        if done && traced_secs.len() >= untraced.len() * usize::from(spans.enabled()) {
            break;
        }
    }

    let reqs_per_s = sustained_rate(&lens, &untraced);
    outcome.metric("reqs_per_s", reqs_per_s, "1/s");
    outcome.metric(
        "bhr",
        mean(first.iter().map(|r| r.live_trained.bhr())),
        "ratio",
    );
    outcome.metric(
        "ohr",
        mean(first.iter().map(|r| r.live_trained.ohr())),
        "ratio",
    );
    outcome.metric(
        "accuracy",
        mean(first.iter().map(|r| {
            r.mean_prediction_accuracy()
                .expect("two or more windows are evaluated")
        })),
        "ratio",
    );
    outcome.metric("setup_s", setup_s, "s");

    // OPT per window of site 0, replayed against the cache size: the
    // first four windows on every run, every window in the traced run,
    // which also times each offline layer and trains the models the
    // pipeline trained.
    let site = &sites[0];
    let report = &first[0];
    let cache_size = site.config.cache_size;
    let lfo_config = &site.config.lfo;
    let opt_config = serve::opt_config(cache_size, lfo_config);
    let mut tracker = lfo_config.tracker();
    let (mut opt_ms, mut labels_ms, mut train_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut augmentations = Vec::new();
    let mut last = None;
    let offline = spans.open("offline.windows");
    let checked = if spans.enabled() { usize::MAX } else { 4 };
    for chunk in site.requests.chunks(site.config.window).take(checked) {
        let t = Instant::now();
        let opt = spans
            .time("opt.solve", || compute_opt(chunk, &opt_config))
            .expect("windows are non-empty");
        opt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        augmentations.push(opt.augmentations as f64);
        outcome.check(checks::opt_fits(chunk, &opt, cache_size));
        if spans.enabled() {
            let t = Instant::now();
            let data = spans.time("labels.build", || {
                build_training_set(chunk, &opt, &mut tracker, cache_size)
            });
            labels_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let trained = spans.time("gbdt.train", || train_window(&data, lfo_config));
            train_ms.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some((trained.model, data));
        }
    }
    spans.close(offline);

    if spans.enabled() {
        outcome.metric("trace.generate_s", generate_secs, "s");
        outcome.metric("opt.solve_ms", mean(opt_ms), "ms");
        outcome.metric("opt.augmentations", mean(augmentations), "count");
        outcome.metric("labels.build_ms", mean(labels_ms), "ms");
        outcome.metric("gbdt.train_ms", mean(train_ms), "ms");
        serve::pipeline_metrics(&mut outcome, report);
        let traced = sustained_rate(&lens, &traced_secs);
        outcome.metric("trace.reqs_per_s", traced, "1/s");
        outcome.metric("trace.overhead", 1.0 - traced / reqs_per_s, "ratio");

        // The staged pipeline against the serial reference.
        let serial = spans
            .time("pipeline.serial", || {
                run_pipeline_serial(&site.requests, &site.config)
            })
            .expect("the trace is non-empty");
        outcome.check(checks::windows_match(&lives(report), &lives(&serial)));

        // Window 0's flow solved again by the independent SPFA solver.
        let window0 = &site.requests[..site.config.window];
        let opt0 = compute_opt(window0, &opt_config).expect("window 0 is non-empty");
        let flow = FlowModel::build(window0, &opt_config);
        match spans.time("mincostflow.spfa", || mincostflow::solve_spfa(flow.graph)) {
            Ok(solution) => {
                outcome.check(checks::same_min_cost(
                    opt0.scaled_miss_cost,
                    solution.total_cost(),
                ));
                outcome.check(mincostflow::validate(&solution).map_err(|e| format!("{e:?}")));
            }
            Err(e) => outcome.check(Err(format!("SPFA failed on window 0: {e:?}"))),
        }

        // The models trained here must be the pipeline's.
        let (model, data) = last.expect("the trace has windows");
        if report.final_model.as_deref() != Some(&model) {
            outcome.check(Err(
                "the last window's model differs from the pipeline's".into()
            ));
        }
        outcome.metric("gbdt.trees", model.trees().len() as f64, "count");

        // Serving probes: the last window's model cold-started on a 1-shard
        // fleet over site 0's whole trace, with the pipeline's serving
        // configuration.
        let slot = ModelSlot::new();
        let map = BinMap::fit(&data, lfo_config.gbdt.max_bins);
        LfoArtifact::new(
            lfo_config.clone(),
            model,
            lfo_config.cutoff,
            Provenance {
                trace_id: format!("retrain-seed{seed}-site0"),
                window: report.windows.len() - 1,
                slot_version: 0,
                note: "benchmark last-window model".into(),
                lineage: None,
                pop: None,
            },
        )
        .with_bin_map(Some(map))
        .publish_to(&slot);
        let serving = Serving {
            requests: site.requests.clone(),
            cache_size,
            config: lfo_config.clone(),
            params: w.shard_params(),
            slot,
        };
        let rounds: Vec<_> = (0..3).map(|_| serving.fleet_round(spans)).collect();
        let per = serving.requests.len() as f64;
        let route: Vec<f64> = rounds.iter().map(|r| r.route_secs * 1e9 / per).collect();
        let drain: Vec<f64> = rounds.iter().map(|r| r.drain_secs * 1e3).collect();
        let fleet = rounds[0].metrics;
        let pool = rounds[0].pool.unwrap_or_default();
        outcome.metric("shard.route_ns", median(&route), "ns");
        outcome.metric("shard.drain_ms", median(&drain), "ms");
        outcome.metric("sketchpool.updates", pool.sketch_updates as f64, "count");
        outcome.metric("sketchpool.cas_retries", pool.cas_retries as f64, "count");
        let lru_bhr = serving.lru_bhr();
        serving.check_round(&mut outcome, &fleet, lru_bhr);
        for round in &rounds[1..] {
            outcome.check(checks::repeats(&fleet, &round.metrics));
        }
        let replayed = serving.probe_layers(spans, &mut outcome);
        outcome.check(checks::fleet_matches_replay(&fleet, &replayed));
        outcome.metric("guardrail.trips", fleet.guardrail_trips as f64, "count");
        outcome.metric("guardrail.shadow_lru_bhr", fleet.shadow_lru_bhr(), "ratio");
        outcome.metric(
            "guardrail.bound_violations",
            outcome.bound_violations.len() as f64,
            "count",
        );
        outcome.metric("lru.bhr", lru_bhr, "ratio");
    }
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    outcome
}
