//! Correctness checks on the program's outputs.
//!
//! Every check compares an output against a value the benchmark computes
//! apart from the program, or against a property the method must have.
//! Each returns `Err` with a description when the output is wrong; the
//! self-tests at the bottom plant a wrong result for each one.

use cdn_cache::IntervalMetrics;
use cdn_trace::{ObjectId, Request};
use lfo::{CacheMetrics, GuardrailConfig, RolloutDecision};
use opt::bounds::InfiniteCacheBound;
use opt::OptResult;
use std::collections::HashMap;

pub type Check = Result<(), String>;

/// Every request is accounted for exactly once, and the byte total equals
/// the sum of request sizes over `requests`.
pub fn conservation(m: &CacheMetrics, requests: &[Request]) -> Check {
    let n = requests.len() as u64;
    let outcomes = m.hits + m.admitted_misses + m.bypassed_misses;
    if m.requests != n || outcomes != n {
        return Err(format!(
            "conservation: {} requests reported, {outcomes} outcomes \
             (hits {} + admitted {} + bypassed {}), trace has {n}",
            m.requests, m.hits, m.admitted_misses, m.bypassed_misses
        ));
    }
    let bytes: u64 = requests.iter().map(|r| r.size).sum();
    if m.total_bytes != bytes {
        return Err(format!(
            "conservation: {} bytes reported, trace has {bytes}",
            m.total_bytes
        ));
    }
    Ok(())
}

/// The 1-shard fleet's counters equal the in-thread replay's.
pub fn fleet_matches_replay(fleet: &CacheMetrics, replay: &CacheMetrics) -> Check {
    if fleet != replay {
        return Err(format!(
            "1-shard fleet differs from the in-thread replay:\n  fleet  {fleet:?}\n  replay {replay:?}"
        ));
    }
    Ok(())
}

/// Hits and hit bytes stay at or below the infinite-cache ceiling.
pub fn within_infinite_cache(m: &CacheMetrics, bound: &InfiniteCacheBound) -> Check {
    if m.hit_bytes > bound.hit_bytes || m.hits > bound.hits {
        return Err(format!(
            "hits above the infinite-cache ceiling: {} hits / {} hit bytes vs {} / {}",
            m.hits, m.hit_bytes, bound.hits, bound.hit_bytes
        ));
    }
    Ok(())
}

/// Bytes resident at shutdown stay at or below capacity.
pub fn within_capacity(m: &CacheMetrics, capacity: u64) -> Check {
    if m.used_bytes > capacity {
        return Err(format!(
            "{} bytes resident in a {capacity}-byte cache",
            m.used_bytes
        ));
    }
    Ok(())
}

/// The guardrail's promise: realized BHR ≥ (1−ε)·BHR_LRU − δ, with
/// BHR_LRU from an exact LRU over the same requests and capacity.
pub fn guardrail_bound(realized_bhr: f64, lru_bhr: f64, config: &GuardrailConfig) -> Check {
    let bound = config.bound(lru_bhr);
    if realized_bhr < bound {
        return Err(format!(
            "guardrail bound broken: BHR {realized_bhr:.4} < (1-{})*{lru_bhr:.4}-{} = {bound:.4}",
            config.epsilon, config.delta
        ));
    }
    Ok(())
}

/// Every pipeline window rolled out its model.
pub fn all_deployed(decisions: &[RolloutDecision]) -> Check {
    match decisions
        .iter()
        .position(|d| *d != RolloutDecision::Deployed)
    {
        Some(w) => Err(format!("window {w} was {:?}", decisions[w])),
        None => Ok(()),
    }
}

/// Replays OPT's admit decisions: an object admitted at one request stays
/// resident until its next request, where it is re-admitted or dropped.
/// The resident bytes must never exceed `cache_size`.
pub fn opt_fits(requests: &[Request], opt: &OptResult, cache_size: u64) -> Check {
    if opt.admit.len() != requests.len() {
        return Err(format!(
            "OPT decided {} of {} requests",
            opt.admit.len(),
            requests.len()
        ));
    }
    let mut resident: HashMap<ObjectId, u64> = HashMap::new();
    let mut used = 0u64;
    for (k, (r, &admit)) in requests.iter().zip(&opt.admit).enumerate() {
        if let Some(size) = resident.remove(&r.object) {
            used -= size;
        }
        if admit {
            resident.insert(r.object, r.size);
            used += r.size;
            if used > cache_size {
                return Err(format!(
                    "OPT's admissions hold {used} bytes after request {k}, cache is {cache_size}"
                ));
            }
        }
    }
    Ok(())
}

/// Two independent min-cost flow solutions of one window agree on cost.
pub fn same_min_cost(compute_opt_cost: i128, reference_cost: i128) -> Check {
    if compute_opt_cost != reference_cost {
        return Err(format!(
            "compute_opt miss cost {compute_opt_cost} != reference solver's {reference_cost}"
        ));
    }
    Ok(())
}

/// The staged pipeline's per-window live metrics equal the serial
/// reference's.
pub fn windows_match(staged: &[IntervalMetrics], serial: &[IntervalMetrics]) -> Check {
    if staged.len() != serial.len() {
        return Err(format!(
            "staged pipeline ran {} windows, serial {}",
            staged.len(),
            serial.len()
        ));
    }
    for (w, (a, b)) in staged.iter().zip(serial).enumerate() {
        if a != b {
            return Err(format!("window {w}: staged {a:?} != serial {b:?}"));
        }
    }
    Ok(())
}

/// A deterministic replay repeated within one run gives the same counters.
pub fn repeats(first: &CacheMetrics, again: &CacheMetrics) -> Check {
    if first != again {
        return Err(format!(
            "1-shard replay is not repeatable:\n  first {first:?}\n  again {again:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt::bounds::infinite_cache_bound;
    use opt::{compute_opt, OptConfig};

    fn trace() -> Vec<Request> {
        [
            (1, 100),
            (2, 50),
            (1, 100),
            (3, 70),
            (2, 50),
            (1, 100),
            (3, 70),
        ]
        .iter()
        .enumerate()
        .map(|(t, &(id, size))| Request::new(t as u64, id, size))
        .collect()
    }

    /// Counters a correct cache could report for `trace()`.
    fn honest() -> CacheMetrics {
        let reqs = trace();
        CacheMetrics {
            requests: 7,
            hits: 3,
            total_bytes: reqs.iter().map(|r| r.size).sum(),
            hit_bytes: 250,
            admitted_misses: 3,
            bypassed_misses: 1,
            used_bytes: 220,
            ..CacheMetrics::default()
        }
    }

    #[test]
    fn conservation_rejects_a_missing_request() {
        assert!(conservation(&honest(), &trace()).is_ok());
        let mut m = honest();
        m.requests -= 1;
        m.bypassed_misses -= 1;
        assert!(conservation(&m, &trace()).is_err());
        let mut m = honest();
        m.total_bytes -= 1;
        assert!(conservation(&m, &trace()).is_err());
        let mut m = honest();
        m.hits += 1;
        assert!(conservation(&m, &trace()).is_err());
    }

    #[test]
    fn fleet_check_rejects_differing_counters() {
        assert!(fleet_matches_replay(&honest(), &honest()).is_ok());
        let mut m = honest();
        m.evictions += 1;
        assert!(fleet_matches_replay(&m, &honest()).is_err());
        assert!(repeats(&honest(), &m).is_err());
    }

    #[test]
    fn ceiling_rejects_hit_bytes_above_infinite_cache() {
        let bound = infinite_cache_bound(&trace());
        assert_eq!(bound.hit_bytes, 320);
        assert!(within_infinite_cache(&honest(), &bound).is_ok());
        let mut m = honest();
        m.hit_bytes = bound.hit_bytes + 1;
        assert!(within_infinite_cache(&m, &bound).is_err());
        let mut m = honest();
        m.hits = bound.hits + 1;
        assert!(within_infinite_cache(&m, &bound).is_err());
    }

    #[test]
    fn capacity_rejects_overfull_cache() {
        assert!(within_capacity(&honest(), 220).is_ok());
        assert!(within_capacity(&honest(), 219).is_err());
    }

    #[test]
    fn guardrail_check_rejects_a_broken_bound() {
        let config = GuardrailConfig::default();
        assert!(guardrail_bound(0.5, 0.5, &config).is_ok());
        // (1-0.05)*0.5 - 0.01 = 0.465
        assert!(guardrail_bound(0.466, 0.5, &config).is_ok());
        assert!(guardrail_bound(0.464, 0.5, &config).is_err());
    }

    #[test]
    fn rollout_check_rejects_a_skipped_window() {
        assert!(all_deployed(&[RolloutDecision::Deployed; 3]).is_ok());
        let decisions = [
            RolloutDecision::Deployed,
            RolloutDecision::SkippedFault,
            RolloutDecision::Deployed,
        ];
        assert!(all_deployed(&decisions).unwrap_err().contains("window 1"));
    }

    #[test]
    fn opt_replay_rejects_an_overfull_decision_list() {
        let reqs = trace();
        let opt = compute_opt(&reqs, &OptConfig::bhr(160)).unwrap();
        assert!(
            opt_fits(&reqs, &opt, 160).is_ok(),
            "OPT's own decisions fit"
        );
        // Admitting every request holds all three objects (220 bytes) at once.
        let mut planted = opt.clone();
        planted.admit = vec![true; reqs.len()];
        assert!(opt_fits(&reqs, &planted, 160).is_err());
        planted.admit.pop();
        assert!(opt_fits(&reqs, &planted, 1_000).is_err());
    }

    #[test]
    fn cost_check_rejects_a_different_optimum() {
        assert!(same_min_cost(42, 42).is_ok());
        assert!(same_min_cost(42, 41).is_err());
    }

    #[test]
    fn window_check_rejects_a_differing_window() {
        let a = IntervalMetrics {
            requests: 10,
            hits: 4,
            total_bytes: 1000,
            hit_bytes: 300,
        };
        assert!(windows_match(&[a, a], &[a, a]).is_ok());
        let mut b = a;
        b.hit_bytes += 1;
        assert!(windows_match(&[a, a], &[a, b]).is_err());
        assert!(windows_match(&[a, a], &[a]).is_err());
    }
}
