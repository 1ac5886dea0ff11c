//! The per-layer metrics every traced run prints, in one fixed order.
//!
//! A workload fills the fields of the layers on its path; a layer the
//! workload never calls keeps its zero (for example, `codec.*` on
//! `batch_estimate`). README.md lists, per metric, the end-to-end metric
//! it should move and on which workload.

use crate::report::{median, RunResult};
use crate::trace::Trace;
use ged_core::engine::SearchStats;
use ged_core::search::ExactSearchStats;
use std::collections::BTreeMap;

/// Tier counts summed over a pass's store queries. Every field is a count
/// the program derives from its inputs alone, so two passes over the same
/// seed must agree exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanCounts {
    pub queries: u64,
    pub candidates: u64,
    pub pruned_shard: u64,
    pub pruned_label: u64,
    pub pruned_degree: u64,
    /// Signature-bound discards of `range_exact` (label and degree
    /// together; the exact plan does not split them).
    pub filtered: u64,
    pub pruned_pivot: u64,
    pub accepted_pivot: u64,
    pub verified: u64,
    pub hits: u64,
    pub solver_calls: u64,
}

impl PlanCounts {
    pub fn add_top_k(&mut self, s: &SearchStats, hits: usize) {
        self.queries += 1;
        self.candidates += s.candidates as u64;
        self.pruned_shard += s.pruned_shard as u64;
        self.pruned_label += s.pruned_label as u64;
        self.pruned_degree += s.pruned_degree as u64;
        self.pruned_pivot += s.pruned_pivot as u64;
        self.accepted_pivot += s.accepted_pivot as u64;
        self.verified += s.verified as u64;
        self.hits += hits as u64;
    }

    pub fn add_range_exact(&mut self, s: &ExactSearchStats, hits: usize) {
        self.queries += 1;
        self.candidates += s.total() as u64;
        self.pruned_shard += s.pruned_shard as u64;
        self.filtered += s.filtered as u64;
        self.pruned_pivot += s.pruned_pivot as u64;
        self.accepted_pivot += s.accepted_pivot as u64;
        self.verified += s.verified as u64;
        self.hits += hits as u64;
    }

    fn per_query(&self, x: u64) -> f64 {
        ratio(x, self.queries)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric; zero where the workload does not reach the
/// layer.
#[derive(Default)]
pub struct Layers {
    pub codec_parse_us: f64,
    pub codec_encode_us: f64,
    pub codec_bytes_per_op: f64,
    pub server_self_us: f64,
    pub snapshot_restore_ms: f64,
    pub shard_insert_us: f64,
    pub shard_remove_us: f64,
    pub pivot_build_s: f64,
    pub pivot_sync_ms: f64,
    pub pivot_arm_stored_ms: f64,
    pub pivot_arm_foreign_ms: f64,
    pub plan: PlanCounts,
    pub plan_self_ms: f64,
    pub solver_us_per_call: f64,
    pub gedgw_solve_us: f64,
    pub gedgw_mae: f64,
    pub kbest_path_us: f64,
    pub gediot_train_s: f64,
    pub gediot_predict_us: f64,
    pub gediot_mae: f64,
    pub gedhot_predict_us: f64,
    pub gedhot_gw_win_ratio: f64,
    pub gedhot_mae: f64,
    pub runner_batch_speedup: f64,
    pub runner_plan_speedup: f64,
    pub trace_overhead_ratio: f64,
}

/// Names of the engine spans that wrap one store query.
pub const QUERY_SPANS: [&str; 2] = ["engine.top_k", "engine.range_exact"];

impl Layers {
    /// Fills the store-query layers (pivot arming, plan self time, solver
    /// calls, shard and sync spans) from a traced pass and its tier counts.
    ///
    /// The engine arms a query's pivots inside the query span, out of the
    /// benchmark's reach, so each query's arming is replayed right after
    /// it (`pivot.arm_*`, same request id) and subtracted from the query
    /// span's self time. Single-query timings swing by tens of percent on
    /// a shared machine, so `plan.self_ms` is the median of the per-query
    /// differences.
    pub fn store_queries(&mut self, trace: &Trace, plan: PlanCounts) {
        let totals = trace.totals();
        let get = |n: &str| totals.get(n).copied().unwrap_or_default();
        let self_ns = trace.self_ns();
        let mut query_self: BTreeMap<u64, f64> = BTreeMap::new();
        for (i, s) in trace.spans.iter().enumerate() {
            if QUERY_SPANS.contains(&s.name) {
                *query_self.entry(s.request).or_default() += self_ns[i] as f64;
            }
        }
        for s in &trace.spans {
            if s.name.starts_with("pivot.arm_") {
                if let Some(v) = query_self.get_mut(&s.request) {
                    *v -= s.duration_ns() as f64;
                }
            }
        }
        let diffs: Vec<f64> = query_self.into_values().collect();
        self.plan_self_ms = if diffs.is_empty() {
            0.0
        } else {
            median(&diffs) / 1e6
        };
        self.pivot_arm_stored_ms = get("pivot.arm_stored").mean_us() / 1e3;
        self.pivot_arm_foreign_ms = get("pivot.arm_foreign").mean_us() / 1e3;
        self.solver_us_per_call = get("solver.call").mean_us();
        self.shard_insert_us = get("shard.insert").mean_us();
        self.shard_remove_us = get("shard.remove").mean_us();
        self.pivot_sync_ms = get("pivot.sync").mean_us() / 1e3;
        self.plan = plan;
    }

    pub fn emit(&self, r: &mut RunResult) {
        let p = &self.plan;
        r.metric("codec.parse_us", self.codec_parse_us, "us");
        r.metric("codec.encode_us", self.codec_encode_us, "us");
        r.metric("codec.bytes_per_op", self.codec_bytes_per_op, "B/op");
        r.metric("server.self_us", self.server_self_us, "us");
        r.metric("snapshot.restore_ms", self.snapshot_restore_ms, "ms");
        r.metric("shard.insert_us", self.shard_insert_us, "us");
        r.metric("shard.remove_us", self.shard_remove_us, "us");
        r.metric(
            "shard.pruned_ratio",
            ratio(p.pruned_shard, p.candidates),
            "ratio",
        );
        r.metric("pivot.build_s", self.pivot_build_s, "s");
        r.metric("pivot.sync_ms", self.pivot_sync_ms, "ms");
        r.metric("pivot.arm_stored_ms", self.pivot_arm_stored_ms, "ms");
        r.metric("pivot.arm_foreign_ms", self.pivot_arm_foreign_ms, "ms");
        r.metric(
            "pivot.pruned_ratio",
            ratio(p.pruned_pivot, p.candidates),
            "ratio",
        );
        r.metric(
            "pivot.accepted_ratio",
            ratio(p.accepted_pivot, p.candidates),
            "ratio",
        );
        r.metric("plan.candidates", p.per_query(p.candidates), "count");
        r.metric("plan.pruned_label", p.per_query(p.pruned_label), "count");
        r.metric("plan.pruned_degree", p.per_query(p.pruned_degree), "count");
        r.metric("plan.filtered", p.per_query(p.filtered), "count");
        r.metric("plan.verified", p.per_query(p.verified), "count");
        r.metric("plan.verified_per_hit", ratio(p.verified, p.hits), "ratio");
        r.metric("plan.self_ms", self.plan_self_ms, "ms");
        r.metric(
            "solver.calls_per_query",
            p.per_query(p.solver_calls),
            "count",
        );
        r.metric("solver.us_per_call", self.solver_us_per_call, "us");
        r.metric("gedgw.solve_us", self.gedgw_solve_us, "us");
        r.metric("gedgw.mae", self.gedgw_mae, "GED");
        r.metric("kbest.path_us", self.kbest_path_us, "us");
        r.metric("gediot.train_s", self.gediot_train_s, "s");
        r.metric("gediot.predict_us", self.gediot_predict_us, "us");
        r.metric("gediot.mae", self.gediot_mae, "GED");
        r.metric("gedhot.predict_us", self.gedhot_predict_us, "us");
        r.metric("gedhot.gw_win_ratio", self.gedhot_gw_win_ratio, "ratio");
        r.metric("gedhot.mae", self.gedhot_mae, "GED");
        r.metric("runner.batch_speedup", self.runner_batch_speedup, "ratio");
        r.metric("runner.plan_speedup", self.runner_plan_speedup, "ratio");
        r.metric("trace.overhead_ratio", self.trace_overhead_ratio, "ratio");
    }
}
