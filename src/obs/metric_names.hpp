// GENERATED by `rg_lint --write-metric-registry` -- do not edit by hand.
//
// The canonical list of metric families the tree registers (exact
// names, plus `prefix.*` wildcards for dynamically-composed names).
// tools/rg_lint checks every "rg.*" literal registered in src/ and
// tools/ against this list and against docs/observability.md /
// docs/gateway.md, and flags stale entries, so the header, the code,
// and the docs cannot drift apart silently.
#pragma once

namespace rg::obs {

inline constexpr const char* kMetricNames[] = {
    "rg.admin.bad_requests",
    "rg.admin.request_ns",
    "rg.admin.requests",
    "rg.board.commands",
    "rg.board.malformed_commands",
    "rg.cal.drift_alarms",
    "rg.cal.drift_checks",
    "rg.gw.accepted",
    "rg.gw.ingest_to_verdict_ns",
    "rg.gw.plant.lanes",
    "rg.gw.pump.deadline_miss",
    "rg.gw.pump.jitter_ns",
    "rg.gw.rejected",
    "rg.gw.round.lanes",
    "rg.gw.rx_batch_size",
    "rg.gw.rx_packets",
    "rg.gw.shard.*",
    "rg.gw.tx_batches",
    "rg.obs.write_errors",
    "rg.persist.dropped",
    "rg.persist.flushes",
    "rg.persist.ops",
    "rg.persist.snapshots",
    "rg.persist.wal_records",
    "rg.persist.write_errors",
    "rg.pipeline.alarms",
    "rg.pipeline.blocked",
    "rg.pipeline.screened",
    "rg.pipeline.undecodable",
    "rg.sim.ticks",
    "rg.span.board.write",
    "rg.span.campaign.job",
    "rg.span.campaign.unit",
    "rg.span.control.tick",
    "rg.span.estimator.solve",
    "rg.span.estimator.solve_batch",
    "rg.span.gw.pump",
    "rg.span.gw.round",
    "rg.span.pipeline.process",
    "rg.span.plant.step",
    "rg.span.plant.step_batch",
    "rg.span.sim.tick",
};

}  // namespace rg::obs
