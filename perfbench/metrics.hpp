#pragma once
// The benchmark's metric catalogue: every metric perfbench emits, with its
// unit and whether it is end-to-end (untraced run) or per-layer (traced
// run). BENCHMARK.json names the same metrics with the same units;
// test_bench.py checks that the two agree and that names and units are
// well-formed.

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};

constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", true},
    {"solves_per_s", "1/s", true},
    {"p50_ms", "ms", true},
    {"tail_ms", "ms", true},
    {"converged_frac", "ratio", true},
    {"recovery_frac", "ratio", true},
    {"peak_rss_mb", "MB", true},
    {"dwmri.dataset_ms", "ms", false},
    {"tensor.generate_ms", "ms", false},
    {"batch.table_build_ms", "ms", false},
    {"batch.table_bytes", "bytes", false},
    {"batch.cache_hit_ratio", "ratio", false},
    {"batch.submit_us", "us", false},
    {"batch.chunk_ms_p50", "ms", false},
    {"batch.chunk_ms_tail", "ms", false},
    {"kernels.ttsv1_ns", "ns", false},
    {"kernels.ttsv0_ns", "ns", false},
    {"kernels.flops_per_call", "flop", false},
    {"kernels.bytes_per_call", "bytes", false},
    {"kernels.gbytes_per_s", "GB/s", false},
    {"kernels.lane_ttsv1_ns", "ns", false},
    {"kernels.jit_vs_precomputed", "ratio", false},
    {"sshopm.iters_per_solve", "iters", false},
    {"sshopm.solve_us_p50", "us", false},
    {"sshopm.kernel_frac", "ratio", false},
    {"sshopm.lane_occupancy", "ratio", false},
    {"sshopm.iter_imbalance", "ratio", false},
    {"parallel.speedup", "ratio", false},
    {"parallel.idle_frac", "ratio", false},
    {"jit.compile_ms", "ms", false},
    {"jit.load_prove_ms", "ms", false},
    {"jit.compiles", "count", false},
    {"jit.rejected", "count", false},
    {"io.wal_append_us_p50", "us", false},
    {"io.wal_append_us_tail", "us", false},
    {"io.wal_bytes_per_chunk", "bytes", false},
    {"io.wal_replay_ms", "ms", false},
    {"serve.wire_submit_us_p50", "us", false},
    {"serve.submit_us_p50", "us", false},
    {"serve.queue_wait_steps_p50", "steps", false},
    {"serve.queue_wait_steps_tail", "steps", false},
    {"serve.bulk_p50_ms", "ms", false},
    {"serve.rejected", "count", false},
    {"trace.overhead_frac", "ratio", false},
    {"trace.unattributed_frac", "ratio", false},
};

}  // namespace perfbench
