// Tests for the delta-coded tD arena (core/td_compressed.hpp) and the
// paths that consume it:
//   * exact reconstruction against the flat table for every grid shape,
//     including sentinel (inf) entries and tables that violate the
//     state-axis monotonicity the narrow widths rely on (64-bit fallback);
//   * RegionCompiler v1/v2 round trips and cross-loads (compressed stream
//     into the flat loader and vice versa), versioned-header rejection of
//     truncated and corrupt input;
//   * TabledNumericManager and BatchDecisionEngine decisions bit-identical
//     (Decision.ops included) across flat/compressed arenas and
//     scalar/vector kernels, pinned by a 10^4-cycle executor differential;
//   * the sharded serving layer picking up the compressed arena with
//     bit-identical results.
#include <gtest/gtest.h>

#include <sstream>

#include "core/batch_engine.hpp"
#include "core/fast_manager.hpp"
#include "core/region_compiler.hpp"
#include "serve/sharded_server.hpp"
#include "sim/metrics.hpp"
#include "workload/scenarios.hpp"
#include "workload/synthetic.hpp"

namespace speedqm {
namespace {

SyntheticWorkload make_workload(ActionIndex n, int nq, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.seed = seed;
  spec.num_actions = n;
  spec.num_levels = nq;
  spec.budget_quality = nq / 2;
  spec.num_cycles = 1;
  return SyntheticWorkload(spec);
}

TEST(CompressedTdTable, ReconstructsExactlyAcrossGridShapes) {
  for (const ActionIndex n : {ActionIndex{1}, ActionIndex{3}, ActionIndex{4},
                              ActionIndex{5}, ActionIndex{64},
                              ActionIndex{257}}) {
    for (const int nq : {1, 2, 7, 16}) {
      const SyntheticWorkload w = make_workload(n, nq, 100 + n + nq);
      const PolicyEngine engine(w.app(), w.timing());
      const QualityRegionTable flat(engine);
      const CompressedTdTable compressed(engine);
      ASSERT_EQ(compressed.num_states(), flat.num_states());
      ASSERT_EQ(compressed.num_levels(), flat.num_levels());
      EXPECT_EQ(compressed.to_flat(), flat.raw()) << "n=" << n << " nq=" << nq;
      for (StateIndex s = 0; s < flat.num_states(); ++s) {
        for (Quality q = 0; q < nq; ++q) {
          ASSERT_EQ(compressed.td(s, q), flat.td(s, q));
        }
      }
    }
  }
}

TEST(CompressedTdTable, HandlesSentinelAndNonMonotoneInStateTables) {
  // Row 0 carries a +inf border (forces the wide leader plane); row 1
  // DROPS below row 0 (violating the state-axis monotonicity real tD
  // tables have), which must route the block to the signed 64-bit
  // residual fallback and still reconstruct exactly.
  const std::vector<TimeNs> data = {
      kTimePlusInf, us(900), us(100),      // monotone in q only
      us(500),      us(400), us(50),       // below row 0: negative residual
      kTimePlusInf, us(800), kTimeMinusInf,
      us(700),      us(600), us(600),
      us(710),      us(610), us(600),      // second block
      us(712),      us(611), us(601),
  };
  const CompressedTdTable compressed(6, 3, data);
  EXPECT_EQ(compressed.to_flat(), data);
  EXPECT_EQ(compressed.num_integers(), 18u);
}

TEST(CompressedTdTable, ShrinksLargeGridsAtLeastTwofold) {
  const SyntheticWorkload w = make_workload(1024, 16, 20070326 + 1024 + 16);
  const PolicyEngine engine(w.app(), w.timing());
  const CompressedTdTable compressed(engine);
  const std::size_t flat_bytes = CompressedTdTable::flat_bytes(1024, 16);
  EXPECT_GE(flat_bytes, 2 * compressed.memory_bytes())
      << "compressed " << compressed.memory_bytes() << " bytes vs flat "
      << flat_bytes;
}

// RelaxationTable behind the same toggle: the compressed border planes
// must serve bit-identical lookups — upper/lower/contains and the
// max_relaxation scan with its exact probe count — at less memory.
TEST(RelaxationTableCompressed, BitIdenticalToFlatBorders) {
  const SyntheticWorkload w = make_workload(96, 8, 4242);
  const PolicyEngine engine(w.app(), w.timing());
  const QualityRegionTable regions(engine);
  const std::vector<int> rho = {1, 4, 8, 16, 32};
  const RelaxationTable flat =
      RegionCompiler::compile_relaxation(engine, regions, rho);
  const RelaxationTable compressed = RegionCompiler::compile_relaxation(
      engine, regions, rho, ArenaLayout::kCompressed);

  EXPECT_EQ(compressed.layout(), ArenaLayout::kCompressed);
  EXPECT_EQ(compressed.num_integers(), flat.num_integers());
  EXPECT_LT(compressed.memory_bytes(), flat.memory_bytes());
  EXPECT_THROW(compressed.raw_upper(), contract_error);
  EXPECT_THROW(compressed.raw_lower(), contract_error);

  for (StateIndex s = 0; s < engine.num_states(); ++s) {
    for (Quality q = 0; q < engine.num_levels(); ++q) {
      for (const int r : rho) {
        ASSERT_EQ(compressed.upper(s, q, r), flat.upper(s, q, r))
            << "s=" << s << " q=" << q << " r=" << r;
        ASSERT_EQ(compressed.lower(s, q, r), flat.lower(s, q, r));
        const TimeNs border = flat.upper(s, q, r);
        std::vector<TimeNs> ts = {us(1), border};
        if (border > kTimeMinusInf) ts.push_back(border - 1);
        if (border < kTimePlusInf) ts.push_back(border + 1);
        for (const TimeNs t : ts) {
          ASSERT_EQ(compressed.contains(s, t, q, r), flat.contains(s, t, q, r));
          std::uint64_t ops_flat = 0;
          std::uint64_t ops_comp = 0;
          ASSERT_EQ(compressed.max_relaxation(s, t, q, &ops_comp),
                    flat.max_relaxation(s, t, q, &ops_flat));
          ASSERT_EQ(ops_comp, ops_flat) << "s=" << s << " q=" << q;
        }
      }
    }
  }
}

TEST(RegionCompilerCompressed, RoundTripsAndCrossLoads) {
  const SyntheticWorkload w = make_workload(97, 9, 41);
  const PolicyEngine engine(w.app(), w.timing());
  const QualityRegionTable flat(engine);
  const CompressedTdTable compressed(engine);

  // v2 -> v2.
  std::stringstream v2;
  RegionCompiler::save_regions_compressed(compressed, v2);
  const CompressedTdTable back = RegionCompiler::load_regions_compressed(v2);
  EXPECT_EQ(back.to_flat(), flat.raw());

  // v2 stream into the FLAT loader (decompressing cross-load).
  std::stringstream v2_again;
  RegionCompiler::save_regions_compressed(compressed, v2_again);
  const QualityRegionTable flat_from_v2 = RegionCompiler::load_regions(v2_again);
  EXPECT_EQ(flat_from_v2.raw(), flat.raw());

  // v1 stream into the COMPRESSED loader (compressing cross-load).
  std::stringstream v1;
  RegionCompiler::save_regions(flat, v1);
  const CompressedTdTable comp_from_v1 =
      RegionCompiler::load_regions_compressed(v1);
  EXPECT_EQ(comp_from_v1.to_flat(), flat.raw());

  // The v2 artifact is the smaller one on disk.
  std::stringstream v1_size, v2_size;
  RegionCompiler::save_regions(flat, v1_size);
  RegionCompiler::save_regions_compressed(compressed, v2_size);
  EXPECT_LT(v2_size.str().size(), v1_size.str().size());
}

TEST(RegionCompilerCompressed, RejectsTruncatedAndCorruptStreams) {
  const SyntheticWorkload w = make_workload(33, 5, 7);
  const PolicyEngine engine(w.app(), w.timing());
  const CompressedTdTable compressed(engine);
  std::stringstream full;
  RegionCompiler::save_regions_compressed(compressed, full);
  const std::string bytes = full.str();

  // Truncation at several depths: header, block table, planes.
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{9}, std::size_t{20}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::stringstream cut(bytes.substr(0, keep));
    EXPECT_THROW(RegionCompiler::load_regions_compressed(cut),
                 std::runtime_error)
        << "kept " << keep << " of " << bytes.size();
    std::stringstream cut2(bytes.substr(0, keep));
    EXPECT_THROW(RegionCompiler::load_regions(cut2), std::runtime_error);
  }

  // Unknown version in an otherwise valid header.
  std::string bad_version = bytes;
  bad_version[4] = 3;  // little-endian version word after the magic
  std::stringstream bad(bad_version);
  EXPECT_THROW(RegionCompiler::load_regions_compressed(bad),
               std::runtime_error);
  std::stringstream bad2(bad_version);
  EXPECT_THROW(RegionCompiler::load_regions(bad2), std::runtime_error);
}

TEST(TabledNumericManagerCompressed, DecisionsBitIdenticalToFlat) {
  const SyntheticWorkload w = make_workload(211, 11, 99);
  const PolicyEngine engine(w.app(), w.timing());
  TabledNumericManager flat(engine);
  TabledNumericManager compressed(engine, ArenaLayout::kCompressed);
  EXPECT_EQ(compressed.layout(), ArenaLayout::kCompressed);
  EXPECT_EQ(compressed.name(), "tabled-mixed-compressed");
  EXPECT_EQ(compressed.num_table_integers(), flat.num_table_integers());
  EXPECT_LT(compressed.memory_bytes(), flat.memory_bytes());

  // A smooth walk plus jumps and infeasible probes; warm state carried by
  // both managers through the same sequence.
  for (StateIndex s = 0; s < engine.num_states(); ++s) {
    const Quality target = static_cast<Quality>(s % 11);
    TimeNs t = engine.td_online(s, target) - us(1);
    if (s % 37 == 0) t = engine.td_online(s, 0) + us(5);  // infeasible
    const Decision a = flat.decide(s, t);
    const Decision b = compressed.decide(s, t);
    ASSERT_EQ(a.quality, b.quality) << "s=" << s;
    ASSERT_EQ(a.ops, b.ops) << "s=" << s;
    ASSERT_EQ(a.feasible, b.feasible) << "s=" << s;
  }
}

/// Sink retaining the quality stream + ops (the differential fingerprint).
struct QualityStreamSink final : StepSink {
  std::vector<Quality> qualities;
  std::uint64_t total_ops = 0;
  void on_step(const ExecStep& step) override {
    qualities.push_back(step.quality);
    total_ops += step.ops;
  }
};

RunResult run_mix(MultiTaskMix& mix, QualityManager& manager,
                  std::size_t cycles, QualityStreamSink& sink) {
  ExecutorOptions opts = mix.executor_options(cycles);
  opts.retain_steps = false;
  opts.retain_cycles = false;
  opts.sink = &sink;
  return run_cyclic(mix.composed().app(), manager, mix.source(), opts);
}

// The acceptance differential: compressed-arena decisions bit-identical
// (qualities AND ops, hence identical platform clocks) to the flat arena
// over a 10^4-cycle heterogeneous run — and the vector kernel identical
// to the forced-scalar kernel on both layouts.
TEST(BatchEngineCompressed, TenThousandCycleDifferentialAcrossArenasAndKernels) {
  MultiTaskMixSpec spec;
  spec.num_tasks = 4;
  spec.seed = 20260731;
  spec.num_cycles = 8;
  spec.min_task_actions = 4;
  spec.max_task_actions = 24;
  MultiTaskMix mix(spec);
  const auto engines = mix.engines();
  const std::size_t cycles = 10000;

  struct Variant {
    const char* label;
    ArenaLayout layout;
    BatchDecisionEngine::Kernel kernel;
  };
  const Variant variants[] = {
      {"flat-scalar", ArenaLayout::kFlat, BatchDecisionEngine::Kernel::kScalar},
      {"flat-auto", ArenaLayout::kFlat, BatchDecisionEngine::Kernel::kAuto},
      {"compressed-scalar", ArenaLayout::kCompressed,
       BatchDecisionEngine::Kernel::kScalar},
      {"compressed-auto", ArenaLayout::kCompressed,
       BatchDecisionEngine::Kernel::kAuto},
  };

  std::vector<Quality> want;
  std::uint64_t want_ops = 0;
  TimeNs want_time = 0;
  for (const Variant& v : variants) {
    BatchMultiTaskManager manager(mix.composed(), engines,
                                  BatchDecisionEngine::Mode::kTabled, v.layout,
                                  v.kernel);
    QualityStreamSink sink;
    const RunResult run = run_mix(mix, manager, cycles, sink);
    ASSERT_EQ(sink.qualities.size(), cycles * mix.composed().app().size());
    if (want.empty()) {
      want = sink.qualities;
      want_ops = sink.total_ops;
      want_time = run.total_time;
      continue;
    }
    EXPECT_EQ(sink.qualities, want) << v.label;
    EXPECT_EQ(sink.total_ops, want_ops) << v.label;
    EXPECT_EQ(run.total_time, want_time) << v.label;
  }
}

TEST(BatchEngineCompressed, DecideOneAndAccessorsMatchFlat) {
  MultiTaskMixSpec spec;
  spec.num_tasks = 3;
  spec.seed = 555;
  spec.include_mpeg = false;
  spec.min_task_actions = 6;
  spec.max_task_actions = 12;
  MultiTaskMix mix(spec);
  const auto engines = mix.engines();
  BatchDecisionEngine flat(engines);
  BatchDecisionEngine compressed(engines, BatchDecisionEngine::Mode::kTabled,
                                 ArenaLayout::kCompressed);
  EXPECT_EQ(compressed.layout(), ArenaLayout::kCompressed);
  // The compressed arena vectorizes like the flat one (block decode in
  // registers): both report the same kernel capability on this CPU.
  EXPECT_EQ(compressed.simd_active(), flat.simd_active());
  EXPECT_EQ(compressed.num_table_integers(), flat.num_table_integers());
  EXPECT_LT(compressed.memory_bytes(), flat.memory_bytes());
  for (std::size_t task = 0; task < engines.size(); ++task) {
    for (StateIndex s = 0; s < compressed.num_states(task); ++s) {
      for (Quality q = 0; q < compressed.num_levels(); ++q) {
        ASSERT_EQ(compressed.td(task, s, q), flat.td(task, s, q));
      }
      const TimeNs t = flat.td(task, s, compressed.num_levels() / 2) - us(2);
      const Decision a = flat.decide_one(task, s, t);
      const Decision b = compressed.decide_one(task, s, t);
      ASSERT_EQ(a.quality, b.quality);
      ASSERT_EQ(a.ops, b.ops);
    }
  }
}

// The serving layer picks the compressed arena up transparently: identical
// summaries, smaller tables.
TEST(ShardedServerCompressed, BitIdenticalToFlatArena) {
  ShardedServerSpec spec;
  spec.mix.num_tasks = 8;
  spec.mix.seed = 777;
  spec.num_shards = 2;
  spec.num_workers = 1;
  spec.cycles = 12;
  ShardedServer flat_server(spec);
  const ServingSummary flat_summary = flat_server.serve();

  spec.layout = ArenaLayout::kCompressed;
  ShardedServer comp_server(spec);
  const ServingSummary comp_summary = comp_server.serve();

  EXPECT_EQ(comp_summary.total_steps, flat_summary.total_steps);
  EXPECT_EQ(comp_summary.deadline_misses, flat_summary.deadline_misses);
  EXPECT_EQ(comp_summary.mean_quality, flat_summary.mean_quality);
  EXPECT_EQ(comp_summary.total_ops, flat_summary.total_ops);
}

}  // namespace
}  // namespace speedqm
