// Quickstart: fine-tune a personal LLM across a simulated edge cluster
// with PAC's full workflow — profile, plan, hybrid phase 1 with activation
// caching, cached data-parallel phase 2.
//
//   ./examples/quickstart
#include <cstdio>

#include "common/logging.hpp"
#include "core/session.hpp"

int main() {
  using namespace pac;
  set_log_level(LogLevel::kInfo);

  // A smart-home cluster: 4 edge devices, 256 MiB usable each.
  dist::EdgeCluster cluster(4, 256ULL << 20);

  // A synthetic sentiment task standing in for the user's private data
  // (SST-2-shaped; see DESIGN.md for the substitution rationale).
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 96;
  dcfg.eval_samples = 48;
  dcfg.seq_len = 16;
  dcfg.vocab = 64;
  data::SyntheticGlueDataset dataset(dcfg);

  // The personal LLM: a tiny transformer with Parallel Adapters (k = 8).
  core::SessionConfig cfg;
  cfg.model = model::tiny(/*layers=*/4, /*hidden=*/32, /*heads=*/2,
                          /*vocab=*/64, /*max_seq=*/16);
  cfg.technique.technique = model::Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 8;
  cfg.batch_size = 16;
  cfg.num_micro_batches = 4;
  cfg.epochs = 3;
  cfg.lr = 5e-3F;

  core::Session session(cluster, dataset, cfg);
  core::SessionReport report = session.run();

  std::printf("plan: %s\n", report.plan.note.c_str());
  std::printf("profiling %.3fs, planning %.3fs\n", report.profile_seconds,
              report.planning_seconds);
  std::printf("epoch losses:");
  for (double l : report.epoch_losses) std::printf(" %.4f", l);
  std::printf("\n");
  std::printf("activation cache: %.2f MiB total, redistribution moved %llu "
              "blocks in %llu frames (%.2f MiB)\n",
              static_cast<double>(report.cache_bytes_total) / (1 << 20),
              static_cast<unsigned long long>(
                  report.redistribution.items_sent),
              static_cast<unsigned long long>(
                  report.redistribution.frames_sent),
              static_cast<double>(
                  report.redistribution.payload_bytes_sent) /
                  (1 << 20));
  std::printf("eval accuracy: %.3f\n", report.eval_metric);
  std::printf("total wall time: %.2fs\n", report.total_seconds);
  return 0;
}
