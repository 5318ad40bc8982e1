// Cross-module integration scenarios: the personal-agent lifecycle that
// the library exists for, exercised end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "common/timer.hpp"
#include "core/session.hpp"
#include "data/tokenizer.hpp"
#include "model/checkpoint.hpp"
#include "tensor/ops.hpp"

namespace pac {
namespace {

using model::Technique;

TEST(IntegrationTest, PersonalizationLifecycleWithCheckpoint) {
  // Day 1: fine-tune on the user's data across the cluster, checkpoint
  // the adapters.  Day 2: a fresh process restores the adapters into a
  // newly built model and serves without retraining.
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 48;
  dcfg.eval_samples = 24;
  dcfg.seq_len = 8;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);

  core::SessionConfig cfg;
  cfg.model = model::tiny(3, 16, 2, 32, 8);
  cfg.technique.technique = Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 4;
  cfg.epochs = 6;
  cfg.lr = 5e-3F;

  // Test name and pid under TempDir(): parallel ctest runs never share it.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string ckpt = ::testing::TempDir() + "pac_" +
                           info->test_suite_name() + "_" + info->name() +
                           "_" + std::to_string(::getpid()) + ".bin";
  double day1_metric = 0.0;
  {
    dist::EdgeCluster cluster(3,
                              std::numeric_limits<std::uint64_t>::max());
    core::Session session(cluster, ds, cfg);
    core::SessionReport report = session.run();
    day1_metric = report.eval_metric;
    ASSERT_GT(day1_metric, 0.6) << "training should beat chance";
    // Checkpoint the trained adapters from the report.
    model::Model trained(cfg.model, cfg.technique, model::TaskSpec{},
                         cfg.model_seed);
    model::apply_parameter_overrides(
        trained, report.cache_used ? report.phase2.trainable_values
                                   : report.phase1.trainable_values);
    model::save_trainable_parameters(trained.parameters(), ckpt);
  }

  // Day 2: fresh model, restore adapters, evaluate without training.
  {
    model::Model served(cfg.model, cfg.technique, model::TaskSpec{},
                        cfg.model_seed);
    model::load_parameters(served.parameters(), ckpt,
                           model::LoadMode::kSubset);
    served.set_training_mode(false);
    std::vector<std::int64_t> idx(static_cast<std::size_t>(ds.eval_size()));
    std::iota(idx.begin(), idx.end(), 0);
    auto batch = ds.make_eval_batch(idx);
    Tensor logits = served.forward(batch.tokens);
    const auto preds = nn::argmax_rows(logits);
    std::int64_t correct = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct;
    }
    const double day2_metric =
        static_cast<double>(correct) / static_cast<double>(preds.size());
    EXPECT_NEAR(day2_metric, day1_metric, 1e-9)
        << "restored adapters must reproduce the trained behaviour";
  }
  std::filesystem::remove(ckpt);
}

TEST(IntegrationTest, RealTextThroughFullSessionWithPadding) {
  // Tokenized, padded text through profile/plan/phase1/cache/phase2.
  std::vector<data::TextClassificationDataset::Example> examples;
  for (int i = 0; i < 12; ++i) {
    examples.push_back({"turn the lights off now please", 0});
    examples.push_back({"play the next song for me", 1});
  }
  std::vector<std::string> corpus;
  for (const auto& e : examples) corpus.push_back(e.text);
  data::Tokenizer tok = data::Tokenizer::build(corpus, 32);
  data::TextClassificationDataset ds(examples, tok, /*seq_len=*/10);

  dist::EdgeCluster cluster(2, std::numeric_limits<std::uint64_t>::max());
  core::SessionConfig cfg;
  cfg.model = model::tiny(2, 16, 2, ds.vocab(), 10);
  cfg.model.pad_token = data::Tokenizer::kPad;
  cfg.technique.technique = Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 2;
  cfg.epochs = 5;
  cfg.lr = 5e-3F;
  core::Session session(cluster, ds, cfg);
  core::SessionReport report = session.run();
  EXPECT_TRUE(report.cache_used);
  // Two trivially separable commands: must reach perfect accuracy.
  EXPECT_DOUBLE_EQ(report.eval_metric, 1.0);
}

TEST(IntegrationTest, RealtimeLinkEmulationDelaysTransfers) {
  // LinkModel::simulate_delay sleeps senders to emulate the edge LAN in
  // wall-clock time (demo mode; analytic timing uses the simulator).
  dist::LinkModel link;
  link.bandwidth_bps = 8e6;  // 1 MB/s
  link.latency_s = 0.02;
  link.simulate_delay = true;
  dist::EdgeCluster cluster(
      2, std::numeric_limits<std::uint64_t>::max(), link);
  WallTimer timer;
  cluster.run([&](dist::DeviceContext& ctx) {
    if (ctx.rank == 0) {
      // 100 KB at 1 MB/s = 0.1 s + 20 ms latency.
      ctx.comm.send(1, 5, Tensor::zeros({25600}));
    } else {
      ctx.comm.recv(0, 5);
    }
  });
  EXPECT_GE(timer.seconds(), 0.1);
}

TEST(IntegrationTest, HeterogeneousClusterSessionRuns) {
  // Mixed-speed devices: the session's planner sees the compute scales and
  // may emit weighted groups; the executed engine must agree with the
  // plan's ownership and the run must still train.
  data::DatasetConfig dcfg;
  dcfg.task = data::GlueTask::kSst2;
  dcfg.train_samples = 32;
  dcfg.eval_samples = 16;
  dcfg.seq_len = 8;
  dcfg.vocab = 32;
  data::SyntheticGlueDataset ds(dcfg);

  std::vector<dist::DeviceSpec> specs{
      {2.0, std::numeric_limits<std::uint64_t>::max()},
      {2.0, std::numeric_limits<std::uint64_t>::max()},
      {1.0, std::numeric_limits<std::uint64_t>::max()},
      {1.0, std::numeric_limits<std::uint64_t>::max()},
  };
  dist::EdgeCluster cluster(specs);
  core::SessionConfig cfg;
  cfg.model = model::tiny(4, 16, 2, 32, 8);
  cfg.technique.technique = Technique::kParallelAdapters;
  cfg.technique.pa_reduction = 4;
  cfg.batch_size = 8;
  cfg.num_micro_batches = 8;
  cfg.epochs = 3;
  cfg.lr = 5e-3F;
  core::Session session(cluster, ds, cfg);
  core::SessionReport report = session.run();
  EXPECT_TRUE(report.plan.feasible);
  EXPECT_EQ(report.epoch_losses.size(), 3U);
  EXPECT_LT(report.epoch_losses.back(), report.epoch_losses.front());
}

}  // namespace
}  // namespace pac
