// Property test for the §4.1 bubble-free layer-wise solver: over randomized
// LayerProfiles, SolveLayerWise must match exhaustive enumeration of every (L_H, L_O)
// split under both complement methods, and the predicted bubble of a mixed schedule
// must never exceed one layer's stage cost (one layer of compute + one layer of IO on
// the chosen streams) — that is exactly the "bubble-free up to integer rounding"
// claim of §4.1.2. The same sweep checks the restore plan each returned scheme maps to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/core/partition.h"

namespace hcache {
namespace {

// Makespan of a layer-wise schedule under the steady-state pipelining model (the
// object SolveLayerWise minimizes; duplicated here deliberately as the test oracle).
double Makespan(const LayerProfile& p, int64_t lh, int64_t lo, ComplementMethod m) {
  const double h = static_cast<double>(lh);
  const double o = static_cast<double>(lo);
  switch (m) {
    case ComplementMethod::kNone:
    case ComplementMethod::kKvOffload:
      return std::max(p.c_hidden * h, p.io_hidden * h + p.io_kv * o);
    case ComplementMethod::kRecompute:
      return std::max(p.c_hidden * h + p.c_token * o, p.io_hidden * h);
  }
  return 0;
}

// Exhaustive oracle: best makespan over every split and both complements.
double BruteForceBest(const LayerProfile& p, int64_t num_layers) {
  double best = std::numeric_limits<double>::infinity();
  for (int64_t lh = 0; lh <= num_layers; ++lh) {
    const int64_t lo = num_layers - lh;
    best = std::min(best, Makespan(p, lh, lo, ComplementMethod::kKvOffload));
    best = std::min(best, Makespan(p, lh, lo, ComplementMethod::kRecompute));
  }
  return best;
}

LayerProfile RandomProfile(Rng& rng) {
  LayerProfile p;
  // Log-uniform over three decades: covers compute-bound, IO-bound, and the GQA-style
  // corners where KV transmission undercuts hidden-state transmission.
  const auto sample = [&rng] { return 1e-4 * std::pow(10.0, 3.0 * rng.NextDouble()); };
  p.io_hidden = sample();
  p.io_kv = sample();
  p.c_hidden = sample();
  p.c_token = sample();
  p.history_tokens = 1024;
  return p;
}

TEST(PartitionPropertyTest, SolverMatchesExhaustiveEnumeration) {
  Rng rng(0xbeef);
  // GQA keeps a KV layer's footprint (2 * kv_dim) apart from a hidden layer's (D).
  const ModelConfig cfg = ModelConfig::WithGqa(ModelConfig::Llama2_7B(), 8);
  constexpr int kTrials = 2000;
  for (int trial = 0; trial < kTrials; ++trial) {
    LayerProfile p = RandomProfile(rng);
    const int64_t num_layers = rng.NextInRange(1, 96);
    const PartitionScheme s = SolveLayerWise(p, num_layers);

    // Structural invariants.
    ASSERT_EQ(s.layers_hidden + s.layers_other, num_layers) << p.ToString();
    ASSERT_GE(s.layers_hidden, 0);
    ASSERT_GE(s.layers_other, 0);
    if (s.layers_other == 0) {
      EXPECT_EQ(s.complement, ComplementMethod::kNone);
    } else {
      EXPECT_NE(s.complement, ComplementMethod::kNone);
    }

    // The reported prediction must be the true makespan of the returned split.
    const ComplementMethod eval_m =
        s.complement == ComplementMethod::kNone ? ComplementMethod::kKvOffload : s.complement;
    const double actual = Makespan(p, s.layers_hidden, s.layers_other, eval_m);
    ASSERT_NEAR(s.predicted_time, actual, 1e-12 + 1e-9 * actual) << p.ToString();

    // Optimality: the closed-form solve equals the exhaustive enumeration optimum.
    const double best = BruteForceBest(p, num_layers);
    ASSERT_LE(s.predicted_time, best * (1.0 + 1e-9) + 1e-12)
        << "suboptimal split " << s.ToString() << " for profile " << p.ToString()
        << " with " << num_layers << " layers (brute force " << best << ")";

    // The restore plan covers [0, num_layers) exactly once, in the order recompute →
    // hidden → KV, and its per-source counts agree with the storage footprint.
    const std::vector<RestoreStep> steps = PlanRestore(s.Sources(), num_layers);
    std::vector<int> visits(static_cast<size_t>(num_layers), 0);
    int64_t per_source[3] = {0, 0, 0};  // indexed by LayerSource, declared in plan order
    for (size_t i = 0; i < steps.size(); ++i) {
      ASSERT_GE(steps[i].layer, 0);
      ASSERT_LT(steps[i].layer, num_layers);
      ++visits[static_cast<size_t>(steps[i].layer)];
      ++per_source[static_cast<int>(steps[i].source)];
      if (i > 0) {
        ASSERT_LT(steps[i - 1].layer, steps[i].layer) << s.ToString();
        ASSERT_LE(static_cast<int>(steps[i - 1].source), static_cast<int>(steps[i].source))
            << s.ToString();
      }
    }
    for (const int v : visits) {
      ASSERT_EQ(v, 1) << s.ToString();
    }
    const int64_t recompute = per_source[static_cast<int>(LayerSource::kRecompute)];
    const int64_t hidden = per_source[static_cast<int>(LayerSource::kHidden)];
    const int64_t kv = per_source[static_cast<int>(LayerSource::kKv)];
    EXPECT_EQ(hidden, s.layers_hidden) << s.ToString();
    EXPECT_EQ(recompute + kv, s.layers_other) << s.ToString();
    EXPECT_EQ(hidden * cfg.hidden_dim + kv * 2 * cfg.kv_dim(), s.StoredElementsPerToken(cfg))
        << s.ToString();
  }
}

TEST(PartitionPropertyTest, MixedScheduleBubbleBoundedByOneLayerStageCost) {
  Rng rng(0xcafe);
  constexpr int kTrials = 2000;
  int mixed = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    LayerProfile p = RandomProfile(rng);
    const int64_t num_layers = rng.NextInRange(1, 96);
    const PartitionScheme s = SolveLayerWise(p, num_layers);
    if (s.layers_hidden == 0 || s.layers_other == 0) {
      continue;  // pure plans have a single stream: no pipeline, no bubble claim
    }
    ++mixed;
    // One layer's stage cost on the streams actually scheduled: moving one layer
    // between the streams changes their gap by at most (compute stage + IO stage).
    const double stage_cost = s.complement == ComplementMethod::kKvOffload
                                  ? p.c_hidden + p.io_kv
                                  : p.c_token + p.io_hidden;
    EXPECT_LE(s.predicted_bubble, stage_cost * (1.0 + 1e-9) + 1e-12)
        << s.ToString() << " for profile " << p.ToString();
  }
  // The sweep must actually exercise mixed schedules (sanity on the generator).
  EXPECT_GT(mixed, 200);
}

TEST(PartitionPropertyTest, NearCancellingCrossFamilyDenominatorIsSafe) {
  // io_h just below c_h + io_kv: the KV family's crossing denominator is a tiny
  // cancellation residual and the fractional crossing explodes. The candidate scan
  // must clamp in double space before the integer cast and still return a valid,
  // optimal split.
  LayerProfile p;
  p.c_hidden = 1.0;
  p.io_kv = 1.0;
  p.io_hidden = 2.0 - 1e-15;
  p.c_token = 3.0;
  p.history_tokens = 1024;
  const PartitionScheme s = SolveLayerWise(p, 48);
  EXPECT_EQ(s.layers_hidden + s.layers_other, 48);
  EXPECT_LE(s.predicted_time, BruteForceBest(p, 48) * (1.0 + 1e-9));
}

TEST(PartitionPropertyTest, BubbleConsistentWithStreams) {
  // predicted_bubble is |compute stream - IO stream| of the returned schedule.
  Rng rng(0xd00d);
  for (int trial = 0; trial < 500; ++trial) {
    LayerProfile p = RandomProfile(rng);
    const int64_t num_layers = rng.NextInRange(1, 96);
    const PartitionScheme s = SolveLayerWise(p, num_layers);
    const double h = static_cast<double>(s.layers_hidden);
    const double o = static_cast<double>(s.layers_other);
    double compute = 0, io = 0;
    if (s.complement == ComplementMethod::kRecompute) {
      compute = p.c_hidden * h + p.c_token * o;
      io = p.io_hidden * h;
    } else {
      compute = p.c_hidden * h;
      io = p.io_hidden * h + p.io_kv * o;
    }
    EXPECT_NEAR(s.predicted_bubble, std::abs(compute - io),
                1e-12 + 1e-9 * std::abs(compute - io));
    EXPECT_NEAR(s.predicted_time, std::max(compute, io),
                1e-12 + 1e-9 * std::max(compute, io));
  }
}

}  // namespace
}  // namespace hcache
