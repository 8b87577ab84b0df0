/// Data-parallel numerics end to end: trains a tiny linear regression with
/// the library's *real* collective algorithms and optimizer math, the exact
/// flow a distributed optimizer runs per iteration:
///
///   per-rank gradient -> ring reduce-scatter -> shard-local Adam update ->
///   ring all-gather of parameters
///
/// Four simulated data-parallel ranks each hold a quarter of the dataset.
/// The loss printed every few epochs converges to ~0, demonstrating that
/// the step programs driving the timing simulation are numerically the
/// genuine NCCL-style algorithms.

#include <cstdio>
#include <vector>

#include "comm/inprocess.h"
#include "optimizer/adam.h"
#include "util/rng.h"

using namespace holmes;

namespace {

constexpr int kRanks = 4;
constexpr int kFeatures = 8;
constexpr int kSamplesPerRank = 32;

struct Shard {
  std::vector<std::vector<float>> x;  // samples
  std::vector<float> y;               // targets
};

}  // namespace

int main() {
  // Ground-truth weights the model must recover.
  std::vector<float> truth(kFeatures);
  Rng rng(2024);
  for (auto& w : truth) w = static_cast<float>(rng.uniform(-2.0, 2.0));

  // Partition a synthetic dataset across the data-parallel ranks.
  std::vector<Shard> shards(kRanks);
  for (auto& shard : shards) {
    for (int i = 0; i < kSamplesPerRank; ++i) {
      std::vector<float> x(kFeatures);
      float target = 0;
      for (int f = 0; f < kFeatures; ++f) {
        x[static_cast<std::size_t>(f)] = static_cast<float>(rng.uniform(-1, 1));
        target += x[static_cast<std::size_t>(f)] *
                  truth[static_cast<std::size_t>(f)];
      }
      shard.x.push_back(std::move(x));
      shard.y.push_back(target);
    }
  }

  // Every rank holds the replicated parameters; optimizer state exists only
  // for the rank's owned reduce-scatter shard (ZeRO-1 layout).
  std::vector<float> params(kFeatures, 0.0f);
  const comm::ChunkLayout layout(kFeatures, kRanks);
  std::vector<std::vector<float>> m_state(kRanks), v_state(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const int chunk = comm::ring_owned_chunk(kRanks, r);
    m_state[static_cast<std::size_t>(r)].assign(
        static_cast<std::size_t>(layout.count(chunk)), 0.0f);
    v_state[static_cast<std::size_t>(r)] = m_state[static_cast<std::size_t>(r)];
  }

  optimizer::AdamParams hp;
  hp.lr = 0.05;

  std::printf("epoch    loss\n");
  for (long epoch = 1; epoch <= 60; ++epoch) {
    // Each rank: replicate params, compute its local MSE gradient.
    std::vector<std::vector<float>> grads(
        kRanks, std::vector<float>(kFeatures, 0.0f));
    double loss = 0;
    for (int r = 0; r < kRanks; ++r) {
      const Shard& shard = shards[static_cast<std::size_t>(r)];
      for (int i = 0; i < kSamplesPerRank; ++i) {
        float pred = 0;
        for (int f = 0; f < kFeatures; ++f) {
          pred += shard.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(f)] *
                  params[static_cast<std::size_t>(f)];
        }
        const float err = pred - shard.y[static_cast<std::size_t>(i)];
        loss += err * err;
        for (int f = 0; f < kFeatures; ++f) {
          grads[static_cast<std::size_t>(r)][static_cast<std::size_t>(f)] +=
              2.0f * err *
              shard.x[static_cast<std::size_t>(i)][static_cast<std::size_t>(f)] /
              (kRanks * kSamplesPerRank);
        }
      }
    }
    loss /= kRanks * kSamplesPerRank;

    // Gradient reduce-scatter: afterwards each rank's owned chunk holds the
    // sum over ranks (the real ring algorithm, not a shortcut).
    comm::BufferSet grad_spans;
    for (auto& g : grads) grad_spans.emplace_back(g);
    comm::reduce_scatter_inplace(grad_spans);

    // Shard-local Adam on a per-rank copy of the parameters.
    std::vector<std::vector<float>> replica(
        kRanks, params);  // each rank's parameter copy
    for (int r = 0; r < kRanks; ++r) {
      const int chunk = comm::ring_owned_chunk(kRanks, r);
      const auto off = static_cast<std::size_t>(layout.offset(chunk));
      const auto cnt = static_cast<std::size_t>(layout.count(chunk));
      optimizer::adam_step(
          std::span(replica[static_cast<std::size_t>(r)]).subspan(off, cnt),
          std::span<const float>(grads[static_cast<std::size_t>(r)])
              .subspan(off, cnt),
          m_state[static_cast<std::size_t>(r)],
          v_state[static_cast<std::size_t>(r)], epoch, hp);
    }

    // All-gather the updated shards so every rank has the full parameters.
    comm::BufferSet replica_spans;
    for (auto& p : replica) replica_spans.emplace_back(p);
    comm::all_gather_inplace(replica_spans);
    params = replica[0];

    if (epoch % 10 == 0 || epoch == 1) {
      std::printf("%5ld  %7.4f\n", epoch, loss);
    }
  }

  double err = 0;
  for (int f = 0; f < kFeatures; ++f) {
    const double d = params[static_cast<std::size_t>(f)] -
                     truth[static_cast<std::size_t>(f)];
    err += d * d;
  }
  std::printf("\nfinal parameter error (L2^2): %.6f\n", err);
  return err < 1e-2 ? 0 : 1;
}
