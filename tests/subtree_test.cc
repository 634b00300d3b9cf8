#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "subtree/naive_pruning.h"
#include "subtree/subtree_sampler.h"
#include "test_corpus.h"

namespace prestroid::subtree {
namespace {

using otp::OtpNode;
using otp::OtpNodePtr;
using otp::OtpNodeType;

/// Builds a complete binary tree of the given depth (depth 0 = single node).
OtpNodePtr CompleteTree(size_t depth, int* counter) {
  auto node = std::make_unique<OtpNode>();
  node->type = OtpNodeType::kOperator;
  node->label = "n" + std::to_string((*counter)++);
  if (depth > 0) {
    node->left = CompleteTree(depth - 1, counter);
    node->right = CompleteTree(depth - 1, counter);
  }
  return node;
}

/// Builds a left-deep chain of the given length.
OtpNodePtr Chain(size_t length) {
  auto node = std::make_unique<OtpNode>();
  node->type = OtpNodeType::kOperator;
  node->label = "c" + std::to_string(length);
  if (length > 1) node->left = Chain(length - 1);
  return node;
}

TEST(SamplerTest, RejectsInvalidNodeLimit) {
  int counter = 0;
  OtpNodePtr tree = CompleteTree(2, &counter);
  SubtreeSamplerConfig config;
  config.conv_layers = 3;
  config.node_limit = 14;  // needs >= 2^4-1 = 15
  EXPECT_EQ(SampleSubtrees(*tree, config).status().code(),
            StatusCode::kInvalidArgument);
  config.node_limit = 15;
  EXPECT_TRUE(SampleSubtrees(*tree, config).ok());
}

TEST(SamplerTest, SmallTreeIsOneCompleteSample) {
  int counter = 0;
  OtpNodePtr tree = CompleteTree(2, &counter);  // 7 nodes
  SubtreeSamplerConfig config;
  config.node_limit = 16;
  config.conv_layers = 3;
  auto samples = SampleSubtrees(*tree, config).ValueOrDie();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_TRUE(samples[0].complete);
  EXPECT_EQ(samples[0].size(), 7u);
  // Complete samples: every node votes.
  for (float vote : samples[0].votes) EXPECT_EQ(vote, 1.0f);
}

TEST(SamplerTest, SamplesRespectNodeLimit) {
  int counter = 0;
  OtpNodePtr tree = CompleteTree(7, &counter);  // 255 nodes
  SubtreeSamplerConfig config;
  config.node_limit = 16;
  config.conv_layers = 3;
  auto samples = SampleSubtrees(*tree, config).ValueOrDie();
  EXPECT_GT(samples.size(), 1u);
  for (const SubtreeSample& sample : samples) {
    EXPECT_LE(sample.size(), config.node_limit);
    EXPECT_EQ(sample.votes.size(), sample.size());
    EXPECT_EQ(sample.left.size(), sample.size());
  }
}

TEST(SamplerTest, VotesMarkNodesWithCompleteConvContext) {
  int counter = 0;
  OtpNodePtr tree = CompleteTree(7, &counter);
  SubtreeSamplerConfig config;
  config.node_limit = 16;  // complete levels 0..3 fit (15 nodes)
  config.conv_layers = 3;
  auto samples = SampleSubtrees(*tree, config).ValueOrDie();
  const SubtreeSample& first = samples[0];
  ASSERT_FALSE(first.complete);
  EXPECT_EQ(first.size(), 15u);  // levels 0..3 of the complete tree
  // Only the root (depth 0 = 3 levels below present) votes.
  EXPECT_EQ(first.votes[0], 1.0f);
  float vote_sum = 0;
  for (float vote : first.votes) vote_sum += vote;
  EXPECT_EQ(vote_sum, 1.0f);
}

TEST(SamplerTest, EveryNodeVotesSomewhere) {
  // Coverage: every internal node of the original tree should obtain a vote
  // in at least one sample (Algorithm 1 re-seeds so convolution context is
  // eventually complete everywhere).
  int counter = 0;
  OtpNodePtr tree = CompleteTree(6, &counter);  // 127 nodes
  SubtreeSamplerConfig config;
  config.node_limit = 16;
  config.conv_layers = 3;
  auto samples = SampleSubtrees(*tree, config).ValueOrDie();
  std::set<const OtpNode*> voted;
  for (const SubtreeSample& sample : samples) {
    for (size_t i = 0; i < sample.size(); ++i) {
      if (sample.votes[i] == 1.0f) voted.insert(sample.nodes[i]);
    }
  }
  // All 127 nodes appear with a vote somewhere.
  EXPECT_EQ(voted.size(), 127u);
}

TEST(SamplerTest, ChainDecomposesIntoCompleteAndPrunedSamples) {
  OtpNodePtr tree = Chain(100);
  SubtreeSamplerConfig config;
  config.node_limit = 16;
  config.conv_layers = 3;
  auto samples = SampleSubtrees(*tree, config).ValueOrDie();
  // A chain of 100 with per-sample depth 15/16 and re-seed stride needs
  // several samples; the last is complete.
  EXPECT_GT(samples.size(), 2u);
  EXPECT_TRUE(samples.back().complete);
  size_t total = 0;
  for (const SubtreeSample& sample : samples) total += sample.size();
  EXPECT_GE(total, 100u);  // full coverage (with overlap)
}

TEST(SamplerTest, LocalChildIndicesValid) {
  int counter = 0;
  OtpNodePtr tree = CompleteTree(5, &counter);
  SubtreeSamplerConfig config;
  config.node_limit = 20;
  config.conv_layers = 3;
  auto samples = SampleSubtrees(*tree, config).ValueOrDie();
  for (const SubtreeSample& sample : samples) {
    for (size_t i = 0; i < sample.size(); ++i) {
      if (sample.left[i] >= 0) {
        ASSERT_LT(static_cast<size_t>(sample.left[i]), sample.size());
        EXPECT_EQ(sample.nodes[static_cast<size_t>(sample.left[i])],
                  sample.nodes[i]->left.get());
      }
      if (sample.right[i] >= 0) {
        ASSERT_LT(static_cast<size_t>(sample.right[i]), sample.size());
        EXPECT_EQ(sample.nodes[static_cast<size_t>(sample.right[i])],
                  sample.nodes[i]->right.get());
      }
    }
  }
}

TEST(SamplerTest, SingleNodeTree) {
  auto node = std::make_unique<OtpNode>();
  node->type = OtpNodeType::kOperator;
  SubtreeSamplerConfig config;
  config.node_limit = 16;
  config.conv_layers = 3;
  auto samples = SampleSubtrees(*node, config).ValueOrDie();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].size(), 1u);
  EXPECT_TRUE(samples[0].complete);
  EXPECT_EQ(samples[0].votes[0], 1.0f);
}

TEST(NaivePruningTest, BfsChunksCoverAllNodesExactlyOnce) {
  int counter = 0;
  OtpNodePtr tree = CompleteTree(5, &counter);  // 63 nodes
  auto samples = PruneNaive(*tree, 16, PruningStrategy::kBreadthFirst);
  ASSERT_EQ(samples.size(), 4u);  // ceil(63/16)
  std::set<const OtpNode*> seen;
  size_t total = 0;
  for (const SubtreeSample& sample : samples) {
    EXPECT_LE(sample.size(), 16u);
    total += sample.size();
    for (const OtpNode* node : sample.nodes) {
      EXPECT_TRUE(seen.insert(node).second);  // no overlap, unlike Algorithm 1
    }
    for (float vote : sample.votes) EXPECT_EQ(vote, 1.0f);
  }
  EXPECT_EQ(total, 63u);
}

TEST(NaivePruningTest, DfsFirstChunkIsLeftSpine) {
  OtpNodePtr tree = Chain(40);
  auto samples = PruneNaive(*tree, 10, PruningStrategy::kDepthFirst);
  ASSERT_EQ(samples.size(), 4u);
  // Pre-order DFS of a left chain = the chain itself; intra-chunk links hold.
  const SubtreeSample& first = samples[0];
  for (size_t i = 0; i + 1 < first.size(); ++i) {
    EXPECT_EQ(first.left[i], static_cast<int>(i) + 1);
  }
  // The boundary-crossing link is severed.
  EXPECT_EQ(first.left.back(), -1);
}

TEST(NaivePruningTest, SeversCrossChunkEdges) {
  int counter = 0;
  OtpNodePtr tree = CompleteTree(4, &counter);  // 31 nodes
  for (PruningStrategy strategy :
       {PruningStrategy::kBreadthFirst, PruningStrategy::kDepthFirst}) {
    auto samples = PruneNaive(*tree, 8, strategy);
    for (const SubtreeSample& sample : samples) {
      for (size_t i = 0; i < sample.size(); ++i) {
        if (sample.left[i] >= 0) {
          EXPECT_EQ(sample.nodes[static_cast<size_t>(sample.left[i])],
                    sample.nodes[i]->left.get());
        }
        if (sample.right[i] >= 0) {
          EXPECT_EQ(sample.nodes[static_cast<size_t>(sample.right[i])],
                    sample.nodes[i]->right.get());
        }
      }
    }
  }
}

TEST(NaivePruningTest, DecomposeTreeDispatch) {
  int counter = 0;
  OtpNodePtr tree = CompleteTree(4, &counter);
  SubtreeSamplerConfig config;
  config.node_limit = 16;
  config.conv_layers = 3;
  auto algo = DecomposeTree(*tree, config, PruningStrategy::kAlgorithm1)
                  .ValueOrDie();
  auto bfs = DecomposeTree(*tree, config, PruningStrategy::kBreadthFirst)
                 .ValueOrDie();
  // Algorithm 1 overlaps samples; BFS chunking does not.
  size_t algo_total = 0, bfs_total = 0;
  for (const auto& sample : algo) algo_total += sample.size();
  for (const auto& sample : bfs) bfs_total += sample.size();
  EXPECT_GT(algo_total, 31u);
  EXPECT_EQ(bfs_total, 31u);
}

TEST(NaivePruningTest, StrategyNames) {
  EXPECT_STREQ(PruningStrategyToString(PruningStrategy::kAlgorithm1),
               "algorithm1");
  EXPECT_STREQ(PruningStrategyToString(PruningStrategy::kBreadthFirst),
               "bfs-prune");
  EXPECT_STREQ(PruningStrategyToString(PruningStrategy::kDepthFirst),
               "dfs-prune");
}

// Property sweep over (N, C) combinations.
class SamplerParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(SamplerParamTest, InvariantsHoldAcrossConfigs) {
  auto [n_limit, conv_layers] = GetParam();
  int counter = 0;
  OtpNodePtr tree = CompleteTree(8, &counter);  // 511 nodes
  SubtreeSamplerConfig config;
  config.node_limit = n_limit;
  config.conv_layers = conv_layers;
  auto result = SampleSubtrees(*tree, config);
  const size_t min_nodes = (static_cast<size_t>(1) << (conv_layers + 1)) - 1;
  if (n_limit < min_nodes) {
    EXPECT_FALSE(result.ok());
    return;
  }
  auto samples = std::move(result).value();
  ASSERT_FALSE(samples.empty());
  for (const SubtreeSample& sample : samples) {
    EXPECT_LE(sample.size(), n_limit);
    EXPECT_GE(sample.size(), 1u);
    // Votes are 0/1 and at least one node votes per sample.
    float vote_sum = 0.0f;
    for (float vote : sample.votes) {
      EXPECT_TRUE(vote == 0.0f || vote == 1.0f);
      vote_sum += vote;
    }
    EXPECT_GE(vote_sum, 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SamplerParamTest,
    ::testing::Values(std::make_tuple(15, 3), std::make_tuple(16, 3),
                      std::make_tuple(32, 3), std::make_tuple(64, 3),
                      std::make_tuple(8, 2), std::make_tuple(7, 2),
                      std::make_tuple(4, 1), std::make_tuple(3, 1)));

// Pinned over the GRAB and TPC-DS corpora before the sampler's level growth
// was rewritten: every sample's nodes (as BFS indices of the whole O-T-P
// tree), local children, votes and completeness must stay exactly as the
// std::deque / std::map implementation produced them.
uint64_t SamplerCorpusDigest(const test::TraceCorpus& corpus) {
  const std::vector<std::pair<size_t, size_t>> configs = {
      {15, 3}, {16, 3}, {31, 4}, {7, 2}, {3, 1}};
  test::Digest digest;
  for (const workload::QueryRecord& record : corpus.records) {
    otp::OtpTree tree = otp::RecastPlan(*record.plan).ValueOrDie();
    const otp::FlatOtpTree flat = otp::Flatten(tree);
    std::unordered_map<const OtpNode*, uint64_t> bfs_index;
    for (size_t i = 0; i < flat.size(); ++i) bfs_index[flat.nodes[i]] = i;
    for (const auto& [n_limit, conv_layers] : configs) {
      SubtreeSamplerConfig config;
      config.node_limit = n_limit;
      config.conv_layers = conv_layers;
      const std::vector<SubtreeSample> samples =
          SampleSubtrees(*tree.root, config).ValueOrDie();
      digest.Add(static_cast<uint64_t>(samples.size()));
      for (const SubtreeSample& sample : samples) {
        digest.Add(static_cast<uint64_t>(sample.size()));
        digest.Add(static_cast<uint64_t>(sample.complete));
        for (size_t i = 0; i < sample.size(); ++i) {
          digest.Add(bfs_index.at(sample.nodes[i]));
          digest.Add(static_cast<uint64_t>(sample.left[i] + 1));
          digest.Add(static_cast<uint64_t>(sample.right[i] + 1));
          digest.AddBits(sample.votes[i]);
        }
      }
    }
  }
  return digest.value();
}

TEST(SamplerDigestTest, GrabCorpus) {
  EXPECT_EQ(test::Hex(SamplerCorpusDigest(test::GrabCorpus())),
            "0x9baba1cfa0ac9d89");
}

TEST(SamplerDigestTest, TpcdsCorpus) {
  EXPECT_EQ(test::Hex(SamplerCorpusDigest(test::TpcdsCorpus())),
            "0x6cf72fea6af9e732");
}

}  // namespace
}  // namespace prestroid::subtree
