#include "subtree/subtree_sampler.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::subtree {

using otp::OtpNode;

Result<std::vector<SubtreeSample>> SampleSubtrees(
    const otp::OtpNode& root, const SubtreeSamplerConfig& config) {
  const size_t n_limit = config.node_limit;
  const size_t c = config.conv_layers;
  // Constraint from the paper: N >= 2^(C+1) - 1 (the paper writes a strict
  // inequality but itself runs N = 15 with C = 3).
  const size_t min_nodes = (static_cast<size_t>(1) << (c + 1)) - 1;
  if (n_limit < min_nodes) {
    return Status::InvalidArgument(
        StrFormat("node limit N=%zu violates N >= 2^(C+1)-1 = %zu for C=%zu",
                  n_limit, min_nodes, c));
  }

  std::vector<SubtreeSample> samples;
  // FIFO of sample seeds: frontier[head] is the next one to sample.
  std::vector<const OtpNode*> frontier = {&root};
  // The sample being grown, in BFS order, with each node's relative depth;
  // both are reused from sample to sample.
  std::vector<const OtpNode*> nodes;
  std::vector<size_t> depths;

  for (size_t head = 0; head < frontier.size(); ++head) {
    SubtreeSample sample;
    nodes.assign(1, frontier[head]);
    depths.assign(1, 0);

    // Grow the sample one full BFS level at a time: stop before the level
    // whose inclusion would exceed N, or when no node has a child left
    // (complete subtree reached). Level d + 1 is level d's children in
    // order, left before right, which is the BFS order of getNodes.
    size_t level_begin = 0;
    size_t sample_depth = 0;  // deepest level in the sample
    while (true) {
      const size_t level_end = nodes.size();
      size_t next = 0;
      for (size_t i = level_begin; i < level_end; ++i) {
        next += (nodes[i]->left != nullptr) + (nodes[i]->right != nullptr);
      }
      if (next == 0) {
        sample.complete = true;
        break;
      }
      if (level_end + next > n_limit) break;
      ++sample_depth;
      for (size_t i = level_begin; i < level_end; ++i) {
        for (const OtpNode* child : {nodes[i]->left.get(),
                                     nodes[i]->right.get()}) {
          if (child == nullptr) continue;
          nodes.push_back(child);
          depths.push_back(sample_depth);
        }
      }
      level_begin = level_end;
    }
    sample.nodes.assign(nodes.begin(), nodes.end());
    const size_t count = nodes.size();

    if (sample.complete) {
      // Every node saw its full subtree: all votes are 1.
      sample.votes.assign(count, 1.0f);
    } else {
      // The sample holds levels [0, sample_depth]; the next level would
      // have exceeded N. Nodes at levels <= sample_depth - C have C
      // complete levels below them inside the sample and may vote.
      sample.votes.assign(count, 0.0f);
      const size_t vote_cutoff = sample_depth >= c ? sample_depth - c : 0;
      for (size_t i = 0; i < count; ++i) {
        if (depths[i] + c <= sample_depth && depths[i] <= vote_cutoff) {
          sample.votes[i] = 1.0f;
        }
      }
      // Re-seed the frontier with the nodes at relative depth D - C so the
      // next samples re-cover the voteless fringe with full context.
      size_t reseed_depth = sample_depth >= c ? sample_depth - c : 1;
      if (reseed_depth == 0) reseed_depth = 1;  // guarantee progress
      for (size_t i = 0; i < count; ++i) {
        if (depths[i] == reseed_depth) {
          const OtpNode* node = nodes[i];
          // Leaves need no re-processing: their subtree is just themselves
          // and is already fully covered by this sample.
          if (node->left != nullptr || node->right != nullptr) {
            frontier.push_back(node);
          }
        }
      }
    }

    // Local child indices. Every node above the deepest level has all its
    // children in the sample, placed in BFS order, so they are numbered by
    // one running counter; the deepest level's children are outside it.
    sample.left.assign(count, -1);
    sample.right.assign(count, -1);
    int child = 1;
    for (size_t i = 0; i < count && depths[i] < sample_depth; ++i) {
      if (nodes[i]->left != nullptr) sample.left[i] = child++;
      if (nodes[i]->right != nullptr) sample.right[i] = child++;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace prestroid::subtree
