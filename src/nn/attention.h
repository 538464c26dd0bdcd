// Sentence-level selective attention over a bag of sentence encodings
// (Lin et al. 2016): alpha_j = softmax_j(x_j A r), bag = sum_j alpha_j x_j,
// where A is a learned diagonal matrix and r a per-relation query vector.
#ifndef IMR_NN_ATTENTION_H_
#define IMR_NN_ATTENTION_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"

namespace imr::nn {

class SelectiveAttention : public Module {
 public:
  /// `dim` is the sentence-encoding width, `num_relations` the number of
  /// query vectors.
  SelectiveAttention(int dim, int num_relations, util::Rng* rng);

  /// Attention-weighted bag representation for a query relation.
  /// x: [N x dim] sentence encodings; returns [dim].
  tensor::Tensor BagRepresentation(const tensor::Tensor& x,
                                   int relation) const;

  /// Eval-only (gradients off): the bag representation under every query
  /// relation at once, [num_relations x dim]. Row r is bit-identical to
  /// BagRepresentation(x, r) on every kernel backend: scores keep
  /// RowwiseDot's c-ascending scalar dot, the weights go through the same
  /// softmax_rows kernel, and the weighted sums keep WeightedSumRows'
  /// n-ascending order. Scratch space comes from the tensor buffer pool.
  tensor::Tensor AllBagRepresentations(const tensor::Tensor& x) const;

  /// The attention weights themselves (softmax over sentences), useful for
  /// inspection and tests. Returns [N].
  tensor::Tensor Weights(const tensor::Tensor& x, int relation) const;

  int dim() const { return dim_; }
  int num_relations() const { return num_relations_; }

 private:
  int dim_;
  int num_relations_;
  tensor::Tensor diag_;  // A, stored as its diagonal [dim]
  std::unique_ptr<Embedding> queries_;
  std::vector<int> relation_ids_;  // 0..num_relations-1, for one gather
};

}  // namespace imr::nn

#endif  // IMR_NN_ATTENTION_H_
