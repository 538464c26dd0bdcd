#include "nn/attention.h"

#include <numeric>

#include "nn/init.h"
#include "tensor/buffer_pool.h"
#include "tensor/simd/dispatch.h"
#include "util/logging.h"

namespace imr::nn {

using tensor::Tensor;
using tensor::internal::AcquireBuffer;
using tensor::internal::AcquireBufferFill;
using tensor::internal::PooledFloats;

SelectiveAttention::SelectiveAttention(int dim, int num_relations,
                                       util::Rng* rng)
    : dim_(dim), num_relations_(num_relations) {
  IMR_CHECK_GT(dim, 0);
  IMR_CHECK_GT(num_relations, 0);
  // A initialised to identity so attention starts as plain dot-product
  // similarity with the query.
  diag_ = RegisterParameter("diag", tensor::Tensor::Full({dim}, 1.0f));
  queries_ = std::make_unique<Embedding>(num_relations, dim, rng);
  RegisterChild("queries", queries_.get());
  relation_ids_.resize(static_cast<size_t>(num_relations));
  std::iota(relation_ids_.begin(), relation_ids_.end(), 0);
}

Tensor SelectiveAttention::Weights(const Tensor& x, int relation) const {
  IMR_CHECK_GE(relation, 0);
  IMR_CHECK_LT(relation, num_relations_);
  Tensor query = tensor::Reshape(queries_->Forward({relation}), {dim_});
  // q_j = x_j A r with diagonal A == x_j . (diag * r).
  Tensor scores = tensor::RowwiseDot(x, tensor::Mul(diag_, query));
  return tensor::Softmax(scores);
}

Tensor SelectiveAttention::BagRepresentation(const Tensor& x,
                                             int relation) const {
  Tensor alpha = Weights(x, relation);
  return tensor::WeightedSumRows(x, alpha);
}

Tensor SelectiveAttention::AllBagRepresentations(const Tensor& x) const {
  IMR_CHECK(!tensor::GradModeEnabled());
  IMR_CHECK_EQ(x.rank(), 2);
  IMR_CHECK_EQ(x.shape()[1], dim_);
  const int n = x.shape()[0];
  const int r_count = num_relations_;
  const size_t c_count = static_cast<size_t>(dim_);
  const tensor::simd::Kernels& kernels = tensor::simd::Active();
  const float* xv = x.data().data();

  // One gather of every query row (it also lets a lazily-updating
  // optimizer materialize them, as Weights' single-row gather does).
  const Tensor queries = queries_->Forward(relation_ids_);
  const float* qv = queries.data().data();
  const float* diag = diag_.data().data();

  // M = diag ⊙ Q, stored transposed [dim x R] so the score loop below runs
  // R independent accumulators side by side.
  PooledFloats m_t(AcquireBuffer(c_count * r_count));
  for (int r = 0; r < r_count; ++r) {
    const float* qrow = qv + r * c_count;
    for (size_t c = 0; c < c_count; ++c) {
      m_t[c * r_count + r] = diag[c] * qrow[c];
    }
  }

  // scores[r, j] = x_j . M_r, each summed c-ascending from 0 exactly as
  // RowwiseDot does (no zero skip, no reassociation).
  PooledFloats scores(AcquireBufferFill(static_cast<size_t>(r_count) * n,
                                        0.0f));
  for (int j = 0; j < n; ++j) {
    const float* xrow = xv + j * c_count;
    float* scol = scores.data() + j;
    for (size_t c = 0; c < c_count; ++c) {
      const float xc = xrow[c];
      const float* mrow = m_t.data() + c * r_count;
      for (int r = 0; r < r_count; ++r) scol[r * n] += xc * mrow[r];
    }
  }
  PooledFloats weights(AcquireBuffer(static_cast<size_t>(r_count) * n));
  kernels.softmax_rows(scores.data(), weights.data(), r_count, n);

  // bag_r = sum_j w[r, j] x_j, accumulated j-ascending per element as in
  // WeightedSumRows.
  std::vector<float> out = AcquireBufferFill(c_count * r_count, 0.0f);
  for (int r = 0; r < r_count; ++r) {
    float* __restrict orow = out.data() + r * c_count;
    const float* wrow = weights.data() + static_cast<size_t>(r) * n;
    for (int j = 0; j < n; ++j) {
      const float w = wrow[j];
      const float* __restrict xrow = xv + j * c_count;
      for (size_t c = 0; c < c_count; ++c) orow[c] += w * xrow[c];
    }
  }
  return Tensor::FromData({r_count, dim_}, std::move(out));
}

}  // namespace imr::nn
