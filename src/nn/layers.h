// Basic neural layers: Linear and Embedding.
#ifndef IMR_NN_LAYERS_H_
#define IMR_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace imr::nn {

/// y = x W + b, with W: [in x out], b: [out].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, util::Rng* rng);

  /// x: [N x in] or rank-1 [in]; returns [N x out] or rank-1 [out].
  tensor::Tensor Forward(const tensor::Tensor& x) const;

  /// Eval-only (gradients off) forward of a matrix x [N x in], row by row:
  /// row i of the result is bit-identical to Forward() of row i as a rank-1
  /// input, for any N. Forward() on a matrix goes through tensor::MatMul,
  /// whose packed panel path (8+ rows) reassociates the dot products.
  tensor::Tensor ForwardRowwise(const tensor::Tensor& x) const;

  /// Tanh(Forward(x)) through the fused tensor::AffineTanh kernel:
  /// bit-identical to the composition, one node instead of three.
  tensor::Tensor ForwardTanh(const tensor::Tensor& x) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const tensor::Tensor& weight() const { return weight_; }
  const tensor::Tensor& bias() const { return bias_; }

 private:
  int in_features_;
  int out_features_;
  tensor::Tensor weight_;
  tensor::Tensor bias_;
};

/// Serving-only int8 shadow of a Linear: weights are quantized once per
/// OUTPUT channel (symmetric scale maxabs/127 over W[:, out]) and packed
/// transposed ([out x in]) for the dispatch table's gemm_s8s32 kernel.
/// Forward quantizes each activation row with its own symmetric scale,
/// runs the int8 GEMM accumulating in int32 (bit-identical across SIMD
/// backends — pure integer arithmetic), and dequantizes with
/// acc * s_x * s_w + bias at the output. No autograd node is created;
/// construction from a Linear under training is the caller's bug.
class QuantizedLinear {
 public:
  explicit QuantizedLinear(const Linear& source);

  /// x: [N x in] or rank-1 [in]; returns [N x out] or rank-1 [out].
  tensor::Tensor Forward(const tensor::Tensor& x) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  std::vector<int8_t> weight_t_;    // [out x in], W^T packed row-major
  std::vector<float> weight_scales_;  // per output channel
  std::vector<float> bias_;
};

/// Trainable lookup table [vocab x dim].
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, util::Rng* rng, float init_bound = 0.0f);

  /// Returns [indices.size() x dim].
  tensor::Tensor Forward(const std::vector<int>& indices) const;

  /// Overwrites the table rows with pre-trained values [vocab x dim];
  /// used to load LINE entity embeddings. Copies element-wise into the
  /// existing storage so the pooled buffer and its data pointer survive.
  [[nodiscard]] util::Status SetWeights(const std::vector<float>& values);

  int vocab_size() const { return vocab_size_; }
  int dim() const { return dim_; }
  const tensor::Tensor& table() const { return table_; }

 private:
  int vocab_size_;
  int dim_;
  tensor::Tensor table_;
};

}  // namespace imr::nn

#endif  // IMR_NN_LAYERS_H_
