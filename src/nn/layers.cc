#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "nn/init.h"
#include "tensor/buffer_pool.h"
#include "tensor/simd/dispatch.h"
#include "util/logging.h"

namespace imr::nn {

Linear::Linear(int in_features, int out_features, util::Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  IMR_CHECK_GT(in_features, 0);
  IMR_CHECK_GT(out_features, 0);
  weight_ = RegisterParameter(
      "weight", XavierInit({in_features, out_features}, rng));
  bias_ = RegisterParameter("bias", tensor::Tensor::Zeros({out_features}));
}

tensor::Tensor Linear::Forward(const tensor::Tensor& x) const {
  tensor::Tensor y = tensor::MatMul(x, weight_);
  if (y.rank() == 1) return tensor::Add(y, bias_);
  return tensor::AddRowVector(y, bias_);
}

tensor::Tensor Linear::ForwardRowwise(const tensor::Tensor& x) const {
  IMR_CHECK(!tensor::GradModeEnabled());
  IMR_CHECK_EQ(x.rank(), 2);
  IMR_CHECK_EQ(x.shape()[1], in_features_);
  const int rows = x.shape()[0];
  const size_t cols = static_cast<size_t>(out_features_);
  // The kernel and per-row order MatMul + Add use for a rank-1 input.
  const tensor::simd::Kernels& kernels = tensor::simd::Active();
  std::vector<float> out =
      tensor::internal::AcquireBufferFill(rows * cols, 0.0f);
  kernels.matmul_ikj(x.data().data(), weight_.data().data(), out.data(),
                     rows, in_features_, out_features_);
  const float* bias = bias_.data().data();
  for (int r = 0; r < rows; ++r) {
    float* orow = out.data() + r * cols;
    kernels.add(orow, bias, orow, cols);
  }
  return tensor::Tensor::FromData({rows, out_features_}, std::move(out));
}

tensor::Tensor Linear::ForwardTanh(const tensor::Tensor& x) const {
  return tensor::AffineTanh(x, weight_, bias_);
}

Embedding::Embedding(int vocab_size, int dim, util::Rng* rng,
                     float init_bound)
    : vocab_size_(vocab_size), dim_(dim) {
  IMR_CHECK_GT(vocab_size, 0);
  IMR_CHECK_GT(dim, 0);
  const float bound =
      init_bound > 0.0f ? init_bound
                        : std::sqrt(6.0f / static_cast<float>(dim));
  table_ =
      RegisterParameter("table", UniformInit({vocab_size, dim}, bound, rng));
  // Gradients only ever arrive through GatherRows' backward, so the table
  // qualifies for row-sparse gradient handling (optimizers and ZeroGrad
  // walk touched rows only; see tensor.h).
  table_.set_row_sparse_grad(true);
}

tensor::Tensor Embedding::Forward(const std::vector<int>& indices) const {
  return tensor::GatherRows(table_, indices);
}

util::Status Embedding::SetWeights(const std::vector<float>& values) {
  if (values.size() != table_.size()) {
    return util::InvalidArgument(
        "embedding weight size mismatch: expected " +
        std::to_string(table_.size()) + ", got " +
        std::to_string(values.size()));
  }
  // Copy element-wise into the existing storage: vector assignment would
  // reallocate, dropping the pooled buffer's capacity and invalidating the
  // data-pointer stability a warmed-up training step relies on.
  auto& data = table_.mutable_data();
  std::copy(values.begin(), values.end(), data.begin());
  return util::OkStatus();
}

namespace {

// Round-to-nearest saturating int8 quantization of n floats with a shared
// symmetric scale. Returns the scale (maxabs / 127, 0 for all-zero input).
float QuantizeRow(const float* values, int n, int8_t* out) {
  float maxabs = 0.0f;
  for (int i = 0; i < n; ++i) maxabs = std::max(maxabs, std::fabs(values[i]));
  const float scale = maxabs / 127.0f;
  if (scale <= 0.0f) {
    std::fill(out, out + n, static_cast<int8_t>(0));
    return 0.0f;
  }
  const float inv = 1.0f / scale;
  for (int i = 0; i < n; ++i) {
    const long q = std::lrintf(values[i] * inv);
    out[i] = static_cast<int8_t>(std::clamp(q, -127L, 127L));
  }
  return scale;
}

}  // namespace

QuantizedLinear::QuantizedLinear(const Linear& source)
    : in_features_(source.in_features()),
      out_features_(source.out_features()) {
  // W is stored [in x out]; quantize per OUTPUT channel (a column of W)
  // and pack transposed so the GEMM kernel streams contiguous rows.
  const std::vector<float>& w = source.weight().data();
  weight_t_.resize(static_cast<size_t>(out_features_) * in_features_);
  weight_scales_.resize(static_cast<size_t>(out_features_));
  std::vector<float> column(static_cast<size_t>(in_features_));
  for (int o = 0; o < out_features_; ++o) {
    for (int i = 0; i < in_features_; ++i) {
      column[static_cast<size_t>(i)] =
          w[static_cast<size_t>(i) * out_features_ + o];
    }
    weight_scales_[static_cast<size_t>(o)] = QuantizeRow(
        column.data(), in_features_,
        weight_t_.data() + static_cast<size_t>(o) * in_features_);
  }
  const std::vector<float>& b = source.bias().data();
  bias_.assign(b.begin(), b.end());
}

tensor::Tensor QuantizedLinear::Forward(const tensor::Tensor& x) const {
  IMR_CHECK(x.rank() == 1 || x.rank() == 2);
  const int rows = x.rank() == 1 ? 1 : x.shape()[0];
  const int cols = x.rank() == 1 ? x.shape()[0] : x.shape()[1];
  IMR_CHECK_EQ(cols, in_features_);

  const float* xv = x.data().data();
  std::vector<int8_t> qx(static_cast<size_t>(rows) * in_features_);
  std::vector<float> x_scales(static_cast<size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    x_scales[static_cast<size_t>(r)] = QuantizeRow(
        xv + static_cast<size_t>(r) * in_features_, in_features_,
        qx.data() + static_cast<size_t>(r) * in_features_);
  }

  std::vector<int32_t> acc(static_cast<size_t>(rows) * out_features_);
  tensor::simd::Active().gemm_s8s32(qx.data(), weight_t_.data(), acc.data(),
                                    rows, in_features_, out_features_);

  std::vector<float> out(static_cast<size_t>(rows) * out_features_);
  for (int r = 0; r < rows; ++r) {
    const float sx = x_scales[static_cast<size_t>(r)];
    const int32_t* arow = acc.data() + static_cast<size_t>(r) * out_features_;
    float* orow = out.data() + static_cast<size_t>(r) * out_features_;
    for (int o = 0; o < out_features_; ++o) {
      orow[o] = static_cast<float>(arow[o]) * sx *
                    weight_scales_[static_cast<size_t>(o)] +
                bias_[static_cast<size_t>(o)];
    }
  }
  if (x.rank() == 1) {
    return tensor::Tensor::FromData({out_features_}, std::move(out));
  }
  return tensor::Tensor::FromData({rows, out_features_}, std::move(out));
}

}  // namespace imr::nn
