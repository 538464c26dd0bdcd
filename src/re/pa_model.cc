#include "re/pa_model.h"

#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/simd/dispatch.h"
#include "util/logging.h"

namespace imr::re {

using tensor::Tensor;
using tensor::internal::PooledFloats;

namespace {

// block[r, :] += row for each of the `cols` rows of a [cols x cols] block
// (tensor::Add's kernel, so each row matches a rank-1 Add exactly).
void AddToEveryRow(const tensor::simd::Kernels& kernels, const float* row,
                   int cols, float* block) {
  const size_t n = static_cast<size_t>(cols);
  for (size_t r = 0; r < n; ++r) {
    kernels.add(block + r * n, row, block + r * n, n);
  }
}

}  // namespace

PaModel::PaModel(const PaModelConfig& config, util::Rng* rng)
    : config_(config) {
  IMR_CHECK_GT(config.num_relations, 1);
  encoder_ = nn::MakeEncoder(config.encoder, config.encoder_config, rng);
  IMR_CHECK(encoder_ != nullptr);
  RegisterChild("encoder", encoder_.get());

  const int repr_dim = encoder_->output_dim();
  if (config.aggregation == Aggregation::kAttention) {
    attention_ = std::make_unique<nn::SelectiveAttention>(
        repr_dim, config.num_relations, rng);
    RegisterChild("attention", attention_.get());
  }
  re_head_ =
      std::make_unique<nn::Linear>(repr_dim, config.num_relations, rng);
  RegisterChild("re_head", re_head_.get());

  if (config.use_mutual_relation) {
    mr_head_ = std::make_unique<nn::Linear>(config.mutual_relation_dim,
                                            config.num_relations, rng);
    RegisterChild("mr_head", mr_head_.get());
  }
  if (config.use_entity_type) {
    type_embedding_ = std::make_unique<TypeEmbedding>(config.type_dim, rng);
    RegisterChild("type_embedding", type_embedding_.get());
    type_head_ = std::make_unique<nn::Linear>(2 * config.type_dim,
                                              config.num_relations, rng);
    RegisterChild("type_head", type_head_.get());
  }
  if (config.use_mutual_relation || config.use_entity_type) {
    // The side components start down-weighted relative to the base RE
    // model: with few training bags the type head otherwise wins the early
    // optimisation race and the fused model collapses onto it.
    alpha_ = RegisterParameter("alpha", Tensor::Scalar(0.5f));
    beta_ = RegisterParameter("beta", Tensor::Scalar(0.5f));
    gamma_ = RegisterParameter("gamma", Tensor::Scalar(1.5f));
    // w and the bias of the final linear fusion; w starts at a value that
    // keeps initial logits in a useful softmax range.
    fuse_scale_ = RegisterParameter("fuse_scale", Tensor::Scalar(4.0f));
    fuse_bias_ = RegisterParameter(
        "fuse_bias", Tensor::Zeros({config.num_relations}));
  }
}

void PaModel::EnableQuantizedInference() {
  quantized_re_head_ = std::make_unique<nn::QuantizedLinear>(*re_head_);
  if (mr_head_ != nullptr) {
    quantized_mr_head_ = std::make_unique<nn::QuantizedLinear>(*mr_head_);
  }
  if (type_head_ != nullptr) {
    quantized_type_head_ = std::make_unique<nn::QuantizedLinear>(*type_head_);
  }
}

Tensor PaModel::HeadForward(const nn::Linear& head,
                            const nn::QuantizedLinear* quantized,
                            const Tensor& x) const {
  if (quantized != nullptr && !tensor::GradModeEnabled()) {
    return quantized->Forward(x);
  }
  return head.Forward(x);
}

float PaModel::alpha() const { return alpha_.defined() ? alpha_.item() : 0; }
float PaModel::beta() const { return beta_.defined() ? beta_.item() : 0; }
float PaModel::gamma() const { return gamma_.defined() ? gamma_.item() : 0; }

Tensor PaModel::EncodeBag(const Bag& bag, util::Rng* rng) const {
  IMR_CHECK(!bag.sentences.empty());
  std::vector<Tensor> rows;
  rows.reserve(bag.sentences.size());
  for (const nn::EncoderInput& sentence : bag.sentences) {
    rows.push_back(encoder_->Encode(sentence, rng));
  }
  return tensor::ConcatRows(rows);
}

Tensor PaModel::Aggregate(const Tensor& encodings, int query_relation) const {
  switch (config_.aggregation) {
    case Aggregation::kAttention:
      return attention_->BagRepresentation(encodings, query_relation);
    case Aggregation::kAverage:
      return tensor::MeanRows(encodings);
    case Aggregation::kMax:
      return tensor::MaxOverRows(encodings);
  }
  IMR_CHECK(false);
  return Tensor();
}

Tensor PaModel::MrConfidence(const Bag& bag) const {
  IMR_CHECK_EQ(static_cast<int>(bag.mutual_relation.size()),
               config_.mutual_relation_dim);
  Tensor mr_input = Tensor::FromData({config_.mutual_relation_dim},
                                     bag.mutual_relation);
  return tensor::Softmax(
      HeadForward(*mr_head_, quantized_mr_head_.get(), mr_input));
}

Tensor PaModel::TypeConfidence(const Bag& bag) const {
  Tensor t_input = type_embedding_->PairVector(bag.head_types, bag.tail_types);
  return tensor::Softmax(
      HeadForward(*type_head_, quantized_type_head_.get(), t_input));
}

Tensor PaModel::FuseLogits(const Bag& bag, const Tensor& re_logits) const {
  if (!config_.use_mutual_relation && !config_.use_entity_type) {
    return re_logits;
  }
  // gamma * RE with RE = softmax(re_logits).
  Tensor mixture =
      tensor::ScaleByScalarTensor(tensor::Softmax(re_logits), gamma_);
  if (config_.use_mutual_relation) {
    mixture = tensor::Add(
        mixture, tensor::ScaleByScalarTensor(MrConfidence(bag), alpha_));
  }
  if (config_.use_entity_type) {
    mixture = tensor::Add(
        mixture, tensor::ScaleByScalarTensor(TypeConfidence(bag), beta_));
  }
  return tensor::Add(tensor::ScaleByScalarTensor(mixture, fuse_scale_),
                     fuse_bias_);
}

Tensor PaModel::BagLogits(const Bag& bag, int query_relation,
                          util::Rng* rng) const {
  Tensor encodings = EncodeBag(bag, rng);
  Tensor bag_repr = Aggregate(encodings, query_relation);
  Tensor re_logits = re_head_->Forward(bag_repr);
  return FuseLogits(bag, re_logits);
}

Tensor PaModel::BatchLoss(const std::vector<const Bag*>& batch,
                          util::Rng* rng) const {
  IMR_CHECK(!batch.empty());
  const bool fused =
      config_.use_mutual_relation || config_.use_entity_type;
  const bool auxiliary = fused && config_.auxiliary_re_loss > 0.0f;
  std::vector<Tensor> logit_rows;
  std::vector<Tensor> re_rows;
  std::vector<int> labels;
  logit_rows.reserve(batch.size());
  labels.reserve(batch.size());
  for (const Bag* bag : batch) {
    Tensor encodings = EncodeBag(*bag, rng);
    Tensor bag_repr = Aggregate(encodings, bag->relation);
    Tensor re_logits = re_head_->Forward(bag_repr);
    logit_rows.push_back(FuseLogits(*bag, re_logits));
    if (auxiliary) re_rows.push_back(re_logits);
    labels.push_back(bag->relation);
  }
  Tensor loss =
      tensor::CrossEntropyLoss(tensor::ConcatRows(logit_rows), labels);
  if (auxiliary) {
    // Keep the text path trained even when the fused loss leans on the
    // faster-converging MR/type heads (see PaModelConfig).
    Tensor re_loss =
        tensor::CrossEntropyLoss(tensor::ConcatRows(re_rows), labels);
    loss = tensor::Add(
        loss, tensor::Scale(re_loss, config_.auxiliary_re_loss));
  }
  return loss;
}

std::vector<float> PaModel::Predict(const Bag& bag, util::Rng* rng) const {
  return PredictImpl(bag, rng);
}

std::vector<float> PaModel::Predict(const Bag& bag) const {
  // Without an rng there is nothing to drive dropout, so a training-mode
  // forward pass would be silently wrong — refuse it.
  IMR_CHECK(!training());
  return PredictImpl(bag, /*rng=*/nullptr);
}

std::vector<float> PaModel::PredictImpl(const Bag& bag,
                                        util::Rng* rng) const {
  tensor::NoGradGuard no_grad;
  Tensor encodings = EncodeBag(bag, rng);
  const int relations = config_.num_relations;
  std::vector<float> probabilities(static_cast<size_t>(relations), 0.0f);
  if (config_.aggregation != Aggregation::kAttention) {
    Tensor bag_repr = Aggregate(encodings, /*query_relation=*/0);
    Tensor probs = tensor::Softmax(FuseLogits(
        bag, HeadForward(*re_head_, quantized_re_head_.get(), bag_repr)));
    for (int r = 0; r < relations; ++r)
      probabilities[static_cast<size_t>(r)] = probs.at(r);
    return probabilities;
  }

  // Diagonal evaluation: relation r is scored under its own attention
  // query. All R queries run as one pass over R rows: row r of every block
  // below holds the values the rank-1 BagLogits(bag, r) pipeline computes,
  // with the same kernels in the same per-element order, so each
  // probability is bit-identical to Softmax(BagLogits(bag, r))[r].
  const tensor::simd::Kernels& kernels = tensor::simd::Active();
  const size_t row_size = static_cast<size_t>(relations);
  const size_t block_size = row_size * row_size;
  const Tensor bag_reprs = attention_->AllBagRepresentations(encodings);
  // The int8 head quantizes each row on its own; the fp32 head keeps the
  // rank-1 matmul_ikj order (tensor::MatMul would pack 8+ rows).
  const Tensor re_logits = quantized_re_head_ != nullptr
                               ? quantized_re_head_->Forward(bag_reprs)
                               : re_head_->ForwardRowwise(bag_reprs);
  PooledFloats first(tensor::internal::AcquireBuffer(block_size));
  PooledFloats second(tensor::internal::AcquireBuffer(block_size));
  const float* logits = re_logits.data().data();
  if (config_.use_mutual_relation || config_.use_entity_type) {
    // FuseLogits row by row: gamma * softmax(re) + alpha * C_MR +
    // beta * C_T, then * fuse_scale + fuse_bias. The side confidences do
    // not depend on r, so they are computed once per bag.
    kernels.softmax_rows(logits, first.data(), relations, relations);
    kernels.scale(first.data(), gamma_.item(), first.data(), block_size);
    if (config_.use_mutual_relation) {
      const Tensor mr = tensor::ScaleByScalarTensor(MrConfidence(bag), alpha_);
      AddToEveryRow(kernels, mr.data().data(), relations, first.data());
    }
    if (config_.use_entity_type) {
      const Tensor type =
          tensor::ScaleByScalarTensor(TypeConfidence(bag), beta_);
      AddToEveryRow(kernels, type.data().data(), relations, first.data());
    }
    kernels.scale(first.data(), fuse_scale_.item(), first.data(), block_size);
    AddToEveryRow(kernels, fuse_bias_.data().data(), relations, first.data());
    logits = first.data();
  }
  kernels.softmax_rows(logits, second.data(), relations, relations);
  for (size_t r = 0; r < row_size; ++r) {
    probabilities[r] = second[r * row_size + r];
  }
  return probabilities;
}

}  // namespace imr::re
