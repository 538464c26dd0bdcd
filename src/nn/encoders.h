// Sentence encoders used by the RE models: PCNN (Zeng et al. 2015), plain
// CNN (Zeng et al. 2014), and a bidirectional GRU with optional word-level
// attention (BGWA-style, Jat et al. 2018). All encoders share the same
// input features and expose one virtual Encode() so the implicit-mutual-
// relation fusion can wrap any of them (the paper's "flexibility" claim).
#ifndef IMR_NN_ENCODERS_H_
#define IMR_NN_ENCODERS_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace imr::nn {

/// Features of one sentence, produced by the text pipeline.
struct EncoderInput {
  std::vector<int> word_ids;       // token ids, length T >= 1
  std::vector<int> head_offsets;   // relative-position ids w.r.t. head
  std::vector<int> tail_offsets;   // relative-position ids w.r.t. tail
  int head_index = 0;              // token index of the head mention
  int tail_index = 0;              // token index of the tail mention
};

/// Hyper-parameters shared by the encoders (paper Table III defaults).
struct EncoderConfig {
  int vocab_size = 0;       // required
  int word_dim = 50;        // kw
  int position_dim = 5;     // kp
  int max_position = 60;    // offsets clipped to [-max, max]
  int window = 3;           // l
  int filters = 230;        // k (CNN/PCNN); GRU hidden = filters / 2
  float dropout = 0.5f;     // p
  // Word-level dropout: during training each token id is replaced by <unk>
  // with this probability. Discourages memorising bag-specific word
  // combinations, which dominates small distant-supervision corpora.
  float word_dropout = 0.0f;
};

class SentenceEncoder : public Module {
 public:
  ~SentenceEncoder() override = default;

  /// Encodes one sentence into a fixed-size vector. `rng` drives dropout
  /// and is only touched when training() is true.
  virtual tensor::Tensor Encode(const EncoderInput& input,
                                util::Rng* rng) const = 0;

  /// Dimension of the encoded vector.
  virtual int output_dim() const = 0;
};

/// Shared word + position embedding front-end: [T x (kw + 2*kp)].
class FeatureEmbedder : public Module {
 public:
  FeatureEmbedder(const EncoderConfig& config, util::Rng* rng);

  /// `rng` is only used for word dropout while training() is true (pass
  /// nullptr to disable).
  tensor::Tensor Embed(const EncoderInput& input, util::Rng* rng) const;
  int feature_dim() const;
  Embedding* word_embedding() { return word_.get(); }

 private:
  float word_dropout_;
  int position_vocab_;
  std::unique_ptr<Embedding> word_;
  std::unique_ptr<Embedding> pos_head_;
  std::unique_ptr<Embedding> pos_tail_;
};

/// Piecewise CNN: conv over windows, 3-segment max pooling split at the
/// entity positions, tanh, dropout. Output dim = 3 * filters.
class PcnnEncoder : public SentenceEncoder {
 public:
  PcnnEncoder(const EncoderConfig& config, util::Rng* rng);

  tensor::Tensor Encode(const EncoderInput& input,
                        util::Rng* rng) const override;
  int output_dim() const override { return 3 * config_.filters; }

 private:
  EncoderConfig config_;
  std::unique_ptr<FeatureEmbedder> embedder_;
  tensor::Tensor conv_weight_;
  tensor::Tensor conv_bias_;
};

/// Plain CNN: conv + single max pooling. Output dim = filters.
class CnnEncoder : public SentenceEncoder {
 public:
  CnnEncoder(const EncoderConfig& config, util::Rng* rng);

  tensor::Tensor Encode(const EncoderInput& input,
                        util::Rng* rng) const override;
  int output_dim() const override { return config_.filters; }

 private:
  EncoderConfig config_;
  std::unique_ptr<FeatureEmbedder> embedder_;
  tensor::Tensor conv_weight_;
  tensor::Tensor conv_bias_;
};

/// Bidirectional GRU; the sentence vector is a max over time of the
/// concatenated directions, or a word-attention weighted sum when
/// `word_attention` is set (BGWA). Output dim = 2 * hidden.
class GruEncoder : public SentenceEncoder {
 public:
  GruEncoder(const EncoderConfig& config, bool word_attention,
             util::Rng* rng);

  tensor::Tensor Encode(const EncoderInput& input,
                        util::Rng* rng) const override;
  int output_dim() const override { return 2 * hidden_; }

 private:
  // Runs one direction; returns per-step hidden states [T x H].
  tensor::Tensor RunDirection(const tensor::Tensor& features, bool reverse,
                              const tensor::Tensor& wx,
                              const tensor::Tensor& bx,
                              const tensor::Tensor& u_zr,
                              const tensor::Tensor& u_n) const;

  EncoderConfig config_;
  int hidden_;
  bool word_attention_;
  std::unique_ptr<FeatureEmbedder> embedder_;
  // Per direction: input projection [D x 3H], bias [3H], recurrent
  // [H x 2H] (update/reset) and [H x H] (candidate).
  tensor::Tensor fwd_wx_, fwd_bx_, fwd_u_zr_, fwd_u_n_;
  tensor::Tensor bwd_wx_, bwd_bx_, bwd_u_zr_, bwd_u_n_;
  // Word attention: projection + query vector.
  std::unique_ptr<Linear> attn_proj_;
  tensor::Tensor attn_query_;
};

/// Every kind MakeEncoder builds ("bgwa" is gru + word attention). The
/// one list of encoder names: snapshot validation reads it too.
inline constexpr std::array<std::string_view, 4> kEncoderKinds = {
    "pcnn", "cnn", "gru", "bgwa"};

/// True when `kind` is one of kEncoderKinds.
bool IsEncoderKind(std::string_view kind);

/// Factory by name over kEncoderKinds; null (and an error log) for any
/// other kind.
std::unique_ptr<SentenceEncoder> MakeEncoder(const std::string& kind,
                                             const EncoderConfig& config,
                                             util::Rng* rng);

}  // namespace imr::nn

#endif  // IMR_NN_ENCODERS_H_
