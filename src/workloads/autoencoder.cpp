#include "workloads/autoencoder.hpp"

#include <algorithm>

namespace redmule::workloads {

std::vector<uint32_t> AutoencoderConfig::dims() const {
  std::vector<uint32_t> d;
  d.push_back(input_dim);
  d.insert(d.end(), hidden.begin(), hidden.end());
  d.push_back(input_dim);
  return d;
}

const char* AeGemm::phase_name(Phase p) {
  switch (p) {
    case Phase::kForward: return "FW";
    case Phase::kGradInput: return "BW-dX";
    case Phase::kGradWeight: return "BW-dW";
  }
  return "?";
}

std::vector<AeGemm> autoencoder_forward_gemms(const AutoencoderConfig& cfg) {
  std::vector<AeGemm> out;
  const auto d = cfg.dims();
  for (size_t l = 0; l + 1 < d.size(); ++l) {
    AeGemm g;
    g.layer = static_cast<unsigned>(l);
    g.phase = AeGemm::Phase::kForward;
    g.shape = {"L" + std::to_string(l) + ".fw", d[l + 1], d[l], cfg.batch};
    out.push_back(g);
  }
  return out;
}

std::vector<AeGemm> autoencoder_training_gemms(const AutoencoderConfig& cfg) {
  std::vector<AeGemm> out = autoencoder_forward_gemms(cfg);
  const auto d = cfg.dims();
  // Backward pass, last layer first.
  for (size_t li = d.size() - 1; li-- > 0;) {
    const uint32_t in = d[li];
    const uint32_t outd = d[li + 1];
    AeGemm gw;
    gw.layer = static_cast<unsigned>(li);
    gw.phase = AeGemm::Phase::kGradWeight;
    gw.shape = {"L" + std::to_string(li) + ".dW", outd, cfg.batch, in};
    out.push_back(gw);
    if (li > 0) {  // no input gradient needed for layer 0
      AeGemm gx;
      gx.layer = static_cast<unsigned>(li);
      gx.phase = AeGemm::Phase::kGradInput;
      gx.shape = {"L" + std::to_string(li) + ".dX", in, outd, cfg.batch};
      out.push_back(gx);
    }
  }
  return out;
}

size_t autoencoder_weight_bytes(const AutoencoderConfig& cfg) {
  const auto d = cfg.dims();
  size_t params = 0;
  for (size_t l = 0; l + 1 < d.size(); ++l)
    params += static_cast<size_t>(d[l]) * d[l + 1];
  return params * sizeof(uint16_t);
}

size_t autoencoder_activation_bytes(const AutoencoderConfig& cfg) {
  // Forward activations must be kept for the backward pass, plus one
  // gradient buffer of the widest layer (double-buffered).
  const auto d = cfg.dims();
  size_t acts = 0;
  uint32_t widest = 0;
  for (uint32_t dim : d) {
    acts += static_cast<size_t>(dim) * cfg.batch;
    widest = std::max(widest, dim);
  }
  return (acts + 2ull * widest * cfg.batch) * sizeof(uint16_t);
}

}  // namespace redmule::workloads
