#include "workloads/autoencoder.hpp"

#include <algorithm>

#include "common/check.hpp"

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

std::vector<AeGemm> training_step_gemms(const std::vector<uint32_t>& dims,
                                        uint32_t batch) {
  REDMULE_REQUIRE(dims.size() >= 2, "a network needs at least one layer");
  const auto entry = [batch](size_t l, AeGemm::Phase phase, const char* suffix,
                             uint32_t m, uint32_t n, uint32_t k) {
    std::string name = "L";
    name += std::to_string(l);
    name += suffix;
    return AeGemm{{std::move(name), m, n, k}, static_cast<unsigned>(l), phase};
  };
  const size_t n_layers = dims.size() - 1;
  std::vector<AeGemm> out;
  out.reserve(3 * n_layers - 1);
  for (size_t l = 0; l < n_layers; ++l)
    out.push_back(entry(l, AeGemm::Phase::kForward, ".fw", dims[l + 1], dims[l],
                        batch));
  for (size_t l = n_layers; l-- > 0;) {
    out.push_back(entry(l, AeGemm::Phase::kGradWeight, ".dW", dims[l + 1], batch,
                        dims[l]));
    if (l > 0)
      out.push_back(entry(l, AeGemm::Phase::kGradInput, ".dX", dims[l],
                          dims[l + 1], batch));
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
