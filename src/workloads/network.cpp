#include "workloads/network.hpp"

#include <cmath>

#include "core/golden.hpp"

namespace redmule::workloads {

using fp16::Float16;

namespace {

uint32_t pad_even(uint32_t v) { return v + (v & 1u); }

}  // namespace

// --- NetworkLayer -----------------------------------------------------------

uint32_t NetworkLayer::in_dim() const {
  if (kind == Kind::kConv)
    return conv.in_channels * conv.in_h * conv.in_w;
  return static_cast<uint32_t>(weight.cols());
}

uint32_t NetworkLayer::out_dim() const {
  if (kind == Kind::kConv) return conv.out_channels * conv.out_h() * conv.out_w();
  return static_cast<uint32_t>(weight.rows());
}

GemmShape NetworkLayer::forward_shape(uint32_t batch) const {
  if (kind == Kind::kConv) return conv.gemm_shape();
  return {"linear", static_cast<uint32_t>(weight.rows()),
          static_cast<uint32_t>(weight.cols()), batch};
}

// --- NetworkGraph -----------------------------------------------------------

NetworkGraph& NetworkGraph::add_linear(MatrixF16 weight, bool relu,
                                       std::vector<Float16> bias) {
  REDMULE_REQUIRE(weight.rows() >= 1 && weight.cols() >= 1, "empty weight matrix");
  REDMULE_REQUIRE(bias.empty() || bias.size() == weight.rows(),
                  "bias length must match the layer's output dimension");
  NetworkLayer l;
  l.kind = NetworkLayer::Kind::kLinear;
  l.weight = std::move(weight);
  l.bias = std::move(bias);
  l.relu = relu;
  REDMULE_REQUIRE(layers_.empty() || layers_.back().out_dim() == l.in_dim(),
                  "layer dimensions do not chain");
  layers_.push_back(std::move(l));
  return *this;
}

NetworkGraph& NetworkGraph::add_conv(const Conv2dParams& p, MatrixF16 filters,
                                     bool relu, std::vector<Float16> bias) {
  p.validate();
  REDMULE_REQUIRE(filters.rows() == p.out_channels &&
                      filters.cols() == p.in_channels * p.kernel * p.kernel,
                  "conv filters must be (out_channels x C*k*k) row-major");
  REDMULE_REQUIRE(bias.empty() || bias.size() == p.out_channels,
                  "conv bias length must match out_channels");
  NetworkLayer l;
  l.kind = NetworkLayer::Kind::kConv;
  l.weight = std::move(filters);
  l.bias = std::move(bias);
  l.relu = relu;
  l.conv = p;
  REDMULE_REQUIRE(layers_.empty() || layers_.back().out_dim() == l.in_dim(),
                  "layer dimensions do not chain");
  layers_.push_back(std::move(l));
  return *this;
}

uint32_t NetworkGraph::input_dim() const {
  REDMULE_REQUIRE(!layers_.empty(), "empty network");
  return layers_.front().in_dim();
}

uint32_t NetworkGraph::output_dim() const {
  REDMULE_REQUIRE(!layers_.empty(), "empty network");
  return layers_.back().out_dim();
}

bool NetworkGraph::has_conv() const {
  for (const NetworkLayer& l : layers_)
    if (l.kind == NetworkLayer::Kind::kConv) return true;
  return false;
}

uint64_t NetworkGraph::forward_macs(uint32_t batch) const {
  uint64_t macs = 0;
  for (const NetworkLayer& l : layers_) macs += l.forward_shape(batch).macs();
  return macs;
}

uint64_t NetworkGraph::training_macs(uint32_t batch) const {
  uint64_t macs = forward_macs(batch);
  for (size_t l = 0; l < layers_.size(); ++l) {
    const uint64_t in = layers_[l].in_dim(), out = layers_[l].out_dim();
    macs += out * static_cast<uint64_t>(batch) * in;          // dW
    if (l > 0) macs += in * static_cast<uint64_t>(out) * batch;  // dX
  }
  return macs;
}

NetworkGraph NetworkGraph::autoencoder(const AutoencoderConfig& cfg,
                                       Xoshiro256& rng) {
  const auto d = cfg.dims();
  NetworkGraph net;
  for (size_t l = 0; l < cfg.n_layers(); ++l) {
    const double scale = std::sqrt(2.0 / d[l]);
    net.add_linear(random_matrix(d[l + 1], d[l], rng, -scale, scale),
                   /*relu=*/l + 1 < cfg.n_layers());
  }
  return net;
}

// --- Golden reference executor ----------------------------------------------

namespace {

/// One lowered forward layer on padded operands: GEMM (via \p gemm), bias
/// on the real region, optional im2col front-end and row-major flattening
/// for conv layers. Returns the *real-extent* pre-activation output.
MatrixF16 golden_layer_forward(const NetworkLayer& l, const MatrixF16& act_real,
                               uint32_t batch, const GemmFn& gemm) {
  const uint32_t Bp = pad_even(batch);
  if (l.kind == NetworkLayer::Kind::kConv) {
    REDMULE_REQUIRE(batch == 1, "conv layers require batch 1");
    const Conv2dParams& p = l.conv;
    MatrixF16 img(p.in_channels, static_cast<size_t>(p.in_h) * p.in_w);
    for (size_t r = 0; r < img.rows(); ++r)
      for (size_t c = 0; c < img.cols(); ++c)
        img(r, c) = act_real(r * img.cols() + c, 0);
    const MatrixF16 patches = im2col(img, p);  // (C*k*k x oh*ow)
    const uint32_t m = p.out_channels;
    const uint32_t np = pad_even(static_cast<uint32_t>(patches.rows()));
    const uint32_t kk = p.out_h() * p.out_w();
    const uint32_t kkp = pad_even(kk);
    MatrixF16 z = gemm(pad_to(l.weight, m, np), pad_to(patches, np, kkp));
    if (!l.bias.empty())
      for (uint32_t r = 0; r < m; ++r)
        for (uint32_t c = 0; c < kk; ++c)
          z(r, c) = bias_add_golden(z(r, c), l.bias[r]);
    // Flatten the real (out_ch x oh*ow) region row-major into the next
    // activation column.
    MatrixF16 flat(l.out_dim(), 1);
    for (uint32_t r = 0; r < m; ++r)
      for (uint32_t c = 0; c < kk; ++c) flat(r * kk + c, 0) = z(r, c);
    return flat;
  }
  const uint32_t m = static_cast<uint32_t>(l.weight.rows());
  const uint32_t np = pad_even(static_cast<uint32_t>(l.weight.cols()));
  MatrixF16 z = gemm(pad_to(l.weight, m, np), pad_to(act_real, np, Bp));
  if (!l.bias.empty())
    for (uint32_t r = 0; r < m; ++r)
      for (uint32_t c = 0; c < batch; ++c)
        z(r, c) = bias_add_golden(z(r, c), l.bias[r]);
  return strip_to(z, m, batch);
}

MatrixF16 apply_relu_golden(const MatrixF16& m) {
  MatrixF16 out(m.rows(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r)
    for (size_t c = 0; c < m.cols(); ++c) out(r, c) = relu_golden(m(r, c));
  return out;
}

}  // namespace

NetworkForwardRef reference_forward(const NetworkGraph& net, const MatrixF16& x,
                                    const core::Geometry& g, GemmFn gemm) {
  REDMULE_REQUIRE(net.n_layers() >= 1, "empty network");
  REDMULE_REQUIRE(x.rows() == net.input_dim(), "input dimension mismatch");
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  if (!gemm)
    gemm = [&g](const MatrixF16& a, const MatrixF16& b) {
      return core::golden_gemm_padded(a, b, g);
    };

  NetworkForwardRef ref;
  MatrixF16 act = x;
  for (size_t l = 0; l < net.n_layers(); ++l) {
    const NetworkLayer& layer = net.layer(l);
    MatrixF16 pre = golden_layer_forward(layer, act, batch, gemm);
    ref.pre.push_back(pre);
    act = layer.relu ? apply_relu_golden(pre) : std::move(pre);
  }
  ref.out = act;
  return ref;
}

NetworkTrainingRef reference_training_step(NetworkGraph& net, const MatrixF16& x,
                                           const MatrixF16& target, double lr,
                                           const core::Geometry& g, GemmFn gemm) {
  if (!gemm)
    gemm = [&g](const MatrixF16& a, const MatrixF16& b) {
      return core::golden_gemm_padded(a, b, g);
    };
  REDMULE_REQUIRE(!net.has_conv(), "training requires a pure linear chain");
  // Bias gradients are not part of the training lowering (the autoencoder
  // has none); training a biased layer would silently freeze its bias, so
  // reject the configuration outright.
  for (const NetworkLayer& l : net.layers())
    REDMULE_REQUIRE(l.bias.empty(), "training does not support bias layers");
  const size_t n_layers = net.n_layers();
  REDMULE_REQUIRE(n_layers >= 1, "empty network");
  REDMULE_REQUIRE(!net.layer(n_layers - 1).relu,
                  "training expects a linear output layer (no final ReLU)");
  REDMULE_REQUIRE(x.rows() == net.input_dim(), "input dimension mismatch");
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  const uint32_t Bp = pad_even(batch);
  REDMULE_REQUIRE(target.rows() == net.output_dim() && target.cols() == batch,
                  "target shape mismatch");

  NetworkTrainingRef ref;
  std::vector<MatrixF16> act_in(n_layers);  // real layer inputs, for dW
  MatrixF16 cur = x;
  for (size_t l = 0; l < n_layers; ++l) {
    act_in[l] = cur;
    MatrixF16 pre = golden_layer_forward(net.layer(l), cur, batch, gemm);
    ref.pre.push_back(pre);
    cur = net.layer(l).relu ? apply_relu_golden(pre) : std::move(pre);
  }
  ref.out = ref.pre.back();

  // MSE loss vs the target and its gradient dY = fp16(out - target) on the
  // real region (pad columns of dY stay exactly +0 by rule).
  MatrixF16 dy(ref.out.rows(), batch);
  double mse = 0.0;
  for (size_t r = 0; r < dy.rows(); ++r)
    for (size_t c = 0; c < batch; ++c) {
      const double diff = ref.out(r, c).to_double() - target(r, c).to_double();
      mse += diff * diff;
      dy(r, c) = Float16::from_double(diff);
    }
  ref.mse = mse / (static_cast<double>(dy.rows()) * batch);

  // Backward: dW_l = dY * A_l^T (reduction over Bp), dX_l = Wp_l^T * dY
  // (reduction over outp), dX masked where the pre-activation was negative.
  ref.dw.resize(n_layers);
  for (size_t li = n_layers; li-- > 0;) {
    const NetworkLayer& layer = net.layer(li);
    const uint32_t in = layer.in_dim(), out = layer.out_dim();
    const uint32_t inp = pad_even(in), outp = pad_even(out);
    const MatrixF16 dwp =
        gemm(pad_to(dy, out, Bp), pad_to(act_in[li].transposed(), Bp, inp));
    ref.dw[li] = strip_to(dwp, out, in);
    if (li > 0) {
      const MatrixF16 dxp = gemm(pad_to(layer.weight.transposed(), in, outp),
                                 pad_to(dy, outp, Bp));
      MatrixF16 dx = strip_to(dxp, in, batch);
      if (net.layer(li - 1).relu) {
        const MatrixF16& pa = ref.pre[li - 1];
        for (size_t r = 0; r < dx.rows(); ++r)
          for (size_t c = 0; c < dx.cols(); ++c)
            if (pa(r, c).to_double() < 0.0) dx(r, c) = Float16{};
      }
      dy = std::move(dx);
    }
  }

  if (lr != 0.0)
    for (size_t l = 0; l < n_layers; ++l)
      apply_sgd_update(net.weight(l), ref.dw[l], lr, batch);
  return ref;
}

void apply_sgd_update(MatrixF16& w, const MatrixF16& dw, double lr,
                      uint32_t batch) {
  REDMULE_REQUIRE(w.same_shape(dw), "weight/gradient shape mismatch");
  const double scale = lr / static_cast<double>(batch);
  fp16::sub_scaled_row(w.data(), dw.data(), scale, w.size());
}

}  // namespace redmule::workloads
