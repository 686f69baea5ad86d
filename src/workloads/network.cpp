#include "workloads/network.hpp"

#include <cmath>

#include "core/golden.hpp"

namespace redmule::workloads {

using fp16::Float16;

// --- NetworkGraph -----------------------------------------------------------

NetworkGraph& NetworkGraph::add_linear(MatrixF16 weight) {
  REDMULE_REQUIRE(weight.rows() >= 1 && weight.cols() >= 1, "empty weight matrix");
  REDMULE_REQUIRE(layers_.empty() || layers_.back().out_dim() == weight.cols(),
                  "layer dimensions do not chain");
  layers_.push_back(NetworkLayer{std::move(weight)});
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

std::vector<uint32_t> NetworkGraph::dims() const {
  std::vector<uint32_t> d{input_dim()};
  for (const NetworkLayer& l : layers_) d.push_back(l.out_dim());
  return d;
}

NetworkGraph NetworkGraph::autoencoder(const AutoencoderConfig& cfg,
                                       Xoshiro256& rng) {
  const auto d = cfg.dims();
  NetworkGraph net;
  for (size_t l = 0; l < cfg.n_layers(); ++l) {
    const double scale = std::sqrt(2.0 / d[l]);
    net.add_linear(random_matrix(d[l + 1], d[l], rng, -scale, scale));
  }
  return net;
}

// --- Golden reference executor ----------------------------------------------

namespace {

/// One lowered forward layer: the GEMM (via \p gemm) on padded operands.
/// Returns the *real-extent* pre-activation output.
MatrixF16 golden_layer_forward(const NetworkLayer& l, const MatrixF16& act_real,
                               uint32_t batch, const GemmFn& gemm) {
  const uint32_t m = l.out_dim();
  const uint32_t np = pad_even(l.in_dim());
  const MatrixF16 z =
      gemm(pad_to(l.weight, m, np), pad_to(act_real, np, pad_even(batch)));
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
    ref.pre.push_back(golden_layer_forward(net.layer(l), act, batch, gemm));
    if (l + 1 < net.n_layers()) act = apply_relu_golden(ref.pre.back());
  }
  ref.out = ref.pre.back();
  return ref;
}

NetworkTrainingRef reference_training_step(NetworkGraph& net, const MatrixF16& x,
                                           const MatrixF16& target, double lr,
                                           const core::Geometry& g, GemmFn gemm) {
  if (!gemm)
    gemm = [&g](const MatrixF16& a, const MatrixF16& b) {
      return core::golden_gemm_padded(a, b, g);
    };
  REDMULE_REQUIRE(target.rows() == net.output_dim() && target.cols() == x.cols(),
                  "target shape mismatch");
  NetworkForwardRef fwd = reference_forward(net, x, g, gemm);
  const size_t n_layers = net.n_layers();
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  const uint32_t Bp = pad_even(batch);

  NetworkTrainingRef ref;
  ref.pre = std::move(fwd.pre);
  ref.out = std::move(fwd.out);

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
    // The layer's real input: x, or the ReLU of the previous pre-activation.
    const MatrixF16 act_in = li == 0 ? x : apply_relu_golden(ref.pre[li - 1]);
    const MatrixF16 dwp =
        gemm(pad_to(dy, out, Bp), pad_to(act_in.transposed(), Bp, inp));
    ref.dw[li] = strip_to(dwp, out, in);
    if (li > 0) {
      const MatrixF16 dxp = gemm(pad_to(layer.weight.transposed(), in, outp),
                                 pad_to(dy, outp, Bp));
      MatrixF16 dx = strip_to(dxp, in, batch);
      const MatrixF16& pa = ref.pre[li - 1];
      for (size_t r = 0; r < dx.rows(); ++r)
        for (size_t c = 0; c < dx.cols(); ++c)
          if (pa(r, c).to_double() < 0.0) dx(r, c) = Float16{};
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
