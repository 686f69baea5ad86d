#include "cluster/network_runner.hpp"

#include <algorithm>

namespace redmule::cluster {

namespace {

using fp16::Float16;
using workloads::AeGemm;
using workloads::NetworkGraph;
using workloads::NetworkLayer;
using workloads::TiledGemmPlan;

uint32_t pad_even(uint32_t v) { return v + (v & 1u); }

/// Per-layer lowered-GEMM geometry: the one description both the executor's
/// L2 layout and the static sizing helpers are computed from, so the batch
/// runner's cluster sizing can never diverge from what a run allocates.
struct LayerGeom {
  uint32_t m = 0;        ///< GEMM output rows (out_dim, out_channels for conv)
  uint32_t n = 0;        ///< real reduction extent (in_dim / C*k*k)
  uint32_t kk = 0;       ///< real GEMM columns (batch / oh*ow)
  uint32_t in_vec = 0;   ///< activation-vector length consumed
  uint32_t out_vec = 0;  ///< activation-vector length produced
  bool conv = false;
  bool relu = false;
};

std::vector<LayerGeom> geoms_from_graph(const NetworkGraph& net, uint32_t batch) {
  std::vector<LayerGeom> geoms;
  for (const NetworkLayer& l : net.layers()) {
    LayerGeom g;
    const workloads::GemmShape s = l.forward_shape(batch);
    g.m = s.m;
    g.n = s.n;
    g.kk = s.k;
    g.in_vec = l.in_dim();
    g.out_vec = l.out_dim();
    g.conv = l.kind == NetworkLayer::Kind::kConv;
    g.relu = l.relu;
    geoms.push_back(g);
  }
  return geoms;
}

/// The autoencoder shape: a linear chain with ReLU between layers. Must
/// produce exactly what geoms_from_graph produces for
/// NetworkGraph::autoencoder, so the sizing helpers stay truthful.
std::vector<LayerGeom> geoms_from_dims(const std::vector<uint32_t>& dims,
                                       uint32_t batch) {
  REDMULE_REQUIRE(dims.size() >= 2, "a network needs at least one layer");
  std::vector<LayerGeom> geoms;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    LayerGeom g;
    g.m = dims[l + 1];
    g.n = dims[l];
    g.kk = batch;
    g.in_vec = dims[l];
    g.out_vec = dims[l + 1];
    g.relu = l + 2 < dims.size();
    geoms.push_back(g);
  }
  return geoms;
}

/// One lowered GEMM of a layer: its real shape (named "L<l>.fw|dW|dX") and
/// the padded extents its tiled plan covers -- fw m x pad(n) x pad(kk),
/// dW m x Bp x pad(n), dX n x pad(m) x Bp. The one formula a run plans with
/// and min_tcdm_bytes sizes with, so TCDM sizing cannot drift from a run.
struct PhaseGemm {
  workloads::GemmShape shape;
  uint32_t m = 0, n = 0, k = 0;
};

PhaseGemm phase_gemm(const LayerGeom& g, size_t l, AeGemm::Phase phase,
                     uint32_t batch) {
  const uint32_t bp = pad_even(batch);
  const std::string name = 'L' + std::to_string(l);
  if (phase == AeGemm::Phase::kForward)
    return {{name + ".fw", g.m, g.n, g.kk}, g.m, pad_even(g.n), pad_even(g.kk)};
  if (phase == AeGemm::Phase::kGradWeight)
    return {{name + ".dW", g.m, batch, g.n}, g.m, bp, pad_even(g.n)};
  return {{name + ".dX", g.n, g.m, batch}, g.n, pad_even(g.m), bp};
}

/// Word-aligned bump allocation of (rows x cols) FP16 regions from \p base.
/// With base = 0 a layout built on it doubles as its sizing function.
class RegionAlloc {
 public:
  explicit RegionAlloc(uint32_t base) : base_(base), next_(base) {}
  uint32_t operator()(uint64_t rows, uint64_t cols) {
    const uint64_t addr = next_;
    next_ += (rows * cols * 2 + 3) & ~3ull;  // keep regions word-aligned
    if (next_ > UINT32_MAX)
      throw CapacityError("network L2 layout exceeds the address space");
    return static_cast<uint32_t>(addr);
  }
  uint64_t used() const { return next_ - base_; }

 private:
  uint64_t base_, next_;
};

/// Byte addresses of one layer's L2 regions (0 = not allocated).
struct LayerAddrs {
  uint32_t weight = 0;    ///< (m x pad_even(n))
  uint32_t wt = 0;        ///< training: W^T, (n x pad_even(m))
  uint32_t patches = 0;   ///< conv: im2col scratch, (pad_even(n) x pad_even(kk))
  uint32_t gemm_out = 0;  ///< conv: raw GEMM output, (m x pad_even(kk))
  uint32_t pre = 0;       ///< flattened pre-activation, (pad_even(out_vec) x Bp)
  uint32_t act = 0;       ///< post-ReLU activation (== pre when !relu)
  uint32_t dw = 0;        ///< training: weight gradient, (m x pad_even(n))
};

struct Layout {
  uint32_t input = 0;  ///< (pad_even(in_vec_0) x Bp)
  std::vector<LayerAddrs> layers;
  uint32_t act_t = 0;  ///< training scratch: A_l^T, (Bp x max pad_even(n))
  uint32_t dy0 = 0, dy1 = 0;  ///< training: (max pad_even(out_vec) x Bp)
  uint64_t total_bytes = 0;
};

/// Allocates every region of a run in a fixed order from \p base.
Layout build_layout(const std::vector<LayerGeom>& geoms, uint32_t batch,
                    bool training, uint32_t base) {
  const uint32_t bp = pad_even(batch);
  RegionAlloc alloc(base);
  Layout lay;
  lay.input = alloc(pad_even(geoms.front().in_vec), bp);
  for (const LayerGeom& g : geoms) {
    LayerAddrs a;
    a.weight = alloc(g.m, pad_even(g.n));
    if (training) {
      a.wt = alloc(g.n, pad_even(g.m));
      a.dw = alloc(g.m, pad_even(g.n));
    }
    if (g.conv) {
      a.patches = alloc(pad_even(g.n), pad_even(g.kk));
      a.gemm_out = alloc(g.m, pad_even(g.kk));
    }
    a.pre = alloc(pad_even(g.out_vec), bp);
    a.act = g.relu ? alloc(pad_even(g.out_vec), bp) : a.pre;
    lay.layers.push_back(a);
  }
  if (training) {
    uint32_t max_n = 0, max_out = 0;
    for (const LayerGeom& g : geoms) {
      max_n = std::max(max_n, pad_even(g.n));
      max_out = std::max(max_out, pad_even(g.out_vec));
    }
    lay.act_t = alloc(bp, max_n);
    lay.dy0 = alloc(max_out, bp);
    lay.dy1 = alloc(max_out, bp);
  }
  lay.total_bytes = alloc.used();
  return lay;
}

/// L2 regions of a DwAccumulator: per-layer resident partials plus one
/// (dY, A^T) staging pair sized for the widest slice.
struct AccLayout {
  std::vector<uint32_t> dw;  ///< per layer, (m x pad_even(n))
  uint32_t dy = 0;           ///< scratch, (max m x Bp)
  uint32_t act_t = 0;        ///< scratch, (Bp x max pad_even(n))
  uint64_t total_bytes = 0;
};

AccLayout build_acc_layout(const std::vector<LayerGeom>& geoms, uint32_t bp,
                           uint32_t base) {
  RegionAlloc alloc(base);
  AccLayout lay;
  uint32_t max_m = 0, max_np = 0;
  for (const LayerGeom& g : geoms) {
    lay.dw.push_back(alloc(g.m, pad_even(g.n)));
    max_m = std::max(max_m, g.m);
    max_np = std::max(max_np, pad_even(g.n));
  }
  lay.dy = alloc(max_m, bp);
  lay.act_t = alloc(bp, max_np);
  lay.total_bytes = alloc.used();
  return lay;
}

/// Rejects, with a typed kCapacity, a layout of \p bytes that \p l2 cannot
/// hold -- before anything is staged or executed.
void require_fits(const mem::L2Memory& l2, uint64_t bytes, const std::string& what) {
  if (bytes > l2.config().size_bytes)
    throw CapacityError("L2 too small for the " + what + " layout (" +
                        std::to_string(bytes) + " bytes needed, " +
                        std::to_string(l2.config().size_bytes) + " available)");
}

/// The forward or training layout for (geoms, batch) on this L2,
/// capacity-checked.
Layout layout_checked(const mem::L2Memory& l2, const std::vector<LayerGeom>& geoms,
                      uint32_t batch, bool training) {
  Layout lay = build_layout(geoms, batch, training, l2.config().base_addr);
  require_fits(l2, lay.total_bytes,
               training ? "network training" : "network forward");
  return lay;
}

MatrixF16 read_mat(mem::L2Memory& l2, uint32_t addr, uint32_t rows, uint32_t cols) {
  MatrixF16 m(rows, cols);
  l2.read(addr, m.data(), rows * cols * 2);
  return m;
}

void write_mat(mem::L2Memory& l2, uint32_t addr, const MatrixF16& m) {
  l2.write(addr, m.data(), static_cast<uint32_t>(m.size_bytes()));
}

void zero_region(mem::L2Memory& l2, uint32_t addr, uint32_t rows, uint32_t cols) {
  write_mat(l2, addr, MatrixF16(rows, cols));
}

/// Stages every layer's resident regions: weights padded per the lowering
/// contract (plus, for training, their transposes and zeroed gradients) and
/// the scratch/activation regions zeroed. All through the zero-time L2
/// backdoor over disjoint regions, so staging order is invisible in
/// simulated cycles and in every staged bit.
void stage_layers(mem::L2Memory& l2, const NetworkGraph& net,
                  const std::vector<LayerGeom>& geoms, const Layout& lay,
                  uint32_t batch, bool training) {
  const uint32_t bp = pad_even(batch);
  for (size_t l = 0; l < geoms.size(); ++l) {
    const LayerGeom& g = geoms[l];
    const LayerAddrs& a = lay.layers[l];
    const MatrixF16& w = net.layer(l).weight;
    write_mat(l2, a.weight, pad_to(w, g.m, pad_even(g.n)));
    if (training) {
      write_mat(l2, a.wt, pad_to(w.transposed(), g.n, pad_even(g.m)));
      zero_region(l2, a.dw, g.m, pad_even(g.n));
    }
    if (g.conv) {
      zero_region(l2, a.patches, pad_even(g.n), pad_even(g.kk));
      zero_region(l2, a.gemm_out, g.m, pad_even(g.kk));
    }
    zero_region(l2, a.pre, pad_even(g.out_vec), bp);
    if (g.relu) zero_region(l2, a.act, pad_even(g.out_vec), bp);
  }
}

/// Issues the lowered GEMMs of one network run on one cluster and records
/// each as a NetworkGemmStats entry of \p stats: its useful MACs are added
/// to stats.macs, and stats.total_cycles spans from construction to the
/// end of the latest GEMM.
class GemmRecorder {
 public:
  GemmRecorder(Cluster& cl, RedmuleDriver& drv, NetworkStats& stats)
      : cl_(cl), drv_(drv), tiled_(cl, drv), stats_(stats),
        cycle0_(cl.cycle()) {}

  /// Plans and runs layer \p l's \p phase GEMM over resident L2 operands,
  /// records it, then polls the run control. \p has_y is explicit because
  /// y_addr == 0 is a real region when the L2 base address is 0.
  void run(const LayerGeom& g, size_t l, AeGemm::Phase phase, uint32_t batch,
           const StagedGemm& addrs, bool has_y) {
    const PhaseGemm e = phase_gemm(g, l, phase, batch);
    NetworkGemmStats gs;
    gs.layer = static_cast<unsigned>(l);
    gs.phase = phase;
    gs.shape = e.shape;
    const TiledGemmPlan plan = workloads::plan_tiled_gemm(
        e.m, e.n, e.k, has_y, drv_.bytes_free(), cl_.config().geometry);
    gs.tiled = tiled_.run_staged(addrs, plan);
    gs.tiled.macs = gs.shape.macs();  // useful MACs, not the padded grid's
    stats_.macs += gs.tiled.macs;
    stats_.gemms.push_back(std::move(gs));
    stats_.total_cycles = cl_.cycle() - cycle0_;
    cl_.sim().checkpoint();  // per-GEMM deadline/cancel poll point
  }

 private:
  Cluster& cl_;
  RedmuleDriver& drv_;
  TiledGemmRunner tiled_;
  NetworkStats& stats_;
  uint64_t cycle0_;
};

/// Bias add on the *real* region of an in-memory GEMM output (the lowering
/// rule: pad columns stay exactly +0).
void apply_bias(MatrixF16& z, const std::vector<Float16>& bias, uint32_t rows,
                uint32_t real_cols) {
  for (uint32_t r = 0; r < rows; ++r)
    for (uint32_t c = 0; c < real_cols; ++c)
      z(r, c) = workloads::bias_add_f16(z(r, c), bias[r]);
}

/// ReLU from the resident pre buffer into the act buffer (the whole padded
/// region -- relu(+0) == +0, so pads are preserved).
void apply_relu(mem::L2Memory& l2, uint32_t pre_addr, uint32_t act_addr,
                uint32_t rows, uint32_t cols) {
  MatrixF16 v = read_mat(l2, pre_addr, rows, cols);
  for (size_t r = 0; r < v.rows(); ++r)
    for (size_t c = 0; c < v.cols(); ++c) v(r, c) = workloads::relu_f16(v(r, c));
  write_mat(l2, act_addr, v);
}

/// The forward walk over a staged layout, activations kept resident per
/// layer: the ONE implementation forward() and training run, so the
/// elementwise contract cannot drift between them. Conv layers first stage
/// their im2col patch matrix; every layer then runs one GEMM, bias on the
/// real region and ReLU into the act buffer. Returns the output's address.
uint32_t run_forward(mem::L2Memory& l2, GemmRecorder& gemms,
                     const NetworkGraph& net, const std::vector<LayerGeom>& geoms,
                     const Layout& lay, uint32_t batch) {
  const uint32_t bp = pad_even(batch);
  uint32_t cur_act = lay.input;
  for (size_t l = 0; l < geoms.size(); ++l) {
    const LayerGeom& g = geoms[l];
    const LayerAddrs& a = lay.layers[l];
    const NetworkLayer& layer = net.layer(l);
    const uint32_t kkp = pad_even(g.kk);

    StagedGemm addrs{a.weight, cur_act, a.pre, 0};
    if (g.conv) {
      REDMULE_REQUIRE(batch == 1, "conv layers require batch 1");
      // im2col front-end: reshape the resident activation column to the
      // (C x H*W) image and stage the padded patch matrix.
      const workloads::Conv2dParams& p = layer.conv;
      const MatrixF16 col = read_mat(l2, cur_act, g.in_vec, bp);
      MatrixF16 img(p.in_channels, static_cast<size_t>(p.in_h) * p.in_w);
      for (size_t r = 0; r < img.rows(); ++r)
        for (size_t c = 0; c < img.cols(); ++c)
          img(r, c) = col(r * img.cols() + c, 0);
      write_mat(l2, a.patches, pad_to(im2col(img, p), pad_even(g.n), kkp));
      addrs = {a.weight, a.patches, a.gemm_out, 0};
    }
    gemms.run(g, l, AeGemm::Phase::kForward, batch, addrs, /*has_y=*/false);

    // Bias on the real region; a conv output is then flattened row-major
    // into the activation column (the pre buffer was zeroed, pads stay +0).
    if (g.conv || !layer.bias.empty()) {
      MatrixF16 z = read_mat(l2, addrs.z_addr, g.m, kkp);
      if (!layer.bias.empty()) apply_bias(z, layer.bias, g.m, g.kk);
      if (g.conv) {
        MatrixF16 flat(pad_even(g.out_vec), bp);
        for (uint32_t r = 0; r < g.m; ++r)
          for (uint32_t c = 0; c < g.kk; ++c) flat(r * g.kk + c, 0) = z(r, c);
        z = std::move(flat);
      }
      write_mat(l2, a.pre, z);
    }
    if (g.relu) apply_relu(l2, a.pre, a.act, pad_even(g.out_vec), bp);
    cur_act = a.act;
  }
  return cur_act;
}

/// Shape checks shared by every training entry point (mirrored in
/// workloads::reference_training_step).
void check_training_net(const NetworkGraph& net) {
  const size_t n_layers = net.n_layers();
  REDMULE_REQUIRE(n_layers >= 1, "empty network");
  REDMULE_REQUIRE(!net.has_conv(), "training requires a pure linear chain");
  REDMULE_REQUIRE(!net.layer(n_layers - 1).relu,
                  "training expects a linear output layer (no final ReLU)");
  // Bias gradients are not part of the training lowering (the autoencoder
  // has none); training a biased layer would silently freeze its bias, so
  // reject the configuration outright.
  for (const workloads::NetworkLayer& l : net.layers())
    REDMULE_REQUIRE(l.bias.empty(), "training does not support bias layers");
}

/// A training execution's result plus the geometry and layout its wrapper
/// reads the gradients back with.
struct TrainingRun {
  NetworkRunner::TrainingResult res;  ///< out, mse and stats; dw left empty
  std::vector<LayerGeom> geoms;
  Layout lay;
};

/// The one training executor, over an L2 holding the template staged by
/// stage_training_template(): stages the per-job input, runs the forward
/// walk, the MSE loss gradient and the backward walk. With \p capture null
/// every dW GEMM runs in place into the layer's resident dW region.
/// Otherwise each dW GEMM is skipped and the padded L2 bits it would read
/// -- dY as its (m x Bp) X operand, the input activation whose transpose is
/// its W operand -- are captured for a DwAccumulator. Either way the layout,
/// and every forward/dX GEMM's addresses, plan and staged bits, are the same.
TrainingRun run_training(Cluster& cl, RedmuleDriver& drv,
                         const NetworkGraph& net, const MatrixF16& x,
                         const MatrixF16& target,
                         NetworkRunner::SliceBackward* capture) {
  check_training_net(net);
  REDMULE_REQUIRE(x.rows() == net.input_dim(), "input dimension mismatch");
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  REDMULE_REQUIRE(target.rows() == net.output_dim() && target.cols() == batch,
                  "target shape mismatch");
  const uint32_t bp = pad_even(batch);

  auto& l2 = cl.l2();
  TrainingRun run;
  run.geoms = geoms_from_graph(net, batch);
  run.lay = layout_checked(l2, run.geoms, batch, /*training=*/true);
  const std::vector<LayerGeom>& geoms = run.geoms;
  const Layout& lay = run.lay;
  NetworkRunner::TrainingResult& res = run.res;

  // --- Stage the per-job input; the template staged everything else --------
  write_mat(l2, lay.input, pad_to(x, pad_even(geoms.front().in_vec), bp));
  GemmRecorder gemms(cl, drv, res.stats);
  run_forward(l2, gemms, net, geoms, lay, batch);

  // --- MSE loss gradient: dY = fp16(out - target) on the real region -------
  const LayerGeom& gl = geoms.back();
  const MatrixF16 out = read_mat(l2, lay.layers.back().pre, gl.m, bp);
  MatrixF16 dy(pad_even(gl.out_vec), bp);  // pads stay exactly +0
  double mse = 0.0;
  for (uint32_t r = 0; r < gl.m; ++r)
    for (uint32_t c = 0; c < batch; ++c) {
      const double diff = out(r, c).to_double() - target(r, c).to_double();
      mse += diff * diff;
      dy(r, c) = Float16::from_double(diff);
    }
  res.mse = mse / (static_cast<double>(gl.m) * batch);
  write_mat(l2, lay.dy0, dy);
  res.out = strip_to(out, gl.m, batch);

  // --- Backward: dW_l = dY * A_l^T, dX_l = W_l^T * dY ----------------------
  if (capture) {
    capture->batch = batch;
    capture->padded_batch = bp;
    capture->dy.resize(geoms.size());
    capture->act.resize(geoms.size());
  }
  uint32_t dy_cur = lay.dy0, dy_next = lay.dy1;
  for (size_t li = geoms.size(); li-- > 0;) {
    const LayerGeom& g = geoms[li];
    const uint32_t inp = pad_even(g.n);
    const uint32_t act_in = li == 0 ? lay.input : lay.layers[li - 1].act;
    MatrixF16 act = read_mat(l2, act_in, inp, bp);
    if (capture) {
      capture->dy[li] = read_mat(l2, dy_cur, g.m, bp);
      capture->act[li] = std::move(act);
    } else {
      // A_l^T staged into the scratch region (a transpose of the resident
      // padded activation; on the real cluster MCHAN's 2-D strides gather
      // it, here it moves through the zero-time backdoor like all staging).
      write_mat(l2, lay.act_t, act.transposed());  // (bp x inp)
      gemms.run(g, li, AeGemm::Phase::kGradWeight, batch,
                {dy_cur, lay.act_t, lay.layers[li].dw, 0}, /*has_y=*/false);
    }
    if (li == 0) break;

    gemms.run(g, li, AeGemm::Phase::kGradInput, batch,
              {lay.layers[li].wt, dy_cur, dy_next, 0}, /*has_y=*/false);
    // ReLU backward (where the pre-activation was negative) plus pad-row
    // scrubbing: the alternating dY buffers are reused across layers of
    // different heights, so rows [n, inp) may hold a stale taller layer.
    MatrixF16 dx = read_mat(l2, dy_next, inp, bp);
    const bool mask = net.layer(li - 1).relu;
    const MatrixF16 pa =
        mask ? read_mat(l2, lay.layers[li - 1].pre, g.n, bp) : MatrixF16();
    for (uint32_t r = 0; r < inp; ++r)
      for (uint32_t c = 0; c < bp; ++c) {
        if (r >= g.n)
          dx(r, c) = Float16{};
        else if (mask && c < batch && Float16::lt(pa(r, c), Float16{}))
          dx(r, c) = Float16{};
      }
    write_mat(l2, dy_next, dx);
    std::swap(dy_cur, dy_next);
  }
  return run;
}

}  // namespace

NetworkRunner::NetworkRunner(Cluster& cluster, RedmuleDriver& driver)
    : cl_(cluster), drv_(driver) {}

NetworkRunner::ForwardResult NetworkRunner::forward(const NetworkGraph& net,
                                                    const MatrixF16& x) {
  REDMULE_REQUIRE(net.n_layers() >= 1, "empty network");
  REDMULE_REQUIRE(x.rows() == net.input_dim(), "input dimension mismatch");
  const uint32_t batch = static_cast<uint32_t>(x.cols());
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  const uint32_t bp = pad_even(batch);

  auto& l2 = cl_.l2();
  const std::vector<LayerGeom> geoms = geoms_from_graph(net, batch);
  const Layout lay = layout_checked(l2, geoms, batch, /*training=*/false);
  write_mat(l2, lay.input, pad_to(x, pad_even(geoms.front().in_vec), bp));
  stage_layers(l2, net, geoms, lay, batch, /*training=*/false);

  ForwardResult res;
  GemmRecorder gemms(cl_, drv_, res.stats);
  const uint32_t out = run_forward(l2, gemms, net, geoms, lay, batch);
  res.out = strip_to(read_mat(l2, out, geoms.back().out_vec, bp),
                     geoms.back().out_vec, batch);
  return res;
}

void NetworkRunner::stage_training_template(const NetworkGraph& net,
                                            uint32_t batch) {
  check_training_net(net);
  REDMULE_REQUIRE(batch >= 1, "batch must be positive");
  auto& l2 = cl_.l2();
  const std::vector<LayerGeom> geoms = geoms_from_graph(net, batch);
  const Layout lay = layout_checked(l2, geoms, batch, /*training=*/true);
  stage_layers(l2, net, geoms, lay, batch, /*training=*/true);
}

NetworkRunner::TrainingResult NetworkRunner::training_step(NetworkGraph& net,
                                                           const MatrixF16& x,
                                                           const MatrixF16& target,
                                                           double lr) {
  stage_training_template(net, static_cast<uint32_t>(x.cols()));
  return training_step_staged(net, x, target, lr);
}

NetworkRunner::TrainingResult NetworkRunner::training_step_staged(
    NetworkGraph& net, const MatrixF16& x, const MatrixF16& target, double lr) {
  TrainingRun run = run_training(cl_, drv_, net, x, target, nullptr);

  // --- Read gradients back, optional SGD update on the host weights --------
  auto& l2 = cl_.l2();
  TrainingResult& res = run.res;
  res.dw.resize(run.geoms.size());
  for (size_t l = 0; l < run.geoms.size(); ++l) {
    const LayerGeom& g = run.geoms[l];
    res.dw[l] = strip_to(read_mat(l2, run.lay.layers[l].dw, g.m, pad_even(g.n)),
                         g.m, g.n);
    if (lr != 0.0)
      workloads::apply_sgd_update(net.weight(l), res.dw[l], lr,
                                  static_cast<uint32_t>(x.cols()));
  }
  return std::move(res);
}

NetworkRunner::TrainingSliceResult NetworkRunner::training_slice_staged(
    const NetworkGraph& net, const MatrixF16& x, const MatrixF16& target) {
  TrainingSliceResult res;
  TrainingRun run = run_training(cl_, drv_, net, x, target, &res.grads);
  res.out = std::move(run.res.out);
  res.stats = std::move(run.res.stats);
  return res;
}

DwAccumulator::DwAccumulator(Cluster& cluster, RedmuleDriver& driver,
                             const NetworkGraph& net, uint32_t max_padded_batch)
    : cl_(cluster), drv_(driver), max_padded_batch_(max_padded_batch) {
  REDMULE_REQUIRE(net.n_layers() >= 1, "empty network");
  REDMULE_REQUIRE(!net.has_conv(),
                  "gradient reduction requires a pure linear chain");
  REDMULE_REQUIRE(max_padded_batch >= 2 && max_padded_batch % 2 == 0,
                  "padded batch must be even and positive");

  auto& l2 = cl_.l2();
  const std::vector<LayerGeom> geoms =
      geoms_from_graph(net, max_padded_batch);
  const AccLayout lay =
      build_acc_layout(geoms, max_padded_batch, l2.config().base_addr);
  require_fits(l2, lay.total_bytes, "gradient-reduction");
  for (size_t l = 0; l < geoms.size(); ++l) {
    const LayerGeom& g = geoms[l];
    layers_.push_back(LayerSlot{g.m, g.n, lay.dw[l]});
    zero_region(l2, lay.dw[l], g.m, pad_even(g.n));
    gradient_bytes_ += static_cast<uint64_t>(g.m) * pad_even(g.n) * 2;
  }
  dy_addr_ = lay.dy;
  act_t_addr_ = lay.act_t;
}

NetworkStats DwAccumulator::accumulate(
    const NetworkRunner::SliceBackward& grads, bool first) {
  REDMULE_REQUIRE(grads.dy.size() == layers_.size() &&
                      grads.act.size() == layers_.size(),
                  "slice layer count mismatch");
  const uint32_t sp = grads.padded_batch;
  REDMULE_REQUIRE(sp == pad_even(grads.batch) && sp >= 2 &&
                      sp <= max_padded_batch_,
                  "slice padded batch out of range");

  auto& l2 = cl_.l2();
  NetworkStats stats;
  GemmRecorder gemms(cl_, drv_, stats);

  // Same descending-layer order as training_step's backward walk.
  for (size_t li = layers_.size(); li-- > 0;) {
    const LayerSlot& s = layers_[li];
    REDMULE_REQUIRE(grads.dy[li].rows() == s.m && grads.dy[li].cols() == sp,
                    "slice dY shape mismatch");
    REDMULE_REQUIRE(grads.act[li].rows() == pad_even(s.n) &&
                        grads.act[li].cols() == sp,
                    "slice activation shape mismatch");
    // The captured padded bits, staged verbatim: dY as the X operand, the
    // activation transposed into the W operand -- the exact staging
    // training_step performs for its dW GEMM, restricted to this slice.
    write_mat(l2, dy_addr_, grads.dy[li]);
    write_mat(l2, act_t_addr_, grads.act[li].transposed());  // (sp x np)

    // first: plain GEMM starting the chain. Otherwise the resident partial
    // preloads as Y in place (y == z), continuing the reduction exactly as
    // the monolithic chain's next H-aligned segment would.
    gemms.run(LayerGeom{.m = s.m, .n = s.n}, li, AeGemm::Phase::kGradWeight,
              grads.batch, {dy_addr_, act_t_addr_, s.dw, first ? 0u : s.dw},
              /*has_y=*/!first);
  }
  return stats;
}

std::vector<core::MatrixF16> DwAccumulator::gradients() const {
  auto& l2 = cl_.l2();
  std::vector<core::MatrixF16> dw;
  dw.reserve(layers_.size());
  for (const LayerSlot& s : layers_)
    dw.push_back(
        strip_to(read_mat(l2, s.dw, s.m, pad_even(s.n)), s.m, s.n));
  return dw;
}

uint64_t DwAccumulator::l2_bytes(const std::vector<uint32_t>& dims,
                                 uint32_t batch) {
  return build_acc_layout(geoms_from_dims(dims, batch), pad_even(batch), 0)
      .total_bytes;
}

uint64_t NetworkRunner::training_l2_bytes(const std::vector<uint32_t>& dims,
                                          uint32_t batch) {
  return build_layout(geoms_from_dims(dims, batch), batch, /*training=*/true, 0)
      .total_bytes;
}

uint64_t NetworkRunner::min_tcdm_bytes(const std::vector<uint32_t>& dims,
                                       uint32_t batch, const core::Geometry& g) {
  const std::vector<LayerGeom> geoms = geoms_from_dims(dims, batch);
  uint64_t need = 0;
  for (size_t l = 0; l < geoms.size(); ++l)
    for (const AeGemm::Phase p :
         {AeGemm::Phase::kForward, AeGemm::Phase::kGradWeight,
          AeGemm::Phase::kGradInput}) {
      const PhaseGemm e = phase_gemm(geoms[l], l, p, batch);
      need = std::max(need,
                      workloads::min_tile_plan(e.m, e.n, e.k, false, g).tcdm_bytes());
    }
  return need;
}

}  // namespace redmule::cluster
