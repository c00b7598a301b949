#include "workloads/dl/model_zoo.hpp"

#include <cmath>

#include "sim/logging.hpp"

namespace uvmd::workloads::dl {

namespace {

constexpr sim::Bytes kGB = 1'000'000'000ULL;  // decimal GB, as in §7.5

/** Normalize the three fraction columns of @p layers to sum to 1. */
void
normalize(std::vector<LayerSpec> &layers)
{
    double w = 0, a = 0, f = 0;
    for (const auto &l : layers) {
        w += l.weight_frac;
        a += l.act_frac;
        f += l.flops_frac;
    }
    for (auto &l : layers) {
        l.weight_frac /= w;
        l.act_frac /= a;
        l.flops_frac /= f;
    }
}

}  // namespace

sim::Bytes
NetSpec::allocBytes(int batch) const
{
    // Weights + weight-update shadow + workspace + (outputs + deltas
    // + input data) x batch.
    return 2 * weight_bytes + workspace_bytes +
           static_cast<sim::Bytes>(batch) *
               (2 * act_bytes_per_sample + data_bytes_per_sample);
}

sim::Bytes
NetSpec::layerWeightBytes(std::size_t i) const
{
    return static_cast<sim::Bytes>(layers[i].weight_frac *
                                   weight_bytes);
}

sim::Bytes
NetSpec::layerActBytes(std::size_t i, int batch) const
{
    auto bytes = static_cast<sim::Bytes>(
        layers[i].act_frac * act_bytes_per_sample * batch);
    return bytes > 4096 ? bytes : 4096;
}

sim::SimDuration
NetSpec::layerFwdCompute(std::size_t i, int batch) const
{
    return static_cast<sim::SimDuration>(layers[i].flops_frac *
                                         fwd_ns_per_sample * batch);
}

sim::SimDuration
NetSpec::layerBwdCompute(std::size_t i, int batch) const
{
    return static_cast<sim::SimDuration>(bwd_multiplier *
                                         layers[i].flops_frac *
                                         fwd_ns_per_sample * batch);
}

NetSpec
NetSpec::scaledActivations(double factor) const
{
    NetSpec scaled = *this;
    scaled.act_bytes_per_sample = static_cast<sim::Bytes>(
        act_bytes_per_sample * factor);
    scaled.data_bytes_per_sample = static_cast<sim::Bytes>(
        data_bytes_per_sample * factor);
    scaled.fwd_ns_per_sample = static_cast<sim::SimDuration>(
        fwd_ns_per_sample * factor);
    return scaled;
}

NetSpec
NetSpec::vgg16()
{
    // 13 convolution layers in 5 stages + 3 fully-connected layers.
    // Activations shrink with depth (pooling); weights concentrate in
    // the deep convs and the first FC layer; compute tracks conv
    // spatial extent.
    NetSpec net;
    net.name = "VGG-16";
    const int convs_per_stage[5] = {2, 2, 3, 3, 3};
    double act = 1.0, weight = 1.0, flops = 1.0;
    for (int stage = 0; stage < 5; ++stage) {
        for (int c = 0; c < convs_per_stage[stage]; ++c) {
            net.layers.push_back({"conv" + std::to_string(stage + 1) +
                                      "_" + std::to_string(c + 1),
                                  weight, act, flops});
        }
        act *= 0.5;      // pooling halves the activation volume
        weight *= 3.0;   // channel counts grow with depth
        flops *= 0.85;
    }
    net.layers.push_back({"fc6", 35.0, 0.01, 0.4});
    net.layers.push_back({"fc7", 6.0, 0.01, 0.1});
    net.layers.push_back({"fc8", 1.5, 0.01, 0.05});
    normalize(net.layers);

    // Anchors: 12.0 GB @ 75 and 21.1 GB @ 150 (Section 7.5).
    net.weight_bytes = static_cast<sim::Bytes>(0.55 * kGB);
    net.workspace_bytes = static_cast<sim::Bytes>(1.80 * kGB);
    net.data_bytes_per_sample = 620'000;  // 224x224x3 fp32 + label
    net.act_bytes_per_sample = static_cast<sim::Bytes>(
        (0.12133 * kGB - net.data_bytes_per_sample) / 2);
    net.fwd_ns_per_sample = sim::microseconds(3400);
    return net;
}

NetSpec
NetSpec::darknet19()
{
    NetSpec net;
    net.name = "Darknet-19";
    double act = 1.0, weight = 1.0;
    for (int i = 0; i < 19; ++i) {
        net.layers.push_back({"conv" + std::to_string(i + 1), weight,
                              act, 1.0});
        if (i % 3 == 2) {
            act *= 0.5;
            weight *= 2.5;
        }
    }
    normalize(net.layers);

    // Anchors: 11.2 GB @ 171 and 23.4 GB @ 360.
    net.weight_bytes = static_cast<sim::Bytes>(0.05 * kGB);
    net.workspace_bytes = static_cast<sim::Bytes>(0.06 * kGB);
    net.data_bytes_per_sample = 620'000;
    net.act_bytes_per_sample = static_cast<sim::Bytes>(
        (0.06455 * kGB - net.data_bytes_per_sample) / 2);
    net.fwd_ns_per_sample = sim::microseconds(900);
    return net;
}

NetSpec
NetSpec::resnet53()
{
    NetSpec net;
    net.name = "ResNet-53";
    // 52 convolution layers in 4 stages plus the stem.
    net.layers.push_back({"stem", 0.2, 2.0, 1.2});
    const int blocks_per_stage[4] = {3, 4, 12, 7};
    double act = 1.0, weight = 1.0;
    for (int stage = 0; stage < 4; ++stage) {
        for (int b = 0; b < blocks_per_stage[stage]; ++b) {
            std::string name = "s";
            name += std::to_string(stage + 1);
            name += 'b';
            name += std::to_string(b + 1);
            net.layers.push_back({name + "_a", weight, act, 1.0});
            net.layers.push_back({name + "_b", weight * 1.5, act, 1.0});
        }
        act *= 0.5;
        weight *= 3.5;
    }
    normalize(net.layers);

    // Anchors: 10.8 GB @ 56 and 28.5 GB @ 150.
    net.weight_bytes = static_cast<sim::Bytes>(0.09 * kGB);
    net.workspace_bytes = static_cast<sim::Bytes>(0.076 * kGB);
    net.data_bytes_per_sample = 620'000;
    net.act_bytes_per_sample = static_cast<sim::Bytes>(
        (0.18831 * kGB - net.data_bytes_per_sample) / 2);
    net.fwd_ns_per_sample = sim::microseconds(4700);
    return net;
}

NetSpec
NetSpec::rnn()
{
    NetSpec net;
    net.name = "RNN";
    // A recurrent net unrolled over time: uniform layers, heavy
    // matrix-multiply compute against small activations — the
    // compute-intensive network of the evaluation.
    for (int i = 0; i < 12; ++i)
        net.layers.push_back({"step" + std::to_string(i + 1), 1.0,
                              1.0, 1.0});
    normalize(net.layers);

    // Anchors: 10.2 GB @ 150 and 20.0 GB @ 300.
    net.weight_bytes = static_cast<sim::Bytes>(0.15 * kGB);
    net.workspace_bytes = static_cast<sim::Bytes>(0.10 * kGB);
    net.data_bytes_per_sample = 64'000;  // text sequences are small
    net.act_bytes_per_sample = static_cast<sim::Bytes>(
        (0.06533 * kGB - net.data_bytes_per_sample) / 2);
    net.fwd_ns_per_sample = sim::microseconds(5200);
    return net;
}

std::vector<NetSpec>
NetSpec::all()
{
    return {vgg16(), darknet19(), resnet53(), rnn()};
}

}  // namespace uvmd::workloads::dl
