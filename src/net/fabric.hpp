// The cluster fabric: N hosts on a non-blocking switch (star topology).
//
// Each host owns an egress NIC (with classifier + pluggable qdisc) and an
// ingress NIC (FIFO drain). A flow is segmented into chunks which are
// admitted into the egress qdisc under a delivery-clocked window — the
// stand-in for TCP self-clocking: at most `flow_window` chunks of a flow
// are inside the network at once, and each delivery admits the next chunk.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/fifo.hpp"
#include "net/port.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"

namespace tls::net {

struct FabricConfig {
  int num_hosts = 2;
  Rate link_rate = gbps(10);
  /// One-way switch traversal latency applied between egress and ingress.
  sim::Time switch_latency = 5 * sim::kMicrosecond;
  /// Segmentation unit; smaller chunks raise fidelity and event count.
  Bytes chunk_size = 128 * kKiB;
  /// Base in-network chunk budget per flow (TCP window stand-in). A flow's
  /// actual window is flow_window scaled by its (noisy) weight and clamped
  /// to [1, 4*flow_window]; because a window-limited flow's throughput
  /// through a shared queue is proportional to its window, this gives the
  /// persistent per-flow rate differences real TCP exhibits — which is what
  /// spreads a burst's completions and creates stragglers under FIFO.
  int flow_window = 4;
  /// Sigma of the lognormal per-flow weight noise modelling TCP throughput
  /// unfairness through a shared queue. 0 disables the noise.
  double tcp_weight_sigma = 0.3;
  /// Wire bytes transferred per payload byte, modelling transport
  /// inefficiency: TensorFlow's gRPC path falls well short of line rate
  /// (serialization, framing, TCP/IP overhead — cf. the Poseidon/TicTac
  /// measurements). Set to 1.0 for an ideal transport.
  double protocol_overhead = 1.3;
};

/// Completion record handed to the flow's callback.
struct FlowRecord {
  FlowId id = 0;
  FlowSpec spec{};
  sim::Time start{};
  sim::Time end{};
};

class Fabric {
 public:
  using FlowCallback = std::function<void(const FlowRecord&)>;

  Fabric(sim::Simulator& simulator, const FabricConfig& config);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Starts a transfer; `on_complete` fires (once) when the last byte is
  /// delivered at the destination. Zero-byte flows complete on the next
  /// event dispatch. Returns the flow id.
  FlowId start_flow(const FlowSpec& spec, FlowCallback on_complete);

  int num_hosts() const { return config_.num_hosts; }
  const FabricConfig& config() const { return config_; }

  EgressPort& egress(HostId host);
  const EgressPort& egress(HostId host) const;
  IngressPort& ingress(HostId host);
  const IngressPort& ingress(HostId host) const;

  /// Flows started but not yet fully delivered.
  std::size_t active_flows() const { return flows_.size(); }

  /// Total flows completed since construction.
  std::uint64_t completed_flows() const { return completed_flows_; }

 private:
  struct FlowState {
    FlowSpec spec;
    FlowCallback on_complete;
    double noisy_weight = 1.0;
    int window = 1;
    Bytes wire_bytes{};
    std::uint32_t chunks_total = 0;
    std::uint32_t next_index = 0;       // next chunk to admit
    std::uint32_t delivered_chunks = 0;
    sim::Time start{};
  };

  void admit(FlowId id, FlowState& flow);
  void on_transmit(HostId src, const Chunk& chunk);
  /// Switch-traversal handler: hands the front of `in_switch_` to its
  /// destination ingress port.
  void switch_arrive();
  void on_delivered(const Chunk& chunk);
  Bytes chunk_bytes(const FlowState& flow, std::uint32_t index) const;

  sim::Simulator& sim_;
  FabricConfig config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<EgressPort>> egress_;
  std::vector<std::unique_ptr<IngressPort>> ingress_;
  // Chunks traversing the switch, each with its due arrival time.
  // switch_latency is constant and equal-time events fire in scheduling
  // order, so arrivals pop in push order; holding the chunks here lets the
  // traversal event capture only `this`.
  Fifo<StampedChunk> in_switch_;
  std::unordered_map<FlowId, FlowState> flows_;
  FlowId next_flow_id_ = 1;
  std::uint64_t completed_flows_ = 0;
};

}  // namespace tls::net
