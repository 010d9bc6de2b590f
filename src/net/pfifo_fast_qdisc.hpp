// pfifo_fast: the actual Linux default qdisc — three strict-priority FIFO
// bands selected by the packet's priority field through a priomap, not by
// filters (pfifo_fast is classless). We map our flow kinds the way the
// default priomap maps TOS: interactive/control traffic to band 0, normal
// best-effort (model and gradient updates) to band 1, bulk to band 2.
// Within a band, service is strict arrival order — which is why per-job
// bursts interleave and the paper's stragglers appear.
#pragma once

#include <array>

#include "net/fifo.hpp"
#include "net/qdisc.hpp"

namespace tls::net {

class PfifoFastQdisc final : public Qdisc {
 public:
  static constexpr int kBands = 3;

  PfifoFastQdisc() = default;

  /// Band for a flow kind under the default priomap.
  static int priomap(FlowKind kind);

  void enqueue(const Chunk& chunk) override;
  DequeueResult dequeue(sim::Time now) override;
  Bytes backlog_bytes() const override;
  std::size_t backlog_chunks() const override;
  std::string kind() const override { return "pfifo_fast"; }
  void drain(std::vector<Chunk>& out) override;
  const QdiscStats& stats() const override { return stats_; }
  std::string stats_text() const override;

  Bytes band_backlog(int band) const {
    return band_bytes_.at(static_cast<std::size_t>(band));
  }

 private:
  std::array<Fifo<Chunk>, kBands> bands_;
  std::array<Bytes, kBands> band_bytes_{};
  QdiscStats stats_;
  ByteLedger ledger_;
};

}  // namespace tls::net
