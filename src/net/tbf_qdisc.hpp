// tbf: token bucket filter — a single rate-shaped FIFO, the classic tc
// building block for capping a machine's egress (e.g. fencing off a
// fraction of the NIC for non-DL tenants). Tokens accrue at `rate` up to
// `burst`; a chunk may leave while the bucket is non-negative and
// overdraws it by its size, matching the htb leaf semantics.
#pragma once

#include "net/fifo.hpp"
#include "net/qdisc.hpp"

namespace tls::net {

struct TbfConfig {
  Rate rate = mbps(100);
  Bytes burst = 64 * kKiB;
};

class TbfQdisc final : public Qdisc {
 public:
  explicit TbfQdisc(const TbfConfig& config);

  void enqueue(const Chunk& chunk) override;
  DequeueResult dequeue(sim::Time now) override;
  Bytes backlog_bytes() const override { return backlog_bytes_; }
  std::size_t backlog_chunks() const override { return queue_.size(); }
  std::string kind() const override { return "tbf"; }
  void drain(std::vector<Chunk>& out) override;
  const QdiscStats& stats() const override { return stats_; }
  std::string stats_text() const override;

  const TbfConfig& config() const { return config_; }

 private:
  TbfConfig config_;
  Fifo<Chunk> queue_;
  Bytes backlog_bytes_{};
  double tokens_;
  sim::Time last_refill_{};
  QdiscStats stats_;
  ByteLedger ledger_;
};

}  // namespace tls::net
