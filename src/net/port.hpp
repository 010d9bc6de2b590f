// Host NIC ports: the egress side schedules through a pluggable qdisc, the
// ingress side is a plain FIFO drain (receive fan-in contention).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/classifier.hpp"
#include "net/fifo.hpp"
#include "net/qdisc.hpp"
#include "simcore/simulator.hpp"

namespace tls::net {

/// Cumulative byte/chunk counters for one direction of a port; the ifstat
/// analog reads these.
struct PortCounters {
  Bytes bytes{};
  std::uint64_t chunks = 0;
  /// Egress only: the deepest qdisc backlog seen. Ingress leaves it zero.
  Bytes peak_backlog_bytes{};
};

/// Transmit side of a host NIC. Owns the classifier and qdisc; serializes
/// one chunk at a time at the line rate and hands completed chunks to the
/// fabric for delivery.
class EgressPort {
 public:
  using TransmitDone = std::function<void(const Chunk&)>;

  EgressPort(sim::Simulator& simulator, Rate rate, TransmitDone on_transmit);

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  /// Classifies `spec`, stamps the chunk's band, enqueues, and kicks the
  /// link if idle.
  void submit(Chunk chunk, const FlowSpec& spec);

  /// Replaces the queueing discipline. Backlogged chunks are migrated into
  /// the new qdisc in the old one's service order (Linux would drop them;
  /// our transfers are lossless). Migrated chunks keep their band stamp —
  /// the new discipline clamps or default-routes unknown bands.
  void set_qdisc(std::unique_ptr<Qdisc> qdisc);

  Qdisc& qdisc() { return *qdisc_; }
  const Qdisc& qdisc() const { return *qdisc_; }
  Classifier& classifier() { return classifier_; }
  const Classifier& classifier() const { return classifier_; }

  Rate rate() const { return rate_; }
  bool busy() const { return busy_; }
  const PortCounters& counters() const { return counters_; }

  /// Re-polls the qdisc if the link is idle; safe to call any time (the tc
  /// applier calls this after reconfiguration).
  void kick();

  /// Declares which host this port serves (trace track identity) and
  /// propagates the simulator's tracer into the installed qdisc. Called by
  /// the Fabric at wiring time; a port left unwired traces as host -1.
  void set_host(HostId host);
  HostId host() const { return host_; }

  /// Qdisc dequeue polls, idle ones included: one per transmitted chunk
  /// plus each poll that found nothing to send. Kept only for perfbench's
  /// `net.ff_polls` counter, until the benchmark-side cleanup drops it.
  std::uint64_t ff_polls() const { return polls_; }
  /// Always 0. Kept only for perfbench's `net.ff_promotions` counter,
  /// until the benchmark-side cleanup drops it.
  std::uint64_t ff_promotions() const { return 0; }

 private:
  /// Serialization-done handler for the chunk held in `on_wire_`.
  void finish_transmit();
  /// Puts `chunk` on the wire now.
  void start_transmit(const Chunk& chunk);

  sim::Simulator& sim_;
  HostId host_ = kNoHost;
  Rate rate_;
  TransmitDone on_transmit_;
  std::unique_ptr<Qdisc> qdisc_;
  Classifier classifier_;
  bool busy_ = false;
  // The chunk being serialized (meaningful while busy_). The port holds it
  // so the completion event captures only `this` and fits the callback's
  // inline storage instead of allocating per chunk.
  Chunk on_wire_;
  bool retry_armed_ = false;
  sim::EventId retry_event_{};
  PortCounters counters_;
  std::uint64_t polls_ = 0;
  // Byte-conservation bookkeeping: everything submitted is either already
  // transmitted (counters_.bytes), in flight on the wire, or still queued
  // in the qdisc.
  Bytes submitted_bytes_{};
  Bytes in_flight_bytes_{};
};

/// Receive side of a host NIC: FIFO service at line rate, modeling fan-in
/// serialization at the receiver.
class IngressPort {
 public:
  using Delivered = std::function<void(const Chunk&)>;

  IngressPort(sim::Simulator& simulator, Rate rate, Delivered on_delivered);

  IngressPort(const IngressPort&) = delete;
  IngressPort& operator=(const IngressPort&) = delete;

  /// Chunk arrives from the switch; queued behind any chunk in service.
  void arrive(const Chunk& chunk);

  Rate rate() const { return rate_; }
  Bytes backlog_bytes() const { return backlog_bytes_; }
  const PortCounters& counters() const { return counters_; }

  /// Declares which host this port serves (trace track identity). Called
  /// by the Fabric at wiring time; a port left unwired traces as host -1.
  void set_host(HostId host) { host_ = host; }
  HostId host() const { return host_; }

 private:
  void serve_next();
  /// Delivery-done handler for the chunk held in `in_service_`.
  void finish_delivery();

  sim::Simulator& sim_;
  HostId host_ = kNoHost;
  Rate rate_;
  Delivered on_delivered_;
  /// Waiting chunks with their arrival instants (fan-in wait and residence
  /// trace fields derive from them).
  Fifo<StampedChunk> queue_;
  Bytes backlog_bytes_{};
  bool busy_ = false;
  // The chunk being drained (meaningful while busy_), with its arrival
  // instant and fan-in wait; held here, like EgressPort::on_wire_, so the
  // delivery event captures only `this`.
  Chunk in_service_;
  sim::Time in_service_arrived_at_{};
  sim::Time in_service_wait_{};
  PortCounters counters_;
};

}  // namespace tls::net
