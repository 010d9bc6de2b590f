#include "runtime/result_cache.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace tls::runtime {

namespace {

/// Bump whenever canonical_config or the encode_result layout changes, so
/// stale cache files from older schemas read as misses.
constexpr int kResultSchema = 1;

/// Exact textual form of a double: C99 hex-float, round-trips through
/// strtod bit-for-bit.
std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

class Writer {
 public:
  void kv(const char* key, const std::string& value) {
    os_ << key << ' ' << value << '\n';
  }
  void kv(const char* key, double value) { kv(key, hexf(value)); }
  void kv(const char* key, std::int64_t value) {
    os_ << key << ' ' << value << '\n';
  }
  void kv(const char* key, std::uint64_t value) {
    os_ << key << ' ' << value << '\n';
  }
  void kv(const char* key, int value) {
    kv(key, static_cast<std::int64_t>(value));
  }
  void kv(const char* key, bool value) {
    kv(key, static_cast<std::int64_t>(value ? 1 : 0));
  }
  // Strong types flatten to their historical cache encodings (Time and
  // Bytes as int64, Rate as hex-float) so existing cache keys stay valid.
  void kv(const char* key, sim::Time value) { kv(key, sim::to_nanos(value)); }
  void kv(const char* key, net::Bytes value) { kv(key, value.raw()); }
  void kv(const char* key, net::Rate value) { kv(key, value.raw()); }
  std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

/// Token reader over the serialized form. Every read checks the expected
/// key so truncated or reordered files fail fast instead of mis-parsing.
class Reader {
 public:
  explicit Reader(const std::string& text) : is_(text) {}

  bool key(const char* expected) {
    std::string k;
    return (is_ >> k) && k == expected;
  }
  bool value(double* out) {
    std::string tok;
    if (!(is_ >> tok)) return false;
    char* end = nullptr;
    *out = std::strtod(tok.c_str(), &end);
    return end != nullptr && *end == '\0' && end != tok.c_str();
  }
  bool value(std::int64_t* out) { return static_cast<bool>(is_ >> *out); }
  bool value(std::uint64_t* out) { return static_cast<bool>(is_ >> *out); }
  bool value(int* out) { return static_cast<bool>(is_ >> *out); }
  bool value(bool* out) {
    int v = 0;
    if (!(is_ >> v)) return false;
    *out = v != 0;
    return true;
  }
  /// Length-prefixed string: "<len> <raw bytes>"; the single separator
  /// space is consumed, everything after is raw (may contain spaces).
  bool str_value(std::string* out) {
    std::size_t len = 0;
    if (!(is_ >> len)) return false;
    is_.get();  // the separator
    if (len > remaining()) return false;
    out->resize(len);
    is_.read(out->data(), static_cast<std::streamsize>(len));
    return is_.gcount() == static_cast<std::streamsize>(len);
  }
  /// Unread bytes. Each item a count or length announces takes at least
  /// one byte, so a count above this is corrupt and must not size a buffer.
  std::size_t remaining() {
    std::streamsize n = is_.rdbuf()->in_avail();
    return n > 0 ? static_cast<std::size_t>(n) : 0;
  }
  bool kv(const char* k, double* out) { return key(k) && value(out); }
  bool kv(const char* k, std::int64_t* out) { return key(k) && value(out); }
  bool kv(const char* k, std::uint64_t* out) { return key(k) && value(out); }
  bool kv(const char* k, int* out) { return key(k) && value(out); }
  bool kv(const char* k, bool* out) { return key(k) && value(out); }
  bool kv(const char* k, sim::Time* out) {
    std::int64_t v = 0;
    if (!key(k) || !value(&v)) return false;
    *out = sim::from_nanos(v);
    return true;
  }

 private:
  std::istringstream is_;
};

std::string len_prefixed(const std::string& s) {
  return std::to_string(s.size()) + " " + s;
}

void encode_summary(Writer* w, const char* name,
                    const metrics::Summary& s) {
  w->kv(name, static_cast<std::uint64_t>(s.count));
  w->kv("mean", s.mean);
  w->kv("median", s.median);
  w->kv("variance", s.variance);
  w->kv("stddev", s.stddev);
  w->kv("min", s.min);
  w->kv("max", s.max);
  w->kv("p25", s.p25);
  w->kv("p75", s.p75);
  w->kv("p90", s.p90);
  w->kv("p99", s.p99);
}

bool decode_summary(Reader* r, const char* name, metrics::Summary* s) {
  std::uint64_t count = 0;
  if (!r->kv(name, &count)) return false;
  s->count = static_cast<std::size_t>(count);
  return r->kv("mean", &s->mean) && r->kv("median", &s->median) &&
         r->kv("variance", &s->variance) && r->kv("stddev", &s->stddev) &&
         r->kv("min", &s->min) && r->kv("max", &s->max) &&
         r->kv("p25", &s->p25) && r->kv("p75", &s->p75) &&
         r->kv("p90", &s->p90) && r->kv("p99", &s->p99);
}

}  // namespace

// ExperimentConfig::obs is deliberately absent from the encoding:
// observability artifacts never influence the simulation result, and
// RunSet bypasses the cache for obs-enabled runs (a hit would skip the
// artifact writes).
std::string canonical_config(const exp::ExperimentConfig& c) {
  Writer w;
  w.kv("schema", kResultSchema);
  w.kv("num_hosts", c.num_hosts);
  w.kv("cores_per_host", c.cores_per_host);

  w.kv("fabric.num_hosts", c.fabric.num_hosts);
  w.kv("fabric.link_rate", c.fabric.link_rate);
  w.kv("fabric.switch_latency", c.fabric.switch_latency);
  w.kv("fabric.chunk_size", c.fabric.chunk_size);
  w.kv("fabric.flow_window", c.fabric.flow_window);
  w.kv("fabric.tcp_weight_sigma", c.fabric.tcp_weight_sigma);
  w.kv("fabric.protocol_overhead", c.fabric.protocol_overhead);

  w.kv("workload.num_jobs", c.workload.num_jobs);
  w.kv("workload.model.name", len_prefixed(c.workload.model.name));
  w.kv("workload.model.parameters", c.workload.model.parameters);
  w.kv("workload.model.ms_per_sample", c.workload.model.ms_per_sample);
  w.kv("workload.workers_per_job", c.workload.workers_per_job);
  w.kv("workload.ps_per_job", c.workload.ps_per_job);
  w.kv("workload.local_batch_size", c.workload.local_batch_size);
  w.kv("workload.global_step_target", c.workload.global_step_target);
  w.kv("workload.mode", static_cast<int>(c.workload.mode));
  w.kv("workload.compute_sigma", c.workload.compute_sigma);
  w.kv("workload.step_overhead", c.workload.step_overhead);

  w.kv("background", c.background);
  w.kv("background.flows_per_second", c.background_config.flows_per_second);
  w.kv("background.mean_bytes", c.background_config.mean_bytes);
  w.kv("background.port", static_cast<int>(c.background_config.port));

  w.kv("coordinated_transport", c.coordinated_transport);
  w.kv("coordinator.slots_per_host", c.coordinator_config.slots_per_host);
  w.kv("coordinator.coordination_rtt",
       c.coordinator_config.coordination_rtt);

  w.kv("placement.index", c.placement.index);
  w.kv("placement.name", len_prefixed(c.placement.name));
  w.kv("placement.groups",
       static_cast<std::int64_t>(c.placement.group_sizes.size()));
  for (int g : c.placement.group_sizes) w.kv("g", g);

  w.kv("controller.policy", static_cast<int>(c.controller.policy));
  w.kv("controller.strategy", static_cast<int>(c.controller.strategy));
  w.kv("controller.data_plane", static_cast<int>(c.controller.data_plane));
  w.kv("controller.max_bands", c.controller.max_bands);
  w.kv("controller.rotation_interval", c.controller.rotation_interval);
  w.kv("controller.default_class_rate_fraction",
       c.controller.default_class_rate_fraction);
  w.kv("controller.prioritize_gradients", c.controller.prioritize_gradients);

  w.kv("stagger", c.stagger);
  w.kv("seed", c.seed);
  w.kv("nic_sample_period", c.nic_sample_period);
  w.kv("active_window_begin_frac", c.active_window_begin_frac);
  w.kv("active_window_end_frac", c.active_window_end_frac);
  w.kv("time_limit", c.time_limit);
  return w.str();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string code_version_salt() {
#ifdef TLS_CODE_VERSION
  return TLS_CODE_VERSION;
#else
  return "unversioned";
#endif
}

std::string encode_result(const exp::ExperimentResult& r) {
  Writer w;
  w.kv("policy_name", len_prefixed(r.policy_name));
  w.kv("avg_jct_s", r.avg_jct_s);
  w.kv("min_jct_s", r.min_jct_s);
  w.kv("max_jct_s", r.max_jct_s);
  encode_summary(&w, "barrier_mean_summary", r.barrier_mean_summary);
  encode_summary(&w, "barrier_variance_summary", r.barrier_variance_summary);
  w.kv("cpu_util_ps_hosts", r.cpu_util_ps_hosts);
  w.kv("cpu_util_worker_hosts", r.cpu_util_worker_hosts);
  w.kv("nic_in_util", r.nic_in_util);
  w.kv("nic_out_util", r.nic_out_util);
  w.kv("active_window_begin", r.active_window_begin);
  w.kv("active_window_end", r.active_window_end);
  w.kv("tc_commands", r.tc_commands);
  w.kv("rotations", r.rotations);
  w.kv("sim_events", r.sim_events);
  w.kv("sim_horizon_s", r.sim_horizon_s);
  w.kv("all_finished", r.all_finished);
  w.kv("background_flows", r.background_flows);
  w.kv("background_mean_fct_s", r.background_mean_fct_s);
  w.kv("coordinator_grants", r.coordinator_grants);
  w.kv("coordinator_wait_s", r.coordinator_wait_s);
  w.kv("jobs", static_cast<std::int64_t>(r.jobs.size()));
  for (const exp::JobResult& j : r.jobs) {
    w.kv("job_id", static_cast<std::int64_t>(j.job_id));
    w.kv("jct_s", j.jct_s);
    w.kv("iterations", j.iterations);
    w.kv("finished", j.finished);
    w.kv("barriers",
         static_cast<std::int64_t>(j.barrier_mean_waits_s.size()));
    for (double v : j.barrier_mean_waits_s) w.kv("bm", v);
    for (double v : j.barrier_variances_s2) w.kv("bv", v);
  }
  w.kv("end", std::int64_t{1});
  return w.str();
}

bool decode_result(const std::string& text, exp::ExperimentResult* out) {
  Reader r(text);
  exp::ExperimentResult res;
  if (!r.key("policy_name") || !r.str_value(&res.policy_name)) return false;
  if (!r.kv("avg_jct_s", &res.avg_jct_s)) return false;
  if (!r.kv("min_jct_s", &res.min_jct_s)) return false;
  if (!r.kv("max_jct_s", &res.max_jct_s)) return false;
  if (!decode_summary(&r, "barrier_mean_summary", &res.barrier_mean_summary)) {
    return false;
  }
  if (!decode_summary(&r, "barrier_variance_summary",
                      &res.barrier_variance_summary)) {
    return false;
  }
  if (!r.kv("cpu_util_ps_hosts", &res.cpu_util_ps_hosts)) return false;
  if (!r.kv("cpu_util_worker_hosts", &res.cpu_util_worker_hosts)) {
    return false;
  }
  if (!r.kv("nic_in_util", &res.nic_in_util)) return false;
  if (!r.kv("nic_out_util", &res.nic_out_util)) return false;
  if (!r.kv("active_window_begin", &res.active_window_begin)) return false;
  if (!r.kv("active_window_end", &res.active_window_end)) return false;
  if (!r.kv("tc_commands", &res.tc_commands)) return false;
  if (!r.kv("rotations", &res.rotations)) return false;
  if (!r.kv("sim_events", &res.sim_events)) return false;
  if (!r.kv("sim_horizon_s", &res.sim_horizon_s)) return false;
  if (!r.kv("all_finished", &res.all_finished)) return false;
  if (!r.kv("background_flows", &res.background_flows)) return false;
  if (!r.kv("background_mean_fct_s", &res.background_mean_fct_s)) {
    return false;
  }
  if (!r.kv("coordinator_grants", &res.coordinator_grants)) return false;
  if (!r.kv("coordinator_wait_s", &res.coordinator_wait_s)) return false;

  std::int64_t jobs = 0;
  if (!r.kv("jobs", &jobs) || jobs < 0 ||
      static_cast<std::uint64_t>(jobs) > r.remaining()) {
    return false;
  }
  res.jobs.reserve(static_cast<std::size_t>(jobs));
  for (std::int64_t i = 0; i < jobs; ++i) {
    exp::JobResult j;
    std::int64_t id = 0;
    if (!r.kv("job_id", &id)) return false;
    j.job_id = static_cast<std::int32_t>(id);
    if (!r.kv("jct_s", &j.jct_s)) return false;
    if (!r.kv("iterations", &j.iterations)) return false;
    if (!r.kv("finished", &j.finished)) return false;
    std::int64_t barriers = 0;
    if (!r.kv("barriers", &barriers) || barriers < 0 ||
        static_cast<std::uint64_t>(barriers) > r.remaining()) {
      return false;
    }
    j.barrier_mean_waits_s.resize(static_cast<std::size_t>(barriers));
    j.barrier_variances_s2.resize(static_cast<std::size_t>(barriers));
    for (double& v : j.barrier_mean_waits_s) {
      if (!r.kv("bm", &v)) return false;
    }
    for (double& v : j.barrier_variances_s2) {
      if (!r.kv("bv", &v)) return false;
    }
    res.jobs.push_back(std::move(j));
  }
  std::int64_t sentinel = 0;
  if (!r.kv("end", &sentinel) || sentinel != 1) return false;
  *out = std::move(res);
  return true;
}

ResultCache::ResultCache(std::filesystem::path dir, std::string salt)
    : dir_(std::move(dir)), salt_(std::move(salt)) {}

std::string ResultCache::key(const exp::ExperimentConfig& config) const {
  std::string canonical = salt_ + "\n" + canonical_config(config);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fnv1a64(canonical));
  return buf;
}

std::filesystem::path ResultCache::path_for(const std::string& key) const {
  return dir_ / (key + ".result");
}

std::optional<exp::ExperimentResult> ResultCache::load(
    const exp::ExperimentConfig& config) const {
  std::ifstream in(path_for(key(config)), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();

  Reader header(text);
  std::string salt, stored_config;
  if (!header.key("tls-result-cache")) return std::nullopt;
  int schema = 0;
  if (!header.value(&schema) || schema != kResultSchema) return std::nullopt;
  if (!header.key("salt") || !header.str_value(&salt) || salt != salt_) {
    return std::nullopt;
  }
  if (!header.key("config") || !header.str_value(&stored_config) ||
      stored_config != canonical_config(config)) {
    // Hash collision or schema drift: treat as a miss, never trust it.
    return std::nullopt;
  }
  std::size_t result_at = text.find("\nresult\n");
  if (result_at == std::string::npos) return std::nullopt;
  exp::ExperimentResult result;
  if (!decode_result(text.substr(result_at + 8), &result)) return std::nullopt;
  return result;
}

bool ResultCache::store(const exp::ExperimentConfig& config,
                        const exp::ExperimentResult& result) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;

  Writer header;
  header.kv("tls-result-cache", kResultSchema);
  header.kv("salt", len_prefixed(salt_));
  header.kv("config", len_prefixed(canonical_config(config)));
  std::string payload = header.str() + "result\n" + encode_result(result);

  std::string k = key(config);
  // Unique temp name per (process, key); a racing writer of the same key
  // writes identical bytes, and rename() makes whichever lands last win
  // atomically.
  std::filesystem::path tmp =
      dir_ / (k + ".tmp." + std::to_string(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << payload;
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path_for(k), ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace tls::runtime
