// Tests for the content-addressed result cache: exact round-trip of a real
// ExperimentResult through encode/decode (hex-float doubles), key
// sensitivity to every kind of config change, salt isolation between code
// versions, and graceful behavior on missing/corrupt files.
#include "runtime/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "exp/experiment.hpp"
#include "exp/export.hpp"
#include "temp_dir.hpp"

namespace tls::runtime {
namespace {

namespace fs = std::filesystem;

exp::ExperimentConfig tiny_config() {
  exp::ExperimentConfig c;
  c.num_hosts = 4;
  c.workload.num_jobs = 4;
  c.workload.workers_per_job = 3;
  c.workload.local_batch_size = 1;
  c.workload.global_step_target = 3L * 4;
  c.placement = cluster::table1(1, 4);
  c.controller.policy = core::PolicyKind::kTlsOne;
  c.seed = 11;
  return c;
}

std::string full_export(const exp::ExperimentResult& r) {
  return exp::jobs_csv(r) + "\n" + exp::barriers_csv(r) + "\n" +
         exp::to_json(r);
}

/// Fresh per-test cache directory.
fs::path temp_cache_dir(const char* name) {
  fs::path dir = tls::testutil::temp_dir() / "tls_cache_test" / name;
  fs::remove_all(dir);
  return dir;
}

TEST(Fnv1a64, MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a64("tls"), fnv1a64("tlt"));
}

TEST(CanonicalConfig, CoversEveryDistinguishingField) {
  exp::ExperimentConfig base = tiny_config();
  std::string canon = canonical_config(base);
  EXPECT_FALSE(canon.empty());
  // Identical configs canonicalize identically.
  EXPECT_EQ(canon, canonical_config(tiny_config()));

  // A representative knob from each layer must change the serialization —
  // a field the canonicalizer missed would silently share a cache slot.
  auto differs = [&](auto mutate) {
    exp::ExperimentConfig m = tiny_config();
    mutate(m);
    return canonical_config(m) != canon;
  };
  EXPECT_TRUE(differs([](auto& c) { c.seed = 12; }));
  EXPECT_TRUE(differs([](auto& c) { c.num_hosts = 5; }));
  EXPECT_TRUE(differs(
      [](auto& c) { c.controller.policy = core::PolicyKind::kTlsRR; }));
  EXPECT_TRUE(differs([](auto& c) { c.controller.max_bands += 1; }));
  EXPECT_TRUE(differs([](auto& c) { c.workload.local_batch_size = 2; }));
  EXPECT_TRUE(differs([](auto& c) { c.workload.compute_sigma += 0.001; }));
  EXPECT_TRUE(differs([](auto& c) { c.fabric.link_rate = c.fabric.link_rate * 2.0; }));
  EXPECT_TRUE(differs([](auto& c) { c.placement = cluster::table1(2, 4); }));
  EXPECT_TRUE(differs([](auto& c) { c.background = true; }));
  EXPECT_TRUE(differs([](auto& c) { c.coordinated_transport = true; }));
}

TEST(ResultCache, EncodeDecodeRoundTripsExactly) {
  exp::ExperimentResult r = exp::run_experiment(tiny_config());
  exp::ExperimentResult decoded;
  ASSERT_TRUE(decode_result(encode_result(r), &decoded));
  // Byte-identical through every export surface — the determinism contract
  // must survive a cache round-trip, doubles included.
  EXPECT_EQ(full_export(r), full_export(decoded));
  EXPECT_EQ(r.sim_events, decoded.sim_events);
  EXPECT_EQ(r.tc_commands, decoded.tc_commands);
  EXPECT_EQ(r.policy_name, decoded.policy_name);
}

TEST(ResultCache, DecodeRejectsTruncatedInput) {
  exp::ExperimentResult r = exp::run_experiment(tiny_config());
  std::string text = encode_result(r);
  exp::ExperimentResult out;
  EXPECT_FALSE(decode_result(text.substr(0, text.size() / 2), &out));
  EXPECT_FALSE(decode_result("", &out));
  EXPECT_FALSE(decode_result("not a result", &out));
}

TEST(ResultCache, MissOnEmptyCacheThenHitAfterStore) {
  ResultCache cache(temp_cache_dir("store"), "salt-v1");
  exp::ExperimentConfig config = tiny_config();
  EXPECT_FALSE(cache.load(config).has_value());

  exp::ExperimentResult r = exp::run_experiment(config);
  ASSERT_TRUE(cache.store(config, r));
  auto hit = cache.load(config);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(full_export(r), full_export(*hit));

  // A different config (seed bump) still misses.
  exp::ExperimentConfig other = config;
  other.seed += 1;
  EXPECT_FALSE(cache.load(other).has_value());
}

TEST(ResultCache, DifferentSaltNeverCrossContaminates) {
  fs::path dir = temp_cache_dir("salt");
  exp::ExperimentConfig config = tiny_config();
  exp::ExperimentResult r = exp::run_experiment(config);
  ResultCache old_code(dir, "rev-aaa");
  ASSERT_TRUE(old_code.store(config, r));
  // Same directory, new code version: the old entry must not be served.
  ResultCache new_code(dir, "rev-bbb");
  EXPECT_FALSE(new_code.load(config).has_value());
  EXPECT_NE(old_code.key(config), new_code.key(config));
}

TEST(ResultCache, CorruptFileDegradesToMiss) {
  fs::path dir = temp_cache_dir("corrupt");
  ResultCache cache(dir, "salt-v1");
  exp::ExperimentConfig config = tiny_config();
  ASSERT_TRUE(cache.store(config, exp::run_experiment(config)));
  // Truncate the stored file in place.
  fs::path file = dir / (cache.key(config) + ".result");
  ASSERT_TRUE(fs::exists(file));
  std::ofstream(file, std::ios::trunc) << "garbage";
  EXPECT_FALSE(cache.load(config).has_value());

  // A count or length prefix far beyond the entry's size must read as a
  // miss, not size a buffer from it (std::length_error / bad_alloc).
  for (const char* key : {"jobs", "barriers", "salt"}) {
    ASSERT_TRUE(cache.store(config, exp::run_experiment(config)));
    std::string text;
    {
      std::ifstream in(file, std::ios::binary);
      text.assign(std::istreambuf_iterator<char>(in), {});
    }
    std::string field = "\n" + std::string(key) + " ";
    std::size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << key;
    at += field.size();
    std::size_t digits = text.find_first_not_of("0123456789", at) - at;
    ASSERT_GT(digits, 0u) << key;
    text.replace(at, digits, "999999999999999999");
    std::ofstream(file, std::ios::binary | std::ios::trunc) << text;
    EXPECT_FALSE(cache.load(config).has_value()) << key;
  }
}

TEST(ResultCache, StoreFailureReturnsFalseNotThrow) {
  // A directory path that cannot be created (parent is a regular file).
  fs::path dir = temp_cache_dir("blocked");
  fs::create_directories(dir.parent_path());
  std::ofstream(dir.string()) << "occupied";
  ResultCache cache(dir / "sub", "salt-v1");
  exp::ExperimentConfig config = tiny_config();
  EXPECT_FALSE(cache.store(config, exp::run_experiment(config)));
  EXPECT_FALSE(cache.load(config).has_value());
}

}  // namespace
}  // namespace tls::runtime
