#include "digest.hpp"

#include <cstring>
#include <string>

namespace perfbench {

using namespace speedqm;

namespace {

/// FNV-1a over the byte images of the folded values.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void fold_histogram(Fnv& h, const SloHistogram& hist) {
  h.u64(hist.total_count());
  for (std::size_t b = 0; b < SloHistogram::kNumBuckets; ++b) {
    if (hist.count_at(b) != 0) {
      h.u64(b);
      h.u64(hist.count_at(b));
    }
  }
}

void fold_run(Fnv& h, const RunSummary& r) {
  h.str(r.manager);
  h.f64(r.mean_quality);
  h.f64(r.overhead_pct);
  h.f64(r.mean_overhead_per_action_us);
  h.u64(r.total_steps);
  h.u64(r.manager_calls);
  h.u64(r.deadline_misses);
  h.u64(r.infeasible);
  h.u64(r.total_ops);
  h.f64(r.total_time_s);
  h.u64(r.cycles_seen);
  fold_histogram(h, r.decision_latency_ns);
  for (const std::size_t n : r.relax_histogram) h.u64(n);
}

}  // namespace

std::uint64_t digest(const ServingSummary& s) {
  Fnv h;
  h.u64(s.admissions.size());
  for (const AdmissionDecision& a : s.admissions) {
    h.u64(a.task);
    h.u64(a.cycle);
    h.u64(a.admitted ? 1 : 0);
    h.u64(a.shard);
    h.i64(a.slack);
    h.i64(a.price);
    h.str(a.reason);
  }
  h.u64(s.leaves);
  h.u64(s.shards.size());
  for (const ShardReport& shard : s.shards) {
    h.u64(shard.shard);
    h.u64(shard.members.size());
    for (const std::size_t m : shard.members) h.u64(m);
    fold_run(h, shard.summary);
    h.i64(shard.clock);
    h.u64(shard.epochs);
    h.u64(shard.rebuilds);
  }
  h.u64(s.total_steps);
  h.u64(s.total_ops);
  h.u64(s.deadline_misses);
  h.f64(s.mean_quality);
  h.f64(s.deadline_miss_rate);
  h.u64(s.frontend_requests);
  h.u64(s.frontend_applied);
  h.u64(s.frontend_dropped);
  h.u64(s.frontend_late);
  h.u64(s.frontend_pending);
  fold_histogram(h, s.queue_wait_cycles);
  return h.value();
}

}  // namespace perfbench
