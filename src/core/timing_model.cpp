#include "core/timing_model.hpp"

#include <cmath>

#include "support/contract.hpp"

namespace speedqm {

std::size_t TimingModel::idx(ActionIndex i, Quality q) const {
  SPEEDQM_REQUIRE(i < n_, "TimingModel: action index out of range");
  SPEEDQM_REQUIRE(valid_quality(q), "TimingModel: quality out of range");
  return i * static_cast<std::size_t>(nq_) + static_cast<std::size_t>(q);
}

std::size_t TimingModel::pidx(StateIndex i, Quality q) const {
  SPEEDQM_REQUIRE(i <= n_, "TimingModel: prefix index out of range");
  SPEEDQM_REQUIRE(valid_quality(q), "TimingModel: quality out of range");
  return i * static_cast<std::size_t>(nq_) + static_cast<std::size_t>(q);
}

TimingModel::TimingModel(ActionIndex num_actions, int num_levels,
                         std::vector<TimeNs> cav, std::vector<TimeNs> cwc)
    : n_(num_actions), nq_(num_levels), cav_(std::move(cav)), cwc_(std::move(cwc)) {
  SPEEDQM_REQUIRE(n_ > 0, "TimingModel: need at least one action");
  SPEEDQM_REQUIRE(nq_ > 0, "TimingModel: need at least one quality level");
  const std::size_t expected = n_ * static_cast<std::size_t>(nq_);
  SPEEDQM_REQUIRE(cav_.size() == expected, "TimingModel: cav size mismatch");
  SPEEDQM_REQUIRE(cwc_.size() == expected, "TimingModel: cwc size mismatch");
  for (ActionIndex i = 0; i < n_; ++i) {
    for (Quality q = 0; q < nq_; ++q) {
      const std::size_t k = idx(i, q);
      SPEEDQM_REQUIRE(cav_[k] >= 0, "TimingModel: Cav must be non-negative");
      SPEEDQM_REQUIRE(cav_[k] <= cwc_[k], "TimingModel: requires Cav <= Cwc");
      if (q > 0) {
        SPEEDQM_REQUIRE(cav_[k] >= cav_[k - 1],
                        "TimingModel: Cav must be non-decreasing with quality");
        SPEEDQM_REQUIRE(cwc_[k] >= cwc_[k - 1],
                        "TimingModel: Cwc must be non-decreasing with quality");
      }
    }
  }
  build_prefixes();
}

void TimingModel::build_prefixes() {
  // One pass over the rows fills the prefix sums and the quality-major
  // mirrors for the decision hot path (one contiguous run of actions per
  // quality level); a second, backward pass the qmin suffix sums.
  const auto nq = static_cast<std::size_t>(nq_);
  cav_prefix_.resize((n_ + 1) * nq);
  cwc_prefix_.resize((n_ + 1) * nq);
  cav_by_q_.resize(nq * n_);
  cwc_by_q_.resize(nq * n_);
  cwc_qmin_suffix_.resize(n_ + 1);
  const TimeNs* cav = cav_.data();
  const TimeNs* cwc = cwc_.data();
  TimeNs* cav_prefix = cav_prefix_.data();
  TimeNs* cwc_prefix = cwc_prefix_.data();
  TimeNs* cav_by_q = cav_by_q_.data();
  TimeNs* cwc_by_q = cwc_by_q_.data();
  for (ActionIndex i = 0; i < n_; ++i) {
    for (std::size_t q = 0; q < nq; ++q) {
      const std::size_t k = i * nq + q;
      cav_prefix[k + nq] = cav_prefix[k] + cav[k];
      cwc_prefix[k + nq] = cwc_prefix[k] + cwc[k];
      cav_by_q[q * n_ + i] = cav[k];
      cwc_by_q[q * n_ + i] = cwc[k];
    }
  }
  TimeNs* suffix = cwc_qmin_suffix_.data();
  for (ActionIndex i = n_; i-- > 0;) suffix[i] = suffix[i + 1] + cwc[i * nq];
}

TimeNs TimingModel::cav_range(ActionIndex first, ActionIndex last, Quality q) const {
  if (first > last) return 0;
  SPEEDQM_REQUIRE(last < n_, "cav_range: last out of range");
  return cav_prefix(last + 1, q) - cav_prefix(first, q);
}

TimeNs TimingModel::cwc_range(ActionIndex first, ActionIndex last, Quality q) const {
  if (first > last) return 0;
  SPEEDQM_REQUIRE(last < n_, "cwc_range: last out of range");
  return cwc_prefix(last + 1, q) - cwc_prefix(first, q);
}

TimingModel TimingModel::with_inflated_cwc(double factor) const {
  SPEEDQM_REQUIRE(factor >= 1.0, "with_inflated_cwc: factor must be >= 1");
  std::vector<TimeNs> cwc2(cwc_.size());
  for (std::size_t k = 0; k < cwc_.size(); ++k) {
    cwc2[k] = static_cast<TimeNs>(std::llround(static_cast<double>(cwc_[k]) * factor));
  }
  return TimingModel(n_, nq_, cav_, std::move(cwc2));
}

TimingModel TimingModel::slice(ActionIndex first, ActionIndex last) const {
  SPEEDQM_REQUIRE(first <= last && last < n_, "slice: bad action range");
  const auto nq = static_cast<std::size_t>(nq_);
  std::vector<TimeNs> cav2(cav_.begin() + static_cast<std::ptrdiff_t>(first * nq),
                           cav_.begin() + static_cast<std::ptrdiff_t>((last + 1) * nq));
  std::vector<TimeNs> cwc2(cwc_.begin() + static_cast<std::ptrdiff_t>(first * nq),
                           cwc_.begin() + static_cast<std::ptrdiff_t>((last + 1) * nq));
  return TimingModel(last - first + 1, nq_, std::move(cav2), std::move(cwc2));
}

TimingModelBuilder::TimingModelBuilder(int num_levels) : nq_(num_levels) {
  SPEEDQM_REQUIRE(nq_ > 0, "TimingModelBuilder: need at least one quality level");
}

TimingModelBuilder& TimingModelBuilder::action(const std::vector<TimeNs>& cav,
                                               const std::vector<TimeNs>& cwc) {
  SPEEDQM_REQUIRE(cav.size() == static_cast<std::size_t>(nq_),
                  "TimingModelBuilder: cav arity mismatch");
  SPEEDQM_REQUIRE(cwc.size() == static_cast<std::size_t>(nq_),
                  "TimingModelBuilder: cwc arity mismatch");
  cav_.insert(cav_.end(), cav.begin(), cav.end());
  cwc_.insert(cwc_.end(), cwc.begin(), cwc.end());
  ++count_;
  return *this;
}

TimingModelBuilder& TimingModelBuilder::linear_action(TimeNs cav_min, TimeNs cav_max,
                                                      double wc_factor) {
  SPEEDQM_REQUIRE(cav_min >= 0 && cav_max >= cav_min,
                  "linear_action: requires 0 <= cav_min <= cav_max");
  SPEEDQM_REQUIRE(wc_factor >= 1.0, "linear_action: wc_factor must be >= 1");
  std::vector<TimeNs> cav(static_cast<std::size_t>(nq_));
  std::vector<TimeNs> cwc(static_cast<std::size_t>(nq_));
  for (int q = 0; q < nq_; ++q) {
    const double frac = nq_ == 1 ? 0.0 : static_cast<double>(q) / (nq_ - 1);
    const double c = static_cast<double>(cav_min) +
                     frac * static_cast<double>(cav_max - cav_min);
    cav[static_cast<std::size_t>(q)] = static_cast<TimeNs>(std::llround(c));
    cwc[static_cast<std::size_t>(q)] = static_cast<TimeNs>(std::llround(c * wc_factor));
  }
  return action(cav, cwc);
}

TimingModel TimingModelBuilder::build() && {
  return TimingModel(count_, nq_, std::move(cav_), std::move(cwc_));
}

}  // namespace speedqm
