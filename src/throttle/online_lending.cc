#include "src/throttle/online_lending.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ebs {

OnlineLendingSink::OnlineLendingSink(std::vector<SharingGroup> groups, ThrottleConfig config)
    : groups_(std::move(groups)), config_(config) {
  if (config_.period_steps == 0) {
    throw std::invalid_argument("lending: period_steps must be >= 1");
  }
  if (!(config_.lending_rate >= 0.0 && config_.lending_rate <= 1.0)) {
    throw std::invalid_argument("lending: lending_rate must be in [0, 1]");
  }
  CheckCapScale(config_.cap_scale);
}

void OnlineLendingSink::OnStart(const Fleet& fleet, size_t /*window_steps*/,
                                double step_seconds) {
  gains_.clear();
  degraded_steps_seen_ = 0;
  offered_ = nullptr;
  pending_begin_ = 0;
  pending_end_ = 0;
  size_t largest = 0;
  state_.assign(groups_.size(), GroupState{});
  for (size_t g = 0; g < groups_.size(); ++g) {
    GroupState& state = state_[g];
    const size_t n = groups_[g].vds.size();
    state.base_caps.resize(n);
    for (size_t i = 0; i < n; ++i) {
      state.base_caps[i] =
          StepCapsOf(fleet.vds[groups_[g].vds[i].value()], config_.cap_scale, step_seconds);
    }
    state.caps = state.base_caps;
    largest = std::max(largest, n);
  }
  usage_.assign(largest, Usage{});
}

void OnlineLendingSink::OnStepComplete(const ReplayStepView& view) {
  obs::ScopedTimer timer(step_timer_);
  if (fault_driver_ != nullptr && fault_driver_->StepDegraded(view.step)) {
    ++degraded_steps_seen_;  // the math is fault-immune; just flag it
  }
  offered_ = &view.offered_vd;
  pending_end_ = view.step + 1;
  if (pending_end_ % config_.period_steps == 0) {
    Flush();
  }
}

void OnlineLendingSink::Flush() {
  if (pending_begin_ == pending_end_) {
    return;
  }
  // Algorithm 2 over the pending steps, group by group: all carried state is
  // per group, so the order across groups does not matter, only each group's
  // step order. The rate is fixed while steps are pending (SetLendingRate
  // flushes first).
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (size_t t = pending_begin_; t < pending_end_; ++t) {
      StepGroup(g, t);
    }
  }
  pending_begin_ = pending_end_;
}

void OnlineLendingSink::StepGroup(size_t g, size_t t) {
  const auto throttled = [](const Usage& usage, const StepCaps& caps) {
    return (caps.bytes > 0.0 && usage.Bytes() > caps.bytes) ||
           (caps.ops > 0.0 && usage.Ops() > caps.ops);
  };
  const double p = config_.lending_rate;
  const SharingGroup& group = groups_[g];
  GroupState& state = state_[g];
  const size_t n = group.vds.size();

  if (t % config_.period_steps == 0) {
    state.caps = state.base_caps;
    state.lent_this_period = false;
  }

  size_t throttled_now = 0;
  double worst_overshoot = 0.0;
  size_t worst_index = n;
  for (size_t i = 0; i < n; ++i) {
    const RwSeries& offered = (*offered_)[group.vds[i].value()];
    usage_[i] = {offered.read_bytes[t], offered.write_bytes[t], offered.read_ops[t],
                 offered.write_ops[t]};
    if (throttled(usage_[i], state.base_caps[i])) {
      ++state.baseline_throttled;
    }
    if (throttled(usage_[i], state.caps[i])) {
      ++throttled_now;
      const double overshoot = std::max(
          state.caps[i].bytes > 0.0 ? usage_[i].Bytes() / state.caps[i].bytes : 0.0,
          state.caps[i].ops > 0.0 ? usage_[i].Ops() / state.caps[i].ops : 0.0);
      if (overshoot > worst_overshoot) {
        worst_overshoot = overshoot;
        worst_index = i;
      }
    }
  }
  state.lending_throttled += throttled_now;

  if (!state.lent_this_period && worst_index < n) {
    state.lent_this_period = true;
    double ar_bytes = 0.0;
    double ar_ops = 0.0;
    for (size_t i = 0; i < n; ++i) {
      ar_bytes +=
          std::max(0.0, state.caps[i].bytes - std::min(usage_[i].Bytes(), state.caps[i].bytes));
      ar_ops += std::max(0.0, state.caps[i].ops - std::min(usage_[i].Ops(), state.caps[i].ops));
    }
    state.caps[worst_index].bytes += p * ar_bytes;
    state.caps[worst_index].ops += p * ar_ops;
    for (size_t i = 0; i < n; ++i) {
      if (i == worst_index) {
        continue;
      }
      const double headroom_bytes = std::max(0.0, state.caps[i].bytes - usage_[i].Bytes());
      const double headroom_ops = std::max(0.0, state.caps[i].ops - usage_[i].Ops());
      state.caps[i].bytes -= p * headroom_bytes;
      state.caps[i].ops -= p * headroom_ops;
    }
  }
}

void OnlineLendingSink::SetLendingRate(double p) {
  if (std::isnan(p)) {
    throw std::invalid_argument("lending: lending rate must not be NaN");
  }
  Flush();  // the pending steps ran under the old rate
  config_.lending_rate = std::clamp(p, 0.0, 1.0);
}

void OnlineLendingSink::OnFinish() {
  Flush();  // a trailing partial period's throttled seconds still count
  gains_.clear();
  for (const GroupState& state : state_) {
    if (state.baseline_throttled + state.lending_throttled > 0) {
      gains_.push_back((static_cast<double>(state.baseline_throttled) -
                        static_cast<double>(state.lending_throttled)) /
                       static_cast<double>(state.baseline_throttled + state.lending_throttled));
    }
  }
}

uint64_t OnlineLendingSink::baseline_throttled_seconds() const {
  uint64_t total = 0;
  for (const GroupState& state : state_) {
    total += state.baseline_throttled;
  }
  return total;
}

uint64_t OnlineLendingSink::lending_throttled_seconds() const {
  uint64_t total = 0;
  for (const GroupState& state : state_) {
    total += state.lending_throttled;
  }
  return total;
}

}  // namespace ebs
