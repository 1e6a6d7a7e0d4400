#include "src/throttle/online_lending.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ebs {

namespace {

constexpr double kBytesPerMB = 1e6;

}  // namespace

OnlineLendingSink::OnlineLendingSink(std::vector<SharingGroup> groups, ThrottleConfig config)
    : groups_(std::move(groups)), config_(config) {
  if (config_.period_steps == 0) {
    throw std::invalid_argument("lending: period_steps must be >= 1");
  }
}

void OnlineLendingSink::OnStart(const Fleet& fleet, size_t /*window_steps*/,
                                double step_seconds) {
  fleet_ = &fleet;
  gains_.clear();
  degraded_steps_seen_ = 0;
  state_.assign(groups_.size(), GroupState{});
  for (size_t g = 0; g < groups_.size(); ++g) {
    GroupState& state = state_[g];
    const size_t n = groups_[g].vds.size();
    state.base_caps.resize(n);
    for (size_t i = 0; i < n; ++i) {
      // Per-step caps: the spec caps scaled by cap_scale and the step length.
      const Vd& disk = fleet.vds[groups_[g].vds[i].value()];
      state.base_caps[i] = {
          disk.throughput_cap_mbps * kBytesPerMB * config_.cap_scale * step_seconds,
          disk.iops_cap * config_.cap_scale * step_seconds};
    }
    state.caps = state.base_caps;
    state.usage.resize(n);
  }
}

void OnlineLendingSink::OnStepComplete(const ReplayStepView& view) {
  // One step of Algorithm 2 for every group (all carried state is per group).
  obs::ScopedTimer timer(step_timer_);
  const size_t t = view.step;
  const double p = config_.lending_rate;
  if (fault_driver_ != nullptr && fault_driver_->StepDegraded(t)) {
    ++degraded_steps_seen_;  // the math below is fault-immune; just flag it
  }

  const auto throttled = [](const Usage& usage, const Caps& caps) {
    return (caps.bytes > 0.0 && usage.Bytes() > caps.bytes) ||
           (caps.ops > 0.0 && usage.Ops() > caps.ops);
  };

  for (size_t g = 0; g < groups_.size(); ++g) {
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
      const RwSeries& offered = view.offered_vd[group.vds[i].value()];
      state.usage[i] = {offered.read_bytes[t], offered.write_bytes[t], offered.read_ops[t],
                        offered.write_ops[t]};
      if (throttled(state.usage[i], state.base_caps[i])) {
        ++state.baseline_throttled;
      }
      if (throttled(state.usage[i], state.caps[i])) {
        ++throttled_now;
        const double overshoot = std::max(
            state.caps[i].bytes > 0.0 ? state.usage[i].Bytes() / state.caps[i].bytes : 0.0,
            state.caps[i].ops > 0.0 ? state.usage[i].Ops() / state.caps[i].ops : 0.0);
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
        ar_bytes += std::max(
            0.0, state.caps[i].bytes - std::min(state.usage[i].Bytes(), state.caps[i].bytes));
        ar_ops += std::max(
            0.0, state.caps[i].ops - std::min(state.usage[i].Ops(), state.caps[i].ops));
      }
      state.caps[worst_index].bytes += p * ar_bytes;
      state.caps[worst_index].ops += p * ar_ops;
      for (size_t i = 0; i < n; ++i) {
        if (i == worst_index) {
          continue;
        }
        const double headroom_bytes =
            std::max(0.0, state.caps[i].bytes - state.usage[i].Bytes());
        const double headroom_ops = std::max(0.0, state.caps[i].ops - state.usage[i].Ops());
        state.caps[i].bytes -= p * headroom_bytes;
        state.caps[i].ops -= p * headroom_ops;
      }
    }
  }
}

void OnlineLendingSink::SetLendingRate(double p) {
  config_.lending_rate = std::clamp(p, 0.0, 1.0);
}

void OnlineLendingSink::OnFinish() {
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
