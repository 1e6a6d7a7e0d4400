#include "src/control/plane.h"

#include "src/throttle/throttle.h"

namespace ebs {
namespace control {

namespace {

ThrottleConfig LendingThrottleConfig(const ControlConfig& config) {
  ThrottleConfig throttle;
  throttle.cap_scale = config.throttle_cap_scale;
  throttle.lending_rate = config.base_lending_rate;
  throttle.period_steps = config.period_steps;
  return throttle;
}

}  // namespace

ControlPlane::ControlPlane(const Fleet& fleet, const ControlConfig& config,
                           qmodel::QueueModelSink* qmodel)
    : fleet_(fleet),
      config_(config),
      qmodel_(qmodel),
      lending_(MultiVdVmGroups(fleet), LendingThrottleConfig(config)),
      cache_(config.cache_policy, config.cache_block_bytes),
      // CoV windows align with control periods, so each period boundary reads
      // the window that closed at that very step.
      wt_cov_(OpType::kWrite, config.period_steps),
      actuator_(fleet),
      fault_response_(config_, &actuator_),
      migration_(config_, &actuator_),
      lending_policy_(config_),
      cache_admission_(config_) {}

std::vector<ReplaySink*> ControlPlane::Sinks() { return {&lending_, &cache_, &wt_cov_, this}; }

void ControlPlane::set_fault_driver(const FaultDriver* driver) {
  fault_driver_ = driver;
  lending_.set_fault_driver(driver);
  wt_cov_.set_fault_driver(driver);
}

void ControlPlane::OnStart(const Fleet& /*fleet*/, size_t /*window_steps*/,
                           double step_seconds) {
  step_seconds_ = step_seconds;
  period_begin_step_ = 0;
  prev_slo_violations_ = 0;
  vd_offered_acc_.assign(fleet_.vds.size(), 0.0);
  log_ = DecisionLog();
  periods_evaluated_ = 0;
  fault_response_.OnStart(fleet_);
  migration_.OnStart(fleet_);
  lending_policy_.OnStart(fleet_);
  cache_admission_.OnStart(fleet_);
}

void ControlPlane::OnStepComplete(const ReplayStepView& view) {
  const size_t step = view.step;
  if ((step + 1 - period_begin_step_) < config_.period_steps) {
    return;  // period still open; a trailing partial period never decides
  }

  // Every column of the period is final now (<= view.step), so each row is
  // swept once, front to back. Each total starts at 0.0 and adds read + write
  // in ascending step order; the decision-log goldens pin that order.
  const size_t begin = period_begin_step_;
  for (size_t vd = 0; vd < view.offered_vd.size(); ++vd) {
    const RwSeries& series = view.offered_vd[vd];
    double bytes = 0.0;
    for (size_t t = begin; t <= step; ++t) {
      bytes += series.read_bytes[t] + series.write_bytes[t];
    }
    vd_offered_acc_[vd] = bytes;
  }
  // Each segment cell is read from its VD's delivered column times the
  // segment's weight; the entries are in ascending id order.
  segment_bytes_.clear();
  const SegmentSeriesMap& segments = view.segments;
  for (size_t i = 0; i < segments.size(); ++i) {
    const SegmentView segment = segments[i];
    double bytes = 0.0;
    for (size_t t = begin; t <= step; ++t) {
      bytes += segment.Bytes(OpType::kRead, t) + segment.Bytes(OpType::kWrite, t);
    }
    if (bytes > 0.0) {
      segment_bytes_.emplace_back(segment.id, bytes);
    }
  }

  ControlSignal signal;
  signal.period = static_cast<uint32_t>(periods_evaluated_);
  signal.step_begin = period_begin_step_;
  signal.step_end = static_cast<uint32_t>(step + 1);
  signal.step_seconds = step_seconds_;
  signal.vd_offered_bytes = &vd_offered_acc_;
  signal.segment_bytes = &segment_bytes_;
  // The WT-CoV sink ran this step before the plane: its window closed here.
  signal.wt_cov = wt_cov_.LatestWindowMeanCov();

  down_bs_.clear();
  if (fault_driver_ != nullptr && fault_driver_->armed()) {
    for (uint32_t bs = 0; bs < fleet_.block_servers.size(); ++bs) {
      if (fault_driver_->BlockServerDown(step, BlockServerId(bs))) {
        down_bs_.push_back(bs);
      }
    }
  }
  signal.down_bs = &down_bs_;

  if (qmodel_ != nullptr) {
    if (qmodel::QueueSimulator* simulator = qmodel_->simulator()) {
      // Settle the queueing model to this boundary's virtual time so the
      // interim counters cover exactly the completed periods. Legal because
      // the event heap's total order fixes processing order regardless of
      // when the drain happens.
      simulator->AdvanceTo(static_cast<double>(step + 1) * step_seconds_ * 1e6);
      const qmodel::QueueInterimStats interim = simulator->Interim();
      signal.qmodel.enabled = true;
      signal.qmodel.events = interim.events;
      signal.qmodel.slo_violations = interim.slo_violations;
      signal.qmodel.slo_violations_delta = interim.slo_violations - prev_slo_violations_;
      signal.qmodel.overflows = interim.overflows;
      signal.qmodel.p99_us = interim.p99_us;
      prev_slo_violations_ = interim.slo_violations;
    }
  }

  OnPeriod(signal);
  period_begin_step_ = static_cast<uint32_t>(step + 1);
}

void ControlPlane::OnPeriod(const ControlSignal& signal) {
  ++periods_evaluated_;
  obs_periods_->Increment();
  // Disabled policies observe nothing and emit nothing, so a run with all
  // four disabled produces an empty log and zero actuations.
  PeriodContext context;
  const auto run = [&](auto& policy) {
    scratch_.clear();
    policy.Evaluate(signal, &context, &scratch_);
    for (const Decision& decision : scratch_) {
      log_.Append(decision);
      obs_decisions_->Increment();
      Apply(decision, signal.period);
    }
  };
  if (config_.fault_response) {
    run(fault_response_);
  }
  if (config_.migration) {
    run(migration_);
  }
  if (config_.lending) {
    run(lending_policy_);
  }
  if (config_.cache_admission) {
    run(cache_admission_);
  }
}

void ControlPlane::Apply(const Decision& decision, size_t period) {
  switch (decision.action) {
    case ActionKind::kEvacuateSegment:
    case ActionKind::kMigrateSegment: {
      const bool forced = decision.action == ActionKind::kEvacuateSegment;
      actuator_.Apply(SegmentId(decision.target), BlockServerId(decision.aux), period,
                      forced);
      obs_migrations_->Increment();
      // The simulator exists only between the qmodel sink's OnStart and
      // OnFinish, so it is looked up per decision.
      if (qmodel_ != nullptr) {
        if (qmodel::QueueSimulator* simulator = qmodel_->simulator()) {
          simulator->SetSegmentRemap(SegmentId(decision.target), decision.aux);
        }
      }
      break;
    }
    case ActionKind::kSetPressure:
      // Applied during evaluation via PeriodContext; logged for the audit.
      break;
    case ActionKind::kSetLendingRate:
      lending_.SetLendingRate(decision.value);
      break;
    case ActionKind::kSetCacheAdmission:
      cache_.set_admission_enabled(decision.value != 0.0);
      break;
  }
}

}  // namespace control
}  // namespace ebs
