#include "src/hypervisor/rebinding.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "src/util/stats.h"

namespace ebs {

namespace {

struct NodeIo {
  double timestamp = 0.0;
  uint32_t qp = 0;  // global QpId value
  double bytes = 0.0;
};

// Traces bucketed per compute node, in timestamp order.
std::vector<std::vector<NodeIo>> BucketByNode(const Fleet& fleet, const TraceDataset& traces) {
  std::vector<std::vector<NodeIo>> per_node(fleet.nodes.size());
  for (const TraceRecord& r : traces.records) {
    per_node[r.cn.value()].push_back(
        {r.timestamp, r.qp.value(), static_cast<double>(r.size_bytes)});
  }
  return per_node;
}

// ceil(window_seconds / seconds): the periods of `seconds` in the window,
// at least one, so every record has a period to land in. Throws
// std::invalid_argument unless `seconds` is finite and positive and the count
// is one a double holds exactly (at most 2^53), so the cast to size_t is
// defined and every period index below it is exact.
size_t PeriodCount(double window_seconds, double seconds, const char* name) {
  if (!std::isfinite(seconds) || seconds <= 0.0) {
    throw std::invalid_argument(std::string("rebinding: ") + name +
                                " must be finite and positive");
  }
  const double count = std::ceil(window_seconds / seconds);
  if (!(count >= 0.0 && count <= 9007199254740992.0)) {
    throw std::invalid_argument(std::string("rebinding: ") + name +
                                " gives a period count a double cannot hold exactly");
  }
  return std::max<size_t>(1, static_cast<size_t>(count));
}

void CheckTriggerRatio(double trigger_ratio) {
  if (!std::isfinite(trigger_ratio) || trigger_ratio < 0.0) {
    throw std::invalid_argument("rebinding: trigger_ratio must be finite and non-negative");
  }
}

// Local index of each WT within its node.
size_t LocalWt(const ComputeNode& node, WorkerThreadId wt) {
  for (size_t i = 0; i < node.wts.size(); ++i) {
    if (node.wts[i] == wt) {
      return i;
    }
  }
  return 0;
}

}  // namespace

std::vector<NodeRebindingResult> SimulateRebinding(const Fleet& fleet,
                                                   const TraceDataset& traces,
                                                   const RebindingConfig& config) {
  const size_t total_periods =
      PeriodCount(traces.window_seconds, config.period_seconds, "period_seconds");
  const size_t gain_windows =
      PeriodCount(traces.window_seconds, config.gain_window_seconds, "gain_window_seconds");
  CheckTriggerRatio(config.trigger_ratio);
  std::vector<NodeRebindingResult> results;
  const auto per_node = BucketByNode(fleet, traces);

  for (const ComputeNode& node : fleet.nodes) {
    const auto& ios = per_node[node.id.value()];
    const size_t wt_count = node.wts.size();
    if (ios.size() < 2 || wt_count < 2) {
      continue;
    }

    // Dynamic binding state: qp -> local WT slot, materialized upfront so a
    // swap moves every QP of the two WTs, touched or not.
    auto home_wt = [&](uint32_t qp_value) {
      return LocalWt(node, fleet.qps[qp_value].bound_wt);
    };
    std::unordered_map<uint32_t, size_t> binding;
    for (const VmId vm_id : node.vms) {
      for (const VdId vd_id : fleet.vms[vm_id.value()].vds) {
        for (const QpId qp_id : fleet.vds[vd_id.value()].qps) {
          binding.emplace(qp_id.value(), home_wt(qp_id.value()));
        }
      }
    }

    std::vector<double> static_totals(wt_count, 0.0);
    std::vector<double> period_wt(wt_count, 0.0);
    // Per-period series of the statically-hottest WT, for the P2A measure.
    std::vector<double> static_period_series(total_periods, 0.0);

    // Sub-window accumulators for the gain measure.
    std::vector<std::vector<double>> static_window(gain_windows,
                                                   std::vector<double>(wt_count, 0.0));
    std::vector<std::vector<double>> dynamic_window(gain_windows,
                                                    std::vector<double>(wt_count, 0.0));

    size_t rebinds = 0;
    size_t active_periods = 0;
    size_t current_period = 0;

    auto close_period = [&]() {
      // Trigger check: hottest > ratio * coldest (a loaded WT against an idle
      // one always triggers).
      const auto [min_it, max_it] = std::minmax_element(period_wt.begin(), period_wt.end());
      const double coldest = *min_it;
      const double hottest = *max_it;
      if (hottest > 0.0) {
        ++active_periods;
      }
      if (hottest > 0.0 && hottest > config.trigger_ratio * coldest) {
        ++rebinds;
        const size_t hot_slot = static_cast<size_t>(max_it - period_wt.begin());
        const size_t cold_slot = static_cast<size_t>(min_it - period_wt.begin());
        // Swap the QP sets of the two WTs.
        for (auto& [qp, slot] : binding) {  // ebs-lint: allow(unordered-iter) per-element slot swap, order-insensitive
          if (slot == hot_slot) {
            slot = cold_slot;
          } else if (slot == cold_slot) {
            slot = hot_slot;
          }
        }
      }
      std::fill(period_wt.begin(), period_wt.end(), 0.0);
    };

    for (const NodeIo& io : ios) {
      const size_t period = static_cast<size_t>(io.timestamp / config.period_seconds);
      while (current_period < period) {
        close_period();
        ++current_period;
      }
      const size_t gain_window = std::min(
          gain_windows - 1, static_cast<size_t>(io.timestamp / config.gain_window_seconds));
      const size_t home = home_wt(io.qp);
      static_totals[home] += io.bytes;
      static_window[gain_window][home] += io.bytes;
      const size_t slot = binding[io.qp];
      dynamic_window[gain_window][slot] += io.bytes;
      period_wt[slot] += io.bytes;
    }
    close_period();

    // Hottest-WT per-period series under static binding.
    const size_t hottest_slot = static_cast<size_t>(
        std::max_element(static_totals.begin(), static_totals.end()) - static_totals.begin());
    std::fill(static_period_series.begin(), static_period_series.end(), 0.0);
    for (const NodeIo& io : ios) {
      if (home_wt(io.qp) == hottest_slot) {
        const size_t period = std::min(
            total_periods - 1, static_cast<size_t>(io.timestamp / config.period_seconds));
        static_period_series[period] += io.bytes;
      }
    }

    NodeRebindingResult result;
    result.node = node.id;
    result.rebinding_ratio =
        static_cast<double>(rebinds) / static_cast<double>(total_periods);
    result.active_rebinding_ratio =
        active_periods == 0 ? 0.0
                            : static_cast<double>(rebinds) / static_cast<double>(active_periods);
    // Mean sub-window CoV, skipping idle windows.
    RunningStats before;
    RunningStats after;
    for (size_t w = 0; w < gain_windows; ++w) {
      if (Sum(static_window[w]) > 0.0) {
        before.Add(NormalizedCoV(static_window[w]));
        after.Add(NormalizedCoV(dynamic_window[w]));
      }
    }
    result.cov_before = before.mean();
    result.cov_after = after.mean();
    result.gain = result.cov_before > 0.0 ? result.cov_after / result.cov_before : 1.0;
    result.p2a_10ms = PeakToAverage(static_period_series);
    results.push_back(result);
  }
  return results;
}

std::vector<double> HottestWtPeriodSeries(const Fleet& fleet, const TraceDataset& traces,
                                          ComputeNodeId node_id, double period_seconds) {
  const size_t total_periods =
      PeriodCount(traces.window_seconds, period_seconds, "period_seconds");
  const ComputeNode& node = fleet.nodes[node_id.value()];
  std::vector<double> wt_totals(node.wts.size(), 0.0);
  std::vector<std::vector<double>> series(node.wts.size(),
                                          std::vector<double>(total_periods, 0.0));
  for (const TraceRecord& r : traces.records) {
    if (r.cn != node_id) {
      continue;
    }
    const size_t slot = LocalWt(node, r.wt);
    const size_t period =
        std::min(total_periods - 1, static_cast<size_t>(r.timestamp / period_seconds));
    wt_totals[slot] += r.size_bytes;
    series[slot][period] += r.size_bytes;
  }
  const size_t hottest = static_cast<size_t>(
      std::max_element(wt_totals.begin(), wt_totals.end()) - wt_totals.begin());
  return series[hottest];
}

const char* HostingModelName(HostingModel model) {
  switch (model) {
    case HostingModel::kStaticBinding:
      return "static-binding";
    case HostingModel::kRebinding:
      return "rebinding";
    case HostingModel::kPerIoDispatch:
      return "per-io-dispatch";
  }
  return "unknown";
}

std::vector<DispatchResult> CompareHostingModels(const Fleet& fleet,
                                                 const TraceDataset& traces,
                                                 const RebindingConfig& config) {
  // The rebinding model's parameters are checked before any model runs.
  PeriodCount(traces.window_seconds, config.period_seconds, "period_seconds");
  CheckTriggerRatio(config.trigger_ratio);
  const size_t gain_windows =
      PeriodCount(traces.window_seconds, config.gain_window_seconds, "gain_window_seconds");
  std::vector<DispatchResult> out;
  const auto per_node = BucketByNode(fleet, traces);
  // Mean sub-window WT-CoV for one node under an arbitrary slot assignment.
  auto windowed_cov = [&](const ComputeNode& node, const std::vector<NodeIo>& ios,
                          auto slot_of) {
    std::vector<std::vector<double>> window(gain_windows,
                                            std::vector<double>(node.wts.size(), 0.0));
    for (size_t i = 0; i < ios.size(); ++i) {
      const size_t w = std::min(gain_windows - 1, static_cast<size_t>(
                                                      ios[i].timestamp /
                                                      config.gain_window_seconds));
      window[w][slot_of(i)] += ios[i].bytes;
    }
    RunningStats stats;
    for (const auto& totals : window) {
      if (Sum(totals) > 0.0) {
        stats.Add(NormalizedCoV(totals));
      }
    }
    return stats.mean();
  };

  // Static binding.
  {
    DispatchResult r;
    r.model = HostingModel::kStaticBinding;
    std::vector<double> covs;
    for (const ComputeNode& node : fleet.nodes) {
      const auto& ios = per_node[node.id.value()];
      if (ios.size() < 2 || node.wts.size() < 2) {
        continue;
      }
      covs.push_back(windowed_cov(node, ios, [&](size_t i) {
        return LocalWt(node, fleet.qps[ios[i].qp].bound_wt);
      }));
    }
    r.median_wt_cov = Percentile(covs, 50.0);
    r.mean_wt_cov = Mean(covs);
    r.handoffs_per_io = 0.0;
    out.push_back(r);
  }

  // Periodic rebinding.
  {
    DispatchResult r;
    r.model = HostingModel::kRebinding;
    const auto rebind = SimulateRebinding(fleet, traces, config);
    std::vector<double> covs;
    double handoffs = 0.0;
    double ios_total = 0.0;
    for (const auto& node_result : rebind) {
      covs.push_back(node_result.cov_after);
      const ComputeNode& node = fleet.nodes[node_result.node.value()];
      // Each rebind moves the QP sets of two WTs; approximate the handoff
      // cost as two QP migrations per rebind.
      const double node_periods = traces.window_seconds / config.period_seconds;
      handoffs += node_result.rebinding_ratio * node_periods * 2.0;
      ios_total += static_cast<double>(per_node[node.id.value()].size());
    }
    r.median_wt_cov = Percentile(covs, 50.0);
    r.mean_wt_cov = Mean(covs);
    r.handoffs_per_io = ios_total > 0.0 ? handoffs / ios_total : 0.0;
    out.push_back(r);
  }

  // Per-IO dispatch to the least-loaded WT.
  {
    DispatchResult r;
    r.model = HostingModel::kPerIoDispatch;
    std::vector<double> covs;
    double handoffs = 0.0;
    double ios_total = 0.0;
    for (const ComputeNode& node : fleet.nodes) {
      const auto& ios = per_node[node.id.value()];
      if (ios.size() < 2 || node.wts.size() < 2) {
        continue;
      }
      std::vector<double> totals(node.wts.size(), 0.0);
      std::vector<size_t> slots(ios.size(), 0);
      for (size_t i = 0; i < ios.size(); ++i) {
        const size_t slot = static_cast<size_t>(
            std::min_element(totals.begin(), totals.end()) - totals.begin());
        totals[slot] += ios[i].bytes;
        slots[i] = slot;
        if (slot != LocalWt(node, fleet.qps[ios[i].qp].bound_wt)) {
          handoffs += 1.0;
        }
        ios_total += 1.0;
      }
      covs.push_back(windowed_cov(node, ios, [&](size_t i) { return slots[i]; }));
    }
    r.median_wt_cov = Percentile(covs, 50.0);
    r.mean_wt_cov = Mean(covs);
    r.handoffs_per_io = ios_total > 0.0 ? handoffs / ios_total : 0.0;
    out.push_back(r);
  }

  return out;
}

}  // namespace ebs
