#include "src/hypervisor/fairness.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "src/util/stats.h"

namespace ebs {

const char* DispatchDisciplineName(DispatchDiscipline discipline) {
  switch (discipline) {
    case DispatchDiscipline::kInlinePolling:
      return "inline-polling";
    case DispatchDiscipline::kGreedyDispatch:
      return "greedy-dispatch";
    case DispatchDiscipline::kDrrDispatch:
      return "drr-dispatch";
  }
  return "unknown";
}

double JainIndex(const std::vector<double>& values) {
  if (values.empty()) {
    return 1.0;
  }
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  double sq = 0.0;
  for (const double v : values) {
    sq += v * v;
  }
  if (sq == 0.0) {
    return 1.0;
  }
  return sum * sum / (static_cast<double>(values.size()) * sq);
}

namespace {

// Max-min (water-filling) allocation of `capacity` across demands.
std::vector<double> WaterFill(const std::vector<double>& demands, double capacity) {
  std::vector<double> allocation(demands.size(), 0.0);
  std::vector<size_t> open(demands.size());
  std::iota(open.begin(), open.end(), 0);
  double remaining = capacity;
  while (!open.empty() && remaining > 1e-9) {
    const double share = remaining / static_cast<double>(open.size());
    std::vector<size_t> still_open;
    for (const size_t i : open) {
      const double want = demands[i] - allocation[i];
      if (want <= share) {
        allocation[i] = demands[i];
        remaining -= want;
      } else {
        still_open.push_back(i);
      }
    }
    if (still_open.size() == open.size()) {
      // Nobody saturated: hand out the equal share and stop.
      for (const size_t i : open) {
        allocation[i] += share;
      }
      remaining = 0.0;
      break;
    }
    open = std::move(still_open);
  }
  return allocation;
}

}  // namespace

FairnessResult EvaluateDispatchFairness(const Fleet& fleet, const MetricDataset& metrics,
                                        const FairnessConfig& config) {
  if (!(config.wt_capacity_bytes_per_step > 0.0)) {
    throw std::invalid_argument("fairness: wt_capacity_bytes_per_step must be greater than 0");
  }
  FairnessResult result;
  result.discipline = config.discipline;

  RunningStats jain;
  RunningStats victim;
  double served_total = 0.0;
  double servable_total = 0.0;
  size_t overloaded = 0;

  for (const ComputeNode& node : fleet.nodes) {
    // Tenants on this node.
    std::map<uint32_t, size_t> tenant_slot;
    std::vector<std::vector<const Qp*>> tenant_qps;
    for (const VmId vm_id : node.vms) {
      const Vm& vm = fleet.vms[vm_id.value()];
      auto [it, inserted] = tenant_slot.try_emplace(vm.user.value(), tenant_qps.size());
      if (inserted) {
        tenant_qps.emplace_back();
      }
      for (const VdId vd_id : vm.vds) {
        for (const QpId qp_id : fleet.vds[vd_id.value()].qps) {
          tenant_qps[it->second].push_back(&fleet.qps[qp_id.value()]);
        }
      }
    }
    if (tenant_qps.size() < 2) {
      continue;  // fairness needs contention between tenants
    }
    const double node_capacity =
        config.wt_capacity_bytes_per_step * static_cast<double>(node.wts.size());

    for (size_t t = 0; t < metrics.window_steps; ++t) {
      // Per-tenant demand this step.
      std::vector<double> demand(tenant_qps.size(), 0.0);
      double total_demand = 0.0;
      for (size_t tenant = 0; tenant < tenant_qps.size(); ++tenant) {
        for (const Qp* qp : tenant_qps[tenant]) {
          const RwSeries& series = metrics.qp_series[qp->id.value()];
          demand[tenant] += series.read_bytes[t] + series.write_bytes[t];
        }
        total_demand += demand[tenant];
      }
      if (total_demand <= node_capacity) {
        continue;  // no contention: every discipline serves everything
      }
      ++overloaded;

      std::vector<double> served(tenant_qps.size(), 0.0);
      switch (config.discipline) {
        case DispatchDiscipline::kInlinePolling: {
          // Each WT water-fills across its own bound QPs; capacity on WTs
          // whose QPs are idle is wasted (the §4 under-utilization).
          for (const WorkerThreadId wt_id : node.wts) {
            const WorkerThread& wt = fleet.wts[wt_id.value()];
            std::vector<double> qp_demand;
            std::vector<size_t> qp_tenant;
            for (const QpId qp_id : wt.bound_qps) {
              const Qp& qp = fleet.qps[qp_id.value()];
              const RwSeries& series = metrics.qp_series[qp.id.value()];
              qp_demand.push_back(series.read_bytes[t] + series.write_bytes[t]);
              qp_tenant.push_back(tenant_slot[fleet.vms[qp.vm.value()].user.value()]);
            }
            const auto allocation =
                WaterFill(qp_demand, config.wt_capacity_bytes_per_step);
            for (size_t i = 0; i < allocation.size(); ++i) {
              served[qp_tenant[i]] += allocation[i];
            }
          }
          break;
        }
        case DispatchDiscipline::kGreedyDispatch: {
          // Work-conserving FCFS over the pooled WTs: service is backlog-
          // proportional, so the whale takes its demand's share and nothing
          // protects small tenants.
          const double scale = node_capacity / total_demand;
          for (size_t tenant = 0; tenant < served.size(); ++tenant) {
            served[tenant] = demand[tenant] * scale;
          }
          break;
        }
        case DispatchDiscipline::kDrrDispatch: {
          // Deficit round robin across tenant queues feeding the pool:
          // max-min fair at tenant granularity, still work-conserving.
          served = WaterFill(demand, node_capacity);
          break;
        }
      }

      // Satisfaction per tenant.
      std::vector<double> satisfaction(tenant_qps.size(), 1.0);
      size_t hottest = 0;
      for (size_t tenant = 0; tenant < tenant_qps.size(); ++tenant) {
        satisfaction[tenant] =
            demand[tenant] <= 0.0 ? 1.0 : std::min(1.0, served[tenant] / demand[tenant]);
        if (demand[tenant] > demand[hottest]) {
          hottest = tenant;
        }
      }
      jain.Add(JainIndex(satisfaction));
      RunningStats victims_this_step;
      for (size_t tenant = 0; tenant < tenant_qps.size(); ++tenant) {
        if (tenant != hottest && demand[tenant] > 0.0) {
          victims_this_step.Add(satisfaction[tenant]);
        }
      }
      if (victims_this_step.count() > 0) {
        victim.Add(victims_this_step.mean());
      }
      served_total += std::accumulate(served.begin(), served.end(), 0.0);
      servable_total += std::min(total_demand, node_capacity);
    }
  }

  result.jain_index = jain.count() > 0 ? jain.mean() : 1.0;
  result.victim_satisfaction = victim.count() > 0 ? victim.mean() : 1.0;
  result.utilization = servable_total > 0.0 ? served_total / servable_total : 1.0;
  result.overloaded_steps = overloaded;
  return result;
}

}  // namespace ebs
