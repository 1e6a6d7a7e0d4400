#include "src/workload/generator.h"

namespace ebs {

double WorkloadResult::TotalDeliveredBytes(OpType op) const {
  double total = 0.0;
  for (const RwSeries& series : metrics.qp_series) {
    total += series.Bytes(op).SumAll();
  }
  return total;
}

}  // namespace ebs
