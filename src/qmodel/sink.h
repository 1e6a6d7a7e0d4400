// Replay-engine adapter for the discrete-event queueing backend.
//
// QueueModelSink feeds every merged event into a QueueSimulator as the stream
// plays, on the merge thread — the engine's merged order (timestamp, vd,
// sequence) is exactly the canonical order the simulator requires, so the
// result is bit-identical to RunOverTraces on the batch dataset, at any
// worker count, live or from a trace store.

#ifndef SRC_QMODEL_SINK_H_
#define SRC_QMODEL_SINK_H_

#include <optional>

#include "src/qmodel/queue_model.h"
#include "src/replay/sink.h"

namespace ebs {
namespace qmodel {

class QueueModelSink : public ReplaySink {
 public:
  // `sampling_rate` is the workload's trace thinning rate (drives the
  // occupancy upscale).
  QueueModelSink(QueueModelConfig config, double sampling_rate)
      : config_(std::move(config)), sampling_rate_(sampling_rate) {}

  void OnStart(const Fleet& fleet, size_t window_steps, double step_seconds) override;
  void OnEvent(const ReplayEvent& event) override;
  void OnFinish() override;

  // Valid after OnFinish.
  const QueueModelResult& result() const;

  // Live simulator for the closed-loop control plane (AdvanceTo / Interim /
  // online what-if setters). Valid between OnStart and OnFinish; nullptr
  // outside that window. The control plane runs on the same merge thread, so
  // no synchronization is needed.
  QueueSimulator* simulator() { return simulator_.has_value() ? &*simulator_ : nullptr; }

 private:
  QueueModelConfig config_;
  double sampling_rate_;
  std::optional<QueueSimulator> simulator_;
  std::optional<QueueModelResult> result_;
};

}  // namespace qmodel
}  // namespace ebs

#endif  // SRC_QMODEL_SINK_H_
