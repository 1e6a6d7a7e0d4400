#include "src/trace/records.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace ebs {

uint64_t TraceDataset::CountOps(OpType op) const {
  uint64_t count = 0;
  for (const TraceRecord& r : records) {
    if (r.op == op) {
      ++count;
    }
  }
  return count;
}

double TraceDataset::SampledBytes(OpType op) const {
  double bytes = 0.0;
  for (const TraceRecord& r : records) {
    if (r.op == op) {
      bytes += static_cast<double>(r.size_bytes);
    }
  }
  return bytes;
}

RwSeries::RwSeries(size_t steps, double step_seconds)
    : read_bytes(steps, step_seconds),
      write_bytes(steps, step_seconds),
      read_ops(steps, step_seconds),
      write_ops(steps, step_seconds) {}

void RwSeries::Accumulate(const RwSeries& other) {
  // Every channel is checked before any is added, so a throw adds nothing.
  if (other.read_bytes.size() != read_bytes.size() ||
      other.write_bytes.size() != write_bytes.size() ||
      other.read_ops.size() != read_ops.size() || other.write_ops.size() != write_ops.size()) {
    throw std::invalid_argument("RwSeries::Accumulate: a channel differs in length");
  }
  read_bytes.Accumulate(other.read_bytes);
  write_bytes.Accumulate(other.write_bytes);
  read_ops.Accumulate(other.read_ops);
  write_ops.Accumulate(other.write_ops);
}

const TimeSeries& RwSeries::Bytes(OpType op) const {
  return op == OpType::kRead ? read_bytes : write_bytes;
}

const TimeSeries& RwSeries::Ops(OpType op) const {
  return op == OpType::kRead ? read_ops : write_ops;
}

TimeSeries& RwSeries::MutableBytes(OpType op) {
  return op == OpType::kRead ? read_bytes : write_bytes;
}

TimeSeries& RwSeries::MutableOps(OpType op) {
  return op == OpType::kRead ? read_ops : write_ops;
}

double RwSeries::TotalBytes() const { return read_bytes.SumAll() + write_bytes.SumAll(); }

RwSeries SegmentView::Materialize() const {
  RwSeries series;
  MaterializeInto(&series);
  return series;
}

void SegmentView::MaterializeInto(RwSeries* out) const {
  // Cell() for every t, with the weight test taken once per channel.
  const auto fill = [](TimeSeries& dst, const TimeSeries& column, double weight) {
    if (dst.size() != column.size() || dst.step_seconds() != column.step_seconds()) {
      dst = TimeSeries(column.size(), column.step_seconds());
    }
    std::vector<double>& values = dst.mutable_values();
    if (weight == 0.0) {
      std::fill(values.begin(), values.end(), 0.0);
      return;
    }
    for (size_t t = 0; t < values.size(); ++t) {
      values[t] = column[t] * weight;
    }
  };
  fill(out->read_bytes, source->read_bytes, read_weight);
  fill(out->write_bytes, source->write_bytes, write_weight);
  fill(out->read_ops, source->read_ops, read_weight);
  fill(out->write_ops, source->write_ops, write_weight);
}

void SegmentSeriesMap::clear() {
  sources_.clear();
  entries_.clear();
  shared_sources_ = 0;
}

size_t SegmentSeriesMap::LowerBound(uint32_t id) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const SegmentEntry& entry, uint32_t key) { return entry.id < key; });
  return static_cast<size_t>(it - entries_.begin());
}

std::optional<SegmentView> SegmentSeriesMap::Find(uint32_t id) const {
  const size_t at = LowerBound(id);
  if (at == entries_.size() || entries_[at].id != id) {
    return std::nullopt;
  }
  return View(entries_[at]);
}

void SegmentSeriesMap::OwnSource(size_t at, uint32_t id, RwSeries series) {
  SegmentEntry entry;
  entry.id = id;
  entry.source = static_cast<uint32_t>(sources_.size());
  entry.read_weight = 1.0;
  entry.write_weight = 1.0;
  sources_.push_back(std::move(series));
  if (at < entries_.size() && entries_[at].id == id) {
    entries_[at] = entry;
  } else {
    entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(at), entry);
  }
}

void SegmentSeriesMap::Insert(uint32_t id, RwSeries series) {
  const size_t at = LowerBound(id);
  if (at < entries_.size() && entries_[at].id == id && entries_[at].source >= shared_sources_) {
    sources_[entries_[at].source] = std::move(series);  // explicit already: replace in place
    return;
  }
  OwnSource(at, id, std::move(series));
}

RwSeries& SegmentSeriesMap::FindOrCreate(uint32_t id, size_t steps, double step_seconds) {
  const size_t at = LowerBound(id);
  if (at == entries_.size() || entries_[at].id != id) {
    OwnSource(at, id, RwSeries(steps, step_seconds));
  } else if (entries_[at].source < shared_sources_) {
    OwnSource(at, id, View(entries_[at]).Materialize());
  }
  return sources_[entries_[at].source];
}

std::vector<RwSeries>& SegmentSeriesMap::ResetSources(size_t count, size_t steps,
                                                       double step_seconds) {
  clear();
  sources_.assign(count, RwSeries(steps, step_seconds));
  shared_sources_ = count;
  return sources_;
}

void SegmentSeriesMap::AssignEntries(std::vector<SegmentEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SegmentEntry& a, const SegmentEntry& b) { return a.id < b.id; });
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].source >= sources_.size()) {
      throw std::invalid_argument("segment entry names a source beyond the map's sources");
    }
    if (i > 0 && entries[i].id == entries[i - 1].id) {
      throw std::invalid_argument("segment id assigned twice");
    }
  }
  entries_ = std::move(entries);
}

std::optional<SegmentView> MetricDataset::SegmentSeries(SegmentId id) const {
  return segment_series.Find(id.value());
}

RwSeries& MetricDataset::MutableSegmentSeries(SegmentId id) {
  return segment_series.FindOrCreate(id.value(), window_steps, step_seconds);
}

}  // namespace ebs
