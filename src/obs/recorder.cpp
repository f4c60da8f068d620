#include "obs/recorder.hpp"

#include "trace/trace.hpp"
#include "util/check.hpp"

namespace circles::obs {

void Recorder::add(Probe* probe, GridSpec grid) {
  CIRCLES_CHECK_MSG(probe != nullptr, "Recorder::add needs a probe");
  CIRCLES_CHECK_MSG(!begun_, "probes must be added before begin()");
  probes_.push_back(probe);
  entries_.push_back(Entry{probe, std::move(grid), {}, 0, -1.0});
}

void Recorder::begin(const ProbeContext& ctx,
                     std::span<const std::uint64_t> counts,
                     std::uint64_t active_pairs,
                     std::span<const pp::StateId> present,
                     std::span<const std::span<const std::uint64_t>> urns) {
  if (begun_) return;
  begun_ = true;
  ctx_ = ctx;

  bool need_active = false;
  for (Entry& entry : entries_) {
    if (options_.clock == RecorderOptions::Clock::kChemical) {
      entry.due = chemical_grid(entry.grid, options_.chemical_horizon);
    } else {
      const auto grid =
          interaction_grid(entry.grid, options_.interaction_horizon);
      entry.due.assign(grid.begin(), grid.end());
    }
    entry.cursor = 0;
    need_active = need_active || entry.probe->wants_active_pairs();
  }
  refresh_next_due();

  const Snapshot snapshot =
      make_snapshot(0, 0.0, counts, active_pairs, present, urns, need_active);
  for (Entry& entry : entries_) {
    entry.probe->on_begin(ctx_);
    entry.probe->on_sample(snapshot);
    entry.last_sampled = 0.0;
  }
}

Snapshot Recorder::make_snapshot(std::uint64_t interactions,
                                 double chemical_time,
                                 std::span<const std::uint64_t> counts,
                                 std::uint64_t active_pairs,
                                 std::span<const pp::StateId> present,
                                 std::span<const std::span<const std::uint64_t>> urns,
                                 bool need_active) const {
  Snapshot snapshot;
  snapshot.interactions = interactions;
  snapshot.chemical_time = chemical_time;
  snapshot.counts = counts;
  snapshot.active_pairs = active_pairs;
  snapshot.present = present;
  snapshot.urns = urns;
  snapshot.ctx = &ctx_;
  if (need_active && snapshot.active_pairs == kUnknownActive) {
    snapshot.active_pairs = active_pairs_from_counts(ctx_, counts, present);
  }
  return snapshot;
}

void Recorder::sample(std::uint64_t interactions, double chemical_time,
                      std::span<const std::uint64_t> counts,
                      std::uint64_t active_pairs,
                      std::span<const pp::StateId> present,
                      std::span<const std::span<const std::uint64_t>> urns) {
  CIRCLES_CHECK_MSG(begun_, "Recorder::sample before begin()");
  const double x = position(interactions, chemical_time);

  bool need_active = false;
  for (const Entry& entry : entries_) {
    if (entry.cursor < entry.due.size() && entry.due[entry.cursor] <= x &&
        entry.probe->wants_active_pairs()) {
      need_active = true;
    }
  }
  const Snapshot snapshot = make_snapshot(interactions, chemical_time, counts,
                                          active_pairs, present, urns,
                                          need_active);
  std::uint64_t sampled = 0;
  for (Entry& entry : entries_) {
    if (entry.cursor >= entry.due.size() || entry.due[entry.cursor] > x) {
      continue;
    }
    entry.probe->on_sample(snapshot);
    entry.last_sampled = x;
    sampled += 1;
    while (entry.cursor < entry.due.size() && entry.due[entry.cursor] <= x) {
      entry.cursor += 1;
    }
  }
  // Flushes are already grid-decimated, so one instant each stays cheap; it
  // lands on the sampling thread's track next to the engine spans.
  if (sampled > 0) {
    if (trace::TraceBuffer* tb = trace::buffer(options_.tracer)) {
      tb->instant("obs.flush", "probes", sampled);
    }
  }
  refresh_next_due();
}

void Recorder::finish(std::uint64_t interactions, double chemical_time,
                      std::span<const std::uint64_t> counts,
                      std::uint64_t active_pairs,
                      std::span<const pp::StateId> present,
                      std::span<const std::span<const std::uint64_t>> urns) {
  if (!begun_) return;
  const double x = position(interactions, chemical_time);

  bool need_active = false;
  for (const Entry& entry : entries_) {
    if (entry.probe->wants_active_pairs()) need_active = true;
  }
  const Snapshot snapshot = make_snapshot(interactions, chemical_time, counts,
                                          active_pairs, present, urns,
                                          need_active);
  for (Entry& entry : entries_) {
    // A batched host can rewind its reported index to the exact silence
    // point, so `x` may sit below the last emitted sample; never emit a
    // non-monotone row.
    if (x > entry.last_sampled) {
      entry.probe->on_sample(snapshot);
      entry.last_sampled = x;
      while (entry.cursor < entry.due.size() && entry.due[entry.cursor] <= x) {
        entry.cursor += 1;
      }
    }
    entry.probe->on_finish(snapshot);
  }
  refresh_next_due();
}

void Recorder::refresh_next_due() {
  double next = kNever;
  for (const Entry& entry : entries_) {
    if (entry.cursor < entry.due.size() && entry.due[entry.cursor] < next) {
      next = entry.due[entry.cursor];
    }
  }
  next_due_ = next;
}

}  // namespace circles::obs
