#include "trace/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "metrics/metrics.hpp"

#ifdef __linux__
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace circles::trace {

namespace {

std::uint64_t os_pid() {
#ifdef __linux__
  return static_cast<std::uint64_t>(::getpid());
#else
  return 1;
#endif
}

std::uint64_t os_tid() {
#ifdef __linux__
  // One syscall per thread lifetime.
  static thread_local const std::uint64_t tid =
      static_cast<std::uint64_t>(::syscall(SYS_gettid));
  return tid;
#else
  // Portable fallback: a stable nonzero hash of the std::thread id.
  static thread_local const std::uint64_t tid = [] {
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return static_cast<std::uint64_t>(h) | 1u;
  }();
  return tid;
#endif
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// --- TraceBuffer ------------------------------------------------------------

TraceBuffer::TraceBuffer(std::size_t capacity, std::uint64_t tid,
                         std::string name,
                         std::chrono::steady_clock::time_point epoch)
    : capacity_(round_up_pow2(std::max<std::size_t>(capacity, 8))),
      mask_(0),
      tid_(tid),
      name_(std::move(name)),
      epoch_(epoch) {
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

void TraceBuffer::emit(char ph, const char* name, const char* arg_name,
                       std::uint64_t arg) {
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t ts = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
          .count());
  const std::uint64_t c = count_.load(std::memory_order_relaxed);
  Slot& slot = slots_[c & mask_];
  slot.name.store(name, std::memory_order_relaxed);
  slot.arg_name.store(arg_name, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  slot.ts_ns.store(ts, std::memory_order_relaxed);
  slot.ph.store(ph, std::memory_order_relaxed);
  count_.store(c + 1, std::memory_order_release);
}

std::uint64_t TraceBuffer::dropped() const {
  const std::uint64_t total = count_.load(std::memory_order_acquire);
  return total > capacity_ ? total - capacity_ : 0;
}

void TraceBuffer::drain_into(std::vector<Event>& out) const {
  const std::uint64_t end = count_.load(std::memory_order_acquire);
  const std::uint64_t start = end > capacity_ ? end - capacity_ : 0;
  out.reserve(out.size() + static_cast<std::size_t>(end - start));
  for (std::uint64_t i = start; i < end; ++i) {
    const Slot& slot = slots_[i & mask_];
    Event event;
    event.name = slot.name.load(std::memory_order_relaxed);
    if (event.name == nullptr) continue;  // lap race with a live writer
    event.arg_name = slot.arg_name.load(std::memory_order_relaxed);
    event.arg = slot.arg.load(std::memory_order_relaxed);
    event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    event.ph = slot.ph.load(std::memory_order_relaxed);
    event.tid = tid_;
    event.thread_name = name_.c_str();
    out.push_back(event);
  }
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(TracerOptions options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  // The constructing thread is the batch's driver: register it eagerly so
  // phase spans land under a named "main" track.
  (void)thread_buffer("main");
}

Tracer::~Tracer() = default;

TraceBuffer* Tracer::thread_buffer(const char* name_hint) {
  const std::uint64_t tid = os_tid();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& owned : owned_) {
    if (owned->tid() == tid) return owned.get();
  }
  std::string name;
  if (owned_.empty()) {
    name = name_hint != nullptr ? name_hint : "main";
  } else {
    name = (name_hint != nullptr ? std::string(name_hint)
                                 : std::string("thread")) +
           "-" + std::to_string(owned_.size());
  }
  owned_.push_back(std::make_unique<TraceBuffer>(options_.buffer_capacity,
                                                 tid, std::move(name),
                                                 epoch_));
  return owned_.back().get();
}

std::vector<Event> Tracer::drain() const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& owned : owned_) owned->drain_into(events);
  }
  // Stable: same-timestamp events keep per-thread emission order, which the
  // B/E repair pass relies on for correct nesting.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

std::uint64_t Tracer::events_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& owned : owned_) total += owned->dropped();
  return total;
}

namespace {

void append_event_json(std::string& out, const Event& event,
                       std::uint64_t pid, char ph) {
  out += "{\"name\":\"";
  out += metrics::json_escape(event.name);
  out += "\",\"ph\":\"";
  out += ph;
  out += "\",\"ts\":";
  out += metrics::json_number(static_cast<double>(event.ts_ns) / 1000.0);
  out += ",\"pid\":" + std::to_string(pid);
  out += ",\"tid\":" + std::to_string(event.tid);
  if (ph == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
  if (event.arg_name != nullptr && ph != 'E') {
    out += ",\"args\":{\"";
    out += metrics::json_escape(event.arg_name);
    out += "\":" + std::to_string(event.arg) + "}";
  }
  out += "}";
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  const std::vector<Event> events = drain();
  const std::uint64_t pid = os_pid();

  // Ring eviction can orphan B/E pairs; repair so the JSON always carries
  // matched pairs per tid: drop an 'E' whose 'B' fell off the ring, close
  // every dangling 'B' with a synthesized 'E' at the last retained
  // timestamp. The per-tid stack walk relies on drain()'s stable ts order.
  std::vector<char> keep(events.size(), 1);
  std::vector<std::pair<std::uint64_t, std::vector<std::size_t>>> stacks;
  const auto stack_for = [&](std::uint64_t tid) -> std::vector<std::size_t>& {
    for (auto& [id, stack] : stacks) {
      if (id == tid) return stack;
    }
    stacks.emplace_back(tid, std::vector<std::size_t>{});
    return stacks.back().second;
  };
  std::uint64_t last_ts = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    last_ts = std::max(last_ts, event.ts_ns);
    if (event.ph == 'B') {
      stack_for(event.tid).push_back(i);
    } else if (event.ph == 'E') {
      std::vector<std::size_t>& stack = stack_for(event.tid);
      if (stack.empty()) {
        keep[i] = 0;  // its 'B' was evicted
      } else {
        stack.pop_back();
      }
    }
  }

  std::string out = "[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",";
    out += "\n";
    first = false;
  };

  // Thread-name metadata first so Perfetto labels the tracks.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& owned : owned_) {
      sep();
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":" + std::to_string(owned->tid()) +
             ",\"args\":{\"name\":\"" +
             metrics::json_escape(owned->thread_name()) + "\"}}";
    }
  }

  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!keep[i]) continue;
    sep();
    append_event_json(out, events[i], pid, events[i].ph);
  }
  // Synthesized closers, innermost first per thread.
  for (auto& [tid, stack] : stacks) {
    (void)tid;
    while (!stack.empty()) {
      Event closer = events[stack.back()];
      stack.pop_back();
      closer.ts_ns = last_ts;
      sep();
      append_event_json(out, closer, pid, 'E');
    }
  }
  out += "\n]\n";
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("trace: cannot open '" + path + "' for writing");
  }
  file << chrome_trace_json();
  if (!file) throw std::runtime_error("trace: write failed for '" + path + "'");
}

void Tracer::dump_failure(const FailureContext& ctx, std::FILE* out) const {
  std::vector<Event> events = drain();
  const std::size_t last = options_.flight_recorder_events;
  const std::size_t start = events.size() > last ? events.size() - last : 0;

  std::string block;
  block += "=== trial failure: " + ctx.reason + " ===\n";
  block += "spec: " + ctx.spec + "\n";
  block += "backend: " + ctx.backend + "\n";
  block += "trial: " + std::to_string(ctx.trial_index) +
           "  seed: " + std::to_string(ctx.trial_seed) + "\n";
  if (!ctx.verdict.empty()) block += "verdict: " + ctx.verdict + "\n";
  if (!ctx.final_outputs.empty()) {
    block += "final outputs: " + ctx.final_outputs + "\n";
  }
  block += "flight recorder (last " +
           std::to_string(events.size() - start) + " of " +
           std::to_string(events.size()) + " retained events):\n";
  char line[256];
  for (std::size_t i = start; i < events.size(); ++i) {
    const Event& event = events[i];
    std::snprintf(line, sizeof(line),
                  "  [+%.6fs tid %" PRIu64 " %s] %c %s",
                  static_cast<double>(event.ts_ns) * 1e-9, event.tid,
                  event.thread_name != nullptr ? event.thread_name : "?",
                  event.ph, event.name);
    block += line;
    if (event.arg_name != nullptr) {
      std::snprintf(line, sizeof(line), " %s=%" PRIu64, event.arg_name,
                    event.arg);
      block += line;
    }
    block += "\n";
  }
  block += "REPRO: sweep --spec='" + ctx.spec +
           "' --trial-seed=" + std::to_string(ctx.trial_seed) + "\n";
  block += "=== end trial failure ===\n";

  // One write under the lock so concurrent failing trials don't interleave.
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs(block.c_str(), out);
  std::fflush(out);
}

}  // namespace circles::trace
