#include "ppd/obs/trace.hpp"

#include <cstdio>
#include <ctime>
#include <ostream>

#include "ppd/util/json.hpp"

namespace ppd::obs {

namespace {

/// CPU time of the calling thread, in microseconds.
double thread_cpu_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
#endif
  return 0.0;
}

thread_local std::uint64_t t_query_context = 0;

}  // namespace

std::uint64_t query_context() { return t_query_context; }

void set_query_context(std::uint64_t qid) { t_query_context = qid; }

ScopedQueryContext::ScopedQueryContext(std::uint64_t qid)
    : saved_(t_query_context) {
  t_query_context = qid;
}

ScopedQueryContext::~ScopedQueryContext() { t_query_context = saved_; }

TraceSession::TraceSession() : epoch_(std::chrono::steady_clock::now()) {}

TraceSession& TraceSession::global() {
  // Leaked singleton: worker threads hold thread_local pointers into the
  // session's buffers until process exit.
  static TraceSession* s = new TraceSession();
  return *s;
}

TraceSession::ThreadBuffer& TraceSession::local_buffer() {
  thread_local ThreadBuffer* t_buffer = nullptr;
  if (t_buffer == nullptr) {
    auto buffer = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(mutex_);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(buffer);
    t_buffer = buffer.get();
  }
  return *t_buffer;
}

void TraceSession::start() {
  clear();
  epoch_ = std::chrono::steady_clock::now();
  active_.store(true, std::memory_order_relaxed);
}

void TraceSession::stop() { active_.store(false, std::memory_order_relaxed); }

void TraceSession::set_thread_name(std::string name) {
  ThreadBuffer& b = local_buffer();
  const std::lock_guard<std::mutex> lock(b.mutex);
  b.name = std::move(name);
}

void TraceSession::set_ring_limit(std::size_t max_events_per_thread) {
  ring_limit_.store(max_events_per_thread, std::memory_order_relaxed);
}

void TraceSession::record(std::string name, char phase, double cpu_us) {
  const double ts = now_us();
  ThreadBuffer& b = local_buffer();
  const std::lock_guard<std::mutex> lock(b.mutex);
  Event e;
  e.name = std::move(name);
  e.phase = phase;
  e.ts_us = ts;
  e.cpu_us = cpu_us;
  e.tid = b.tid;
  e.ctx = t_query_context;
  b.events.push_back(std::move(e));
  const std::size_t limit = ring_limit_.load(std::memory_order_relaxed);
  if (limit != 0 && b.events.size() > limit) {
    // Evict the oldest quarter in one move, so the amortized per-record
    // cost stays O(1) instead of O(limit) for an erase-one-front ring.
    const auto drop =
        static_cast<std::vector<Event>::difference_type>(limit / 4 + 1);
    b.events.erase(b.events.begin(), b.events.begin() + drop);
  }
}

std::vector<TraceSession::Event> TraceSession::events() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::vector<Event> out;
  for (const auto& b : buffers) {
    const std::lock_guard<std::mutex> lock(b->mutex);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  return out;
}

void TraceSession::clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  for (const auto& b : buffers) {
    const std::lock_guard<std::mutex> lock(b->mutex);
    b->events.clear();
  }
}

void TraceSession::write_chrome_trace(std::ostream& os) const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  char buf[64];
  std::vector<char> keep;
  std::vector<std::size_t> open;
  for (const auto& b : buffers) {
    const std::lock_guard<std::mutex> lock(b->mutex);
    if (!b->name.empty()) {
      if (!first) os << ',';
      first = false;
      os << "\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
         << b->tid << ",\"args\":{\"name\":" << util::json::quote(b->name)
         << "}}";
    }
    // Emit only matched B/E pairs: ring eviction (or an export taken while
    // spans are open) can leave an E whose B was dropped, or a B whose E
    // has not been recorded yet — the exported stream stays balanced.
    keep.assign(b->events.size(), 0);
    open.clear();
    for (std::size_t i = 0; i < b->events.size(); ++i) {
      if (b->events[i].phase == 'B') {
        open.push_back(i);
      } else if (!open.empty()) {
        keep[open.back()] = 1;
        keep[i] = 1;
        open.pop_back();
      }
    }
    for (std::size_t i = 0; i < b->events.size(); ++i) {
      if (keep[i] == 0) continue;
      const Event& e = b->events[i];
      if (!first) os << ',';
      first = false;
      std::snprintf(buf, sizeof(buf), "%.3f", e.ts_us);
      os << "\n{\"ph\":\"" << e.phase
         << "\",\"name\":" << util::json::quote(e.name)
         << ",\"cat\":\"ppd\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
         << buf;
      if (e.phase == 'B' && e.ctx != 0) {
        os << ",\"args\":{\"qid\":" << e.ctx << '}';
      } else if (e.phase == 'E' && e.cpu_us > 0.0) {
        std::snprintf(buf, sizeof(buf), "%.3f", e.cpu_us);
        os << ",\"args\":{\"cpu_us\":" << buf << '}';
      }
      os << '}';
    }
  }
  os << "\n]}\n";
}

Span::Span(std::string_view name) {
  TraceSession& session = TraceSession::global();
  if (!session.active()) return;
  recording_ = true;
  name_.assign(name);
  cpu_start_us_ = thread_cpu_us();
  session.record(name_, 'B', 0.0);
}

Span::~Span() {
  if (!recording_) return;
  // Record the end unconditionally (even if the session stopped meanwhile)
  // so every exported 'B' has its matching 'E'.
  TraceSession::global().record(std::move(name_), 'E',
                                thread_cpu_us() - cpu_start_us_);
}

}  // namespace ppd::obs
