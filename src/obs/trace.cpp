#include "obs/trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace tka::obs {

using util::json::escape;

// Per-thread span storage. Each recording thread owns one; the tracer
// keeps a shared_ptr so the buffer (and its recorded spans) outlives the
// thread. `parent` indices in `events` are local to this buffer.
struct Tracer::ThreadBuffer {
  std::mutex mu;
  std::int32_t tid = 0;            // registration ordinal = trace lane
  std::uint32_t generation = 0;    // buffer contents belong to this gen
  std::vector<SpanEvent> events;
  std::vector<std::int32_t> open;  // open-span stack (indices into events)
};

Tracer& tracer() {
  static Tracer* t = new Tracer();  // never destroyed
  return *t;
}

Tracer::ThreadBuffer& Tracer::this_thread_buffer() {
  struct Slot {
    Tracer* owner = nullptr;
    std::shared_ptr<ThreadBuffer> buf;
  };
  thread_local Slot slot;
  if (slot.owner != this) {
    auto buf = std::make_shared<ThreadBuffer>();
    {
      std::lock_guard<std::mutex> lock(mu_);
      buf->tid = static_cast<std::int32_t>(buffers_.size());
      buf->generation = generation_.load(std::memory_order_relaxed);
      buffers_.push_back(buf);
    }
    slot.owner = this;
    slot.buf = std::move(buf);
  }
  return *slot.buf;
}

std::int64_t Tracer::begin_span(std::string_view name, std::int64_t start_ns) {
  if (!enabled()) return -1;
  ThreadBuffer& tb = this_thread_buffer();
  std::lock_guard<std::mutex> lock(tb.mu);
  // Sample the generation only after acquiring tb.mu: a pre-lock load
  // could race with clear(), rewind tb.generation to the stale value and
  // leak this event into the post-clear stream.
  const std::uint32_t gen = generation_.load(std::memory_order_acquire);
  if (tb.generation != gen) {  // clear() ran since this thread last recorded
    tb.generation = gen;
    tb.events.clear();
    tb.open.clear();
  }
  SpanEvent ev;
  ev.name = std::string(name);
  ev.start_ns = start_ns;
  ev.parent = tb.open.empty() ? -1 : tb.open.back();
  ev.tid = tb.tid;
  const std::int32_t index = static_cast<std::int32_t>(tb.events.size());
  tb.events.push_back(std::move(ev));
  tb.open.push_back(index);
  return (static_cast<std::int64_t>(gen) << 32) | index;
}

void Tracer::end_span(std::int64_t token, std::int64_t dur_ns,
                      std::string&& args_json) {
  if (token < 0) return;
  // ScopedSpan ends on the thread that began it, so the token's index
  // refers into this thread's own buffer.
  ThreadBuffer& tb = this_thread_buffer();
  std::lock_guard<std::mutex> lock(tb.mu);
  const std::uint32_t gen = static_cast<std::uint32_t>(token >> 32);
  const std::int32_t index = static_cast<std::int32_t>(token & 0xffffffff);
  // A clear() while the span was open bumps the generation, or — when it
  // raced with begin_span sampling the already-bumped generation — leaves
  // the generation matching but the event discarded; both mean the token
  // no longer refers to a live event.
  if (gen != tb.generation ||
      static_cast<std::size_t>(index) >= tb.events.size()) {
    return;
  }
  tb.events[static_cast<std::size_t>(index)].dur_ns = dur_ns;
  tb.events[static_cast<std::size_t>(index)].args_json = std::move(args_json);
  if (!tb.open.empty() && tb.open.back() == index) tb.open.pop_back();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t gen =
      generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (const std::shared_ptr<ThreadBuffer>& tb : buffers_) {
    std::lock_guard<std::mutex> tl(tb->mu);
    tb->events.clear();
    tb->open.clear();
    tb->generation = gen;
  }
}

std::size_t Tracer::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const std::shared_ptr<ThreadBuffer>& tb : buffers_) {
    std::lock_guard<std::mutex> tl(tb->mu);
    n += tb->events.size();
  }
  return n;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Snapshot every thread's lane (registration order = tid order), then
  // emit without holding the buffer mutexes.
  std::vector<std::vector<SpanEvent>> lanes;
  lanes.reserve(buffers_.size());
  for (const std::shared_ptr<ThreadBuffer>& tb : buffers_) {
    std::lock_guard<std::mutex> tl(tb->mu);
    lanes.push_back(tb->events);
  }
  std::int64_t epoch = 0;
  bool have_epoch = false;
  for (const std::vector<SpanEvent>& lane : lanes) {
    for (const SpanEvent& ev : lane) {
      if (ev.dur_ns < 0) continue;
      if (!have_epoch || ev.start_ns < epoch) {
        epoch = ev.start_ns;
        have_epoch = true;
      }
    }
  }
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (const std::vector<SpanEvent>& lane : lanes) {
    for (const SpanEvent& ev : lane) {
      if (ev.dur_ns < 0) continue;  // still open; not representable as "X"
      out << (first ? "\n" : ",\n");
      first = false;
      out << str::format(
          "{\"name\": \"%s\", \"cat\": \"tka\", \"ph\": \"X\", "
          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {%s}}",
          escape(ev.name).c_str(), static_cast<double>(ev.start_ns - epoch) * 1e-3,
          static_cast<double>(ev.dur_ns) * 1e-3, ev.tid, ev.args_json.c_str());
    }
  }
  out << (first ? "" : "\n") << "]}";
}

std::vector<SpanSummary> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<SpanEvent>> lanes;
  lanes.reserve(buffers_.size());
  for (const std::shared_ptr<ThreadBuffer>& tb : buffers_) {
    std::lock_guard<std::mutex> tl(tb->mu);
    lanes.push_back(tb->events);
  }
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t child_ns = 0;
    std::size_t depth = 0;
  };
  std::map<std::string, Agg> agg;
  for (const std::vector<SpanEvent>& lane : lanes) {
    // Within one lane parents always precede children (a parent's
    // begin_span runs before any child's on the same thread), so one
    // forward pass resolves every path. Spans begun on a worker thread
    // root their own lane; identical paths aggregate across lanes.
    std::vector<std::string> path(lane.size());
    for (std::size_t i = 0; i < lane.size(); ++i) {
      const SpanEvent& ev = lane[i];
      if (ev.parent >= 0) {
        path[i] = path[static_cast<std::size_t>(ev.parent)] + "/" + ev.name;
      } else {
        path[i] = ev.name;
      }
      if (ev.dur_ns < 0) continue;
      Agg& a = agg[path[i]];
      a.count += 1;
      a.total_ns += ev.dur_ns;
      a.depth =
          static_cast<std::size_t>(std::count(path[i].begin(), path[i].end(), '/'));
      if (ev.parent >= 0) {
        const SpanEvent& p = lane[static_cast<std::size_t>(ev.parent)];
        if (p.dur_ns >= 0) {
          agg[path[static_cast<std::size_t>(ev.parent)]].child_ns += ev.dur_ns;
        }
      }
    }
  }
  std::vector<SpanSummary> rows;
  rows.reserve(agg.size());
  for (const auto& [p, a] : agg) {
    SpanSummary row;
    row.path = p;
    row.depth = a.depth;
    row.count = a.count;
    row.total_s = ns_to_seconds(a.total_ns);
    row.self_s = ns_to_seconds(a.total_ns - a.child_ns);
    rows.push_back(std::move(row));
  }
  return rows;  // std::map iteration: already path-sorted
}

ScopedSpan::ScopedSpan(std::string_view name) {
  start_ns_ = now_ns();
  token_ = tracer().begin_span(name, start_ns_);
}

ScopedSpan::~ScopedSpan() {
  if (token_ < 0) return;
  tracer().end_span(token_, now_ns() - start_ns_, std::move(args_));
}

ScopedSpan& ScopedSpan::arg(std::string_view key, std::int64_t v) {
  if (token_ < 0) return *this;
  if (!args_.empty()) args_ += ", ";
  args_ += str::format("\"%s\": %lld", escape(key).c_str(),
                       static_cast<long long>(v));
  return *this;
}

ScopedSpan& ScopedSpan::arg(std::string_view key, double v) {
  if (token_ < 0) return *this;
  if (!args_.empty()) args_ += ", ";
  args_ += str::format("\"%s\": %.9g", escape(key).c_str(), v);
  return *this;
}

ScopedSpan& ScopedSpan::arg(std::string_view key, std::string_view v) {
  if (token_ < 0) return *this;
  if (!args_.empty()) args_ += ", ";
  args_ += str::format("\"%s\": \"%s\"", escape(key).c_str(), escape(v).c_str());
  return *this;
}

void write_metrics_json(std::ostream& out) {
  out << "{\n";
  registry().write_json_fields(out);
  out << ",\n  \"spans\": [";
  const std::vector<SpanSummary> rows = tracer().summarize();
  bool first = true;
  for (const SpanSummary& row : rows) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << str::format(
        "    {\"path\": \"%s\", \"count\": %llu, \"total_s\": %.9g, "
        "\"self_s\": %.9g}",
        escape(row.path).c_str(), static_cast<unsigned long long>(row.count),
        row.total_s, row.self_s);
  }
  out << (first ? "" : "\n  ") << "]\n}";
}

}  // namespace tka::obs
