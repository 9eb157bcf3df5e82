#include "runtime/telemetry.hpp"

namespace tka::runtime {

std::vector<LaneCounters> lane_delta(const std::vector<LaneCounters>& before,
                                     const std::vector<LaneCounters>& after) {
  auto sub = [](std::uint64_t a, std::uint64_t b) { return a >= b ? a - b : 0; };
  std::vector<LaneCounters> delta;
  delta.reserve(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    LaneCounters d = after[i];
    if (i < before.size()) {
      const LaneCounters& b = before[i];
      d.exec_ns = sub(d.exec_ns, b.exec_ns);
      d.exec_cpu_ns = sub(d.exec_cpu_ns, b.exec_cpu_ns);
      d.queue_idle_ns = sub(d.queue_idle_ns, b.queue_idle_ns);
      d.barrier_wait_ns = sub(d.barrier_wait_ns, b.barrier_wait_ns);
      d.tasks = sub(d.tasks, b.tasks);
      d.steals = sub(d.steals, b.steals);
      d.wall_ns = sub(d.wall_ns, b.wall_ns);
    }
    delta.push_back(d);
  }
  return delta;
}

}  // namespace tka::runtime

#if TKA_OBS_ENABLED

#include <memory>
#include <mutex>

#include "obs/export.hpp"
#include "util/string_util.hpp"

namespace tka::runtime {
namespace {

std::mutex& lanes_mu() {
  static auto* mu = new std::mutex();
  return *mu;
}

std::vector<std::unique_ptr<telemetry::LaneSlot>>& lanes() {
  static auto* list = new std::vector<std::unique_ptr<telemetry::LaneSlot>>();
  return *list;
}

std::atomic<std::uint64_t> g_inline_fors{0};
std::atomic<std::uint64_t> g_task_graphs{0};
std::atomic<std::uint64_t> g_task_graph_tasks{0};
std::atomic<std::uint64_t> g_task_graph_edges{0};
std::atomic<std::uint64_t> g_dynamic_fors{0};

}  // namespace

namespace telemetry {

LaneSlot& this_lane(bool worker) {
  thread_local LaneSlot* slot = nullptr;
  if (slot == nullptr) {
    auto owned = std::make_unique<LaneSlot>();
    owned->worker = worker;
    owned->registered_ns = obs::now_ns();
    slot = owned.get();
    {
      std::lock_guard<std::mutex> lock(lanes_mu());
      lanes().push_back(std::move(owned));
    }
    // Export sinks should see runtime.* gauges refresh with each snapshot.
    obs::add_collector(&publish_runtime_metrics);
  }
  return *slot;
}

void note_inline_for() {
  g_inline_fors.fetch_add(1, std::memory_order_relaxed);
}

void note_task_graph(std::uint64_t tasks, std::uint64_t edges) {
  g_task_graphs.fetch_add(1, std::memory_order_relaxed);
  g_task_graph_tasks.fetch_add(tasks, std::memory_order_relaxed);
  g_task_graph_edges.fetch_add(edges, std::memory_order_relaxed);
}

void note_dynamic_for() {
  g_dynamic_fors.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace telemetry

std::vector<LaneCounters> lane_snapshot() {
  const std::int64_t now = obs::now_ns();
  std::lock_guard<std::mutex> lock(lanes_mu());
  std::vector<LaneCounters> out;
  out.reserve(lanes().size());
  for (const auto& slot : lanes()) {
    LaneCounters c;
    c.exec_ns = slot->exec_ns.load(std::memory_order_relaxed);
    c.exec_cpu_ns = slot->exec_cpu_ns.load(std::memory_order_relaxed);
    c.queue_idle_ns = slot->queue_idle_ns.load(std::memory_order_relaxed);
    c.barrier_wait_ns = slot->barrier_wait_ns.load(std::memory_order_relaxed);
    c.tasks = slot->tasks.load(std::memory_order_relaxed);
    c.steals = slot->steals.load(std::memory_order_relaxed);
    c.worker = slot->worker;
    c.wall_ns = now > slot->registered_ns
                    ? static_cast<std::uint64_t>(now - slot->registered_ns)
                    : 0;
    // Fold the in-progress phase up to "now" so a parked worker's current
    // idle stretch is visible. phase/phase_start are read separately, so a
    // racing phase switch can skew this by one segment — benign.
    const int ph = slot->phase.load(std::memory_order_relaxed);
    if (ph != 0) {
      const std::int64_t start =
          slot->phase_start_ns.load(std::memory_order_relaxed);
      const std::int64_t dt = now - start;
      if (dt > 0) {
        const auto add = static_cast<std::uint64_t>(dt);
        switch (static_cast<telemetry::Phase>(ph)) {
          case telemetry::Phase::kQueueIdle:
            c.queue_idle_ns += add;
            break;
          case telemetry::Phase::kBarrierWait:
            c.barrier_wait_ns += add;
            break;
          default:
            c.exec_ns += add;
            break;
        }
      }
    }
    out.push_back(c);
  }
  return out;
}

void publish_runtime_metrics() {
  const std::vector<LaneCounters> snap = lane_snapshot();
  obs::MetricsRegistry& reg = obs::registry();
  double exec_s = 0.0, cpu_s = 0.0, idle_s = 0.0, barrier_s = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;
  std::size_t workers = 0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const LaneCounters& l = snap[i];
    const double e = obs::ns_to_seconds(static_cast<std::int64_t>(l.exec_ns));
    const double ec =
        obs::ns_to_seconds(static_cast<std::int64_t>(l.exec_cpu_ns));
    const double qi =
        obs::ns_to_seconds(static_cast<std::int64_t>(l.queue_idle_ns));
    const double bw =
        obs::ns_to_seconds(static_cast<std::int64_t>(l.barrier_wait_ns));
    const double wall =
        obs::ns_to_seconds(static_cast<std::int64_t>(l.wall_ns));
    exec_s += e;
    cpu_s += ec;
    idle_s += qi;
    barrier_s += bw;
    tasks += l.tasks;
    steals += l.steals;
    if (l.worker) ++workers;
    const std::string prefix = str::format("runtime.lane.%zu.", i);
    reg.gauge(prefix + "exec_s").set(e);
    reg.gauge(prefix + "exec_cpu_s").set(ec);
    reg.gauge(prefix + "queue_idle_s").set(qi);
    reg.gauge(prefix + "barrier_wait_s").set(bw);
    reg.gauge(prefix + "wall_s").set(wall);
    reg.gauge(prefix + "tasks").set(static_cast<double>(l.tasks));
    reg.gauge(prefix + "steals").set(static_cast<double>(l.steals));
    reg.gauge(prefix + "worker").set(l.worker ? 1.0 : 0.0);
    reg.gauge(prefix + "utilization").set(wall > 0.0 ? e / wall : 0.0);
  }
  reg.gauge("runtime.lanes").set(static_cast<double>(snap.size()));
  reg.gauge("runtime.workers").set(static_cast<double>(workers));
  reg.gauge("runtime.exec_s").set(exec_s);
  reg.gauge("runtime.exec_cpu_s").set(cpu_s);
  reg.gauge("runtime.queue_idle_s").set(idle_s);
  reg.gauge("runtime.barrier_wait_s").set(barrier_s);
  reg.gauge("runtime.tasks").set(static_cast<double>(tasks));
  reg.gauge("runtime.steals").set(static_cast<double>(steals));
  reg.gauge("runtime.task_graph.graphs")
      .set(static_cast<double>(g_task_graphs.load(std::memory_order_relaxed)));
  reg.gauge("runtime.task_graph.tasks")
      .set(static_cast<double>(
          g_task_graph_tasks.load(std::memory_order_relaxed)));
  reg.gauge("runtime.task_graph.edges")
      .set(static_cast<double>(
          g_task_graph_edges.load(std::memory_order_relaxed)));
  reg.gauge("runtime.task_graph.dynamic_fors")
      .set(static_cast<double>(g_dynamic_fors.load(std::memory_order_relaxed)));
  reg.gauge("runtime.inline_fors")
      .set(static_cast<double>(g_inline_fors.load(std::memory_order_relaxed)));
}

}  // namespace tka::runtime

#else  // !TKA_OBS_ENABLED

namespace tka::runtime {

std::vector<LaneCounters> lane_snapshot() { return {}; }
void publish_runtime_metrics() {}

}  // namespace tka::runtime

#endif  // TKA_OBS_ENABLED
