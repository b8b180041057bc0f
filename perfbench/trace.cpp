#include "trace.h"

#include <atomic>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

thread_local std::vector<uint32_t> t_open;  // this thread's open spans
thread_local int16_t t_worker = -1;
std::atomic<int16_t> g_next_worker{1};
std::thread::id g_main_thread;

int16_t worker_index() {
  if (t_worker < 0) {
    t_worker = std::this_thread::get_id() == g_main_thread
                   ? int16_t{0}
                   : g_next_worker.fetch_add(1);
  }
  return t_worker;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRoot: return "root";
    case Layer::kPipeline: return "pipeline";
    case Layer::kFleet: return "fleet";
    case Layer::kSim: return "sim";
    case Layer::kAttest: return "attest";
    case Layer::kSched: return "sched";
    case Layer::kOta: return "ota";
    case Layer::kHeal: return "heal";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  g_main_thread = std::this_thread::get_id();
}

int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint32_t Tracer::begin(Layer layer, const char* name, int32_t device,
                       int8_t policy, uint32_t parent) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.device = device;
  span.policy = policy;
  span.worker = worker_index();
  span.parent = parent != 0 ? parent : current();
  span.start_ns = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
    span.id = static_cast<uint32_t>(spans_.size());
    spans_.back().id = span.id;
  }
  t_open.push_back(span.id);
  return span.id;
}

void Tracer::end(uint32_t id, uint64_t work, uint64_t work2) {
  const int64_t now = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end_ns = now;
  span.work = work;
  span.work2 = work2;
}

uint32_t Tracer::current() const { return t_open.empty() ? 0 : t_open.back(); }

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "id\tparent\tlayer\tname\tstart_ns\tend_ns\tdevice\tworker\t"
               "policy\twork\twork2\n");
  for (const Span& s : spans()) {
    std::fprintf(out, "%u\t%u\t%s\t%s\t%lld\t%lld\t%d\t%d\t%d\t%llu\t%llu\n",
                 s.id, s.parent, layer_name(s.layer), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.device, s.worker,
                 s.policy, static_cast<unsigned long long>(s.work),
                 static_cast<unsigned long long>(s.work2));
  }
  return std::fclose(out) == 0;
}

namespace {

void add(TraceSummary::Call& call, const Span& s) {
  call.ns += s.duration();
  ++call.calls;
  call.work += s.work;
  call.work2 += s.work2;
}

}  // namespace

TraceSummary summarize(const std::vector<Span>& spans) {
  TraceSummary summary;
  std::vector<int64_t> child_ns(spans.size() + 1, 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const Span& parent = spans[s.parent - 1];
    if (s.worker == 0 && parent.worker == 0) child_ns[s.parent] += s.duration();
  }
  std::vector<bool> fanout_counted(spans.size() + 1, false);
  for (const Span& s : spans) {
    if (s.worker != 0) {
      add(summary.worker_calls[{s.name, s.policy}], s);
      if (s.parent != 0 && !fanout_counted[s.parent]) {
        const Span& parent = spans[s.parent - 1];
        if (parent.worker == 0) {
          fanout_counted[s.parent] = true;
          summary.fanout_ns[parent.name] += parent.duration();
        }
      }
      continue;
    }
    summary.self_ns[static_cast<size_t>(s.layer)] +=
        s.duration() - child_ns[s.id];
    if (s.layer == Layer::kRoot && s.parent == 0) {
      summary.wall_ns += s.duration();
    }
    add(summary.calls[s.name], s);
  }
  return summary;
}

}  // namespace perfbench
