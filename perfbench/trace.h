// Span recorder for the traced run. Spans are taken in the benchmark's
// own code, around each call it makes into a library layer's public
// functions -- nothing inside src/ is instrumented. Spans stay in
// memory and are written out once, when the run ends.
#ifndef EILID_PERFBENCH_TRACE_H
#define EILID_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// The layers wall time is attributed to, by library module. kRoot marks
// the benchmark's own enclosing spans (a set-up, a round, a release
// cycle); their self time is the unattributed residual.
enum class Layer : uint8_t {
  kRoot,
  kPipeline,  // masm + eilid/pipeline + instrumenter, behind Fleet::build
  kFleet,     // the registry: Fleet::deploy / decommission
  kSim,       // sim + isa dispatch (monitor callouts share these spans)
  kAttest,    // VerifierService barrier sweeps
  kSched,     // HeartbeatScheduler + IncrementalVerifier + FleetClock
  kOta,       // UpdateCampaign / transport / CampaignScheduler
  kHeal,      // HealthMonitor quarantine + remediation
  kCount,
};

const char* layer_name(Layer layer);

struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: none
  Layer layer = Layer::kRoot;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t device = -1;  // benchmark-local device index, -1: none
  int16_t worker = 0;   // 0: the driving thread, >0: a pool worker
  int8_t policy = -1;   // eilid::EnforcementPolicy, -1: mixed/none
  uint64_t work = 0;    // the call's unit of work (instructions, edges ...)
  uint64_t work2 = 0;   // a second count where one call has two

  int64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  Tracer();

  // Spans are recorded only while active; the traced run alternates
  // active and inactive rounds to measure its own overhead.
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  // Open a span on the calling thread. `parent` 0 means the innermost
  // span this thread has open (pool workers pass their caller's span).
  uint32_t begin(Layer layer, const char* name, int32_t device = -1,
                 int8_t policy = -1, uint32_t parent = 0);
  void end(uint32_t id, uint64_t work = 0, uint64_t work2 = 0);
  // The innermost span open on the calling thread (0: none).
  uint32_t current() const;

  std::vector<Span> spans() const;
  // One tab-separated line per span.
  bool write(const std::string& path) const;

 private:
  int64_t now_ns() const;

  bool active_ = false;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // indexed by id - 1
};

// RAII span; a no-op while the tracer is inactive.
class Scope {
 public:
  Scope(Tracer& tracer, Layer layer, const char* name, int32_t device = -1,
        int8_t policy = -1, uint32_t parent = 0)
      : tracer_(tracer),
        id_(tracer.active()
                ? tracer.begin(layer, name, device, policy, parent)
                : 0) {}
  ~Scope() {
    if (id_ != 0) tracer_.end(id_, work_, work2_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_work(uint64_t work, uint64_t work2 = 0) {
    work_ = work;
    work2_ = work2;
  }

 private:
  Tracer& tracer_;
  uint32_t id_;
  uint64_t work_ = 0;
  uint64_t work2_ = 0;
};

// What the spans say, per layer and per call name.
struct TraceSummary {
  struct Call {
    int64_t ns = 0;  // total duration
    uint64_t calls = 0;
    uint64_t work = 0;
    uint64_t work2 = 0;
  };
  int64_t wall_ns = 0;  // summed duration of the root spans
  int64_t self_ns[static_cast<size_t>(Layer::kCount)] = {};
  // Driving-thread calls by name; pool-worker calls by name + policy.
  std::map<std::string, Call> calls;
  std::map<std::pair<std::string, int>, Call> worker_calls;
  // Summed duration of the driving-thread spans that fanned work out to
  // pool workers, by name (the denominator of pool occupancy).
  std::map<std::string, int64_t> fanout_ns;
};

// Self time of a driving-thread span is its duration minus the part its
// driving-thread children cover; pool-worker spans run concurrently
// inside their parent and are summed separately as busy time.
TraceSummary summarize(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // EILID_PERFBENCH_TRACE_H
