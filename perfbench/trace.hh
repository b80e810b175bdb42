/**
 * @file
 * Host-time span recorder for the benchmark's traced runs.
 *
 * Spans are recorded only around the benchmark's own calls into the
 * simulator's layers (Machine construction, enclave build, channel
 * start, the warm-up and window inside Engine::run, edge calls, spec
 * kernels). Nothing inside the simulator is instrumented, so tracing
 * cannot move a simulated cycle. Spans stay in memory and are written
 * once, as Chrome trace-event JSON, when the run ends.
 *
 * A disabled tracer records nothing; every Scope on it is two branch
 * tests, which is what the untraced reps of a run pay.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** @return host steady-clock time in seconds. */
double hostNow();

class Tracer
{
  public:
    /** Parent id meaning "the innermost span still open on the host
     *  stack" (spans opened by nested host calls). */
    static constexpr int kStackParent = -2;
    static constexpr int kNoParent = -1;

    explicit Tracer(bool enabled) : on_(enabled) {}

    bool enabled() const { return on_; }

    /**
     * Open a span. With @p parent == kStackParent the span nests in
     * the innermost open stack span and becomes the new innermost
     * one; with an explicit parent (spans opened by concurrent
     * simulated fibers) it leaves the stack alone.
     * @return the span id, or -1 when disabled
     */
    int begin(const char *name, const char *layer,
              int parent = kStackParent);

    /** Close span @p id (no-op for -1). */
    void end(int id);

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, const char *layer,
              int parent = kStackParent)
            : tracer_(tracer), id_(tracer.begin(name, layer, parent))
        {
        }
        ~Scope() { tracer_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        int id() const { return id_; }

      private:
        Tracer &tracer_;
        int id_;
    };

    /**
     * Self time per layer: each span's duration minus the part of
     * its interval covered by the union of its children, summed by
     * layer.
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    std::size_t spanCount() const { return spans_.size(); }

    /** Spans written per name over the whole file; per-call spans
     *  beyond it count in the self-time sums but stay out of it. */
    static constexpr std::size_t kMaxWrittenPerName = 500;

    /**
     * Append this tracer's spans to @p out as Chrome trace events on
     * thread @p tid (one tid per rep), comma-separated. @p written
     * counts the spans written per name so far.
     */
    void appendChromeEvents(std::string &out, int tid, double origin,
                            std::map<std::string, std::size_t> &written)
        const;

  private:
    struct Span {
        const char *name;
        const char *layer;
        int parent;
        double start;
        double end;
    };

    bool on_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Write @p events (comma-separated trace events) as a Chrome
 *  trace-event file. @return false when the file cannot be written. */
bool writeChromeTrace(const std::string &path, const std::string &events);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
