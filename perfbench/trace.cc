/**
 * @file
 * Host-time span recorder implementation.
 */

#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

double
hostNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

int
Tracer::begin(const char *name, const char *layer, int parent)
{
    if (!on_)
        return -1;
    const bool from_stack = parent == kStackParent;
    if (from_stack)
        parent = stack_.empty() ? kNoParent : stack_.back();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, layer, parent, hostNow(), -1.0});
    if (from_stack)
        stack_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end = hostNow();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const auto &s : spans_) {
        if (s.parent >= 0 && s.end >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        if (s.end < 0)
            continue;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the child intervals, clipped to the span.
        double covered = 0, run_start = 0, run_end = -1;
        for (auto [a, b] : kids) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (a > run_end) {
                if (run_end > run_start)
                    covered += run_end - run_start;
                run_start = a;
                run_end = b;
            } else {
                run_end = std::max(run_end, b);
            }
        }
        if (run_end > run_start)
            covered += run_end - run_start;
        self[s.layer] += (s.end - s.start) - covered;
    }
    return self;
}

void
Tracer::appendChromeEvents(std::string &out, int tid, double origin,
                           std::map<std::string, std::size_t> &written)
    const
{
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        if (s.end < 0 || ++written[s.name] > kMaxWrittenPerName)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d}}",
                      out.empty() ? "" : ",\n", s.name, s.layer, tid,
                      (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                      i, s.parent);
        out += buf;
    }
}

bool
writeChromeTrace(const std::string &path, const std::string &events)
{
    std::ofstream file(path);
    if (!file)
        return false;
    file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
         << events << "\n]}\n";
    return static_cast<bool>(file);
}

} // namespace perfbench
