#include <cstdio>
#include <map>

#include "bench.h"

namespace servebench {

int
Tracer::begin(const char *name, int request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.startUs = nowUs();
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    spans_.push_back(std::move(s));
    open_.push_back(int(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TENDER_CHECK(!open_.empty() && open_.back() == span);
    open_.pop_back();
    spans_[size_t(span)].endUs = nowUs();
}

int
Tracer::beginRequest(int request, Clock::time_point start)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = kRequestSpan;
    s.startUs = usBetween(origin_, start);
    s.request = request;
    spans_.push_back(std::move(s));
    return int(spans_.size()) - 1;
}

void
Tracer::endRequest(int span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(span)].endUs = nowUs();
}

void
Tracer::setRequest(int span, int request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(span)].request = request;
}

void
Tracer::arg(int span, const char *key, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(span)].args.emplace_back(key, value);
}

void
Tracer::writeChrome(const std::vector<Span> &spans, const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    TENDER_REQUIRE(f, "cannot write trace file " << path);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Request spans overlap each other, so each gets its own track;
        // the nested submit/step/matmul spans share track 0.
        const int tid = s.name == kRequestSpan ? 1 + s.request : 0;
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"request\": %d",
                     i ? ",\n" : "", s.name, tid, s.startUs,
                     s.endUs - s.startUs, i, s.parent, s.request);
        for (const auto &[key, value] : s.args)
            std::fprintf(f, ", \"%s\": %.6g", key, value);
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    TENDER_REQUIRE(std::fclose(f) == 0, "cannot write trace file " << path);
}

double
spanArg(const Span &span, const char *key)
{
    for (const auto &[k, v] : span.args)
        if (std::string(k) == key)
            return v;
    return 0.0;
}

std::vector<std::pair<std::string, double>>
selfTimesUs(const std::vector<Span> &spans)
{
    // Children of one parent never overlap (they are opened and closed
    // LIFO on one thread), so covered time is the sum of their durations.
    std::vector<double> childUs(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childUs[size_t(s.parent)] += s.endUs - s.startUs;
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name != kRequestSpan) // lifetimes, not layer work
            self[spans[i].name] +=
                spans[i].endUs - spans[i].startUs - childUs[i];
    return {self.begin(), self.end()};
}

void
TimedScheme::attach(Tracer *tracer)
{
    tracer_ = tracer;
    calls_ = 0;
    busyUs_ = 0.0;
    ops_ = 0.0;
}

tender::Matrix
TimedScheme::matmul(const tender::Matrix &x, const tender::Matrix &w) const
{
    const auto t0 = Clock::now();
    const int span = tracer_ ? tracer_->begin("tender_gemm.matmul") : -1;
    tender::Matrix y = inner_.matmul(x, w);
    if (tracer_)
        tracer_->end(span);
    busyUs_ += usBetween(t0, Clock::now());
    ++calls_;
    ops_ += 2.0 * x.rows() * x.cols() * w.cols();
    return y;
}

} // namespace servebench
