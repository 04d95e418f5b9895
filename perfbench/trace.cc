#include "trace.hh"

#include <fstream>

#include "common/logging.hh"

namespace perfbench
{

int64_t
Tracer::nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint32_t
Tracer::intern(std::string_view name)
{
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    auto id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(std::string(name), id);
    return id;
}

uint32_t
Tracer::open(std::string_view name, uint64_t calls)
{
    Span s;
    s.name = intern(name);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.tag = tag_;
    s.calls = calls;
    spans_.push_back(s);
    auto handle = static_cast<uint32_t>(spans_.size());
    stack_.push_back(handle);
    // Read the clock last, so the bookkeeping above is not timed.
    spans_.back().startNs = nowNs();
    return handle;
}

void
Tracer::close(uint32_t handle)
{
    int64_t end = nowNs();
    if (stack_.empty() || stack_.back() != handle)
        etpu_panic("trace span closed out of order");
    spans_[handle - 1].endNs = end;
    stack_.pop_back();
}

uint32_t
Tracer::append(std::string_view name, uint32_t parent, int64_t start_ns,
               int64_t end_ns, uint64_t calls)
{
    if (parent > spans_.size())
        etpu_panic("trace span appended under a missing parent");
    Span s;
    s.name = intern(name);
    s.parent = parent;
    s.tag = tag_;
    s.calls = calls;
    s.startNs = start_ns;
    s.endNs = end_ns;
    spans_.push_back(s);
    return static_cast<uint32_t>(spans_.size());
}

std::vector<double>
Tracer::selfTimesS() const
{
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); i++)
        self[i] = spans_[i].durationNs();
    for (const Span &s : spans_) {
        if (s.parent)
            self[s.parent - 1] -= s.durationNs();
    }
    std::vector<double> out(self.size());
    for (size_t i = 0; i < self.size(); i++)
        out[i] = static_cast<double>(self[i]) * 1e-9;
    return out;
}

std::map<std::string, LayerTotals>
Tracer::totals() const
{
    std::map<std::string, LayerTotals> out;
    std::vector<double> self = selfTimesS();
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        LayerTotals &t = out[names_[s.name]];
        t.calls += s.calls;
        t.selfS += self[i];
        t.totalS += static_cast<double>(s.durationNs()) * 1e-9;
        t.durationsUs.push_back(static_cast<double>(s.durationNs()) *
                                1e-3);
    }
    return out;
}

namespace
{

/** Whether @p name is a layer span (not a "bench." grouping span). */
bool
isLayerSpan(std::string_view name)
{
    return name.substr(0, 6) != "bench.";
}

} // namespace

double
Tracer::coveragePct(std::string_view root) const
{
    auto it = ids_.find(root);
    if (it == ids_.end())
        return 0.0;
    const uint32_t root_id = it->second;
    std::vector<double> self = selfTimesS();
    // under[i]: span i lies inside a root span (parents precede
    // children in record order, so one forward pass resolves it).
    std::vector<char> under(spans_.size(), 0);
    double layer_s = 0.0;
    double root_s = 0.0;
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        if (s.name == root_id) {
            under[i] = 1;
            if (!s.parent || !under[s.parent - 1])
                root_s += static_cast<double>(s.durationNs()) * 1e-9;
            continue;
        }
        under[i] = s.parent && under[s.parent - 1];
        if (under[i] && isLayerSpan(names_[s.name]))
            layer_s += self[i];
    }
    return root_s > 0.0 ? 100.0 * layer_s / root_s : 0.0;
}

double
Tracer::totalS(std::string_view name) const
{
    auto it = ids_.find(name);
    if (it == ids_.end())
        return 0.0;
    double s = 0.0;
    for (const Span &sp : spans_) {
        if (sp.name == it->second)
            s += static_cast<double>(sp.durationNs()) * 1e-9;
    }
    return s;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "name\tid\tparent\ttag\tcalls\tstart_ns\tend_ns\n";
    int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        out << names_[s.name] << '\t' << i + 1 << '\t' << s.parent
            << '\t' << s.tag << '\t' << s.calls << '\t'
            << s.startNs - origin << '\t' << s.endNs - origin << '\n';
    }
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
