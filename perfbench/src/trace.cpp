#include "trace.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

std::int32_t Recorder::open(const char* name, std::int32_t parent,
                            std::uint64_t op) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.start = now();
  span.end = span.start;
  return add(span);
}

std::int32_t Recorder::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Recorder::write_csv(std::ostream& out) const {
  out << "index,parent,op,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.op << ',' << s.name << ','
        << s.start << ',' << s.end << '\n';
  }
}

std::vector<Nanos> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Nanos, Nanos>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const Nanos lo = std::max(s.start, p.start);
    const Nanos hi = std::min(s.end, p.end);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<Nanos> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Nanos covered = 0;
    Nanos reach = spans[i].start;
    for (const auto& [lo, hi] : kids) {
      const Nanos from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = std::max<Nanos>(0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

Ledger ledger_ms(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  Ledger ledger;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    ledger[spans[i].op][spans[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  return ledger;
}

}  // namespace perfbench
