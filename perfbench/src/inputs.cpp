#include "inputs.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng r(seed ^ (tag * 0xd1342543de82ef95ull));
  return r.next();
}

namespace {

std::map<std::string, std::string> fields_of(std::istringstream& in,
                                             int line_no) {
  std::map<std::string, std::string> out;
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error("line " + std::to_string(line_no) +
                               ": expected key=value, got `" + tok + "`");
    }
    out[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return out;
}

std::string take(std::map<std::string, std::string>& f, const char* key,
                 int line_no) {
  const auto it = f.find(key);
  if (it == f.end()) {
    throw std::runtime_error("line " + std::to_string(line_no) +
                             ": missing `" + key + "`");
  }
  std::string v = it->second;
  f.erase(it);
  return v;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string hex_name(char prefix, std::uint64_t bits) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%c%08llx", prefix,
                static_cast<unsigned long long>(bits & 0xffffffffull));
  return buf;
}

}  // namespace

TextModel parse_text_model(const std::string& text) {
  TextModel m;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "platform") {
      std::string cores;
      in >> cores;
      if (cores.rfind("cores=", 0) != 0) {
        throw std::runtime_error("platform line must start with cores=");
      }
      m.cores = std::stoi(cores.substr(6));
      std::getline(in, m.platform_rest);
    } else if (kind == "task") {
      auto f = fields_of(in, line_no);
      TextTask t;
      t.name = take(f, "name", line_no);
      t.period_ns = std::stoll(take(f, "period_ns", line_no));
      t.wcet_ns = std::stoll(take(f, "wcet_ns", line_no));
      t.core = std::stoi(take(f, "core", line_no));
      t.priority = std::stoi(take(f, "priority", line_no));
      if (f.count("gamma_ns")) {
        t.gamma_ns = std::stoll(take(f, "gamma_ns", line_no));
      }
      if (!f.empty()) {
        throw std::runtime_error("line " + std::to_string(line_no) +
                                 ": unexpected task key `" +
                                 f.begin()->first + "`");
      }
      m.tasks.push_back(std::move(t));
    } else if (kind == "label") {
      auto f = fields_of(in, line_no);
      TextLabel l;
      l.name = take(f, "name", line_no);
      l.bytes = std::stoll(take(f, "bytes", line_no));
      l.writer = take(f, "writer", line_no);
      l.readers = split_commas(take(f, "readers", line_no));
      if (!f.empty()) {
        throw std::runtime_error("line " + std::to_string(line_no) +
                                 ": unexpected label key `" +
                                 f.begin()->first + "`");
      }
      m.labels.push_back(std::move(l));
    } else {
      throw std::runtime_error("line " + std::to_string(line_no) +
                               ": unknown directive `" + kind + "`");
    }
  }
  if (m.cores <= 0 || m.tasks.empty()) {
    throw std::runtime_error("model has no platform or no tasks");
  }
  return m;
}

std::string emit(const TextModel& m) {
  std::string out = "# letdma application v1\nplatform cores=" +
                    std::to_string(m.cores) + m.platform_rest + "\n";
  for (const TextTask& t : m.tasks) {
    out += "task name=" + t.name + " period_ns=" + std::to_string(t.period_ns) +
           " wcet_ns=" + std::to_string(t.wcet_ns) +
           " core=" + std::to_string(t.core) +
           " priority=" + std::to_string(t.priority);
    if (t.gamma_ns >= 0) out += " gamma_ns=" + std::to_string(t.gamma_ns);
    out += "\n";
  }
  for (const TextLabel& l : m.labels) {
    out += "label name=" + l.name + " bytes=" + std::to_string(l.bytes) +
           " writer=" + l.writer + " readers=";
    for (std::size_t r = 0; r < l.readers.size(); ++r) {
      out += (r ? "," : "") + l.readers[r];
    }
    out += "\n";
  }
  return out;
}

TextModel renumber(const TextModel& m, Rng& rng) {
  const auto permutation = [&](std::size_t n) {
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = i;
    rng.shuffle(p);
    return p;
  };
  const std::vector<std::size_t> core_perm =
      permutation(static_cast<std::size_t>(m.cores));
  const std::vector<std::size_t> task_order = permutation(m.tasks.size());
  const std::vector<std::size_t> label_order = permutation(m.labels.size());

  TextModel out;
  out.cores = m.cores;
  out.platform_rest = m.platform_rest;
  std::map<std::string, std::string> renamed;
  for (std::size_t k = 0; k < task_order.size(); ++k) {
    TextTask t = m.tasks[task_order[k]];
    const std::string fresh = hex_name('T', rng.next()) + std::to_string(k);
    renamed[t.name] = fresh;
    t.name = fresh;
    t.core = static_cast<int>(core_perm[static_cast<std::size_t>(t.core)]);
    out.tasks.push_back(std::move(t));
  }
  for (std::size_t k = 0; k < label_order.size(); ++k) {
    TextLabel l = m.labels[label_order[k]];
    l.name = hex_name('L', rng.next()) + std::to_string(k);
    l.writer = renamed.at(l.writer);
    for (std::string& r : l.readers) r = renamed.at(r);
    rng.shuffle(l.readers);
    out.labels.push_back(std::move(l));
  }
  return out;
}

void edit_label_sizes(TextModel& m, const std::vector<std::int64_t>& base,
                      Rng& rng) {
  const std::size_t n = m.labels.size();
  // The open interval of sizes that keeps label l's rank in size order.
  const auto bounds = [&](std::size_t l, std::int64_t* lo, std::int64_t* hi) {
    const std::int64_t own = m.labels[l].bytes;
    *lo = std::max<std::int64_t>(0, base[l] / 4 - 1);
    *hi = base[l] * 2 + 1;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == l) continue;
      const std::int64_t other = m.labels[k].bytes;
      if (other == own) return false;  // a tie: never edited
      if (other < own) *lo = std::max(*lo, other);
      if (other > own) *hi = std::min(*hi, other);
    }
    return *hi - *lo > 2;  // room for a size other than the current one
  };
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits;) {
    const std::size_t l = rng.below(n);
    std::int64_t lo = 0, hi = 0;
    if (!bounds(l, &lo, &hi)) continue;
    const std::int64_t bytes = rng.range(lo + 1, hi - 1);
    if (bytes == m.labels[l].bytes) continue;
    m.labels[l].bytes = bytes;
    ++e;
  }
}

namespace {

struct LadderStep {
  int cores, tasks, labels;
};
constexpr LadderStep kLadder[] = {{2, 4, 10},   {3, 6, 20},   {4, 8, 35},
                                  {6, 12, 60},  {8, 16, 90},  {12, 24, 140},
                                  {16, 32, 200}};
constexpr int kSteps = static_cast<int>(sizeof kLadder / sizeof kLadder[0]);

}  // namespace

int scaled_ladder_size() { return 2 * kSteps; }

ScaledSpec scaled_spec(int index) {
  const LadderStep& s = kLadder[index % kSteps];
  return ScaledSpec{s.cores, s.tasks, s.labels, (index / kSteps) % 2 == 0};
}

TextModel scaled_instance(const ScaledSpec& spec, Rng& rng) {
  static const std::int64_t kHarmonic[] = {5, 10, 20, 40};
  static const std::int64_t kNonHarmonic[] = {4, 5, 6, 10, 12, 20};
  const std::int64_t* menu = spec.harmonic ? kHarmonic : kNonHarmonic;
  const std::uint64_t menu_size = spec.harmonic ? 4 : 6;
  // Larger instances get proportionally longer periods, so the s0
  // transfers of ~2.5 communications per label always fit before the next
  // instant and every acquisition deadline.
  const std::int64_t ms = 1'000'000 * ((spec.labels + 39) / 40);

  TextModel m;
  m.cores = spec.cores;
  m.platform_rest =
      " odp_ns=3360 oisr_ns=10000 wc=1 cpu_wc=4 cpu_oh_ns=200";
  const int offset =
      static_cast<int>(rng.below(static_cast<std::uint64_t>(spec.cores)));
  for (int t = 0; t < spec.tasks; ++t) {
    TextTask task;
    task.name = "t" + std::to_string(t);
    task.period_ns = menu[rng.below(menu_size)] * ms;
    task.wcet_ns = task.period_ns * rng.range(1, 8) / 100;
    task.core = (t + offset) % spec.cores;
    m.tasks.push_back(std::move(task));
  }
  // Explicit rate-monotonic priorities per core (ties by index), so the
  // text alone fixes them.
  for (int c = 0; c < spec.cores; ++c) {
    std::vector<int> on_core;
    for (int t = 0; t < spec.tasks; ++t) {
      if (m.tasks[static_cast<std::size_t>(t)].core == c) on_core.push_back(t);
    }
    std::stable_sort(on_core.begin(), on_core.end(), [&](int a, int b) {
      return m.tasks[static_cast<std::size_t>(a)].period_ns <
             m.tasks[static_cast<std::size_t>(b)].period_ns;
    });
    for (std::size_t p = 0; p < on_core.size(); ++p) {
      m.tasks[static_cast<std::size_t>(on_core[p])].priority =
          static_cast<int>(p);
    }
  }
  for (int l = 0; l < spec.labels; ++l) {
    TextLabel label;
    label.name = "l" + std::to_string(l);
    label.bytes = rng.range(64, 1024);
    const std::size_t writer =
        rng.below(static_cast<std::uint64_t>(spec.tasks));
    label.writer = m.tasks[writer].name;
    // Readers sit on other cores than the writer, so every label is a
    // DMA communication.
    std::vector<std::size_t> candidates;
    for (std::size_t t = 0; t < m.tasks.size(); ++t) {
      if (m.tasks[t].core != m.tasks[writer].core) candidates.push_back(t);
    }
    rng.shuffle(candidates);
    const std::size_t readers =
        std::min<std::size_t>(1 + rng.below(2), candidates.size());
    for (std::size_t r = 0; r < readers; ++r) {
      label.readers.push_back(m.tasks[candidates[r]].name);
    }
    m.labels.push_back(std::move(label));
  }
  return m;
}

void Digest::add(const std::string& bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
  h_ ^= 0xff;
  h_ *= 0x100000001b3ull;
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
