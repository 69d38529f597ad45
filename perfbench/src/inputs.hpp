// Benchmark-owned inputs: a seeded generator, a text-level view of the
// letdma application format, and the request-shaping operations the
// workloads apply to it (renumbering, label edits, the scaled family).
//
// None of this calls into letdma: a change to model::generate_application,
// model::permute_application or the repository's bench utilities cannot
// change what the benchmark measures. The frozen models under data/ and the
// code below are the whole definition of every input.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64. Integer-only, so a seed gives the same inputs with every
/// compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n must be positive.
  std::uint64_t below(std::uint64_t n);
  /// Uniform in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Mixes a run seed with a stream tag, so the streams of one run (requests,
/// edits, background) are independent of each other.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

struct TextTask {
  std::string name;
  std::int64_t period_ns = 0;
  std::int64_t wcet_ns = 0;
  int core = 0;
  int priority = 0;
  std::int64_t gamma_ns = -1;  // -1: no acquisition deadline
};

struct TextLabel {
  std::string name;
  std::int64_t bytes = 0;
  std::string writer;
  std::vector<std::string> readers;
};

/// The application text format, parsed only as far as the workloads need
/// to rewrite it. `platform_rest` keeps every platform key after `cores=`
/// verbatim.
struct TextModel {
  int cores = 0;
  std::string platform_rest;
  std::vector<TextTask> tasks;
  std::vector<TextLabel> labels;
};

/// Parses the subset of the format the frozen models use. Throws
/// std::runtime_error on anything else.
TextModel parse_text_model(const std::string& text);
std::string emit(const TextModel& model);

/// An isomorphic copy: tasks, labels and cores renumbered and every task
/// and label renamed, so nothing but the structure is shared with `model`.
TextModel renumber(const TextModel& model, Rng& rng);

/// Resizes one to three labels of `model`. Every new size lies strictly
/// between the sizes of the label's neighbours in size order and within
/// [base/4, 2*base] of its `base_bytes` entry, and labels tied in size are
/// never edited: no label changes rank. Canonical colours start from the
/// label-size order, so an edit that reorders sizes relabels the canonical
/// form, and model::canonical_distance then reports several changed labels
/// for one resized label (NOTES.md, "Findings").
void edit_label_sizes(TextModel& model,
                      const std::vector<std::int64_t>& base_bytes, Rng& rng);

/// One size class of the scaled family.
struct ScaledSpec {
  int cores = 2;
  int tasks = 4;
  int labels = 10;
  bool harmonic = true;
};

/// The size ladder of the scaled family, 10 -> 200 labels over 2 -> 16
/// cores, harmonic and non-harmonic periods alternating.
ScaledSpec scaled_spec(int index);
int scaled_ladder_size();

/// A random instance of the scaled family. Periods come from
/// {5,10,20,40} (harmonic) or {4,5,6,10,12,20} (non-harmonic) units of
/// ceil(labels/40) ms, which keeps T* at most 28 instants with gaps of at
/// least one unit; with label sizes of 64..1024 bytes every instance is
/// feasible under the DMA cost model.
TextModel scaled_instance(const ScaledSpec& spec, Rng& rng);

/// 64-bit FNV-1a, folded over every request text to print a digest of the
/// request stream.
class Digest {
 public:
  void add(const std::string& bytes);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
