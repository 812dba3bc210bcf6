// Shared helpers of the example CLIs (redcane_cli, redcane_serve,
// redcane_dist): the minimal --flag value parser (numbers under
// util/parse's rule; a bad value exits 2) and the dataset-name mapping. Header-only so
// the examples/*.cpp -> one-binary-each build rule stays untouched.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "data/idx.hpp"
#include "data/synthetic.hpp"
#include "util/parse.hpp"

namespace redcane::examples {

/// Minimal --flag value parser over argv.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// True when `flag` appears anywhere in argv (value-less switches).
  [[nodiscard]] bool has(const std::string& flag) const {
    for (int i = 0; i < argc_; ++i) {
      if (flag == argv_[i]) return true;
    }
    return false;
  }

  /// Value following `flag`, or `fallback` when absent.
  [[nodiscard]] std::string get(const std::string& flag, const std::string& fallback) const {
    for (int i = 0; i + 1 < argc_; ++i) {
      if (flag == argv_[i]) return argv_[i + 1];
    }
    return fallback;
  }

  /// Real value following `flag`, or `fallback` when absent.
  [[nodiscard]] double get_real(const std::string& flag, double fallback) const {
    const std::string v = get(flag, "");
    double out = fallback;
    if (!v.empty() && !util::parse_real(v, &out)) bad_value(flag, v, "a finite number");
    return out;
  }

  /// Integer value in [lo, hi] following `flag`, or `fallback` when absent.
  [[nodiscard]] std::int64_t get_int(const std::string& flag, std::int64_t fallback,
                                     std::int64_t lo, std::int64_t hi) const {
    return int_value(flag, get(flag, ""), fallback, lo, hi);
  }

  /// Unsigned 64-bit value following `flag`, or `fallback` when absent.
  [[nodiscard]] std::uint64_t get_uint64(const std::string& flag, std::uint64_t fallback) const {
    const std::string v = get(flag, "");
    std::uint64_t out = fallback;
    if (!v.empty() && !util::parse_int(v, &out)) bad_value(flag, v, "an unsigned 64-bit integer");
    return out;
  }

  /// `text` as an integer in [lo, hi] (`fallback` when empty); `what` names
  /// the flag or variable it came from in the error.
  [[nodiscard]] static std::int64_t int_value(const std::string& what, const std::string& text,
                                              std::int64_t fallback, std::int64_t lo,
                                              std::int64_t hi) {
    std::int64_t out = fallback;
    if (!text.empty() && !util::parse_int(text, &out, lo, hi)) {
      bad_value(what, text,
                "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return out;
  }

 private:
  /// Flag values follow util/parse's number rule; anything else is a usage
  /// error that names the flag.
  [[noreturn]] static void bad_value(const std::string& what, const std::string& text,
                                     const std::string& expected) {
    std::fprintf(stderr, "%s: '%s' is not %s\n", what.c_str(), text.c_str(), expected.c_str());
    std::exit(2);
  }

  int argc_;
  char** argv_;
};

/// Largest value of an int-typed flag.
inline constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Dataset name -> kind; exits with usage message on an unknown name.
inline data::DatasetKind dataset_kind_of(const std::string& name) {
  if (name == "mnist") return data::DatasetKind::kMnist;
  if (name == "fashion") return data::DatasetKind::kFashionMnist;
  if (name == "cifar10") return data::DatasetKind::kCifar10;
  if (name == "svhn") return data::DatasetKind::kSvhn;
  std::fprintf(stderr, "unknown dataset '%s' (mnist|fashion|cifar10|svhn)\n", name.c_str());
  std::exit(2);
}

/// Benchmark dataset honoring --data-dir: with the flag set and the
/// dataset MNIST, real IDX files are loaded from that directory
/// (data::load_mnist falls back to synthetic with a warning when they are
/// absent). Other datasets have no offline archive format wired up yet and
/// always use the synthetic stand-ins.
inline data::Dataset load_cli_dataset(const Args& args, data::DatasetKind kind,
                                      std::int64_t hw, std::int64_t train_n,
                                      std::int64_t test_n) {
  const std::string dir = args.get("--data-dir", "");
  if (!dir.empty()) {
    if (kind == data::DatasetKind::kMnist) {
      return data::load_mnist(dir, hw, train_n, test_n);
    }
    std::fprintf(stderr,
                 "--data-dir only loads mnist IDX files; using the synthetic %s\n",
                 data::dataset_kind_name(kind));
  }
  return data::make_benchmark(kind, hw, train_n, test_n);
}

}  // namespace redcane::examples
