// Shared driver for the Table 2/3/4 reproductions: runs the paper's §5
// protocol for all three schemes over b in {8,16,32,64} and prints each
// measure with the paper's reported value alongside, so shape agreement
// is visible at a glance.

#ifndef BMEH_BENCH_BENCH_COMMON_H_
#define BMEH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/metrics/experiment.h"

namespace bmeh {
namespace bench {

/// True when the BMEH_BENCH_SMOKE environment variable is set (and not
/// "0"): CI smoke mode — a bench shrinks its workload so it finishes in
/// seconds while still exercising every code path.
inline bool SmokeMode() {
  const char* v = std::getenv("BMEH_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Resolves a BENCH_*.json artifact name against $BMEH_BENCH_OUT_DIR
/// (unset or empty = the current directory), so CI can aim a bench at
/// the repo root no matter which build tree it runs from.
inline std::string BenchOutPath(const std::string& name) {
  const char* dir = std::getenv("BMEH_BENCH_OUT_DIR");
  if (dir == nullptr || dir[0] == '\0') return name;
  std::string path = dir;
  if (path.back() != '/') path += '/';
  return path + name;
}

/// Writes a rendered JSON exposition to `path`: the machine-readable
/// BENCH_*.json artifact CI uploads next to the human-readable stdout.
inline void WriteBenchJson(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

inline constexpr int kPageSizes[] = {8, 16, 32, 64};
inline constexpr metrics::Method kMethods[] = {
    metrics::Method::kMdeh, metrics::Method::kMehTree,
    metrics::Method::kBmehTree};

/// Paper-reported values for one (measure, method) row over the four page
/// capacities; a negative entry means "not applicable / unreported".
struct PaperRow {
  double v[4];
};

/// Paper values for one full table, indexed [measure][method]:
/// measures are lambda, lambda', rho, alpha, sigma (in that order),
/// methods are MDEH, MEH-tree, BMEH-tree.
struct PaperTable {
  PaperRow lambda[3];
  PaperRow lambda_prime[3];
  PaperRow rho[3];
  PaperRow alpha[3];
  PaperRow sigma[3];
};

struct TableResults {
  metrics::ExperimentResult r[3][4];  // [method][b-index]
};

/// Runs the 12 experiments of one table (3 methods x 4 page sizes) over a
/// single shared key sequence per (distribution, dims).
inline TableResults RunTable(const workload::WorkloadSpec& spec, uint64_t n,
                             uint64_t tail) {
  std::vector<PseudoKey> keys = workload::GenerateKeys(spec, n);
  std::vector<PseudoKey> absent =
      workload::GenerateAbsentKeys(spec, tail, keys);
  TableResults out;
  for (int mi = 0; mi < 3; ++mi) {
    for (int bi = 0; bi < 4; ++bi) {
      metrics::ExperimentConfig cfg;
      cfg.method = kMethods[mi];
      cfg.workload = spec;
      cfg.page_capacity = kPageSizes[bi];
      cfg.n = n;
      cfg.tail = tail;
      out.r[mi][bi] = metrics::RunExperiment(cfg, keys, absent);
    }
  }
  return out;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n", title);
  std::printf("N = 40,000 insertions; measures averaged over the last 4,000 (paper §5).\n");
  std::printf("Each cell: measured (paper's reported value).\n");
  std::printf("================================================================================\n");
}

inline void PrintMeasure(const char* name, const TableResults& res,
                         const PaperRow paper[3],
                         double (*get)(const metrics::ExperimentResult&),
                         const char* fmt_meas, const char* fmt_paper) {
  std::printf("%-28s %14s %16s %16s %16s\n", name, "b=8", "b=16", "b=32",
              "b=64");
  for (int mi = 0; mi < 3; ++mi) {
    std::printf("  %-26s", metrics::MethodName(kMethods[mi]));
    for (int bi = 0; bi < 4; ++bi) {
      char cell[80];
      char meas[32], pap[32];
      std::snprintf(meas, sizeof(meas), fmt_meas, get(res.r[mi][bi]));
      std::snprintf(pap, sizeof(pap), fmt_paper, paper[mi].v[bi]);
      std::snprintf(cell, sizeof(cell), "%.20s (%.20s)", meas, pap);
      std::printf(" %16s", cell);
    }
    std::printf("\n");
  }
}

inline void PrintTable(const char* title, const TableResults& res,
                       const PaperTable& paper) {
  PrintHeader(title);
  PrintMeasure("lambda (succ. search I/O)", res, paper.lambda,
               [](const metrics::ExperimentResult& r) { return r.lambda; },
               "%.3f", "%.3f");
  PrintMeasure("lambda' (unsucc. search)", res, paper.lambda_prime,
               [](const metrics::ExperimentResult& r) {
                 return r.lambda_prime;
               },
               "%.3f", "%.3f");
  PrintMeasure("rho (insert I/O, tail)", res, paper.rho,
               [](const metrics::ExperimentResult& r) { return r.rho; },
               "%.2f", "%.2f");
  PrintMeasure("alpha (load factor)", res, paper.alpha,
               [](const metrics::ExperimentResult& r) { return r.alpha; },
               "%.3f", "%.3f");
  PrintMeasure("sigma (directory size)", res, paper.sigma,
               [](const metrics::ExperimentResult& r) {
                 return static_cast<double>(r.sigma);
               },
               "%.0f", "%.0f");
  // Supplementary: whole-run rho (robust to doubling/window alignment,
  // DESIGN.md §2.7) — the paper reports tail-window rho only.
  std::printf("%-28s %14s %16s %16s %16s\n",
              "rho* (insert I/O, whole run)", "b=8", "b=16", "b=32", "b=64");
  for (int mi = 0; mi < 3; ++mi) {
    std::printf("  %-26s", metrics::MethodName(kMethods[mi]));
    for (int bi = 0; bi < 4; ++bi) {
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.2f",
                    res.r[mi][bi].rho_whole_run);
      std::printf(" %16s", cell);
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace bmeh

#endif  // BMEH_BENCH_BENCH_COMMON_H_
