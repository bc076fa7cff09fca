// Execution-governor experiments:
//
//   G1. Bounded latency: on the adversarial pigeonhole instance (certainty
//       TRUE by a pigeonhole argument, exponential for search) every
//       exponential solver honours a wall-clock deadline, and the kAuto
//       degradation cascade converts the exhausted exact run into a
//       qualified sampling verdict — all within ~2x the deadline.
//   G2. Probe overhead: the amortised CheckEvery probe must be cheap enough
//       to leave governed solver throughput unchanged on instances that
//       finish well within budget.

#include "bench_util.h"
#include "cqa/base/budget.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/naive.h"
#include "cqa/certainty/solver.h"
#include "cqa/gen/families.h"
#include "cqa/gen/poll.h"
#include "cqa/gen/random_db.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

void TableBoundedLatency() {
  benchutil::Header("GOVERNOR", "deadlines and degradation");
  std::printf("G1. pigeonhole(k=12), 50 ms deadline (wall-clock honoured?):\n");
  std::printf("%-22s %-20s %-10s %-12s\n", "solver", "outcome", "t_ms",
              "steps");
  Database db = PigeonholeDatabase(12);

  {
    Budget budget = Budget::WithTimeout(milliseconds(50));
    BacktrackingOptions opts;
    opts.budget = &budget;
    Result<BacktrackingReport> r{BacktrackingReport{}};
    double t = benchutil::TimeUs(
        [&] { r = SolveCertainBacktracking(PigeonholeQuery(), db, opts); });
    std::printf("%-22s %-20s %-10.1f %-12llu\n", "backtracking",
                r.ok() ? "finished" : ToString(r.code()), t / 1000.0,
                static_cast<unsigned long long>(budget.steps()));
  }
  {
    // k=10 keeps the repair count below the uint64 refusal cap, so the
    // deadline (not the up-front cap) is what stops the enumeration.
    Database naive_db = PigeonholeDatabase(10);
    Budget budget = Budget::WithTimeout(milliseconds(50));
    NaiveOptions opts;
    opts.max_repairs = UINT64_MAX;
    opts.budget = &budget;
    Result<bool> r{false};
    double t = benchutil::TimeUs(
        [&] { r = IsCertainNaive(PigeonholeQuery(), naive_db, opts); });
    std::printf("%-22s %-20s %-10.1f %-12llu\n", "naive",
                r.ok() ? "finished" : ToString(r.code()), t / 1000.0,
                static_cast<unsigned long long>(budget.steps()));
  }
  {
    Budget budget = Budget::WithTimeout(milliseconds(50));
    SolveOptions options;
    options.budget = &budget;
    Result<SolveReport> r = Result<SolveReport>::Error("unset");
    double t = benchutil::TimeUs([&] {
      r = SolveCertainty(PigeonholeBacktrackingQuery(), db, options);
    });
    if (r.ok()) {
      std::printf("%-22s %-20s %-10.1f %-12llu  (confidence %.4f)\n",
                  "auto + degradation",
                  ToString(r->verdict).c_str(), t / 1000.0,
                  static_cast<unsigned long long>(r->samples),
                  r->confidence);
    } else {
      std::printf("%-22s %-20s %-10.1f\n", "auto + degradation", "ERROR",
                  t / 1000.0);
    }
  }
  std::printf("\n");
}

void TableProbeOverhead() {
  std::printf("G2. probe overhead on in-budget instances "
              "(poll q1, median us):\n");
  std::printf("%-12s %-14s %-14s %-10s\n", "persons", "ungoverned",
              "governed", "ratio");
  Query q1 = PollQ1();
  for (int persons : {40, 80, 160}) {
    Rng rng(31);
    PollDbOptions opts;
    opts.num_persons = persons;
    opts.num_towns = std::max(2, persons / 5);
    Database db = GeneratePollDatabase(opts, &rng);
    double plain = benchutil::MedianTimeUs(7, [&] {
      (void)SolveCertainBacktracking(q1, db);
    });
    double governed = benchutil::MedianTimeUs(7, [&] {
      Budget budget = Budget::WithTimeout(milliseconds(10'000));
      BacktrackingOptions bopts;
      bopts.budget = &budget;
      (void)SolveCertainBacktracking(q1, db, bopts);
    });
    std::printf("%-12d %-14.1f %-14.1f %.2fx\n", persons, plain, governed,
                governed / (plain > 0 ? plain : 1));
  }
  std::printf("\n");
}

void Tables() {
  TableBoundedLatency();
  TableProbeOverhead();
}

void BM_ProbeCheckEvery(benchmark::State& state) {
  Budget budget = Budget::WithTimeout(milliseconds(60'000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(budget.CheckEvery());
  }
}
BENCHMARK(BM_ProbeCheckEvery);

void BM_GovernedBacktracking(benchmark::State& state) {
  Rng rng(32);
  PollDbOptions opts;
  opts.num_persons = 40;
  opts.num_towns = 8;
  Database db = GeneratePollDatabase(opts, &rng);
  Query q1 = PollQ1();
  bool governed = state.range(0) != 0;
  for (auto _ : state) {
    Budget budget = Budget::WithTimeout(milliseconds(10'000));
    BacktrackingOptions bopts;
    if (governed) bopts.budget = &budget;
    benchmark::DoNotOptimize(SolveCertainBacktracking(q1, db, bopts).ok());
  }
}
BENCHMARK(BM_GovernedBacktracking)->Arg(0)->Arg(1);

}  // namespace
}  // namespace cqa

CQA_BENCH_MAIN(cqa::Tables)
