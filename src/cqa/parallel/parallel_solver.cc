#include "cqa/parallel/parallel_solver.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cqa/parallel/decompose.h"
#include "cqa/parallel/pool.h"

namespace cqa {

namespace {

// One component task's landing slot; written only by the task that owns it
// (the join in WaitAll publishes them to the caller).
struct TaskResult {
  bool ran = false;
  bool value = false;
  std::optional<ErrorCode> error;
  std::string error_msg;
  uint64_t steps = 0;
};

// Shared state of one sub-query (one AND-term).
struct GroupState {
  // Set once by the first component proved certain; siblings then observe
  // `stop` and unwind as cancelled.
  std::atomic<bool> resolved_true{false};
  // Cancel token wired into every component task's child budget. Flipped
  // by the in-group short-circuit, by a sibling group's refutation, and by
  // the waiting thread when the parent budget trips.
  std::atomic<bool> stop{false};
  std::atomic<int> refuted_components{0};
  int total_components = 0;
};

}  // namespace

Result<ParallelReport> SolveCertainParallel(const Query& q,
                                            const Database& db,
                                            const ParallelOptions& options) {
  using R = Result<ParallelReport>;
  const Engine* engine = FindEngine(options.method);
  if (engine == nullptr || engine->split != EngineSplit::kComponents) {
    return R::Error(ErrorCode::kUnsupported,
                    "parallel solving supports the backtracking and naive "
                    "engines only (got " +
                        ToString(options.method) + ")");
  }

  ParallelReport report;
  QuerySplit split = SplitQueryConnected(q);
  report.subqueries = static_cast<int>(split.subqueries.size());

  // Snapshot the parent budget by value: component tasks never touch the
  // parent object, so the waiting thread may keep probing it freely.
  Budget proto;
  if (options.budget != nullptr) {
    if (std::optional<ErrorCode> code = options.budget->CheckNow()) {
      return R::Error(*code, Budget::Describe(*code));
    }
    proto.deadline = options.budget->deadline;
    proto.max_steps =
        options.budget->StepsRemaining().value_or(Budget::kNoStepLimit);
    proto.faults = options.budget->faults;
  }

  // Plan the component tasks. Sub-databases keep their owning shared_ptr
  // here; tasks reference them by pointer and never copy a Database.
  struct PlannedTask {
    const Query* query = nullptr;
    const Database* db = nullptr;
    size_t group = 0;
  };
  std::vector<PlannedTask> tasks;
  std::vector<DataComponent> owned_components;
  std::vector<std::unique_ptr<GroupState>> groups;
  groups.reserve(split.subqueries.size());
  bool planning_refuted = false;
  for (size_t g = 0; g < split.subqueries.size(); ++g) {
    const Query& sub = split.subqueries[g];
    groups.push_back(std::make_unique<GroupState>());
    if (DataDecomposable(sub)) {
      std::vector<DataComponent> comps = DecomposeData(sub, db);
      if (comps.empty()) {
        // Every component lacked a positive relation: the OR is empty, the
        // sub-query is not certain, and the conjunction is already false.
        planning_refuted = true;
        break;
      }
      groups[g]->total_components = static_cast<int>(comps.size());
      for (DataComponent& c : comps) {
        owned_components.push_back(std::move(c));
        tasks.push_back(PlannedTask{&sub, owned_components.back().db.get(),
                                    g});
      }
    } else {
      // Conservative fallback: one task over the whole database.
      groups[g]->total_components = 1;
      tasks.push_back(PlannedTask{&sub, &db, g});
    }
  }
  if (planning_refuted) {
    report.certain = false;
    report.decomposed = split.split;
    return report;
  }
  report.components = static_cast<int>(tasks.size());
  report.decomposed = split.split || tasks.size() > 1;

  std::vector<TaskResult> results(tasks.size());
  std::atomic<bool> refuted{false};
  std::atomic<bool> errored{false};

  auto stop_everything = [&groups] {
    for (const std::unique_ptr<GroupState>& g : groups) {
      g->stop.store(true, std::memory_order_release);
    }
  };

  WorkStealingPool pool(options.parallelism);
  for (size_t i = 0; i < tasks.size(); ++i) {
    pool.Submit([&, i] {
      const PlannedTask& task = tasks[i];
      TaskResult& slot = results[i];
      GroupState& group = *groups[task.group];
      if (group.stop.load(std::memory_order_acquire)) {
        slot.error = ErrorCode::kCancelled;
        slot.error_msg = "component task cancelled before it started";
        return;
      }
      Budget child = proto;
      child.cancel = &group.stop;
      EngineCall call{.q = *task.query, .db = *task.db, .budget = &child};
      Result<bool> r = engine->run(&call);
      slot.steps = call.steps;
      slot.ran = true;
      if (!r.ok()) {
        slot.error = r.code();
        slot.error_msg = r.error();
        if (r.code() != ErrorCode::kCancelled) {
          errored.store(true, std::memory_order_release);
        }
        return;
      }
      slot.value = r.value();
      if (r.value()) {
        if (!group.resolved_true.exchange(true, std::memory_order_acq_rel)) {
          // First certain component: the OR is settled, siblings of this
          // sub-query can stop.
          group.stop.store(true, std::memory_order_release);
        }
      } else if (group.refuted_components.fetch_add(
                     1, std::memory_order_acq_rel) +
                         1 ==
                 group.total_components) {
        // Every component of this sub-query refuted: the AND is false,
        // everything else is moot.
        refuted.store(true, std::memory_order_release);
        stop_everything();
      }
    });
  }
  pool.Start();
  pool.WaitAll(options.poll_every, [&] {
    if (options.budget != nullptr &&
        options.budget->CheckNow().has_value()) {
      stop_everything();
    }
  });

  uint64_t total_steps = 0;
  for (const TaskResult& r : results) total_steps += r.steps;
  report.steps = total_steps;
  report.steals = pool.steals();
  if (options.budget != nullptr) options.budget->ChargeSteps(total_steps);

  // A sound verdict beats any racing resource trip: the work that proved
  // it was already paid for.
  if (refuted.load(std::memory_order_acquire)) {
    report.certain = false;
    return report;
  }
  bool all_true = true;
  for (const std::unique_ptr<GroupState>& g : groups) {
    if (!g->resolved_true.load(std::memory_order_acquire)) {
      all_true = false;
      break;
    }
  }
  if (all_true) {
    report.certain = true;
    return report;
  }

  // No verdict: surface the parent's own trip first (it is what cancelled
  // the stragglers), then the first non-cancellation task error, then
  // cancellation.
  if (options.budget != nullptr) {
    if (std::optional<ErrorCode> code = options.budget->CheckNow()) {
      return R::Error(*code, Budget::Describe(*code));
    }
  }
  if (errored.load(std::memory_order_acquire)) {
    for (const TaskResult& r : results) {
      if (r.error.has_value() && *r.error != ErrorCode::kCancelled) {
        return R::Error(*r.error, r.error_msg);
      }
    }
  }
  for (const TaskResult& r : results) {
    if (r.error.has_value()) return R::Error(*r.error, r.error_msg);
  }
  return R::Error(ErrorCode::kInternal,
                  "parallel solve finished without verdict or error");
}

}  // namespace cqa
