#include "tasks/task_graph.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace damocles::tasks {

const char* TaskStatusName(TaskStatus status) noexcept {
  switch (status) {
    case TaskStatus::kBlocked:
      return "blocked";
    case TaskStatus::kReady:
      return "ready";
    case TaskStatus::kSatisfied:
      return "satisfied";
  }
  return "unknown";
}

void TaskGraph::AddTask(TaskDef task) {
  if (task.name.empty()) {
    throw IntegrityError("AddTask: task needs a name");
  }
  if (Find(task.name) != nullptr) {
    throw IntegrityError("AddTask: duplicate task '" + task.name + "'");
  }
  if (task.goals.empty()) {
    throw IntegrityError("AddTask: task '" + task.name +
                         "' has no goal conditions");
  }
  for (const std::string& dependency : task.depends_on) {
    if (Find(dependency) == nullptr) {
      throw IntegrityError("AddTask: task '" + task.name +
                           "' depends on unknown task '" + dependency + "'");
    }
  }
  // Dependencies may only reference previously added tasks, so cycles
  // are impossible by construction; the check above enforces it.
  tasks_.push_back(std::move(task));
}

const TaskDef* TaskGraph::Find(std::string_view name) const {
  for (const TaskDef& task : tasks_) {
    if (task.name == name) return &task;
  }
  return nullptr;
}

std::vector<std::string> TaskGraph::TopologicalOrder() const {
  // Insertion order is already topological (AddTask rejects forward
  // references), but we re-derive it defensively so the invariant is
  // checked rather than assumed.
  std::unordered_map<std::string, size_t> remaining;
  std::unordered_map<std::string, std::vector<std::string>> dependents;
  for (const TaskDef& task : tasks_) {
    remaining[task.name] = task.depends_on.size();
    for (const std::string& dependency : task.depends_on) {
      dependents[dependency].push_back(task.name);
    }
  }
  std::deque<std::string> frontier;
  for (const TaskDef& task : tasks_) {
    if (remaining[task.name] == 0) frontier.push_back(task.name);
  }
  std::vector<std::string> order;
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    order.push_back(current);
    for (const std::string& dependent : dependents[current]) {
      if (--remaining[dependent] == 0) frontier.push_back(dependent);
    }
  }
  if (order.size() != tasks_.size()) {
    throw IntegrityError("TopologicalOrder: dependency cycle detected");
  }
  return order;
}

bool TaskGraph::GoalsSatisfied(const metadb::MetaDatabase& db,
                               const TaskDef& task,
                               std::vector<query::Blocker>* open_goals) const {
  query::ProjectQuery q(db);
  bool satisfied = true;

  for (const GoalCondition& goal : task.goals) {
    // Scope: latest version of each matching (block, view) pair.
    const auto in_scope = [&](const metadb::MetaObject& object) {
      if (db.ViewOf(object) != goal.view) return false;
      return goal.block.empty() || db.BlockOf(object) == goal.block;
    };
    const auto scope = q.LatestVersions(in_scope);
    if (scope.empty()) {
      // The data does not exist yet: the goal cannot hold.
      satisfied = false;
      if (open_goals != nullptr) {
        open_goals->push_back(query::Blocker{
            metadb::Oid{goal.block.empty() ? "*" : goal.block, goal.view, 0},
            goal.property, "<missing>", goal.required_value});
      }
      continue;
    }
    for (const auto& match : scope) {
      const metadb::MetaObject& object = db.GetObject(match.id);
      const std::string actual = db.PropertyOr(object, goal.property, "");
      if (actual != goal.required_value) {
        satisfied = false;
        if (open_goals != nullptr) {
          open_goals->push_back(query::Blocker{match.oid, goal.property,
                                               actual, goal.required_value});
        }
      }
    }
  }
  return satisfied;
}

TaskEvaluation TaskGraph::Evaluate(const metadb::MetaDatabase& db,
                                   std::string_view name) const {
  const TaskDef* task = Find(name);
  if (task == nullptr) {
    throw NotFoundError("Evaluate: unknown task '" + std::string(name) + "'");
  }

  TaskEvaluation evaluation;
  evaluation.name = task->name;

  for (const std::string& dependency : task->depends_on) {
    const TaskDef* prerequisite = Find(dependency);
    if (!GoalsSatisfied(db, *prerequisite, nullptr)) {
      evaluation.open_dependencies.push_back(dependency);
    }
  }

  const bool goals_ok = GoalsSatisfied(db, *task, &evaluation.open_goals);
  if (goals_ok) {
    // A task whose data-goals hold is satisfied regardless of formal
    // dependencies — the data is the ground truth.
    evaluation.status = TaskStatus::kSatisfied;
  } else if (!evaluation.open_dependencies.empty()) {
    evaluation.status = TaskStatus::kBlocked;
  } else {
    evaluation.status = TaskStatus::kReady;
  }
  return evaluation;
}

std::vector<TaskEvaluation> TaskGraph::EvaluateAll(
    const metadb::MetaDatabase& db) const {
  std::vector<TaskEvaluation> evaluations;
  for (const std::string& name : TopologicalOrder()) {
    evaluations.push_back(Evaluate(db, name));
  }
  return evaluations;
}

std::vector<std::string> TaskGraph::NextTasks(
    const metadb::MetaDatabase& db) const {
  std::vector<std::string> ready;
  for (const TaskEvaluation& evaluation : EvaluateAll(db)) {
    if (evaluation.status == TaskStatus::kReady) {
      ready.push_back(evaluation.name);
    }
  }
  return ready;
}

double TaskGraph::Progress(const metadb::MetaDatabase& db) const {
  if (tasks_.empty()) return 1.0;
  size_t satisfied = 0;
  for (const TaskEvaluation& evaluation : EvaluateAll(db)) {
    if (evaluation.status == TaskStatus::kSatisfied) ++satisfied;
  }
  return static_cast<double>(satisfied) / static_cast<double>(tasks_.size());
}

std::string FormatTaskReport(
    const std::vector<TaskEvaluation>& evaluations) {
  std::string text;
  text += "task                           status     open goals / blockers\n";
  text += "------------------------------ ---------- ----------------------\n";
  for (const TaskEvaluation& evaluation : evaluations) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-30s %-10s ",
                  evaluation.name.c_str(),
                  TaskStatusName(evaluation.status));
    text += line;
    if (evaluation.status == TaskStatus::kBlocked) {
      text += "waiting on:";
      for (const std::string& dependency : evaluation.open_dependencies) {
        text += " " + dependency;
      }
    } else if (!evaluation.open_goals.empty()) {
      text += std::to_string(evaluation.open_goals.size()) + " open";
      const query::Blocker& first = evaluation.open_goals.front();
      text += " (e.g. " + metadb::FormatOid(first.oid) + " " +
              first.property + "='" + first.actual_value + "')";
    }
    text += "\n";
  }
  return text;
}

}  // namespace damocles::tasks
