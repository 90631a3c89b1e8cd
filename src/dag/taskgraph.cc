#include "dag/taskgraph.h"

#include <algorithm>
#include <cassert>
#include <deque>

namespace mixnet::dag {

TaskId TaskGraph::add(Task t) {
  tasks_.push_back(std::move(t));
  return static_cast<TaskId>(tasks_.size() - 1);
}

void TaskGraph::add_dep(TaskId task, TaskId dep) {
  assert(task >= 0 && static_cast<std::size_t>(task) < tasks_.size());
  assert(dep >= 0 && static_cast<std::size_t>(dep) < tasks_.size());
  tasks_[static_cast<std::size_t>(task)].deps.push_back(dep);
}

bool TaskGraph::is_acyclic() const {
  // Kahn's algorithm.
  const std::size_t n = tasks_.size();
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<TaskId>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskId d : tasks_[i].deps) {
      ++indeg[i];
      out[static_cast<std::size_t>(d)].push_back(static_cast<TaskId>(i));
    }
  }
  std::deque<TaskId> q;
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) q.push_back(static_cast<TaskId>(i));
  std::size_t seen = 0;
  while (!q.empty()) {
    const TaskId v = q.front();
    q.pop_front();
    ++seen;
    for (TaskId w : out[static_cast<std::size_t>(v)])
      if (--indeg[static_cast<std::size_t>(w)] == 0) q.push_back(w);
  }
  return seen == n;
}

Executor::Executor(eventsim::Simulator& sim, TaskGraph& graph)
    : sim_(sim), graph_(graph) {
  const std::size_t n = graph_.tasks_.size();
  unmet_deps_.assign(n, 0);
  dependents_.assign(n, {});
  started_.assign(n, false);
  finish_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    unmet_deps_[i] = static_cast<int>(graph_.tasks_[i].deps.size());
    for (TaskId d : graph_.tasks_[i].deps)
      dependents_[static_cast<std::size_t>(d)].push_back(static_cast<TaskId>(i));
  }
}

void Executor::start() {
  std::vector<int> touched;
  for (std::size_t i = 0; i < graph_.tasks_.size(); ++i)
    if (unmet_deps_[i] == 0) on_ready(static_cast<TaskId>(i), touched);
  for (int r : touched) dispatch_resource(r);
}

void Executor::on_ready(TaskId id, std::vector<int>& touched_resources) {
  // Resource tasks are queued (not started) so that all tasks becoming ready
  // at the same instant compete on priority before any of them claims the
  // resource -- this is what makes 1F1B pick backward over forward work.
  const Task& t = graph_.tasks_[static_cast<std::size_t>(id)];
  if (t.resource < 0) {
    start_task(id);
  } else {
    pending_[t.resource].push_back(id);
    touched_resources.push_back(t.resource);
  }
}

void Executor::dispatch_resource(int resource) {
  if (resource_held_[resource]) return;
  auto it = pending_.find(resource);
  if (it == pending_.end() || it->second.empty()) return;
  auto& q = it->second;
  // Highest priority first; FIFO among equals (stable for determinism).
  std::size_t best = 0;
  for (std::size_t k = 1; k < q.size(); ++k) {
    if (graph_.tasks_[static_cast<std::size_t>(q[k])].priority >
        graph_.tasks_[static_cast<std::size_t>(q[best])].priority)
      best = k;
  }
  const TaskId id = q[best];
  q.erase(q.begin() + static_cast<long>(best));
  start_task(id);
}

void Executor::start_task(TaskId id) {
  const auto i = static_cast<std::size_t>(id);
  if (started_[i]) return;
  const Task& t = graph_.tasks_[i];
  if (t.resource >= 0 && resource_held_[t.resource]) {
    pending_[t.resource].push_back(id);
    return;
  }
  started_[i] = true;
  if (t.resource >= 0) resource_held_[t.resource] = true;
  sim_.schedule_after(t.duration, [this, id] { finish_task(id); });
}

void Executor::finish_task(TaskId id) {
  const auto i = static_cast<std::size_t>(id);
  const TimeNs t = sim_.now();
  finish_[i] = t;
  makespan_ = std::max(makespan_, t);
  ++done_count_;
  const Task& task = graph_.tasks_[i];
  if (task.resource >= 0) resource_held_[task.resource] = false;
  std::vector<int> touched;
  for (TaskId w : dependents_[i])
    if (--unmet_deps_[static_cast<std::size_t>(w)] == 0) on_ready(w, touched);
  if (task.resource >= 0) touched.push_back(task.resource);
  for (int r : touched) dispatch_resource(r);
}

}  // namespace mixnet::dag
