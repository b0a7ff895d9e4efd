#include "jade/engine/serial_engine.hpp"

#include "jade/support/error.hpp"

namespace jade {

void SerialEngine::run(std::function<void(TaskContext&)> root_body) {
  // A fresh graph and fresh stats for every run on one reused engine;
  // objects and buffers persist.  Identical state on the first run, so
  // single-run behavior (and traces) are unchanged.
  begin_run();
  TaskNode* root = serializer_.root();
  if (tracer_.enabled()) {
    tracer_.instant(obs::Subsystem::kEngine, "task.created", root->id(), 0, 0,
                    root->name());
    tracer_.span_begin(obs::Subsystem::kEngine, "task", root->id(), 0,
                       root->name());
  }
  TaskContext ctx(this, root);
  try {
    root_body(ctx);
  } catch (...) {
    end_run();  // a failed run publishes its counters too
    throw;
  }
  serializer_.complete_task(root);
  tracer_.span_end(obs::Subsystem::kEngine, "task", root->id(), 0,
                   root->charged_work);
  JADE_ASSERT_MSG(serializer_.outstanding() == 0,
                  "serial run left outstanding tasks");
  end_run();
}

void SerialEngine::spawn(TaskNode* parent,
                         const std::vector<AccessRequest>& requests,
                         TaskContext::BodyFn body, std::string name,
                         MachineId /*placement*/, TenantCtl* tenant) {
  TaskNode* task = serializer_.create_task(parent, requests, std::move(body),
                                           std::move(name), tenant);
  if (tracer_.enabled())
    tracer_.instant(obs::Subsystem::kEngine, "task.created", task->id(), 0, 0,
                    task->name());
  // Serial invariant: every earlier task has already completed, so nothing
  // can be blocking this one.
  JADE_ASSERT_MSG(task->state() == TaskState::kReady,
                  "serial execution created a non-ready task");
  execute(task);
}

void SerialEngine::execute(TaskNode* task) {
  serializer_.task_started(task);
  if (tracer_.enabled())
    tracer_.span_begin(obs::Subsystem::kEngine, "task", task->id(), 0,
                       task->name());
  run_body(task);
  task->body = nullptr;  // release captured state promptly
  serializer_.complete_task(task);
  tracer_.span_end(obs::Subsystem::kEngine, "task", task->id(), 0,
                   task->charged_work);
}

void SerialEngine::with_cont(TaskNode* task,
                             const std::vector<AccessRequest>& requests) {
  const bool must_block = serializer_.update_spec(task, requests);
  JADE_ASSERT_MSG(!must_block, "serial execution cannot block in with-cont");
}

std::byte* SerialEngine::acquire_bytes(TaskNode* task, ObjectId obj,
                                       std::uint8_t mode) {
  const bool must_block = serializer_.acquire(task, obj, mode);
  JADE_ASSERT_MSG(!must_block, "serial execution cannot block in acquire");
  return buffers_.at(obj).data();
}

void SerialEngine::charge(TaskNode* task, double units) {
  task->charged_work += units;
  stats_.total_charged_work += units;
}

}  // namespace jade
