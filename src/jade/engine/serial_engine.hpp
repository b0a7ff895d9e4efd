// SerialEngine — the reference implementation of Jade's serial semantics.
//
// Every task executes inline at its creation point, which is by definition
// the serial elaboration of the program.  Any other engine must produce
// byte-identical shared-object contents; the determinism property tests
// compare against this engine.
//
// The engine still runs the full serializer machinery (queue insertion,
// enabledness, access checks), both to validate specifications exactly as a
// parallel run would and to assert the serial invariant: at creation time a
// task is always immediately ready.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "jade/engine/engine.hpp"

namespace jade {

class SerialEngine : public Engine {
 public:
  void run(std::function<void(TaskContext&)> root_body) override;

  void spawn(TaskNode* parent, const std::vector<AccessRequest>& requests,
             TaskContext::BodyFn body, std::string name, MachineId placement,
             TenantCtl* tenant) override;
  void with_cont(TaskNode* task,
                 const std::vector<AccessRequest>& requests) override;
  std::byte* acquire_bytes(TaskNode* task, ObjectId obj,
                           std::uint8_t mode) override;
  void charge(TaskNode* task, double units) override;
  int machine_count() const override { return 1; }

 protected:
  void create_storage(const ObjectInfo& info, MachineId) override {
    buffers_[info.id].assign(info.byte_size(), std::byte{0});
  }
  void write_storage(ObjectId obj, std::span<const std::byte> data) override {
    std::copy(data.begin(), data.end(), buffers_.at(obj).begin());
  }
  std::vector<std::byte> read_storage(ObjectId obj) override {
    return buffers_.at(obj);
  }
  void free_storage(ObjectId obj) override { buffers_.erase(obj); }

  /// Serial execution has no clock; events are ordered by a logical counter
  /// (one tick per emitted event), which keeps exported traces deterministic.
  SimTime trace_now() const override {
    return static_cast<SimTime>(logical_time_++);
  }

 private:
  void on_task_ready(TaskNode* /*task*/) override {}

  void execute(TaskNode* task);

  std::unordered_map<ObjectId, std::vector<std::byte>> buffers_;
  mutable std::uint64_t logical_time_ = 0;
};

}  // namespace jade
