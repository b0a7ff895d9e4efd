// Engine is an interface; the object space, the task space and shared
// helpers live here.
#include "jade/engine/engine.hpp"

#include "jade/support/error.hpp"

namespace jade {

Engine::Engine(ThrottleConfig throttle)
    : serializer_(this), throttle_(throttle) {
  serializer_.set_tenant_oracle(
      [this](ObjectId obj) { return object_info(obj).tenant; });
}

// --- objects ---------------------------------------------------------------

const ObjectInfo& Engine::checked(ObjectId obj, const char* op,
                                  bool live) const {
  std::lock_guard<std::mutex> lock(objects_mu_);
  if (!objects_.valid(obj))
    throw ConfigError(std::string(op) + " on unknown object " +
                      std::to_string(obj));
  // Deque-backed: the entry stays put after the unlock.
  const ObjectInfo& info = objects_.info(obj);
  if (live && info.released)
    throw ConfigError(std::string(op) + " on released object " +
                      std::to_string(obj) + " ('" + info.name + "')");
  return info;
}

ObjectId Engine::allocate(TypeDescriptor type, std::string name,
                          MachineId home) {
  std::unique_lock<std::mutex> lock(objects_mu_);
  const ObjectInfo& info =
      objects_.info(objects_.add(std::move(type), std::move(name)));
  lock.unlock();
  create_storage(info, home);
  return info.id;
}

void Engine::put_bytes(ObjectId obj, std::span<const std::byte> data) {
  if (data.size() != checked(obj, "put_bytes", true).byte_size())
    throw ConfigError("put_bytes size mismatch on object " +
                      std::to_string(obj));
  write_storage(obj, data);
}

std::vector<std::byte> Engine::get_bytes(ObjectId obj) {
  checked(obj, "get_bytes", true);
  return read_storage(obj);
}

const ObjectInfo& Engine::object_info(ObjectId obj) const {
  return checked(obj, "object_info", false);
}

void Engine::set_object_tenant(ObjectId obj, TenantId tenant) {
  checked(obj, "set_object_tenant", false);
  std::lock_guard<std::mutex> lock(objects_mu_);
  objects_.set_tenant(obj, tenant);
}

void Engine::release_object(ObjectId obj) {
  checked(obj, "release_object", false);
  {
    std::lock_guard<std::mutex> lock(objects_mu_);
    if (!objects_.release(obj)) return;
  }
  free_storage(obj);
}

// --- task bodies -----------------------------------------------------------

void Engine::run_body(TaskNode* task) {
  TaskContext ctx(this, task);
  TenantCtl* ctl = task->tenant();
  if (ctl == nullptr) {
    task->body(ctx);
    return;
  }
  if (cancelled(ctl)) {
    // Forced teardown, dispatch edge: the body never runs.
    ctl->tasks_cancelled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  try {
    task->body(ctx);
  } catch (const TenantUnwind&) {
    ctl->tasks_cancelled.fetch_add(1, std::memory_order_relaxed);
  } catch (const EngineUnwind&) {
    throw;
  } catch (...) {
    // Per-tenant failure containment: the failure stays the tenant's; the
    // engine keeps serving everyone else.
    ctl->record_failure(std::current_exception());
    ctl->cancelled.store(true, std::memory_order_relaxed);
  }
}

bool Engine::run_speculative_body(TaskNode* task) {
  TaskContext ctx(this, task);
  try {
    task->body(ctx);
    return true;
  } catch (const EngineUnwind&) {
    throw;
  } catch (...) {
    return false;
  }
}

void Engine::enable_tracing(const ObsConfig& config) {
  if (!config.trace) {
    tracer_.detach();
    recorder_.reset();
    return;
  }
  recorder_ = std::make_unique<obs::TraceRecorder>(config.trace_capacity);
  tracer_.attach(recorder_.get(), [this] { return trace_now(); });
}

// --- the task space --------------------------------------------------------

void Engine::on_task_ready(TaskNode* /*task*/) {
  throw InternalError("engine received a ready notification");
}

void Engine::on_task_unblocked(TaskNode* /*task*/) {
  throw InternalError("engine received an unblock notification");
}

void Engine::begin_run() {
  serializer_.reset();
  commute_ = CommuteTokenTable{};
  stats_ = RuntimeStats{};
}

void Engine::end_run() {
  stats_.tasks_created += serializer_.tasks_created();
  const RuntimeStats& s = stats_;
  obs::MetricsRegistry& m = metrics_;
  m.counter("engine.tasks_created").set(s.tasks_created);
  m.counter("engine.tasks_migrated").set(s.tasks_migrated);
  m.counter("engine.throttle_suspensions").set(s.throttle_suspensions);
  m.counter("engine.throttle_giveups").set(s.throttle_giveups);
  m.counter("engine.tasks_stolen").set(s.tasks_stolen);
  m.counter("engine.worker_parks").set(s.worker_parks);
  m.counter("engine.fiber_parks").set(s.fiber_parks);
  m.counter("net.messages").set(s.messages);
  m.counter("net.bytes_sent").set(s.bytes_sent);
  m.counter("net.payload_bytes").set(s.payload_bytes);
  m.counter("comm.requests_combined").set(s.requests_combined);
  m.counter("comm.replicas_reused").set(s.replicas_reused);
  m.counter("comm.invalidations_coalesced").set(s.invalidations_coalesced);
  m.counter("comm.conversions_cached").set(s.conversions_cached);
  m.counter("comm.bytes_avoided").set(s.bytes_avoided);
  m.counter("spec.started").set(s.spec_started);
  m.counter("spec.committed").set(s.spec_committed);
  m.counter("spec.aborted").set(s.spec_aborted);
  m.counter("spec.denied").set(s.spec_denied);
  m.counter("spec.wasted_bytes").set(s.spec_wasted_bytes);
  m.gauge("spec.wasted_work").set(s.spec_wasted_work);
  m.counter("store.object_moves").set(s.object_moves);
  m.counter("store.object_copies").set(s.object_copies);
  m.counter("store.invalidations").set(s.invalidations);
  m.counter("store.scalars_converted").set(s.scalars_converted);
  m.gauge("engine.total_charged_work").set(s.total_charged_work);
  m.gauge("engine.finish_time").set(s.finish_time);
  m.counter("ft.machine_crashes").set(s.machine_crashes);
  m.counter("ft.tasks_killed").set(s.tasks_killed);
  m.counter("ft.tasks_requeued").set(s.tasks_requeued);
  m.counter("ft.messages_dropped").set(s.messages_dropped);
  m.counter("ft.message_retries").set(s.message_retries);
  m.counter("ft.heartbeats_sent").set(s.heartbeats_sent);
  m.counter("ft.false_suspicions").set(s.false_suspicions);
  m.counter("ft.objects_rehomed").set(s.objects_rehomed);
  m.counter("ft.objects_restored").set(s.objects_restored);
  m.counter("ft.objects_lost").set(s.objects_lost);
  m.gauge("ft.wasted_charged_work").set(s.wasted_charged_work);
  m.gauge("ft.detection_latency_total").set(s.detection_latency_total);
}

}  // namespace jade
