#include "jade/cluster/registry.hpp"

#include "jade/engine/engine.hpp"
#include "jade/support/error.hpp"

namespace jade::cluster {

BodyRegistry& BodyRegistry::instance() {
  static BodyRegistry registry;
  return registry;
}

int BodyRegistry::ensure(const std::string& name, RegisteredBody body) {
  const int existing = find(name);
  if (existing >= 0) return existing;
  entries_.push_back({name, std::move(body)});
  return static_cast<int>(entries_.size()) - 1;
}

int BodyRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].name == name) return static_cast<int>(i);
  return -1;
}

const RegisteredBody& BodyRegistry::body(int index) const {
  if (index < 0 || index >= size())
    throw ConfigError("unknown registered body index " +
                      std::to_string(index) +
                      " (register bodies before starting the cluster)");
  return entries_[static_cast<std::size_t>(index)].body;
}

void spawn(TaskContext& ctx, int body, WireWriter args,
           const TaskContext::SpecFn& spec, std::string name,
           MachineId placement) {
  // Validate the index eagerly in every mode — a typo'd id should fail at
  // the spawn site, not inside a worker process.
  BodyRegistry::instance().body(body);

  AccessDecl decl;
  spec(decl);

  if (auto* rs = dynamic_cast<RegisteredSpawner*>(&ctx.engine())) {
    rs->spawn_registered(ctx.node(), decl.requests(), body,
                         args.take(), std::move(name), placement);
    return;
  }

  // Portable fallback: wrap the registered body in an ordinary closure so
  // the same program runs on Serial/Thread/Sim engines.  The blob is shared
  // (not copied per execution) because BodyFn is copyable.
  auto blob = std::make_shared<std::vector<std::byte>>(args.take());
  TaskContext::BodyFn closure = [body, blob](TaskContext& t) {
    WireReader r(*blob);
    BodyRegistry::instance().body(body)(t, r);
  };
  ctx.engine().spawn(ctx.node(), decl.requests(), std::move(closure),
                     std::move(name), placement);
}

}  // namespace jade::cluster
