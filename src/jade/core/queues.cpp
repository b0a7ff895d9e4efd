#include "jade/core/queues.hpp"

#include <sstream>

#include "jade/core/tenant.hpp"
#include "jade/support/error.hpp"

namespace jade {

DeclRecord* TaskNode::find_record(ObjectId obj) const {
  for (DeclRecord* rec : ordered_records_)
    if (rec->obj == obj) return rec;
  return nullptr;
}

Serializer::Serializer(SerializerListener* listener) : listener_(listener) {
  JADE_ASSERT(listener != nullptr);
  make_root();
}

void Serializer::make_root() {
  auto root = std::make_unique<TaskNode>();
  root->id_ = 0;
  root->name_ = "root";
  root->set_state(TaskState::kRunning);
  root_ = root.get();
  tasks_.push_back(std::move(root));
}

void Serializer::reset() {
  tasks_.clear();
  queues_.clear();
  next_task_id_ = 1;
  outstanding_ = 0;
  unstarted_.store(0);
  in_update_ = nullptr;
  make_root();
}

Serializer::~Serializer() = default;

ObjectQueue& Serializer::queue_for(ObjectId obj) {
  return queues_[obj];
}

void Serializer::check_coverage(TaskNode* parent,
                                const AccessRequest& req) const {
  const std::uint8_t need =
      static_cast<std::uint8_t>(req.add_immediate | req.add_deferred);
  DeclRecord* rec = parent->find_record(req.obj);
  const std::uint8_t have = rec ? rec->effective() : 0;
  if (need & static_cast<std::uint8_t>(~have)) {
    std::ostringstream os;
    os << "task '" << parent->name() << "' (id " << parent->id()
       << ") creates a child declaring '" << access::bits_name(need)
       << "' on object " << req.obj << " but holds only '"
       << access::bits_name(have)
       << "' — a parent's specification must cover its children's accesses";
    throw HierarchyViolationError(os.str());
  }
}

std::unique_ptr<TaskNode> Serializer::prepare_task(
    TaskNode* parent, const std::vector<AccessRequest>& requests,
    std::function<void(TaskContext&)> body, std::string name,
    TenantCtl* tenant) const {
  JADE_ASSERT(parent != nullptr);
  JADE_ASSERT_MSG(parent->state() == TaskState::kRunning,
                  "tasks can only be created from a running task");

  TenantCtl* ctl = tenant != nullptr ? tenant : parent->tenant_;
  if (ctl != nullptr && tenant_oracle_) {
    // Isolation pre-pass, before any state changes: a tenant task may only
    // declare accesses to its own or shared objects.  Failing here leaves
    // the serializer exactly as it was — only the offending tenant suffers.
    for (const AccessRequest& req : requests) {
      const TenantId owner = tenant_oracle_(req.obj);
      if (owner != kSharedTenant && owner != ctl->id) {
        std::ostringstream os;
        os << "tenant " << ctl->id << " task '" << name
           << "' declares an access to object " << req.obj
           << " owned by tenant " << owner
           << " — tenants may only access their own or shared objects";
        throw TenantIsolationError(os.str());
      }
    }
  }

  auto task = std::make_unique<TaskNode>();
  task->name_ = std::move(name);
  task->parent_ = parent;
  task->tenant_ = ctl;
  task->program_root_ = tenant != nullptr;
  task->body = std::move(body);
  if (requests.size() > TaskNode::kInlineRecords)
    task->extra_records_ = std::make_unique<DeclRecord[]>(
        requests.size() - TaskNode::kInlineRecords);

  for (const AccessRequest& req : requests) {
    if (req.remove != 0) {
      throw SpecUpdateError(
          "no_rd/no_wr/no_cm are with-cont statements; they cannot appear in "
          "a withonly declaration");
    }
    const std::uint8_t bits =
        static_cast<std::uint8_t>(req.add_immediate | req.add_deferred);
    if (bits == 0) continue;
    // Program roots are exempt from the coverage rule the way root children
    // are: they begin a fresh program whose accesses their host parent (the
    // server dispatcher, which declares nothing) never made.
    if (!parent->is_root() && !parent->program_root_)
      check_coverage(parent, req);
    JADE_ASSERT_MSG(task->find_record(req.obj) == nullptr,
                    "duplicate declaration for one object in one withonly");

    DeclRecord* rec = task->record_slot(task->ordered_records_.size());
    rec->task = task.get();
    rec->obj = req.obj;
    rec->immediate = req.add_immediate;
    rec->deferred = req.add_deferred;
    task->ordered_records_.push_back(rec);
  }
  return task;
}

TaskNode* Serializer::link_task(std::unique_ptr<TaskNode> owned) {
  TaskNode* task = owned.get();
  TaskNode* parent = task->parent_;
  task->id_ = next_task_id_++;
  if (task->name_.empty()) task->name_ = "task#" + std::to_string(task->id_);
  tasks_.push_back(std::move(owned));

  for (DeclRecord* rec : task->ordered_records_) {
    ObjectQueue& q = queue_for(rec->obj);
    rec->queue = &q;
    DeclRecord* parent_rec = parent->find_record(rec->obj);
    if (parent_rec != nullptr && parent_rec->linked()) {
      link_before(q, parent_rec, rec);
      parent_rec->child_ahead = true;
    } else {
      link_back(q, rec);
    }
  }

  // Determine which immediate records are not yet enabled.
  for (DeclRecord* rec : task->ordered_records_) {
    if (rec->immediate == 0) continue;
    if (!is_enabled(*rec->queue, rec, rec->immediate)) {
      set_counted(*rec->queue, rec, true);
      rec->wait_bits = rec->immediate;
      ++task->start_pending_;
    }
  }

  ++outstanding_;
  unstarted_.fetch_add(1);
  if (TenantCtl* ctl = task->tenant_) {
    ctl->tasks_created.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t live =
        ctl->live.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t peak = ctl->max_live.load(std::memory_order_relaxed);
    while (live > peak &&
           !ctl->max_live.compare_exchange_weak(peak, live,
                                                std::memory_order_relaxed)) {
    }
  }
  if (task->start_pending_ == 0) {
    task->set_state(TaskState::kReady);
    listener_->on_task_ready(task);
  }
  return task;
}

void Serializer::task_started(TaskNode* task) {
  JADE_ASSERT_MSG(task->state() == TaskState::kReady,
                  "task_started on a task that is not ready");
  task->set_state(TaskState::kRunning);
  const std::uint64_t before = unstarted_.fetch_sub(1);
  JADE_ASSERT(before > 0);
}

bool Serializer::granted(const TaskNode* task, ObjectId obj,
                         std::uint8_t mode) const {
  // Children of the root append at queue tails (the root holds no records),
  // behind every running task.  Children of a program root skip the
  // coverage rule; the server's program roots declare nothing, so theirs
  // append at the tails too.
  if (mode & access::kCommute) return false;
  const DeclRecord* rec = task->find_record(obj);
  return rec != nullptr && !rec->child_ahead &&
         (mode & static_cast<std::uint8_t>(~rec->immediate)) == 0;
}

bool Serializer::update_spec(TaskNode* task,
                             const std::vector<AccessRequest>& requests) {
  JADE_ASSERT_MSG(task->state() == TaskState::kRunning,
                  "with-cont outside a running task");
  JADE_ASSERT(task->block_pending_ == 0);
  in_update_ = task;

  std::vector<ObjectQueue*> touched_queues;
  for (const AccessRequest& req : requests) {
    DeclRecord* rec = task->find_record(req.obj);
    if (rec == nullptr) {
      std::ostringstream os;
      os << "with-cont names object " << req.obj << " which task '"
         << task->name()
         << "' never declared; new rights cannot be added mid-task (their "
            "queue position would violate the serial order)";
      throw SpecUpdateError(os.str());
    }

    // Retirements first, so `no_rd(o); ...` frees successors even when the
    // same update also converts other bits of the same object.
    if (req.remove != 0) {
      if (weaken_record(*rec->queue, rec, req.remove))
        touched_queues.push_back(rec->queue);
    }

    const std::uint8_t held = rec->effective();
    const std::uint8_t want_imm = req.add_immediate;
    const std::uint8_t want_def = req.add_deferred;
    if ((want_imm | want_def) & static_cast<std::uint8_t>(~held)) {
      std::ostringstream os;
      os << "with-cont on object " << req.obj << " requests '"
         << access::bits_name(
                static_cast<std::uint8_t>(want_imm | want_def))
         << "' but task '" << task->name() << "' holds only '"
         << access::bits_name(held)
         << "' — with-cont may only convert previously deferred rights or "
            "retire rights";
      throw SpecUpdateError(os.str());
    }

    // Convert deferred -> immediate (rd/wr/cm on a df_* right); converting
    // an already-immediate bit is a harmless no-op.
    rec->deferred &= static_cast<std::uint8_t>(~want_imm);
    rec->immediate |= want_imm;
    // Downgrade immediate -> deferred (documented extension: release the
    // right now, reconvert later; other tasks are unaffected since the
    // effective bits do not change).
    const std::uint8_t downgrade =
        static_cast<std::uint8_t>(want_def & rec->immediate);
    rec->immediate &= static_cast<std::uint8_t>(~downgrade);
    rec->deferred |= downgrade;

    if (want_imm != 0) {
      ObjectQueue& q = *rec->queue;
      JADE_ASSERT(!rec->counted);
      if (rec->linked() && !is_enabled(q, rec, rec->immediate)) {
        set_counted(q, rec, true);
        rec->wait_bits = rec->immediate;
        ++task->block_pending_;
      }
    }
  }

  for (ObjectQueue* q : touched_queues) reevaluate(*q);

  in_update_ = nullptr;
  return task->block_pending_ > 0;
}

bool Serializer::acquire(TaskNode* task, ObjectId obj, std::uint8_t mode) {
  JADE_ASSERT_MSG(task->state() == TaskState::kRunning,
                  "accessor acquired outside a running task");
  JADE_ASSERT(mode != 0);
  if (task->is_root()) {
    // The main task implicitly owns all data, but may only touch an object
    // directly when that cannot race with the task graph: any access while
    // no created task holds a declaration, or a read while only readers do
    // (the object is immutable for as long as those records live — this is
    // how Figure 6's driver loop reads r[j] while update tasks hold rd(r)).
    auto it = queues_.find(obj);
    if (it == queues_.end() || it->second.records.empty()) return false;
    if (mode == access::kRead && it->second.cnt_wc == 0) return false;
    throw UndeclaredAccessError(
        "the main task may not perform a '" +
        std::string(access::bits_name(mode)) + "' access to object " +
        std::to_string(obj) +
        " while created tasks hold conflicting declarations; access it "
        "from a task with a declared right instead");
  }
  DeclRecord* rec = task->find_record(obj);
  if (rec == nullptr || (mode & static_cast<std::uint8_t>(~rec->immediate))) {
    std::ostringstream os;
    os << "task '" << task->name() << "' performs an undeclared '"
       << access::bits_name(mode) << "' access to object " << obj;
    if (rec != nullptr && (rec->deferred & mode)) {
      os << " (the right was declared deferred; convert it with a with-cont "
            "before accessing)";
    } else if (rec != nullptr) {
      os << " (task holds only '" << access::bits_name(rec->immediate)
         << "')";
    }
    throw UndeclaredAccessError(os.str());
  }

  ObjectQueue& q = *rec->queue;
  // Book the exercise before the enabledness check: a blocked acquisition
  // will touch the bytes as soon as it unblocks, so treating it as touched
  // already is the conservative direction for the speculation commit check
  // (spurious aborts, never missed conflicts).
  rec->exercised |= mode;
  if (mode & (access::kWrite | access::kCommute)) ++q.write_epoch;
  if (!rec->linked() || is_enabled(q, rec, mode)) return false;

  // Records ahead of us can only belong to our own earlier-created children
  // (everything else was ahead at our start and has been waited out); block
  // until they retire.
  JADE_ASSERT(!rec->counted);
  set_counted(q, rec, true);
  rec->wait_bits = mode;
  ++task->block_pending_;
  return true;
}

void Serializer::complete_task(TaskNode* task) {
  JADE_ASSERT_MSG(task->state() == TaskState::kRunning,
                  "complete_task on a task that is not running");
  JADE_ASSERT_MSG(task->block_pending_ == 0,
                  "complete_task on a blocked task");
  task->set_state(TaskState::kCompleted);

  // A record stays linked exactly while it holds bits (full retirement
  // unlinks it), so its bits still name the queues this completion left.
  for (DeclRecord* rec : task->ordered_records_) {
    JADE_ASSERT(rec->linked() == (rec->effective() != 0));
    if (rec->linked()) unlink(*rec->queue, rec);
  }
  for (DeclRecord* rec : task->ordered_records_)
    if (rec->effective() != 0) reevaluate(*rec->queue);
  if (!task->is_root()) --outstanding_;

  if (TenantCtl* ctl = task->tenant_) {
    ctl->tasks_completed.fetch_add(1, std::memory_order_relaxed);
    // `live` can never transiently hit 0 while the tenant still has work:
    // every creator of a tenant task is itself a live tenant task (or the
    // program root being created right now, counted before this runs).
    if (ctl->live.fetch_sub(1, std::memory_order_relaxed) == 1 &&
        ctl->on_quiesce) {
      ctl->on_quiesce(*ctl);
    }
  }
}

void Serializer::abort_attempt(TaskNode* task) {
  JADE_ASSERT_MSG(task->state() == TaskState::kRunning,
                  "abort_attempt on a task that is not running");
  JADE_ASSERT(!task->is_root());
  for (DeclRecord* rec : task->ordered_records_) {
    if (rec->counted) {
      set_counted(*rec->queue, rec, false);
      rec->wait_bits = 0;
    }
  }
  task->block_pending_ = 0;
  task->set_state(TaskState::kReady);
  unstarted_.fetch_add(1);
}

bool Serializer::spec_eligible(TaskNode* task,
                               std::vector<ObjectId>* contested) const {
  if (task->state() != TaskState::kPending || task->speculating_) return false;
  if (contested != nullptr) contested->clear();
  for (DeclRecord* rec : task->ordered_records_) {
    if (!rec->counted) continue;
    // A waiting commute right needs the token machinery; never speculate it.
    if (rec->wait_bits & access::kCommute) return false;
    ObjectQueue& q = *rec->queue;
    bool contested_here = false;
    for (DeclRecord* p = q.records.front(); p != nullptr && p != rec;
         p = q.records.next_of(p)) {
      if (!access::conflicts(p->effective(), rec->wait_bits)) continue;
      const std::uint8_t eff = p->effective();
      // A commuting predecessor writes at an unpredictable point in its
      // token-ordered turn; bytes can change under the snapshot silently.
      if (eff & access::kCommute) return false;
      if (eff & access::kWrite) {
        // An exercised write already changed (or is changing) the bytes;
        // the snapshot would start out stale.  Unexercised writes are the
        // speculation target: bet they complete without writing, and let
        // the write-epoch check catch the bet going wrong.
        if (p->exercised & (access::kWrite | access::kCommute)) return false;
        // A *speculating* writer ahead is a doomed bet: its shadow write is
        // invisible now but bumps the epoch at commit.  Wait it out.
        if (p->task->speculating()) return false;
        contested_here = true;
      }
      // A pure-read predecessor only delays the task; it cannot change the
      // bytes, so it never invalidates a snapshot.
    }
    if (contested_here && contested != nullptr)
      contested->push_back(rec->obj);
  }
  return true;
}

void Serializer::spec_start(TaskNode* task) {
  JADE_ASSERT_MSG(task->state() == TaskState::kPending,
                  "spec_start on a task that is not pending");
  JADE_ASSERT(!task->speculating_);
  task->speculating_ = true;
}

void Serializer::spec_abort(TaskNode* task) {
  JADE_ASSERT_MSG(task->speculating_, "spec_abort on a non-speculation");
  task->speculating_ = false;
}

void Serializer::spec_commit(TaskNode* task) {
  JADE_ASSERT_MSG(task->speculating_, "spec_commit on a non-speculation");
  JADE_ASSERT_MSG(task->state() == TaskState::kReady,
                  "spec_commit before the serializer enabled the task");
  task->speculating_ = false;
  task_started(task);
}

std::uint64_t Serializer::write_epoch(ObjectId obj) const {
  auto it = queues_.find(obj);
  return it == queues_.end() ? 0 : it->second.write_epoch;
}

bool Serializer::is_enabled(ObjectQueue& q, DeclRecord* rec,
                            std::uint8_t bits) const {
  // O(1) fast paths via the queue counters (self-contributions excluded).
  const std::uint8_t eff = rec->linked() ? rec->effective() : 0;
  if (bits & access::kWrite) {
    // A write conflicts with any predecessor: enabled iff first.
    return q.records.front() == rec;
  }
  if (bits == access::kRead) {
    const std::size_t self = (eff & (access::kWrite | access::kCommute)) ? 1 : 0;
    if (q.cnt_wc == self) return true;  // no writer/commuter anywhere
  } else if (bits == access::kCommute) {
    const std::size_t self = (eff & (access::kRead | access::kWrite)) ? 1 : 0;
    if (q.cnt_rw == self) return true;  // only pure commuters anywhere
  }
  for (DeclRecord* p = q.records.front(); p != nullptr && p != rec;
       p = q.records.next_of(p)) {
    if (access::conflicts(p->effective(), bits)) return false;
  }
  return true;
}

void Serializer::reevaluate(ObjectQueue& q) {
  if (q.cnt_counted == 0) return;  // nobody is waiting on this queue
  std::uint8_t prior = 0;
  now_ready_.clear();
  now_unblocked_.clear();
  for (DeclRecord* p = q.records.front(); p != nullptr;
       p = q.records.next_of(p)) {
    // Once the scanned prefix holds a write — or both a read and a commute —
    // every remaining waiter conflicts with it (see access::conflicts), so
    // the scan can stop.  This keeps retirement O(changed prefix) instead of
    // O(queue length): a deep chain of writers on one object costs O(1) per
    // completion rather than a full-queue walk.
    if ((prior & access::kWrite) ||
        ((prior & access::kRead) && (prior & access::kCommute))) {
      break;
    }
    if (p->counted && !access::conflicts(prior, p->wait_bits)) {
      set_counted(q, p, false);
      TaskNode* t = p->task;
      if (t->state() == TaskState::kPending) {
        JADE_ASSERT(t->start_pending_ > 0);
        if (--t->start_pending_ == 0) {
          t->set_state(TaskState::kReady);
          now_ready_.push_back(t);
        }
      } else {
        JADE_ASSERT(t->state() == TaskState::kRunning);
        JADE_ASSERT(t->block_pending_ > 0);
        if (--t->block_pending_ == 0 && t != in_update_) {
          now_unblocked_.push_back(t);
        }
      }
    }
    prior |= p->effective();
  }
  // Notify after the scan so listener code observes a consistent queue
  // (listeners never re-enter the serializer, so the vectors stay ours).
  for (TaskNode* t : now_ready_) listener_->on_task_ready(t);
  for (TaskNode* t : now_unblocked_) listener_->on_task_unblocked(t);
}

bool Serializer::weaken_record(ObjectQueue& q, DeclRecord* rec,
                               std::uint8_t bits) {
  const std::uint8_t before = rec->effective();
  rec->immediate &= static_cast<std::uint8_t>(~bits);
  rec->deferred &= static_cast<std::uint8_t>(~bits);
  const std::uint8_t after = rec->effective();
  if (after == before) return false;
  if (rec->linked()) {
    count_effect(q, before, -1);
    if (after == 0) {
      JADE_ASSERT(!rec->counted);
      IntrusiveList<DeclRecord>::unlink(rec);
    } else {
      count_effect(q, after, +1);
    }
  }
  return true;
}

void Serializer::link_before(ObjectQueue& q, DeclRecord* pos,
                             DeclRecord* rec) {
  q.records.insert_before(pos, rec);
  count_effect(q, rec->effective(), +1);
}

void Serializer::link_back(ObjectQueue& q, DeclRecord* rec) {
  q.records.push_back(rec);
  count_effect(q, rec->effective(), +1);
}

void Serializer::unlink(ObjectQueue& q, DeclRecord* rec) {
  JADE_ASSERT(!rec->counted);
  count_effect(q, rec->effective(), -1);
  IntrusiveList<DeclRecord>::unlink(rec);
}

void Serializer::count_effect(ObjectQueue& q, std::uint8_t bits, int delta) {
  if (bits & (access::kWrite | access::kCommute)) {
    q.cnt_wc = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(q.cnt_wc) + delta);
  }
  if (bits & (access::kRead | access::kWrite)) {
    q.cnt_rw = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(q.cnt_rw) + delta);
  }
}

void Serializer::set_counted(ObjectQueue& q, DeclRecord* rec, bool counted) {
  JADE_ASSERT(rec->counted != counted);
  rec->counted = counted;
  q.cnt_counted = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(q.cnt_counted) + (counted ? 1 : -1));
}

std::vector<std::pair<std::uint64_t, std::uint8_t>>
Serializer::queue_snapshot(ObjectId obj) const {
  std::vector<std::pair<std::uint64_t, std::uint8_t>> out;
  auto it = queues_.find(obj);
  if (it == queues_.end()) return out;
  // for_each is non-const; queues_ map values are stable, const_cast is safe
  // for a read-only walk.
  auto& q = const_cast<ObjectQueue&>(it->second);
  for (DeclRecord* p = q.records.front(); p != nullptr;
       p = q.records.next_of(p)) {
    out.emplace_back(p->task->id(), p->effective());
  }
  return out;
}

}  // namespace jade
