// White-box tests of the serializer — Jade's core semantics: per-object
// declaration queues, enabledness, deferred rights, with-cont updates,
// hierarchy enforcement and access checking (paper Sections 2-4).
#include <gtest/gtest.h>

#include <vector>

#include "jade/core/access.hpp"
#include "jade/core/queues.hpp"
#include "jade/support/error.hpp"

namespace jade {
namespace {

using access::kCommute;
using access::kRead;
using access::kWrite;

class RecordingListener : public SerializerListener {
 public:
  void on_task_ready(TaskNode* task) override { ready.push_back(task); }
  void on_task_unblocked(TaskNode* task) override {
    unblocked.push_back(task);
  }

  bool was_readied(TaskNode* t) const {
    return std::find(ready.begin(), ready.end(), t) != ready.end();
  }
  bool was_unblocked(TaskNode* t) const {
    return std::find(unblocked.begin(), unblocked.end(), t) != unblocked.end();
  }

  std::vector<TaskNode*> ready;
  std::vector<TaskNode*> unblocked;
};

/// Builds AccessRequest lists the way TaskContext::withonly does.
std::vector<AccessRequest> spec(
    const std::function<void(AccessDecl&)>& fn) {
  AccessDecl d;
  fn(d);
  return d.requests();
}

ObjectRef obj(ObjectId id) {
  // ObjectRef's constructor is private to Runtime; reconstruct through the
  // SharedRef layout via a small helper class.
  struct Raw : ObjectRef {
    explicit Raw(ObjectId i) { id_ = i; }
  };
  return Raw(id);
}

class SerializerTest : public ::testing::Test {
 protected:
  SerializerTest() : ser(&listener) {}

  TaskNode* make(TaskNode* parent,
                 const std::function<void(AccessDecl&)>& fn,
                 std::string name = "") {
    return ser.create_task(parent, spec(fn), nullptr, std::move(name));
  }
  TaskNode* make_root_child(const std::function<void(AccessDecl&)>& fn,
                            std::string name = "") {
    return make(ser.root(), fn, std::move(name));
  }

  RecordingListener listener;
  Serializer ser;
  ObjectRef A = obj(1);
  ObjectRef B = obj(2);
};

TEST_F(SerializerTest, ConcurrentReadersAreBothReady) {
  TaskNode* t1 = make_root_child([&](AccessDecl& d) { d.rd(A); });
  TaskNode* t2 = make_root_child([&](AccessDecl& d) { d.rd(A); });
  EXPECT_EQ(t1->state(), TaskState::kReady);
  EXPECT_EQ(t2->state(), TaskState::kReady);
}

TEST_F(SerializerTest, WritersSerializeInCreationOrder) {
  TaskNode* t1 = make_root_child([&](AccessDecl& d) { d.wr(A); });
  TaskNode* t2 = make_root_child([&](AccessDecl& d) { d.wr(A); });
  EXPECT_EQ(t1->state(), TaskState::kReady);
  EXPECT_EQ(t2->state(), TaskState::kPending);
  ser.task_started(t1);
  ser.complete_task(t1);
  EXPECT_EQ(t2->state(), TaskState::kReady);
  EXPECT_TRUE(listener.was_readied(t2));
}

TEST_F(SerializerTest, ReadWaitsForEarlierWriter) {
  TaskNode* w = make_root_child([&](AccessDecl& d) { d.rd_wr(A); });
  TaskNode* r = make_root_child([&](AccessDecl& d) { d.rd(A); });
  EXPECT_EQ(r->state(), TaskState::kPending);
  ser.task_started(w);
  ser.complete_task(w);
  EXPECT_EQ(r->state(), TaskState::kReady);
}

TEST_F(SerializerTest, WriteWaitsForAllEarlierReaders) {
  TaskNode* r1 = make_root_child([&](AccessDecl& d) { d.rd(A); });
  TaskNode* r2 = make_root_child([&](AccessDecl& d) { d.rd(A); });
  TaskNode* w = make_root_child([&](AccessDecl& d) { d.wr(A); });
  EXPECT_EQ(w->state(), TaskState::kPending);
  ser.task_started(r1);
  ser.complete_task(r1);
  EXPECT_EQ(w->state(), TaskState::kPending);
  ser.task_started(r2);
  ser.complete_task(r2);
  EXPECT_EQ(w->state(), TaskState::kReady);
}

TEST_F(SerializerTest, DisjointObjectsRunConcurrently) {
  TaskNode* t1 = make_root_child([&](AccessDecl& d) { d.rd_wr(A); });
  TaskNode* t2 = make_root_child([&](AccessDecl& d) { d.rd_wr(B); });
  EXPECT_EQ(t1->state(), TaskState::kReady);
  EXPECT_EQ(t2->state(), TaskState::kReady);
}

TEST_F(SerializerTest, TaskWaitsOnAllConflictingObjects) {
  TaskNode* t1 = make_root_child([&](AccessDecl& d) { d.wr(A); });
  TaskNode* t2 = make_root_child([&](AccessDecl& d) { d.wr(B); });
  TaskNode* t3 = make_root_child([&](AccessDecl& d) {
    d.rd(A);
    d.rd(B);
  });
  EXPECT_EQ(t3->state(), TaskState::kPending);
  ser.task_started(t1);
  ser.complete_task(t1);
  EXPECT_EQ(t3->state(), TaskState::kPending);  // still waiting on B
  ser.task_started(t2);
  ser.complete_task(t2);
  EXPECT_EQ(t3->state(), TaskState::kReady);
}

TEST_F(SerializerTest, DeferredRightDoesNotGateStart) {
  TaskNode* w = make_root_child([&](AccessDecl& d) { d.wr(A); });
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.df_rd(A); });
  EXPECT_EQ(w->state(), TaskState::kReady);
  // The deferred reader starts immediately — the pipelining property of
  // Section 4.2.
  EXPECT_EQ(t->state(), TaskState::kReady);
}

TEST_F(SerializerTest, DeferredRightBlocksSuccessors) {
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.df_wr(A); });
  TaskNode* r = make_root_child([&](AccessDecl& d) { d.rd(A); });
  // The earlier task may still convert df_wr to wr, so the reader must wait.
  EXPECT_EQ(r->state(), TaskState::kPending);
  ser.task_started(t);
  ser.complete_task(t);
  EXPECT_EQ(r->state(), TaskState::kReady);
}

TEST_F(SerializerTest, ConversionBlocksUntilWriterFinishes) {
  TaskNode* w = make_root_child([&](AccessDecl& d) { d.wr(A); });
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.df_rd(A); });
  ser.task_started(w);
  ser.task_started(t);
  const bool must_block =
      ser.update_spec(t, spec([&](AccessDecl& d) { d.rd(A); }));
  EXPECT_TRUE(must_block);
  EXPECT_FALSE(listener.was_unblocked(t));
  ser.complete_task(w);
  EXPECT_TRUE(listener.was_unblocked(t));
  // After unblocking the task may acquire.
  EXPECT_FALSE(ser.acquire(t, A.id(), kRead));
}

TEST_F(SerializerTest, ConversionProceedsWhenAlreadyEnabled) {
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.df_rd(A); });
  ser.task_started(t);
  EXPECT_FALSE(ser.update_spec(t, spec([&](AccessDecl& d) { d.rd(A); })));
}

TEST_F(SerializerTest, NoWrReleasesSuccessorsEarly) {
  TaskNode* t1 = make_root_child([&](AccessDecl& d) { d.rd_wr(A); });
  TaskNode* t2 = make_root_child([&](AccessDecl& d) { d.rd(A); });
  ser.task_started(t1);
  EXPECT_EQ(t2->state(), TaskState::kPending);
  // t1 finished writing A but keeps running (Section 4.2's no_rd/no_wr).
  EXPECT_FALSE(ser.update_spec(t1, spec([&](AccessDecl& d) {
    d.no_wr(A);
  })));
  EXPECT_EQ(t2->state(), TaskState::kReady);  // read-read no longer conflicts
  EXPECT_EQ(t1->state(), TaskState::kRunning);
}

TEST_F(SerializerTest, FullRetirementUnlinksRecord) {
  TaskNode* t1 = make_root_child([&](AccessDecl& d) { d.rd_wr(A); });
  TaskNode* t2 = make_root_child([&](AccessDecl& d) { d.wr(A); });
  ser.task_started(t1);
  ser.update_spec(t1, spec([&](AccessDecl& d) {
    d.no_rd(A);
    d.no_wr(A);
  }));
  EXPECT_EQ(t2->state(), TaskState::kReady);
  // The record is gone; touching A now is an undeclared access.
  EXPECT_THROW(ser.acquire(t1, A.id(), kRead), UndeclaredAccessError);
}

TEST_F(SerializerTest, WithContCannotAddNewObjects) {
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.rd(A); });
  ser.task_started(t);
  EXPECT_THROW(ser.update_spec(t, spec([&](AccessDecl& d) { d.rd(B); })),
               SpecUpdateError);
}

TEST_F(SerializerTest, WithContCannotEscalateRights) {
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.rd(A); });
  ser.task_started(t);
  EXPECT_THROW(ser.update_spec(t, spec([&](AccessDecl& d) { d.wr(A); })),
               SpecUpdateError);
}

TEST_F(SerializerTest, RedundantConversionIsNoop) {
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.rd(A); });
  ser.task_started(t);
  EXPECT_FALSE(ser.update_spec(t, spec([&](AccessDecl& d) { d.rd(A); })));
  EXPECT_FALSE(ser.acquire(t, A.id(), kRead));
}

TEST_F(SerializerTest, AcquireChecksDeclaredMode) {
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.rd(A); });
  ser.task_started(t);
  EXPECT_FALSE(ser.acquire(t, A.id(), kRead));
  EXPECT_THROW(ser.acquire(t, A.id(), kWrite), UndeclaredAccessError);
  EXPECT_THROW(ser.acquire(t, B.id(), kRead), UndeclaredAccessError);
}

TEST_F(SerializerTest, AcquireOfDeferredRightExplains) {
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.df_rd(A); });
  ser.task_started(t);
  try {
    ser.acquire(t, A.id(), kRead);
    FAIL() << "expected UndeclaredAccessError";
  } catch (const UndeclaredAccessError& e) {
    EXPECT_NE(std::string(e.what()).find("deferred"), std::string::npos);
  }
}

TEST_F(SerializerTest, ParentBlocksOnOwnChildsConflict) {
  TaskNode* p = make_root_child([&](AccessDecl& d) { d.rd_wr(A); });
  ser.task_started(p);
  TaskNode* c = make(p, [&](AccessDecl& d) { d.wr(A); });
  EXPECT_EQ(c->state(), TaskState::kReady);
  // Parent re-acquiring A must wait for its own child (serial order: the
  // child's write happens at its creation point, before the parent's later
  // accesses).
  EXPECT_TRUE(ser.acquire(p, A.id(), kRead));
  ser.task_started(c);
  ser.complete_task(c);
  EXPECT_TRUE(listener.was_unblocked(p));
}

TEST_F(SerializerTest, ParentReadChildReadNoBlock) {
  TaskNode* p = make_root_child([&](AccessDecl& d) { d.rd(A); });
  ser.task_started(p);
  make(p, [&](AccessDecl& d) { d.rd(A); });
  EXPECT_FALSE(ser.acquire(p, A.id(), kRead));
}

TEST_F(SerializerTest, HierarchyViolationDetected) {
  TaskNode* p = make_root_child([&](AccessDecl& d) { d.rd(A); });
  ser.task_started(p);
  EXPECT_THROW(make(p, [&](AccessDecl& d) { d.wr(A); }),
               HierarchyViolationError);
  EXPECT_THROW(make(p, [&](AccessDecl& d) { d.rd(B); }),
               HierarchyViolationError);
}

TEST_F(SerializerTest, DeferredParentRightCoversChild) {
  TaskNode* p = make_root_child([&](AccessDecl& d) { d.df_wr(A); });
  ser.task_started(p);
  TaskNode* c = make(p, [&](AccessDecl& d) { d.wr(A); });
  EXPECT_EQ(c->state(), TaskState::kReady);
}

TEST_F(SerializerTest, ChildrenOrderBeforeParentAndLaterSiblings) {
  TaskNode* p = make_root_child([&](AccessDecl& d) { d.rd_wr(A); }, "p");
  TaskNode* later = make_root_child([&](AccessDecl& d) { d.rd(A); }, "later");
  ser.task_started(p);
  TaskNode* c1 = make(p, [&](AccessDecl& d) { d.rd_wr(A); }, "c1");
  TaskNode* c2 = make(p, [&](AccessDecl& d) { d.rd_wr(A); }, "c2");

  // Serial order in A's queue: c1, c2, p, later.
  auto snap = ser.queue_snapshot(A.id());
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].first, c1->id());
  EXPECT_EQ(snap[1].first, c2->id());
  EXPECT_EQ(snap[2].first, p->id());
  EXPECT_EQ(snap[3].first, later->id());

  EXPECT_EQ(c1->state(), TaskState::kReady);
  EXPECT_EQ(c2->state(), TaskState::kPending);
  EXPECT_EQ(later->state(), TaskState::kPending);

  ser.task_started(c1);
  ser.complete_task(c1);
  EXPECT_EQ(c2->state(), TaskState::kReady);
  EXPECT_EQ(later->state(), TaskState::kPending);  // p still holds rd_wr

  ser.task_started(c2);
  ser.complete_task(c2);
  ser.complete_task(p);
  EXPECT_EQ(later->state(), TaskState::kReady);
}

TEST_F(SerializerTest, CommutersShareButExcludeReaders) {
  TaskNode* c1 = make_root_child([&](AccessDecl& d) { d.cm(A); });
  TaskNode* c2 = make_root_child([&](AccessDecl& d) { d.cm(A); });
  TaskNode* r = make_root_child([&](AccessDecl& d) { d.rd(A); });
  EXPECT_EQ(c1->state(), TaskState::kReady);
  EXPECT_EQ(c2->state(), TaskState::kReady);
  EXPECT_EQ(r->state(), TaskState::kPending);
  ser.task_started(c1);
  ser.complete_task(c1);
  EXPECT_EQ(r->state(), TaskState::kPending);
  ser.task_started(c2);
  ser.complete_task(c2);
  EXPECT_EQ(r->state(), TaskState::kReady);
}

TEST_F(SerializerTest, CommuterWaitsForEarlierWriter) {
  TaskNode* w = make_root_child([&](AccessDecl& d) { d.wr(A); });
  TaskNode* c = make_root_child([&](AccessDecl& d) { d.cm(A); });
  EXPECT_EQ(c->state(), TaskState::kPending);
  ser.task_started(w);
  ser.complete_task(w);
  EXPECT_EQ(c->state(), TaskState::kReady);
}

TEST_F(SerializerTest, NoStatementsInWithonlyRejected) {
  EXPECT_THROW(make_root_child([&](AccessDecl& d) { d.no_rd(A); }),
               SpecUpdateError);
}

TEST_F(SerializerTest, RejectedWithonlyLeavesNoRecords) {
  // The child's first request (rd_wr A) is valid; its second breaks the
  // hierarchy rule or carries a no_* statement.  Either error must leave
  // the serializer as it was: no record on A, nothing outstanding, no id
  // consumed.
  TaskNode* parent = make_root_child([&](AccessDecl& d) { d.rd_wr(A); });
  ser.task_started(parent);
  const auto queue_a = ser.queue_snapshot(A.id());
  const auto queue_b = ser.queue_snapshot(B.id());
  const std::uint64_t outstanding = ser.outstanding();
  const std::uint64_t backlog = ser.backlog();
  const std::uint64_t created = ser.tasks_created();
  const auto unchanged = [&] {
    EXPECT_EQ(ser.queue_snapshot(A.id()), queue_a);
    EXPECT_EQ(ser.queue_snapshot(B.id()), queue_b);
    EXPECT_EQ(ser.outstanding(), outstanding);
    EXPECT_EQ(ser.backlog(), backlog);
    EXPECT_EQ(ser.tasks_created(), created);
  };
  const auto uncovered = [&](AccessDecl& d) {
    d.rd_wr(A);
    d.rd_wr(B);
  };
  const auto with_no_rd = [&](AccessDecl& d) {
    d.rd_wr(A);
    d.no_rd(B);
  };
  EXPECT_THROW(make(parent, uncovered), HierarchyViolationError);
  unchanged();
  EXPECT_THROW(make(parent, with_no_rd), SpecUpdateError);
  unchanged();

  // A valid child afterwards is linked, ready and numbered as if the
  // rejected ones never happened; the parent then waits on it.
  TaskNode* child = make(parent, [&](AccessDecl& d) { d.rd_wr(A); });
  EXPECT_EQ(child->id(), created + 1);
  EXPECT_EQ(child->state(), TaskState::kReady);
  EXPECT_EQ(ser.queue_snapshot(A.id()).size(), 2u);
  EXPECT_TRUE(ser.acquire(parent, A.id(), kRead | kWrite));
}

TEST_F(SerializerTest, GrantedOnlyForHeldRightsWithNoChildAhead) {
  TaskNode* t = make_root_child([&](AccessDecl& d) {
    d.rd_wr(A);
    d.df_rd(B);
  });
  TaskNode* c = make_root_child([&](AccessDecl& d) { d.cm(obj(3)); });
  ser.task_started(t);
  ser.task_started(c);
  EXPECT_TRUE(ser.granted(t, A.id(), kRead));
  EXPECT_TRUE(ser.granted(t, A.id(), kRead | kWrite));
  // Deferred, undeclared, commute (it needs the engine's token), and the
  // root, which holds no records.
  EXPECT_FALSE(ser.granted(t, B.id(), kRead));
  EXPECT_FALSE(ser.granted(t, obj(4).id(), kRead));
  EXPECT_FALSE(ser.granted(c, 3, kCommute));
  EXPECT_FALSE(ser.granted(ser.root(), A.id(), kRead));

  // Converting the deferred right makes it a held right.
  EXPECT_FALSE(ser.update_spec(t, spec([&](AccessDecl& d) { d.rd(B); })));
  EXPECT_TRUE(ser.granted(t, B.id(), kRead));
  // Retiring a right takes it away.
  EXPECT_FALSE(ser.update_spec(t, spec([&](AccessDecl& d) { d.no_rd(B); })));
  EXPECT_FALSE(ser.granted(t, B.id(), kRead));

  // A child linked ahead of the record sends every later access of that
  // object through acquire(), which waits for the child; the others keep
  // their grant.
  TaskNode* kid = make(t, [&](AccessDecl& d) { d.rd(A); });
  EXPECT_EQ(kid->state(), TaskState::kReady);
  EXPECT_FALSE(ser.granted(t, A.id(), kRead));
  EXPECT_FALSE(ser.acquire(t, A.id(), kRead));
  EXPECT_TRUE(ser.acquire(t, A.id(), kRead | kWrite));
}

TEST_F(SerializerTest, OutstandingCountsLifecycle) {
  EXPECT_EQ(ser.outstanding(), 0u);
  TaskNode* t1 = make_root_child([&](AccessDecl& d) { d.rd(A); });
  TaskNode* t2 = make_root_child([&](AccessDecl& d) { d.wr(B); });
  EXPECT_EQ(ser.outstanding(), 2u);
  ser.task_started(t1);
  ser.complete_task(t1);
  EXPECT_EQ(ser.outstanding(), 1u);
  ser.task_started(t2);
  ser.complete_task(t2);
  EXPECT_EQ(ser.outstanding(), 0u);
  EXPECT_EQ(ser.tasks_created(), 2u);
}

TEST_F(SerializerTest, RootAccessRules) {
  // Uncontested: anything goes.
  EXPECT_FALSE(ser.acquire(ser.root(), A.id(), kRead | kWrite));
  // Readers outstanding: root may read along (the object is immutable while
  // they live — Figure 6's driver reads r[j] this way) but not write.
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.rd(A); });
  EXPECT_FALSE(ser.acquire(ser.root(), A.id(), kRead));
  EXPECT_THROW(ser.acquire(ser.root(), A.id(), kWrite),
               UndeclaredAccessError);
  ser.task_started(t);
  ser.complete_task(t);
  EXPECT_FALSE(ser.acquire(ser.root(), A.id(), kRead | kWrite));
  // A writer outstanding blocks even root reads.
  make_root_child([&](AccessDecl& d) { d.rd_wr(A); });
  EXPECT_THROW(ser.acquire(ser.root(), A.id(), kRead),
               UndeclaredAccessError);
}

TEST_F(SerializerTest, TaskWithOnlyDeferredRecordsIsReadyInstantly) {
  make_root_child([&](AccessDecl& d) { d.wr(A); });
  TaskNode* t = make_root_child([&](AccessDecl& d) {
    d.df_rd(A);
    d.df_wr(B);
  });
  EXPECT_EQ(t->state(), TaskState::kReady);
  EXPECT_EQ(t->record_count(), 2u);
}

TEST_F(SerializerTest, DowngradeToDeferredAndReconvert) {
  TaskNode* t = make_root_child([&](AccessDecl& d) { d.rd(A); });
  ser.task_started(t);
  // Downgrade: release the immediate right but keep the queue position.
  ser.update_spec(t, spec([&](AccessDecl& d) { d.df_rd(A); }));
  EXPECT_THROW(ser.acquire(t, A.id(), kRead), UndeclaredAccessError);
  ser.update_spec(t, spec([&](AccessDecl& d) { d.rd(A); }));
  EXPECT_FALSE(ser.acquire(t, A.id(), kRead));
}

TEST_F(SerializerTest, MergedStatementsCombine) {
  // rd(A); wr(A) in one declaration == rd_wr(A).
  TaskNode* t = make_root_child([&](AccessDecl& d) {
    d.rd(A);
    d.wr(A);
  });
  ser.task_started(t);
  EXPECT_FALSE(ser.acquire(t, A.id(), kRead | kWrite));
  EXPECT_EQ(t->record_count(), 1u);
}

TEST_F(SerializerTest, ImmediateSupersedesDeferredInOneDecl) {
  TaskNode* t = make_root_child([&](AccessDecl& d) {
    d.df_rd(A);
    d.rd(A);
  });
  ser.task_started(t);
  EXPECT_FALSE(ser.acquire(t, A.id(), kRead));
}

TEST_F(SerializerTest, ConflictMatrix) {
  EXPECT_FALSE(access::conflicts(kRead, kRead));
  EXPECT_TRUE(access::conflicts(kRead, kWrite));
  EXPECT_TRUE(access::conflicts(kWrite, kRead));
  EXPECT_TRUE(access::conflicts(kWrite, kWrite));
  EXPECT_FALSE(access::conflicts(kCommute, kCommute));
  EXPECT_TRUE(access::conflicts(kCommute, kRead));
  EXPECT_TRUE(access::conflicts(kRead, kCommute));
  EXPECT_TRUE(access::conflicts(kCommute, kWrite));
  EXPECT_TRUE(access::conflicts(kRead | kCommute, kCommute));
  EXPECT_FALSE(access::conflicts(0, kWrite));
  EXPECT_FALSE(access::conflicts(kWrite, 0));
}

}  // namespace
}  // namespace jade
