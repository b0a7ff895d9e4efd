// Unit tests for the CoherenceProtocol against a scripted fake transport —
// no engine, no simulation.  Each scenario pins one protocol decision:
// revalidation vs payload, upgrade-in-place, conversion caching, multicast
// coalescing, batched fetches, and the typed (object, machine) key.
#include <gtest/gtest.h>

#include <vector>

#include "jade/store/coherence.hpp"

namespace jade {
namespace {

/// Fixed-latency, fixed-bandwidth transport that logs every call.  The
/// clock never advances on its own (the protocol is synchronous); tests
/// move it explicitly when they need distinct departure stamps.
class FakeTransport final : public CoherenceTransport {
 public:
  struct Call {
    bool multicast = false;
    MachineId from = -1;
    MachineId to = -1;  ///< -1 for multicasts
    std::size_t bytes = 0;
  };

  SimTime now() const override { return now_; }
  void advance(SimTime dt) { now_ += dt; }

  SimTime unicast(MachineId from, MachineId to, std::size_t bytes,
                  SimTime at) override {
    calls.push_back({false, from, to, bytes});
    return at + kLatency + static_cast<SimTime>(bytes) / kBytesPerSecond;
  }
  SimTime multicast(MachineId from, std::span<const MachineId> targets,
                    std::size_t bytes, SimTime at) override {
    EXPECT_FALSE(targets.empty());
    calls.push_back({true, from, -1, bytes});
    return at + kLatency + static_cast<SimTime>(bytes) / kBytesPerSecond;
  }

  std::vector<Call> calls;

 private:
  static constexpr SimTime kLatency = 1e-3;
  static constexpr SimTime kBytesPerSecond = 1e6;
  SimTime now_ = 0;
};

/// A protocol instance over `machines` machines with per-machine endians
/// (defaulting to all-little, which disables conversion).
struct Harness {
  explicit Harness(int machines, std::vector<Endian> endians = {},
                   CoherenceConfig config = {})
      : directory(machines) {
    if (endians.empty())
      endians.assign(static_cast<std::size_t>(machines), Endian::kLittle);
    protocol = std::make_unique<CoherenceProtocol>(
        transport, directory, objects, std::move(endians), config, stats,
        /*tracer=*/nullptr);
  }

  ObjectId add_object(std::size_t doubles, MachineId home) {
    const ObjectId id = objects.add(TypeDescriptor::array_of<double>(doubles),
                                    "obj" + std::to_string(objects.count()));
    directory.add_object(objects.info(id), home);
    return id;
  }

  FakeTransport transport;
  ObjectTable objects;
  ObjectDirectory directory;
  RuntimeStats stats;
  std::unique_ptr<CoherenceProtocol> protocol;
};

TEST(Coherence, CopyLeavesOwnerInPlace) {
  Harness h(2);
  const ObjectId obj = h.add_object(64, /*home=*/0);
  const SimTime at = h.protocol->transfer(obj, 1, /*exclusive=*/false);
  EXPECT_GT(at, 0.0);
  EXPECT_EQ(h.directory.owner(obj), 0);
  EXPECT_TRUE(h.directory.present(obj, 1));
  EXPECT_EQ(h.stats.object_copies, 1u);
  EXPECT_EQ(h.stats.messages, 2u);  // request + data
  EXPECT_EQ(h.stats.payload_bytes, 64u * sizeof(double));
  EXPECT_DOUBLE_EQ(h.protocol->available_at(obj, 1), at);
}

TEST(Coherence, RevalidationSkipsPayload) {
  Harness h(3);
  const ObjectId obj = h.add_object(64, /*home=*/0);
  // Replicate to machine 1, then move the object to 2: machine 1's replica
  // is dropped but its recorded data version still matches.
  h.protocol->transfer(obj, 1, /*exclusive=*/false);
  h.protocol->transfer(obj, 2, /*exclusive=*/true);
  ASSERT_FALSE(h.directory.present(obj, 1));
  ASSERT_TRUE(h.directory.reusable(obj, 1));

  const auto baseline = h.stats;
  const std::size_t calls_before = h.transport.calls.size();
  h.protocol->transfer(obj, 1, /*exclusive=*/false);

  EXPECT_EQ(h.stats.replicas_reused, baseline.replicas_reused + 1);
  EXPECT_EQ(h.stats.object_copies, baseline.object_copies);  // no payload
  EXPECT_EQ(h.stats.payload_bytes, baseline.payload_bytes);
  EXPECT_EQ(h.stats.messages, baseline.messages + 2);  // request + grant
  EXPECT_EQ(h.stats.bytes_avoided,
            baseline.bytes_avoided + 64 * sizeof(double));
  EXPECT_EQ(h.transport.calls.size(), calls_before + 2);
  EXPECT_TRUE(h.directory.present(obj, 1));
}

TEST(Coherence, StaleReplicaRepaysPayloadAfterWrite) {
  CoherenceConfig cfg;
  Harness h(3, {}, cfg);
  const ObjectId obj = h.add_object(64, /*home=*/0);
  h.protocol->transfer(obj, 1, /*exclusive=*/false);
  h.protocol->transfer(obj, 2, /*exclusive=*/true);
  // The writer dirties the bytes: machine 1's recorded version no longer
  // matches, so its next read pays the full payload again.
  std::vector<ObjectId> dirtied;
  h.protocol->first_write_invalidate(2, obj, dirtied);
  ASSERT_FALSE(h.directory.reusable(obj, 1));

  const auto baseline = h.stats;
  h.protocol->transfer(obj, 1, /*exclusive=*/false);
  EXPECT_EQ(h.stats.replicas_reused, baseline.replicas_reused);
  EXPECT_EQ(h.stats.object_copies, baseline.object_copies + 1);
  EXPECT_EQ(h.stats.payload_bytes,
            baseline.payload_bytes + 64 * sizeof(double));
}

TEST(Coherence, ExclusiveUpgradeInPlace) {
  Harness h(2);
  const ObjectId obj = h.add_object(128, /*home=*/0);
  h.protocol->transfer(obj, 1, /*exclusive=*/false);
  ASSERT_TRUE(h.directory.present(obj, 1));

  const auto baseline = h.stats;
  h.protocol->transfer(obj, 1, /*exclusive=*/true);
  // Destination already holds the current bytes: ownership travels as a
  // request/grant pair, no payload moves.
  EXPECT_EQ(h.directory.owner(obj), 1);
  EXPECT_EQ(h.stats.object_moves, baseline.object_moves);
  EXPECT_EQ(h.stats.payload_bytes, baseline.payload_bytes);
  EXPECT_EQ(h.stats.replicas_reused, baseline.replicas_reused + 1);
  EXPECT_EQ(h.stats.messages, baseline.messages + 2);
}

TEST(Coherence, ConversionCacheHitsUntilDirtied) {
  // Machine 0 little-endian, 1 and 2 big-endian: every payload 0->{1,2}
  // crosses byte orders.
  Harness h(3, {Endian::kLittle, Endian::kBig, Endian::kBig});
  const std::size_t n = 96;
  const ObjectId obj = h.add_object(n, /*home=*/0);

  h.protocol->transfer(obj, 1, /*exclusive=*/false);
  EXPECT_EQ(h.stats.scalars_converted, n);
  EXPECT_EQ(h.stats.conversions_cached, 0u);

  // Second cross-endian copy of the same clean data: cache hit.
  h.protocol->transfer(obj, 2, /*exclusive=*/false);
  EXPECT_EQ(h.stats.scalars_converted, n);
  EXPECT_EQ(h.stats.conversions_cached, 1u);

  // A write opens a new data version; the cached image is stale.
  std::vector<ObjectId> dirtied;
  h.protocol->first_write_invalidate(0, obj, dirtied);
  ASSERT_FALSE(h.directory.present(obj, 1));
  h.protocol->transfer(obj, 1, /*exclusive=*/false);
  EXPECT_EQ(h.stats.scalars_converted, 2 * n);
  EXPECT_EQ(h.stats.conversions_cached, 1u);
}

TEST(Coherence, InvalidationFanOutCoalescesIntoOneMulticast) {
  Harness h(4);
  const ObjectId obj = h.add_object(32, /*home=*/0);
  for (MachineId m = 1; m <= 3; ++m)
    h.protocol->transfer(obj, m, /*exclusive=*/false);
  ASSERT_EQ(h.directory.holders(obj).size(), 4u);

  const auto baseline = h.stats;
  // Machine 1 takes the object exclusively; holders 2 and 3 must drop.
  h.protocol->transfer(obj, 1, /*exclusive=*/true);
  EXPECT_EQ(h.stats.invalidations, baseline.invalidations + 2);
  EXPECT_EQ(h.stats.invalidations_coalesced,
            baseline.invalidations_coalesced + 1);
  int multicasts = 0;
  for (const auto& c : h.transport.calls) multicasts += c.multicast ? 1 : 0;
  EXPECT_EQ(multicasts, 1);
  EXPECT_TRUE(h.directory.sole_holder(obj, 1));
}

TEST(Coherence, InvalidationFanOutUnicastsWhenCoalescingOff) {
  CoherenceConfig cfg;
  cfg.optimized_comm = false;
  Harness h(4, {}, cfg);
  const ObjectId obj = h.add_object(32, /*home=*/0);
  for (MachineId m = 1; m <= 3; ++m)
    h.protocol->transfer(obj, m, /*exclusive=*/false);

  const auto baseline = h.stats;
  h.protocol->transfer(obj, 1, /*exclusive=*/true);
  EXPECT_EQ(h.stats.invalidations, baseline.invalidations + 2);
  EXPECT_EQ(h.stats.invalidations_coalesced, 0u);
  for (const auto& c : h.transport.calls) EXPECT_FALSE(c.multicast);
}

TEST(Coherence, FetchBatchesPerOwnerIntoOneRoundTrip) {
  Harness h(2);
  const ObjectId a = h.add_object(64, /*home=*/1);
  const ObjectId b = h.add_object(64, /*home=*/1);

  const SimTime at = h.protocol->fetch(
      0, {{a, /*exclusive=*/true, /*blocking=*/true},
          {b, /*exclusive=*/true, /*blocking=*/true}});
  EXPECT_GT(at, 0.0);
  // One combined request + one combined reply, not two round-trips.
  EXPECT_EQ(h.stats.messages, 2u);
  EXPECT_EQ(h.stats.requests_combined, 1u);
  EXPECT_EQ(h.stats.object_moves, 2u);
  EXPECT_EQ(h.transport.calls.size(), 2u);
  EXPECT_EQ(h.directory.owner(a), 0);
  EXPECT_EQ(h.directory.owner(b), 0);
  EXPECT_EQ(h.stats.payload_bytes, 2u * 64 * sizeof(double));
}

TEST(Coherence, FetchSplitsBatchesByOwner) {
  Harness h(3);
  const ObjectId a = h.add_object(64, /*home=*/1);
  const ObjectId b = h.add_object(64, /*home=*/2);
  h.protocol->fetch(0, {{a, true, true}, {b, true, true}});
  // Two owners, one request/reply pair each (no cross-owner combining).
  EXPECT_EQ(h.stats.messages, 4u);
  EXPECT_EQ(h.stats.requests_combined, 0u);
}

TEST(Coherence, FetchWithoutCombiningIssuesPerObjectTransfers) {
  CoherenceConfig cfg;
  cfg.optimized_comm = false;
  Harness h(2, {}, cfg);
  const ObjectId a = h.add_object(64, /*home=*/1);
  const ObjectId b = h.add_object(64, /*home=*/1);
  h.protocol->fetch(0, {{a, true, true}, {b, true, true}});
  EXPECT_EQ(h.stats.messages, 4u);
  EXPECT_EQ(h.stats.requests_combined, 0u);
}

TEST(Coherence, TypedKeyDistinguishesOldPackingCollisions) {
  // Under the old `obj * 64 + machine` packing these two keys alias:
  // (a + 2^58) * 64 wraps modulo 2^64 back onto a * 64.
  Harness h(4);
  const ObjectId a = 7;
  const ObjectId b = a + (ObjectId{1} << 58);
  h.protocol->set_available_at(a, 3, 1.5);
  h.protocol->set_available_at(b, 3, 2.5);
  EXPECT_DOUBLE_EQ(h.protocol->available_at(a, 3), 1.5);
  EXPECT_DOUBLE_EQ(h.protocol->available_at(b, 3), 2.5);
  h.protocol->forget_machine(3);
  EXPECT_DOUBLE_EQ(h.protocol->available_at(a, 3), 0.0);
  EXPECT_DOUBLE_EQ(h.protocol->available_at(b, 3), 0.0);
}

TEST(Coherence, InFlightPayloadIsSharedByLaterReader) {
  Harness h(2);
  const ObjectId obj = h.add_object(64, /*home=*/0);
  const SimTime at = h.protocol->transfer(obj, 1, /*exclusive=*/false);
  ASSERT_GT(at, 0.0);
  // A second reader on the same machine while the payload is in flight
  // rides the existing transfer: no new messages, same arrival.
  const auto baseline = h.stats;
  const SimTime again = h.protocol->transfer(obj, 1, /*exclusive=*/false);
  EXPECT_DOUBLE_EQ(again, at);
  EXPECT_EQ(h.stats.messages, baseline.messages);
  EXPECT_EQ(h.stats.requests_combined, baseline.requests_combined + 1);
}

}  // namespace
}  // namespace jade
