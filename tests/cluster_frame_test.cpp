// Wire-format hardening tests for the cluster protocol (frame.hpp):
// round-trip properties for every message type, frame-header validation,
// and the guarantee that truncated or garbage bytes surface as
// ProtocolError — never UB, never InternalError leaking across the
// process boundary.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "jade/cluster/frame.hpp"
#include "jade/support/error.hpp"

namespace jade::cluster {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(static_cast<std::byte>(x));
  return out;
}

// --- frame header -----------------------------------------------------------

TEST(FrameHeader, RoundTrip) {
  const auto payload = bytes_of({1, 2, 3, 4, 5});
  const std::vector<std::byte> buf =
      encode_frame(FrameType::kDispatch, payload);
  ASSERT_EQ(buf.size(), kFrameHeaderBytes + payload.size());
  FrameType type{};
  const std::uint32_t len = decode_frame_header(buf.data(), type);
  EXPECT_EQ(type, FrameType::kDispatch);
  EXPECT_EQ(len, payload.size());
  EXPECT_EQ(0, std::memcmp(buf.data() + kFrameHeaderBytes, payload.data(),
                           payload.size()));
}

TEST(FrameHeader, EveryTypeSurvives) {
  for (std::uint8_t t = 1; t <= kMaxFrameType; ++t) {
    const auto buf = encode_frame(static_cast<FrameType>(t), {});
    FrameType type{};
    EXPECT_EQ(decode_frame_header(buf.data(), type), 0u);
    EXPECT_EQ(static_cast<std::uint8_t>(type), t);
  }
}

TEST(FrameHeader, BadMagicRejected) {
  auto buf = encode_frame(FrameType::kHello, {});
  buf[0] = std::byte{0xFF};
  FrameType type{};
  EXPECT_THROW(decode_frame_header(buf.data(), type), ProtocolError);
}

TEST(FrameHeader, BadVersionRejected) {
  auto buf = encode_frame(FrameType::kHello, {});
  buf[4] = std::byte{99};
  FrameType type{};
  EXPECT_THROW(decode_frame_header(buf.data(), type), ProtocolError);
}

TEST(FrameHeader, BadTypeRejected) {
  auto buf = encode_frame(FrameType::kHello, {});
  FrameType type{};
  buf[5] = std::byte{0};
  EXPECT_THROW(decode_frame_header(buf.data(), type), ProtocolError);
  buf[5] = std::byte{kMaxFrameType + 1};
  EXPECT_THROW(decode_frame_header(buf.data(), type), ProtocolError);
}

TEST(FrameHeader, NonzeroReservedRejected) {
  auto buf = encode_frame(FrameType::kHello, {});
  buf[6] = std::byte{1};
  FrameType type{};
  EXPECT_THROW(decode_frame_header(buf.data(), type), ProtocolError);
}

TEST(FrameHeader, AbsurdLengthRejected) {
  auto buf = encode_frame(FrameType::kHello, {});
  // Length field is at offset 8, little-endian: 0xFFFFFFFF > kMaxPayload.
  buf[8] = buf[9] = buf[10] = buf[11] = std::byte{0xFF};
  FrameType type{};
  EXPECT_THROW(decode_frame_header(buf.data(), type), ProtocolError);
}

// --- message round-trips ----------------------------------------------------

template <typename M>
M round_trip(const M& msg) {
  return unpack<M>(pack(msg));
}

TEST(ClusterMessages, Hello) {
  HelloMsg m;
  m.pid = 123456789;
  EXPECT_EQ(round_trip(m).pid, m.pid);
}

TEST(ClusterMessages, Activate) {
  ActivateMsg m;
  m.machine = 17;
  m.machines = 64;
  m.heartbeat_interval = 0.0125;
  const ActivateMsg d = round_trip(m);
  EXPECT_EQ(d.machine, m.machine);
  EXPECT_EQ(d.machines, m.machines);
  EXPECT_DOUBLE_EQ(d.heartbeat_interval, m.heartbeat_interval);
}

TEST(ClusterMessages, DispatchWithPayloads) {
  DispatchMsg m;
  m.task = 42;
  m.body = 7;
  m.name = "factor-column";
  m.args = bytes_of({9, 8, 7});
  ObjectShip with_payload;
  with_payload.obj = 3;
  with_payload.immediate = 3;  // rd|wr
  with_payload.deferred = 4;   // df_cm
  with_payload.bytes = 4;
  with_payload.has_payload = true;
  with_payload.payload = bytes_of({1, 2, 3, 4});
  ObjectShip elided;
  elided.obj = 9;
  elided.immediate = 1;
  elided.bytes = 1024;  // payload elided: worker copy is current
  m.objects = {with_payload, elided};

  const DispatchMsg d = round_trip(m);
  EXPECT_EQ(d.task, m.task);
  EXPECT_EQ(d.body, m.body);
  EXPECT_EQ(d.name, m.name);
  EXPECT_EQ(d.args, m.args);
  ASSERT_EQ(d.objects.size(), 2u);
  EXPECT_EQ(d.objects[0].obj, 3u);
  EXPECT_EQ(d.objects[0].immediate, 3);
  EXPECT_EQ(d.objects[0].deferred, 4);
  EXPECT_TRUE(d.objects[0].has_payload);
  EXPECT_EQ(d.objects[0].payload, with_payload.payload);
  EXPECT_EQ(d.objects[1].obj, 9u);
  EXPECT_FALSE(d.objects[1].has_payload);
  EXPECT_EQ(d.objects[1].bytes, 1024u);
}

TEST(ClusterMessages, Spawn) {
  SpawnMsg m;
  m.parent = 5;
  m.body = 2;
  m.name = "child";
  m.placement = 3;
  m.args = bytes_of({0xAA, 0xBB});
  m.requests = {{11, 1, 2, 0}, {12, 0, 4, 0}};
  const SpawnMsg d = round_trip(m);
  EXPECT_EQ(d.parent, m.parent);
  EXPECT_EQ(d.body, m.body);
  EXPECT_EQ(d.name, m.name);
  EXPECT_EQ(d.placement, m.placement);
  EXPECT_EQ(d.args, m.args);
  ASSERT_EQ(d.requests.size(), 2u);
  EXPECT_EQ(d.requests[0].obj, 11u);
  EXPECT_EQ(d.requests[0].add_immediate, 1);
  EXPECT_EQ(d.requests[0].add_deferred, 2);
  EXPECT_EQ(d.requests[1].add_deferred, 4);
}

TEST(ClusterMessages, WithContAndAck) {
  WithContMsg m;
  m.task = 77;
  WithContItem retire;
  retire.req = {4, 0, 0, 2};  // no_wr
  retire.has_payload = true;
  retire.payload = bytes_of({5, 6});
  WithContItem convert;
  convert.req = {8, 2, 0, 0};  // wr (conversion)
  m.items = {retire, convert};
  const WithContMsg d = round_trip(m);
  EXPECT_EQ(d.task, 77u);
  ASSERT_EQ(d.items.size(), 2u);
  EXPECT_EQ(d.items[0].req.remove, 2);
  EXPECT_TRUE(d.items[0].has_payload);
  EXPECT_EQ(d.items[0].payload, retire.payload);
  EXPECT_EQ(d.items[1].req.add_immediate, 2);
  EXPECT_FALSE(d.items[1].has_payload);

  WithContAckMsg ack;
  ack.task = 77;
  ack.ok = false;
  ack.error_code = ErrorCode::kSpecUpdate;
  ack.error = "cannot re-add removed right";
  const WithContAckMsg da = round_trip(ack);
  EXPECT_FALSE(da.ok);
  EXPECT_EQ(da.error_code, ErrorCode::kSpecUpdate);
  EXPECT_EQ(da.error, ack.error);
}

TEST(ClusterMessages, AcquireAndAck) {
  AcquireMsg m;
  m.task = 13;
  m.obj = 21;
  m.mode = 4;  // commute
  const AcquireMsg d = round_trip(m);
  EXPECT_EQ(d.task, 13u);
  EXPECT_EQ(d.obj, 21u);
  EXPECT_EQ(d.mode, 4);

  AcquireAckMsg ack;
  ack.task = 13;
  ack.obj = 21;
  ack.ok = true;
  ack.has_payload = true;
  ack.payload = bytes_of({1, 1, 2, 3, 5, 8});
  const AcquireAckMsg da = round_trip(ack);
  EXPECT_TRUE(da.ok);
  EXPECT_TRUE(da.has_payload);
  EXPECT_EQ(da.payload, ack.payload);
}

TEST(ClusterMessages, Done) {
  DoneMsg m;
  m.task = 99;
  m.charged = 2.5;
  m.writes.push_back({31, bytes_of({1})});
  m.writes.push_back({32, bytes_of({2, 3})});
  const DoneMsg d = round_trip(m);
  EXPECT_EQ(d.task, 99u);
  EXPECT_DOUBLE_EQ(d.charged, 2.5);
  ASSERT_EQ(d.writes.size(), 2u);
  EXPECT_EQ(d.writes[0].obj, 31u);
  EXPECT_EQ(d.writes[1].payload, bytes_of({2, 3}));
}

TEST(ClusterMessages, TaskErrorHeartbeat) {
  TaskErrorMsg e;
  e.task = 6;
  e.code = ErrorCode::kUndeclaredAccess;
  e.what = "task accessed object 9 without declaring it";
  const TaskErrorMsg de = round_trip(e);
  EXPECT_EQ(de.task, 6u);
  EXPECT_EQ(de.code, ErrorCode::kUndeclaredAccess);
  EXPECT_EQ(de.what, e.what);

  HeartbeatMsg hb;
  hb.machine = 3;
  hb.seq = 12345;
  const HeartbeatMsg dhb = round_trip(hb);
  EXPECT_EQ(dhb.machine, 3);
  EXPECT_EQ(dhb.seq, 12345u);
}

TEST(ClusterMessages, ObjFetchObjDataShutdown) {
  ObjFetchMsg f;
  f.obj = 55;
  EXPECT_EQ(round_trip(f).obj, 55u);

  ObjDataMsg o;
  o.obj = 55;
  o.payload = bytes_of({4, 5, 6});
  const ObjDataMsg od = round_trip(o);
  EXPECT_EQ(od.obj, 55u);
  EXPECT_EQ(od.payload, o.payload);

  EXPECT_NO_THROW(round_trip(ShutdownMsg{}));
}

// --- golden bytes -----------------------------------------------------------

std::string hex(const std::vector<std::byte>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte b : bytes) {
    out += kDigits[std::to_integer<int>(b) >> 4];
    out += kDigits[std::to_integer<int>(b) & 0xF];
  }
  return out;
}

// One instance of each of the 17 message types, packed and compared with
// its wire layout as hex, plus a whole Retire frame (a WithCont payload
// under frame type 15).  The round-trip tests above pass for any encoder
// and decoder that change together; a peer built from another commit still
// expects these bytes.
TEST(ClusterMessages, GoldenBytes) {
  const ObjectShip shipped{5, 3, 4, 4, true, bytes_of({1, 2, 3, 4})};
  const ObjectShip elided{6, 1, 0, 1024, false, {}};
  const ReqMsg req{11, 1, 2, 0};
  const WithContItem retire{{4, 0, 0, 2}, true, bytes_of({5, 6})};
  const WithContItem convert{{8, 2, 0, 0}, false, {}};
  const struct {
    const char* name;
    std::vector<std::byte> bytes;
    const char* want;
  } cases[] = {
      {"Hello", pack(HelloMsg{-4242}), "6eefffffffffffff"},
      {"Activate", pack(ActivateMsg{3, 8, 0.025}),
       "030000000000000008000000000000009a9999999999993f"},
      {"ObjectShip", pack(shipped),
       "050000000000000003040400000000000000010400000001020304"},
      {"ObjectShip/elided", pack(elided),
       "06000000000000000100000400000000000000"},
      {"Dispatch",
       pack(DispatchMsg{42, 7, "col", bytes_of({9, 8}), {shipped, elided}}),
       "2a00000000000000070000000000000003000000636f6c020000000908020000000500"
       "0000000000000304040000000000000001040000000102030406000000000000000100"
       "000400000000000000"},
      {"Req", pack(req), "0b00000000000000010200"},
      {"Spawn",
       pack(SpawnMsg{5, 2, "child", -1, bytes_of({0xAA}),
                     {req, {12, 0, 4, 1}}}),
       "05000000000000000200000000000000050000006368696c64ffffffffffffffff0100"
       "0000aa020000000b000000000000000102000c00000000000000000401"},
      {"WithContItem", pack(retire), "040000000000000000000201020000000506"},
      {"WithContItem/elided", pack(convert), "080000000000000002000000"},
      {"WithCont", pack(WithContMsg{77, {retire, convert}}),
       "4d00000000000000020000000400000000000000000002010200000005060800000000"
       "00000002000000"},
      {"WithContAck",
       pack(WithContAckMsg{77, true, ErrorCode::kGeneric, "", {shipped}}),
       "4d00000000000000010000000000010000000500000000000000030404000000000000"
       "00010400000001020304"},
      {"WithContAck/refused",
       pack(WithContAckMsg{78, false, ErrorCode::kSpecUpdate, "no", {}}),
       "4e000000000000000002020000006e6f00000000"},
      {"Acquire", pack(AcquireMsg{44, 45, 6}),
       "2c000000000000002d0000000000000006"},
      {"AcquireAck",
       pack(AcquireAckMsg{13, 21, true, ErrorCode::kGeneric, "", true,
                          bytes_of({1, 1, 2})}),
       "0d0000000000000015000000000000000100000000000103000000010102"},
      {"AcquireAck/refused",
       pack(AcquireAckMsg{13, 22, false, ErrorCode::kUnrecoverable,
                          "run aborted", false, {}}),
       "0d00000000000000160000000000000000060b00000072756e2061626f7274656400"},
      {"Done",
       pack(DoneMsg{99, 2.5, {{31, bytes_of({1})}, {32, bytes_of({2, 3})}}}),
       "63000000000000000000000000000440020000001f0000000000000001000000012000"
       "000000000000020000000203"},
      {"TaskError", pack(TaskErrorMsg{6, ErrorCode::kUndeclaredAccess, "bad"}),
       "06000000000000000103000000626164"},
      {"Heartbeat", pack(HeartbeatMsg{2, 9}),
       "02000000000000000900000000000000"},
      {"ObjFetch", pack(ObjFetchMsg{55}), "3700000000000000"},
      {"ObjData", pack(ObjDataMsg{55, bytes_of({4, 5, 6})}),
       "370000000000000003000000040506"},
      {"Shutdown", pack(ShutdownMsg{}), ""},
      {"Retire frame",
       encode_frame(FrameType::kRetire, pack(WithContMsg{77, {retire}})),
       "314c434a010f00001e0000004d0000000000000001000000040000000000000000"
       "000201020000000506"},
  };
  EXPECT_EQ(kMaxFrameType, 15);
  for (const auto& c : cases) EXPECT_EQ(hex(c.bytes), c.want) << c.name;
}

// --- hostile input ----------------------------------------------------------

TEST(ClusterMessages, OutOfRangeSignedFieldsAreProtocolError) {
  // A Spawn whose body and placement exceed int32: a bare narrowing cast
  // would read body 2^32 + 1 as 1 and placement 2^32 as 0, both of which
  // pass the coordinator's range checks.
  const auto spawn = [](std::int64_t body, std::int64_t placement) {
    WireWriter w;
    w.put_u64(5);           // parent
    w.put_i64(body);
    w.put_string("child");  // name
    w.put_i64(placement);
    w.put_bytes({});        // args
    w.put_u32(0);           // requests
    return w.take();
  };
  constexpr std::int64_t k2To32 = std::int64_t{1} << 32;
  EXPECT_THROW(unpack<SpawnMsg>(spawn(k2To32 + 1, k2To32)), ProtocolError);
  EXPECT_THROW(unpack<SpawnMsg>(spawn(1, k2To32)), ProtocolError);
  EXPECT_THROW(unpack<SpawnMsg>(spawn(k2To32 + 1, 0)), ProtocolError);
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  EXPECT_THROW(unpack<SpawnMsg>(spawn(kMin - 1, 0)), ProtocolError);
  EXPECT_THROW(unpack<SpawnMsg>(spawn(0, kMax + 1)), ProtocolError);
  const SpawnMsg edge = unpack<SpawnMsg>(spawn(kMax, kMin));
  EXPECT_EQ(edge.body, kMax);
  EXPECT_EQ(edge.placement, kMin);

  // Every other narrowed field goes through the same check.
  WireWriter hb;
  hb.put_i64(std::numeric_limits<std::int64_t>::min());  // machine
  hb.put_u64(1);                                          // seq
  EXPECT_THROW(unpack<HeartbeatMsg>(hb.take()), ProtocolError);
  WireWriter act;
  act.put_i64(0);          // machine
  act.put_i64(k2To32 + 4);  // machines
  act.put_f64(0.025);
  EXPECT_THROW(unpack<ActivateMsg>(act.take()), ProtocolError);
}

TEST(ClusterMessages, TruncationIsProtocolError) {
  // Every prefix of a valid encoding must decode cleanly to ProtocolError:
  // a worker can die mid-write and the bytes may still arrive framed.
  DispatchMsg m;
  m.task = 1;
  m.body = 0;
  m.name = "t";
  m.args = bytes_of({1, 2, 3});
  ObjectShip s;
  s.obj = 2;
  s.immediate = 3;
  s.bytes = 8;
  s.has_payload = true;
  s.payload = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  m.objects = {s};
  const std::vector<std::byte> full = pack(m);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::byte> prefix(full.begin(),
                                        full.begin() + static_cast<long>(cut));
    EXPECT_THROW(unpack<DispatchMsg>(prefix), ProtocolError)
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ClusterMessages, TrailingBytesAreProtocolError) {
  std::vector<std::byte> buf = pack(HeartbeatMsg{2, 9});
  buf.push_back(std::byte{0});
  EXPECT_THROW(unpack<HeartbeatMsg>(buf), ProtocolError);
}

TEST(ClusterMessages, RandomGarbageNeverEscapesProtocolError) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> junk(rng() % 64);
    for (auto& b : junk) b = static_cast<std::byte>(rng() & 0xFF);
    try {
      (void)unpack<WithContMsg>(junk);  // may succeed by chance; fine
    } catch (const ProtocolError&) {
      // expected failure mode
    }
    // Any other exception type escapes the try and fails the test.
  }
}

TEST(ClusterMessages, HugeLengthPrefixRejectedWithoutAllocating) {
  // A garbage count field must not trigger a giant reserve: decode hits
  // truncation before materializing elements.
  WireWriter w;
  w.put_u64(1);                // task
  w.put_u32(0xFFFFFFFF);       // item count: absurd
  const std::vector<std::byte> buf = w.take();
  EXPECT_THROW(unpack<WithContMsg>(buf), ProtocolError);
}

// --- error taxonomy ---------------------------------------------------------

TEST(ClusterErrors, ClassifyAndRethrowAreInverse) {
  const auto check = [](const std::exception& e, ErrorCode expect) {
    const ErrorCode code = classify_error(e);
    EXPECT_EQ(code, expect);
    try {
      rethrow_error(code, e.what());
      FAIL() << "rethrow_error returned";
    } catch (const std::exception& back) {
      EXPECT_EQ(classify_error(back), expect);
      EXPECT_STREQ(back.what(), e.what());
    }
  };
  check(UndeclaredAccessError("u"), ErrorCode::kUndeclaredAccess);
  check(SpecUpdateError("s"), ErrorCode::kSpecUpdate);
  check(HierarchyViolationError("h"), ErrorCode::kHierarchy);
  check(TenantIsolationError("t"), ErrorCode::kTenantIsolation);
  check(ConfigError("c"), ErrorCode::kConfig);
  check(UnrecoverableError("r"), ErrorCode::kUnrecoverable);
  check(ProtocolError("p"), ErrorCode::kProtocol);
  check(InternalError("i"), ErrorCode::kInternal);
  check(std::runtime_error("foreign"), ErrorCode::kGeneric);
}

}  // namespace
}  // namespace jade::cluster
