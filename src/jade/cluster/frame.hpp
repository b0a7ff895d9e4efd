// Cluster wire protocol: framing and message types.
//
// Every message on a coordinator<->worker link travels as one frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic     0x4A434C31 ("JCL1", little-endian u32)
//        4     1  version   kFrameVersion
//        5     1  type      FrameType
//        6     2  reserved  must be zero
//        8     4  payload length (bytes; <= kMaxPayload)
//       12     n  payload   message encoded with WireWriter
//
// The payload encodings reuse the canonical little-endian WireWriter /
// WireReader format the simulated transport already speaks (types/wire.hpp).
// Decoding is defensive: a frame from a crashing worker may be garbage, so
// every decode failure — bad magic, unknown version or type, truncated or
// oversized payload, out-of-range field, trailing bytes — surfaces as
// ProtocolError, never UB.
// (WireReader itself throws InternalError on truncation because in-process
// messages are runtime-generated; unpack() translates, because these bytes
// crossed a process boundary.)
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "jade/core/object.hpp"
#include "jade/support/error.hpp"
#include "jade/support/time.hpp"
#include "jade/types/wire.hpp"

namespace jade::cluster {

inline constexpr std::uint32_t kFrameMagic = 0x4A434C31;  // "1LCJ" on the wire
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Payload ceiling: large enough for any object payload batch we ship,
/// small enough that a garbage length field cannot trigger a huge alloc.
inline constexpr std::uint32_t kMaxPayload = 1u << 30;

enum class FrameType : std::uint8_t {
  kHello = 1,       ///< worker -> coordinator: first frame after fork
  kActivate = 2,    ///< coordinator -> worker: you are machine m of n
  kDispatch = 3,    ///< coordinator -> worker: run this task
  kSpawn = 4,       ///< worker -> coordinator: task created a child
  kWithCont = 5,    ///< worker -> coordinator: with_cont spec update
  kWithContAck = 6, ///< coordinator -> worker: conversion granted / failed
  kAcquire = 7,     ///< worker -> coordinator: accessor acquisition
  kAcquireAck = 8,  ///< coordinator -> worker: acquisition granted / failed
  kDone = 9,        ///< worker -> coordinator: task finished, with writebacks
  kTaskError = 10,  ///< worker -> coordinator: task body threw
  kHeartbeat = 11,  ///< worker -> coordinator: liveness
  kObjFetch = 12,   ///< coordinator -> worker: send me your copy of obj
  kObjData = 13,    ///< worker -> coordinator: reply to kObjFetch
  kShutdown = 14,   ///< coordinator -> worker: exit cleanly
  kRetire = 15,     ///< worker -> coordinator: one-way with_cont that only
                    ///< retires held rights (WithContMsg payload, no ack)
};
inline constexpr std::uint8_t kMaxFrameType = 15;

/// One decoded frame.
struct Frame {
  FrameType type;
  std::vector<std::byte> payload;
};

/// Encodes a frame header + payload into one contiguous buffer.
std::vector<std::byte> encode_frame(FrameType type,
                                    std::vector<std::byte> payload);

/// Validates a frame header (first kFrameHeaderBytes of `buf`); returns the
/// payload length.  Throws ProtocolError on any malformation.
std::uint32_t decode_frame_header(const std::byte* buf, FrameType& type);

// --- message payloads ------------------------------------------------------
// Every message states its layout once, as `static void fields(f, m)`
// naming its members in wire order.  pack()/unpack() below walk that list
// with one encoder and one decoder, so the two directions cannot drift:
//
//   signed integer  i64 (decode rejects values outside the member's type)
//   uint8 / uint64  u8 / u64          bool, enum   u8
//   double          f64               string       u32 length + bytes
//   byte vector     u32 length + bytes
//   other vector    u32 count + each element's own fields
//   nested message  its own fields, inline
//
// A member behind `if (m.has_payload)` is present only when the flag
// before it is set.  unpack() also requires the payload to be fully
// consumed.

/// Error taxonomy carried across the process boundary: the worker cannot
/// ship an exception object, so acks carry a code + message and the peer
/// re-throws the matching jade error type.
enum class ErrorCode : std::uint8_t {
  kGeneric = 0,
  kUndeclaredAccess = 1,
  kSpecUpdate = 2,
  kHierarchy = 3,
  kTenantIsolation = 4,
  kConfig = 5,
  kUnrecoverable = 6,
  kInternal = 7,
  kProtocol = 8,
};

/// Maps a caught jade exception to its wire code (kGeneric for foreign
/// exceptions).
ErrorCode classify_error(const std::exception& e);

/// Re-throws the jade error type matching `code` with `what`.
[[noreturn]] void rethrow_error(ErrorCode code, const std::string& what);

struct HelloMsg {
  std::int64_t pid = 0;
  static void fields(auto& f, auto& m) { f(m.pid); }
};

struct ActivateMsg {
  MachineId machine = -1;
  std::int32_t machines = 0;  ///< cluster size (active workers)
  double heartbeat_interval = 0.025;  ///< wall seconds between heartbeats
  static void fields(auto& f, auto& m) {
    f(m.machine, m.machines, m.heartbeat_interval);
  }
};

/// One object's rights + (optionally) its current payload, as shipped with
/// a dispatch or a with-cont/acquire grant.
struct ObjectShip {
  ObjectId obj = kInvalidObject;
  std::uint8_t immediate = 0;
  std::uint8_t deferred = 0;
  std::uint64_t bytes = 0;  ///< object size (payload may be elided)
  bool has_payload = false;
  std::vector<std::byte> payload;
  static void fields(auto& f, auto& m) {
    f(m.obj, m.immediate, m.deferred, m.bytes, m.has_payload);
    if (m.has_payload) f(m.payload);
  }
};

struct DispatchMsg {
  std::uint64_t task = 0;
  std::int32_t body = -1;  ///< BodyRegistry index
  std::string name;
  std::vector<std::byte> args;
  std::vector<ObjectShip> objects;
  static void fields(auto& f, auto& m) {
    f(m.task, m.body, m.name, m.args, m.objects);
  }
};

/// One object's requested rights in a spawn or with-cont.
struct ReqMsg {
  ObjectId obj = kInvalidObject;
  std::uint8_t add_immediate = 0;
  std::uint8_t add_deferred = 0;
  std::uint8_t remove = 0;
  static void fields(auto& f, auto& m) {
    f(m.obj, m.add_immediate, m.add_deferred, m.remove);
  }
};

struct SpawnMsg {
  std::uint64_t parent = 0;
  std::int32_t body = -1;
  std::string name;
  MachineId placement = -1;
  std::vector<std::byte> args;
  std::vector<ReqMsg> requests;
  static void fields(auto& f, auto& m) {
    f(m.parent, m.body, m.name, m.placement, m.args, m.requests);
  }
};

/// A with-cont request; retire requests for objects the worker dirtied
/// carry the final bytes back (the coordinator's canonical copy must be
/// current before successors read it).
struct WithContItem {
  ReqMsg req;
  bool has_payload = false;
  std::vector<std::byte> payload;
  static void fields(auto& f, auto& m) {
    f(m.req, m.has_payload);
    if (m.has_payload) f(m.payload);
  }
};

/// Payload of both kWithCont and kRetire.
struct WithContMsg {
  std::uint64_t task = 0;
  std::vector<WithContItem> items;
  static void fields(auto& f, auto& m) { f(m.task, m.items); }
};

struct WithContAckMsg {
  std::uint64_t task = 0;
  bool ok = true;
  ErrorCode error_code = ErrorCode::kGeneric;
  std::string error;
  std::vector<ObjectShip> objects;  ///< post-conversion rights (+ payloads)
  static void fields(auto& f, auto& m) {
    f(m.task, m.ok, m.error_code, m.error, m.objects);
  }
};

struct AcquireMsg {
  std::uint64_t task = 0;
  ObjectId obj = kInvalidObject;
  std::uint8_t mode = 0;
  static void fields(auto& f, auto& m) { f(m.task, m.obj, m.mode); }
};

struct AcquireAckMsg {
  std::uint64_t task = 0;
  ObjectId obj = kInvalidObject;
  bool ok = true;
  ErrorCode error_code = ErrorCode::kGeneric;
  std::string error;
  bool has_payload = false;
  std::vector<std::byte> payload;
  static void fields(auto& f, auto& m) {
    f(m.task, m.obj, m.ok, m.error_code, m.error, m.has_payload);
    if (m.has_payload) f(m.payload);
  }
};

/// Task completion: final bytes of every object the task still holds write
/// rights on (objects retired early shipped their bytes with the with-cont).
struct DoneMsg {
  struct Write {
    ObjectId obj = kInvalidObject;
    std::vector<std::byte> payload;
    static void fields(auto& f, auto& m) { f(m.obj, m.payload); }
  };
  std::uint64_t task = 0;
  double charged = 0;
  std::vector<Write> writes;
  static void fields(auto& f, auto& m) { f(m.task, m.charged, m.writes); }
};

struct TaskErrorMsg {
  std::uint64_t task = 0;
  ErrorCode code = ErrorCode::kGeneric;
  std::string what;
  static void fields(auto& f, auto& m) { f(m.task, m.code, m.what); }
};

struct HeartbeatMsg {
  MachineId machine = -1;
  std::uint64_t seq = 0;
  static void fields(auto& f, auto& m) { f(m.machine, m.seq); }
};

struct ObjFetchMsg {
  ObjectId obj = kInvalidObject;
  static void fields(auto& f, auto& m) { f(m.obj); }
};

struct ObjDataMsg {
  ObjectId obj = kInvalidObject;
  std::vector<std::byte> payload;
  static void fields(auto& f, auto& m) { f(m.obj, m.payload); }
};

struct ShutdownMsg {
  static void fields(auto&, auto&) {}
};

namespace detail {

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// The one encoder: writes each field of a message's list in order.
class FieldWriter {
 public:
  template <typename... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }
  std::vector<std::byte> take() { return w_.take(); }

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.put_u8(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "wire enums are one byte");
      w_.put_u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      w_.put_u8(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      w_.put_u64(v);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      w_.put_i64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      w_.put_f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.put_string(v);
    } else if constexpr (std::is_same_v<T, std::vector<std::byte>>) {
      w_.put_bytes(v);
    } else if constexpr (kIsVector<T>) {
      w_.put_u32(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) put(e);
    } else {
      T::fields(*this, v);
    }
  }

  WireWriter w_;
};

/// The one decoder, mirroring FieldWriter.  Truncation surfaces as the
/// WireReader's InternalError, which unpack() translates.
class FieldReader {
 public:
  explicit FieldReader(std::span<const std::byte> data) : r_(data) {}

  template <typename... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  std::size_t remaining() const { return r_.remaining(); }

 private:
  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.get_u8() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(r_.get_u8());
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      v = r_.get_u8();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      v = r_.get_u64();
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      const std::int64_t x = r_.get_i64();
      if (x < std::numeric_limits<T>::min() ||
          x > std::numeric_limits<T>::max())
        throw ProtocolError("cluster message field value " +
                            std::to_string(x) + " is out of range");
      v = static_cast<T>(x);
    } else if constexpr (std::is_same_v<T, double>) {
      v = r_.get_f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r_.get_string();
    } else if constexpr (std::is_same_v<T, std::vector<std::byte>>) {
      v = r_.get_bytes();
    } else if constexpr (kIsVector<T>) {
      // Every element takes at least one byte, so an honest count never
      // exceeds what is left: a garbage count fails here, before reserve().
      const std::uint32_t n = r_.get_u32();
      if (n > r_.remaining())
        throw ProtocolError("cluster message count " + std::to_string(n) +
                            " exceeds remaining payload");
      v.clear();
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) get(v.emplace_back());
    } else {
      T::fields(*this, v);
    }
  }

  WireReader r_;
};

}  // namespace detail

/// Encodes a message into a payload buffer.
template <typename M>
std::vector<std::byte> pack(const M& msg) {
  detail::FieldWriter w;
  M::fields(w, msg);
  return w.take();
}

/// Decodes a message from a frame payload.  Truncation, out-of-range
/// fields and trailing garbage all raise ProtocolError: a frame must
/// contain exactly one well-formed message.
template <typename M>
M unpack(const std::vector<std::byte>& payload) {
  detail::FieldReader r(payload);
  M msg;
  try {
    M::fields(r, msg);
  } catch (const InternalError& e) {
    throw ProtocolError(std::string("malformed cluster message: ") + e.what());
  }
  if (r.remaining() != 0)
    throw ProtocolError("cluster message has " +
                        std::to_string(r.remaining()) + " trailing bytes");
  return msg;
}

}  // namespace jade::cluster
