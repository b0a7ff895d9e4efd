#include "jade/cluster/frame.hpp"

namespace jade::cluster {

std::vector<std::byte> encode_frame(FrameType type,
                                    std::vector<std::byte> payload) {
  JADE_ASSERT_MSG(payload.size() <= kMaxPayload, "frame payload too large");
  WireWriter w;
  w.reserve(kFrameHeaderBytes + payload.size());
  w.put_u32(kFrameMagic);
  w.put_u8(kFrameVersion);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u16(0);  // reserved
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  std::vector<std::byte> out = w.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::uint32_t decode_frame_header(const std::byte* buf, FrameType& type) {
  WireReader r({buf, kFrameHeaderBytes});
  const std::uint32_t magic = r.get_u32();
  if (magic != kFrameMagic)
    throw ProtocolError("bad frame magic 0x" + std::to_string(magic));
  const std::uint8_t version = r.get_u8();
  if (version != kFrameVersion)
    throw ProtocolError("unsupported frame version " +
                        std::to_string(version));
  const std::uint8_t t = r.get_u8();
  if (t < 1 || t > kMaxFrameType)
    throw ProtocolError("unknown frame type " + std::to_string(t));
  const std::uint16_t reserved = r.get_u16();
  if (reserved != 0)
    throw ProtocolError("nonzero reserved field in frame header");
  const std::uint32_t len = r.get_u32();
  if (len > kMaxPayload)
    throw ProtocolError("frame payload length " + std::to_string(len) +
                        " exceeds limit");
  type = static_cast<FrameType>(t);
  return len;
}

ErrorCode classify_error(const std::exception& e) {
  if (dynamic_cast<const UndeclaredAccessError*>(&e))
    return ErrorCode::kUndeclaredAccess;
  if (dynamic_cast<const SpecUpdateError*>(&e)) return ErrorCode::kSpecUpdate;
  if (dynamic_cast<const HierarchyViolationError*>(&e))
    return ErrorCode::kHierarchy;
  if (dynamic_cast<const TenantIsolationError*>(&e))
    return ErrorCode::kTenantIsolation;
  if (dynamic_cast<const ConfigError*>(&e)) return ErrorCode::kConfig;
  if (dynamic_cast<const UnrecoverableError*>(&e))
    return ErrorCode::kUnrecoverable;
  if (dynamic_cast<const ProtocolError*>(&e)) return ErrorCode::kProtocol;
  if (dynamic_cast<const InternalError*>(&e)) return ErrorCode::kInternal;
  return ErrorCode::kGeneric;
}

void rethrow_error(ErrorCode code, const std::string& what) {
  switch (code) {
    case ErrorCode::kUndeclaredAccess:
      throw UndeclaredAccessError(what);
    case ErrorCode::kSpecUpdate:
      throw SpecUpdateError(what);
    case ErrorCode::kHierarchy:
      throw HierarchyViolationError(what);
    case ErrorCode::kTenantIsolation:
      throw TenantIsolationError(what);
    case ErrorCode::kConfig:
      throw ConfigError(what);
    case ErrorCode::kUnrecoverable:
      throw UnrecoverableError(what);
    case ErrorCode::kProtocol:
      throw ProtocolError(what);
    case ErrorCode::kInternal:
      throw InternalError(what);
    case ErrorCode::kGeneric:
      break;
  }
  throw JadeError(what);
}

}  // namespace jade::cluster
