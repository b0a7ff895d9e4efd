#include "jade/store/coherence.hpp"

#include <algorithm>
#include <map>

#include "jade/support/log.hpp"
#include "jade/types/wire.hpp"

namespace jade {

namespace {
/// Runtime control-message kinds on the simulated wire.
enum class MsgKind : std::uint8_t {
  kObjectRequest = 1,   ///< please send object X (move or copy)
  kObjectData = 2,      ///< header preceding an object payload
  kInvalidate = 3,      ///< drop your replica of object X
  kObjectGrant = 4,     ///< access granted, no payload: the requester's
                        ///< replica is current (revalidation / upgrade)
};

/// Encodes a control message exactly as the transport would (the typed
/// PVM-style protocol of Section 7); its wire size is what the network
/// model is charged with.  A floor models transport framing minima.
std::size_t control_message_size(MsgKind kind, ObjectId obj, MachineId from,
                                 MachineId to, std::uint64_t payload,
                                 std::size_t floor) {
  WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(kind));
  w.put_u64(obj);
  w.put_u32(static_cast<std::uint32_t>(from));
  w.put_u32(static_cast<std::uint32_t>(to));
  w.put_u64(payload);
  return std::max(w.size(), floor);
}

/// A combined request for several objects held by one owner: one header,
/// then the object-id list.
std::size_t batch_request_size(std::span<const ObjectId> objs,
                               MachineId requester, MachineId owner,
                               std::size_t floor) {
  WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgKind::kObjectRequest));
  w.put_u32(static_cast<std::uint32_t>(objs.size()));
  w.put_u32(static_cast<std::uint32_t>(requester));
  w.put_u32(static_cast<std::uint32_t>(owner));
  for (ObjectId o : objs) w.put_u64(o);
  return std::max(w.size(), floor);
}

/// A coalesced invalidation: one control message naming every holder that
/// must drop its replica (the topology fans it out as a multicast).
std::size_t invalidate_message_size(ObjectId obj, MachineId from,
                                    std::span<const MachineId> targets,
                                    std::size_t floor) {
  WireWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgKind::kInvalidate));
  w.put_u64(obj);
  w.put_u32(static_cast<std::uint32_t>(from));
  w.put_u32(static_cast<std::uint32_t>(targets.size()));
  for (MachineId t : targets) w.put_u32(static_cast<std::uint32_t>(t));
  return std::max(w.size(), floor);
}
}  // namespace

CoherenceProtocol::CoherenceProtocol(CoherenceTransport& transport,
                                     ObjectDirectory& directory,
                                     const ObjectTable& objects,
                                     std::vector<Endian> endians,
                                     CoherenceConfig config,
                                     RuntimeStats& stats, obs::Tracer* tracer)
    : transport_(transport),
      directory_(directory),
      objects_(objects),
      endians_(std::move(endians)),
      config_(config),
      stats_(stats),
      tracer_(tracer) {}

SimTime CoherenceProtocol::available_at(ObjectId obj, MachineId m) const {
  auto it = available_at_.find(ObjectMachineKey{obj, m});
  return it == available_at_.end() ? 0 : it->second;
}

void CoherenceProtocol::set_available_at(ObjectId obj, MachineId m,
                                         SimTime at) {
  available_at_[ObjectMachineKey{obj, m}] = at;
}

void CoherenceProtocol::forget_machine(MachineId m) {
  for (auto it = available_at_.begin(); it != available_at_.end();) {
    if (it->first.machine == m)
      it = available_at_.erase(it);
    else
      ++it;
  }
}

SimTime CoherenceProtocol::conversion_cost(ObjectId obj, MachineId src,
                                           MachineId dst) {
  // Heterogeneous format conversion: when the byte orders differ we really
  // run the per-scalar conversion (twice: sender->wire, wire->receiver; the
  // two swaps compose to the identity on the host's canonical buffer, but
  // the work and the code path are real) and charge its time.  The sender
  // caches the converted image per data version, so repeated cross-endian
  // transfers of clean data convert once.
  const ObjectInfo& info = objects_.info(obj);
  const Endian se = endians_[static_cast<std::size_t>(src)];
  const Endian de = endians_[static_cast<std::size_t>(dst)];
  if (se == de || info.type.order_invariant()) return 0;
  if (config_.optimized_comm) {
    auto it = converted_cache_.find(obj);
    if (it != converted_cache_.end() &&
        it->second == directory_.data_version(obj)) {
      ++stats_.conversions_cached;
      return 0;
    }
  }
  std::span<std::byte> data{directory_.data(obj), info.byte_size()};
  const std::size_t n = convert_representation(data, info.type,
                                               Endian::kLittle, Endian::kBig);
  convert_representation(data, info.type, Endian::kBig, Endian::kLittle);
  stats_.scalars_converted += n;
  if (config_.optimized_comm)
    converted_cache_[obj] = directory_.data_version(obj);
  return static_cast<SimTime>(n) * config_.conversion_seconds_per_scalar;
}

void CoherenceProtocol::send_invalidations(ObjectId obj, MachineId from,
                                           const std::vector<MachineId>&
                                               targets,
                                           SimTime now) {
  // Fire-and-forget — the serializer already guarantees no earlier reader
  // is still active on any target.
  if (targets.empty()) return;
  stats_.invalidations += targets.size();
  if (config_.optimized_comm && targets.size() > 1) {
    const std::size_t bytes = invalidate_message_size(
        obj, from, targets, config_.control_message_bytes);
    transport_.multicast(from, targets, bytes, now);
    stats_.messages += 1;
    stats_.bytes_sent += bytes;
    stats_.invalidations_coalesced += targets.size() - 1;
    std::size_t naive = 0;
    for (MachineId h : targets)
      naive += control_message_size(MsgKind::kInvalidate, obj, from, h, 0,
                                    config_.control_message_bytes);
    if (naive > bytes) stats_.bytes_avoided += naive - bytes;
  } else {
    for (MachineId h : targets) {
      const std::size_t bytes =
          control_message_size(MsgKind::kInvalidate, obj, from, h, 0,
                               config_.control_message_bytes);
      transport_.unicast(from, h, bytes, now);
      ++stats_.messages;
      stats_.bytes_sent += bytes;
    }
  }
}

void CoherenceProtocol::first_write_invalidate(MachineId writer, ObjectId obj,
                                               std::vector<ObjectId>&
                                                   dirtied) {
  std::vector<MachineId> dropped;
  if (!directory_.sole_holder(obj, writer)) {
    // Replicas appeared between the exclusive transfer and this write
    // (another task's deferred-read prefetch raced in); drop them before
    // the write makes them stale.
    dropped = directory_.invalidate_replicas(obj);
  }
  const bool first =
      std::find(dirtied.begin(), dirtied.end(), obj) == dirtied.end();
  if (first) {
    directory_.mark_dirty(obj);
    dirtied.push_back(obj);
  } else if (!dropped.empty()) {
    // A replica copied between two of this attempt's writes holds a torn
    // image; advance the version again so it can never revalidate.
    directory_.mark_dirty(obj);
  }
  send_invalidations(obj, writer, dropped, transport_.now());
}

SimTime CoherenceProtocol::transfer(ObjectId obj, MachineId to,
                                    bool exclusive) {
  const SimTime now = transport_.now();
  const ObjectInfo& info = objects_.info(obj);
  const MachineId from = directory_.owner(obj);
  // The object travels behind a data header; requests, grants, and
  // invalidations are standalone control messages.
  const std::size_t payload =
      info.byte_size() +
      control_message_size(MsgKind::kObjectData, obj, from, to,
                           info.byte_size(), config_.control_message_bytes);
  const std::size_t request_bytes =
      control_message_size(MsgKind::kObjectRequest, obj, to, from, 0,
                           config_.control_message_bytes);
  const std::size_t grant_bytes =
      control_message_size(MsgKind::kObjectGrant, obj, from, to, 0,
                           config_.control_message_bytes);

  if (!exclusive) {
    if (directory_.present(obj, to)) {
      const SimTime avail = available_at(obj, to);
      // An earlier request's payload is still in flight; this reader shares
      // it instead of issuing its own.
      if (avail > now) ++stats_.requests_combined;
      return std::max(now, avail);
    }
    if (config_.optimized_comm && directory_.reusable(obj, to)) {
      // Revalidation: the dropped replica still matches the current data
      // version, so a control round-trip re-admits it — no payload.
      const SimTime req_arr = transport_.unicast(to, from, request_bytes, now);
      const SimTime grant_arr =
          transport_.unicast(from, to, grant_bytes, req_arr);
      stats_.messages += 2;
      stats_.bytes_sent += request_bytes + grant_bytes;
      ++stats_.replicas_reused;
      stats_.bytes_avoided += info.byte_size();
      if (tracing()) {
        tracer_->span_begin_at(now, obs::Subsystem::kStore, "store.fetch",
                               obj, from, "revalidate " + info.name);
        tracer_->span_end_at(grant_arr, obs::Subsystem::kStore, "store.fetch",
                             obj, to, static_cast<double>(info.byte_size()));
      }
      directory_.revalidate_to(obj, to);
      set_available_at(obj, to, grant_arr);
      JADE_TRACE("t=" << now << " revalidate " << info.name << " on " << to
                      << " granted t=" << grant_arr);
      return grant_arr;
    }
    // Copy: request to the owner, data back; the owner keeps its version so
    // machines read concurrently (object replication, Section 5).
    const SimTime req_arr = transport_.unicast(to, from, request_bytes, now);
    SimTime data_arr = transport_.unicast(from, to, payload, req_arr);
    stats_.messages += 2;
    stats_.bytes_sent += request_bytes + payload;
    stats_.payload_bytes += info.byte_size();
    data_arr += conversion_cost(obj, from, to);
    if (tracing()) {
      tracer_->span_begin_at(now, obs::Subsystem::kStore, "store.fetch", obj,
                             from, "copy " + info.name);
      tracer_->span_end_at(data_arr, obs::Subsystem::kStore, "store.fetch",
                           obj, to, static_cast<double>(info.byte_size()));
    }
    directory_.replicate_to(obj, to);
    ++stats_.object_copies;
    set_available_at(obj, to, data_arr);
    JADE_TRACE("t=" << now << " copy " << info.name << " " << from << "->"
                    << to << " arrives t=" << data_arr);
    return data_arr;
  }

  // Exclusive (write/commute) access: the object *moves*; every other copy
  // is deallocated (Figure 7(c)).
  SimTime avail = std::max(now, available_at(obj, to));
  if (from != to) {
    if (config_.optimized_comm &&
        (directory_.present(obj, to) || directory_.reusable(obj, to))) {
      // Upgrade in place: the destination already holds (or can revalidate)
      // the current bytes, so only ownership travels — request and grant,
      // no payload move.
      const SimTime req_arr = transport_.unicast(to, from, request_bytes, now);
      const SimTime grant_arr =
          transport_.unicast(from, to, grant_bytes, req_arr);
      stats_.messages += 2;
      stats_.bytes_sent += request_bytes + grant_bytes;
      ++stats_.replicas_reused;
      stats_.bytes_avoided += info.byte_size();
      if (!directory_.present(obj, to)) directory_.revalidate_to(obj, to);
      avail = std::max(avail, grant_arr);
      if (tracing()) {
        tracer_->span_begin_at(now, obs::Subsystem::kStore, "store.fetch",
                               obj, from, "upgrade " + info.name);
        tracer_->span_end_at(avail, obs::Subsystem::kStore, "store.fetch",
                             obj, to, static_cast<double>(info.byte_size()));
      }
      JADE_TRACE("t=" << now << " upgrade " << info.name << " in place on "
                      << to << " granted t=" << grant_arr);
    } else {
      const SimTime req_arr = transport_.unicast(to, from, request_bytes, now);
      SimTime data_arr = transport_.unicast(from, to, payload, req_arr);
      stats_.messages += 2;
      stats_.bytes_sent += request_bytes + payload;
      stats_.payload_bytes += info.byte_size();
      data_arr += conversion_cost(obj, from, to);
      avail = data_arr;
      ++stats_.object_moves;
      if (tracing()) {
        tracer_->span_begin_at(now, obs::Subsystem::kStore, "store.fetch",
                               obj, from, "move " + info.name);
        tracer_->span_end_at(data_arr, obs::Subsystem::kStore, "store.fetch",
                             obj, to, static_cast<double>(info.byte_size()));
      }
      JADE_TRACE("t=" << now << " move " << info.name << " " << from << "->"
                      << to << " arrives t=" << data_arr);
    }
  }
  std::vector<MachineId> targets;
  for (MachineId h : directory_.holders(obj))
    if (h != to && h != from) targets.push_back(h);
  send_invalidations(obj, from, targets, now);
  directory_.move_to(obj, to);
  set_available_at(obj, to, avail);
  return avail;
}

SimTime CoherenceProtocol::fetch(MachineId to, std::vector<FetchItem> items) {
  // The whole fetch is synchronous (scheduling only; no time passes), so
  // the classification below cannot be invalidated by a concurrent event.
  SimTime ready = transport_.now();
  if (items.empty()) return ready;

  if (!config_.optimized_comm) {
    for (const FetchItem& item : items) {
      const SimTime at = transfer(item.obj, to, item.exclusive);
      if (item.blocking) ready = std::max(ready, at);
    }
    return ready;
  }

  // Group the items that need a round-trip to a remote owner; everything
  // else (already present for a read, or owned here) resolves locally.
  // std::map keys the batches in machine order — deterministic.
  std::map<MachineId, std::vector<FetchItem>> batches;
  for (const FetchItem& item : items) {
    const MachineId from = directory_.owner(item.obj);
    const bool local =
        from == to || (!item.exclusive && directory_.present(item.obj, to));
    if (local) {
      const SimTime at = transfer(item.obj, to, item.exclusive);
      if (item.blocking) ready = std::max(ready, at);
    } else {
      batches[from].push_back(item);
    }
  }

  for (auto& [from, batch] : batches) {
    SimTime at;
    if (batch.size() == 1) {
      at = transfer(batch.front().obj, to, batch.front().exclusive);
    } else {
      at = fetch_batch(to, from, batch);
    }
    for (const FetchItem& item : batch)
      if (item.blocking) ready = std::max(ready, at);
  }
  return ready;
}

SimTime CoherenceProtocol::fetch_batch(MachineId to, MachineId from,
                                       const std::vector<FetchItem>& batch) {
  const SimTime now = transport_.now();
  const std::size_t floor = config_.control_message_bytes;

  // Classify each item once: a reusable (or, for an upgrade, present)
  // replica is served by the grant alone; the rest ride the reply payload.
  std::vector<ObjectId> objs;
  std::vector<bool> reuse;
  std::size_t total_payload = 0;
  std::size_t naive_control = 0;
  objs.reserve(batch.size());
  reuse.reserve(batch.size());
  for (const FetchItem& item : batch) {
    const ObjectInfo& info = objects_.info(item.obj);
    objs.push_back(item.obj);
    const bool r =
        config_.optimized_comm &&
        (directory_.reusable(item.obj, to) ||
         (item.exclusive && directory_.present(item.obj, to)));
    reuse.push_back(r);
    if (!r) total_payload += info.byte_size();
    // What the per-object protocol would have spent on control traffic.
    naive_control +=
        control_message_size(MsgKind::kObjectRequest, item.obj, to, from, 0,
                             floor) +
        control_message_size(MsgKind::kObjectData, item.obj, from, to,
                             info.byte_size(), floor);
  }

  const std::size_t request_bytes = batch_request_size(objs, to, from, floor);
  const std::size_t reply_header = control_message_size(
      total_payload == 0 ? MsgKind::kObjectGrant : MsgKind::kObjectData,
      objs.front(), from, to, total_payload, floor);
  const std::size_t reply_bytes = reply_header + total_payload;

  const SimTime req_arr = transport_.unicast(to, from, request_bytes, now);
  SimTime data_arr = transport_.unicast(from, to, reply_bytes, req_arr);
  stats_.messages += 2;
  stats_.bytes_sent += request_bytes + reply_bytes;
  stats_.payload_bytes += total_payload;
  stats_.requests_combined += batch.size() - 1;
  const std::size_t batched_control = request_bytes + reply_header;
  if (naive_control > batched_control)
    stats_.bytes_avoided += naive_control - batched_control;

  // The sender converts every payload-carrying member before the reply
  // goes out; the conversions serialize into the batch's arrival.
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (!reuse[i]) data_arr += conversion_cost(batch[i].obj, from, to);

  SimTime last = data_arr;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const FetchItem& item = batch[i];
    const ObjectInfo& info = objects_.info(item.obj);
    const char* verb = item.exclusive ? (reuse[i] ? "upgrade " : "move ")
                                      : (reuse[i] ? "revalidate " : "copy ");
    if (tracing()) {
      tracer_->span_begin_at(now, obs::Subsystem::kStore, "store.fetch",
                             item.obj, from, verb + info.name);
      tracer_->span_end_at(data_arr, obs::Subsystem::kStore, "store.fetch",
                           item.obj, to,
                           static_cast<double>(info.byte_size()));
    }
    // A payload already in flight to this machine may arrive after the
    // batch's grant; the object is usable only once both have landed.
    const SimTime avail = std::max(data_arr, available_at(item.obj, to));
    if (!item.exclusive) {
      if (reuse[i]) {
        directory_.revalidate_to(item.obj, to);
        ++stats_.replicas_reused;
        stats_.bytes_avoided += info.byte_size();
      } else {
        directory_.replicate_to(item.obj, to);
        ++stats_.object_copies;
      }
    } else {
      if (reuse[i]) {
        if (!directory_.present(item.obj, to))
          directory_.revalidate_to(item.obj, to);
        ++stats_.replicas_reused;
        stats_.bytes_avoided += info.byte_size();
      } else {
        ++stats_.object_moves;
      }
      std::vector<MachineId> targets;
      for (MachineId h : directory_.holders(item.obj))
        if (h != to && h != from) targets.push_back(h);
      send_invalidations(item.obj, from, targets, now);
      directory_.move_to(item.obj, to);
    }
    set_available_at(item.obj, to, avail);
    last = std::max(last, avail);
    JADE_TRACE("t=" << now << " batch " << verb << info.name << " " << from
                    << "->" << to << " arrives t=" << avail);
  }
  return last;
}

}  // namespace jade
