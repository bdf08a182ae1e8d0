#include "wire/tunnel.h"

#include <algorithm>

namespace rnl::wire {

namespace {
constexpr std::uint32_t kMagic = 0x524E4C31;  // "RNL1"
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 2 + 4 + 4 + 4;
}  // namespace

util::Bytes encode_message(const TunnelMessage& message,
                           const util::Bytes* compressed_payload) {
  const util::Bytes& payload =
      compressed_payload != nullptr ? *compressed_payload : message.payload;
  util::ByteWriter w(kHeaderSize + payload.size());
  encode_message_into(w, message.type, message.router_id, message.port_id,
                      payload, compressed_payload != nullptr);
  return std::move(w).take();
}

void encode_message_into(util::ByteWriter& w, MessageType type,
                         RouterId router_id, PortId port_id,
                         util::BytesView payload, bool compressed,
                         std::uint8_t epoch, std::uint64_t trace_id,
                         bool unrecorded) {
  w.u32(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(epoch) << kEpochShift) |
      (compressed ? kFlagCompressed : 0) |
      (trace_id != 0 ? kFlagTraced : 0) |
      (unrecorded ? kFlagUnrecorded : 0)));
  w.u32(router_id);
  w.u32(port_id);
  const std::size_t prefix = trace_id != 0 ? kTraceIdSize : 0;
  w.u32(static_cast<std::uint32_t>(payload.size() + prefix));
  if (trace_id != 0) w.u64(trace_id);
  w.raw(payload);
}

namespace {

struct Header {
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  std::uint32_t router_id = 0;
  std::uint32_t port_id = 0;
  std::uint32_t length = 0;
};

/// Parses and validates the header at the front of `bytes` (at least
/// kHeaderSize long). Returns the framing error, or nullptr.
const char* read_header(util::BytesView bytes, Header& header) {
  util::ByteReader r(bytes);
  const std::uint32_t magic = r.u32();
  const std::uint8_t version = r.u8();
  header.type = r.u8();
  header.flags = r.u16();
  header.router_id = r.u32();
  header.port_id = r.u32();
  header.length = r.u32();
  if (magic != kMagic) return "tunnel: bad magic (stream desynchronized)";
  if (version != kVersion) return "tunnel: unsupported protocol version";
  if (header.type < 1 || header.type > 7) {
    return "tunnel: unknown message type";
  }
  // Reserved flag bits must be zero. A peer setting them is either newer
  // than us (we would misparse its payload — e.g. miss a trace-id prefix)
  // or corrupt; both poison the stream like any other framing error.
  if ((header.flags & 0xFFu & ~kFlagKnownMask) != 0) {
    return "tunnel: reserved flag bits set";
  }
  // Unrecorded names a raw data frame; on anything else it is a lie about
  // ring state the receiver cannot act on.
  if ((header.flags & kFlagUnrecorded) != 0) {
    if ((header.flags & kFlagCompressed) != 0) {
      return "tunnel: compressed frame flagged unrecorded";
    }
    if (header.type != static_cast<std::uint8_t>(MessageType::kData)) {
      return "tunnel: unrecorded flag on a non-data frame";
    }
  }
  if (header.length > MessageDecoder::kMaxPayload) {
    return "tunnel: payload length exceeds maximum";
  }
  if ((header.flags & kFlagTraced) != 0 && header.length < kTraceIdSize) {
    return "tunnel: traced frame shorter than its trace id";
  }
  return nullptr;
}

/// The view of a complete message whose wire payload (trace-id prefix
/// included) is `body`.
MessageDecoder::DecodedView view_of(const Header& header,
                                    util::BytesView body) {
  MessageDecoder::DecodedView view;
  view.type = static_cast<MessageType>(header.type);
  view.router_id = header.router_id;
  view.port_id = header.port_id;
  if ((header.flags & kFlagTraced) != 0) {
    view.trace_id = util::ByteReader(body).u64();
    view.payload = body.subspan(kTraceIdSize);
  } else {
    view.payload = body;
  }
  view.compressed = (header.flags & kFlagCompressed) != 0;
  view.unrecorded = (header.flags & kFlagUnrecorded) != 0;
  view.epoch = static_cast<std::uint8_t>(header.flags >> kEpochShift);
  return view;
}

}  // namespace

const std::vector<MessageDecoder::DecodedView>& MessageDecoder::feed_views(
    util::BytesView chunk) {
  views_.clear();
  // The message the previous feed completed is dead by contract.
  completed_.clear();
  if (failed_) return views_;

  std::size_t offset = 0;  // bytes of `chunk` consumed
  // A framing error keeps the bytes from the offending message on as the
  // unparsed remainder (buffered()); messages parsed before it stand.
  auto poison = [&](const char* error) -> const std::vector<DecodedView>& {
    partial_.insert(partial_.end(), chunk.begin() + offset, chunk.end());
    failed_ = true;
    error_ = error;
    return views_;
  };
  Header header;
  if (!partial_.empty()) {
    // Complete the pending message from the head of the chunk, copying
    // only the bytes it lacks.
    auto top_up = [&](std::size_t want) {
      const std::size_t n =
          std::min(want - partial_.size(), chunk.size() - offset);
      partial_.insert(partial_.end(), chunk.begin() + offset,
                      chunk.begin() + offset + n);
      offset += n;
      return partial_.size() == want;
    };
    if (partial_.size() < kHeaderSize && !top_up(kHeaderSize)) return views_;
    if (const char* error = read_header(partial_, header)) {
      return poison(error);
    }
    if (!top_up(kHeaderSize + header.length)) return views_;
    views_.push_back(
        view_of(header, util::BytesView(partial_).subspan(kHeaderSize)));
    // That view points into partial_, so the new trailing partial must go
    // to the other (empty) buffer: swap roles.
    partial_.swap(completed_);
  }
  // Everything else is parsed in place: views into the caller's chunk.
  while (chunk.size() - offset >= kHeaderSize) {
    if (const char* error = read_header(chunk.subspan(offset), header)) {
      return poison(error);
    }
    const std::size_t size = kHeaderSize + header.length;
    if (chunk.size() - offset < size) break;  // need more
    views_.push_back(
        view_of(header, chunk.subspan(offset + kHeaderSize, header.length)));
    offset += size;
  }
  partial_.assign(chunk.begin() + offset, chunk.end());
  return views_;
}

void MessageDecoder::reset() {
  partial_.clear();
  completed_.clear();
  views_.clear();
  failed_ = false;
  error_.clear();
}

std::vector<MessageDecoder::Decoded> MessageDecoder::feed(
    util::BytesView chunk) {
  std::vector<Decoded> out;
  for (const DecodedView& view : feed_views(chunk)) {
    Decoded decoded;
    decoded.message.type = view.type;
    decoded.message.router_id = view.router_id;
    decoded.message.port_id = view.port_id;
    decoded.message.payload.assign(view.payload.begin(), view.payload.end());
    decoded.compressed = view.compressed;
    decoded.unrecorded = view.unrecorded;
    decoded.trace_id = view.trace_id;
    out.push_back(std::move(decoded));
  }
  return out;
}

// ---------------------------------------------------------------------------
// JOIN / JOIN_ACK JSON payloads
// ---------------------------------------------------------------------------

util::Json JoinRequest::to_json() const {
  util::Json routers_json = util::Json::array();
  for (const auto& router : routers) {
    util::Json ports_json = util::Json::array();
    for (const auto& port : router.ports) {
      util::Json p = util::Json::object();
      p.set("name", port.name);
      p.set("description", port.description);
      p.set("nic", port.nic);
      p.set("rect", util::Json(util::JsonArray{
                        port.rect_x, port.rect_y, port.rect_w, port.rect_h}));
      ports_json.push_back(std::move(p));
    }
    util::Json r = util::Json::object();
    r.set("name", router.name);
    r.set("description", router.description);
    r.set("image", router.image_file);
    r.set("console", router.console_com);
    r.set("ports", std::move(ports_json));
    routers_json.push_back(std::move(r));
  }
  util::Json join = util::Json::object();
  join.set("site", site_name);
  join.set("routers", std::move(routers_json));
  return join;
}

util::Result<JoinRequest> JoinRequest::from_json(const util::Json& json) {
  if (!json.is_object()) return util::Error{"join: not an object"};
  JoinRequest request;
  request.site_name = json["site"].as_string();
  if (request.site_name.empty()) return util::Error{"join: missing site"};
  if (json["routers"].as_array().size() > JoinRequest::kMaxRouters) {
    return util::Error{"join: too many routers declared"};
  }
  for (const auto& r : json["routers"].as_array()) {
    RouterDeclaration router;
    router.name = r["name"].as_string();
    if (router.name.empty()) return util::Error{"join: router missing name"};
    if (r["ports"].as_array().size() > JoinRequest::kMaxPortsPerRouter) {
      return util::Error{"join: too many ports declared on router '" +
                         router.name + "'"};
    }
    router.description = r["description"].as_string();
    router.image_file = r["image"].as_string();
    router.console_com = r["console"].as_string();
    for (const auto& p : r["ports"].as_array()) {
      PortDeclaration port;
      port.name = p["name"].as_string();
      if (port.name.empty()) return util::Error{"join: port missing name"};
      port.description = p["description"].as_string();
      port.nic = p["nic"].as_string();
      const auto& rect = p["rect"].as_array();
      if (rect.size() == 4) {
        port.rect_x = static_cast<int>(rect[0].as_int());
        port.rect_y = static_cast<int>(rect[1].as_int());
        port.rect_w = static_cast<int>(rect[2].as_int());
        port.rect_h = static_cast<int>(rect[3].as_int());
      }
      router.ports.push_back(std::move(port));
    }
    request.routers.push_back(std::move(router));
  }
  return request;
}

util::Json JoinAck::to_json() const {
  util::Json routers_json = util::Json::array();
  for (const auto& ids : routers) {
    util::Json ports = util::Json::array();
    for (auto pid : ids.port_ids) ports.push_back(pid);
    util::Json r = util::Json::object();
    r.set("router_id", ids.router_id);
    r.set("port_ids", std::move(ports));
    routers_json.push_back(std::move(r));
  }
  util::Json ack = util::Json::object();
  ack.set("routers", std::move(routers_json));
  ack.set("epoch", epoch);
  return ack;
}

util::Result<JoinAck> JoinAck::from_json(const util::Json& json) {
  if (!json.is_object()) return util::Error{"join_ack: not an object"};
  JoinAck ack;
  // Absent in pre-epoch acks: defaults to 0, the first-session epoch.
  ack.epoch = static_cast<std::uint32_t>(json["epoch"].as_int(0));
  for (const auto& r : json["routers"].as_array()) {
    RouterIds ids;
    ids.router_id = static_cast<RouterId>(r["router_id"].as_int());
    for (const auto& p : r["port_ids"].as_array()) {
      ids.port_ids.push_back(static_cast<PortId>(p.as_int()));
    }
    ack.routers.push_back(std::move(ids));
  }
  return ack;
}

}  // namespace rnl::wire
