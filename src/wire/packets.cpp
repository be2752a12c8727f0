#include "wire/packets.hpp"

#include <array>

#include "wire/codec.hpp"

namespace alpha::wire {

namespace {

/// Appends the CRC-32 trailer and releases the finished frame. Every
/// encode() funnels through here so no packet type can skip the checksum.
Bytes seal(Writer&& w) {
  Bytes frame = w.take();
  const std::uint32_t crc = frame_checksum(frame);
  frame.push_back(static_cast<std::uint8_t>(crc >> 24));
  frame.push_back(static_cast<std::uint8_t>(crc >> 16));
  frame.push_back(static_cast<std::uint8_t>(crc >> 8));
  frame.push_back(static_cast<std::uint8_t>(crc));
  return frame;
}

/// Verifies and strips the trailer; nullopt means the frame is corrupt (or
/// too short to carry a trailer at all).
std::optional<ByteView> unseal(ByteView data) noexcept {
  if (data.size() < kFrameChecksumSize) return std::nullopt;
  const ByteView body = data.subspan(0, data.size() - kFrameChecksumSize);
  const ByteView tail = data.subspan(body.size());
  const std::uint32_t expected = (std::uint32_t{tail[0]} << 24) |
                                 (std::uint32_t{tail[1]} << 16) |
                                 (std::uint32_t{tail[2]} << 8) | tail[3];
  if (frame_checksum(body) != expected) return std::nullopt;
  return body;
}

void put_header(Writer& w, PacketType type, const Header& hdr) {
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(hdr.assoc_id);
  w.u32(hdr.seq);
}

Header read_header(Reader& r, PacketType expected) {
  if (r.u8() != kWireVersion) throw DecodeError("bad version");
  if (r.u8() != static_cast<std::uint8_t>(expected)) {
    throw DecodeError("type mismatch");
  }
  Header hdr;
  hdr.assoc_id = r.u32();
  hdr.seq = r.u32();
  return hdr;
}

void put_path(Writer& w, const WirePath& path) {
  w.u16(path.leaf_index);
  if (path.siblings.size() > 0xff) throw std::length_error("path too deep");
  w.u8(static_cast<std::uint8_t>(path.siblings.size()));
  for (const auto& d : path.siblings) w.digest(d);
}

WirePath read_path(Reader& r) {
  WirePath path;
  path.leaf_index = r.u16();
  const std::size_t depth = r.u8();
  path.siblings.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) path.siblings.push_back(r.digest());
  return path;
}

Mode read_mode(Reader& r) {
  const std::uint8_t m = r.u8();
  if (m < 1 || m > 4) throw DecodeError("bad mode");
  return static_cast<Mode>(m);
}

AckScheme read_scheme(Reader& r) {
  const std::uint8_t s = r.u8();
  if (s > 2) throw DecodeError("bad ack scheme");
  return static_cast<AckScheme>(s);
}

}  // namespace

std::uint32_t frame_checksum(ByteView data) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t b : data) {
    crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

merkle::AuthPath WirePath::to_auth_path() const {
  merkle::AuthPath path;
  path.leaf_index = leaf_index;
  path.siblings = siblings;
  return path;
}

WirePath WirePath::from_auth_path(const merkle::AuthPath& path) {
  WirePath wp;
  wp.leaf_index = static_cast<std::uint16_t>(path.leaf_index);
  wp.siblings = path.siblings;
  return wp;
}

Bytes S1Packet::encode() const {
  Writer w;
  put_header(w, PacketType::kS1, hdr);
  w.u8(static_cast<std::uint8_t>(mode));
  w.u32(chain_index);
  w.digest(chain_element);
  if (mode == Mode::kMerkle) {
    w.digest(merkle_root);
    w.u16(leaf_count);
  } else if (mode == Mode::kCumulativeMerkle) {
    if (merkle_roots.empty() || merkle_roots.size() > 0xffff) {
      throw std::length_error("bad root list");
    }
    w.u16(static_cast<std::uint16_t>(merkle_roots.size()));
    for (const auto& root : merkle_roots) w.digest(root);
    w.u16(group_size);
    w.u16(leaf_count);
  } else {
    if (macs.size() > 0xffff) throw std::length_error("too many MACs");
    w.u16(static_cast<std::uint16_t>(macs.size()));
    for (const auto& m : macs) w.digest(m);
  }
  return seal(std::move(w));
}

Bytes A1Packet::encode() const {
  Writer w;
  put_header(w, PacketType::kA1, hdr);
  w.u32(ack_chain_index);
  w.digest(ack_element);
  w.u8(static_cast<std::uint8_t>(scheme));
  switch (scheme) {
    case AckScheme::kNone:
      break;
    case AckScheme::kPreAck: {
      if (pre_acks.size() != pre_nacks.size() || pre_acks.empty() ||
          pre_acks.size() > 0xffff) {
        throw std::length_error("A1: bad pre-(n)ack lists");
      }
      w.u16(static_cast<std::uint16_t>(pre_acks.size()));
      for (const auto& d : pre_acks) w.digest(d);
      for (const auto& d : pre_nacks) w.digest(d);
      break;
    }
    case AckScheme::kAmt:
      w.digest(amt_root);
      w.u16(amt_msg_count);
      break;
  }
  return seal(std::move(w));
}

Bytes S2Packet::encode() const {
  Writer w;
  put_header(w, PacketType::kS2, hdr);
  w.u8(static_cast<std::uint8_t>(mode));
  w.u32(chain_index);
  w.digest(disclosed_element);
  w.u16(msg_index);
  w.u8(path.has_value() ? 1 : 0);
  if (path.has_value()) put_path(w, *path);
  w.blob16(payload);
  return seal(std::move(w));
}

Bytes A2Packet::encode() const {
  Writer w;
  put_header(w, PacketType::kA2, hdr);
  w.u32(ack_chain_index);
  w.digest(disclosed_ack_element);
  w.u8(static_cast<std::uint8_t>(scheme));
  w.u8(static_cast<std::uint8_t>(kind));
  w.u16(msg_index);
  w.blob16(secret);
  w.u8(path.has_value() ? 1 : 0);
  if (path.has_value()) put_path(w, *path);
  return seal(std::move(w));
}

namespace {

/// Serializes the reconfig rider (presence byte + fields); shared between
/// encode() and signed_payload() so the identity signature always covers
/// exactly what travels on the wire.
void put_reconfig(Writer& w, const std::optional<ReconfigAnnounce>& r) {
  w.u8(r.has_value() ? 1 : 0);
  if (!r.has_value()) return;
  w.u8(static_cast<std::uint8_t>(r->mode));
  w.u16(r->batch_size);
  w.u16(r->merkle_group);
  w.u8(r->max_retries);
  w.u32(r->rekey_threshold);
}

}  // namespace

Bytes HandshakePacket::signed_payload() const {
  Writer w;
  w.u8(is_response ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(algo));
  w.u32(hdr.assoc_id);
  w.u32(hdr.seq);  // monotonic handshake counter: anti-replay for rekeying
  w.u32(chain_length);
  w.u32(sig_anchor_index);
  w.u32(ack_anchor_index);
  w.digest(sig_anchor);
  w.digest(ack_anchor);
  w.u8(static_cast<std::uint8_t>(sig_alg));
  w.blob16(public_key);
  put_reconfig(w, reconfig);
  return w.take();
}

Bytes HandshakePacket::encode() const {
  Writer w;
  put_header(w, is_response ? PacketType::kHs2 : PacketType::kHs1, hdr);
  w.u8(static_cast<std::uint8_t>(algo));
  w.u32(chain_length);
  w.u32(sig_anchor_index);
  w.u32(ack_anchor_index);
  w.digest(sig_anchor);
  w.digest(ack_anchor);
  w.u8(static_cast<std::uint8_t>(sig_alg));
  w.blob16(public_key);
  w.blob16(signature);
  put_reconfig(w, reconfig);
  return seal(std::move(w));
}

std::optional<PacketType> peek_type(ByteView data) noexcept {
  if (data.size() < 2 || data[0] != kWireVersion) return std::nullopt;
  const std::uint8_t t = data[1];
  if (t < 1 || t > 6) return std::nullopt;
  return static_cast<PacketType>(t);
}

std::optional<std::uint32_t> peek_assoc_id(ByteView data) noexcept {
  if (!peek_type(data).has_value() || data.size() < 6) return std::nullopt;
  return (std::uint32_t{data[2]} << 24) | (std::uint32_t{data[3]} << 16) |
         (std::uint32_t{data[4]} << 8) | data[5];
}

std::optional<Header> peek_header(ByteView data) noexcept {
  if (!peek_type(data).has_value() || data.size() < 10) return std::nullopt;
  Header hdr;
  hdr.assoc_id = (std::uint32_t{data[2]} << 24) | (std::uint32_t{data[3]} << 16) |
                 (std::uint32_t{data[4]} << 8) | data[5];
  hdr.seq = (std::uint32_t{data[6]} << 24) | (std::uint32_t{data[7]} << 16) |
            (std::uint32_t{data[8]} << 8) | data[9];
  return hdr;
}

namespace {

/// Exception-free bounded cursor for the zero-copy parse path (Reader
/// signals errors by throwing DecodeError, whose message allocates).
/// Reads after a failure are harmless no-ops: `ok` latches false.
struct ViewCursor {
  ByteView d;
  std::size_t pos = 0;
  bool ok = true;

  bool need(std::size_t n) noexcept {
    if (!ok || d.size() - pos < n) ok = false;
    return ok;
  }
  std::uint8_t u8() noexcept { return need(1) ? d[pos++] : 0; }
  std::uint16_t u16() noexcept {
    if (!need(2)) return 0;
    const std::uint16_t v =
        static_cast<std::uint16_t>((std::uint16_t{d[pos]} << 8) | d[pos + 1]);
    pos += 2;
    return v;
  }
  std::uint32_t u32() noexcept {
    if (!need(4)) return 0;
    const std::uint32_t v = (std::uint32_t{d[pos]} << 24) |
                            (std::uint32_t{d[pos + 1]} << 16) |
                            (std::uint32_t{d[pos + 2]} << 8) | d[pos + 3];
    pos += 4;
    return v;
  }
  ByteView raw(std::size_t n) noexcept {
    if (!need(n)) return {};
    const ByteView v = d.subspan(pos, n);
    pos += n;
    return v;
  }
};

}  // namespace

std::optional<S2View> parse_s2(ByteView data) noexcept {
  if (peek_type(data) != PacketType::kS2) return std::nullopt;
  // Checksum first, same as decode(): a frame that fails the CRC is link
  // noise and none of its fields may reach engine state.
  const auto body = unseal(data);
  if (!body.has_value()) return std::nullopt;
  // body is a prefix of data, so the bytes peek_type vetted are body[0..1]
  // -- provided the body actually contains them.
  if (body->size() < 2) return std::nullopt;
  ViewCursor c{*body};
  S2View v;
  c.pos = 2;  // version + type, vetted by peek_type
  v.hdr.assoc_id = c.u32();
  v.hdr.seq = c.u32();
  const std::uint8_t mode = c.u8();
  if (!c.ok || mode < 1 || mode > 4) return std::nullopt;
  v.mode = static_cast<Mode>(mode);
  v.chain_index = c.u32();
  const std::uint8_t dlen = c.u8();
  if (!c.ok || dlen > Digest::kMaxSize) return std::nullopt;
  const ByteView delem = c.raw(dlen);
  if (!c.ok) return std::nullopt;
  v.disclosed_element = Digest{delem};
  v.msg_index = c.u16();
  const std::uint8_t has_path = c.u8();
  if (!c.ok) return std::nullopt;
  if (has_path != 0) {
    v.has_path = true;
    v.leaf_index = c.u16();
    v.depth = c.u8();
    const std::size_t start = c.pos;
    for (std::size_t i = 0; i < v.depth; ++i) {
      const std::uint8_t n = c.u8();
      if (!c.ok || n > Digest::kMaxSize) return std::nullopt;
      c.raw(n);
    }
    if (!c.ok) return std::nullopt;
    v.siblings = body->subspan(start, c.pos - start);
  }
  const std::uint16_t payload_len = c.u16();
  v.payload = c.raw(payload_len);
  // expect_end: trailing bytes are an error, as in decode().
  if (!c.ok || c.pos != body->size()) return std::nullopt;
  return v;
}

void S2View::path_into(merkle::AuthPath& out) const {
  out.leaf_index = leaf_index;
  out.siblings.clear();
  std::size_t pos = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    // Bounds were checked by parse_s2; each entry is len-u8 + bytes.
    const std::size_t n = siblings[pos++];
    out.siblings.emplace_back(siblings.subspan(pos, n));
    pos += n;
  }
}

std::optional<Packet> decode(ByteView data) {
  const auto type = peek_type(data);
  if (!type.has_value()) return std::nullopt;
  if (*type == PacketType::kS2) {
    const auto view = parse_s2(data);
    if (!view.has_value()) return std::nullopt;
    S2Packet p;
    p.hdr = view->hdr;
    p.mode = view->mode;
    p.chain_index = view->chain_index;
    p.disclosed_element = view->disclosed_element;
    p.msg_index = view->msg_index;
    p.payload.assign(view->payload.begin(), view->payload.end());
    if (view->has_path) {
      merkle::AuthPath path;
      view->path_into(path);
      p.path = WirePath{view->leaf_index, std::move(path.siblings)};
    }
    return p;
  }
  // Checksum first: a frame that fails the CRC is link noise, not a
  // protocol message, and none of its fields may reach engine state.
  const auto body = unseal(data);
  if (!body.has_value()) return std::nullopt;
  try {
    Reader r{*body};
    switch (*type) {
      case PacketType::kS1: {
        S1Packet p;
        p.hdr = read_header(r, PacketType::kS1);
        p.mode = read_mode(r);
        p.chain_index = r.u32();
        p.chain_element = r.digest();
        if (p.mode == Mode::kMerkle) {
          p.merkle_root = r.digest();
          p.leaf_count = r.u16();
          if (p.leaf_count == 0) throw DecodeError("empty merkle batch");
        } else if (p.mode == Mode::kCumulativeMerkle) {
          const std::size_t roots = r.u16();
          if (roots == 0) throw DecodeError("empty root list");
          p.merkle_roots.reserve(roots);
          for (std::size_t i = 0; i < roots; ++i) {
            p.merkle_roots.push_back(r.digest());
          }
          p.group_size = r.u16();
          p.leaf_count = r.u16();
          // Consistency: leaf_count messages must need exactly `roots`
          // groups of group_size.
          if (p.group_size == 0 || p.leaf_count == 0 ||
              (static_cast<std::size_t>(p.leaf_count) + p.group_size - 1) /
                      p.group_size !=
                  roots) {
            throw DecodeError("inconsistent group structure");
          }
        } else {
          const std::size_t n = r.u16();
          if (n == 0) throw DecodeError("empty mac list");
          p.macs.reserve(n);
          for (std::size_t i = 0; i < n; ++i) p.macs.push_back(r.digest());
        }
        r.expect_end();
        return p;
      }
      case PacketType::kA1: {
        A1Packet p;
        p.hdr = read_header(r, PacketType::kA1);
        p.ack_chain_index = r.u32();
        p.ack_element = r.digest();
        p.scheme = read_scheme(r);
        if (p.scheme == AckScheme::kPreAck) {
          const std::size_t n = r.u16();
          if (n == 0) throw DecodeError("empty pre-ack list");
          p.pre_acks.reserve(n);
          p.pre_nacks.reserve(n);
          for (std::size_t i = 0; i < n; ++i) p.pre_acks.push_back(r.digest());
          for (std::size_t i = 0; i < n; ++i) p.pre_nacks.push_back(r.digest());
        } else if (p.scheme == AckScheme::kAmt) {
          p.amt_root = r.digest();
          p.amt_msg_count = r.u16();
          if (p.amt_msg_count == 0) throw DecodeError("empty amt");
        }
        r.expect_end();
        return p;
      }
      case PacketType::kS2:
        break;  // decoded from parse_s2's view above
      case PacketType::kA2: {
        A2Packet p;
        p.hdr = read_header(r, PacketType::kA2);
        p.ack_chain_index = r.u32();
        p.disclosed_ack_element = r.digest();
        p.scheme = read_scheme(r);
        if (p.scheme == AckScheme::kNone) throw DecodeError("A2 needs scheme");
        const std::uint8_t kind = r.u8();
        if (kind < 1 || kind > 2) throw DecodeError("bad ack kind");
        p.kind = static_cast<AckKind>(kind);
        p.msg_index = r.u16();
        p.secret = r.blob16();
        if (r.u8() != 0) p.path = read_path(r);
        r.expect_end();
        return p;
      }
      case PacketType::kHs1:
      case PacketType::kHs2: {
        HandshakePacket p;
        p.hdr = read_header(r, *type);
        p.is_response = (*type == PacketType::kHs2);
        const std::uint8_t algo = r.u8();
        if (algo < 1 || algo > 3) throw DecodeError("bad hash algo");
        p.algo = static_cast<crypto::HashAlgo>(algo);
        p.chain_length = r.u32();
        p.sig_anchor_index = r.u32();
        p.ack_anchor_index = r.u32();
        p.sig_anchor = r.digest();
        p.ack_anchor = r.digest();
        const std::uint8_t sig_alg = r.u8();
        if (sig_alg > 4) throw DecodeError("bad sig alg");
        p.sig_alg = static_cast<SigAlg>(sig_alg);
        p.public_key = r.blob16();
        p.signature = r.blob16();
        const std::uint8_t has_reconfig = r.u8();
        if (has_reconfig > 1) throw DecodeError("bad reconfig flag");
        if (has_reconfig == 1) {
          ReconfigAnnounce rc;
          rc.mode = read_mode(r);
          rc.batch_size = r.u16();
          rc.merkle_group = r.u16();
          rc.max_retries = r.u8();
          rc.rekey_threshold = r.u32();
          // Engine invariants, enforced at the trust boundary: a peer (or
          // flipped bit the CRC missed) must not be able to announce a
          // profile the engines cannot run, nor one their own S1 flood
          // bound would refuse.
          if (rc.batch_size == 0 || rc.batch_size > kMaxBatch ||
              rc.merkle_group == 0 || rc.max_retries == 0) {
            throw DecodeError("bad reconfig");
          }
          p.reconfig = rc;
        }
        r.expect_end();
        return p;
      }
    }
  } catch (const DecodeError&) {
    return std::nullopt;
  } catch (const std::length_error&) {
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace alpha::wire
