#include "worm/types.hpp"

namespace worm::core {

bool Attr::deletable_at(common::SimTime now) const {
  if (now < expiry()) return false;
  if (litigation_hold && now < lit_hold_expiry) return false;
  return true;
}

void Attr::serialize(common::ByteWriter& w) const {
  w.i64(creation_time.ns);
  w.i64(retention.ns);
  w.u32(regulation_policy);
  w.u8(static_cast<std::uint8_t>(shredding));
  w.boolean(litigation_hold);
  w.i64(lit_hold_expiry.ns);
  w.blob(lit_credential);
  w.u8(f_flag);
  w.u16(mac_label);
  w.u16(dac_mode);
}

Attr Attr::deserialize(common::ByteReader& r) {
  Attr a;
  a.creation_time.ns = r.i64();
  a.retention.ns = r.i64();
  a.regulation_policy = r.u32();
  std::uint8_t shred = r.u8();
  if (shred > static_cast<std::uint8_t>(storage::ShredPolicy::kCryptoShred)) {
    throw common::ParseError("Attr: bad shredding policy");
  }
  a.shredding = static_cast<storage::ShredPolicy>(shred);
  a.litigation_hold = r.boolean();
  a.lit_hold_expiry.ns = r.i64();
  a.lit_credential = r.blob();
  a.f_flag = r.u8();
  a.mac_label = r.u16();
  a.dac_mode = r.u16();
  return a;
}

common::Bytes Attr::to_bytes() const {
  common::ByteWriter w;
  serialize(w);
  return w.take();
}

const char* to_string(SigKind k) {
  switch (k) {
    case SigKind::kStrong:
      return "strong";
    case SigKind::kShortTerm:
      return "short-term";
    case SigKind::kHmac:
      return "hmac";
  }
  return "?";
}

void SigBox::serialize(common::ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(key_id);
  w.blob(value);
}

SigBox SigBox::deserialize(common::ByteReader& r) {
  SigBox s;
  std::uint8_t k = r.u8();
  if (k > 2) throw common::ParseError("SigBox: bad kind");
  s.kind = static_cast<SigKind>(k);
  s.key_id = r.u32();
  s.value = r.blob();
  return s;
}

void Vrd::serialize(common::ByteWriter& w) const {
  w.u64(sn);
  attr.serialize(w);
  w.u32(static_cast<std::uint32_t>(rdl.size()));
  for (const auto& rd : rdl) rd.serialize(w);
  w.blob(data_hash);
  metasig.serialize(w);
  datasig.serialize(w);
}

Vrd Vrd::deserialize(common::ByteReader& r) {
  Vrd v;
  v.sn = r.u64();
  v.attr = Attr::deserialize(r);
  std::uint32_t n = r.count(20);
  v.rdl.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v.rdl.push_back(storage::RecordDescriptor::deserialize(r));
  }
  v.data_hash = r.blob();
  v.metasig = SigBox::deserialize(r);
  v.datasig = SigBox::deserialize(r);
  return v;
}

common::Bytes Vrd::to_bytes() const {
  common::ByteWriter w;
  serialize(w);
  return w.take();
}

}  // namespace worm::core
