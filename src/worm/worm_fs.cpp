#include "worm/worm_fs.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace worm::core {

using common::Bytes;
using common::ByteView;

Bytes FsHeader::to_bytes() const {
  common::ByteWriter w;
  w.u32(kMagic);
  w.str(path);
  w.u32(version);
  w.u64(prev_sn);
  return w.take();
}

std::optional<FsHeader> FsHeader::parse(ByteView payload) {
  try {
    common::ByteReader r(payload);
    if (r.u32() != kMagic) return std::nullopt;
    FsHeader h;
    h.path = r.str();
    h.version = r.u32();
    h.prev_sn = r.u64();
    r.expect_end();
    return h;
  } catch (const common::ParseError&) {
    return std::nullopt;
  }
}

Sn WormFs::write_file(const std::string& path, ByteView content, Attr attr,
                      std::optional<WitnessMode> mode) {
  WORM_REQUIRE(!path.empty() && path.front() == '/',
               "WormFs: paths must be absolute");
  FsHeader header;
  header.path = path;
  auto it = index_.find(path);
  if (it == index_.end() || it->second.chain.empty()) {
    header.version = 1;
    header.prev_sn = kInvalidSn;
  } else {
    header.version = it->second.chain.back().version + 1;
    header.prev_sn = it->second.chain.back().sn;
  }

  Sn sn = store_.write(
      {.payloads = {header.to_bytes(), common::to_bytes(content)},
       .attr = attr,
       .mode = mode});
  const std::optional<Vrdt::Entry> e = store_.vrdt().find(sn);
  WORM_CHECK(e.has_value(), "WormFs: write did not land in the VRDT");
  FsVersionInfo info;
  info.version = header.version;
  info.sn = sn;
  info.created = e->vrd.attr.creation_time;
  info.expiry = e->vrd.attr.expiry();
  index_[path].chain.push_back(info);
  return sn;
}

std::variant<FsReadOk, ReadOutcome> WormFs::read_file(const std::string& path,
                                                      std::uint32_t version) {
  auto it = index_.find(path);
  WORM_REQUIRE(it != index_.end() && !it->second.chain.empty(),
               "WormFs: unknown path " + path);
  const auto& chain = it->second.chain;
  const FsVersionInfo* target = nullptr;
  if (version == 0) {
    target = &chain.back();
  } else {
    for (const auto& v : chain) {
      if (v.version == version) {
        target = &v;
        break;
      }
    }
    WORM_REQUIRE(target != nullptr,
                 "WormFs: no such version of " + path);
  }

  ReadOutcome res = store_.read(target->sn);
  if (const auto* ok = res.get_if<ReadOk>()) {
    if (ok->payloads.size() == 2) {
      if (auto header = FsHeader::parse(ok->payloads[0])) {
        FsReadOk out;
        out.header = std::move(*header);
        out.content = ok->payloads[1];
        out.vrd = ok->vrd;
        return out;
      }
    }
  }
  return res;  // deletion proof / window proof / tampering evidence
}

bool WormFs::exists(const std::string& path) const {
  auto it = index_.find(path);
  return it != index_.end() && !it->second.chain.empty();
}

std::vector<FsVersionInfo> WormFs::versions(const std::string& path) const {
  auto it = index_.find(path);
  if (it == index_.end()) return {};
  return it->second.chain;
}

std::vector<std::string> WormFs::list(const std::string& dir_prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, state] : index_) {
    if (path.rfind(dir_prefix, 0) == 0) out.push_back(path);
  }
  return out;  // std::map iteration is already sorted
}

void WormFs::rebuild_index() {
  index_.clear();
  for (Sn sn : store_.vrdt().active_sns()) {
    const std::optional<Vrdt::Entry> e = store_.vrdt().find(sn);
    if (e->vrd.rdl.size() != 2) continue;  // not a filesystem record
    Bytes head = store_.records().read(e->vrd.rdl[0]);
    auto header = FsHeader::parse(head);
    if (!header.has_value()) continue;
    FsVersionInfo info;
    info.version = header->version;
    info.sn = sn;
    info.created = e->vrd.attr.creation_time;
    info.expiry = e->vrd.attr.expiry();
    index_[header->path].chain.push_back(info);
  }
  for (auto& [path, state] : index_) {
    std::sort(state.chain.begin(), state.chain.end(),
              [](const FsVersionInfo& a, const FsVersionInfo& b) {
                return a.version < b.version;
              });
  }
}

FsAuditReport WormFs::audit(const ClientVerifier& verifier) {
  FsAuditReport report;
  report.files = index_.size();

  for (const auto& [path, state] : index_) {
    bool chain_ok = true;
    // Walk the latest version's prev-chain back to version 1; every hop must
    // resolve to either a verifiable record or verifiable deletion evidence.
    if (state.chain.empty()) continue;
    Sn cursor = state.chain.back().sn;
    std::uint32_t expected_version = state.chain.back().version;
    while (cursor != kInvalidSn) {
      ++report.versions;
      ReadOutcome res = store_.read(cursor);
      Outcome out = verifier.verify_read(cursor, res);
      if (out.verdict == Verdict::kAuthentic) {
        const auto* ok = res.get_if<ReadOk>();
        // The verifier just checked these payloads against the witnessed
        // hash; parse the header from them rather than re-reading the disk.
        std::optional<FsHeader> header;
        if (!ok->payloads.empty()) header = FsHeader::parse(ok->payloads[0]);
        if (!header.has_value() || header->path != path ||
            header->version != expected_version) {
          chain_ok = false;  // a record was swapped in from another path
          break;
        }
        cursor = header->prev_sn;
        --expected_version;
      } else if (out.verdict == Verdict::kDeletedVerified) {
        // Retention legitimately consumed the rest of this history; the
        // deleted predecessor's own prev-pointer is gone with it, which is
        // fine — deletion evidence covers any SN below it too.
        break;
      } else {
        if (out.verdict == Verdict::kTampered) report.tampered.push_back(cursor);
        chain_ok = false;
        break;
      }
    }
    if (!chain_ok) report.broken_chains.push_back(path);
  }
  return report;
}

}  // namespace worm::core
