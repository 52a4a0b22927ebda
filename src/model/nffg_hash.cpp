#include "model/nffg_hash.h"

#include <bit>
#include <string_view>

namespace unify::model {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

struct Fnv {
  std::uint64_t state = kHashSeed;

  void byte(unsigned char b) noexcept {
    state ^= b;
    state *= kFnvPrime;
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (i * 8)));
  }
  /// Length-prefixed so adjacent strings cannot alias ("ab","c" vs "a","bc").
  void str(std::string_view s) noexcept {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  /// Bit pattern: doubles with equal bits print identically, so equal
  /// hashes imply equal JSON (the converse fails past six digits).
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void resources(const Resources& r) noexcept {
    f64(r.cpu);
    f64(r.mem);
    f64(r.storage);
  }
  void port_ref(const PortRef& ref) noexcept {
    str(ref.node);
    u64(static_cast<std::uint64_t>(ref.port));
  }
};

}  // namespace

std::uint64_t content_hash(const Nffg& nffg) noexcept {
  Fnv h;
  h.str(nffg.id());
  h.str(nffg.name());
  h.u64(nffg.saps().size());
  for (const auto& [id, sap] : nffg.saps()) {
    h.str(sap.id);
    h.str(sap.name);
  }
  h.u64(nffg.bisbis().size());
  for (const auto& [id, bb] : nffg.bisbis()) {
    h.str(bb.id);
    h.str(bb.name);
    h.str(bb.domain);
    h.resources(bb.capacity);
    h.u64(bb.ports.size());
    for (const Port& p : bb.ports) {
      h.u64(static_cast<std::uint64_t>(p.id));
      h.str(p.name);
    }
    h.u64(bb.nf_types.size());
    for (const std::string& type : bb.nf_types) h.str(type);
    h.f64(bb.internal_delay);
    // health_penalty deliberately excluded: orchestrator-local, never
    // serialized, must not dirty a slice.
    h.u64(bb.nfs.size());
    for (const auto& [nf_id, nf] : bb.nfs) {
      h.str(nf.id);
      h.str(nf.type);
      h.resources(nf.requirement);
      h.u64(nf.ports.size());
      for (const Port& p : nf.ports) {
        h.u64(static_cast<std::uint64_t>(p.id));
        h.str(p.name);
      }
      h.u64(static_cast<std::uint64_t>(nf.status));
    }
    h.u64(bb.flowrules.size());
    for (const Flowrule& fr : bb.flowrules) {
      h.str(fr.id);
      h.port_ref(fr.in);
      h.port_ref(fr.out);
      h.str(fr.match_tag);
      h.str(fr.set_tag);
      h.f64(fr.bandwidth);
    }
  }
  h.u64(nffg.links().size());
  for (const auto& [id, link] : nffg.links()) {
    h.str(link.id);
    h.port_ref(link.from);
    h.port_ref(link.to);
    h.f64(link.attrs.bandwidth);
    h.f64(link.attrs.delay);
    h.f64(link.reserved);
  }
  h.u64(nffg.hints().size());
  for (const ServiceHint& hint : nffg.hints()) {
    h.str(hint.id);
    h.str(hint.from_sap);
    h.str(hint.to_sap);
    h.f64(hint.max_delay);
    h.f64(hint.min_bandwidth);
    h.str(hint.via);
  }
  h.u64(nffg.constraints().size());
  for (const PlacementConstraint& c : nffg.constraints()) {
    h.u64(static_cast<std::uint64_t>(c.kind));
    h.str(c.nf_a);
    h.str(c.nf_b);
    h.str(c.host);
  }
  return h.state;
}

}  // namespace unify::model
