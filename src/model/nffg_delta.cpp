#include "model/nffg_delta.h"

#include <bit>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "model/nffg_json.h"

namespace unify::model {

namespace {

// ---------------------------------------------------------------- diff

/// Bitwise, not ==: 0.0 and -0.0 print differently, so == would leave a
/// change unshipped.
bool same(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same(const Resources& a, const Resources& b) noexcept {
  return same(a.cpu, b.cpu) && same(a.mem, b.mem) &&
         same(a.storage, b.storage);
}
bool same(const Sap& a, const Sap& b) noexcept {
  return a.id == b.id && a.name == b.name;
}
bool same(const NfInstance& a, const NfInstance& b) noexcept {
  return a.id == b.id && a.type == b.type &&
         same(a.requirement, b.requirement) && a.ports == b.ports &&
         a.status == b.status;
}
bool same(const Flowrule& a, const Flowrule& b) noexcept {
  return a.id == b.id && a.in == b.in && a.out == b.out &&
         a.match_tag == b.match_tag && a.set_tag == b.set_tag &&
         same(a.bandwidth, b.bandwidth);
}
bool same(const Link& a, const Link& b) noexcept {
  return a.id == b.id && a.from == b.from && a.to == b.to &&
         same(a.attrs.bandwidth, b.attrs.bandwidth) &&
         same(a.attrs.delay, b.attrs.delay) && same(a.reserved, b.reserved);
}
bool same(const ServiceHint& a, const ServiceHint& b) noexcept {
  return a.id == b.id && a.from_sap == b.from_sap && a.to_sap == b.to_sap &&
         same(a.max_delay, b.max_delay) &&
         same(a.min_bandwidth, b.min_bandwidth) && a.via == b.via;
}
/// A BiS-BiS's own fields, as bisbis_fields_to_json writes them.
bool same_fields(const BisBis& a, const BisBis& b) noexcept {
  return a.id == b.id && a.name == b.name && a.domain == b.domain &&
         same(a.capacity, b.capacity) && a.ports == b.ports &&
         a.nf_types == b.nf_types && same(a.internal_delay, b.internal_delay);
}
BisBis own_fields(const BisBis& bb) {
  BisBis out;
  out.id = bb.id;
  out.name = bb.name;
  out.domain = bb.domain;
  out.capacity = bb.capacity;
  out.ports = bb.ports;
  out.nf_types = bb.nf_types;
  out.internal_delay = bb.internal_delay;
  return out;
}

/// Walks two id-sorted maps together: `removed(id)` for each base key the
/// target lacks, `visit(base entry or nullptr, target entry)` for each
/// target entry.
template <typename T, typename Removed, typename Visit>
Result<void> walk(const std::map<std::string, T>& base,
                  const std::map<std::string, T>& target, Removed removed,
                  Visit visit) {
  const auto keyed_by_id = [](const std::string& key, const T& entry)
      -> Result<void> {
    if (entry.id == key) return Result<void>::success();
    return Error{ErrorCode::kInvalidArgument,
                 "map key " + key + " holds id " + entry.id};
  };
  auto b = base.begin();
  for (const auto& [id, entry] : target) {
    UNIFY_RETURN_IF_ERROR(keyed_by_id(id, entry));
    for (; b != base.end() && b->first < id; ++b) {
      UNIFY_RETURN_IF_ERROR(keyed_by_id(b->first, b->second));
      removed(b->first);
    }
    const T* before = nullptr;
    if (b != base.end() && b->first == id) {
      UNIFY_RETURN_IF_ERROR(keyed_by_id(b->first, b->second));
      before = &(b++)->second;
    }
    UNIFY_RETURN_IF_ERROR(visit(before, entry));
  }
  for (; b != base.end(); ++b) {
    UNIFY_RETURN_IF_ERROR(keyed_by_id(b->first, b->second));
    removed(b->first);
  }
  return Result<void>::success();
}

template <typename T>
Result<KeyedDelta<T>> keyed_delta(const std::map<std::string, T>& base,
                                  const std::map<std::string, T>& target) {
  KeyedDelta<T> out;
  UNIFY_RETURN_IF_ERROR(walk(
      base, target,
      [&](const std::string& id) { out.removed.push_back(id); },
      [&](const T* before, const T& after) {
        if (before == nullptr || !same(*before, after)) {
          out.upserted.push_back(after);
        }
        return Result<void>::success();
      }));
  return out;
}

/// Keeps the target entries that appear unchanged in the base in the same
/// relative order (greedily, in one pass: an entry is kept when its base
/// position follows the last kept one), removes every other base entry
/// and inserts every other target entry after its target predecessor.
template <typename T>
Result<OrderedDelta<T>> ordered_delta(const std::vector<T>& base,
                                      const std::vector<T>& target) {
  const auto unusable = [](const std::string& id) {
    return Error{ErrorCode::kInvalidArgument,
                 id.empty() ? std::string("empty id in an ordered list")
                            : "id " + id + " repeats in an ordered list"};
  };
  constexpr std::size_t kTargetOnly = static_cast<std::size_t>(-1);
  // id -> its base position, or kTargetOnly for a target id the base
  // lacks; each target id claims its entry once.
  std::unordered_map<std::string_view, std::size_t> at;
  at.reserve(base.size() + target.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (base[i].id.empty() || !at.emplace(base[i].id, i).second) {
      return unusable(base[i].id);
    }
  }
  enum : char { kUnclaimed, kClaimed, kKept };
  std::vector<char> state(base.size(), kUnclaimed);
  OrderedDelta<T> out;
  std::size_t next_keepable = 0;  // base positions below are behind us
  for (std::size_t j = 0; j < target.size(); ++j) {
    const T& entry = target[j];
    if (entry.id.empty()) return unusable(entry.id);
    const auto [it, fresh] = at.try_emplace(entry.id, kTargetOnly);
    if (!fresh) {
      const std::size_t p = it->second;
      if (p == kTargetOnly || state[p] != kUnclaimed) {
        return unusable(entry.id);
      }
      state[p] = kClaimed;
      if (p >= next_keepable && same(base[p], entry)) {
        state[p] = kKept;
        next_keepable = p + 1;
        continue;
      }
    }
    out.inserted.push_back(
        {j == 0 ? std::string() : target[j - 1].id, entry});
  }
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (state[i] != kKept) out.removed.push_back(base[i].id);
  }
  return out;
}

// --------------------------------------------------------------- apply

template <typename T>
Result<void> apply_keyed(std::map<std::string, T>& map, KeyedDelta<T> delta,
                         const char* what) {
  for (const std::string& id : delta.removed) {
    if (map.erase(id) == 0) {
      return Error{ErrorCode::kProtocol,
                   std::string("delta removes unknown ") + what + " " + id};
    }
  }
  for (T& entry : delta.upserted) {
    T& slot = map[entry.id];
    slot = std::move(entry);
  }
  return Result<void>::success();
}

template <typename T>
Result<void> apply_ordered(std::vector<T>& list, OrderedDelta<T> delta,
                           const char* what) {
  if (!delta.removed.empty()) {
    const std::unordered_set<std::string_view> gone(delta.removed.begin(),
                                                    delta.removed.end());
    const std::size_t before = list.size();
    std::erase_if(list, [&](const T& e) { return gone.count(e.id) != 0; });
    if (gone.size() != delta.removed.size() ||
        before - list.size() != gone.size()) {
      return Error{ErrorCode::kProtocol,
                   std::string("delta removes unknown or repeated ") + what +
                       " ids"};
    }
  }
  if (delta.inserted.empty()) return Result<void>::success();
  // anchor id -> the insert that follows it; each is used once.
  std::unordered_map<std::string_view, std::size_t> next;
  next.reserve(delta.inserted.size());
  for (std::size_t k = 0; k < delta.inserted.size(); ++k) {
    if (!next.emplace(delta.inserted[k].after, k).second) {
      return Error{ErrorCode::kProtocol,
                   std::string("delta inserts two ") + what + "s after '" +
                       delta.inserted[k].after + "'"};
    }
  }
  std::vector<T> out;
  out.reserve(list.size() + delta.inserted.size());
  // Emits the chain of inserts anchored on `id`, each on the one before.
  const auto chain = [&](std::string_view id) {
    for (auto it = next.find(id); it != next.end(); it = next.find(id)) {
      out.push_back(std::move(delta.inserted[it->second].entry));
      next.erase(it);
      id = out.back().id;
    }
  };
  chain("");
  for (T& entry : list) {
    out.push_back(std::move(entry));
    chain(out.back().id);
  }
  if (!next.empty()) {
    return Error{ErrorCode::kProtocol,
                 std::string("delta inserts a ") + what +
                     " after an unknown id"};
  }
  list = std::move(out);
  return Result<void>::success();
}

// ---------------------------------------------------------------- JSON

using json::Array;
using json::Object;
using json::Value;

Array ids_to_json(const std::vector<std::string>& ids) {
  Array out;
  out.reserve(ids.size());
  for (const std::string& id : ids) out.emplace_back(id);
  return out;
}

/// Appends an empty object to `array` and returns it.
Object& new_object(Array& array) {
  return array.emplace_back(Object{}).as_object();
}

void to_json(const BisBisDelta& node, Object& out);

template <typename T>
Value keyed_to_json(const KeyedDelta<T>& delta) {
  Object o;
  if (!delta.removed.empty()) o.set("removed", ids_to_json(delta.removed));
  if (!delta.upserted.empty()) {
    Array upserted;
    upserted.reserve(delta.upserted.size());
    for (const T& entry : delta.upserted) to_json(entry, new_object(upserted));
    o.set("upserted", std::move(upserted));
  }
  return Value{std::move(o)};
}

template <typename T>
Value ordered_to_json(const OrderedDelta<T>& delta) {
  Object o;
  if (!delta.removed.empty()) o.set("removed", ids_to_json(delta.removed));
  if (!delta.inserted.empty()) {
    Array inserted;
    inserted.reserve(delta.inserted.size());
    for (const auto& insert : delta.inserted) {
      Object& i = new_object(inserted);
      i.reserve(2);
      if (!insert.after.empty()) i.set("after", insert.after);
      to_json(insert.entry, i.set("entry", Object{}).as_object());
    }
    o.set("inserted", std::move(inserted));
  }
  return Value{std::move(o)};
}

void to_json(const BisBisDelta& node, Object& out) {
  out.reserve(4);
  out.set("id", node.id);
  if (node.fields.has_value()) {
    bisbis_fields_to_json(*node.fields, out.set("node", Object{}).as_object());
  }
  if (!node.nfs.empty()) out.set("nfs", keyed_to_json(node.nfs));
  if (!node.flowrules.empty()) {
    out.set("flowrules", ordered_to_json(node.flowrules));
  }
}

/// The array member `key` of object `v` (empty when absent).
Result<const Array*> array_member(const Value& v, std::string_view key) {
  static const Array kNone;
  const Value* member = v.get(key);
  if (member == nullptr) return &kNone;
  if (!member->is_array()) {
    return Error{ErrorCode::kProtocol,
                 "delta " + std::string(key) + " must be an array"};
  }
  return &member->as_array();
}

Result<std::vector<std::string>> ids_from_json(const Value& v) {
  UNIFY_ASSIGN_OR_RETURN(const Array* ids, array_member(v, "removed"));
  std::vector<std::string> out;
  out.reserve(ids->size());
  for (const Value& id : *ids) {
    if (!id.is_string()) {
      return Error{ErrorCode::kProtocol, "delta ids must be strings"};
    }
    out.push_back(id.as_string());
  }
  return out;
}

template <typename T>
using Decoder = Result<void> (*)(const Value&, T&);

template <typename T>
Result<void> keyed_from_json(const Value* v, Decoder<T> decode,
                             KeyedDelta<T>& out) {
  if (v == nullptr) return Result<void>::success();
  if (!v->is_object()) {
    return Error{ErrorCode::kProtocol, "keyed delta must be an object"};
  }
  UNIFY_ASSIGN_OR_RETURN(out.removed, ids_from_json(*v));
  UNIFY_ASSIGN_OR_RETURN(const Array* upserted, array_member(*v, "upserted"));
  out.upserted.reserve(upserted->size());
  for (const Value& entry : *upserted) {
    UNIFY_RETURN_IF_ERROR(decode(entry, out.upserted.emplace_back()));
  }
  return Result<void>::success();
}

template <typename T>
Result<void> ordered_from_json(const Value* v, Decoder<T> decode,
                               OrderedDelta<T>& out) {
  if (v == nullptr) return Result<void>::success();
  if (!v->is_object()) {
    return Error{ErrorCode::kProtocol, "ordered delta must be an object"};
  }
  UNIFY_ASSIGN_OR_RETURN(out.removed, ids_from_json(*v));
  UNIFY_ASSIGN_OR_RETURN(const Array* inserted, array_member(*v, "inserted"));
  out.inserted.reserve(inserted->size());
  for (const Value& insert : *inserted) {
    const Value* entry = insert.get("entry");
    if (entry == nullptr) {
      return Error{ErrorCode::kProtocol, "delta insert needs an entry"};
    }
    auto& decoded = out.inserted.emplace_back();
    decoded.after = insert.get_string("after");
    UNIFY_RETURN_IF_ERROR(decode(*entry, decoded.entry));
  }
  return Result<void>::success();
}

Result<void> node_delta_from_json(const Value& v, BisBisDelta& out) {
  const Value* id = v.get("id");
  if (id == nullptr || !id->is_string()) {
    return Error{ErrorCode::kProtocol, "node delta needs a string id"};
  }
  out.id = id->as_string();
  if (const Value* fields = v.get("node")) {
    UNIFY_RETURN_IF_ERROR(bisbis_fields_from_json(*fields, out.fields.emplace()));
    out.fields->id = out.id;
  }
  UNIFY_RETURN_IF_ERROR(keyed_from_json(v.get("nfs"), &nf_from_json, out.nfs));
  return ordered_from_json(v.get("flowrules"), &flowrule_from_json,
                           out.flowrules);
}

}  // namespace

Result<NffgDelta> nffg_delta(const Nffg& base, const Nffg& target) {
  NffgDelta out;
  if (base.id() != target.id() || base.name() != target.name()) {
    out.graph.emplace(target.id(), target.name());
  }
  UNIFY_ASSIGN_OR_RETURN(out.saps, keyed_delta(base.saps(), target.saps()));
  static const std::map<std::string, NfInstance> kNoNfs;
  static const std::vector<Flowrule> kNoRules;
  UNIFY_RETURN_IF_ERROR(walk(
      base.bisbis(), target.bisbis(),
      [&](const std::string& id) { out.bisbis.removed.push_back(id); },
      [&](const BisBis* before, const BisBis& after) -> Result<void> {
        BisBisDelta node{after.id, std::nullopt, {}, {}};
        if (before == nullptr || !same_fields(*before, after)) {
          node.fields = own_fields(after);
        }
        UNIFY_ASSIGN_OR_RETURN(
            node.nfs,
            keyed_delta(before != nullptr ? before->nfs : kNoNfs, after.nfs));
        UNIFY_ASSIGN_OR_RETURN(
            node.flowrules,
            ordered_delta(before != nullptr ? before->flowrules : kNoRules,
                          after.flowrules));
        if (node.fields.has_value() || !node.nfs.empty() ||
            !node.flowrules.empty()) {
          out.bisbis.upserted.push_back(std::move(node));
        }
        return Result<void>::success();
      }));
  UNIFY_ASSIGN_OR_RETURN(out.links, keyed_delta(base.links(), target.links()));
  UNIFY_ASSIGN_OR_RETURN(out.hints,
                         ordered_delta(base.hints(), target.hints()));
  if (base.constraints() != target.constraints()) {
    out.constraints = target.constraints();
  }
  return out;
}

Result<void> apply_delta(Nffg& nffg, NffgDelta delta) {
  if (delta.graph.has_value()) {
    nffg.id_ = std::move(delta.graph->first);
    nffg.name_ = std::move(delta.graph->second);
  }
  UNIFY_RETURN_IF_ERROR(apply_keyed(nffg.saps_, std::move(delta.saps), "SAP"));
  for (const std::string& id : delta.bisbis.removed) {
    if (nffg.bisbis_.erase(id) == 0) {
      return Error{ErrorCode::kProtocol, "delta removes unknown BiS-BiS " + id};
    }
  }
  for (BisBisDelta& change : delta.bisbis.upserted) {
    auto it = nffg.bisbis_.find(change.id);
    if (it == nffg.bisbis_.end()) {
      if (!change.fields.has_value()) {
        return Error{ErrorCode::kProtocol,
                     "delta edits unknown BiS-BiS " + change.id};
      }
      it = nffg.bisbis_.emplace(change.id, BisBis{}).first;
    }
    BisBis& bb = it->second;
    if (change.fields.has_value()) {
      change.fields->nfs = std::move(bb.nfs);
      change.fields->flowrules = std::move(bb.flowrules);
      bb = *std::move(change.fields);
    }
    UNIFY_RETURN_IF_ERROR(apply_keyed(bb.nfs, std::move(change.nfs), "NF"));
    UNIFY_RETURN_IF_ERROR(
        apply_ordered(bb.flowrules, std::move(change.flowrules), "flowrule"));
  }
  UNIFY_RETURN_IF_ERROR(
      apply_keyed(nffg.links_, std::move(delta.links), "link"));
  UNIFY_RETURN_IF_ERROR(
      apply_ordered(nffg.hints_, std::move(delta.hints), "hint"));
  if (delta.constraints.has_value()) {
    nffg.constraints_ = *std::move(delta.constraints);
  }
  return nffg.check_references();
}

json::Value to_json(const NffgDelta& delta) {
  Object o;
  o.reserve(6);
  if (delta.graph.has_value()) {
    Object graph;
    graph.reserve(2);
    graph.set("id", delta.graph->first);
    graph.set("name", delta.graph->second);
    o.set("graph", std::move(graph));
  }
  if (!delta.saps.empty()) o.set("saps", keyed_to_json(delta.saps));
  if (!delta.bisbis.empty()) o.set("nodes", keyed_to_json(delta.bisbis));
  if (!delta.links.empty()) o.set("links", keyed_to_json(delta.links));
  if (!delta.hints.empty()) o.set("hints", ordered_to_json(delta.hints));
  if (delta.constraints.has_value()) {
    Array constraints;
    constraints.reserve(delta.constraints->size());
    for (const PlacementConstraint& c : *delta.constraints) {
      to_json(c, new_object(constraints));
    }
    o.set("constraints", std::move(constraints));
  }
  return Value{std::move(o)};
}

Result<NffgDelta> nffg_delta_from_json(const json::Value& value) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "delta must be a JSON object"};
  }
  NffgDelta out;
  if (const Value* graph = value.get("graph")) {
    out.graph.emplace(graph->get_string("id"), graph->get_string("name"));
  }
  UNIFY_RETURN_IF_ERROR(
      keyed_from_json(value.get("saps"), &sap_from_json, out.saps));
  UNIFY_RETURN_IF_ERROR(
      keyed_from_json(value.get("nodes"), &node_delta_from_json, out.bisbis));
  UNIFY_RETURN_IF_ERROR(
      keyed_from_json(value.get("links"), &link_from_json, out.links));
  UNIFY_RETURN_IF_ERROR(
      ordered_from_json(value.get("hints"), &hint_from_json, out.hints));
  if (value.get("constraints") != nullptr) {
    UNIFY_ASSIGN_OR_RETURN(const Array* constraints,
                           array_member(value, "constraints"));
    auto& parsed = out.constraints.emplace();
    parsed.reserve(constraints->size());
    for (const Value& cv : *constraints) {
      UNIFY_RETURN_IF_ERROR(constraint_from_json(cv, parsed.emplace_back()));
    }
  }
  return out;
}

}  // namespace unify::model
