#include "model/nffg_json.h"

#include <charconv>
#include <limits>

#include "util/strings.h"

namespace unify::model {

namespace {

using json::Array;
using json::Object;
using json::Value;

/// The string member `key` of `v` by reference ("" when absent or not a
/// string): decoding copies each string once, into its destination.
const std::string& string_at(const Value& v, std::string_view key) {
  static const std::string kEmpty;
  const Value* member = v.get(key);
  return member != nullptr && member->is_string() ? member->as_string()
                                                  : kEmpty;
}

/// Appends an empty object to `array` and returns it, for an element
/// encoder to fill in place.
Object& new_object(Array& array) {
  return array.emplace_back(Object{}).as_object();
}

Value ports_to_json(const std::vector<Port>& ports) {
  Array arr;
  arr.reserve(ports.size());
  for (const Port& p : ports) {
    Object o;
    o.reserve(2);
    o.set("id", p.id);
    if (!p.name.empty()) o.set("name", p.name);
    arr.emplace_back(std::move(o));
  }
  return Value{std::move(arr)};
}

Value resources_to_json(const Resources& r) {
  Object o;
  o.reserve(3);
  o.set("cpu", r.cpu);
  o.set("mem", r.mem);
  o.set("storage", r.storage);
  return Value{std::move(o)};
}

Resources resources_from_json(const Value& v) {
  Resources r;
  r.cpu = v.get_number("cpu");
  r.mem = v.get_number("mem");
  r.storage = v.get_number("storage");
  return r;
}

Result<std::vector<Port>> ports_from_json(const Value* v) {
  std::vector<Port> ports;
  if (v == nullptr) return ports;
  if (!v->is_array()) {
    return Error{ErrorCode::kProtocol, "ports must be an array"};
  }
  ports.reserve(v->as_array().size());
  for (const Value& pv : v->as_array()) {
    if (!pv.is_object()) {
      return Error{ErrorCode::kProtocol, "port must be an object"};
    }
    const double id = pv.get_number("id");
    if (!(id >= std::numeric_limits<int>::min() &&
          id <= std::numeric_limits<int>::max())) {
      return Error{ErrorCode::kProtocol,
                   "port id " + strings::format_double(id) +
                       " is outside the int range"};
    }
    ports.push_back(Port{static_cast<int>(id), string_at(pv, "name")});
  }
  return ports;
}

}  // namespace

std::string port_ref_to_string(const PortRef& ref) {
  return ref.to_string();
}

Result<PortRef> port_ref_from_string(std::string_view text) {
  const auto colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= text.size()) {
    return Error{ErrorCode::kProtocol,
                 "malformed port ref '" + std::string(text) + "'"};
  }
  PortRef ref;
  ref.node = std::string(text.substr(0, colon));
  const std::string_view digits = text.substr(colon + 1);
  const auto [ptr, ec] = std::from_chars(
      digits.data(), digits.data() + digits.size(), ref.port);
  if (ec != std::errc{} || ptr != digits.data() + digits.size()) {
    return Error{ErrorCode::kProtocol,
                 "malformed port number in '" + std::string(text) + "'"};
  }
  return ref;
}

void to_json(const Sap& sap, json::Object& o) {
  o.reserve(2);
  o.set("id", sap.id);
  if (!sap.name.empty()) o.set("name", sap.name);
}

Result<void> sap_from_json(const json::Value& value, Sap& out) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "sap must be an object"};
  }
  out.id = string_at(value, "id");
  out.name = string_at(value, "name");
  return Result<void>::success();
}

void bisbis_fields_to_json(const BisBis& bb, json::Object& o) {
  o.reserve(9);
  o.set("id", bb.id);
  if (!bb.name.empty()) o.set("name", bb.name);
  if (!bb.domain.empty()) o.set("domain", bb.domain);
  o.set("resources", resources_to_json(bb.capacity));
  o.set("ports", ports_to_json(bb.ports));
  if (!bb.nf_types.empty()) {
    Array types;
    types.reserve(bb.nf_types.size());
    for (const std::string& t : bb.nf_types) types.emplace_back(t);
    o.set("nf_types", std::move(types));
  }
  if (bb.internal_delay != 0) o.set("internal_delay", bb.internal_delay);
}

Result<void> bisbis_fields_from_json(const json::Value& value, BisBis& bb) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "node must be an object"};
  }
  bb.id = string_at(value, "id");
  bb.name = string_at(value, "name");
  bb.domain = string_at(value, "domain");
  if (const Value* res = value.get("resources")) {
    bb.capacity = resources_from_json(*res);
  }
  UNIFY_ASSIGN_OR_RETURN(bb.ports, ports_from_json(value.get("ports")));
  if (const Value* types = value.get("nf_types")) {
    if (!types->is_array()) {
      return Error{ErrorCode::kProtocol, "nf_types must be an array"};
    }
    for (const Value& t : types->as_array()) {
      if (!t.is_string()) {
        return Error{ErrorCode::kProtocol, "nf_type must be a string"};
      }
      bb.nf_types.push_back(t.as_string());
    }
  }
  bb.internal_delay = value.get_number("internal_delay");
  return Result<void>::success();
}

void to_json(const NfInstance& nf, json::Object& n) {
  n.reserve(5);
  n.set("id", nf.id);
  n.set("type", nf.type);
  n.set("resources", resources_to_json(nf.requirement));
  n.set("ports", ports_to_json(nf.ports));
  n.set("status", to_string(nf.status));
}

Result<void> nf_from_json(const json::Value& value, NfInstance& nf) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "nf must be an object"};
  }
  nf.id = string_at(value, "id");
  nf.type = string_at(value, "type");
  if (const Value* res = value.get("resources")) {
    nf.requirement = resources_from_json(*res);
  }
  UNIFY_ASSIGN_OR_RETURN(nf.ports, ports_from_json(value.get("ports")));
  const Value* status_json = value.get("status");
  const std::string_view status =
      status_json != nullptr && status_json->is_string()
          ? std::string_view(status_json->as_string())
          : std::string_view("requested");
  const auto parsed = nf_status_from_string(status);
  if (!parsed.has_value()) {
    return Error{ErrorCode::kProtocol,
                 "unknown NF status '" + std::string(status) + "'"};
  }
  nf.status = *parsed;
  return Result<void>::success();
}

void to_json(const Flowrule& fr, json::Object& r) {
  r.reserve(6);
  r.set("id", fr.id);
  r.set("in", fr.in.to_string());
  r.set("out", fr.out.to_string());
  if (!fr.match_tag.empty()) r.set("match_tag", fr.match_tag);
  if (!fr.set_tag.empty()) r.set("set_tag", fr.set_tag);
  if (fr.bandwidth != 0) r.set("bandwidth", fr.bandwidth);
}

Result<void> flowrule_from_json(const json::Value& value, Flowrule& fr) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "flowrule must be an object"};
  }
  fr.id = string_at(value, "id");
  UNIFY_ASSIGN_OR_RETURN(fr.in, port_ref_from_string(string_at(value, "in")));
  UNIFY_ASSIGN_OR_RETURN(fr.out,
                         port_ref_from_string(string_at(value, "out")));
  fr.match_tag = string_at(value, "match_tag");
  fr.set_tag = string_at(value, "set_tag");
  fr.bandwidth = value.get_number("bandwidth");
  return Result<void>::success();
}

void to_json(const Link& link, json::Object& o) {
  o.reserve(6);
  o.set("id", link.id);
  o.set("from", link.from.to_string());
  o.set("to", link.to.to_string());
  o.set("bandwidth", link.attrs.bandwidth);
  o.set("delay", link.attrs.delay);
  if (link.reserved != 0) o.set("reserved", link.reserved);
}

Result<void> link_from_json(const json::Value& value, Link& link) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "link must be an object"};
  }
  link.id = string_at(value, "id");
  UNIFY_ASSIGN_OR_RETURN(link.from,
                         port_ref_from_string(string_at(value, "from")));
  UNIFY_ASSIGN_OR_RETURN(link.to,
                         port_ref_from_string(string_at(value, "to")));
  link.attrs.bandwidth = value.get_number("bandwidth");
  link.attrs.delay = value.get_number("delay");
  link.reserved = value.get_number("reserved");
  return Result<void>::success();
}

void to_json(const ServiceHint& hint, json::Object& o) {
  o.reserve(6);
  o.set("id", hint.id);
  o.set("from", hint.from_sap);
  o.set("to", hint.to_sap);
  if (hint.max_delay != std::numeric_limits<double>::infinity()) {
    o.set("max_delay", hint.max_delay);
  }
  if (hint.min_bandwidth != 0) o.set("min_bandwidth", hint.min_bandwidth);
  if (!hint.via.empty()) o.set("via", hint.via);
}

Result<void> hint_from_json(const json::Value& value, ServiceHint& hint) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "hint must be an object"};
  }
  hint.id = string_at(value, "id");
  hint.from_sap = string_at(value, "from");
  hint.to_sap = string_at(value, "to");
  hint.max_delay =
      value.get_number("max_delay", std::numeric_limits<double>::infinity());
  hint.min_bandwidth = value.get_number("min_bandwidth");
  hint.via = string_at(value, "via");
  return Result<void>::success();
}

void to_json(const PlacementConstraint& c, json::Object& o) {
  o.reserve(3);
  o.set("kind", to_string(c.kind));
  o.set("nf", c.nf_a);
  if (c.kind == ConstraintKind::kAntiAffinity) {
    o.set("peer", c.nf_b);
  } else {
    o.set("host", c.host);
  }
}

Result<void> constraint_from_json(const json::Value& value,
                                  PlacementConstraint& c) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "constraint must be an object"};
  }
  const std::string& kind = string_at(value, "kind");
  if (kind == "anti-affinity") {
    c.kind = ConstraintKind::kAntiAffinity;
    c.nf_b = string_at(value, "peer");
  } else if (kind == "pin") {
    c.kind = ConstraintKind::kPin;
    c.host = string_at(value, "host");
  } else if (kind == "forbid") {
    c.kind = ConstraintKind::kForbid;
    c.host = string_at(value, "host");
  } else {
    return Error{ErrorCode::kProtocol,
                 "unknown constraint kind '" + kind + "'"};
  }
  c.nf_a = string_at(value, "nf");
  return Result<void>::success();
}

json::Value to_json(const Nffg& nffg) {
  Object root;
  root.reserve(7);
  root.set("id", nffg.id());
  if (!nffg.name().empty()) root.set("name", nffg.name());

  Array saps;
  saps.reserve(nffg.saps().size());
  for (const auto& [id, sap] : nffg.saps()) to_json(sap, new_object(saps));
  root.set("saps", std::move(saps));

  Array nodes;
  nodes.reserve(nffg.bisbis().size());
  for (const auto& [id, bb] : nffg.bisbis()) {
    Object& o = new_object(nodes);
    bisbis_fields_to_json(bb, o);
    Array nfs;
    nfs.reserve(bb.nfs.size());
    for (const auto& [nf_id, nf] : bb.nfs) to_json(nf, new_object(nfs));
    o.set("nfs", std::move(nfs));
    Array rules;
    rules.reserve(bb.flowrules.size());
    for (const Flowrule& fr : bb.flowrules) to_json(fr, new_object(rules));
    o.set("flowrules", std::move(rules));
  }
  root.set("nodes", std::move(nodes));

  Array links;
  links.reserve(nffg.links().size());
  for (const auto& [id, link] : nffg.links()) to_json(link, new_object(links));
  root.set("links", std::move(links));

  if (!nffg.hints().empty()) {
    Array hints;
    hints.reserve(nffg.hints().size());
    for (const ServiceHint& hint : nffg.hints()) to_json(hint, new_object(hints));
    root.set("hints", std::move(hints));
  }

  if (!nffg.constraints().empty()) {
    Array constraints;
    constraints.reserve(nffg.constraints().size());
    for (const PlacementConstraint& c : nffg.constraints()) {
      to_json(c, new_object(constraints));
    }
    root.set("constraints", std::move(constraints));
  }
  return Value{std::move(root)};
}

namespace {

/// The array member `key` of `value`, or nullptr when absent; kProtocol
/// when present but not an array.
Result<const json::Array*> array_at(const json::Value& value,
                                    std::string_view key) {
  const Value* member = value.get(key);
  if (member == nullptr) return static_cast<const json::Array*>(nullptr);
  if (!member->is_array()) {
    return Error{ErrorCode::kProtocol,
                 std::string(key) + " must be an array"};
  }
  return &member->as_array();
}

}  // namespace

Result<Nffg> nffg_from_json(const json::Value& value) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "NFFG must be a JSON object"};
  }
  Nffg nffg{string_at(value, "id"), string_at(value, "name")};

  UNIFY_ASSIGN_OR_RETURN(const json::Array* saps, array_at(value, "saps"));
  if (saps != nullptr) {
    for (const Value& sv : *saps) {
      Sap sap;
      UNIFY_RETURN_IF_ERROR(sap_from_json(sv, sap));
      UNIFY_RETURN_IF_ERROR(nffg.add_sap(std::move(sap)));
    }
  }

  UNIFY_ASSIGN_OR_RETURN(const json::Array* nodes, array_at(value, "nodes"));
  if (nodes != nullptr) {
    for (const Value& nv : *nodes) {
      BisBis bb;
      UNIFY_RETURN_IF_ERROR(bisbis_fields_from_json(nv, bb));
      // NFs and flowrules are attached after the node exists so the usual
      // reference checks run; NF placement is forced because a serialized
      // view may legitimately be overcommitted mid-migration.
      std::vector<NfInstance> nfs;
      UNIFY_ASSIGN_OR_RETURN(const json::Array* nfs_json,
                             array_at(nv, "nfs"));
      if (nfs_json != nullptr) {
        nfs.reserve(nfs_json->size());
        for (const Value& nfv : *nfs_json) {
          UNIFY_RETURN_IF_ERROR(nf_from_json(nfv, nfs.emplace_back()));
        }
      }
      std::vector<Flowrule> rules;
      UNIFY_ASSIGN_OR_RETURN(const json::Array* rules_json,
                             array_at(nv, "flowrules"));
      if (rules_json != nullptr) {
        rules.reserve(rules_json->size());
        for (const Value& rv : *rules_json) {
          UNIFY_RETURN_IF_ERROR(flowrule_from_json(rv, rules.emplace_back()));
        }
      }

      const std::string bb_id = bb.id;
      UNIFY_RETURN_IF_ERROR(nffg.add_bisbis(std::move(bb)));
      for (NfInstance& nf : nfs) {
        UNIFY_RETURN_IF_ERROR(nffg.place_nf(bb_id, std::move(nf),
                                            /*force=*/true));
      }
      UNIFY_RETURN_IF_ERROR(nffg.add_flowrules(bb_id, std::move(rules)));
    }
  }

  UNIFY_ASSIGN_OR_RETURN(const json::Array* links, array_at(value, "links"));
  if (links != nullptr) {
    for (const Value& lv : *links) {
      Link link;
      UNIFY_RETURN_IF_ERROR(link_from_json(lv, link));
      UNIFY_RETURN_IF_ERROR(nffg.add_link(std::move(link)));
    }
  }

  UNIFY_ASSIGN_OR_RETURN(const json::Array* hints, array_at(value, "hints"));
  if (hints != nullptr) {
    std::vector<ServiceHint> parsed;
    parsed.reserve(hints->size());
    for (const Value& hv : *hints) {
      UNIFY_RETURN_IF_ERROR(hint_from_json(hv, parsed.emplace_back()));
    }
    UNIFY_RETURN_IF_ERROR(nffg.add_hints(std::move(parsed)));
  }

  UNIFY_ASSIGN_OR_RETURN(const json::Array* constraints,
                         array_at(value, "constraints"));
  if (constraints != nullptr) {
    for (const Value& cv : *constraints) {
      PlacementConstraint c;
      UNIFY_RETURN_IF_ERROR(constraint_from_json(cv, c));
      UNIFY_RETURN_IF_ERROR(nffg.add_constraint(std::move(c)));
    }
  }

  return nffg;
}

std::string to_json_string(const Nffg& nffg) { return to_json(nffg).dump(); }

Result<Nffg> nffg_from_json_string(std::string_view text) {
  UNIFY_ASSIGN_OR_RETURN(json::Value value, json::parse(text));
  return nffg_from_json(value);
}

}  // namespace unify::model
