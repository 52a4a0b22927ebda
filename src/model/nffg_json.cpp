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

json::Value to_json(const Nffg& nffg) {
  Object root;
  root.reserve(7);
  root.set("id", nffg.id());
  if (!nffg.name().empty()) root.set("name", nffg.name());

  Array saps;
  saps.reserve(nffg.saps().size());
  for (const auto& [id, sap] : nffg.saps()) {
    Object o;
    o.reserve(2);
    o.set("id", sap.id);
    if (!sap.name.empty()) o.set("name", sap.name);
    saps.emplace_back(std::move(o));
  }
  root.set("saps", std::move(saps));

  Array nodes;
  nodes.reserve(nffg.bisbis().size());
  for (const auto& [id, bb] : nffg.bisbis()) {
    Object o;
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

    Array nfs;
    nfs.reserve(bb.nfs.size());
    for (const auto& [nf_id, nf] : bb.nfs) {
      Object n;
      n.reserve(5);
      n.set("id", nf.id);
      n.set("type", nf.type);
      n.set("resources", resources_to_json(nf.requirement));
      n.set("ports", ports_to_json(nf.ports));
      n.set("status", to_string(nf.status));
      nfs.emplace_back(std::move(n));
    }
    o.set("nfs", std::move(nfs));

    Array rules;
    rules.reserve(bb.flowrules.size());
    for (const Flowrule& fr : bb.flowrules) {
      Object r;
      r.reserve(6);
      r.set("id", fr.id);
      r.set("in", fr.in.to_string());
      r.set("out", fr.out.to_string());
      if (!fr.match_tag.empty()) r.set("match_tag", fr.match_tag);
      if (!fr.set_tag.empty()) r.set("set_tag", fr.set_tag);
      if (fr.bandwidth != 0) r.set("bandwidth", fr.bandwidth);
      rules.emplace_back(std::move(r));
    }
    o.set("flowrules", std::move(rules));
    nodes.emplace_back(std::move(o));
  }
  root.set("nodes", std::move(nodes));

  Array links;
  links.reserve(nffg.links().size());
  for (const auto& [id, link] : nffg.links()) {
    Object o;
    o.reserve(6);
    o.set("id", link.id);
    o.set("from", link.from.to_string());
    o.set("to", link.to.to_string());
    o.set("bandwidth", link.attrs.bandwidth);
    o.set("delay", link.attrs.delay);
    if (link.reserved != 0) o.set("reserved", link.reserved);
    links.emplace_back(std::move(o));
  }
  root.set("links", std::move(links));

  if (!nffg.hints().empty()) {
    Array hints;
    hints.reserve(nffg.hints().size());
    for (const ServiceHint& hint : nffg.hints()) {
      Object o;
      o.reserve(6);
      o.set("id", hint.id);
      o.set("from", hint.from_sap);
      o.set("to", hint.to_sap);
      if (hint.max_delay != std::numeric_limits<double>::infinity()) {
        o.set("max_delay", hint.max_delay);
      }
      if (hint.min_bandwidth != 0) o.set("min_bandwidth", hint.min_bandwidth);
      if (!hint.via.empty()) o.set("via", hint.via);
      hints.emplace_back(std::move(o));
    }
    root.set("hints", std::move(hints));
  }

  if (!nffg.constraints().empty()) {
    Array constraints;
    constraints.reserve(nffg.constraints().size());
    for (const PlacementConstraint& c : nffg.constraints()) {
      Object o;
      o.reserve(3);
      o.set("kind", to_string(c.kind));
      o.set("nf", c.nf_a);
      if (c.kind == ConstraintKind::kAntiAffinity) {
        o.set("peer", c.nf_b);
      } else {
        o.set("host", c.host);
      }
      constraints.emplace_back(std::move(o));
    }
    root.set("constraints", std::move(constraints));
  }
  return Value{std::move(root)};
}

Result<Nffg> nffg_from_json(const json::Value& value) {
  if (!value.is_object()) {
    return Error{ErrorCode::kProtocol, "NFFG must be a JSON object"};
  }
  Nffg nffg{string_at(value, "id"), string_at(value, "name")};

  if (const Value* saps = value.get("saps")) {
    if (!saps->is_array()) {
      return Error{ErrorCode::kProtocol, "saps must be an array"};
    }
    for (const Value& sv : saps->as_array()) {
      if (!sv.is_object()) {
        return Error{ErrorCode::kProtocol, "sap must be an object"};
      }
      UNIFY_RETURN_IF_ERROR(
          nffg.add_sap(Sap{string_at(sv, "id"), string_at(sv, "name")}));
    }
  }

  if (const Value* nodes = value.get("nodes")) {
    if (!nodes->is_array()) {
      return Error{ErrorCode::kProtocol, "nodes must be an array"};
    }
    for (const Value& nv : nodes->as_array()) {
      if (!nv.is_object()) {
        return Error{ErrorCode::kProtocol, "node must be an object"};
      }
      BisBis bb;
      bb.id = string_at(nv, "id");
      bb.name = string_at(nv, "name");
      bb.domain = string_at(nv, "domain");
      if (const Value* res = nv.get("resources")) {
        bb.capacity = resources_from_json(*res);
      }
      UNIFY_ASSIGN_OR_RETURN(bb.ports, ports_from_json(nv.get("ports")));
      if (const Value* types = nv.get("nf_types")) {
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
      bb.internal_delay = nv.get_number("internal_delay");

      // NFs and flowrules are attached after the node exists so the usual
      // reference checks run; NF placement is forced because a serialized
      // view may legitimately be overcommitted mid-migration.
      std::vector<NfInstance> nfs;
      if (const Value* nfs_json = nv.get("nfs")) {
        if (!nfs_json->is_array()) {
          return Error{ErrorCode::kProtocol, "nfs must be an array"};
        }
        for (const Value& nfv : nfs_json->as_array()) {
          if (!nfv.is_object()) {
            return Error{ErrorCode::kProtocol, "nf must be an object"};
          }
          NfInstance nf;
          nf.id = string_at(nfv, "id");
          nf.type = string_at(nfv, "type");
          if (const Value* res = nfv.get("resources")) {
            nf.requirement = resources_from_json(*res);
          }
          UNIFY_ASSIGN_OR_RETURN(nf.ports, ports_from_json(nfv.get("ports")));
          const Value* status_json = nfv.get("status");
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
          nfs.push_back(std::move(nf));
        }
      }
      std::vector<Flowrule> rules;
      if (const Value* rules_json = nv.get("flowrules")) {
        if (!rules_json->is_array()) {
          return Error{ErrorCode::kProtocol, "flowrules must be an array"};
        }
        rules.reserve(rules_json->as_array().size());
        for (const Value& rv : rules_json->as_array()) {
          if (!rv.is_object()) {
            return Error{ErrorCode::kProtocol, "flowrule must be an object"};
          }
          Flowrule fr;
          fr.id = string_at(rv, "id");
          UNIFY_ASSIGN_OR_RETURN(fr.in,
                                 port_ref_from_string(string_at(rv, "in")));
          UNIFY_ASSIGN_OR_RETURN(fr.out,
                                 port_ref_from_string(string_at(rv, "out")));
          fr.match_tag = string_at(rv, "match_tag");
          fr.set_tag = string_at(rv, "set_tag");
          fr.bandwidth = rv.get_number("bandwidth");
          rules.push_back(std::move(fr));
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

  if (const Value* links = value.get("links")) {
    if (!links->is_array()) {
      return Error{ErrorCode::kProtocol, "links must be an array"};
    }
    for (const Value& lv : links->as_array()) {
      if (!lv.is_object()) {
        return Error{ErrorCode::kProtocol, "link must be an object"};
      }
      Link link;
      link.id = string_at(lv, "id");
      UNIFY_ASSIGN_OR_RETURN(link.from,
                             port_ref_from_string(string_at(lv, "from")));
      UNIFY_ASSIGN_OR_RETURN(link.to,
                             port_ref_from_string(string_at(lv, "to")));
      link.attrs.bandwidth = lv.get_number("bandwidth");
      link.attrs.delay = lv.get_number("delay");
      link.reserved = lv.get_number("reserved");
      UNIFY_RETURN_IF_ERROR(nffg.add_link(std::move(link)));
    }
  }

  if (const Value* hints = value.get("hints")) {
    if (!hints->is_array()) {
      return Error{ErrorCode::kProtocol, "hints must be an array"};
    }
    std::vector<ServiceHint> parsed;
    parsed.reserve(hints->as_array().size());
    for (const Value& hv : hints->as_array()) {
      if (!hv.is_object()) {
        return Error{ErrorCode::kProtocol, "hint must be an object"};
      }
      ServiceHint hint;
      hint.id = string_at(hv, "id");
      hint.from_sap = string_at(hv, "from");
      hint.to_sap = string_at(hv, "to");
      hint.max_delay = hv.get_number(
          "max_delay", std::numeric_limits<double>::infinity());
      hint.min_bandwidth = hv.get_number("min_bandwidth");
      hint.via = string_at(hv, "via");
      parsed.push_back(std::move(hint));
    }
    UNIFY_RETURN_IF_ERROR(nffg.add_hints(std::move(parsed)));
  }

  if (const Value* constraints = value.get("constraints")) {
    if (!constraints->is_array()) {
      return Error{ErrorCode::kProtocol, "constraints must be an array"};
    }
    for (const Value& cv : constraints->as_array()) {
      if (!cv.is_object()) {
        return Error{ErrorCode::kProtocol, "constraint must be an object"};
      }
      PlacementConstraint c;
      const std::string& kind = string_at(cv, "kind");
      if (kind == "anti-affinity") {
        c.kind = ConstraintKind::kAntiAffinity;
        c.nf_b = string_at(cv, "peer");
      } else if (kind == "pin") {
        c.kind = ConstraintKind::kPin;
        c.host = string_at(cv, "host");
      } else if (kind == "forbid") {
        c.kind = ConstraintKind::kForbid;
        c.host = string_at(cv, "host");
      } else {
        return Error{ErrorCode::kProtocol,
                     "unknown constraint kind '" + kind + "'"};
      }
      c.nf_a = string_at(cv, "nf");
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
