// JSON codec for the NFFG — the wire form of the virtualizer model
// exchanged over the Unify interface (get-config / edit-config payloads).
//
// The schema mirrors the paper's Yang tree:
//   {"id": ..., "name": ...,
//    "saps": [{"id","name"}],
//    "nodes": [{"id","name","domain","type"?,"resources":{cpu,mem,storage},
//               "ports":[{"id","name"}], "nf_types":[...],
//               "internal_delay":ms,
//               "nfs":[{"id","type","resources":{...},"ports":[...],
//                        "status"}],
//               "flowrules":[{"id","in":"node:port","out":"node:port",
//                             "match_tag","set_tag","bandwidth"}]}],
//    "links": [{"id","from":"node:port","to":"node:port",
//               "bandwidth","delay","reserved"}]}
#pragma once

#include "json/json.h"
#include "model/nffg.h"
#include "util/result.h"

namespace unify::model {

[[nodiscard]] json::Value to_json(const Nffg& nffg);

/// Strict decode: unknown node kinds, dangling references or malformed port
/// refs fail with kProtocol / kInvalidArgument.
[[nodiscard]] Result<Nffg> nffg_from_json(const json::Value& value);

/// Per-element codecs: to_json / nffg_from_json are built from them, and
/// the edit-config delta (nffg_delta.h) ships elements in the same form.
/// An encoder fills the empty object `out` in place (so an array's
/// elements are built where they live); a decoder fills `out` and checks
/// the element's own shape only, references to other elements being the
/// container's business.
void to_json(const Sap& sap, json::Object& out);
[[nodiscard]] Result<void> sap_from_json(const json::Value& value, Sap& out);
/// A BiS-BiS's own fields: everything but its NFs and flowrules.
void bisbis_fields_to_json(const BisBis& bb, json::Object& out);
[[nodiscard]] Result<void> bisbis_fields_from_json(const json::Value& value,
                                                   BisBis& out);
void to_json(const NfInstance& nf, json::Object& out);
[[nodiscard]] Result<void> nf_from_json(const json::Value& value,
                                        NfInstance& out);
void to_json(const Flowrule& rule, json::Object& out);
[[nodiscard]] Result<void> flowrule_from_json(const json::Value& value,
                                              Flowrule& out);
void to_json(const Link& link, json::Object& out);
[[nodiscard]] Result<void> link_from_json(const json::Value& value,
                                          Link& out);
void to_json(const ServiceHint& hint, json::Object& out);
[[nodiscard]] Result<void> hint_from_json(const json::Value& value,
                                          ServiceHint& out);
void to_json(const PlacementConstraint& constraint, json::Object& out);
[[nodiscard]] Result<void> constraint_from_json(const json::Value& value,
                                                PlacementConstraint& out);

/// Convenience: serialize to a compact string / parse back.
[[nodiscard]] std::string to_json_string(const Nffg& nffg);
[[nodiscard]] Result<Nffg> nffg_from_json_string(std::string_view text);

/// "node:port" <-> PortRef (node ids may not contain ':').
[[nodiscard]] std::string port_ref_to_string(const PortRef& ref);
[[nodiscard]] Result<PortRef> port_ref_from_string(std::string_view text);

}  // namespace unify::model
