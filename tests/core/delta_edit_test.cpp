// Conditional edit-config (DESIGN.md §13). Once a server has accepted a
// config in full and named its version, UnifyClientAdapter sends the next
// edit as the delta from that config (model/nffg_delta.h), conditional on
// the version. These tests pin that a delta always rebuilds exactly the
// config a full edit would have carried, that a stale base falls back to
// a full resend, that the kept config is dropped whenever it may no
// longer match the server's, and that old and new peers interoperate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/unify_api.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_delta.h"
#include "model/nffg_json.h"
#include "service/service_layer.h"

namespace unify::core {
namespace {

/// Accepts every push.
class AcceptAllAdapter final : public adapters::DomainAdapter {
 public:
  AcceptAllAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override { return view_; }
  Result<void> apply(const model::Nffg&) override {
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return 0;
  }

 private:
  std::string name_;
  model::Nffg view_;
};

/// Domain i: bb<i> with customer SAPs sap<2i> (port 0) and sap<2i+1>
/// (port 1), stitched to the other domain through "x" (port 2).
model::Nffg domain_view(int i, double cpu) {
  const std::string bb = "bb" + std::to_string(i);
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis(bb, {cpu, 1024 * cpu, 200}, 3, 0.05))
          .ok());
  model::attach_sap(g, "sap" + std::to_string(2 * i), bb, 0, {1000, 0.1});
  model::attach_sap(g, "sap" + std::to_string(2 * i + 1), bb, 1, {1000, 0.1});
  model::attach_sap(g, "x", bb, 2, {1000, 0.5});
  return g;
}

/// Two accept-all domains under one RO and one virtualizer.
struct Stack {
  explicit Stack(ViewPolicy policy, double cpu = 16) {
    ro = std::make_unique<ResourceOrchestrator>(
        "ro", std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(ro->add_domain(std::make_unique<AcceptAllAdapter>(
                                     "d" + std::to_string(i),
                                     domain_view(i, cpu)))
                      .ok());
    }
    EXPECT_TRUE(ro->initialize().ok());
    virtualizer = std::make_unique<Virtualizer>(*ro, policy);
  }
  [[nodiscard]] model::Nffg view() const {
    auto config = virtualizer->get_config();
    EXPECT_TRUE(config.ok());
    return config.ok() ? *std::move(config) : model::Nffg{};
  }

  std::unique_ptr<ResourceOrchestrator> ro;
  std::unique_ptr<Virtualizer> virtualizer;
};

/// The bytes `config` has once a server decoded it.
std::string decoded_bytes(const model::Nffg& config) {
  const auto decoded = model::nffg_from_json(model::to_json(config));
  EXPECT_TRUE(decoded.ok()) << decoded.error().to_string();
  return decoded.ok() ? model::to_json(*decoded).dump() : std::string{};
}

// ------------------------------------------------------------ property

/// Seeded edits of a config: every kind of element added, removed and
/// changed, lists reordered, doubles set past the six significant digits
/// the wire keeps (and to -0.0, which prints apart from 0.0). Each edit
/// leaves a config nffg_from_json accepts.
class Editor {
 public:
  explicit Editor(std::uint64_t seed) : rng_(seed) {}

  static constexpr int kKinds = 16;
  /// Applies one edit of a random kind; returns the kind.
  int edit(model::Nffg& g) {
    const int kind = static_cast<int>(pick(kKinds));
    switch (kind) {
      case 0: add_nf(g); break;
      case 1: remove_nf(g); break;
      case 2: change_nf(g); break;
      case 3: add_rule(g); break;
      case 4: remove_rule(g); break;
      case 5: change_rule(g); break;
      case 6: move_rule(g); break;
      case 7: add_hint(g); break;
      case 8: remove_or_change_hint(g); break;
      case 9: add_constraint(g); break;
      case 10: remove_or_change_constraint(g); break;
      case 11: change_link(g); break;
      case 12: change_saps(g); break;
      case 13: change_bisbis_fields(g); break;
      case 14: add_or_remove_bisbis(g); break;
      default: rename_graph(g); break;
    }
    return kind;
  }

 private:
  /// The whole config as plain parts, for edits the Nffg API has no
  /// setter for; build() adds them back through the checked API.
  struct Parts {
    std::string id, name;
    std::map<std::string, model::Sap> saps;
    std::map<std::string, model::BisBis> bisbis;
    std::map<std::string, model::Link> links;
    std::vector<model::ServiceHint> hints;
    std::vector<model::PlacementConstraint> constraints;
  };
  static Parts parts(const model::Nffg& g) {
    return Parts{g.id(),    g.name(),  g.saps(),       g.bisbis(),
                 g.links(), g.hints(), g.constraints()};
  }
  static model::Nffg build(Parts p) {
    model::Nffg g{p.id, p.name};
    for (auto& [id, sap] : p.saps) EXPECT_TRUE(g.add_sap(sap).ok());
    for (auto& [id, bb] : p.bisbis) EXPECT_TRUE(g.add_bisbis(bb).ok());
    for (auto& [id, link] : p.links) EXPECT_TRUE(g.add_link(link).ok()) << id;
    EXPECT_TRUE(g.add_hints(p.hints).ok());
    for (auto& c : p.constraints) EXPECT_TRUE(g.add_constraint(c).ok());
    return g;
  }
  void rebuild(model::Nffg& g, const std::function<void(Parts&)>& edit) {
    Parts p = parts(g);
    edit(p);
    g = build(std::move(p));
  }

  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }
  /// A double the wire rounds: more than six significant digits, now and
  /// then a negative zero.
  double precise(double scale) {
    if (pick(12) == 0) return -0.0;
    return scale * (1 + static_cast<double>(pick(1000)) / 7.0) +
           1e-7 * static_cast<double>(1 + pick(999));
  }
  std::string fresh(const char* prefix) {
    return prefix + std::to_string(next_id_++);
  }
  model::BisBis* any_bisbis(model::Nffg& g) {
    if (g.bisbis().empty()) return nullptr;
    auto it = g.bisbis().begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(g.bisbis().size())));
    return &it->second;
  }
  std::vector<std::string> nf_ids(const model::Nffg& g) {
    std::vector<std::string> out;
    for (const auto& [bb_id, bb] : g.bisbis()) {
      for (const auto& [id, nf] : bb.nfs) out.push_back(id);
    }
    return out;
  }
  std::vector<std::string> sap_ids(const model::Nffg& g) {
    std::vector<std::string> out;
    for (const auto& [id, sap] : g.saps()) out.push_back(id);
    return out;
  }
  /// A port a flowrule on `bb` may name: the node's own or an NF's.
  model::PortRef any_port(const model::BisBis& bb) {
    std::vector<model::PortRef> ports;
    for (const model::Port& p : bb.ports) ports.push_back({bb.id, p.id});
    for (const auto& [id, nf] : bb.nfs) {
      for (const model::Port& p : nf.ports) ports.push_back({id, p.id});
    }
    return ports[pick(ports.size())];
  }

  void add_nf(model::Nffg& g) {
    model::BisBis* bb = any_bisbis(g);
    if (bb == nullptr) return;
    model::NfInstance nf = model::make_nf(
        fresh("nf"), pick(2) == 0 ? "nat" : "fw-lite",
        {precise(1), precise(512), precise(1)}, 2 + static_cast<int>(pick(2)));
    nf.status = static_cast<model::NfStatus>(pick(5));
    EXPECT_TRUE(g.place_nf(bb->id, std::move(nf), /*force=*/true).ok());
  }
  void remove_nf(model::Nffg& g) {
    const auto ids = nf_ids(g);
    if (ids.empty()) return;
    const std::string id = ids[pick(ids.size())];
    EXPECT_TRUE(g.remove_nf(g.find_nf(id)->first, id).ok());
  }
  void change_nf(model::Nffg& g) {
    const auto ids = nf_ids(g);
    if (ids.empty()) return;
    const std::string id = ids[pick(ids.size())];
    model::NfInstance& nf = g.find_bisbis(g.find_nf(id)->first)->nfs.at(id);
    switch (pick(3)) {
      case 0: nf.requirement.cpu = precise(1); break;
      case 1: nf.status = static_cast<model::NfStatus>(pick(5)); break;
      default: nf.type = nf.type == "nat" ? "fw-lite" : "nat"; break;
    }
  }
  void add_rule(model::Nffg& g) {
    model::BisBis* bb = any_bisbis(g);
    if (bb == nullptr) return;
    model::Flowrule rule{fresh("r"), any_port(*bb), any_port(*bb),
                         pick(2) == 0 ? "" : fresh("t"), "", precise(10)};
    if (pick(4) == 0) rule.set_tag = "-";
    bb->flowrules.insert(
        bb->flowrules.begin() +
            static_cast<std::ptrdiff_t>(pick(bb->flowrules.size() + 1)),
        std::move(rule));
  }
  model::BisBis* bisbis_with_rules(model::Nffg& g) {
    model::BisBis* bb = any_bisbis(g);
    return bb == nullptr || bb->flowrules.empty() ? nullptr : bb;
  }
  void remove_rule(model::Nffg& g) {
    if (model::BisBis* bb = bisbis_with_rules(g)) {
      bb->flowrules.erase(bb->flowrules.begin() + static_cast<std::ptrdiff_t>(
                                                      pick(bb->flowrules.size())));
    }
  }
  void change_rule(model::Nffg& g) {
    model::BisBis* bb = bisbis_with_rules(g);
    if (bb == nullptr) return;
    model::Flowrule& rule = bb->flowrules[pick(bb->flowrules.size())];
    switch (pick(3)) {
      case 0: rule.bandwidth = precise(10); break;
      case 1: rule.match_tag = rule.match_tag.empty() ? fresh("t") : ""; break;
      default: rule.out = any_port(*bb); break;
    }
  }
  void move_rule(model::Nffg& g) {
    model::BisBis* bb = bisbis_with_rules(g);
    if (bb == nullptr) return;
    auto& rules = bb->flowrules;
    const std::size_t from = pick(rules.size());
    model::Flowrule rule = rules[from];
    rules.erase(rules.begin() + static_cast<std::ptrdiff_t>(from));
    rules.insert(rules.begin() +
                     static_cast<std::ptrdiff_t>(pick(rules.size() + 1)),
                 std::move(rule));
  }
  void add_hint(model::Nffg& g) {
    const auto saps = sap_ids(g);
    if (saps.empty()) return;
    model::ServiceHint hint{fresh("h"), saps[pick(saps.size())],
                            saps[pick(saps.size())],
                            pick(3) == 0
                                ? std::numeric_limits<double>::infinity()
                                : precise(20),
                            pick(2) == 0 ? 0 : precise(5)};
    if (pick(2) == 0) hint.via = fresh("r");
    rebuild(g, [&](Parts& p) {
      p.hints.insert(p.hints.begin() + static_cast<std::ptrdiff_t>(
                                           pick(p.hints.size() + 1)),
                     hint);
    });
  }
  void remove_or_change_hint(model::Nffg& g) {
    if (g.hints().empty()) return;
    rebuild(g, [&](Parts& p) {
      const std::size_t at = pick(p.hints.size());
      switch (pick(3)) {
        case 0:
          p.hints.erase(p.hints.begin() + static_cast<std::ptrdiff_t>(at));
          break;
        case 1: p.hints[at].max_delay = precise(20); break;
        default:
          std::swap(p.hints[at], p.hints[pick(p.hints.size())]);
          break;
      }
    });
  }
  void add_constraint(model::Nffg& g) {
    const auto ids = nf_ids(g);
    if (ids.empty()) return;
    model::PlacementConstraint c;
    c.nf_a = ids[pick(ids.size())];
    switch (pick(3)) {
      case 0:
        c.kind = model::ConstraintKind::kAntiAffinity;
        c.nf_b = ids[pick(ids.size())];
        break;
      case 1:
        c.kind = model::ConstraintKind::kPin;
        c.host = any_bisbis(g)->id;
        break;
      default:
        c.kind = model::ConstraintKind::kForbid;
        c.host = any_bisbis(g)->id;
        break;
    }
    EXPECT_TRUE(g.add_constraint(std::move(c)).ok());
  }
  void remove_or_change_constraint(model::Nffg& g) {
    if (g.constraints().empty()) return;
    rebuild(g, [&](Parts& p) {
      const std::size_t at = pick(p.constraints.size());
      if (pick(2) == 0) {
        p.constraints.erase(p.constraints.begin() +
                            static_cast<std::ptrdiff_t>(at));
      } else {
        std::swap(p.constraints[at], p.constraints[pick(p.constraints.size())]);
      }
    });
  }
  void change_link(model::Nffg& g) {
    if (g.links().empty()) return;
    auto it = g.links().begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(g.links().size())));
    model::Link& link = it->second;
    switch (pick(4)) {
      case 0: link.reserved = pick(3) == 0 ? 0 : precise(10); break;
      case 1: link.attrs.delay = precise(0.1); break;
      case 2: link.attrs.bandwidth = precise(1000); break;
      default:
        // Every delay to a zero of the other sign: 0.0 == -0.0, but the
        // two print apart.
        for (auto& [id, l] : g.links()) {
          l.attrs.delay = std::signbit(l.attrs.delay) ? 0.0 : -0.0;
        }
        break;
    }
  }
  void change_saps(model::Nffg& g) {
    model::BisBis* bb = any_bisbis(g);
    switch (pick(3)) {
      case 0: {
        // A new SAP wired to a fresh port of some node.
        if (bb == nullptr) return;
        const std::string sap = fresh("sap-new");
        const int port = bb->ports.empty() ? 0 : bb->ports.back().id + 1;
        bb->ports.push_back(model::Port{port, ""});
        model::attach_sap(g, sap, bb->id, port, {precise(1000), precise(0.1)});
        return;
      }
      case 1: {
        // Drop a SAP with its links and the hints naming it.
        const auto saps = sap_ids(g);
        if (saps.empty()) return;
        const std::string gone = saps[pick(saps.size())];
        rebuild(g, [&](Parts& p) {
          p.saps.erase(gone);
          std::erase_if(p.links, [&](const auto& entry) {
            return entry.second.from.node == gone ||
                   entry.second.to.node == gone;
          });
          std::erase_if(p.hints, [&](const model::ServiceHint& h) {
            return h.from_sap == gone || h.to_sap == gone;
          });
        });
        return;
      }
      default: {
        const auto saps = sap_ids(g);
        if (saps.empty()) return;
        const std::string id = saps[pick(saps.size())];
        rebuild(g, [&](Parts& p) { p.saps.at(id).name = fresh("name"); });
        return;
      }
    }
  }
  void change_bisbis_fields(model::Nffg& g) {
    model::BisBis* bb = any_bisbis(g);
    if (bb == nullptr) return;
    switch (pick(6)) {
      case 0: bb->name = fresh("node"); break;
      case 1: bb->domain = bb->domain.empty() ? fresh("dom") : ""; break;
      case 2: bb->capacity.mem = precise(1024); break;
      case 3: bb->internal_delay = precise(0.05); break;
      case 4: bb->ports.push_back(
                  model::Port{bb->ports.empty() ? 0 : bb->ports.back().id + 1,
                              fresh("p")});
        break;
      default:
        if (bb->nf_types.empty()) {
          bb->nf_types = {"nat", "fw-lite"};
        } else {
          bb->nf_types.clear();
        }
        break;
    }
  }
  void add_or_remove_bisbis(model::Nffg& g) {
    if (g.bisbis().size() < 2 || pick(2) == 0) {
      EXPECT_TRUE(g.add_bisbis(model::make_bisbis(fresh("bb-new"),
                                                  {precise(8), 8192, 100}, 2,
                                                  precise(0.05)))
                      .ok());
      return;
    }
    const std::string gone = any_bisbis(g)->id;
    rebuild(g, [&](Parts& p) {
      std::vector<std::string> nfs;
      for (const auto& [id, nf] : p.bisbis.at(gone).nfs) nfs.push_back(id);
      p.bisbis.erase(gone);
      std::erase_if(p.links, [&](const auto& entry) {
        return entry.second.from.node == gone || entry.second.to.node == gone;
      });
      std::erase_if(p.constraints, [&](const model::PlacementConstraint& c) {
        return std::find(nfs.begin(), nfs.end(), c.nf_a) != nfs.end() ||
               std::find(nfs.begin(), nfs.end(), c.nf_b) != nfs.end();
      });
    });
  }
  void rename_graph(model::Nffg& g) {
    rebuild(g, [&](Parts& p) {
      if (pick(2) == 0) {
        p.id = fresh("graph");
      } else {
        p.name = p.name.empty() ? fresh("name") : "";
      }
    });
  }

  std::mt19937_64 rng_;
  int next_id_ = 0;
};

/// Applying decode(encode(delta)) to the decoded base gives the decoded
/// target byte for byte, over seeded edit sequences on each view policy's
/// config.
TEST(DeltaEdit, DecodedDeltaRebuildsTargetByteForByte) {
  constexpr int kEdits = 600;
  for (const ViewPolicy policy : {ViewPolicy::kSingleBisBis, ViewPolicy::kFull}) {
    SCOPED_TRACE(policy == ViewPolicy::kFull ? "full view" : "single view");
    Stack stack(policy);
    model::Nffg base = stack.view();
    Editor editor(policy == ViewPolicy::kFull ? 2802 : 2801);
    std::vector<int> kinds(Editor::kKinds, 0);
    std::size_t delta_bytes = 0, full_bytes = 0;
    for (int step = 0; step < kEdits; ++step) {
      SCOPED_TRACE("edit " + std::to_string(step));
      model::Nffg target = base;
      for (int n = 0; n < 1 + step % 3; ++n) ++kinds[editor.edit(target)];
      if (::testing::Test::HasFailure()) return;

      const auto delta = model::nffg_delta(base, target);
      ASSERT_TRUE(delta.ok()) << delta.error().to_string();
      const std::string wire = model::to_json(*delta).dump();
      const auto parsed = json::parse(wire);
      ASSERT_TRUE(parsed.ok());
      auto decoded = model::nffg_delta_from_json(*parsed);
      ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
      auto rebuilt = model::nffg_from_json(model::to_json(base));
      ASSERT_TRUE(rebuilt.ok());
      const auto applied = model::apply_delta(*rebuilt, *std::move(decoded));
      ASSERT_TRUE(applied.ok()) << applied.error().to_string();
      const std::string expected = decoded_bytes(target);
      ASSERT_EQ(model::to_json(*rebuilt).dump(), expected) << wire;
      delta_bytes += wire.size();
      full_bytes += expected.size();
      base = std::move(target);
    }
    for (int kind = 0; kind < Editor::kKinds; ++kind) {
      EXPECT_GE(kinds[static_cast<std::size_t>(kind)], 20) << "kind " << kind;
    }
    EXPECT_LT(delta_bytes, full_bytes / 4);
  }
}

TEST(DeltaEdit, IdenticalConfigsGiveAnEmptyDelta) {
  Stack stack(ViewPolicy::kFull);
  const model::Nffg view = stack.view();
  const auto delta = model::nffg_delta(view, view);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(model::to_json(*delta).dump(), "{}");
}

TEST(DeltaEdit, ConfigsWithoutAnExactDeltaAreRefused) {
  Stack stack(ViewPolicy::kSingleBisBis);
  const model::Nffg base = stack.view();
  model::Nffg target = base;
  model::BisBis& bb = target.bisbis().begin()->second;
  const model::Flowrule rule{"dup", {bb.id, 0}, {bb.id, 1}, "", "", 1};
  bb.flowrules = {rule, rule};
  EXPECT_EQ(model::nffg_delta(base, target).error().code,
            ErrorCode::kInvalidArgument);
}

/// A delta whose target nffg_from_json would refuse is refused with the
/// same error.
TEST(DeltaEdit, ApplyRefusesWhatTheFullDecodeRefuses) {
  Stack stack(ViewPolicy::kSingleBisBis);
  const model::Nffg base = stack.view();
  model::Nffg target = base;
  model::BisBis& bb = target.bisbis().begin()->second;
  bb.flowrules.push_back(
      model::Flowrule{"ghost-rule", {bb.id, 0}, {"ghost", 0}, "", "", 1});
  const auto full = model::nffg_from_json(model::to_json(target));
  ASSERT_FALSE(full.ok());
  model::Nffg rebuilt = base;
  const auto applied =
      model::apply_delta(rebuilt, *model::nffg_delta(base, target));
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.error().to_string(), full.error().to_string());
}

// ------------------------------------------------------------ interop

/// A client chain written onto one node: rules "<id>.l<i>" from the port
/// facing `from_sap` through every NF to the port facing `to_sap`, and a
/// delay hint "<id>.e2e". `cpu` sizes the first NF.
void add_chain(model::Nffg& config, const std::string& id,
               const std::string& host, const std::string& from_sap,
               const std::string& to_sap, int nfs, double cpu = 1) {
  const auto port_facing = [&](const std::string& sap) {
    for (const model::Link* link : config.links_of(sap)) {
      if (link->to.node == host) return link->to.port;
    }
    ADD_FAILURE() << sap << " does not face " << host;
    return -1;
  };
  std::vector<model::PortRef> stops{{host, port_facing(from_sap)}};
  for (int i = 0; i < nfs; ++i) {
    const std::string nf = id + "n" + std::to_string(i);
    ASSERT_TRUE(config
                    .place_nf(host,
                              model::make_nf(nf, "nat",
                                             {i == 0 ? cpu : 1, 512, 1}, 2),
                              /*force=*/true)
                    .ok());
    stops.push_back({nf, 0});
    stops.push_back({nf, 1});
  }
  stops.push_back({host, port_facing(to_sap)});
  for (std::size_t i = 0; i + 1 < stops.size(); i += 2) {
    ASSERT_TRUE(config
                    .add_flowrule(host, model::Flowrule{
                                            id + ".l" + std::to_string(i / 2),
                                            stops[i], stops[i + 1], "", "", 5})
                    .ok());
  }
  ASSERT_TRUE(
      config.add_hint(model::ServiceHint{id + ".e2e", from_sap, to_sap, 50, 0})
          .ok());
}

/// The config `client` would write next: the virtualizer's accepted one
/// plus a one-NF chain `id`.
model::Nffg with_chain(const Virtualizer& virt, const std::string& id,
                       double cpu = 1) {
  model::Nffg config = virt.accepted_config();
  add_chain(config, id, virt.big_node_id(), "sap0", "sap2", 1, cpu);
  return config;
}

/// One push through `client`: whether it landed, the bytes it sent, and
/// whether it went (and was applied) as a delta.
struct Push {
  Result<void> result;
  std::uint64_t bytes = 0;
  bool delta = false;
};
Push push(UnifyClientAdapter& client, const model::Nffg& config) {
  const std::uint64_t bytes = client.session().counters().bytes_sent;
  const std::uint64_t deltas = client.delta_edits();
  Push out{client.apply(config)};
  out.bytes = client.session().counters().bytes_sent - bytes;
  out.delta = client.delta_edits() > deltas;
  return out;
}

TEST(DeltaEdit, EditsAfterTheFirstGoAsDeltas) {
  SimClock clock;
  Stack stack(ViewPolicy::kSingleBisBis);
  Virtualizer& virt = *stack.virtualizer;
  auto client = make_unify_link(virt, clock, "leaf");
  ASSERT_TRUE(virt.get_config().ok());  // renders the skeleton
  const Push first = push(*client, with_chain(virt, "c0"));
  ASSERT_TRUE(first.result.ok()) << first.result.error().to_string();
  EXPECT_FALSE(first.delta);
  for (int i = 1; i < 4; ++i) {
    const model::Nffg config = with_chain(virt, "c" + std::to_string(i));
    const Push next = push(*client, config);
    ASSERT_TRUE(next.result.ok()) << next.result.error().to_string();
    EXPECT_TRUE(next.delta);
    EXPECT_LT(next.bytes, first.bytes);
    EXPECT_EQ(model::to_json(virt.accepted_config()).dump(),
              decoded_bytes(config));
  }
  EXPECT_EQ(client->delta_edits(), 3u);
}

TEST(DeltaEdit, ServerWithoutAcceptedOnlyGetsFullConfigs) {
  SimClock clock;
  Stack stack(ViewPolicy::kSingleBisBis);
  Virtualizer& virt = *stack.virtualizer;
  auto [north, south] = proto::make_channel_pair(clock, 100);
  // A server from before conditional edits: edit-config takes a full
  // config and answers {}.
  proto::RpcPeer old_server(south, "old-server");
  std::vector<std::string> keys_seen;
  old_server.on_request(
      "edit-config", [&](const json::Value& params) -> Result<json::Value> {
        for (const auto& [key, value] : params.as_object()) {
          keys_seen.push_back(key);
        }
        const json::Value* config = params.get("config");
        if (config == nullptr) {
          return Error{ErrorCode::kProtocol, "edit-config needs a config"};
        }
        UNIFY_ASSIGN_OR_RETURN(const model::Nffg desired,
                               model::nffg_from_json(*config));
        UNIFY_RETURN_IF_ERROR(virt.edit_config(desired));
        return json::Value{json::Object{}};
      });
  UnifyClientAdapter client("leaf", north);
  ASSERT_TRUE(virt.get_config().ok());
  for (int i = 0; i < 3; ++i) {
    const model::Nffg config = with_chain(virt, "c" + std::to_string(i));
    const Push next = push(client, config);
    ASSERT_TRUE(next.result.ok()) << next.result.error().to_string();
    EXPECT_EQ(model::to_json(virt.accepted_config()).dump(),
              decoded_bytes(config));
  }
  EXPECT_EQ(client.delta_edits(), 0u);
  EXPECT_EQ(keys_seen, std::vector<std::string>(3, "config"));
}

/// Another writer moved the server's config: the delta is answered
/// "stale" once, and the same await resends the config whole.
TEST(DeltaEdit, StaleBaseIsResentWholeWithTheSameFinalBytes) {
  SimClock clock;
  Stack stack(ViewPolicy::kSingleBisBis);
  Virtualizer& virt = *stack.virtualizer;
  auto a = make_unify_link(virt, clock, "writer-a");
  auto b = make_unify_link(virt, clock, "writer-b");
  ASSERT_TRUE(virt.get_config().ok());
  ASSERT_TRUE(push(*a, with_chain(virt, "a0")).result.ok());
  ASSERT_TRUE(push(*b, with_chain(virt, "b0")).result.ok());

  const model::Nffg config = with_chain(virt, "a1");
  const std::uint64_t messages = a->session().counters().messages_sent;
  const Push stale = push(*a, config);
  ASSERT_TRUE(stale.result.ok()) << stale.result.error().to_string();
  EXPECT_FALSE(stale.delta);
  EXPECT_EQ(a->session().counters().messages_sent - messages, 2u)
      << "one stale delta, one full resend";
  EXPECT_EQ(model::to_json(virt.accepted_config()).dump(),
            decoded_bytes(config));
  // The resend was accepted in full, so the next edit is a delta again.
  EXPECT_TRUE(push(*a, with_chain(virt, "a2")).delta);
  EXPECT_EQ(a->delta_edits(), 1u);
}

/// Transport decorator that can drop everything its side sends.
class MutableTransport final : public proto::Transport {
 public:
  explicit MutableTransport(std::shared_ptr<proto::Transport> inner)
      : inner_(std::move(inner)) {}
  Result<void> send(std::string bytes) override {
    if (muted) return Result<void>::success();
    return inner_->send(std::move(bytes));
  }
  void on_receive(ReceiveFn fn) override { inner_->on_receive(std::move(fn)); }
  void on_close(CloseFn fn) override { inner_->on_close(std::move(fn)); }
  void disconnect() override { inner_->disconnect(); }
  [[nodiscard]] bool connected() const noexcept override {
    return inner_->connected();
  }
  [[nodiscard]] const proto::TransportCounters& counters()
      const noexcept override {
    return inner_->counters();
  }
  [[nodiscard]] proto::Driver& driver() noexcept override {
    return inner_->driver();
  }
  bool muted = false;

 private:
  std::shared_ptr<proto::Transport> inner_;
};

/// After each way an edit can fail, the next edit goes whole, and the one
/// after it as a delta again.
TEST(DeltaEdit, FailuresDropTheKeptConfig) {
  SimClock clock;
  Stack stack(ViewPolicy::kSingleBisBis);
  Virtualizer& virt = *stack.virtualizer;
  auto [north, south] = proto::make_channel_pair(clock, 100);
  auto server_end = std::make_shared<MutableTransport>(south);
  UnifyServer server(virt, server_end, "server");
  UnifyClientAdapter client("leaf", north, /*rpc_timeout_us=*/50'000);
  ASSERT_TRUE(virt.get_config().ok());
  int next = 0;
  const auto chain = [&] { return "c" + std::to_string(next++); };
  const auto recovers = [&](const char* after) {
    SCOPED_TRACE(after);
    const model::Nffg whole = with_chain(virt, chain());
    const Push full = push(client, whole);
    ASSERT_TRUE(full.result.ok()) << full.result.error().to_string();
    EXPECT_FALSE(full.delta);
    EXPECT_EQ(model::to_json(virt.accepted_config()).dump(),
              decoded_bytes(whole));
    EXPECT_TRUE(push(client, with_chain(virt, chain())).delta);
  };
  recovers("first push");

  {  // A partly failed wave: one of two new chains cannot map.
    model::Nffg config = with_chain(virt, chain());
    add_chain(config, chain(), virt.big_node_id(), "sap1", "sap3", 1,
              /*cpu=*/999);
    const Push partial = push(client, config);
    ASSERT_FALSE(partial.result.ok());
    EXPECT_FALSE(partial.result.error().causes.empty());
    recovers("a partly failed wave");
  }
  {  // A whole-edit failure: the target is refused as it would be whole,
     // with the same error.
    model::Nffg config = with_chain(virt, chain());
    model::BisBis& bb = config.bisbis().begin()->second;
    bb.flowrules.push_back(
        model::Flowrule{"ghost-rule", {bb.id, 0}, {"ghost", 0}, "", "", 1});
    const Push refused = push(client, config);
    ASSERT_FALSE(refused.result.ok());
    EXPECT_TRUE(refused.result.error().causes.empty());
    EXPECT_EQ(refused.result.error().message,
              model::nffg_from_json(model::to_json(config)).error().message);
    recovers("a whole-edit failure");
  }
  {  // A timeout: the server applied the edit, the reply was lost.
    server_end->muted = true;
    const Push lost = push(client, with_chain(virt, chain()));
    server_end->muted = false;
    ASSERT_FALSE(lost.result.ok());
    EXPECT_EQ(lost.result.error().code, ErrorCode::kTimeout);
    recovers("a timeout");
  }
}

TEST(DeltaEdit, ReconnectDropsTheKeptConfig) {
  SimClock clock;
  proto::SimDriver driver(clock);
  Stack stack(ViewPolicy::kSingleBisBis);
  Virtualizer& virt = *stack.virtualizer;
  std::vector<std::shared_ptr<proto::Endpoint>> server_ends;
  std::vector<std::unique_ptr<UnifyServer>> servers;
  auto factory = [&]() -> Result<std::shared_ptr<proto::Transport>> {
    auto [north, south] = proto::make_channel_pair(clock, 100);
    server_ends.push_back(south);
    servers.push_back(std::make_unique<UnifyServer>(virt, south, "server"));
    return std::static_pointer_cast<proto::Transport>(north);
  };
  UnifyClientAdapter client("leaf", driver, factory,
                            /*rpc_timeout_us=*/200'000);
  ASSERT_TRUE(virt.get_config().ok());
  ASSERT_TRUE(push(client, with_chain(virt, "c0")).result.ok());
  EXPECT_TRUE(push(client, with_chain(virt, "c1")).delta);

  server_ends.front()->disconnect();
  for (int i = 0; i < 100 && !(client.session().reconnects() == 1 &&
                               client.session().connected());
       ++i) {
    clock.advance(10'000);
  }
  ASSERT_EQ(client.session().reconnects(), 1u);
  // The same virtualizer, so a delta would even have applied: the rule
  // is about the transport, not the version.
  const Push after = push(client, with_chain(virt, "c2"));
  ASSERT_TRUE(after.result.ok()) << after.result.error().to_string();
  EXPECT_FALSE(after.delta);
  EXPECT_TRUE(push(client, with_chain(virt, "c3")).delta);
  EXPECT_EQ(client.delta_edits(), 2u);
}

/// Churn through the service layer over make_unify_link: after the first
/// push, every edit is a delta of under a tenth of the full config.
TEST(DeltaEdit, ChurnEditsSendUnderATenthOfTheConfig) {
  SimClock clock;
  Stack stack(ViewPolicy::kSingleBisBis, /*cpu=*/512);
  auto link = make_unify_link(*stack.virtualizer, clock, "north");
  UnifyClientAdapter* client = link.get();
  service::ServiceLayer layer(std::move(link));
  const char* const kSaps[] = {"sap0", "sap1", "sap2", "sap3"};
  int next = 0;
  const auto service = [&] {
    const int i = next++;
    return sg::make_chain("s" + std::to_string(i), kSaps[i % 4],
                          {"nat", "fw-lite"}, kSaps[(i + 1 + i / 4 % 3) % 4],
                          1, 1000);
  };
  // The first push: 40 services in one wave, sent whole.
  std::vector<sg::ServiceGraph> wave;
  for (int i = 0; i < 40; ++i) wave.push_back(service());
  std::vector<std::string> live;
  for (auto& id : layer.submit_batch(wave)) {
    ASSERT_TRUE(id.ok()) << id.error().to_string();
    live.push_back(*id);
  }
  ASSERT_EQ(client->delta_edits(), 0u);

  // Then churn: each wave removes the oldest service and adds one.
  int edits = 0;
  const auto sent_by = [&](const std::function<void()>& edit) {
    const std::uint64_t bytes = client->session().counters().bytes_sent;
    edit();
    ++edits;
    const std::uint64_t sent = client->session().counters().bytes_sent - bytes;
    const std::size_t full =
        model::to_json(stack.virtualizer->accepted_config()).dump().size();
    EXPECT_LT(sent * 10, full) << "edit " << edits;
  };
  for (int i = 0; i < 30; ++i) {
    sent_by([&] {
      ASSERT_TRUE(layer.remove(live.front()).ok());
      live.erase(live.begin());
    });
    sent_by([&] {
      const auto id = layer.submit(service());
      ASSERT_TRUE(id.ok()) << id.error().to_string();
      live.push_back(*id);
    });
  }
  EXPECT_EQ(client->delta_edits(), static_cast<std::uint64_t>(edits));
}

}  // namespace
}  // namespace unify::core
