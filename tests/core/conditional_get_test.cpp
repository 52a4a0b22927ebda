// Conditional get-config (DESIGN.md §13). A reader that sends the tag of
// the reply it holds gets {"unchanged": true} and decodes what it kept.
// These tests pin that a kept reply is never stale: after every get the
// reader's view equals a fresh render, byte for byte, across edits, failed
// edits, status syncs and heals; a reconnect or a server without tags
// leaves nothing to revalidate against.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "adapters/faulty_adapter.h"
#include "core/unify_api.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_json.h"

namespace unify::core {
namespace {

/// Accepts every push and reports the last one back, every NF's status
/// overridden once set_status() was called: a domain whose NFs change
/// state on their own.
class StatusAdapter final : public adapters::DomainAdapter {
 public:
  StatusAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override {
    model::Nffg out = applied_.value_or(view_);
    if (status_.has_value()) {
      for (auto& [bb_id, bb] : out.bisbis()) {
        for (auto& [nf_id, nf] : bb.nfs) nf.status = *status_;
      }
    }
    return out;
  }
  Result<void> apply(const model::Nffg& desired) override {
    applied_ = desired;
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return 0;
  }
  void set_status(model::NfStatus status) { status_ = status; }

 private:
  std::string name_;
  model::Nffg view_;
  std::optional<model::Nffg> applied_;
  std::optional<model::NfStatus> status_;
};

/// Domain i: bb<i> with customer SAPs sap<2i> (port 0) and sap<2i+1>
/// (port 1), stitched to the other domain through "x" (port 2).
/// `cpu` sizes the node.
model::Nffg domain_view(int i, double cpu = 16) {
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

/// Two StatusAdapter domains, each behind a FaultyAdapter, under one RO
/// and one virtualizer.
struct Stack {
  explicit Stack(ViewPolicy policy, double cpu = 16) {
    ro = std::make_unique<ResourceOrchestrator>(
        "ro", std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    for (int i = 0; i < 2; ++i) {
      auto domain = std::make_unique<StatusAdapter>(
          "d" + std::to_string(i), domain_view(i, cpu));
      statuses.push_back(domain.get());
      auto faulty = std::make_unique<adapters::FaultyAdapter>(
          std::move(domain));
      faults.push_back(faulty.get());
      EXPECT_TRUE(ro->add_domain(std::move(faulty)).ok());
    }
    EXPECT_TRUE(ro->initialize().ok());
    virtualizer = std::make_unique<Virtualizer>(*ro, policy);
  }
  [[nodiscard]] std::string fresh() const {
    const auto config = virtualizer->get_config();
    EXPECT_TRUE(config.ok());
    return config.ok() ? model::to_json(*config).dump() : std::string{};
  }

  std::unique_ptr<ResourceOrchestrator> ro;
  std::vector<StatusAdapter*> statuses;
  std::vector<adapters::FaultyAdapter*> faults;
  std::unique_ptr<Virtualizer> virtualizer;
};

/// The port of `host` that faces `sap` in `view`.
int port_facing(const model::Nffg& view, const std::string& host,
                const std::string& sap) {
  for (const model::Link* link : view.links_of(sap)) {
    if (link->to.node == host) return link->to.port;
    if (link->from.node == host) return link->from.port;
  }
  ADD_FAILURE() << sap << " does not face " << host;
  return -1;
}

/// A client chain written onto one node: rules "<id>.l<i>" from the port
/// facing `from_sap` through every NF to the port facing `to_sap`, and a
/// delay hint "<id>.e2e".
struct Chain {
  std::string id;
  std::string host;
  std::string from_sap;
  std::string to_sap;
  std::vector<std::string> nfs;
};

void add_chain(model::Nffg& config, const Chain& chain, double bandwidth,
               bool too_big) {
  std::vector<model::PortRef> stops{
      {chain.host, port_facing(config, chain.host, chain.from_sap)}};
  for (std::size_t i = 0; i < chain.nfs.size(); ++i) {
    const model::Resources demand =
        too_big && i == 0 ? model::Resources{999, 512, 1}
                          : model::Resources{1, 512, 1};
    ASSERT_TRUE(config
                    .place_nf(chain.host,
                              model::make_nf(chain.nfs[i], "nat", demand, 2),
                              /*force=*/true)
                    .ok());
    stops.push_back({chain.nfs[i], 0});
    stops.push_back({chain.nfs[i], 1});
  }
  stops.push_back({chain.host, port_facing(config, chain.host, chain.to_sap)});
  for (std::size_t i = 0; i + 1 < stops.size(); i += 2) {
    ASSERT_TRUE(config
                    .add_flowrule(chain.host,
                                  model::Flowrule{chain.id + ".l" +
                                                      std::to_string(i / 2),
                                                  stops[i], stops[i + 1], "",
                                                  "", bandwidth})
                    .ok());
  }
  ASSERT_TRUE(config
                  .add_hint(model::ServiceHint{chain.id + ".e2e",
                                               chain.from_sap, chain.to_sap,
                                               50, 0})
                  .ok());
}

void remove_chain(model::Nffg& config, const Chain& chain) {
  for (const std::string& nf : chain.nfs) {
    if (const auto at = config.find_nf(nf); at.has_value()) {
      ASSERT_TRUE(config.remove_nf(at->first, nf).ok());
    }
  }
  const std::string rules = chain.id + ".l";
  for (auto& [bb_id, bb] : config.bisbis()) {
    std::erase_if(bb.flowrules, [&](const model::Flowrule& rule) {
      return rule.id.compare(0, rules.size(), rules) == 0;
    });
  }
  (void)config.remove_hint(chain.id + ".e2e");
}

/// A rule no translation can resolve, as a client could send it over the
/// wire (Nffg::add_flowrule would refuse it): edit_config rejects the
/// config as a whole, before anything changes.
void add_untranslatable_rule(model::Nffg& config, const std::string& host) {
  config.find_bisbis(host)->flowrules.push_back(
      model::Flowrule{"ghost-rule", {host, 0}, {"ghost", 0}, "", "", 1});
}

TEST(UnifyConditionalGet, CachedRepliesMatchFreshRender) {
  constexpr int kSteps = 240;
  for (const ViewPolicy policy : {ViewPolicy::kSingleBisBis, ViewPolicy::kFull}) {
    const bool full = policy == ViewPolicy::kFull;
    SCOPED_TRACE(full ? "full view" : "single view");
    SimClock clock;
    Stack stack(policy);
    Virtualizer& virt = *stack.virtualizer;
    std::vector<std::unique_ptr<UnifyClientAdapter>> readers;
    readers.push_back(make_unify_link(virt, clock, "reader-a"));
    readers.push_back(make_unify_link(virt, clock, "reader-b"));
    std::mt19937_64 rng(27);
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };

    std::vector<Chain> chains;
    int next_chain = 0;
    const auto new_chain = [&] {
      Chain chain;
      chain.id = "c" + std::to_string(next_chain++);
      const int domain = static_cast<int>(pick(2));
      if (full) {
        // A full-view client places the whole chain on the node its SAPs
        // face.
        chain.host = "bb" + std::to_string(domain);
        chain.from_sap = "sap" + std::to_string(2 * domain);
        chain.to_sap = "sap" + std::to_string(2 * domain + 1);
      } else {
        chain.host = virt.big_node_id();
        chain.from_sap = "sap" + std::to_string(pick(4));
        do {
          chain.to_sap = "sap" + std::to_string(pick(4));
        } while (chain.to_sap == chain.from_sap);
      }
      const std::size_t length = 1 + pick(3);
      for (std::size_t i = 0; i < length; ++i) {
        chain.nfs.push_back(chain.id + "n" + std::to_string(i));
      }
      return chain;
    };
    const auto edit = [&](const model::Nffg& config) {
      (void)virt.edit_config(config);
    };

    std::uint64_t gets = 0;
    const auto get = [&](std::size_t r) {
      auto view = readers[r]->fetch_view();
      ASSERT_TRUE(view.ok()) << view.error().to_string();
      ++gets;
      EXPECT_EQ(model::to_json(*view).dump(), stack.fresh())
          << "reader " << r << " after " << gets << " gets";
    };
    get(0);
    get(1);

    for (int step = 0; step < kSteps; ++step) {
      if (step == kSteps / 2) {
        // d0 dies for good: every deployment with an endpoint on it is
        // stranded, and heal() stamps its NFs kFailed.
        ASSERT_TRUE(stack.ro->open_circuit("d0", "killed").ok());
        stack.faults[0]->set_failure_rate(1.0);
        ASSERT_TRUE(stack.ro->heal().ok());
        const auto healed = virt.get_config();
        ASSERT_TRUE(healed.ok());
        bool stamped = false;
        for (const auto& [bb_id, bb] : healed->bisbis()) {
          for (const auto& [nf_id, nf] : bb.nfs) {
            stamped |= nf.status == model::NfStatus::kFailed;
          }
        }
        EXPECT_TRUE(stamped) << "the heal stranded nothing";
      }
      auto current = virt.get_config();
      ASSERT_TRUE(current.ok());
      model::Nffg config = *std::move(current);
      std::vector<const Chain*> alive;
      for (const Chain& chain : chains) {
        if (config.find_nf(chain.nfs.front()).has_value()) {
          alive.push_back(&chain);
        }
      }
      switch (pick(11)) {
        case 0:
        case 1: {
          chains.push_back(new_chain());
          add_chain(config, chains.back(), 5.0 * (1 + pick(3)), false);
          edit(config);
          break;
        }
        case 2: {
          // A wave of two components, one of which cannot map.
          const bool big_first = pick(2) == 0;
          chains.push_back(new_chain());
          add_chain(config, chains.back(), 5, big_first);
          chains.push_back(new_chain());
          add_chain(config, chains.back(), 5, !big_first);
          edit(config);
          break;
        }
        case 3: {
          if (alive.empty()) break;
          remove_chain(config, *alive[pick(alive.size())]);
          edit(config);
          break;
        }
        case 4: {
          add_untranslatable_rule(config, full ? "bb1" : virt.big_node_id());
          EXPECT_FALSE(virt.edit_config(config).ok());
          break;
        }
        case 5: {
          // NF statuses change below; the sync folds them into the view.
          const model::NfStatus kStates[] = {model::NfStatus::kRunning,
                                             model::NfStatus::kStopped,
                                             model::NfStatus::kDeploying};
          stack.statuses[pick(2)]->set_status(kStates[pick(3)]);
          (void)stack.ro->sync_statuses();
          break;
        }
        case 6:
          edit(config);  // the accepted config, re-sent unchanged
          break;
        case 7: {
          // A hint no service realizes: the accepted config changes while
          // nothing below does.
          const std::string from = "sap" + std::to_string(pick(4));
          const std::string to = from == "sap0" ? "sap3" : "sap0";
          ASSERT_TRUE(config
                          .add_hint(model::ServiceHint{
                              "h" + std::to_string(step), from, to, 50, 0})
                          .ok());
          edit(config);
          break;
        }
        default:
          get(pick(2));
          break;
      }
      get(pick(2));
      if (::testing::Test::HasFailure()) return;
    }
    std::uint64_t hits = 0;
    for (const auto& reader : readers) hits += reader->get_config_hits();
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, gets);
  }
}

/// Two fresh leaf stacks of different sizes: the same history gives them
/// the same tag, but not the same config.
TEST(UnifyConditionalGet, ReconnectToAnotherServerDropsTheKeptReply) {
  SimClock clock;
  proto::SimDriver driver(clock);
  Stack first(ViewPolicy::kSingleBisBis, 16);
  Stack second(ViewPolicy::kSingleBisBis, 32);
  ASSERT_NE(first.fresh(), second.fresh());
  ASSERT_EQ(first.virtualizer->config_tag(), second.virtualizer->config_tag());

  std::vector<std::shared_ptr<proto::Endpoint>> server_ends;
  std::vector<std::unique_ptr<UnifyServer>> servers;
  auto factory = [&]() -> Result<std::shared_ptr<proto::Transport>> {
    Virtualizer& target = servers.empty() ? *first.virtualizer
                                          : *second.virtualizer;
    auto [north, south] = proto::make_channel_pair(clock, 100);
    server_ends.push_back(south);
    servers.push_back(std::make_unique<UnifyServer>(target, south, "server"));
    return std::static_pointer_cast<proto::Transport>(north);
  };
  UnifyClientAdapter reader("leaf", driver, factory,
                            /*rpc_timeout_us=*/200'000);
  auto view = reader.fetch_view();
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(model::to_json(*view).dump(), first.fresh());

  server_ends.front()->disconnect();
  for (int i = 0; i < 100 && !(reader.session().reconnects() == 1 &&
                               reader.session().connected());
       ++i) {
    clock.advance(10'000);
  }
  ASSERT_EQ(reader.session().reconnects(), 1u);
  ASSERT_EQ(servers.size(), 2u);

  view = reader.fetch_view();
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(model::to_json(*view).dump(), second.fresh());
  EXPECT_EQ(reader.get_config_hits(), 0u);
  // The new transport keeps its own reply from here on.
  view = reader.fetch_view();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(model::to_json(*view).dump(), second.fresh());
  EXPECT_EQ(reader.get_config_hits(), 1u);
}

TEST(UnifyConditionalGet, ServerWithoutTagsKeepsWorking) {
  SimClock clock;
  Stack stack(ViewPolicy::kSingleBisBis);
  Virtualizer& virt = *stack.virtualizer;
  auto [north, south] = proto::make_channel_pair(clock, 100);
  // A server from before conditional get: a plain {"config": ...} reply,
  // whatever the params say.
  proto::RpcPeer old_server(south, "old-server");
  std::vector<std::string> params_seen;
  old_server.on_request(
      "get-config", [&](const json::Value& params) -> Result<json::Value> {
        params_seen.push_back(params.dump());
        UNIFY_ASSIGN_OR_RETURN(const model::Nffg config, virt.get_config());
        json::Object out;
        out.set("config", model::to_json(config));
        return json::Value{std::move(out)};
      });
  UnifyClientAdapter reader("leaf", north);

  for (int i = 0; i < 2; ++i) {
    auto view = reader.fetch_view();
    ASSERT_TRUE(view.ok()) << view.error().to_string();
    EXPECT_EQ(model::to_json(*view).dump(), stack.fresh());
  }
  model::Nffg config = *virt.get_config();
  add_chain(config, Chain{"c0", virt.big_node_id(), "sap0", "sap2", {"n0"}},
            5, false);
  ASSERT_TRUE(virt.edit_config(config).ok());
  auto view = reader.fetch_view();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(model::to_json(*view).dump(), stack.fresh());

  EXPECT_EQ(reader.get_config_hits(), 0u);
  EXPECT_EQ(params_seen, std::vector<std::string>(3, "{}"));
}

TEST(UnifyConditionalGet, KeepsAConfigOnlyWhileGetsRepeat) {
  SimClock clock;
  Stack stack(ViewPolicy::kSingleBisBis);
  Virtualizer& virt = *stack.virtualizer;
  auto reader = make_unify_link(virt, clock, "reader");
  const auto read = [&] {
    const auto view = reader->fetch_view();
    ASSERT_TRUE(view.ok()) << view.error().to_string();
    EXPECT_EQ(model::to_json(*view).dump(), stack.fresh());
  };
  int next_chain = 0;
  const auto change = [&] {
    model::Nffg config = *virt.get_config();
    const std::string id = "c" + std::to_string(next_chain++);
    add_chain(config, Chain{id, virt.big_node_id(), "sap0", "sap2", {id}}, 5,
              false);
    ASSERT_TRUE(virt.edit_config(config).ok());
  };

  // The first reply is kept; after that, every get follows a change and
  // the reader stops keeping.
  read();
  for (int i = 0; i < 3; ++i) {
    change();
    read();
  }
  EXPECT_EQ(reader->get_config_hits(), 0u);
  // So this get, although nothing changed, is a full reply. It repeats
  // the last tag, so its config is kept and the next get hits.
  read();
  EXPECT_EQ(reader->get_config_hits(), 0u);
  read();
  EXPECT_EQ(reader->get_config_hits(), 1u);
  // After a hit, a new reply is kept straight away.
  change();
  read();
  read();
  EXPECT_EQ(reader->get_config_hits(), 2u);
}

TEST(UnifyConditionalGet, EditThatFailsAsAWholeKeepsRepliesRight) {
  SimClock clock;
  Stack stack(ViewPolicy::kSingleBisBis);
  Virtualizer& virt = *stack.virtualizer;
  auto reader = make_unify_link(virt, clock, "reader");
  auto view = reader->fetch_view();
  ASSERT_TRUE(view.ok());

  model::Nffg config = *view;
  add_chain(config, Chain{"c0", virt.big_node_id(), "sap0", "sap3", {"n0"}},
            5, false);
  add_untranslatable_rule(config, virt.big_node_id());
  const Result<void> rejected = virt.edit_config(config);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.error().causes.empty());

  // Nothing changed, so the tag holds and the kept reply is still right.
  view = reader->fetch_view();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(model::to_json(*view).dump(), stack.fresh());
  EXPECT_EQ(reader->get_config_hits(), 1u);
  EXPECT_FALSE(view->find_nf("n0").has_value());

  // The same chain without the bad rule lands, and the next get shows it.
  config = *view;
  add_chain(config, Chain{"c0", virt.big_node_id(), "sap0", "sap3", {"n0"}},
            5, false);
  ASSERT_TRUE(virt.edit_config(config).ok());
  view = reader->fetch_view();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(model::to_json(*view).dump(), stack.fresh());
  EXPECT_TRUE(view->find_nf("n0").has_value());
  EXPECT_EQ(reader->get_config_hits(), 1u);
}

}  // namespace
}  // namespace unify::core
