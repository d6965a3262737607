// layer_replay — the benchmark's per-layer replay of one workload.
//
//   layer_replay <file.scenario> [--set key=value]... [--budget-s SECONDS]
//
// Loads the scenario exactly as jwins_run does (same parser, same --set
// overrides, same validation), then:
//
//  1. times the set-up path: config::make_run_workload, config::
//     make_run_topology and the sim::Experiment constructor (median of a few
//     repetitions);
//  2. replays node-rounds of the run's algorithm on d + 1 nodes that hold the
//     workload's own model, data shards, alpha distribution and degree d. Each
//     call into a src/ module is wrapped in a steady_clock span;
//  3. times graph::metropolis_hastings on the run's full topology and, for
//     compact node state, the sim::NodeStateStore traffic over the run's node
//     count.
//
// Prints one JSON object: per layer the median and mean microseconds per
// call, the replay's call count, the real engine's calls per node-round and
// the phase that call is booked under; plus the replay's microseconds per
// node-round for every phase, which perfbench/run.py divides by the real
// run's phase wall to report replay coverage.
//
// The replay runs single-threaded and does not need to be numerically
// identical to the run: it measures the same calls on the same shapes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/full_sharing.hpp"
#include "compress/topk.hpp"
#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "core/averaging.hpp"
#include "core/ranker.hpp"
#include "core/rng.hpp"
#include "core/scratch.hpp"
#include "core/sparse_payload.hpp"
#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "net/network.hpp"
#include "net/serializer.hpp"
#include "sim/experiment.hpp"
#include "sim/node_state.hpp"

namespace {

using namespace jwins;
using Clock = std::chrono::steady_clock;

// Stream tag and batch cap the engine uses for node samplers
// (sim/experiment.cpp); mirrored so replay nodes draw batches alike.
constexpr std::uint64_t kSamplerStream = 0xDA7A;
constexpr std::size_t kBatchCap = 16;

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Runs `fn` and appends its duration in microseconds to `into`.
template <class Fn>
void span(std::vector<double>& into, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  into.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// One replayed layer: its samples and where the real engine books it.
struct Layer {
  std::string name;
  std::vector<double> us;
  /// (phase, real-engine calls per node-round) pairs; a layer booked under
  /// two phases (compact state's write-back) lists both.
  std::vector<std::pair<std::string, double>> booking;
};

class LayerTable {
 public:
  Layer& operator[](const std::string& name) {
    for (Layer& l : layers_) {
      if (l.name == name) return l;
    }
    layers_.push_back(Layer{name, {}, {}});
    return layers_.back();
  }
  const std::deque<Layer>& layers() const { return layers_; }

 private:
  std::deque<Layer> layers_;  ///< deque: references stay valid on insert
};

/// Per replay node state. A FullSharingNode carries model, optimizer and
/// sampler: DlNode::local_train is the same for every algorithm. The JWINS
/// round state lives here because JwinsNode keeps it private.
struct ReplayNode {
  std::unique_ptr<algo::DlNode> node;
  std::unique_ptr<core::WaveletRanker> ranker;
  std::vector<float> x0, x_tau, own;
  std::vector<std::uint32_t> sent;
  bool sent_dense = false;
};

struct Options {
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> overrides;
  double budget_s = 5.0;
};

int usage_error(const std::string& what) {
  std::cerr << "error: " << what << "\n"
            << "usage: layer_replay <file.scenario> [--set key=value]... "
               "[--budget-s SECONDS]\n";
  return 2;
}

/// Number of evaluate() calls per node-round of the real run.
double evaluate_calls_per_node_round(const config::ScenarioRun& run) {
  const sim::ExperimentConfig& c = run.config;
  const std::size_t n = run.nodes;
  std::size_t evals = 0;
  for (std::size_t t = 0; t < c.rounds; ++t) {
    if (t % c.eval_every == 0 || t + 1 == c.rounds) ++evals;
  }
  std::size_t per_eval = n;
  if (c.eval_sample > 0 && c.eval_sample < n) {
    per_eval = c.eval_sample;
  } else if (c.eval_node_limit > 0) {
    per_eval = std::min(c.eval_node_limit, n);
  }
  return static_cast<double>(evals * per_eval) /
         static_cast<double>(n * c.rounds);
}

void write_json(const config::ScenarioRun& run, std::size_t degree,
                std::size_t params, std::size_t replay_nodes,
                std::size_t replay_rounds, const LayerTable& table,
                const std::map<std::string, double>& values) {
  const std::size_t node_rounds = replay_nodes * replay_rounds;
  std::map<std::string, double> phase_us;
  std::printf("{\n  \"workload\": \"%s\",\n  \"algorithm\": \"%s\",\n",
              run.workload.c_str(),
              sim::algorithm_name(run.config.algorithm));
  std::printf("  \"nodes\": %zu,\n  \"degree\": %zu,\n  \"params\": %zu,\n",
              run.nodes, degree, params);
  std::printf("  \"replay_nodes\": %zu,\n  \"replay_rounds\": %zu,\n",
              replay_nodes, replay_rounds);
  std::printf("  \"layers\": {");
  bool first = true;
  for (const Layer& l : table.layers()) {
    double calls = 0.0;
    for (const auto& [phase, c] : l.booking) {
      calls += c;
      if (!l.us.empty()) phase_us[phase] += c * mean(l.us);
    }
    std::printf("%s\n    \"%s\": {\"median_us\": %.17g, \"mean_us\": %.17g, "
                "\"calls\": %zu, \"calls_per_node_round\": %.17g}",
                first ? "" : ",", l.name.c_str(), median(l.us), mean(l.us),
                l.us.size(), calls);
    first = false;
  }
  std::printf("\n  },\n  \"values\": {");
  first = true;
  for (const auto& [name, v] : values) {
    std::printf("%s\n    \"%s\": %.17g", first ? "" : ",", name.c_str(), v);
    first = false;
  }
  std::printf("\n  },\n  \"phase_us_per_node_round\": {");
  first = true;
  for (const auto& [phase, us] : phase_us) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", phase.c_str(), us);
    first = false;
  }
  std::printf("},\n  \"replay_node_rounds\": %zu\n}\n", node_rounds);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--set" || arg == "--budget-s") {
      if (i + 1 >= argc) return usage_error(std::string(arg) + ": missing value");
      const std::string value = argv[++i];
      if (arg == "--budget-s") {
        try {
          opt.budget_s = std::stod(value);
        } catch (const std::exception&) {
          return usage_error("--budget-s: \"" + value + "\" is not a number");
        }
        continue;
      }
      const auto eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        return usage_error("--set: \"" + value + "\" is not key=value");
      }
      opt.overrides.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else if (opt.scenario.empty() && arg.rfind("--", 0) != 0) {
      opt.scenario = std::string(arg);
    } else {
      return usage_error("unexpected argument " + std::string(arg));
    }
  }
  if (opt.scenario.empty()) return usage_error("no scenario file given");

  config::ScenarioRun run;
  try {
    config::RawScenario raw = config::load_scenario_file(opt.scenario);
    for (const auto& [key, value] : opt.overrides) {
      config::set_value(raw, key, value);
    }
    std::vector<config::ScenarioRun> runs = config::expand_grid(raw);
    if (runs.size() != 1) return usage_error("scenario must expand to one run");
    run = runs.front();
  } catch (const config::ScenarioError& e) {
    return usage_error(e.what());
  }
  const sim::ExperimentConfig& cfg = run.config;
  const bool jwins_algo = cfg.algorithm == sim::Algorithm::kJwins;
  if (!jwins_algo && cfg.algorithm != sim::Algorithm::kRandomSampling) {
    return usage_error("the replay covers jwins and random-sampling only");
  }
  const bool compact = cfg.node_state == sim::NodeState::kCompact;
  const bool async_loop = cfg.engine == sim::EngineKind::kAsync &&
                          (cfg.staleness_bound > 0 ||
                           cfg.async_mode != sim::AsyncMode::kBarrier);
  const Clock::time_point start = Clock::now();
  std::map<std::string, double> values;
  LayerTable table;

  // 1. Set-up path, as config::execute wires it.
  std::vector<double> workload_s, topology_s, experiment_s;
  sim::Workload workload;
  do {
    Clock::time_point t = Clock::now();
    workload = config::make_run_workload(run);
    workload_s.push_back(elapsed_s(t));
    t = Clock::now();
    std::unique_ptr<graph::TopologyProvider> topology =
        config::make_run_topology(run);
    topology_s.push_back(elapsed_s(t));
    t = Clock::now();
    {
      sim::Experiment experiment(config::resolve_config(run, workload),
                                 workload.model_factory, *workload.train,
                                 workload.partition, *workload.test,
                                 std::move(topology));
      experiment_s.push_back(elapsed_s(t));
    }
  } while (workload_s.size() < 3 && elapsed_s(start) < 0.3 * opt.budget_s);
  values["data.workload_build_s"] = median(workload_s);
  values["graph.topology_build_s"] = median(topology_s);
  values["sim.experiment_build_s"] = median(experiment_s);

  // 2. Mixing weights on the run's own graph. The sync engine computes them
  // once per topology epoch (static graphs: once per run); the event loop
  // once per round.
  {
    std::unique_ptr<graph::TopologyProvider> topology =
        config::make_run_topology(run);
    const graph::Graph& g = topology->round_graph(0);
    Layer& mh = table["graph.mixing_weights_us"];
    const Clock::time_point t = Clock::now();
    do {
      span(mh.us, [&] { graph::metropolis_hastings(g); });
    } while (mh.us.size() < 5 && elapsed_s(t) < 0.05 * opt.budget_s);
    const double per_run = async_loop ? static_cast<double>(cfg.rounds) : 1.0;
    mh.booking = {{"engine",
                   per_run / static_cast<double>(run.nodes * cfg.rounds)}};
  }

  // 3. Node-round replay on a complete graph of d + 1 nodes: every node has
  // the run's degree d and Metropolis-Hastings weight 1 / (d + 1) per edge,
  // as on the run's d-regular graph or ring.
  const std::size_t degree = config::effective_degree(run);
  const std::size_t replay_nodes = std::min(degree + 1, run.nodes);
  const graph::Graph g = graph::complete(replay_nodes);
  const graph::MixingWeights weights = graph::metropolis_hastings(g);
  const sim::ExperimentConfig resolved = config::resolve_config(run, workload);
  const algo::TrainConfig train_config{resolved.local_steps, resolved.sgd,
                                       resolved.seed};
  std::vector<ReplayNode> nodes(replay_nodes);
  for (std::size_t i = 0; i < replay_nodes; ++i) {
    const std::vector<std::size_t>& shard = workload.partition[i];
    data::Sampler sampler(
        *workload.train, shard,
        std::max<std::size_t>(1, std::min(kBatchCap, shard.size())),
        core::derive_seed(resolved.seed, i, 0, kSamplerStream),
        compact || resolved.batch_sampler == sim::BatchSampler::kCounter
            ? data::Sampler::Mode::kCounter
            : data::Sampler::Mode::kShuffle);
    ReplayNode& r = nodes[i];
    r.node = std::make_unique<algo::FullSharingNode>(
        static_cast<std::uint32_t>(i), workload.model_factory(),
        std::move(sampler), train_config);
    r.node->flat_params_into(r.x0);
    if (jwins_algo) {
      r.ranker = std::make_unique<core::WaveletRanker>(r.x0.size(),
                                                       resolved.jwins.ranker);
      r.own.resize(r.ranker->coeff_length());
    }
  }
  const std::size_t params = nodes.front().x0.size();
  core::RoundScratch scratch;
  scratch.reserve_for_model(params);
  net::Network network(replay_nodes);
  const data::Batch eval_batch =
      data::full_batch(*workload.test, resolved.eval_sample_limit);
  std::unique_ptr<sim::NodeStateStore> store;
  if (compact) {
    store = std::make_unique<sim::NodeStateStore>(run.nodes, nodes.front().x0);
  }

  Layer& train = table["nn.local_train_us"];
  Layer& evaluate = table["nn.evaluate_us"];
  Layer& accumulate = table["core.rank_accumulate_us"];
  Layer& transform = table["core.dwt_transform_us"];
  Layer& topk = table["compress.topk_us"];
  Layer& random_idx = table["compress.random_indices_us"];
  Layer& gather = table["compress.gather_us"];
  Layer& encode = table["core.payload_encode_us"];
  Layer& send = table["net.send_us"];
  Layer& drain = table["net.drain_us"];
  Layer& decode = table["core.payload_decode_us"];
  Layer& average = table["core.partial_average_us"];
  Layer& inverse = table["core.dwt_inverse_us"];
  Layer& finish = table["core.rank_finish_us"];
  Layer& view = table["sim.node_state_view_us"];
  Layer& slot = table["sim.node_state_slot_us"];
  Layer& store_layer = table["sim.node_state_store_us"];
  std::vector<double> payload_bytes;

  // Compact state: simulated node id of replay node-round k. Each id is
  // visited `rounds` times in a row, so slot materialization happens as
  // often per call as in the real run (once per node).
  std::size_t node_round = 0;
  const auto sim_node = [&](std::size_t k) {
    return (k / cfg.rounds) % run.nodes;
  };

  const double replay_budget = opt.budget_s - elapsed_s(start);
  const Clock::time_point replay_start = Clock::now();
  std::size_t replay_rounds = 0;
  std::size_t sparse_shares = 0;
  do {
    const auto round = static_cast<std::uint32_t>(replay_rounds);
    // Train + share (fused into one pass, as the compact engine runs it).
    for (std::size_t p = 0; p < replay_nodes; ++p) {
      ReplayNode& r = nodes[p];
      algo::DlNode& node = *r.node;
      const std::size_t id = sim_node(node_round + p);
      if (compact) {
        span(view.us, [&] { node.set_flat_params(store->view(id)); });
      }
      span(train.us, [&] { node.local_train(); });
      scratch.reset();
      core::PayloadView payload;
      core::PayloadOptions msg_options;
      if (jwins_algo) {
        node.flat_params_into(r.x_tau);
        std::span<const float> scores;
        span(accumulate.us, [&] {
          scores = r.ranker->accumulate_round_change(r.x0, r.x_tau,
                                                     scratch.arena, scratch.dwt);
        });
        core::CounterRng rng(resolved.seed, p, round);
        const double alpha = resolved.jwins.cutoff.sample(rng);
        span(transform.us,
             [&] { r.ranker->transform_into(r.x_tau, r.own, scratch.dwt); });
        payload.vector_length = static_cast<std::uint32_t>(r.own.size());
        msg_options.value_encoding = resolved.jwins.value_encoding;
        if (alpha >= 1.0) {
          r.sent_dense = true;
          r.sent.clear();
          payload.values = r.own;
          msg_options.index_encoding = core::IndexEncoding::kDense;
        } else {
          r.sent_dense = false;
          ++sparse_shares;
          const std::size_t k = std::max<std::size_t>(
              1, static_cast<std::size_t>(
                     alpha * static_cast<double>(r.own.size()) + 0.5));
          span(topk.us,
               [&] { compress::topk_indices_into(scores, k, r.sent); });
          const std::span<float> vals = scratch.arena.alloc<float>(r.sent.size());
          span(gather.us, [&] { compress::gather_into(r.own, r.sent, vals); });
          payload.indices = r.sent;
          payload.values = vals;
          msg_options.index_encoding = resolved.jwins.index_encoding;
        }
      } else {
        const std::span<float> x = scratch.arena.alloc<float>(params);
        node.flat_params_into(x);
        const std::size_t k = std::max<std::size_t>(
            1, static_cast<std::size_t>(resolved.random_sampling_fraction *
                                            static_cast<double>(params) +
                                        0.5));
        const std::uint64_t seed = core::derive_seed(resolved.seed, p, round);
        span(random_idx.us, [&] {
          compress::random_indices_into(params, k, seed, r.sent, scratch.arena);
        });
        const std::span<float> vals = scratch.arena.alloc<float>(r.sent.size());
        span(gather.us, [&] { compress::gather_into(x, r.sent, vals); });
        payload.vector_length = static_cast<std::uint32_t>(params);
        payload.indices = r.sent;
        payload.values = vals;
        msg_options.index_encoding = core::IndexEncoding::kSeed;
        msg_options.seed = seed;
      }
      net::ByteWriter writer(network.pool().acquire());
      net::Message msg;
      msg.sender = static_cast<std::uint32_t>(p);
      msg.round = round;
      span(encode.us, [&] {
        msg.metadata_bytes = core::encode_payload_into(payload, msg_options,
                                                       writer, scratch.bits);
      });
      msg.body = network.pool().adopt(std::move(writer).take());
      payload_bytes.push_back(static_cast<double>(msg.body.size()));
      for (const std::size_t j : g.neighbors(p)) {
        span(send.us, [&] { network.send(static_cast<std::uint32_t>(j), msg); });
      }
      if (compact) {
        span(slot.us, [&] { node.flat_params_into(store->slot(id)); });
      }
    }
    // Aggregate.
    for (std::size_t p = 0; p < replay_nodes; ++p) {
      ReplayNode& r = nodes[p];
      algo::DlNode& node = *r.node;
      const std::size_t id = sim_node(node_round + p);
      if (compact) {
        span(view.us, [&] { node.set_flat_params(store->view(id)); });
      }
      scratch.reset();
      span(drain.us, [&] { network.drain_into(static_cast<std::uint32_t>(p),
                                              scratch.inbox); });
      for (const net::Message& msg : scratch.inbox) {
        core::SparsePayload& out = scratch.payloads.next();
        span(decode.us,
             [&] { core::decode_payload_into(msg.body, out, scratch.arena); });
      }
      const double w = 1.0 / static_cast<double>(replay_nodes);
      for (std::size_t i = 0; i < scratch.inbox.size(); ++i) {
        scratch.contributions.push_back({w, &scratch.payloads[i]});
      }
      if (jwins_algo) {
        span(average.us, [&] {
          core::partial_average(r.own, weights.self_weight[p],
                                scratch.contributions, scratch.arena);
        });
        const std::span<float> x_next = scratch.arena.alloc<float>(params);
        span(inverse.us,
             [&] { r.ranker->inverse_into(r.own, x_next, scratch.dwt); });
        node.set_flat_params(x_next);
        std::span<const std::uint32_t> sent = r.sent;
        if (r.sent_dense) {
          const std::span<std::uint32_t> all =
              scratch.arena.alloc<std::uint32_t>(r.own.size());
          std::iota(all.begin(), all.end(), 0u);
          sent = all;
        }
        span(finish.us, [&] {
          r.ranker->finish_round(r.x_tau, x_next, sent, scratch.arena,
                                 scratch.dwt);
        });
        r.x0.assign(x_next.begin(), x_next.end());
      } else {
        const std::span<float> x = scratch.arena.alloc<float>(params);
        node.flat_params_into(x);
        span(average.us, [&] {
          core::partial_average(x, weights.self_weight[p],
                                scratch.contributions, scratch.arena);
        });
        node.set_flat_params(x);
      }
      if (compact) {
        span(slot.us, [&] { node.flat_params_into(store->slot(id)); });
        span(store_layer.us, [&] { store->store(id, r.x0); });
      }
    }
    network.finish_round(cfg.compute_seconds_per_round);
    span(evaluate.us, [&] { nodes.front().node->model().evaluate(eval_batch); });
    node_round += replay_nodes;
    ++replay_rounds;
  } while (replay_rounds < 3 ||
           (replay_rounds < 2000 && elapsed_s(replay_start) < 0.8 * replay_budget));

  // Where the real engine books each call, and how often per node-round.
  // Compact state fuses share into the train pass.
  const std::string share_phase = compact ? "train" : "share";
  const double d = static_cast<double>(degree);
  const double replayed = static_cast<double>(node_round);
  train.booking = {{"train", 1.0}};
  evaluate.booking = {{"evaluate", evaluate_calls_per_node_round(run)}};
  if (jwins_algo) {
    accumulate.booking = {{share_phase, 1.0}};
    transform.booking = {{share_phase, 1.0}};
    topk.booking = {{share_phase, static_cast<double>(sparse_shares) / replayed}};
    gather.booking = topk.booking;
    inverse.booking = {{"aggregate", 1.0}};
    finish.booking = {{"aggregate", 1.0}};
  } else {
    random_idx.booking = {{share_phase, 1.0}};
    gather.booking = {{share_phase, 1.0}};
  }
  encode.booking = {{share_phase, 1.0}};
  send.booking = {{share_phase, d}};
  drain.booking = {{"aggregate", 1.0}};
  decode.booking = {{"aggregate", d}};
  average.booking = {{"aggregate", 1.0}};
  if (compact) {
    view.booking = {{"train", 1.0}, {"aggregate", 1.0}};
    slot.booking = {{"train", 1.0}, {"aggregate", 1.0}};
    // The engine writes state back through slot(); store() is the store's
    // other write API and is not on the round path.
    store_layer.booking = {{"aggregate", 0.0}};
    for (std::size_t i = 0; i < run.nodes; ++i) store->slot(i);
    values["sim.node_state_bytes"] = static_cast<double>(store->memory_bytes());
  }
  values["core.payload_bytes"] = median(payload_bytes);

  write_json(run, degree, params, replay_nodes, replay_rounds, table, values);
  return 0;
}
