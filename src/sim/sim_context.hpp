// The deterministic ExecutionContext: a thin adapter over SimEnv (time,
// event queue) and the simulated Network.  Every call delegates 1:1, so
// a cluster refactored onto ExecutionContext produces bit-identical
// event sequences to one that called SimEnv/Network directly — the fuzz
// oracles' determinism guarantee survives the dual-mode refactor.
#pragma once

#include <cassert>

#include "runtime/execution_context.hpp"
#include "sim/network.hpp"
#include "sim/sim_env.hpp"

namespace retro::sim {

class SimContext final : public runtime::ExecutionContext {
 public:
  /// Context without a network (component unit tests that only need
  /// time/timers: disks, executors, stores).
  explicit SimContext(SimEnv& env) : env_(&env) {}
  SimContext(SimEnv& env, Network& network)
      : env_(&env), network_(&network) {}

  TimeMicros now() const override { return env_->now(); }

  void schedule(NodeId /*owner*/, TimeMicros delay,
                std::function<void()> fn) override {
    env_->schedule(delay, std::move(fn));
  }

  void scheduleDaemon(NodeId /*owner*/, TimeMicros delay,
                      std::function<void()> fn) override {
    env_->scheduleDaemon(delay, std::move(fn));
  }

  void registerNode(NodeId node, Handler handler) override {
    assert(network_ != nullptr);
    network_->registerNode(node, std::move(handler));
  }

  void disconnect(NodeId node) override {
    assert(network_ != nullptr);
    network_->disconnect(node);
  }

  bool isConnected(NodeId node) const override {
    return network_ != nullptr && network_->isConnected(node);
  }

  uint64_t send(runtime::Message message) override {
    assert(network_ != nullptr);
    return network_->send(std::move(message));
  }


  SimEnv& env() { return *env_; }
  Network* network() { return network_; }

 private:
  SimEnv* env_;
  Network* network_ = nullptr;
};

}  // namespace retro::sim
