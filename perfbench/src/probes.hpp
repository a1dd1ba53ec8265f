// Isolated re-timings of single layers, run by the traced benchmark after
// the cluster has stopped: each times one library call on inputs taken
// from the run itself, so a change to that layer shows up here even when
// the end-to-end numbers cannot resolve it.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "log/window_log.hpp"
#include "runtime/message.hpp"
#include "runtime/realtime_context.hpp"

namespace perfbench {

/// Re-arms a 2 ms no-op timer on `node` until the context stops.  Call it
/// for every node right before RealtimeContext::stop(): stop() raises its
/// stop flag and notifies the workers without holding their mutexes, so a
/// worker that has just seen the flag down and is about to wait with no
/// timer pending can miss the notification and sleep forever, and stop()
/// then never returns from joining it.  A pending timer bounds that wait.
void armWakeGuard(retro::runtime::RealtimeContext& ctx, retro::NodeId node);

/// One-way message handoff between two nodes of a fresh RealtimeContext
/// (half the median ping-pong round trip), microseconds.
double handoffP50Us(int roundTrips);

struct CodecTiming {
  double encodeUs = 0;  ///< encodeMessageBody + encodeDatagram, per message
  double decodeUs = 0;  ///< decodeDatagram + decodeMessageBody, per message
};

/// Codec cost per message over `mix`, median of several batches.
CodecTiming codecTiming(const std::vector<retro::runtime::Message>& mix);

/// Median WindowLog::diffToPast time, milliseconds, at `deltasMillis`
/// before the log's newest entry.
double diffToPastMs(const retro::log::WindowLog& log,
                    std::span<const int64_t> deltasMillis);

/// Nanoseconds per append when the log's entries are replayed into a
/// fresh WindowLog of the same configuration.
double appendNs(const retro::log::WindowLog& log);

/// Median core::evalOverLog time for `queryText`, milliseconds; -1 when
/// the query does not parse or evaluate.
double queryReplayMs(const std::string& queryText,
                     const std::unordered_map<retro::Key, retro::Value>& state,
                     const retro::log::WindowLog& log);

}  // namespace perfbench
