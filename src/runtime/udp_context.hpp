// Real-networking transport: the third ExecutionContext implementation,
// carrying Message traffic over genuine UDP sockets (loopback for the
// hermetic suites; bindable addresses for multi-process deployments)
// behind the same seam the simulator and the in-process channel
// transport plug into.
//
// Layering: UdpContext DECORATES a RealtimeContext.  Timers, node
// registration, worker threads and final in-process delivery stay the
// inner context's job; UdpContext owns only the wire.  send() serializes
// the message into CRC32C-framed datagrams (runtime/datagram.hpp) and
// pushes them through the kernel with sendto().  Each node's socket is
// attached to that node's own worker (RealtimeContext::attachSocket):
// the worker waits on it, drains it before each batch, and decodes,
// deduplicates and reassembles on its own thread, handing completed
// messages to its own inbox — one thread wake per datagram.  The chaos
// interposer (FaultfulContext) stacks ON TOP of this context, so fault
// scripts perturb traffic before it ever reaches the wire, and the
// kernel's own losses are handled below it.
//
// Reliability layer (what makes every existing protocol survive genuine
// kernel-level loss):
//   * per-link (from->to) sequence numbers with a sliding dedup window
//     on the receiver — retransmitted duplicates are invisible;
//   * acks ride reverse traffic: a received data datagram (duplicates
//     included) leaves an ack owed on its link, paid on the next data
//     datagram sent straight to that peer.  Owed acks go out as one
//     standalone kAck per link before the worker parks, and after any
//     batch for acks already owed when that batch's loop iteration began
//     (so a reply deferred by one iteration still carries the ack);
//   * retransmit driven by the shared RetryPolicy: capped
//     exponential backoff with deterministic jitter, an attempt budget
//     AND a total deadline per datagram (RetryBudget) — exhaustion is
//     reported through counters and peer-health suspicion, never looped;
//   * MTU-bounded fragmentation/reassembly for large payloads (transfer
//     chunks, view gossip, snapshot replies);
//   * flow control: per link at most 256 datagrams are unacked
//     and the live seq span is bounded to half the dedup window, so a
//     straggler retransmission can never be mistaken for a duplicate;
//   * per-peer health: consecutive retransmit exhaustions mark a link
//     suspected (new traffic degrades to single-shot sends so queues
//     stay bounded); any sign of life from the peer heals it.  A dead
//     peer therefore costs bounded work and surfaces as the timeout /
//     kPartial outcomes the protocol layers already speak — never a
//     hang.
//
// Threads: none per node; one retransmit pacer for the whole context,
// spawned by start() and joined by stop().  The pacer sleeps to the
// earliest retransmit deadline and publishes when it will wake; a sender
// kicks it only for a datagram due before then.
// Lifecycle: construct -> registerNode() all nodes before the inner
// context starts (sockets bind and attach here; the address registry is
// immutable once start() runs) -> start() -> ... -> stop().  stop()
// stops the inner context first (its workers read the sockets), so it is
// safe before, after, or without the inner context's own stop().  The
// inner context must outlive this one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "runtime/datagram.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/realtime_context.hpp"
#include "runtime/retry.hpp"

namespace retro::runtime {

/// Chunk size, dedup window, flight cap and reassembly staleness are
/// constants in udp_context.cpp.
struct UdpConfig {
  /// Retransmit schedule per datagram (shared RetryPolicy semantics:
  /// attempt budget + capped backoff + deterministic jitter + total
  /// deadline).  Tuned for loopback RTTs; widen for real networks.
  RetryPolicy retransmit{/*maxAttempts=*/8,
                         /*backoffBaseMicros=*/2'000,
                         /*backoffCapMicros=*/60'000,
                         /*jitter=*/0.2,
                         /*totalDeadlineMicros=*/500'000};
  /// Consecutive retransmit exhaustions on a link before its peer is
  /// suspected (degraded single-shot sends until a sign of life).
  uint32_t suspectAfterExhaustions = 3;
  /// Injected kernel-path loss: every transmission (data and ack) is
  /// dropped before sendto() with this probability, seeded and
  /// per-transmission (retransmits reroll).  The hermetic stand-in for
  /// a genuinely lossy network; 0 disables.
  double datagramLossProbability = 0;
  uint64_t lossSeed = 1;
};

/// Health snapshot of one directional link (sender's view of a peer).
struct LinkHealth {
  uint32_t consecutiveExhaustions = 0;
  bool suspected = false;
};

class UdpContext final : public ExecutionContext {
 public:
  UdpContext(RealtimeContext& inner, UdpConfig config);
  ~UdpContext() override;

  UdpContext(const UdpContext&) = delete;
  UdpContext& operator=(const UdpContext&) = delete;

  // --- ExecutionContext (wire interception, everything else delegated) ---
  TimeMicros now() const override { return inner_.now(); }
  void schedule(NodeId owner, TimeMicros delay,
                std::function<void()> fn) override {
    inner_.schedule(owner, delay, std::move(fn));
  }
  void scheduleDaemon(NodeId owner, TimeMicros delay,
                      std::function<void()> fn) override {
    inner_.scheduleDaemon(owner, delay, std::move(fn));
  }
  /// First registration of a node binds its UDP socket (127.0.0.1, a
  /// kernel-assigned port), records it in the address registry and
  /// attaches it to the node's worker; it must precede inner.start().
  /// Re-registration (crash/restart) only swaps the inner handler — the
  /// transport state (sequences, dedup windows) survives, as it would
  /// for a process that restarts behind a stable address.
  void registerNode(NodeId node, Handler handler) override;
  void disconnect(NodeId node) override { inner_.disconnect(node); }
  bool isConnected(NodeId node) const override {
    return inner_.isConnected(node);
  }
  uint64_t send(Message message) override;

  // --- lifecycle ---
  /// Spawn the retransmit pacer and open the wire to send().  Call after
  /// every registerNode(), before or after the inner context's start().
  /// Idempotent.
  void start();
  /// Stop the inner context (joining the workers that read the sockets),
  /// join the pacer and close the sockets.  Idempotent; the destructor
  /// calls it.  Safe before or after the inner context's own stop().
  void stop();

  /// Pre-start address override for a peer that lives in another
  /// process: traffic to `node` goes to ip:port instead of a local
  /// socket.  (The loopback suites never need this; it is the
  /// multi-process seam.)
  void setPeerAddress(NodeId node, const std::string& ipv4, uint16_t port);
  /// The UDP port `node`'s socket is bound to (0 if unknown).
  uint16_t portOf(NodeId node) const;

  // --- test hooks ---
  /// Simulate NIC death: while muted, `node`'s worker discards every
  /// datagram before the reliability layer sees it — no acks, no
  /// deliveries.  Senders see a silent peer (retransmit -> exhaustion
  /// -> suspicion).  Thread-safe, runtime-mutable.
  void muteReceiver(NodeId node, bool muted);

  /// Sender's health view of the link node -> peer.
  LinkHealth linkHealth(NodeId node, NodeId peer) const;
  size_t suspectedLinkCount() const;

  // --- wire statistics (atomics; exact after stop()) ---
  uint64_t datagramsSent() const { return datagramsSent_.load(); }
  uint64_t datagramsReceived() const { return datagramsReceived_.load(); }
  uint64_t retransmits() const { return retransmits_.load(); }
  uint64_t dedupHits() const { return dedupHits_.load(); }
  uint64_t crcRejects() const { return crcRejects_.load(); }
  uint64_t reassemblyDrops() const { return reassemblyDrops_.load(); }
  uint64_t exhaustions() const { return exhaustions_.load(); }
  uint64_t lossInjected() const { return lossInjected_.load(); }
  uint64_t messagesDelivered() const { return messagesDelivered_.load(); }
  uint64_t fragmentsSent() const { return fragmentsSent_.load(); }
  /// Standalone kAck datagrams sent, and data datagrams that carried
  /// acks on their first transmission instead.
  uint64_t acksSent() const { return acksSent_.load(); }
  uint64_t acksPiggybacked() const { return acksPiggybacked_.load(); }

  /// Snapshot every transport counter under the "udp.*" / "retry.*"
  /// names (the failure-artifact and bench reporting path).
  Counters counters() const;

 private:
  struct Unacked {
    std::string bytes;  ///< encoded frame, ready for sendto()
    NodeId peer = 0;
    RetryBudget budget;
    TimeMicros nextAt = 0;
  };

  struct Backlogged {
    uint64_t seq = 0;
    std::string bytes;
    NodeId peer = 0;
  };

  /// Directional transport state between an owning node and one peer.
  /// Guarded by the owning UdpNode's mutex.
  struct Link {
    // outbound (owner -> peer)
    uint64_t nextSeq = 1;
    uint64_t nextFragUid = 1;
    std::map<uint64_t, Unacked> unacked;  ///< seq -> in-flight datagram
    std::deque<Backlogged> backlog;       ///< waiting for a flight slot
    uint32_t consecutiveExhaustions = 0;
    bool suspected = false;
    // inbound (peer -> owner)
    DedupWindow dedup;
    Reassembler reassembler;
    std::vector<uint64_t> owedAcks;  ///< received seqs not yet acked
    uint64_t owedSince = 0;          ///< drain generation of the oldest
    uint32_t ackSerial = 0;          ///< standalone acks sent (loss rolls)

    Link(size_t window, TimeMicros staleMicros)
        : dedup(window), reassembler(staleMicros) {}
  };

  struct UdpNode {
    NodeId id = 0;
    int fd = -1;
    uint16_t port = 0;
    mutable std::mutex mu;  ///< guards links
    std::map<NodeId, Link> links;
    std::atomic<bool> muted{false};
    // Worker-thread only (the node's RealtimeContext worker):
    uint64_t generation = 0;    ///< socket drains so far
    std::vector<char> rxBuf;
  };

  struct PeerAddr {
    uint32_t ipv4 = 0;  ///< network byte order
    uint16_t port = 0;  ///< network byte order
  };

  Link& linkLocked(UdpNode& node, NodeId peer);
  bool admitLocked(const Link& link, uint64_t seq) const;
  /// First transmission of an admitted datagram; it joins the unacked set.
  void sendNowLocked(UdpNode& node, Link& link, NodeId peer, uint64_t seq,
                     std::string bytes);
  void drainBacklogLocked(UdpNode& node, Link& link, NodeId peer);
  /// Loss-roll + sendto(); returns false when the roll ate the packet.
  bool transmit(int fd, NodeId to, const std::string& bytes,
                uint64_t lossKey);
  /// Pay every ack owed on `link` with standalone kAck datagrams.
  void sendOwedAcksLocked(UdpNode& node, Link& link, NodeId peer);
  void handleDatagram(UdpNode& node, const Datagram& d);
  void noteAliveLocked(Link& link);
  /// RealtimeContext::SocketHooks, run on the node's worker.
  void drainSocket(UdpNode& node);
  void flushAcks(UdpNode& node, bool parking);
  void pacerLoop();
  void wakePacer();
  /// Kick the pacer if a datagram is due before it plans to wake.
  void kickPacerFor(TimeMicros nextAt);

  RealtimeContext& inner_;
  UdpConfig config_;

  mutable std::mutex nodesMu_;  ///< guards map shape pre-start only
  std::map<NodeId, std::unique_ptr<UdpNode>> nodes_;
  std::map<NodeId, PeerAddr> peers_;  ///< immutable once started_
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  bool joined_ = false;

  std::thread pacer_;
  std::mutex pacerMu_;
  std::condition_variable pacerCv_;
  bool pacerKick_ = false;
  /// When the pacer will next scan; "never" while it is scanning, so
  /// every new datagram then kicks it.
  static constexpr TimeMicros kPacerAwake =
      std::numeric_limits<TimeMicros>::max();
  std::atomic<TimeMicros> pacerWakeAt_{kPacerAwake};

  std::atomic<uint64_t> nextMsgId_{1};
  std::atomic<uint64_t> datagramsSent_{0};
  std::atomic<uint64_t> datagramsReceived_{0};
  std::atomic<uint64_t> retransmits_{0};
  std::atomic<uint64_t> acksSent_{0};
  std::atomic<uint64_t> acksPiggybacked_{0};
  std::atomic<uint64_t> acksReceived_{0};
  std::atomic<uint64_t> dedupHits_{0};
  std::atomic<uint64_t> crcRejects_{0};
  std::atomic<uint64_t> reassemblyDrops_{0};
  std::atomic<uint64_t> exhaustions_{0};
  std::atomic<uint64_t> deadlineExceeded_{0};
  std::atomic<uint64_t> lossInjected_{0};
  std::atomic<uint64_t> suspectedEvents_{0};
  std::atomic<uint64_t> healedEvents_{0};
  std::atomic<uint64_t> suspectSends_{0};
  std::atomic<uint64_t> backlogged_{0};
  std::atomic<uint64_t> fragmentsSent_{0};
  std::atomic<uint64_t> messagesDelivered_{0};
  std::atomic<uint64_t> localFallbacks_{0};
  std::atomic<uint64_t> mutedDrops_{0};
};

}  // namespace retro::runtime
