// Receiver-side pessimistic merge across input wires.
//
// This implements the core scheduling rule of the paper (§II.E): a receiving
// component processes messages in strict virtual-time order, tie-broken by
// wire id (footnote 2). An earliest pending message with virtual time t may
// be dequeued only once every *other* input wire is known to carry no
// message that would have to be processed first — i.e. each other wire
// either has a pending head that orders after (t, wire), or has promised
// silence far enough:
//
//   - silent through >= t, or
//   - silent through >= t-1 when the other wire's id orders after ours
//     (any future message on it has vt >= t, and at vt == t the tie-break
//     favours us).
//
// Per-wire tick accounting (§II.F.1): every tick on a wire is either a data
// tick or a silent tick. FIFO delivery plus nondecreasing per-wire virtual
// times mean a message at vt t implicitly promises silence for all earlier
// unaccounted ticks — this is "lazy silence propagation". Explicit silence
// announcements (curiosity replies, aggressive pushes) advance the horizon
// without data.
//
// The time a dequeue-ready head spends blocked on other wires' horizons is
// pessimism delay — the principal overhead of determinism; the inbox
// exposes the lagging wires so silence-propagation strategies (curiosity
// probes) can chase them.
//
// Duplicate suppression (§II.F.4): after replay, "duplicate messages will
// have duplicate timestamps and will be discarded" — any arrival whose vt
// is not beyond the wire's accounted horizon is dropped as a duplicate.
//
// Runs: a sender that keeps what it sent (the external input log) can hand
// over a replay as a run — a seq range and the vt of its last record —
// instead of the messages. The run is accounted at once (next_seq and
// horizon move past it, exactly as offering its messages would), but its
// records are read back from the sender's store only as the wire drains,
// one chunk of at most kRunChunk at a time. Arrivals accepted behind a run
// queue after its remaining records, in order. Every count of pending
// messages includes a run's unread records.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/virtual_time.h"
#include "wire/message.h"

namespace tart::trace {
class TraceRecorder;
}

namespace tart {

/// Outcome of offering an arriving message to the inbox.
enum class AcceptResult {
  kAccepted,
  kDuplicate,  ///< vt already accounted on this wire; dropped.
  kGap,        ///< seq jumped: preceding ticks lost; replay needed.
};

/// A sender's store of messages it already sent, read back by seq.
class RunSource {
 public:
  /// Replaces `out` with at most `max` messages on `wire` from seq
  /// `from_seq` on, in order (reusing its storage), and returns how many.
  virtual std::size_t read_from_seq(WireId wire, std::uint64_t from_seq,
                                    std::size_t max,
                                    std::vector<Message>& out) const = 0;

 protected:
  ~RunSource() = default;
};

/// Messages [from_seq, end_seq) on `wire`, held by `source`; the last one
/// is at vt `through`. `source` must outlive every inbox holding the run
/// and keep the run's records until they are read.
struct MessageRun {
  const RunSource* source = nullptr;
  WireId wire;
  std::uint64_t from_seq = 0;
  std::uint64_t end_seq = 0;
  VirtualTime through;
};

/// Outcome of offering a run: what offering its messages one by one would
/// have returned, counted.
struct RunOfferResult {
  std::uint64_t accepted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t gaps = 0;  ///< the run starts past next_seq: all of it
};

class Inbox {
 public:
  /// Most records of a run decoded and held at once on one wire.
  static constexpr std::size_t kRunChunk = 64;

  /// Registers an input wire. All wires must be added before scheduling
  /// starts (static wiring per §II.B).
  void add_wire(WireId wire);

  /// Declares that `wire`'s sender follows the hyper-aggressive bias
  /// discipline (§II.G.1): data may only occupy ticks that are multiples of
  /// `window`. All other ticks are silent *by construction*, so the
  /// receiver infers silence up to the next boundary without any
  /// communication — the receiver-side half of the "bias algorithm" [11].
  /// Part of the deterministic configuration (changing it at runtime would
  /// be a determinism fault).
  void set_data_grid(WireId wire, std::int64_t window);

  [[nodiscard]] bool has_wire(WireId wire) const;
  [[nodiscard]] std::size_t wire_count() const { return wires_.size(); }

  /// Attaches the flight recorder (§II.F.4 evidence: duplicate discards
  /// and gap detections are recorded at the point of classification).
  /// `self` is the receiving component. Null detaches; costs one branch
  /// per rejection when detached.
  void set_trace(trace::TraceRecorder* recorder, ComponentId self) {
    trace_ = recorder;
    trace_self_ = self;
  }

  /// Offers an arriving message. FIFO per wire; the message's vt implicitly
  /// accounts all earlier ticks on that wire as silent. Moves `m` into the
  /// queue only when accepted; a duplicate or gap leaves it untouched.
  AcceptResult offer(Message&& m);

  /// Offers `run` as offering each of its messages in order would: the
  /// records below next_seq are duplicates, a run starting past next_seq
  /// is a gap, and the rest are accepted and accounted at once. Requires a
  /// sound sender: no silence it announced covers a record of the run.
  /// Reads the first chunk when the wire has nothing else pending.
  RunOfferResult offer_run(const MessageRun& run);

  /// Explicit silence announcement: `wire` has no data through `through`.
  /// Monotonic; stale announcements are ignored. When `expected_seq` is
  /// nonzero it is the sender's count of data messages at or before
  /// `through`; returns true if this inbox has seen fewer (ticks were lost
  /// and must be replayed from next_seq()). The horizon is only advanced
  /// when no gap is detected — a lost data tick is not silent.
  bool announce_silence(WireId wire, VirtualTime through,
                        std::uint64_t expected_seq = 0);

  /// The head that must be processed next in (vt, wire) order, if any
  /// message is pending at all (regardless of eligibility); null otherwise.
  /// Valid until the next offer/pop/restore_position.
  [[nodiscard]] const Message* peek() const;

  /// True when the next head (per peek) is eligible for dequeue under the
  /// pessimistic rule.
  [[nodiscard]] bool head_eligible() const;

  /// Pops the next message if eligible; nullopt otherwise.
  [[nodiscard]] std::optional<Message> pop();

  /// Wires whose silence horizon blocks the current head (targets for
  /// curiosity probes). Empty when no head or head is eligible.
  [[nodiscard]] std::vector<WireId> lagging_wires() const;

  /// Greatest vt through which *all* wires are accounted; the component can
  /// never again receive a message at or before this time. Used for idle
  /// detection and downstream silence generation.
  [[nodiscard]] VirtualTime accounted_through() const;

  /// Horizon of one wire (ticks <= horizon are accounted).
  [[nodiscard]] VirtualTime wire_horizon(WireId wire) const;

  /// Number of messages pending across all wires.
  [[nodiscard]] std::size_t pending() const;

  /// Messages pending on one wire (stall introspection).
  [[nodiscard]] std::size_t pending_on(WireId wire) const;

  /// Records of a run held decoded on `wire` (at most kRunChunk).
  [[nodiscard]] std::size_t decoded_run_messages(WireId wire) const;

  /// True when every wire is closed (horizon == +inf) and nothing pending.
  [[nodiscard]] bool exhausted() const;

  /// Next expected sequence number for a wire (for replay requests).
  [[nodiscard]] std::uint64_t next_seq(WireId wire) const;

  /// Restores a wire's position after checkpoint recovery: messages with
  /// vt <= `through` (or seq < `seq`) will be treated as duplicates.
  void restore_position(WireId wire, VirtualTime through, std::uint64_t seq);

 private:
  /// A run's unread records, then the arrivals accepted behind it.
  struct QueuedRun {
    MessageRun run;  // from_seq: the next record to read
    std::deque<Message> behind;
  };

  struct WireState {
    /// Decoded, in order; the first `run_chunk` came from a run. Empty
    /// only when `runs` is (reads refill it as it drains).
    std::deque<Message> pending;  // nondecreasing vt, increasing seq
    std::size_t run_chunk = 0;
    /// Queued behind `pending`, in order.
    std::deque<QueuedRun> runs;
    std::size_t queued = 0;  // unread run records plus their `behind`
    VirtualTime horizon = VirtualTime(-1);  // all ticks <= horizon accounted
    std::uint64_t next_seq = 0;
    std::int64_t grid = 0;  // bias window: data only at multiples (0 = off)
    bool closed() const { return horizon.is_infinite(); }

    /// Horizon including grid-implied silence: ticks strictly between the
    /// explicit horizon and the next grid boundary cannot carry data.
    [[nodiscard]] VirtualTime effective_horizon() const {
      if (grid <= 0 || horizon.is_infinite() || horizon.ticks() < 0)
        return horizon;
      const std::int64_t next_boundary =
          (horizon.ticks() / grid + 1) * grid;
      return VirtualTime(next_boundary - 1);
    }
  };

  /// Is head (t, id) allowed to run given wire w's state?
  [[nodiscard]] static bool permits(const WireState& w, WireId other_id,
                                    VirtualTime t, WireId id);

  /// The wire holding the (vt, wire)-least pending head; null when nothing
  /// is pending.
  [[nodiscard]] const WireState* head_wire() const;
  /// True when no other wire blocks `head` (a pending head of this inbox).
  [[nodiscard]] bool eligible(const Message& head) const;

  [[nodiscard]] const WireState* find(WireId wire) const;

  /// Restores the invariant that `pending` is empty only when `runs` is:
  /// reads the next chunk of the first run, and moves the arrivals behind
  /// a fully read run into `pending`.
  void refill(WireState& w);

  /// Cold out-of-line record paths (see inbox.cc).
  void trace_discard(const Message& m) const;
  void trace_gap(const Message& m) const;
  /// Records a rejected run's records [run.from_seq, end) as offer()
  /// records rejected messages (discards, or gaps when `gap`).
  void trace_run(const MessageRun& run, std::uint64_t end, bool gap) const;

  std::map<WireId, WireState> wires_;
  std::vector<Message> chunk_;  // refill's read buffer, reused
  trace::TraceRecorder* trace_ = nullptr;
  ComponentId trace_self_;
};

}  // namespace tart
