// Frame routing between engines, external adapters, and runners.
//
// Data and silence frames flow *with* a wire (to its receiver); probes,
// replay requests and stability acknowledgements flow *against* it (to its
// sender). The Runtime implements this interface, optionally passing
// cross-engine hops through simulated network links.
#pragma once

#include <span>

#include "common/ids.h"
#include "transport/frame.h"
#include "wire/message.h"

namespace tart::core {

class FrameRouter {
 public:
  virtual ~FrameRouter() = default;

  /// Delivers a frame to the receiving end of `wire` (component inbox,
  /// reply slot, or external consumer).
  virtual void to_receiver(WireId wire, transport::Frame frame) = 0;

  /// Delivers a run of data messages on `wire`, in order, as one hand-off:
  /// the route is resolved once, and a local receiving runner takes its
  /// lock once and is woken once. Each message is moved out of `batch`
  /// (the caller keeps the moved-from elements and their storage).
  virtual void to_receiver_batch(WireId wire, std::span<Message> batch) = 0;

  /// Delivers a frame to the sending end of `wire` (component runner or
  /// external input adapter).
  virtual void to_sender(WireId wire, transport::Frame frame) = 0;
};

}  // namespace tart::core
