#include "sim/tart_sim.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <vector>

#include "estimator/bias.h"
#include "sim/event_queue.h"
#include "stats/online_stats.h"
#include "wire/inbox.h"

namespace tart::sim {

namespace {

/// One external message travelling through the simulated system. The
/// external arrival (real) time rides along for latency accounting.
struct ExtMsg {
  SimTime arrival = 0;  // real == virtual time for external messages
  int iterations = 0;
};

class Simulation {
 public:
  explicit Simulation(const SimConfig& config)
      : config_(config),
        gaussian_(config.per_tick_jitter_sd),
        bias_(TickDuration(config.bias_ns)) {}

  SimResult run();

 private:
  struct Sender {
    int id = 0;
    WireId wire;
    std::deque<ExtMsg> queue;
    std::uint64_t remaining_arrivals = 0;  // not yet arrived
    bool busy = false;
    SimTime busy_start = 0;
    SimTime busy_real_total = 0;
    int busy_iters = 0;
    std::int64_t dequeue_vt = 0;
    std::int64_t out_vt = 0;       // output vt of the in-flight message
    std::int64_t current_vt = 0;   // virtual position when idle
    std::uint64_t out_seq = 0;
    bool closed = false;           // final silence announced
    Rng jitter_rng{0};
  };

  // --- Estimators ----------------------------------------------------------

  [[nodiscard]] std::int64_t estimate(int k) const {
    if (config_.dumb_estimator)
      return static_cast<std::int64_t>(config_.dumb_estimate_ns);
    return static_cast<std::int64_t>(config_.estimator_ns_per_iter * k);
  }

  [[nodiscard]] std::int64_t min_estimate() const { return estimate(1); }

  [[nodiscard]] std::int64_t real_compute_ns(int k, Rng& rng) const {
    if (config_.bank != nullptr) return config_.bank->sample(k, rng);
    return gaussian_.real_ns(config_.per_iter_vt_ns * k, rng);
  }

  [[nodiscard]] bool biased(const Sender& s) const {
    if (config_.bias_ns <= 0) return false;
    return config_.biased_sender == -2 || s.id == config_.biased_sender;
  }

  // --- Sender processor ------------------------------------------------------

  void on_arrival(Sender& s, ExtMsg msg) {
    --s.remaining_arrivals;
    s.queue.push_back(msg);
    if (!s.busy) start_service(s);
  }

  void start_service(Sender& s) {
    assert(!s.queue.empty());
    const ExtMsg& msg = s.queue.front();
    s.dequeue_vt = std::max<std::int64_t>(msg.arrival, s.current_vt);
    s.busy_iters = msg.iterations;
    std::int64_t out = s.dequeue_vt + estimate(msg.iterations);
    if (biased(s)) out = bias_.adjust(VirtualTime(out)).ticks();
    s.out_vt = out;
    s.busy = true;
    s.busy_start = queue_.now();
    s.busy_real_total = real_compute_ns(msg.iterations, s.jitter_rng);
    queue_.schedule_after(s.busy_real_total, [this, &s] { complete(s); });
  }

  void complete(Sender& s) {
    const ExtMsg msg = s.queue.front();
    s.queue.pop_front();
    s.busy = false;
    s.current_vt = s.out_vt;

    Message m;
    m.wire = s.wire;
    m.vt = VirtualTime(s.out_vt);
    m.seq = s.out_seq++;
    m.payload = Payload(static_cast<std::int64_t>(msg.arrival));
    merger_receive(m);

    if (!s.queue.empty()) {
      start_service(s);
    } else if (s.remaining_arrivals == 0 && !s.closed) {
      // The external feed is exhausted: promise silence forever so the
      // merger can drain (the drain phase of the experiment).
      s.closed = true;
      merger_silence(s.wire, VirtualTime::infinity());
    }
  }

  /// Sound silence horizon for a probed sender at real time `t` (§II.H).
  [[nodiscard]] std::int64_t sender_horizon(const Sender& s, SimTime t) const {
    if (s.closed) return VirtualTime::infinity().ticks();
    if (s.busy) {
      if (config_.mode == SimMode::kPrescient || config_.dumb_estimator) {
        // The output virtual time is fully known before the loop finishes.
        return s.out_vt - 1;
      }
      // Non-prescient: the sender knows how many iterations it has
      // *finished* but "is assumed not to know how many more will follow";
      // it promises at least one more iteration beyond its progress.
      const double frac =
          static_cast<double>(t - s.busy_start) /
          static_cast<double>(std::max<SimTime>(s.busy_real_total, 1));
      const int done = std::min(
          s.busy_iters - 1,
          static_cast<int>(frac * s.busy_iters));
      const auto per =
          static_cast<std::int64_t>(config_.estimator_ns_per_iter);
      return s.dequeue_vt + static_cast<std::int64_t>(done + 1) * per - 1;
    }
    // Idle: external arrivals are timestamped with real time, so nothing
    // can be dequeued before max(current position, now); add the shortest
    // possible processing (§II.H).
    std::int64_t base = std::max<std::int64_t>(s.current_vt, t);
    std::int64_t h = base + min_estimate() - 1;
    if (biased(s))
      h = std::max<std::int64_t>(
          h, bias_.eager_promise(VirtualTime(base)).ticks());
    return h;
  }

  // --- Merger processor --------------------------------------------------------

  void merger_receive(const Message& m) {
    if (m.vt.ticks() < max_arrival_vt_) ++result_.out_of_order;
    max_arrival_vt_ = std::max(max_arrival_vt_, m.vt.ticks());

    if (config_.mode == SimMode::kNonDeterministic) {
      fifo_.push_back(m);
      peak_queue();
      try_dispatch();
      return;
    }
    if (config_.mode == SimMode::kOptimistic) {
      optimistic_receive(m);
      return;
    }
    const AcceptResult r = inbox_.offer(Message(m));
    assert(r == AcceptResult::kAccepted);
    (void)r;
    peak_queue();
    try_dispatch();
  }

  // --- Optimistic (Time Warp) merger --------------------------------------

  struct OptJob {
    Message msg;
    std::int64_t extra_ns = 0;  // rollback state-restore overhead
  };

  void optimistic_receive(const Message& m) {
    // Straggler detection against *processed* history: anything already
    // executed with a later virtual time must be rolled back and redone
    // after this message (Jefferson's rollback, §II.D).
    if (!opt_history_.empty() && m.vt < opt_history_.back().vt) {
      ++result_.rollbacks;
      std::vector<Message> redo;
      while (!opt_history_.empty() && opt_history_.back().vt > m.vt) {
        redo.push_back(opt_history_.back());
        opt_history_.pop_back();
      }
      result_.reexecutions += redo.size();
      // The straggler runs first (paying the state restore), then the
      // rolled-back messages in virtual-time order. They preempt anything
      // still waiting in the arrival queue.
      std::vector<OptJob> jobs;
      jobs.push_back(OptJob{
          m, config_.rollback_cost_ns *
                 static_cast<std::int64_t>(redo.size())});
      for (auto it = redo.rbegin(); it != redo.rend(); ++it)
        jobs.push_back(OptJob{*it, 0});
      opt_queue_.insert(opt_queue_.begin(), jobs.begin(), jobs.end());
    } else {
      opt_queue_.push_back(OptJob{m, 0});
    }
    result_.peak_merger_queue =
        std::max(result_.peak_merger_queue, opt_queue_.size());
    optimistic_dispatch();
  }

  void optimistic_dispatch() {
    if (merger_busy_ || opt_queue_.empty()) return;
    const OptJob job = opt_queue_.front();
    opt_queue_.pop_front();
    merger_busy_ = true;
    const std::int64_t service = config_.merger_service_ns + job.extra_ns;
    const SimTime done_at = queue_.now() + service;
    queue_.schedule_after(service, [this, job, done_at, service] {
      merger_busy_ = false;
      merger_busy_ns_ += service;
      // Completion is only final if no later rollback re-executes this
      // message; record/overwrite by (wire, external arrival) identity.
      opt_completion_[{job.msg.wire.value(), job.msg.payload.as_int()}] =
          done_at;
      // Insert into processed history keeping vt order (insertions are
      // near the tail: only a straggler's redo lands earlier).
      const auto pos = std::upper_bound(
          opt_history_.begin(), opt_history_.end(), job.msg,
          [](const Message& a, const Message& b) { return a.vt < b.vt; });
      opt_history_.insert(pos, job.msg);
      // GVT-style fossil collection: entries far enough in the past can no
      // longer be rolled back by any realistic straggler (bounds history
      // to a sliding window; a straggler later than the window would be
      // under-counted, which only flatters optimism).
      const VirtualTime horizon(max_arrival_vt_ - 50'000'000);
      while (!opt_history_.empty() && opt_history_.front().vt < horizon)
        opt_history_.pop_front();
      optimistic_dispatch();
    });
  }

  void finalize_optimistic_latencies() {
    for (const auto& [key, done_at] : opt_completion_) {
      const double us =
          static_cast<double>(done_at - key.second) / 1000.0;
      latency_.add(us);
      latencies_.push_back(us);
      ++result_.completed;
    }
  }

  void merger_silence(WireId wire, VirtualTime through) {
    if (config_.mode == SimMode::kNonDeterministic ||
        config_.mode == SimMode::kOptimistic)
      return;  // neither needs silence
    (void)inbox_.announce_silence(wire, through);
    try_dispatch();
  }

  void peak_queue() {
    const std::size_t depth = config_.mode == SimMode::kNonDeterministic
                                  ? fifo_.size()
                                  : inbox_.pending();
    result_.peak_merger_queue = std::max(result_.peak_merger_queue, depth);
  }

  void try_dispatch() {
    if (merger_busy_) return;

    std::optional<Message> next;
    if (config_.mode == SimMode::kNonDeterministic) {
      if (!fifo_.empty()) {
        next = fifo_.front();
        fifo_.pop_front();
      }
    } else {
      next = inbox_.pop();
      if (!next && inbox_.pending() > 0) {
        enter_pessimism_delay();
        return;
      }
    }
    if (!next) return;
    exit_pessimism_delay();

    merger_busy_ = true;
    const SimTime done_at = queue_.now() + config_.merger_service_ns;
    const SimTime ext_arrival = next->payload.as_int();
    queue_.schedule_after(config_.merger_service_ns,
                          [this, ext_arrival, done_at] {
                            merger_busy_ = false;
                            ++result_.completed;
                            merger_busy_ns_ += config_.merger_service_ns;
                            latency_.add(
                                static_cast<double>(done_at - ext_arrival) /
                                1000.0);
                            latencies_.push_back(
                                static_cast<double>(done_at - ext_arrival) /
                                1000.0);
                            try_dispatch();
                          });
  }

  void enter_pessimism_delay() {
    if (!delay_active_) {
      delay_active_ = true;
      delay_start_ = queue_.now();
      ++result_.pessimism_events;
    }
    if (config_.silence == SimSilence::kCuriosity) send_probes();
    // Lazy: just wait for the next data message (whose vt implies silence).
  }

  void exit_pessimism_delay() {
    if (delay_active_) {
      delay_active_ = false;
      result_.pessimism_wait_us +=
          static_cast<double>(queue_.now() - delay_start_) / 1000.0;
    }
  }

  void send_probes() {
    for (const WireId w : inbox_.lagging_wires()) {
      auto& outstanding = probe_outstanding_[w.value()];
      if (outstanding) continue;
      outstanding = true;
      ++result_.probes;
      Sender& s = senders_[w.value()];
      queue_.schedule_after(config_.probe_rtt_ns, [this, &s, w] {
        probe_outstanding_[w.value()] = false;
        merger_silence(w, VirtualTime(sender_horizon(s, queue_.now())));
        // Still blocked on this wire? Probe again (the paper's receiver
        // keeps chasing silence while the pessimism delay persists).
        if (!merger_busy_ && inbox_.pending() > 0 && !inbox_.head_eligible())
          send_probes();
      });
    }
  }

  // --- Workload -----------------------------------------------------------------

  void generate_workload() {
    Rng workload_rng(config_.seed);
    senders_.resize(static_cast<std::size_t>(config_.num_senders));
    probe_outstanding_.assign(
        static_cast<std::size_t>(config_.num_senders), false);
    for (int i = 0; i < config_.num_senders; ++i) {
      Sender& s = senders_[static_cast<std::size_t>(i)];
      s.id = i;
      s.wire = WireId(static_cast<std::uint32_t>(i));
      s.jitter_rng = Rng(config_.seed * 7919 + static_cast<unsigned>(i));
      if (config_.mode != SimMode::kNonDeterministic &&
          config_.mode != SimMode::kOptimistic) {
        inbox_.add_wire(s.wire);
        // Receiver-side half of the bias algorithm: data from a biased
        // sender only occupies grid-boundary ticks, so the merger infers
        // silence in between without communication.
        if (config_.bias_ns > 0 &&
            (config_.biased_sender == -2 || i == config_.biased_sender))
          inbox_.set_data_grid(s.wire, config_.bias_ns + 1);
      }

      // Pre-generate this sender's arrival stream so every mode sees the
      // identical workload for a given seed.
      Rng arrivals = workload_rng.fork();
      const double mean_us =
          (i == 0 && config_.slow_arrival_mean_us > 0)
              ? config_.slow_arrival_mean_us
              : config_.arrival_mean_us;
      double t_us = 0;
      std::int64_t last_arrival_ns = -1;
      for (;;) {
        t_us += arrivals.exponential(mean_us);
        if (t_us > config_.duration_us) break;
        ExtMsg msg;
        msg.arrival = static_cast<SimTime>(t_us * 1000.0);
        // External vts must be strictly increasing per wire.
        if (msg.arrival <= last_arrival_ns) msg.arrival = last_arrival_ns + 1;
        last_arrival_ns = msg.arrival;
        msg.iterations = static_cast<int>(arrivals.uniform_int(
            config_.iterations.min, config_.iterations.max));
        ++s.remaining_arrivals;
        ++result_.generated;
        queue_.schedule(msg.arrival, [this, &s, msg] { on_arrival(s, msg); });
      }
      if (s.remaining_arrivals == 0) {
        s.closed = true;
        queue_.schedule(0, [this, &s] {
          merger_silence(s.wire, VirtualTime::infinity());
        });
      }
    }
  }

  const SimConfig& config_;
  GaussianJitter gaussian_;
  estimator::BiasPolicy bias_;
  EventQueue queue_;

  std::vector<Sender> senders_;
  Inbox inbox_;
  std::deque<Message> fifo_;
  std::vector<char> probe_outstanding_;
  std::int64_t max_arrival_vt_ = -1;

  bool merger_busy_ = false;
  bool delay_active_ = false;
  SimTime delay_start_ = 0;
  std::int64_t merger_busy_ns_ = 0;

  // kOptimistic state.
  std::deque<OptJob> opt_queue_;
  std::deque<Message> opt_history_;  // processed, sorted by vt (windowed)
  // (wire, ext arrival) -> final completion time.
  std::map<std::pair<std::uint32_t, std::int64_t>, SimTime> opt_completion_;

  stats::OnlineStats latency_;
  std::vector<double> latencies_;
  SimResult result_;
};

SimResult Simulation::run() {
  generate_workload();

  const auto feed_ns = static_cast<SimTime>(config_.duration_us * 1000.0);
  queue_.run_until(feed_ns);
  // Drain phase: allow a generous grace window for queues to empty.
  queue_.run_until(feed_ns * 3 + 1'000'000'000);

  if (config_.mode == SimMode::kOptimistic) finalize_optimistic_latencies();
  result_.stable = result_.completed == result_.generated;
  exit_pessimism_delay();

  result_.avg_latency_us = latency_.mean();
  result_.max_latency_us = latency_.max();
  if (!latencies_.empty()) {
    std::sort(latencies_.begin(), latencies_.end());
    result_.p50_latency_us = latencies_[latencies_.size() / 2];
    result_.p95_latency_us =
        latencies_[static_cast<std::size_t>(
            static_cast<double>(latencies_.size() - 1) * 0.95)];
  }
  result_.merger_utilization =
      static_cast<double>(merger_busy_ns_) / static_cast<double>(feed_ns);
  return result_;
}

}  // namespace

SimResult run_simulation(const SimConfig& config) {
  Simulation sim(config);
  return sim.run();
}

}  // namespace tart::sim
