// The QoS scheduler of server dispatch: three fixed bands in the RT-CORBA
// priority-lane mold, mounted once, in giop::DispatchPool.
//
//   * The High/Normal/Low bands share service by weighted fair queueing
//     (stride scheduling over a virtual-time "pass" per band, weights
//     8/4/1). Simultaneous activations serve High before Normal before
//     Low, and a band that was idle rejoins at the current virtual time.
//   * Each band holds per-binding FIFO flows served by deficit round
//     robin, so one binding's burst cannot reorder or starve its
//     neighbours inside a band. A flow may carry a token-bucket rate cap.
//   * Every item carries two sizes. Its `cost` times its flow's `price`,
//     in the unit of the quantum the owner passes at construction, drives
//     the DRR deficits and the WFQ passes; its `bytes` feed the token
//     bucket, so a rate cap stays a byte rate. The price is read when the
//     item is served, so re-pricing a flow re-prices its queue: the
//     dispatch pool queues each job as one unit priced at its binding's
//     measured average servant time (ns), and fairness is in the resource
//     the workers spend.
//   * Each flow runs CoDel-style AQM (Nichols & Jacobson): when the head
//     sojourn stays above `target` for a full `interval`, the flow enters
//     a drop state shedding its own load at an increasing rate until the
//     standing queue collapses — a flooding tenant pays with its own p99,
//     not everyone else's.
//
//       Dequeue --WFQ 8:4:1--> High | Normal | Low
//                                 each: DRR ring of flows (one per binding)
//                                       flow = FIFO + token bucket + CoDel
//
// Every item carries its enqueue timestamp; per-band sojourn lands in a
// shared Histogram so percentiles come out of the same representation the
// benchmarks use.
//
// The scheduler is a passive data structure driven by explicit `now`
// values: not internally synchronized (the owner wraps it in its mutex)
// and fully deterministic under a synthetic clock, which is how the unit
// tests pin down DRR quantum accounting, WFQ ratios and CoDel entry/exit.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/histogram.h"

namespace cool::sched {

// --- token bucket ------------------------------------------------------------

// Byte-rate shaper. rate == 0 means unshaped. The bucket may go one item
// negative (an item is never split), which delays the next grant — the
// long-run rate still converges on `rate_bytes_per_sec`.
class TokenBucket {
 public:
  TokenBucket() = default;

  void Configure(std::uint64_t rate_bytes_per_sec, std::uint64_t burst_bytes,
                 TimePoint now) {
    rate_ = rate_bytes_per_sec;
    burst_ = burst_bytes == 0 ? 1 : burst_bytes;
    tokens_ = static_cast<std::int64_t>(burst_);
    last_ = now;
  }

  bool unlimited() const { return rate_ == 0; }

  void Refill(TimePoint now) {
    if (rate_ == 0 || now <= last_) return;
    const auto dt_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count();
    last_ = now;
    const auto earned = static_cast<std::int64_t>(
        static_cast<unsigned __int128>(rate_) *
        static_cast<unsigned __int128>(dt_ns) / 1'000'000'000u);
    tokens_ = std::min<std::int64_t>(tokens_ + earned,
                                     static_cast<std::int64_t>(burst_));
  }

  bool Ready() const { return rate_ == 0 || tokens_ >= 0; }

  void Charge(std::uint64_t bytes) {
    if (rate_ != 0) tokens_ -= static_cast<std::int64_t>(bytes);
  }

  // Earliest instant Ready() can become true again (== now when it already
  // is). Only meaningful for shaped buckets.
  TimePoint ReadyAt(TimePoint now) const {
    if (Ready()) return now;
    const auto deficit = static_cast<std::uint64_t>(-tokens_);
    const auto wait_ns = static_cast<std::int64_t>(
        (static_cast<unsigned __int128>(deficit) * 1'000'000'000u +
         rate_ - 1) /
        rate_);
    return now + std::chrono::nanoseconds(wait_ns);
  }

 private:
  std::uint64_t rate_ = 0;
  std::uint64_t burst_ = 1;
  std::int64_t tokens_ = 0;
  TimePoint last_{};
};

// --- CoDel -------------------------------------------------------------------

struct CodelParams {
  bool enabled = false;
  Duration target = milliseconds(5);      // acceptable standing sojourn
  Duration interval = milliseconds(100);  // worst-case RTT analogue
};

// The controlled-delay drop-state machine, fed with the sojourn of the
// item about to leave its queue. Returns true when AQM says shed it.
class CodelState {
 public:
  bool OnDequeue(Duration sojourn, TimePoint now, const CodelParams& p,
                 bool queue_nearly_empty) {
    if (!p.enabled) return false;
    bool ok_to_drop = false;
    if (sojourn < p.target || queue_nearly_empty) {
      first_above_ = TimePoint{};  // sojourn dipped: restart the clock
    } else {
      if (first_above_ == TimePoint{}) {
        first_above_ = now + p.interval;
      } else if (now >= first_above_) {
        ok_to_drop = true;
      }
    }

    if (dropping_) {
      if (!ok_to_drop) {
        dropping_ = false;
        return false;
      }
      if (now >= drop_next_) {
        ++count_;
        drop_next_ = ControlLaw(drop_next_, p.interval);
        return true;
      }
      return false;
    }
    if (!ok_to_drop) return false;
    // Enter the drop state. If we were dropping recently, resume near the
    // previous drop rate instead of relearning it from 1 (the control-law
    // memory that makes CoDel converge).
    dropping_ = true;
    const std::uint32_t delta = count_ - last_count_;
    count_ = (delta > 1 && now - drop_next_ < 16 * p.interval) ? delta : 1;
    drop_next_ = ControlLaw(now, p.interval);
    last_count_ = count_;
    return true;
  }

  bool dropping() const { return dropping_; }

 private:
  static Duration IsqrtScaled(Duration interval, std::uint32_t count) {
    // interval / sqrt(count) in integer arithmetic: Newton's method on the
    // count is overkill; a float sqrt is fine here (control path only).
    double scale = 1.0;
    if (count > 1) {
      double x = static_cast<double>(count);
      double r = x;
      for (int i = 0; i < 32 && r * r > x * 1.0000001; ++i) {
        r = 0.5 * (r + x / r);
      }
      scale = r;
    }
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(interval).count();
    return std::chrono::duration_cast<Duration>(std::chrono::nanoseconds(
        static_cast<std::int64_t>(static_cast<double>(ns) / scale)));
  }

  TimePoint ControlLaw(TimePoint base, Duration interval) const {
    return base + IsqrtScaled(interval, count_);
  }

  TimePoint first_above_{};
  TimePoint drop_next_{};
  std::uint32_t count_ = 0;
  std::uint32_t last_count_ = 0;
  bool dropping_ = false;
};

// --- bands -------------------------------------------------------------------

// Traffic-class band, highest first.
enum class Band : int { kHigh = 0, kNormal = 1, kLow = 2 };

inline constexpr std::size_t kBands = 3;
// WFQ weights of the High/Normal/Low bands. High outweighs Low 8:1 at
// saturation yet Low keeps 1/13 of the service — an anti-starvation floor
// a strict-priority scan does not have.
inline constexpr std::array<std::uint32_t, kBands> kBandWeights{8, 4, 1};
constexpr std::size_t BandIndex(Band band) {
  return static_cast<std::size_t>(band);
}

constexpr std::string_view BandName(Band band) {
  constexpr std::string_view kNames[kBands] = {"high", "normal", "low"};
  return kNames[BandIndex(band)];
}

struct FlowProfile {
  std::uint32_t weight = 1;              // scales the DRR quantum
  std::uint64_t rate_bytes_per_sec = 0;  // per-flow shaper, 0 = unshaped
  std::uint64_t burst_bytes = 64 * 1024;
};

struct FlowSnapshot {
  std::uint64_t id = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::size_t queued = 0;
  // What one unit of the flow's cost is charged, in the quantum's unit.
  // The dispatch pool prices a binding's jobs at its average servant
  // time, in ns.
  std::uint64_t price = 1;
};

struct BandSnapshot {
  Band band = Band::kNormal;
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes_dequeued = 0;
  std::size_t queued = 0;
  std::uint64_t sojourn_p50_us = 0;
  std::uint64_t sojourn_p99_us = 0;
  std::uint64_t sojourn_p999_us = 0;
  std::uint64_t sojourn_max_us = 0;
  std::vector<FlowSnapshot> flows;
};

// --- scheduler ---------------------------------------------------------------

template <typename T>
class BandScheduler {
 public:
  struct Served {
    T value;
    std::uint64_t flow = 0;
    std::size_t bytes = 0;
    Duration sojourn{};
  };

  // `quantum` is the cost a flow of weight 1 may spend per DRR round, in
  // the caller's cost unit.
  explicit BandScheduler(std::uint64_t quantum, CodelParams codel = {})
      : quantum_(quantum == 0 ? 1 : quantum), codel_(codel) {}

  // Appends to `band` under flow `flow_id`, creating the flow from
  // `profile` on first sight. DRR and WFQ charge the item `cost` times the
  // flow's price (in quantum units); the flow's token bucket meters
  // `bytes`.
  void Enqueue(Band band, std::uint64_t flow_id, const FlowProfile& profile,
               T value, std::uint64_t cost, std::size_t bytes,
               TimePoint now) {
    BandState& b = bands_[BandIndex(band)];
    auto [it, inserted] = b.flows.try_emplace(flow_id);
    Flow& f = it->second;
    if (inserted) {
      f.weight = profile.weight == 0 ? 1 : profile.weight;
      f.bucket.Configure(profile.rate_bytes_per_sec, profile.burst_bytes, now);
    }
    f.q.push_back(Item{std::move(value), cost, bytes, now});
    ++f.enqueued;
    ++b.stats_enqueued;
    if (!f.in_ring) {
      b.ring.push_back(flow_id);
      f.in_ring = true;
      f.fresh = true;
      f.deficit = 0;
    }
    // A band going 0 -> 1 joins the WFQ race at the current virtual time
    // (no credit for having been idle).
    if (b.items == 0) b.pass = std::max(b.pass, vtime_);
    ++b.items;
    ++queued_;
  }

  // Serves the next eligible item. CoDel-shed items (decided at dequeue,
  // per flow) are appended to `dropped` with their values moved out.
  // nullopt when nothing is queued or everything queued is throttled
  // (`NextReadyTime` then says when to retry). `drain` bypasses shaping
  // and AQM — the shutdown path empties the scheduler unconditionally.
  std::optional<Served> Dequeue(TimePoint now, std::vector<Served>* dropped,
                                bool drain = false) {
    if (queued_ == 0) return std::nullopt;
    // The eligible band with the least pass wins; ties go to the higher
    // band (lower index).
    std::size_t best = kBands;
    std::uint64_t best_pass = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < kBands; ++i) {
      if (Eligible(bands_[i], now, drain) && bands_[i].pass < best_pass) {
        best_pass = bands_[i].pass;
        best = i;
      }
    }
    if (best == kBands) return std::nullopt;  // every band throttled
    vtime_ = best_pass;
    return ServeBand(best, now, dropped, drain);
  }

  // Sets what one unit of cost is charged for `flow_id`'s items in
  // `band`, queued ones included (the price is read at service). A flow
  // starts at price 1; an unknown flow is ignored.
  void SetPrice(Band band, std::uint64_t flow_id, std::uint64_t price) {
    auto& flows = bands_[BandIndex(band)].flows;
    if (auto it = flows.find(flow_id); it != flows.end()) {
      it->second.price = price == 0 ? 1 : price;
    }
  }

  // Earliest instant a currently-throttled item could become eligible;
  // nullopt when nothing queued is gated on a token bucket (either the
  // scheduler is empty or Dequeue would have served something).
  std::optional<TimePoint> NextReadyTime(TimePoint now) const {
    std::optional<TimePoint> earliest;
    for (const BandState& b : bands_) {
      for (const auto& [id, flow] : b.flows) {
        (void)id;
        if (flow.q.empty() || flow.bucket.Ready()) continue;
        const TimePoint t = flow.bucket.ReadyAt(now);
        if (!earliest || t < *earliest) earliest = t;
      }
    }
    return earliest;
  }

  // Removes every queued item for which pred(flow_id, value) is true;
  // returns how many went. Removed items are neither served nor counted as
  // AQM drops (this is the cancel/teardown path).
  template <typename Pred>
  std::size_t RemoveIf(Pred&& pred) {
    std::size_t removed = 0;
    for (BandState& b : bands_) {
      for (auto& [flow_id, flow] : b.flows) {
        for (auto it = flow.q.begin(); it != flow.q.end();) {
          if (pred(flow_id, it->value)) {
            it = flow.q.erase(it);
            DeactivateOne(b);
            ++removed;
          } else {
            ++it;
          }
        }
      }
    }
    return removed;
  }

  // Forgets an idle flow's state (ring slot, bucket, counters). A flow
  // with queued items is left alone (RemoveIf them first).
  void RemoveFlow(Band band, std::uint64_t flow_id) {
    BandState& b = bands_[BandIndex(band)];
    auto it = b.flows.find(flow_id);
    if (it == b.flows.end() || !it->second.q.empty()) return;
    for (auto r = b.ring.begin(); r != b.ring.end(); ++r) {
      if (*r == flow_id) {
        b.ring.erase(r);
        break;
      }
    }
    b.flows.erase(it);
  }

  std::size_t queued() const { return queued_; }
  bool empty() const { return queued_ == 0; }

  const Histogram& sojourn_histogram(Band band) const {
    return bands_[BandIndex(band)].sojourn_us;
  }

  // Per-band counters, sojourn percentiles and per-flow rows, in
  // High, Normal, Low order.
  std::array<BandSnapshot, kBands> Snapshot() const {
    std::array<BandSnapshot, kBands> out;
    for (std::size_t i = 0; i < kBands; ++i) {
      const BandState& b = bands_[i];
      BandSnapshot& s = out[i];
      s.band = static_cast<Band>(i);
      s.enqueued = b.stats_enqueued;
      s.dequeued = b.stats_dequeued;
      s.dropped = b.stats_dropped;
      s.bytes_dequeued = b.stats_bytes;
      s.queued = b.items;
      s.sojourn_p50_us = b.sojourn_us.Percentile(50);
      s.sojourn_p99_us = b.sojourn_us.Percentile(99);
      s.sojourn_p999_us = b.sojourn_us.Percentile(99.9);
      s.sojourn_max_us = b.sojourn_us.max();
      for (const auto& [flow_id, flow] : b.flows) {
        s.flows.push_back(FlowSnapshot{flow_id, flow.enqueued, flow.dequeued,
                                       flow.dropped, flow.q.size(),
                                       flow.price});
      }
    }
    return out;
  }

 private:
  // Virtual-time scale: a band's pass advances by cost * kPassScale /
  // band weight, so weight ratios up to kPassScale resolve without
  // truncating to zero.
  static constexpr std::uint64_t kPassScale = 256;

  struct Item {
    T value;
    std::uint64_t cost = 0;
    std::size_t bytes = 0;
    TimePoint enqueued_at{};
  };

  struct Flow {
    std::deque<Item> q;
    std::uint32_t weight = 1;
    std::int64_t deficit = 0;
    bool in_ring = false;
    bool fresh = true;  // next head-of-ring visit grants a quantum
    TokenBucket bucket;
    CodelState codel;
    std::uint64_t price = 1;  // charge per unit of item cost
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;
  };

  struct BandState {
    std::uint64_t pass = 0;  // WFQ virtual finish time
    std::size_t items = 0;
    // DRR across the band's flows.
    std::unordered_map<std::uint64_t, Flow> flows;
    std::deque<std::uint64_t> ring;
    std::uint64_t stats_enqueued = 0;
    std::uint64_t stats_dequeued = 0;
    std::uint64_t stats_dropped = 0;
    std::uint64_t stats_bytes = 0;
    Histogram sojourn_us;
  };

  // The band can produce an item right now: some non-empty flow whose
  // bucket is ready (refilled on the way).
  static bool Eligible(BandState& b, TimePoint now, bool drain) {
    if (b.items == 0) return false;
    for (std::uint64_t flow_id : b.ring) {
      Flow& f = b.flows[flow_id];
      if (f.q.empty()) continue;
      if (drain) return true;
      f.bucket.Refill(now);
      if (f.bucket.Ready()) return true;
    }
    return false;
  }

  // Classic DRR over the band's active ring. The caller established (via
  // Eligible) that some flow is servable, so the loop terminates: every
  // visit serves, drops, retires an empty flow, or rotates; and once a
  // whole ring of rotations has passed, GrantIdleRounds makes the next
  // round serve.
  std::optional<Served> ServeBand(std::size_t index, TimePoint now,
                                  std::vector<Served>* dropped, bool drain) {
    BandState& b = bands_[index];
    // Rotations in a row with nothing served, shed or retired.
    std::size_t idle = 0;
    auto rotate = [&](std::uint64_t flow_id) {
      b.ring.pop_front();
      b.ring.push_back(flow_id);
      if (++idle < b.ring.size()) return true;
      idle = 0;
      return GrantIdleRounds(b, drain);
    };
    while (!b.ring.empty()) {
      const std::uint64_t flow_id = b.ring.front();
      Flow& f = b.flows[flow_id];
      if (f.q.empty()) {
        Retire(b, f);
        idle = 0;
        continue;
      }
      if (!drain) {
        f.bucket.Refill(now);
        if (!f.bucket.Ready()) {  // shaped flow waiting on tokens
          if (!rotate(flow_id)) break;
          continue;
        }
      }
      // AQM before the deficit check: shedding a stale queue must not wait
      // on scheduler credit.
      while (!drain && !f.q.empty()) {
        Item& head = f.q.front();
        const Duration sojourn = SojournOf(head, now);
        if (!f.codel.OnDequeue(sojourn, now, codel_, f.q.size() <= 1)) break;
        if (dropped != nullptr) {
          dropped->push_back(
              Served{std::move(head.value), flow_id, head.bytes, sojourn});
        }
        f.q.pop_front();
        ++f.dropped;
        ++b.stats_dropped;
        DeactivateOne(b);
        idle = 0;
      }
      if (f.q.empty()) continue;  // everything shed: retire on next visit
      if (f.fresh) {
        f.deficit += Grant(f);
        f.fresh = false;
      }
      Item& head = f.q.front();
      const std::uint64_t cost = head.cost * f.price;
      if (static_cast<std::int64_t>(cost) <= f.deficit) {
        Served out{std::move(head.value), flow_id, head.bytes,
                   SojournOf(head, now)};
        f.deficit -= static_cast<std::int64_t>(cost);
        f.bucket.Charge(out.bytes);
        f.q.pop_front();  // invalidates `head`
        ++f.dequeued;
        ++b.stats_dequeued;
        b.stats_bytes += out.bytes;
        b.sojourn_us.Add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(out.sojourn)
                .count()));
        if (f.q.empty()) Retire(b, f);
        b.pass += cost * kPassScale / kBandWeights[index];
        DeactivateOne(b);
        return out;
      }
      // Head exceeds the deficit: next round, next quantum.
      f.fresh = true;
      if (!rotate(flow_id)) break;
    }
    return std::nullopt;
  }

  std::int64_t Grant(const Flow& f) const {
    return static_cast<std::int64_t>(quantum_) *
           static_cast<std::int64_t>(f.weight);
  }

  // Every flow in the ring was just visited and rotated: from here each
  // round only grants every ready flow one more quantum until a head
  // fits. Grants all but the last of the rounds the closest flow needs
  // in one step, which is what those rounds would do, so a head costing
  // thousands of quanta is served in the next round rather than after
  // thousands of visits. False when no flow in the ring is ready.
  bool GrantIdleRounds(BandState& b, bool drain) {
    std::int64_t rounds = std::numeric_limits<std::int64_t>::max();
    for (std::uint64_t flow_id : b.ring) {
      const Flow& f = b.flows[flow_id];
      if (!drain && !f.bucket.Ready()) continue;
      const std::int64_t missing =
          static_cast<std::int64_t>(f.q.front().cost * f.price) - f.deficit;
      rounds = std::min(rounds, (missing + Grant(f) - 1) / Grant(f));
    }
    if (rounds == std::numeric_limits<std::int64_t>::max()) return false;
    for (std::uint64_t flow_id : b.ring) {
      Flow& f = b.flows[flow_id];
      if (drain || f.bucket.Ready()) f.deficit += (rounds - 1) * Grant(f);
    }
    return true;
  }

  static Duration SojournOf(const Item& item, TimePoint now) {
    return now > item.enqueued_at ? now - item.enqueued_at : Duration{};
  }

  // Takes the ring's front flow (empty) out of the DRR rotation.
  static void Retire(BandState& b, Flow& f) {
    b.ring.pop_front();
    f.in_ring = false;
    f.deficit = 0;
    f.fresh = true;
  }

  void DeactivateOne(BandState& b) {
    if (b.items > 0) --b.items;
    if (queued_ > 0) --queued_;
  }

  std::uint64_t quantum_;
  CodelParams codel_;
  std::array<BandState, kBands> bands_{};
  std::uint64_t vtime_ = 0;  // pass of the last band served
  std::size_t queued_ = 0;
};

}  // namespace cool::sched
