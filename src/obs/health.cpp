#include "obs/health.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/json.h"

namespace pbpair::obs {
namespace {

// EWMA smoothing factor for the PSNR trend estimate.
constexpr double kEwmaAlpha = 0.1;

// Enter/exit threshold pairs implement the hysteresis: a session escalates
// the moment a windowed estimate crosses `enter`, but only de-escalates
// once the estimate is back past the stricter `exit`, so a stream hovering
// at a boundary cannot flap between states every frame.
constexpr double kPlrDegradedEnter = 0.10;
constexpr double kPlrDegradedExit = 0.07;
constexpr double kPlrCriticalEnter = 0.25;
constexpr double kPlrCriticalExit = 0.18;
constexpr double kPsnrDegradedEnterDb = 30.0;
constexpr double kPsnrDegradedExitDb = 31.5;
constexpr double kPsnrCriticalEnterDb = 24.0;
constexpr double kPsnrCriticalExitDb = 26.0;

}  // namespace

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kCritical: return "critical";
  }
  return "?";
}

SessionHealth::SessionHealth(std::string label, HealthConfig config)
    : label_(std::move(label)), config_(std::move(config)) {
  PB_CHECK(config_.window_frames > 0);
  PB_CHECK(config_.frame_rate_hz > 0.0);
  window_.reserve(static_cast<std::size_t>(config_.window_frames));
}

HealthSnapshot SessionHealth::on_frame(const FrameHealthSample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t w = static_cast<std::size_t>(config_.window_frames);
  if (window_.size() < w) {
    window_.push_back(sample);
  } else {
    const FrameHealthSample& old = window_[window_next_];
    psnr_sum_ -= old.psnr_db;
    bytes_sum_ -= old.bytes;
    sent_sum_ -= old.packets_sent;
    delivered_sum_ -= old.packets_delivered;
    intra_sum_ -= old.intra_mbs;
    mbs_sum_ -= old.total_mbs;
    energy_sum_j_ -= old.energy_j;
    window_[window_next_] = sample;
    window_next_ = (window_next_ + 1) % w;
  }
  psnr_sum_ += sample.psnr_db;
  bytes_sum_ += sample.bytes;
  sent_sum_ += sample.packets_sent;
  delivered_sum_ += sample.packets_delivered;
  intra_sum_ += sample.intra_mbs;
  mbs_sum_ += sample.total_mbs;
  energy_sum_j_ += sample.energy_j;

  psnr_ewma_db_ = frames_ == 0 ? sample.psnr_db
                               : kEwmaAlpha * sample.psnr_db +
                                     (1.0 - kEwmaAlpha) * psnr_ewma_db_;
  energy_total_j_ += sample.energy_j;
  ++frames_;

  update_state_locked();
  return snapshot_locked();
}

HealthSnapshot SessionHealth::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked();
}

HealthSnapshot SessionHealth::snapshot_locked() const {
  HealthSnapshot snap;
  snap.state = state_;
  snap.frames = frames_;
  snap.transitions = transitions_;
  const double n = static_cast<double>(window_.size());
  if (n > 0.0) {
    snap.psnr_window_db = psnr_sum_ / n;
    snap.bytes_per_frame = static_cast<double>(bytes_sum_) / n;
    snap.energy_j_per_frame = energy_sum_j_ / n;
  }
  snap.psnr_ewma_db = psnr_ewma_db_;
  if (sent_sum_ > 0) {
    snap.eff_plr = 1.0 - static_cast<double>(delivered_sum_) /
                             static_cast<double>(sent_sum_);
  }
  if (mbs_sum_ > 0) {
    snap.intra_ratio =
        static_cast<double>(intra_sum_) / static_cast<double>(mbs_sum_);
  }
  snap.battery_remaining_j =
      std::max(0.0, config_.battery_capacity_j - energy_total_j_);
  const double drain_j_per_s =
      snap.energy_j_per_frame * config_.frame_rate_hz;
  snap.projected_lifetime_s =
      drain_j_per_s > 0.0 ? snap.battery_remaining_j / drain_j_per_s : 0.0;
  return snap;
}

void SessionHealth::update_state_locked() {
  if (frames_ < static_cast<std::uint64_t>(config_.warmup_frames)) return;
  const HealthSnapshot snap = snapshot_locked();

  // Escalation looks at the enter thresholds.
  HealthState desired = HealthState::kHealthy;
  if (snap.eff_plr >= kPlrCriticalEnter ||
      snap.psnr_window_db <= kPsnrCriticalEnterDb) {
    desired = HealthState::kCritical;
  } else if (snap.eff_plr >= kPlrDegradedEnter ||
             snap.psnr_window_db <= kPsnrDegradedEnterDb) {
    desired = HealthState::kDegraded;
  }

  HealthState next = state_;
  if (desired > state_) {
    next = desired;  // escalate immediately
  } else if (desired < state_) {
    // De-escalate one step at a time, and only once the estimates are
    // clear of the current state's exit thresholds.
    if (state_ == HealthState::kCritical &&
        snap.eff_plr < kPlrCriticalExit &&
        snap.psnr_window_db > kPsnrCriticalExitDb) {
      next = std::max(desired, HealthState::kDegraded);
    } else if (state_ == HealthState::kDegraded &&
               snap.eff_plr < kPlrDegradedExit &&
               snap.psnr_window_db > kPsnrDegradedExitDb) {
      next = HealthState::kHealthy;
    }
  }
  if (next == state_) return;
  state_ = next;
  ++transitions_;
}

HealthRegistry& HealthRegistry::global() {
  static HealthRegistry* registry = new HealthRegistry();  // never destroyed
  return *registry;
}

std::shared_ptr<SessionHealth> HealthRegistry::create(
    const std::string& label, const HealthConfig& config) {
  auto session = std::make_shared<SessionHealth>(label, config);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::shared_ptr<SessionHealth>& slot : sessions_) {
    if (slot->label() == label) {
      slot = session;
      return session;
    }
  }
  sessions_.push_back(session);
  return session;
}

std::vector<std::shared_ptr<SessionHealth>> HealthRegistry::sessions() const {
  std::vector<std::shared_ptr<SessionHealth>> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = sessions_;
  }
  std::sort(out.begin(), out.end(),
            [](const std::shared_ptr<SessionHealth>& a,
               const std::shared_ptr<SessionHealth>& b) {
              return a->label() < b->label();
            });
  return out;
}

HealthStateCounts HealthRegistry::state_counts() const {
  HealthStateCounts counts;
  for (const std::shared_ptr<SessionHealth>& session : sessions()) {
    switch (session->snapshot().state) {
      case HealthState::kHealthy: ++counts.healthy; break;
      case HealthState::kDegraded: ++counts.degraded; break;
      case HealthState::kCritical: ++counts.critical; break;
    }
  }
  return counts;
}

std::string HealthRegistry::healthz_json() const {
  int counts[3] = {0, 0, 0};
  std::string out = "{\"sessions\": [";
  bool first = true;
  for (const std::shared_ptr<SessionHealth>& session : sessions()) {
    const HealthSnapshot snap = session->snapshot();
    ++counts[static_cast<int>(snap.state)];
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"session\": \"%s\", \"state\": \"%s\", \"frames\": %llu, "
        "\"transitions\": %llu, \"psnr_db\": %.2f, \"eff_plr\": %.4f, "
        "\"intra_ratio\": %.4f, \"bytes_per_frame\": %.1f, "
        "\"j_per_frame\": %.6f, \"battery_remaining_j\": %.3f, "
        "\"projected_lifetime_s\": %.1f}",
        first ? "" : ", ", common::json_escape(session->label()).c_str(),
        health_state_name(snap.state),
        static_cast<unsigned long long>(snap.frames),
        static_cast<unsigned long long>(snap.transitions), snap.psnr_window_db,
        snap.eff_plr, snap.intra_ratio, snap.bytes_per_frame,
        snap.energy_j_per_frame, snap.battery_remaining_j,
        snap.projected_lifetime_s);
    out += buf;
    first = false;
  }
  char tail[128];
  std::snprintf(tail, sizeof(tail),
                "], \"states\": {\"healthy\": %d, \"degraded\": %d, "
                "\"critical\": %d}}\n",
                counts[0], counts[1], counts[2]);
  out += tail;
  return out;
}

void HealthRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.clear();
}

}  // namespace pbpair::obs
