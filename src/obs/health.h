// Per-session health tracking: sliding-window QoS/energy estimators and a
// HEALTHY / DEGRADED / CRITICAL state machine with hysteresis.
//
// This is the live-telemetry face of the paper's §3.2 signals: the
// power-awareness loop adapts Intra_Th from network feedback and residual
// energy, and an operator of a many-session deployment needs to see those
// same signals while the server runs. Each sim::StreamSession with
// PipelineConfig::health set feeds one SessionHealth per frame; the HTTP
// exporter's /healthz renders every live session's snapshot.
//
// Same invariant as the rest of src/obs/ (DESIGN.md §8): health tracking
// READS, it never perturbs. Estimators consume only deterministic
// per-frame results (PSNR, byte counts, packet counts, analytic joules),
// so enabling tracking cannot change a single output byte
// (tests/test_telemetry.cpp asserts bitstream/report/joules identity on vs
// off). SessionHealth writes no metric and calls nothing back: on_frame()
// returns the snapshot, and the session publishes the gauges and reacts
// to state changes itself (sim/session.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbpair::obs {

enum class HealthState { kHealthy = 0, kDegraded = 1, kCritical = 2 };

/// "healthy" / "degraded" / "critical".
const char* health_state_name(HealthState state);

struct HealthConfig {
  /// Sliding-window length W in frames for the windowed means.
  int window_frames = 30;
  /// Frames observed before the state machine may leave HEALTHY (a cold
  /// window full of startup intra frames should not trip thresholds).
  int warmup_frames = 10;
  /// Projects the windowed J/frame drain rate to wall time.
  double frame_rate_hz = 30.0;
  /// Residual-energy budget (energy/battery.h semantics) for the
  /// projected-lifetime estimate. The default is on the order of a PDA
  /// battery's usable capacity.
  double battery_capacity_j = 12000.0;
};

/// One frame's worth of telemetry input, as observed by the session.
struct FrameHealthSample {
  double psnr_db = 0.0;
  std::uint64_t bytes = 0;             // encoded frame size
  std::uint32_t packets_sent = 0;       // media packets sent (no repair)
  std::uint32_t packets_delivered = 0;  // media packets left after FEC
  std::uint32_t intra_mbs = 0;
  std::uint32_t total_mbs = 0;
  double energy_j = 0.0;  // encode+tx joules attributable to this frame
};

/// Point-in-time view of one session's estimators and state.
struct HealthSnapshot {
  HealthState state = HealthState::kHealthy;
  std::uint64_t frames = 0;
  std::uint64_t transitions = 0;
  double psnr_window_db = 0.0;  // windowed mean over the last W frames
  double psnr_ewma_db = 0.0;
  double eff_plr = 0.0;  // windowed 1 - delivered/sent (effective PLR)
  double bytes_per_frame = 0.0;
  double intra_ratio = 0.0;  // windowed intra MBs / total MBs
  double energy_j_per_frame = 0.0;
  double battery_remaining_j = 0.0;
  double projected_lifetime_s = 0.0;  // remaining_j / (J/frame * fps)
};

/// Sliding-window estimators + state machine for one session. on_frame()
/// is called from the session's worker; snapshot() from the exporter
/// thread — a per-session mutex (only ever touched when health tracking
/// is on) keeps the two consistent.
class SessionHealth {
 public:
  SessionHealth(std::string label, HealthConfig config);

  /// Folds one frame into the estimators and the state machine; returns
  /// the snapshot after it.
  HealthSnapshot on_frame(const FrameHealthSample& sample);
  HealthSnapshot snapshot() const;
  const std::string& label() const { return label_; }

 private:
  // Callers hold mutex_.
  HealthSnapshot snapshot_locked() const;
  void update_state_locked();

  const std::string label_;
  const HealthConfig config_;

  mutable std::mutex mutex_;
  std::vector<FrameHealthSample> window_;  // ring buffer of the last W
  std::size_t window_next_ = 0;
  std::uint64_t frames_ = 0;
  double psnr_ewma_db_ = 0.0;
  double energy_total_j_ = 0.0;

  // Windowed running sums, maintained incrementally.
  double psnr_sum_ = 0.0;
  std::uint64_t bytes_sum_ = 0;
  std::uint64_t sent_sum_ = 0;
  std::uint64_t delivered_sum_ = 0;
  std::uint64_t intra_sum_ = 0;
  std::uint64_t mbs_sum_ = 0;
  double energy_sum_j_ = 0.0;

  HealthState state_ = HealthState::kHealthy;
  std::uint64_t transitions_ = 0;
};

/// Fleet-wide health distribution at one instant — the aggregate signal
/// admission control (sim/admission.h) keys its shedding decisions off.
struct HealthStateCounts {
  int healthy = 0;
  int degraded = 0;
  int critical = 0;

  int total() const { return healthy + degraded + critical; }
};

/// Process-wide directory of live sessions, keyed by obs label — what
/// GET /healthz renders. Sessions register on construction (create
/// replaces any previous holder of the same label, e.g. across repeated
/// runs in one process) and stay visible after the session object dies,
/// so a lingering exporter still shows the final states.
class HealthRegistry {
 public:
  static HealthRegistry& global();

  std::shared_ptr<SessionHealth> create(const std::string& label,
                                        const HealthConfig& config);

  /// Snapshot of every registered session, sorted by label.
  std::vector<std::shared_ptr<SessionHealth>> sessions() const;

  /// Per-state session counts across the whole registry — one snapshot()
  /// per session, so the result is as consistent as /healthz itself.
  HealthStateCounts state_counts() const;

  /// {"sessions": [{"session": "s000", "state": "healthy", ...}, ...],
  ///  "states": {"healthy": N, "degraded": N, "critical": N}}
  std::string healthz_json() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<SessionHealth>> sessions_;
};

}  // namespace pbpair::obs
