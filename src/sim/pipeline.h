// The end-to-end video-communication pipeline (paper Fig. 1):
//
//   source frames -> encoder (with refresh policy) -> RTP packetizer
//   -> lossy channel -> depacketizer -> decoder (with concealment)
//   -> quality metrics vs the original frames
//
// plus the energy model over the encoder's metered operations. Every
// experiment in the paper's evaluation is one or more pipeline runs with
// different (scheme, sequence, loss model, device) choices.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include <optional>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/rate_control.h"
#include "energy/energy_model.h"
#include "net/channel.h"
#include "net/fault_injector.h"
#include "net/fec.h"
#include "net/packetizer.h"
#include "net/rtcp.h"
#include "obs/health.h"
#include "sim/scheme.h"
#include "video/metrics.h"
#include "video/sequence.h"

namespace pbpair::sim {

struct PipelineConfig {
  codec::EncoderConfig encoder{};
  net::PacketizerConfig packetizer{};
  codec::ConcealmentMode concealment = codec::ConcealmentMode::kCopyPrevious;
  int frames = 300;  // the paper's clips are 300 frames
  const energy::DeviceProfile* profile = &energy::ipaq_h5555();
  int bad_pixel_threshold = video::kDefaultBadPixelThreshold;

  /// Optional rate control: when set, QP tracks the target bit rate
  /// instead of staying fixed at encoder.qp.
  std::optional<codec::RateControlConfig> rate_control;

  /// Optional per-frame hook, called BEFORE encoding frame `index` with
  /// the live policy — the adaptation experiments adjust Intra_Th here.
  std::function<void(int index, codec::RefreshPolicy& policy)> pre_frame;

  /// Closed-loop RTCP feedback (§3.2). When `on_feedback` is set, the
  /// session runs a receiver-side PlrEstimator over the delivered packets,
  /// builds an RFC 3550 receiver report every `feedback_interval_frames`
  /// frames, and delivers it through a net::DelayedFeedback queue
  /// `feedback_rtt_frames` frames later — BEFORE `pre_frame` of the frame
  /// it becomes due on. RTT 0 delivers a report generated after frame i
  /// ahead of frame i+1 (feedback can never precede the loss it observes).
  std::function<void(int index, const net::ReceiverReport& report,
                     codec::RefreshPolicy& policy)>
      on_feedback;
  int feedback_rtt_frames = 0;
  int feedback_interval_frames = 1;

  /// When non-empty, every FrameTrace is appended to this file as one JSON
  /// object per line (JSONL), after a header line recording the scheme
  /// label, `frame_trace_seed`, and frame geometry. Only deterministic
  /// fields are written — no wall-clock timing — so reruns with the same
  /// seed produce byte-identical files.
  std::string frame_trace_path;

  /// Recorded verbatim in the frame-trace header (the channel seed the run
  /// used); it does not influence the simulation itself.
  std::uint64_t frame_trace_seed = 0;

  /// Live health tracking (obs/health.h). When set, the session feeds one
  /// obs::SessionHealth per frame (registered in
  /// obs::HealthRegistry::global() under the session's label) with
  /// windowed PSNR / effective PLR / bitrate / intra-ratio / energy-drain
  /// estimators and the HEALTHY->DEGRADED->CRITICAL state machine.
  /// Tracking only reads deterministic per-frame results, so outputs stay
  /// byte-identical with it on or off (tests/test_telemetry.cpp).
  std::optional<obs::HealthConfig> health;

  /// Adversarial byte damage (net/fault_injector.h). When set with any
  /// probability > 0, the session runs the inject_faults stage after
  /// transmit, which bit-flips / truncates / corrupts / duplicates /
  /// reorders the delivered packets deterministically from faults->seed.
  /// Unset (or all-zero) leaves the pipeline untouched — reports stay
  /// byte-identical to a build without the injector.
  std::optional<net::FaultInjectorConfig> faults;

  /// Packet-level forward error correction (net/fec.h). When set with
  /// m > 0, the session runs the fec_encode stage after packetize
  /// (appends repair packets per window of k media packets) and the
  /// fec_decode stage before depacketize (consumes surviving repair
  /// packets, reconstructs missing media, splices it back in by sequence).
  /// Repair packets traverse the channel and the fault injector like any
  /// other wire bytes, so their transmit energy and their exposure to
  /// hostile damage are both real. Unset (or m == 0) runs neither stage
  /// and leaves every output byte identical to a FEC-free build
  /// (tests/test_fec.cpp asserts this at 1, 2 and 8 threads).
  std::optional<net::FecConfig> fec;

  /// Wire-format integrity (net/packet.h). When set with crc on, every
  /// outgoing packet carries a CRC64 trailer (the packetizer spends
  /// kCrcTrailerSize of each MTU on it), and the session runs the
  /// verify_integrity stage after the channel/fault stages and BEFORE
  /// fec_decode: packets whose trailer is missing or mismatched are
  /// dropped as CORRUPTED (net.crc.corrupted) — they become erasures FEC
  /// can repair, instead of garbage the decoder conceals — and the
  /// corrupted-vs-lost split rides the RTCP corruption extension back to
  /// the sender. Unset (or crc off) skips the stage and leaves every
  /// output byte identical to a build without wire framing
  /// (tests/test_wire.cpp asserts this at 1, 2 and 8 threads).
  std::optional<net::WireConfig> wire;
};

/// Per-frame trace row (Fig. 6 plots these directly).
struct FrameTrace {
  int index = 0;
  int qp = 0;
  codec::FrameType type = codec::FrameType::kIntra;
  std::size_t bytes = 0;       // encoded frame size
  int intra_mbs = 0;
  int pre_me_intra_mbs = 0;    // intra MBs that skipped motion estimation
  int packets_sent = 0;        // offered to the channel, repair included
  int packets_delivered = 0;   // media packets left after FEC decode
  bool lost = false;           // at least one MEDIA packet missing post-FEC
  double psnr_db = 0.0;        // decoder output vs original
  std::uint64_t bad_pixels = 0;

  // FEC accounting (all zero when PipelineConfig::fec is unset).
  int fec_repair_sent = 0;          // repair packets appended this frame
  int fec_recovered = 0;            // media packets reconstructed
  int fec_unrecoverable_windows = 0;  // windows whose losses exceeded m

  // Wire integrity accounting (zero when PipelineConfig::wire is unset).
  int crc_corrupted = 0;  // packets dropped by verify_integrity this frame
};

struct PipelineResult {
  std::vector<FrameTrace> frames;

  // Totals.
  std::uint64_t total_bytes = 0;  // encoded bitstream ("file size")
  double avg_psnr_db = 0.0;
  std::uint64_t total_bad_pixels = 0;
  std::uint64_t total_intra_mbs = 0;
  std::uint64_t concealed_mbs = 0;

  energy::OpCounters encoder_ops;
  energy::EnergyBreakdown encode_energy;  // on the configured device
  double tx_energy_j = 0.0;
  net::ChannelStats channel;

  // FEC totals (default-initialized when PipelineConfig::fec is unset).
  net::FecEncoderStats fec_encode;
  net::FecDecoderStats fec_decode;

  // Wire-integrity totals (zero when PipelineConfig::wire is unset).
  net::WireStats wire;

  double total_energy_j() const {
    return encode_energy.total_j() + tx_energy_j;
  }
};

/// A frame source: frame_at(i) for i in [0, frames).
using FrameSource = std::function<video::YuvFrame(int)>;

/// Runs the full pipeline. `loss` may be null (lossless channel).
///
/// This is a thin shim over sim::StreamSession (sim/session.h): it builds
/// one session, steps it to completion, and returns the result —
/// byte-identical (bitstream, report, joules) to the pre-session
/// monolithic loop, which tests/test_session.cpp asserts against a
/// hand-rolled reference loop.
PipelineResult run_pipeline(const FrameSource& source,
                            const SchemeSpec& scheme, net::LossModel* loss,
                            const PipelineConfig& config);

/// Convenience overload for the synthetic sequences.
PipelineResult run_pipeline(const video::SyntheticSequence& sequence,
                            const SchemeSpec& scheme, net::LossModel* loss,
                            const PipelineConfig& config);

/// One calibration goal: PBPAIR's encoded size over `source` should come
/// closest to `target_bytes`.
struct SizeTarget {
  FrameSource source;
  std::uint64_t target_bytes = 0;
};

/// Picks, per target, the Intra_Th giving a lossless-channel encoded size
/// closest to target_bytes (the paper matches PBPAIR's compression ratio
/// to the baselines before comparing quality/energy: §4.2 "We choose
/// Intra_Th that gives similar compression ratio with PGOP-3, GOP-3 and
/// AIR-24"). Bisects Intra_Th over [0, 1]; the bisections advance in
/// lockstep, one run_parallel_sweep per step. result[i] belongs to
/// targets[i]; an empty list returns an empty vector.
std::vector<double> calibrate_intra_th(const std::vector<SizeTarget>& targets,
                                       const core::PbpairConfig& base,
                                       const PipelineConfig& config,
                                       int iterations = 9);

}  // namespace pbpair::sim
