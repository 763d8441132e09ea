// Shared machinery for the figure/table benchmarks.
//
// Every bench uses the paper's evaluation setup (§4.1-§4.2):
//  - QCIF, 300 frames per clip (override with PBPAIR_BENCH_FRAMES for quick
//    runs), QP 10, GOB-per-row packetization, MTU 1400;
//  - full-search motion estimation (the ITU reference encoder the paper
//    builds on is a full-search encoder; ME dominance is what the energy
//    experiments measure) with range +/-7;
//  - PLR 10% via uniform frame discard unless the experiment says
//    otherwise;
//  - PBPAIR's Intra_Th calibrated per sequence so its encoded size matches
//    PGOP-3's ("We choose Intra_Th that gives similar compression ratio
//    with PGOP-3, GOP-3 and AIR-24", §4.2).
#pragma once

#include <vector>

#include "sim/parallel_sweep.h"
#include "sim/pipeline.h"
#include "sim/report.h"
#include "video/sequence.h"

namespace pbpair::bench {

/// Number of frames per run: 300 (the paper's clips) unless the
/// PBPAIR_BENCH_FRAMES environment variable overrides it.
int bench_frames();

/// Frames of one synthetic clip, generated once and cached for the process.
const std::vector<video::YuvFrame>& cached_clip(video::SequenceKind kind,
                                                int frames);

/// FrameSource over the cached clip.
sim::FrameSource clip_source(video::SequenceKind kind, int frames);

/// The paper's encoder/pipeline setup.
sim::PipelineConfig paper_pipeline_config(int frames);

/// Calibrates PBPAIR's Intra_Th per target (sim::calibrate_intra_th, 8
/// steps) so its lossless-channel encoded size comes closest to the
/// target. Each target_bytes is a size over a bench_frames() run; the
/// bisection runs on a 100-frame prefix of each source with the target
/// scaled to match (size is monotone in Intra_Th, so this transfers and
/// keeps bench time sane). result[i] belongs to targets[i].
std::vector<double> calibrate_pbpair_to_size(
    std::vector<sim::SizeTarget> targets, double plr);

/// Runs the pipeline over a cached clip.
sim::PipelineResult run_clip(video::SequenceKind kind,
                             const sim::SchemeSpec& scheme,
                             net::LossModel* loss,
                             const sim::PipelineConfig& config);

/// A sim::SweepTask over a cached clip, for run_parallel_sweep. The loss
/// factory may be null (lossless channel); when set, it is invoked inside
/// the worker so every task gets its own deterministically seeded model.
sim::SweepTask clip_task(
    video::SequenceKind kind, const sim::SchemeSpec& scheme,
    const sim::PipelineConfig& config,
    std::function<std::unique_ptr<net::LossModel>()> make_loss = nullptr);

/// Writes `table` as CSV to $PBPAIR_BENCH_CSV_DIR/<name>.csv when that
/// environment variable is set (for external plotting); no-op otherwise.
void maybe_write_csv(const sim::Table& table, const std::string& name);

/// Turns the observability layer on for this bench process (metrics blocks
/// in the JSON reports need populated counters), captures trace spans when
/// $PBPAIR_TRACE_JSON names a file for write_json_report to export, and
/// names the main trace track after the bench. Call first in main().
void enable_observability(const char* bench_name);

/// Renders `table` as a JSON array of objects, one per row, using the
/// header names as keys and the formatted cell text as string values.
std::string table_to_json(const sim::Table& table);

/// Writes BENCH_<name>.json (override the path with $PBPAIR_BENCH_JSON):
/// an object holding `payload_fields` — pre-rendered `"key": value` pairs,
/// comma-separated, no trailing comma — plus the obs metrics registry as
/// the report's "metrics" block. When $PBPAIR_TRACE_JSON is set, the
/// buffered trace spans are also exported there in Chrome trace format.
void write_json_report(const std::string& name,
                       const std::string& payload_fields);

/// All three paper clips.
inline constexpr video::SequenceKind kPaperClips[] = {
    video::SequenceKind::kForemanLike, video::SequenceKind::kAkiyoLike,
    video::SequenceKind::kGardenLike};

}  // namespace pbpair::bench
