// Kernel and sweep microbenchmark — emits BENCH_kernels.json.
//
// Measures, with plain steady_clock loops (google-benchmark stays out so the
// JSON schema is ours):
//   1. ns/call for every dispatched kernel, per available backend (median of
//      five timed passes after a warmup pass), plus the best-SIMD / scalar
//      speedup. Each cell records the backend the kernel actually resolved
//      to — a table can inherit a slot from scalar (SSE2 quantize), and the
//      speedup column only credits genuine vector implementations;
//   2. wall-clock of a reduced fig5-style sweep (3 clips x 5 schemes) run
//      serial-scalar, serial-SIMD, and SIMD across 8 sweep workers;
//   3. the invariant the whole design rests on: encoding energy and op
//      counters from the SIMD parallel sweep are bit-identical to the
//      scalar serial baseline.
//
// Output goes to BENCH_kernels.json in the working directory (override the
// path with PBPAIR_BENCH_JSON). Frames per sweep run default to 48; set
// PBPAIR_BENCH_FRAMES for longer runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "codec/kernels/kernels.h"
#include "common/rng.h"
#include "net/loss_model.h"

using namespace pbpair;
using codec::kernels::Backend;
using codec::kernels::KernelId;
using codec::kernels::KernelTable;

namespace {

constexpr int kNB = codec::kernels::kNumBackends;

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

// Keeps results observable so the timed loops cannot be optimized away.
volatile std::int64_t g_sink = 0;
void sink(std::int64_t v) { g_sink = g_sink + v; }

// Deterministic pixel/coefficient fixtures shared by every backend so each
// one runs the identical instruction stream over identical data.
struct Fixtures {
  static constexpr int kStride = 64;
  static constexpr int kBlocks = 64;
  std::vector<std::uint8_t> cur;    // kBlocks 16x16 blocks, stride kStride
  std::vector<std::uint8_t> ref;
  std::vector<std::int16_t> dct_in;     // kBlocks 8x8 blocks, range [-255,255]
  std::vector<std::int16_t> coeff;      // kBlocks 8x8 blocks, range [-2048,2047]
  std::vector<std::int64_t> cutoffs;    // mixed early/late cutoffs

  Fixtures() {
    common::Pcg32 rng(0xBE7C41ULL);
    cur.resize(kBlocks * 16 * kStride);
    ref.resize(kBlocks * 16 * kStride);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      cur[i] = static_cast<std::uint8_t>(rng.next_below(256));
      ref[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    dct_in.resize(kBlocks * 64);
    coeff.resize(kBlocks * 64);
    for (std::size_t i = 0; i < dct_in.size(); ++i) {
      dct_in[i] = static_cast<std::int16_t>(rng.next_in_range(-255, 255));
      coeff[i] = static_cast<std::int16_t>(rng.next_in_range(-2048, 2047));
    }
    for (int b = 0; b < kBlocks; ++b) {
      // Mix of cutoffs that trigger after ~a few rows and ones that never do,
      // matching the distribution a motion search actually sees.
      cutoffs.push_back(b % 3 == 0 ? 2000 : 200000);
    }
  }

  const std::uint8_t* cur_block(int b) const { return cur.data() + b * 16 * kStride; }
  const std::uint8_t* ref_block(int b) const { return ref.data() + b * 16 * kStride; }
  // Blocks used as half-pel / MC sources read one extra row and column, so
  // the last fixture block (whose row 16 would fall off the buffer) is
  // excluded from their rotation.
  int hpel_block(int b) const { return b % (kBlocks - 1); }
};

// Times `body(block_index)`: one warmup pass, then five timed passes, and
// returns the median ns/call — a single pass is at the mercy of whatever
// else the machine is doing for a few hundred microseconds.
template <typename Body>
double time_kernel(const Body& body) {
  constexpr int kWarmup = 200;
  constexpr int kIters = 2000;
  constexpr int kPasses = 5;
  for (int i = 0; i < kWarmup; ++i) body(i % Fixtures::kBlocks);
  double samples[kPasses];
  for (int p = 0; p < kPasses; ++p) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) body(i % Fixtures::kBlocks);
    Clock::time_point t1 = Clock::now();
    samples[p] = elapsed_ns(t0, t1) / kIters;
  }
  std::sort(samples, samples + kPasses);
  return samples[kPasses / 2];
}

struct KernelTiming {
  KernelId id;
  std::string name;
  // ns/call per backend, indexed by Backend enum value; < 0 = unavailable.
  double ns[kNB];
  // Which backend's implementation that table actually dispatched to.
  Backend origin[kNB];

  explicit KernelTiming(KernelId kid)
      : id(kid), name(codec::kernels::kernel_name(kid)) {
    for (int b = 0; b < kNB; ++b) {
      ns[b] = -1.0;
      origin[b] = Backend::kScalar;
    }
  }

  // Best ns among backends that bring a genuine vector implementation for
  // this kernel — a slot inherited from scalar must not count, or a missing
  // SIMD kernel silently benchmarks as "1.00x parity" (the exact failure
  // mode this column used to hide for inverse_dct_8x8 on SSE2).
  double best_simd_ns() const {
    double best = -1.0;
    for (int b = 1; b < kNB; ++b) {
      if (ns[b] <= 0 || origin[b] == Backend::kScalar) continue;
      if (best < 0 || ns[b] < best) best = ns[b];
    }
    return best;
  }
  double speedup() const {
    double simd = best_simd_ns();
    return simd > 0 ? ns[0] / simd : 1.0;
  }
};

std::vector<KernelTiming> time_all_kernels(const Fixtures& fx) {
  std::vector<KernelTiming> timings;
  for (int k = 0; k < codec::kernels::kNumKernels; ++k) {
    timings.emplace_back(static_cast<KernelId>(k));
  }

  for (Backend backend : codec::kernels::supported_backends()) {
    const KernelTable* table = codec::kernels::table_for(backend);
    const int bi = static_cast<int>(backend);
    for (KernelTiming& t : timings) t.origin[bi] = table->origin_of(t.id);

    std::int16_t scratch[64];
    std::int16_t work[64];
    std::uint8_t pred[16 * 16];
    std::uint16_t rows4[16][4];
    std::uint16_t rows8[16][8];

    auto slot = [&](KernelId id) -> double& {
      return timings[static_cast<int>(id)].ns[bi];
    };

    slot(KernelId::kSad16x16) = time_kernel([&](int b) {
      sink(table->sad_16x16(fx.cur_block(b), Fixtures::kStride,
                            fx.ref_block(b), Fixtures::kStride));
    });
    slot(KernelId::kSadSelf16x16) = time_kernel([&](int b) {
      sink(table->sad_self_16x16(fx.cur_block(b), Fixtures::kStride));
    });
    slot(KernelId::kSad16x16X4) = time_kernel([&](int b) {
      const std::uint8_t* base = fx.ref_block(b);
      const std::uint8_t* refs[4] = {base, base + 1, base + 2, base + 3};
      table->sad_16x16_x4(fx.cur_block(b), Fixtures::kStride, refs,
                          Fixtures::kStride, rows4);
      sink(rows4[15][0] + rows4[15][3]);
    });
    slot(KernelId::kSad16x16X8) = time_kernel([&](int b) {
      const std::uint8_t* base = fx.ref_block(b);
      const std::uint8_t* refs[8] = {base,     base + 1, base + 2, base + 3,
                                     base + 4, base + 5, base + 6, base + 7};
      table->sad_16x16_x8(fx.cur_block(b), Fixtures::kStride, refs,
                          Fixtures::kStride, rows8);
      sink(rows8[15][0] + rows8[15][7]);
    });
    slot(KernelId::kSad16x16HpelCutoff) = time_kernel([&](int b) {
      const int hb = fx.hpel_block(b);
      int rows = 0;
      sink(table->sad_16x16_hpel_cutoff(fx.cur_block(hb), Fixtures::kStride,
                                        fx.ref_block(hb), Fixtures::kStride,
                                        /*hx=*/b & 1, /*hy=*/(b >> 1) & 1,
                                        fx.cutoffs[b], &rows));
      sink(rows);
    });
    slot(KernelId::kForwardDct8x8) = time_kernel([&](int b) {
      table->forward_dct_8x8(fx.dct_in.data() + b * 64, scratch);
      sink(scratch[0]);
    });
    slot(KernelId::kInverseDct8x8) = time_kernel([&](int b) {
      table->inverse_dct_8x8(fx.coeff.data() + b * 64, scratch);
      sink(scratch[0]);
    });
    slot(KernelId::kQuantizeAc) = time_kernel([&](int b) {
      // In-place kernel: the memcpy refill is identical work per backend.
      std::memcpy(work, fx.coeff.data() + b * 64, sizeof(work));
      sink(table->quantize_ac(work, 1, 1 + b % 31, /*intra=*/true));
    });
    slot(KernelId::kDequantizeAc) = time_kernel([&](int b) {
      std::memcpy(work, fx.coeff.data() + b * 64, sizeof(work));
      table->dequantize_ac(work, 1, 1 + b % 31);
      sink(work[1]);
    });
    slot(KernelId::kMcPredict) = time_kernel([&](int b) {
      const int hb = fx.hpel_block(b);
      table->mc_predict(fx.ref_block(hb), Fixtures::kStride, pred, 16, 16,
                        /*hx=*/1, /*hy=*/1);
      sink(pred[0]);
    });
    slot(KernelId::kSubPred8x8) = time_kernel([&](int b) {
      table->sub_pred_8x8(fx.cur_block(b), Fixtures::kStride, fx.ref_block(b),
                          Fixtures::kStride, scratch);
      sink(scratch[0]);
    });
    slot(KernelId::kAddPred8x8) = time_kernel([&](int b) {
      std::memcpy(work, fx.coeff.data() + b * 64, sizeof(work));
      for (int i = 0; i < 64; ++i) {
        work[i] = static_cast<std::int16_t>(work[i] % 256);
      }
      table->add_pred_8x8(pred, 16, fx.ref_block(b), Fixtures::kStride, work);
      sink(pred[0]);
    });
  }
  return timings;
}

// ---------------------------------------------------------------------------
// Fig5-style sweep: 3 clips x 5 schemes at PLR 10%, fixed Intra_Th (the
// calibration bisection is not the subject here).

std::vector<sim::SweepTask> sweep_tasks(const sim::PipelineConfig& config) {
  std::vector<sim::SweepTask> tasks;
  for (video::SequenceKind kind : bench::kPaperClips) {
    core::PbpairConfig pbpair;
    pbpair.intra_th = 0.9;
    pbpair.plr = 0.10;
    std::vector<sim::SchemeSpec> schemes = {
        sim::SchemeSpec::no_resilience(), sim::SchemeSpec::pbpair(pbpair),
        sim::SchemeSpec::pgop(3), sim::SchemeSpec::gop(3),
        sim::SchemeSpec::air(24)};
    for (const sim::SchemeSpec& scheme : schemes) {
      tasks.push_back(bench::clip_task(kind, scheme, config, [] {
        return std::make_unique<net::UniformFrameLoss>(0.10, /*seed=*/2005);
      }));
    }
  }
  return tasks;
}

struct SweepRun {
  double wall_ms = 0.0;
  std::vector<sim::PipelineResult> results;
};

SweepRun run_sweep(Backend backend, int threads,
                   const sim::PipelineConfig& config) {
  codec::kernels::set_active(backend);
  std::vector<sim::SweepTask> tasks = sweep_tasks(config);
  sim::SweepOptions options;
  options.threads = threads;
  Clock::time_point t0 = Clock::now();
  SweepRun run;
  run.results = sim::run_parallel_sweep(tasks, options);
  run.wall_ms = elapsed_ns(t0, Clock::now()) / 1e6;
  return run;
}

// Energy/op-counter bit-identity between two sweep runs; PSNR and bytes
// ride along since they are part of the same determinism contract.
bool reports_identical(const std::vector<sim::PipelineResult>& a,
                       const std::vector<sim::PipelineResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].encoder_ops, &b[i].encoder_ops,
                    sizeof(energy::OpCounters)) != 0) {
      return false;
    }
    if (a[i].encode_energy.total_j() != b[i].encode_energy.total_j()) return false;
    if (a[i].tx_energy_j != b[i].tx_energy_j) return false;
    if (a[i].total_bytes != b[i].total_bytes) return false;
    if (a[i].avg_psnr_db != b[i].avg_psnr_db) return false;
  }
  return true;
}

unsigned runner_hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? n : 1;  // hardware_concurrency() may legally report 0
}

}  // namespace

int main() {
  const Fixtures fx;
  const std::vector<Backend> backends = codec::kernels::supported_backends();
  Backend best = backends.back();
  std::printf("=== Kernel microbenchmark (best backend: %s) ===\n\n",
              codec::kernels::backend_name(best));

  std::vector<KernelTiming> timings = time_all_kernels(fx);

  std::vector<std::string> header = {"kernel"};
  for (Backend b : backends) {
    header.push_back(std::string(codec::kernels::backend_name(b)) + "_ns");
  }
  header.push_back("speedup");
  sim::Table kernel_table(header);
  for (const KernelTiming& t : timings) {
    std::vector<std::string> row = {t.name};
    for (Backend b : backends) {
      const int bi = static_cast<int>(b);
      if (t.ns[bi] < 0) {
        row.push_back("-");
      } else if (t.origin[bi] != b) {
        // The table inherited this slot; say whose code actually ran.
        row.push_back(sim::format(
            "%.1f (=%s)", t.ns[bi],
            codec::kernels::backend_name(t.origin[bi])));
      } else {
        row.push_back(sim::format("%.1f", t.ns[bi]));
      }
    }
    row.push_back(sim::format("%.2fx", t.speedup()));
    kernel_table.add_row(row);
  }
  kernel_table.print();

  // Observability stays off for the kernel loops above so the gated
  // ns/call numbers measure the kernel alone, not the counter updates.
  bench::enable_observability("micro_kernels");

  // Sweep timing: a reduced fig5 grid (48 frames unless overridden).
  const int frames = std::min(bench::bench_frames(), 48);
  const sim::PipelineConfig config = bench::paper_pipeline_config(frames);
  bench::cached_clip(bench::kPaperClips[0], frames);  // warm clip cache
  bench::cached_clip(bench::kPaperClips[1], frames);
  bench::cached_clip(bench::kPaperClips[2], frames);

  const int sweep_threads = 8;
  std::printf("\n=== Fig 5-style sweep (3 clips x 5 schemes, %d frames) ===\n",
              frames);
  SweepRun serial_scalar = run_sweep(Backend::kScalar, 1, config);
  SweepRun serial_simd = run_sweep(best, 1, config);
  SweepRun parallel_simd = run_sweep(best, sweep_threads, config);
  codec::kernels::set_active(best);

  const bool identical =
      reports_identical(serial_scalar.results, serial_simd.results) &&
      reports_identical(serial_scalar.results, parallel_simd.results);

  sim::Table sweep_table({"configuration", "wall_ms", "speedup"});
  sweep_table.add_row({"serial scalar", sim::format("%.0f", serial_scalar.wall_ms),
                       "1.00x"});
  sweep_table.add_row(
      {sim::format("serial %s", codec::kernels::backend_name(best)),
       sim::format("%.0f", serial_simd.wall_ms),
       sim::format("%.2fx", serial_scalar.wall_ms / serial_simd.wall_ms)});
  sweep_table.add_row(
      {sim::format("%d-thread %s", sweep_threads,
                   codec::kernels::backend_name(best)),
       sim::format("%.0f", parallel_simd.wall_ms),
       sim::format("%.2fx", serial_scalar.wall_ms / parallel_simd.wall_ms)});
  sweep_table.print();
  std::printf("hardware threads: %u\n", runner_hardware_threads());
  std::printf("energy/op counters bit-identical across backends+threads: %s\n",
              identical ? "yes" : "NO - INVARIANT BROKEN");

  // JSON report (through bench_common so the obs metrics block and the
  // optional $PBPAIR_TRACE_JSON Chrome trace ride along).
  std::string payload = sim::format("\"best_backend\": \"%s\",\n",
                                    codec::kernels::backend_name(best));
  payload += "  \"kernels\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const KernelTiming& t = timings[i];
    payload += sim::format("    {\"name\": \"%s\"", t.name.c_str());
    for (Backend b : backends) {
      const int bi = static_cast<int>(b);
      if (t.ns[bi] < 0) continue;
      payload += sim::format(", \"%s_ns\": %.2f",
                             codec::kernels::backend_name(b), t.ns[bi]);
    }
    // Resolution map: which backend's code each table actually ran. Lets a
    // report reader (and the regression gate's human operator) spot slots
    // that silently fell back rather than trusting a near-1x ratio.
    payload += ", \"origins\": {";
    bool first_origin = true;
    for (Backend b : backends) {
      const int bi = static_cast<int>(b);
      if (t.ns[bi] < 0) continue;
      payload += sim::format(
          "%s\"%s\": \"%s\"", first_origin ? "" : ", ",
          codec::kernels::backend_name(b),
          codec::kernels::backend_name(t.origin[bi]));
      first_origin = false;
    }
    payload += "}";
    payload += sim::format(", \"speedup_best\": %.3f}%s\n", t.speedup(),
                           i + 1 < timings.size() ? "," : "");
  }
  payload += "  ],\n";
  payload += sim::format(
      "  \"fig5_sweep\": {\n"
      "    \"frames\": %d,\n"
      "    \"tasks\": 15,\n"
      "    \"hardware_threads\": %u,\n"
      "    \"serial_scalar_ms\": %.1f,\n"
      "    \"serial_simd_ms\": %.1f,\n"
      "    \"parallel%d_simd_ms\": %.1f,\n"
      "    \"simd_speedup\": %.3f,\n"
      "    \"total_speedup\": %.3f,\n"
      "    \"energy_bit_identical\": %s\n"
      "  }",
      frames, runner_hardware_threads(), serial_scalar.wall_ms,
      serial_simd.wall_ms, sweep_threads, parallel_simd.wall_ms,
      serial_scalar.wall_ms / serial_simd.wall_ms,
      serial_scalar.wall_ms / parallel_simd.wall_ms,
      identical ? "true" : "false");
  bench::write_json_report("kernels", payload);
  return identical ? 0 : 1;
}
