// Operation counters: the instrumentation half of the energy model.
//
// The paper measured encoding energy physically (DAQ board sampling the
// voltage across a sense resistor on iPAQ/Zaurus PDAs). We cannot measure
// hardware, so the codec meters every energy-relevant operation class while
// it runs, and a device profile converts counts to Joules (see
// energy_model.h and DESIGN.md §2). The classes below follow the paper's
// breakdown of encoder work: motion estimation (dominant), DCT/IDCT,
// quantization, motion compensation, and entropy coding.
#pragma once

#include <cstdint>

namespace pbpair::energy {

struct OpCounters {
  // Motion estimation: one sad_pixel_op is one |a-b| accumulate. This is
  // the dominant term; PBPAIR's savings come almost entirely from here.
  std::uint64_t sad_pixel_ops = 0;
  std::uint64_t sad_halfpel_ops = 0;  // interpolated |a-b| accumulates
  std::uint64_t me_invocations = 0;   // MBs for which a search actually ran

  // Transform path (8x8 blocks; a macroblock is 6 blocks in 4:2:0).
  std::uint64_t dct_blocks = 0;
  std::uint64_t idct_blocks = 0;      // encoder reconstruction + decoder
  std::uint64_t quant_coeffs = 0;
  std::uint64_t dequant_coeffs = 0;

  // Motion compensation pixel fetches (prediction formation);
  // half-pel predictions pay the bilinear interpolation.
  std::uint64_t mc_pixels = 0;
  std::uint64_t mc_halfpel_pixels = 0;

  // Entropy coding output.
  std::uint64_t bits_written = 0;

  // Mode statistics (no direct energy cost; used for reporting and for the
  // per-MB bookkeeping overhead term).
  std::uint64_t intra_mbs = 0;
  std::uint64_t inter_mbs = 0;
  std::uint64_t skip_mbs = 0;
  std::uint64_t frames = 0;

  // 16x16 SADs metered (codec/sad.h) and how many of them stopped before
  // the last block row. Reporting only: the energy is in sad_pixel_ops.
  std::uint64_t sad_calls = 0;
  std::uint64_t sad_early_exits = 0;

  OpCounters& operator+=(const OpCounters& other) {
    sad_pixel_ops += other.sad_pixel_ops;
    sad_halfpel_ops += other.sad_halfpel_ops;
    me_invocations += other.me_invocations;
    dct_blocks += other.dct_blocks;
    idct_blocks += other.idct_blocks;
    quant_coeffs += other.quant_coeffs;
    dequant_coeffs += other.dequant_coeffs;
    mc_pixels += other.mc_pixels;
    mc_halfpel_pixels += other.mc_halfpel_pixels;
    bits_written += other.bits_written;
    intra_mbs += other.intra_mbs;
    inter_mbs += other.inter_mbs;
    skip_mbs += other.skip_mbs;
    frames += other.frames;
    sad_calls += other.sad_calls;
    sad_early_exits += other.sad_early_exits;
    return *this;
  }

  std::uint64_t total_mbs() const { return intra_mbs + inter_mbs + skip_mbs; }

  void reset() { *this = OpCounters{}; }
};

}  // namespace pbpair::energy
