#include "codec/sad.h"

#include "codec/kernels/kernels.h"
#include "common/check.h"

namespace pbpair::codec {

// The kernels (scalar or SIMD, see codec/kernels/) return values that are
// bit-identical across backends; the energy metering below is analytic
// (pixels visited, rows completed), so OpCounters never depend on which
// backend ran.

std::int64_t sad_16x16(const video::Plane& cur, int cx, int cy,
                       const video::Plane& ref, int rx, int ry,
                       energy::OpCounters& ops) {
  PB_DCHECK(cx >= 0 && cy >= 0 && cx + 16 <= cur.width() &&
            cy + 16 <= cur.height());
  PB_DCHECK(rx >= 0 && ry >= 0 && rx + 16 <= ref.width() &&
            ry + 16 <= ref.height());
  std::int64_t sad = kernels::active().sad_16x16(
      cur.row(cy) + cx, cur.width(), ref.row(ry) + rx, ref.width());
  meter_sad_rows(16, ops);
  return sad;
}

std::int64_t sad_16x16_cutoff(const video::Plane& cur, int cx, int cy,
                              const video::Plane& ref, int rx, int ry,
                              std::int64_t cutoff, energy::OpCounters& ops) {
  PB_DCHECK(cx >= 0 && cy >= 0 && cx + 16 <= cur.width() &&
            cy + 16 <= cur.height());
  PB_DCHECK(rx >= 0 && ry >= 0 && rx + 16 <= ref.width() &&
            ry + 16 <= ref.height());
  int rows = 0;
  std::int64_t sad = kernels::sad_16x16_cutoff_scalar(
      cur.row(cy) + cx, cur.width(), ref.row(ry) + rx, ref.width(), cutoff,
      &rows);
  meter_sad_rows(rows, ops);
  return sad;
}

std::int64_t sad_self_16x16(const video::Plane& cur, int cx, int cy,
                            energy::OpCounters& ops) {
  PB_DCHECK(cx >= 0 && cy >= 0 && cx + 16 <= cur.width() &&
            cy + 16 <= cur.height());
  std::int64_t dev =
      kernels::active().sad_self_16x16(cur.row(cy) + cx, cur.width());
  ops.sad_pixel_ops += 256;
  return dev;
}

}  // namespace pbpair::codec
