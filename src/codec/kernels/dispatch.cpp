// Backend detection and the active-table dispatch slot.
#include "codec/kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/log.h"

namespace pbpair::codec::kernels {

// Defined in the per-ISA translation units; return nullptr when the
// backend was compiled out (wrong architecture).
const KernelTable* sse2_table_or_null();
const KernelTable* avx2_table_or_null();
const KernelTable* neon_table_or_null();

namespace {

constexpr Backend kAllBackends[] = {Backend::kScalar, Backend::kSse2,
                                    Backend::kAvx2, Backend::kNeon};

bool cpu_supports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Backend::kNeon:
#if defined(__aarch64__)
      return true;  // AdvSIMD is architecturally mandatory on AArch64
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* detect_default() {
  // Env override first: PBPAIR_KERNELS=scalar|sse2|avx2|neon pins a backend
  // (unknown or unsupported values fall back to auto, with a warning).
  const char* env = std::getenv("PBPAIR_KERNELS");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "auto") != 0) {
    for (Backend backend : kAllBackends) {
      if (std::strcmp(env, backend_name(backend)) == 0) {
        if (const KernelTable* table = table_for(backend)) return table;
      }
    }
    PB_LOG_WARN(
        "PBPAIR_KERNELS=%s unknown or unsupported on this CPU; "
        "auto-selecting",
        env);
  }
  const KernelTable* best = &scalar_table();
  for (Backend backend : kAllBackends) {
    if (const KernelTable* table = table_for(backend)) best = table;
  }
  return best;
}

std::atomic<const KernelTable*>& active_slot() {
  static std::atomic<const KernelTable*> slot{detect_default()};
  return slot;
}

}  // namespace

const KernelTable* table_for(Backend backend) {
  if (!cpu_supports(backend)) return nullptr;
  switch (backend) {
    case Backend::kScalar:
      return &scalar_table();
    case Backend::kSse2:
      return sse2_table_or_null();
    case Backend::kAvx2:
      return avx2_table_or_null();
    case Backend::kNeon:
      return neon_table_or_null();
  }
  return nullptr;
}

std::vector<Backend> supported_backends() {
  std::vector<Backend> backends;
  for (Backend backend : kAllBackends) {
    if (table_for(backend) != nullptr) backends.push_back(backend);
  }
  return backends;
}

const KernelTable& active() {
  return *active_slot().load(std::memory_order_acquire);
}

bool set_active(Backend backend) {
  const KernelTable* table = table_for(backend);
  if (table == nullptr) return false;
  active_slot().store(table, std::memory_order_release);
  return true;
}

Backend active_backend() { return active().backend; }

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
  }
  return "unknown";
}

const char* kernel_name(KernelId id) {
  switch (id) {
    case KernelId::kSad16x16:
      return "sad_16x16";
    case KernelId::kSadSelf16x16:
      return "sad_self_16x16";
    case KernelId::kSad16x16X4:
      return "sad_16x16_x4";
    case KernelId::kSad16x16X8:
      return "sad_16x16_x8";
    case KernelId::kSad16x16HpelCutoff:
      return "sad_16x16_hpel_cutoff";
    case KernelId::kForwardDct8x8:
      return "forward_dct_8x8";
    case KernelId::kInverseDct8x8:
      return "inverse_dct_8x8";
    case KernelId::kQuantizeAc:
      return "quantize_ac";
    case KernelId::kDequantizeAc:
      return "dequantize_ac";
    case KernelId::kMcPredict:
      return "mc_predict";
    case KernelId::kSubPred8x8:
      return "sub_pred_8x8";
    case KernelId::kAddPred8x8:
      return "add_pred_8x8";
    case KernelId::kCount:
      break;
  }
  return "unknown";
}

}  // namespace pbpair::codec::kernels
