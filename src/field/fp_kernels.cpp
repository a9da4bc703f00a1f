#include "field/fp_kernels.h"

namespace pisces::field::kernels {

namespace {

template <std::size_t K>
constexpr KernelVTable MakeTable() {
  return KernelVTable{K,          &MontMulK<K>,      &MontSqrK<K>,
                      &MontRedcK<K>, &MulAccK<K>,      &MontRedcWideK<K>,
                      &DotI64K<K>};
}

// One instantiation per standard field size g = 64*K in {256, 512, 1024,
// 2048}. Other widths fall back to the generic runtime-k path in fp.cpp.
constexpr KernelVTable kTable4 = MakeTable<4>();
constexpr KernelVTable kTable8 = MakeTable<8>();
constexpr KernelVTable kTable16 = MakeTable<16>();
constexpr KernelVTable kTable32 = MakeTable<32>();

}  // namespace

#if PISCES_FIELD_ASM
// The flag-chained kernels of fp_kernels_x86.cpp.
#define PISCES_ADX_DECLARE(K)                                              \
  extern "C" void pisces_adx_mul_##K(const std::uint64_t*, std::uint64_t,  \
                                     const std::uint64_t*,                 \
                                     const std::uint64_t*, std::uint64_t*); \
  extern "C" void pisces_adx_sqr_##K(const std::uint64_t*, std::uint64_t,  \
                                     const std::uint64_t*, std::uint64_t*); \
  extern "C" void pisces_adx_redc_##K(const std::uint64_t*, std::uint64_t, \
                                      std::uint64_t*, std::uint64_t*);     \
  extern "C" void pisces_adx_redc_wide_##K(                                \
      const std::uint64_t*, std::uint64_t, std::uint64_t*, std::uint64_t*);
PISCES_ADX_DECLARE(8)
PISCES_ADX_DECLARE(16)
PISCES_ADX_DECLARE(32)
#undef PISCES_ADX_DECLARE

namespace {

// The Montgomery kernels in flags; the accumulate and word-dot kernels stay
// portable.
#define PISCES_ADX_TABLE(K)                                                 \
  KernelVTable {                                                            \
    K, &pisces_adx_mul_##K, &pisces_adx_sqr_##K, &pisces_adx_redc_##K,      \
        &MulAccK<K>, &pisces_adx_redc_wide_##K, &DotI64K<K>                 \
  }
constexpr KernelVTable kAdx8 = PISCES_ADX_TABLE(8);
constexpr KernelVTable kAdx16 = PISCES_ADX_TABLE(16);
constexpr KernelVTable kAdx32 = PISCES_ADX_TABLE(32);
#undef PISCES_ADX_TABLE

}  // namespace
#endif

bool AdxAvailable() {
#if PISCES_FIELD_ASM
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("adx") && __builtin_cpu_supports("bmi2");
  }();
  return available;
#else
  return false;
#endif
}

const KernelVTable* PortableKernelsForWidth(std::size_t k) {
  switch (k) {
    case 4:
      return &kTable4;
    case 8:
      return &kTable8;
    case 16:
      return &kTable16;
    case 32:
      return &kTable32;
    default:
      return nullptr;
  }
}

const KernelVTable* AdxKernelsForWidth([[maybe_unused]] std::size_t k) {
#if PISCES_FIELD_ASM
  if (AdxAvailable()) {
    switch (k) {
      case 8:
        return &kAdx8;
      case 16:
        return &kAdx16;
      case 32:
        return &kAdx32;
      default:
        break;
    }
  }
#endif
  return nullptr;
}

const KernelVTable* KernelsForWidth(std::size_t k) {
  const KernelVTable* adx = AdxKernelsForWidth(k);
  return adx != nullptr ? adx : PortableKernelsForWidth(k);
}

}  // namespace pisces::field::kernels
