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

const KernelVTable* KernelsForWidth(std::size_t k) {
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

}  // namespace pisces::field::kernels
