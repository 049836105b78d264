#include "spacefts/core/kernel.hpp"

namespace spacefts::core {
namespace {

[[nodiscard]] bool host_has_avx2() noexcept {
#if defined(SPACEFTS_HAVE_AVX2) && defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

}  // namespace

const char* kernel_name(Kernel kernel) noexcept {
  switch (kernel) {
    case Kernel::kAuto:
      return "auto";
    case Kernel::kSwar:
      return "swar";
    case Kernel::kAvx2:
      return "avx2";
  }
  return "auto";
}

bool parse_kernel(std::string_view text, Kernel& out) noexcept {
  if (text == "auto") {
    out = Kernel::kAuto;
  } else if (text == "swar") {
    out = Kernel::kSwar;
  } else if (text == "avx2") {
    out = Kernel::kAvx2;
  } else {
    return false;
  }
  return true;
}

bool kernel_available(Kernel kernel) noexcept {
  switch (kernel) {
    case Kernel::kAuto:
    case Kernel::kSwar:
      return true;
    case Kernel::kAvx2:
      return host_has_avx2();
  }
  return false;
}

Kernel resolve_kernel(Kernel requested) noexcept {
  if (requested == Kernel::kAuto) {
    return host_has_avx2() ? Kernel::kAvx2 : Kernel::kSwar;
  }
  if (!kernel_available(requested)) return Kernel::kSwar;
  return requested;
}

std::vector<Kernel> available_kernels() {
  std::vector<Kernel> kernels{Kernel::kSwar};
  if (host_has_avx2()) kernels.push_back(Kernel::kAvx2);
  return kernels;
}

}  // namespace spacefts::core
