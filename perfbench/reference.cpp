#include "reference.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace {
constexpr std::size_t kKeys = std::size_t{1} << 15;
}  // namespace

ReferenceKernel::ReferenceKernel() : keys_(kKeys) { checksum_ = sort_keys(); }

double ReferenceKernel::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t sum = sort_keys();
  const double dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  repeats_ = repeats_ && sum == checksum_;
  return dt;
}

std::uint64_t ReferenceKernel::sort_keys() {
  std::uint64_t s = 99;
  for (auto& k : keys_) {
    s = s * 6364136223846793005ULL + 1;
    k = static_cast<std::uint32_t>(s >> 40);
  }
  std::sort(keys_.begin(), keys_.end());
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < keys_.size(); i += 97) sum = sum * 31 + keys_[i];
  return sum;
}

}  // namespace perfbench
