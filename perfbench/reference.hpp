// Host-speed reference kernel for the reramdl benchmark.
//
// One run sorts the same 32,768 pseudo-random 24-bit keys. The kernel shares
// no code with the simulator and is compiled with fixed flags of its own
// (see CMakeLists.txt), so no change to the simulator or to its build can
// change the kernel's cost: only the host's speed does. The driver runs it
// between timed repetitions and divides host throughput by the host speed
// it measures.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class ReferenceKernel {
 public:
  ReferenceKernel();  // allocates the keys and runs the kernel once, untimed

  // Runs the kernel once and returns its wall time in seconds.
  double run();

  // True while every run has sorted the keys to the same result.
  bool repeats() const { return repeats_; }

 private:
  std::uint64_t sort_keys();  // returns a checksum of the sorted keys

  std::vector<std::uint32_t> keys_;
  std::uint64_t checksum_ = 0;
  bool repeats_ = true;
};

}  // namespace perfbench
